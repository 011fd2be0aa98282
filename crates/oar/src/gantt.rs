//! A scheduling part's Gantt chart: per-node reservation timelines and the
//! index of the instants at which they end.
//!
//! A [`NodeTimeline`] is one node's sorted list of non-overlapping
//! reservations; "is this node free over `[t, t+d)`?" is O(#reservations)
//! on it, and the daily GC keeps it to the reservations still ahead. An
//! [`EndIndex`] holds the planner's candidate start instants. A [`Gantt`]
//! owns both for the nodes of one part and is the only code that writes
//! either, so booking, releasing, truncating and collecting a reservation
//! each update timeline and index in one call and the two cannot drift
//! apart; [`Gantt::divergence`] is the scan that says so. What is *not*
//! cheap is asking many nodes: [`crate::server`] keeps that to the nodes of
//! its part that match the request's filter.

use crate::job::JobId;
use std::collections::BTreeMap;
use ttt_sim::{SimDuration, SimTime};

/// One reservation on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Start instant (inclusive).
    pub start: SimTime,
    /// End instant (exclusive).
    pub end: SimTime,
    /// Owning job.
    pub job: JobId,
}

/// Reservation timeline of a single node.
#[derive(Debug, Clone, Default)]
pub struct NodeTimeline {
    /// Reservations sorted by start, non-overlapping.
    slots: Vec<Reservation>,
}

impl NodeTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        NodeTimeline::default()
    }

    /// Current reservations (sorted, non-overlapping).
    pub fn reservations(&self) -> &[Reservation] {
        &self.slots
    }

    /// Whether `[start, start+d)` is entirely free.
    pub fn is_free(&self, start: SimTime, d: SimDuration) -> bool {
        let end = start + d;
        self.slots.iter().all(|r| r.end <= start || r.start >= end)
    }

    /// Insert a reservation.
    ///
    /// # Panics
    /// Panics if the window overlaps an existing reservation — the
    /// scheduler must only book windows it has verified free.
    pub fn reserve(&mut self, start: SimTime, d: SimDuration, job: JobId) {
        assert!(
            self.is_free(start, d),
            "double booking: job {job:?} at {start}"
        );
        let r = Reservation {
            start,
            end: start + d,
            job,
        };
        let idx = self
            .slots
            .partition_point(|existing| existing.start < r.start);
        self.slots.insert(idx, r);
    }

    /// Remove every reservation belonging to `job`. Returns how many were
    /// removed.
    pub fn release(&mut self, job: JobId) -> usize {
        let before = self.slots.len();
        self.slots.retain(|r| r.job != job);
        before - self.slots.len()
    }

    /// Truncate a running reservation of `job` to end at `at` (early
    /// completion). No-op if the job holds no reservation covering `at`.
    pub fn truncate(&mut self, job: JobId, at: SimTime) {
        for r in &mut self.slots {
            if r.job == job && r.start <= at && r.end > at {
                r.end = at;
            }
        }
        self.slots.retain(|r| r.start < r.end);
    }

    /// The end instant of `job`'s reservation on this node, if it holds one.
    pub fn end_of(&self, job: JobId) -> Option<SimTime> {
        self.slots.iter().find(|r| r.job == job).map(|r| r.end)
    }

    /// The reservation active at instant `t`, if any.
    pub fn active_at(&self, t: SimTime) -> Option<&Reservation> {
        self.slots.iter().find(|r| r.start <= t && t < r.end)
    }

    /// Whether the node is busy at instant `t`.
    pub fn busy_at(&self, t: SimTime) -> bool {
        self.active_at(t).is_some()
    }

    /// Drop reservations that ended at or before `horizon` (history GC).
    pub fn gc(&mut self, horizon: SimTime) {
        self.slots.retain(|r| r.end > horizon);
    }
}

/// Per-cluster index of upcoming reservation *end* instants.
///
/// Conservative backfilling only ever starts a job "now" or at an instant
/// where some reservation ends — a free window cannot open anywhere else —
/// so these are the planner's candidate instants, kept per cluster so that
/// a request reads only the ends that can concern it. Multiset semantics
/// (`end → count`) because many reservations share an end. Read-only
/// outside this module: the owning [`Gantt`] writes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndIndex {
    per_cluster: Vec<BTreeMap<SimTime, u32>>,
    global: BTreeMap<SimTime, u32>,
}

impl EndIndex {
    fn new(clusters: usize) -> Self {
        EndIndex {
            per_cluster: vec![BTreeMap::new(); clusters],
            global: BTreeMap::new(),
        }
    }

    fn add(&mut self, cluster: usize, end: SimTime) {
        *self.per_cluster[cluster].entry(end).or_insert(0) += 1;
        *self.global.entry(end).or_insert(0) += 1;
    }

    /// Remove one end previously recorded with `add`.
    fn remove(&mut self, cluster: usize, end: SimTime) {
        Self::dec(&mut self.per_cluster[cluster], end);
        Self::dec(&mut self.global, end);
    }

    fn dec(map: &mut BTreeMap<SimTime, u32>, end: SimTime) {
        if let Some(c) = map.get_mut(&end) {
            *c -= 1;
            if *c == 0 {
                map.remove(&end);
            }
        } else {
            debug_assert!(false, "removing untracked end {end}");
        }
    }

    /// Append every distinct end in `(after, upto]` on `cluster` to `out`.
    pub fn candidates_into(
        &self,
        cluster: usize,
        after: SimTime,
        upto: SimTime,
        out: &mut Vec<SimTime>,
    ) {
        out.extend(
            self.per_cluster[cluster]
                .range((
                    std::ops::Bound::Excluded(after),
                    std::ops::Bound::Included(upto),
                ))
                .map(|(&t, _)| t),
        );
    }

    /// Append every distinct end in `(after, upto]` across all clusters to
    /// `out`, in ascending order.
    pub fn global_candidates_into(&self, after: SimTime, upto: SimTime, out: &mut Vec<SimTime>) {
        out.extend(
            self.global
                .range((
                    std::ops::Bound::Excluded(after),
                    std::ops::Bound::Included(upto),
                ))
                .map(|(&t, _)| t),
        );
    }

    /// The earliest tracked end strictly after `t` across all clusters
    /// (drives the planning-horizon re-plan wakeup).
    pub fn first_beyond(&self, t: SimTime) -> Option<SimTime> {
        self.global
            .range((std::ops::Bound::Excluded(t), std::ops::Bound::Unbounded))
            .next()
            .map(|(&e, _)| e)
    }

    /// Drop ends at or before `horizon` (mirrors [`NodeTimeline::gc`]).
    fn gc(&mut self, horizon: SimTime) {
        for m in &mut self.per_cluster {
            *m = m.split_off(&next_instant(horizon));
        }
        self.global = self.global.split_off(&next_instant(horizon));
    }
}

/// The reservations of one scheduling part: a [`NodeTimeline`] per node,
/// addressed by the node's slot in the part, and the [`EndIndex`] over them.
/// Every write goes through here and updates both.
#[derive(Debug, Clone)]
pub struct Gantt {
    timelines: Vec<NodeTimeline>,
    /// The cluster (an index below the `clusters` of [`Gantt::new`]) each
    /// slot's ends are filed under.
    cluster_of_slot: Vec<u32>,
    ends: EndIndex,
}

impl Gantt {
    /// An empty chart with one node per entry of `cluster_of_slot`, each
    /// naming its node's cluster as an index below `clusters`.
    pub fn new(cluster_of_slot: Vec<u32>, clusters: usize) -> Self {
        assert!(cluster_of_slot.iter().all(|&c| (c as usize) < clusters));
        Gantt {
            timelines: vec![NodeTimeline::new(); cluster_of_slot.len()],
            cluster_of_slot,
            ends: EndIndex::new(clusters),
        }
    }

    /// The timeline of the node in `slot`.
    pub fn timeline(&self, slot: usize) -> &NodeTimeline {
        &self.timelines[slot]
    }

    /// The end instants of every reservation on the chart.
    pub fn ends(&self) -> &EndIndex {
        &self.ends
    }

    /// Number of nodes carrying a reservation at instant `t`.
    pub fn busy_count(&self, t: SimTime) -> usize {
        self.timelines.iter().filter(|tl| tl.busy_at(t)).count()
    }

    /// Reserve `[start, start+d)` for `job` on every node of `slots`.
    ///
    /// # Panics
    /// Panics if a window is not free (see [`NodeTimeline::reserve`]).
    pub fn book(
        &mut self,
        job: JobId,
        slots: impl IntoIterator<Item = usize>,
        start: SimTime,
        d: SimDuration,
    ) {
        for slot in slots {
            self.timelines[slot].reserve(start, d, job);
            self.ends.add(self.cluster_of_slot[slot] as usize, start + d);
        }
    }

    /// Drop `job`'s reservation, past and future, on every node of `slots`.
    pub fn release(&mut self, job: JobId, slots: impl IntoIterator<Item = usize>) {
        for slot in slots {
            if let Some(end) = self.timelines[slot].end_of(job) {
                self.ends.remove(self.cluster_of_slot[slot] as usize, end);
            }
            self.timelines[slot].release(job);
        }
    }

    /// End `job`'s running reservation at `at` on every node of `slots`
    /// (see [`NodeTimeline::truncate`]).
    pub fn truncate(&mut self, job: JobId, slots: impl IntoIterator<Item = usize>, at: SimTime) {
        for slot in slots {
            let cluster = self.cluster_of_slot[slot] as usize;
            let old = self.timelines[slot].end_of(job);
            self.timelines[slot].truncate(job, at);
            let new = self.timelines[slot].end_of(job);
            if old != new {
                if let Some(end) = old {
                    self.ends.remove(cluster, end);
                }
                if let Some(end) = new {
                    self.ends.add(cluster, end);
                }
            }
        }
    }

    /// Drop reservations that ended at or before `horizon` (history GC).
    pub fn gc(&mut self, horizon: SimTime) {
        for tl in &mut self.timelines {
            tl.gc(horizon);
        }
        self.ends.gc(horizon);
    }

    /// The consistency check, for property tests and oracles: how the end
    /// index differs from the one a scan over every timeline builds — the
    /// same multiset of reservation ends, globally and per cluster. `None`
    /// always, unless this module has a bug.
    pub fn divergence(&self) -> Option<String> {
        let mut scanned = EndIndex::new(self.ends.per_cluster.len());
        for (tl, &cluster) in self.timelines.iter().zip(&self.cluster_of_slot) {
            for r in tl.reservations() {
                scanned.add(cluster as usize, r.end);
            }
        }
        (self.ends != scanned).then(|| {
            format!("end index diverged: cached {:?}, scanned {:?}", self.ends, scanned)
        })
    }
}

/// The smallest instant strictly after `t` (for exclusive-bound `split_off`).
fn next_instant(t: SimTime) -> SimTime {
    SimTime::from_nanos(t.as_nanos().saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: SimDuration = SimDuration::from_hours(1);

    fn t(h: u64) -> SimTime {
        SimTime::from_hours(h)
    }

    #[test]
    fn empty_timeline_is_free() {
        let tl = NodeTimeline::new();
        assert!(tl.is_free(t(0), H * 100));
        assert!(!tl.busy_at(t(3)));
    }

    #[test]
    fn reserve_blocks_window() {
        let mut tl = NodeTimeline::new();
        tl.reserve(t(2), H * 2, JobId(1)); // [2, 4)
        assert!(tl.is_free(t(0), H * 2)); // [0, 2) ok
        assert!(tl.is_free(t(4), H)); // [4, 5) ok
        assert!(!tl.is_free(t(1), H * 2)); // [1, 3) overlaps
        assert!(!tl.is_free(t(3), H)); // [3, 4) overlaps
        assert!(tl.busy_at(t(2)));
        assert!(!tl.busy_at(t(4))); // end exclusive
    }

    #[test]
    #[should_panic(expected = "double booking")]
    fn double_booking_panics() {
        let mut tl = NodeTimeline::new();
        tl.reserve(t(0), H * 2, JobId(1));
        tl.reserve(t(1), H, JobId(2));
    }

    #[test]
    fn release_and_truncate() {
        let mut tl = NodeTimeline::new();
        tl.reserve(t(0), H * 4, JobId(1));
        tl.reserve(t(6), H, JobId(2));
        assert_eq!(tl.release(JobId(2)), 1);
        assert!(tl.is_free(t(6), H * 10));
        // Truncate job 1 at hour 2: the tail frees up.
        tl.truncate(JobId(1), t(2));
        assert!(tl.is_free(t(2), H * 10));
        assert!(tl.busy_at(t(1)));
        // Truncating at its start removes it entirely.
        let mut tl2 = NodeTimeline::new();
        tl2.reserve(t(0), H, JobId(3));
        tl2.truncate(JobId(3), t(0));
        assert!(tl2.reservations().is_empty());
    }

    #[test]
    fn reservations_stay_sorted() {
        let mut tl = NodeTimeline::new();
        tl.reserve(t(6), H, JobId(3));
        tl.reserve(t(0), H, JobId(1));
        tl.reserve(t(3), H, JobId(2));
        let starts: Vec<_> = tl.reservations().iter().map(|r| r.start).collect();
        assert_eq!(starts, vec![t(0), t(3), t(6)]);
    }

    #[test]
    fn gc_drops_history() {
        let mut tl = NodeTimeline::new();
        tl.reserve(t(0), H, JobId(1));
        tl.reserve(t(5), H, JobId(2));
        tl.gc(t(2));
        assert_eq!(tl.reservations().len(), 1);
        assert_eq!(tl.reservations()[0].job, JobId(2));
    }

    #[test]
    fn end_of_finds_job_reservation() {
        let mut tl = NodeTimeline::new();
        tl.reserve(t(1), H * 2, JobId(7));
        assert_eq!(tl.end_of(JobId(7)), Some(t(3)));
        assert_eq!(tl.end_of(JobId(8)), None);
    }

    #[test]
    fn end_index_multiset_semantics() {
        let mut idx = EndIndex::new(2);
        idx.add(0, t(3));
        idx.add(0, t(3));
        idx.add(1, t(5));
        let mut out = Vec::new();
        idx.global_candidates_into(t(0), t(10), &mut out);
        assert_eq!(out, vec![t(3), t(5)]);
        // One of the two t=3 ends goes away: t=3 must survive.
        idx.remove(0, t(3));
        out.clear();
        idx.candidates_into(0, t(0), t(10), &mut out);
        assert_eq!(out, vec![t(3)]);
        idx.remove(0, t(3));
        out.clear();
        idx.global_candidates_into(t(0), t(10), &mut out);
        assert_eq!(out, vec![t(5)]);
    }

    #[test]
    fn end_index_ranges_and_moves() {
        // Two nodes of cluster 0, one of cluster 1.
        let mut g = Gantt::new(vec![0, 0, 1], 2);
        g.book(JobId(1), [0, 1], t(0), H * 2); // ends at 2 on cluster 0
        g.book(JobId(2), [2], t(0), H * 6); // ends at 6 on cluster 1
        assert_eq!(g.busy_count(t(1)), 3);
        assert!(!g.timeline(0).is_free(t(1), H));
        // Range bounds: after exclusive, upto inclusive.
        let ends = |g: &Gantt, after, upto| {
            let mut out = Vec::new();
            g.ends().global_candidates_into(t(after), t(upto), &mut out);
            out
        };
        assert_eq!(ends(&g, 2, 6), vec![t(6)]);
        assert_eq!(ends(&g, 0, 2), vec![t(2)]);
        assert_eq!(g.ends().first_beyond(t(6)), None);
        // Truncation moves an end earlier; a second one at the same
        // instant changes nothing.
        g.truncate(JobId(2), [2], t(4));
        g.truncate(JobId(2), [2], t(4));
        assert_eq!(ends(&g, 0, 10), vec![t(2), t(4)]);
        let mut on_c1 = Vec::new();
        g.ends().candidates_into(1, t(0), t(10), &mut on_c1);
        assert_eq!(on_c1, vec![t(4)]);
        // Releasing one of two nodes keeps their shared end; releasing a
        // job that holds nothing is a no-op.
        g.release(JobId(1), [0]);
        g.release(JobId(9), [0, 1, 2]);
        assert_eq!(ends(&g, 0, 10), vec![t(2), t(4)]);
        assert_eq!(g.busy_count(t(1)), 2);
        assert_eq!(g.divergence(), None);
        // GC drops history, keeping ends strictly after the horizon.
        g.gc(t(2));
        assert_eq!(ends(&g, 0, 10), vec![t(4)]);
        assert!(g.timeline(1).reservations().is_empty());
        assert_eq!(g.divergence(), None);
    }

    #[test]
    fn active_at_identifies_job() {
        let mut tl = NodeTimeline::new();
        tl.reserve(t(1), H * 2, JobId(7));
        assert_eq!(tl.active_at(t(2)).unwrap().job, JobId(7));
        assert!(tl.active_at(t(0)).is_none());
    }
}
