//! Per-node reservation timelines (the Gantt chart).
//!
//! Each node carries a sorted list of non-overlapping reservations. The
//! scheduler asks two questions: "is this node free over `[t, t+d)`?" and
//! "what is the earliest instant ≥ `t` where a window of length `d` is
//! free?". Both are O(#reservations) on one node's timeline; the daily GC
//! keeps a timeline to the reservations still ahead. What is *not* cheap is
//! asking many nodes: [`crate::server`] keeps that to the nodes of one
//! scheduling part that match the request's filter.

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

    /// Earliest instant ≥ `from` at which a window of length `d` is free.
    pub fn earliest_free(&self, from: SimTime, d: SimDuration) -> SimTime {
        let mut t = from;
        for r in &self.slots {
            if r.end <= t {
                continue;
            }
            if r.start >= t + d {
                break;
            }
            // Overlap: jump past this reservation.
            t = r.end;
        }
        t
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
/// where some reservation ends — a free window cannot open anywhere else.
/// The planner used to rediscover those instants by scanning every node
/// timeline on every pass; this index caches them, keyed by cluster, and is
/// invalidated incrementally on reserve/release/truncate. Multiset
/// semantics (`end → count`) because many reservations share an end.
#[derive(Debug, Clone, Default)]
pub struct EndIndex {
    per_cluster: Vec<BTreeMap<SimTime, u32>>,
    global: BTreeMap<SimTime, u32>,
}

impl EndIndex {
    /// An index over `clusters` cluster slots.
    pub fn new(clusters: usize) -> Self {
        EndIndex {
            per_cluster: vec![BTreeMap::new(); clusters],
            global: BTreeMap::new(),
        }
    }

    /// Record a reservation ending at `end` on a node of `cluster`.
    pub fn add(&mut self, cluster: usize, end: SimTime) {
        *self.per_cluster[cluster].entry(end).or_insert(0) += 1;
        *self.global.entry(end).or_insert(0) += 1;
    }

    /// Remove one reservation end previously recorded with [`EndIndex::add`].
    pub fn remove(&mut self, cluster: usize, end: SimTime) {
        Self::dec(&mut self.per_cluster[cluster], end);
        Self::dec(&mut self.global, end);
    }

    /// A reservation's end moved (truncation on early completion).
    pub fn move_end(&mut self, cluster: usize, from: SimTime, to: SimTime) {
        self.remove(cluster, from);
        self.add(cluster, to);
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

    /// The earliest tracked end strictly after `t` on `cluster` — i.e. the
    /// next instant a node of that cluster can free up.
    pub fn earliest_end_after(&self, cluster: usize, t: SimTime) -> Option<SimTime> {
        self.per_cluster[cluster]
            .range((std::ops::Bound::Excluded(t), std::ops::Bound::Unbounded))
            .next()
            .map(|(&e, _)| e)
    }

    /// The earliest tracked end strictly after `t` across all clusters
    /// (drives the planning-horizon re-plan wakeup).
    pub fn first_beyond(&self, t: SimTime) -> Option<SimTime> {
        self.global
            .range((std::ops::Bound::Excluded(t), std::ops::Bound::Unbounded))
            .next()
            .map(|(&e, _)| e)
    }

    /// Multiset view for one cluster (testing/diagnostics).
    pub fn cluster_counts(&self, cluster: usize) -> &BTreeMap<SimTime, u32> {
        &self.per_cluster[cluster]
    }

    /// Multiset view across all clusters (testing/diagnostics).
    pub fn global_counts(&self) -> &BTreeMap<SimTime, u32> {
        &self.global
    }

    /// Drop ends at or before `horizon` (mirrors [`NodeTimeline::gc`]).
    pub fn gc(&mut self, horizon: SimTime) {
        for m in &mut self.per_cluster {
            *m = m.split_off(&next_instant(horizon));
        }
        self.global = self.global.split_off(&next_instant(horizon));
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
        assert_eq!(tl.earliest_free(t(5), H), t(5));
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
    fn earliest_free_skips_reservations() {
        let mut tl = NodeTimeline::new();
        tl.reserve(t(2), H * 2, JobId(1)); // [2, 4)
        tl.reserve(t(5), H, JobId(2)); // [5, 6)
        // Window of 1h starting from 0 fits at 0.
        assert_eq!(tl.earliest_free(t(0), H), t(0));
        // Window of 3h from 0 cannot fit before [2,4): next candidate 4,
        // but [4,7) overlaps [5,6), so 6.
        assert_eq!(tl.earliest_free(t(0), H * 3), t(6));
        // Window of 1h from 2 → 4.
        assert_eq!(tl.earliest_free(t(2), H), t(4));
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
        let mut idx = EndIndex::new(1);
        idx.add(0, t(2));
        idx.add(0, t(6));
        // Range bounds: after exclusive, upto inclusive.
        let mut out = Vec::new();
        idx.candidates_into(0, t(2), t(6), &mut out);
        assert_eq!(out, vec![t(6)]);
        assert_eq!(idx.earliest_end_after(0, t(2)), Some(t(6)));
        assert_eq!(idx.first_beyond(t(6)), None);
        // Truncation moves an end earlier.
        idx.move_end(0, t(6), t(4));
        assert_eq!(idx.earliest_end_after(0, t(2)), Some(t(4)));
        // GC drops history, keeping ends strictly after the horizon.
        idx.gc(t(2));
        let mut out = Vec::new();
        idx.global_candidates_into(t(0), t(10), &mut out);
        assert_eq!(out, vec![t(4)]);
    }

    #[test]
    fn active_at_identifies_job() {
        let mut tl = NodeTimeline::new();
        tl.reserve(t(1), H * 2, JobId(7));
        assert_eq!(tl.active_at(t(2)).unwrap().job, JobId(7));
        assert!(tl.active_at(t(0)).is_none());
    }
}
