//! A scheduling part's Gantt chart: per-node reservation timelines and the
//! index of the instants at which they end.
//!
//! A [`NodeTimeline`] is one node's sorted list of non-overlapping
//! reservations; "is this node free over `[t, t+d)`?" is O(#reservations)
//! on it. A reservation leaves the chart when its job ends, so a timeline
//! holds only the reservations of jobs still scheduled or running. An
//! [`EndIndex`] holds the planner's candidate start instants: one ordered
//! multiset of the part's reservation ends, into which a booked job writes
//! its end once, whatever its node count. A [`Gantt`] owns both for the
//! nodes of one part and is the only code that writes either, so booking
//! and releasing a reservation each update timeline and index in one call
//! and the two cannot drift apart; [`Gantt::divergence`] is the scan that
//! says so. What is *not* cheap is asking many nodes: [`crate::server`]
//! keeps that to the nodes of its part that match the request's filter.

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

/// Reservation timeline of a single node: the reservations of the jobs
/// still scheduled or running on it, each dropped when its job ends.
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

    /// Remove `job`'s reservation, returning its end, if it holds one.
    pub fn release(&mut self, job: JobId) -> Option<SimTime> {
        let i = self.slots.iter().position(|r| r.job == job)?;
        Some(self.slots.remove(i).end)
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
}

/// Index of the upcoming reservation *end* instants of one part.
///
/// Conservative backfilling only ever starts a job "now" or at an instant
/// where some reservation ends — a free window cannot open anywhere else —
/// so these are the planner's candidate instants. Multiset semantics
/// (`end → count`) because many reservations share an end. Read-only
/// outside this module: the owning [`Gantt`] writes it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndIndex(BTreeMap<SimTime, u32>);

impl EndIndex {
    /// Record `n` reservations ending at `end`.
    fn add(&mut self, (end, n): Run) {
        *self.0.entry(end).or_insert(0) += n;
    }

    /// Remove `n` ends previously recorded with `add`.
    fn remove(&mut self, (end, n): Run) {
        match self.0.get_mut(&end) {
            Some(c) if *c > n => *c -= n,
            Some(c) => {
                debug_assert_eq!(*c, n, "removing {n} ends at {end}, {c} tracked");
                self.0.remove(&end);
            }
            None => debug_assert!(false, "removing untracked end {end}"),
        }
    }

    /// Append every distinct end in `(after, upto]` to `out`, in ascending
    /// order.
    pub fn candidates_into(&self, after: SimTime, upto: SimTime, out: &mut Vec<SimTime>) {
        out.extend(
            self.0
                .range((
                    std::ops::Bound::Excluded(after),
                    std::ops::Bound::Included(upto),
                ))
                .map(|(&t, _)| t),
        );
    }

    /// The earliest tracked end strictly after `t` (drives the
    /// planning-horizon re-plan wakeup).
    pub fn first_beyond(&self, t: SimTime) -> Option<SimTime> {
        self.0
            .range((std::ops::Bound::Excluded(t), std::ops::Bound::Unbounded))
            .next()
            .map(|(&e, _)| e)
    }
}

/// `n` reservation ends at one instant: `(end, n)`.
type Run = (SimTime, u32);

/// The reservations of one scheduling part: a [`NodeTimeline`] per node,
/// addressed by the node's slot in the part, and the [`EndIndex`] over them.
/// Every write goes through here and updates both, the index once per job
/// rather than once per node.
#[derive(Debug, Clone)]
pub struct Gantt {
    timelines: Vec<NodeTimeline>,
    ends: EndIndex,
}

impl Gantt {
    /// An empty chart of `nodes` nodes, in slots `0..nodes`.
    pub fn new(nodes: usize) -> Self {
        Gantt {
            timelines: vec![NodeTimeline::new(); nodes],
            ends: EndIndex::default(),
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
        let mut nodes = 0;
        for slot in slots {
            self.timelines[slot].reserve(start, d, job);
            nodes += 1;
        }
        if nodes > 0 {
            self.ends.add((start + d, nodes));
        }
    }

    /// Drop `job`'s reservation on every node of `slots`. A job is booked
    /// in one call, so its nodes share one end, which leaves the index once
    /// for all of them.
    pub fn release(&mut self, job: JobId, slots: impl IntoIterator<Item = usize>) {
        let mut held: Option<Run> = None;
        for slot in slots {
            if let Some(end) = self.timelines[slot].release(job) {
                held.get_or_insert((end, 0)).1 += 1;
            }
        }
        if let Some(run) = held {
            self.ends.remove(run);
        }
    }

    /// Every reservation on the chart, node by node.
    pub fn reservations(&self) -> impl Iterator<Item = &Reservation> {
        self.timelines.iter().flat_map(NodeTimeline::reservations)
    }

    /// The consistency check, for property tests and oracles: how the end
    /// index differs from the one a scan over every timeline builds — the
    /// same multiset of reservation ends. `None` always, unless this module
    /// has a bug.
    pub fn divergence(&self) -> Option<String> {
        let mut scanned = EndIndex::default();
        for r in self.reservations() {
            scanned.add((r.end, 1));
        }
        (self.ends != scanned).then(|| {
            format!("end index diverged: cached {:?}, scanned {:?}", self.ends, scanned)
        })
    }
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
    fn release_frees_the_window() {
        let mut tl = NodeTimeline::new();
        tl.reserve(t(0), H * 4, JobId(1));
        tl.reserve(t(6), H, JobId(2));
        assert_eq!(tl.release(JobId(2)), Some(t(7)));
        assert_eq!(tl.release(JobId(2)), None);
        assert!(tl.is_free(t(6), H * 10));
        assert!(tl.busy_at(t(1)));
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
    fn end_of_finds_job_reservation() {
        let mut tl = NodeTimeline::new();
        tl.reserve(t(1), H * 2, JobId(7));
        assert_eq!(tl.end_of(JobId(7)), Some(t(3)));
        assert_eq!(tl.end_of(JobId(8)), None);
    }

    #[test]
    fn end_index_multiset_semantics() {
        let mut idx = EndIndex::default();
        idx.add((t(3), 1));
        idx.add((t(3), 1));
        idx.add((t(5), 1));
        let mut out = Vec::new();
        idx.candidates_into(t(0), t(10), &mut out);
        assert_eq!(out, vec![t(3), t(5)]);
        // One of the two t=3 ends goes away: t=3 must survive.
        idx.remove((t(3), 1));
        out.clear();
        idx.candidates_into(t(0), t(10), &mut out);
        assert_eq!(out, vec![t(3), t(5)]);
        idx.remove((t(3), 1));
        out.clear();
        idx.candidates_into(t(0), t(10), &mut out);
        assert_eq!(out, vec![t(5)]);
    }

    #[test]
    fn end_index_ranges_and_moves() {
        let mut g = Gantt::new(3);
        g.book(JobId(1), [0, 1], t(0), H * 2); // two nodes end at 2
        g.book(JobId(2), [2], t(0), H * 6); // one node ends at 6
        assert_eq!(g.busy_count(t(1)), 3);
        assert!(!g.timeline(0).is_free(t(1), H));
        // Range bounds: after exclusive, upto inclusive.
        let ends = |g: &Gantt, after, upto| {
            let mut out = Vec::new();
            g.ends().candidates_into(t(after), t(upto), &mut out);
            out
        };
        assert_eq!(ends(&g, 2, 6), vec![t(6)]);
        assert_eq!(ends(&g, 0, 2), vec![t(2)]);
        assert_eq!(g.ends().first_beyond(t(6)), None);
        // Releasing one of two nodes keeps their shared end; releasing a
        // job that holds nothing is a no-op.
        g.release(JobId(1), [0]);
        g.release(JobId(9), [0, 1, 2]);
        assert_eq!(ends(&g, 0, 10), vec![t(2), t(6)]);
        assert_eq!(g.busy_count(t(1)), 2);
        assert_eq!(g.reservations().count(), 2);
        assert_eq!(g.divergence(), None);
        // Releasing the other node takes the end with it.
        g.release(JobId(1), [1]);
        assert_eq!(ends(&g, 0, 10), vec![t(6)]);
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
