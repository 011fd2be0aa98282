//! The due-date index both launch policies share.

use ttt_sim::{EventQueue, SimTime};

/// Slots keyed by due instant, superseded lazily.
///
/// The owner keeps each slot's current due date in the per-slot state it
/// already has and pushes every new date here; an older entry for the same
/// slot stays queued until it surfaces and the owner's `live` predicate
/// rejects it. A pass therefore costs O(due), not O(slots), and a slot is
/// re-armed without searching the queue.
#[derive(Debug, Default)]
pub(crate) struct DueIndex {
    queue: EventQueue<usize>,
    /// Buffer of due slots reused across passes.
    scratch: Vec<usize>,
}

impl DueIndex {
    /// Index `slot` as due at `at`.
    pub fn push(&mut self, at: SimTime, slot: usize) {
        self.queue.push(at, slot);
    }

    /// The earliest live due instant, dropping superseded entries off the
    /// front. O(log n) amortized.
    pub fn next_time(&mut self, live: impl Fn(SimTime, usize) -> bool) -> Option<SimTime> {
        while let Some((at, &slot)) = self.queue.peek() {
            if live(at, slot) {
                return Some(at);
            }
            self.queue.pop();
        }
        None
    }

    /// Remove every entry due at or before `now` and return the live
    /// slots, ascending and each once. Hand the buffer back through
    /// [`DueIndex::recycle`] when the pass is over.
    pub fn take_due(&mut self, now: SimTime, live: impl Fn(SimTime, usize) -> bool) -> Vec<usize> {
        let mut due = std::mem::take(&mut self.scratch);
        due.clear();
        let drained = self.queue.drain_due_iter(now);
        due.extend(
            drained
                .filter(|&(at, slot)| live(at, slot))
                .map(|(_, slot)| slot),
        );
        due.sort_unstable();
        due.dedup();
        due
    }

    /// Return the buffer [`DueIndex::take_due`] handed out.
    pub fn recycle(&mut self, due: Vec<usize>) {
        self.scratch = due;
    }
}
