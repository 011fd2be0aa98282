//! The due-date index both launch policies share.

use std::collections::VecDeque;
use ttt_sim::{EventQueue, SimDuration, SimTime};

/// Slots keyed by due instant, superseded lazily.
///
/// The owner keeps each slot's current due date in the per-slot state it
/// already has and pushes every new date here; an older entry for the same
/// slot stays queued until it surfaces and the owner's `live` predicate
/// rejects it. A pass therefore costs O(due), not O(slots), and a slot is
/// re-armed without searching the queue.
///
/// Most dates are `now + d` for one of a few fixed delays `d` (the
/// re-examination delay, each family's period, the cron period and retry,
/// 0 at enrolment), pushed with a clock that does not go back. Such dates
/// arrive in due order per delay, so [`DueIndex::push_after`] appends them
/// to a FIFO lane of their delay and never sifts a heap. Jittered backoffs
/// ([`DueIndex::push`]), and a date that would land before the back of its
/// lane, go to the heap. A pass drains every lane's front and the heap up
/// to `now` and sorts what it took, so which container held a date never
/// shows: the passes are those of one heap.
#[derive(Debug, Default)]
pub(crate) struct DueIndex {
    /// One lane per distinct delay, in the order the delays first came.
    lanes: Vec<Lane>,
    queue: EventQueue<usize>,
    /// Buffer of due slots reused across passes.
    scratch: Vec<usize>,
}

/// Due dates pushed `delay` after a nondecreasing clock: ascending from
/// front to back.
#[derive(Debug)]
struct Lane {
    delay: SimDuration,
    dates: VecDeque<(SimTime, usize)>,
}

impl DueIndex {
    /// Index `slot` as due at `at`.
    pub fn push(&mut self, at: SimTime, slot: usize) {
        self.queue.push(at, slot);
    }

    /// Index `slot` as due `delay` after `now`.
    pub fn push_after(&mut self, now: SimTime, delay: SimDuration, slot: usize) {
        let at = now + delay;
        let lane = self.lane(delay);
        if lane.dates.back().is_some_and(|&(back, _)| back > at) {
            self.queue.push(at, slot);
        } else {
            lane.dates.push_back((at, slot));
        }
    }

    fn lane(&mut self, delay: SimDuration) -> &mut Lane {
        let i = match self.lanes.iter().position(|lane| lane.delay == delay) {
            Some(i) => i,
            None => {
                self.lanes.push(Lane {
                    delay,
                    dates: VecDeque::new(),
                });
                self.lanes.len() - 1
            }
        };
        &mut self.lanes[i]
    }

    /// Make room in `delay`'s lane for exactly `additional` more due dates
    /// than it holds. Room for none makes no lane: every wake walks the
    /// lanes, so a campaign that enrolls nothing keeps none.
    pub fn reserve_exact(&mut self, delay: SimDuration, additional: usize) {
        if additional > 0 {
            self.lane(delay).dates.reserve_exact(additional);
        }
    }

    /// The earliest live due instant, dropping superseded entries off the
    /// fronts. O(lanes + log n) amortized.
    pub fn next_time(&mut self, live: impl Fn(SimTime, usize) -> bool) -> Option<SimTime> {
        let mut next = None;
        while let Some((at, &slot)) = self.queue.peek() {
            if live(at, slot) {
                next = Some(at);
                break;
            }
            self.queue.pop();
        }
        for lane in &mut self.lanes {
            while let Some(&(at, slot)) = lane.dates.front() {
                if live(at, slot) {
                    next = Some(next.map_or(at, |n: SimTime| n.min(at)));
                    break;
                }
                lane.dates.pop_front();
            }
        }
        next
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
        for lane in &mut self.lanes {
            while let Some(&(at, slot)) = lane.dates.front() {
                if at > now {
                    break;
                }
                lane.dates.pop_front();
                if live(at, slot) {
                    due.push(slot);
                }
            }
            // Enrolment fills the zero-delay lane in one burst per rollout
            // phase and the pass of the same instant drains it: its buffer
            // would sit idle until the next phase, so it goes back now.
            if lane.delay == SimDuration::ZERO && lane.dates.is_empty() {
                lane.dates.shrink_to_fit();
            }
        }
        due.sort_unstable();
        due.dedup();
        due
    }

    /// Return the buffer [`DueIndex::take_due`] handed out.
    pub fn recycle(&mut self, due: Vec<usize>) {
        self.scratch = due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use ttt_sim::rng::stream_rng;

    /// The index's reference: every date ever pushed and not yet taken, in
    /// a plain vector, with the owner's rule that a date is live while it
    /// is its slot's latest.
    #[derive(Default)]
    struct Reference {
        dates: Vec<(SimTime, usize)>,
    }

    impl Reference {
        fn take_due(&mut self, now: SimTime, live: impl Fn(SimTime, usize) -> bool) -> Vec<usize> {
            let mut due: Vec<usize> = self
                .dates
                .iter()
                .filter(|&&(at, slot)| at <= now && live(at, slot))
                .map(|&(_, slot)| slot)
                .collect();
            self.dates.retain(|&(at, _)| at > now);
            due.sort_unstable();
            due.dedup();
            due
        }

        fn next_time(&self, live: impl Fn(SimTime, usize) -> bool) -> Option<SimTime> {
            let live = self.dates.iter().filter(|&&(at, slot)| live(at, slot));
            live.map(|&(at, _)| at).min()
        }
    }

    /// Random `push` / `push_after` calls — fixed delays from a nondecreasing
    /// clock, ties, a clock that steps back, jittered dates that may land
    /// before `now`, re-arms that supersede a slot's older date — against
    /// the reference: the same slots in the same order after every
    /// `take_due`, the same instant after every `next_time`.
    #[test]
    fn lanes_and_heap_answer_as_a_sorted_vector() {
        const SLOTS: usize = 24;
        let delays = [0, 600, 900, 86_400, 604_800].map(SimDuration::from_secs);
        for seed in 0..256 {
            let mut rng = stream_rng(seed, "due-index");
            let mut index = DueIndex::default();
            let mut reference = Reference::default();
            // The owner's per-slot state: each slot's latest date.
            let mut latest: [Option<SimTime>; SLOTS] = [None; SLOTS];
            let mut now = SimTime::ZERO;
            for step in 0..400 {
                let slot = rng.gen_range(0..SLOTS);
                match rng.gen_range(0..10) {
                    0..=3 => {
                        let delay = delays[rng.gen_range(0..delays.len())];
                        index.push_after(now, delay, slot);
                        reference.dates.push((now + delay, slot));
                        latest[slot] = Some(now + delay);
                    }
                    4 => {
                        let at = SimTime::from_secs(now.as_secs().saturating_sub(3_600))
                            + SimDuration::from_secs(rng.gen_range(0..14_400));
                        index.push(at, slot);
                        reference.dates.push((at, slot));
                        latest[slot] = Some(at);
                    }
                    5 | 6 => {
                        let live = |at, slot: usize| latest[slot] == Some(at);
                        let due = index.take_due(now, live);
                        assert_eq!(due, reference.take_due(now, live), "seed {seed} step {step}");
                        index.recycle(due);
                    }
                    7 => {
                        let live = |at, slot: usize| latest[slot] == Some(at);
                        let next = index.next_time(live);
                        assert_eq!(next, reference.next_time(live), "seed {seed} step {step}");
                    }
                    // The clock moves on (by 0 too, for ties) or, rarely,
                    // steps back.
                    8 => {
                        let step = [0, 300, 600, 3_600][rng.gen_range(0..4usize)];
                        now += SimDuration::from_secs(step);
                    }
                    _ if rng.gen_bool(0.9) => {
                        now += SimDuration::from_secs(rng.gen_range(0..1_200));
                    }
                    _ => {
                        let back = rng.gen_range(0..7_200);
                        now = SimTime::from_secs(now.as_secs().saturating_sub(back));
                    }
                }
            }
        }
    }
}
