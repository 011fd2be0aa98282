//! A FIFO-stable event queue over virtual time.
//!
//! Events scheduled for the same instant pop in insertion order, which the
//! simulation relies on for determinism (a plain `BinaryHeap` of
//! `(time, payload)` would pop ties in arbitrary order).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first,
        // and among equal times, lowest sequence number first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Priority queue of `(SimTime, E)` with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// The time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The next event without removing it, as `(time, &event)`.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.time, &e.event))
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Pop the earliest event only if it fires at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }

    /// Drain every event due at or before `now`, in order.
    ///
    /// Thin allocating wrapper over [`EventQueue::drain_due_iter`]; hot
    /// paths should use the iterator directly.
    // detlint: allow(pub-fn-only-tests-call) -- the eager reference the draining iterator is checked against
    pub fn drain_due(&mut self, now: SimTime) -> Vec<(SimTime, E)> {
        self.drain_due_iter(now).collect()
    }

    /// Non-allocating draining iterator over events due at or before `now`,
    /// in order. Events are removed from the queue as the iterator is
    /// advanced; dropping the iterator leaves the rest in place.
    pub fn drain_due_iter(&mut self, now: SimTime) -> DrainDue<'_, E> {
        DrainDue { queue: self, now }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Remove all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Draining iterator returned by [`EventQueue::drain_due_iter`].
pub struct DrainDue<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
}

impl<E> Iterator for DrainDue<'_, E> {
    type Item = (SimTime, E);

    fn next(&mut self) -> Option<(SimTime, E)> {
        self.queue.pop_due(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(30), "c");
        q.push(SimTime::from_secs(10), "a");
        q.push(SimTime::from_secs(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 1);
        q.push(SimTime::from_secs(20), 2);
        assert_eq!(q.pop_due(SimTime::from_secs(5)), None);
        assert_eq!(q.pop_due(SimTime::from_secs(10)), Some((SimTime::from_secs(10), 1)));
        assert_eq!(q.pop_due(SimTime::from_secs(15)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_due_takes_prefix() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(SimTime::from_secs(i), i);
        }
        let drained = q.drain_due(SimTime::from_secs(4));
        assert_eq!(drained.len(), 5);
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for round in 0..50u64 {
            q.push(now + SimDuration::from_secs(round % 7 + 1), round);
            if let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
                now = t;
            }
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(4), "x");
        q.push(SimTime::from_secs(2), "y");
        assert_eq!(q.peek(), Some((SimTime::from_secs(2), &"y")));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_due_iter_matches_drain_due() {
        let mk = || {
            let mut q = EventQueue::new();
            for i in 0..10u64 {
                q.push(SimTime::from_secs(i % 5), i);
            }
            q
        };
        let drained: Vec<_> = mk().drain_due_iter(SimTime::from_secs(3)).collect();
        assert_eq!(drained, mk().drain_due(SimTime::from_secs(3)));
        assert_eq!(drained.len(), 8);
    }

    #[test]
    fn dropping_drain_due_iter_keeps_remainder() {
        let mut q = EventQueue::new();
        for i in 0..6u64 {
            q.push(SimTime::from_secs(i), i);
        }
        {
            let mut it = q.drain_due_iter(SimTime::from_secs(10));
            assert!(it.next().is_some());
            assert!(it.next().is_some());
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
