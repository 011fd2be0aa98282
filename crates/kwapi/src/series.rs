//! Ring-buffer time series with consolidation.

use std::collections::{vec_deque, VecDeque};
use ttt_sim::{SimDuration, SimTime};

/// A consolidated (downsampled) point: statistics over one period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsolidatedPoint {
    /// Start of the period.
    pub period_start: SimTime,
    /// Minimum raw value.
    pub min: f64,
    /// Mean raw value.
    pub mean: f64,
    /// Maximum raw value.
    pub max: f64,
    /// Number of raw samples consolidated.
    pub count: u32,
}

/// Aggregate statistics over one raw window — what a snapshot of the
/// read plane captures per node instead of the samples themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowAgg {
    /// Number of raw samples in the window.
    pub count: u32,
    /// Minimum raw value.
    pub min: f64,
    /// Mean raw value.
    pub mean: f64,
    /// Maximum raw value.
    pub max: f64,
}

/// A [`WindowAgg`] being folded, samples oldest first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fold {
    count: u32,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for Fold {
    fn default() -> Self {
        Fold {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

impl Fold {
    pub(crate) fn push(&mut self, v: f64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
    }

    /// The aggregate, if any sample was folded in.
    pub(crate) fn finish(self) -> Option<WindowAgg> {
        (self.count > 0).then(|| WindowAgg {
            count: self.count,
            min: self.min,
            mean: self.sum / self.count as f64,
            max: self.max,
        })
    }
}

/// The mean of `values`, summed oldest first, if there are any.
pub(crate) fn mean_of(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut n = 0usize;
    let sum: f64 = values.inspect(|_| n += 1).sum();
    (n > 0).then(|| sum / n as f64)
}

/// A bounded raw series plus unbounded consolidated history.
///
/// Raw samples older than the ring capacity are folded into per-period
/// min/mean/max points — the "live view + long-term storage" split of the
/// paper's monitoring stack.
#[derive(Debug, Clone)]
pub struct RingSeries {
    /// Raw `(time, value)` samples, oldest first.
    raw: VecDeque<(SimTime, f64)>,
    /// Maximum number of raw samples kept.
    capacity: usize,
    /// Consolidation period.
    period: SimDuration,
    /// Consolidated history, oldest first.
    consolidated: Vec<ConsolidatedPoint>,
    /// Accumulator for the period currently being consolidated.
    acc: Option<ConsolidatedPoint>,
}

impl RingSeries {
    /// Create a series keeping `capacity` raw samples and consolidating
    /// evicted samples over `period`. A zero capacity keeps no raw sample:
    /// each one is consolidated as it arrives. A zero period gives every
    /// instant a point of its own.
    pub fn new(capacity: usize, period: SimDuration) -> Self {
        RingSeries {
            raw: VecDeque::new(),
            capacity,
            period,
            consolidated: Vec::new(),
            acc: None,
        }
    }

    /// Append a sample. Samples must arrive in non-decreasing time order.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.raw.back() {
            debug_assert!(t >= last, "samples must be time-ordered");
        }
        self.raw.push_back((t, value));
        if self.raw.len() > self.capacity {
            if let Some((old_t, old_v)) = self.raw.pop_front() {
                self.consolidate(old_t, old_v);
            }
        }
    }

    fn consolidate(&mut self, t: SimTime, v: f64) {
        let p = self.period.as_nanos();
        let period_start = t.as_nanos().checked_div(p).map_or(t, |q| SimTime::from_nanos(q * p));
        match &mut self.acc {
            Some(acc) if acc.period_start == period_start => {
                acc.min = acc.min.min(v);
                acc.max = acc.max.max(v);
                acc.mean = (acc.mean * acc.count as f64 + v) / (acc.count + 1) as f64;
                acc.count += 1;
            }
            _ => {
                if let Some(done) = self.acc.take() {
                    self.consolidated.push(done);
                }
                self.acc = Some(ConsolidatedPoint {
                    period_start,
                    min: v,
                    mean: v,
                    max: v,
                    count: 1,
                });
            }
        }
    }

    /// The most recent raw sample.
    pub fn latest(&self) -> Option<(SimTime, f64)> {
        self.raw.back().copied()
    }

    /// The raw samples in `[from, to)`, oldest first. Both ends are found
    /// by binary search on the time-ordered deque, so a read costs the
    /// samples in the window (plus a logarithm), not the ring's capacity.
    fn in_window(&self, from: SimTime, to: SimTime) -> vec_deque::Iter<'_, (SimTime, f64)> {
        let lo = self.raw.partition_point(|(t, _)| *t < from);
        let hi = self.raw.partition_point(|(t, _)| *t < to);
        // An inverted window (`to < from`) is empty, not a panic.
        self.raw.range(lo..hi.max(lo))
    }

    /// Raw samples in `[from, to)`, oldest first.
    pub fn range(&self, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
        self.in_window(from, to).copied().collect()
    }

    /// Mean of raw samples in `[from, to)`, if any.
    pub fn mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        mean_of(self.in_window(from, to).map(|&(_, v)| v))
    }

    /// Observed sampling frequency over the raw window, in Hz.
    #[cfg(test)]
    pub fn observed_hz(&self) -> Option<f64> {
        if self.raw.len() < 2 {
            return None;
        }
        let (first, _) = *self.raw.front()?;
        let (last, _) = *self.raw.back()?;
        let span = last.since(first).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        Some((self.raw.len() - 1) as f64 / span)
    }

    /// Aggregate raw samples in `[from, to)` without allocating, if any
    /// fall in the window.
    pub fn window(&self, from: SimTime, to: SimTime) -> Option<WindowAgg> {
        let mut fold = Fold::default();
        for &(_, v) in self.in_window(from, to) {
            fold.push(v);
        }
        fold.finish()
    }

    /// Number of raw samples currently held.
    // detlint: allow(pub-fn-only-tests-call) -- the sampler and window model tests count raw samples through it
    pub fn raw_len(&self) -> usize {
        self.raw.len()
    }

    /// Consolidated history (completed periods only).
    pub fn consolidated(&self) -> &[ConsolidatedPoint] {
        &self.consolidated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(cap: usize) -> RingSeries {
        RingSeries::new(cap, SimDuration::from_mins(1))
    }

    #[test]
    fn latest_and_range() {
        let mut s = series(10);
        for i in 0..5u64 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(s.latest(), Some((SimTime::from_secs(4), 4.0)));
        let r = s.range(SimTime::from_secs(1), SimTime::from_secs(4));
        assert_eq!(r.len(), 3);
        assert_eq!(s.mean(SimTime::ZERO, SimTime::from_secs(5)), Some(2.0));
        assert_eq!(s.mean(SimTime::from_secs(100), SimTime::from_secs(101)), None);
    }

    #[test]
    fn ring_evicts_and_consolidates() {
        let mut s = series(3);
        for i in 0..10u64 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(s.raw_len(), 3);
        // 7 samples evicted, all within minute 0 → still accumulating,
        // none flushed as a completed period yet.
        assert!(s.consolidated().is_empty());
        // Jump to minute 3: the first three pushes evict t=7..9 (still
        // minute 0), the fourth evicts a minute-3 sample which flushes the
        // minute-0 accumulator covering all ten original samples.
        for i in 0..4u64 {
            s.push(SimTime::from_mins(3) + SimDuration::from_secs(i), 50.0);
        }
        assert_eq!(s.consolidated().len(), 1);
        let c = s.consolidated()[0];
        assert_eq!(c.period_start, SimTime::ZERO);
        assert_eq!(c.min, 0.0);
        assert_eq!(c.max, 9.0);
        assert_eq!(c.count, 10);
        assert!((c.mean - 4.5).abs() < 1e-12);
    }

    #[test]
    fn one_hertz_measured() {
        let mut s = series(100);
        for i in 0..60u64 {
            s.push(SimTime::from_secs(i), 100.0);
        }
        let hz = s.observed_hz().unwrap();
        assert!((hz - 1.0).abs() < 1e-9, "observed {hz} Hz");
    }

    #[test]
    fn observed_hz_needs_two_samples() {
        let mut s = series(10);
        assert!(s.observed_hz().is_none());
        s.push(SimTime::ZERO, 1.0);
        assert!(s.observed_hz().is_none());
    }

    #[test]
    fn zero_capacity_consolidates_every_sample_at_once() {
        let mut s = series(0);
        for i in 0..5u64 {
            s.push(SimTime::from_secs(i * 30), i as f64);
        }
        assert_eq!((s.raw_len(), s.latest()), (0, None));
        assert_eq!(s.mean(SimTime::ZERO, SimTime::MAX), None);
        // Minutes 0 and 1 are closed; minute 2 (t = 120 s) still accumulates.
        let points: Vec<_> = s
            .consolidated()
            .iter()
            .map(|c| (c.period_start, c.count, c.min, c.max))
            .collect();
        assert_eq!(
            points,
            [
                (SimTime::ZERO, 2, 0.0, 1.0),
                (SimTime::from_mins(1), 2, 2.0, 3.0)
            ]
        );
    }

    #[test]
    fn zero_period_gives_each_instant_its_own_point() {
        let mut s = RingSeries::new(1, SimDuration::ZERO);
        for (t, v) in [(1, 1.0), (1, 3.0), (2, 5.0), (7, 0.5), (9, 9.0)] {
            s.push(SimTime::from_secs(t), v);
        }
        // t = 9 is the raw sample; t = 7 is still accumulating.
        let points: Vec<_> = s
            .consolidated()
            .iter()
            .map(|c| (c.period_start, c.count, c.mean))
            .collect();
        assert_eq!(
            points,
            [(SimTime::from_secs(1), 2, 2.0), (SimTime::from_secs(2), 1, 5.0)]
        );
        assert_eq!(s.latest(), Some((SimTime::from_secs(9), 9.0)));
    }

    /// What `range`, `mean` and `window` computed before they located the
    /// window by binary search: one pass over every retained sample.
    type Reads = (Vec<(SimTime, f64)>, Option<f64>, Option<WindowAgg>);

    fn linear_scan(kept: &[(SimTime, f64)], from: SimTime, to: SimTime) -> Reads {
        let pts: Vec<(SimTime, f64)> = kept
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .copied()
            .collect();
        let mean = if pts.is_empty() {
            None
        } else {
            Some(pts.iter().map(|(_, v)| v).sum::<f64>() / pts.len() as f64)
        };
        let mut count = 0u32;
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for &(t, v) in kept {
            if t >= from && t < to {
                count += 1;
                min = min.min(v);
                max = max.max(v);
                sum += v;
            }
        }
        let window = (count > 0).then(|| WindowAgg {
            count,
            min,
            mean: sum / count as f64,
            max,
        });
        (pts, mean, window)
    }

    /// The reads with every float as its bit pattern, so `assert_eq!`
    /// compares them bit for bit.
    type ReadBits = (Vec<(SimTime, u64)>, Option<u64>, Option<[u64; 4]>);

    fn bits(reads: &Reads) -> ReadBits {
        let (pts, mean, window) = reads;
        (
            pts.iter().map(|(t, v)| (*t, v.to_bits())).collect(),
            mean.map(f64::to_bits),
            window.map(|w| [w.count as u64, w.min.to_bits(), w.mean.to_bits(), w.max.to_bits()]),
        )
    }

    #[test]
    fn window_reads_match_the_linear_scan_bit_for_bit() {
        use rand::Rng;
        let mut checked = 0u32;
        for seed in 0..48u64 {
            let mut rng = ttt_sim::rng::stream_rng(seed, "ring-series");
            let cap = [1usize, 2, 7, 64][seed as usize % 4];
            let mut s = RingSeries::new(cap, SimDuration::from_mins(1));
            // Up to three ring-fulls, so the deque wraps and evicts;
            // steps of 0 s make runs of duplicate timestamps.
            let n = rng.gen_range(0..=3 * cap + 1);
            let mut pushed = Vec::with_capacity(n);
            let mut t = SimTime::from_secs(rng.gen_range(0..50));
            for _ in 0..n {
                t += SimDuration::from_secs([0, 0, 1, 2, 30][rng.gen_range(0..5usize)]);
                let v = rng.gen_range(0.0..400.0);
                s.push(t, v);
                pushed.push((t, v));
            }
            let kept = &pushed[pushed.len().saturating_sub(cap)..];
            assert_eq!(s.raw_len(), kept.len());
            let first = kept.first().map_or(SimTime::ZERO, |(t, _)| *t);
            let last = kept.last().map_or(SimTime::ZERO, |(t, _)| *t);
            let horizon = last.as_secs() + 40;
            let mut windows = vec![
                // Everything, nothing, and a window wholly older than the ring.
                (SimTime::ZERO, SimTime::from_secs(horizon)),
                (first, first),
                (SimTime::ZERO, first),
                // Ends that sit exactly on (possibly duplicated) sample times.
                (first, last),
                (last, last + SimDuration::from_secs(1)),
                // Inverted.
                (last, first),
                (SimTime::from_secs(horizon), SimTime::ZERO),
            ];
            for _ in 0..24 {
                let a = SimTime::from_secs(rng.gen_range(0..=horizon));
                let b = SimTime::from_secs(rng.gen_range(0..=horizon));
                windows.push((a, b));
            }
            for (from, to) in windows {
                let got = (s.range(from, to), s.mean(from, to), s.window(from, to));
                let want = linear_scan(kept, from, to);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "seed {seed} cap {cap} n {n} [{from:?}, {to:?})"
                );
                checked += 1;
            }
        }
        assert!(checked > 1000);
    }
}
