//! Statistics helpers used by benches and experiment reports.

use crate::time::{SimDuration, SimTime};

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 =
            self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Percentile of a slice (linear interpolation between closest ranks).
///
/// `p` is in `[0, 100]`. Returns `None` for an empty slice. The input does
/// not need to be sorted; a sorted copy is made internally.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Accumulates `(value)` observations into fixed consecutive periods of
/// virtual time, yielding one [`OnlineStats`] per period. Used for e.g.
/// "success rate per month" (experiment E9).
#[derive(Debug, Clone)]
pub struct PeriodSeries {
    period: SimDuration,
    periods: Vec<OnlineStats>,
}

impl PeriodSeries {
    /// Create a series with the given period length.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "period must be non-zero");
        PeriodSeries {
            period,
            periods: Vec::new(),
        }
    }

    /// Record `value` at time `t`.
    pub fn push(&mut self, t: SimTime, value: f64) {
        let idx = (t.as_nanos() / self.period.as_nanos()) as usize;
        if idx >= self.periods.len() {
            self.periods.resize(idx + 1, OnlineStats::new());
        }
        self.periods[idx].push(value);
    }

    /// Per-period statistics, in time order. Empty periods are present
    /// (with `count() == 0`) so indices align with period numbers.
    pub fn periods(&self) -> &[OnlineStats] {
        &self.periods
    }

    /// Period length.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Mean value per period, as `(period_index, mean)` for non-empty periods.
    pub fn means(&self) -> Vec<(usize, f64)> {
        self.periods
            .iter()
            .enumerate()
            .filter(|(_, s)| s.count() > 0)
            .map(|(i, s)| (i, s.mean()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Known population variance 4 => sample variance 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..37].iter().for_each(|&x| a.push(x));
        xs[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn period_series_buckets_by_time() {
        let mut s = PeriodSeries::new(SimDuration::from_days(30));
        s.push(SimTime::from_days(1), 1.0); // period 0
        s.push(SimTime::from_days(29), 0.0); // period 0
        s.push(SimTime::from_days(31), 1.0); // period 1
        s.push(SimTime::from_days(95), 1.0); // period 3
        assert_eq!(s.periods().len(), 4);
        assert_eq!(s.periods()[0].count(), 2);
        assert!((s.periods()[0].mean() - 0.5).abs() < 1e-12);
        assert_eq!(s.periods()[2].count(), 0);
        let means = s.means();
        assert_eq!(means.len(), 3);
        assert_eq!(means[0].0, 0);
        assert_eq!(means[2], (3, 1.0));
    }
}
