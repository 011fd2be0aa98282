//! Stochastic arrival processes.
//!
//! Fault arrivals and synthetic user jobs are modelled as (possibly thinned)
//! Poisson processes; this module provides the samplers.

use crate::time::{SimDuration, SimTime};
use rand::Rng;

/// A homogeneous Poisson process sampled by inter-arrival times.
#[derive(Debug, Clone, Copy)]
pub struct PoissonProcess {
    /// Expected events per virtual day.
    rate_per_day: f64,
}

impl PoissonProcess {
    /// Create a process with the given expected number of events per day.
    ///
    /// A non-positive rate yields a process that never fires.
    pub fn per_day(rate_per_day: f64) -> Self {
        PoissonProcess { rate_per_day }
    }

    /// Expected events per day.
    pub fn rate_per_day(&self) -> f64 {
        self.rate_per_day
    }

    /// Sample the next inter-arrival delay, or `None` if the rate is zero.
    pub fn next_delay<R: Rng>(&self, rng: &mut R) -> Option<SimDuration> {
        if self.rate_per_day <= 0.0 {
            return None;
        }
        // Exponential inter-arrival: -ln(U) / lambda, in days.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let days = -u.ln() / self.rate_per_day;
        Some(SimDuration::from_secs_f64(days * 86_400.0))
    }

    /// Sample the next arrival instant after `now`.
    pub fn next_after<R: Rng>(&self, now: SimTime, rng: &mut R) -> Option<SimTime> {
        self.next_delay(rng).map(|d| now + d)
    }

    /// Sample all arrivals in `[from, to)` into a vector. Convenient for
    /// pre-generating fault schedules.
    #[cfg(test)]
    pub fn arrivals_between<R: Rng>(
        &self,
        from: SimTime,
        to: SimTime,
        rng: &mut R,
    ) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = from;
        while let Some(next) = self.next_after(t, rng) {
            if next >= to {
                break;
            }
            out.push(next);
            t = next;
        }
        out
    }
}

/// Sample a truncated normal by rejection (falls back to clamping after a
/// bounded number of attempts). Used for e.g. boot-time noise.
pub fn truncated_normal<R: Rng>(rng: &mut R, mean: f64, stddev: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi);
    for _ in 0..32 {
        // Box-Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let x = mean + stddev * z;
        if x >= lo && x <= hi {
            return x;
        }
    }
    mean.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    #[test]
    fn zero_rate_never_fires() {
        let p = PoissonProcess::per_day(0.0);
        let mut rng = stream_rng(3, "poisson");
        assert!(p.next_delay(&mut rng).is_none());
        assert!(p
            .arrivals_between(SimTime::ZERO, SimTime::from_days(100), &mut rng)
            .is_empty());
    }

    #[test]
    fn mean_rate_is_respected() {
        // 2 events/day over 500 days => ~1000 events; loose 10 % band.
        let p = PoissonProcess::per_day(2.0);
        let mut rng = stream_rng(3, "poisson");
        let arrivals = p.arrivals_between(SimTime::ZERO, SimTime::from_days(500), &mut rng);
        assert!(
            (900..1100).contains(&arrivals.len()),
            "got {}",
            arrivals.len()
        );
    }

    #[test]
    fn arrivals_are_sorted_and_bounded() {
        let p = PoissonProcess::per_day(5.0);
        let mut rng = stream_rng(4, "poisson");
        let from = SimTime::from_days(10);
        let to = SimTime::from_days(20);
        let arrivals = p.arrivals_between(from, to, &mut rng);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().all(|&t| t >= from && t < to));
    }

    #[test]
    fn truncated_normal_within_bounds() {
        let mut rng = stream_rng(5, "tnorm");
        for _ in 0..1000 {
            let x = truncated_normal(&mut rng, 60.0, 20.0, 30.0, 300.0);
            assert!((30.0..=300.0).contains(&x));
        }
    }

    #[test]
    fn truncated_normal_mean_roughly_centered() {
        let mut rng = stream_rng(6, "tnorm");
        let mean: f64 =
            (0..5000).map(|_| truncated_normal(&mut rng, 60.0, 10.0, 0.0, 120.0)).sum::<f64>()
                / 5000.0;
        assert!((mean - 60.0).abs() < 2.0, "mean {mean}");
    }
}
