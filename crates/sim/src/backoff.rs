//! Exponential backoff, as used by the paper's external job scheduler
//! (slide 17: "Retry policy (exponential backoff)").

use crate::time::SimDuration;
use rand::Rng;

/// Exponential backoff policy: delay after the n-th consecutive failure is
/// `base * factor^n`, capped at `max`, with optional ±`jitter` fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialBackoff {
    /// Delay after the first failure.
    pub base: SimDuration,
    /// Multiplicative growth per additional failure.
    pub factor: f64,
    /// Upper bound on the delay.
    pub max: SimDuration,
    /// Jitter fraction in `[0, 1]`: the delay is scaled by a uniform factor
    /// in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for ExponentialBackoff {
    /// The paper-scenario default: 30 min base, doubling, capped at 24 h,
    /// 10 % jitter so retries from different configurations desynchronize.
    fn default() -> Self {
        ExponentialBackoff {
            base: SimDuration::from_mins(30),
            factor: 2.0,
            max: SimDuration::from_hours(24),
            jitter: 0.1,
        }
    }
}

impl ExponentialBackoff {
    /// Deterministic delay after `attempt` consecutive failures
    /// (attempt 0 = first failure), without jitter.
    pub fn delay(&self, attempt: u32) -> SimDuration {
        let scaled = self.base.as_secs_f64() * self.factor.powi(attempt as i32);
        SimDuration::from_secs_f64(scaled).min(self.max)
    }

    /// Delay with jitter applied, drawing from `rng`. The scale factor is
    /// drawn from the *closed* interval `[1 - jitter, 1 + jitter]` — the
    /// documented upper bound is reachable (a half-open draw would quietly
    /// exclude it).
    pub fn delay_jittered<R: Rng>(&self, attempt: u32, rng: &mut R) -> SimDuration {
        let d = self.delay(attempt);
        if self.jitter <= 0.0 {
            return d;
        }
        let lo = 1.0 - self.jitter;
        let hi = 1.0 + self.jitter;
        let scale: f64 = rng.gen_range(lo..=hi);
        (d * scale).min(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    fn policy() -> ExponentialBackoff {
        ExponentialBackoff {
            base: SimDuration::from_mins(30),
            factor: 2.0,
            max: SimDuration::from_hours(24),
            jitter: 0.0,
        }
    }

    #[test]
    fn doubles_until_cap() {
        let b = policy();
        assert_eq!(b.delay(0), SimDuration::from_mins(30));
        assert_eq!(b.delay(1), SimDuration::from_hours(1));
        assert_eq!(b.delay(2), SimDuration::from_hours(2));
        assert_eq!(b.delay(5), SimDuration::from_hours(16));
        assert_eq!(b.delay(6), SimDuration::from_hours(24)); // capped (32 > 24)
        assert_eq!(b.delay(20), SimDuration::from_hours(24));
    }

    #[test]
    fn huge_attempt_does_not_overflow() {
        let b = policy();
        assert_eq!(b.delay(1000), SimDuration::from_hours(24));
    }

    #[test]
    fn jitter_stays_in_band() {
        let b = ExponentialBackoff {
            jitter: 0.1,
            ..policy()
        };
        let mut rng = stream_rng(1, "backoff");
        for attempt in 0..5 {
            let nominal = b.delay(attempt).as_secs_f64();
            for _ in 0..100 {
                let d = b.delay_jittered(attempt, &mut rng).as_secs_f64();
                assert!(d >= nominal * 0.9 - 1.0 && d <= nominal * 1.1 + 1.0);
            }
        }
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let b = policy();
        let mut rng = stream_rng(1, "backoff");
        assert_eq!(b.delay_jittered(3, &mut rng), b.delay(3));
    }

    /// An RNG pinned to one word, driving `gen_range` to an endpoint.
    struct ConstRng(u64);
    impl rand::RngCore for ConstRng {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn jitter_band_endpoints_are_reachable() {
        use rand::Rng as _;
        // The documented contract is a scale in [1 - j, 1 + j] inclusive:
        // a maximal draw must land exactly on the upper bound, a minimal
        // draw exactly on the lower one (this pins the closed-interval
        // draw — the old half-open `lo..hi` could never return `hi`).
        let b = ExponentialBackoff {
            jitter: 0.1,
            ..policy()
        };
        let nominal = b.delay(1).as_secs_f64();
        let top = b.delay_jittered(1, &mut ConstRng(u64::MAX)).as_secs_f64();
        assert!(
            (top - nominal * 1.1).abs() < 1e-6,
            "max draw gives {top}, want {}",
            nominal * 1.1
        );
        let bottom = b.delay_jittered(1, &mut ConstRng(0)).as_secs_f64();
        assert!(
            (bottom - nominal * 0.9).abs() < 1e-6,
            "min draw gives {bottom}, want {}",
            nominal * 0.9
        );
        // Sanity: the raw scale draw itself reaches both closed endpoints.
        assert_eq!(ConstRng(u64::MAX).gen_range(0.9f64..=1.1), 1.1);
        assert_eq!(ConstRng(0).gen_range(0.9f64..=1.1), 0.9);
    }

    #[test]
    fn jittered_delays_stay_in_the_closed_band() {
        // Property over the whole policy space: for random policies and
        // attempts, the jittered delay lies in
        // [nominal·(1-j), min(nominal·(1+j), max)] — never outside.
        let mut rng = stream_rng(99, "backoff-prop");
        use rand::Rng as _;
        for _ in 0..2000 {
            let b = ExponentialBackoff {
                base: SimDuration::from_secs(rng.gen_range(1..3600)),
                factor: rng.gen_range(1.0..4.0),
                max: SimDuration::from_secs(rng.gen_range(3600..200_000)),
                jitter: rng.gen_range(0.0..1.0),
            };
            let attempt = rng.gen_range(0..12u32);
            let nominal = b.delay(attempt).as_secs_f64();
            let d = b.delay_jittered(attempt, &mut rng).as_secs_f64();
            let lo = nominal * (1.0 - b.jitter) - 1e-6;
            let hi = (nominal * (1.0 + b.jitter)).min(b.max.as_secs_f64()) + 1e-6;
            assert!(
                (lo..=hi).contains(&d),
                "delay {d} outside [{lo}, {hi}] for {b:?} attempt {attempt}"
            );
        }
    }
}
