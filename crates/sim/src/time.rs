//! Virtual time for the simulation.
//!
//! [`SimTime`] is an absolute instant measured in nanoseconds since the start
//! of a campaign; [`SimDuration`] is a span between instants. Nanosecond
//! resolution over a `u64` covers ~584 years, far beyond any campaign we run,
//! while staying exact (no float drift) for event ordering.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

const NANOS_PER_MICRO: u64 = 1_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_SEC: u64 = 1_000_000_000;
const SECS_PER_MIN: u64 = 60;
const SECS_PER_HOUR: u64 = 3_600;
const SECS_PER_DAY: u64 = 86_400;

/// An absolute instant in virtual time (nanoseconds since campaign start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// On disk an instant is its bare nanosecond count, as serde encodes a newtype.
impl serde::Serialize for SimTime {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl serde::Deserialize for SimTime {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        u64::from_value(v).map(SimTime)
    }
}

/// A span of virtual time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The campaign origin (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since campaign start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from whole seconds since campaign start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Construct from whole minutes since campaign start. Like `from_hours`
    /// and `from_days`, saturates at [`SimTime::MAX`] instead of wrapping.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins.saturating_mul(SECS_PER_MIN * NANOS_PER_SEC))
    }

    /// Construct from whole hours since campaign start.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours.saturating_mul(SECS_PER_HOUR * NANOS_PER_SEC))
    }

    /// Construct from whole days since campaign start.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days.saturating_mul(SECS_PER_DAY * NANOS_PER_SEC))
    }

    /// Raw nanoseconds since campaign start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds since campaign start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// Seconds since campaign start as a float (for statistics/plotting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Whole days since campaign start (truncating).
    pub const fn as_days(self) -> u64 {
        self.0 / (SECS_PER_DAY * NANOS_PER_SEC)
    }

    /// Duration elapsed since `earlier`; saturates to zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
        }
    }

    /// Construct from whole minutes. Like `from_hours` and `from_days`,
    /// saturates at the longest representable span instead of wrapping.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins.saturating_mul(SECS_PER_MIN * NANOS_PER_SEC))
    }

    /// Construct from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours.saturating_mul(SECS_PER_HOUR * NANOS_PER_SEC))
    }

    /// Construct from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days.saturating_mul(SECS_PER_DAY * NANOS_PER_SEC))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Minutes as a float.
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / SECS_PER_MIN as f64
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Display for SimTime {
    /// Renders as `d+hh:mm:ss` (day number, then time of day).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs();
        let days = secs / SECS_PER_DAY;
        let rem = secs % SECS_PER_DAY;
        let (h, m, s) = (rem / SECS_PER_HOUR, (rem % SECS_PER_HOUR) / 60, rem % 60);
        write!(f, "{days}+{h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Display for SimDuration {
    /// Renders the most significant unit with one decimal, e.g. `3.5m`, `2.1h`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s < 1.0 {
            write!(f, "{:.1}ms", s * 1e3)
        } else if s < 120.0 {
            write!(f, "{s:.1}s")
        } else if s < 7200.0 {
            write!(f, "{:.1}m", s / 60.0)
        } else if s < 2.0 * SECS_PER_DAY as f64 {
            write!(f, "{:.1}h", s / SECS_PER_HOUR as f64)
        } else {
            write!(f, "{:.1}d", s / SECS_PER_DAY as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(5).as_nanos(), 5_000_000_000);
        assert_eq!(SimTime::from_mins(2).as_secs(), 120);
        assert_eq!(SimTime::from_hours(3).as_secs(), 10_800);
        assert_eq!(SimTime::from_days(2).as_days(), 2);
        assert_eq!(SimDuration::from_millis(1500).as_secs(), 1);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
    }

    #[test]
    fn coarse_units_saturate_instead_of_wrapping() {
        // 1 << 54 minutes wraps to exactly zero nanoseconds in a u64.
        for big in [1 << 54, u64::MAX / 60, u64::MAX] {
            assert_eq!(SimDuration::from_mins(big).as_nanos(), u64::MAX);
            assert_eq!(SimDuration::from_hours(big).as_nanos(), u64::MAX);
            assert_eq!(SimDuration::from_days(big).as_nanos(), u64::MAX);
            assert_eq!(SimTime::from_mins(big), SimTime::MAX);
            assert_eq!(SimTime::from_hours(big), SimTime::MAX);
            assert_eq!(SimTime::from_days(big), SimTime::MAX);
        }
        // Below the overflow point nothing changes.
        assert_eq!(SimDuration::from_mins(307_445_734).as_nanos(), 307_445_734 * 60_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(100);
        let d = SimDuration::from_secs(40);
        assert_eq!((t + d).as_secs(), 140);
        assert_eq!((t - d).as_secs(), 60);
        assert_eq!(((t + d) - t).as_secs(), 40);
        assert_eq!((d * 3).as_secs(), 120);
        assert_eq!((d / 2).as_secs(), 20);
        let ratio = SimDuration::from_secs(10) / SimDuration::from_secs(4);
        assert!((ratio - 2.5).abs() < 1e-12);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(30);
        assert_eq!(late.since(early).as_secs(), 20);
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_clamps_negative() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn float_scaling() {
        let d = SimDuration::from_secs(100) * 0.25;
        assert_eq!(d.as_secs(), 25);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(90_061).to_string(), "1+01:01:01");
        assert_eq!(SimDuration::from_millis(500).to_string(), "500.0ms");
        assert_eq!(SimDuration::from_secs(90).to_string(), "90.0s");
        assert_eq!(SimDuration::from_mins(30).to_string(), "30.0m");
        assert_eq!(SimDuration::from_hours(5).to_string(), "5.0h");
        assert_eq!(SimDuration::from_days(3).to_string(), "3.0d");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3),
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimTime::MAX,
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[3], SimTime::MAX);
    }
}
