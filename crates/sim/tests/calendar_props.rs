//! Property tests for [`Calendar`] and [`HourRange`]: wrap-around ranges
//! (`start > end`), the `end == 24` full-day edge, `len`/`contains`
//! agreement over every hour, and `weekday`/`is_peak` alignment.

use proptest::prelude::*;
use ttt_sim::{Calendar, HourRange, SimDuration, SimTime, Weekday};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `len` is exactly the number of hours `contains` accepts — for
    /// simple, wrap-around (`start > end`), empty and `end == 24` ranges
    /// alike.
    #[test]
    fn len_agrees_with_contains(start in 0u8..24, end in 0u8..=24) {
        let r = HourRange::new(start, end);
        let contained = (0u8..24).filter(|&h| r.contains(h)).count();
        prop_assert_eq!(
            contained, r.len() as usize,
            "range {}..{} contains {} hours but len() says {}",
            r.start, r.end, contained, r.len()
        );
        #[allow(clippy::len_zero)]
        {
            prop_assert_eq!(r.is_empty(), r.len() == 0);
        }
    }

    /// The constructor's modulo normalization never changes which hours
    /// the range covers relative to its normalized bounds, and `contains`
    /// itself reduces its argument modulo 24.
    #[test]
    fn contains_is_modulo_24(start in 0u8..24, end in 0u8..=24, h in 0u8..120) {
        let r = HourRange::new(start, end);
        prop_assert_eq!(r.contains(h), r.contains(h % 24));
    }

    /// A wrap-around range covers exactly the complement of the reversed
    /// simple range: `22..6` accepts an hour iff `6..22` rejects it.
    #[test]
    fn wraparound_is_the_complement(start in 0u8..24, end in 0u8..24, h in 0u8..24) {
        // Equal bounds make both ranges empty (not complements) — the only
        // excluded case.
        if start != end {
            let forward = HourRange::new(start, end);
            let reversed = HourRange::new(end, start);
            prop_assert_eq!(
                forward.contains(h),
                !reversed.contains(h),
                "hour {} in both {}..{} and {}..{}",
                h, forward.start, forward.end, reversed.start, reversed.end
            );
            prop_assert_eq!(forward.len() + reversed.len(), 24);
        }
    }

    /// `end == 24` covers every hour from `start` to midnight, inclusive
    /// of hour 23 (the `% 24` normalization must not fold 24 to 0).
    #[test]
    fn end_24_reaches_midnight(start in 0u8..24) {
        let r = HourRange::new(start, 24);
        prop_assert!(r.contains(23));
        prop_assert!(r.contains(start));
        prop_assert_eq!(r.len(), 24 - start);
    }

    /// `weekday` cycles with period 7 and matches the day arithmetic of
    /// the underlying instant; day 0 is a Monday by convention.
    #[test]
    fn weekday_cycles_every_seven_days(days in 0u64..10_000, hours in 0u64..24) {
        let t = SimTime::from_days(days) + SimDuration::from_hours(hours);
        let next_week = t + SimDuration::from_days(7);
        prop_assert_eq!(Calendar::weekday(t), Calendar::weekday(next_week));
        prop_assert_eq!(Calendar::weekday(t).is_weekend(), days % 7 >= 5);
        prop_assert_eq!(Calendar::weekday(SimTime::from_days(days * 7)), Weekday::Mon);
    }

    /// `is_peak` is exactly `weekday ∧ contains(hour)` — peak never fires
    /// on weekends, outside the range, or disagrees with `hour_of_day`.
    #[test]
    fn is_peak_aligns_with_weekday_and_hours(
        days in 0u64..1_000,
        hour in 0u64..24,
        minute in 0u64..60,
        start in 0u8..24,
        end in 0u8..=24,
    ) {
        let t = SimTime::from_days(days)
            + SimDuration::from_hours(hour)
            + SimDuration::from_mins(minute);
        let peak = HourRange::new(start, end);
        prop_assert_eq!(Calendar::hour_of_day(t) as u64, hour);
        let expect = !Calendar::weekday(t).is_weekend() && peak.contains(hour as u8);
        prop_assert_eq!(Calendar::is_peak(t, peak), expect);
    }

    /// The diurnal intensity the user-load thinning uses stays a valid
    /// probability and sits at the weekend plateau on weekends.
    #[test]
    fn diurnal_intensity_is_a_probability(days in 0u64..1_000, secs in 0u64..86_400) {
        let t = SimTime::from_days(days) + SimDuration::from_secs(secs);
        let i = Calendar::diurnal_intensity(t);
        prop_assert!((0.0..=1.0).contains(&i));
        if Calendar::weekday(t).is_weekend() {
            prop_assert!((i - 0.15).abs() < 1e-12);
        } else {
            prop_assert!(i >= 0.15 - 1e-12);
        }
    }
}
