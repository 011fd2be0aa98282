//! Calendar arithmetic over virtual time.
//!
//! The paper's external scheduler avoids launching resource-hungry tests
//! during peak hours and models user demand as diurnal. This module maps a
//! [`SimTime`] onto a repeating week and exposes the predicates the
//! scheduler needs. Day 0 of the simulation is a Monday by convention.

use crate::time::SimTime;

/// Days of the (simulated) week. Day 0 of a campaign is a Monday.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Weekday {
    /// Monday
    Mon,
    /// Tuesday
    Tue,
    /// Wednesday
    Wed,
    /// Thursday
    Thu,
    /// Friday
    Fri,
    /// Saturday
    Sat,
    /// Sunday
    Sun,
}

impl Weekday {
    /// Whether this is Saturday or Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Sat | Weekday::Sun)
    }
}

/// An inclusive-exclusive range of hours within a day, e.g. `9..19`.
///
/// Ranges may wrap midnight (`22..6` covers 22:00–24:00 and 00:00–06:00).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HourRange {
    /// First hour included (0–23).
    pub start: u8,
    /// First hour excluded (0–24).
    pub end: u8,
}

impl HourRange {
    /// Construct a range; hours are taken modulo 24 (end of 24 = midnight).
    pub fn new(start: u8, end: u8) -> Self {
        HourRange {
            start: start % 24,
            end: if end == 24 { 24 } else { end % 24 },
        }
    }

    /// Whether `hour` (0–23) falls inside the range.
    pub fn contains(&self, hour: u8) -> bool {
        let h = hour % 24;
        if self.start < self.end {
            h >= self.start && h < self.end
        } else if self.start > self.end {
            h >= self.start || h < self.end
        } else {
            false // empty range
        }
    }

    /// Number of hours covered.
    pub fn len(&self) -> u8 {
        if self.start <= self.end {
            self.end - self.start
        } else {
            24 - self.start + self.end
        }
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Calendar view over virtual time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calendar;

impl Calendar {
    /// Hour of day (0–23) at instant `t`.
    pub fn hour_of_day(t: SimTime) -> u8 {
        ((t.as_secs() % 86_400) / 3_600) as u8
    }

    /// Day of week at instant `t` (day 0 is Monday).
    pub fn weekday(t: SimTime) -> Weekday {
        match t.as_days() % 7 {
            0 => Weekday::Mon,
            1 => Weekday::Tue,
            2 => Weekday::Wed,
            3 => Weekday::Thu,
            4 => Weekday::Fri,
            5 => Weekday::Sat,
            _ => Weekday::Sun,
        }
    }

    /// Whether `t` falls within working peak hours: weekday and inside `peak`.
    pub fn is_peak(t: SimTime, peak: HourRange) -> bool {
        !Self::weekday(t).is_weekend() && peak.contains(Self::hour_of_day(t))
    }

    /// Relative user-demand intensity in `[0, 1]` at instant `t`.
    ///
    /// Weekdays follow a smooth double-sinusoid peaking mid-afternoon;
    /// weekends sit at a low plateau. Used by the synthetic user-load
    /// generator to thin a Poisson process.
    pub fn diurnal_intensity(t: SimTime) -> f64 {
        let hour = (t.as_secs() % 86_400) as f64 / 3_600.0;
        if Self::weekday(t).is_weekend() {
            return 0.15;
        }
        // Base night-time load plus a bump centred on 14h with width ~5h.
        let bump = (-((hour - 14.0) * (hour - 14.0)) / (2.0 * 5.0 * 5.0)).exp();
        (0.15 + 0.85 * bump).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn hour_of_day_ignores_days_and_minutes() {
        let t = SimTime::from_secs(2 * 86_400 + 13 * 3_600 + 45 * 60 + 7);
        assert_eq!(Calendar::hour_of_day(t), 13);
    }

    #[test]
    fn weekdays_cycle() {
        assert_eq!(Calendar::weekday(SimTime::ZERO), Weekday::Mon);
        assert_eq!(Calendar::weekday(SimTime::from_days(4)), Weekday::Fri);
        assert_eq!(Calendar::weekday(SimTime::from_days(5)), Weekday::Sat);
        assert_eq!(Calendar::weekday(SimTime::from_days(6)), Weekday::Sun);
        assert_eq!(Calendar::weekday(SimTime::from_days(7)), Weekday::Mon);
        assert!(Weekday::Sat.is_weekend());
        assert!(!Weekday::Thu.is_weekend());
    }

    #[test]
    fn hour_range_simple_and_wrapping() {
        let day = HourRange::new(9, 19);
        assert!(day.contains(9));
        assert!(day.contains(18));
        assert!(!day.contains(19));
        assert!(!day.contains(3));
        assert_eq!(day.len(), 10);

        let night = HourRange::new(22, 6);
        assert!(night.contains(23));
        assert!(night.contains(0));
        assert!(night.contains(5));
        assert!(!night.contains(6));
        assert!(!night.contains(12));
        assert_eq!(night.len(), 8);

        let empty = HourRange::new(7, 7);
        assert!(empty.is_empty());
        assert!(!empty.contains(7));
    }

    #[test]
    fn peak_requires_weekday() {
        let peak = HourRange::new(9, 19);
        let wed_noon = SimTime::from_days(2) + SimDuration::from_hours(12);
        let sat_noon = SimTime::from_days(5) + SimDuration::from_hours(12);
        let wed_night = SimTime::from_days(2) + SimDuration::from_hours(2);
        assert!(Calendar::is_peak(wed_noon, peak));
        assert!(!Calendar::is_peak(sat_noon, peak));
        assert!(!Calendar::is_peak(wed_night, peak));
    }

    #[test]
    fn diurnal_peaks_afternoon() {
        let mon = |h: u64| SimTime::from_hours(h);
        let afternoon = Calendar::diurnal_intensity(mon(14));
        let night = Calendar::diurnal_intensity(mon(3));
        assert!(afternoon > 0.9);
        assert!(night < 0.3);
        assert!(afternoon <= 1.0);
        // Weekend plateau.
        let sat = SimTime::from_days(5) + SimDuration::from_hours(14);
        assert!((Calendar::diurnal_intensity(sat) - 0.15).abs() < 1e-12);
    }
}
