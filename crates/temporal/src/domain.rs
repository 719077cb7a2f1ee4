//! The finite, discrete time domain of a uTKG.

use crate::error::TemporalError;
use crate::interval::Interval;
use crate::point::TimePoint;

/// The finite discrete time domain `T` over which fact validity is
/// expressed (paper §2: "we assume that the time domain ... is finite as
/// well as discrete; hence, the set of possible worlds is finite").
///
/// A domain is an inclusive range `[lo, hi]` of time points plus a human
/// label for the granularity (used only for display/reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeDomain {
    lo: TimePoint,
    hi: TimePoint,
    granularity: Granularity,
}

/// Unit of a domain time point. Purely descriptive — all arithmetic is on
/// raw points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// Calendar years (the paper's running example).
    #[default]
    Year,
    /// Calendar days.
    Day,
    /// Minutes.
    Minute,
    /// Milliseconds.
    Millisecond,
    /// Application-defined abstract ticks.
    Tick,
}

impl Granularity {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Granularity::Year => "year",
            Granularity::Day => "day",
            Granularity::Minute => "minute",
            Granularity::Millisecond => "millisecond",
            Granularity::Tick => "tick",
        }
    }
}

impl TimeDomain {
    /// Builds a domain `[lo, hi]` with the given granularity.
    pub fn new(
        lo: impl Into<TimePoint>,
        hi: impl Into<TimePoint>,
        granularity: Granularity,
    ) -> Result<Self, TemporalError> {
        let (lo, hi) = (lo.into(), hi.into());
        if lo > hi {
            return Err(TemporalError::EmptyDomain { lo, hi });
        }
        Ok(TimeDomain {
            lo,
            hi,
            granularity,
        })
    }

    /// A year-granularity domain covering the given inclusive year range.
    pub fn years(lo: i64, hi: i64) -> Result<Self, TemporalError> {
        TimeDomain::new(lo, hi, Granularity::Year)
    }

    /// Lower bound (inclusive).
    pub fn lo(&self) -> TimePoint {
        self.lo
    }

    /// Upper bound (inclusive).
    pub fn hi(&self) -> TimePoint {
        self.hi
    }

    /// The granularity label.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Number of time points in the domain.
    pub fn len(&self) -> i64 {
        self.hi.value() - self.lo.value() + 1
    }

    /// `false` by construction — a domain is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Is the point inside the domain?
    pub fn contains_point(&self, t: TimePoint) -> bool {
        self.lo <= t && t <= self.hi
    }

    /// Is the interval fully inside the domain?
    pub fn contains(&self, interval: Interval) -> bool {
        self.contains_point(interval.start()) && self.contains_point(interval.end())
    }

    /// Validates that the interval lies in the domain, reporting the
    /// offending endpoint otherwise.
    pub fn check(&self, interval: Interval) -> Result<(), TemporalError> {
        for point in [interval.start(), interval.end()] {
            if !self.contains_point(point) {
                return Err(TemporalError::OutOfDomain {
                    point,
                    lo: self.lo,
                    hi: self.hi,
                });
            }
        }
        Ok(())
    }

    /// Clips the interval to the domain, if any part is inside it.
    pub fn clip(&self, interval: Interval) -> Option<Interval> {
        let whole = Interval::new(self.lo, self.hi).expect("domain invariant");
        interval.intersection(whole)
    }

    /// Grows the domain (in both directions) to include the interval.
    #[must_use]
    pub fn extended_to(&self, interval: Interval) -> TimeDomain {
        TimeDomain {
            lo: self.lo.min(interval.start()),
            hi: self.hi.max(interval.end()),
            granularity: self.granularity,
        }
    }
}

impl Default for TimeDomain {
    /// A generous default for year-granularity KGs (covers all of
    /// recorded history plus slack): `[-5000, 5000]`.
    fn default() -> Self {
        TimeDomain::years(-5000, 5000).expect("static bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_bounds() {
        let d = TimeDomain::years(1900, 2020).unwrap();
        assert_eq!(d.lo(), TimePoint(1900));
        assert_eq!(d.hi(), TimePoint(2020));
        assert_eq!(d.len(), 121);
        assert!(!d.is_empty());
        assert!(TimeDomain::years(10, 5).is_err());
    }

    #[test]
    fn membership() {
        let d = TimeDomain::years(1900, 2020).unwrap();
        assert!(d.contains_point(TimePoint(1951)));
        assert!(!d.contains_point(TimePoint(1850)));
        assert!(d.contains(Interval::new(2000, 2004).unwrap()));
        assert!(!d.contains(Interval::new(2000, 2050).unwrap()));
    }

    #[test]
    fn check_reports_offender() {
        let d = TimeDomain::years(1900, 2020).unwrap();
        let err = d.check(Interval::new(1800, 1950).unwrap()).unwrap_err();
        match err {
            TemporalError::OutOfDomain { point, .. } => assert_eq!(point, TimePoint(1800)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn clip() {
        let d = TimeDomain::years(1900, 2020).unwrap();
        assert_eq!(
            d.clip(Interval::new(1850, 1950).unwrap()),
            Some(Interval::new(1900, 1950).unwrap())
        );
        assert_eq!(d.clip(Interval::new(2100, 2200).unwrap()), None);
    }

    #[test]
    fn extend() {
        let d = TimeDomain::years(1900, 2020).unwrap();
        let d2 = d.extended_to(Interval::new(1850, 2050).unwrap());
        assert_eq!(d2.lo(), TimePoint(1850));
        assert_eq!(d2.hi(), TimePoint(2050));
        assert_eq!(d2.granularity(), Granularity::Year);
    }

    #[test]
    fn granularity_names() {
        assert_eq!(Granularity::Year.name(), "year");
        assert_eq!(Granularity::Tick.name(), "tick");
    }
}
