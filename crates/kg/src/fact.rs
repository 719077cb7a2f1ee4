//! Temporal facts: the quads of a uTKG.

use std::fmt;

use tecore_temporal::Interval;

use crate::dict::{Dictionary, Symbol};
use crate::error::KgError;

/// Identifier of a fact within one [`crate::UtkGraph`]; stable across
/// deletions (tombstoning never reuses ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactId(pub u32);

impl FactId {
    /// Index into the graph's fact arena.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for FactId {
    fn from(id: u32) -> Self {
        FactId(id)
    }
}

impl From<FactId> for u32 {
    fn from(id: FactId) -> u32 {
        id.0
    }
}

impl fmt::Display for FactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A validated confidence value in `(0, 1]`.
///
/// The paper: "each temporal fact is assigned a confidence value
/// representing how likely is for it to hold". A confidence of exactly
/// `1.0` marks a *certain* fact (e.g. fact (4) of Figure 1,
/// `(CR, birthDate, 1951, [1951,2017]) 1.0`); the translator may pin such
/// facts as hard evidence.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Confidence(f64);

impl Confidence {
    /// The certain confidence `1.0`.
    pub const CERTAIN: Confidence = Confidence(1.0);

    /// Validates and wraps a raw value.
    pub fn new(value: f64) -> Result<Self, KgError> {
        if value.is_finite() && value > 0.0 && value <= 1.0 {
            Ok(Confidence(value))
        } else {
            Err(KgError::InvalidConfidence(value))
        }
    }

    /// The raw value in `(0, 1]`.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Is this a certain (probability-1) fact?
    #[inline]
    pub fn is_certain(self) -> bool {
        self.0 >= 1.0
    }

    /// Log-odds `ln(p / (1 - p))`, clamped to `[-MAX_WEIGHT, MAX_WEIGHT]`.
    ///
    /// This is the standard translation of an evidence confidence into an
    /// MLN soft-formula weight; certain facts saturate at `MAX_WEIGHT`.
    pub fn log_odds(self) -> f64 {
        const MAX_WEIGHT: f64 = 20.0;
        if self.0 >= 1.0 {
            return MAX_WEIGHT;
        }
        (self.0 / (1.0 - self.0))
            .ln()
            .clamp(-MAX_WEIGHT, MAX_WEIGHT)
    }
}

impl TryFrom<f64> for Confidence {
    type Error = KgError;
    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Confidence::new(value)
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One uncertain temporal fact: `(s, p, o, [t_b, t_e]) conf`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalFact {
    /// Subject symbol.
    pub subject: Symbol,
    /// Predicate symbol.
    pub predicate: Symbol,
    /// Object symbol.
    pub object: Symbol,
    /// Valid-time interval.
    pub interval: Interval,
    /// Confidence in `(0, 1]`.
    pub confidence: Confidence,
}

impl TemporalFact {
    /// Builds a fact from pre-interned symbols.
    pub fn new(
        subject: Symbol,
        predicate: Symbol,
        object: Symbol,
        interval: Interval,
        confidence: Confidence,
    ) -> Self {
        TemporalFact {
            subject,
            predicate,
            object,
            interval,
            confidence,
        }
    }

    /// The `(s, p, o)` triple without temporal/uncertainty annotations.
    pub fn triple(&self) -> (Symbol, Symbol, Symbol) {
        (self.subject, self.predicate, self.object)
    }

    /// Same statement (triple + interval), ignoring confidence?
    pub fn same_statement(&self, other: &TemporalFact) -> bool {
        self.triple() == other.triple() && self.interval == other.interval
    }

    /// Renders the fact against a dictionary, in the paper's notation:
    /// `(CR, coach, Chelsea, [2000,2004]) 0.9`.
    pub fn display<'a>(&'a self, dict: &'a Dictionary) -> impl fmt::Display + 'a {
        DisplayFact { fact: self, dict }
    }
}

struct DisplayFact<'a> {
    fact: &'a TemporalFact,
    dict: &'a Dictionary,
}

impl fmt::Display for DisplayFact<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.dict;
        let t = self.fact;
        write!(
            f,
            "({}, {}, {}, {}) {}",
            d.resolve(t.subject),
            d.resolve(t.predicate),
            d.resolve(t.object),
            t.interval,
            t.confidence
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn confidence_validation() {
        assert!(Confidence::new(0.5).is_ok());
        assert!(Confidence::new(1.0).is_ok());
        assert!(Confidence::new(0.0).is_err());
        assert!(Confidence::new(-0.1).is_err());
        assert!(Confidence::new(1.1).is_err());
        assert!(Confidence::new(f64::NAN).is_err());
        assert!(Confidence::new(f64::INFINITY).is_err());
    }

    #[test]
    fn certain_facts() {
        assert!(Confidence::CERTAIN.is_certain());
        assert!(!Confidence::new(0.99).unwrap().is_certain());
        assert_eq!(Confidence::CERTAIN.log_odds(), 20.0);
    }

    #[test]
    fn log_odds_monotone_and_signed() {
        let lo = Confidence::new(0.3).unwrap().log_odds();
        let mid = Confidence::new(0.5).unwrap().log_odds();
        let hi = Confidence::new(0.9).unwrap().log_odds();
        assert!(lo < mid && mid < hi);
        assert!(lo < 0.0);
        assert!((mid).abs() < 1e-12);
        assert!(hi > 0.0);
    }

    #[test]
    fn display_matches_paper_notation() {
        let mut d = Dictionary::new();
        let fact = TemporalFact::new(
            d.intern("CR"),
            d.intern("coach"),
            d.intern("Chelsea"),
            Interval::new(2000, 2004).unwrap(),
            Confidence::new(0.9).unwrap(),
        );
        assert_eq!(
            fact.display(&d).to_string(),
            "(CR, coach, Chelsea, [2000,2004]) 0.9"
        );
    }

    #[test]
    fn same_statement_ignores_confidence() {
        let mut d = Dictionary::new();
        let (s, p, o) = (d.intern("a"), d.intern("b"), d.intern("c"));
        let iv = Interval::new(1, 2).unwrap();
        let f1 = TemporalFact::new(s, p, o, iv, Confidence::new(0.9).unwrap());
        let f2 = TemporalFact::new(s, p, o, iv, Confidence::new(0.1).unwrap());
        assert!(f1.same_statement(&f2));
        let f3 = TemporalFact::new(s, p, s, iv, Confidence::new(0.9).unwrap());
        assert!(!f1.same_statement(&f3));
    }

    proptest! {
        #[test]
        fn log_odds_bounded(p in 0.0001f64..=1.0) {
            let c = Confidence::new(p).unwrap();
            let w = c.log_odds();
            prop_assert!(w.is_finite());
            prop_assert!((-20.0..=20.0).contains(&w));
        }
    }
}
