//! The 13 basic relations of Allen's interval algebra.

use std::fmt;

use crate::interval::Interval;

/// One of the 13 basic relations of Allen's interval algebra.
///
/// The variant order is the canonical "distance from Before" order used
/// throughout the crate: the first six variants and their converses
/// mirror around [`AllenRelation::Equals`].
///
/// Over the discrete time domain with closed intervals the relations are
/// defined so that they partition all interval pairs (see crate docs):
///
/// | relation      | condition on `a = [a1,a2]`, `b = [b1,b2]`        |
/// |---------------|---------------------------------------------------|
/// | `Before`      | `a2 + 1 < b1`                                     |
/// | `Meets`       | `a2 + 1 == b1`                                    |
/// | `Overlaps`    | `a1 < b1 && b1 <= a2 && a2 < b2`                  |
/// | `Starts`      | `a1 == b1 && a2 < b2`                             |
/// | `During`      | `b1 < a1 && a2 < b2`                              |
/// | `Finishes`    | `b1 < a1 && a2 == b2`                             |
/// | `Equals`      | `a1 == b1 && a2 == b2`                            |
///
/// plus the six converses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum AllenRelation {
    /// `a` ends strictly before `b` starts, with a gap.
    Before = 0,
    /// `a` is immediately followed by `b` (adjacent, nothing shared).
    Meets = 1,
    /// `a` starts first and they share a proper non-empty suffix/prefix.
    Overlaps = 2,
    /// `a` and `b` start together, `a` ends first.
    Starts = 3,
    /// `a` lies strictly inside `b`.
    During = 4,
    /// `a` and `b` end together, `a` starts later.
    Finishes = 5,
    /// Identical intervals.
    Equals = 6,
    /// Converse of [`AllenRelation::Finishes`].
    FinishedBy = 7,
    /// Converse of [`AllenRelation::During`].
    Contains = 8,
    /// Converse of [`AllenRelation::Starts`].
    StartedBy = 9,
    /// Converse of [`AllenRelation::Overlaps`].
    OverlappedBy = 10,
    /// Converse of [`AllenRelation::Meets`].
    MetBy = 11,
    /// Converse of [`AllenRelation::Before`].
    After = 12,
}

impl AllenRelation {
    /// All 13 relations in canonical order.
    pub const ALL: [AllenRelation; 13] = [
        AllenRelation::Before,
        AllenRelation::Meets,
        AllenRelation::Overlaps,
        AllenRelation::Starts,
        AllenRelation::During,
        AllenRelation::Finishes,
        AllenRelation::Equals,
        AllenRelation::FinishedBy,
        AllenRelation::Contains,
        AllenRelation::StartedBy,
        AllenRelation::OverlappedBy,
        AllenRelation::MetBy,
        AllenRelation::After,
    ];

    /// The unique basic relation holding between `a` and `b`.
    pub fn between(a: Interval, b: Interval) -> AllenRelation {
        use AllenRelation as R;
        let (a1, a2) = (a.start(), a.end());
        let (b1, b2) = (b.start(), b.end());
        if a2.value() + 1 < b1.value() {
            return R::Before;
        }
        if a2.value() + 1 == b1.value() {
            return R::Meets;
        }
        if b2.value() + 1 < a1.value() {
            return R::After;
        }
        if b2.value() + 1 == a1.value() {
            return R::MetBy;
        }
        // From here on the intervals share at least one point.
        if a1 == b1 && a2 == b2 {
            R::Equals
        } else if a1 == b1 {
            if a2 < b2 {
                R::Starts
            } else {
                R::StartedBy
            }
        } else if a2 == b2 {
            if a1 > b1 {
                R::Finishes
            } else {
                R::FinishedBy
            }
        } else if a1 > b1 && a2 < b2 {
            R::During
        } else if a1 < b1 && a2 > b2 {
            R::Contains
        } else if a1 < b1 {
            R::Overlaps
        } else {
            R::OverlappedBy
        }
    }

    /// Does this relation hold between `a` and `b`?
    #[inline]
    pub fn holds(self, a: Interval, b: Interval) -> bool {
        AllenRelation::between(a, b) == self
    }

    /// The converse relation: `r.converse().holds(b, a) == r.holds(a, b)`.
    pub fn converse(self) -> AllenRelation {
        // The canonical order mirrors around Equals (index 6).
        AllenRelation::ALL[12 - self as usize]
    }

    /// Canonical index in `0..13`.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Relation from its canonical index.
    pub fn from_index(i: usize) -> Option<AllenRelation> {
        AllenRelation::ALL.get(i).copied()
    }

    /// Canonical lower-camel-case name, matching the constraint language
    /// (`before`, `metBy`, `overlappedBy`, ...).
    pub fn name(self) -> &'static str {
        match self {
            AllenRelation::Before => "before",
            AllenRelation::Meets => "meets",
            AllenRelation::Overlaps => "overlaps",
            AllenRelation::Starts => "starts",
            AllenRelation::During => "during",
            AllenRelation::Finishes => "finishes",
            AllenRelation::Equals => "equals",
            AllenRelation::FinishedBy => "finishedBy",
            AllenRelation::Contains => "contains",
            AllenRelation::StartedBy => "startedBy",
            AllenRelation::OverlappedBy => "overlappedBy",
            AllenRelation::MetBy => "metBy",
            AllenRelation::After => "after",
        }
    }

    /// Parses a basic-relation name (case-insensitive, `_` tolerated).
    pub fn parse(name: &str) -> Option<AllenRelation> {
        let lowered: String = name
            .chars()
            .filter(|c| *c != '_')
            .collect::<String>()
            .to_ascii_lowercase();
        AllenRelation::ALL
            .iter()
            .copied()
            .find(|r| r.name().to_ascii_lowercase() == lowered)
    }
}

impl fmt::Display for AllenRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    #[test]
    fn paper_examples() {
        // c2: (CR, coach, Chelsea, [2000,2004]) vs (CR, coach, Napoli, [2001,2003])
        assert_eq!(
            AllenRelation::between(iv(2000, 2004), iv(2001, 2003)),
            AllenRelation::Contains
        );
        // c1: birthDate before deathDate
        assert_eq!(
            AllenRelation::between(iv(1951, 1951), iv(2017, 2017)),
            AllenRelation::Before
        );
    }

    #[test]
    fn all_thirteen_reachable() {
        use AllenRelation as R;
        let b = iv(10, 20);
        let cases = [
            (iv(1, 5), R::Before),
            (iv(1, 9), R::Meets),
            (iv(5, 15), R::Overlaps),
            (iv(10, 15), R::Starts),
            (iv(12, 18), R::During),
            (iv(15, 20), R::Finishes),
            (iv(10, 20), R::Equals),
            (iv(5, 20), R::FinishedBy),
            (iv(5, 25), R::Contains),
            (iv(10, 25), R::StartedBy),
            (iv(15, 25), R::OverlappedBy),
            (iv(21, 25), R::MetBy),
            (iv(22, 25), R::After),
        ];
        for (a, expected) in cases {
            assert_eq!(AllenRelation::between(a, b), expected, "{a} vs {b}");
        }
    }

    #[test]
    fn converse_table() {
        use AllenRelation as R;
        assert_eq!(R::Before.converse(), R::After);
        assert_eq!(R::Meets.converse(), R::MetBy);
        assert_eq!(R::Overlaps.converse(), R::OverlappedBy);
        assert_eq!(R::Starts.converse(), R::StartedBy);
        assert_eq!(R::During.converse(), R::Contains);
        assert_eq!(R::Finishes.converse(), R::FinishedBy);
        assert_eq!(R::Equals.converse(), R::Equals);
    }

    #[test]
    fn name_parse_roundtrip() {
        for r in AllenRelation::ALL {
            assert_eq!(AllenRelation::parse(r.name()), Some(r));
            assert_eq!(AllenRelation::parse(&r.name().to_uppercase()), Some(r));
        }
        assert_eq!(AllenRelation::parse("met_by"), Some(AllenRelation::MetBy));
        assert_eq!(AllenRelation::parse("nonsense"), None);
    }

    #[test]
    fn index_roundtrip() {
        for (i, r) in AllenRelation::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(AllenRelation::from_index(i), Some(*r));
        }
        assert_eq!(AllenRelation::from_index(13), None);
    }

    fn arb_interval() -> impl Strategy<Value = Interval> {
        (-50i64..50, 0i64..30).prop_map(|(s, len)| iv(s, s + len))
    }

    proptest! {
        /// Exactly one basic relation holds for any pair (trichotomy of
        /// the algebra) — this is what makes Allen constraints a sound
        /// partition in the grounding engine.
        #[test]
        fn exactly_one_relation_holds(a in arb_interval(), b in arb_interval()) {
            let holding: Vec<_> = AllenRelation::ALL
                .iter()
                .filter(|r| r.holds(a, b))
                .collect();
            prop_assert_eq!(holding.len(), 1);
        }

        /// converse(between(a, b)) == between(b, a)
        #[test]
        fn converse_law(a in arb_interval(), b in arb_interval()) {
            prop_assert_eq!(
                AllenRelation::between(a, b).converse(),
                AllenRelation::between(b, a)
            );
        }

        /// converse is an involution
        #[test]
        fn converse_involution(i in 0usize..13) {
            let r = AllenRelation::from_index(i).unwrap();
            prop_assert_eq!(r.converse().converse(), r);
        }

        /// Equals holds iff the intervals are identical.
        #[test]
        fn equals_is_identity(a in arb_interval(), b in arb_interval()) {
            prop_assert_eq!(AllenRelation::Equals.holds(a, b), a == b);
        }
    }
}
