//! Ground clauses: the weighted CNF both backends optimise over.

use std::fmt;

use crate::atoms::AtomId;

/// A literal: an atom or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit {
    /// The atom.
    pub atom: AtomId,
    /// `true` for the atom itself, `false` for its negation.
    pub positive: bool,
}

impl Lit {
    /// Positive literal.
    pub const fn pos(atom: AtomId) -> Lit {
        Lit {
            atom,
            positive: true,
        }
    }

    /// Negative literal.
    pub const fn neg(atom: AtomId) -> Lit {
        Lit {
            atom,
            positive: false,
        }
    }

    /// The opposite literal.
    #[must_use]
    pub const fn negated(self) -> Lit {
        Lit {
            atom: self.atom,
            positive: !self.positive,
        }
    }

    /// Truth value under an assignment.
    #[inline]
    pub fn satisfied_by(self, value: bool) -> bool {
        self.positive == value
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.positive {
            write!(f, "¬")?;
        }
        write!(f, "a{}", self.atom.0)
    }
}

/// Clause weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClauseWeight {
    /// Must be satisfied in every model.
    Hard,
    /// May be violated at this (positive, finite) cost.
    Soft(f64),
}

impl ClauseWeight {
    /// Is this a hard clause?
    pub fn is_hard(self) -> bool {
        matches!(self, ClauseWeight::Hard)
    }

    /// The soft cost, if any.
    pub fn soft(self) -> Option<f64> {
        match self {
            ClauseWeight::Hard => None,
            ClauseWeight::Soft(w) => Some(w),
        }
    }
}

/// Where a ground clause came from, for reporting and for the conflict
/// statistics of the demo's results screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClauseOrigin {
    /// Grounding of the program formula with this index.
    Formula(usize),
    /// Evidence unit clause for a uTKG fact.
    Evidence,
    /// Closed-world prior on a hidden atom.
    Prior,
}

/// A weighted ground clause (disjunction of literals).
#[derive(Debug, Clone, PartialEq)]
pub struct GroundClause {
    /// The disjuncts. Invariant: sorted, duplicate-free (see
    /// [`GroundClause::new`]).
    pub lits: Vec<Lit>,
    /// Hard or soft weight.
    pub weight: ClauseWeight,
    /// Provenance.
    pub origin: ClauseOrigin,
}

impl GroundClause {
    /// Builds a clause, normalising literal order and dropping duplicate
    /// literals. Returns `None` for tautologies (`a ∨ ¬a`).
    pub fn new(mut lits: Vec<Lit>, weight: ClauseWeight, origin: ClauseOrigin) -> Option<Self> {
        Self::normalize(&mut lits).then_some(GroundClause {
            lits,
            weight,
            origin,
        })
    }

    /// Sorts `lits` and drops duplicate literals in place, as
    /// [`GroundClause::new`] does; false for a tautology (`a ∨ ¬a`).
    pub(crate) fn normalize(lits: &mut Vec<Lit>) -> bool {
        lits.sort_unstable();
        lits.dedup();
        // A tautology holds both a and ¬a.
        lits.windows(2).all(|w| w[0].atom != w[1].atom)
    }

    /// Is the clause satisfied by `assignment` (indexed by atom id)?
    pub fn satisfied_by(&self, assignment: &[bool]) -> bool {
        self.lits
            .iter()
            .any(|l| l.satisfied_by(assignment[l.atom.index()]))
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Is the clause empty (unsatisfiable)?
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Signature for deduplication: the sorted literals.
    pub fn signature(&self) -> &[Lit] {
        &self.lits
    }
}

impl fmt::Display for GroundClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{l}")?;
        }
        match self.weight {
            ClauseWeight::Hard => write!(f, " [hard]"),
            ClauseWeight::Soft(w) => write!(f, " [{w}]"),
        }
    }
}

/// Identifier of a clause slot within one [`ClauseStore`].
pub type ClauseId = u32;

/// A borrowed view of one live clause in a [`ClauseStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClauseRef<'a> {
    /// The clause's slot id (stable across retractions of *other*
    /// clauses).
    pub id: ClauseId,
    /// The literals (sorted, duplicate-free).
    pub lits: &'a [Lit],
    /// Hard or soft weight.
    pub weight: ClauseWeight,
    /// Provenance.
    pub origin: ClauseOrigin,
}

impl ClauseRef<'_> {
    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Is the clause empty (unsatisfiable)?
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// Is the clause satisfied by `assignment` (indexed by atom id)?
    pub fn satisfied_by(&self, assignment: &[bool]) -> bool {
        self.lits
            .iter()
            .any(|l| l.satisfied_by(assignment[l.atom.index()]))
    }
}

/// The flat **CSR arena** holding every ground clause of a
/// [`Grounding`](crate::Grounding).
///
/// Instead of a `Vec<GroundClause>` of per-clause heap `Vec<Lit>`s, all
/// literals live in one contiguous buffer and each clause is a *slot*
/// in struct-of-arrays offset tables (`starts`/`lens`/`weights`/
/// `origins`). Every consumer — the MaxSAT backends, the HL-MRF
/// builder, world evaluation — reads the arena zero-copy; nothing
/// re-boxes literals per clause.
///
/// Incremental maintenance maps onto the layout directly:
///
/// * **retraction** tombstones the slot (the offset table keeps the
///   entry, [`ClauseStore::iter`] skips it) — other clause ids never
///   move, so the atom→clause dependency index stays valid;
/// * **emission after retractions** revives a free slot in place,
///   reusing its literal region when the new clause fits (the common
///   case: a refreshed evidence unit is exactly as wide as the one it
///   replaces).
///
/// Weights are stored as raw `f64` with `f64::INFINITY` encoding a hard
/// clause — the exact convention the MaxSAT solvers use internally, so
/// their hot loops read the array without conversion.
#[derive(Debug, Clone, Default)]
pub struct ClauseStore {
    /// Per-slot offset of the clause's literals in `lits`.
    starts: Vec<u32>,
    /// Per-slot live literal count.
    lens: Vec<u32>,
    /// Per-slot allocated literal capacity (`>= lens`; slot revival
    /// reuses the region when the new clause fits).
    caps: Vec<u32>,
    /// Per-slot weight; `f64::INFINITY` encodes hard.
    weights: Vec<f64>,
    /// Per-slot provenance.
    origins: Vec<ClauseOrigin>,
    /// Tombstone flags.
    alive: Vec<bool>,
    /// Retracted slots available for reuse.
    free: Vec<u32>,
    /// The shared literal buffer.
    lits: Vec<Lit>,
    /// Live clause count.
    live: usize,
}

impl ClauseStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ClauseStore::default()
    }

    /// Creates an empty store with room for `clauses` slots and `lits`
    /// literals.
    pub fn with_capacity(clauses: usize, lits: usize) -> Self {
        ClauseStore {
            starts: Vec::with_capacity(clauses),
            lens: Vec::with_capacity(clauses),
            caps: Vec::with_capacity(clauses),
            weights: Vec::with_capacity(clauses),
            origins: Vec::with_capacity(clauses),
            alive: Vec::with_capacity(clauses),
            free: Vec::new(),
            lits: Vec::with_capacity(lits),
            live: 0,
        }
    }

    /// Builds a store from a slice of (already normalised) clauses.
    pub fn from_ground_clauses(clauses: &[GroundClause]) -> Self {
        let lits = clauses.iter().map(GroundClause::len).sum();
        let mut store = ClauseStore::with_capacity(clauses.len(), lits);
        for c in clauses {
            store.push_lits(&c.lits, c.weight, c.origin);
        }
        store
    }

    /// Number of **live** clauses.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the store free of live clauses?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of clause slots, tombstones included. Solver-side state
    /// indexed by [`ClauseId`] must be sized by this, not [`len`]
    /// (ids of live clauses range over the whole slot table).
    ///
    /// [`len`]: ClauseStore::len
    pub fn num_slots(&self) -> usize {
        self.starts.len()
    }

    /// Appends a normalised clause, reusing a tombstoned slot when one
    /// is free. Returns the slot id.
    pub fn push(&mut self, clause: GroundClause) -> ClauseId {
        self.push_lits(&clause.lits, clause.weight, clause.origin)
    }

    /// Appends a clause from raw parts. `lits` must already be
    /// normalised (sorted, duplicate-free, no tautology) — the
    /// invariant [`GroundClause::new`] establishes.
    pub fn push_lits(
        &mut self,
        lits: &[Lit],
        weight: ClauseWeight,
        origin: ClauseOrigin,
    ) -> ClauseId {
        debug_assert!(
            lits.windows(2)
                .all(|w| w[0] < w[1] && w[0].atom != w[1].atom),
            "clause literals must be normalised"
        );
        let weight = match weight {
            ClauseWeight::Hard => f64::INFINITY,
            ClauseWeight::Soft(w) => w,
        };
        let n = lits.len() as u32;
        self.live += 1;
        if let Some(id) = self.free.pop() {
            // Revival: reuse the tombstoned slot, and its literal
            // region when the new clause fits.
            let i = id as usize;
            if n > self.caps[i] {
                self.starts[i] = self.lits.len() as u32;
                self.caps[i] = n;
                self.lits.extend_from_slice(lits);
            } else {
                let start = self.starts[i] as usize;
                self.lits[start..start + lits.len()].copy_from_slice(lits);
            }
            self.lens[i] = n;
            self.weights[i] = weight;
            self.origins[i] = origin;
            self.alive[i] = true;
            return id;
        }
        let id = u32::try_from(self.starts.len()).expect("clause store overflow");
        self.starts.push(self.lits.len() as u32);
        self.lens.push(n);
        self.caps.push(n);
        self.weights.push(weight);
        self.origins.push(origin);
        self.alive.push(true);
        self.lits.extend_from_slice(lits);
        id
    }

    /// Tombstones a live clause. Its slot id stays reserved (and may be
    /// handed out again by a later [`push`](ClauseStore::push)); the
    /// literal region is retained for reuse.
    pub fn retract(&mut self, id: ClauseId) {
        assert!(self.alive[id as usize], "retracting a dead clause");
        self.alive[id as usize] = false;
        self.free.push(id);
        self.live -= 1;
    }

    /// The literals of a clause (live or tombstoned — the dependency
    /// index only ever asks about live ids).
    #[inline]
    pub fn lits(&self, id: ClauseId) -> &[Lit] {
        let i = id as usize;
        let start = self.starts[i] as usize;
        &self.lits[start..start + self.lens[i] as usize]
    }

    /// The clause's raw weight: `f64::INFINITY` for hard.
    #[inline]
    pub fn weight_raw(&self, id: ClauseId) -> f64 {
        self.weights[id as usize]
    }

    /// The clause's weight.
    #[inline]
    pub fn weight(&self, id: ClauseId) -> ClauseWeight {
        let w = self.weights[id as usize];
        if w.is_infinite() {
            ClauseWeight::Hard
        } else {
            ClauseWeight::Soft(w)
        }
    }

    /// Is the clause hard?
    #[inline]
    pub fn is_hard(&self, id: ClauseId) -> bool {
        self.weights[id as usize].is_infinite()
    }

    /// The clause's provenance.
    #[inline]
    pub fn origin(&self, id: ClauseId) -> ClauseOrigin {
        self.origins[id as usize]
    }

    /// Number of literals of a clause.
    #[inline]
    pub fn clause_len(&self, id: ClauseId) -> usize {
        self.lens[id as usize] as usize
    }

    /// A borrowed view of a clause.
    pub fn get(&self, id: ClauseId) -> ClauseRef<'_> {
        ClauseRef {
            id,
            lits: self.lits(id),
            weight: self.weight(id),
            origin: self.origin(id),
        }
    }

    /// Iterates over the live clauses in ascending slot order —
    /// insertion order until slots are tombstoned and reused.
    ///
    /// Walks the struct-of-arrays columns with zipped slice iterators
    /// (no per-clause indexed lookups), so full scans — problem
    /// construction, occurrence-index builds, world evaluation — run at
    /// memcpy-like speed.
    pub fn iter(&self) -> impl Iterator<Item = ClauseRef<'_>> {
        self.alive
            .iter()
            .zip(self.starts.iter().zip(&self.lens))
            .zip(self.weights.iter().zip(&self.origins))
            .enumerate()
            .filter_map(|(i, ((&alive, (&start, &len)), (&w, &origin)))| {
                if !alive {
                    return None;
                }
                Some(ClauseRef {
                    id: i as u32,
                    lits: &self.lits[start as usize..start as usize + len as usize],
                    weight: if w.is_infinite() {
                        ClauseWeight::Hard
                    } else {
                        ClauseWeight::Soft(w)
                    },
                    origin,
                })
            })
    }
}

/// Two stores are equal when their live clause sequences agree **in
/// slot order**. Tombstoned slots and literal-buffer layout never
/// participate, but slot *reuse* does affect iteration order — two
/// stores reaching the same live set through different churn histories
/// may compare unequal. Intended for comparing stores built the same
/// way.
impl PartialEq for ClauseStore {
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| a.lits == b.lits && a.weight == b.weight && a.origin == b.origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_and_tautology() {
        let c = GroundClause::new(
            vec![
                Lit::neg(AtomId(3)),
                Lit::pos(AtomId(1)),
                Lit::pos(AtomId(1)),
            ],
            ClauseWeight::Hard,
            ClauseOrigin::Formula(0),
        )
        .unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.lits[0], Lit::pos(AtomId(1)));
        let taut = GroundClause::new(
            vec![Lit::pos(AtomId(1)), Lit::neg(AtomId(1))],
            ClauseWeight::Hard,
            ClauseOrigin::Formula(0),
        );
        assert!(taut.is_none());
    }

    #[test]
    fn satisfaction() {
        let c = GroundClause::new(
            vec![Lit::neg(AtomId(0)), Lit::pos(AtomId(1))],
            ClauseWeight::Soft(1.0),
            ClauseOrigin::Formula(0),
        )
        .unwrap();
        assert!(c.satisfied_by(&[false, false]));
        assert!(c.satisfied_by(&[true, true]));
        assert!(!c.satisfied_by(&[true, false]));
    }

    #[test]
    fn lit_ops() {
        let l = Lit::pos(AtomId(5));
        assert_eq!(l.negated(), Lit::neg(AtomId(5)));
        assert_eq!(l.negated().negated(), l);
        assert!(l.satisfied_by(true));
        assert!(!l.satisfied_by(false));
        assert!(Lit::neg(AtomId(5)).satisfied_by(false));
        assert_eq!(l.to_string(), "a5");
        assert_eq!(l.negated().to_string(), "¬a5");
    }

    #[test]
    fn weights() {
        assert!(ClauseWeight::Hard.is_hard());
        assert_eq!(ClauseWeight::Hard.soft(), None);
        assert_eq!(ClauseWeight::Soft(2.5).soft(), Some(2.5));
    }

    #[test]
    fn display() {
        let c = GroundClause::new(
            vec![Lit::neg(AtomId(0)), Lit::pos(AtomId(1))],
            ClauseWeight::Soft(1.5),
            ClauseOrigin::Formula(0),
        )
        .unwrap();
        assert_eq!(c.to_string(), "¬a0 ∨ a1 [1.5]");
    }

    fn soft(lits: Vec<Lit>, w: f64) -> GroundClause {
        GroundClause::new(lits, ClauseWeight::Soft(w), ClauseOrigin::Evidence).unwrap()
    }

    #[test]
    fn store_push_and_access() {
        let mut store = ClauseStore::new();
        let a = store.push(soft(vec![Lit::pos(AtomId(0))], 1.0));
        let b = store.push(soft(vec![Lit::neg(AtomId(0)), Lit::pos(AtomId(1))], 2.0));
        let c = store.push(
            GroundClause::new(
                vec![Lit::neg(AtomId(1))],
                ClauseWeight::Hard,
                ClauseOrigin::Formula(3),
            )
            .unwrap(),
        );
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(store.len(), 3);
        assert_eq!(store.num_slots(), 3);
        assert_eq!(store.lits(b), &[Lit::neg(AtomId(0)), Lit::pos(AtomId(1))]);
        assert_eq!(store.weight(a), ClauseWeight::Soft(1.0));
        assert!(store.is_hard(c));
        assert!(store.weight_raw(c).is_infinite());
        assert_eq!(store.origin(c), ClauseOrigin::Formula(3));
        assert_eq!(store.clause_len(b), 2);
        assert!(store.get(b).satisfied_by(&[false, false]));
        assert!(!store.get(a).satisfied_by(&[false, false]));
    }

    #[test]
    fn store_tombstone_skip_and_revival() {
        let mut store = ClauseStore::new();
        store.push(soft(vec![Lit::pos(AtomId(0))], 1.0));
        let b = store.push(soft(vec![Lit::pos(AtomId(1)), Lit::pos(AtomId(2))], 2.0));
        store.push(soft(vec![Lit::pos(AtomId(3))], 3.0));
        store.retract(b);
        assert_eq!(store.len(), 2);
        let ids: Vec<u32> = store.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 2], "iteration skips the tombstone");
        // Revival reuses the slot (and its literal region: same width).
        let revived = store.push(soft(vec![Lit::neg(AtomId(4)), Lit::pos(AtomId(5))], 4.0));
        assert_eq!(revived, b);
        assert_eq!(store.lits(b), &[Lit::neg(AtomId(4)), Lit::pos(AtomId(5))]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.num_slots(), 3, "no new slot allocated");
        // A wider clause than the slot's capacity relocates its lits.
        store.retract(b);
        let wide = store.push(soft(
            vec![
                Lit::pos(AtomId(6)),
                Lit::pos(AtomId(7)),
                Lit::pos(AtomId(8)),
            ],
            5.0,
        ));
        assert_eq!(wide, b);
        assert_eq!(store.clause_len(wide), 3);
        assert_eq!(
            store.lits(wide),
            &[
                Lit::pos(AtomId(6)),
                Lit::pos(AtomId(7)),
                Lit::pos(AtomId(8))
            ]
        );
    }

    #[test]
    fn store_equality_ignores_slot_layout() {
        let clauses = [
            soft(vec![Lit::pos(AtomId(0))], 1.0),
            soft(vec![Lit::pos(AtomId(1))], 2.0),
        ];
        let plain = ClauseStore::from_ground_clauses(&clauses);
        // Same live content reached through a retract/revive detour.
        let mut churned = ClauseStore::new();
        let tmp = churned.push(soft(vec![Lit::pos(AtomId(9))], 9.0));
        churned.retract(tmp);
        churned.push(clauses[0].clone());
        churned.push(clauses[1].clone());
        assert_eq!(plain.len(), churned.len());
        // Slot 0 was reused, so ascending-slot iteration differs from
        // insertion order only when reuse reorders — here it does not.
        assert_eq!(plain, churned);
    }

    use proptest::prelude::*;

    /// Strategy for one scripted op: `Some((lits, weight, origin))` =
    /// push, `None` = retract the oldest live clause.
    fn arb_op() -> impl Strategy<Value = Option<(Vec<Lit>, Option<u32>, usize)>> {
        let lit = (0u32..12, prop::bool::ANY).prop_map(|(a, pos)| Lit {
            atom: AtomId(a),
            positive: pos,
        });
        prop::option::of((
            prop::collection::vec(lit, 1..5),
            prop::option::of(1u32..50),
            0usize..3,
        ))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random push/retract sequences round-trip through the arena
        /// with the exact semantics of the old `Vec<GroundClause>`:
        /// live clauses come back in ascending slot order with
        /// identical lits, weight and origin; tombstones are skipped;
        /// revived slots carry the new clause.
        #[test]
        fn store_roundtrips_against_vec_model(
            ops in prop::collection::vec(arb_op(), 1..40),
        ) {
            let mut store = ClauseStore::new();
            // Model: slot id → live clause (old Vec semantics with
            // explicit tombstones).
            let mut model: Vec<Option<GroundClause>> = Vec::new();
            for op in ops {
                match op {
                    Some((lits, soft_w, origin_pick)) => {
                        let weight = match soft_w {
                            Some(w) => ClauseWeight::Soft(f64::from(w) / 8.0),
                            None => ClauseWeight::Hard,
                        };
                        let origin = [
                            ClauseOrigin::Evidence,
                            ClauseOrigin::Prior,
                            ClauseOrigin::Formula(origin_pick),
                        ][origin_pick];
                        let Some(clause) = GroundClause::new(lits, weight, origin) else {
                            continue; // tautology: neither side stores it
                        };
                        let id = store.push(clause.clone()) as usize;
                        if id == model.len() {
                            model.push(Some(clause));
                        } else {
                            prop_assert!(model[id].is_none(), "reused slot was live");
                            model[id] = Some(clause);
                        }
                    }
                    None => {
                        let Some(id) = model.iter().position(Option::is_some) else {
                            continue;
                        };
                        model[id] = None;
                        store.retract(id as u32);
                    }
                }
                // Live iteration == the model's live slots, in order.
                let live: Vec<(u32, Vec<Lit>, ClauseWeight, ClauseOrigin)> = store
                    .iter()
                    .map(|c| (c.id, c.lits.to_vec(), c.weight, c.origin))
                    .collect();
                let expected: Vec<(u32, Vec<Lit>, ClauseWeight, ClauseOrigin)> = model
                    .iter()
                    .enumerate()
                    .filter_map(|(i, c)| {
                        c.as_ref()
                            .map(|c| (i as u32, c.lits.clone(), c.weight, c.origin))
                    })
                    .collect();
                prop_assert_eq!(live, expected);
                prop_assert_eq!(store.len(), model.iter().flatten().count());
                prop_assert_eq!(store.num_slots(), model.len());
            }
        }
    }
}
