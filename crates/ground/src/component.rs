//! Conflict components: partitioning the ground problem into
//! independently solvable sub-problems.
//!
//! Ground clauses only interact through shared atoms, so the transitive
//! closure of "appears in a clause with" partitions the live clauses of
//! a [`ClauseStore`] into **conflict components**
//! whose MAP solutions compose exactly: the optimum of the whole
//! problem is the union of the per-component optima, and the total cost
//! is their sum. On real uTKGs (where conflicts are local — two coach
//! spells of one person, not a global tangle) this turns one large MAP
//! instance into thousands of tiny ones, and — crucially for the
//! streaming path — lets an incremental resolve re-solve *only the
//! components a delta touched*, splicing cached solutions for the rest.
//!
//! Three pieces live here:
//!
//! * [`ComponentIndex`] — what is kept between solves: the atoms whose
//!   local problem changed (a flag per atom plus the flagged atoms as a
//!   list), a component **label** per atom, and a **ledger** of cost and
//!   hard violations per label. Components are found by walking from
//!   atom to clause to atom through an atom → clauses table: the full
//!   pass ([`ComponentIndex::partition`]) reads that table off the
//!   arena and walks everything, the dirty-only pass
//!   ([`ComponentIndex::partition_dirty`]) is handed the dependency
//!   index [`Grounding::apply_delta`](crate::Grounding) maintains and
//!   walks from the flagged atoms only — it merges what an emission
//!   joined and splits what a retraction split, so nothing needs
//!   maintaining in between;
//! * [`Partition`] — the components one pass found: per-component atom
//!   and clause lists in flat tables;
//! * [`ComponentView`] — a zero-copy sub-view of the arena for one
//!   component; the solve driver copies it into a compact arena in the
//!   component's dense local id space ([`ComponentView::to_store`]) and
//!   hands that to [`MapSolver::solve`](crate::MapSolver::solve) like
//!   any other (the remap is monotone in atom id, so normalised clauses
//!   stay normalised).
//!
//! [`Partition::of`] runs the same walk without an index to keep: it is
//! how the PSL backend finds the independent blocks of the arena it is
//! handed.
//!
//! [`Marginals`] grades one component at a time exactly: it walks all
//! the component's worlds and weighs each by the MLN's distribution,
//! reading the literals straight from the arena.

use crate::atoms::AtomId;
use crate::clause::{ClauseId, ClauseStore, Lit};

/// The label of an atom that is in no live clause.
const NO_LABEL: u32 = u32::MAX;

/// What the solve driver keeps about the components between solves.
///
/// A **flag** records "this atom's local problem changed since the last
/// [`ComponentIndex::commit`]"; a component is dirty when any of its
/// member atoms is. Flags are per atom, so they stay meaningful while
/// components merge and split under them.
///
/// A **label** names the component an atom was in when a pass last
/// walked it. A pass retires every label it meets and mints a new one
/// per component it finds; every component a delta changed holds a
/// flagged atom (an emitted clause flags one of its atoms, a retracted
/// one all of them), so after a dirty-only pass the labels are exactly
/// those a full pass would give, and the number of labels in use is the
/// number of components.
///
/// The **ledger** holds, per label, the violated soft weight and the
/// violated hard clauses of that component under the MAP state it was
/// last solved to ([`ComponentIndex::commit`]); their totals are the
/// cost and feasibility of the spliced global state.
#[derive(Debug, Clone, Default)]
pub struct ComponentIndex {
    /// Per-atom "local problem changed" flag.
    flagged: Vec<bool>,
    /// The flagged atoms, each once.
    dirty: Vec<AtomId>,
    /// Per-atom component label; [`NO_LABEL`] outside every live clause.
    label: Vec<u32>,
    ledger: Ledger,
    /// Live clauses without literals. They belong to no component, so
    /// one of them makes the arena unpartitionable.
    empty_clauses: usize,
}

/// Cost and hard violations per component label.
///
/// The total cost is a function of the entries alone — entries summed
/// in label order, a block at a time — never a running total that
/// additions and subtractions drift. Blocks an entry changed in are
/// summed again when the pass is closed ([`Ledger::settle`]), each
/// once, however many of its entries changed.
#[derive(Debug, Clone, Default)]
struct Ledger {
    cost: Vec<f64>,
    hard: Vec<u32>,
    state: Vec<Label>,
    /// Labels free to be minted again.
    free: Vec<u32>,
    /// `cost` summed per block of [`Ledger::BLOCK`] labels, as of the
    /// last [`Ledger::settle`].
    block_cost: Vec<f64>,
    /// Blocks with an entry written since, each once.
    unsettled: Vec<u32>,
    is_unsettled: Vec<bool>,
    hard_total: usize,
    in_use: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Label {
    Free,
    InUse,
    /// In use, and minted by the pass in progress (see
    /// [`ComponentIndex::walk`]).
    Fresh,
}

impl Ledger {
    const BLOCK: usize = 256;

    fn mint(&mut self) -> u32 {
        let label = self.free.pop().unwrap_or_else(|| {
            self.cost.push(0.0);
            self.hard.push(0);
            self.state.push(Label::Free);
            let blocks = self.cost.len().div_ceil(Self::BLOCK);
            self.block_cost.resize(blocks, 0.0);
            self.is_unsettled.resize(blocks, false);
            (self.cost.len() - 1) as u32
        });
        self.state[label as usize] = Label::Fresh;
        self.in_use += 1;
        label
    }

    /// Takes the label out of use. It may be minted again once the
    /// caller hands it to `free` — after the pass, when no atom carries
    /// it any more.
    fn retire(&mut self, label: u32) {
        self.set(label, 0.0, 0);
        self.state[label as usize] = Label::Free;
        self.in_use -= 1;
    }

    fn set(&mut self, label: u32, cost: f64, hard: usize) {
        let at = label as usize;
        self.hard_total = self.hard_total - self.hard[at] as usize + hard;
        self.hard[at] = hard as u32;
        self.cost[at] = cost;
        let block = at / Self::BLOCK;
        if !std::mem::replace(&mut self.is_unsettled[block], true) {
            self.unsettled.push(block as u32);
        }
    }

    fn settle(&mut self) {
        for block in self.unsettled.drain(..) {
            let block = block as usize;
            let end = self.cost.len().min((block + 1) * Self::BLOCK);
            self.block_cost[block] = self.cost[block * Self::BLOCK..end].iter().sum();
            self.is_unsettled[block] = false;
        }
    }

    /// Totals as of the last [`Ledger::settle`].
    fn total(&self) -> (f64, usize) {
        (self.block_cost.iter().sum(), self.hard_total)
    }
}

/// atom → ids of the live clauses naming it, read off the arena in two
/// counting passes (the full pass's stand-in for the dependency index,
/// which a grounding that never saw a delta does not have).
struct Occurrences {
    starts: Vec<u32>,
    ids: Vec<ClauseId>,
}

impl Occurrences {
    fn of(clauses: &ClauseStore, num_atoms: usize) -> Self {
        let mut starts = vec![0u32; num_atoms + 1];
        for clause in clauses.iter() {
            for l in clause.lits {
                starts[l.atom.index() + 1] += 1;
            }
        }
        for a in 0..num_atoms {
            starts[a + 1] += starts[a];
        }
        let mut fill = starts.clone();
        let mut ids = vec![0; starts[num_atoms] as usize];
        for clause in clauses.iter() {
            for l in clause.lits {
                let slot = &mut fill[l.atom.index()];
                ids[*slot as usize] = clause.id;
                *slot += 1;
            }
        }
        Occurrences { starts, ids }
    }

    fn of_atom(&self, atom: usize) -> &[ClauseId] {
        &self.ids[self.starts[atom] as usize..self.starts[atom + 1] as usize]
    }
}

impl ComponentIndex {
    /// An index over `num_atoms` atoms. Every atom starts **flagged**: a
    /// fresh index pairs with no cached per-component state, so
    /// everything must be solved once.
    pub fn new(num_atoms: usize) -> Self {
        let mut index = ComponentIndex::default();
        index.ensure_atoms(num_atoms);
        index
    }

    /// Number of atoms the index covers.
    pub fn num_atoms(&self) -> usize {
        self.flagged.len()
    }

    /// Extends the tables for atoms `< n` (fresh atoms are flagged and
    /// in no component).
    pub fn ensure_atoms(&mut self, n: usize) {
        for a in self.flagged.len()..n {
            self.flagged.push(true);
            self.dirty.push(AtomId(a as u32));
            self.label.push(NO_LABEL);
        }
    }

    fn flag(&mut self, atom: AtomId) {
        self.ensure_atoms(atom.index() + 1);
        if !std::mem::replace(&mut self.flagged[atom.index()], true) {
            self.dirty.push(atom);
        }
    }

    /// Records an emitted clause. One flagged member suffices: the pass
    /// walks the whole component the clause now belongs to.
    pub fn note_emit(&mut self, lits: &[Lit]) {
        match lits.last() {
            // Literals ascend by atom: the last names the widest id.
            Some(last) => {
                self.ensure_atoms(last.atom.index() + 1);
                self.flag(lits[0].atom);
            }
            None => self.empty_clauses += 1,
        }
    }

    /// Records a retracted clause: every named atom is flagged, as they
    /// may now lie in *different* components, each of which must be
    /// walked and re-solved.
    pub fn note_retract(&mut self, lits: &[Lit]) {
        if lits.is_empty() {
            self.empty_clauses = self.empty_clauses.saturating_sub(1);
        }
        for l in lits {
            self.flag(l.atom);
        }
    }

    /// Flags one atom without any structural change — used for net-zero
    /// churn ([`tecore_kg::Delta::churned`]) where the ground problem is
    /// untouched but cached per-component solver state must be
    /// conservatively invalidated.
    pub fn note_touched(&mut self, atom: AtomId) {
        self.flag(atom);
    }

    /// Is the atom's flag set? (Component dirtiness is evaluated by the
    /// partition passes; this exposes the raw flag for tests and
    /// diagnostics.)
    pub fn is_atom_dirty(&self, atom: AtomId) -> bool {
        self.flagged.get(atom.index()).copied().unwrap_or(true)
    }

    /// Is any atom flagged? (`false` means the clause arena is
    /// byte-identical to the one the last committed solve ran over.)
    pub fn any_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Number of components, as of the most recent pass (`0` before the
    /// first).
    pub fn component_count(&self) -> usize {
        self.ledger.in_use
    }

    /// With an empty clause in the arena — it belongs to every and no
    /// component — the driver must solve monolithically, after which no
    /// per-component account holds: the index goes back to its fresh
    /// state, every atom flagged.
    fn unpartitionable(&mut self) -> Option<Partition> {
        if self.empty_clauses == 0 {
            return None;
        }
        let empty_clauses = self.empty_clauses;
        *self = ComponentIndex::new(self.num_atoms());
        self.empty_clauses = empty_clauses;
        Some(Partition::unpartitionable())
    }

    /// The **full pass**: every component of the live clauses, each
    /// marked dirty when it holds a flagged atom. Labels and ledger
    /// start over (flags stay), so this is what a fresh index runs
    /// once, and what a cold component-wise solve runs.
    ///
    /// Atoms in no live clause (dead slots, clause-free atoms) belong
    /// to no component; the solve driver fills their assignment from
    /// the warm state or a default.
    pub fn partition(&mut self, clauses: &ClauseStore) -> Partition {
        // Literals ascend by atom: the last names the widest id.
        let (mut named, mut empty_clauses) = (0, 0);
        for clause in clauses.iter() {
            match clause.lits.last() {
                Some(last) => named = named.max(last.atom.index() + 1),
                None => empty_clauses += 1,
            }
        }
        self.ensure_atoms(named);
        self.empty_clauses = empty_clauses;
        if let Some(unpartitionable) = self.unpartitionable() {
            return unpartitionable;
        }
        self.walk_all(clauses)
    }

    /// Walks every component of the live clauses, labels and ledger
    /// started over. Clauses without literals are in no component.
    fn walk_all(&mut self, clauses: &ClauseStore) -> Partition {
        let n = self.num_atoms();
        self.label.clear();
        self.label.resize(n, NO_LABEL);
        self.ledger = Ledger::default();
        let occurrences = Occurrences::of(clauses, n);
        // Seeded in arena order, components come out ordered by their
        // first clause.
        let seeds = clauses
            .iter()
            .filter_map(|c| c.lits.first().map(|l| l.atom));
        self.walk(clauses, |a| occurrences.of_atom(a), seeds)
    }

    /// The **dirty-only pass**: exactly the components that hold a
    /// flagged atom — the ones a full pass would mark dirty, with the
    /// same atoms and clauses in the same order — found by walking from
    /// the flagged atoms through `atom_clauses` (atom id → ids of the
    /// live clauses naming it). Visits no atom or clause outside those
    /// components.
    pub fn partition_dirty(
        &mut self,
        clauses: &ClauseStore,
        atom_clauses: &[Vec<ClauseId>],
    ) -> Partition {
        self.ensure_atoms(atom_clauses.len());
        if let Some(unpartitionable) = self.unpartitionable() {
            return unpartitionable;
        }
        let seeds = std::mem::take(&mut self.dirty);
        let partition = self.walk(
            clauses,
            |a| atom_clauses.get(a).map_or(&[], Vec::as_slice),
            seeds.iter().copied(),
        );
        self.dirty = seeds;
        partition
    }

    /// Walks the components of the `seeds`, retiring the labels met and
    /// minting one per component found.
    fn walk<'a>(
        &mut self,
        clauses: &ClauseStore,
        clauses_of: impl Fn(usize) -> &'a [ClauseId],
        seeds: impl Iterator<Item = AtomId>,
    ) -> Partition {
        let mut found = Partition::default();
        // (first clause, label, end in `atoms`, end in `clause_ids`)
        let mut rows: Vec<(ClauseId, u32, u32, u32)> = Vec::new();
        let mut retired: Vec<u32> = Vec::new();
        let mut stack: Vec<AtomId> = Vec::new();
        for seed in seeds {
            let old = self.label[seed.index()];
            if old != NO_LABEL && self.ledger.state[old as usize] == Label::Fresh {
                continue; // walked from an earlier seed
            }
            if clauses_of(seed.index()).is_empty() {
                found.visited += 1;
                self.relabel(seed, NO_LABEL, &mut retired);
                continue;
            }
            let (atoms_from, clauses_from) = (found.atoms.len(), found.clause_ids.len());
            let label = self.ledger.mint();
            self.relabel(seed, label, &mut retired);
            found.atoms.push(seed);
            stack.push(seed);
            while let Some(atom) = stack.pop() {
                for &ci in clauses_of(atom.index()) {
                    // Met once per member; duplicates go below.
                    found.clause_ids.push(ci);
                    for l in clauses.lits(ci) {
                        if self.label[l.atom.index()] != label {
                            self.relabel(l.atom, label, &mut retired);
                            found.atoms.push(l.atom);
                            stack.push(l.atom);
                        }
                    }
                }
            }
            // Ascending atoms are the local id space; ascending clause
            // slots are the order the arena lists them in.
            found.atoms[atoms_from..].sort_unstable();
            found.clause_ids[clauses_from..].sort_unstable();
            let mut kept = clauses_from;
            for at in clauses_from..found.clause_ids.len() {
                if at == clauses_from || found.clause_ids[at] != found.clause_ids[kept - 1] {
                    found.clause_ids[kept] = found.clause_ids[at];
                    kept += 1;
                }
            }
            found.clause_ids.truncate(kept);
            found.visited += found.atoms.len() - atoms_from;
            rows.push((
                found.clause_ids[clauses_from],
                label,
                found.atoms.len() as u32,
                found.clause_ids.len() as u32,
            ));
        }
        // No atom carries a retired label any more (every piece of a
        // component that changed holds a flagged atom and was walked),
        // so those are free from the next pass on.
        self.ledger.free.extend(retired);
        for &(_, label, _, _) in &rows {
            self.ledger.state[label as usize] = Label::InUse;
        }
        found.order_by_first_clause(rows, &self.flagged);
        found
    }

    /// Moves `atom` under `label`, retiring the label it carried.
    fn relabel(&mut self, atom: AtomId, label: u32, retired: &mut Vec<u32>) {
        let old = std::mem::replace(&mut self.label[atom.index()], label);
        if old != NO_LABEL && self.ledger.state[old as usize] == Label::InUse {
            self.ledger.retire(old);
            retired.push(old);
        }
    }

    /// Closes a pass once its components are solved: enters every
    /// component of `partition` in the ledger as `world` (the merged
    /// MAP assignment, by global atom id) leaves it, and clears every
    /// flag. Returns the ledger's totals — cost and hard violations of
    /// `world` over the whole arena, without reading any clause outside
    /// the partition.
    pub fn commit(
        &mut self,
        partition: &Partition,
        clauses: &ClauseStore,
        world: &[bool],
    ) -> (f64, usize) {
        if partition.is_unpartitionable() {
            return self.ledger.total(); // everything stays flagged
        }
        for i in 0..partition.len() {
            let (cost, hard) = partition.view(clauses, i).evaluate(world);
            self.ledger.set(partition.labels[i], cost, hard);
        }
        self.ledger.settle();
        // (Taken, not drained: after a full pass the list is as long
        // as the atom table, and the next delta flags a handful.)
        for atom in std::mem::take(&mut self.dirty) {
            self.flagged[atom.index()] = false;
        }
        self.ledger.total()
    }
}

/// The components one pass found — the output of
/// [`ComponentIndex::partition`] (all of them) or
/// [`ComponentIndex::partition_dirty`] (those holding a flagged atom),
/// consumed by the solve driver. Member and clause lists live in flat
/// CSR tables; components are contiguous rows, ordered by their first
/// clause.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Member atoms, grouped by component, ascending global id within
    /// each row.
    atoms: Vec<AtomId>,
    /// Row offsets into `atoms` (`len() + 1` entries).
    atom_starts: Vec<u32>,
    /// Live clause ids, grouped by component, ascending slot order
    /// within each row.
    clause_ids: Vec<ClauseId>,
    /// Row offsets into `clause_ids` (`len() + 1` entries).
    clause_starts: Vec<u32>,
    /// Per component: its label in the index's ledger.
    labels: Vec<u32>,
    /// Per component: does it contain a flagged atom?
    dirty: Vec<bool>,
    /// Atoms the pass walked, those it found in no clause included.
    visited: usize,
    /// `true` when the arena contains a clause that cannot be assigned
    /// to a component (an empty clause); the driver must solve
    /// monolithically.
    unpartitionable: bool,
}

impl Partition {
    /// Every component of the live clauses of `clauses`, whose literals
    /// name atoms `0..num_atoms` — the full pass for a caller that keeps
    /// no index between solves. A clause without literals is left out
    /// of every component rather than making the arena unpartitionable.
    pub fn of(clauses: &ClauseStore, num_atoms: usize) -> Partition {
        ComponentIndex::new(num_atoms).walk_all(clauses)
    }

    fn unpartitionable() -> Partition {
        Partition {
            atom_starts: vec![0],
            clause_starts: vec![0],
            unpartitionable: true,
            ..Partition::default()
        }
    }

    /// Lays the walked components (`rows`, in discovery order over the
    /// flat lists) out ordered by first clause, and reads each one's
    /// dirtiness off the flags. The full pass discovers them in that
    /// order and keeps its lists as they are.
    fn order_by_first_clause(&mut self, rows: Vec<(ClauseId, u32, u32, u32)>, flagged: &[bool]) {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        let in_order = rows.windows(2).all(|w| w[0].0 < w[1].0);
        if !in_order {
            order.sort_unstable_by_key(|&r| rows[r].0);
        }
        let begin = |r: usize| r.checked_sub(1).map_or((0, 0), |p| (rows[p].2, rows[p].3));
        let (atoms, clause_ids) = (
            std::mem::take(&mut self.atoms),
            std::mem::take(&mut self.clause_ids),
        );
        self.atom_starts.push(0);
        self.clause_starts.push(0);
        for r in order {
            let (atoms_from, clauses_from) = begin(r);
            let (_, label, atoms_to, clauses_to) = rows[r];
            let members = &atoms[atoms_from as usize..atoms_to as usize];
            self.dirty.push(members.iter().any(|a| flagged[a.index()]));
            let (atoms_end, clauses_end) = if in_order {
                (atoms_to, clauses_to)
            } else {
                self.atoms.extend_from_slice(members);
                self.clause_ids
                    .extend_from_slice(&clause_ids[clauses_from as usize..clauses_to as usize]);
                (self.atoms.len() as u32, self.clause_ids.len() as u32)
            };
            self.atom_starts.push(atoms_end);
            self.clause_starts.push(clauses_end);
            self.labels.push(label);
        }
        if in_order {
            (self.atoms, self.clause_ids) = (atoms, clause_ids);
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    /// Is the partition empty (no component found)?
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Could the clause arena not be partitioned (an empty clause)?
    pub fn is_unpartitionable(&self) -> bool {
        self.unpartitionable
    }

    /// Is component `i` dirty (holds an atom flagged since the last
    /// [`ComponentIndex::commit`])?
    pub fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i]
    }

    /// Number of dirty components.
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Atoms the pass visited — its work, independent of the clock: the
    /// members of the components found, plus the seeds that turned out
    /// to be in no live clause.
    pub fn atoms_visited(&self) -> usize {
        self.visited
    }

    /// The component of an atom, if it belongs to one of this
    /// partition's (tests and diagnostics: a search over the rows).
    pub fn component_of(&self, atom: AtomId) -> Option<usize> {
        (0..self.len()).find(|&i| self.atoms(i).binary_search(&atom).is_ok())
    }

    /// Member atoms of component `i` (ascending global id — the local
    /// id space).
    pub fn atoms(&self, i: usize) -> &[AtomId] {
        &self.atoms[self.atom_starts[i] as usize..self.atom_starts[i + 1] as usize]
    }

    /// Live clause ids of component `i` (ascending slot order).
    pub fn clause_ids(&self, i: usize) -> &[ClauseId] {
        &self.clause_ids[self.clause_starts[i] as usize..self.clause_starts[i + 1] as usize]
    }

    /// A zero-copy sub-view of `store` for component `i`.
    pub fn view<'a>(&'a self, store: &'a ClauseStore, i: usize) -> ComponentView<'a> {
        ComponentView {
            store,
            atoms: self.atoms(i),
            clause_ids: self.clause_ids(i),
        }
    }
}

/// A zero-copy view of one conflict component: borrows the parent
/// arena and the partition's member lists; nothing is materialised
/// until the solve driver copies it into a compact sub-store for the
/// backend ([`ComponentView::to_store`]).
///
/// Local atom ids are dense (`0..num_atoms()`) and ascend with global
/// ids, so remapping a normalised clause yields a normalised clause.
#[derive(Debug, Clone, Copy)]
pub struct ComponentView<'a> {
    store: &'a ClauseStore,
    atoms: &'a [AtomId],
    clause_ids: &'a [ClauseId],
}

impl<'a> ComponentView<'a> {
    /// Number of atoms (solver variables) in the component.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Member atoms, ascending global id — index `l` is local atom `l`.
    pub fn atoms(&self) -> &'a [AtomId] {
        self.atoms
    }

    /// The component's clause ids in the parent arena.
    pub fn clause_ids(&self) -> &'a [ClauseId] {
        self.clause_ids
    }

    /// Local id of a member atom: its rank among the members.
    ///
    /// # Panics
    ///
    /// Panics when `atom` is not a member.
    #[inline]
    pub fn local(&self, atom: AtomId) -> u32 {
        self.atoms
            .binary_search(&atom)
            .expect("a component's clauses name its member atoms only") as u32
    }

    /// Global atom behind a local id.
    #[inline]
    pub fn global(&self, local: u32) -> AtomId {
        self.atoms[local as usize]
    }

    /// Total violated soft weight and number of violated hard clauses
    /// of `world` (indexed by **global** atom id) over the component's
    /// clauses — [`evaluate_world`](crate::evaluate_world) restricted
    /// to the component.
    pub fn evaluate(&self, world: &[bool]) -> (f64, usize) {
        let (mut cost, mut hard) = (0.0, 0usize);
        for &ci in self.clause_ids {
            let satisfied = self
                .store
                .lits(ci)
                .iter()
                .any(|l| l.satisfied_by(world[l.atom.index()]));
            if !satisfied {
                if self.store.is_hard(ci) {
                    hard += 1;
                } else {
                    cost += self.store.weight_raw(ci);
                }
            }
        }
        (cost, hard)
    }

    /// Materialises the component as a compact [`ClauseStore`] in the
    /// local atom id space — the arena the solve driver hands to
    /// [`MapSolver::solve`](crate::MapSolver::solve). This is the only
    /// copying step of the component pipeline, done per *dirty*
    /// component only, and it copies exactly the component's literals
    /// once.
    pub fn to_store(&self) -> ClauseStore {
        let total_lits: usize = self
            .clause_ids
            .iter()
            .map(|&ci| self.store.clause_len(ci))
            .sum();
        let mut out = ClauseStore::with_capacity(self.clause_ids.len(), total_lits);
        let mut buf: Vec<Lit> = Vec::with_capacity(8);
        for &ci in self.clause_ids {
            buf.clear();
            buf.extend(self.store.lits(ci).iter().map(|l| Lit {
                atom: AtomId(self.local(l.atom)),
                positive: l.positive,
            }));
            out.push_lits(&buf, self.store.weight(ci), self.store.origin(ci));
        }
        out
    }
}

/// The most atoms a component may have for [`Marginals`] to grade it.
pub const MAX_GRADED_ATOMS: usize = 16;

/// Exact per-atom marginals of one conflict component at a time:
/// `P(atom = 1)` under the MLN's `P(x) ∝ exp(−cost(x))` over the worlds
/// that satisfy every hard clause.
///
/// The `2^k` worlds are walked in Gray-code order, one atom flipped per
/// step, keeping a satisfied-literal count per clause: the flip updates
/// the counts of the clauses it touches and the number of hard clauses
/// at zero. A feasible world's cost is the weight of its soft clauses
/// at zero, summed in clause order as [`ComponentView::evaluate`] sums
/// it, and it adds `exp(min − cost)` to the sums, `min` the lowest cost
/// met so far (the sums are rescaled when it drops), so nothing
/// overflows or underflows. Buffers are reused from one component to
/// the next.
#[derive(Debug, Clone, Default)]
pub struct Marginals {
    /// Per local atom, its range in `occurrences`.
    starts: Vec<u32>,
    /// `(clause position in the component, literal is positive)`.
    occurrences: Vec<(u32, bool)>,
    /// Per clause, its literals the current world satisfies.
    satisfied: Vec<u32>,
    /// Per local atom, the weight of the worlds it holds in; in the end
    /// its marginal.
    on: Vec<f64>,
}

impl Marginals {
    /// `P(atom = 1)` of each member of component `i` of `partition`
    /// over `clauses`, by local id; `None` when the component has more
    /// than [`MAX_GRADED_ATOMS`] atoms or no feasible world.
    pub fn component(
        &mut self,
        clauses: &ClauseStore,
        partition: &Partition,
        i: usize,
    ) -> Option<&[f64]> {
        let view = partition.view(clauses, i);
        let (k, ids) = (view.num_atoms(), view.clause_ids());
        if k > MAX_GRADED_ATOMS {
            return None;
        }
        // Counted into `starts[a + 2]`, filled through `starts[a + 1]`:
        // that leaves `starts[a]..starts[a + 1]` as atom `a`'s range.
        self.starts.clear();
        self.starts.resize(k + 2, 0);
        for l in ids.iter().flat_map(|&ci| clauses.lits(ci)) {
            self.starts[view.local(l.atom) as usize + 2] += 1;
        }
        for a in 2..k + 2 {
            self.starts[a] += self.starts[a - 1];
        }
        self.occurrences
            .resize(self.starts[k + 1] as usize, (0, false));
        self.satisfied.clear();
        // The all-false world: a clause holds by its negative literals.
        let mut hard = 0usize;
        for (c, &ci) in ids.iter().enumerate() {
            for l in clauses.lits(ci) {
                let slot = &mut self.starts[view.local(l.atom) as usize + 1];
                self.occurrences[*slot as usize] = (c as u32, l.positive);
                *slot += 1;
            }
            let negative = clauses.lits(ci).iter().filter(|l| !l.positive).count();
            self.satisfied.push(negative as u32);
            hard += usize::from(negative == 0 && clauses.is_hard(ci));
        }
        self.on.clear();
        self.on.resize(k, 0.0);
        let (mut world, mut total, mut min) = (0u32, 0.0, f64::INFINITY);
        for step in 0..1u32 << k {
            if step > 0 {
                let flip = step.trailing_zeros() as usize;
                world ^= 1 << flip;
                let value = world & (1 << flip) != 0;
                let range = self.starts[flip] as usize..self.starts[flip + 1] as usize;
                for &(c, positive) in &self.occurrences[range] {
                    let count = &mut self.satisfied[c as usize];
                    let was = *count;
                    *count = if positive == value { was + 1 } else { was - 1 };
                    if clauses.is_hard(ids[c as usize]) && (was == 0 || *count == 0) {
                        hard = if was == 0 { hard - 1 } else { hard + 1 };
                    }
                }
            }
            if hard > 0 {
                continue;
            }
            let cost: f64 = (ids.iter().zip(&self.satisfied))
                .filter(|&(&ci, &count)| count == 0 && !clauses.is_hard(ci))
                .map(|(&ci, _)| clauses.weight_raw(ci))
                .sum();
            if cost < min {
                let scale = (cost - min).exp();
                total *= scale;
                self.on.iter_mut().for_each(|p| *p *= scale);
                min = cost;
            }
            let weight = (min - cost).exp();
            total += weight;
            for (a, p) in self.on.iter_mut().enumerate() {
                if world & (1 << a) != 0 {
                    *p += weight;
                }
            }
        }
        if total == 0.0 {
            return None;
        }
        self.on.iter_mut().for_each(|p| *p /= total);
        Some(&self.on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::{ClauseOrigin, ClauseWeight, GroundClause};
    use crate::solver::evaluate_world;
    use proptest::prelude::*;

    fn soft(lits: Vec<Lit>, w: f64) -> GroundClause {
        GroundClause::new(lits, ClauseWeight::Soft(w), ClauseOrigin::Evidence).unwrap()
    }

    fn store(clauses: &[GroundClause]) -> ClauseStore {
        ClauseStore::from_ground_clauses(clauses)
    }

    /// The atom → clauses table a grounding would hand the dirty pass.
    fn atom_clauses(s: &ClauseStore, n: usize) -> Vec<Vec<ClauseId>> {
        let mut out = vec![Vec::new(); n];
        for c in s.iter() {
            for l in c.lits {
                out[l.atom.index()].push(c.id);
            }
        }
        out
    }

    fn sigmoid(w: f64) -> f64 {
        1.0 / (1.0 + (-w).exp())
    }

    /// The marginals of the one component of `clauses`.
    fn graded(clauses: &[GroundClause], num_atoms: usize) -> Option<Vec<f64>> {
        let (s, mut kernel) = (store(clauses), Marginals::default());
        let p = Partition::of(&s, num_atoms);
        assert_eq!(p.len(), 1);
        kernel.component(&s, &p, 0).map(<[f64]>::to_vec)
    }

    fn hard(lits: Vec<Lit>) -> GroundClause {
        GroundClause::new(lits, ClauseWeight::Hard, ClauseOrigin::Formula(0)).unwrap()
    }

    #[test]
    fn a_unit_clause_reads_its_sigmoid() {
        for w in [0.5, 1.5, 3.0, -2.0] {
            let m = graded(&[soft(vec![Lit::pos(AtomId(0))], w)], 1).unwrap();
            assert!((m[0] - sigmoid(w)).abs() < 1e-12, "{w}: {m:?}");
        }
    }

    #[test]
    fn a_negated_unit_clause_reads_one_minus_its_sigmoid() {
        for w in [0.5, 2.0, -1.0] {
            let m = graded(&[soft(vec![Lit::neg(AtomId(0))], w)], 1).unwrap();
            assert!((m[0] - (1.0 - sigmoid(w))).abs() < 1e-12, "{w}: {m:?}");
        }
    }

    #[test]
    fn a_hard_clash_splits_the_mass() {
        let m = graded(
            &[
                soft(vec![Lit::pos(AtomId(0))], 5.0),
                soft(vec![Lit::pos(AtomId(1))], 5.0),
                hard(vec![Lit::neg(AtomId(0)), Lit::neg(AtomId(1))]),
            ],
            2,
        )
        .unwrap();
        let expected = 1.0 / (2.0 + (-5.0f64).exp());
        assert!(m.iter().all(|p| (p - expected).abs() < 1e-12), "{m:?}");
    }

    #[test]
    fn nothing_is_graded_without_a_clause() {
        assert!(Partition::of(&ClauseStore::new(), 0).is_empty());
        assert!(Partition::of(&ClauseStore::new(), 3).is_empty());
    }

    proptest! {
        /// The Gray-code walk ≡ weighing every world through
        /// [`ComponentView::evaluate`], on random arenas of up to ten
        /// atoms: soft weights of either sign, hard clauses, infeasible
        /// components.
        #[test]
        fn marginals_match_brute_force_enumeration(
            num_atoms in 1u32..11,
            raw in prop::collection::vec(
                (prop::collection::vec((0u32..10, prop::bool::ANY), 1..4), 0u32..5, -3.0f64..5.0),
                0..16,
            ),
        ) {
            let clauses: Vec<GroundClause> = raw
                .into_iter()
                .filter_map(|(lits, kind, w)| {
                    let lits = lits
                        .into_iter()
                        .map(|(a, positive)| Lit { atom: AtomId(a % num_atoms), positive })
                        .collect();
                    let weight = if kind == 0 { ClauseWeight::Hard } else { ClauseWeight::Soft(w) };
                    GroundClause::new(lits, weight, ClauseOrigin::Evidence)
                })
                .collect();
            let (s, mut kernel) = (store(&clauses), Marginals::default());
            let p = Partition::of(&s, num_atoms as usize);
            for i in 0..p.len() {
                let view = p.view(&s, i);
                let mut world = vec![false; num_atoms as usize];
                // (mask, cost) of every feasible world.
                let feasible: Vec<(u32, f64)> = (0..1u32 << view.num_atoms())
                    .filter_map(|mask| {
                        for (j, &atom) in view.atoms().iter().enumerate() {
                            world[atom.index()] = mask & (1 << j) != 0;
                        }
                        let (cost, hard) = view.evaluate(&world);
                        (hard == 0).then_some((mask, cost))
                    })
                    .collect();
                let graded = kernel.component(&s, &p, i);
                let min = feasible.iter().map(|w| w.1).fold(f64::INFINITY, f64::min);
                let mass = |of: u32| -> f64 {
                    feasible.iter().filter(|w| w.0 & of == of).map(|w| (min - w.1).exp()).sum()
                };
                match graded {
                    None => prop_assert!(feasible.is_empty(), "component {i} is feasible"),
                    Some(marginals) => {
                        for (j, p) in marginals.iter().enumerate() {
                            let exact = mass(1 << j) / mass(0);
                            prop_assert!((p - exact).abs() < 1e-12, "atom {j}: {p} vs {exact}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn two_islands_partition() {
        // {0,1} and {2,3} are independent islands.
        let s = store(&[
            soft(vec![Lit::pos(AtomId(0)), Lit::neg(AtomId(1))], 1.0),
            soft(vec![Lit::pos(AtomId(1))], 0.5),
            soft(vec![Lit::pos(AtomId(2)), Lit::pos(AtomId(3))], 2.0),
        ]);
        let mut index = ComponentIndex::new(4);
        let p = index.partition(&s);
        assert_eq!(p.len(), 2);
        assert!(!p.is_unpartitionable());
        assert_eq!(p.component_of(AtomId(0)), p.component_of(AtomId(1)));
        assert_eq!(p.component_of(AtomId(2)), p.component_of(AtomId(3)));
        assert_ne!(p.component_of(AtomId(0)), p.component_of(AtomId(2)));
        // Fresh index: everything dirty.
        assert_eq!(p.dirty_count(), 2);
        assert_eq!(index.component_count(), 2);
        assert_eq!(p.atoms_visited(), 4);
    }

    #[test]
    fn view_remaps_monotonically_and_materialises() {
        let s = store(&[
            soft(vec![Lit::pos(AtomId(5)), Lit::neg(AtomId(9))], 1.0),
            soft(vec![Lit::neg(AtomId(5))], 0.25),
        ]);
        let mut index = ComponentIndex::new(10);
        let p = index.partition(&s);
        assert_eq!(p.len(), 1);
        let comp = p.component_of(AtomId(5)).unwrap();
        let view = p.view(&s, comp);
        assert_eq!(view.num_atoms(), 2);
        assert_eq!(view.atoms(), &[AtomId(5), AtomId(9)]);
        assert_eq!(view.local(AtomId(5)), 0);
        assert_eq!(view.local(AtomId(9)), 1);
        assert_eq!(view.global(1), AtomId(9));
        let sub = view.to_store();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.lits(0), &[Lit::pos(AtomId(0)), Lit::neg(AtomId(1))]);
        assert_eq!(sub.lits(1), &[Lit::neg(AtomId(0))]);
        assert_eq!(sub.weight(1), ClauseWeight::Soft(0.25));
    }

    #[test]
    fn emission_merges_and_dirties_retraction_dirties_all() {
        let s = store(&[
            soft(vec![Lit::pos(AtomId(0))], 1.0),
            soft(vec![Lit::pos(AtomId(1))], 1.0),
        ]);
        let mut index = ComponentIndex::new(2);
        let p = index.partition(&s);
        index.commit(&p, &s, &[true, true]);
        assert!(!index.is_atom_dirty(AtomId(0)));
        assert!(!index.any_dirty());

        // Emitting a bridge clause merges the islands and dirties them.
        let mut s2 = s.clone();
        let bridge = soft(vec![Lit::neg(AtomId(0)), Lit::neg(AtomId(1))], 2.0);
        let id = s2.push(bridge.clone());
        index.note_emit(&bridge.lits);
        let p = index.partition_dirty(&s2, &atom_clauses(&s2, 2));
        assert_eq!(p.len(), 1);
        assert!(p.is_dirty(0));
        assert_eq!(p.clause_ids(0), &[0, 1, id]);
        assert_eq!(index.component_count(), 1);

        // Retraction marks every named atom dirty.
        index.commit(&p, &s2, &[true, true]);
        s2.retract(id);
        index.note_retract(&bridge.lits);
        assert!(index.is_atom_dirty(AtomId(0)));
        assert!(index.is_atom_dirty(AtomId(1)));
        // The walk splits what the retraction split, and both halves
        // read dirty, so nothing stale survives.
        let p = index.partition_dirty(&s2, &atom_clauses(&s2, 2));
        assert_eq!(p.len(), 2);
        assert_eq!(p.dirty_count(), p.len());
        assert_eq!(index.component_count(), 2);
    }

    #[test]
    fn rebuild_splits_after_heavy_retraction() {
        // A chain of bridges 0-1, 1-2, ..., all retracted again: the
        // next pass is back at singleton components.
        let units: Vec<GroundClause> = (0..40)
            .map(|i| soft(vec![Lit::pos(AtomId(i))], 1.0))
            .collect();
        let mut s = store(&units);
        let mut index = ComponentIndex::new(40);
        let mut bridges = Vec::new();
        for i in 0..39u32 {
            let bridge = soft(vec![Lit::neg(AtomId(i)), Lit::pos(AtomId(i + 1))], 1.0);
            let id = s.push(bridge.clone());
            index.note_emit(&bridge.lits);
            bridges.push((id, bridge));
        }
        assert_eq!(index.partition(&s).len(), 1);
        for (id, bridge) in bridges {
            s.retract(id);
            index.note_retract(&bridge.lits);
        }
        let p = index.partition_dirty(&s, &atom_clauses(&s, 40));
        assert_eq!(p.len(), 40, "the walk recovers the fine partition");
        assert_eq!(index.component_count(), 40);
        assert_eq!(index.partition(&s).len(), 40);
    }

    #[test]
    fn empty_clause_is_unpartitionable() {
        let mut s = ClauseStore::new();
        s.push_lits(&[], ClauseWeight::Hard, ClauseOrigin::Evidence);
        let mut index = ComponentIndex::new(0);
        let p = index.partition(&s);
        assert!(p.is_unpartitionable());
    }

    #[test]
    fn churn_touch_dirties_without_structure_change() {
        let s = store(&[soft(vec![Lit::pos(AtomId(0))], 1.0)]);
        let mut index = ComponentIndex::new(1);
        let p = index.partition(&s);
        index.commit(&p, &s, &[true]);
        assert_eq!(index.partition(&s).dirty_count(), 0);
        assert!(index.partition_dirty(&s, &atom_clauses(&s, 1)).is_empty());
        index.note_touched(AtomId(0));
        let p = index.partition_dirty(&s, &atom_clauses(&s, 1));
        assert_eq!(p.dirty_count(), 1);
        assert_eq!(p.len(), 1);
        assert_eq!(index.component_count(), 1);
    }

    /// The dirty pass returns the dirty components of the full pass —
    /// same atoms, same clauses, same order — whatever order the atoms
    /// were flagged in, and the ledger's totals are `evaluate_world`'s.
    #[test]
    fn dirty_pass_matches_the_dirty_rows_of_the_full_pass() {
        // Components by first clause: {4,5} (clause 0), {0,1,2}
        // (clause 1), {3} (clause 4), {6} (clause 5).
        let mut s = store(&[
            soft(vec![Lit::neg(AtomId(4)), Lit::neg(AtomId(5))], 3.0),
            soft(vec![Lit::pos(AtomId(1)), Lit::neg(AtomId(2))], 1.5),
            soft(vec![Lit::neg(AtomId(0)), Lit::neg(AtomId(1))], 2.0),
            soft(vec![Lit::pos(AtomId(0))], 0.5),
            soft(vec![Lit::pos(AtomId(3))], 0.25),
            soft(vec![Lit::neg(AtomId(6))], 0.75),
        ]);
        let world = [true, true, false, false, true, true, true];
        let mut index = ComponentIndex::new(7);
        let p = index.partition(&s);
        assert_eq!(p.len(), 4);
        assert_eq!(p.atoms(1), &[AtomId(0), AtomId(1), AtomId(2)]);
        let totals = index.commit(&p, &s, &world);
        assert_eq!(totals, evaluate_world(&s, &world));
        assert_eq!(totals, (2.0 + 0.25 + 3.0 + 0.75, 0));

        // Flag late components first.
        index.note_touched(AtomId(6));
        index.note_touched(AtomId(2));
        let hard = s.push_lits(
            &[Lit::neg(AtomId(4))],
            ClauseWeight::Hard,
            ClauseOrigin::Evidence,
        );
        index.note_emit(s.lits(hard));
        let adjacency = atom_clauses(&s, 7);
        let mut reference = index.clone();
        let dirty = index.partition_dirty(&s, &adjacency);
        let full = reference.partition(&s);
        let rows = |p: &Partition, only_dirty: bool| -> Vec<(Vec<AtomId>, Vec<ClauseId>)> {
            (0..p.len())
                .filter(|&i| !only_dirty || p.is_dirty(i))
                .map(|i| (p.atoms(i).to_vec(), p.clause_ids(i).to_vec()))
                .collect()
        };
        assert_eq!(rows(&dirty, false), rows(&full, true));
        assert_eq!(dirty.len(), 3);
        assert_eq!(dirty.atoms_visited(), 2 + 3 + 1);
        assert_eq!(index.component_count(), full.len());
        let totals = index.commit(&dirty, &s, &world);
        assert_eq!(totals, evaluate_world(&s, &world));
        assert_eq!(totals.1, 1);
    }
}
