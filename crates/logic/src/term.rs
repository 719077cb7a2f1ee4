//! Terms and variables of the rule/constraint language.

use tecore_temporal::Interval;

/// Index of a variable within one formula's [`VarTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u16);

impl VarId {
    /// Index into the owning formula's variable table.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-formula variable name table.
///
/// Variables are scoped to a single formula; the table maps names like
/// `x`, `t'` to dense [`VarId`]s and records whether each variable ranges
/// over entities (`x`, `y`, `z`) or time intervals (`t`, `t'`) — the
/// sort is inferred from use sites during parsing/validation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        VarTable::default()
    }

    /// Interns a variable name.
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            return VarId(pos as u16);
        }
        let id = VarId(self.names.len() as u16);
        self.names.push(name.to_string());
        id
    }

    /// Looks up an existing variable.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|p| VarId(p as u16))
    }

    /// The variable's name.
    pub fn name(&self, id: VarId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Is `ident` a variable under the paper's naming convention?
    ///
    /// A single lowercase ASCII letter, optionally followed by digits,
    /// optionally followed by primes: `x`, `y2`, `t`, `t'`, `t''`, `t1'`.
    pub fn is_variable_name(ident: &str) -> bool {
        let mut chars = ident.chars();
        match chars.next() {
            Some(c) if c.is_ascii_lowercase() => {}
            _ => return false,
        }
        let rest: Vec<char> = chars.collect();
        let digits_end = rest.iter().take_while(|c| c.is_ascii_digit()).count();
        rest[digits_end..].iter().all(|&c| c == '\'')
    }
}

/// A term in an entity position (subject / predicate / object).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A universally quantified variable.
    Var(VarId),
    /// A constant, stored as its surface string (interned against the
    /// graph dictionary at grounding time).
    Const(String),
}

impl Term {
    /// The variable id, if this is a variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

/// A term in a temporal position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TimeTerm {
    /// An interval variable (`t`, `t'`).
    Var(VarId),
    /// A literal interval (`[2000,2004]`).
    Lit(Interval),
    /// Interval intersection `t ∩ t'` (rule f2's `t'' = t ∩ t'`).
    Intersect(Box<TimeTerm>, Box<TimeTerm>),
    /// Convex hull of two interval terms (closure under union for heads).
    Hull(Box<TimeTerm>, Box<TimeTerm>),
}

impl TimeTerm {
    /// Collects the variables occurring in the term.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            TimeTerm::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            TimeTerm::Lit(_) => {}
            TimeTerm::Intersect(a, b) | TimeTerm::Hull(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Evaluates the term under a binding of interval variables.
    ///
    /// Returns `None` if an intersection is empty or a variable is
    /// unbound — in both cases the enclosing grounding is skipped.
    pub fn eval(&self, lookup: &impl Fn(VarId) -> Option<Interval>) -> Option<Interval> {
        match self {
            TimeTerm::Var(v) => lookup(*v),
            TimeTerm::Lit(iv) => Some(*iv),
            TimeTerm::Intersect(a, b) => {
                let a = a.eval(lookup)?;
                let b = b.eval(lookup)?;
                a.intersection(b)
            }
            TimeTerm::Hull(a, b) => {
                let a = a.eval(lookup)?;
                let b = b.eval(lookup)?;
                Some(a.hull(b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_table_interns() {
        let mut vt = VarTable::new();
        let x = vt.intern("x");
        let t = vt.intern("t'");
        assert_eq!(vt.intern("x"), x);
        assert_ne!(x, t);
        assert_eq!(vt.name(t), "t'");
        assert_eq!(vt.lookup("t'"), Some(t));
        assert_eq!(vt.lookup("zz"), None);
        assert_eq!(vt.len(), 2);
    }

    #[test]
    fn variable_naming_convention() {
        for v in ["x", "y", "z", "t", "t'", "t''", "t1", "t2'", "a"] {
            assert!(VarTable::is_variable_name(v), "{v} should be a variable");
        }
        for c in [
            "Chelsea", "playsFor", "1951", "CR", "xy", "t'a", "", "X", "t''3",
        ] {
            assert!(!VarTable::is_variable_name(c), "{c} should be a constant");
        }
    }

    #[test]
    fn time_term_eval() {
        let iv = |a, b| Interval::new(a, b).unwrap();
        let bind = |v: VarId| -> Option<Interval> {
            match v.0 {
                0 => Some(iv(2000, 2004)),
                1 => Some(iv(2002, 2010)),
                _ => None,
            }
        };
        let t = TimeTerm::Var(VarId(0));
        let t2 = TimeTerm::Var(VarId(1));
        assert_eq!(t.eval(&bind), Some(iv(2000, 2004)));
        let inter = TimeTerm::Intersect(Box::new(t.clone()), Box::new(t2.clone()));
        assert_eq!(inter.eval(&bind), Some(iv(2002, 2004)));
        let hull = TimeTerm::Hull(Box::new(t.clone()), Box::new(t2.clone()));
        assert_eq!(hull.eval(&bind), Some(iv(2000, 2010)));
        // Unbound variable
        let unbound = TimeTerm::Var(VarId(7));
        assert_eq!(unbound.eval(&bind), None);
        // Empty intersection
        let disjoint = TimeTerm::Intersect(
            Box::new(TimeTerm::Lit(iv(1, 2))),
            Box::new(TimeTerm::Lit(iv(5, 6))),
        );
        assert_eq!(disjoint.eval(&bind), None);
    }

    #[test]
    fn collect_vars_dedups() {
        let t = TimeTerm::Intersect(
            Box::new(TimeTerm::Var(VarId(0))),
            Box::new(TimeTerm::Hull(
                Box::new(TimeTerm::Var(VarId(0))),
                Box::new(TimeTerm::Var(VarId(1))),
            )),
        );
        let mut vars = Vec::new();
        t.collect_vars(&mut vars);
        assert_eq!(vars, vec![VarId(0), VarId(1)]);
    }

    #[test]
    fn term_accessors() {
        assert_eq!(Term::Var(VarId(3)).as_var(), Some(VarId(3)));
        assert_eq!(Term::Const("Chelsea".into()).as_var(), None);
    }
}
