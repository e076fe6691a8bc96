//! LTL-FO abstract syntax.
//!
//! An LTL-FO property combines FO formulas (its *FO components*) with
//! temporal operators — `X` (next), `F` (finally), `G` (globally),
//! `U` (until), `R` (release), `B` (before) — and boolean connectives, with
//! any remaining free variables universally quantified outermost
//! (Section 2.1 of the paper).
//!
//! `B` follows the paper's definition (its footnote notes it differs
//! slightly from the earlier theory papers): `p B q` holds when either `q`
//! never holds, or `p` holds at or before the first time `q` holds — the
//! *non-strict* reading, which the paper's Example 3.1 relies on (payment
//! and confirmation co-occur at the submit step, and P5 is reported true).
//! It is definable as `¬(¬p U (q ∧ ¬p))`, equivalently `p R (¬q ∨ p)`.

use std::fmt;
use wave_fol::Formula;

/// A (possibly temporal) LTL-FO formula body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ltl {
    /// A first-order leaf (after grouping: a maximal FO component).
    Fo(Formula),
    Not(Box<Ltl>),
    And(Box<Ltl>, Box<Ltl>),
    Or(Box<Ltl>, Box<Ltl>),
    Implies(Box<Ltl>, Box<Ltl>),
    /// Next.
    X(Box<Ltl>),
    /// Finally (eventually).
    F(Box<Ltl>),
    /// Globally (always).
    G(Box<Ltl>),
    /// Until.
    U(Box<Ltl>, Box<Ltl>),
    /// Release (dual of until).
    R(Box<Ltl>, Box<Ltl>),
    /// Before: `p B q` — if `q` ever holds, `p` held at or before the
    /// first occurrence of `q` (non-strict; see the module docs).
    B(Box<Ltl>, Box<Ltl>),
}

impl Ltl {
    /// True iff the subtree contains no temporal operator.
    pub fn is_temporal_free(&self) -> bool {
        match self {
            Ltl::Fo(_) => true,
            Ltl::Not(x) => x.is_temporal_free(),
            Ltl::And(a, b) | Ltl::Or(a, b) | Ltl::Implies(a, b) => {
                a.is_temporal_free() && b.is_temporal_free()
            }
            Ltl::X(_) | Ltl::F(_) | Ltl::G(_) => false,
            Ltl::U(_, _) | Ltl::R(_, _) | Ltl::B(_, _) => false,
        }
    }

    /// Convert a temporal-free subtree into a plain FO formula.
    /// Panics if a temporal operator is present (check first).
    pub fn to_formula(&self) -> Formula {
        match self {
            Ltl::Fo(f) => f.clone(),
            Ltl::Not(x) => Formula::not(x.to_formula()),
            Ltl::And(a, b) => Formula::and([a.to_formula(), b.to_formula()]),
            Ltl::Or(a, b) => Formula::or([a.to_formula(), b.to_formula()]),
            Ltl::Implies(a, b) => {
                Formula::Implies(Box::new(a.to_formula()), Box::new(b.to_formula()))
            }
            _ => panic!("to_formula on temporal subtree"),
        }
    }

    /// Collapse every maximal temporal-free subtree into a single
    /// [`Ltl::Fo`] leaf. The resulting leaves are exactly the paper's
    /// `frFO(φ)` — the maximal FO components.
    pub fn group_fo(&self) -> Ltl {
        if self.is_temporal_free() {
            return Ltl::Fo(self.to_formula());
        }
        match self {
            Ltl::Fo(f) => Ltl::Fo(f.clone()),
            Ltl::Not(x) => Ltl::Not(Box::new(x.group_fo())),
            Ltl::And(a, b) => Ltl::And(Box::new(a.group_fo()), Box::new(b.group_fo())),
            Ltl::Or(a, b) => Ltl::Or(Box::new(a.group_fo()), Box::new(b.group_fo())),
            Ltl::Implies(a, b) => Ltl::Implies(Box::new(a.group_fo()), Box::new(b.group_fo())),
            Ltl::X(x) => Ltl::X(Box::new(x.group_fo())),
            Ltl::F(x) => Ltl::F(Box::new(x.group_fo())),
            Ltl::G(x) => Ltl::G(Box::new(x.group_fo())),
            Ltl::U(a, b) => Ltl::U(Box::new(a.group_fo()), Box::new(b.group_fo())),
            Ltl::R(a, b) => Ltl::R(Box::new(a.group_fo()), Box::new(b.group_fo())),
            Ltl::B(a, b) => Ltl::B(Box::new(a.group_fo()), Box::new(b.group_fo())),
        }
    }
}

impl fmt::Display for Ltl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ltl::Fo(x) => write!(f, "{x}"),
            Ltl::Not(x) => write!(f, "!({x})"),
            Ltl::And(a, b) => write!(f, "({a} & {b})"),
            Ltl::Or(a, b) => write!(f, "({a} | {b})"),
            Ltl::Implies(a, b) => write!(f, "({a} -> {b})"),
            Ltl::X(x) => write!(f, "X ({x})"),
            Ltl::F(x) => write!(f, "F ({x})"),
            Ltl::G(x) => write!(f, "G ({x})"),
            Ltl::U(a, b) => write!(f, "(({a}) U ({b}))"),
            Ltl::R(a, b) => write!(f, "(({a}) R ({b}))"),
            Ltl::B(a, b) => write!(f, "(({a}) B ({b}))"),
        }
    }
}

/// A full LTL-FO property: outermost universally quantified variables plus
/// the temporal body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Property {
    /// The paper's `∀x̄` prefix; empty when the body is closed.
    pub univ_vars: Vec<String>,
    pub body: Ltl,
}

impl Property {
    /// Closed property (no outer quantifier).
    pub fn closed(body: Ltl) -> Self {
        Property { univ_vars: vec![], body }
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.univ_vars.is_empty() {
            write!(f, "forall {}: ", self.univ_vars.join(", "))?;
        }
        write!(f, "{}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_fol::parse_formula;

    fn fo(src: &str) -> Ltl {
        Ltl::Fo(parse_formula(src).unwrap())
    }

    #[test]
    fn temporal_freeness() {
        let pure = Ltl::And(Box::new(fo("a()")), Box::new(fo("b()")));
        assert!(pure.is_temporal_free());
        let temporal = Ltl::U(Box::new(fo("a()")), Box::new(fo("b()")));
        assert!(!temporal.is_temporal_free());
    }

    #[test]
    fn group_fo_collapses_maximal_subtrees() {
        // (a & b) U (c | !d) → two FO leaves
        let l = Ltl::U(
            Box::new(Ltl::And(Box::new(fo("a()")), Box::new(fo("b()")))),
            Box::new(Ltl::Or(Box::new(fo("c()")), Box::new(Ltl::Not(Box::new(fo("d()")))))),
        );
        let g = l.group_fo();
        assert_eq!(g.group_fo(), g, "grouping is idempotent");
        match g {
            Ltl::U(a, b) => {
                assert!(matches!(*a, Ltl::Fo(_)));
                assert!(matches!(*b, Ltl::Fo(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_fo_keeps_temporal_structure() {
        // G(a -> F b): implication must NOT collapse since F b is temporal
        let l = Ltl::G(Box::new(Ltl::Implies(
            Box::new(fo("a()")),
            Box::new(Ltl::F(Box::new(fo("b()")))),
        )));
        let g = l.group_fo();
        assert_eq!(g.group_fo(), g, "grouping is idempotent");
        match g {
            Ltl::G(inner) => match *inner {
                Ltl::Implies(lhs, rhs) => {
                    assert!(matches!(*lhs, Ltl::Fo(_)));
                    assert!(matches!(*rhs, Ltl::F(_)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
