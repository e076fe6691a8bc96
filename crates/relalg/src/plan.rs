//! Relational-algebra query plans with parameter slots.
//!
//! The paper translates the FO rule bodies to *parameterized* SQL prepared
//! statements: the plan is compiled once and re-executed with fresh
//! parameter bindings at every step of the search. Our equivalent is a small
//! algebra of plan nodes; scalar positions may reference a parameter slot
//! that is bound at execution time.

use crate::schema::{RelId, Schema};
use crate::value::Value;
use std::fmt;

/// A scalar expression usable in predicates and projections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scalar {
    /// Column of the input row (0-based).
    Col(usize),
    /// A literal value.
    Const(Value),
    /// A parameter slot, bound at execution time.
    Param(usize),
}

/// A boolean predicate over one row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pred {
    True,
    False,
    Eq(Scalar, Scalar),
    Ne(Scalar, Scalar),
    And(Vec<Pred>),
    Or(Vec<Pred>),
    Not(Box<Pred>),
    /// True iff the parameter slot is bound to "empty input" — the
    /// `emptyI` flag from the paper's Section 4 rewriting. Encoded as a
    /// dedicated predicate so plans stay purely relational otherwise.
    EmptyFlag(usize),
}

/// A query plan node. Every plan produces a set of rows of a fixed width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// All tuples of a stored relation.
    Scan(RelId),
    /// A literal relation: each row is a vector of scalars (columns are not
    /// allowed — only `Const`/`Param`).
    Values { width: usize, rows: Vec<Vec<Scalar>> },
    /// Rows of `input` satisfying `pred`.
    Select { input: Box<Plan>, pred: Pred },
    /// Reorder/duplicate/introduce columns.
    Project { input: Box<Plan>, cols: Vec<Scalar> },
    /// Cartesian product (widths add).
    Product(Box<Plan>, Box<Plan>),
    /// Union of two same-width plans.
    Union(Box<Plan>, Box<Plan>),
    /// Difference of two same-width plans (`left \ right`).
    Difference(Box<Plan>, Box<Plan>),
    /// Left rows that join with at least one right row on the given
    /// column pairs (semi-join, used for guarded existentials).
    SemiJoin { left: Box<Plan>, right: Box<Plan>, on: Vec<(usize, usize)> },
    /// Left rows that join with no right row (anti-join, used for guarded
    /// negation).
    AntiJoin { left: Box<Plan>, right: Box<Plan>, on: Vec<(usize, usize)> },
}

/// Validation error for ill-formed plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A column index exceeds the input width.
    ColumnOutOfRange { col: usize, width: usize },
    /// Binary set operation over different widths.
    WidthMismatch { left: usize, right: usize },
    /// `Values` row has the wrong number of scalars.
    BadValuesRow { expected: usize, got: usize },
    /// `Values` rows may not reference columns.
    ColumnInValues,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ColumnOutOfRange { col, width } => {
                write!(f, "column {col} out of range for width {width}")
            }
            PlanError::WidthMismatch { left, right } => {
                write!(f, "set operation over widths {left} and {right}")
            }
            PlanError::BadValuesRow { expected, got } => {
                write!(f, "values row has {got} scalars, expected {expected}")
            }
            PlanError::ColumnInValues => write!(f, "column reference inside Values"),
        }
    }
}

impl std::error::Error for PlanError {}

impl Pred {
    fn validate(&self, width: usize) -> Result<(), PlanError> {
        let check = |s: &Scalar| match *s {
            Scalar::Col(c) if c >= width => Err(PlanError::ColumnOutOfRange { col: c, width }),
            _ => Ok(()),
        };
        match self {
            Pred::True | Pred::False | Pred::EmptyFlag(_) => Ok(()),
            Pred::Eq(a, b) | Pred::Ne(a, b) => {
                check(a)?;
                check(b)
            }
            Pred::And(ps) | Pred::Or(ps) => ps.iter().try_for_each(|p| p.validate(width)),
            Pred::Not(p) => p.validate(width),
        }
    }

    /// Highest parameter slot referenced, if any.
    pub fn max_param(&self) -> Option<usize> {
        let scalar = |s: &Scalar| match *s {
            Scalar::Param(i) => Some(i),
            _ => None,
        };
        match self {
            Pred::True | Pred::False => None,
            Pred::EmptyFlag(i) => Some(*i),
            Pred::Eq(a, b) | Pred::Ne(a, b) => scalar(a).max(scalar(b)),
            Pred::And(ps) | Pred::Or(ps) => ps.iter().filter_map(Pred::max_param).max(),
            Pred::Not(p) => p.max_param(),
        }
    }
}

impl Plan {
    /// Validate the plan against a schema and return the output width.
    pub fn validate(&self, schema: &Schema) -> Result<usize, PlanError> {
        match self {
            Plan::Scan(r) => Ok(schema.arity(*r)),
            Plan::Values { width, rows } => {
                for row in rows {
                    if row.len() != *width {
                        return Err(PlanError::BadValuesRow { expected: *width, got: row.len() });
                    }
                    if row.iter().any(|s| matches!(s, Scalar::Col(_))) {
                        return Err(PlanError::ColumnInValues);
                    }
                }
                Ok(*width)
            }
            Plan::Select { input, pred } => {
                let w = input.validate(schema)?;
                pred.validate(w)?;
                Ok(w)
            }
            Plan::Project { input, cols } => {
                let w = input.validate(schema)?;
                for c in cols {
                    if let Scalar::Col(i) = c {
                        if *i >= w {
                            return Err(PlanError::ColumnOutOfRange { col: *i, width: w });
                        }
                    }
                }
                Ok(cols.len())
            }
            Plan::Product(l, r) => Ok(l.validate(schema)? + r.validate(schema)?),
            Plan::Union(l, r) | Plan::Difference(l, r) => {
                let lw = l.validate(schema)?;
                let rw = r.validate(schema)?;
                if lw != rw {
                    return Err(PlanError::WidthMismatch { left: lw, right: rw });
                }
                Ok(lw)
            }
            Plan::SemiJoin { left, right, on } | Plan::AntiJoin { left, right, on } => {
                let lw = left.validate(schema)?;
                let rw = right.validate(schema)?;
                for &(lc, rc) in on {
                    if lc >= lw {
                        return Err(PlanError::ColumnOutOfRange { col: lc, width: lw });
                    }
                    if rc >= rw {
                        return Err(PlanError::ColumnOutOfRange { col: rc, width: rw });
                    }
                }
                Ok(lw)
            }
        }
    }

    /// Number of parameter slots the plan needs (1 + highest slot index).
    pub fn param_count(&self) -> usize {
        fn scal(s: &Scalar) -> Option<usize> {
            match *s {
                Scalar::Param(i) => Some(i),
                _ => None,
            }
        }
        fn walk(p: &Plan) -> Option<usize> {
            match p {
                Plan::Scan(_) => None,
                Plan::Values { rows, .. } => {
                    rows.iter().flat_map(|r| r.iter().filter_map(scal)).max()
                }
                Plan::Select { input, pred } => walk(input).max(pred.max_param()),
                Plan::Project { input, cols } => {
                    walk(input).max(cols.iter().filter_map(scal).max())
                }
                Plan::Product(l, r) | Plan::Union(l, r) | Plan::Difference(l, r) => {
                    walk(l).max(walk(r))
                }
                Plan::SemiJoin { left, right, .. } | Plan::AntiJoin { left, right, .. } => {
                    walk(left).max(walk(right))
                }
            }
        }
        walk(self).map_or(0, |m| m + 1)
    }

    /// Everything the plan's result can depend on besides the plan
    /// itself: the relations it scans and the parameter slots it
    /// consults. This is the read-set the delta-driven memo keys on.
    pub fn reads(&self) -> PlanReads {
        let mut reads = PlanReads::default();
        self.collect_reads(&mut reads);
        reads.rels.sort_unstable();
        reads.rels.dedup();
        reads.value_slots.sort_unstable();
        reads.value_slots.dedup();
        reads.empty_slots.sort_unstable();
        reads.empty_slots.dedup();
        reads
    }

    fn collect_reads(&self, out: &mut PlanReads) {
        let scal = |s: &Scalar, out: &mut PlanReads| {
            if let Scalar::Param(i) = *s {
                out.value_slots.push(i);
            }
        };
        match self {
            Plan::Scan(r) => out.rels.push(*r),
            Plan::Values { rows, .. } => {
                rows.iter().flatten().for_each(|s| scal(s, out));
            }
            Plan::Select { input, pred } => {
                input.collect_reads(out);
                pred.collect_reads(out);
            }
            Plan::Project { input, cols } => {
                input.collect_reads(out);
                cols.iter().for_each(|s| scal(s, out));
            }
            Plan::Product(l, r) | Plan::Union(l, r) | Plan::Difference(l, r) => {
                l.collect_reads(out);
                r.collect_reads(out);
            }
            Plan::SemiJoin { left, right, .. } | Plan::AntiJoin { left, right, .. } => {
                left.collect_reads(out);
                right.collect_reads(out);
            }
        }
    }
}

/// The read-set of a plan: scanned relations plus consulted parameter
/// slots, each sorted and deduplicated.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanReads {
    /// Relations scanned anywhere in the plan.
    pub rels: Vec<RelId>,
    /// Parameter slots read as values (`Scalar::Param`).
    pub value_slots: Vec<usize>,
    /// Parameter slots read as empty-input flags (`Pred::EmptyFlag`).
    pub empty_slots: Vec<usize>,
}

impl Pred {
    fn collect_reads(&self, out: &mut PlanReads) {
        let scal = |s: &Scalar, out: &mut PlanReads| {
            if let Scalar::Param(i) = *s {
                out.value_slots.push(i);
            }
        };
        match self {
            Pred::True | Pred::False => {}
            Pred::EmptyFlag(i) => out.empty_slots.push(*i),
            Pred::Eq(a, b) | Pred::Ne(a, b) => {
                scal(a, out);
                scal(b, out);
            }
            Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|p| p.collect_reads(out)),
            Pred::Not(p) => p.collect_reads(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelKind;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.declare("r", 2, RelKind::Database).unwrap();
        s.declare("s", 1, RelKind::State).unwrap();
        s
    }

    #[test]
    fn scan_width_is_arity() {
        let s = schema();
        let r = s.lookup("r").unwrap();
        assert_eq!(Plan::Scan(r).validate(&s), Ok(2));
    }

    #[test]
    fn project_validates_columns() {
        let s = schema();
        let r = s.lookup("r").unwrap();
        let good = Plan::Project {
            input: Box::new(Plan::Scan(r)),
            cols: vec![Scalar::Col(1), Scalar::Col(0), Scalar::Const(Value(7))],
        };
        assert_eq!(good.validate(&s), Ok(3));
        let bad = Plan::Project { input: Box::new(Plan::Scan(r)), cols: vec![Scalar::Col(2)] };
        assert!(matches!(bad.validate(&s), Err(PlanError::ColumnOutOfRange { .. })));
    }

    #[test]
    fn union_checks_widths() {
        let s = schema();
        let r = s.lookup("r").unwrap();
        let st = s.lookup("s").unwrap();
        let bad = Plan::Union(Box::new(Plan::Scan(r)), Box::new(Plan::Scan(st)));
        assert!(matches!(bad.validate(&s), Err(PlanError::WidthMismatch { .. })));
    }

    #[test]
    fn param_count_sees_all_positions() {
        let s = schema();
        let r = s.lookup("r").unwrap();
        let p = Plan::Select {
            input: Box::new(Plan::Scan(r)),
            pred: Pred::And(vec![Pred::Eq(Scalar::Col(0), Scalar::Param(3)), Pred::EmptyFlag(5)]),
        };
        assert_eq!(p.param_count(), 6);
        assert_eq!(Plan::Scan(r).param_count(), 0);
    }

    #[test]
    fn values_rejects_columns() {
        let s = schema();
        let bad = Plan::Values { width: 1, rows: vec![vec![Scalar::Col(0)]] };
        assert_eq!(bad.validate(&s), Err(PlanError::ColumnInValues));
    }

    #[test]
    fn reads_collects_rels_and_slots() {
        let s = schema();
        let r = s.lookup("r").unwrap();
        let st = s.lookup("s").unwrap();
        let plan = Plan::Select {
            input: Box::new(Plan::SemiJoin {
                left: Box::new(Plan::Scan(r)),
                right: Box::new(Plan::Scan(st)),
                on: vec![(0, 0)],
            }),
            pred: Pred::And(vec![
                Pred::Eq(Scalar::Col(0), Scalar::Param(4)),
                Pred::EmptyFlag(2),
                Pred::Eq(Scalar::Col(1), Scalar::Param(4)),
            ]),
        };
        let reads = plan.reads();
        assert_eq!(reads.rels, vec![r, st]);
        assert_eq!(reads.value_slots, vec![4], "deduplicated");
        assert_eq!(reads.empty_slots, vec![2]);
    }
}

impl Plan {
    /// EXPLAIN-style rendering of the plan tree (the counterpart of a SQL
    /// EXPLAIN for the compiled rule bodies).
    pub fn explain(&self, schema: &Schema) -> String {
        let mut out = String::new();
        self.explain_into(schema, 0, &mut out);
        out
    }

    fn explain_into(&self, schema: &Schema, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan(r) => {
                let _ = writeln!(out, "{pad}Scan {}", schema.name(*r));
            }
            Plan::Values { width, rows } => {
                let _ = writeln!(out, "{pad}Values width={width} rows={}", rows.len());
            }
            Plan::Select { input, pred } => {
                let _ = writeln!(out, "{pad}Select {pred:?}");
                input.explain_into(schema, depth + 1, out);
            }
            Plan::Project { input, cols } => {
                let _ = writeln!(out, "{pad}Project {cols:?}");
                input.explain_into(schema, depth + 1, out);
            }
            Plan::Product(l, r) => {
                let _ = writeln!(out, "{pad}Product");
                l.explain_into(schema, depth + 1, out);
                r.explain_into(schema, depth + 1, out);
            }
            Plan::Union(l, r) => {
                let _ = writeln!(out, "{pad}Union");
                l.explain_into(schema, depth + 1, out);
                r.explain_into(schema, depth + 1, out);
            }
            Plan::Difference(l, r) => {
                let _ = writeln!(out, "{pad}Difference");
                l.explain_into(schema, depth + 1, out);
                r.explain_into(schema, depth + 1, out);
            }
            Plan::SemiJoin { left, right, on } => {
                let _ = writeln!(out, "{pad}SemiJoin on {on:?}");
                left.explain_into(schema, depth + 1, out);
                right.explain_into(schema, depth + 1, out);
            }
            Plan::AntiJoin { left, right, on } => {
                let _ = writeln!(out, "{pad}AntiJoin on {on:?}");
                left.explain_into(schema, depth + 1, out);
                right.explain_into(schema, depth + 1, out);
            }
        }
    }

    /// One-line operator-tree skeleton (no predicates or column lists),
    /// e.g. `Sel(Prod(Sel(Scan),Scan))` — the "plan shape" column of the
    /// profiler's attribution table, where [`Plan::explain`] would be
    /// too wide.
    pub fn shape(&self) -> String {
        match self {
            Plan::Scan(_) => "Scan".to_string(),
            Plan::Values { rows, .. } => format!("Vals[{}]", rows.len()),
            Plan::Select { input, .. } => format!("Sel({})", input.shape()),
            Plan::Project { input, .. } => format!("Proj({})", input.shape()),
            Plan::Product(l, r) => format!("Prod({},{})", l.shape(), r.shape()),
            Plan::Union(l, r) => format!("Union({},{})", l.shape(), r.shape()),
            Plan::Difference(l, r) => format!("Diff({},{})", l.shape(), r.shape()),
            Plan::SemiJoin { left, right, .. } => {
                format!("Semi({},{})", left.shape(), right.shape())
            }
            Plan::AntiJoin { left, right, .. } => {
                format!("Anti({},{})", left.shape(), right.shape())
            }
        }
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use crate::schema::RelKind;

    #[test]
    fn explain_renders_the_tree() {
        let mut s = Schema::new();
        s.declare("r", 2, RelKind::Database).unwrap();
        let r = s.lookup("r").unwrap();
        let plan = Plan::Project {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::Scan(r)),
                pred: Pred::Eq(Scalar::Col(0), Scalar::Param(0)),
            }),
            cols: vec![Scalar::Col(1)],
        };
        let text = plan.explain(&s);
        assert!(text.contains("Project"), "{text}");
        assert!(text.contains("Select"), "{text}");
        assert!(text.contains("Scan r"), "{text}");
        // indentation shows nesting
        assert!(text.contains("  Select"), "{text}");
        assert!(text.contains("    Scan r"), "{text}");
    }
}
