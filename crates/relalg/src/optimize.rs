//! Selection push-down, the one rewrite the planner makes.
//!
//! The compiler in `wave-fol` emits straightforward plans —
//! `Select{Product}` chains for conjunctive bodies, `SemiJoin`/`AntiJoin`
//! for guarded quantifiers — and the search re-executes them millions of
//! times. Conjuncts of a `Select` above a `Product` that mention only
//! one side's columns move below the product, so filters run before the
//! quadratic blow-up instead of after; cross-side equalities lead the
//! conjunction that stays above it.
//!
//! The rewrite reads no data, so [`PreparedQuery::prepare`] runs it once
//! per query, the way a DBMS plans a statement when it prepares it.
//! Every rewrite is an algebraic identity over canonical relations, so
//! the rewritten plan returns byte-identical results.
//!
//! [`PreparedQuery::prepare`]: crate::prepared::PreparedQuery::prepare

use crate::plan::{Plan, Pred, Scalar};
use crate::schema::Schema;

/// Rewrite `plan` with selections pushed down; the result computes the
/// same relation over every instance of `schema`.
pub fn optimize(plan: &Plan, schema: &Schema) -> Plan {
    push_down(plan.clone(), schema)
}

/// Output width of an already-validated plan.
fn width(plan: &Plan, schema: &Schema) -> usize {
    match plan {
        Plan::Scan(r) => schema.arity(*r),
        Plan::Values { width, .. } => *width,
        Plan::Select { input, .. } => width(input, schema),
        Plan::Project { cols, .. } => cols.len(),
        Plan::Product(l, r) => width(l, schema) + width(r, schema),
        Plan::Union(l, _) | Plan::Difference(l, _) => width(l, schema),
        Plan::SemiJoin { left, .. } | Plan::AntiJoin { left, .. } => width(left, schema),
    }
}

/// [`optimize`] on an owned, already-validated plan.
pub(crate) fn push_down(plan: Plan, schema: &Schema) -> Plan {
    let down = |p: Box<Plan>| Box::new(push_down(*p, schema));
    match plan {
        Plan::Scan(_) | Plan::Values { .. } => plan,
        Plan::Select { input, pred } => push_select(push_down(*input, schema), pred, schema),
        Plan::Project { input, cols } => Plan::Project { input: down(input), cols },
        Plan::Product(l, r) => Plan::Product(down(l), down(r)),
        Plan::Union(l, r) => Plan::Union(down(l), down(r)),
        Plan::Difference(l, r) => Plan::Difference(down(l), down(r)),
        Plan::SemiJoin { left, right, on } => {
            Plan::SemiJoin { left: down(left), right: down(right), on }
        }
        Plan::AntiJoin { left, right, on } => {
            Plan::AntiJoin { left: down(left), right: down(right), on }
        }
    }
}

/// Highest column index a predicate mentions, if any.
fn max_col(pred: &Pred) -> Option<usize> {
    let scal = |s: &Scalar| match *s {
        Scalar::Col(c) => Some(c),
        _ => None,
    };
    match pred {
        Pred::True | Pred::False | Pred::EmptyFlag(_) => None,
        Pred::Eq(a, b) | Pred::Ne(a, b) => scal(a).max(scal(b)),
        Pred::And(ps) | Pred::Or(ps) => ps.iter().filter_map(max_col).max(),
        Pred::Not(p) => max_col(p),
    }
}

/// Lowest column index a predicate mentions, if any.
fn min_col(pred: &Pred) -> Option<usize> {
    let scal = |s: &Scalar| match *s {
        Scalar::Col(c) => Some(c),
        _ => None,
    };
    match pred {
        Pred::True | Pred::False | Pred::EmptyFlag(_) => None,
        Pred::Eq(a, b) | Pred::Ne(a, b) => match (scal(a), scal(b)) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        },
        Pred::And(ps) | Pred::Or(ps) => ps.iter().filter_map(min_col).min(),
        Pred::Not(p) => min_col(p),
    }
}

/// Shift every column reference down by `by` (for predicates pushed to
/// the right side of a product).
fn shift_cols(pred: Pred, by: usize) -> Pred {
    let scal = |s: Scalar| match s {
        Scalar::Col(c) => Scalar::Col(c - by),
        other => other,
    };
    match pred {
        Pred::True => Pred::True,
        Pred::False => Pred::False,
        Pred::EmptyFlag(i) => Pred::EmptyFlag(i),
        Pred::Eq(a, b) => Pred::Eq(scal(a), scal(b)),
        Pred::Ne(a, b) => Pred::Ne(scal(a), scal(b)),
        Pred::And(ps) => Pred::And(ps.into_iter().map(|p| shift_cols(p, by)).collect()),
        Pred::Or(ps) => Pred::Or(ps.into_iter().map(|p| shift_cols(p, by)).collect()),
        Pred::Not(p) => Pred::Not(Box::new(shift_cols(*p, by))),
    }
}

/// Flatten a predicate into its top-level conjuncts.
fn conjuncts(pred: Pred) -> Vec<Pred> {
    match pred {
        Pred::And(ps) => ps.into_iter().flat_map(conjuncts).collect(),
        Pred::True => vec![],
        other => vec![other],
    }
}

/// Rebuild a predicate from conjuncts.
fn conjoin(mut ps: Vec<Pred>) -> Pred {
    match ps.len() {
        0 => Pred::True,
        1 => ps.pop().unwrap(),
        _ => Pred::And(ps),
    }
}

/// Wrap `input` in a `Select` unless the predicate is trivially true.
fn select(input: Plan, pred: Pred) -> Plan {
    if pred == Pred::True {
        input
    } else {
        Plan::Select { input: Box::new(input), pred }
    }
}

/// Apply pushed-down conjuncts to a side, re-entering the push-down so
/// a pushed select can itself enable a nested one.
fn apply_pushed(side: Plan, preds: Vec<Pred>, schema: &Schema) -> Plan {
    if preds.is_empty() {
        side
    } else {
        push_select(side, conjoin(preds), schema)
    }
}

/// Push-down for `Select { input, pred }` where `input` is already
/// rewritten.
fn push_select(input: Plan, pred: Pred, schema: &Schema) -> Plan {
    // Merge stacked selects so one pass sees all conjuncts.
    let (input, pred) = match input {
        Plan::Select { input: inner, pred: inner_pred } => {
            (*inner, Pred::And(vec![inner_pred, pred]))
        }
        other => (other, pred),
    };
    let Plan::Product(l, r) = input else {
        return select(input, pred);
    };
    let (l, r) = (*l, *r);
    let lw = width(&l, schema);

    let mut left_preds = Vec::new();
    let mut right_preds = Vec::new();
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts(pred) {
        let lo = min_col(&c);
        let hi = max_col(&c);
        if hi.is_none() || hi.is_some_and(|m| m < lw) {
            // Left columns only (or no columns): run before the product.
            left_preds.push(c);
        } else if lo.is_some_and(|m| m >= lw) {
            // Right columns only: shift and run before the product.
            right_preds.push(shift_cols(c, lw));
        } else if let Pred::Eq(Scalar::Col(a), Scalar::Col(b)) = c {
            // A cross-side equality (lo < lw ≤ hi here), lower column first.
            keys.push(Pred::Eq(Scalar::Col(a.min(b)), Scalar::Col(a.max(b))));
        } else {
            residual.push(c);
        }
    }

    let l = apply_pushed(l, left_preds, schema);
    let r = apply_pushed(r, right_preds, schema);
    let product = Plan::Product(Box::new(l), Box::new(r));
    keys.extend(residual);
    select(product, conjoin(keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, Params};
    use crate::instance::Instance;
    use crate::schema::RelKind;
    use crate::tuple::Tuple;
    use crate::value::Value;
    use std::sync::Arc;

    fn setup(rows: u32) -> (Arc<Schema>, Instance) {
        let mut s = Schema::new();
        s.declare("edge", 2, RelKind::Database).unwrap();
        s.declare("node", 1, RelKind::Database).unwrap();
        let s = Arc::new(s);
        let mut inst = Instance::empty(Arc::clone(&s));
        let edge = s.lookup("edge").unwrap();
        let node = s.lookup("node").unwrap();
        for i in 0..rows {
            inst.insert(edge, Tuple::from([Value(i), Value(i % 7)]));
            inst.insert(node, Tuple::from([Value(i % 11)]));
        }
        (s, inst)
    }

    /// A `Select{Product}` with a cross equality, one left-only and one
    /// right-only conjunct — the shape `compile_query` emits for
    /// conjunctive rule bodies.
    fn join_shape(s: &Schema) -> Plan {
        let edge = s.lookup("edge").unwrap();
        let node = s.lookup("node").unwrap();
        Plan::Select {
            input: Box::new(Plan::Product(Box::new(Plan::Scan(edge)), Box::new(Plan::Scan(node)))),
            pred: Pred::And(vec![
                Pred::Eq(Scalar::Col(1), Scalar::Col(2)),
                Pred::Ne(Scalar::Col(0), Scalar::Const(Value(3))),
                Pred::Ne(Scalar::Col(2), Scalar::Const(Value(4))),
            ]),
        }
    }

    #[test]
    fn pushdown_moves_single_side_conjuncts_below_the_product() {
        let (s, inst) = setup(2);
        let plan = join_shape(&s);
        let opt = optimize(&plan, &s);
        // The Ne filters must now sit below the Product.
        fn top_select_has_ne(plan: &Plan) -> bool {
            matches!(plan, Plan::Select { pred, .. }
                if conjuncts(pred.clone()).iter().any(|p| matches!(p, Pred::Ne(..))))
        }
        assert!(!top_select_has_ne(&opt), "Ne conjuncts must push down:\n{}", opt.explain(&s));
        assert_eq!(
            execute(&plan, &inst, &Params::none()).unwrap(),
            execute(&opt, &inst, &Params::none()).unwrap()
        );
    }

    fn scan(s: &Schema, name: &str) -> Box<Plan> {
        Box::new(Plan::Scan(s.lookup(name).unwrap()))
    }

    fn sel(input: Box<Plan>, pred: Pred) -> Box<Plan> {
        Box::new(Plan::Select { input, pred })
    }

    fn edge_x_node(s: &Schema) -> Box<Plan> {
        Box::new(Plan::Product(scan(s, "edge"), scan(s, "node")))
    }

    /// `plan` and `opt` agree on `inst` under `params`.
    fn assert_same_result(plan: &Plan, opt: &Plan, inst: &Instance, params: &Params) {
        assert_eq!(execute(plan, inst, params).unwrap(), execute(opt, inst, params).unwrap());
    }

    #[test]
    fn cross_side_equalities_lead_lower_column_first() {
        let (s, inst) = setup(20);
        // Spans both sides but is no column equality: stays a residual.
        let residual = Pred::Or(vec![
            Pred::Eq(Scalar::Col(0), Scalar::Col(2)),
            Pred::Eq(Scalar::Col(1), Scalar::Const(Value(0))),
        ]);
        let plan = *sel(
            edge_x_node(&s),
            Pred::And(vec![residual.clone(), Pred::Eq(Scalar::Col(2), Scalar::Col(1))]),
        );
        let opt = optimize(&plan, &s);
        let expected = *sel(
            edge_x_node(&s),
            Pred::And(vec![Pred::Eq(Scalar::Col(1), Scalar::Col(2)), residual]),
        );
        assert_eq!(opt, expected, "{}", opt.explain(&s));
        assert_same_result(&plan, &opt, &inst, &Params::none());
    }

    #[test]
    fn stacked_selects_merge_before_pushing() {
        let (s, inst) = setup(20);
        let key = Pred::Eq(Scalar::Col(1), Scalar::Col(2));
        // The inner select keeps its join key above the product; the outer
        // one merges into it and its right-only conjunct still moves down.
        let plan = *sel(
            sel(edge_x_node(&s), key.clone()),
            Pred::Ne(Scalar::Col(2), Scalar::Const(Value(4))),
        );
        let opt = optimize(&plan, &s);
        let pushed = Plan::Product(
            scan(&s, "edge"),
            sel(scan(&s, "node"), Pred::Ne(Scalar::Col(0), Scalar::Const(Value(4)))),
        );
        assert_eq!(opt, *sel(Box::new(pushed), key), "{}", opt.explain(&s));
        assert_same_result(&plan, &opt, &inst, &Params::none());

        // Over a scan, the two selects become one conjunction.
        let (a, b) = (
            Pred::Ne(Scalar::Col(0), Scalar::Const(Value(3))),
            Pred::Eq(Scalar::Col(1), Scalar::Const(Value(2))),
        );
        let plan = *sel(sel(scan(&s, "edge"), a.clone()), b.clone());
        let opt = optimize(&plan, &s);
        assert_eq!(opt, *sel(scan(&s, "edge"), Pred::And(vec![a, b])), "{}", opt.explain(&s));
        assert_same_result(&plan, &opt, &inst, &Params::none());
    }

    #[test]
    fn pushdown_reaches_the_inner_product() {
        let (s, inst) = setup(20);
        // (edge × node) × node: column 2 is the inner node, column 3 the outer.
        let nested = Box::new(Plan::Product(edge_x_node(&s), scan(&s, "node")));
        let plan = *sel(
            nested,
            Pred::And(vec![
                Pred::Eq(Scalar::Col(2), Scalar::Const(Value(5))),
                Pred::Eq(Scalar::Col(3), Scalar::Col(0)),
            ]),
        );
        let opt = optimize(&plan, &s);
        let inner = Plan::Product(
            scan(&s, "edge"),
            sel(scan(&s, "node"), Pred::Eq(Scalar::Col(0), Scalar::Const(Value(5)))),
        );
        let expected = *sel(
            Box::new(Plan::Product(Box::new(inner), scan(&s, "node"))),
            Pred::Eq(Scalar::Col(0), Scalar::Col(3)),
        );
        assert_eq!(opt, expected, "{}", opt.explain(&s));
        assert_same_result(&plan, &opt, &inst, &Params::none());
    }

    #[test]
    fn column_free_conjuncts_run_on_the_left_side() {
        let (s, inst) = setup(20);
        let flag = Pred::EmptyFlag(0);
        let param_test = Pred::Eq(Scalar::Param(0), Scalar::Const(Value(1)));
        let plan = *sel(
            edge_x_node(&s),
            Pred::And(vec![
                flag.clone(),
                param_test.clone(),
                Pred::Eq(Scalar::Col(2), Scalar::Param(0)),
            ]),
        );
        let opt = optimize(&plan, &s);
        let expected = Plan::Product(
            sel(scan(&s, "edge"), Pred::And(vec![flag, param_test])),
            sel(scan(&s, "node"), Pred::Eq(Scalar::Col(0), Scalar::Param(0))),
        );
        assert_eq!(opt, expected, "{}", opt.explain(&s));
        for (value, empty) in [(1, true), (1, false), (2, true)] {
            let mut params = Params::with_slots(1);
            params.bind(0, Value(value));
            params.set_empty(0, empty);
            assert_same_result(&plan, &opt, &inst, &params);
        }
    }

    #[test]
    fn constant_predicates_vanish_or_run_on_the_left() {
        let (s, inst) = setup(20);
        let plan = *sel(edge_x_node(&s), Pred::True);
        let opt = optimize(&plan, &s);
        assert_eq!(opt, *edge_x_node(&s), "{}", opt.explain(&s));
        assert_same_result(&plan, &opt, &inst, &Params::none());

        let plan = *sel(edge_x_node(&s), Pred::False);
        let opt = optimize(&plan, &s);
        let expected = Plan::Product(sel(scan(&s, "edge"), Pred::False), scan(&s, "node"));
        assert_eq!(opt, expected, "{}", opt.explain(&s));
        assert!(execute(&opt, &inst, &Params::none()).unwrap().is_empty());
    }

    #[test]
    fn pushdown_recurses_under_joins_projections_and_set_operators() {
        let (s, inst) = setup(20);
        let filtered = sel(edge_x_node(&s), Pred::Ne(Scalar::Col(2), Scalar::Const(Value(4))));
        let pushed = Box::new(Plan::Product(
            scan(&s, "edge"),
            sel(scan(&s, "node"), Pred::Ne(Scalar::Col(0), Scalar::Const(Value(4)))),
        ));
        let cases = [
            (
                Plan::SemiJoin {
                    left: filtered.clone(),
                    right: scan(&s, "node"),
                    on: vec![(2, 0)],
                },
                Plan::SemiJoin { left: pushed.clone(), right: scan(&s, "node"), on: vec![(2, 0)] },
            ),
            (
                Plan::AntiJoin {
                    left: scan(&s, "node"),
                    right: filtered.clone(),
                    on: vec![(0, 1)],
                },
                Plan::AntiJoin { left: scan(&s, "node"), right: pushed.clone(), on: vec![(0, 1)] },
            ),
            (
                Plan::Union(filtered.clone(), edge_x_node(&s)),
                Plan::Union(pushed.clone(), edge_x_node(&s)),
            ),
            (
                Plan::Difference(edge_x_node(&s), filtered.clone()),
                Plan::Difference(edge_x_node(&s), pushed.clone()),
            ),
            (
                Plan::Project { input: filtered, cols: vec![Scalar::Col(0)] },
                Plan::Project { input: pushed, cols: vec![Scalar::Col(0)] },
            ),
        ];
        for (plan, expected) in cases {
            let opt = optimize(&plan, &s);
            assert_eq!(opt, expected, "{}", opt.explain(&s));
            assert_same_result(&plan, &opt, &inst, &Params::none());
        }
    }

    #[test]
    fn pushdown_is_idempotent() {
        let (s, _) = setup(2);
        let nested = *sel(
            sel(
                Box::new(Plan::Product(edge_x_node(&s), scan(&s, "node"))),
                Pred::Eq(Scalar::Col(3), Scalar::Col(0)),
            ),
            Pred::And(vec![
                Pred::Eq(Scalar::Col(2), Scalar::Param(0)),
                Pred::Ne(Scalar::Col(1), Scalar::Const(Value(6))),
            ]),
        );
        for plan in [join_shape(&s), nested] {
            let once = optimize(&plan, &s);
            assert_ne!(once, plan, "the shape must give push-down work");
            assert_eq!(optimize(&once, &s), once, "{}", once.explain(&s));
        }
    }
}
