//! Cardinality statistics over an [`Instance`], feeding the planner.
//!
//! The optimizer in [`crate::optimize`](mod@crate::optimize) needs two
//! things a classical OLTP statistics collector would provide:
//! per-relation row counts (to pick the cheaper hash-build side and to
//! decide whether hash machinery pays for itself at all) and per-column
//! distinct counts (equality selectivity). Both are exact here, not sampled — the instances the
//! verifier plans against are the per-core base databases, small enough
//! to scan outright.
//!
//! Statistics are a *snapshot*: the per-step working instances add a few
//! extension/input tuples on top of the base the snapshot was taken
//! from, so [`InstanceStats::estimate`] treats every count as a lower
//! bound with +1 smoothing rather than an exact value.

use crate::instance::Instance;
use crate::plan::{JoinKind, Plan, Pred, Scalar};
use crate::schema::RelId;

/// Exact statistics for one relation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RelStats {
    /// Number of tuples.
    pub rows: usize,
    /// Distinct values per column (`distinct.len()` = arity).
    pub distinct: Vec<usize>,
}

/// Statistics for every relation of an instance, indexed by [`RelId`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstanceStats {
    rels: Vec<RelStats>,
}

impl InstanceStats {
    /// Scan `inst` and collect exact row and per-column distinct counts.
    pub fn collect(inst: &Instance) -> InstanceStats {
        let schema = inst.schema();
        let rels = schema
            .rels()
            .map(|id| {
                let rel = inst.rel(id);
                let arity = schema.arity(id);
                let mut distinct = Vec::with_capacity(arity);
                for col in 0..arity {
                    let mut vals: Vec<_> = rel.iter().map(|t| t.get(col)).collect();
                    vals.sort_unstable();
                    vals.dedup();
                    distinct.push(vals.len());
                }
                RelStats { rows: rel.len(), distinct }
            })
            .collect();
        InstanceStats { rels }
    }

    /// Row count of a relation at snapshot time.
    pub fn rows(&self, rel: RelId) -> usize {
        self.rels.get(rel.index()).map_or(0, |s| s.rows)
    }

    /// Distinct values in one column at snapshot time (0 when empty).
    pub fn distinct(&self, rel: RelId, col: usize) -> usize {
        self.rels.get(rel.index()).and_then(|s| s.distinct.get(col)).copied().unwrap_or(0)
    }

    /// Estimated output rows of `plan` over an instance grown from the
    /// snapshot. Counts smooth by +1 (the working instance holds at
    /// least the snapshot plus the step's own facts), equality
    /// predicates use `1/distinct` selectivity, and everything clamps to
    /// ≥ 0 — the estimate guides build-side choice and the hash
    /// threshold, never correctness.
    pub fn estimate(&self, plan: &Plan) -> f64 {
        match plan {
            Plan::Scan(r) => self.rows(*r) as f64 + 1.0,
            Plan::Values { rows, .. } => rows.len() as f64,
            Plan::Select { input, pred } => self.estimate(input) * self.selectivity(input, pred),
            Plan::Project { input, .. } => self.estimate(input),
            Plan::Product(l, r) => self.estimate(l) * self.estimate(r),
            Plan::Union(l, r) => self.estimate(l) + self.estimate(r),
            Plan::Difference(l, _) => self.estimate(l),
            Plan::SemiJoin { left, .. } | Plan::AntiJoin { left, .. } => self.estimate(left) * 0.5,
            Plan::HashJoin { left, right, on, kind } => match kind {
                JoinKind::Inner => {
                    let key_card = on
                        .iter()
                        .map(|&(lc, _)| self.column_distinct(left, lc).max(1.0))
                        .fold(1.0f64, f64::max);
                    self.estimate(left) * self.estimate(right) / key_card
                }
                JoinKind::Semi | JoinKind::Anti => self.estimate(left) * 0.5,
            },
        }
    }

    /// Distinct-count estimate for column `col` of a plan's output; only
    /// scans give a real figure, everything else falls back to the row
    /// estimate (a safe overestimate of distinctness).
    fn column_distinct(&self, plan: &Plan, col: usize) -> f64 {
        match plan {
            Plan::Scan(r) => self.distinct(*r, col) as f64 + 1.0,
            Plan::Select { input, .. } => self.column_distinct(input, col),
            Plan::Project { input, cols } => match cols.get(col) {
                Some(Scalar::Col(c)) => self.column_distinct(input, *c),
                Some(_) => 1.0,
                None => self.estimate(plan),
            },
            _ => self.estimate(plan),
        }
    }

    /// Predicate selectivity in `[0, 1]`.
    fn selectivity(&self, input: &Plan, pred: &Pred) -> f64 {
        match pred {
            Pred::True => 1.0,
            Pred::False => 0.0,
            Pred::Eq(a, b) => {
                let card = |s: &Scalar| match s {
                    Scalar::Col(c) => self.column_distinct(input, *c),
                    _ => 1.0,
                };
                1.0 / card(a).max(card(b)).max(1.0)
            }
            Pred::Ne(..) => 0.9,
            Pred::And(ps) => ps.iter().map(|p| self.selectivity(input, p)).product(),
            Pred::Or(ps) => ps.iter().map(|p| self.selectivity(input, p)).sum::<f64>().min(1.0),
            Pred::Not(p) => (1.0 - self.selectivity(input, p)).max(0.0),
            Pred::EmptyFlag(_) => 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{RelKind, Schema};
    use crate::tuple::Tuple;
    use crate::value::Value;
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, Instance) {
        let mut s = Schema::new();
        s.declare("edge", 2, RelKind::Database).unwrap();
        s.declare("mark", 1, RelKind::State).unwrap();
        let s = Arc::new(s);
        let mut inst = Instance::empty(Arc::clone(&s));
        let edge = s.lookup("edge").unwrap();
        for (a, b) in [(1, 2), (1, 3), (2, 3)] {
            inst.insert(edge, Tuple::from([Value(a), Value(b)]));
        }
        (s, inst)
    }

    #[test]
    fn collect_counts_rows_and_distincts() {
        let (s, inst) = setup();
        let stats = InstanceStats::collect(&inst);
        let edge = s.lookup("edge").unwrap();
        let mark = s.lookup("mark").unwrap();
        assert_eq!(stats.rows(edge), 3);
        assert_eq!(stats.distinct(edge, 0), 2, "sources 1 and 2");
        assert_eq!(stats.distinct(edge, 1), 2, "targets 2 and 3");
        assert_eq!(stats.rows(mark), 0);
        assert_eq!(stats.distinct(mark, 0), 0);
    }

    #[test]
    fn estimates_track_plan_shape() {
        let (s, inst) = setup();
        let stats = InstanceStats::collect(&inst);
        let edge = s.lookup("edge").unwrap();
        let scan = Plan::Scan(edge);
        assert_eq!(stats.estimate(&scan), 4.0, "rows + 1 smoothing");
        let product = Plan::Product(Box::new(scan.clone()), Box::new(scan.clone()));
        assert_eq!(stats.estimate(&product), 16.0);
        let select = Plan::Select {
            input: Box::new(scan.clone()),
            pred: Pred::Eq(Scalar::Col(0), Scalar::Const(Value(1))),
        };
        assert!(stats.estimate(&select) < stats.estimate(&scan), "equality filters shrink");
        let dead = Plan::Select { input: Box::new(scan), pred: Pred::False };
        assert_eq!(stats.estimate(&dead), 0.0);
    }
}
