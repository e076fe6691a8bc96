//! Plan execution over an [`Instance`] with bound parameters.
//!
//! Execution is a recursive interpreter. Nested loops remain the
//! baseline for the tiny per-step relations, but the planner in
//! [`crate::optimize`] lowers joins to [`Plan::HashJoin`] when the
//! cardinality statistics say the build side is large enough to amortize
//! a hash table; both forms canonicalize through
//! [`Relation::from_tuples`], so they produce byte-identical relations.

use crate::instance::Instance;
use crate::plan::{JoinKind, Plan, Pred, Scalar};
use crate::tuple::{Relation, Tuple};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Parameter bindings for one execution: positional values plus the
/// "empty input" flags consulted by [`Pred::EmptyFlag`].
#[derive(Clone, Debug, Default)]
pub struct Params {
    values: Vec<Option<Value>>,
    empty_flags: Vec<bool>,
}

impl Params {
    /// No parameters.
    pub const fn none() -> Self {
        Params { values: Vec::new(), empty_flags: Vec::new() }
    }

    /// Build with `n` unbound slots.
    pub fn with_slots(n: usize) -> Self {
        Params { values: vec![None; n], empty_flags: vec![false; n] }
    }

    /// Bind slot `i` to a value (grows the slot vector if needed).
    pub fn bind(&mut self, i: usize, v: Value) {
        if self.values.len() <= i {
            self.values.resize(i + 1, None);
        }
        self.values[i] = Some(v);
    }

    /// Set slot `i`'s empty-input flag.
    pub fn set_empty(&mut self, i: usize, empty: bool) {
        if self.empty_flags.len() <= i {
            self.empty_flags.resize(i + 1, false);
        }
        self.empty_flags[i] = empty;
    }

    fn value(&self, i: usize) -> Result<Value, ExecError> {
        self.values.get(i).copied().flatten().ok_or(ExecError::UnboundParam(i))
    }

    fn empty(&self, i: usize) -> bool {
        self.empty_flags.get(i).copied().unwrap_or(false)
    }
}

/// Runtime execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A referenced parameter slot was never bound.
    UnboundParam(usize),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnboundParam(i) => write!(f, "parameter slot {i} is unbound"),
        }
    }
}

impl std::error::Error for ExecError {}

fn scalar(s: Scalar, row: &[Value], params: &Params) -> Result<Value, ExecError> {
    match s {
        Scalar::Col(i) => Ok(row[i]),
        Scalar::Const(v) => Ok(v),
        Scalar::Param(i) => params.value(i),
    }
}

fn eval_pred(p: &Pred, row: &[Value], params: &Params) -> Result<bool, ExecError> {
    Ok(match p {
        Pred::True => true,
        Pred::False => false,
        Pred::Eq(a, b) => scalar(*a, row, params)? == scalar(*b, row, params)?,
        Pred::Ne(a, b) => scalar(*a, row, params)? != scalar(*b, row, params)?,
        Pred::And(ps) => {
            for q in ps {
                if !eval_pred(q, row, params)? {
                    return Ok(false);
                }
            }
            true
        }
        Pred::Or(ps) => {
            for q in ps {
                if eval_pred(q, row, params)? {
                    return Ok(true);
                }
            }
            false
        }
        Pred::Not(q) => !eval_pred(q, row, params)?,
        Pred::EmptyFlag(i) => params.empty(*i),
    })
}

/// Counters accumulated during one execution (fed into the search
/// profile by the caller).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Hash tables built by [`Plan::HashJoin`] nodes.
    pub hash_builds: u64,
    /// Rows inserted into hash-join build tables.
    pub rows_built: u64,
    /// Probe-side rows driven through hash-join tables.
    pub rows_probed: u64,
}

/// Execute `plan` over `inst` with `params`, producing a relation.
pub fn execute(plan: &Plan, inst: &Instance, params: &Params) -> Result<Relation, ExecError> {
    execute_counting(plan, inst, params, &mut ExecStats::default())
}

/// [`execute`], accumulating operator counters into `stats`.
pub fn execute_counting(
    plan: &Plan,
    inst: &Instance,
    params: &Params,
    stats: &mut ExecStats,
) -> Result<Relation, ExecError> {
    Ok(match plan {
        Plan::Scan(r) => inst.rel(*r).clone(),
        Plan::Values { width, rows } => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut vals = Vec::with_capacity(row.len());
                for s in row {
                    vals.push(scalar(*s, &[], params)?);
                }
                out.push(Tuple::from(vals));
            }
            Relation::from_tuples(*width, out)
        }
        Plan::Select { input, pred } => {
            let rel = execute_counting(input, inst, params, stats)?;
            let mut kept = Vec::new();
            for t in rel.iter() {
                if eval_pred(pred, t.values(), params)? {
                    kept.push(t.clone());
                }
            }
            Relation::from_tuples(rel.arity(), kept)
        }
        Plan::Project { input, cols } => {
            let rel = execute_counting(input, inst, params, stats)?;
            let mut out = Vec::with_capacity(rel.len());
            for t in rel.iter() {
                let mut vals = Vec::with_capacity(cols.len());
                for c in cols {
                    vals.push(scalar(*c, t.values(), params)?);
                }
                out.push(Tuple::from(vals));
            }
            Relation::from_tuples(cols.len(), out)
        }
        Plan::Product(l, r) => {
            let lrel = execute_counting(l, inst, params, stats)?;
            let rrel = execute_counting(r, inst, params, stats)?;
            let mut out = Vec::with_capacity(lrel.len() * rrel.len());
            for lt in lrel.iter() {
                for rt in rrel.iter() {
                    let mut vals = Vec::with_capacity(lt.arity() + rt.arity());
                    vals.extend_from_slice(lt.values());
                    vals.extend_from_slice(rt.values());
                    out.push(Tuple::from(vals));
                }
            }
            Relation::from_tuples(lrel.arity() + rrel.arity(), out)
        }
        Plan::Union(l, r) => execute_counting(l, inst, params, stats)?
            .union(&execute_counting(r, inst, params, stats)?),
        Plan::Difference(l, r) => execute_counting(l, inst, params, stats)?
            .difference(&execute_counting(r, inst, params, stats)?),
        Plan::SemiJoin { left, right, on } => {
            let lrel = execute_counting(left, inst, params, stats)?;
            let rrel = execute_counting(right, inst, params, stats)?;
            let matches = |lt: &Tuple| {
                rrel.iter().any(|rt| on.iter().all(|&(lc, rc)| lt.get(lc) == rt.get(rc)))
            };
            Relation::from_tuples(
                lrel.arity(),
                lrel.iter().filter(|t| matches(t)).cloned().collect::<Vec<_>>(),
            )
        }
        Plan::AntiJoin { left, right, on } => {
            let lrel = execute_counting(left, inst, params, stats)?;
            let rrel = execute_counting(right, inst, params, stats)?;
            let matches = |lt: &Tuple| {
                rrel.iter().any(|rt| on.iter().all(|&(lc, rc)| lt.get(lc) == rt.get(rc)))
            };
            Relation::from_tuples(
                lrel.arity(),
                lrel.iter().filter(|t| !matches(t)).cloned().collect::<Vec<_>>(),
            )
        }
        Plan::HashJoin { left, right, on, kind } => {
            let lrel = execute_counting(left, inst, params, stats)?;
            let rrel = execute_counting(right, inst, params, stats)?;
            stats.hash_builds += 1;
            stats.rows_built += rrel.len() as u64;
            stats.rows_probed += lrel.len() as u64;
            let key = |t: &Tuple, cols: &dyn Fn(&(usize, usize)) -> usize| -> Vec<Value> {
                on.iter().map(|pair| t.get(cols(pair))).collect()
            };
            match kind {
                JoinKind::Inner => {
                    let mut table: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::new();
                    for rt in rrel.iter() {
                        table.entry(key(rt, &|&(_, rc)| rc)).or_default().push(rt);
                    }
                    let mut out = Vec::new();
                    for lt in lrel.iter() {
                        if let Some(matches) = table.get(&key(lt, &|&(lc, _)| lc)) {
                            for rt in matches {
                                let mut vals = Vec::with_capacity(lt.arity() + rt.arity());
                                vals.extend_from_slice(lt.values());
                                vals.extend_from_slice(rt.values());
                                out.push(Tuple::from(vals));
                            }
                        }
                    }
                    Relation::from_tuples(lrel.arity() + rrel.arity(), out)
                }
                JoinKind::Semi | JoinKind::Anti => {
                    let table: std::collections::HashSet<Vec<Value>> =
                        rrel.iter().map(|rt| key(rt, &|&(_, rc)| rc)).collect();
                    let keep = *kind == JoinKind::Semi;
                    Relation::from_tuples(
                        lrel.arity(),
                        lrel.iter()
                            .filter(|lt| table.contains(&key(lt, &|&(lc, _)| lc)) == keep)
                            .cloned()
                            .collect::<Vec<_>>(),
                    )
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{RelKind, Schema};
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, Instance) {
        let mut s = Schema::new();
        s.declare("edge", 2, RelKind::Database).unwrap();
        s.declare("mark", 1, RelKind::State).unwrap();
        let s = Arc::new(s);
        let mut inst = Instance::empty(Arc::clone(&s));
        let edge = s.lookup("edge").unwrap();
        let mark = s.lookup("mark").unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            inst.insert(edge, Tuple::from([Value(a), Value(b)]));
        }
        inst.insert(mark, Tuple::from([Value(2)]));
        (s, inst)
    }

    #[test]
    fn scan_and_select() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        let plan = Plan::Select {
            input: Box::new(Plan::Scan(edge)),
            pred: Pred::Eq(Scalar::Col(0), Scalar::Const(Value(2))),
        };
        let out = execute(&plan, &inst, &Params::none()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from([Value(2), Value(3)])));
    }

    #[test]
    fn project_reorders_and_injects_consts() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        let plan = Plan::Project {
            input: Box::new(Plan::Scan(edge)),
            cols: vec![Scalar::Col(1), Scalar::Const(Value(9))],
        };
        let out = execute(&plan, &inst, &Params::none()).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.contains(&Tuple::from([Value(2), Value(9)])));
    }

    #[test]
    fn semijoin_keeps_matching_rows() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        let mark = s.lookup("mark").unwrap();
        // edges whose source is marked
        let plan = Plan::SemiJoin {
            left: Box::new(Plan::Scan(edge)),
            right: Box::new(Plan::Scan(mark)),
            on: vec![(0, 0)],
        };
        let out = execute(&plan, &inst, &Params::none()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from([Value(2), Value(3)])));
    }

    #[test]
    fn antijoin_is_complement_of_semijoin() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        let mark = s.lookup("mark").unwrap();
        let anti = Plan::AntiJoin {
            left: Box::new(Plan::Scan(edge)),
            right: Box::new(Plan::Scan(mark)),
            on: vec![(0, 0)],
        };
        let out = execute(&anti, &inst, &Params::none()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn params_bind_into_predicates_and_values() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        let plan = Plan::Select {
            input: Box::new(Plan::Scan(edge)),
            pred: Pred::Eq(Scalar::Col(0), Scalar::Param(0)),
        };
        let mut params = Params::with_slots(1);
        params.bind(0, Value(3));
        let out = execute(&plan, &inst, &params).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from([Value(3), Value(1)])));
    }

    #[test]
    fn unbound_param_is_an_error() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        let plan = Plan::Select {
            input: Box::new(Plan::Scan(edge)),
            pred: Pred::Eq(Scalar::Col(0), Scalar::Param(0)),
        };
        let err = execute(&plan, &inst, &Params::none()).unwrap_err();
        assert_eq!(err, ExecError::UnboundParam(0));
    }

    #[test]
    fn empty_flag_short_circuits() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        let plan = Plan::Select {
            input: Box::new(Plan::Scan(edge)),
            pred: Pred::Or(vec![Pred::EmptyFlag(0), Pred::False]),
        };
        let mut params = Params::with_slots(1);
        params.set_empty(0, true);
        assert_eq!(execute(&plan, &inst, &params).unwrap().len(), 3);
        params.set_empty(0, false);
        assert_eq!(execute(&plan, &inst, &params).unwrap().len(), 0);
    }

    #[test]
    fn hash_joins_match_their_nested_loop_forms() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        let mark = s.lookup("mark").unwrap();
        let scan_edge = || Box::new(Plan::Scan(edge));
        let scan_mark = || Box::new(Plan::Scan(mark));

        // Inner vs Select{Product} with the same equi-predicate.
        let naive_inner = Plan::Select {
            input: Box::new(Plan::Product(scan_edge(), scan_mark())),
            pred: Pred::Eq(Scalar::Col(0), Scalar::Col(2)),
        };
        let hash_inner = Plan::HashJoin {
            left: scan_edge(),
            right: scan_mark(),
            on: vec![(0, 0)],
            kind: JoinKind::Inner,
        };
        let mut stats = ExecStats::default();
        let expected = execute(&naive_inner, &inst, &Params::none()).unwrap();
        let got = execute_counting(&hash_inner, &inst, &Params::none(), &mut stats).unwrap();
        assert_eq!(expected, got);
        assert_eq!(stats.hash_builds, 1);

        // Semi/Anti vs SemiJoin/AntiJoin.
        for (kind, naive) in [
            (
                JoinKind::Semi,
                Plan::SemiJoin { left: scan_edge(), right: scan_mark(), on: vec![(1, 0)] },
            ),
            (
                JoinKind::Anti,
                Plan::AntiJoin { left: scan_edge(), right: scan_mark(), on: vec![(1, 0)] },
            ),
        ] {
            let hash =
                Plan::HashJoin { left: scan_edge(), right: scan_mark(), on: vec![(1, 0)], kind };
            assert_eq!(
                execute(&naive, &inst, &Params::none()).unwrap(),
                execute(&hash, &inst, &Params::none()).unwrap(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn hash_join_with_empty_on_degenerates_correctly() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        let mark = s.lookup("mark").unwrap();
        // Empty key: every left row matches iff the right side is non-empty.
        let semi = Plan::HashJoin {
            left: Box::new(Plan::Scan(edge)),
            right: Box::new(Plan::Scan(mark)),
            on: vec![],
            kind: JoinKind::Semi,
        };
        assert_eq!(execute(&semi, &inst, &Params::none()).unwrap().len(), 3);
        let inner = Plan::HashJoin {
            left: Box::new(Plan::Scan(edge)),
            right: Box::new(Plan::Scan(mark)),
            on: vec![],
            kind: JoinKind::Inner,
        };
        let product = Plan::Product(Box::new(Plan::Scan(edge)), Box::new(Plan::Scan(mark)));
        assert_eq!(
            execute(&inner, &inst, &Params::none()).unwrap(),
            execute(&product, &inst, &Params::none()).unwrap()
        );
    }

    #[test]
    fn nullary_plans_encode_booleans() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        // "does any edge from 1 exist" as a width-0 projection
        let plan = Plan::Project {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::Scan(edge)),
                pred: Pred::Eq(Scalar::Col(0), Scalar::Const(Value(1))),
            }),
            cols: vec![],
        };
        let out = execute(&plan, &inst, &Params::none()).unwrap();
        assert_eq!(out.len(), 1, "non-empty result encodes true");
    }
}
