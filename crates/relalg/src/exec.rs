//! Plan execution over an [`Instance`] with bound parameters.
//!
//! Execution is a recursive interpreter, and every join is a nested
//! loop: the per-step relations it runs over are toy-sized, the regime
//! the paper describes for its prepared statements. Every operator
//! canonicalizes its output through [`Relation::from_tuples`], so two
//! plans that compute the same relation produce byte-identical results.

use crate::instance::Instance;
use crate::plan::{Plan, Pred, Scalar};
use crate::tuple::{Relation, Tuple};
use crate::value::Value;
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

/// Execute `plan` over `inst` with `params`, producing a relation.
pub fn execute(plan: &Plan, inst: &Instance, params: &Params) -> Result<Relation, ExecError> {
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
            let rel = execute(input, inst, params)?;
            let mut kept = Vec::new();
            for t in rel.iter() {
                if eval_pred(pred, t.values(), params)? {
                    kept.push(t.clone());
                }
            }
            Relation::from_tuples(rel.arity(), kept)
        }
        Plan::Project { input, cols } => {
            let rel = execute(input, inst, params)?;
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
            let lrel = execute(l, inst, params)?;
            let rrel = execute(r, inst, params)?;
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
        Plan::Union(l, r) => execute(l, inst, params)?.union(&execute(r, inst, params)?),
        Plan::Difference(l, r) => execute(l, inst, params)?.difference(&execute(r, inst, params)?),
        Plan::SemiJoin { left, right, on } => {
            let lrel = execute(left, inst, params)?;
            let rrel = execute(right, inst, params)?;
            let matches = |lt: &Tuple| {
                rrel.iter().any(|rt| on.iter().all(|&(lc, rc)| lt.get(lc) == rt.get(rc)))
            };
            Relation::from_tuples(
                lrel.arity(),
                lrel.iter().filter(|t| matches(t)).cloned().collect::<Vec<_>>(),
            )
        }
        Plan::AntiJoin { left, right, on } => {
            let lrel = execute(left, inst, params)?;
            let rrel = execute(right, inst, params)?;
            let matches = |lt: &Tuple| {
                rrel.iter().any(|rt| on.iter().all(|&(lc, rc)| lt.get(lc) == rt.get(rc)))
            };
            Relation::from_tuples(
                lrel.arity(),
                lrel.iter().filter(|t| !matches(t)).cloned().collect::<Vec<_>>(),
            )
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
    fn joins_with_empty_on_test_the_right_side_for_emptiness() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        let mark = s.lookup("mark").unwrap();
        let nonempty = Plan::Scan(mark);
        let empty = Plan::Select { input: Box::new(Plan::Scan(mark)), pred: Pred::False };
        let run = |semi: bool, right: &Plan| {
            let (left, right) = (Box::new(Plan::Scan(edge)), Box::new(right.clone()));
            let plan = if semi {
                Plan::SemiJoin { left, right, on: vec![] }
            } else {
                Plan::AntiJoin { left, right, on: vec![] }
            };
            execute(&plan, &inst, &Params::none()).unwrap()
        };
        let all = inst.rel(edge).clone();
        assert_eq!(run(true, &nonempty), all, "semi-join keeps every row");
        assert!(run(true, &empty).is_empty(), "semi-join with nothing to match");
        assert!(run(false, &nonempty).is_empty(), "anti-join drops every row");
        assert_eq!(run(false, &empty), all, "anti-join with nothing to match");
    }

    #[test]
    fn product_concatenates_columns_and_an_empty_side_empties_it() {
        let (s, inst) = setup();
        let edge = s.lookup("edge").unwrap();
        let mark = s.lookup("mark").unwrap();
        let plan = Plan::Product(Box::new(Plan::Scan(edge)), Box::new(Plan::Scan(mark)));
        let out = execute(&plan, &inst, &Params::none()).unwrap();
        assert_eq!((out.arity(), out.len()), (3, 3));
        assert!(out.contains(&Tuple::from([Value(3), Value(1), Value(2)])));

        let nothing = Plan::Values { width: 1, rows: vec![] };
        let plan = Plan::Product(Box::new(Plan::Scan(edge)), Box::new(nothing));
        let out = execute(&plan, &inst, &Params::none()).unwrap();
        assert_eq!((out.arity(), out.len()), (3, 0));
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
