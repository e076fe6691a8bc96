//! Prepared queries: plan once, execute many times with fresh parameters.
//!
//! This mirrors the paper's use of JDBC prepared statements: the NDFS search
//! re-evaluates each rule body a very large number of times with different
//! current-input tuples, so the translation/validation work must be paid
//! once. [`PreparedQuery::prepare`] validates a compiled plan and plans it
//! ([`optimize`](crate::optimize::optimize): selection push-down, which reads
//! no data), so every execution runs the same plan.

use crate::exec::{execute, ExecError, Params};
use crate::instance::Instance;
use crate::optimize::push_down;
use crate::plan::{Plan, PlanError, PlanReads};
use crate::schema::Schema;
use crate::tuple::Relation;
use std::sync::Arc;

/// A validated, planned, reusable query.
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    plan: Plan,
    width: usize,
    param_slots: usize,
}

impl PreparedQuery {
    /// Validate `plan` against `schema`, push its selections down and
    /// wrap it for repeated execution.
    pub fn prepare(schema: &Arc<Schema>, plan: Plan) -> Result<Self, PlanError> {
        let width = plan.validate(schema)?;
        let plan = push_down(plan, schema);
        debug_assert_eq!(plan.validate(schema), Ok(width), "push-down must preserve width");
        let param_slots = plan.param_count();
        Ok(PreparedQuery { plan, width, param_slots })
    }

    /// Output width of the query.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of parameter slots that must be bound before execution.
    pub fn param_slots(&self) -> usize {
        self.param_slots
    }

    /// The plan that runs: the compiled plan with selections pushed down.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Execute with the given parameter bindings.
    pub fn run(&self, inst: &Instance, params: &Params) -> Result<Relation, ExecError> {
        execute(&self.plan, inst, params)
    }

    /// Execute as a boolean query: true iff the result is non-empty.
    pub fn run_bool(&self, inst: &Instance, params: &Params) -> Result<bool, ExecError> {
        Ok(!self.run(inst, params)?.is_empty())
    }

    /// The read-set: relations scanned and parameter slots consulted.
    /// This is what the delta-driven memo keys a cached result on.
    pub fn reads(&self) -> PlanReads {
        self.plan.reads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Pred, Scalar};
    use crate::schema::RelKind;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn setup() -> (Arc<Schema>, Instance) {
        let mut s = Schema::new();
        s.declare("r", 1, RelKind::Database).unwrap();
        let s = Arc::new(s);
        let mut inst = Instance::empty(Arc::clone(&s));
        let r = s.lookup("r").unwrap();
        inst.insert(r, Tuple::from([Value(1)]));
        inst.insert(r, Tuple::from([Value(2)]));
        (s, inst)
    }

    #[test]
    fn prepare_rejects_invalid_plans() {
        let (s, _) = setup();
        let r = s.lookup("r").unwrap();
        let bad = Plan::Project { input: Box::new(Plan::Scan(r)), cols: vec![Scalar::Col(5)] };
        assert!(PreparedQuery::prepare(&s, bad).is_err());
    }

    #[test]
    fn run_rebinds_parameters() {
        let (s, inst) = setup();
        let r = s.lookup("r").unwrap();
        let q = PreparedQuery::prepare(
            &s,
            Plan::Select {
                input: Box::new(Plan::Scan(r)),
                pred: Pred::Eq(Scalar::Col(0), Scalar::Param(0)),
            },
        )
        .unwrap();
        assert_eq!(q.param_slots(), 1);
        let mut p = Params::with_slots(1);
        p.bind(0, Value(1));
        assert!(q.run_bool(&inst, &p).unwrap());
        p.bind(0, Value(9));
        assert!(!q.run_bool(&inst, &p).unwrap());
    }

    #[test]
    fn prepare_pushes_single_side_conjuncts_below_the_product() {
        let (s, inst) = setup();
        let r = s.lookup("r").unwrap();
        let compiled = Plan::Select {
            input: Box::new(Plan::Product(Box::new(Plan::Scan(r)), Box::new(Plan::Scan(r)))),
            pred: Pred::And(vec![
                Pred::Eq(Scalar::Col(0), Scalar::Param(0)),
                Pred::Eq(Scalar::Col(1), Scalar::Const(Value(2))),
            ]),
        };
        let q = PreparedQuery::prepare(&s, compiled.clone()).unwrap();
        let side = |pred| Box::new(Plan::Select { input: Box::new(Plan::Scan(r)), pred });
        let planned = Plan::Product(
            side(Pred::Eq(Scalar::Col(0), Scalar::Param(0))),
            side(Pred::Eq(Scalar::Col(0), Scalar::Const(Value(2)))),
        );
        assert_eq!(q.plan(), &planned, "{}", q.plan().explain(&s));
        assert_eq!((q.width(), q.param_slots()), (2, 1));
        let mut p = Params::with_slots(1);
        p.bind(0, Value(1));
        assert_eq!(q.run(&inst, &p).unwrap(), execute(&compiled, &inst, &p).unwrap());
    }

    /// The memo keys results on `reads()`, so moving conjuncts must not
    /// add or lose a relation or a parameter slot.
    #[test]
    fn prepare_keeps_the_read_set_of_the_compiled_plan() {
        let (s, _) = setup();
        let r = s.lookup("r").unwrap();
        let compiled = Plan::Select {
            input: Box::new(Plan::Product(Box::new(Plan::Scan(r)), Box::new(Plan::Scan(r)))),
            pred: Pred::And(vec![
                Pred::EmptyFlag(2),
                Pred::Eq(Scalar::Col(1), Scalar::Param(1)),
                Pred::Ne(Scalar::Col(0), Scalar::Col(1)),
            ]),
        };
        let q = PreparedQuery::prepare(&s, compiled.clone()).unwrap();
        assert_ne!(q.plan(), &compiled, "the conjuncts must move");
        assert_eq!(q.reads(), compiled.reads());
        assert_eq!(q.param_slots(), compiled.param_count());
    }
}
