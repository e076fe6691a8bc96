//! Optimizer oracle: random plans over random instances must compute
//! exactly the same relation before and after selection push-down (the
//! rewrite `PreparedQuery::prepare` applies to every compiled plan).
//! `Relation` is canonical (sorted, deduplicated), so equality here is
//! byte-equality.

use proptest::prelude::*;
use std::sync::Arc;
use wave_relalg::{
    execute, optimize, Instance, Params, Plan, Pred, RelKind, Relation, Scalar, Schema, Tuple,
    Value,
};

fn tuples(arity: usize, max_val: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..max_val, arity), 0..14)
}

fn rel_of(arity: usize, raw: &[Vec<u32>]) -> Relation {
    Relation::from_tuples(
        arity,
        raw.iter().map(|t| Tuple::from(t.iter().map(|&v| Value(v)).collect::<Vec<_>>())),
    )
}

/// Tiny deterministic generator so random plan shapes don't depend on
/// combinators the vendored proptest stand-in lacks.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random scalar over a plan of the given width (params 0..2 are
/// always bound by the harness).
fn scalar(rng: &mut Lcg, width: usize) -> Scalar {
    match rng.below(3) {
        0 if width > 0 => Scalar::Col(rng.below(width as u64) as usize),
        1 => Scalar::Param(rng.below(2) as usize),
        _ => Scalar::Const(Value(rng.below(6) as u32)),
    }
}

/// A random conjunction of comparisons (the fragment the compiler
/// emits, which is also the fragment the push-down classifier handles).
fn pred(rng: &mut Lcg, width: usize) -> Pred {
    let conjunct = |rng: &mut Lcg| {
        let (a, b) = (scalar(rng, width), scalar(rng, width));
        if rng.below(2) == 0 {
            Pred::Eq(a, b)
        } else {
            Pred::Ne(a, b)
        }
    };
    match rng.below(3) {
        0 => conjunct(rng),
        1 => Pred::And(vec![conjunct(rng), conjunct(rng)]),
        _ => Pred::And(vec![conjunct(rng), conjunct(rng), conjunct(rng)]),
    }
}

/// Build a random valid plan over the three test relations, returning
/// the plan and its width. Depth-bounded so shrunk cases stay readable.
fn random_plan(rng: &mut Lcg, schema: &Schema, depth: u32) -> (Plan, usize) {
    let rels = ["r0", "r1", "r2"];
    if depth == 0 || rng.below(3) == 0 {
        let name = rels[rng.below(3) as usize];
        let id = schema.lookup(name).unwrap();
        return (Plan::Scan(id), schema.arity(id));
    }
    let (left, lw) = random_plan(rng, schema, depth - 1);
    match rng.below(5) {
        0 => {
            let p = pred(rng, lw);
            (Plan::Select { input: Box::new(left), pred: p }, lw)
        }
        1 => {
            let (right, rw) = random_plan(rng, schema, depth - 1);
            (Plan::Product(Box::new(left), Box::new(right)), lw + rw)
        }
        2 => {
            let (right, rw) = random_plan(rng, schema, depth - 1);
            let on = if lw == 0 || rw == 0 {
                vec![]
            } else {
                vec![(rng.below(lw as u64) as usize, rng.below(rw as u64) as usize)]
            };
            if rng.below(2) == 0 {
                (Plan::SemiJoin { left: Box::new(left), right: Box::new(right), on }, lw)
            } else {
                (Plan::AntiJoin { left: Box::new(left), right: Box::new(right), on }, lw)
            }
        }
        3 if lw > 0 => {
            let cols = (0..=rng.below(lw as u64) as usize)
                .map(|_| {
                    if rng.below(4) == 0 {
                        Scalar::Const(Value(rng.below(6) as u32))
                    } else {
                        Scalar::Col(rng.below(lw as u64) as usize)
                    }
                })
                .collect::<Vec<_>>();
            let w = cols.len();
            (Plan::Project { input: Box::new(left), cols }, w)
        }
        _ => {
            // same-width set operation: pair the plan with itself under a
            // select so union/difference inputs always agree on width
            let p = pred(rng, lw);
            let right = Plan::Select { input: Box::new(left.clone()), pred: p };
            if rng.below(2) == 0 {
                (Plan::Union(Box::new(left), Box::new(right)), lw)
            } else {
                (Plan::Difference(Box::new(left), Box::new(right)), lw)
            }
        }
    }
}

fn setup(a: &[Vec<u32>], b: &[Vec<u32>], c: &[Vec<u32>]) -> (Arc<Schema>, Instance) {
    let mut schema = Schema::new();
    schema.declare("r0", 2, RelKind::Database).unwrap();
    schema.declare("r1", 2, RelKind::Database).unwrap();
    schema.declare("r2", 1, RelKind::Database).unwrap();
    let schema = Arc::new(schema);
    let mut inst = Instance::empty(Arc::clone(&schema));
    inst.set_rel(schema.lookup("r0").unwrap(), rel_of(2, a));
    inst.set_rel(schema.lookup("r1").unwrap(), rel_of(2, b));
    inst.set_rel(schema.lookup("r2").unwrap(), rel_of(1, c));
    (schema, inst)
}

proptest! {
    /// The optimizer is an identity on the computed relation: for any
    /// plan and instance, the rewritten plan validates at the same width
    /// and executes to the same canonical relation.
    #[test]
    fn optimized_plans_compute_identical_relations(
        a in tuples(2, 6),
        b in tuples(2, 6),
        c in tuples(1, 6),
        seed in 0u64..1u64 << 48,
        p0 in 0u32..6,
        p1 in 0u32..6,
    ) {
        let (schema, inst) = setup(&a, &b, &c);
        let mut rng = Lcg(seed | 1);
        let (plan, width) = random_plan(&mut rng, &schema, 3);
        prop_assert_eq!(plan.validate(&schema), Ok(width));

        let optimized = optimize(&plan, &schema);
        prop_assert_eq!(optimized.validate(&schema), Ok(width), "rewrite must preserve width");

        let mut params = Params::with_slots(2);
        params.bind(0, Value(p0));
        params.bind(1, Value(p1));
        let naive = execute(&plan, &inst, &params).unwrap();
        let fast = execute(&optimized, &inst, &params).unwrap();
        prop_assert_eq!(naive, fast);
    }
}
