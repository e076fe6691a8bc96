//! Property-based cross-validation: the FO→plan compiler against the
//! direct evaluator on randomly generated safe-range formulas (rule-body
//! shapes) and closed sentences (property-component shapes) over random
//! instances — the two implementations of the logic must agree everywhere.
//! The evaluator's guarded `∃` (a scan of the guard relation instead of
//! the domain enumeration) is checked against a plain loop over the
//! domain as well.

use proptest::prelude::*;
use std::sync::Arc;
use wave_fol::{
    answers, compile_query, eval, prev_shadow_name, Atom, Bindings, CompileCtx, EvalCtx, Formula,
    SchemaResolver, SlotMap, Term,
};
use wave_relalg::{execute, Instance, Params, RelKind, Schema, SymbolTable, Tuple, Value};

/// Pages of the fixture: `@P` / `@Q` tests scan their nullary markers.
const PAGES: [&str; 2] = ["P", "Q"];

/// The test schema: r(a, b), s(a), q(a, b), and the page markers.
fn schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.declare("r", 2, RelKind::Database).unwrap();
    s.declare("s", 1, RelKind::Database).unwrap();
    s.declare("q", 2, RelKind::Database).unwrap();
    for p in PAGES {
        s.declare(&CompileCtx::page_marker_name(p), 0, RelKind::Database).unwrap();
    }
    Arc::new(s)
}

const CONSTS: [&str; 4] = ["c0", "c1", "c2", "c3"];

/// A constant interned after [`CONSTS`] that no instance holds — like
/// the `?i` parameters a property's components are instantiated with.
const FRESH: &str = "?0";

fn symbols() -> SymbolTable {
    let mut t = SymbolTable::new();
    for c in CONSTS.into_iter().chain([FRESH]) {
        t.constant(c);
    }
    t
}

/// Raw tuples for the three relations `r`, `s`, `q`.
type RawInstance = (Vec<(u32, u32)>, Vec<u32>, Vec<(u32, u32)>);

/// Random instance over the four constants.
fn instance_strategy() -> impl Strategy<Value = RawInstance> {
    (
        prop::collection::vec((0u32..4, 0u32..4), 0..8),
        prop::collection::vec(0u32..4, 0..5),
        prop::collection::vec((0u32..4, 0u32..4), 0..8),
    )
}

fn build_instance(schema: &Arc<Schema>, (r, s, q): &RawInstance) -> Instance {
    let mut inst = Instance::empty(Arc::clone(schema));
    let rid = schema.lookup("r").unwrap();
    let sid = schema.lookup("s").unwrap();
    let qid = schema.lookup("q").unwrap();
    for &(a, b) in r {
        inst.insert(rid, Tuple::from([Value(a), Value(b)]));
    }
    for &a in s {
        inst.insert(sid, Tuple::from([Value(a)]));
    }
    for &(a, b) in q {
        inst.insert(qid, Tuple::from([Value(a), Value(b)]));
    }
    inst
}

/// Random safe-range formulas over free variables x, y: conjunctions of
/// positive atoms ranging both variables, with optional negated atoms,
/// comparisons, and an existential layer.
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let var = |v: &str| Term::Var(v.to_string());
    let konst = (0usize..4).prop_map(|i| Term::Const(CONSTS[i].to_string()));

    let ranger = prop_oneof![
        Just(Formula::Atom(wave_fol::Atom {
            rel: "r".into(),
            prev: false,
            terms: vec![var("x"), var("y")],
        })),
        Just(Formula::Atom(wave_fol::Atom {
            rel: "q".into(),
            prev: false,
            terms: vec![var("x"), var("y")],
        })),
        Just(Formula::Atom(wave_fol::Atom {
            rel: "q".into(),
            prev: false,
            terms: vec![var("y"), var("x")],
        })),
    ];
    let constraint = prop_oneof![
        konst.clone().prop_map(move |c| Formula::Eq(Term::Var("x".into()), c)),
        konst.clone().prop_map(move |c| Formula::Ne(Term::Var("y".into()), c)),
        Just(Formula::Ne(Term::Var("x".into()), Term::Var("y".into()))),
        Just(Formula::not(Formula::Atom(wave_fol::Atom {
            rel: "s".into(),
            prev: false,
            terms: vec![Term::Var("x".into())],
        }))),
        Just(Formula::Atom(wave_fol::Atom {
            rel: "s".into(),
            prev: false,
            terms: vec![Term::Var("y".into())],
        })),
    ];
    (ranger, prop::collection::vec(constraint, 0..3))
        .prop_map(|(r, cs)| Formula::and(std::iter::once(r).chain(cs)))
}

fn atom(rel: &str, terms: Vec<Term>) -> Formula {
    Formula::Atom(Atom { rel: rel.into(), prev: false, terms })
}

/// Random closed sentences of the shapes property components take:
/// `@page` tests, ground atoms (also over [`FRESH`]), existential
/// closures of the rule-body shapes and guarded universals, nested
/// under closed negation, `->`, `&` and `|`.
fn component_strategy() -> impl Strategy<Value = Formula> {
    let var = |v: &str| Term::Var(v.to_string());
    let konst =
        (0usize..5).prop_map(|i| Term::Const(CONSTS.get(i).copied().unwrap_or(FRESH).to_string()));
    // consequents of `forall x, y: body -> head`, free in at most x, y
    let head = prop_oneof![
        Just(atom("s", vec![var("x")])),
        Just(atom("q", vec![var("y"), var("x")])),
        konst.clone().prop_map(move |c| Formula::Eq(Term::Var("y".into()), c)),
        Just(Formula::Exists(vec!["z".into()], Box::new(atom("r", vec![var("x"), var("z")])))),
    ];
    let leaf = prop_oneof![
        (0usize..2).prop_map(|i| Formula::Page(PAGES[i].to_string())),
        konst.clone().prop_map(|c| atom("s", vec![c])),
        (konst.clone(), konst).prop_map(|(a, b)| atom("r", vec![a, b])),
        formula_strategy().prop_map(|f| Formula::Exists(vec!["x".into(), "y".into()], Box::new(f))),
        (formula_strategy(), head).prop_map(|(body, head)| {
            Formula::Forall(
                vec!["x".into(), "y".into()],
                Box::new(Formula::Implies(Box::new(body), Box::new(head))),
            )
        }),
    ];
    leaf.prop_recursive(2, 16, 2, |inner| {
        prop_oneof![
            inner.clone(),
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Formula::Implies(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and([a, b])),
            (inner.clone(), inner).prop_map(|(a, b)| Formula::or([a, b])),
        ]
    })
}

/// Variables of the guarded-`∃` fixture: each is bound in the outer
/// environment, so a quantifier over some of them shadows the rest.
const GUARD_VARS: [&str; 4] = ["x", "y", "z", "w"];

/// The guarded-`∃` schema: the [`schema`] relations plus an input
/// relation `u(a)` and its previous-input shadow.
fn guard_schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.declare("r", 2, RelKind::Database).unwrap();
    s.declare("s", 1, RelKind::Database).unwrap();
    s.declare("q", 2, RelKind::Database).unwrap();
    s.declare("u", 1, RelKind::Input).unwrap();
    s.declare(&prev_shadow_name("u"), 1, RelKind::Input).unwrap();
    Arc::new(s)
}

/// Terms: mostly the four variables, else a constant or `u`'s field
/// (current or previous), which has a value only when `u` holds one
/// tuple.
fn guard_term() -> impl Strategy<Value = Term> {
    let var = (0usize..4).prop_map(|i| Term::Var(GUARD_VARS[i].to_string()));
    prop_oneof![
        var.clone(),
        var.clone(),
        var,
        (0usize..5).prop_map(|i| Term::Const(CONSTS.get(i).copied().unwrap_or(FRESH).to_string())),
        any::<bool>().prop_map(|prev| Term::Field { rel: "u".into(), col: 0, prev }),
    ]
}

/// Atoms over the guarded-`∃` schema, `prev u` included, two-place ones
/// most often; those repeat a variable whenever both terms draw the
/// same one.
fn guard_atom() -> impl Strategy<Value = Formula> {
    let binary = |rel: &'static str| {
        (guard_term(), guard_term()).prop_map(move |(a, b)| atom(rel, vec![a, b]))
    };
    prop_oneof![
        binary("r"),
        binary("r"),
        binary("q"),
        binary("q"),
        guard_term().prop_map(|a| atom("s", vec![a])),
        (guard_term(), any::<bool>()).prop_map(|(a, prev)| {
            Formula::Atom(Atom { rel: "u".into(), prev, terms: vec![a] })
        }),
    ]
}

/// Quantifier prefixes over x, y, z: distinct names in varying order,
/// and one repeat (which the evaluator enumerates instead of guarding).
const PREFIXES: [&[&str]; 8] = [
    &["x"],
    &["y"],
    &["x", "y"],
    &["y", "x"],
    &["z", "x"],
    &["x", "y", "z"],
    &["z", "y", "x"],
    &["x", "x"],
];

fn guard_vars() -> impl Strategy<Value = Vec<String>> {
    (0usize..PREFIXES.len()).prop_map(|i| PREFIXES[i].iter().map(|v| v.to_string()).collect())
}

/// `∃` bodies: mostly a conjunction of positive and negated atoms,
/// comparisons and nested quantifiers; now and then a disjunction, which
/// has no guard.
fn guard_body() -> impl Strategy<Value = Formula> {
    let conjunct = prop_oneof![
        guard_atom(),
        guard_atom(),
        guard_atom(),
        guard_atom().prop_map(Formula::not),
        (guard_term(), guard_term()).prop_map(|(a, b)| Formula::Eq(a, b)),
        (guard_term(), guard_term()).prop_map(|(a, b)| Formula::Ne(a, b)),
        (guard_vars(), guard_atom(), guard_atom())
            .prop_map(|(vs, a, b)| Formula::Exists(vs, Box::new(Formula::and([a, b])))),
        (guard_vars(), guard_atom(), guard_atom()).prop_map(|(vs, a, b)| {
            Formula::Forall(vs, Box::new(Formula::Implies(Box::new(a), Box::new(b))))
        }),
    ];
    let conjunction = prop::collection::vec(conjunct, 1..4).prop_map(Formula::and);
    prop_oneof![
        conjunction.clone(),
        conjunction.clone(),
        conjunction,
        (guard_atom(), guard_atom()).prop_map(|(a, b)| Formula::or([a, b])),
    ]
}

/// `∃vars: body` by brute force: bind `vars` to every tuple of
/// `domain`^k (later names shadowing earlier ones, as in the evaluator)
/// on top of `outer`, and evaluate `body` under each binding.
fn exists_by_domain(
    vars: &[String],
    body: &Formula,
    ctx: &EvalCtx<'_>,
    resolver: &SchemaResolver<'_>,
    outer: &[(String, Value)],
) -> bool {
    let k = vars.len() as u32;
    let n = ctx.domain.len();
    (0..n.pow(k)).any(|mut code| {
        let mut pairs = outer.to_vec();
        for v in vars {
            pairs.push((v.clone(), ctx.domain[code % n]));
            code /= n;
        }
        eval(body, ctx, resolver, &mut Bindings::from_pairs(pairs)).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The guarded `∃` — scanning the guard relation's tuples instead of
    /// the domain — agrees with the brute-force enumeration, also when
    /// the domain leaves out values of the active domain or is unsorted.
    #[test]
    fn guarded_exists_agrees_with_domain_enumeration(
        raw in (
            prop::collection::vec((0u32..5, 0u32..5), 0..8),
            prop::collection::vec(0u32..5, 0..4),
            prop::collection::vec((0u32..5, 0u32..5), 0..8),
        ),
        inputs in (
            prop::collection::vec(0u32..5, 0..3),
            prop::collection::vec(0u32..5, 0..3),
        ),
        (domain_mask, descending) in (0u32..32, any::<bool>()),
        outer in prop::collection::vec(0u32..5, 4),
        vars in guard_vars(),
        body in guard_body(),
    ) {
        let schema = guard_schema();
        let syms = symbols();
        let mut inst = build_instance(&schema, &raw);
        let (u, prev_u) = inputs;
        let uid = schema.lookup("u").unwrap();
        let pid = schema.lookup(&prev_shadow_name("u")).unwrap();
        for a in u {
            inst.insert(uid, Tuple::from([Value(a)]));
        }
        for a in prev_u {
            inst.insert(pid, Tuple::from([Value(a)]));
        }
        let mut domain: Vec<Value> =
            (0..5).filter(|i| domain_mask & (1 << i) != 0).map(Value).collect();
        if descending {
            domain.reverse(); // callers need not sort the domain
        }
        let ctx = EvalCtx { instance: &inst, symbols: &syms, current_page: None, domain: &domain };
        let resolver = SchemaResolver(&schema);
        let outer: Vec<(String, Value)> =
            GUARD_VARS.iter().zip(outer).map(|(v, a)| (v.to_string(), Value(a))).collect();
        let sentence = Formula::Exists(vars.clone(), Box::new(body.clone()));
        let guarded =
            eval(&sentence, &ctx, &resolver, &mut Bindings::from_pairs(outer.clone())).unwrap();
        let brute = exists_by_domain(&vars, &body, &ctx, &resolver, &outer);
        prop_assert_eq!(guarded, brute, "{} over domain {:?}", sentence, domain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compiled plan and the direct evaluator produce the same answer
    /// sets for the free variables.
    #[test]
    fn compiled_plans_agree_with_evaluator(
        raw in instance_strategy(),
        f in formula_strategy(),
    ) {
        let schema = schema();
        let syms = symbols();
        let inst = build_instance(&schema, &raw);
        let head = vec!["x".to_string(), "y".to_string()];

        let mut slots = SlotMap::new();
        let compiled = {
            let mut ctx = CompileCtx { schema: &schema, symbols: &syms, slots: &mut slots };
            compile_query(&f, &head, &mut ctx).expect("safe-range formula compiles")
        };
        let plan_rows = execute(&compiled.plan, &inst, &Params::none()).unwrap();

        let domain: Vec<Value> = (0..4).map(Value).collect();
        let ctx = EvalCtx {
            instance: &inst,
            symbols: &syms,
            current_page: None,
            domain: &domain,
        };
        let eval_rows =
            answers(&f, &head, &ctx, &SchemaResolver(&schema)).expect("evaluates");

        let mut a: Vec<Vec<Value>> =
            plan_rows.iter().map(|t| t.values().to_vec()).collect();
        let mut b = eval_rows;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b, "formula: {}", f);
    }

    /// Closed sentences (the existential closure of a rule-body shape,
    /// or any property-component shape): the compiled boolean agrees
    /// with the evaluator on an instance standing on one page, with the
    /// quantification domain covering every interned constant.
    #[test]
    fn compiled_bool_agrees(
        raw in instance_strategy(),
        page in 0usize..2,
        sentence in component_strategy(),
    ) {
        let schema = schema();
        let syms = symbols();
        let mut inst = build_instance(&schema, &raw);
        let marker = schema.lookup(&CompileCtx::page_marker_name(PAGES[page])).unwrap();
        inst.insert(marker, Tuple::from([]));
        let mut slots = SlotMap::new();
        let plan = {
            let mut ctx = CompileCtx { schema: &schema, symbols: &syms, slots: &mut slots };
            wave_fol::compile_bool(&sentence, &mut ctx).expect("compiles")
        };
        let by_plan = !execute(&plan, &inst, &Params::none()).unwrap().is_empty();
        let domain: Vec<Value> = (0..syms.len() as u32).map(Value).collect();
        let ctx = EvalCtx {
            instance: &inst,
            symbols: &syms,
            current_page: Some(PAGES[page]),
            domain: &domain,
        };
        let by_eval =
            eval(&sentence, &ctx, &SchemaResolver(&schema), &mut Bindings::new()).unwrap();
        prop_assert_eq!(by_plan, by_eval, "sentence: {}", sentence);
    }

    /// The input-quantifier rewrite preserves semantics on singleton-input
    /// instances (the invariant that licenses it).
    #[test]
    fn input_rewrite_preserves_semantics(
        raw in instance_strategy(),
        inp in prop::option::of((0u32..4, 0u32..4)),
        c1 in 0usize..4,
        c2 in 0usize..4,
    ) {
        let mut schema = Schema::new();
        schema.declare("r", 2, RelKind::Database).unwrap();
        schema.declare("s", 1, RelKind::Database).unwrap();
        schema.declare("q", 2, RelKind::Database).unwrap();
        schema.declare("inp", 2, RelKind::Input).unwrap();
        let schema = Arc::new(schema);
        let syms = symbols();
        let mut inst = build_instance_alt(&schema, &raw);
        if let Some((a, b)) = inp {
            let iid = schema.lookup("inp").unwrap();
            inst.insert(iid, Tuple::from([Value(a), Value(b)]));
        }
        // ∀v,w (inp(v,w) → r(v,w) ∨ v = c1) ∧ (∃v,w inp(v,w) ∧ q(v,w) ∨ w = c2)
        let src = format!(
            r#"(forall v, w: inp(v, w) -> (r(v, w) | v = "{}"))
               & ((exists v, w: inp(v, w) & (q(v, w) | w = "{}")) | s("{}"))"#,
            CONSTS[c1], CONSTS[c2], CONSTS[c1],
        );
        let f = wave_fol::parse_formula(&src).unwrap();
        let rewritten =
            wave_fol::eliminate_input_quantifiers(&f, &|r: &str| r == "inp");
        let domain: Vec<Value> = (0..4).map(Value).collect();
        let ctx = EvalCtx {
            instance: &inst,
            symbols: &syms,
            current_page: None,
            domain: &domain,
        };
        let resolver = SchemaResolver(&schema);
        let v1 = eval(&f, &ctx, &resolver, &mut Bindings::new()).unwrap();
        let v2 = eval(&rewritten, &ctx, &resolver, &mut Bindings::new()).unwrap();
        prop_assert_eq!(v1, v2, "original: {} rewritten: {}", f, rewritten);
    }
}

fn build_instance_alt(schema: &Arc<Schema>, raw: &RawInstance) -> Instance {
    let mut inst = Instance::empty(Arc::clone(schema));
    let rid = schema.lookup("r").unwrap();
    let sid = schema.lookup("s").unwrap();
    let qid = schema.lookup("q").unwrap();
    for &(a, b) in &raw.0 {
        inst.insert(rid, Tuple::from([Value(a), Value(b)]));
    }
    for &a in &raw.1 {
        inst.insert(sid, Tuple::from([Value(a)]));
    }
    for &(a, b) in &raw.2 {
        inst.insert(qid, Tuple::from([Value(a), Value(b)]));
    }
    inst
}
