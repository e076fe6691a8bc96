//! Direct evaluation of FO formulas over an [`Instance`] with
//! active-domain semantics.
//!
//! This is the reference implementation of the logic: quantifiers iterate
//! over an explicit finite domain supplied by the caller (for
//! pseudoconfigurations: `C ∪ C_V ∪ C_V'`, which subsumes the active
//! domain). The plan compiler in [`mod@crate::compile`] is validated against
//! this evaluator by property-based tests. The verifier runs compiled
//! plans for rule bodies, target conditions and the property's FO
//! components alike; it uses this evaluator as the fallback for formulas
//! the compiler cannot handle, under the `--interpret` baseline, and as
//! the independent oracle when replaying a counterexample.
//!
//! **Guarded `∃`.** An existential whose body is a positive atom, or a
//! conjunction with one, that mentions quantified variables does not try
//! all `|domain|^k` bindings: it scans that guard relation's tuples,
//! binds the variables they hold (only to values in the domain), lets
//! the rest range over the domain, and evaluates the full body — when
//! the relation has fewer tuples than the bindings it replaces. A
//! binding no tuple produces makes the guard atom false, so the answer
//! is the enumeration's — replaying `exists c, n, a: paydone(f, p, c, n,
//! a)` costs one pass over `paydone` instead of `|domain|^3` probes.
//! `∀` and [`answers`] enumerate the domain as before.

use crate::ast::{Formula, Term};
use std::collections::HashMap;
use std::fmt;
use wave_relalg::{Instance, RelId, SymbolTable, Tuple, Value};

/// Resolves relation names (with the prev-input flag) to schema ids.
pub trait RelResolver {
    /// Id for `rel`; `prev` selects the previous-input shadow relation.
    fn resolve(&self, rel: &str, prev: bool) -> Option<RelId>;
}

/// Name-based resolver over a schema: previous-input shadows are declared
/// under the name `prev$<rel>` by convention.
pub struct SchemaResolver<'a>(pub &'a wave_relalg::Schema);

/// The conventional schema name of the previous-input shadow of `rel`.
pub fn prev_shadow_name(rel: &str) -> String {
    format!("prev${rel}")
}

impl RelResolver for SchemaResolver<'_> {
    fn resolve(&self, rel: &str, prev: bool) -> Option<RelId> {
        if prev {
            self.0.lookup(&prev_shadow_name(rel))
        } else {
            self.0.lookup(rel)
        }
    }
}

/// Everything needed to evaluate a formula at one configuration.
pub struct EvalCtx<'a> {
    /// The working instance (database ∪ state ∪ inputs ∪ actions).
    pub instance: &'a Instance,
    /// Symbol table interning all constants in play.
    pub symbols: &'a SymbolTable,
    /// Name of the current web page, for [`Formula::Page`] tests.
    pub current_page: Option<&'a str>,
    /// Quantification domain (must contain the instance's active domain
    /// plus every constant the formula can mention).
    pub domain: &'a [Value],
}

/// Evaluation failure: these indicate wiring bugs (unresolved names), not
/// data-dependent conditions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    UnknownRelation { rel: String, prev: bool },
    UnknownConstant(String),
    UnboundVariable(String),
    ArityMismatch { rel: String, expected: usize, got: usize },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRelation { rel, prev } => {
                write!(f, "unknown relation {}{rel}", if *prev { "prev " } else { "" })
            }
            EvalError::UnknownConstant(c) => write!(f, "unknown constant {c:?}"),
            EvalError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
            EvalError::ArityMismatch { rel, expected, got } => {
                write!(f, "atom {rel} has {got} terms, relation has arity {expected}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// A variable binding environment (small, so a vector beats a hash map).
#[derive(Clone, Debug, Default)]
pub struct Bindings(Vec<(String, Value)>);

impl Bindings {
    /// Empty environment.
    pub fn new() -> Self {
        Bindings(Vec::new())
    }

    /// Environment from pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (String, Value)>) -> Self {
        Bindings(pairs.into_iter().collect())
    }

    /// Look up a variable (later bindings shadow earlier ones).
    pub fn get(&self, var: &str) -> Option<Value> {
        self.0.iter().rev().find(|(v, _)| v == var).map(|(_, val)| *val)
    }

    fn push(&mut self, var: &str, val: Value) {
        self.0.push((var.to_string(), val));
    }

    fn pop(&mut self) {
        self.0.pop();
    }
}

impl From<&HashMap<String, Value>> for Bindings {
    fn from(m: &HashMap<String, Value>) -> Self {
        Bindings(m.iter().map(|(k, v)| (k.clone(), *v)).collect())
    }
}

/// Evaluate `term`; `None` means "no value" (a `Field` of an empty input
/// relation), which makes any comparison or atom containing it false.
fn eval_term(
    term: &Term,
    ctx: &EvalCtx<'_>,
    resolver: &impl RelResolver,
    env: &Bindings,
) -> Result<Option<Value>, EvalError> {
    match term {
        Term::Var(v) => env.get(v).map(Some).ok_or_else(|| EvalError::UnboundVariable(v.clone())),
        Term::Const(c) => ctx
            .symbols
            .lookup_constant(c)
            .map(Some)
            .ok_or_else(|| EvalError::UnknownConstant(c.clone())),
        Term::Field { rel, col, prev } => {
            let id = resolver
                .resolve(rel, *prev)
                .ok_or_else(|| EvalError::UnknownRelation { rel: rel.clone(), prev: *prev })?;
            Ok(ctx.instance.rel(id).only().map(|t| t.get(*col)))
        }
    }
}

/// Evaluate a formula to a boolean under `env`.
pub fn eval(
    f: &Formula,
    ctx: &EvalCtx<'_>,
    resolver: &impl RelResolver,
    env: &mut Bindings,
) -> Result<bool, EvalError> {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Page(p) => Ok(ctx.current_page == Some(p.as_str())),
        Formula::InputEmpty { rel, prev } => {
            let id = resolver
                .resolve(rel, *prev)
                .ok_or_else(|| EvalError::UnknownRelation { rel: rel.clone(), prev: *prev })?;
            Ok(ctx.instance.rel(id).is_empty())
        }
        Formula::Atom(a) => {
            let id = resolver
                .resolve(&a.rel, a.prev)
                .ok_or_else(|| EvalError::UnknownRelation { rel: a.rel.clone(), prev: a.prev })?;
            let rel = ctx.instance.rel(id);
            if rel.arity() != a.terms.len() {
                return Err(EvalError::ArityMismatch {
                    rel: a.rel.clone(),
                    expected: rel.arity(),
                    got: a.terms.len(),
                });
            }
            let mut vals = Vec::with_capacity(a.terms.len());
            for t in &a.terms {
                match eval_term(t, ctx, resolver, env)? {
                    Some(v) => vals.push(v),
                    None => return Ok(false),
                }
            }
            Ok(rel.contains(&Tuple::from(vals)))
        }
        Formula::Eq(a, b) => {
            let (va, vb) = (eval_term(a, ctx, resolver, env)?, eval_term(b, ctx, resolver, env)?);
            Ok(matches!((va, vb), (Some(x), Some(y)) if x == y))
        }
        Formula::Ne(a, b) => {
            let (va, vb) = (eval_term(a, ctx, resolver, env)?, eval_term(b, ctx, resolver, env)?);
            Ok(matches!((va, vb), (Some(x), Some(y)) if x != y))
        }
        Formula::Not(x) => Ok(!eval(x, ctx, resolver, env)?),
        Formula::And(xs) => {
            for x in xs {
                if !eval(x, ctx, resolver, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(xs) => {
            for x in xs {
                if eval(x, ctx, resolver, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Implies(a, b) => Ok(!eval(a, ctx, resolver, env)? || eval(b, ctx, resolver, env)?),
        Formula::Exists(vars, body) => quantify(vars, body, ctx, resolver, env, false),
        Formula::Forall(vars, body) => quantify(vars, body, ctx, resolver, env, true),
    }
}

fn quantify(
    vars: &[String],
    body: &Formula,
    ctx: &EvalCtx<'_>,
    resolver: &impl RelResolver,
    env: &mut Bindings,
    universal: bool,
) -> Result<bool, EvalError> {
    if !universal {
        if let Some((rel, cols)) = guard(vars, body, ctx, resolver) {
            return exists_guarded(vars, body, ctx, resolver, env, rel, &cols);
        }
    }
    enumerate(vars, body, ctx, resolver, env, universal)
}

/// Bind `vars` to every tuple of `ctx.domain`^k in order, evaluating
/// `body` under each; stops at the first witness (`∃`) or
/// counterexample (`∀`).
fn enumerate(
    vars: &[String],
    body: &Formula,
    ctx: &EvalCtx<'_>,
    resolver: &impl RelResolver,
    env: &mut Bindings,
    universal: bool,
) -> Result<bool, EvalError> {
    match vars.split_first() {
        None => eval(body, ctx, resolver, env),
        Some((v, rest)) => {
            for &val in ctx.domain {
                env.push(v, val);
                let r = enumerate(rest, body, ctx, resolver, env, universal);
                env.pop();
                let r = r?;
                if universal && !r {
                    return Ok(false);
                }
                if !universal && r {
                    return Ok(true);
                }
            }
            Ok(universal)
        }
    }
}

/// The guard of `∃vars: body`: a positive atom that is the body or one
/// of its top-level conjuncts and mentions quantified variables — the
/// one mentioning the most of them, the first on ties. Returns its
/// relation and, per column, the index in `vars` of the variable the
/// column holds. `None` when there is no such atom, when `vars` repeats
/// a name, when the atom does not resolve (the enumeration then reports
/// the error as before), or when the relation has no fewer tuples than
/// the domain bindings of the variables it covers (scanning it would
/// evaluate the body at least as often as the enumeration).
fn guard(
    vars: &[String],
    body: &Formula,
    ctx: &EvalCtx<'_>,
    resolver: &impl RelResolver,
) -> Option<(RelId, Vec<Option<usize>>)> {
    if vars.iter().enumerate().any(|(i, v)| vars[..i].contains(v)) {
        return None;
    }
    let conjuncts = match body {
        Formula::Atom(_) => std::slice::from_ref(body),
        Formula::And(xs) => xs.as_slice(),
        _ => return None,
    };
    let mut best: Option<(usize, RelId, Vec<Option<usize>>)> = None;
    for c in conjuncts {
        let Formula::Atom(a) = c else { continue };
        let cols: Vec<Option<usize>> = a
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => vars.iter().position(|q| q == v),
                _ => None,
            })
            .collect();
        let covered = (0..vars.len()).filter(|i| cols.contains(&Some(*i))).count();
        if covered == 0 || best.as_ref().is_some_and(|(n, _, _)| *n >= covered) {
            continue;
        }
        let Some(id) = resolver.resolve(&a.rel, a.prev) else { continue };
        if ctx.instance.rel(id).arity() != a.terms.len() {
            continue;
        }
        best = Some((covered, id, cols));
    }
    best.filter(|(covered, id, _)| {
        ctx.instance.rel(*id).len() < ctx.domain.len().saturating_pow(*covered as u32)
    })
    .map(|(_, id, cols)| (id, cols))
}

/// `∃vars: body` driven by its guard relation: every tuple binds the
/// variables its columns hold (skipping tuples that disagree on a
/// repeated variable or carry a value outside `ctx.domain`), the
/// remaining variables range over the domain, and the full body decides.
/// A binding the guard's tuples miss falsifies the guard atom, hence
/// the body, so the answer equals the plain enumeration's — also for a
/// domain smaller than the active domain.
fn exists_guarded(
    vars: &[String],
    body: &Formula,
    ctx: &EvalCtx<'_>,
    resolver: &impl RelResolver,
    env: &mut Bindings,
    rel: RelId,
    cols: &[Option<usize>],
) -> Result<bool, EvalError> {
    let sorted = ctx.domain.windows(2).all(|w| w[0] < w[1]);
    let in_domain = |v: &Value| {
        if sorted {
            ctx.domain.binary_search(v).is_ok()
        } else {
            ctx.domain.contains(v)
        }
    };
    let rest: Vec<String> =
        (0..vars.len()).filter(|i| !cols.contains(&Some(*i))).map(|i| vars[i].clone()).collect();
    let mut bound: Vec<Option<Value>> = vec![None; vars.len()];
    'tuples: for t in ctx.instance.rel(rel).iter() {
        bound.fill(None);
        for (col, q) in cols.iter().enumerate() {
            let Some(q) = *q else { continue };
            let v = t.get(col);
            match bound[q] {
                Some(w) if w != v => continue 'tuples,
                Some(_) => {}
                None if in_domain(&v) => bound[q] = Some(v),
                None => continue 'tuples,
            }
        }
        let mut pushed = 0;
        for (q, v) in bound.iter().enumerate() {
            if let Some(v) = *v {
                env.push(&vars[q], v);
                pushed += 1;
            }
        }
        let r = enumerate(&rest, body, ctx, resolver, env, false);
        for _ in 0..pushed {
            env.pop();
        }
        if r? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Compute all satisfying assignments of `f`'s listed free variables over
/// the context domain (the "non-boolean query" view of a formula).
pub fn answers(
    f: &Formula,
    free: &[String],
    ctx: &EvalCtx<'_>,
    resolver: &impl RelResolver,
) -> Result<Vec<Vec<Value>>, EvalError> {
    let mut out = Vec::new();
    let mut env = Bindings::new();
    fn go(
        f: &Formula,
        free: &[String],
        ctx: &EvalCtx<'_>,
        resolver: &impl RelResolver,
        env: &mut Bindings,
        acc: &mut Vec<Value>,
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), EvalError> {
        match free.split_first() {
            None => {
                if eval(f, ctx, resolver, env)? {
                    out.push(acc.clone());
                }
                Ok(())
            }
            Some((v, rest)) => {
                for &val in ctx.domain {
                    env.push(v, val);
                    acc.push(val);
                    go(f, rest, ctx, resolver, env, acc, out)?;
                    acc.pop();
                    env.pop();
                }
                Ok(())
            }
        }
    }
    go(f, free, ctx, resolver, &mut env, &mut Vec::new(), &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use std::sync::Arc;
    use wave_relalg::{RelKind, Schema};

    struct Fixture {
        schema: Arc<Schema>,
        symbols: SymbolTable,
        instance: Instance,
        domain: Vec<Value>,
    }

    /// price(item, amount) database; pay(item, amount) input with shadow.
    fn fixture() -> Fixture {
        let mut schema = Schema::new();
        schema.declare("price", 2, RelKind::Database).unwrap();
        schema.declare("pay", 2, RelKind::Input).unwrap();
        schema.declare(&prev_shadow_name("pay"), 2, RelKind::Input).unwrap();
        let schema = Arc::new(schema);
        let mut symbols = SymbolTable::new();
        let item1 = symbols.constant("item1");
        let item2 = symbols.constant("item2");
        let p100 = symbols.constant("100");
        let p200 = symbols.constant("200");
        let mut instance = Instance::empty(Arc::clone(&schema));
        let price = schema.lookup("price").unwrap();
        instance.insert(price, Tuple::from([item1, p100]));
        instance.insert(price, Tuple::from([item2, p200]));
        let domain = vec![item1, item2, p100, p200];
        Fixture { schema, symbols, instance, domain }
    }

    fn check(fx: &Fixture, src: &str) -> bool {
        let f = parse_formula(src).unwrap();
        let ctx = EvalCtx {
            instance: &fx.instance,
            symbols: &fx.symbols,
            current_page: Some("HP"),
            domain: &fx.domain,
        };
        eval(&f, &ctx, &SchemaResolver(&fx.schema), &mut Bindings::new()).unwrap()
    }

    #[test]
    fn ground_atoms() {
        let fx = fixture();
        assert!(check(&fx, r#"price("item1", "100")"#));
        assert!(!check(&fx, r#"price("item1", "200")"#));
    }

    #[test]
    fn payment_invariant_holds_when_pay_empty() {
        let fx = fixture();
        // pay is empty, so the universal implication is vacuously true
        assert!(check(&fx, "forall x, y: pay(x, y) -> price(x, y)"));
    }

    #[test]
    fn payment_invariant_detects_wrong_amount() {
        let mut fx = fixture();
        let pay = fx.schema.lookup("pay").unwrap();
        let item1 = fx.symbols.lookup_constant("item1").unwrap();
        let p200 = fx.symbols.lookup_constant("200").unwrap();
        fx.instance.insert(pay, Tuple::from([item1, p200]));
        assert!(!check(&fx, "forall x, y: pay(x, y) -> price(x, y)"));
        assert!(check(&fx, "exists x, y: pay(x, y) & price(x, x) | true"));
    }

    #[test]
    fn exists_finds_witness() {
        let fx = fixture();
        assert!(check(&fx, r#"exists x: price(x, "100")"#));
        // "item1" is interned but never occurs in the price column
        assert!(!check(&fx, r#"exists x: price(x, "item1")"#));
    }

    #[test]
    fn unknown_constant_is_an_error() {
        let fx = fixture();
        let f = parse_formula(r#"price("item1", "nonexistent-constant")"#).unwrap();
        let ctx = EvalCtx {
            instance: &fx.instance,
            symbols: &fx.symbols,
            current_page: None,
            domain: &fx.domain,
        };
        let err = eval(&f, &ctx, &SchemaResolver(&fx.schema), &mut Bindings::new()).unwrap_err();
        assert!(matches!(err, EvalError::UnknownConstant(_)));
    }

    #[test]
    fn page_test() {
        let fx = fixture();
        assert!(check(&fx, "@HP"));
        assert!(!check(&fx, "@LSP"));
    }

    #[test]
    fn input_empty_flag() {
        let fx = fixture();
        let f = Formula::InputEmpty { rel: "pay".into(), prev: false };
        let ctx = EvalCtx {
            instance: &fx.instance,
            symbols: &fx.symbols,
            current_page: None,
            domain: &fx.domain,
        };
        assert!(eval(&f, &ctx, &SchemaResolver(&fx.schema), &mut Bindings::new()).unwrap());
    }

    #[test]
    fn field_of_empty_input_makes_atoms_false() {
        let fx = fixture();
        let f = Formula::Eq(
            Term::Field { rel: "pay".into(), col: 0, prev: false },
            Term::Const("item1".into()),
        );
        let ctx = EvalCtx {
            instance: &fx.instance,
            symbols: &fx.symbols,
            current_page: None,
            domain: &fx.domain,
        };
        assert!(!eval(&f, &ctx, &SchemaResolver(&fx.schema), &mut Bindings::new()).unwrap());
        // and Ne is also false on a missing value
        let g = Formula::Ne(
            Term::Field { rel: "pay".into(), col: 0, prev: false },
            Term::Const("item1".into()),
        );
        assert!(!eval(&g, &ctx, &SchemaResolver(&fx.schema), &mut Bindings::new()).unwrap());
    }

    #[test]
    fn answers_enumerates_satisfying_assignments() {
        let fx = fixture();
        let f = parse_formula("price(x, y)").unwrap();
        let ctx = EvalCtx {
            instance: &fx.instance,
            symbols: &fx.symbols,
            current_page: None,
            domain: &fx.domain,
        };
        let out =
            answers(&f, &["x".into(), "y".into()], &ctx, &SchemaResolver(&fx.schema)).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn prev_atom_reads_shadow_relation() {
        let mut fx = fixture();
        let shadow = fx.schema.lookup(&prev_shadow_name("pay")).unwrap();
        let item1 = fx.symbols.lookup_constant("item1").unwrap();
        let p100 = fx.symbols.lookup_constant("100").unwrap();
        fx.instance.insert(shadow, Tuple::from([item1, p100]));
        assert!(check(&fx, r#"prev pay("item1", "100")"#));
        assert!(!check(&fx, r#"pay("item1", "100")"#));
    }
}
