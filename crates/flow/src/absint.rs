//! Abstract three-valued evaluation of rule guards.
//!
//! A guard is evaluated against the current [`Facts`] approximation:
//! which relations may hold tuples at all, and which constants each
//! tracked column may carry (the §3.2 comparison sets, run as a
//! constant-propagation lattice). The evaluator is *refutation
//! oriented*: `False` means no run of the spec can ever satisfy the
//! guard; anything it cannot refute degrades to `Unknown`, never the
//! other way around.
//!
//! Within one conjunctive scope the evaluator maintains an equality
//! environment (union-find over variables) whose classes carry *pin
//! sets* — the constants a variable is forced to be among. Pins come
//! from explicit equalities (`x = "go"`), from positive atoms over
//! columns with finite value sets, and transitively through variable
//! equalities; a pin set running dry is a contradiction.
//!
//! Guards are compiled once per analysis into a [`Program`]: constants
//! and tracked relations become dense ids, variable names become ids
//! local to their guard (in name order), `@Page` markers are resolved
//! against the rule's own page, and conjunctions are pre-flattened.
//! Nested scopes and disjunction joins reuse the [`Evaluator`]'s
//! scratch storage, so evaluating a guard allocates nothing once warm.
//!
//! Provenance — the chain of notes saying *why* a guard is refuted — is
//! a type parameter: [`Silent`] evaluations (the fixpoint and the
//! classification pass) build no strings at all; an [`Explain`]
//! evaluation renders the notes, and is run only on guards already
//! known to be refuted.

use std::collections::HashMap;

use crate::lattice::{SetTable, Vals};
use wave_fol::{Atom, Formula, Term};

/// Whether an evaluation renders provenance notes. The evaluator is
/// generic over this trait and guards every note with `if P::ENABLED`,
/// so silent evaluations compile the note code out entirely.
trait Provenance {
    const ENABLED: bool;
}

/// No notes: the fixpoint and the classification pass.
struct Silent;

impl Provenance for Silent {
    const ENABLED: bool = false;
}

/// Full notes: the one re-evaluation of a guard found refuted.
struct Explain;

impl Provenance for Explain {
    const ENABLED: bool = true;
}

/// The notes `render` builds when provenance is on; nothing (and no
/// allocation) when it is off.
fn notes<P: Provenance>(render: impl FnOnce() -> Vec<String>) -> Vec<String> {
    if P::ENABLED {
        render()
    } else {
        Vec::new()
    }
}

/// Dense id of a tracked relation.
pub(crate) type RelId = usize;

/// A tracked relation: its emptiness and column values grow with the
/// fixpoint.
#[derive(Clone, Debug)]
pub(crate) struct TrackedRel {
    pub(crate) name: String,
    pub(crate) arity: usize,
    /// Rules that populate it (sets the wording of its empty reason).
    pub(crate) writers: usize,
    /// What those rules are called in notes, e.g. "the insert rules
    /// that populate it".
    pub(crate) source: &'static str,
    /// Index of its column 0 in the column table.
    first: usize,
    nonempty: bool,
}

impl TrackedRel {
    pub(crate) fn new(name: String, arity: usize, writers: usize, source: &'static str) -> Self {
        TrackedRel { name, arity, writers, source, first: 0, nonempty: false }
    }

    /// Why this relation is empty — sound only once the fixpoint has
    /// settled, which is the only time notes are rendered.
    pub(crate) fn why_empty(&self) -> String {
        let name = &self.name;
        if self.writers == 0 {
            format!("relation `{name}` can never hold a tuple: no rule populates it")
        } else {
            format!(
                "relation `{name}` can never hold a tuple: every rule that populates it is \
                 statically dead or sits on an unreachable page"
            )
        }
    }
}

/// The relation-level facts a guard is evaluated against.
///
/// Tracked relations (state, action, and non-constant input relations)
/// start empty and are grown by the enclosing fixpoint; everything else
/// (database relations, input constants) is permanently nonempty with ⊤
/// columns — their contents come from the arbitrary database instance,
/// not from the spec text.
#[derive(Clone, Debug)]
pub struct Facts {
    /// Interned constants in text order (the id of a constant is its
    /// position).
    consts: Vec<String>,
    rels: Vec<TrackedRel>,
    columns: SetTable,
}

/// One tracked column's value set, as the report exposes it.
pub struct ColumnValues<'a> {
    vals: Vals<'a>,
    consts: &'a [String],
}

impl ColumnValues<'_> {
    /// Render as in provenance notes: `{"a", "b"}` (sorted by text) or
    /// `any value`.
    pub fn describe(&self) -> String {
        self.vals.describe(self.consts)
    }
}

impl Facts {
    /// ⊥ over the given tracked relations, with value sets over
    /// `consts` (sorted, distinct).
    pub(crate) fn bottom(consts: Vec<String>, mut rels: Vec<TrackedRel>) -> Facts {
        let mut columns = SetTable::new(consts.len());
        for r in &mut rels {
            r.first = columns.len();
            for _ in 0..r.arity {
                columns.push(false);
            }
        }
        Facts { consts, rels, columns }
    }

    /// Over-approximation of the constants column `col` of `rel` can
    /// carry. Untracked relations are ⊤.
    pub fn column(&self, rel: &str, col: usize) -> ColumnValues<'_> {
        let id = self.rels.iter().position(|r| r.name == rel);
        let vals = id.map_or(Vals::Top, |r| self.col(r, col));
        ColumnValues { vals, consts: &self.consts }
    }

    fn holds(&self, rel: RelId) -> bool {
        self.rels[rel].nonempty
    }

    fn col(&self, rel: RelId, col: usize) -> Vals<'_> {
        let r = &self.rels[rel];
        if col < r.arity {
            self.columns.get(r.first + col)
        } else {
            Vals::Top
        }
    }

    /// Record that `rel` may be populated, with per-column value
    /// contributions; `true` if anything grew.
    pub(crate) fn feed<'v>(&mut self, rel: RelId, cols: impl Iterator<Item = Vals<'v>>) -> bool {
        let r = &mut self.rels[rel];
        let mut changed = !std::mem::replace(&mut r.nonempty, true);
        let (first, arity) = (r.first, r.arity);
        for (col, v) in cols.take(arity).enumerate() {
            changed |= self.columns.join(first + col, v);
        }
        changed
    }

    /// Tracked relations that can never hold a tuple.
    pub(crate) fn empty_tracked(&self) -> impl Iterator<Item = &TrackedRel> {
        self.rels.iter().filter(|r| !r.nonempty)
    }

    fn why_column(&self, rel: RelId, col: usize, values: Vals<'_>) -> String {
        let r = &self.rels[rel];
        format!(
            "column {col} of `{}` can only carry {} (from {})",
            r.name,
            values.describe(&self.consts),
            r.source
        )
    }
}

/// A run of ids in one of a [`Program`]'s arenas.
#[derive(Clone, Copy, Debug)]
struct Ids {
    start: usize,
    end: usize,
}

impl Ids {
    fn range(self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    fn len(self) -> usize {
        self.end - self.start
    }
}

/// A compiled term: an interned constant, a guard-local variable, or a
/// field term of the input rewrite (opaque to the analysis).
#[derive(Clone, Copy, Debug)]
enum T {
    Const(usize),
    Var(usize),
    Opaque,
}

/// One conjunct of a compiled scope. Nested scopes (`Ids` into `kids`)
/// are the pre-flattened conjunctions of sub-formulas; the source
/// formulas are kept only to render notes.
#[derive(Debug)]
enum Node<'s> {
    True,
    False,
    Page {
        holds: bool,
        name: &'s str,
    },
    /// `None`: an untracked relation, which always holds.
    InputEmpty(Option<RelId>),
    Eq(T, T),
    Ne(T, T),
    Atom {
        src: &'s Atom,
        rel: Option<RelId>,
        terms: Ids,
    },
    Not {
        inner: Ids,
        src: &'s Formula,
    },
    /// `Ids` into `branches`, one scope per alternative.
    Or(Ids),
    Implies {
        lhs: Ids,
        rhs: Ids,
        src: (&'s Formula, &'s Formula),
    },
    /// Quantified variables (`Ids` into `vars`) and the body scope.
    Quant {
        vars: Ids,
        body: Ids,
    },
}

/// A compiled rule guard.
#[derive(Debug)]
struct Guard<'s> {
    /// The body's top-level conjuncts (`Ids` into `kids`).
    root: Ids,
    /// The page the rule runs on.
    page: &'s str,
    /// Variable names, sorted; a local variable id is a position here
    /// (`Ids` into `names`).
    names: Ids,
    /// Head variables as local ids (`Ids` into `vars`).
    head: Ids,
    /// Every node the guard owns (`Ids` into `nodes`).
    nodes: Ids,
}

/// Handle of a compiled guard.
pub(crate) type GuardId = usize;

/// Every guard of a spec, compiled against the constant and relation
/// interners into flat arenas.
#[derive(Debug)]
pub(crate) struct Program<'s> {
    /// Interned constants, sorted: a constant's id is its position.
    consts: &'s [String],
    rels: HashMap<&'s str, RelId>,
    nodes: Vec<Node<'s>>,
    kids: Vec<usize>,
    branches: Vec<Ids>,
    terms: Vec<T>,
    vars: Vec<usize>,
    names: Vec<&'s str>,
    guards: Vec<Guard<'s>>,
}

/// Every sub-formula of `f`, `f` first.
fn walk<'s>(f: &'s Formula, each: &mut impl FnMut(&'s Formula)) {
    each(f);
    match f {
        Formula::Not(x) | Formula::Exists(_, x) | Formula::Forall(_, x) => walk(x, each),
        Formula::And(xs) | Formula::Or(xs) => xs.iter().for_each(|x| walk(x, each)),
        Formula::Implies(a, b) => {
            walk(a, each);
            walk(b, each);
        }
        _ => {}
    }
}

fn flatten<'f>(f: &'f Formula, out: &mut Vec<&'f Formula>) {
    match f {
        Formula::And(parts) => {
            for p in parts {
                flatten(p, out);
            }
        }
        other => out.push(other),
    }
}

impl<'s> Program<'s> {
    /// An empty program over the given interners: `consts` sorted and
    /// distinct, `rels` naming every tracked relation.
    pub(crate) fn new(consts: &'s [String], rels: HashMap<&'s str, RelId>) -> Program<'s> {
        Program {
            consts,
            rels,
            nodes: Vec::new(),
            kids: Vec::new(),
            branches: Vec::new(),
            terms: Vec::new(),
            vars: Vec::new(),
            names: Vec::new(),
            guards: Vec::new(),
        }
    }

    /// Compile the guard `body` of a rule on `page` whose head binds
    /// `head`.
    pub(crate) fn guard(
        &mut self,
        body: &'s Formula,
        page: &'s str,
        head: &'s [String],
    ) -> GuardId {
        // every variable name, bound or free
        let mut names: Vec<&'s str> = head.iter().map(String::as_str).collect();
        walk(body, &mut |f| match f {
            Formula::Atom(a) => names.extend(a.terms.iter().filter_map(Term::as_var)),
            Formula::Eq(a, b) | Formula::Ne(a, b) => {
                names.extend(a.as_var().into_iter().chain(b.as_var()))
            }
            Formula::Exists(vs, _) | Formula::Forall(vs, _) => {
                names.extend(vs.iter().map(String::as_str))
            }
            _ => {}
        });
        names.sort_unstable();
        names.dedup();

        let first_node = self.nodes.len();
        let root = self.scope(body, page, &names);
        let head_start = self.vars.len();
        self.vars.extend(head.iter().map(|v| local(&names, v)));
        let head = Ids { start: head_start, end: self.vars.len() };
        let names_start = self.names.len();
        self.names.extend(&names);
        self.guards.push(Guard {
            root,
            page,
            names: Ids { start: names_start, end: self.names.len() },
            head,
            nodes: Ids { start: first_node, end: self.nodes.len() },
        });
        self.guards.len() - 1
    }

    /// Tracked relations guard `g` reads — atoms (current or `prev`)
    /// and emptiness tests — possibly repeated.
    pub(crate) fn reads(&self, g: GuardId) -> impl Iterator<Item = RelId> + '_ {
        self.nodes[self.guards[g].nodes.range()].iter().filter_map(|n| match n {
            Node::Atom { rel, .. } | Node::InputEmpty(rel) => *rel,
            _ => None,
        })
    }

    fn scope(&mut self, f: &'s Formula, page: &'s str, names: &[&'s str]) -> Ids {
        let mut conjuncts = Vec::new();
        flatten(f, &mut conjuncts);
        let ids: Vec<usize> =
            conjuncts.into_iter().map(|c| self.conjunct(c, page, names)).collect();
        let start = self.kids.len();
        self.kids.extend(ids);
        Ids { start, end: self.kids.len() }
    }

    fn term(&self, t: &'s Term, names: &[&'s str]) -> T {
        match t {
            Term::Var(v) => T::Var(local(names, v)),
            Term::Const(c) => {
                T::Const(self.consts.binary_search(c).expect("every constant is interned"))
            }
            Term::Field { .. } => T::Opaque,
        }
    }

    fn conjunct(&mut self, f: &'s Formula, page: &'s str, names: &[&'s str]) -> usize {
        let node = match f {
            Formula::True => Node::True,
            Formula::False => Node::False,
            Formula::Page(name) => Node::Page { holds: name == page, name },
            Formula::InputEmpty { rel, .. } => {
                Node::InputEmpty(self.rels.get(rel.as_str()).copied())
            }
            Formula::Eq(a, b) => Node::Eq(self.term(a, names), self.term(b, names)),
            Formula::Ne(a, b) => Node::Ne(self.term(a, names), self.term(b, names)),
            Formula::Atom(a) => {
                let start = self.terms.len();
                for t in &a.terms {
                    let t = self.term(t, names);
                    self.terms.push(t);
                }
                let terms = Ids { start, end: self.terms.len() };
                Node::Atom { src: a, rel: self.rels.get(a.rel.as_str()).copied(), terms }
            }
            Formula::Not(x) => Node::Not { inner: self.scope(x, page, names), src: x },
            Formula::Or(parts) => {
                let scopes: Vec<Ids> = parts.iter().map(|p| self.scope(p, page, names)).collect();
                let start = self.branches.len();
                self.branches.extend(scopes);
                Node::Or(Ids { start, end: self.branches.len() })
            }
            Formula::Implies(a, b) => Node::Implies {
                lhs: self.scope(a, page, names),
                rhs: self.scope(b, page, names),
                src: (a, b),
            },
            Formula::Exists(vs, body) | Formula::Forall(vs, body) => {
                let body = self.scope(body, page, names);
                let start = self.vars.len();
                self.vars.extend(vs.iter().map(|v| local(names, v)));
                Node::Quant { vars: Ids { start, end: self.vars.len() }, body }
            }
            // `flatten` splices every conjunction into its scope
            Formula::And(_) => unreachable!("conjunctions are flattened"),
        };
        self.nodes.push(node);
        self.nodes.len() - 1
    }
}

/// The local id of variable `v` among a guard's sorted `names`.
fn local(names: &[&str], v: &str) -> usize {
    names.binary_search(&v).expect("every guard variable is collected")
}

/// Class slot of a variable not yet mentioned in a scope.
const UNBOUND: usize = usize::MAX;

/// The equality environment of one conjunctive scope: a class per
/// mentioned variable, each class with a pin set and (with provenance)
/// a short trail of why it was narrowed.
#[derive(Debug, Default)]
struct Env {
    /// Class of each local variable, or `UNBOUND`.
    class: Vec<usize>,
    pins: SetTable,
    /// Per class, at most four reasons (only with provenance).
    why: Vec<Vec<String>>,
}

impl Env {
    fn reset(&mut self, names: usize, consts: usize) {
        self.class.clear();
        self.class.resize(names, UNBOUND);
        self.pins.reset(consts);
        self.why.clear();
    }

    fn copy_from(&mut self, other: &Env) {
        self.class.clone_from(&other.class);
        self.pins.copy_from(&other.pins);
        self.why.clone_from(&other.why);
    }

    fn fresh<P: Provenance>(&mut self) -> usize {
        if P::ENABLED {
            self.why.push(Vec::new());
        }
        self.pins.push(true)
    }

    fn class_of<P: Provenance>(&mut self, v: usize) -> usize {
        match self.class[v] {
            UNBOUND => {
                let c = self.fresh::<P>();
                self.class[v] = c;
                c
            }
            c => c,
        }
    }

    /// Rebind `v` to a fresh unconstrained class (quantifier shadowing).
    fn shadow<P: Provenance>(&mut self, v: usize) {
        self.class[v] = self.fresh::<P>();
    }

    /// The pin set of local variable `v` (⊤ when unconstrained or never
    /// mentioned).
    fn pin(&self, v: usize) -> Vals<'_> {
        match self.class[v] {
            UNBOUND => Vals::Top,
            c => self.pins.get(c),
        }
    }

    fn same_class(&self, a: usize, b: usize) -> bool {
        let ca = self.class[a];
        ca != UNBOUND && ca == self.class[b]
    }

    /// Narrow class `c` with `meet`; `Err` with the refutation chain if
    /// its pin set dries up, else whether it moved.
    fn narrow_class<P: Provenance>(
        &mut self,
        c: usize,
        meet: impl FnOnce(&mut SetTable, usize) -> bool,
        why: impl FnOnce() -> String,
    ) -> Result<bool, Vec<String>> {
        let was_bottom = self.pins.is_bottom(c);
        let changed = meet(&mut self.pins, c);
        if !was_bottom && self.pins.is_bottom(c) {
            let mut notes = Vec::new();
            if P::ENABLED {
                notes.clone_from(&self.why[c]);
                notes.push(why());
            }
            return Err(notes);
        }
        if P::ENABLED && changed && self.why[c].len() < 4 {
            self.why[c].push(why());
        }
        Ok(changed)
    }

    fn narrow<P: Provenance>(
        &mut self,
        v: usize,
        vals: Vals<'_>,
        why: impl FnOnce() -> String,
    ) -> Result<bool, Vec<String>> {
        let c = self.class_of::<P>(v);
        self.narrow_class::<P>(c, |pins, c| pins.meet(c, vals), why)
    }

    fn union<P: Provenance>(
        &mut self,
        a: usize,
        b: usize,
        why: impl FnOnce() -> String,
    ) -> Result<(), Vec<String>> {
        let (ca, cb) = (self.class_of::<P>(a), self.class_of::<P>(b));
        if ca == cb {
            return Ok(());
        }
        // re-point every member of b's class at a's
        for c in &mut self.class {
            if *c == cb {
                *c = ca;
            }
        }
        if P::ENABLED {
            let other = self.why[cb].clone();
            let slot = &mut self.why[ca];
            for w in other {
                if slot.len() < 4 {
                    slot.push(w);
                }
            }
        }
        self.narrow_class::<P>(ca, |pins, c| pins.meet_entry(c, cb), why).map(drop)
    }
}

/// Abstract evaluation result: `False` carries the provenance chain
/// (empty for a [`Silent`] evaluation).
#[derive(Debug)]
enum Verdict {
    True,
    False(Vec<String>),
    Unknown,
}

/// Evaluates compiled guards, reusing its scopes across calls.
pub(crate) struct Evaluator<'p, 's> {
    prog: &'p Program<'s>,
    /// The top-level scope of the last evaluation (head pins live here).
    env: Env,
    /// Spare nested scopes and disjunction joins.
    envs: Vec<Env>,
    joins: Vec<SetTable>,
}

impl<'p, 's> Evaluator<'p, 's> {
    pub(crate) fn new(prog: &'p Program<'s>) -> Self {
        Evaluator { prog, env: Env::default(), envs: Vec::new(), joins: Vec::new() }
    }

    /// Evaluate guard `g` against `facts`. After a verdict other than
    /// `False`, [`Evaluator::head`] reads the pins it left on the head.
    fn eval<P: Provenance>(&mut self, g: GuardId, facts: &Facts) -> Verdict {
        let guard = &self.prog.guards[g];
        self.env.reset(guard.names.len(), facts.consts.len());
        let mut cx =
            Cx { prog: self.prog, guard, facts, envs: &mut self.envs, joins: &mut self.joins };
        cx.scope::<P>(guard.root, &mut self.env)
    }

    /// Can guard `g` never hold, given `facts`?
    pub(crate) fn refutes(&mut self, g: GuardId, facts: &Facts) -> bool {
        matches!(self.eval::<Silent>(g, facts), Verdict::False(_))
    }

    /// The refutation chain of a guard [`Evaluator::refutes`] rejects.
    pub(crate) fn explain(&mut self, g: GuardId, facts: &Facts) -> Vec<String> {
        match self.eval::<Explain>(g, facts) {
            Verdict::False(notes) => notes,
            _ => Vec::new(),
        }
    }

    /// The pins the last evaluation of `g` left on its head variables.
    pub(crate) fn head(&self, g: GuardId) -> impl Iterator<Item = Vals<'_>> {
        self.prog.vars[self.prog.guards[g].head.range()].iter().map(|&v| self.env.pin(v))
    }
}

/// One evaluation in progress.
struct Cx<'a, 's> {
    prog: &'a Program<'s>,
    guard: &'a Guard<'s>,
    facts: &'a Facts,
    envs: &'a mut Vec<Env>,
    joins: &'a mut Vec<SetTable>,
}

impl<'a, 's> Cx<'a, 's> {
    fn name(&self, v: usize) -> &'s str {
        self.prog.names[self.guard.names.start + v]
    }

    fn konst(&self, c: usize) -> &'a str {
        &self.facts.consts[c]
    }

    /// Evaluate a conjunctive scope, refining `env` with the pins the
    /// conjunction implies.
    fn scope<P: Provenance>(&mut self, conj: Ids, env: &mut Env) -> Verdict {
        let prog = self.prog;
        let kids = &prog.kids[conj.range()];

        // pass 1: explicit equalities establish the classes and seed pins
        for &k in kids {
            if let Node::Eq(a, b) = prog.nodes[k] {
                if let Err(notes) = self.register_eq::<P>(a, b, env) {
                    return Verdict::False(notes);
                }
            }
        }

        // pass 2: positive atoms check emptiness and narrow pins through
        // column value sets; loop until the pins stop moving (pins from
        // one atom can dry up another's)
        loop {
            let mut moved = false;
            for &k in kids {
                if let Node::Atom { src, rel, terms } = prog.nodes[k] {
                    match self.atom::<P>(src, rel, terms, env) {
                        Ok(m) => moved |= m,
                        Err(notes) => return Verdict::False(notes),
                    }
                }
            }
            if !moved {
                break;
            }
        }

        // pass 3: everything else, each in its own nested scope; a scope
        // with equalities or atoms is satisfiable-but-not-valid
        let mut all_true = true;
        for &k in kids {
            match &prog.nodes[k] {
                Node::Eq(..) | Node::Atom { .. } => all_true = false,
                node => match self.one::<P>(node, env) {
                    Verdict::False(notes) => return Verdict::False(notes),
                    Verdict::Unknown => all_true = false,
                    Verdict::True => {}
                },
            }
        }
        if all_true {
            Verdict::True
        } else {
            Verdict::Unknown
        }
    }

    /// Evaluate `body` in a copy of `env` with `shadowed` rebound.
    fn nested<P: Provenance>(&mut self, body: Ids, env: &Env, shadowed: &[usize]) -> Verdict {
        let mut child = self.envs.pop().unwrap_or_default();
        child.copy_from(env);
        for &v in shadowed {
            child.shadow::<P>(v);
        }
        let verdict = self.scope::<P>(body, &mut child);
        self.envs.push(child);
        verdict
    }

    fn register_eq<P: Provenance>(&self, a: T, b: T, env: &mut Env) -> Result<(), Vec<String>> {
        match (a, b) {
            (T::Const(x), T::Const(y)) => {
                if x == y {
                    Ok(())
                } else {
                    Err(notes::<P>(|| {
                        vec![format!(
                            "the guard requires {:?} = {:?}, which never holds",
                            self.konst(x),
                            self.konst(y)
                        )]
                    }))
                }
            }
            (T::Var(v), T::Const(c)) | (T::Const(c), T::Var(v)) => env
                .narrow::<P>(v, Vals::One(c), || {
                    format!("`{}` = {:?} in this guard", self.name(v), self.konst(c))
                })
                .map(drop),
            (T::Var(v), T::Var(w)) => env.union::<P>(v, w, || {
                format!("`{}` = `{}` in this guard", self.name(v), self.name(w))
            }),
            // field terms only exist after the input rewrite; opaque here
            _ => Ok(()),
        }
    }

    /// Check one positive atom against the facts; `Ok(true)` if a pin
    /// moved.
    fn atom<P: Provenance>(
        &self,
        src: &'s Atom,
        rel: Option<RelId>,
        terms: Ids,
        env: &mut Env,
    ) -> Result<bool, Vec<String>> {
        // database relations and input constants: nonempty, ⊤ columns
        let Some(rel) = rel else { return Ok(false) };
        let facts = self.facts;
        if !facts.holds(rel) {
            return Err(notes::<P>(|| {
                vec![
                    format!("`{src}` requires a tuple of `{}`", src.rel),
                    facts.rels[rel].why_empty(),
                ]
            }));
        }
        let mut moved = false;
        for (col, &t) in self.prog.terms[terms.range()].iter().enumerate() {
            let values = facts.col(rel, col);
            match t {
                T::Const(c) => {
                    if !values.admits(c) {
                        return Err(notes::<P>(|| {
                            vec![
                                format!(
                                    "`{src}` requires {:?} in column {col} of `{}`",
                                    self.konst(c),
                                    src.rel
                                ),
                                facts.why_column(rel, col, values),
                            ]
                        }));
                    }
                }
                T::Var(v) => {
                    if let Vals::Set(_) = values {
                        let why = || facts.why_column(rel, col, values);
                        moved |= env.narrow::<P>(v, values, why).map_err(|mut notes| {
                            if P::ENABLED {
                                notes.insert(
                                    0,
                                    format!(
                                        "`{src}` binds `{}` against column {col} of `{}`",
                                        self.name(v),
                                        src.rel
                                    ),
                                );
                            }
                            notes
                        })?;
                    }
                }
                T::Opaque => {}
            }
        }
        Ok(moved)
    }

    /// Evaluate a non-conjunctive sub-formula.
    fn one<P: Provenance>(&mut self, node: &Node<'s>, env: &mut Env) -> Verdict {
        match *node {
            Node::True => Verdict::True,
            Node::False => {
                Verdict::False(notes::<P>(|| vec!["the guard is literally false".to_string()]))
            }
            Node::Page { holds, name } => {
                if holds {
                    Verdict::True
                } else {
                    Verdict::False(notes::<P>(|| {
                        vec![format!(
                            "the guard requires the current page to be {name}, but this rule \
                             runs on {}",
                            self.guard.page
                        )]
                    }))
                }
            }
            Node::InputEmpty(rel) => match rel {
                Some(r) if !self.facts.holds(r) => Verdict::True,
                _ => Verdict::Unknown,
            },
            Node::Ne(a, b) => self.ne::<P>(a, b, env),
            Node::Not { inner, src } => match self.nested::<P>(inner, env, &[]) {
                Verdict::True => Verdict::False(notes::<P>(|| {
                    vec![format!("the guard negates a condition that always holds: `{src}`")]
                })),
                Verdict::False(_) => Verdict::True,
                Verdict::Unknown => Verdict::Unknown,
            },
            Node::Or(branches) => self.or::<P>(branches, env),
            Node::Implies { lhs, rhs, src: (a, b) } => {
                // both sides are side-effect free, so a refuted premise
                // settles it without evaluating the conclusion
                let l = self.nested::<P>(lhs, env, &[]);
                if let Verdict::False(_) = l {
                    return Verdict::True;
                }
                match (l, self.nested::<P>(rhs, env, &[])) {
                    (_, Verdict::True) => Verdict::True,
                    (Verdict::True, Verdict::False(_)) => Verdict::False(notes::<P>(|| {
                        vec![format!("`{a}` always holds but `{b}` never can")]
                    })),
                    _ => Verdict::Unknown,
                }
            }
            // the active domain is never empty (spec constants and pool
            // witnesses are always in it), so both quantifiers pass a
            // definite body verdict through unchanged
            Node::Quant { vars, body } => {
                let prog = self.prog;
                self.nested::<P>(body, env, &prog.vars[vars.range()])
            }
            // handled by passes 1 and 2 of the enclosing scope
            Node::Eq(..) | Node::Atom { .. } => Verdict::Unknown,
        }
    }

    fn or<P: Provenance>(&mut self, branches: Ids, env: &mut Env) -> Verdict {
        let prog = self.prog;
        // per variable, the join of its pins over the live branches
        let mut join = self.joins.pop().unwrap_or_default();
        join.reset(self.facts.consts.len());
        for _ in 0..env.class.len() {
            join.push(false);
        }
        let mut notes = Vec::new();
        let (mut live, mut any_true) = (false, false);
        let mut child = self.envs.pop().unwrap_or_default();
        for &b in &prog.branches[branches.range()] {
            child.copy_from(env);
            match self.scope::<P>(b, &mut child) {
                Verdict::False(mut n) => notes.append(&mut n),
                v => {
                    live = true;
                    any_true |= matches!(v, Verdict::True);
                    for var in 0..child.class.len() {
                        join.join(var, child.pin(var));
                    }
                }
            }
        }
        self.envs.push(child);

        let verdict = if !live {
            if P::ENABLED {
                notes.insert(0, "every alternative of the disjunction is impossible".to_string());
                notes.truncate(6);
            }
            Verdict::False(notes)
        } else {
            // write surviving-branch pins back: a variable constrained in
            // *every* live branch is pinned to the union of its branch pins
            let mut verdict = if any_true { Verdict::True } else { Verdict::Unknown };
            for var in 0..env.class.len() {
                let joined = join.get(var);
                if matches!(joined, Vals::Top) {
                    continue;
                }
                let why = || {
                    format!("`{}` is pinned by every alternative of a disjunction", self.name(var))
                };
                if let Err(notes) = env.narrow::<P>(var, joined, why) {
                    verdict = Verdict::False(notes);
                    break;
                }
            }
            verdict
        };
        self.joins.push(join);
        verdict
    }

    fn ne<P: Provenance>(&self, a: T, b: T, env: &Env) -> Verdict {
        match (a, b) {
            (T::Const(x), T::Const(y)) => {
                if x != y {
                    Verdict::True
                } else {
                    Verdict::False(notes::<P>(|| {
                        vec![format!(
                            "the guard requires {:?} != {:?}",
                            self.konst(x),
                            self.konst(y)
                        )]
                    }))
                }
            }
            (T::Var(v), T::Const(c)) | (T::Const(c), T::Var(v)) => {
                let pin = env.pin(v);
                if pin.is_only(c) {
                    Verdict::False(notes::<P>(|| {
                        let (v, c) = (self.name(v), self.konst(c));
                        vec![format!("`{v}` is pinned to {c:?}, so `{v}` != {c:?} never holds")]
                    }))
                } else if matches!(pin, Vals::Set(_)) && !pin.admits(c) {
                    Verdict::True
                } else {
                    Verdict::Unknown
                }
            }
            (T::Var(v), T::Var(w)) => {
                if v == w || env.same_class(v, w) {
                    Verdict::False(notes::<P>(|| {
                        let (v, w) = (self.name(v), self.name(w));
                        vec![format!(
                            "`{v}` and `{w}` are equal here, so `{v}` != `{w}` never holds"
                        )]
                    }))
                } else if env.pin(v).disjoint(env.pin(w)) {
                    Verdict::True
                } else {
                    Verdict::Unknown
                }
            }
            _ => Verdict::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = "P";

    /// Compile `guards` (each on page `P`, with head variable `y`)
    /// against facts where `go` carries {"next", "stop"} and `junk` is
    /// empty, and hand one evaluator over all of them to `f`.
    fn with_guards<R>(
        guards: &[Formula],
        f: impl FnOnce(&mut Evaluator<'_, '_>, &Facts, &[GuardId]) -> R,
    ) -> R {
        let heads = vec!["y".to_string()];
        let offered = [atom("go", konst("next")), atom("go", konst("stop"))];
        let mut consts: Vec<String> =
            guards.iter().chain(&offered).flat_map(wave_fol::constants).collect();
        consts.sort_unstable();
        consts.dedup();
        let mut prog = Program::new(&consts, HashMap::from([("go", 0), ("junk", 1)]));
        let ids: Vec<GuardId> = guards.iter().map(|g| prog.guard(g, PAGE, &heads)).collect();
        let mut facts = Facts::bottom(
            consts.clone(),
            vec![
                TrackedRel::new("go".into(), 1, 1, "the option rules that offer it"),
                TrackedRel::new("junk".into(), 1, 0, "the option rules that offer it"),
            ],
        );
        for c in ["next", "stop"] {
            let id = consts.iter().position(|k| *k == c).unwrap();
            facts.feed(0, std::iter::once(Vals::One(id)));
        }
        f(&mut Evaluator::new(&prog), &facts, &ids)
    }

    /// The verdict of guard `g` and the pin it leaves on `y`.
    fn run<P: Provenance>(guards: &[Formula], g: usize) -> (Verdict, String) {
        with_guards(guards, |ev, facts, ids| {
            let verdict = ev.eval::<P>(ids[g], facts);
            (verdict, ev.head(ids[g]).next().unwrap().describe(&facts.consts))
        })
    }

    fn eval(g: Formula) -> Verdict {
        let silent = run::<Silent>(std::slice::from_ref(&g), 0).0;
        let explained = run::<Explain>(std::slice::from_ref(&g), 0).0;
        // both modes agree on the verdict; only the explained one has notes
        match (&silent, &explained) {
            (Verdict::False(quiet), Verdict::False(notes)) => {
                assert!(quiet.is_empty());
                assert!(!notes.is_empty());
            }
            (Verdict::True, Verdict::True) | (Verdict::Unknown, Verdict::Unknown) => {}
            _ => panic!("silent {silent:?} vs explained {explained:?}"),
        }
        explained
    }

    fn atom(rel: &str, t: Term) -> Formula {
        Formula::Atom(Atom { rel: rel.to_string(), prev: false, terms: vec![t] })
    }

    fn var(v: &str) -> Term {
        Term::Var(v.into())
    }

    fn konst(c: &str) -> Term {
        Term::Const(c.into())
    }

    #[test]
    fn refutes_constant_outside_value_set() {
        let v = eval(atom("go", konst("teleport")));
        let Verdict::False(notes) = v else { panic!("{v:?}") };
        assert_eq!(
            notes,
            [
                "`go(\"teleport\")` requires \"teleport\" in column 0 of `go`",
                "column 0 of `go` can only carry {\"next\", \"stop\"} (from the option rules \
                 that offer it)",
            ]
        );
    }

    #[test]
    fn refutes_empty_relation_and_contradictory_pins() {
        let v = eval(atom("junk", var("x")));
        let Verdict::False(notes) = v else { panic!("{v:?}") };
        assert_eq!(notes[1], "relation `junk` can never hold a tuple: no rule populates it");

        let g =
            Formula::and([Formula::Eq(var("x"), konst("a")), Formula::Eq(var("x"), konst("b"))]);
        let v = eval(g);
        let Verdict::False(notes) = v else { panic!("{v:?}") };
        assert_eq!(notes, ["`x` = \"a\" in this guard", "`x` = \"b\" in this guard"]);
    }

    #[test]
    fn pins_flow_through_variable_equalities_and_atoms() {
        // y = x, go(x), y = "gone": go's column excludes "gone"
        let g = Formula::and([
            Formula::Eq(var("y"), var("x")),
            atom("go", var("x")),
            Formula::Eq(var("y"), konst("gone")),
        ]);
        assert!(matches!(eval(g), Verdict::False(_)));

        // the satisfiable variant stays unknown and pins the head var
        let g = Formula::and([Formula::Eq(var("y"), var("x")), atom("go", var("x"))]);
        let (v, pin) = run::<Silent>(&[g], 0);
        assert!(matches!(v, Verdict::Unknown), "{v:?}");
        assert_eq!(pin, "{\"next\", \"stop\"}");
    }

    #[test]
    fn disjunction_pins_join_and_page_markers_resolve() {
        let g = Formula::or([Formula::Eq(var("y"), konst("a")), Formula::Eq(var("y"), konst("b"))]);
        let (v, pin) = run::<Explain>(&[g], 0);
        assert!(matches!(v, Verdict::Unknown), "{v:?}");
        assert_eq!(pin, "{\"a\", \"b\"}");

        let v = eval(Formula::Page("Q".into()));
        let Verdict::False(notes) = v else { panic!("{v:?}") };
        assert_eq!(notes, ["the guard requires the current page to be Q, but this rule runs on P"]);
        assert!(matches!(eval(Formula::Page(PAGE.into())), Verdict::True));
    }

    #[test]
    fn shadowed_quantifiers_do_not_merge() {
        // (exists x: x = "a") & (exists x: x = "b") is satisfiable
        let g = Formula::and([
            Formula::Exists(vec!["x".into()], Box::new(Formula::Eq(var("x"), konst("a")))),
            Formula::Exists(vec!["x".into()], Box::new(Formula::Eq(var("x"), konst("b")))),
        ]);
        let v = eval(g);
        assert!(!matches!(v, Verdict::False(_)), "{v:?}");
    }

    #[test]
    fn negation_of_empty_atom_is_true() {
        let g = Formula::not(atom("junk", var("x")));
        assert!(matches!(eval(g), Verdict::True));
    }

    #[test]
    fn impossible_disjunction_collects_every_branch() {
        let g = Formula::or([atom("junk", var("x")), atom("go", konst("warp"))]);
        let v = eval(g);
        let Verdict::False(notes) = v else { panic!("{v:?}") };
        assert_eq!(notes[0], "every alternative of the disjunction is impossible");
        assert_eq!(notes.len(), 5, "{notes:?}");
        assert!(notes[3].contains("\"warp\""), "{notes:?}");
    }

    #[test]
    fn scratch_scopes_do_not_leak_between_guards() {
        // one evaluator runs a guard that pins y inside nested scopes,
        // then one that leaves it free: the second must see ⊤, not a
        // stale pin from reused storage
        let pinned = Formula::and([
            Formula::Eq(var("y"), konst("a")),
            Formula::not(Formula::Eq(var("y"), konst("b"))),
        ]);
        let free = Formula::or([Formula::True, Formula::Eq(var("y"), konst("b"))]);
        let pins = with_guards(&[pinned, free], |ev, facts, ids| {
            let mut pins = Vec::new();
            for &g in ids.iter().chain(ids) {
                assert!(!ev.refutes(g, facts));
                pins.push(ev.head(g).next().unwrap().describe(&facts.consts));
            }
            pins
        });
        assert_eq!(pins, ["{\"a\"}", "any value", "{\"a\"}", "any value"]);
    }
}
