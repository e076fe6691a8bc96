//! Successor computation for pseudoconfigurations — the paper's `succP`
//! procedure plus the construction of the start pseudoconfigurations.
//!
//! Given `Cs = ⟨Ds, Vs, Is, Ps, Ss, As⟩`:
//!
//! 1. the target page `Vt` is the unique page whose target condition holds
//!    on `Cs` (zero or several true conditions ⇒ "no transition occurs",
//!    modeled as staying on `Vs`),
//! 2. the new state `St` applies the insert/delete rules (insert/delete
//!    conflicts are no-ops) and keeps only tuples over `C`,
//! 3. `Pt := Is` (the input becomes the previous input),
//! 4. for every extension in `ext(Vt)` (Heuristic-2 pruned): compute the
//!    input options by running `Vt`'s option rules, and for every input
//!    choice compute the actions (kept over `C`) — yielding one successor
//!    pseudoconfiguration per (extension, input choice).
//!
//! `SearchCtx::step` computes steps 1–3 as a `StepKey` and
//! `SearchCtx::expand_page` runs step 4 from the key alone. The search
//! meets far fewer distinct keys than configurations, so it keeps one
//! interned successor list per key (see [`crate::ndfs`]); replay calls
//! [`SearchCtx::successors`], which recomputes both halves every time.

use crate::config::{canonicalize, no_facts, Facts, PseudoConfig, SharedFacts};
use crate::domain::PagePool;
use crate::memo::QueryEngine;
use crate::profile::SearchProfile;
use crate::universe::{extension_universe, ExtensionPruning, UniverseOverflow};
use crate::visibility::Visibility;
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::sync::Arc;
use wave_fol::{
    answers, eval, prev_shadow_name, Bindings, EvalCtx, EvalError, Formula, SchemaResolver,
};
use wave_obs::{Observer, TraceEvent};
use wave_relalg::{Instance, Params, PreparedQuery, RelKind, Relation, Tuple, Value};
use wave_spec::{
    CompiledComponent, CompiledRule, CompiledSpec, Dataflow, PageId, ReadProfile, RuleExec,
    TargetExec,
};

/// Bindings handed to plans that read no parameter slot.
static NO_PARAMS: Params = Params::none();

/// Errors during successor computation.
#[derive(Debug)]
pub enum SuccError {
    Overflow(UniverseOverflow),
    Eval(EvalError),
    Exec(wave_relalg::ExecError),
    /// The tiered visited set's spill I/O failed.
    Store(std::io::Error),
}

impl std::fmt::Display for SuccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuccError::Overflow(e) => write!(f, "{e}"),
            SuccError::Eval(e) => write!(f, "rule evaluation failed: {e}"),
            SuccError::Exec(e) => write!(f, "plan execution failed: {e}"),
            SuccError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SuccError {}

impl From<UniverseOverflow> for SuccError {
    fn from(e: UniverseOverflow) -> Self {
        SuccError::Overflow(e)
    }
}

impl From<EvalError> for SuccError {
    fn from(e: EvalError) -> Self {
        SuccError::Eval(e)
    }
}

impl From<wave_relalg::ExecError> for SuccError {
    fn from(e: wave_relalg::ExecError) -> Self {
        SuccError::Exec(e)
    }
}

impl From<std::io::Error> for SuccError {
    fn from(e: std::io::Error) -> Self {
        SuccError::Store(e)
    }
}

/// Everything fixed during one core's search.
pub struct SearchCtx<'a> {
    pub spec: &'a CompiledSpec,
    /// Session symbol table (spec symbols + pools + property params).
    pub symbols: &'a wave_relalg::SymbolTable,
    pub pools: &'a [PagePool],
    pub flow: &'a Dataflow,
    /// The constant set `C = C_W ∪ property constants ∪ C_∃`,
    /// sorted (membership tests binary-search it).
    pub c_values: Vec<Value>,
    /// Instance holding exactly the core tuples.
    pub base: Instance,
    pub pruning: ExtensionPruning,
    pub heuristic2: bool,
    /// When false, every rule is interpreted (ablation baseline).
    pub use_plans: bool,
    /// Observability of prev inputs / states / actions (relevance pruning).
    pub visibility: Visibility,
    /// The wave-flow slice: per-qid rule liveness and the monotone
    /// delete fast-path flags. The identity slice under `--no-slice`;
    /// every skip it licenses is runtime-inert (see [`crate::SliceInfo`]).
    pub slice: std::sync::Arc<crate::slice::SliceInfo>,
    /// Optimized-plan overlay and delta-driven result memo for this core
    /// (holds interior mutability, so a context is built per worker).
    pub engine: QueryEngine,
}

/// What step 4 of `succP` reads of a configuration: the target page, the
/// updated state and the previous input kept at the target page — the
/// outcome of steps 1–3 ([`SearchCtx::step`]). The successor list is a
/// function of this key and the per-core [`SearchCtx`] alone, so every
/// configuration whose step yields the same key has the same successors.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct StepKey {
    page: PageId,
    /// Canonical previous input (shadow relations).
    prev: SharedFacts,
    /// Canonical state.
    state: SharedFacts,
}

/// Lazily materialized evaluation state for one pseudoconfiguration.
/// Materializing the working instance clones the whole base, binding
/// parameters scans it, and the quantification domain sorts every value
/// in it — but a configuration whose queries all hit the result memo
/// needs none of the three. Deferring them behind `OnceCell`s means a
/// fully memoized expansion never touches the instance at all.
pub(crate) struct EvalState<'a> {
    ctx: &'a SearchCtx<'a>,
    cfg: &'a PseudoConfig,
    inst: OnceCell<Instance>,
    params: OnceCell<Params>,
    domain: OnceCell<Vec<Value>>,
}

impl<'a> EvalState<'a> {
    pub(crate) fn new(ctx: &'a SearchCtx<'a>, cfg: &'a PseudoConfig) -> EvalState<'a> {
        EvalState {
            ctx,
            cfg,
            inst: OnceCell::new(),
            params: OnceCell::new(),
            domain: OnceCell::new(),
        }
    }

    /// The working instance `cfg` denotes (base ∪ sections ∪ marker).
    fn inst(&self) -> &Instance {
        self.inst.get_or_init(|| self.cfg.materialize(self.ctx.spec, &self.ctx.base))
    }

    /// Parameter bindings for running `q` on the working instance —
    /// bound only when the plan reads a slot.
    fn params_for(&self, q: &PreparedQuery) -> &Params {
        if q.param_slots() == 0 {
            return &NO_PARAMS;
        }
        self.params.get_or_init(|| self.ctx.spec.bind_params(self.inst()))
    }

    /// Quantification domain at the working instance: active domain ∪ `C`.
    fn domain(&self) -> &[Value] {
        self.domain.get_or_init(|| {
            let mut dom = self.inst().active_domain();
            dom.extend_from_slice(&self.ctx.c_values);
            dom.sort_unstable();
            dom.dedup();
            dom
        })
    }
}

impl SearchCtx<'_> {
    /// Run one rule, returning its derived head tuples. The memo keys
    /// the result on the epochs of the sections the rule reads;
    /// `ev.inst()` materializes only on a miss (or for interpreted
    /// rules). Under a profiling run, the evaluation is wrapped in a
    /// `query:<qid>` span frame (both execution paths).
    fn run_rule<O: Observer>(
        &self,
        rule: &CompiledRule,
        ev: &EvalState<'_>,
        page_name: &str,
        obs: &mut O,
    ) -> Result<Vec<Tuple>, SuccError> {
        obs.framed("query", u64::from(rule.reads.qid), |_| self.run_rule_inner(rule, ev, page_name))
    }

    fn run_rule_inner(
        &self,
        rule: &CompiledRule,
        ev: &EvalState<'_>,
        page_name: &str,
    ) -> Result<Vec<Tuple>, SuccError> {
        if self.use_plans {
            if let RuleExec::Plan(q) = &rule.exec {
                return Ok(self
                    .engine
                    .run_rows(rule.reads, q, ev.cfg, || (ev.inst(), ev.params_for(q)))?);
            }
        }
        let ctx = EvalCtx {
            instance: ev.inst(),
            symbols: self.symbols,
            current_page: Some(page_name),
            domain: ev.domain(),
        };
        let rows = answers(&rule.body, &rule.head_vars, &ctx, &SchemaResolver(&self.spec.schema))?;
        Ok(rows.into_iter().map(Tuple::from).collect())
    }

    /// Evaluate a target condition (a sentence).
    fn target_holds<O: Observer>(
        &self,
        t: &wave_spec::CompiledTarget,
        ev: &EvalState<'_>,
        obs: &mut O,
    ) -> Result<bool, SuccError> {
        obs.framed("query", u64::from(t.reads.qid), |_| {
            self.sentence_holds(&t.exec, t.reads, &t.condition, ev)
        })
    }

    /// Evaluate an instantiated property component at `ev`'s
    /// configuration, through the same engine path as a target
    /// condition. (No span frame: the caller times the whole
    /// assignment as one `eval` leaf.)
    pub(crate) fn component_holds(
        &self,
        c: &CompiledComponent,
        ev: &EvalState<'_>,
    ) -> Result<bool, SuccError> {
        self.sentence_holds(&c.exec, c.reads, &c.formula, ev)
    }

    /// Run a compiled sentence memoized through the engine, or — under
    /// `--interpret` or when it did not compile — interpret `formula`
    /// over the active domain of the working instance.
    fn sentence_holds(
        &self,
        exec: &TargetExec,
        reads: ReadProfile,
        formula: &Formula,
        ev: &EvalState<'_>,
    ) -> Result<bool, SuccError> {
        if self.use_plans {
            if let TargetExec::Plan(q) = exec {
                return Ok(self
                    .engine
                    .run_bool(reads, q, ev.cfg, || (ev.inst(), ev.params_for(q)))?);
            }
        }
        let ctx = EvalCtx {
            instance: ev.inst(),
            symbols: self.symbols,
            current_page: Some(&self.spec.page(ev.cfg.page).name),
            domain: ev.domain(),
        };
        Ok(eval(formula, &ctx, &SchemaResolver(&self.spec.schema), &mut Bindings::new())?)
    }

    /// Is every value of the tuple in `C`? (States and actions keep only
    /// ground tuples over `C`.)
    fn over_c(&self, t: &Tuple) -> bool {
        t.values().iter().all(|v| self.c_values.binary_search(v).is_ok())
    }

    /// The start pseudoconfigurations over the context's core: home page,
    /// empty state and previous input, every extension and input choice.
    /// `prof` collects the canonicalization share of the work; `obs`
    /// receives one [`TraceEvent::Options`] per extension.
    pub fn initial_configs<O: Observer>(
        &self,
        prof: &mut SearchProfile,
        obs: &mut O,
    ) -> Result<Vec<PseudoConfig>, SuccError> {
        self.expand_page(&self.start_step(), prof, obs)
    }

    /// The paper's `succP`. `prof` collects the canonicalization share of
    /// the work (the caller times the whole call as `expand_ns`).
    pub fn successors<O: Observer>(
        &self,
        cfg: &PseudoConfig,
        prof: &mut SearchProfile,
        obs: &mut O,
    ) -> Result<Vec<PseudoConfig>, SuccError> {
        let step = self.step(&EvalState::new(self, cfg), prof, obs)?;
        self.expand_page(&step, prof, obs)
    }

    /// The step key the start configurations expand from: the home page
    /// with empty state and previous input.
    pub(crate) fn start_step(&self) -> StepKey {
        StepKey { page: self.spec.home, prev: no_facts(), state: no_facts() }
    }

    /// Steps 1–3 of `succP` at `ev`'s configuration: the target page, the
    /// updated state, and the previous input kept at the target page.
    /// [`SearchCtx::expand_page`] of the result is the successor list.
    pub(crate) fn step<O: Observer>(
        &self,
        ev: &EvalState<'_>,
        prof: &mut SearchProfile,
        obs: &mut O,
    ) -> Result<StepKey, SuccError> {
        let cfg = ev.cfg;
        let page = self.spec.page(cfg.page);

        // 1) target page (statically dead conditions can never hold)
        let mut fired: Vec<PageId> = Vec::new();
        for t in &page.target_rules {
            if self.slice.live(t.reads.qid) && self.target_holds(t, ev, obs)? {
                fired.push(t.target);
            }
        }
        fired.dedup();
        let vt = match fired.as_slice() {
            [one] => *one,
            _ => cfg.page, // zero or several: no transition occurs
        };

        // 2) state update with insert/delete conflict = no-op, over C only
        let mut state: BTreeSet<(wave_relalg::RelId, Tuple)> = cfg.state.iter().cloned().collect();
        if self.slice.has_live_delete(cfg.page.index()) {
            let mut inserts: BTreeSet<(wave_relalg::RelId, Tuple)> = BTreeSet::new();
            let mut deletes: BTreeSet<(wave_relalg::RelId, Tuple)> = BTreeSet::new();
            for rule in &page.state_rules {
                if !self.slice.live(rule.reads.qid) {
                    continue; // statically dead: derives nothing
                }
                if !self.visibility.state_observable(rule.head) {
                    continue; // write-only state: nothing can read it
                }
                let tuples = self.run_rule(rule, ev, &page.name, obs)?;
                let sink = if rule.insert { &mut inserts } else { &mut deletes };
                for t in tuples {
                    if self.over_c(&t) || !rule.insert {
                        sink.insert((rule.head, t));
                    }
                }
            }
            for f in inserts.iter() {
                if !deletes.contains(f) {
                    state.insert(f.clone());
                }
            }
            for f in deletes.iter() {
                if !inserts.contains(f) {
                    state.remove(f);
                }
            }
        } else {
            // monotone fast path: no live delete rule on this page, so no
            // tuple can leave the state and no insert/delete conflict can
            // arise — inserts land directly (same final set as above with
            // an empty delete batch)
            for rule in &page.state_rules {
                if !rule.insert
                    || !self.slice.live(rule.reads.qid)
                    || !self.visibility.state_observable(rule.head)
                {
                    continue;
                }
                for t in self.run_rule(rule, ev, &page.name, obs)? {
                    if self.over_c(&t) {
                        state.insert((rule.head, t));
                    }
                }
            }
        }
        let st: Facts = state.into_iter().collect();

        // 3) previous input: current input re-keyed to the shadow
        // relations, keeping only shadows observable at the target page
        // (unobservable previous inputs would pointlessly multiply the
        // visited configurations)
        let prev: Facts = cfg
            .input
            .iter()
            .filter_map(|(rel, t)| {
                let shadow = self
                    .spec
                    .schema
                    .lookup(&prev_shadow_name(self.spec.schema.name(*rel)))
                    .expect("shadows declared for every input");
                self.visibility.prev_observable(vt, shadow).then(|| (shadow, t.clone()))
            })
            .collect();
        let prev = prof.time(|p| &mut p.canon_ns, || canonicalize(prev));
        Ok(StepKey { page: vt, prev: Arc::new(prev), state: Arc::new(st) })
    }

    /// Step 4 of `succP`: enumerate the configurations entering the
    /// step's page with its previous input and state — every Heuristic-2
    /// extension, every input choice, with actions computed per choice.
    /// Reads nothing of the configuration the step came from, so equal
    /// keys give equal lists.
    pub(crate) fn expand_page<O: Observer>(
        &self,
        step: &StepKey,
        prof: &mut SearchProfile,
        obs: &mut O,
    ) -> Result<Vec<PseudoConfig>, SuccError> {
        let page_id = step.page;
        let page = self.spec.page(page_id);
        let pool = &self.pools[page_id.index()];
        let universe = extension_universe(
            self.spec,
            self.flow,
            self.symbols,
            &self.c_values,
            page_id,
            pool,
            &step.prev,
            self.pruning,
            self.heuristic2,
        )?;
        let mut result = Vec::new();
        for ext in universe.variants() {
            // prev and state are shared by every successor of the step:
            // each variant clones the Arc, not the facts
            let shell = PseudoConfig {
                page: page_id,
                ext: Arc::new(ext),
                input: no_facts(),
                prev: Arc::clone(&step.prev),
                state: Arc::clone(&step.state),
                actions: no_facts(),
            };
            let ev = EvalState::new(self, &shell);

            // options per input relation; choice lists per input
            let mut choice_lists: Vec<(wave_relalg::RelId, Vec<Option<Tuple>>)> = Vec::new();
            for &input in &page.inputs {
                let mut opts: Vec<Option<Tuple>> = vec![None];
                match self.spec.schema.kind(input) {
                    RelKind::Input => {
                        let mut seen = Relation::empty(self.spec.schema.arity(input));
                        for rule in &page.option_rules {
                            if rule.head != input || !self.slice.live(rule.reads.qid) {
                                continue;
                            }
                            for t in self.run_rule(rule, &ev, &page.name, obs)? {
                                if seen.insert(t.clone()) {
                                    opts.push(Some(t));
                                }
                            }
                        }
                    }
                    RelKind::InputConstant => {
                        // text input: the page's fresh witness plus the
                        // constants the field is compared against
                        let mut vals: BTreeSet<Value> = pool
                            .input_consts
                            .iter()
                            .filter(|(r, _)| *r == input)
                            .map(|&(_, v)| v)
                            .collect();
                        let name = self.spec.schema.name(input);
                        vals.extend(
                            self.flow
                                .consts(name, 0)
                                .filter_map(|c| self.symbols.lookup_constant(c))
                                .filter(|v| self.c_values.contains(v)),
                        );
                        opts.extend(vals.into_iter().map(|v| Some(Tuple::from([v]))));
                    }
                    _ => unreachable!("page inputs are input relations"),
                }
                choice_lists.push((input, opts));
            }

            if O::EVENTS {
                // the empty choice is an option too, so `choices` (the
                // product of the per-input option counts) is exactly the
                // number of successors this extension contributes
                obs.event(TraceEvent::Options {
                    page: page_id.index() as u32,
                    options: choice_lists.iter().map(|(_, o)| o.len() as u32 - 1).sum(),
                    choices: choice_lists.iter().map(|(_, o)| o.len() as u64).product(),
                });
            }

            // cartesian product of choices
            let mut idx = vec![0usize; choice_lists.len()];
            loop {
                let input: Facts = prof.time(
                    |p| &mut p.canon_ns,
                    || {
                        canonicalize(
                            choice_lists
                                .iter()
                                .zip(&idx)
                                .filter_map(|((rel, opts), &i)| opts[i].clone().map(|t| (*rel, t)))
                                .collect(),
                        )
                    },
                );
                let mut cfg = shell.clone();
                cfg.input = Arc::new(input);
                // actions for this choice, kept over C — only worth
                // materializing when the page has property-visible actions
                let visible_actions: Vec<&CompiledRule> = page
                    .action_rules
                    .iter()
                    .filter(|r| self.slice.live(r.reads.qid))
                    .filter(|r| self.visibility.action_observable(r.head))
                    .collect();
                if !visible_actions.is_empty() {
                    let mut actions: BTreeSet<(wave_relalg::RelId, Tuple)> = BTreeSet::new();
                    {
                        let ev2 = EvalState::new(self, &cfg);
                        for rule in visible_actions {
                            for t in self.run_rule(rule, &ev2, &page.name, obs)? {
                                if self.over_c(&t) {
                                    actions.insert((rule.head, t));
                                }
                            }
                        }
                    }
                    cfg.actions = Arc::new(actions.into_iter().collect());
                }
                result.push(cfg);

                // odometer
                let mut pos = choice_lists.len();
                let mut done = true;
                while pos > 0 {
                    pos -= 1;
                    idx[pos] += 1;
                    if idx[pos] < choice_lists[pos].1.len() {
                        done = false;
                        break;
                    }
                    idx[pos] = 0;
                }
                if done {
                    break;
                }
            }
        }
        Ok(result)
    }
}
