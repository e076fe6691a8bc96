//! The top-level wave verifier.
//!
//! Implements the full roadmap of Section 3: given a specification `W` and
//! an LTL-FO property `φ0`,
//!
//! 1. negate the property and replace its FO components with propositions
//!    (`φ_aux`), build the Büchi automaton `A_{¬φ_aux}` once,
//! 2. enumerate the `C_∃` assignments for the property's universal
//!    variables (relevance-reduced; see [`crate::domain`]),
//! 3. per assignment, run the dataflow analysis and enumerate the
//!    Heuristic-1-pruned database cores,
//! 4. per core, run the nested depth-first search over pseudoruns.
//!
//! A lollipop found anywhere is a counterexample (the property is
//! violated); exhausting the whole space proves the property — *complete*
//! verification — when both the specification and the property are
//! input-bounded, and a sound "no counterexample found" verdict otherwise.

use crate::budget::{BudgetPool, DEFAULT_BUDGET_CHUNK};
use crate::cancel::CancelToken;
use crate::config::{core_instance, Facts};
use crate::domain::{assignments, build_pools, relevant_constants, Assignment, ParamMode};
use crate::memo::{QueryCost, QueryEngine};
use crate::ndfs::{Budget, CounterExample, Ndfs, SearchLimits, SearchResult};
use crate::profile::SearchProfile;
use crate::store::{StateStore, StateStoreKind};
use crate::succ::{SearchCtx, SuccError};
use crate::universe::{core_universe, ExtensionPruning, UniverseOverflow};
use crate::visibility::Visibility;
use std::ops::Range;
use std::time::{Duration, Instant};
use wave_flow::FlowReport;
use wave_fol::{check_input_bounded, constants as fo_constants, Formula};
use wave_ltl::{extract, nnf, parse_property, Buchi, Property};
use wave_obs::{Observer, TraceEvent};
use wave_relalg::{SymbolTable, Value};
use wave_spec::{
    analyze, CompileSpecError, CompiledComponent, CompiledSpec, Dataflow, Spec, TargetExec,
};

/// Verifier configuration.
#[derive(Clone, Debug)]
pub struct VerifyOptions {
    /// Heuristic 1: core pruning (Section 3.2). Disabling it is only
    /// feasible on miniature specifications.
    pub heuristic1: bool,
    /// Heuristic 2: extension pruning.
    pub heuristic2: bool,
    /// Extension-pruning flavor (paper-strict vs option-support).
    pub pruning: ExtensionPruning,
    /// `C_∃` equality-pattern enumeration mode.
    pub param_mode: ParamMode,
    /// Give up after this many generated pseudoconfigurations. The limit
    /// is global to a check: all units (and, under the parallel
    /// scheduler, all workers) draw on one shared [`BudgetPool`].
    pub max_steps: Option<u64>,
    /// Wall-clock budget.
    pub time_limit: Option<Duration>,
    /// Steps a search leases from the shared budget pool per refill.
    /// Purely a contention-tuning knob — the exhaustion point is
    /// chunk-size independent (see [`crate::budget`]), so verdicts and
    /// reports do not depend on it and result caches must ignore it
    /// (like `state_store`).
    pub budget_chunk: u64,
    /// Use compiled prepared plans (`true`) or the FO interpreter for
    /// every rule (`false`; the query-evaluation ablation baseline).
    pub use_plans: bool,
    /// Where the search keeps its visited marks: in memory (default) or
    /// in the tiered out-of-core set. Semantics-neutral — verdicts,
    /// traces and search statistics are identical; only speed and memory
    /// differ (result caches must therefore ignore it, like `cancel`).
    pub state_store: StateStoreKind,
    /// Query-engine ablation: when true, skip the cardinality-guided plan
    /// optimizer (so every join stays nested-loop) and the delta-driven
    /// result memo. Semantics-neutral like `state_store` — verdicts,
    /// traces and deterministic statistics are identical; only speed and
    /// the memo/join profile counters differ (result caches ignore it).
    pub naive_joins: bool,
    /// Cooperative cancellation: when the token is raised mid-search the
    /// check stops with [`Verdict::Unknown`]`(`[`Budget::Cancelled`]`)`.
    /// Not part of the verification semantics (result caches ignore it).
    pub cancel: Option<CancelToken>,
    /// Static slicing (`--no-slice` clears it): run the wave-flow
    /// analyses at construction, skip statically dead rules, take the
    /// monotone insert fast path on pages without live delete rules,
    /// and narrow memo read-masks over always-empty relations. Every
    /// transformation is runtime-inert (see [`crate::SliceInfo`]) —
    /// verdicts, traces and deterministic counters are byte-identical
    /// either way — but the slice counters it stamps into the profile
    /// differ, so result caches must key on it.
    pub slice: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            heuristic1: true,
            heuristic2: true,
            pruning: ExtensionPruning::OptionSupport,
            param_mode: ParamMode::DistinctFresh,
            max_steps: None,
            time_limit: None,
            budget_chunk: DEFAULT_BUDGET_CHUNK,
            use_plans: true,
            state_store: StateStoreKind::Interned,
            naive_joins: false,
            cancel: None,
            slice: true,
        }
    }
}

impl VerifyOptions {
    /// Build the shared [`BudgetPool`] for one check starting at
    /// `started`; `None` when neither budget is configured. One pool per
    /// check: a property suite gives each property a fresh step budget,
    /// exactly as the sequential per-property loop does.
    pub fn budget_pool(&self, started: Instant) -> Option<std::sync::Arc<BudgetPool>> {
        BudgetPool::new(self.max_steps, self.time_limit, self.budget_chunk, started)
    }
}

/// Aggregate statistics of one verification (the paper's table columns).
#[derive(Clone, Debug, Default)]
pub struct Stats {
    pub elapsed: Duration,
    /// Max pseudorun length (of the counterexample when violated).
    pub max_run_len: usize,
    /// Max number of distinct visited pairs between cores (the paper's
    /// "Max. trie size"); spans both tiers under the tiered backend —
    /// see `max_resident`/`max_spilled` for the split.
    pub max_trie: usize,
    /// High-water mark of visited pairs resident in memory. Equals
    /// `max_trie` under the in-memory backends; bounded by the byte
    /// budget under the tiered one.
    pub max_resident: usize,
    /// High-water mark of visited pairs spilled to disk (duplicate
    /// copies across segments included; zero for in-memory backends).
    pub max_spilled: usize,
    /// Pseudoconfigurations generated.
    pub configs: u64,
    /// Database cores searched.
    pub cores: u64,
    /// `C_∃` assignments considered.
    pub assignments: u64,
    /// Per-phase wall-time and interner counters of the searches.
    pub profile: SearchProfile,
    /// Per-query cost attribution, populated only by runs whose observer
    /// takes span frames ([`Observer::SPANS`]); empty otherwise. One entry per
    /// query id that executed at least once, sorted by qid after merge.
    pub queries: Vec<QueryCost>,
}

impl Stats {
    /// Fold another measurement into this one: counters add, maxima take
    /// the max. `elapsed` adds too, so under the parallel scheduler the
    /// merged value is the total search time across workers — which can
    /// exceed wall-clock; schedulers overwrite it with the measured
    /// wall-clock duration after merging.
    pub fn merge(&mut self, other: &Stats) {
        self.elapsed += other.elapsed;
        self.max_run_len = self.max_run_len.max(other.max_run_len);
        self.max_trie = self.max_trie.max(other.max_trie);
        self.max_resident = self.max_resident.max(other.max_resident);
        self.max_spilled = self.max_spilled.max(other.max_spilled);
        self.configs += other.configs;
        self.cores += other.cores;
        self.assignments += other.assignments;
        self.profile.add(&other.profile);
        for q in &other.queries {
            match self.queries.iter_mut().find(|c| c.qid == q.qid) {
                Some(c) => c.add(q),
                None => self.queries.push(q.clone()),
            }
        }
        self.queries.sort_by_key(|c| c.qid);
    }
}

/// Verdict of a verification.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Every run satisfies the property (conclusive only when `complete`).
    Holds,
    /// A counterexample pseudorun was found.
    Violated(CounterExample),
    /// The search budget was exhausted first.
    Unknown(Budget),
}

impl Verdict {
    /// True for [`Verdict::Holds`].
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }

    /// True for [`Verdict::Violated`].
    pub fn violated(&self) -> bool {
        matches!(self, Verdict::Violated(_))
    }
}

impl SearchResult {
    /// The verdict this outcome decides, or `None` when the search came
    /// out clean and the scan goes on to the next unit or core range.
    pub fn verdict(self) -> Option<Verdict> {
        match self {
            SearchResult::Clean => None,
            SearchResult::Violation(ce) => Some(Verdict::Violated(ce)),
            SearchResult::Exhausted(b) => Some(Verdict::Unknown(b)),
        }
    }
}

/// Name of the threads [`on_search_thread`] runs searches on.
const SEARCH_THREAD: &str = "wave-search";

/// Run `f` on a search thread: the nested DFS recurses once per
/// pseudorun step, so it needs a far larger stack than a default thread
/// has. On a search thread already, `f` runs inline, so a caller can keep
/// a whole check — prepare, search, replay — on one thread, and its
/// allocations in one allocator arena.
pub fn on_search_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    if std::thread::current().name() == Some(SEARCH_THREAD) {
        return f();
    }
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(SEARCH_THREAD.into())
            .stack_size(512 << 20)
            .spawn_scoped(scope, f)
            .expect("spawn search thread")
            .join()
            .expect("search thread panicked")
    })
}

/// Result of [`Verifier::check`].
#[derive(Clone, Debug)]
pub struct Verification {
    pub verdict: Verdict,
    pub stats: Stats,
    /// True when both spec and property are input-bounded — the regime in
    /// which wave is a complete verifier (Theorem 3.3 / 3.8).
    pub complete: bool,
}

/// Verification errors.
#[derive(Debug)]
pub enum VerifyError {
    Spec(CompileSpecError),
    Property(wave_fol::ParseError),
    /// More FO components than the automaton's 64-proposition guard limit.
    TooManyComponents(usize),
    Overflow(UniverseOverflow),
    Succ(SuccError),
    /// Checkpoint I/O failed or an adopted checkpoint turned out to be
    /// internally inconsistent (see [`crate::checkpoint`]).
    Checkpoint(String),
    /// The state store failed: the tiered set's spill directory cannot
    /// be created, or a spill, compaction or cold probe failed mid-search.
    Store(String),
    /// A worker running the unit panicked. The schedulers catch the
    /// unwind and record it as a failed outcome so one poisoned unit
    /// cannot take the orchestrator (or its sibling checks) down.
    Panic(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Spec(e) => write!(f, "{e}"),
            VerifyError::Property(e) => write!(f, "property: {e}"),
            VerifyError::TooManyComponents(n) => {
                write!(f, "property has {n} FO components (limit 64)")
            }
            VerifyError::Overflow(e) => write!(f, "{e}"),
            VerifyError::Succ(e) => write!(f, "{e}"),
            VerifyError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            VerifyError::Store(e) => write!(f, "{e}"),
            VerifyError::Panic(e) => write!(f, "worker panicked: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<CompileSpecError> for VerifyError {
    fn from(e: CompileSpecError) -> Self {
        VerifyError::Spec(e)
    }
}

impl From<SuccError> for VerifyError {
    fn from(e: SuccError) -> Self {
        match e {
            SuccError::Overflow(o) => VerifyError::Overflow(o),
            SuccError::Store(e) => VerifyError::Store(e.to_string()),
            other => VerifyError::Succ(other),
        }
    }
}

/// The wave verifier for one compiled specification.
pub struct Verifier {
    spec: CompiledSpec,
    options: VerifyOptions,
    /// The wave-flow slice (identity when `options.slice` is off),
    /// computed once and shared by every prepared check. The flow
    /// report is property-independent, so there is nothing per-check
    /// to recompute.
    slice: std::sync::Arc<crate::slice::SliceInfo>,
}

impl Verifier {
    /// Compile `spec` and build a verifier with default options.
    pub fn new(spec: Spec) -> Result<Verifier, VerifyError> {
        Verifier::with_options(spec, VerifyOptions::default())
    }

    /// Build with explicit options, running the flow analyses here.
    pub fn with_options(spec: Spec, options: VerifyOptions) -> Result<Verifier, VerifyError> {
        let compiled = CompiledSpec::compile(spec)?;
        let report = options.slice.then(|| wave_flow::analyze(&compiled.spec));
        Ok(Verifier::sliced(compiled, report.as_ref(), options))
    }

    /// Build with explicit options over `report`, the flow report of
    /// `spec` a front end already made (`wave_lint::FrontEnd`), so the
    /// slice costs no second analysis. Debug builds check the report.
    pub fn with_flow(
        spec: Spec,
        report: &FlowReport,
        options: VerifyOptions,
    ) -> Result<Verifier, VerifyError> {
        let compiled = CompiledSpec::compile(spec)?;
        #[cfg(debug_assertions)]
        crate::slice::check_report(&compiled.spec, report);
        Ok(Verifier::sliced(compiled, options.slice.then_some(report), options))
    }

    /// The verifier over `spec`, sliced by `flow` (identity without).
    fn sliced(mut spec: CompiledSpec, flow: Option<&FlowReport>, options: VerifyOptions) -> Self {
        let slice = match flow {
            Some(report) => crate::slice::SliceInfo::from_report(&mut spec, report),
            None => crate::slice::SliceInfo::full(&spec),
        };
        Verifier { spec, options, slice: std::sync::Arc::new(slice) }
    }

    /// The slice driving this verifier's searches (identity under
    /// `--no-slice`).
    pub fn slice(&self) -> &crate::slice::SliceInfo {
        &self.slice
    }

    /// The compiled specification (for inspection and experiment harnesses).
    pub fn spec(&self) -> &CompiledSpec {
        &self.spec
    }

    /// Options (read-only; schedulers build the shared budget pool from
    /// them).
    pub fn options(&self) -> &VerifyOptions {
        &self.options
    }

    /// Options (mutable, so harnesses can toggle heuristics between runs).
    /// `slice` is the one option that only takes effect at construction
    /// ([`Verifier::with_options`], [`Verifier::with_flow`]): the slice and
    /// mask narrowing are built once while compiling, so toggling it here
    /// is a no-op.
    pub fn options_mut(&mut self) -> &mut VerifyOptions {
        &mut self.options
    }

    /// Check a property given as LTL-FO source text.
    pub fn check_str(&self, property: &str) -> Result<Verification, VerifyError> {
        let prop = parse_property(property).map_err(VerifyError::Property)?;
        self.check(&prop)
    }

    /// Check a parsed property: returns `Holds`, `Violated` with a
    /// counterexample pseudorun, or `Unknown` on budget exhaustion. The
    /// unobserved wrapper of [`PreparedCheck::check`].
    pub fn check(&self, property: &Property) -> Result<Verification, VerifyError> {
        on_search_thread(|| self.prepare(property)?.check(&mut ()))
    }

    /// Compile `property` against the spec and decompose the check into
    /// independent work units (one per `C_∃` assignment). [`Verifier::check`]
    /// runs the units in order on one thread; the `wave-svc` scheduler
    /// distributes them (and core sub-ranges of large units) over a worker
    /// pool. Either way each unit's search is deterministic, so any
    /// schedule that respects unit order when reducing outcomes yields the
    /// sequential verdict.
    pub fn prepare(&self, property: &Property) -> Result<PreparedCheck<'_>, VerifyError> {
        let started = Instant::now();
        let spec = &self.spec;

        // step 1: φ_aux and the automaton for the NEGATED property
        let body = property.body.group_fo();
        let extraction = extract(&body);
        if extraction.components.len() > 64 {
            return Err(VerifyError::TooManyComponents(extraction.components.len()));
        }
        let negated = nnf(&extraction.aux, true);
        let buchi = Buchi::from_nnf(&negated, extraction.components.len());

        // completeness: spec and property both input-bounded
        let kinds = spec.kinds();
        let property_ib =
            extraction.components.iter().all(|f| check_input_bounded(f, &kinds).is_ok());
        let complete = spec.is_input_bounded() && property_ib;

        // session symbols: spec constants + property constants + params + pools
        let mut symbols = spec.symbols.clone();
        let mut c_values: Vec<Value> = spec.constants.clone();
        for f in &extraction.components {
            for c in fo_constants(f) {
                let v = symbols.constant(&c);
                if !c_values.contains(&v) {
                    c_values.push(v);
                }
            }
        }
        let params: Vec<Value> =
            (0..property.univ_vars.len()).map(|i| symbols.constant(&format!("?{i}"))).collect();
        let pools = build_pools(spec, &mut symbols);

        // step 2: C_∃ assignments (relevance-reduced)
        let flow0 = analyze(&spec.spec, &extraction.components);
        let relevant =
            relevant_constants(&property.univ_vars, &extraction.components, &flow0, &symbols);
        let all_assignments =
            assignments(&property.univ_vars, &relevant, &params, self.options.param_mode);

        // relevance pruning: the relations a property mentions do not
        // depend on the parameter instantiation, so compute once
        let visibility = Visibility::compute(spec, &extraction.components);

        Ok(PreparedCheck {
            verifier: self,
            buchi,
            components: extraction.components,
            symbols,
            base_c_values: c_values,
            pools,
            assignments: all_assignments,
            visibility,
            slice: std::sync::Arc::clone(&self.slice),
            complete,
            started,
        })
    }

    /// Instantiate the property components under one assignment and run the
    /// per-assignment dataflow analysis.
    fn instantiate(
        &self,
        assignment: &Assignment,
        base_c: &[Value],
        components: &[Formula],
        symbols: &wave_relalg::SymbolTable,
    ) -> (Vec<Value>, Vec<Formula>, wave_spec::Dataflow) {
        let subst = assignment.substitution(symbols);
        let instantiated: Vec<Formula> = components.iter().map(|f| f.substitute(&subst)).collect();
        let mut c_values = base_c.to_vec();
        for v in assignment.c_exists() {
            if !c_values.contains(&v) {
                c_values.push(v);
            }
        }
        let flow = analyze(&self.spec.spec, &instantiated);
        (c_values, instantiated, flow)
    }

    /// Re-validate a counterexample returned by [`Verifier::check`] for
    /// `property`: [`Verifier::prepare`] and [`PreparedCheck::replay`].
    pub fn validate_counterexample(
        &self,
        property: &Property,
        ce: &CounterExample,
    ) -> Result<(), crate::replay::ReplayError> {
        self.prepare(property).map_err(crate::replay::ReplayError::Prepare)?.replay(ce)
    }

    /// Render a counterexample for human consumption.
    pub fn render_counterexample(&self, ce: &CounterExample) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let symbols = &self.spec.symbols;
        let facts = |facts: &crate::config::Facts| -> String {
            facts
                .iter()
                .map(|(rel, t)| {
                    let vals: Vec<String> = t
                        .values()
                        .iter()
                        .map(|&v| {
                            if v.index() < symbols.len() {
                                symbols.display(v)
                            } else {
                                format!("~{}", v.0)
                            }
                        })
                        .collect();
                    format!("{}({})", self.spec.schema.name(*rel), vals.join(", "))
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        for (i, step) in ce.steps.iter().enumerate() {
            let marker = if i == ce.cycle_start { "↻ " } else { "  " };
            let page = &self.spec.page(step.config.page).name;
            let _ = writeln!(
                out,
                "{marker}step {i}: page {page}  input[{}]  state[{}]  actions[{}]",
                facts(&step.config.input),
                facts(&step.config.state),
                facts(&step.config.actions),
            );
        }
        let _ = writeln!(out, "  (cycle repeats from step {})", ce.cycle_start);
        out
    }
}

/// One property compiled against one spec, decomposed into independent
/// work units. Unit `i` is the search over all Heuristic-1 cores of the
/// `i`-th `C_∃` assignment; [`PreparedCheck::run_unit`] can further
/// restrict a unit to a sub-range of its cores, so a scheduler can split
/// a large unit across workers. All fields are immutable shared state —
/// the type is `Sync` and units may run concurrently on scoped threads.
pub struct PreparedCheck<'v> {
    pub(crate) verifier: &'v Verifier,
    buchi: Buchi,
    /// Uninstantiated FO components of the property.
    components: Vec<Formula>,
    symbols: SymbolTable,
    /// `C_W` plus the property's own constants (before `C_∃`).
    base_c_values: Vec<Value>,
    pools: Vec<crate::domain::PagePool>,
    assignments: Vec<Assignment>,
    visibility: Visibility,
    slice: std::sync::Arc<crate::slice::SliceInfo>,
    /// Both spec and property are input-bounded (Theorem 3.3 / 3.8).
    pub complete: bool,
    /// When [`Verifier::prepare`] began: the sequential drivers time the
    /// check, and start its wall-clock budget, from here.
    pub(crate) started: Instant,
}

/// What one work unit produced: the search outcome over the scanned
/// cores, plus that unit's share of the measurement columns.
#[derive(Clone, Debug)]
pub struct UnitOutcome {
    pub result: SearchResult,
    pub stats: Stats,
}

impl PreparedCheck<'_> {
    /// Number of independent work units (`C_∃` assignments).
    pub fn num_units(&self) -> usize {
        self.assignments.len()
    }

    /// The slice driving this check's searches (identity under
    /// `--no-slice`).
    pub fn slice(&self) -> &crate::slice::SliceInfo {
        &self.slice
    }

    /// The sequential driver: run the units in order, each in a `unit:N`
    /// frame, stopping at the first violation or exhausted budget, with
    /// `obs` watching (`()` is the quiet observer). The nested DFS
    /// recurses once per pseudorun step, so the search runs on a
    /// dedicated thread with a large stack.
    pub fn check<O: Observer + Send>(&self, obs: &mut O) -> Result<Verification, VerifyError> {
        on_search_thread(|| {
            // one shared pool for the whole check: each unit draws on
            // whatever the previous units left in it
            let options = &self.verifier.options;
            let limits = SearchLimits {
                pool: options.budget_pool(self.started),
                cancel: options.cancel.clone(),
            };
            let mut stats = Stats::default();
            let mut verdict = Verdict::Holds;
            for unit in 0..self.num_units() {
                let outcome = obs.framed("unit", unit as u64, |obs| {
                    self.run_unit_in(unit, None, &limits, &mut self.new_store()?, obs)
                })?;
                stats.merge(&outcome.stats);
                if let Some(decided) = outcome.result.verdict() {
                    verdict = decided;
                    break;
                }
            }
            stats.elapsed = self.started.elapsed();
            Ok(self.settle(verdict, stats))
        })
    }

    /// The check's [`Verification`] from the merged unit statistics:
    /// stamps the per-check slice counters, which units leave at zero
    /// (so no merge can multiply-count them). Every driver settles here.
    pub fn settle(&self, verdict: Verdict, mut stats: Stats) -> Verification {
        stats.profile.slice_rules_removed = self.slice.rules_removed;
        stats.profile.slice_relations_removed = self.slice.relations_removed;
        stats.profile.flow_dead_rules = self.slice.dead_rules;
        Verification { verdict, stats, complete: self.complete }
    }

    /// Re-validate a counterexample this check produced: replay every
    /// step against the successor relation and the property automaton
    /// (the Section 7 genuineness check). `Ok(())` when the pseudorun is
    /// a faithful violating lasso.
    pub fn replay(&self, ce: &CounterExample) -> Result<(), crate::replay::ReplayError> {
        let assignment = Assignment { values: ce.assignment.clone() };
        let (c_values, components, flow) = self.verifier.instantiate(
            &assignment,
            &self.base_c_values,
            &self.components,
            &self.symbols,
        );
        let mut sorted_c = c_values;
        sorted_c.sort_unstable();
        let ctx = self.core_ctx(&flow, &sorted_c, &[], &ce.core, false);
        crate::replay::replay(&ctx, &self.buchi, &components, ce)
    }

    /// A fresh state store of the configured kind, for one unit.
    pub(crate) fn new_store(&self) -> Result<StateStore, VerifyError> {
        StateStore::new(&self.verifier.options.state_store)
            .map_err(|e| VerifyError::Store(e.to_string()))
    }

    /// The `C_∃` assignment a unit instantiates.
    pub fn assignment(&self, unit: usize) -> &Assignment {
        &self.assignments[unit]
    }

    /// Number of database cores unit `unit` scans (for split decisions).
    pub fn core_count(&self, unit: usize) -> Result<u64, VerifyError> {
        let (ctx_c_values, _, flow) = self.instantiate(unit);
        let cores = core_universe(
            &self.verifier.spec,
            &flow,
            &self.symbols,
            &ctx_c_values,
            self.verifier.options.heuristic1,
        )
        .map_err(VerifyError::Overflow)?;
        Ok(cores.subset_count())
    }

    fn instantiate(&self, unit: usize) -> (Vec<Value>, Vec<Formula>, Dataflow) {
        self.verifier.instantiate(
            &self.assignments[unit],
            &self.base_c_values,
            &self.components,
            &self.symbols,
        )
    }

    /// Compile instantiated components against the session symbol
    /// table; component `i` gets query id `num_queries + i`.
    fn compile_components(&self, instantiated: &[Formula]) -> Vec<CompiledComponent> {
        let spec = &self.verifier.spec;
        instantiated
            .iter()
            .zip(spec.num_queries..)
            .map(|(f, qid)| spec.compile_component(f, &self.symbols, qid))
            .collect()
    }

    /// Unit `unit`'s FO components, instantiated and compiled as its
    /// search evaluates them.
    pub fn components(&self, unit: usize) -> Vec<CompiledComponent> {
        self.compile_components(&self.instantiate(unit).1)
    }

    /// `(compiled to plans, interpreted)` counts over unit `unit`'s
    /// components — the component analogue of
    /// [`CompiledSpec::plan_coverage`].
    pub fn component_coverage(&self, unit: usize) -> (usize, usize) {
        let components = self.components(unit);
        let plans = components.iter().filter(|c| matches!(c.exec, TargetExec::Plan(_))).count();
        (plans, components.len() - plans)
    }

    /// The search context over one database core of a unit, given the
    /// unit's dataflow, its sorted constant set `C` and its compiled
    /// components; `profiled` turns on the engine's per-query costs.
    fn core_ctx<'c>(
        &'c self,
        flow: &'c Dataflow,
        c_values: &[Value],
        components: &[CompiledComponent],
        core: &Facts,
        profiled: bool,
    ) -> SearchCtx<'c> {
        let spec = &self.verifier.spec;
        let options = &self.verifier.options;
        let base = core_instance(spec, core);
        let engine = QueryEngine::build_profiled(
            spec,
            &base,
            components,
            options.use_plans && !options.naive_joins,
            profiled,
        );
        SearchCtx {
            spec,
            symbols: &self.symbols,
            pools: &self.pools,
            flow,
            c_values: c_values.to_vec(),
            base,
            pruning: options.pruning,
            heuristic2: options.heuristic2,
            use_plans: options.use_plans,
            visibility: self.visibility.clone(),
            slice: std::sync::Arc::clone(&self.slice),
            engine,
        }
    }

    /// Run one work unit: scan the cores of assignment `unit` (all of
    /// them, or the bitmap-counter sub-range `cores`) in deterministic
    /// order, stopping at the first violation or budget exhaustion.
    ///
    /// The scan is a pure function of `(unit, cores)` and the verifier
    /// options — two runs over the same range produce byte-identical
    /// outcomes, which is what lets a parallel schedule reproduce the
    /// sequential verdict exactly. The unobserved wrapper of
    /// [`PreparedCheck::run_unit_in`], over a fresh store.
    pub fn run_unit(
        &self,
        unit: usize,
        cores: Option<Range<u64>>,
        limits: &SearchLimits,
    ) -> Result<UnitOutcome, VerifyError> {
        self.run_unit_in(unit, cores, limits, &mut self.new_store()?, &mut ())
    }

    /// The core scan over an explicit state store (one store per unit:
    /// the interned arena is shared by all its cores, the visited set is
    /// cleared between cores), with `obs` watching; each core runs in a
    /// `core:B` frame. Public so drivers that must keep one store alive
    /// across several core-range chunks of the same unit — the
    /// checkpoint driver in [`crate::checkpoint`] — can run the chunks
    /// without re-interning the arena from scratch each time.
    pub fn run_unit_in<O: Observer>(
        &self,
        unit: usize,
        cores: Option<Range<u64>>,
        limits: &SearchLimits,
        store: &mut StateStore,
        obs: &mut O,
    ) -> Result<UnitOutcome, VerifyError> {
        let start = Instant::now();
        let spec = &self.verifier.spec;
        let options = &self.verifier.options;
        let assignment = &self.assignments[unit];
        let (ctx_c_values, components, flow) = self.instantiate(unit);
        let components = self.compile_components(&components);

        // step 3: Heuristic-1 cores
        let universe = core_universe(spec, &flow, &self.symbols, &ctx_c_values, options.heuristic1)
            .map_err(VerifyError::Overflow)?;
        let range = match cores {
            Some(r) => r.start.min(universe.subset_count())..r.end.min(universe.subset_count()),
            None => 0..universe.subset_count(),
        };

        let mut sorted_c = ctx_c_values.clone();
        sorted_c.sort_unstable();
        // when a unit is split into core ranges, the range starting at
        // bitmap 0 owns the unit's entry in the assignment count, so the
        // chunked merge still counts each C_∃ assignment once
        let mut stats = Stats { assignments: u64::from(range.start == 0), ..Stats::default() };
        let mut result = SearchResult::Clean;
        // the store may be shared across several calls (checkpoint
        // chunks), so tier counters fold as deltas from this baseline
        let mut tier_base = store.tier_counters();

        for bitmap in range {
            if limits.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                result = SearchResult::Exhausted(Budget::Cancelled);
                break;
            }
            let core = universe.decode(bitmap);
            stats.cores += 1;
            if O::EVENTS {
                obs.event(TraceEvent::Core { unit: unit as u32, core: bitmap });
            }
            store.clear_visits();
            let ctx = self.core_ctx(&flow, &sorted_c, &components, &core, O::SPANS);
            // every core's search leases from the same shared pool, so
            // no per-core budget arithmetic is needed here
            let (search_result, search_stats) = obs.framed("core", bitmap, |obs| {
                Ndfs::new(&ctx, &self.buchi, &components, store, obs, limits.clone()).run()
            })?;
            stats.max_run_len = stats.max_run_len.max(search_stats.max_run_len);
            stats.configs += search_stats.configs;
            stats.max_trie = stats.max_trie.max(store.max_visited());
            let (resident, spilled) = store.visited_breakdown();
            stats.max_resident = stats.max_resident.max(resident);
            stats.max_spilled = stats.max_spilled.max(spilled);
            let tier = store.tier_counters();
            if tier != tier_base {
                stats.profile.spill_pairs += tier.spill_pairs - tier_base.spill_pairs;
                stats.profile.spill_segments += tier.spill_segments - tier_base.spill_segments;
                stats.profile.spill_compactions += tier.compactions - tier_base.compactions;
                stats.profile.bloom_skips += tier.bloom_skips - tier_base.bloom_skips;
                stats.profile.cold_probes += tier.cold_probes - tier_base.cold_probes;
                if O::EVENTS && tier.spill_pairs > tier_base.spill_pairs {
                    obs.event(TraceEvent::Spill {
                        unit: unit as u32,
                        core: bitmap,
                        pairs: tier.spill_pairs - tier_base.spill_pairs,
                        segments: tier.spill_segments - tier_base.spill_segments,
                        compactions: tier.compactions - tier_base.compactions,
                    });
                }
                if O::EVENTS && tier.compactions > tier_base.compactions {
                    obs.event(TraceEvent::Compact {
                        unit: unit as u32,
                        core: bitmap,
                        compactions: tier.compactions - tier_base.compactions,
                        segments: tier.spill_segments - tier_base.spill_segments,
                    });
                }
                tier_base = tier;
            }
            stats.profile.add(&search_stats.profile);
            stats.profile.memo_hits += ctx.engine.memo_hits();
            stats.profile.memo_misses += ctx.engine.memo_misses();
            stats.profile.join_builds += ctx.engine.join_builds();
            if O::EVENTS {
                let (hits, misses) = (ctx.engine.memo_hits(), ctx.engine.memo_misses());
                if hits + misses > 0 {
                    obs.event(TraceEvent::Memo {
                        unit: unit as u32,
                        core: bitmap,
                        hits,
                        misses,
                        evictions: ctx.engine.memo_evictions(),
                    });
                }
                let builds = ctx.engine.join_builds();
                if builds > 0 {
                    obs.event(TraceEvent::JoinBuild { unit: unit as u32, core: bitmap, builds });
                }
            }
            if O::SPANS {
                for q in ctx.engine.query_costs() {
                    match stats.queries.iter_mut().find(|c| c.qid == q.qid) {
                        Some(c) => c.add(&q),
                        None => stats.queries.push(q),
                    }
                }
            }
            match search_result {
                SearchResult::Clean => {}
                SearchResult::Violation(mut ce) => {
                    stats.max_run_len = ce.steps.len().max(stats.max_run_len);
                    ce.core = core;
                    ce.assignment = assignment.values.clone();
                    result = SearchResult::Violation(ce);
                    break;
                }
                SearchResult::Exhausted(b) => {
                    result = SearchResult::Exhausted(b);
                    break;
                }
            }
        }

        stats.elapsed = start.elapsed();
        stats.queries.sort_by_key(|c| c.qid);
        Ok(UnitOutcome { result, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_spec::parse_spec;

    /// Two pages; the user may click "go" to move A → B, B always returns
    /// to A. Staying on A forever (never clicking) is a valid run.
    fn pingpong() -> Verifier {
        Verifier::new(
            parse_spec(
                r#"
            spec pingpong {
              inputs { button(x); }
              home A;
              page A {
                inputs { button }
                options button(x) <- x = "go";
                target B <- button("go");
              }
              page B { target A <- true; }
            }
        "#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    /// A login application: `logged` is set only on a correct password,
    /// and the greet action fires only for logged users.
    fn login() -> Verifier {
        Verifier::new(
            parse_spec(
                r#"
            spec login {
              database { user(n, p); }
              state { logged(u); }
              action { greet(u); }
              inputs { button(x); constant uname; constant pass; }
              home HP;
              page HP {
                inputs { button, uname, pass }
                options button(x) <- x = "login";
                insert logged(u) <- uname(u) & (exists q: pass(q) & user(u, q))
                                    & button("login");
                # the transition checks the credentials directly: state
                # atoms may not carry input-bounded variables (Section 2.1)
                target CP <- exists u: uname(u) & (exists q: pass(q) & user(u, q))
                             & button("login");
              }
              page CP {
                inputs { button }
                options button(x) <- x = "logout";
                action greet(u) <- logged(u) & button("logout");
                delete logged(u) <- logged(u) & button("logout");
                target HP <- button("logout");
              }
            }
        "#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn start_page_property_holds() {
        let v = pingpong().check_str("@A").unwrap();
        assert!(v.verdict.holds(), "{v:?}");
        assert!(v.complete);
    }

    #[test]
    fn transitions_are_constrained() {
        let v = pingpong().check_str("G (@A -> X (@A | @B))").unwrap();
        assert!(v.verdict.holds(), "{v:?}");
        // and the too-strong variant is refuted
        let v2 = pingpong().check_str("G (@A -> X @B)").unwrap();
        assert!(v2.verdict.violated(), "{v2:?}");
    }

    #[test]
    fn eventually_b_is_violated_by_the_idle_run() {
        // the user may never click: F @B does not hold on all runs
        let v = pingpong().check_str("F @B").unwrap();
        match &v.verdict {
            Verdict::Violated(ce) => {
                // counterexample: an A-loop with no "go" click
                assert!(ce.cycle_start < ce.steps.len());
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn b_page_always_returns() {
        let v = pingpong().check_str("G (@B -> X @A)").unwrap();
        assert!(v.verdict.holds(), "{v:?}");
    }

    #[test]
    fn b_is_reachable() {
        // "G !@B" must be violated: some run does reach B
        let v = pingpong().check_str("G !@B").unwrap();
        assert!(v.verdict.violated(), "{v:?}");
    }

    #[test]
    fn greet_only_after_login() {
        // whenever greet(u) fires, logged(u) holds — a data-aware check
        // beyond propositional abstraction (Section 1's motivation)
        let v = login().check_str("forall u: G (greet(u) -> logged(u))").unwrap();
        assert!(v.verdict.holds(), "{v:?}");
        assert!(v.complete, "login spec and property are input-bounded");
    }

    #[test]
    fn credentials_strictly_precede_customer_page() {
        // reaching CP requires a uname input at the strictly earlier step
        let v = login().check_str("(exists u: uname(u)) B @CP").unwrap();
        assert!(v.verdict.holds(), "{v:?}");
    }

    #[test]
    fn before_operator_allows_simultaneity() {
        // logged(u) and greet(u) can first hold at the same step (greet
        // fires on the logout click that reads the freshly set state);
        // the paper's non-strict B accepts that, so the property holds
        let v = login().check_str("forall u: logged(u) B greet(u)").unwrap();
        assert!(v.verdict.holds(), "{v:?}");
        // …but an input strictly after cannot precede: greet before logged
        // is refuted (greet implies logged at the same step, logged can
        // hold without greet earlier — pick a claim that must fail):
        let v2 = login().check_str("(exists u: greet(u)) B @CP").unwrap();
        assert!(v2.verdict.violated(), "greet cannot precede reaching CP: {v2:?}");
    }

    #[test]
    fn customer_page_reachable_only_via_login() {
        // some run reaches CP (the verifier must synthesize a database
        // where user(~uname, ~pass) exists)
        let v = login().check_str("G !@CP").unwrap();
        assert!(v.verdict.violated(), "{v:?}");
    }

    #[test]
    fn wrong_claim_greet_never_fires_is_refuted() {
        let v = login().check_str("forall u: G !greet(u)").unwrap();
        assert!(v.verdict.violated(), "{v:?}");
    }

    #[test]
    fn heuristics_do_not_change_verdicts_on_mini_specs() {
        for property in ["F @B", "G (@A -> X (@A | @B))", "G !@B"] {
            let baseline = pingpong().check_str(property).unwrap();
            for (h1, h2) in [(false, true), (true, false), (false, false)] {
                let mut verifier = pingpong();
                verifier.options_mut().heuristic1 = h1;
                verifier.options_mut().heuristic2 = h2;
                let v = verifier.check_str(property).unwrap();
                assert_eq!(
                    baseline.verdict.holds(),
                    v.verdict.holds(),
                    "{property} with h1={h1} h2={h2}"
                );
            }
        }
    }

    #[test]
    fn interpreter_and_plans_agree() {
        for property in ["forall u: G (greet(u) -> logged(u))", "G !@CP"] {
            let with_plans = login().check_str(property).unwrap();
            let mut verifier = login();
            verifier.options_mut().use_plans = false;
            let interp = verifier.check_str(property).unwrap();
            assert_eq!(with_plans.verdict.holds(), interp.verdict.holds(), "{property}");
        }
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut verifier = login();
        verifier.options_mut().max_steps = Some(1);
        let v = verifier.check_str("forall u: G (greet(u) -> logged(u))").unwrap();
        assert!(matches!(v.verdict, Verdict::Unknown(_)), "{v:?}");
    }

    #[test]
    fn unusable_spill_dir_is_a_store_error() {
        // a regular file where the tiered set wants its spill directory
        let file = std::env::temp_dir().join(format!("wave-verify-spill-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let mut verifier = pingpong();
        verifier.options_mut().state_store = StateStoreKind::Tiered(crate::TierParams {
            mem_bytes: 0,
            spill_dir: Some(file.clone()),
        });
        let result = verifier.check_str("F @B");
        std::fs::remove_file(&file).unwrap();
        match result {
            Err(VerifyError::Store(msg)) => {
                assert!(msg.starts_with("tiered store: cannot create spill dir: "), "{msg}")
            }
            other => panic!("expected a store error, got {other:?}"),
        }
    }

    /// Unlinks the spill directory when the first core starts, so the
    /// search's first spill has nowhere to go.
    struct UnlinkSpillDir(std::path::PathBuf);

    impl Observer for UnlinkSpillDir {
        const EVENTS: bool = true;

        fn event(&mut self, event: TraceEvent) {
            if matches!(event, TraceEvent::Core { .. }) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn a_failed_spill_ends_the_search_with_a_store_error() {
        let dir = std::env::temp_dir().join(format!("wave-verify-unlinked-{}", std::process::id()));
        let property = "forall x: G (bought(x) -> incart(x))";
        let mut verifier = cart();
        verifier.options_mut().state_store = StateStoreKind::Tiered(crate::TierParams {
            mem_bytes: 0,
            spill_dir: Some(dir.clone()),
        });
        let spilled = verifier.check_str(property).unwrap().stats.max_spilled;
        assert!(spilled > 0, "the check must spill for the test to mean anything");
        let prepared = verifier.prepare(&parse_property(property).unwrap()).unwrap();
        let result = prepared.check(&mut UnlinkSpillDir(dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Err(VerifyError::Store(msg)) => {
                assert!(msg.starts_with("tiered store: spill to "), "{msg}");
                assert!(msg.contains(&dir.display().to_string()), "names the spill path: {msg}");
            }
            other => panic!("expected a store error, got {other:?}"),
        }
    }

    #[test]
    fn exhaustive_equality_mode_agrees_here() {
        let mut verifier = login();
        verifier.options_mut().param_mode = ParamMode::ExhaustiveEquality;
        let v = verifier.check_str("forall u: G (greet(u) -> logged(u))").unwrap();
        assert!(v.verdict.holds(), "{v:?}");
    }

    #[test]
    fn counterexample_renders() {
        let verifier = pingpong();
        let v = verifier.check_str("G !@B").unwrap();
        let Verdict::Violated(ce) = &v.verdict else { panic!("expected violation") };
        let text = verifier.render_counterexample(ce);
        assert!(text.contains("page A"), "{text}");
        assert!(text.contains("cycle repeats"), "{text}");
    }

    /// Reads the previous input in a delete rule, and emits an action
    /// that the properties below mention — so previous inputs, deletes
    /// and actions all reach the step key or the successor list.
    fn cart() -> Verifier {
        Verifier::new(
            parse_spec(
                r#"
            spec cart {
              database { item(x); }
              state { incart(x); }
              action { bought(x); }
              inputs { pick(x); button(x); }
              home A;
              page A {
                inputs { pick, button }
                options pick(x) <- item(x);
                options button(x) <- x = "add";
                options button(x) <- x = "drop";
                options button(x) <- x = "buy";
                insert incart(x) <- pick(x) & button("add");
                delete incart(x) <- prev pick(x) & button("drop");
                action bought(x) <- incart(x) & button("buy");
                target B <- button("buy") & (exists x: incart(x));
              }
              page B {
                inputs { button }
                options button(x) <- x = "back";
                target A <- button("back");
              }
            }
        "#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    /// Visit every configuration reachable over every core of every unit
    /// breadth-first with the uncached `succP`, group the configurations
    /// by step key, and check that a key always yields the same successor
    /// list — the invariant that lets the search share one interned list
    /// per key. Returns how many configurations met an already-seen key.
    fn assert_step_key_invariant(verifier: &Verifier, property: &str) -> usize {
        use crate::config::PseudoConfig;
        use crate::succ::{EvalState, StepKey};
        use std::collections::{HashMap, HashSet, VecDeque};

        let prepared = verifier.prepare(&parse_property(property).unwrap()).unwrap();
        let mut repeats = 0;
        for unit in 0..prepared.num_units() {
            let (c_values, components, flow) = prepared.instantiate(unit);
            let components = prepared.compile_components(&components);
            let mut sorted_c = c_values.clone();
            sorted_c.sort_unstable();
            let universe =
                core_universe(&verifier.spec, &flow, &prepared.symbols, &c_values, true).unwrap();
            for bitmap in 0..universe.subset_count() {
                let core = universe.decode(bitmap);
                let ctx = prepared.core_ctx(&flow, &sorted_c, &components, &core, false);
                let mut prof = SearchProfile::default();
                let mut queue: VecDeque<PseudoConfig> =
                    ctx.initial_configs(&mut prof, &mut ()).unwrap().into();
                let mut seen: HashSet<PseudoConfig> = HashSet::new();
                let mut lists: HashMap<StepKey, Vec<PseudoConfig>> = HashMap::new();
                while let Some(cfg) = queue.pop_front() {
                    if !seen.insert(cfg.clone()) {
                        continue;
                    }
                    let succs = ctx.successors(&cfg, &mut prof, &mut ()).unwrap();
                    let key = ctx.step(&EvalState::new(&ctx, &cfg), &mut prof, &mut ()).unwrap();
                    match lists.get(&key) {
                        Some(first) => {
                            assert_eq!(first, &succs, "{property}: step key {key:?}");
                            repeats += 1;
                        }
                        None => {
                            lists.insert(key, succs.clone());
                        }
                    }
                    queue.extend(succs);
                }
            }
        }
        repeats
    }

    #[test]
    fn configurations_with_one_step_key_share_their_successors() {
        let cases: [(Verifier, &str); 6] = [
            (pingpong(), "G (@A -> X (@A | @B))"),
            (login(), "forall u: G (greet(u) -> logged(u))"),
            (login(), "G !@CP"),
            (Verifier::new(super::replay_tests::spec()).unwrap(), "forall x: G !seen(x)"),
            (cart(), "forall x: G (bought(x) -> incart(x))"),
            (cart(), "forall x: G (prev pick(x) -> F bought(x))"),
        ];
        for (verifier, property) in &cases {
            let repeats = assert_step_key_invariant(verifier, property);
            assert!(repeats > 0, "{property}: no two configurations shared a step key");
        }
    }

    #[test]
    fn non_input_bounded_property_marks_incomplete() {
        // quantifier over a database relation
        let v = login().check_str("G (forall u, q: user(u, q) -> logged(u)) | true").unwrap();
        assert!(!v.complete);
        assert!(v.verdict.holds(), "trivially true property");
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use wave_ltl::parse_property;
    use wave_spec::parse_spec;

    pub(super) fn spec() -> wave_spec::Spec {
        parse_spec(
            r#"
            spec replaytest {
              database { stock(item); }
              state { seen(item); }
              inputs { pick(x); button(x); }
              home A;
              page A {
                inputs { pick, button }
                options button(x) <- x = "go";
                options pick(x) <- stock(x);
                insert seen(x) <- pick(x) & button("go");
                target B <- (exists x: pick(x)) & button("go");
              }
              page B { target A <- true; }
            }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn counterexamples_replay_cleanly() {
        let verifier = Verifier::new(spec()).unwrap();
        for text in ["G !@B", "F @B", "forall x: G !seen(x)"] {
            let prop = parse_property(text).unwrap();
            let v = verifier.check(&prop).unwrap();
            let Verdict::Violated(ce) = &v.verdict else { panic!("{text}: expected a violation") };
            verifier
                .validate_counterexample(&prop, ce)
                .unwrap_or_else(|e| panic!("{text}: replay failed: {e}"));
        }
    }

    #[test]
    fn tampered_counterexamples_are_rejected() {
        let verifier = Verifier::new(spec()).unwrap();
        let prop = parse_property("G !@B").unwrap();
        let v = verifier.check(&prop).unwrap();
        let Verdict::Violated(ce) = v.verdict else { panic!("expected violation") };

        // flip an assignment bit
        let mut bad = ce.clone();
        bad.steps[0].assignment ^= 1;
        assert!(matches!(
            verifier.validate_counterexample(&prop, &bad),
            Err(crate::replay::ReplayError::AssignmentMismatch { .. })
        ));

        // break the cycle index
        let mut bad = ce.clone();
        bad.cycle_start = bad.steps.len();
        assert!(matches!(
            verifier.validate_counterexample(&prop, &bad),
            Err(crate::replay::ReplayError::BadCycleStart { .. })
        ));

        // inject a fact that no successor computation could produce: the
        // tampered configuration is not a successor of its predecessor
        // (and is not a start configuration if it is step 0)
        let mut bad = ce;
        let last = bad.steps.len() - 1;
        let seen = verifier.spec().schema.lookup("seen").unwrap();
        bad.steps[last].config.state = std::sync::Arc::new(crate::config::canonicalize(
            bad.steps[last]
                .config
                .state
                .iter()
                .cloned()
                .chain(std::iter::once((
                    seen,
                    wave_relalg::Tuple::from([wave_relalg::Value(9999)]),
                )))
                .collect(),
        ));
        let result = verifier.validate_counterexample(&prop, &bad);
        assert!(result.is_err(), "tampered run must not replay");
    }
}
