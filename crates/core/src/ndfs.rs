//! The nested depth-first search over pseudoruns (`ndfs-pseudo`,
//! Section 3.1 of the paper).
//!
//! The search synchronizes the pseudorun construction with the Büchi
//! automaton `A_{¬φ_aux}`: at each node it evaluates the property's
//! instantiated FO components on the current pseudoconfiguration to obtain
//! a truth assignment (as memoized plans through [`SearchCtx`]'s query
//! engine wherever they compile), follows every automaton transition
//! whose guard is satisfied, and pairs it with every `succP` successor.
//! The outer search (`stick`) looks for a path to an accepting automaton
//! state; whenever it crosses one it launches the nested search (`candy`)
//! for a cycle back — the "lollipop" witnessing an accepted, hence
//! property-violating, pseudorun.
//!
//! Configurations are interned once into the [`StateStore`]: the
//! successor cache is keyed by [`ConfigId`], and the visited set by the
//! packed `(ConfigId, automaton state)` pair ([`VisitTable::key`]).
//! Traversal order, verdicts and counterexamples do not depend on where
//! the store keeps its visited marks.
//!
//! Successor lists are shared by step key. `succP`'s page expansion
//! reads only the `StepKey` its first three steps produce (target
//! page, new state, previous input), and a search meets far fewer keys
//! than configurations. Each core keeps one interned list per key, built
//! the first time the key is seen; every later configuration with that
//! key runs only the three steps and takes the same `Rc`. A later
//! expansion would have interned the very same configurations, all
//! already known, so `ConfigId`s are assigned in the same order as without
//! the sharing.
//!
//! The phase profile reads the clock around `succP`, interning and FO
//! evaluation, and once at each end of [`Ndfs::run`]. The rest of the
//! run is the nested DFS's own work — visited-set probes, the path, Büchi
//! transition selection, expansion-cache lookups — and is charged to
//! `visit_ns` as the residual, so the profile sums to the run's wall time
//! without a clock read per probe.

use crate::budget::{BudgetPool, StepLease};
use crate::cancel::CancelToken;
use crate::config::PseudoConfig;
use crate::intern::ConfigId;
use crate::profile::SearchProfile;
use crate::store::StateStore;
use crate::succ::{EvalState, SearchCtx, StepKey, SuccError};
use crate::trie::{MixState, Phase, VisitTable};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use wave_ltl::Buchi;
use wave_obs::{Observer, TraceEvent, NO_INDEX};
use wave_spec::CompiledComponent;

/// One step of a counterexample pseudorun.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStep {
    pub auto_state: usize,
    pub config: PseudoConfig,
    /// Truth assignment of the FO components at this step.
    pub assignment: u64,
}

/// A counterexample: a lasso-shaped pseudorun. Steps `0..cycle_start` form
/// the prefix, `cycle_start..` the infinitely repeated cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterExample {
    pub steps: Vec<TraceStep>,
    pub cycle_start: usize,
    /// The fixed database core the pseudorun was generated over.
    pub core: crate::config::Facts,
    /// The `C_∃` assignment of the property's universal variables.
    pub assignment: Vec<(String, wave_relalg::Value)>,
}

/// Why a search stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Budget {
    /// The configured global `--max-steps` limit was exhausted.
    Steps(u64),
    /// The wall-clock deadline passed; carries the *actual* elapsed time
    /// of the check when the search gave up.
    Time(std::time::Duration),
    /// A [`CancelToken`] was raised (e.g. a sibling work unit of the
    /// parallel scheduler already produced the verdict).
    Cancelled,
}

/// Bounds on one search: the check's shared [`BudgetPool`] (step
/// allowance plus wall-clock deadline) and a cooperative cancellation
/// token. Every search of a check — across units, cores, and worker
/// threads — holds a handle on the *same* pool, so the step budget is
/// global to the check rather than copied per search.
#[derive(Clone, Debug, Default)]
pub struct SearchLimits {
    pub pool: Option<Arc<BudgetPool>>,
    pub cancel: Option<CancelToken>,
}

/// Search statistics, matching the paper's experiment columns, plus the
/// per-phase profile.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Maximum pseudorun length reached (paper: "Max run length").
    pub max_run_len: usize,
    /// Configurations generated by `succP`.
    pub configs: u64,
    /// Automaton-transition × successor pairs explored.
    pub expansions: u64,
    /// Where the time went (see [`SearchProfile`]).
    pub profile: SearchProfile,
}

/// An interned successor: its id plus the canonical configuration.
type Succ = (ConfigId, PseudoConfig);

/// One interned successor list, shared by every configuration whose
/// `succP` step yields the same [`StepKey`].
type SuccList = Rc<Vec<Succ>>;

/// Cached expansion of one configuration: its FO-component assignment and
/// its (shared) successor list.
type Expansion = (u64, SuccList);

/// Entry bound of the per-core caches; a full cache is cleared, which
/// bounds memory without affecting correctness.
const CACHE_BOUND: usize = 200_000;

/// A step's successor list: shared from an earlier configuration with
/// the same key, or freshly generated (to be interned under the key).
enum Listed {
    Shared(SuccList),
    Fresh(StepKey, Vec<PseudoConfig>),
}

/// The nested DFS engine for one core, generic over its [`Observer`].
/// Every emission site is `if O::EVENTS { ... }` (resp. `O::SPANS`), so
/// under the quiet observer `()` both guards are a `const false` and the
/// observed and unobserved engines monomorphize to identical searches.
pub struct Ndfs<'a, O: Observer = ()> {
    pub ctx: &'a SearchCtx<'a>,
    pub buchi: &'a Buchi,
    /// Instantiated, compiled FO components, index-aligned with the
    /// propositions.
    pub components: &'a [CompiledComponent],
    pub store: &'a mut StateStore,
    pub obs: &'a mut O,
    pub stats: SearchStats,
    /// The shared budget pool and the cancellation token.
    pub limits: SearchLimits,
    /// This search's handle on the shared step budget.
    lease: Option<StepLease>,
    path: Vec<TraceStep>,
    base_key: Option<u64>,
    base_index: usize,
    found: Option<CounterExample>,
    exhausted: Option<Budget>,
    /// Per-configuration cache of (component assignment, successors):
    /// the stick and candy phases visit the same configuration under
    /// several automaton states, and succP does not depend on the state.
    cache: HashMap<ConfigId, Expansion, MixState>,
    /// Per-step-key cache of interned successor lists.
    lists: HashMap<StepKey, SuccList>,
}

/// Result of searching one core (also the result type of a scheduler
/// work unit, which scans a range of cores).
#[derive(Clone, Debug)]
pub enum SearchResult {
    /// No accepted pseudorun over this core.
    Clean,
    /// Counterexample found.
    Violation(CounterExample),
    /// Budget exhausted before the space was covered.
    Exhausted(Budget),
}

impl<'a, O: Observer> Ndfs<'a, O> {
    /// New engine over a store whose visited set is fresh (or cleared).
    pub fn new(
        ctx: &'a SearchCtx<'a>,
        buchi: &'a Buchi,
        components: &'a [CompiledComponent],
        store: &'a mut StateStore,
        obs: &'a mut O,
        limits: SearchLimits,
    ) -> Self {
        let lease = limits
            .pool
            .as_ref()
            .filter(|p| p.step_limit().is_some())
            .map(|p| StepLease::new(Arc::clone(p)));
        Ndfs {
            ctx,
            buchi,
            components,
            store,
            obs,
            stats: SearchStats::default(),
            limits,
            lease,
            path: Vec::new(),
            base_key: None,
            base_index: 0,
            found: None,
            exhausted: None,
            cache: HashMap::default(),
            lists: HashMap::new(),
        }
    }

    /// Intern a batch of configurations, timing the whole batch and —
    /// only when tracing — emitting one hit/miss event per config (the
    /// store's intern counters tell a hit from a fresh store).
    fn intern_all(&mut self, configs: &[PseudoConfig]) -> Vec<Succ> {
        let t0 = Instant::now();
        let interned: Vec<Succ> = if O::EVENTS {
            configs
                .iter()
                .map(|s| {
                    let hits0 = self.store.intern_counters().0;
                    let entry = self.store.intern(s);
                    let hit = self.store.intern_counters().0 > hits0;
                    self.obs.event(TraceEvent::Intern { hit });
                    entry
                })
                .collect()
        } else {
            configs.iter().map(|s| self.store.intern(s)).collect()
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.profile.intern_ns += ns;
        if O::SPANS {
            // the already-measured duration, so the span tree's intern
            // total agrees with SearchProfile::intern_ns exactly
            self.obs.leaf_ns("intern", NO_INDEX, configs.len() as u64, ns);
        }
        interned
    }

    /// Assignment and successor list of a configuration, cached by its
    /// id.
    fn expand(&mut self, id: ConfigId, cfg: &PseudoConfig) -> Result<Expansion, SuccError> {
        if let Some(hit) = self.cache.get(&id) {
            return Ok(hit.clone());
        }
        // one lazy evaluation state for both: an instance materialized
        // for a component's memo miss serves the successor rules too
        let ev = EvalState::new(self.ctx, cfg);
        let assign = self.assignment(&ev)?;
        let succs = self.successors(Some(&ev))?;
        if self.cache.len() >= CACHE_BOUND {
            self.cache.clear();
        }
        self.cache.insert(id, (assign, Rc::clone(&succs)));
        Ok((assign, succs))
    }

    /// The successor list of `ev`'s configuration, or of the start step
    /// when `None`. The step (target page, new state, previous input)
    /// runs every time; the page expansion and its interning run only
    /// on the key's first sighting in this core. Either way the call is
    /// one `expand` event and adds the list's length to `configs`. The
    /// phase timer reads the clock outside the `expand` frame, so the
    /// frame never outgrows the `expand_ns` it is charged against.
    fn successors(&mut self, ev: Option<&EvalState<'_>>) -> Result<SuccList, SuccError> {
        let t0 = Instant::now();
        let (ctx, lists, profile) = (self.ctx, &self.lists, &mut self.stats.profile);
        let listed = self.obs.framed("expand", NO_INDEX, |obs| {
            let step = match ev {
                Some(ev) => ctx.step(ev, profile, obs)?,
                None => ctx.start_step(),
            };
            match lists.get(&step) {
                Some(list) => Ok(Listed::Shared(Rc::clone(list))),
                None => {
                    ctx.expand_page(&step, profile, obs).map(|succs| Listed::Fresh(step, succs))
                }
            }
        });
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let listed = listed?;
        self.stats.profile.expand_ns += dur_ns;
        let len = match &listed {
            Listed::Shared(list) => list.len(),
            Listed::Fresh(_, succs) => succs.len(),
        };
        if O::EVENTS {
            self.obs.event(TraceEvent::Expand {
                depth: self.path.len() as u32,
                succs: len as u32,
                dur_ns,
            });
        }
        self.stats.configs += len as u64;
        Ok(match listed {
            Listed::Shared(list) => list,
            Listed::Fresh(step, succs) => {
                let list = Rc::new(self.intern_all(&succs));
                if self.lists.len() >= CACHE_BOUND {
                    self.lists.clear();
                }
                self.lists.insert(step, Rc::clone(&list));
                list
            }
        })
    }

    /// Run the search from every start pseudoconfiguration over the core.
    /// Whatever part of the run's wall time the expand, intern and eval
    /// timers did not claim is charged to `visit_ns`. Under the span
    /// profiler that residual is three leaves: the tiered store's
    /// `spill` and `compact` I/O (timed inside the visited-set probes,
    /// so inside the residual) and `visit`, the rest.
    pub fn run(mut self) -> Result<(SearchResult, SearchStats), SuccError> {
        let t0 = Instant::now();
        let timed0 = self.stats.profile.total_ns();
        let io0 = if O::SPANS { self.store.spill_timers() } else { (0, 0) };
        let (hits0, misses0) = self.store.intern_counters();
        self.search()?;
        let (hits, misses) = self.store.intern_counters();
        self.stats.profile.intern_hits += hits - hits0;
        self.stats.profile.intern_misses += misses - misses0;
        if let Some(lease) = self.lease.take() {
            let (leased, refunded) = lease.release();
            self.stats.profile.steps_leased += leased;
            self.stats.profile.steps_refunded += refunded;
        }
        let run_ns = t0.elapsed().as_nanos() as u64;
        let visit_ns = run_ns.saturating_sub(self.stats.profile.total_ns() - timed0);
        self.stats.profile.visit_ns += visit_ns;
        if O::SPANS {
            let io = self.store.spill_timers();
            let (spill, compact) = (io.0 - io0.0, io.1 - io0.1);
            self.obs.leaf_ns("visit", NO_INDEX, 1, visit_ns.saturating_sub(spill + compact));
            for (label, ns) in [("spill", spill), ("compact", compact)] {
                if ns > 0 {
                    self.obs.leaf_ns(label, NO_INDEX, 1, ns);
                }
            }
        }
        let result = match (self.found, self.exhausted) {
            (Some(ce), _) => SearchResult::Violation(ce),
            (None, Some(b)) => SearchResult::Exhausted(b),
            (None, None) => SearchResult::Clean,
        };
        Ok((result, self.stats))
    }

    /// The outer search from every start pseudoconfiguration.
    fn search(&mut self) -> Result<(), SuccError> {
        let starts = self.successors(None)?;
        for &(id, ref c0) in starts.iter() {
            if !self.store.mark(VisitTable::key(id, self.buchi.initial), Phase::Stick)? {
                let assignment = self.expand(id, c0)?.0;
                if O::EVENTS {
                    self.obs.event(TraceEvent::Phase { candy: false, depth: 0 });
                }
                self.path.push(TraceStep {
                    auto_state: self.buchi.initial,
                    config: c0.clone(),
                    assignment,
                });
                self.stick(id)?;
                self.path.pop();
            }
            if self.found.is_some() || self.exhausted.is_some() {
                break;
            }
        }
        Ok(())
    }

    /// The successor list of the path's top node, whose configuration
    /// interns to `id`. A cache hit reads nothing else from the path; only
    /// a miss clones the top configuration for [`Ndfs::expand`].
    fn expand_top(&mut self, id: ConfigId) -> Result<SuccList, SuccError> {
        if let Some((_, succs)) = self.cache.get(&id) {
            return Ok(Rc::clone(succs));
        }
        let cfg = self.path.last().expect("a search node is on the path").config.clone();
        Ok(self.expand(id, &cfg)?.1)
    }

    /// Automaton state and FO-component assignment of the path's top node.
    fn top(&self) -> (usize, u64) {
        let top = self.path.last().expect("a search node is on the path");
        (top.auto_state, top.assignment)
    }

    /// Truth assignment of the FO components at `ev`'s configuration.
    /// The working instance is materialized only if some component
    /// misses the memo (or is interpreted).
    fn assignment(&mut self, ev: &EvalState<'_>) -> Result<u64, SuccError> {
        let t0 = Instant::now();
        let mut assign = 0u64;
        for (i, c) in self.components.iter().enumerate() {
            if self.ctx.component_holds(c, ev)? {
                assign |= 1 << i;
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.profile.eval_ns += ns;
        if O::SPANS {
            self.obs.leaf_ns("eval", NO_INDEX, 1, ns);
        }
        Ok(assign)
    }

    fn out_of_budget(&mut self) -> bool {
        if self.exhausted.is_some() {
            return true;
        }
        let limit = self.lease.as_ref().map(|l| l.report_steps()).unwrap_or(0);
        if let Some(cancel) = &self.limits.cancel {
            if cancel.is_cancelled() {
                self.exhausted = Some(Budget::Cancelled);
                if O::EVENTS {
                    let spent = self.stats.configs;
                    self.obs.event(TraceEvent::Budget { reason: "cancelled", spent, limit });
                }
                return true;
            }
        }
        if let Some(lease) = &mut self.lease {
            // charge the configurations generated since the last charge;
            // the failure point is exact (chunk-size independent), so the
            // search trips at the same cumulative step count it would
            // under a non-leased counter
            let delta = self.stats.configs - lease.charged();
            if delta > 0 && !lease.charge(delta) {
                self.exhausted = Some(Budget::Steps(limit));
                if O::EVENTS {
                    let spent = self.stats.configs;
                    self.obs.event(TraceEvent::Budget { reason: "steps", spent, limit });
                }
                return true;
            }
        }
        if let Some(pool) = self.limits.pool.as_ref().filter(|p| p.has_deadline()) {
            // cheap coarse check: only probe the clock periodically
            if self.stats.expansions.is_multiple_of(256) && pool.deadline_exceeded() {
                self.exhausted = Some(Budget::Time(pool.elapsed()));
                if O::EVENTS {
                    let spent = self.stats.configs;
                    self.obs.event(TraceEvent::Budget { reason: "time", spent, limit });
                }
                return true;
            }
        }
        false
    }

    /// The outer search; the top of `self.path` is the current node,
    /// whose configuration interns to `id`.
    fn stick(&mut self, id: ConfigId) -> Result<(), SuccError> {
        self.stats.max_run_len = self.stats.max_run_len.max(self.path.len());
        if self.out_of_budget() {
            return Ok(());
        }
        let (from, assign) = self.top();
        let succs = self.expand_top(id)?;
        let buchi = self.buchi;
        for t in buchi.successors(from, assign) {
            if O::EVENTS {
                self.obs.event(TraceEvent::Transition { from: from as u32, to: t as u32, assign });
            }
            for &(ct_id, ref ct) in succs.iter() {
                self.stats.expansions += 1;
                if self.found.is_some() || self.out_of_budget() {
                    return Ok(());
                }
                let key = VisitTable::key(ct_id, t);
                if !self.store.mark(key, Phase::Stick)? {
                    let assignment = self.expand(ct_id, ct)?.0;
                    self.path.push(TraceStep { auto_state: t, config: ct.clone(), assignment });
                    self.stick(ct_id)?;
                    self.path.pop();
                    if self.found.is_some() {
                        return Ok(());
                    }
                }
                if self.buchi.accepting[t] {
                    // candidate base of the candy: search for a cycle back
                    if !self.store.is_marked(key, Phase::Candy)? {
                        let assignment = self.expand(ct_id, ct)?.0;
                        if O::EVENTS {
                            self.obs.event(TraceEvent::Phase {
                                candy: true,
                                depth: self.path.len() as u32,
                            });
                        }
                        self.base_key = Some(key);
                        self.base_index = self.path.len();
                        self.store.mark(key, Phase::Candy)?;
                        self.path.push(TraceStep { auto_state: t, config: ct.clone(), assignment });
                        self.candy(ct_id)?;
                        self.path.pop();
                        self.base_key = None;
                        if self.found.is_some() {
                            return Ok(());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The nested search for a cycle through the base.
    fn candy(&mut self, id: ConfigId) -> Result<(), SuccError> {
        self.stats.max_run_len = self.stats.max_run_len.max(self.path.len());
        if self.out_of_budget() {
            return Ok(());
        }
        let (from, assign) = self.top();
        let succs = self.expand_top(id)?;
        let base = self.base_key.expect("candy has a base");
        let buchi = self.buchi;
        for t in buchi.successors(from, assign) {
            if O::EVENTS {
                self.obs.event(TraceEvent::Transition { from: from as u32, to: t as u32, assign });
            }
            for &(ct_id, ref ct) in succs.iter() {
                self.stats.expansions += 1;
                if self.found.is_some() || self.out_of_budget() {
                    return Ok(());
                }
                let key = VisitTable::key(ct_id, t);
                if key == base {
                    // lollipop closed: the path is prefix + cycle; the core
                    // and parameter assignment are attached by the caller
                    if O::EVENTS {
                        self.obs.event(TraceEvent::Cycle {
                            len: self.path.len() as u32,
                            cycle_start: self.base_index as u32,
                        });
                    }
                    self.found = Some(CounterExample {
                        steps: self.path.clone(),
                        cycle_start: self.base_index,
                        core: Vec::new(),
                        assignment: Vec::new(),
                    });
                    return Ok(());
                }
                if !self.store.mark(key, Phase::Candy)? {
                    let assignment = self.expand(ct_id, ct)?.0;
                    self.path.push(TraceStep { auto_state: t, config: ct.clone(), assignment });
                    self.candy(ct_id)?;
                    self.path.pop();
                    if self.found.is_some() {
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }
}
