//! The work scheduler: runs prepared checks as independent work units on
//! a `std::thread` worker pool.
//!
//! A check decomposes into one unit per `C_∃` assignment
//! ([`PreparedCheck::num_units`]); when that yields less parallelism than
//! the pool width, large units are further split into bitmap-counter
//! core ranges. Each unit search is a pure function of `(unit, range)`
//! and the verifier options, which gives the scheduler a simple
//! determinism argument:
//!
//! * every item gets its own [`CancelToken`] (chained to the caller's,
//!   so external cancellation still reaches every worker),
//! * the first *decisive* (non-clean) outcome at ordinal `k` cancels only
//!   items with ordinal `> k` of the same check — items the sequential
//!   loop would never have reached,
//! * the reducer walks ordinals in order and stops at the first decisive
//!   outcome, which is exactly the outcome the sequential scan stops at.
//!
//! # Budgeted runs: the shared pool and the settlement pass
//!
//! A step budget (`--max-steps`) is *global to a check*: every worker
//! item of a check leases steps from one shared
//! [`wave_core::BudgetPool`], so the total work charged equals the
//! configured limit, never `limit × items`. That bounds the work, but
//! worker timing still decides *which* items the pool starves — a
//! sibling that the sequential scan would never have reached can drain
//! steps a lower-ordinal item was entitled to. The reducer therefore
//! runs a deterministic *settlement* pass per check, threading the exact
//! sequential leftover through the ordinals:
//!
//! * a recorded `Clean` or `Violation` whose `configs` fit the leftover
//!   is accepted as-is — a completed search is a pure function of the
//!   item, so it is byte-identical to what the sequential scan produces
//!   (a completed parallel search charged exactly `configs` steps, and
//!   the exhaustion point of a lease is chunk-size independent);
//! * anything else (an exhausted or cancel-starved item, an error, a
//!   result that overran the leftover, or a unit whose worker died
//!   before recording anything) is re-run sequentially on the spot under
//!   a fresh pool granting *exactly* the leftover — which reproduces the
//!   sequential outcome for that item by construction.
//!
//! Total settlement work is bounded by the budget itself (re-runs charge
//! at most the leftover). Exhaustion reports carry the configured global
//! limit (`Budget::Steps(K)`) and deadline reports the actual elapsed
//! time, on both the sequential and parallel paths — so budgeted
//! verdicts, `Unknown` attributions, and counterexamples are
//! byte-identical to [`Verifier::check`] at any `--jobs` count.
//! Wall-clock budgets remain best-effort: which `Unknown(Time)` item
//! trips first depends on real time, never the verdict between `Holds`
//! and `Violated`.
//!
//! The settlement pass is shared with the distributed fleet dispatcher
//! ([`crate::fleet`]): the fleet records remote `UnitOutcome`s into the
//! same per-ordinal slots and reduces through `settle_checks`, which is
//! what makes the fleet verdict byte-identical to `--jobs 1` across a
//! lossy transport — any unit a worker lost, starved, or overran is
//! simply re-run under the exact sequential leftover.
//!
//! Stats counters (`configs`, `cores`, `assignments`, maxima) are
//! deterministic too: the reducer merges exactly the ordinals the
//! sequential scan would have run (everything up to and including the
//! decisive one), never timing-dependent sibling work. Interner
//! hit/miss profile counters do vary with the split factor (each item
//! gets its own store arena), as do the lease accounting counters.
//!
//! # Fault tolerance
//!
//! A panic inside a unit search is caught at the worker and recorded as
//! a failed outcome ([`VerifyError::Panic`]) instead of unwinding
//! through the pool: sibling checks still settle, and on budgeted runs
//! the settlement pass re-runs the panicked unit (a transient panic
//! heals; a deterministic one reproduces as the check's error). All
//! shared-state locks are poison-tolerant — a worker that died mid-
//! record can no longer cascade into orchestrator panics.

use crate::metrics::SvcMetrics;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use wave_core::{
    Budget, BudgetPool, CancelToken, PreparedCheck, SearchLimits, SearchResult, Stats, UnitOutcome,
    Verdict, Verification, Verifier, VerifyError, VerifyOptions,
};
use wave_ltl::Property;

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct ParallelOptions {
    /// Worker threads.
    pub jobs: usize,
    /// Split large units into core sub-ranges when there are fewer units
    /// than workers.
    pub split_units: bool,
    /// When set, the scheduler feeds its queue-depth gauge and per-unit
    /// latency histogram (see [`SvcMetrics`]).
    pub metrics: Option<Arc<SvcMetrics>>,
    /// Fault-injection hook: panic inside the worker running the item at
    /// `(check index, ordinal)`. Tests use it to pin the panic-hardening
    /// behavior; production callers leave it `None`.
    pub chaos_panic_unit: Option<(usize, usize)>,
}

impl ParallelOptions {
    pub fn with_jobs(jobs: usize) -> ParallelOptions {
        ParallelOptions { jobs: jobs.max(1), ..ParallelOptions::default() }
    }
}

impl Default for ParallelOptions {
    fn default() -> ParallelOptions {
        let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        ParallelOptions { jobs, split_units: true, metrics: None, chaos_panic_unit: None }
    }
}

/// One schedulable piece of work: a core range of one unit of one check.
/// Shared with the fleet dispatcher, which leases items to remote
/// workers instead of local threads.
pub(crate) struct Item {
    pub(crate) check: usize,
    /// Position in the check's sequential scan order.
    pub(crate) ordinal: usize,
    pub(crate) unit: usize,
    pub(crate) cores: Option<Range<u64>>,
    /// Estimated cost: the number of database cores the item scans.
    pub(crate) cost: u64,
}

/// The order workers pick items in: cheapest first (by core-count
/// estimate), ties broken by `(check, ordinal)` so the order is
/// deterministic. Runs the quick items before the long tails, so a
/// property suite reports its easy verdicts early and the pool stays
/// busy — while the *reduction* still happens in ordinal order, keeping
/// verdicts identical to the sequential scan.
pub(crate) fn execution_order(items: &[Item]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (items[i].cost, items[i].check, items[i].ordinal));
    order
}

/// Decompose prepared checks into schedulable items: one per unit, plus
/// core-range splits when the plain unit count leaves `jobs` workers
/// idle. Returns the items and, per check, the offset of its ordinal 0
/// in the item vector (`items[item_offsets[ci] + ordinal]`).
pub(crate) fn decompose(
    checks: &[PreparedCheck<'_>],
    jobs: usize,
    split_units: bool,
) -> (Vec<Item>, Vec<usize>) {
    let total_units: usize = checks.iter().map(|c| c.num_units()).sum();
    let split_into = if split_units && total_units < 2 * jobs && total_units > 0 {
        (2 * jobs).div_ceil(total_units)
    } else {
        1
    };
    let mut items = Vec::new();
    let mut item_offsets: Vec<usize> = Vec::with_capacity(checks.len());
    for (ci, check) in checks.iter().enumerate() {
        item_offsets.push(items.len());
        let mut ordinal = 0;
        let mut push = |unit: usize, cores: Option<Range<u64>>, cost: u64, ordinal: &mut usize| {
            items.push(Item { check: ci, ordinal: *ordinal, unit, cores, cost });
            *ordinal += 1;
        };
        for unit in 0..check.num_units() {
            // core_count probes the universe (it also prices the item for
            // the cheapest-first pick order); on overflow fall back to an
            // unsplit unit, which reports the same error when it runs
            let cores = check.core_count(unit).unwrap_or(1);
            let chunks = if split_into > 1 { (split_into as u64).min(cores).max(1) } else { 1 };
            if chunks == 1 {
                push(unit, None, cores, &mut ordinal);
            } else {
                let size = cores.div_ceil(chunks);
                let mut lo = 0;
                while lo < cores {
                    let hi = (lo + size).min(cores);
                    push(unit, Some(lo..hi), hi - lo, &mut ordinal);
                    lo = hi;
                }
            }
        }
    }
    (items, item_offsets)
}

/// Render a caught panic payload for [`VerifyError::Panic`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Lock that recovers from a poisoned mutex: a worker that panicked
/// while holding it left data the settlement pass can still repair
/// (unfilled outcome slots are re-run), so propagating the poison would
/// only turn one dead unit into a dead orchestrator.
pub(crate) fn lock_tolerant<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Per-check reduction input: the recorded outcome slots (one per
/// ordinal; `None` when no worker ever recorded the item) and the
/// wall-clock at which the check's last item completed.
pub(crate) struct CheckSlots {
    pub(crate) outcomes: Vec<Option<Result<UnitOutcome, VerifyError>>>,
    pub(crate) done_at: Option<Duration>,
}

/// The deterministic reduction: settle each check in ordinal order,
/// threading the exact sequential leftover budget through the ordinals
/// and re-running (on a big-stack thread, since re-runs recurse like any
/// search) every item whose recorded outcome the leftover cannot vouch
/// for — including items nobody recorded at all. Shared by the thread
/// scheduler and the fleet dispatcher; see the module docs for the
/// argument that the result is byte-identical to the sequential scan.
pub(crate) fn settle_checks(
    options: &VerifyOptions,
    checks: &[PreparedCheck<'_>],
    items: &[Item],
    item_offsets: &[usize],
    pools: &[Option<Arc<BudgetPool>>],
    states: Vec<CheckSlots>,
    start: Instant,
) -> Vec<Result<Verification, VerifyError>> {
    let settle = move || {
        checks
            .iter()
            .enumerate()
            .zip(states)
            .map(|((ci, check), state)| {
                // leftover step budget the sequential scan would have at
                // the current ordinal (None: no step budget configured)
                let mut leftover = options.max_steps;
                let mut reran = false;
                let mut stats = Stats::default();
                let mut verdict = Verdict::Holds;
                for (ordinal, slot) in state.outcomes.into_iter().enumerate() {
                    // a completed search that fits the leftover is exactly
                    // what the sequential scan produces for this item;
                    // anything else must be replayed under the precise
                    // leftover allowance
                    let accepted = match (&slot, leftover) {
                        (Some(Ok(o)), Some(left)) => {
                            matches!(o.result, SearchResult::Clean | SearchResult::Violation(_))
                                && o.stats.configs <= left
                        }
                        (Some(Ok(_)), None) => true,
                        (Some(Err(_)), _) => leftover.is_none(),
                        (None, _) => false,
                    };
                    let outcome = if accepted {
                        slot.expect("accepted implies recorded")
                    } else {
                        reran = true;
                        let item = &items[item_offsets[ci] + ordinal];
                        let pool = match (&pools[ci], leftover) {
                            (Some(p), Some(left)) => Some(p.for_rerun(left)),
                            (Some(p), None) => Some(Arc::clone(p)),
                            (None, _) => None,
                        };
                        let limits = SearchLimits { pool, cancel: options.cancel.clone() };
                        catch_unwind(AssertUnwindSafe(|| {
                            check.run_unit(item.unit, item.cores.clone(), &limits)
                        }))
                        .unwrap_or_else(|p| Err(VerifyError::Panic(panic_message(p))))
                    };
                    match outcome {
                        Ok(o) => {
                            stats.merge(&o.stats);
                            match o.result {
                                SearchResult::Clean => {
                                    if let Some(left) = &mut leftover {
                                        *left -= o.stats.configs;
                                    }
                                }
                                SearchResult::Violation(ce) => {
                                    verdict = Verdict::Violated(ce);
                                    break;
                                }
                                SearchResult::Exhausted(b) => {
                                    verdict = Verdict::Unknown(b);
                                    break;
                                }
                            }
                        }
                        Err(e) => return Err(e),
                    }
                }
                let done_at = if reran {
                    start.elapsed()
                } else {
                    state.done_at.unwrap_or_else(|| start.elapsed())
                };
                stats.elapsed = done_at;
                // stamped once per check, like Verifier::check — the
                // per-unit outcomes merged above carry zeros
                let slice = check.slice();
                stats.profile.slice_rules_removed = slice.rules_removed;
                stats.profile.slice_relations_removed = slice.relations_removed;
                stats.profile.flow_dead_rules = slice.dead_rules;
                Ok(Verification { verdict, stats, complete: check.complete })
            })
            .collect::<Vec<_>>()
    };
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("wave-settle".into())
            // settlement re-runs recurse once per pseudorun step
            .stack_size(512 << 20)
            .spawn_scoped(scope, settle)
            .expect("spawn settle thread")
            .join()
            .expect("settle thread panicked")
    })
}

struct CheckState {
    /// Per-ordinal outcome slots, filled as items complete.
    outcomes: Vec<Option<Result<UnitOutcome, VerifyError>>>,
    /// Lowest ordinal with a decisive (non-clean) outcome.
    best: usize,
    /// Items not yet recorded; when it reaches zero the check is done.
    remaining: usize,
    /// Wall-clock time (from scheduler start) at which the check finished.
    done_at: Option<Duration>,
}

/// Check one property on a worker pool. Spawns the pool even for a
/// single-unit check (the NDFS needs the big stack anyway).
pub fn check_parallel(
    verifier: &Verifier,
    property: &Property,
    popts: &ParallelOptions,
) -> Result<Verification, VerifyError> {
    let prepared = verifier.prepare(property)?;
    run_prepared(verifier.options(), std::slice::from_ref(&prepared), popts)
        .pop()
        .expect("one check in, one verification out")
}

/// Run several prepared checks (typically a property suite over one spec)
/// concurrently, returning one [`Verification`] per check, in order.
pub fn run_prepared(
    options: &VerifyOptions,
    checks: &[PreparedCheck<'_>],
    popts: &ParallelOptions,
) -> Vec<Result<Verification, VerifyError>> {
    let start = Instant::now();
    let jobs = popts.jobs.max(1);
    // One shared budget pool per check (`None` when unbudgeted): all of
    // a check's items lease from it, so the step budget is global.
    let pools: Vec<_> = checks.iter().map(|_| options.budget_pool(start)).collect();

    let (items, item_offsets) = decompose(checks, jobs, popts.split_units);
    // one cancel token per item, chained to the caller's
    let tokens: Vec<CancelToken> = items
        .iter()
        .map(|_| match &options.cancel {
            Some(parent) => parent.child(),
            None => CancelToken::new(),
        })
        .collect();
    let order = execution_order(&items);
    let metrics = popts.metrics.as_deref();
    if let Some(m) = metrics {
        m.queue_depth.add(items.len() as i64);
    }

    let counts: Vec<usize> = {
        let mut counts = vec![0usize; checks.len()];
        for item in &items {
            counts[item.check] += 1;
        }
        counts
    };
    let states = Mutex::new(
        counts
            .iter()
            .map(|&n| CheckState {
                outcomes: (0..n).map(|_| None).collect(),
                best: usize::MAX,
                remaining: n,
                done_at: if n == 0 { Some(start.elapsed()) } else { None },
            })
            .collect::<Vec<_>>(),
    );
    let cursor = AtomicUsize::new(0);

    let record = |item: &Item, outcome: Result<UnitOutcome, VerifyError>| {
        if let (Some(m), Ok(o)) = (metrics, &outcome) {
            m.spill_pairs_total.add(o.stats.profile.spill_pairs);
            m.spill_segments_total.add(o.stats.profile.spill_segments);
            m.spill_compactions_total.add(o.stats.profile.spill_compactions);
            m.memo_hits_total.add(o.stats.profile.memo_hits);
            m.memo_misses_total.add(o.stats.profile.memo_misses);
            m.join_builds_total.add(o.stats.profile.join_builds);
            m.store_max_resident.set_max(o.stats.max_resident as i64);
            m.store_max_spilled.set_max(o.stats.max_spilled as i64);
        }
        let mut states = lock_tolerant(&states);
        let state = &mut states[item.check];
        let decisive = !matches!(&outcome, Ok(UnitOutcome { result: SearchResult::Clean, .. }));
        state.outcomes[item.ordinal] = Some(outcome);
        state.remaining -= 1;
        if state.remaining == 0 {
            state.done_at = Some(start.elapsed());
        }
        if decisive && item.ordinal < state.best {
            state.best = item.ordinal;
            // cancel exactly the items the sequential scan would not
            // reach: sibling items of this check with a higher ordinal
            for (i, other) in items.iter().enumerate() {
                if other.check == item.check && other.ordinal > item.ordinal {
                    tokens[i].cancel();
                }
            }
        }
    };

    let worker = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&idx) = order.get(i) else { break };
        let item = &items[idx];
        // picked up by a worker: no longer queued
        if let Some(m) = metrics {
            m.queue_depth.dec();
        }
        let skip = {
            let states = lock_tolerant(&states);
            states[item.check].best < item.ordinal
        };
        if skip {
            // a lower ordinal already decided this check; charge nothing
            let outcome = UnitOutcome {
                result: SearchResult::Exhausted(Budget::Cancelled),
                stats: Stats::default(),
            };
            record(item, Ok(outcome));
            continue;
        }
        let limits =
            SearchLimits { pool: pools[item.check].clone(), cancel: Some(tokens[idx].clone()) };
        let t0 = Instant::now();
        // a panic inside the search (or the chaos hook) becomes a failed
        // outcome, not a dead worker thread
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if popts.chaos_panic_unit == Some((item.check, item.ordinal)) {
                panic!("chaos: injected panic in unit ({}, {})", item.check, item.ordinal);
            }
            checks[item.check].run_unit(item.unit, item.cores.clone(), &limits)
        }))
        .unwrap_or_else(|payload| {
            if let Some(m) = metrics {
                m.unit_panics_total.inc();
            }
            Err(VerifyError::Panic(panic_message(payload)))
        });
        if let Some(m) = metrics {
            m.unit_latency_ns.observe(t0.elapsed().as_nanos() as u64);
        }
        record(item, outcome);
    };

    std::thread::scope(|scope| {
        let threads = jobs.min(items.len());
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            handles.push(
                std::thread::Builder::new()
                    .name(format!("wave-worker-{t}"))
                    // the nested DFS recurses once per pseudorun step
                    .stack_size(512 << 20)
                    .spawn_scoped(scope, worker)
                    .expect("spawn worker thread"),
            );
        }
        for h in handles {
            // a panicked worker left unrecorded slots; the settlement
            // pass re-runs them, so the join failure is not fatal
            let _ = h.join();
        }
    });

    // Reduce: settle each check in ordinal order (see module docs). The
    // mutex may be poisoned if a worker died mid-record; the slots it
    // did fill are still sound, and unfilled ones are re-run.
    let states = states.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner());
    let states: Vec<CheckSlots> = states
        .into_iter()
        .map(|s| CheckSlots { outcomes: s.outcomes, done_at: s.done_at })
        .collect();
    // slice counters are per *check* (stamped by settle, zero in units),
    // so they feed the registry here rather than in `record`
    if let Some(m) = metrics {
        for check in checks {
            let slice = check.slice();
            m.slice_rules_removed_total.add(slice.rules_removed);
            m.slice_relations_removed_total.add(slice.relations_removed);
            m.flow_dead_rules_total.add(slice.dead_rules);
        }
    }
    settle_checks(options, checks, &items, &item_offsets, &pools, states, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_ltl::parse_property;
    use wave_spec::parse_spec;

    fn shop() -> Verifier {
        // two universal variables over a relevant constant set gives the
        // check several C_∃ assignment units
        Verifier::new(
            parse_spec(
                r#"
            spec minishop {
              database { stock(item); }
              state { cart(item); }
              inputs { pick(x); button(x); }
              home A;
              page A {
                inputs { pick, button }
                options button(x) <- x = "add";
                options pick(x) <- stock(x);
                insert cart(x) <- pick(x) & button("add");
                target B <- (exists x: pick(x)) & button("add");
              }
              page B { target A <- true; }
            }
        "#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn execution_order_is_cheapest_first_and_deterministic() {
        let item = |check, ordinal, cost| Item { check, ordinal, unit: ordinal, cores: None, cost };
        let items = vec![item(0, 0, 9), item(0, 1, 1), item(1, 0, 1), item(1, 1, 4), item(0, 2, 1)];
        // cost ascending; equal costs by (check, ordinal)
        assert_eq!(execution_order(&items), vec![1, 4, 2, 3, 0]);
        assert_eq!(execution_order(&[]), Vec::<usize>::new());
    }

    #[test]
    fn parallel_matches_sequential_verdicts() {
        let verifier = shop();
        let popts = ParallelOptions { jobs: 4, ..ParallelOptions::default() };
        for text in [
            "forall x: G (cart(x) -> F cart(x))",
            "forall x: G !cart(x)",
            "G !@B",
            "G (@A -> X (@A | @B))",
        ] {
            let prop = parse_property(text).unwrap();
            let seq = verifier.check(&prop).unwrap();
            let par = check_parallel(&verifier, &prop, &popts).unwrap();
            assert_eq!(format!("{:?}", seq.verdict), format!("{:?}", par.verdict), "{text}");
        }
    }

    #[test]
    fn clean_runs_have_deterministic_counters() {
        let verifier = shop();
        let prop = parse_property("forall x: G (cart(x) -> F cart(x))").unwrap();
        let seq = verifier.check(&prop).unwrap();
        for jobs in [1, 2, 4] {
            let par =
                check_parallel(&verifier, &prop, &ParallelOptions { jobs, ..Default::default() })
                    .unwrap();
            assert!(par.verdict.holds());
            assert_eq!(seq.stats.cores, par.stats.cores, "jobs={jobs}");
            assert_eq!(seq.stats.configs, par.stats.configs, "jobs={jobs}");
            assert_eq!(seq.stats.assignments, par.stats.assignments, "jobs={jobs}");
        }
    }

    #[test]
    fn budgeted_runs_match_sequential_exactly() {
        // pick budgets spanning "exhausted immediately" through "almost
        // done": the parallel verdict, the reported budget, AND the
        // search counters must equal the sequential leftover semantics
        let unbudgeted = shop();
        let texts = ["forall x: G !cart(x)", "forall x: G (cart(x) -> F cart(x))", "G !@B"];
        for text in texts {
            let prop = parse_property(text).unwrap();
            let full = unbudgeted.check(&prop).unwrap().stats.configs;
            for budget in [1, 2, full / 2, full.saturating_sub(1), full, full + 1].into_iter() {
                let mut verifier = shop();
                verifier.options_mut().max_steps = Some(budget);
                let seq = verifier.check(&prop).unwrap();
                for jobs in [1, 2, 4] {
                    for chunk in [1, 7, 1024] {
                        let mut verifier = shop();
                        verifier.options_mut().max_steps = Some(budget);
                        verifier.options_mut().budget_chunk = chunk;
                        let popts = ParallelOptions { jobs, ..Default::default() };
                        let par = check_parallel(&verifier, &prop, &popts).unwrap();
                        let tag = format!("{text} budget={budget} jobs={jobs} chunk={chunk}");
                        assert_eq!(
                            format!("{:?}", seq.verdict),
                            format!("{:?}", par.verdict),
                            "{tag}"
                        );
                        assert_eq!(seq.complete, par.complete, "{tag}");
                        assert_eq!(seq.stats.configs, par.stats.configs, "{tag}");
                        assert_eq!(seq.stats.cores, par.stats.cores, "{tag}");
                        assert_eq!(seq.stats.assignments, par.stats.assignments, "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn pre_cancelled_check_reports_cancelled() {
        let mut verifier = shop();
        let token = CancelToken::new();
        token.cancel();
        verifier.options_mut().cancel = Some(token);
        let prop = parse_property("G !@B").unwrap();
        let v = check_parallel(&verifier, &prop, &ParallelOptions::with_jobs(2)).unwrap();
        assert!(matches!(v.verdict, Verdict::Unknown(Budget::Cancelled)), "{:?}", v.verdict);
    }

    #[test]
    fn scheduler_feeds_metrics() {
        let metrics = crate::metrics::SvcMetrics::new();
        let verifier = shop();
        let prop = parse_property("G (@B -> X @A)").unwrap();
        let popts =
            ParallelOptions { jobs: 2, metrics: Some(Arc::clone(&metrics)), ..Default::default() };
        let v = check_parallel(&verifier, &prop, &popts).unwrap();
        assert!(v.verdict.holds());
        assert_eq!(metrics.queue_depth.get(), 0, "every queued item was picked up");
        assert!(metrics.unit_latency_ns.count() > 0, "unit latencies were observed");
        assert!(metrics.unit_latency_ns.sum() > 0, "unit latencies are nonzero wall time");
    }

    #[test]
    fn run_prepared_handles_many_properties() {
        let verifier = shop();
        let texts = ["G !@B", "forall x: G !cart(x)", "G (@B -> X @A)"];
        let props: Vec<_> = texts.iter().map(|t| parse_property(t).unwrap()).collect();
        let checks: Vec<_> = props.iter().map(|p| verifier.prepare(p).unwrap()).collect();
        let results = run_prepared(verifier.options(), &checks, &ParallelOptions::with_jobs(4));
        assert_eq!(results.len(), 3);
        for (text, (prop, result)) in texts.iter().zip(props.iter().zip(results)) {
            let seq = verifier.check(prop).unwrap();
            let par = result.unwrap();
            assert_eq!(format!("{:?}", seq.verdict), format!("{:?}", par.verdict), "{text}");
        }
    }

    #[test]
    fn unit_panic_becomes_a_failed_outcome_not_an_orchestrator_panic() {
        // unbudgeted: the panicked unit's error surfaces as that check's
        // result, while sibling checks still settle normally
        let verifier = shop();
        let texts = ["forall x: G (cart(x) -> F cart(x))", "G (@B -> X @A)"];
        let props: Vec<_> = texts.iter().map(|t| parse_property(t).unwrap()).collect();
        let checks: Vec<_> = props.iter().map(|p| verifier.prepare(p).unwrap()).collect();
        let popts = ParallelOptions {
            jobs: 2,
            chaos_panic_unit: Some((0, 0)),
            metrics: Some(crate::metrics::SvcMetrics::new()),
            ..Default::default()
        };
        let results = run_prepared(verifier.options(), &checks, &popts);
        let err = results[0].as_ref().expect_err("panicked check errors");
        assert!(
            matches!(err, VerifyError::Panic(msg) if msg.contains("chaos")),
            "unexpected error: {err}"
        );
        let sibling = results[1].as_ref().expect("sibling check unaffected");
        assert!(sibling.verdict.holds());
        assert_eq!(popts.metrics.as_ref().unwrap().unit_panics_total.get(), 1);
    }

    #[test]
    fn budgeted_runs_self_heal_transient_panics() {
        // with a step budget, the settlement pass re-runs the panicked
        // unit under the exact sequential leftover — a transient panic
        // leaves the verdict and counters byte-identical to sequential
        let prop = parse_property("forall x: G (cart(x) -> F cart(x))").unwrap();
        let full = shop().check(&prop).unwrap().stats.configs;
        for budget in [full / 2, full, full + 1] {
            let mut verifier = shop();
            verifier.options_mut().max_steps = Some(budget);
            let seq = verifier.check(&prop).unwrap();
            let popts =
                ParallelOptions { jobs: 2, chaos_panic_unit: Some((0, 0)), ..Default::default() };
            let par = check_parallel(&verifier, &prop, &popts).unwrap();
            let tag = format!("budget={budget}");
            assert_eq!(format!("{:?}", seq.verdict), format!("{:?}", par.verdict), "{tag}");
            assert_eq!(seq.stats.configs, par.stats.configs, "{tag}");
            assert_eq!(seq.stats.cores, par.stats.cores, "{tag}");
        }
    }
}
