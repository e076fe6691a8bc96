//! Fleet v1: distributed verification over the line-JSON protocol.
//!
//! A [`FleetDispatcher`] leases work units — the same `(check, unit,
//! core-range)` items the thread scheduler runs — to remote `wave
//! worker` processes over TCP, and reduces the returned
//! [`UnitOutcome`]s through the scheduler's deterministic settlement
//! pass, so the fleet verdict is **byte-identical to `--jobs 1`** even
//! across a lossy transport. A worker ([`run_worker`]) connects,
//! registers with a heartbeat, receives specs by fingerprint, and
//! executes units shipped as `(spec fingerprint, property, unit
//! ordinal, core range, budget lease)`.
//!
//! # Protocol
//!
//! One JSON object per line, tagged by a `"fleet"` field.
//!
//! Worker → dispatcher:
//!
//! * `{"fleet":"hello","name":N,"v":1}` — registration.
//! * `{"fleet":"hb"}` — heartbeat, every `heartbeat` interval.
//! * `{"fleet":"loaded","key":K,"units":U}` /
//!   `{"fleet":"load_error","key":K,"error":E}` — spec install reply.
//! * `{"fleet":"outcome","key":K,"unit":u,"result":…,"stats":…}` or
//!   `{"fleet":"outcome","key":K,"unit":u,"error":E}` — unit result.
//!
//! Dispatcher → worker:
//!
//! * `{"fleet":"welcome","heartbeat_ms":H}` — accept + cadence.
//! * `{"fleet":"load","key":K,"spec":S,"property":P,"options":O}` —
//!   install a spec under its fingerprint (sent once per connection
//!   per check; `O` is [`crate::service::options_to_json`] form).
//! * `{"fleet":"run","key":K,"unit":u,"ordinal":o,"lo":…,"hi":…,
//!   "lease_steps":…,"lease_ms":…,"chunk":C}` — execute one unit under
//!   a budget lease.
//! * `{"fleet":"bye"}` — session over.
//!
//! # Failure model: lease / heartbeat state machine
//!
//! Every dispatched unit is a *lease*. A lease ends one of three ways:
//!
//! * **outcome** — the worker's result is recorded (first completion
//!   wins; a duplicate from a re-dispatched twin is discarded by
//!   ordinal slot).
//! * **worker death** — EOF, a protocol error, or heartbeat silence
//!   longer than `heartbeat × heartbeat_grace` on the connection. The
//!   unit is re-enqueued with capped exponential backoff
//!   (`retry_base·2^(attempts−1)`, capped at `retry_cap`).
//! * **lease timeout** — the unit has been out longer than
//!   `lease_timeout`. The dispatcher *duplicates* it onto the pending
//!   queue for an idle worker (straggler re-dispatch) without killing
//!   the original lease; whichever copy finishes first is recorded.
//!
//! A worker-reported unit *error* is treated as a transport failure —
//! re-enqueued, never recorded — because a unit search is a pure
//! function of its item: a remote error says nothing about the local
//! outcome. After `max_remote_attempts` failed attempts the unit falls
//! back to the dispatcher's **local executor** (a big-stack thread
//! that runs items exactly like the thread scheduler), which also
//! picks up all work when no worker is connected and any unit stuck
//! pending longer than `lease_timeout`. The local executor is what
//! makes termination unconditional: with zero live workers the fleet
//! degrades to the thread scheduler.
//!
//! # Determinism argument
//!
//! Only `Ok` outcomes are ever recorded, each into its ordinal slot,
//! and the reduction is the scheduler's `settle_checks`: walk
//! ordinals in order, accept a completed `Clean`/`Violation` whose
//! `configs` fit the exact sequential leftover, re-run anything else
//! locally under precisely that leftover. Completed searches are pure
//! functions of `(unit, core-range, options)` — a worker's `Clean` at
//! ordinal `k` is byte-identical to a local one — so *any* lease
//! policy (kills, retries, duplicates, stragglers) only changes how
//! much settlement re-runs, never the verdict, the counters, or the
//! counterexample. Budget leases ship as exact integers
//! (`lease_steps`, nanosecond time limits in options) so worker-side
//! pool arithmetic matches the dispatcher's bit-for-bit.

use crate::cache::{
    ce_from_json, ce_to_json, fingerprint, profile_from_json, profile_to_json, u64_from_json,
    u64_to_json,
};
use crate::json::{self, Json};
use crate::metrics::SvcMetrics;
use crate::scheduler::{decompose, lock_tolerant, panic_message, CheckSlots, Item};
use crate::service::{options_to_json, parse_options};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wave_core::{
    Budget, BudgetPool, PreparedCheck, SearchLimits, SearchResult, Stats, UnitOutcome,
    Verification, Verifier, VerifyError, VerifyOptions,
};
use wave_ltl::{parse_property, Property};
use wave_spec::parse_spec;

/// Fleet dispatch policy.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Worker heartbeat cadence (the dispatcher tells workers this in
    /// `welcome`).
    pub heartbeat: Duration,
    /// Heartbeat silence tolerated before a connection is declared
    /// dead, as a multiple of `heartbeat`.
    pub heartbeat_grace: u32,
    /// How long a unit may be out on a lease before it is duplicated
    /// onto an idle worker (straggler re-dispatch).
    pub lease_timeout: Duration,
    /// Exponential backoff base for re-enqueued units.
    pub retry_base: Duration,
    /// Backoff cap.
    pub retry_cap: Duration,
    /// Remote attempts per unit before it falls back to the local
    /// executor.
    pub max_remote_attempts: u32,
    /// With zero connected workers, how long the dispatcher waits
    /// before running units locally (gives workers time to connect).
    pub local_fallback_after: Duration,
    /// Decomposition width: how many parallel consumers to split units
    /// for (the thread scheduler's `jobs`). Use the expected fleet
    /// core count.
    pub split_jobs: usize,
    /// Split large units into core sub-ranges (see the scheduler).
    pub split_units: bool,
    /// Fleet gauges and counters (see [`SvcMetrics`]).
    pub metrics: Option<Arc<SvcMetrics>>,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            heartbeat: Duration::from_millis(500),
            heartbeat_grace: 4,
            lease_timeout: Duration::from_secs(30),
            retry_base: Duration::from_millis(50),
            retry_cap: Duration::from_secs(2),
            max_remote_attempts: 3,
            local_fallback_after: Duration::from_secs(5),
            split_jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            split_units: true,
            metrics: None,
        }
    }
}

/// What a check looks like on the wire: the canonical spec text (as
/// `print_spec` renders it — also the fingerprint input) and the
/// property source text.
#[derive(Clone, Debug)]
pub struct CheckSource {
    pub spec: String,
    pub property: String,
}

// ---------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------

fn budget_to_json(b: &Budget) -> Json {
    match b {
        Budget::Steps(n) => Json::obj([("steps", u64_to_json(*n))]),
        Budget::Time(d) => Json::obj([("time_ns", u64_to_json(d.as_nanos() as u64))]),
        Budget::Cancelled => Json::from("cancelled"),
    }
}

fn budget_from_json(v: &Json) -> Option<Budget> {
    if v.as_str() == Some("cancelled") {
        return Some(Budget::Cancelled);
    }
    if let Some(n) = v.get("steps").and_then(u64_from_json) {
        return Some(Budget::Steps(n));
    }
    let ns = v.get("time_ns").and_then(u64_from_json)?;
    Some(Budget::Time(Duration::from_nanos(ns)))
}

fn stats_to_json(s: &Stats) -> Json {
    Json::obj([
        ("elapsed_ns", u64_to_json(s.elapsed.as_nanos() as u64)),
        ("max_run_len", u64_to_json(s.max_run_len as u64)),
        ("max_trie", u64_to_json(s.max_trie as u64)),
        ("max_resident", u64_to_json(s.max_resident as u64)),
        ("max_spilled", u64_to_json(s.max_spilled as u64)),
        ("configs", u64_to_json(s.configs)),
        ("cores", u64_to_json(s.cores)),
        ("assignments", u64_to_json(s.assignments)),
        ("profile", profile_to_json(&s.profile)),
    ])
}

fn stats_from_json(v: &Json) -> Option<Stats> {
    let field = |name: &str| v.get(name).and_then(u64_from_json);
    Some(Stats {
        elapsed: Duration::from_nanos(field("elapsed_ns")?),
        max_run_len: field("max_run_len")? as usize,
        max_trie: field("max_trie")? as usize,
        max_resident: field("max_resident")? as usize,
        max_spilled: field("max_spilled")? as usize,
        configs: field("configs")?,
        cores: field("cores")?,
        assignments: field("assignments")?,
        profile: profile_from_json(v.get("profile")?),
        // per-query attribution only exists on profiled runs, which the
        // fleet never ships
        queries: Vec::new(),
    })
}

/// Encode a unit outcome for the wire. Counterexamples reuse the cache
/// trace codec (raw interned indices — deterministic given the
/// fingerprint key, which is why specs ship as canonical text).
pub(crate) fn unit_outcome_to_json(o: &UnitOutcome) -> Json {
    let result = match &o.result {
        SearchResult::Clean => Json::from("clean"),
        SearchResult::Violation(ce) => Json::obj([(
            "violation",
            Json::obj([
                ("cycle_start", u64_to_json(ce.cycle_start as u64)),
                ("ce", ce_to_json(ce)),
            ]),
        )]),
        SearchResult::Exhausted(b) => Json::obj([("exhausted", budget_to_json(b))]),
    };
    Json::obj([("result", result), ("stats", stats_to_json(&o.stats))])
}

pub(crate) fn unit_outcome_from_json(v: &Json) -> Option<UnitOutcome> {
    let result = v.get("result")?;
    let result = if result.as_str() == Some("clean") {
        SearchResult::Clean
    } else if let Some(violation) = result.get("violation") {
        let cycle_start = violation.get("cycle_start").and_then(u64_from_json)? as usize;
        let mut ce = ce_from_json(violation.get("ce")?)?;
        ce.cycle_start = cycle_start;
        SearchResult::Violation(ce)
    } else if let Some(budget) = result.get("exhausted") {
        SearchResult::Exhausted(budget_from_json(budget)?)
    } else {
        return None;
    };
    Some(UnitOutcome { result, stats: stats_from_json(v.get("stats")?)? })
}

fn send_line(writer: &mut impl Write, msg: &Json) -> io::Result<()> {
    writer.write_all(format!("{msg}\n").as_bytes())?;
    writer.flush()
}

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

/// A unit waiting to be dispatched (or re-dispatched).
struct Pending {
    item: usize,
    /// Failed remote attempts so far.
    attempts: u32,
    /// Backoff gate: not claimable before this instant.
    not_before: Instant,
    queued_at: Instant,
}

/// A unit out on a worker.
struct Lease {
    item: usize,
    attempts: u32,
    since: Instant,
    /// Already duplicated by the straggler monitor.
    redispatched: bool,
}

struct DispatchState {
    pending: Vec<Pending>,
    leases: HashMap<u64, Lease>,
    /// Per check, per ordinal: the recorded outcome (first wins).
    slots: Vec<Vec<Option<Result<UnitOutcome, VerifyError>>>>,
    /// Per check: lowest ordinal with a decisive outcome.
    best: Vec<usize>,
    /// Per check: unrecorded items.
    check_remaining: Vec<usize>,
    /// Per check: wall-clock when its last item recorded.
    done_at: Vec<Option<Duration>>,
    /// Per check: `configs` recorded so far — the lease-sizing charge.
    charged: Vec<u64>,
    /// Total unrecorded items.
    remaining: usize,
    connected: usize,
    shutdown: bool,
}

struct Shared<'s> {
    options: &'s VerifyOptions,
    checks: &'s [PreparedCheck<'s>],
    sources: &'s [CheckSource],
    keys: Vec<String>,
    items: Vec<Item>,
    item_offsets: Vec<usize>,
    pools: Vec<Option<Arc<BudgetPool>>>,
    fopts: FleetOptions,
    state: Mutex<DispatchState>,
    cv: Condvar,
    start: Instant,
    next_lease: AtomicU64,
}

impl Shared<'_> {
    fn metrics(&self) -> Option<&SvcMetrics> {
        self.fopts.metrics.as_deref()
    }
}

fn cancelled_outcome() -> UnitOutcome {
    UnitOutcome { result: SearchResult::Exhausted(Budget::Cancelled), stats: Stats::default() }
}

/// Record into the ordinal slot under the lock. Returns `false` for a
/// duplicate (slot already filled by a faster twin).
fn record_locked(
    shared: &Shared<'_>,
    state: &mut DispatchState,
    item_idx: usize,
    outcome: Result<UnitOutcome, VerifyError>,
) -> bool {
    let item = &shared.items[item_idx];
    let slot = &mut state.slots[item.check][item.ordinal];
    if slot.is_some() {
        return false;
    }
    if let Ok(o) = &outcome {
        state.charged[item.check] += o.stats.configs;
        if !matches!(o.result, SearchResult::Clean) && item.ordinal < state.best[item.check] {
            // decisive: later ordinals of this check are now moot — the
            // pending sweep converts them to zero-cost cancelled records
            state.best[item.check] = item.ordinal;
        }
    } else if item.ordinal < state.best[item.check] {
        state.best[item.check] = item.ordinal;
    }
    *slot = Some(outcome);
    state.check_remaining[item.check] -= 1;
    if state.check_remaining[item.check] == 0 {
        state.done_at[item.check] = Some(shared.start.elapsed());
    }
    state.remaining -= 1;
    shared.cv.notify_all();
    true
}

/// Drop moot pending entries: slot already recorded (re-dispatch twin
/// won), or a lower ordinal already decided the check (record a
/// zero-cost cancelled outcome, exactly like the thread scheduler's
/// skip path).
fn sweep_pending(shared: &Shared<'_>, state: &mut DispatchState) {
    let mut i = 0;
    while i < state.pending.len() {
        let idx = state.pending[i].item;
        let item = &shared.items[idx];
        if state.slots[item.check][item.ordinal].is_some() {
            state.pending.swap_remove(i);
            continue;
        }
        if state.best[item.check] < item.ordinal {
            state.pending.swap_remove(i);
            record_locked(shared, state, idx, Ok(cancelled_outcome()));
            continue;
        }
        i += 1;
    }
}

fn backoff(fopts: &FleetOptions, attempts: u32) -> Duration {
    let factor = 1u32 << attempts.saturating_sub(1).min(16);
    (fopts.retry_base * factor).min(fopts.retry_cap)
}

/// Return a failed lease to the pending queue with backoff — unless its
/// slot was meanwhile filled by a re-dispatched twin.
fn requeue(shared: &Shared<'_>, lease_id: u64) {
    let mut state = lock_tolerant(&shared.state);
    let Some(lease) = state.leases.remove(&lease_id) else { return };
    let item = &shared.items[lease.item];
    if state.slots[item.check][item.ordinal].is_some() {
        return;
    }
    let attempts = lease.attempts + 1;
    let now = Instant::now();
    state.pending.push(Pending {
        item: lease.item,
        attempts,
        not_before: now + backoff(&shared.fopts, attempts),
        queued_at: now,
    });
    shared.cv.notify_all();
}

enum Claim {
    Run {
        item_idx: usize,
        lease_id: u64,
    },
    /// Nothing claimable right now; the caller loops.
    Wait,
    /// Everything recorded — session over.
    Finished,
}

/// Claim the cheapest eligible pending unit for a remote worker, or
/// wait a beat. Mirrors the thread scheduler's cheapest-first pick
/// order (`(cost, check, ordinal)`).
fn claim_remote(shared: &Shared<'_>) -> Claim {
    let mut state = lock_tolerant(&shared.state);
    if state.shutdown {
        return Claim::Finished;
    }
    sweep_pending(shared, &mut state);
    if state.remaining == 0 {
        return Claim::Finished;
    }
    let now = Instant::now();
    let mut best: Option<usize> = None;
    for (pi, p) in state.pending.iter().enumerate() {
        if p.attempts >= shared.fopts.max_remote_attempts || p.not_before > now {
            continue;
        }
        let key = |i: usize| {
            let item = &shared.items[state.pending[i].item];
            (item.cost, item.check, item.ordinal)
        };
        if best.is_none_or(|b| key(pi) < key(b)) {
            best = Some(pi);
        }
    }
    let Some(pi) = best else {
        let (_state, _timeout) = shared
            .cv
            .wait_timeout(state, Duration::from_millis(50))
            .unwrap_or_else(|p| p.into_inner());
        return Claim::Wait;
    };
    let p = state.pending.swap_remove(pi);
    let lease_id = shared.next_lease.fetch_add(1, Ordering::Relaxed);
    state.leases.insert(
        lease_id,
        Lease { item: p.item, attempts: p.attempts, since: now, redispatched: false },
    );
    Claim::Run { item_idx: p.item, lease_id }
}

/// Read worker lines until a non-heartbeat message. `Ok(None)` means
/// the session is over (shutdown observed) — abandon quietly.
fn read_reply(reader: &mut BufReader<TcpStream>, shared: &Shared<'_>) -> io::Result<Option<Json>> {
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "worker closed connection"));
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let msg = json::parse(line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if msg.get("fleet").and_then(Json::as_str) == Some("hb") {
            if let Some(m) = shared.metrics() {
                m.fleet_heartbeats_total.inc();
            }
            let state = lock_tolerant(&shared.state);
            if state.shutdown {
                return Ok(None);
            }
            continue;
        }
        return Ok(Some(msg));
    }
}

/// Serve one worker connection: register, then claim → (load) → run →
/// record until everything settles. Any I/O or protocol failure is a
/// worker death: the in-flight lease is re-enqueued with backoff.
fn serve_worker(stream: TcpStream, shared: &Shared<'_>) {
    let fopts = &shared.fopts;
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(fopts.heartbeat * fopts.heartbeat_grace)).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);

    // registration: hello in, welcome out
    let hello = match read_reply(&mut reader, shared) {
        Ok(Some(msg)) if msg.get("fleet").and_then(Json::as_str) == Some("hello") => msg,
        _ => return,
    };
    let _worker_name = hello.get("name").and_then(Json::as_str).unwrap_or("?").to_string();
    let welcome = Json::obj([
        ("fleet", Json::from("welcome")),
        ("heartbeat_ms", u64_to_json(fopts.heartbeat.as_millis() as u64)),
    ]);
    if send_line(&mut writer, &welcome).is_err() {
        return;
    }
    {
        let mut state = lock_tolerant(&shared.state);
        state.connected += 1;
    }
    if let Some(m) = shared.metrics() {
        m.fleet_workers_total.inc();
        m.fleet_workers_connected.inc();
    }

    let mut loaded: HashSet<usize> = HashSet::new();
    let mut death: Option<u64> = None; // lease to requeue on exit
    loop {
        let (item_idx, lease_id) = match claim_remote(shared) {
            Claim::Run { item_idx, lease_id } => (item_idx, lease_id),
            Claim::Wait => continue,
            Claim::Finished => {
                let _ = send_line(&mut writer, &Json::obj([("fleet", Json::from("bye"))]));
                break;
            }
        };
        let item = &shared.items[item_idx];
        let check = item.check;

        // ship the spec once per connection per check
        if !loaded.contains(&check) {
            let load = Json::obj([
                ("fleet", Json::from("load")),
                ("key", Json::from(shared.keys[check].clone())),
                ("spec", Json::from(shared.sources[check].spec.clone())),
                ("property", Json::from(shared.sources[check].property.clone())),
                ("options", options_to_json(shared.options)),
            ]);
            let reply =
                send_line(&mut writer, &load).and_then(|()| read_reply(&mut reader, shared));
            match reply {
                Ok(Some(msg)) if msg.get("fleet").and_then(Json::as_str) == Some("loaded") => {
                    loaded.insert(check);
                }
                Ok(None) => {
                    abandon(shared, lease_id);
                    let _ = send_line(&mut writer, &Json::obj([("fleet", Json::from("bye"))]));
                    break;
                }
                // load_error or transport failure: this worker cannot
                // run the check (version skew, OOM, …) — treat as death
                _ => {
                    death = Some(lease_id);
                    break;
                }
            }
        }

        // budget lease: exactly what the check has left by the recorded
        // charges (settlement re-normalizes, so this is policy only)
        let (lease_steps, lease_ms) = {
            let state = lock_tolerant(&shared.state);
            let steps = shared.options.max_steps.map(|m| m.saturating_sub(state.charged[check]));
            let ms = shared
                .options
                .time_limit
                .map(|t| t.saturating_sub(shared.start.elapsed()).as_millis() as u64);
            (steps, ms)
        };
        let mut run = vec![
            ("fleet", Json::from("run")),
            ("key", Json::from(shared.keys[check].clone())),
            ("unit", u64_to_json(item.unit as u64)),
            ("ordinal", u64_to_json(item.ordinal as u64)),
        ];
        if let Some(range) = &item.cores {
            run.push(("lo", u64_to_json(range.start)));
            run.push(("hi", u64_to_json(range.end)));
        }
        if let Some(steps) = lease_steps {
            run.push(("lease_steps", u64_to_json(steps)));
        }
        if let Some(ms) = lease_ms {
            run.push(("lease_ms", u64_to_json(ms)));
        }
        run.push(("chunk", u64_to_json(shared.options.budget_chunk)));
        if send_line(&mut writer, &Json::obj(run)).is_err() {
            death = Some(lease_id);
            break;
        }
        if let Some(m) = shared.metrics() {
            m.fleet_units_dispatched_total.inc();
        }

        match read_reply(&mut reader, shared) {
            Ok(Some(msg)) if msg.get("fleet").and_then(Json::as_str) == Some("outcome") => {
                if let Some(error) = msg.get("error").and_then(Json::as_str) {
                    // remote errors are transport failures: the unit is
                    // a pure function locally, so never record them —
                    // re-enqueue (backoff), eventually local fallback
                    let _ = error;
                    if let Some(m) = shared.metrics() {
                        m.fleet_worker_errors_total.inc();
                    }
                    requeue(shared, lease_id);
                    continue;
                }
                let Some(outcome) = unit_outcome_from_json(&msg) else {
                    death = Some(lease_id);
                    break;
                };
                let recorded = {
                    let mut state = lock_tolerant(&shared.state);
                    state.leases.remove(&lease_id);
                    record_locked(shared, &mut state, item_idx, Ok(outcome))
                };
                if recorded {
                    if let Some(m) = shared.metrics() {
                        m.fleet_units_completed_total.inc();
                    }
                }
            }
            Ok(None) => {
                abandon(shared, lease_id);
                let _ = send_line(&mut writer, &Json::obj([("fleet", Json::from("bye"))]));
                break;
            }
            _ => {
                death = Some(lease_id);
                break;
            }
        }
    }

    if let Some(lease_id) = death {
        if let Some(m) = shared.metrics() {
            m.fleet_worker_deaths_total.inc();
        }
        requeue(shared, lease_id);
    }
    {
        let mut state = lock_tolerant(&shared.state);
        state.connected -= 1;
        shared.cv.notify_all();
    }
    if let Some(m) = shared.metrics() {
        m.fleet_workers_connected.dec();
    }
}

/// Drop a lease without requeueing (session over, everything recorded).
fn abandon(shared: &Shared<'_>, lease_id: u64) {
    let mut state = lock_tolerant(&shared.state);
    state.leases.remove(&lease_id);
}

/// The straggler monitor: duplicate timed-out leases onto the pending
/// queue so an idle worker can race the slow one.
fn monitor_leases(shared: &Shared<'_>) {
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let mut state = lock_tolerant(&shared.state);
        if state.shutdown {
            return;
        }
        let now = Instant::now();
        let mut dupes: Vec<(u64, usize, u32)> = Vec::new();
        for (&id, lease) in &state.leases {
            if !lease.redispatched && now.duration_since(lease.since) > shared.fopts.lease_timeout {
                dupes.push((id, lease.item, lease.attempts));
            }
        }
        for (id, item, attempts) in dupes {
            let filled = {
                let it = &shared.items[item];
                state.slots[it.check][it.ordinal].is_some()
            };
            if let Some(lease) = state.leases.get_mut(&id) {
                lease.redispatched = true;
            }
            if filled {
                continue;
            }
            state.pending.push(Pending { item, attempts, not_before: now, queued_at: now });
            if let Some(m) = shared.metrics() {
                m.fleet_lease_timeouts_total.inc();
                m.fleet_units_redispatched_total.inc();
            }
            shared.cv.notify_all();
        }
    }
}

/// The local fallback executor: runs units on the dispatcher itself
/// when remote capacity cannot — attempts exhausted, no workers
/// connected, or a unit stuck pending past the lease timeout. This is
/// what guarantees the fleet terminates with zero (or only dead)
/// workers.
fn run_local(shared: &Shared<'_>) {
    loop {
        let claimed = {
            let mut state = lock_tolerant(&shared.state);
            if state.shutdown {
                return;
            }
            sweep_pending(shared, &mut state);
            if state.remaining == 0 {
                return;
            }
            let now = Instant::now();
            let idle_fleet =
                state.connected == 0 && shared.start.elapsed() > shared.fopts.local_fallback_after;
            let mut best: Option<usize> = None;
            for (pi, p) in state.pending.iter().enumerate() {
                let eligible = p.attempts >= shared.fopts.max_remote_attempts
                    || idle_fleet
                    || now.duration_since(p.queued_at) > shared.fopts.lease_timeout;
                if !eligible || p.not_before > now {
                    continue;
                }
                let key = |i: usize| {
                    let item = &shared.items[state.pending[i].item];
                    (item.cost, item.check, item.ordinal)
                };
                if best.is_none_or(|b| key(pi) < key(b)) {
                    best = Some(pi);
                }
            }
            match best {
                Some(pi) => Some(state.pending.swap_remove(pi).item),
                None => {
                    let _ = shared
                        .cv
                        .wait_timeout(state, Duration::from_millis(20))
                        .unwrap_or_else(|p| p.into_inner());
                    None
                }
            }
        };
        let Some(item_idx) = claimed else { continue };
        let item = &shared.items[item_idx];
        let limits = SearchLimits {
            pool: shared.pools[item.check].clone(),
            cancel: shared.options.cancel.clone(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.checks[item.check].run_unit(item.unit, item.cores.clone(), &limits)
        }))
        .unwrap_or_else(|p| Err(VerifyError::Panic(panic_message(p))));
        let mut state = lock_tolerant(&shared.state);
        if record_locked(shared, &mut state, item_idx, outcome) {
            if let Some(m) = shared.metrics() {
                m.fleet_local_units_total.inc();
            }
        }
    }
}

/// A bound fleet dispatcher. Workers connect to
/// [`FleetDispatcher::local_addr`]; [`FleetDispatcher::run_checks`] runs
/// one dispatch session.
pub struct FleetDispatcher {
    listener: TcpListener,
    options: FleetOptions,
}

impl FleetDispatcher {
    pub fn bind(addr: &str, options: FleetOptions) -> io::Result<FleetDispatcher> {
        Ok(FleetDispatcher { listener: TcpListener::bind(addr)?, options })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Dispatch the prepared checks across whatever workers connect
    /// (plus the local fallback executor), then settle deterministically.
    /// `sources[i]` must be the canonical spec/property text behind
    /// `checks[i]` — it is what workers receive and what keys the specs.
    pub fn run_checks(
        &self,
        options: &VerifyOptions,
        checks: &[PreparedCheck<'_>],
        sources: &[CheckSource],
    ) -> Vec<Result<Verification, VerifyError>> {
        assert_eq!(checks.len(), sources.len(), "one source per check");
        let start = Instant::now();
        let fopts = self.options.clone();
        let pools: Vec<_> = checks.iter().map(|_| options.budget_pool(start)).collect();
        let (items, item_offsets) = decompose(checks, fopts.split_jobs.max(1), fopts.split_units);
        let keys: Vec<String> =
            sources.iter().map(|s| fingerprint(&s.spec, &s.property, options)).collect();
        let counts: Vec<usize> = {
            let mut counts = vec![0usize; checks.len()];
            for item in &items {
                counts[item.check] += 1;
            }
            counts
        };
        let now = Instant::now();
        let state = DispatchState {
            pending: (0..items.len())
                .map(|i| Pending { item: i, attempts: 0, not_before: now, queued_at: now })
                .collect(),
            leases: HashMap::new(),
            slots: counts.iter().map(|&n| (0..n).map(|_| None).collect()).collect(),
            best: vec![usize::MAX; checks.len()],
            check_remaining: counts.clone(),
            done_at: counts
                .iter()
                .map(|&n| if n == 0 { Some(start.elapsed()) } else { None })
                .collect(),
            charged: vec![0; checks.len()],
            remaining: items.len(),
            connected: 0,
            shutdown: false,
        };
        let shared = Shared {
            options,
            checks,
            sources,
            keys,
            items,
            item_offsets,
            pools,
            fopts,
            state: Mutex::new(state),
            cv: Condvar::new(),
            start,
            next_lease: AtomicU64::new(0),
        };
        let accepting = AtomicBool::new(true);

        std::thread::scope(|scope| {
            // accept loop: one serve_worker thread per connection
            let listener = &self.listener;
            let shared_ref = &shared;
            let accepting_ref = &accepting;
            scope.spawn(move || {
                loop {
                    let Ok((stream, _)) = listener.accept() else {
                        if !accepting_ref.load(Ordering::Acquire) {
                            break;
                        }
                        continue;
                    };
                    if !accepting_ref.load(Ordering::Acquire) {
                        break; // the shutdown poke
                    }
                    scope.spawn(move || serve_worker(stream, shared_ref));
                }
            });
            scope.spawn(move || monitor_leases(shared_ref));
            // the local executor runs searches: it needs the big stack
            std::thread::Builder::new()
                .name("wave-fleet-local".into())
                .stack_size(512 << 20)
                .spawn_scoped(scope, move || run_local(shared_ref))
                .expect("spawn local executor");

            // wait for every slot, then shut the session down
            {
                let mut state = lock_tolerant(&shared.state);
                while state.remaining > 0 {
                    state = shared
                        .cv
                        .wait_timeout(state, Duration::from_millis(100))
                        .unwrap_or_else(|p| p.into_inner())
                        .0;
                }
                state.shutdown = true;
                shared.cv.notify_all();
            }
            accepting.store(false, Ordering::Release);
            // poke the accept loop so it observes the flag
            if let Ok(addr) = self.listener.local_addr() {
                let _ = TcpStream::connect(addr);
            }
        });

        let state = shared.state.into_inner().unwrap_or_else(|p| p.into_inner());
        let slots: Vec<CheckSlots> = state
            .slots
            .into_iter()
            .zip(state.done_at)
            .map(|(outcomes, done_at)| CheckSlots { outcomes, done_at })
            .collect();
        crate::scheduler::settle_checks(
            options,
            checks,
            &shared.items,
            &shared.item_offsets,
            &shared.pools,
            slots,
            start,
        )
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// `wave worker` configuration.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Dispatcher address (`host:port`).
    pub connect: String,
    /// Name reported in `hello` (diagnostics only).
    pub name: String,
    /// Keep retrying the initial connect for this long (the dispatcher
    /// may not be up yet).
    pub connect_timeout: Duration,
    /// Fault injection: exit cleanly after completing this many units.
    pub max_units: Option<u64>,
    /// Fault injection: drop the connection (no reply, no goodbye) upon
    /// *receiving* the Nth run command — a worker killed mid-unit.
    pub abort_unit: Option<u64>,
}

impl WorkerConfig {
    pub fn new(connect: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            connect: connect.into(),
            name: "worker".to_string(),
            connect_timeout: Duration::from_secs(10),
            max_units: None,
            abort_unit: None,
        }
    }
}

/// What a worker did before exiting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    pub units_completed: u64,
}

fn connect_with_retry(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Run a worker until the dispatcher says bye, the connection drops, or
/// a fault-injection limit fires. Connects, registers, heartbeats on a
/// side thread, and executes units on a big-stack thread.
pub fn run_worker(config: &WorkerConfig) -> io::Result<WorkerReport> {
    let stream = connect_with_retry(&config.connect, config.connect_timeout)?;
    let _ = stream.set_nodelay(true);
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = BufReader::new(stream);
    {
        let mut w = lock_tolerant(&writer);
        send_line(
            &mut *w,
            &Json::obj([
                ("fleet", Json::from("hello")),
                ("name", Json::from(config.name.clone())),
                ("v", Json::from(1u64)),
            ]),
        )?;
    }
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no welcome"));
    }
    let welcome = json::parse(line.trim())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let heartbeat = welcome
        .get("heartbeat_ms")
        .and_then(u64_from_json)
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_millis(500));

    // heartbeat thread: one hb line per cadence until stopped
    let stop = Arc::new(AtomicBool::new(false));
    let hb_writer = Arc::clone(&writer);
    let hb_stop = Arc::clone(&stop);
    let hb = std::thread::Builder::new()
        .name("wave-worker-hb".into())
        .spawn(move || {
            let hb_line = Json::obj([("fleet", Json::from("hb"))]);
            let mut slept = Duration::ZERO;
            loop {
                std::thread::sleep(Duration::from_millis(25));
                slept += Duration::from_millis(25);
                if hb_stop.load(Ordering::Acquire) {
                    return;
                }
                if slept >= heartbeat {
                    slept = Duration::ZERO;
                    let mut w = lock_tolerant(&hb_writer);
                    if send_line(&mut *w, &hb_line).is_err() {
                        return;
                    }
                }
            }
        })
        .expect("spawn heartbeat thread");

    let result = worker_loop(config, &mut reader, &writer);
    stop.store(true, Ordering::Release);
    let _ = hb.join();
    result
}

fn worker_loop(
    config: &WorkerConfig,
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
) -> io::Result<WorkerReport> {
    let mut specs: HashMap<String, (Verifier, Property)> = HashMap::new();
    let mut report = WorkerReport::default();
    let mut runs_received = 0u64;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(report); // dispatcher went away
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(msg) = json::parse(line) else { continue };
        match msg.get("fleet").and_then(Json::as_str) {
            Some("load") => {
                let reply = load_spec(&msg, &mut specs);
                let mut w = lock_tolerant(writer);
                if send_line(&mut *w, &reply).is_err() {
                    return Ok(report);
                }
            }
            Some("run") => {
                runs_received += 1;
                if config.abort_unit == Some(runs_received) {
                    // injected death: vanish mid-unit, no reply
                    return Ok(report);
                }
                let reply = run_unit_remote(&msg, &specs);
                let mut w = lock_tolerant(writer);
                if send_line(&mut *w, &reply).is_err() {
                    return Ok(report);
                }
                drop(w);
                report.units_completed += 1;
                if config.max_units == Some(report.units_completed) {
                    return Ok(report); // injected exit between units
                }
            }
            Some("bye") => return Ok(report),
            _ => continue,
        }
    }
}

fn load_spec(msg: &Json, specs: &mut HashMap<String, (Verifier, Property)>) -> Json {
    let key = msg.get("key").and_then(Json::as_str).unwrap_or_default().to_string();
    let fail = |key: &str, error: String| {
        Json::obj([
            ("fleet", Json::from("load_error")),
            ("key", Json::from(key)),
            ("error", Json::from(error)),
        ])
    };
    let Some(spec_text) = msg.get("spec").and_then(Json::as_str) else {
        return fail(&key, "load without spec".to_string());
    };
    let Some(property_text) = msg.get("property").and_then(Json::as_str) else {
        return fail(&key, "load without property".to_string());
    };
    let options = match parse_options(msg.get("options")) {
        Ok(o) => o,
        Err(e) => return fail(&key, e),
    };
    let spec = match parse_spec(spec_text) {
        Ok(s) => s,
        Err(e) => return fail(&key, e.to_string()),
    };
    let property = match parse_property(property_text) {
        Ok(p) => p,
        Err(e) => return fail(&key, e.to_string()),
    };
    let verifier = match Verifier::with_options(spec, options) {
        Ok(v) => v,
        Err(e) => return fail(&key, e.to_string()),
    };
    let units = match verifier.prepare(&property) {
        Ok(prepared) => prepared.num_units(),
        Err(e) => return fail(&key, e.to_string()),
    };
    specs.insert(key.clone(), (verifier, property));
    Json::obj([
        ("fleet", Json::from("loaded")),
        ("key", Json::from(key)),
        ("units", u64_to_json(units as u64)),
    ])
}

fn run_unit_remote(msg: &Json, specs: &HashMap<String, (Verifier, Property)>) -> Json {
    let key = msg.get("key").and_then(Json::as_str).unwrap_or_default().to_string();
    let unit = msg.get("unit").and_then(u64_from_json).unwrap_or(0) as usize;
    let fail = |error: String| {
        Json::obj([
            ("fleet", Json::from("outcome")),
            ("key", Json::from(key.clone())),
            ("unit", u64_to_json(unit as u64)),
            ("error", Json::from(error)),
        ])
    };
    let Some((verifier, property)) = specs.get(&key) else {
        return fail(format!("unknown spec key {key:?}"));
    };
    let cores = match (msg.get("lo").and_then(u64_from_json), msg.get("hi").and_then(u64_from_json))
    {
        (Some(lo), Some(hi)) => Some(lo..hi),
        _ => None,
    };
    let lease_steps = msg.get("lease_steps").and_then(u64_from_json);
    let lease_time = msg.get("lease_ms").and_then(u64_from_json).map(Duration::from_millis);
    let chunk = msg.get("chunk").and_then(u64_from_json).unwrap_or(wave_core::DEFAULT_BUDGET_CHUNK);
    let pool = BudgetPool::new(lease_steps, lease_time, chunk, Instant::now());
    let limits = SearchLimits { pool, cancel: None };

    // the NDFS recurses: give the search its big stack, and catch
    // panics so a poisoned unit reports an error instead of killing
    // the worker process
    let outcome = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("wave-worker-unit".into())
            .stack_size(512 << 20)
            .spawn_scoped(scope, || {
                catch_unwind(AssertUnwindSafe(|| {
                    let prepared = verifier.prepare(property)?;
                    prepared.run_unit(unit, cores.clone(), &limits)
                }))
                .unwrap_or_else(|p| Err(VerifyError::Panic(panic_message(p))))
            })
            .expect("spawn unit thread")
            .join()
            .expect("unit thread panicked")
    });
    match outcome {
        Ok(o) => {
            let encoded = unit_outcome_to_json(&o);
            let mut pairs = vec![
                ("fleet".to_string(), Json::from("outcome")),
                ("key".to_string(), Json::from(key)),
                ("unit".to_string(), u64_to_json(unit as u64)),
            ];
            if let Json::Obj(inner) = encoded {
                pairs.extend(inner);
            }
            Json::Obj(pairs)
        }
        Err(e) => fail(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use wave_core::{CounterExample, PseudoConfig, TraceStep};
    use wave_relalg::{RelId, Tuple, Value};
    use wave_spec::PageId;

    fn sample_stats() -> Stats {
        Stats {
            elapsed: Duration::from_nanos(123_456_789_012),
            max_run_len: 7,
            max_trie: 1000,
            max_resident: 900,
            max_spilled: 100,
            configs: u64::MAX - 5, // exercises the string fallback
            cores: 42,
            assignments: 6,
            profile: wave_core::SearchProfile { expand_ns: 9, memo_hits: 3, ..Default::default() },
            queries: Vec::new(),
        }
    }

    fn sample_ce() -> CounterExample {
        let facts = |rows: &[(u32, &[u32])]| {
            rows.iter()
                .map(|(rel, vals)| {
                    (RelId(*rel), Tuple::from(vals.iter().map(|v| Value(*v)).collect::<Vec<_>>()))
                })
                .collect()
        };
        CounterExample {
            steps: vec![TraceStep {
                auto_state: 2,
                assignment: u64::MAX - 1,
                config: PseudoConfig {
                    page: PageId(1),
                    ext: StdArc::new(facts(&[(0, &[1, 2])])),
                    input: StdArc::new(facts(&[(1, &[4])])),
                    prev: StdArc::new(facts(&[])),
                    state: StdArc::new(facts(&[(2, &[5])])),
                    actions: StdArc::new(facts(&[])),
                },
            }],
            cycle_start: 0,
            core: facts(&[(0, &[1, 2])]),
            assignment: vec![("x".to_string(), Value(7))],
        }
    }

    #[test]
    fn unit_outcome_wire_round_trips() {
        for outcome in [
            UnitOutcome { result: SearchResult::Clean, stats: sample_stats() },
            UnitOutcome { result: SearchResult::Violation(sample_ce()), stats: sample_stats() },
            UnitOutcome {
                result: SearchResult::Exhausted(Budget::Steps(u64::MAX)),
                stats: Stats::default(),
            },
            UnitOutcome {
                result: SearchResult::Exhausted(Budget::Time(Duration::new(1, 999_999_999))),
                stats: Stats::default(),
            },
            UnitOutcome {
                result: SearchResult::Exhausted(Budget::Cancelled),
                stats: Stats::default(),
            },
        ] {
            let encoded = unit_outcome_to_json(&outcome);
            // through the actual wire form: print → parse
            let parsed = json::parse(&encoded.to_string()).unwrap();
            let back = unit_outcome_from_json(&parsed).expect("decodes");
            assert_eq!(format!("{:?}", back.result), format!("{:?}", outcome.result));
            assert_eq!(back.stats.configs, outcome.stats.configs);
            assert_eq!(back.stats.elapsed, outcome.stats.elapsed);
            assert_eq!(back.stats.max_trie, outcome.stats.max_trie);
            assert_eq!(back.stats.profile, outcome.stats.profile);
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let fopts = FleetOptions {
            retry_base: Duration::from_millis(50),
            retry_cap: Duration::from_secs(2),
            ..FleetOptions::default()
        };
        assert_eq!(backoff(&fopts, 1), Duration::from_millis(50));
        assert_eq!(backoff(&fopts, 2), Duration::from_millis(100));
        assert_eq!(backoff(&fopts, 3), Duration::from_millis(200));
        assert_eq!(backoff(&fopts, 7), Duration::from_secs(2), "capped");
        assert_eq!(backoff(&fopts, 60), Duration::from_secs(2), "no shift overflow");
    }
}
