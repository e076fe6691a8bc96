//! The verification result cache.
//!
//! Results are keyed by a fingerprint of the *canonical* specification
//! text (as `wave fmt` prints it, so formatting differences don't miss),
//! the property source text, and the semantically relevant
//! [`VerifyOptions`] fields (the cancellation token is excluded — it is
//! scheduling state, not semantics).
//!
//! A cached `violated` entry carries the *full* counterexample trace
//! (every pseudorun step with its configuration, the database core, and
//! the parameter assignment), so a hit can be replayed and re-validated
//! exactly like a fresh run — the trace is a pure function of the
//! fingerprint key, so the interned `Value` indices it stores are stable
//! across runs. Budget and elapsed figures round-trip *exactly* (steps
//! as integers, time as integer nanoseconds); entries written by older
//! versions (string budgets, `elapsed_s`, shape-only counterexamples)
//! still read back, minus the trace. The original run's
//! [`SearchProfile`] is kept (memory and disk tiers) and returned on
//! hit; search counters stay zeroed (`Stats.cores == 0`), which is how
//! callers tell a hit from a fresh run.
//!
//! When built [`ResultCache::with_metrics`], the cache counts hits,
//! misses, and memory-tier evictions into the service metrics registry.

use crate::json::{self, Json};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};
use wave_core::{
    Budget, CounterExample, Facts, PseudoConfig, SearchProfile, TraceStep, Verdict, Verification,
    VerifyOptions,
};
use wave_obs::Counter;
use wave_relalg::{RelId, Tuple, Value};
use wave_spec::PageId;

/// Default bound on in-memory cache entries (see [`ResultCache`]).
pub const DEFAULT_MEM_ENTRIES: usize = 256;

/// Compute the cache key: 128 hex-encoded bits of FNV-1a over the three
/// fingerprint components, NUL-separated.
///
/// Only *semantic* option fields participate: `cancel` (scheduling
/// state), `state_store` (a speed/memory knob — both backends produce
/// identical verdicts, traces and statistics), `naive_joins` (a query
/// ablation knob — optimized and naive plans compute identical
/// relations) and `budget_chunk` (a contention knob — the exhaustion
/// point is chunk-independent) are deliberately excluded, so runs under
/// any of those settings share cache entries.
pub fn fingerprint(spec_text: &str, property: &str, options: &VerifyOptions) -> String {
    let opts = format!(
        "h1={} h2={} pruning={:?} param={:?} max_steps={:?} time_limit={:?} plans={} slice={}",
        options.heuristic1,
        options.heuristic2,
        options.pruning,
        options.param_mode,
        options.max_steps,
        options.time_limit,
        options.use_plans,
        options.slice,
    );
    let mut bytes = Vec::with_capacity(spec_text.len() + property.len() + opts.len() + 2);
    bytes.extend_from_slice(spec_text.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(property.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(opts.as_bytes());
    // two FNV-1a passes with distinct offset bases; the second also folds
    // in the position, so the halves are independent enough for a cache
    let h1 = fnv1a(&bytes, 0xcbf29ce484222325);
    let h2 = fnv1a_pos(&bytes, 0x6c62272e07bb0142);
    format!("{h1:016x}{h2:016x}")
}

fn fnv1a(bytes: &[u8], offset: u64) -> u64 {
    let mut h = offset;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn fnv1a_pos(bytes: &[u8], offset: u64) -> u64 {
    let mut h = offset;
    for (i, &b) in bytes.iter().enumerate() {
        h ^= (b as u64) ^ ((i as u64) << 8);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// An exhausted budget, stored losslessly: steps as the exact integer,
/// time as integer nanoseconds. `Unknown(Cancelled)` is deliberately
/// unrepresentable — cancellation is scheduling state, not a
/// reproducible verdict, so such runs never reach the cache (and a
/// legacy `"cancelled"` string on disk reads back as a miss).
#[derive(Clone, Debug, PartialEq)]
pub enum CachedBudget {
    Steps(u64),
    Time(Duration),
}

impl CachedBudget {
    fn from_budget(b: &Budget) -> Option<CachedBudget> {
        match b {
            Budget::Steps(n) => Some(CachedBudget::Steps(*n)),
            Budget::Time(d) => Some(CachedBudget::Time(*d)),
            Budget::Cancelled => None,
        }
    }

    /// Back to the verifier's [`Budget`] (exact round-trip).
    pub fn to_budget(&self) -> Budget {
        match self {
            CachedBudget::Steps(n) => Budget::Steps(*n),
            CachedBudget::Time(d) => Budget::Time(*d),
        }
    }
}

/// A cacheable verdict.
#[derive(Clone, Debug, PartialEq)]
pub enum CachedVerdict {
    Holds,
    /// The counterexample: lasso shape plus — for entries written by this
    /// version — the full replayable trace. `trace` is `None` only for
    /// entries persisted before traces were cached.
    Violated {
        steps: usize,
        cycle_start: usize,
        trace: Option<CounterExample>,
    },
    Unknown {
        budget: CachedBudget,
    },
}

/// What the cache stores per key.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedResult {
    pub verdict: CachedVerdict,
    pub complete: bool,
    /// Wall-clock of the original run, reported for reference.
    pub elapsed: Duration,
    /// Per-phase profile of the original run, served back on hit (the
    /// record's `profile_source` field says `"cached"` then).
    pub profile: SearchProfile,
}

impl CachedResult {
    /// Summarize a verification for caching. `None` for cancelled runs:
    /// cancellation is scheduling state, not a reproducible verdict.
    pub fn from_verification(v: &Verification) -> Option<CachedResult> {
        let verdict = match &v.verdict {
            Verdict::Holds => CachedVerdict::Holds,
            Verdict::Violated(ce) => CachedVerdict::Violated {
                steps: ce.steps.len(),
                cycle_start: ce.cycle_start,
                trace: Some(ce.clone()),
            },
            Verdict::Unknown(b) => CachedVerdict::Unknown { budget: CachedBudget::from_budget(b)? },
        };
        Some(CachedResult {
            verdict,
            complete: v.complete,
            elapsed: v.stats.elapsed,
            profile: v.stats.profile.clone(),
        })
    }

    /// The full counterexample trace, when this entry carries one.
    pub fn counterexample(&self) -> Option<&CounterExample> {
        match &self.verdict {
            CachedVerdict::Violated { trace, .. } => trace.as_ref(),
            _ => None,
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![];
        match &self.verdict {
            CachedVerdict::Holds => pairs.push(("verdict", Json::from("holds"))),
            CachedVerdict::Violated { steps, cycle_start, trace } => {
                pairs.push(("verdict", Json::from("violated")));
                pairs.push(("steps", Json::from(*steps)));
                pairs.push(("cycle_start", Json::from(*cycle_start)));
                if let Some(ce) = trace {
                    pairs.push(("ce", ce_to_json(ce)));
                }
            }
            CachedVerdict::Unknown { budget } => {
                pairs.push(("verdict", Json::from("unknown")));
                let budget = match budget {
                    CachedBudget::Steps(n) => Json::obj([("steps", u64_to_json(*n))]),
                    CachedBudget::Time(d) => {
                        Json::obj([("time_ns", u64_to_json(d.as_nanos() as u64))])
                    }
                };
                pairs.push(("budget", budget));
            }
        }
        pairs.push(("complete", Json::from(self.complete)));
        pairs.push(("elapsed_ns", u64_to_json(self.elapsed.as_nanos() as u64)));
        pairs.push(("profile", profile_to_json(&self.profile)));
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Option<CachedResult> {
        let verdict = match v.get("verdict")?.as_str()? {
            "holds" => CachedVerdict::Holds,
            "violated" => {
                let cycle_start = v.get("cycle_start")?.as_u64()? as usize;
                // entries written before traces were persisted have no
                // "ce"; they read back shape-only
                let trace = v.get("ce").and_then(ce_from_json).map(|mut ce| {
                    ce.cycle_start = cycle_start;
                    ce
                });
                CachedVerdict::Violated {
                    steps: v.get("steps")?.as_u64()? as usize,
                    cycle_start,
                    trace,
                }
            }
            "unknown" => CachedVerdict::Unknown { budget: budget_from_json(v.get("budget")?)? },
            _ => return None,
        };
        // entries written before profiles were persisted have no
        // "profile" object; they read back with a zeroed profile
        let profile = v.get("profile").map(profile_from_json).unwrap_or_default();
        let elapsed = match v.get("elapsed_ns").and_then(u64_from_json) {
            Some(ns) => Duration::from_nanos(ns),
            // legacy entries stored lossy fractional seconds
            None => Duration::from_secs_f64(v.get("elapsed_s")?.as_f64()?.max(0.0)),
        };
        Some(CachedResult { verdict, complete: v.get("complete")?.as_bool()?, elapsed, profile })
    }
}

/// Serialize a `u64` exactly: a plain JSON number while `f64` represents
/// it losslessly, a decimal string beyond 2^53 (the hand-rolled [`Json`]
/// stores all numbers as `f64`). Shared with the fleet wire codecs.
pub(crate) fn u64_to_json(n: u64) -> Json {
    if n <= (1u64 << 53) {
        Json::from(n)
    } else {
        Json::Str(n.to_string())
    }
}

pub(crate) fn u64_from_json(v: &Json) -> Option<u64> {
    v.as_u64().or_else(|| v.as_str()?.parse().ok())
}

/// Encode a [`SearchProfile`] field-for-field (all counters fit f64 at
/// realistic magnitudes; the fleet and the cache share this layout).
pub(crate) fn profile_to_json(p: &SearchProfile) -> Json {
    Json::obj([
        ("canon_ns", Json::from(p.canon_ns)),
        ("intern_ns", Json::from(p.intern_ns)),
        ("expand_ns", Json::from(p.expand_ns)),
        ("eval_ns", Json::from(p.eval_ns)),
        ("visit_ns", Json::from(p.visit_ns)),
        ("intern_hits", Json::from(p.intern_hits)),
        ("intern_misses", Json::from(p.intern_misses)),
        ("steps_leased", Json::from(p.steps_leased)),
        ("steps_refunded", Json::from(p.steps_refunded)),
        ("spill_pairs", Json::from(p.spill_pairs)),
        ("spill_segments", Json::from(p.spill_segments)),
        ("spill_compactions", Json::from(p.spill_compactions)),
        ("bloom_skips", Json::from(p.bloom_skips)),
        ("cold_probes", Json::from(p.cold_probes)),
        ("memo_hits", Json::from(p.memo_hits)),
        ("memo_misses", Json::from(p.memo_misses)),
        ("join_builds", Json::from(p.join_builds)),
        ("slice_rules_removed", Json::from(p.slice_rules_removed)),
        ("slice_relations_removed", Json::from(p.slice_relations_removed)),
        ("flow_dead_rules", Json::from(p.flow_dead_rules)),
    ])
}

/// Decode a profile object; absent fields read back zero, so entries
/// written by older versions (pre-tiered-store, pre-query-engine) parse.
pub(crate) fn profile_from_json(p: &Json) -> SearchProfile {
    let ns = |field: &str| p.get(field).and_then(Json::as_u64).unwrap_or(0);
    SearchProfile {
        canon_ns: ns("canon_ns"),
        intern_ns: ns("intern_ns"),
        expand_ns: ns("expand_ns"),
        eval_ns: ns("eval_ns"),
        visit_ns: ns("visit_ns"),
        intern_hits: ns("intern_hits"),
        intern_misses: ns("intern_misses"),
        steps_leased: ns("steps_leased"),
        steps_refunded: ns("steps_refunded"),
        spill_pairs: ns("spill_pairs"),
        spill_segments: ns("spill_segments"),
        spill_compactions: ns("spill_compactions"),
        bloom_skips: ns("bloom_skips"),
        cold_probes: ns("cold_probes"),
        memo_hits: ns("memo_hits"),
        memo_misses: ns("memo_misses"),
        join_builds: ns("join_builds"),
        slice_rules_removed: ns("slice_rules_removed"),
        slice_relations_removed: ns("slice_relations_removed"),
        flow_dead_rules: ns("flow_dead_rules"),
    }
}

/// Parse a stored budget: the structured object written by this version,
/// or the legacy `"steps:N"` / `"time:SECONDS"` strings. A legacy
/// `"cancelled"` string (or anything else unparseable) invalidates the
/// entry — the old writer serialized cancelled verdicts it should have
/// dropped, and there is nothing sound to serve for them.
fn budget_from_json(v: &Json) -> Option<CachedBudget> {
    if let Some(n) = v.get("steps").and_then(u64_from_json) {
        return Some(CachedBudget::Steps(n));
    }
    if let Some(ns) = v.get("time_ns").and_then(u64_from_json) {
        return Some(CachedBudget::Time(Duration::from_nanos(ns)));
    }
    let s = v.as_str()?;
    if let Some(n) = s.strip_prefix("steps:") {
        return n.parse().ok().map(CachedBudget::Steps);
    }
    if let Some(secs) = s.strip_prefix("time:") {
        let secs: f64 = secs.parse().ok()?;
        return (secs.is_finite() && secs >= 0.0)
            .then(|| CachedBudget::Time(Duration::from_secs_f64(secs)));
    }
    None
}

/// Encode a canonical fact list as `[[rel, v0, v1, …], …]` of raw
/// interned indices. The indices are deterministic given the fingerprint
/// key (canonical spec + property + semantic options), which is what
/// makes a persisted trace replayable.
fn facts_to_json(facts: &Facts) -> Json {
    Json::Arr(
        facts
            .iter()
            .map(|(rel, tuple)| {
                let mut row = vec![Json::from(u64::from(rel.0))];
                row.extend(tuple.values().iter().map(|v| Json::from(u64::from(v.0))));
                Json::Arr(row)
            })
            .collect(),
    )
}

fn facts_from_json(v: &Json) -> Option<Facts> {
    v.as_array()?
        .iter()
        .map(|row| {
            let row = row.as_array()?;
            let rel = RelId(u32::try_from(row.first()?.as_u64()?).ok()?);
            let values = row[1..]
                .iter()
                .map(|c| c.as_u64().and_then(|n| u32::try_from(n).ok()).map(Value))
                .collect::<Option<Vec<Value>>>()?;
            Some((rel, Tuple::from(values)))
        })
        .collect()
}

pub(crate) fn ce_to_json(ce: &CounterExample) -> Json {
    let params = Json::Arr(
        ce.assignment
            .iter()
            .map(|(name, v)| Json::Arr(vec![Json::from(name.clone()), Json::from(u64::from(v.0))]))
            .collect(),
    );
    let steps = Json::Arr(
        ce.steps
            .iter()
            .map(|step| {
                Json::obj([
                    ("auto", Json::from(step.auto_state)),
                    // the component bitmask is a full u64: go through a
                    // string to stay exact beyond f64's 2^53
                    ("assign", Json::from(step.assignment.to_string())),
                    ("page", Json::from(u64::from(step.config.page.0))),
                    ("ext", facts_to_json(&step.config.ext)),
                    ("input", facts_to_json(&step.config.input)),
                    ("prev", facts_to_json(&step.config.prev)),
                    ("state", facts_to_json(&step.config.state)),
                    ("actions", facts_to_json(&step.config.actions)),
                ])
            })
            .collect(),
    );
    Json::obj([("core", facts_to_json(&ce.core)), ("params", params), ("steps", steps)])
}

pub(crate) fn ce_from_json(v: &Json) -> Option<CounterExample> {
    let core = facts_from_json(v.get("core")?)?;
    let assignment = v
        .get("params")?
        .as_array()?
        .iter()
        .map(|pair| {
            let pair = pair.as_array()?;
            let name = pair.first()?.as_str()?.to_string();
            let value = Value(u32::try_from(pair.get(1)?.as_u64()?).ok()?);
            Some((name, value))
        })
        .collect::<Option<Vec<_>>>()?;
    let steps = v
        .get("steps")?
        .as_array()?
        .iter()
        .map(|step| {
            let config = PseudoConfig {
                page: PageId(u32::try_from(step.get("page")?.as_u64()?).ok()?),
                ext: Arc::new(facts_from_json(step.get("ext")?)?),
                input: Arc::new(facts_from_json(step.get("input")?)?),
                prev: Arc::new(facts_from_json(step.get("prev")?)?),
                state: Arc::new(facts_from_json(step.get("state")?)?),
                actions: Arc::new(facts_from_json(step.get("actions")?)?),
            };
            Some(TraceStep {
                auto_state: step.get("auto")?.as_u64()? as usize,
                config,
                assignment: step.get("assign")?.as_str()?.parse().ok()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    // the outer record's cycle_start is authoritative; from_json patches
    // it in after parsing
    Some(CounterExample { steps, cycle_start: 0, core, assignment })
}

/// The in-memory tier: an LRU-bounded map from fingerprint to result.
///
/// Recency is a monotone tick stamped on every get/put; eviction scans
/// for the minimum tick. The scan is O(entries), which at the bounded
/// sizes this cache runs at (hundreds) is cheaper than maintaining an
/// ordered structure on every hit.
struct MemCache {
    entries: HashMap<String, (CachedResult, u64)>,
    tick: u64,
    /// Maximum resident entries; `0` means unbounded.
    cap: usize,
}

impl MemCache {
    fn touch(&mut self, key: &str) -> Option<CachedResult> {
        self.tick += 1;
        let tick = self.tick;
        let (result, stamp) = self.entries.get_mut(key)?;
        *stamp = tick;
        Some(result.clone())
    }

    /// Insert, returning whether an LRU entry was evicted to make room.
    fn insert(&mut self, key: &str, result: CachedResult) -> bool {
        self.tick += 1;
        self.entries.insert(key.to_string(), (result, self.tick));
        if self.cap > 0 && self.entries.len() > self.cap {
            if let Some(oldest) =
                self.entries.iter().min_by_key(|(_, (_, t))| *t).map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                return true;
            }
        }
        false
    }
}

/// Hit/miss/eviction/persist-failure counters the cache feeds (see
/// [`crate::metrics::SvcMetrics`]).
#[derive(Clone)]
pub struct CacheMetrics {
    pub hits: Arc<Counter>,
    pub misses: Arc<Counter>,
    pub evictions: Arc<Counter>,
    pub persist_errors: Arc<Counter>,
}

/// In-memory LRU result cache with an optional on-disk mirror (one
/// `<fingerprint>.json` file per entry). Memory holds at most
/// [`DEFAULT_MEM_ENTRIES`] entries (configurable; long-running `wave
/// serve` processes stay bounded) — evicted entries are still served
/// from disk when a directory is configured.
pub struct ResultCache {
    mem: Mutex<MemCache>,
    dir: Option<PathBuf>,
    metrics: Option<CacheMetrics>,
}

impl ResultCache {
    pub fn in_memory() -> ResultCache {
        Self::bounded(DEFAULT_MEM_ENTRIES, None)
    }

    /// Cache backed by `dir` (created if missing).
    pub fn with_dir(dir: PathBuf) -> io::Result<ResultCache> {
        std::fs::create_dir_all(&dir)?;
        Ok(Self::bounded(DEFAULT_MEM_ENTRIES, Some(dir)))
    }

    /// Cache with an explicit in-memory entry bound (`0` = unbounded).
    /// The directory, when given, must already exist.
    pub fn bounded(mem_entries: usize, dir: Option<PathBuf>) -> ResultCache {
        ResultCache {
            mem: Mutex::new(MemCache { entries: HashMap::new(), tick: 0, cap: mem_entries }),
            dir,
            metrics: None,
        }
    }

    /// Feed hit/miss/eviction counts into `metrics` from now on.
    pub fn with_metrics(mut self, metrics: CacheMetrics) -> ResultCache {
        self.metrics = Some(metrics);
        self
    }

    pub fn get(&self, key: &str) -> Option<CachedResult> {
        let result = self.lookup(key);
        if let Some(m) = &self.metrics {
            if result.is_some() {
                m.hits.inc();
            } else {
                m.misses.inc();
            }
        }
        result
    }

    fn lookup(&self, key: &str) -> Option<CachedResult> {
        if let Some(hit) = self.mem.lock().unwrap().touch(key) {
            return Some(hit);
        }
        let dir = self.dir.as_ref()?;
        let text = std::fs::read_to_string(dir.join(format!("{key}.json"))).ok()?;
        let result = CachedResult::from_json(&json::parse(&text).ok()?)?;
        self.insert_mem(key, result.clone());
        Some(result)
    }

    fn insert_mem(&self, key: &str, result: CachedResult) {
        let evicted = self.mem.lock().unwrap().insert(key, result);
        if evicted {
            if let Some(m) = &self.metrics {
                m.evictions.inc();
            }
        }
    }

    /// Insert into memory and onto disk. The disk write is crash-durable
    /// and atomic: the tmp file is fsynced before the rename publishes
    /// it, and the directory is fsynced after, so a power cut leaves
    /// either the old entry or the new one — never a torn or vanished
    /// file. A persist failure keeps the entry memory-only and is
    /// counted in [`CacheMetrics::persist_errors`].
    pub fn put(&self, key: &str, result: &CachedResult) {
        self.insert_mem(key, result.clone());
        if let Some(dir) = &self.dir {
            if self.persist(dir, key, result).is_err() {
                if let Some(m) = &self.metrics {
                    m.persist_errors.inc();
                }
            }
        }
    }

    fn persist(&self, dir: &Path, key: &str, result: &CachedResult) -> io::Result<()> {
        use std::io::Write;
        let path = dir.join(format!("{key}.json"));
        let tmp = dir.join(format!("{key}.json.tmp"));
        let body = format!("{}\n", result.to_json());
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(body.as_bytes())?;
        // fsync-then-rename: the data must be on disk before the rename
        // makes the entry visible, else a crash can publish an empty file
        file.sync_all()?;
        drop(file);
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // fsync the directory so the rename itself survives a crash
        std::fs::File::open(dir)?.sync_all()
    }

    pub fn len(&self) -> usize {
        self.mem.lock().unwrap().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.mem.lock().unwrap().entries.is_empty()
    }
}

/// What [`gc_dir`] removed and kept.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    pub removed: usize,
    pub kept: usize,
    pub bytes_freed: u64,
    pub bytes_kept: u64,
}

/// Garbage-collect a cache directory: drop `.json` entries older than
/// `max_age` (by modification time), then — if the survivors still
/// exceed `max_bytes` — drop oldest-first until under the size cap.
/// Leftover `.json.tmp` files from interrupted writes are always
/// removed. Unreadable entries are skipped, not errors.
pub fn gc_dir(
    dir: &Path,
    max_age: Option<Duration>,
    max_bytes: Option<u64>,
) -> io::Result<GcReport> {
    let now = SystemTime::now();
    // (modification time, size, path) per surviving entry
    let mut entries: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
    let mut report = GcReport::default();
    for entry in std::fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".json.tmp") {
            let _ = std::fs::remove_file(&path);
            continue;
        }
        if !name.ends_with(".json") {
            continue;
        }
        let Ok(meta) = entry.metadata() else { continue };
        let mtime = meta.modified().unwrap_or(now);
        let age = now.duration_since(mtime).unwrap_or(Duration::ZERO);
        if max_age.is_some_and(|limit| age > limit) {
            if std::fs::remove_file(&path).is_ok() {
                report.removed += 1;
                report.bytes_freed += meta.len();
            }
            continue;
        }
        entries.push((mtime, meta.len(), path));
    }
    if let Some(limit) = max_bytes {
        let mut total: u64 = entries.iter().map(|(_, size, _)| size).sum();
        entries.sort_by_key(|(mtime, _, _)| *mtime); // oldest first
        let mut cut = 0;
        while total > limit && cut < entries.len() {
            let (_, size, path) = &entries[cut];
            if std::fs::remove_file(path).is_ok() {
                report.removed += 1;
                report.bytes_freed += size;
                total -= size;
            }
            cut += 1;
        }
        entries.drain(..cut);
    }
    report.kept = entries.len();
    report.bytes_kept = entries.iter().map(|(_, size, _)| size).sum();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options() -> VerifyOptions {
        VerifyOptions::default()
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let a = fingerprint("spec a {}", "G p", &options());
        let b = fingerprint("spec b {}", "G p", &options());
        let c = fingerprint("spec a {}", "F p", &options());
        let mut opts = options();
        opts.heuristic1 = false;
        let d = fingerprint("spec a {}", "G p", &opts);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, fingerprint("spec a {}", "G p", &options()));
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn cancel_token_does_not_affect_fingerprint() {
        let mut opts = options();
        opts.cancel = Some(wave_core::CancelToken::new());
        assert_eq!(fingerprint("s", "p", &options()), fingerprint("s", "p", &opts));
    }

    #[test]
    fn state_store_backend_does_not_affect_fingerprint() {
        let base = fingerprint("s", "p", &options());
        let mut opts = options();
        opts.state_store = wave_core::StateStoreKind::Tiered(wave_core::TierParams::default());
        assert_eq!(base, fingerprint("s", "p", &opts));
        opts.state_store = wave_core::StateStoreKind::Tiered(wave_core::TierParams {
            mem_bytes: 4 << 20,
            spill_dir: Some(std::path::PathBuf::from("/tmp/spill")),
        });
        assert_eq!(base, fingerprint("s", "p", &opts), "tier sizing is a tuning knob");
    }

    #[test]
    fn naive_joins_ablation_does_not_affect_fingerprint() {
        let mut opts = options();
        opts.naive_joins = true;
        assert_eq!(fingerprint("s", "p", &options()), fingerprint("s", "p", &opts));
    }

    /// A small but fully populated counterexample exercising every
    /// serialized field, including a component bitmask above 2^53 that
    /// would corrupt if routed through an f64.
    fn sample_ce() -> CounterExample {
        let facts = |rows: &[(u32, &[u32])]| -> Facts {
            rows.iter()
                .map(|(rel, vals)| {
                    (RelId(*rel), Tuple::from(vals.iter().map(|v| Value(*v)).collect::<Vec<_>>()))
                })
                .collect()
        };
        let step = |auto: usize, assign: u64, page: u32| TraceStep {
            auto_state: auto,
            assignment: assign,
            config: PseudoConfig {
                page: PageId(page),
                ext: Arc::new(facts(&[(0, &[1, 2]), (3, &[])])),
                input: Arc::new(facts(&[(1, &[4])])),
                prev: Arc::new(facts(&[])),
                state: Arc::new(facts(&[(2, &[5, 6, 7])])),
                actions: Arc::new(facts(&[(4, &[8])])),
            },
        };
        CounterExample {
            steps: vec![step(0, u64::MAX - 1, 0), step(1, 3, 1), step(2, 0, 0)],
            cycle_start: 1,
            core: facts(&[(0, &[1, 2]), (5, &[9])]),
            assignment: vec![("x".to_string(), Value(7)), ("y".to_string(), Value(0))],
        }
    }

    #[test]
    fn memory_round_trip() {
        let cache = ResultCache::in_memory();
        let result = CachedResult {
            verdict: CachedVerdict::Violated { steps: 7, cycle_start: 2, trace: Some(sample_ce()) },
            complete: true,
            elapsed: Duration::from_millis(120),
            profile: SearchProfile { expand_ns: 42, intern_misses: 3, ..Default::default() },
        };
        assert!(cache.get("k").is_none());
        cache.put("k", &result);
        assert_eq!(cache.get("k"), Some(result));
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("wave-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let result = CachedResult {
            verdict: CachedVerdict::Unknown { budget: CachedBudget::Steps(100) },
            complete: false,
            elapsed: Duration::from_secs(1),
            profile: SearchProfile {
                canon_ns: 1,
                intern_ns: 2,
                expand_ns: 3,
                eval_ns: 4,
                visit_ns: 5,
                intern_hits: 6,
                intern_misses: 7,
                steps_leased: 8,
                steps_refunded: 9,
                spill_pairs: 10,
                spill_segments: 11,
                spill_compactions: 12,
                bloom_skips: 13,
                cold_probes: 14,
                memo_hits: 15,
                memo_misses: 16,
                join_builds: 17,
                slice_rules_removed: 18,
                slice_relations_removed: 19,
                flow_dead_rules: 20,
            },
        };
        {
            let cache = ResultCache::with_dir(dir.clone()).unwrap();
            cache.put("deadbeef", &result);
        }
        // a fresh cache instance reads it back from disk
        let cache = ResultCache::with_dir(dir.clone()).unwrap();
        assert_eq!(cache.get("deadbeef"), Some(result));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counterexample_trace_survives_disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("wave-cache-ce-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ce = sample_ce();
        let result = CachedResult {
            verdict: CachedVerdict::Violated {
                steps: ce.steps.len(),
                cycle_start: ce.cycle_start,
                trace: Some(ce.clone()),
            },
            complete: true,
            elapsed: Duration::from_nanos(1),
            profile: SearchProfile::default(),
        };
        {
            let cache = ResultCache::with_dir(dir.clone()).unwrap();
            cache.put("cafe", &result);
        }
        let cache = ResultCache::with_dir(dir.clone()).unwrap();
        let back = cache.get("cafe").expect("disk hit");
        assert_eq!(back.counterexample(), Some(&ce), "trace must round-trip exactly");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgets_and_elapsed_round_trip_exactly() {
        // values chosen to be unrepresentable after an f64-seconds round
        // trip: the old format lost the low nanoseconds of both
        for budget in [
            CachedBudget::Steps(u64::MAX),
            CachedBudget::Time(Duration::new(1_000_000, 123_456_789)),
            CachedBudget::Time(Duration::from_nanos(1)),
        ] {
            let result = CachedResult {
                verdict: CachedVerdict::Unknown { budget: budget.clone() },
                complete: false,
                elapsed: Duration::new(3_600_000, 999_999_999),
                profile: SearchProfile::default(),
            };
            let json = result.to_json().to_string();
            let back = CachedResult::from_json(&json::parse(&json).unwrap()).unwrap();
            assert_eq!(back, result, "lossy round trip for {budget:?}");
        }
    }

    #[test]
    fn legacy_string_budgets_and_elapsed_still_parse() {
        let old = r#"{"verdict":"unknown","budget":"steps:100","complete":false,"elapsed_s":0.5}"#;
        let parsed = CachedResult::from_json(&json::parse(old).unwrap()).unwrap();
        assert_eq!(parsed.verdict, CachedVerdict::Unknown { budget: CachedBudget::Steps(100) });
        assert_eq!(parsed.elapsed, Duration::from_millis(500));

        let old = r#"{"verdict":"unknown","budget":"time:1.5","complete":false,"elapsed_s":1}"#;
        let parsed = CachedResult::from_json(&json::parse(old).unwrap()).unwrap();
        assert_eq!(
            parsed.verdict,
            CachedVerdict::Unknown { budget: CachedBudget::Time(Duration::from_millis(1500)) }
        );
    }

    #[test]
    fn legacy_cancelled_budget_invalidates_the_entry() {
        // the old writer cached cancelled runs it shouldn't have; those
        // entries must read back as a miss, not as a bogus verdict
        let old = r#"{"verdict":"unknown","budget":"cancelled","complete":false,"elapsed_s":1}"#;
        assert!(CachedResult::from_json(&json::parse(old).unwrap()).is_none());
    }

    #[test]
    fn legacy_shape_only_violations_read_back_without_a_trace() {
        let old =
            r#"{"verdict":"violated","steps":7,"cycle_start":2,"complete":true,"elapsed_s":1}"#;
        let parsed = CachedResult::from_json(&json::parse(old).unwrap()).unwrap();
        assert_eq!(
            parsed.verdict,
            CachedVerdict::Violated { steps: 7, cycle_start: 2, trace: None }
        );
        assert_eq!(parsed.counterexample(), None);
    }

    fn result(tag: usize) -> CachedResult {
        CachedResult {
            verdict: CachedVerdict::Violated { steps: tag, cycle_start: 0, trace: None },
            complete: true,
            elapsed: Duration::from_millis(1),
            profile: SearchProfile::default(),
        }
    }

    #[test]
    fn records_without_a_profile_read_back_zeroed() {
        // a disk entry written before profiles were persisted
        let old = r#"{"verdict":"holds","complete":true,"elapsed_s":0.5}"#;
        let parsed = CachedResult::from_json(&json::parse(old).unwrap()).unwrap();
        assert_eq!(parsed.verdict, CachedVerdict::Holds);
        assert!(parsed.profile.is_zero());
    }

    fn test_metrics() -> CacheMetrics {
        CacheMetrics {
            hits: Arc::new(Counter::default()),
            misses: Arc::new(Counter::default()),
            evictions: Arc::new(Counter::default()),
            persist_errors: Arc::new(Counter::default()),
        }
    }

    #[test]
    fn failed_persist_is_counted_and_entry_stays_memory_only() {
        let dir = std::env::temp_dir().join(format!("wave-cache-perr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // a directory squatting on the tmp path makes File::create fail
        // (EISDIR) regardless of privileges — chmod tricks don't work
        // when the tests run as root
        std::fs::create_dir_all(dir.join("kk.json.tmp")).unwrap();
        let metrics = test_metrics();
        let cache = ResultCache::bounded(8, Some(dir.clone())).with_metrics(metrics.clone());
        cache.put("kk", &result(1));
        assert_eq!(metrics.persist_errors.get(), 1, "failed persist is surfaced");
        assert!(!dir.join("kk.json").exists(), "nothing was published");
        assert_eq!(cache.get("kk"), Some(result(1)), "memory tier still serves it");
        // an unobstructed key persists durably on the same cache
        cache.put("ok", &result(2));
        assert_eq!(metrics.persist_errors.get(), 1, "healthy persist not counted");
        assert!(dir.join("ok.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_count_hits_misses_and_evictions() {
        let metrics = test_metrics();
        let cache = ResultCache::bounded(1, None).with_metrics(metrics.clone());
        assert!(cache.get("a").is_none());
        cache.put("a", &result(1));
        assert!(cache.get("a").is_some());
        cache.put("b", &result(2)); // cap 1: evicts a
        assert_eq!(metrics.hits.get(), 1);
        assert_eq!(metrics.misses.get(), 1);
        assert_eq!(metrics.evictions.get(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::bounded(2, None);
        cache.put("a", &result(1));
        cache.put("b", &result(2));
        assert!(cache.get("a").is_some()); // refresh a: b is now oldest
        cache.put("c", &result(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b").is_none(), "b was least recently used");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn zero_cap_means_unbounded() {
        let cache = ResultCache::bounded(0, None);
        for i in 0..500 {
            cache.put(&format!("k{i}"), &result(i));
        }
        assert_eq!(cache.len(), 500);
    }

    #[test]
    fn evicted_entries_are_reloaded_from_disk() {
        let dir = std::env::temp_dir().join(format!("wave-cache-lru-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = ResultCache::bounded(1, Some(dir.clone()));
        cache.put("aa", &result(1));
        cache.put("bb", &result(2)); // evicts aa from memory
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("aa"), Some(result(1)), "disk tier still serves it");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_by_size_drops_oldest_first_and_sweeps_tmp() {
        let dir = std::env::temp_dir().join(format!("wave-cache-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let body = "x".repeat(100);
        for (i, name) in ["old", "mid", "new"].iter().enumerate() {
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, &body).unwrap();
            // well-separated mtimes without sleeping
            let t = std::time::SystemTime::now() - Duration::from_secs(300 - 100 * i as u64);
            let f = std::fs::File::options().write(true).open(&path).unwrap();
            f.set_modified(t).unwrap();
        }
        std::fs::write(dir.join("leftover.json.tmp"), "torn").unwrap();
        // keep ≤ 250 bytes: the two newest 100-byte entries survive
        let report = gc_dir(&dir, None, Some(250)).unwrap();
        assert_eq!(report.removed, 1, "{report:?}");
        assert_eq!(report.kept, 2);
        assert_eq!(report.bytes_kept, 200);
        assert!(!dir.join("old.json").exists());
        assert!(dir.join("mid.json").exists() && dir.join("new.json").exists());
        assert!(!dir.join("leftover.json.tmp").exists(), "tmp files are swept");

        // age-based pass: everything is older than a few seconds except
        // nothing — cut at 150s, dropping "mid" (200s old), keeping "new"
        let report = gc_dir(&dir, Some(Duration::from_secs(150)), None).unwrap();
        assert_eq!(report.removed, 1, "{report:?}");
        assert!(dir.join("new.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_ablation_changes_the_fingerprint() {
        // unlike naive_joins, the slice changes the *profile counters*
        // served back on a hit, so runs with it off must not share
        // entries with default runs
        let mut opts = options();
        opts.slice = false;
        assert_ne!(fingerprint("s", "p", &options()), fingerprint("s", "p", &opts));
    }

    #[test]
    fn budget_chunk_does_not_affect_fingerprint() {
        let mut opts = options();
        opts.budget_chunk = 1;
        assert_eq!(fingerprint("s", "p", &options()), fingerprint("s", "p", &opts));
    }

    #[test]
    fn cancelled_runs_are_not_cacheable() {
        let v = Verification {
            verdict: Verdict::Unknown(Budget::Cancelled),
            stats: Default::default(),
            complete: true,
        };
        assert!(CachedResult::from_verification(&v).is_none());
    }
}
