//! The verification service: job descriptions in, result records out.
//!
//! A *job* names a specification (inline text, a `.wave` file path, or
//! one of the built-in benchmark suites E1–E4) plus a property — or a
//! whole suite, which expands to one record per property. The service
//! runs each job on the [`crate::scheduler`] worker pool, consults the
//! [`crate::cache`] first, and renders records as JSON objects shared by
//! `wave batch`, `wave serve`, and `wave check --json`.

use crate::cache::{fingerprint, gc_dir, CacheMetrics, CachedResult, CachedVerdict, ResultCache};
use crate::json::Json;
use crate::metrics::SvcMetrics;
use crate::scheduler::{self, ParallelOptions};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use wave_apps::AppSuite;
use wave_core::{Budget, Stats, Verdict, Verification, Verifier, VerifyOptions};
use wave_lint::{FrontEnd, SpecFailure};
use wave_spec::print_spec;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads per job.
    pub jobs: usize,
    /// Consult/populate the result cache.
    pub use_cache: bool,
    /// On-disk cache directory (memory-only when `None`).
    pub cache_dir: Option<PathBuf>,
    /// In-memory cache entry bound (`0` = unbounded).
    pub cache_mem_entries: usize,
    /// Garbage-collect disk cache entries older than this at startup.
    pub cache_gc_age: Option<Duration>,
    /// Shrink the disk cache below this many bytes at startup
    /// (oldest entries go first).
    pub cache_gc_bytes: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            jobs: ParallelOptions::default().jobs,
            use_cache: true,
            cache_dir: None,
            cache_mem_entries: crate::cache::DEFAULT_MEM_ENTRIES,
            cache_gc_age: None,
            cache_gc_bytes: None,
        }
    }
}

/// One result record (one property of one job).
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub name: String,
    /// `holds`, `violated`, `unknown`, or `error`.
    pub verdict: String,
    pub error: Option<String>,
    pub complete: bool,
    /// Served from the result cache (search counters are zero).
    pub cached: bool,
    /// Exhausted budget (`steps:N`, `time:S`, `cancelled`) when unknown.
    pub budget: Option<String>,
    /// Counterexample lasso shape when violated.
    pub ce: Option<(usize, usize)>,
    /// Lint pre-pass findings over the spec and property. Recomputed on
    /// every run (never cached — lint is cheap and its rules evolve).
    pub diagnostics: Vec<DiagnosticRecord>,
    pub stats: Stats,
}

/// One lint finding, resolved to file/line/column for JSON embedding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiagnosticRecord {
    pub code: String,
    /// `warning` or `error`.
    pub severity: String,
    pub message: String,
    /// Artifact the finding is anchored to (spec path or property label).
    pub file: String,
    /// 1-based `(line, col, end_line, end_col)` when the finding has a span.
    pub pos: Option<(usize, usize, usize, usize)>,
    pub notes: Vec<String>,
}

impl DiagnosticRecord {
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("code", Json::from(self.code.clone())),
            ("severity", Json::from(self.severity.clone())),
            ("message", Json::from(self.message.clone())),
            ("file", Json::from(self.file.clone())),
        ];
        if let Some((line, col, end_line, end_col)) = self.pos {
            pairs.push(("line", Json::from(line)));
            pairs.push(("col", Json::from(col)));
            pairs.push(("end_line", Json::from(end_line)));
            pairs.push(("end_col", Json::from(end_col)));
        }
        if !self.notes.is_empty() {
            pairs.push((
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::from(n.clone())).collect()),
            ));
        }
        Json::obj(pairs)
    }
}

/// Run the lint pre-pass over a request and resolve every finding to a
/// flat [`DiagnosticRecord`] (see [`diagnostic_records`]).
pub fn lint_records(req: &wave_lint::LintRequest) -> Vec<DiagnosticRecord> {
    diagnostic_records(req, &wave_lint::lint(req))
}

/// Resolve lint findings on `req`'s sources to flat
/// [`DiagnosticRecord`]s. Informational notes (severity
/// [`wave_lint::Severity::Note`], e.g. N0604 monotonicity hints) stay
/// out of job records — they describe verifier behavior, not spec
/// defects, and would churn cached record bytes.
pub fn diagnostic_records(
    req: &wave_lint::LintRequest,
    diags: &[wave_lint::Diagnostic],
) -> Vec<DiagnosticRecord> {
    let sources = wave_lint::SourceSet::new(req);
    diags
        .iter()
        .filter(|d| d.severity > wave_lint::Severity::Note)
        .map(|d| DiagnosticRecord {
            code: d.code.to_string(),
            severity: d.severity.to_string(),
            message: d.message.clone(),
            file: sources.file(d.origin).to_string(),
            pos: sources
                .resolve(d)
                .map(|loc| (loc.start.line, loc.start.col, loc.end.line, loc.end.col)),
            notes: d.notes.clone(),
        })
        .collect()
}

/// The canonical textual form of an exhausted budget, used by both fresh
/// and cached records so the two are byte-identical in `--json` output.
pub fn budget_label(b: &Budget) -> String {
    match b {
        Budget::Steps(n) => format!("steps:{n}"),
        Budget::Time(d) => format!("time:{}", d.as_secs_f64()),
        Budget::Cancelled => "cancelled".to_string(),
    }
}

impl JobRecord {
    pub fn error(name: &str, message: impl std::fmt::Display) -> JobRecord {
        JobRecord {
            name: name.to_string(),
            verdict: "error".to_string(),
            error: Some(message.to_string()),
            complete: false,
            cached: false,
            budget: None,
            ce: None,
            diagnostics: Vec::new(),
            stats: Stats::default(),
        }
    }

    /// Record for a fresh verification.
    pub fn from_verification(name: &str, v: &Verification) -> JobRecord {
        let (verdict, budget, ce) = match &v.verdict {
            Verdict::Holds => ("holds", None, None),
            Verdict::Violated(ce) => ("violated", None, Some((ce.steps.len(), ce.cycle_start))),
            Verdict::Unknown(b) => ("unknown", Some(budget_label(b)), None),
        };
        JobRecord {
            name: name.to_string(),
            verdict: verdict.to_string(),
            error: None,
            complete: v.complete,
            cached: false,
            budget,
            ce,
            diagnostics: Vec::new(),
            stats: v.stats.clone(),
        }
    }

    /// Record for a cache hit: verdict fields match the original run,
    /// search counters are zero (`stats.cores == 0` marks the hit), but
    /// the search profile is the one persisted from the original run.
    pub fn from_cached(name: &str, hit: &CachedResult) -> JobRecord {
        let (verdict, budget, ce) = match &hit.verdict {
            CachedVerdict::Holds => ("holds", None, None),
            CachedVerdict::Violated { steps, cycle_start, .. } => {
                ("violated", None, Some((*steps, *cycle_start)))
            }
            // going through `to_budget` + `budget_label` guarantees the
            // cached record's budget string byte-matches a fresh run's
            CachedVerdict::Unknown { budget } => {
                ("unknown", Some(budget_label(&budget.to_budget())), None)
            }
        };
        JobRecord {
            name: name.to_string(),
            verdict: verdict.to_string(),
            error: None,
            complete: hit.complete,
            cached: true,
            budget,
            ce,
            diagnostics: Vec::new(),
            stats: Stats { profile: hit.profile.clone(), ..Stats::default() },
        }
    }

    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::from(self.name.clone())),
            ("verdict", Json::from(self.verdict.clone())),
        ];
        if let Some(e) = &self.error {
            pairs.push(("error", Json::from(e.clone())));
        }
        if let Some(b) = &self.budget {
            pairs.push(("budget", Json::from(b.clone())));
        }
        if let Some((steps, cycle_start)) = self.ce {
            pairs.push(("ce_steps", Json::from(steps)));
            pairs.push(("ce_cycle_start", Json::from(cycle_start)));
        }
        pairs.push(("complete", Json::from(self.complete)));
        pairs.push(("cached", Json::from(self.cached)));
        pairs.push(("profile_source", Json::from(if self.cached { "cached" } else { "fresh" })));
        if !self.diagnostics.is_empty() {
            pairs.push((
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(DiagnosticRecord::to_json).collect()),
            ));
        }
        let profile = &self.stats.profile;
        let ms = |ns: u64| Json::from(ns as f64 / 1e6);
        let opt = |v: Option<f64>| v.map(Json::from).unwrap_or(Json::Null);
        pairs.push((
            "stats",
            Json::obj([
                ("elapsed_ms", Json::from(self.stats.elapsed.as_secs_f64() * 1e3)),
                ("configs", Json::from(self.stats.configs)),
                ("cores", Json::from(self.stats.cores)),
                ("assignments", Json::from(self.stats.assignments)),
                ("max_run_len", Json::from(self.stats.max_run_len)),
                ("max_trie", Json::from(self.stats.max_trie)),
                ("max_resident", Json::from(self.stats.max_resident)),
                ("max_spilled", Json::from(self.stats.max_spilled)),
                (
                    "profile",
                    Json::obj([
                        ("canon_ms", ms(profile.canon_ns)),
                        ("intern_ms", ms(profile.intern_ns)),
                        ("expand_ms", ms(profile.expand_ns)),
                        ("eval_ms", ms(profile.eval_ns)),
                        ("visit_ms", ms(profile.visit_ns)),
                        ("intern_hits", Json::from(profile.intern_hits)),
                        ("intern_misses", Json::from(profile.intern_misses)),
                        ("intern_hit_rate", opt(profile.intern_hit_rate())),
                        ("spill_pairs", Json::from(profile.spill_pairs)),
                        ("spill_segments", Json::from(profile.spill_segments)),
                        ("spill_compactions", Json::from(profile.spill_compactions)),
                        ("bloom_skips", Json::from(profile.bloom_skips)),
                        ("cold_probes", Json::from(profile.cold_probes)),
                        ("memo_hits", Json::from(profile.memo_hits)),
                        ("memo_misses", Json::from(profile.memo_misses)),
                        ("memo_hit_rate", opt(profile.memo_hit_rate())),
                        ("join_builds", Json::from(profile.join_builds)),
                        ("slice_rules_removed", Json::from(profile.slice_rules_removed)),
                        ("slice_relations_removed", Json::from(profile.slice_relations_removed)),
                        ("flow_dead_rules", Json::from(profile.flow_dead_rules)),
                        ("canon_pct", opt(profile.pct(profile.canon_ns))),
                        ("intern_pct", opt(profile.pct(profile.intern_ns))),
                        ("expand_pct", opt(profile.pct(profile.expand_ns))),
                        ("eval_pct", opt(profile.pct(profile.eval_ns))),
                        ("visit_pct", opt(profile.pct(profile.visit_ns))),
                    ]),
                ),
            ]),
        ));
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// The verification service.
pub struct VerifyService {
    popts: ParallelOptions,
    cache: Option<ResultCache>,
    metrics: Arc<SvcMetrics>,
}

impl VerifyService {
    pub fn new(config: ServiceConfig) -> io::Result<VerifyService> {
        let metrics = SvcMetrics::new();
        let cache_metrics = CacheMetrics {
            hits: Arc::clone(&metrics.cache_hits),
            misses: Arc::clone(&metrics.cache_misses),
            evictions: Arc::clone(&metrics.cache_evictions),
            persist_errors: Arc::clone(&metrics.cache_persist_errors_total),
        };
        let cache = if !config.use_cache {
            None
        } else {
            match config.cache_dir {
                Some(dir) => {
                    std::fs::create_dir_all(&dir)?;
                    if config.cache_gc_age.is_some() || config.cache_gc_bytes.is_some() {
                        gc_dir(&dir, config.cache_gc_age, config.cache_gc_bytes)?;
                    }
                    Some(
                        ResultCache::bounded(config.cache_mem_entries, Some(dir))
                            .with_metrics(cache_metrics),
                    )
                }
                None => Some(
                    ResultCache::bounded(config.cache_mem_entries, None)
                        .with_metrics(cache_metrics),
                ),
            }
        };
        let mut popts = ParallelOptions::with_jobs(config.jobs);
        popts.metrics = Some(Arc::clone(&metrics));
        Ok(VerifyService { popts, cache, metrics })
    }

    /// The service metrics bundle (shared with the scheduler and cache).
    pub fn metrics(&self) -> &Arc<SvcMetrics> {
        &self.metrics
    }

    /// Run one JSON job request, producing one record per property (a
    /// whole-suite job expands). Failures become `error` records, never
    /// panics or `Err` — batch processing continues past bad jobs.
    pub fn run_request(&self, request: &Json, default_name: &str) -> Vec<JobRecord> {
        match self.dispatch(request, default_name) {
            Ok(records) => records,
            Err(message) => vec![JobRecord::error(default_name, message)],
        }
    }

    fn dispatch(&self, request: &Json, default_name: &str) -> Result<Vec<JobRecord>, String> {
        if !matches!(request, Json::Obj(_)) {
            return Err("job must be a JSON object".to_string());
        }
        validate_keys(request)?;
        let options = parse_options(request.get("options"))?;
        let property = request
            .get("property")
            .map(|p| p.as_str().map(str::to_string).ok_or("\"property\" must be a string"));
        let property = match property {
            Some(p) => Some(p?),
            None => None,
        };

        if let Some(suite_name) = request.get("suite") {
            let suite_name = suite_name.as_str().ok_or("\"suite\" must be a string")?;
            let suite = lookup_suite(suite_name)
                .ok_or_else(|| format!("unknown suite {suite_name:?} (have E1–E4)"))?;
            return Ok(self.run_suite(&suite, property.as_deref(), options));
        }

        let (spec_text, origin) = if let Some(inline) = request.get("spec") {
            let text = inline.as_str().ok_or("\"spec\" must be a string")?;
            (text.to_string(), "inline spec".to_string())
        } else if let Some(path) = request.get("spec_path") {
            let path = path.as_str().ok_or("\"spec_path\" must be a string")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            (text, path.to_string())
        } else {
            return Err("job needs \"suite\", \"spec\", or \"spec_path\"".to_string());
        };
        let property = property.ok_or("jobs with \"spec\"/\"spec_path\" need a \"property\"")?;
        let name = match request.get("name") {
            Some(n) => n.as_str().ok_or("\"name\" must be a string")?.to_string(),
            None => default_name.to_string(),
        };
        let lint_req = wave_lint::LintRequest::with_property(origin, spec_text, property);
        let front = FrontEnd::new(&lint_req);
        if let Err(SpecFailure::Parse(e)) = &front.spec {
            return Err(format!("{}: {e}", lint_req.spec_path));
        }
        let diagnostics = diagnostic_records(&lint_req, &front.diagnostics);
        let mut record = self.check_one(&name, front, &lint_req.properties[0].text, options);
        record.diagnostics = diagnostics;
        Ok(vec![record])
    }

    /// Verify the one property of `front` (whose text is `property`),
    /// cache-aware.
    fn check_one(
        &self,
        name: &str,
        front: FrontEnd,
        property: &str,
        options: VerifyOptions,
    ) -> JobRecord {
        let (spec, flow) = match front.spec {
            Ok(checked) => checked,
            Err(failure) => return JobRecord::error(name, failure),
        };
        let key = fingerprint(&print_spec(&spec), property, &options);
        if let Some(hit) = self.cache.as_ref().and_then(|c| c.get(&key)) {
            return JobRecord::from_cached(name, &hit);
        }
        let verifier = match Verifier::with_flow(spec, &flow, options) {
            Ok(v) => v,
            Err(e) => return JobRecord::error(name, e),
        };
        let prop = match &front.properties[0] {
            Ok(p) => p,
            Err(e) => return JobRecord::error(name, format!("property: {e}")),
        };
        self.metrics.checks_total.inc();
        self.metrics.checks_inflight.inc();
        let result = scheduler::check_parallel(&verifier, prop, &self.popts);
        self.metrics.checks_inflight.dec();
        match result {
            Ok(v) => {
                self.store(&key, &v);
                JobRecord::from_verification(name, &v)
            }
            Err(e) => JobRecord::error(name, e),
        }
    }

    /// Verify a benchmark suite (or one of its properties), running all
    /// uncached properties concurrently on one worker pool.
    pub fn run_suite(
        &self,
        suite: &AppSuite,
        only: Option<&str>,
        options: VerifyOptions,
    ) -> Vec<JobRecord> {
        // the cases to run, by their index in the suite (which is also
        // their index among the front end's properties)
        let cases: Vec<usize> = (0..suite.properties.len())
            .filter(|&i| only.is_none_or(|p| suite.properties[i].name == p))
            .collect();
        if cases.is_empty() {
            let which = only.unwrap_or("<any>");
            return vec![JobRecord::error(
                &format!("{}/{which}", suite.name),
                format!("suite {} has no property {which:?}", suite.name),
            )];
        }
        let name = |i: usize| format!("{}/{}", suite.name, suite.properties[i].name);
        // lint once against the full property suite (not just `only`): the
        // suite defines the spec's complete observable set, so dead-code
        // findings would be spurious against a single-property slice
        let lint_req = wave_lint::LintRequest {
            spec_path: suite.name.to_string(),
            spec_src: suite.source.to_string(),
            properties: suite
                .properties
                .iter()
                .map(|c| wave_lint::PropertySource {
                    label: format!("{}/{}", suite.name, c.name),
                    text: c.text.clone(),
                })
                .collect(),
        };
        let front = FrontEnd::parsed(&lint_req, suite.spec.clone());
        let diagnostics = diagnostic_records(&lint_req, &front.diagnostics);
        let canonical = print_spec(&suite.spec);
        let mut records: Vec<Option<JobRecord>> = vec![None; suite.properties.len()];
        let mut fresh: Vec<(usize, String)> = Vec::new(); // (suite index, key)
        for &i in &cases {
            let key = fingerprint(&canonical, &suite.properties[i].text, &options);
            match self.cache.as_ref().and_then(|c| c.get(&key)) {
                Some(hit) => records[i] = Some(JobRecord::from_cached(&name(i), &hit)),
                None => fresh.push((i, key)),
            }
        }

        if !fresh.is_empty() {
            let verifier = front.spec.map_err(|f| f.to_string()).and_then(|(spec, flow)| {
                Verifier::with_flow(spec, &flow, options).map_err(|e| e.to_string())
            });
            // prepare each property; a spec that failed to compile or a
            // property that failed to parse makes an error record, and
            // the case drops out of the scheduled set
            let mut scheduled: Vec<(usize, String)> = Vec::new();
            let mut prepared = Vec::new();
            for (i, key) in fresh {
                let check = verifier.as_ref().map_err(String::clone).and_then(|v| {
                    let p = front.properties[i].as_ref().map_err(|e| format!("property: {e}"))?;
                    v.prepare(p).map_err(|e| e.to_string())
                });
                match check {
                    Ok(p) => {
                        scheduled.push((i, key));
                        prepared.push(p);
                    }
                    Err(e) => records[i] = Some(JobRecord::error(&name(i), e)),
                }
            }
            if let Ok(verifier) = &verifier {
                self.metrics.checks_total.add(prepared.len() as u64);
                self.metrics.checks_inflight.add(prepared.len() as i64);
                let results = scheduler::run_prepared(verifier.options(), &prepared, &self.popts);
                self.metrics.checks_inflight.add(-(prepared.len() as i64));
                for ((i, key), result) in scheduled.into_iter().zip(results) {
                    records[i] = Some(match result {
                        Ok(v) => {
                            self.store(&key, &v);
                            JobRecord::from_verification(&name(i), &v)
                        }
                        Err(e) => JobRecord::error(&name(i), e),
                    });
                }
            }
        }
        cases
            .into_iter()
            .map(|i| {
                let mut r = records[i].take().expect("every case has a record");
                r.diagnostics = diagnostics.clone();
                r
            })
            .collect()
    }

    fn store(&self, key: &str, v: &Verification) {
        if let (Some(cache), Some(result)) =
            (self.cache.as_ref(), CachedResult::from_verification(v))
        {
            cache.put(key, &result);
        }
    }
}

/// The built-in benchmark suites, by case-insensitive name.
pub fn lookup_suite(name: &str) -> Option<AppSuite> {
    match name.to_ascii_uppercase().as_str() {
        "E1" => Some(wave_apps::e1::suite()),
        "E2" => Some(wave_apps::e2::suite()),
        "E3" => Some(wave_apps::e3::suite()),
        "E4" => Some(wave_apps::e4::suite()),
        _ => None,
    }
}

fn validate_keys(request: &Json) -> Result<(), String> {
    const KNOWN: [&str; 6] = ["suite", "spec", "spec_path", "property", "name", "options"];
    if let Json::Obj(pairs) = request {
        for (k, _) in pairs {
            if !KNOWN.contains(&k.as_str()) {
                return Err(format!("unknown job field {k:?}"));
            }
        }
    }
    Ok(())
}

/// Parse the per-job `options` object over the defaults.
pub fn parse_options(json: Option<&Json>) -> Result<VerifyOptions, String> {
    let mut options = VerifyOptions::default();
    let Some(json) = json else { return Ok(options) };
    let Json::Obj(pairs) = json else {
        return Err("\"options\" must be an object".to_string());
    };
    // tier knobs apply after the loop so they compose with
    // `"state_store":"tiered"` in either key order
    let mut store_mem_mb: Option<u64> = None;
    let mut spill_dir: Option<String> = None;
    for (key, value) in pairs {
        match key.as_str() {
            "max_steps" => {
                // u64_from_json also accepts the decimal-string form
                // emitted for values beyond 2^53
                options.max_steps = Some(
                    crate::cache::u64_from_json(value).ok_or("\"max_steps\" must be an integer")?,
                );
            }
            "time_limit_s" => {
                let secs = value.as_f64().ok_or("\"time_limit_s\" must be a number")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("\"time_limit_s\" must be positive".to_string());
                }
                options.time_limit = Some(std::time::Duration::from_secs_f64(secs));
            }
            // the exact form the fleet wire uses: integer nanoseconds
            // round-trip losslessly where f64 seconds cannot
            "time_limit_ns" => {
                let ns = crate::cache::u64_from_json(value)
                    .ok_or("\"time_limit_ns\" must be an integer")?;
                if ns == 0 {
                    return Err("\"time_limit_ns\" must be positive".to_string());
                }
                options.time_limit = Some(std::time::Duration::from_nanos(ns));
            }
            "pruning" => {
                options.pruning = match value.as_str() {
                    Some("paper_strict") => wave_core::ExtensionPruning::PaperStrict,
                    Some("option_support") => wave_core::ExtensionPruning::OptionSupport,
                    _ => {
                        return Err("\"pruning\" must be \"paper_strict\" or \"option_support\""
                            .to_string())
                    }
                };
            }
            "param_mode" => {
                options.param_mode =
                    match value.as_str() {
                        Some("distinct_fresh") => wave_core::ParamMode::DistinctFresh,
                        Some("exhaustive_equality") => wave_core::ParamMode::ExhaustiveEquality,
                        _ => return Err(
                            "\"param_mode\" must be \"distinct_fresh\" or \"exhaustive_equality\""
                                .to_string(),
                        ),
                    };
            }
            "budget_chunk" => {
                let n = value.as_u64().ok_or("\"budget_chunk\" must be an integer")?;
                if n == 0 {
                    return Err("\"budget_chunk\" must be at least 1".to_string());
                }
                options.budget_chunk = n;
            }
            "heuristic1" => {
                options.heuristic1 = value.as_bool().ok_or("\"heuristic1\" must be a boolean")?;
            }
            "heuristic2" => {
                options.heuristic2 = value.as_bool().ok_or("\"heuristic2\" must be a boolean")?;
            }
            "use_plans" => {
                options.use_plans = value.as_bool().ok_or("\"use_plans\" must be a boolean")?;
            }
            "naive_joins" => {
                options.naive_joins = value.as_bool().ok_or("\"naive_joins\" must be a boolean")?;
            }
            "slice" => {
                options.slice = value.as_bool().ok_or("\"slice\" must be a boolean")?;
            }
            "state_store" => {
                options.state_store = match value.as_str() {
                    Some("interned") => wave_core::StateStoreKind::Interned,
                    Some("tiered") => {
                        wave_core::StateStoreKind::Tiered(wave_core::TierParams::default())
                    }
                    _ => {
                        return Err("\"state_store\" must be \"interned\" or \"tiered\"".to_string())
                    }
                };
            }
            "store_mem_mb" => {
                store_mem_mb = Some(value.as_u64().ok_or("\"store_mem_mb\" must be an integer")?);
            }
            "spill_dir" => {
                spill_dir =
                    Some(value.as_str().ok_or("\"spill_dir\" must be a string")?.to_string());
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if store_mem_mb.is_some() || spill_dir.is_some() {
        let wave_core::StateStoreKind::Tiered(params) = &mut options.state_store else {
            return Err(
                "\"store_mem_mb\"/\"spill_dir\" require \"state_store\": \"tiered\"".to_string()
            );
        };
        if let Some(mb) = store_mem_mb {
            params.mem_bytes = mb << 20;
        }
        if let Some(dir) = spill_dir {
            params.spill_dir = Some(PathBuf::from(dir));
        }
    }
    Ok(options)
}

/// Render [`VerifyOptions`] as a job-`options` object that
/// [`parse_options`] reads back to the same options (the cancellation
/// token, which is scheduling state, excluded). The fleet dispatcher
/// ships options to workers in this form; time limits go as exact
/// integer nanoseconds so the worker's budget arithmetic matches the
/// dispatcher's bit-for-bit.
pub fn options_to_json(options: &VerifyOptions) -> Json {
    let mut pairs = Vec::new();
    if let Some(n) = options.max_steps {
        pairs.push(("max_steps", crate::cache::u64_to_json(n)));
    }
    if let Some(d) = options.time_limit {
        pairs.push(("time_limit_ns", crate::cache::u64_to_json(d.as_nanos() as u64)));
    }
    pairs.push(("budget_chunk", crate::cache::u64_to_json(options.budget_chunk)));
    pairs.push(("heuristic1", Json::from(options.heuristic1)));
    pairs.push(("heuristic2", Json::from(options.heuristic2)));
    pairs.push(("use_plans", Json::from(options.use_plans)));
    pairs.push(("naive_joins", Json::from(options.naive_joins)));
    pairs.push(("slice", Json::from(options.slice)));
    pairs.push((
        "pruning",
        Json::from(match options.pruning {
            wave_core::ExtensionPruning::PaperStrict => "paper_strict",
            wave_core::ExtensionPruning::OptionSupport => "option_support",
        }),
    ));
    pairs.push((
        "param_mode",
        Json::from(match options.param_mode {
            wave_core::ParamMode::DistinctFresh => "distinct_fresh",
            wave_core::ParamMode::ExhaustiveEquality => "exhaustive_equality",
        }),
    ));
    match &options.state_store {
        wave_core::StateStoreKind::Interned => {
            pairs.push(("state_store", Json::from("interned")));
        }
        wave_core::StateStoreKind::Tiered(params) => {
            pairs.push(("state_store", Json::from("tiered")));
            pairs.push(("store_mem_mb", crate::cache::u64_to_json(params.mem_bytes >> 20)));
            if let Some(dir) = &params.spill_dir {
                pairs.push(("spill_dir", Json::from(dir.display().to_string())));
            }
        }
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn service() -> VerifyService {
        VerifyService::new(ServiceConfig { jobs: 2, ..ServiceConfig::default() }).unwrap()
    }

    const MINI: &str = r#"
        spec mini {
          inputs { button(x); }
          home A;
          page A {
            inputs { button }
            options button(x) <- x = "go";
            target B <- button("go");
          }
          page B { target A <- true; }
        }
    "#;

    #[test]
    fn inline_spec_job_verifies() {
        let request =
            Json::obj([("spec", Json::from(MINI)), ("property", Json::from("G (@B -> X @A)"))]);
        let records = service().run_request(&request, "job-0");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].verdict, "holds");
        assert!(records[0].complete);
        assert!(!records[0].cached);
    }

    #[test]
    fn second_run_hits_the_cache() {
        let svc = service();
        let request = Json::obj([("spec", Json::from(MINI)), ("property", Json::from("G !@B"))]);
        let first = svc.run_request(&request, "a");
        assert_eq!(first[0].verdict, "violated");
        assert!(!first[0].cached);
        let second = svc.run_request(&request, "b");
        assert_eq!(second[0].verdict, "violated");
        assert!(second[0].cached, "second run must be served from cache");
        assert_eq!(second[0].stats.cores, 0, "cache hits do no search");
        assert_eq!(second[0].ce, first[0].ce, "lasso shape survives the cache");
    }

    #[test]
    fn cache_hits_return_the_original_profile() {
        let svc = service();
        let request = Json::obj([("spec", Json::from(MINI)), ("property", Json::from("F @B"))]);
        let fresh = &svc.run_request(&request, "a")[0];
        assert!(!fresh.cached);
        assert!(
            fresh.stats.profile.intern_misses > 0,
            "a real search interns configurations: {:?}",
            fresh.stats.profile
        );
        let json = fresh.to_json();
        assert_eq!(json.get("profile_source").unwrap().as_str(), Some("fresh"));
        let profile = json.get("stats").unwrap().get("profile").unwrap();
        for field in ["canon_ms", "intern_ms", "expand_ms", "eval_ms", "visit_ms"] {
            assert!(profile.get(field).unwrap().as_f64().is_some(), "{field} missing");
        }

        let hit = &svc.run_request(&request, "b")[0];
        assert!(hit.cached);
        assert_eq!(
            hit.stats.profile, fresh.stats.profile,
            "cache hits report the profile persisted from the original run"
        );
        assert_eq!(hit.stats.cores, 0, "…but the hit itself does no search");
        let json = hit.to_json();
        assert_eq!(json.get("profile_source").unwrap().as_str(), Some("cached"));
        let profile = json.get("stats").unwrap().get("profile").unwrap();
        assert_eq!(
            profile.get("intern_misses").unwrap().as_u64(),
            Some(fresh.stats.profile.intern_misses)
        );
    }

    #[test]
    fn profile_json_derives_hit_rate_and_percentages() {
        let svc = service();
        let request = Json::obj([("spec", Json::from(MINI)), ("property", Json::from("F @B"))]);
        let record = &svc.run_request(&request, "a")[0];
        let json = record.to_json();
        let profile = json.get("stats").unwrap().get("profile").unwrap();
        let p = &record.stats.profile;
        let rate = profile.get("intern_hit_rate").unwrap().as_f64().unwrap();
        assert!((rate - p.intern_hit_rate().unwrap()).abs() < 1e-12);
        let mut pct_sum = 0.0;
        for field in ["intern_pct", "expand_pct", "eval_pct", "visit_pct"] {
            pct_sum += profile.get(field).unwrap().as_f64().unwrap();
        }
        assert!((pct_sum - 100.0).abs() < 1e-6, "disjoint phases sum to 100%: {pct_sum}");

        // a zeroed profile renders the derived fields as null
        let empty = JobRecord::error("e", "boom").to_json();
        let profile = empty.get("stats").unwrap().get("profile").unwrap();
        assert_eq!(profile.get("intern_hit_rate"), Some(&Json::Null));
        assert_eq!(profile.get("expand_pct"), Some(&Json::Null));
    }

    #[test]
    fn service_metrics_move_with_checks() {
        let svc = service();
        let request = Json::obj([("spec", Json::from(MINI)), ("property", Json::from("G !@B"))]);
        svc.run_request(&request, "a");
        let m = svc.metrics();
        assert_eq!(m.checks_total.get(), 1);
        assert_eq!(m.checks_inflight.get(), 0);
        assert_eq!(m.cache_misses.get(), 1);
        assert_eq!(m.cache_hits.get(), 0);
        svc.run_request(&request, "b");
        assert_eq!(m.checks_total.get(), 1, "cache hits start no check");
        assert_eq!(m.cache_hits.get(), 1);
        assert!(m.unit_latency_ns.count() > 0, "scheduler observed unit latencies");
    }

    #[test]
    fn state_store_option_parses_and_shares_cache_entries() {
        let opts =
            parse_options(Some(&json::parse(r#"{"state_store":"interned"}"#).unwrap())).unwrap();
        assert_eq!(opts.state_store, wave_core::StateStoreKind::Interned);
        assert!(parse_options(Some(&json::parse(r#"{"state_store":"x"}"#).unwrap())).is_err());
        let err = parse_options(Some(&json::parse(r#"{"state_store":"byte_keys"}"#).unwrap()))
            .unwrap_err();
        assert_eq!(err, r#""state_store" must be "interned" or "tiered""#);

        // a result computed under one backend is served to the other
        let svc = service();
        let request = Json::obj([("spec", Json::from(MINI)), ("property", Json::from("G !@B"))]);
        let first = &svc.run_request(&request, "a")[0];
        assert!(!first.cached);
        let request = Json::obj([
            ("spec", Json::from(MINI)),
            ("property", Json::from("G !@B")),
            ("options", json::parse(r#"{"state_store":"tiered"}"#).unwrap()),
        ]);
        let second = &svc.run_request(&request, "b")[0];
        assert!(second.cached, "backends share cache entries");
    }

    #[test]
    fn tiered_store_options_parse_and_run() {
        // knob composition works in either key order
        let opts = parse_options(Some(
            &json::parse(r#"{"store_mem_mb":8,"state_store":"tiered","spill_dir":"/tmp/sp"}"#)
                .unwrap(),
        ))
        .unwrap();
        let wave_core::StateStoreKind::Tiered(params) = &opts.state_store else {
            panic!("expected tiered, got {:?}", opts.state_store)
        };
        assert_eq!(params.mem_bytes, 8 << 20);
        assert_eq!(params.spill_dir.as_deref(), Some(std::path::Path::new("/tmp/sp")));

        // tier knobs without the tiered backend are rejected
        let err = parse_options(Some(&json::parse(r#"{"store_mem_mb":8}"#).unwrap())).unwrap_err();
        assert!(err.contains("tiered"), "{err}");

        // bare "tiered" takes the default budget
        let opts =
            parse_options(Some(&json::parse(r#"{"state_store":"tiered"}"#).unwrap())).unwrap();
        assert_eq!(
            opts.state_store,
            wave_core::StateStoreKind::Tiered(wave_core::TierParams::default())
        );

        // a forced-spill run completes, reports the tier split in JSON,
        // and feeds the spill metrics
        let svc = service();
        let request = Json::obj([
            ("spec", Json::from(MINI)),
            ("property", Json::from("G (@B -> X @A)")),
            ("options", json::parse(r#"{"state_store":"tiered","store_mem_mb":0}"#).unwrap()),
        ]);
        let record = &svc.run_request(&request, "t")[0];
        assert_eq!(record.verdict, "holds");
        let json = record.to_json();
        let stats = json.get("stats").unwrap();
        assert!(stats.get("max_resident").unwrap().as_u64().is_some());
        assert!(stats.get("max_spilled").unwrap().as_u64().is_some());
        let profile = stats.get("profile").unwrap();
        for field in
            ["spill_pairs", "spill_segments", "spill_compactions", "bloom_skips", "cold_probes"]
        {
            assert!(profile.get(field).unwrap().as_u64().is_some(), "{field} missing");
        }
        let m = svc.metrics();
        assert_eq!(
            m.spill_pairs_total.get() > 0,
            record.stats.profile.spill_pairs > 0,
            "scheduler feeds spill metrics exactly when the search spilled"
        );
    }

    #[test]
    fn tiered_backend_shares_cache_entries() {
        let svc = service();
        let request = Json::obj([("spec", Json::from(MINI)), ("property", Json::from("G !@B"))]);
        let first = &svc.run_request(&request, "a")[0];
        assert!(!first.cached);
        let request = Json::obj([
            ("spec", Json::from(MINI)),
            ("property", Json::from("G !@B")),
            ("options", json::parse(r#"{"state_store":"tiered","store_mem_mb":4}"#).unwrap()),
        ]);
        let second = &svc.run_request(&request, "b")[0];
        assert!(second.cached, "the tiered backend is semantics-neutral: shared entry");
    }

    #[test]
    fn bad_jobs_become_error_records() {
        let svc = service();
        for (request, needle) in [
            (json::parse(r#"{"frobnicate":1}"#).unwrap(), "unknown job field"),
            (json::parse(r#"{"suite":"E9"}"#).unwrap(), "unknown suite"),
            (json::parse(r#"{"spec":"nonsense"}"#).unwrap(), "need a \"property\""),
            (json::parse(r#"[1]"#).unwrap(), "must be a JSON object"),
            (
                json::parse(r#"{"spec":"spec x {}","property":"G p","options":{"bogus":1}}"#)
                    .unwrap(),
                "unknown option",
            ),
        ] {
            let records = svc.run_request(&request, "j");
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].verdict, "error", "{request}");
            assert!(
                records[0].error.as_deref().unwrap().contains(needle),
                "{:?} should mention {needle:?}",
                records[0].error
            );
        }
    }

    #[test]
    fn lint_findings_ride_in_the_record() {
        // MINI with an unreachable page and a property reading nothing
        const DIRTY: &str = r#"
            spec dirty {
              inputs { button(x); }
              home A;
              page A {
                inputs { button }
                options button(x) <- x = "go";
                target B <- button("go");
              }
              page B { target A <- true; }
              page C {
                inputs { button }
                options button(x) <- x = "go";
                target A <- button("go");
              }
            }
        "#;
        let svc = service();
        let request =
            Json::obj([("spec", Json::from(DIRTY)), ("property", Json::from("G (@B -> X @A)"))]);
        let record = &svc.run_request(&request, "job-0")[0];
        assert_eq!(record.verdict, "holds");
        assert_eq!(record.diagnostics.len(), 1, "{:?}", record.diagnostics);
        let d = &record.diagnostics[0];
        assert_eq!(d.code, "W0201");
        assert_eq!(d.severity, "warning");
        assert_eq!(d.file, "inline spec");
        assert!(d.pos.is_some(), "W0201 carries a source span");
        let json = record.to_json();
        let diags = json.get("diagnostics").expect("diagnostics field").as_array().unwrap();
        assert_eq!(diags[0].get("code").unwrap().as_str(), Some("W0201"));
        assert_eq!(crate::json::parse(&json.to_string()).unwrap(), json, "round-trips");

        // cache hits recompute lint: findings never disappear on the hit
        let hit = &svc.run_request(&request, "job-1")[0];
        assert!(hit.cached);
        assert_eq!(hit.diagnostics, record.diagnostics);

        // a clean job's record omits the field entirely
        let clean =
            Json::obj([("spec", Json::from(MINI)), ("property", Json::from("G (@B -> X @A)"))]);
        let record = &svc.run_request(&clean, "job-2")[0];
        assert!(record.diagnostics.is_empty());
        assert!(record.to_json().get("diagnostics").is_none());
    }

    #[test]
    fn suite_records_lint_against_the_whole_property_suite() {
        // E1 has observables modeled for fidelity to the paper's app that
        // no property of the suite reads — those (and only those) surface
        // as W0301; single-property slices still lint against the full
        // suite so the findings don't depend on which slice ran
        let svc = service();
        let suite = lookup_suite("E2").unwrap();
        let records = svc.run_suite(&suite, Some("P1"), VerifyOptions::default());
        assert_eq!(records.len(), 1);
        for d in &records[0].diagnostics {
            assert_eq!(d.severity, "warning", "suites must carry no lint errors: {d:?}");
        }
    }

    #[test]
    fn record_json_shape() {
        let request = Json::obj([
            ("spec", Json::from(MINI)),
            ("property", Json::from("F @B")),
            ("name", Json::from("demo")),
        ]);
        let record = &service().run_request(&request, "x")[0];
        let json = record.to_json();
        assert_eq!(json.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(json.get("verdict").unwrap().as_str(), Some("violated"));
        assert!(json.get("ce_steps").unwrap().as_u64().is_some());
        assert!(json.get("stats").unwrap().get("cores").unwrap().as_u64().unwrap() > 0);
        // render + reparse round-trips
        assert_eq!(json::parse(&json.to_string()).unwrap(), json);
    }

    #[test]
    fn options_json_round_trips() {
        // every semantic field set away from its default
        let opts = VerifyOptions {
            max_steps: Some(u64::MAX - 3),
            time_limit: Some(std::time::Duration::new(3, 123_456_789)),
            budget_chunk: 7,
            heuristic1: false,
            heuristic2: false,
            use_plans: false,
            naive_joins: true,
            slice: false,
            pruning: wave_core::ExtensionPruning::PaperStrict,
            param_mode: wave_core::ParamMode::ExhaustiveEquality,
            state_store: wave_core::StateStoreKind::Tiered(wave_core::TierParams {
                mem_bytes: 8 << 20,
                spill_dir: Some(PathBuf::from("/tmp/sp")),
            }),
            ..Default::default()
        };
        let back = parse_options(Some(&options_to_json(&opts))).unwrap();
        // VerifyOptions carries no PartialEq (the cancel token); Debug
        // covers every field we care about
        assert_eq!(format!("{opts:?}"), format!("{back:?}"));
        // and the rendered JSON itself survives print → parse
        let json = options_to_json(&opts);
        assert_eq!(json::parse(&json.to_string()).unwrap(), json);

        // defaults round-trip too
        let opts = VerifyOptions::default();
        let back = parse_options(Some(&options_to_json(&opts))).unwrap();
        assert_eq!(format!("{opts:?}"), format!("{back:?}"));
    }

    #[test]
    fn exact_time_limit_and_enum_options_parse() {
        let opts = parse_options(Some(
            &json::parse(
                r#"{"time_limit_ns":1500000001,"pruning":"paper_strict","param_mode":"exhaustive_equality"}"#,
            )
            .unwrap(),
        ))
        .unwrap();
        assert_eq!(opts.time_limit, Some(std::time::Duration::from_nanos(1_500_000_001)));
        assert_eq!(opts.pruning, wave_core::ExtensionPruning::PaperStrict);
        assert_eq!(opts.param_mode, wave_core::ParamMode::ExhaustiveEquality);
        assert!(parse_options(Some(&json::parse(r#"{"pruning":"x"}"#).unwrap())).is_err());
        assert!(parse_options(Some(&json::parse(r#"{"param_mode":"x"}"#).unwrap())).is_err());
        assert!(parse_options(Some(&json::parse(r#"{"time_limit_ns":0}"#).unwrap())).is_err());
    }

    #[test]
    fn options_parse_and_reject() {
        let opts = parse_options(Some(
            &json::parse(r#"{"max_steps":50,"heuristic2":false,"time_limit_s":0.5}"#).unwrap(),
        ))
        .unwrap();
        assert_eq!(opts.max_steps, Some(50));
        assert!(!opts.heuristic2);
        assert_eq!(opts.time_limit, Some(std::time::Duration::from_millis(500)));
        assert!(parse_options(Some(&json::parse(r#"{"max_steps":-1}"#).unwrap())).is_err());
    }
}
