//! In-process half of the wave benchmark.
//!
//! ```text
//! wavebench-harness catalog
//!     print the E1–E4 suites (spec source, every property with its
//!     expected verdict) as one JSON object
//! wavebench-harness launch
//!     read one JSON line per command (`{"argv":[..],"out":..,"err":..}`)
//!     from stdin, run it to completion, and answer one line with its
//!     exit code, wall time and peak resident set size
//! wavebench-harness check <plan.jsonl> <out.json>
//! wavebench-harness serve <plan.jsonl> <out.json>
//!     run a request list in process with the calls `wave check` (human
//!     output, replay on) or the `wave serve` connection handler makes
//! ```
//!
//! `launch` exists because a process's peak RSS (`ru_maxrss`) includes
//! the memory of whatever it was spawned from: spawned straight from the
//! benchmark's Python client, every `wave` process would report at least
//! the client's own footprint. Spawned from this small process, it
//! reports its own.
//!
//! Every request of a plan runs twice, back to back: once bare, timed as
//! a whole, and once traced, with a span around each call into a layer's
//! public functions. Calls that bundle two layers (`Verifier::with_options`
//! is compile + slice, `Verifier::prepare` builds the Büchi automaton) are
//! followed, outside the request span, by probe calls of their parts on
//! the same input, so the split can be attributed. Spans stay in memory
//! and are written once, with each request's counters, when the plan ends.

use std::process::ExitCode;
use std::time::Instant;
use wave_core::{SearchLimits, SearchResult, SliceInfo, Stats, TierParams, Verdict, Verifier};
use wave_core::{StateStoreKind, VerifyOptions};
use wave_lint::{LintRequest, PropertySource};
use wave_ltl::{extract, nnf, parse_property, Buchi, Property};
use wave_spec::{parse_spec, print_spec, CompiledSpec};
use wave_svc::{Json, ServiceConfig, VerifyService};

/// One timed call.
struct Span {
    name: &'static str,
    req: usize,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// In-memory span recorder. A full one records every span; a bare one
/// records only the outermost (the request), so the two time the same
/// request boundary.
struct Tracer {
    full: bool,
    epoch: Instant,
    req: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    depth: usize,
}

impl Tracer {
    fn new(full: bool, epoch: Instant) -> Tracer {
        Tracer { full, epoch, req: 0, spans: Vec::new(), open: Vec::new(), depth: 0 }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        self.depth += 1;
        if self.full || self.depth == 1 {
            let parent = self.open.last().copied();
            let start = self.now();
            self.spans.push(Span { name, req: self.req, parent, start, end: start });
            self.open.push(self.spans.len() - 1);
        }
    }

    fn exit(&mut self) {
        if self.full || self.depth == 1 {
            let i = self.open.pop().expect("span exit without enter");
            self.spans[i].end = self.now();
        }
        self.depth -= 1;
    }

    /// Close every span a failed request left open.
    fn close_all(&mut self) {
        while self.depth > 0 {
            self.exit();
        }
    }

    fn to_json(&self) -> Json {
        let span = |s: &Span| {
            Json::Arr(vec![
                Json::from(s.name),
                Json::from(s.req),
                s.parent.map_or(Json::Null, Json::from),
                Json::from(s.start),
                Json::from(s.end),
            ])
        };
        Json::Arr(self.spans.iter().map(span).collect())
    }
}

type Counters = Vec<(&'static str, Json)>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["catalog"] => {
            println!("{}", catalog());
            Ok(())
        }
        ["launch"] => launch(),
        ["check", plan, out] => run_plan(plan, out, Kind::Check),
        ["serve", plan, out] => run_plan(plan, out, Kind::Serve),
        _ => Err("usage: wavebench-harness catalog | launch | check|serve <plan> <out>".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wavebench-harness: {e}");
            ExitCode::from(2)
        }
    }
}

fn catalog() -> Json {
    let suites = [
        ("E1", wave_apps::e1::suite()),
        ("E2", wave_apps::e2::suite()),
        ("E3", wave_apps::e3::suite()),
        ("E4", wave_apps::e4::suite()),
    ];
    let suite = |(id, s): &(&'static str, wave_apps::AppSuite)| {
        let props = s.properties.iter().map(|p| {
            Json::obj([
                ("name", Json::from(p.name)),
                ("holds", Json::from(p.holds)),
                ("text", Json::from(p.text.clone())),
            ])
        });
        Json::obj([
            ("id", Json::from(*id)),
            ("name", Json::from(s.name)),
            ("source", Json::from(s.source)),
            ("properties", Json::Arr(props.collect())),
        ])
    };
    Json::obj([("suites", Json::Arr(suites.iter().map(suite).collect()))])
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s, the
/// first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// Reap `pid`: (exit code, or 128 + signal; peak RSS in KiB).
fn reap(pid: u32) -> Result<(i32, i64), String> {
    let mut status = 0i32;
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    let pid = i32::try_from(pid).map_err(|e| e.to_string())?;
    // SAFETY: `status` and `usage` are live, writable and laid out as the
    // C prototype expects; `pid` is our own unreaped child.
    let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if got != pid {
        return Err(format!("wait4({pid}): {}", std::io::Error::last_os_error()));
    }
    let code = if status & 0x7f == 0 { (status >> 8) & 0xff } else { 128 + (status & 0x7f) };
    Ok((code, usage.maxrss))
}

/// The `launch` loop: one command per stdin line, one answer per line.
fn launch() -> Result<(), String> {
    use std::io::{BufRead, Write};
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let cmd = wave_svc::parse_json(&line).map_err(|e| format!("launch: {e}"))?;
        let argv: Vec<&str> = cmd
            .get("argv")
            .and_then(Json::as_array)
            .ok_or("launch: command lacks argv")?
            .iter()
            .map(|a| a.as_str().ok_or("launch: non-string argument"))
            .collect::<Result<_, _>>()?;
        let [program, args @ ..] = argv.as_slice() else {
            return Err("launch: empty argv".into());
        };
        let file = |key: &str| -> Result<std::fs::File, String> {
            let path = str_field(&cmd, key)?;
            std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))
        };
        let (out, err) = (file("out")?, file("err")?);
        let t0 = Instant::now();
        let child = std::process::Command::new(program)
            .args(args)
            .stdin(std::process::Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {program}: {e}"))?;
        let (code, maxrss_kb) = reap(child.id())?;
        let ns = t0.elapsed().as_nanos() as u64;
        let answer = Json::obj([
            ("exit", Json::Num(f64::from(code))),
            ("ns", Json::from(ns)),
            ("maxrss_kb", Json::Num(maxrss_kb as f64)),
        ]);
        writeln!(stdout, "{answer}").and_then(|()| stdout.flush()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[derive(Clone, Copy)]
enum Kind {
    Check,
    Serve,
}

fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key).and_then(Json::as_str).ok_or_else(|| format!("plan entry lacks string {key:?}"))
}

/// A plan is line-oriented: a JSON header line, then one line per entry
/// (a JSON request for `check`; for `serve`, the pre-warm and request
/// lines exactly as they go over the wire, parsed only inside the timed
/// request).
fn run_plan(plan_path: &str, out_path: &str, kind: Kind) -> Result<(), String> {
    let text = std::fs::read_to_string(plan_path).map_err(|e| format!("{plan_path}: {e}"))?;
    let mut lines = text.lines().map(str::to_string);
    let header = lines.next().ok_or("empty plan")?;
    let header = wave_svc::parse_json(&header).map_err(|e| format!("{plan_path}: {e}"))?;
    let entries: Vec<String> = lines.collect();
    // the nested DFS recurses once per pseudorun step; `Verifier::check`
    // gives it the same 512 MiB stack
    let out = std::thread::Builder::new()
        .stack_size(512 << 20)
        .spawn(move || match kind {
            Kind::Check => run_check_plan(&entries),
            Kind::Serve => run_serve_plan(&header, entries),
        })
        .map_err(|e| e.to_string())?
        .join()
        .map_err(|_| "request thread panicked".to_string())??;
    std::fs::write(out_path, format!("{out}\n")).map_err(|e| format!("{out_path}: {e}"))
}

/// Run every request bare and traced; collect per-request results, the
/// bare request times and the traced run's spans.
fn run_requests<R>(
    requests: &[R],
    mut run: impl FnMut(&R, &mut Tracer) -> Result<Counters, String>,
) -> Json {
    let epoch = Instant::now();
    let mut bare = Tracer::new(false, epoch);
    let mut traced = Tracer::new(true, epoch);
    let mut rows = Vec::new();
    let result = |r: Result<Counters, String>| match r {
        Ok(c) => Json::obj(c),
        Err(e) => Json::obj([("error", Json::from(e))]),
    };
    for (id, req) in requests.iter().enumerate() {
        let bare_out = run(req, &mut bare);
        bare.close_all();
        let bare_ns = bare.spans.drain(..).map(|s| s.end - s.start).sum::<u64>();
        traced.req = id;
        let traced_out = run(req, &mut traced);
        traced.close_all();
        rows.push(Json::obj([
            ("id", Json::from(id)),
            ("bare_ns", Json::from(bare_ns)),
            ("bare", result(bare_out)),
            ("traced", result(traced_out)),
        ]));
    }
    Json::obj([("requests", Json::Arr(rows)), ("spans", traced.to_json())])
}

struct CheckReq {
    spec_path: String,
    property: String,
    options: VerifyOptions,
}

fn run_check_plan(entries: &[String]) -> Result<Json, String> {
    let mut requests = Vec::new();
    for line in entries {
        let e = wave_svc::parse_json(line).map_err(|e| format!("plan entry: {e}"))?;
        let mut options = VerifyOptions::default();
        if let Some(mb) = e.get("store_mem_mb").and_then(Json::as_u64) {
            options.state_store = StateStoreKind::Tiered(TierParams {
                mem_bytes: mb << 20,
                spill_dir: Some(str_field(&e, "spill_dir")?.into()),
            });
        }
        requests.push(CheckReq {
            spec_path: str_field(&e, "spec_path")?.to_string(),
            property: str_field(&e, "property")?.to_string(),
            options,
        });
    }
    Ok(run_requests(&requests, check_request))
}

/// One `wave check <spec> --property <p>` request, human output with
/// counterexample replay, as `cmd_check` makes it.
fn check_request(req: &CheckReq, t: &mut Tracer) -> Result<Counters, String> {
    t.enter("request");
    t.enter("spec.parse");
    let src = std::fs::read_to_string(&req.spec_path).map_err(|e| e.to_string())?;
    let spec = parse_spec(&src).map_err(|e| e.to_string())?;
    spec.validate().map_err(|errs| format!("spec is invalid ({} errors)", errs.len()))?;
    t.exit();

    t.enter("lint.run");
    let lint_req = LintRequest {
        spec_path: req.spec_path.clone(),
        spec_src: src.clone(),
        properties: vec![PropertySource {
            label: "property".to_string(),
            text: req.property.clone(),
        }],
    };
    let diags = wave_lint::lint(&lint_req);
    t.exit();
    let mut report = String::new();
    if !diags.is_empty() {
        t.enter("wave.output");
        report.push_str(&wave_lint::render_text(&lint_req, &diags));
        report.push_str(&wave_lint::summary(&diags));
        t.exit();
    }

    t.enter("ltl.parse");
    let property = parse_property(&req.property).map_err(|e| format!("property: {e}"))?;
    t.exit();
    t.enter("core.new");
    let verifier = Verifier::with_options(spec, req.options.clone()).map_err(|e| e.to_string())?;
    t.exit();
    t.enter("core.prepare");
    let prepared = verifier.prepare(&property).map_err(|e| e.to_string())?;
    t.exit();

    // the unit loop of `Verifier::check`: units in order, stop at the
    // first violation or exhausted budget
    t.enter("core.search");
    let limits =
        SearchLimits { pool: verifier.options().budget_pool(Instant::now()), cancel: None };
    let mut stats = Stats::default();
    let mut verdict = Verdict::Holds;
    for unit in 0..prepared.num_units() {
        let outcome = prepared.run_unit(unit, None, &limits).map_err(|e| e.to_string())?;
        stats.merge(&outcome.stats);
        match outcome.result {
            SearchResult::Clean => {}
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
    t.exit();

    if let Verdict::Violated(ce) = &verdict {
        t.enter("core.replay");
        verifier
            .validate_counterexample(&property, ce)
            .map_err(|e| format!("counterexample failed replay: {e}"))?;
        t.exit();
    }
    t.enter("wave.output");
    let label = match &verdict {
        Verdict::Holds => {
            report.push_str(&format!(
                "property HOLDS — max run length {}, trie size {}, {} configurations\n",
                stats.max_run_len, stats.max_trie, stats.configs
            ));
            "holds"
        }
        Verdict::Violated(ce) => {
            report.push_str(&format!("property VIOLATED — {} steps\n", ce.steps.len()));
            report.push_str(&verifier.render_counterexample(ce));
            "violated"
        }
        Verdict::Unknown(b) => {
            report.push_str(&format!("UNKNOWN — budget exhausted ({b:?})\n"));
            "unknown"
        }
    };
    t.exit();
    t.exit();
    std::hint::black_box(&report);

    let mut counters = vec![
        ("verdict", Json::from(label)),
        ("lint_diagnostics", Json::from(diags.len())),
        ("rules_removed", Json::from(verifier.slice().rules_removed)),
        ("units", Json::from(prepared.num_units())),
    ];
    counters.extend(stats_counters(&stats));
    if t.full {
        counters.extend(check_probes(&src, &property, t)?);
    }
    Ok(counters)
}

/// The deterministic search counters and the search's phase profile.
fn stats_counters(stats: &Stats) -> Counters {
    let p = &stats.profile;
    vec![
        ("elapsed_ns", Json::from(stats.elapsed.as_nanos() as u64)),
        ("configs", Json::from(stats.configs)),
        ("cores", Json::from(stats.cores)),
        ("assignments", Json::from(stats.assignments)),
        ("max_run_len", Json::from(stats.max_run_len)),
        ("max_trie", Json::from(stats.max_trie)),
        ("max_resident", Json::from(stats.max_resident)),
        ("max_spilled", Json::from(stats.max_spilled)),
        ("expand_ns", Json::from(p.expand_ns)),
        ("intern_ns", Json::from(p.intern_ns)),
        ("eval_ns", Json::from(p.eval_ns)),
        ("visit_ns", Json::from(p.visit_ns)),
        ("intern_hits", Json::from(p.intern_hits)),
        ("intern_misses", Json::from(p.intern_misses)),
        ("memo_hits", Json::from(p.memo_hits)),
        ("memo_misses", Json::from(p.memo_misses)),
        ("join_builds", Json::from(p.join_builds)),
        ("spill_pairs", Json::from(p.spill_pairs)),
        ("spill_segments", Json::from(p.spill_segments)),
        ("spill_compactions", Json::from(p.spill_compactions)),
        ("bloom_skips", Json::from(p.bloom_skips)),
        ("cold_probes", Json::from(p.cold_probes)),
    ]
}

/// Probe calls of the parts of `Verifier::with_options` (compile, slice)
/// and of the Büchi construction inside `Verifier::prepare`, on the
/// request's own inputs. They run after the request span closes.
fn check_probes(src: &str, property: &Property, t: &mut Tracer) -> Result<Counters, String> {
    let spec = parse_spec(src).map_err(|e| e.to_string())?;
    t.enter("probe.spec.compile");
    let mut compiled = CompiledSpec::compile(spec).map_err(|e| e.to_string())?;
    t.exit();
    t.enter("probe.flow.slice");
    std::hint::black_box(SliceInfo::compute(&mut compiled));
    t.exit();
    t.enter("probe.ltl.buchi");
    let states = buchi(property).num_states();
    t.exit();
    Ok(vec![("buchi_states", Json::from(states))])
}

/// parse → extract → nnf → Büchi, as `Verifier::prepare` starts.
fn buchi(property: &Property) -> Buchi {
    let extraction = extract(&property.body.group_fo());
    let negated = nnf(&extraction.aux, true);
    Buchi::from_nnf(&negated, extraction.components.len())
}

fn run_serve_plan(header: &Json, mut requests: Vec<String>) -> Result<Json, String> {
    let jobs = header.get("jobs").and_then(Json::as_u64).ok_or("plan lacks jobs")? as usize;
    let n = header.get("prewarm").and_then(Json::as_u64).ok_or("plan lacks prewarm")? as usize;
    let prewarm: Vec<String> = requests.drain(..n.min(requests.len())).collect();
    // one service per side, warmed alike, so the bare and the traced
    // request meet the same cache state
    let service = || -> Result<VerifyService, String> {
        let svc = VerifyService::new(ServiceConfig { jobs, ..ServiceConfig::default() })
            .map_err(|e| e.to_string())?;
        let mut off = Tracer::new(false, Instant::now());
        for line in &prewarm {
            serve_request(&svc, line, &mut off)?;
        }
        Ok(svc)
    };
    let (bare, traced) = (service()?, service()?);
    Ok(run_requests(&requests, |line, t| {
        serve_request(if t.full { &traced } else { &bare }, line, t)
    }))
}

/// One job line as the server's connection handler serves it: parse the
/// wire JSON, run the job, serialize the reply line.
fn serve_request(svc: &VerifyService, line: &str, t: &mut Tracer) -> Result<Counters, String> {
    t.enter("request");
    t.enter("svc.json");
    let request = wave_svc::parse_json(line).map_err(|e| e.to_string())?;
    t.exit();
    t.enter("svc.request");
    let records = svc.run_request(&request, "job");
    t.exit();
    t.enter("svc.json");
    let results: Vec<Json> = records.iter().map(|r| r.to_json()).collect();
    let reply = Json::obj([("ok", Json::from(true)), ("results", Json::Arr(results))]);
    std::hint::black_box(reply.to_string());
    t.exit();
    t.exit();

    let [record] = records.as_slice() else {
        return Err(format!("expected one record, got {}", records.len()));
    };
    if let Some(e) = &record.error {
        return Err(e.clone());
    }
    let mut counters = vec![
        ("verdict", Json::from(record.verdict.clone())),
        ("cached", Json::from(record.cached)),
        ("lint_diagnostics", Json::from(record.diagnostics.len())),
    ];
    if !record.cached {
        counters.extend(stats_counters(&record.stats));
    }
    if t.full {
        counters.extend(serve_probes(&request, record.cached, t)?);
    }
    Ok(counters)
}

/// Probe calls of the steps `VerifyService::run_request` makes inside:
/// the lint pre-pass and the cache key on every request, and for fresh
/// requests the parse, compile and slice of the inline spec.
fn serve_probes(request: &Json, cached: bool, t: &mut Tracer) -> Result<Counters, String> {
    let text = str_field(request, "spec")?;
    let property = str_field(request, "property")?;
    t.enter("probe.svc.lint");
    let lint_req = LintRequest {
        spec_path: "inline spec".to_string(),
        spec_src: text.to_string(),
        properties: vec![PropertySource {
            label: "property".to_string(),
            text: property.to_string(),
        }],
    };
    std::hint::black_box(wave_svc::lint_records(&lint_req));
    t.exit();
    let spec = parse_spec(text).map_err(|e| e.to_string())?;
    t.enter("probe.svc.key");
    let options = VerifyOptions::default();
    std::hint::black_box(wave_svc::cache::fingerprint(&print_spec(&spec), property, &options));
    t.exit();
    if !cached {
        t.enter("probe.spec.parse");
        let spec = parse_spec(text).map_err(|e| e.to_string())?;
        t.exit();
        t.enter("probe.spec.compile");
        let mut compiled = CompiledSpec::compile(spec).map_err(|e| e.to_string())?;
        t.exit();
        t.enter("probe.flow.slice");
        std::hint::black_box(SliceInfo::compute(&mut compiled));
        t.exit();
    }
    Ok(Vec::new())
}
