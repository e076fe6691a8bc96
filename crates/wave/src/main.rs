//! `wave` — command-line verifier for interactive, data-driven web
//! applications.
//!
//! ```text
//! wave check <spec.wave> --property "<LTL-FO>" [options]
//!     verify one property; prints the verdict, statistics, and (for
//!     violations) the counterexample pseudorun
//!
//! wave validate <spec.wave>
//!     parse + validate the specification, report the input-boundedness
//!     verdict and the page/relation inventory
//!
//! wave automaton --property "<LTL-FO>"
//!     print the Büchi automaton for the negated property
//!
//! options for `check`:
//!     --property <text>        the LTL-FO property (required)
//!     --max-steps <n>          configuration budget
//!     --time-limit <seconds>   wall-clock budget
//!     --no-heuristic1          disable core pruning
//!     --no-heuristic2          disable extension pruning
//!     --paper-strict           strict Heuristic 2 (no option witnesses)
//!     --exhaustive-equality    all C_∃ equality patterns
//!     --interpret              direct FO evaluation of rules and property
//!                              components (no compiled plans)
//!     --no-replay              skip counterexample re-validation
//!     --quiet                  verdict only
//! ```

use std::process::ExitCode;
use std::time::Duration;
use wave::core::{ExtensionPruning, ParamMode};
use wave::{parse_property, parse_spec, Verdict, Verifier, VerifyOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("automaton") => cmd_automaton(&args[1..]),
        Some("fmt") => cmd_fmt(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("prof") => cmd_prof(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{}", USAGE);
            ExitCode::from(2)
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n");
            eprint!("{}", USAGE);
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
wave — a verifier for interactive, data-driven web applications

usage:
  wave check <spec.wave> --property \"<LTL-FO>\" [options]
  wave lint <spec.wave> [--property <text-or-file>]... [lint options]
  wave validate <spec.wave>
  wave automaton --property \"<LTL-FO>\"
  wave fmt <spec.wave>
  wave batch <jobs.jsonl> [--jobs <n>] [cache options]
  wave serve --addr <host:port> [--jobs <n>] [cache options]
             [--max-connections <n>] [--read-timeout <seconds>]
             [--write-timeout <seconds>] [--metrics-addr <host:port>]
  wave worker --connect <host:port> [--name <id>]
  wave trace summarize <trace.jsonl> [--top <k>]
  wave prof flame <profile.json>
  wave bench --record | --check | --trend | --backfill
             [--out <file>] [--query-out <file>] [--slice-out <file>]
             [--ledger <file>] [--max-regress <pct>]

check options:
  --max-steps <n>         global configuration budget (shared across workers)
  --time-limit <seconds>  wall-clock budget
  --budget-chunk <n>      steps leased from the shared budget pool per grant
                          (contention knob; does not affect the verdict)
  --no-heuristic1         disable core pruning (Heuristic 1)
  --no-heuristic2         disable extension pruning (Heuristic 2)
  --paper-strict          strict Heuristic 2 (no option-support witnesses)
  --exhaustive-equality   enumerate all C_∃ equality patterns
  --interpret             evaluate rules and property components directly
                          (no compiled plans)
  --naive-joins           nested-loop joins, no query memo (planner ablation
                          baseline; verdicts and statistics are unchanged)
  --no-slice              disable cone-of-influence property slicing
                          (dataflow ablation baseline; verdicts, traces,
                          and deterministic counters are unchanged)
  --store <kind>          interned (default) or tiered (Bloom front + bounded
                          hot tier + disk spill)
  --store-mem-mb <m>      tiered only: hot-tier byte budget in MiB (default 64)
  --spill-dir <dir>       tiered only: directory for spill segments
                          (default: a private temp dir, removed on exit)
  --checkpoint-dir <dir>  checkpoint search state into <dir>/wave.ckpt so an
                          interrupted run resumes where it left off
  --checkpoint-every <n>  cores scanned between checkpoints (default 64)
  --jobs <n>              verify on an n-worker pool (wave-svc scheduler)
  --fleet <host:port>     bind a fleet dispatcher on <host:port> and verify
                          across connecting `wave worker` processes; verdicts
                          and counters stay byte-identical to --jobs 1
  --fleet-workers <n>     also run n in-process workers (0 = remote only;
                          the dispatcher still finishes via local fallback
                          if no worker ever connects)
  --json                  print one JSON result record (batch format)
  --trace-out <file>      stream a JSONL search trace (sequential only;
                          summarize it with `wave trace summarize`)
  --profile-out <file>    run the hierarchical span profiler and write a
                          profile JSON (span tree, folded stacks, per-query
                          cost attribution); prints the top-10 attribution
                          table; sequential only. Render a flamegraph with
                          `wave prof flame <file> | flamegraph.pl`
  --no-replay             skip counterexample re-validation
  --quiet                 print the verdict only

lint options:
  --property <p>          LTL-FO property to cross-check against the spec;
                          a path to a readable file is loaded from disk,
                          anything else is inline text (repeatable)
  --format <fmt>          text (default), json, or sarif (SARIF 2.1.0)
  --deny warnings         treat every warning as an error
  --allow <CODE>          suppress a warning or note code, e.g. W0301
                          (repeatable; hard errors cannot be allowed)
  --explain <CODE>        print the full description and remediation notes
                          for a diagnostic code and exit (no spec needed)

cache options (batch and serve):
  --cache-dir <dir>       on-disk result cache
  --no-cache              disable the result cache
  --cache-mem-entries <n> in-memory entry bound (default 256; 0 = unbounded)
  --cache-gc-days <d>     startup GC: drop disk entries older than d days
  --cache-gc-mb <m>       startup GC: shrink the disk cache below m MiB

serve: --metrics-addr binds a Prometheus text-exposition listener
(scrape GET /metrics); the socket itself answers {\"cmd\":\"metrics\"}

worker: joins a fleet dispatcher (`wave check --fleet` or an embedding
service), registers with a heartbeat, and executes work units shipped
as (spec fingerprint, property, unit ordinal, core range, budget
lease); exits when the dispatcher says bye
  --connect <host:port>   dispatcher address (required; retried ~10 s)
  --name <id>             worker name for dispatcher diagnostics
  --max-units <n>         exit cleanly after n units (fault injection)
  --chaos-abort-unit <n>  drop the connection upon receiving the nth
                          run command — a worker killed mid-unit
                          (fault injection)

bench: --record runs the E1–E4 property suites on the tiered store at a
generous and a forced-spill memory budget (BENCH_store.json, --out
overrides) and with the query engine on/off (BENCH_query.json,
--query-out overrides), plus a dead-code-heavy slice workload with
property slicing on/off (BENCH_slice.json, --slice-out overrides) —
writing deterministic columns plus
informational per-phase wall-time and memo/intern hit-rate columns,
and appends one run-ledger entry per bench (LEDGER.jsonl, --ledger
overrides) keyed by git revision and suite fingerprint; --check
re-runs them, fails if a committed file has drifted, and fails if the
measured suite wall time regressed more than --max-regress percent
(default 200) against the last ledger entry; --trend renders the
per-property elapsed-time history across ledger entries; --backfill
seeds the ledger from the committed bench files without re-running

batch: one JSON job per input line, one JSON record per property on
stdout; e.g. {\"suite\":\"E1\"}, {\"suite\":\"E1\",\"property\":\"P5\"}, or
{\"spec_path\":\"shop.wave\",\"property\":\"G !@ERR\",\"options\":{\"max_steps\":5000}}

exit codes: 0 property holds · 1 property violated · 2 usage/spec error
            3 budget exhausted   (batch: 0 all jobs ran · 2 some errored)
            (lint: 0 clean or warnings only · 1 errors · 2 usage)
";

/// Cores scanned between checkpoints when `--checkpoint-every` is not
/// given. Checkpoints land at core boundaries (where the visited set is
/// empty), so this trades re-scanned work after a kill against
/// checkpoint write traffic.
const DEFAULT_CHECKPOINT_EVERY: u64 = 64;

/// Pull `--flag value` out of an argument list.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Pull a boolean `--flag` out of an argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn load_spec(path: &str) -> Result<(wave::Spec, String), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = parse_spec(&src).map_err(|e| format!("{path}: {e}"))?;
    if let Err(errs) = spec.validate() {
        let mut msg = format!("{path}: specification is invalid:\n");
        for e in errs {
            msg.push_str(&format!("  - {e}\n"));
        }
        return Err(msg);
    }
    Ok((spec, src))
}

fn cmd_check(rest: &[String]) -> ExitCode {
    let mut args = rest.to_vec();
    let property_text = match take_value(&mut args, "--property") {
        Some(p) => p,
        None => {
            eprintln!("check needs --property \"<LTL-FO>\"");
            return ExitCode::from(2);
        }
    };
    let mut options = VerifyOptions::default();
    if let Some(n) = take_value(&mut args, "--max-steps") {
        options.max_steps = n.parse().ok();
    }
    if let Some(secs) = take_value(&mut args, "--time-limit") {
        options.time_limit = secs.parse().ok().map(Duration::from_secs_f64);
    }
    if let Some(n) = take_value(&mut args, "--budget-chunk") {
        match n.parse::<u64>() {
            Ok(n) if n >= 1 => options.budget_chunk = n,
            _ => {
                eprintln!("--budget-chunk needs a positive integer, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    if take_flag(&mut args, "--no-heuristic1") {
        options.heuristic1 = false;
    }
    if take_flag(&mut args, "--no-heuristic2") {
        options.heuristic2 = false;
    }
    if take_flag(&mut args, "--paper-strict") {
        options.pruning = ExtensionPruning::PaperStrict;
    }
    if take_flag(&mut args, "--exhaustive-equality") {
        options.param_mode = ParamMode::ExhaustiveEquality;
    }
    if take_flag(&mut args, "--interpret") {
        options.use_plans = false;
    }
    if take_flag(&mut args, "--naive-joins") {
        options.naive_joins = true;
    }
    if take_flag(&mut args, "--no-slice") {
        options.slice = false;
    }
    let store_mem_mb = take_value(&mut args, "--store-mem-mb");
    let spill_dir = take_value(&mut args, "--spill-dir");
    if let Some(kind) = take_value(&mut args, "--store") {
        options.state_store = match kind.as_str() {
            "interned" => wave::core::StateStoreKind::Interned,
            "tiered" => wave::core::StateStoreKind::Tiered(wave::core::TierParams::default()),
            _ => {
                eprintln!("--store must be interned or tiered, got {kind:?}");
                return ExitCode::from(2);
            }
        };
    }
    if store_mem_mb.is_some() || spill_dir.is_some() {
        let wave::core::StateStoreKind::Tiered(ref mut params) = options.state_store else {
            eprintln!("--store-mem-mb/--spill-dir require --store tiered");
            return ExitCode::from(2);
        };
        if let Some(mb) = store_mem_mb {
            match mb.parse::<u64>() {
                Ok(mb) => params.mem_bytes = mb << 20,
                Err(_) => {
                    eprintln!("--store-mem-mb needs an integer number of MiB, got {mb:?}");
                    return ExitCode::from(2);
                }
            }
        }
        if let Some(dir) = spill_dir {
            params.spill_dir = Some(dir.into());
        }
    }
    let checkpoint_dir = take_value(&mut args, "--checkpoint-dir");
    let checkpoint_every = match take_value(&mut args, "--checkpoint-every") {
        Some(n) => {
            if checkpoint_dir.is_none() {
                eprintln!("--checkpoint-every needs --checkpoint-dir");
                return ExitCode::from(2);
            }
            match n.parse::<u64>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("--checkpoint-every needs a positive integer, got {n:?}");
                    return ExitCode::from(2);
                }
            }
        }
        None => DEFAULT_CHECKPOINT_EVERY,
    };
    let no_replay = take_flag(&mut args, "--no-replay");
    let quiet = take_flag(&mut args, "--quiet");
    let json_out = take_flag(&mut args, "--json");
    let trace_out = take_value(&mut args, "--trace-out");
    let profile_out = take_value(&mut args, "--profile-out");
    let jobs = match take_value(&mut args, "--jobs") {
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("--jobs needs a positive integer, got {n:?}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let fleet_addr = take_value(&mut args, "--fleet");
    let fleet_workers = match take_value(&mut args, "--fleet-workers") {
        Some(n) => {
            if fleet_addr.is_none() {
                eprintln!("--fleet-workers needs --fleet");
                return ExitCode::from(2);
            }
            match n.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--fleet-workers needs an integer, got {n:?}");
                    return ExitCode::from(2);
                }
            }
        }
        None => 0,
    };
    if fleet_addr.is_some()
        && (jobs.is_some()
            || trace_out.is_some()
            || checkpoint_dir.is_some()
            || profile_out.is_some())
    {
        eprintln!(
            "--fleet runs the distributed scheduler; it does not combine \
             with --jobs, --trace-out, --checkpoint-dir, or --profile-out"
        );
        return ExitCode::from(2);
    }
    if trace_out.is_some() && jobs.is_some() {
        eprintln!("--trace-out traces the sequential search; it does not combine with --jobs");
        return ExitCode::from(2);
    }
    if checkpoint_dir.is_some() && (jobs.is_some() || trace_out.is_some()) {
        eprintln!("--checkpoint-dir drives the sequential search; it does not combine with --jobs or --trace-out");
        return ExitCode::from(2);
    }
    if profile_out.is_some() && (jobs.is_some() || trace_out.is_some() || checkpoint_dir.is_some())
    {
        eprintln!(
            "--profile-out profiles the sequential search; it does not combine \
             with --jobs, --trace-out, or --checkpoint-dir"
        );
        return ExitCode::from(2);
    }
    let [path] = args.as_slice() else {
        eprintln!("check needs exactly one spec file, got {args:?}");
        return ExitCode::from(2);
    };

    let (spec, src) = match load_spec(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // lint pre-pass: static findings over the spec and property, on
    // stderr in human mode and embedded in the --json record; never
    // blocks verification (even error-level findings, e.g. an undeclared
    // relation, surface a clearer message here than the verifier's)
    let lint_req = wave_lint::LintRequest {
        spec_path: path.clone(),
        spec_src: src,
        properties: vec![wave_lint::PropertySource {
            label: "property".to_string(),
            text: property_text.clone(),
        }],
    };
    let property = parse_property(&property_text);
    let lint_diags = match &property {
        // the spec is already parsed and validated: lint it as it is,
        // with the property grouped the way `wave_lint::lint` groups it
        Ok(p) => {
            let mut grouped = p.clone();
            grouped.body = grouped.body.group_fo();
            wave_lint::lint_spec(
                &spec,
                &[wave_lint::ParsedProperty { index: 0, property: grouped }],
            )
        }
        // from the text, so the property's E0001 diagnostic is reported
        Err(_) => wave_lint::lint(&lint_req),
    };
    if !json_out && !quiet && !lint_diags.is_empty() {
        eprint!("{}", wave_lint::render_text(&lint_req, &lint_diags));
        eprintln!("lint: {}", wave_lint::summary(&lint_diags));
    }
    let property = match property {
        Ok(p) => p,
        Err(e) => {
            eprintln!("property: {e}");
            return ExitCode::from(2);
        }
    };
    // the fleet ships specs by canonical text (the fingerprint input);
    // capture it before the spec moves into the verifier
    let spec_text =
        if fleet_addr.is_some() { wave::spec::print_spec(&spec) } else { String::new() };
    let verifier = match Verifier::with_options(spec, options) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut profiler = wave::core::SpanProfiler::new();
    let run = if let Some(addr) = &fleet_addr {
        run_fleet(addr, fleet_workers, &verifier, &spec_text, &property_text, &property)
    } else {
        match (&checkpoint_dir, &trace_out, jobs) {
            (Some(dir), _, _) => {
                let config = wave::core::CheckpointConfig::new(dir, checkpoint_every);
                match wave::core::check_checkpointed(&verifier, &property_text, &config) {
                    Ok(wave::core::CheckpointOutcome::Finished(v)) => Ok(v),
                    Ok(wave::core::CheckpointOutcome::Interrupted { .. }) => {
                        unreachable!("the interrupt hook is never armed from the CLI")
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
            (None, Some(out), _) => run_traced(&verifier, &property, out),
            (None, None, Some(n)) => wave_svc::check_parallel(
                &verifier,
                &property,
                &wave_svc::ParallelOptions::with_jobs(n),
            )
            .map_err(|e| e.to_string()),
            (None, None, None) if profile_out.is_some() => {
                verifier.check_profiled(&property, &mut profiler).map_err(|e| e.to_string())
            }
            (None, None, None) => verifier.check(&property).map_err(|e| e.to_string()),
        }
    };
    let v = match run {
        Ok(v) => v,
        Err(e) => {
            eprintln!("verification failed: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(out) = &profile_out {
        let components = match verifier.prepare(&property) {
            Ok(prepared) if prepared.num_units() > 0 => prepared.components(0),
            _ => Vec::new(),
        };
        let catalog = query_catalog(verifier.spec(), &components);
        let report = profile_report(&catalog, &v, &profiler);
        if let Err(e) = std::fs::write(out, format!("{report}\n")) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::from(2);
        }
        if !json_out && !quiet {
            print_attribution_table(&catalog, &v, &profiler, 10);
            eprintln!("profile: wrote {out}");
        }
    }
    if json_out {
        // the same record format batch and serve emit
        if let Verdict::Violated(ce) = &v.verdict {
            if !no_replay {
                if let Err(e) = verifier.validate_counterexample(&property, ce) {
                    eprintln!("internal error: counterexample failed replay: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        let mut record = wave_svc::JobRecord::from_verification(path, &v);
        record.diagnostics = wave_svc::diagnostic_records(&lint_req, &lint_diags);
        println!("{}", record.to_json());
        return match &v.verdict {
            Verdict::Holds => ExitCode::SUCCESS,
            Verdict::Violated(_) => ExitCode::from(1),
            Verdict::Unknown(_) => ExitCode::from(3),
        };
    }
    match &v.verdict {
        Verdict::Holds => {
            if quiet {
                println!("holds");
            } else {
                println!(
                    "property HOLDS{} — {:?}, max run length {}, trie size {}, \
                     {} configurations",
                    if v.complete {
                        " (complete verification)"
                    } else {
                        " (no counterexample found; incomplete fragment)"
                    },
                    v.stats.elapsed,
                    v.stats.max_run_len,
                    v.stats.max_trie,
                    v.stats.configs,
                );
                print_spill_breakdown(&v.stats);
            }
            ExitCode::SUCCESS
        }
        Verdict::Violated(ce) => {
            if !no_replay {
                if let Err(e) = verifier.validate_counterexample(&property, ce) {
                    eprintln!("internal error: counterexample failed replay: {e}");
                    return ExitCode::from(2);
                }
            }
            if quiet {
                println!("violated");
            } else {
                println!(
                    "property VIOLATED — counterexample with {} steps \
                     (cycle from step {}), found in {:?}:",
                    ce.steps.len(),
                    ce.cycle_start,
                    v.stats.elapsed,
                );
                print!("{}", verifier.render_counterexample(ce));
            }
            ExitCode::from(1)
        }
        Verdict::Unknown(b) => {
            println!("UNKNOWN — budget exhausted ({b:?})");
            if !quiet {
                print_spill_breakdown(&v.stats);
            }
            ExitCode::from(3)
        }
    }
}

/// One extra stats line when the tiered store actually spilled: how the
/// peak visited set split across memory and disk.
fn print_spill_breakdown(stats: &wave::Stats) {
    if stats.max_spilled > 0 {
        println!(
            "  peak visited set: {} resident + {} spilled pairs \
             ({} spill segments written, {} compactions)",
            stats.max_resident,
            stats.max_spilled,
            stats.profile.spill_segments,
            stats.profile.spill_compactions,
        );
    }
}

/// Static label and plan shape for every query id of a check: `page/kind
/// head` (rules), `page/target page` (targets) or `property/component i`
/// (the property's FO components, as instantiated for the first unit)
/// plus the compiled plan's operator skeleton (`interp` for interpreted
/// queries).
fn query_catalog(
    spec: &wave::spec::CompiledSpec,
    components: &[wave::spec::CompiledComponent],
) -> Vec<(String, String)> {
    let mut out = vec![(String::new(), String::new()); spec.num_queries as usize];
    for page in &spec.pages {
        let rules = [
            ("option", &page.option_rules),
            ("state", &page.state_rules),
            ("action", &page.action_rules),
        ];
        for (kind, rules) in rules {
            for r in rules {
                let shape = match &r.exec {
                    wave::spec::RuleExec::Plan(q) => q.plan().shape(),
                    wave::spec::RuleExec::Interp => "interp".to_string(),
                };
                let label = format!("{}/{kind} {}", page.name, spec.schema.name(r.head));
                out[r.reads.qid as usize] = (label, shape);
            }
        }
        for t in &page.target_rules {
            let shape = match &t.exec {
                wave::spec::TargetExec::Plan(q) => q.plan().shape(),
                wave::spec::TargetExec::Interp => "interp".to_string(),
            };
            let label = format!("{}/target {}", page.name, spec.pages[t.target.index()].name);
            out[t.reads.qid as usize] = (label, shape);
        }
    }
    for (i, c) in components.iter().enumerate() {
        let shape = match &c.exec {
            wave::spec::TargetExec::Plan(q) => q.plan().shape(),
            wave::spec::TargetExec::Interp => "interp".to_string(),
        };
        out.push((format!("property/component {i}"), shape));
    }
    out
}

/// The `--profile-out` report: phase timers, the span tree, folded
/// stacks for flamegraph rendering, and the per-query attribution table.
fn profile_report(
    catalog: &[(String, String)],
    v: &wave::Verification,
    profiler: &wave::core::SpanProfiler,
) -> wave_svc::Json {
    use wave_svc::Json;
    let p = &v.stats.profile;
    let spans = profiler
        .rows()
        .into_iter()
        .map(|r| {
            Json::obj([
                ("stack", Json::from(r.stack)),
                ("calls", Json::from(r.calls)),
                ("total_ns", Json::from(r.total_ns)),
                ("self_ns", Json::from(r.self_ns)),
            ])
        })
        .collect();
    let folded = profiler.fold().into_iter().map(Json::from).collect();
    let queries = v
        .stats
        .queries
        .iter()
        .map(|q| {
            let (label, shape) = catalog
                .get(q.qid as usize)
                .cloned()
                .unwrap_or_else(|| ("?".to_string(), "?".to_string()));
            Json::obj([
                ("qid", Json::from(u64::from(q.qid))),
                ("label", Json::from(label)),
                ("shape", Json::from(shape)),
                ("calls", Json::from(q.calls)),
                ("memo_hits", Json::from(q.memo_hits)),
                ("memo_misses", Json::from(q.memo_misses)),
                ("hit_rate", q.hit_rate().map(Json::from).unwrap_or(Json::Null)),
                ("exec_ns", Json::from(q.exec_ns)),
                ("rows", Json::from(q.rows)),
                ("hash_builds", Json::from(q.hash_builds)),
                ("rows_built", Json::from(q.rows_built)),
                ("rows_probed", Json::from(q.rows_probed)),
                ("wall_ns", Json::from(profiler.total_ns_of("query", u64::from(q.qid)))),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::from(1u64)),
        (
            "phases",
            Json::obj([
                ("expand_ns", Json::from(p.expand_ns)),
                ("eval_ns", Json::from(p.eval_ns)),
                ("intern_ns", Json::from(p.intern_ns)),
                ("visit_ns", Json::from(p.visit_ns)),
            ]),
        ),
        ("spans", Json::Arr(spans)),
        ("folded", Json::Arr(folded)),
        ("queries", Json::Arr(queries)),
    ])
}

/// Print the top-`k` per-query cost attribution rows, hottest first.
fn print_attribution_table(
    catalog: &[(String, String)],
    v: &wave::Verification,
    profiler: &wave::core::SpanProfiler,
    k: usize,
) {
    if v.stats.queries.is_empty() {
        println!("profile: no query executions recorded");
        return;
    }
    let mut rows: Vec<_> = v.stats.queries.iter().collect();
    rows.sort_by(|a, b| b.exec_ns.cmp(&a.exec_ns).then(a.qid.cmp(&b.qid)));
    println!(
        "per-query cost attribution (top {} of {} by exec time):",
        k.min(rows.len()),
        rows.len()
    );
    println!(
        "  {:>4} {:>9} {:>8} {:>9} {:>9} {:>9}  {:<28} plan",
        "qid", "calls", "hit%", "rows", "exec_ms", "wall_ms", "label"
    );
    for q in rows.iter().take(k) {
        let (label, shape) = catalog
            .get(q.qid as usize)
            .cloned()
            .unwrap_or_else(|| ("?".to_string(), "?".to_string()));
        let hit = q.hit_rate().map(|r| format!("{:.1}", r * 100.0)).unwrap_or_else(|| "-".into());
        println!(
            "  {:>4} {:>9} {:>8} {:>9} {:>9.3} {:>9.3}  {:<28} {}",
            q.qid,
            q.calls,
            hit,
            q.rows,
            q.exec_ns as f64 / 1e6,
            profiler.total_ns_of("query", u64::from(q.qid)) as f64 / 1e6,
            label,
            shape,
        );
    }
}

/// Static analysis over a spec (and optionally properties): spanned
/// diagnostics in text, JSON, or SARIF form. Warnings exit 0 unless
/// `--deny warnings` promotes them; error-level findings exit 1.
fn cmd_lint(rest: &[String]) -> ExitCode {
    let mut args = rest.to_vec();
    // `--explain CODE` is a documentation lookup, not a lint run: it
    // needs no spec file and ignores every other flag.
    if let Some(code) = take_value(&mut args, "--explain") {
        let code = code.to_ascii_uppercase();
        match (wave_lint::code_severity(&code), wave_lint::code_explanation(&code)) {
            (Some(severity), Some(explanation)) => {
                let desc = wave_lint::code_description(&code).unwrap_or_default();
                println!("{code} ({severity}): {desc}");
                println!();
                println!("{explanation}");
                return ExitCode::SUCCESS;
            }
            _ => {
                eprintln!("--explain {code}: not a registered diagnostic code");
                return ExitCode::from(2);
            }
        }
    }
    let mut properties = Vec::new();
    while let Some(p) = take_value(&mut args, "--property") {
        // a value naming a readable file is loaded from disk; anything
        // else is inline LTL-FO text
        if std::path::Path::new(&p).is_file() {
            match std::fs::read_to_string(&p) {
                Ok(text) => {
                    properties.push(wave_lint::PropertySource { label: p, text });
                }
                Err(e) => {
                    eprintln!("cannot read property file {p}: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            let label = format!("property#{}", properties.len() + 1);
            properties.push(wave_lint::PropertySource { label, text: p });
        }
    }
    let format = take_value(&mut args, "--format").unwrap_or_else(|| "text".to_string());
    if !matches!(format.as_str(), "text" | "json" | "sarif") {
        eprintln!("--format must be text, json, or sarif, got {format:?}");
        return ExitCode::from(2);
    }
    let mut config = wave_lint::LintConfig::default();
    if let Some(what) = take_value(&mut args, "--deny") {
        if what != "warnings" {
            eprintln!("--deny only understands \"warnings\", got {what:?}");
            return ExitCode::from(2);
        }
        config.deny_warnings = true;
    }
    while let Some(code) = take_value(&mut args, "--allow") {
        match wave_lint::code_severity(&code) {
            Some(wave_lint::Severity::Note | wave_lint::Severity::Warning) => {
                config.allow.insert(code);
            }
            Some(wave_lint::Severity::Error) => {
                eprintln!("--allow {code}: hard errors cannot be allowed");
                return ExitCode::from(2);
            }
            None => {
                eprintln!("--allow {code}: not a registered diagnostic code");
                return ExitCode::from(2);
            }
        }
    }
    let [path] = args.as_slice() else {
        eprintln!("lint needs exactly one spec file, got {args:?}");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let req = wave_lint::LintRequest { spec_path: path.clone(), spec_src: src, properties };
    let diags = config.apply(wave_lint::lint(&req));
    match format.as_str() {
        "json" => print!("{}", wave_lint::render_json(&req, &diags)),
        "sarif" => print!("{}", wave_lint::render_sarif(&req, &diags)),
        _ => {
            print!("{}", wave_lint::render_text(&req, &diags));
            let summary = wave_lint::summary(&diags);
            if summary.is_empty() {
                eprintln!("{path}: no findings");
            } else {
                eprintln!("{path}: {summary}");
            }
        }
    }
    if wave_lint::has_errors(&diags) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// How many trailing events the `--trace-out` flight recorder keeps for
/// the stderr dump on budget exhaustion or panic.
const FLIGHT_RECORDER_CAPACITY: usize = 256;

/// Run one check with a JSONL tracer streaming to `out` and a flight
/// recorder watching the tail. The recorder is dumped to stderr when the
/// search dies (panic) or gives up (budget exhausted) — the last events
/// before the end are exactly what a bug report needs.
fn run_traced(
    verifier: &Verifier,
    property: &wave::ltl::Property,
    out: &str,
) -> Result<wave::Verification, String> {
    let file = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut tracer = wave::core::Tee(
        wave::core::JsonlTracer::new(std::io::BufWriter::new(file)),
        wave::core::FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
    );
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        verifier.check_traced(property, &mut tracer)
    }));
    let wave::core::Tee(jsonl, recorder) = tracer;
    let v = match run {
        Ok(result) => result.map_err(|e| e.to_string())?,
        Err(panic) => {
            eprintln!("search panicked; flight recorder tail:\n{}", recorder.dump());
            std::panic::resume_unwind(panic);
        }
    };
    jsonl.finish().map_err(|e| format!("write {out}: {e}"))?;
    if let Verdict::Unknown(b) = &v.verdict {
        eprintln!("budget exhausted ({b:?}); flight recorder tail:\n{}", recorder.dump());
    }
    Ok(v)
}

/// `wave check --fleet`: bind a dispatcher, optionally spawn in-process
/// workers, and verify across whatever connects. The dispatcher's local
/// fallback guarantees completion even if no worker ever shows up.
fn run_fleet(
    addr: &str,
    workers: usize,
    verifier: &Verifier,
    spec_text: &str,
    property_text: &str,
    property: &wave::ltl::Property,
) -> Result<wave::Verification, String> {
    let dispatcher = wave_svc::FleetDispatcher::bind(addr, wave_svc::FleetOptions::default())
        .map_err(|e| format!("cannot bind fleet dispatcher on {addr}: {e}"))?;
    let bound = dispatcher.local_addr().map_err(|e| format!("bound address: {e}"))?;
    eprintln!("wave check: fleet dispatcher listening on {bound}");
    std::thread::scope(|scope| {
        for i in 0..workers {
            let config = wave_svc::WorkerConfig {
                name: format!("local-{i}"),
                ..wave_svc::WorkerConfig::new(bound.to_string())
            };
            scope.spawn(move || {
                if let Err(e) = wave_svc::run_worker(&config) {
                    eprintln!("fleet worker {}: {e}", config.name);
                }
            });
        }
        wave_svc::check_fleet(&dispatcher, verifier, spec_text, property_text, property)
            .map_err(|e| e.to_string())
    })
}

/// `wave worker`: one fleet worker process, run until the dispatcher
/// finishes the session (or the connection is lost).
fn cmd_worker(rest: &[String]) -> ExitCode {
    let mut args = rest.to_vec();
    let Some(connect) = take_value(&mut args, "--connect") else {
        eprintln!("worker needs --connect <host:port>");
        return ExitCode::from(2);
    };
    let mut config = wave_svc::WorkerConfig::new(connect);
    if let Some(name) = take_value(&mut args, "--name") {
        config.name = name;
    }
    for (flag, slot) in
        [("--max-units", &mut config.max_units), ("--chaos-abort-unit", &mut config.abort_unit)]
    {
        if let Some(n) = take_value(&mut args, flag) {
            match n.parse::<u64>() {
                Ok(n) if n >= 1 => *slot = Some(n),
                _ => {
                    eprintln!("{flag} needs a positive integer, got {n:?}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if !args.is_empty() {
        eprintln!("worker: unexpected arguments {args:?}");
        return ExitCode::from(2);
    }
    match wave_svc::run_worker(&config) {
        Ok(report) => {
            eprintln!("wave worker: done, {} units completed", report.units_completed);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("worker error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_validate(rest: &[String]) -> ExitCode {
    let [path] = rest else {
        eprintln!("validate needs exactly one spec file");
        return ExitCode::from(2);
    };
    let (spec, _) = match load_spec(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let compiled = match wave::spec::CompiledSpec::compile(spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let s = &compiled.spec;
    println!("specification {:?} is valid", s.name);
    println!(
        "  {} pages (home: {}), {} database / {} state / {} action relations, \
         {} inputs, {} constants",
        s.pages.len(),
        s.home,
        s.database.len(),
        s.states.len(),
        s.actions.len(),
        s.inputs.len(),
        s.all_constants().len(),
    );
    let (plans, interp) = compiled.plan_coverage();
    println!("  {plans} rules compiled to parameterized plans, {interp} interpreted");
    if compiled.is_input_bounded() {
        println!("  input-bounded: complete verification available");
    } else {
        println!("  NOT input-bounded — wave will run as a sound incomplete verifier:");
        for r in &compiled.ib_report {
            match r {
                wave::spec::IbReport::Rule { page, rel, violation } => {
                    println!("    - page {page}, rule for {rel}: {violation}")
                }
                wave::spec::IbReport::OptionRule { page, input, violation } => {
                    println!("    - page {page}, options for {input}: {violation}")
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_fmt(rest: &[String]) -> ExitCode {
    let [path] = rest else {
        eprintln!("fmt needs exactly one spec file");
        return ExitCode::from(2);
    };
    match load_spec(path) {
        Ok((spec, _)) => {
            print!("{}", wave::spec::print_spec(&spec));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Shared `--jobs/--cache-*` parsing for batch and serve.
fn service_config(args: &mut Vec<String>) -> Result<wave_svc::ServiceConfig, String> {
    let mut config = wave_svc::ServiceConfig::default();
    if let Some(n) = take_value(args, "--jobs") {
        config.jobs = n
            .parse()
            .ok()
            .filter(|&n: &usize| n >= 1)
            .ok_or_else(|| format!("--jobs needs a positive integer, got {n:?}"))?;
    }
    config.cache_dir = take_value(args, "--cache-dir").map(Into::into);
    if take_flag(args, "--no-cache") {
        config.use_cache = false;
    }
    if let Some(n) = take_value(args, "--cache-mem-entries") {
        config.cache_mem_entries = n.parse().map_err(|_| {
            format!("--cache-mem-entries needs an integer (0 = unbounded), got {n:?}")
        })?;
    }
    if let Some(days) = take_value(args, "--cache-gc-days") {
        let days: f64 =
            days.parse().ok().filter(|d: &f64| d.is_finite() && *d >= 0.0).ok_or_else(|| {
                format!("--cache-gc-days needs a non-negative number, got {days:?}")
            })?;
        config.cache_gc_age = Some(Duration::from_secs_f64(days * 86_400.0));
    }
    if let Some(mb) = take_value(args, "--cache-gc-mb") {
        let mb: u64 =
            mb.parse().map_err(|_| format!("--cache-gc-mb needs an integer, got {mb:?}"))?;
        config.cache_gc_bytes = Some(mb.saturating_mul(1 << 20));
    }
    Ok(config)
}

fn cmd_batch(rest: &[String]) -> ExitCode {
    let mut args = rest.to_vec();
    let config = match service_config(&mut args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let [path] = args.as_slice() else {
        eprintln!("batch needs exactly one jobs.jsonl file, got {args:?}");
        return ExitCode::from(2);
    };
    let input = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let svc = match wave_svc::VerifyService::new(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start service: {e}");
            return ExitCode::from(2);
        }
    };
    let records = wave_svc::run_batch(&svc, &input);
    print!("{}", wave_svc::render_records(&records));
    eprintln!("{}", wave_svc::summary(&records));
    if records.iter().any(|r| r.verdict == "error") {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_serve(rest: &[String]) -> ExitCode {
    let mut args = rest.to_vec();
    let service = match service_config(&mut args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut config = wave_svc::ServerConfig {
        jobs: service.jobs,
        use_cache: service.use_cache,
        cache_dir: service.cache_dir,
        cache_mem_entries: service.cache_mem_entries,
        cache_gc_age: service.cache_gc_age,
        cache_gc_bytes: service.cache_gc_bytes,
        ..wave_svc::ServerConfig::default()
    };
    let Some(addr) = take_value(&mut args, "--addr") else {
        eprintln!("serve needs --addr <host:port>");
        return ExitCode::from(2);
    };
    config.addr = addr;
    config.metrics_addr = take_value(&mut args, "--metrics-addr");
    if let Some(n) = take_value(&mut args, "--max-connections") {
        match n.parse::<usize>() {
            Ok(n) if n >= 1 => config.max_connections = n,
            _ => {
                eprintln!("--max-connections needs a positive integer, got {n:?}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(secs) = take_value(&mut args, "--read-timeout") {
        match secs.parse::<f64>() {
            Ok(s) if s > 0.0 => config.read_timeout = Duration::from_secs_f64(s),
            _ => {
                eprintln!("--read-timeout needs a positive number of seconds");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(secs) = take_value(&mut args, "--write-timeout") {
        match secs.parse::<f64>() {
            Ok(s) if s > 0.0 => config.write_timeout = Duration::from_secs_f64(s),
            _ => {
                eprintln!("--write-timeout needs a positive number of seconds");
                return ExitCode::from(2);
            }
        }
    }
    // undocumented fault-injection switch for the integration tests: a
    // {"cmd":"panic"} request panics its connection handler
    if take_flag(&mut args, "--chaos") {
        config.chaos = true;
    }
    if !args.is_empty() {
        eprintln!("serve: unexpected arguments {args:?}");
        return ExitCode::from(2);
    }
    let server = match wave_svc::Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::from(2);
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!("wave serve: listening on {addr}"),
        Err(e) => {
            eprintln!("cannot read bound address: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(addr) = server.metrics_addr() {
        eprintln!("wave serve: Prometheus metrics on http://{addr}/metrics");
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_prof(rest: &[String]) -> ExitCode {
    match rest.first().map(String::as_str) {
        Some("flame") => cmd_prof_flame(&rest[1..]),
        _ => {
            eprintln!("usage: wave prof flame <profile.json>");
            ExitCode::from(2)
        }
    }
}

/// Print the folded-stack lines of a `--profile-out` report, one per
/// line — the input format of inferno / flamegraph.pl.
fn cmd_prof_flame(rest: &[String]) -> ExitCode {
    let [path] = rest else {
        eprintln!("prof flame needs exactly one profile.json file, got {rest:?}");
        return ExitCode::from(2);
    };
    let input = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let profile = match wave_svc::parse_json(&input) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(folded) = profile.get("folded").and_then(wave_svc::Json::as_array) else {
        eprintln!("{path}: no \"folded\" array — not a wave profile");
        return ExitCode::from(2);
    };
    for line in folded {
        match line.as_str() {
            Some(s) => println!("{s}"),
            None => {
                eprintln!("{path}: non-string folded entry");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_trace(rest: &[String]) -> ExitCode {
    match rest.first().map(String::as_str) {
        Some("summarize") => cmd_trace_summarize(&rest[1..]),
        _ => {
            eprintln!("usage: wave trace summarize <trace.jsonl> [--top <k>]");
            ExitCode::from(2)
        }
    }
}

/// Summarize a `--trace-out` JSONL file: event counts, an expansion
/// depth histogram, and the top-k most expensive expansions.
fn cmd_trace_summarize(rest: &[String]) -> ExitCode {
    let mut args = rest.to_vec();
    let top_k = match take_value(&mut args, "--top") {
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--top needs a positive integer, got {n:?}");
                return ExitCode::from(2);
            }
        },
        None => 5,
    };
    let [path] = args.as_slice() else {
        eprintln!("trace summarize needs exactly one trace.jsonl file, got {args:?}");
        return ExitCode::from(2);
    };
    let input = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut counts: Vec<(String, u64)> = Vec::new(); // first-seen order
    let mut depths: Vec<u64> = Vec::new(); // depth -> expand count
    let mut expansions: Vec<(u64, u64, u64, u64)> = Vec::new(); // (dur_ns, line, depth, succs)
    let mut total = 0u64;
    // v2 roll-ups: memo traffic, hash-join builds, spill/compaction work
    let mut memo = [0u64; 3]; // hits, misses, evictions
    let mut join_builds = 0u64;
    let mut spill = [0u64; 2]; // pairs, segments
                               // spill events carry a compactions delta since v1; dedicated compact
                               // events repeat it since v2 — count each stream separately and
                               // prefer the dedicated one when present
    let mut spill_compactions = 0u64;
    let mut compact_events: Option<u64> = None;
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event = match wave_svc::parse_json(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{path}:{}: not a JSON event: {e}", lineno + 1);
                return ExitCode::from(2);
            }
        };
        // v1 is a strict subset of v2 (v2 added the memo, join_build,
        // and compact kinds), so any version up to ours decodes fine
        let version = event.get("v").and_then(wave_svc::Json::as_u64);
        if !version.is_some_and(|v| (1..=u64::from(wave::core::TRACE_SCHEMA_VERSION)).contains(&v))
        {
            eprintln!(
                "{path}:{}: trace schema version {version:?}, this wave understands 1..={}",
                lineno + 1,
                wave::core::TRACE_SCHEMA_VERSION
            );
            return ExitCode::from(2);
        }
        let Some(tag) = event.get("ev").and_then(wave_svc::Json::as_str) else {
            eprintln!("{path}:{}: event without \"ev\" tag", lineno + 1);
            return ExitCode::from(2);
        };
        total += 1;
        match counts.iter_mut().find(|(t, _)| t == tag) {
            Some((_, n)) => *n += 1,
            None => counts.push((tag.to_string(), 1)),
        }
        let field = |k: &str| event.get(k).and_then(wave_svc::Json::as_u64).unwrap_or(0);
        match tag {
            "expand" => {
                let depth = field("depth");
                let succs = field("succs");
                let dur = field("dur_ns");
                if depths.len() <= depth as usize {
                    depths.resize(depth as usize + 1, 0);
                }
                depths[depth as usize] += 1;
                expansions.push((dur, lineno as u64 + 1, depth, succs));
            }
            "memo" => {
                memo[0] += field("hits");
                memo[1] += field("misses");
                memo[2] += field("evictions");
            }
            "join_build" => join_builds += field("builds"),
            "spill" => {
                spill[0] += field("pairs");
                spill[1] += field("segments");
                spill_compactions += field("compactions");
            }
            "compact" => {
                *compact_events.get_or_insert(0) += field("compactions");
            }
            _ => {}
        }
    }

    println!("{total} events in {path}");
    println!("event counts:");
    for (tag, n) in &counts {
        println!("  {tag:<12} {n}");
    }
    if memo[0] + memo[1] > 0 {
        println!(
            "memo: {} hits / {} misses ({:.1}% hit rate), {} evictions",
            memo[0],
            memo[1],
            memo[0] as f64 / (memo[0] + memo[1]) as f64 * 100.0,
            memo[2],
        );
    }
    if join_builds > 0 {
        println!("joins: {join_builds} hash tables built");
    }
    if spill[0] > 0 {
        println!(
            "spill: {} pairs in {} segments, {} compactions",
            spill[0],
            spill[1],
            compact_events.unwrap_or(spill_compactions),
        );
    }
    if !depths.is_empty() {
        let widest = *depths.iter().max().unwrap();
        println!("expansion depth histogram:");
        for (depth, n) in depths.iter().enumerate() {
            let bar = "#".repeat((n * 40 / widest.max(1)) as usize);
            println!("  depth {depth:>4}: {n:>8} {bar}");
        }
    }
    if !expansions.is_empty() {
        expansions.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        println!("top {} expansions by duration:", top_k.min(expansions.len()));
        for (dur, line, depth, succs) in expansions.iter().take(top_k) {
            println!(
                "  line {line:>6}: {:>10.3} ms, depth {depth}, {succs} successors",
                *dur as f64 / 1e6
            );
        }
    }
    ExitCode::SUCCESS
}

/// Default output of `wave bench` — committed at the repo root, kept
/// fresh by the CI gate (`wave bench --check`).
const BENCH_FILE: &str = "BENCH_store.json";

/// Hot-tier budgets the store bench runs at: a generous budget the
/// suites fit inside (the fast path) and a zero budget that forces every
/// visited pair through the spill path.
const BENCH_BUDGETS_MB: [u64; 2] = [64, 0];

/// Row fields `wave bench --check` compares. Everything the search
/// determines — verdict, work counts, and tier traffic — is in here;
/// `elapsed_ms` is informational and excluded.
const BENCH_DETERMINISTIC_KEYS: [&str; 14] = [
    "suite",
    "prop",
    "mem_mb",
    "verdict",
    "configs",
    "cores",
    "assignments",
    "max_run_len",
    "max_trie",
    "max_resident",
    "max_spilled",
    "spill_pairs",
    "spill_segments",
    "spill_compactions",
];

/// The E1–E4 benchmark suites.
fn bench_suites() -> [wave::apps::AppSuite; 4] {
    [
        wave::apps::e1::suite(),
        wave::apps::e2::suite(),
        wave::apps::e3::suite(),
        wave::apps::e4::suite(),
    ]
}

/// Informational measurement columns shared by both bench files:
/// per-phase wall-time plus the memo/intern hit rates. Excluded from the
/// drift check (timing varies run to run; the hit-rate split varies
/// under the parallel scheduler).
fn bench_measured(v: &wave::Verification) -> Vec<(&'static str, wave_svc::Json)> {
    use wave_svc::Json;
    let p = &v.stats.profile;
    let ms = |ns: u64| Json::from(ns as f64 / 1e6);
    let opt = |r: Option<f64>| r.map(Json::from).unwrap_or(wave_svc::Json::Null);
    vec![
        ("expand_ms", ms(p.expand_ns)),
        ("eval_ms", ms(p.eval_ns)),
        ("intern_ms", ms(p.intern_ns)),
        ("visit_ms", ms(p.visit_ns)),
        ("intern_hit_rate", opt(p.intern_hit_rate())),
        ("memo_hit_rate", opt(p.memo_hit_rate())),
        ("join_builds", Json::from(p.join_builds)),
        ("slice_rules_removed", Json::from(p.slice_rules_removed)),
        ("slice_relations_removed", Json::from(p.slice_relations_removed)),
        ("flow_dead_rules", Json::from(p.flow_dead_rules)),
        ("elapsed_ms", Json::from(v.stats.elapsed.as_secs_f64() * 1e3)),
    ]
}

fn bench_verdict(v: &wave::Verification) -> &'static str {
    match &v.verdict {
        Verdict::Holds => "holds",
        Verdict::Violated(_) => "violated",
        Verdict::Unknown(_) => "unknown",
    }
}

/// Run every E1–E4 property on the tiered store at each bench budget,
/// one JSON row per (suite, budget, property).
fn bench_rows() -> Result<Vec<wave_svc::Json>, String> {
    use wave_svc::Json;
    let mut rows = Vec::new();
    for suite in &bench_suites() {
        for &mb in &BENCH_BUDGETS_MB {
            let options = VerifyOptions {
                state_store: wave::core::StateStoreKind::Tiered(wave::core::TierParams {
                    mem_bytes: mb << 20,
                    spill_dir: None,
                }),
                ..Default::default()
            };
            let verifier = Verifier::with_options(suite.spec.clone(), options)
                .map_err(|e| format!("{}: {e}", suite.name))?;
            for case in &suite.properties {
                let v = verifier
                    .check_str(&case.text)
                    .map_err(|e| format!("{} {}: {e}", suite.name, case.name))?;
                let mut pairs = vec![
                    ("suite", Json::from(suite.name)),
                    ("prop", Json::from(case.name)),
                    ("mem_mb", Json::from(mb)),
                    ("verdict", Json::from(bench_verdict(&v))),
                    ("configs", Json::from(v.stats.configs)),
                    ("cores", Json::from(v.stats.cores)),
                    ("assignments", Json::from(v.stats.assignments)),
                    ("max_run_len", Json::from(v.stats.max_run_len)),
                    ("max_trie", Json::from(v.stats.max_trie)),
                    ("max_resident", Json::from(v.stats.max_resident)),
                    ("max_spilled", Json::from(v.stats.max_spilled)),
                    ("spill_pairs", Json::from(v.stats.profile.spill_pairs)),
                    ("spill_segments", Json::from(v.stats.profile.spill_segments)),
                    ("spill_compactions", Json::from(v.stats.profile.spill_compactions)),
                ];
                pairs.extend(bench_measured(&v));
                rows.push(Json::obj(pairs));
            }
        }
    }
    Ok(rows)
}

/// Default output of the query-engine bench — committed at the repo
/// root next to [`BENCH_FILE`], same freshness gate.
const BENCH_QUERY_FILE: &str = "BENCH_query.json";

/// Deterministic columns of the query bench. Identical between
/// `joins=opt` and `joins=naive` rows of one property — the optimizer
/// and memo are semantics-neutral — so the drift gate doubles as an
/// equivalence check on the committed file.
const BENCH_QUERY_DETERMINISTIC_KEYS: [&str; 9] = [
    "suite",
    "prop",
    "joins",
    "verdict",
    "configs",
    "cores",
    "assignments",
    "max_run_len",
    "max_trie",
];

/// Run every E1–E4 property with the query engine on (`joins=opt`) and
/// off (`joins=naive`, the `--naive-joins` ablation), one row per
/// (suite, property, mode).
fn bench_query_rows() -> Result<Vec<wave_svc::Json>, String> {
    use wave_svc::Json;
    let mut rows = Vec::new();
    for suite in &bench_suites() {
        for naive in [false, true] {
            let options = VerifyOptions { naive_joins: naive, ..Default::default() };
            let verifier = Verifier::with_options(suite.spec.clone(), options)
                .map_err(|e| format!("{}: {e}", suite.name))?;
            for case in &suite.properties {
                let v = verifier
                    .check_str(&case.text)
                    .map_err(|e| format!("{} {}: {e}", suite.name, case.name))?;
                let mut pairs = vec![
                    ("suite", Json::from(suite.name)),
                    ("prop", Json::from(case.name)),
                    ("joins", Json::from(if naive { "naive" } else { "opt" })),
                    ("verdict", Json::from(bench_verdict(&v))),
                    ("configs", Json::from(v.stats.configs)),
                    ("cores", Json::from(v.stats.cores)),
                    ("assignments", Json::from(v.stats.assignments)),
                    ("max_run_len", Json::from(v.stats.max_run_len)),
                    ("max_trie", Json::from(v.stats.max_trie)),
                ];
                pairs.extend(bench_measured(&v));
                rows.push(Json::obj(pairs));
            }
        }
    }
    Ok(rows)
}

/// Default output of the slice bench — committed at the repo root next
/// to [`BENCH_FILE`], same freshness gate.
const BENCH_SLICE_FILE: &str = "BENCH_slice.json";

/// Deterministic columns of the slice bench. Identical between
/// `slice=on` and `slice=off` rows of one property — the slice is
/// runtime-inert (DESIGN.md §14) — so the drift gate doubles as an
/// equivalence check on the committed file. The slice counters are
/// measured columns: they differ between the modes by design.
const BENCH_SLICE_DETERMINISTIC_KEYS: [&str; 9] = [
    "suite",
    "prop",
    "slice",
    "verdict",
    "configs",
    "cores",
    "assignments",
    "max_run_len",
    "max_trie",
];

/// Dead delete rules stamped per page into the slice bench spec.
const SLICE_BENCH_DEAD_RULES: usize = 6;

/// The slice bench workload: a programmatically generated spec whose
/// live core is a two-page navigation loop growing `seen`/`log`, plus
/// statically dead freight for the slice to remove — a value-set-refuted
/// `ghost` writer, a `mirror` relation fed only by `ghost`, per-page
/// batches of refuted delete rules (so both pages take the monotone
/// fast path once sliced), and a `Limbo` page reachable only through a
/// refuted edge.
fn slice_bench_spec() -> String {
    let mut s = String::from(
        "spec slicebench {\n  state { seen(v); log(v); ghost(v); mirror(v); }\n  \
         inputs { pick(v); }\n  home A;\n",
    );
    let options = "    options pick(v) <- v = \"a\" | v = \"b\" | v = \"c\";\n";
    for (page, hop) in [("A", "B"), ("B", "A")] {
        s.push_str(&format!("  page {page} {{\n    inputs {{ pick }}\n"));
        s.push_str(options);
        s.push_str("    insert seen(v) <- pick(v);\n");
        s.push_str("    insert log(v) <- pick(v) & seen(v);\n");
        s.push_str("    insert ghost(v) <- pick(v) & v = \"z\";\n");
        s.push_str("    insert mirror(v) <- ghost(v) & pick(v);\n");
        for k in 0..SLICE_BENCH_DEAD_RULES {
            s.push_str(&format!(
                "    delete log(v) <- seen(v) & pick(v) & v = \"z\" \
                 & exists w{k}: (seen(w{k}) & log(w{k}));\n"
            ));
        }
        s.push_str("    delete seen(v) <- mirror(v) & pick(v);\n");
        s.push_str(&format!("    target {hop} <- pick(\"a\");\n"));
        s.push_str(&format!("    target {page} <- pick(\"b\");\n"));
        s.push_str("    target Limbo <- ghost(\"z\");\n");
        s.push_str("  }\n");
    }
    s.push_str(
        "  page Limbo {\n    inputs { pick }\n    options pick(v) <- v = \"a\";\n    \
         insert log(v) <- pick(v) & exists u: (seen(u) & log(u) & v = u);\n    \
         target A <- pick(\"a\");\n  }\n}\n",
    );
    s
}

/// The slice bench properties: full-exploration PASS properties (where
/// per-configuration savings accumulate) plus one violated property.
const SLICE_BENCH_PROPS: [(&str, &str); 3] =
    [("S1", "G !ghost(\"z\")"), ("S2", "G (log(\"a\") -> seen(\"a\"))"), ("S3", "G !log(\"c\")")];

/// Run the slice bench with slicing on (`slice=on`) and off
/// (`slice=off`, the `--no-slice` ablation), one row per (property,
/// mode).
fn bench_slice_rows() -> Result<Vec<wave_svc::Json>, String> {
    use wave_svc::Json;
    let source = slice_bench_spec();
    let spec = parse_spec(&source).map_err(|e| format!("slicebench: {e}"))?;
    let mut rows = Vec::new();
    for slice in [true, false] {
        let options = VerifyOptions { slice, ..Default::default() };
        let verifier = Verifier::with_options(spec.clone(), options)
            .map_err(|e| format!("slicebench: {e}"))?;
        for (name, text) in SLICE_BENCH_PROPS {
            let v = verifier.check_str(text).map_err(|e| format!("slicebench {name}: {e}"))?;
            let mut pairs = vec![
                ("suite", Json::from("S")),
                ("prop", Json::from(name)),
                ("slice", Json::from(if slice { "on" } else { "off" })),
                ("verdict", Json::from(bench_verdict(&v))),
                ("configs", Json::from(v.stats.configs)),
                ("cores", Json::from(v.stats.cores)),
                ("assignments", Json::from(v.stats.assignments)),
                ("max_run_len", Json::from(v.stats.max_run_len)),
                ("max_trie", Json::from(v.stats.max_trie)),
            ];
            pairs.extend(bench_measured(&v));
            rows.push(Json::obj(pairs));
        }
    }
    Ok(rows)
}

/// One row per line so `BENCH_store.json` diffs review cleanly.
fn render_bench(rows: &[wave_svc::Json]) -> String {
    let mut out = String::from("{\"schema\": 1, \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.to_string());
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Compare measured rows against a committed bench file on the given
/// deterministic keys; returns the number of drifted values.
fn bench_drift(out: &str, rows: &[wave_svc::Json], keys: &[&str]) -> Result<usize, String> {
    let committed = std::fs::read_to_string(out)
        .map_err(|e| format!("cannot read {out}: {e} (run `wave bench --record` first)"))?;
    let committed =
        wave_svc::parse_json(&committed).map_err(|e| format!("{out}: not valid JSON: {e}"))?;
    let Some(old_rows) = committed.get("rows").and_then(wave_svc::Json::as_array) else {
        return Err(format!("{out}: no \"rows\" array"));
    };
    let mut drift = 0usize;
    if old_rows.len() != rows.len() {
        eprintln!("{out}: {} committed rows, measured {}", old_rows.len(), rows.len());
        drift += 1;
    }
    for (old, new) in old_rows.iter().zip(rows) {
        for &key in keys {
            if old.get(key) != new.get(key) {
                let tag = |k: &str| new.get(k).map(wave_svc::Json::to_string).unwrap_or_default();
                let mode = if new.get("mem_mb").is_some() {
                    "mem_mb"
                } else if new.get("slice").is_some() {
                    "slice"
                } else {
                    "joins"
                };
                eprintln!(
                    "drift in {}/{} ({mode}={}): {key} was {}, measured {}",
                    new.get("suite").and_then(wave_svc::Json::as_str).unwrap_or("?"),
                    new.get("prop").and_then(wave_svc::Json::as_str).unwrap_or("?"),
                    tag(mode),
                    old.get(key).unwrap_or(&wave_svc::Json::Null),
                    new.get(key).unwrap_or(&wave_svc::Json::Null),
                );
                drift += 1;
            }
        }
    }
    Ok(drift)
}

/// Default run ledger — append-only JSONL at the repo root, one entry
/// per bench kind per `wave bench --record` run.
const LEDGER_FILE: &str = "LEDGER.jsonl";

/// Allowed suite wall-time regression (percent) before the ledger gate
/// fails `wave bench --check`. Generous by default: CI machines are
/// noisy, and the gate is a backstop against order-of-magnitude
/// regressions, not a microbenchmark.
const DEFAULT_MAX_REGRESS_PCT: f64 = 200.0;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fingerprint of the benchmark workload: suite sources and property
/// texts. Ledger entries with different fingerprints measured different
/// work, so trend/gate comparisons across them would be meaningless.
fn bench_fingerprint() -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for suite in &bench_suites() {
        h = fnv1a(h, suite.name.as_bytes());
        h = fnv1a(h, suite.source.as_bytes());
        for case in &suite.properties {
            h = fnv1a(h, case.name.as_bytes());
            h = fnv1a(h, case.text.as_bytes());
        }
    }
    h = fnv1a(h, slice_bench_spec().as_bytes());
    for (name, text) in SLICE_BENCH_PROPS {
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, text.as_bytes());
    }
    format!("{h:016x}")
}

/// Short git revision of the working tree, or `"unknown"` outside a
/// repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One ledger entry: the bench kind, provenance keys, knobs, and the
/// full measured row set.
fn ledger_entry(
    kind: &str,
    rev: &str,
    knobs: wave_svc::Json,
    rows: &[wave_svc::Json],
) -> wave_svc::Json {
    use wave_svc::Json;
    Json::obj([
        ("v", Json::from(1u64)),
        ("kind", Json::from(kind)),
        ("rev", Json::from(rev)),
        ("fingerprint", Json::from(bench_fingerprint())),
        ("knobs", knobs),
        ("rows", Json::Arr(rows.to_vec())),
    ])
}

/// Parse every line of a ledger file. A missing file is an empty ledger.
fn read_ledger(path: &str) -> Result<Vec<wave_svc::Json>, String> {
    let input = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let mut entries = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = wave_svc::parse_json(line)
            .map_err(|e| format!("{path}:{}: not a JSON entry: {e}", lineno + 1))?;
        entries.push(entry);
    }
    Ok(entries)
}

/// Append entries to the ledger (creating it when absent).
fn append_ledger(path: &str, entries: &[wave_svc::Json]) -> Result<(), String> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    for entry in entries {
        writeln!(file, "{entry}").map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(())
}

/// Stable identity of one bench row across ledger entries.
fn ledger_row_key(row: &wave_svc::Json) -> String {
    let suite = row.get("suite").and_then(wave_svc::Json::as_str).unwrap_or("?");
    let prop = row.get("prop").and_then(wave_svc::Json::as_str).unwrap_or("?");
    if let Some(mb) = row.get("mem_mb").and_then(wave_svc::Json::as_u64) {
        format!("{suite}/{prop} @{mb}MiB")
    } else if let Some(mode) = row.get("slice").and_then(wave_svc::Json::as_str) {
        format!("{suite}/{prop} slice={mode}")
    } else {
        format!(
            "{suite}/{prop} joins={}",
            row.get("joins").and_then(wave_svc::Json::as_str).unwrap_or("?")
        )
    }
}

fn row_elapsed_ms(row: &wave_svc::Json) -> f64 {
    row.get("elapsed_ms").and_then(wave_svc::Json::as_f64).unwrap_or(0.0)
}

/// Sum of `elapsed_ms` over an entry's rows (the gate's scalar).
fn entry_elapsed_ms(entry: &wave_svc::Json) -> f64 {
    entry
        .get("rows")
        .and_then(wave_svc::Json::as_array)
        .map(|rows| rows.iter().map(row_elapsed_ms).sum())
        .unwrap_or(0.0)
}

/// Unicode sparkline of a series, min–max normalized.
fn sparkline(series: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (lo, hi) = series
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    series
        .iter()
        .map(|&v| {
            if hi <= lo {
                BARS[3]
            } else {
                let t = (v - lo) / (hi - lo);
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// `wave bench --trend`: per-property elapsed-time history across the
/// ledger entries of each bench kind.
fn bench_trend(ledger: &str) -> ExitCode {
    let entries = match read_ledger(ledger) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if entries.is_empty() {
        eprintln!("{ledger}: empty ledger — run `wave bench --record` first");
        return ExitCode::from(1);
    }
    for kind in ["store", "query", "slice"] {
        let of_kind: Vec<&wave_svc::Json> = entries
            .iter()
            .filter(|e| e.get("kind").and_then(wave_svc::Json::as_str) == Some(kind))
            .collect();
        if of_kind.is_empty() {
            continue;
        }
        let revs: Vec<&str> = of_kind
            .iter()
            .map(|e| e.get("rev").and_then(wave_svc::Json::as_str).unwrap_or("?"))
            .collect();
        println!("ledger trend — {kind} ({} entries: {})", of_kind.len(), revs.join(" → "));
        // row identities from the newest entry; older entries may miss some
        let Some(latest_rows) =
            of_kind.last().and_then(|e| e.get("rows")).and_then(wave_svc::Json::as_array)
        else {
            continue;
        };
        for row in latest_rows {
            let key = ledger_row_key(row);
            let series: Vec<f64> = of_kind
                .iter()
                .filter_map(|e| {
                    e.get("rows")
                        .and_then(wave_svc::Json::as_array)?
                        .iter()
                        .find(|r| ledger_row_key(r) == key)
                        .map(row_elapsed_ms)
                })
                .collect();
            let (first, last) = match (series.first(), series.last()) {
                (Some(&f), Some(&l)) => (f, l),
                _ => continue,
            };
            let delta = if first > 0.0 {
                format!("{:+.1}%", (last - first) / first * 100.0)
            } else {
                "n/a".to_string()
            };
            println!(
                "  {key:<28} {first:>9.3} → {last:>9.3} ms  ({delta:>7})  {}",
                sparkline(&series)
            );
        }
        let totals: Vec<f64> = of_kind.iter().map(|e| entry_elapsed_ms(e)).collect();
        let first = totals.first().copied().unwrap_or(0.0);
        let last = totals.last().copied().unwrap_or(0.0);
        println!(
            "  {:<28} {first:>9.3} → {last:>9.3} ms  ({:>7})  {}",
            "suite total",
            if first > 0.0 {
                format!("{:+.1}%", (last - first) / first * 100.0)
            } else {
                "n/a".to_string()
            },
            sparkline(&totals)
        );
    }
    ExitCode::SUCCESS
}

/// `wave bench --backfill`: seed the ledger from the committed bench
/// files (no re-run; provenance is recorded as `pre-ledger`).
fn bench_backfill(ledger: &str, out: &str, query_out: &str, slice_out: &str) -> ExitCode {
    use wave_svc::Json;
    let mut entries = Vec::new();
    for (path, kind, knobs) in [
        (
            out,
            "store",
            Json::obj([(
                "budgets_mb",
                Json::Arr(BENCH_BUDGETS_MB.iter().map(|&mb| Json::from(mb)).collect()),
            )]),
        ),
        (
            query_out,
            "query",
            Json::obj([("modes", Json::Arr(vec![Json::from("opt"), Json::from("naive")]))]),
        ),
        (
            slice_out,
            "slice",
            Json::obj([("modes", Json::Arr(vec![Json::from("on"), Json::from("off")]))]),
        ),
    ] {
        let committed = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e} (run `wave bench --record` first)");
                return ExitCode::from(2);
            }
        };
        let committed = match wave_svc::parse_json(&committed) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{path}: not valid JSON: {e}");
                return ExitCode::from(2);
            }
        };
        let Some(rows) = committed.get("rows").and_then(wave_svc::Json::as_array) else {
            eprintln!("{path}: no \"rows\" array");
            return ExitCode::from(2);
        };
        entries.push(ledger_entry(kind, "pre-ledger", knobs, rows));
    }
    if let Err(e) = append_ledger(ledger, &entries) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    eprintln!("bench: backfilled {} entries into {ledger}", entries.len());
    ExitCode::SUCCESS
}

/// The ledger regression gate: compare a measured suite's total wall
/// time against the most recent ledger entry of the same kind (and, when
/// available, the same fingerprint).
fn ledger_gate(
    entries: &[wave_svc::Json],
    kind: &str,
    rows: &[wave_svc::Json],
    max_regress_pct: f64,
) -> Result<(), String> {
    let fingerprint = bench_fingerprint();
    let of_kind = |same_fp: bool| {
        entries.iter().rev().find(|e| {
            e.get("kind").and_then(wave_svc::Json::as_str) == Some(kind)
                && (!same_fp
                    || e.get("fingerprint").and_then(wave_svc::Json::as_str)
                        == Some(fingerprint.as_str()))
        })
    };
    let Some(prev) = of_kind(true).or_else(|| of_kind(false)) else {
        eprintln!("bench: no {kind} ledger entry — regression gate skipped");
        return Ok(());
    };
    let prev_ms = entry_elapsed_ms(prev);
    let cur_ms: f64 = rows.iter().map(row_elapsed_ms).sum();
    let rev = prev.get("rev").and_then(wave_svc::Json::as_str).unwrap_or("?");
    if prev_ms > 0.0 && cur_ms > prev_ms * (1.0 + max_regress_pct / 100.0) {
        return Err(format!(
            "ledger gate: {kind} suite took {cur_ms:.1} ms, more than {max_regress_pct}% over \
             the last recorded {prev_ms:.1} ms (rev {rev})"
        ));
    }
    eprintln!(
        "bench: ledger gate ok — {kind} suite {cur_ms:.1} ms vs {prev_ms:.1} ms recorded at {rev} \
         (threshold +{max_regress_pct}%)"
    );
    Ok(())
}

/// `wave bench --record | --check | --trend | --backfill`: measure the
/// tiered store and the query engine on the benchmark suites, gate
/// drift against the committed results, and keep the run ledger.
fn cmd_bench(rest: &[String]) -> ExitCode {
    let mut args = rest.to_vec();
    let record = take_flag(&mut args, "--record");
    let check = take_flag(&mut args, "--check");
    let trend = take_flag(&mut args, "--trend");
    let backfill = take_flag(&mut args, "--backfill");
    let out = take_value(&mut args, "--out").unwrap_or_else(|| BENCH_FILE.to_string());
    let query_out =
        take_value(&mut args, "--query-out").unwrap_or_else(|| BENCH_QUERY_FILE.to_string());
    let slice_out =
        take_value(&mut args, "--slice-out").unwrap_or_else(|| BENCH_SLICE_FILE.to_string());
    let ledger = take_value(&mut args, "--ledger").unwrap_or_else(|| LEDGER_FILE.to_string());
    let max_regress = match take_value(&mut args, "--max-regress") {
        Some(pct) => match pct.parse::<f64>() {
            Ok(p) if p.is_finite() && p >= 0.0 => p,
            _ => {
                eprintln!("--max-regress needs a non-negative percentage, got {pct:?}");
                return ExitCode::from(2);
            }
        },
        None => DEFAULT_MAX_REGRESS_PCT,
    };
    if !args.is_empty() {
        eprintln!("bench: unexpected arguments {args:?}");
        return ExitCode::from(2);
    }
    if [record, check, trend, backfill].iter().filter(|&&f| f).count() != 1 {
        eprintln!("bench needs exactly one of --record, --check, --trend, or --backfill");
        return ExitCode::from(2);
    }
    if trend {
        return bench_trend(&ledger);
    }
    if backfill {
        return bench_backfill(&ledger, &out, &query_out, &slice_out);
    }
    eprintln!(
        "bench: E1–E4 property suites on the tiered store at {:?} MiB hot-tier budgets",
        BENCH_BUDGETS_MB
    );
    let store_rows = match bench_rows() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench failed: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("bench: E1–E4 property suites with the query engine on (opt) and off (naive)");
    let query_rows = match bench_query_rows() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench failed: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("bench: slice workload with property slicing on and off (--no-slice)");
    let slice_rows = match bench_slice_rows() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench failed: {e}");
            return ExitCode::from(2);
        }
    };
    if record {
        for (path, rows) in
            [(&out, &store_rows), (&query_out, &query_rows), (&slice_out, &slice_rows)]
        {
            if let Err(e) = std::fs::write(path, render_bench(rows)) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("bench: wrote {} rows to {path}", rows.len());
        }
        let rev = git_rev();
        let entries = [
            ledger_entry(
                "store",
                &rev,
                wave_svc::Json::obj([(
                    "budgets_mb",
                    wave_svc::Json::Arr(
                        BENCH_BUDGETS_MB.iter().map(|&mb| wave_svc::Json::from(mb)).collect(),
                    ),
                )]),
                &store_rows,
            ),
            ledger_entry(
                "query",
                &rev,
                wave_svc::Json::obj([(
                    "modes",
                    wave_svc::Json::Arr(vec![
                        wave_svc::Json::from("opt"),
                        wave_svc::Json::from("naive"),
                    ]),
                )]),
                &query_rows,
            ),
            ledger_entry(
                "slice",
                &rev,
                wave_svc::Json::obj([(
                    "modes",
                    wave_svc::Json::Arr(vec![
                        wave_svc::Json::from("on"),
                        wave_svc::Json::from("off"),
                    ]),
                )]),
                &slice_rows,
            ),
        ];
        if let Err(e) = append_ledger(&ledger, &entries) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
        eprintln!("bench: appended {} entries to {ledger} (rev {rev})", entries.len());
        return ExitCode::SUCCESS;
    }
    let mut drift = 0usize;
    for (path, rows, keys) in [
        (&out, &store_rows, &BENCH_DETERMINISTIC_KEYS[..]),
        (&query_out, &query_rows, &BENCH_QUERY_DETERMINISTIC_KEYS[..]),
        (&slice_out, &slice_rows, &BENCH_SLICE_DETERMINISTIC_KEYS[..]),
    ] {
        match bench_drift(path, rows, keys) {
            Ok(0) => eprintln!("bench: {path} is fresh ({} rows match)", rows.len()),
            Ok(n) => drift += n,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    let ledger_entries = match read_ledger(&ledger) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut gate_failed = false;
    for (kind, rows) in [("store", &store_rows), ("query", &query_rows), ("slice", &slice_rows)] {
        if let Err(e) = ledger_gate(&ledger_entries, kind, rows, max_regress) {
            eprintln!("{e}");
            gate_failed = true;
        }
    }
    if drift > 0 {
        eprintln!("bench: {drift} drifted values — re-run `wave bench --record` and commit the bench files");
        ExitCode::from(1)
    } else if gate_failed {
        eprintln!("bench: wall-time regression beyond --max-regress {max_regress}% — investigate or re-record the ledger");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_automaton(rest: &[String]) -> ExitCode {
    let mut args = rest.to_vec();
    let Some(text) = take_value(&mut args, "--property") else {
        eprintln!("automaton needs --property \"<LTL-FO>\"");
        return ExitCode::from(2);
    };
    let property = match parse_property(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("property: {e}");
            return ExitCode::from(2);
        }
    };
    let extraction = wave::ltl::extract(&property.body.group_fo());
    println!("FO components:");
    for (i, f) in extraction.components.iter().enumerate() {
        println!("  P{i} := {f}");
    }
    let negated = wave::ltl::nnf(&extraction.aux, true);
    let buchi = wave::ltl::Buchi::from_nnf(&negated, extraction.components.len());
    println!("Buchi automaton for the NEGATED property (what the NDFS hunts):");
    print!("{buchi}");
    ExitCode::SUCCESS
}
