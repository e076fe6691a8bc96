//! End-to-end CLI test: drives the `wave` binary as a user would —
//! validating specs, checking properties, reading exit codes and output.

use std::path::PathBuf;
use std::process::Command;

fn wave_bin() -> PathBuf {
    // integration tests live next to the binary under target/<profile>/
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push(format!("wave{}", std::env::consts::EXE_SUFFIX));
    p
}

fn spec_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../apps/specs").join(name)
}

#[test]
fn validate_reports_inventory_and_input_boundedness() {
    let out = Command::new(wave_bin())
        .args(["validate", spec_path("e2_motogp.wave").to_str().unwrap()])
        .output()
        .expect("wave runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("15 pages"), "{text}");
    assert!(text.contains("input-bounded: complete verification available"), "{text}");
}

#[test]
fn check_holds_exits_zero() {
    let out = Command::new(wave_bin())
        .args(["check", spec_path("e2_motogp.wave").to_str().unwrap(), "--property", "F @HP"])
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("HOLDS"));
}

#[test]
fn check_violated_exits_one_with_counterexample() {
    let out = Command::new(wave_bin())
        .args(["check", spec_path("e2_motogp.wave").to_str().unwrap(), "--property", "F @GDP"])
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("VIOLATED"), "{text}");
    assert!(text.contains("cycle repeats"), "{text}");
}

#[test]
fn budget_exhaustion_exits_three() {
    let out = Command::new(wave_bin())
        .args([
            "check",
            spec_path("e1_shop.wave").to_str().unwrap(),
            "--property",
            "G (@HP -> X (@HP | @CP | @EP | @RP | @HLP | @ABP))",
            "--max-steps",
            "10",
        ])
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}

/// Strip the timing-dependent parts of a `--json` record (wall-clock
/// and the per-phase profile); everything else must be byte-stable.
fn normalized_json(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    let wave_svc::Json::Obj(mut pairs) = wave_svc::parse_json(text.trim()).expect("json record")
    else {
        panic!("record is an object: {text}")
    };
    for (key, value) in pairs.iter_mut() {
        if key == "stats" {
            if let wave_svc::Json::Obj(stats) = value {
                stats.retain(|(k, _)| k != "elapsed_ms" && k != "profile");
            }
        }
    }
    wave_svc::Json::Obj(pairs).to_string()
}

#[test]
fn budgeted_json_is_identical_across_jobs() {
    // one exhausting budget (verdict + budget string) and one generous
    // budget on a violated property (counterexample shape): both must be
    // byte-identical between --jobs 1 and --jobs 8, and stable run-to-run
    let cases = [
        ("e1_shop.wave", "G (@HP -> X (@HP | @CP | @EP | @RP | @HLP | @ABP))", "200"),
        ("e2_motogp.wave", "F @GDP", "2000000"),
    ];
    for (spec, property, budget) in cases {
        let run = |jobs: &str| {
            let out = Command::new(wave_bin())
                .args([
                    "check",
                    spec_path(spec).to_str().unwrap(),
                    "--property",
                    property,
                    "--max-steps",
                    budget,
                    "--json",
                    "--jobs",
                    jobs,
                ])
                .output()
                .expect("wave runs");
            (normalized_json(&out.stdout), out.status.code())
        };
        let (seq, seq_code) = run("1");
        for jobs in ["2", "8"] {
            let (par, par_code) = run(jobs);
            assert_eq!(seq, par, "{spec} {property:?}: --jobs {jobs} diverged");
            assert_eq!(seq_code, par_code, "{spec} {property:?}: exit code diverged");
        }
        let (again, _) = run("8");
        assert_eq!(seq, again, "{spec} {property:?}: unstable across runs");
    }
}

#[test]
fn deadline_exhaustion_never_reports_time_zero() {
    let out = Command::new(wave_bin())
        .args([
            "check",
            spec_path("e1_shop.wave").to_str().unwrap(),
            "--property",
            "G (@HP -> X (@HP | @CP | @EP | @RP | @HLP | @ABP))",
            "--time-limit",
            "0.000001",
            "--json",
            "--jobs",
            "2",
        ])
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let record = wave_svc::parse_json(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let budget = record.get("budget").and_then(wave_svc::Json::as_str).expect("budget field");
    let secs: f64 = budget.strip_prefix("time:").expect("time budget").parse().unwrap();
    assert!(secs > 0.0, "deadline must report actual elapsed, got {budget:?}");
}

#[test]
fn bad_usage_exits_two() {
    let spec = spec_path("e1_shop.wave");
    let spec = spec.to_str().unwrap();
    for args in [
        vec!["check", "/nonexistent.wave", "--property", "F @HP"],
        vec!["check"],
        vec!["frobnicate"],
        vec!["check", spec, "--property", "F @HP", "--store", "byte"],
        // a regular file cannot hold the tiered store's spill directory
        vec!["check", spec, "--property", "F @HP", "--store", "tiered", "--spill-dir", spec],
    ] {
        let out = Command::new(wave_bin()).args(&args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn automaton_prints_components_and_states() {
    let out = Command::new(wave_bin())
        .args(["automaton", "--property", "p() U q()"])
        .output()
        .expect("wave runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("P0 := p()"), "{text}");
    assert!(text.contains("Buchi automaton"), "{text}");
}

#[test]
fn check_json_emits_record_and_keeps_exit_codes() {
    // holds → exit 0
    let out = Command::new(wave_bin())
        .args([
            "check",
            spec_path("e2_motogp.wave").to_str().unwrap(),
            "--property",
            "F @HP",
            "--json",
            "--jobs",
            "4",
        ])
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"verdict\":\"holds\""), "{text}");
    assert!(text.contains("\"complete\":true"), "{text}");

    // violated → exit 1, with the counterexample lasso shape
    let out = Command::new(wave_bin())
        .args([
            "check",
            spec_path("e2_motogp.wave").to_str().unwrap(),
            "--property",
            "F @GDP",
            "--json",
        ])
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"verdict\":\"violated\""), "{text}");
    assert!(text.contains("\"ce_steps\":"), "{text}");
}

#[test]
fn batch_runs_jobs_and_reuses_the_disk_cache() {
    let dir = std::env::temp_dir().join(format!("wave-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = dir.join("jobs.jsonl");
    std::fs::write(
        &jobs,
        format!(
            "{{\"suite\":\"E1\",\"property\":\"P1\"}}\n\
             {{\"spec_path\":{:?},\"property\":\"F @GDP\",\"name\":\"moto\"}}\n",
            spec_path("e2_motogp.wave").to_str().unwrap()
        ),
    )
    .unwrap();
    let cache = dir.join("cache");
    let run = || {
        Command::new(wave_bin())
            .args([
                "batch",
                jobs.to_str().unwrap(),
                "--jobs",
                "4",
                "--cache-dir",
                cache.to_str().unwrap(),
            ])
            .output()
            .expect("wave runs")
    };

    let first = run();
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    let lines: Vec<String> =
        String::from_utf8_lossy(&first.stdout).lines().map(String::from).collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].contains("\"verdict\":\"holds\""), "{}", lines[0]);
    assert!(lines[1].contains("\"name\":\"moto\""), "{}", lines[1]);
    assert!(lines[1].contains("\"verdict\":\"violated\""), "{}", lines[1]);
    assert!(lines[0].contains("\"cached\":false"), "{}", lines[0]);

    assert!(lines[0].contains("\"profile_source\":\"fresh\""), "{}", lines[0]);

    // a second process sees the on-disk cache: same verdicts, no search,
    // but the profile persisted from the original run comes back
    let second = run();
    assert_eq!(second.status.code(), Some(0), "{second:?}");
    for line in String::from_utf8_lossy(&second.stdout).lines() {
        assert!(line.contains("\"cached\":true"), "{line}");
        assert!(line.contains("\"cores\":0"), "{line}");
        assert!(line.contains("\"profile_source\":\"cached\""), "{line}");
    }
    let verdict = |out: &std::process::Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| l.split("\"verdict\":").nth(1).unwrap().split(',').next().unwrap().to_string())
            .collect()
    };
    assert_eq!(verdict(&first), verdict(&second), "cached verdicts must not change");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_reports_errors_with_exit_two() {
    let dir = std::env::temp_dir().join(format!("wave-batch-err-{}.jsonl", std::process::id()));
    std::fs::write(&dir, "{\"suite\":\"E9\"}\n").unwrap();
    let out = Command::new(wave_bin())
        .args(["batch", dir.to_str().unwrap(), "--no-cache"])
        .output()
        .expect("wave runs");
    std::fs::remove_file(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"verdict\":\"error\""), "{out:?}");
}

#[test]
fn trace_out_round_trips_through_summarize() {
    let dir = std::env::temp_dir().join(format!("wave-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");

    let out = Command::new(wave_bin())
        .args([
            "check",
            spec_path("e2_motogp.wave").to_str().unwrap(),
            "--property",
            "F @HP",
            "--trace-out",
            trace.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(!text.is_empty(), "trace file is empty");
    for line in text.lines() {
        assert!(line.starts_with("{\"v\":2,\"ev\":\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }

    let out = Command::new(wave_bin())
        .args(["trace", "summarize", trace.to_str().unwrap(), "--top", "3"])
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(summary.contains("event counts:"), "{summary}");
    assert!(summary.contains("expand"), "{summary}");
    assert!(summary.contains("expansion depth histogram:"), "{summary}");
    assert!(summary.contains("top 3 expansions by duration:"), "{summary}");

    // tracing only instruments the sequential search
    let out = Command::new(wave_bin())
        .args([
            "check",
            spec_path("e2_motogp.wave").to_str().unwrap(),
            "--property",
            "F @HP",
            "--trace-out",
            trace.to_str().unwrap(),
            "--jobs",
            "2",
        ])
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fmt_output_reparses() {
    let out = Command::new(wave_bin())
        .args(["fmt", spec_path("e2_motogp.wave").to_str().unwrap()])
        .output()
        .expect("wave runs");
    assert!(out.status.success(), "{out:?}");
    // the printed spec must itself validate
    let dir = std::env::temp_dir().join(format!("wave-fmt-{}.wave", std::process::id()));
    std::fs::write(&dir, &out.stdout).unwrap();
    let out2 = Command::new(wave_bin())
        .args(["validate", dir.to_str().unwrap()])
        .output()
        .expect("wave runs");
    std::fs::remove_file(&dir).ok();
    assert!(out2.status.success(), "{out2:?}");
}
