//! Span-profiler integration tests.
//!
//! Pins the three contracts the profiler ships with:
//!
//! 1. **Attribution accuracy** — on a memo-heavy search (E1/P5) the
//!    span totals agree with the independently-kept [`SearchProfile`]
//!    phase timers: the eval/intern/visit leaf spans are fed the same
//!    measured intervals, so they match exactly; the expand span is
//!    timed by its own enter/exit pair, so it must land within 5%. The
//!    per-query table covers the property's FO components too (query
//!    ids past the spec's rules and targets).
//! 2. **Folded-stack format** — `SpanProfiler::fold` and `wave prof
//!    flame` emit `stack;frames self_ns` lines that inferno /
//!    flamegraph.pl accept: one trailing integer, `;`-joined non-empty
//!    frames, no other whitespace.
//! 3. **Ledger trend** — `wave bench --trend` renders a per-row delta
//!    table with sparklines across three or more ledger entries.

use std::path::PathBuf;
use std::process::Command;
use wave::apps::e1;
use wave::core::{SpanProfiler, NO_INDEX};
use wave::{parse_property, Verifier};

fn spec_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../apps/specs").join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wave_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One folded line: `frame(;frame)* self_ns` — what inferno's folded
/// parser expects. Returns the parsed sample count.
fn assert_folded_line(line: &str) -> u64 {
    let (stack, count) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no count: {line:?}"));
    assert!(!stack.is_empty(), "empty stack: {line:?}");
    for frame in stack.split(';') {
        assert!(!frame.is_empty(), "empty frame in {line:?}");
        assert!(!frame.contains(char::is_whitespace), "whitespace in frame: {line:?}");
    }
    count.parse().unwrap_or_else(|e| panic!("bad count in {line:?}: {e}"))
}

#[test]
fn attribution_agrees_with_phase_timers_on_e1_p5() {
    let suite = e1::suite();
    let verifier = Verifier::new(suite.spec.clone()).unwrap();
    let case = suite.properties.iter().find(|c| c.name == "P5").unwrap();
    let property = parse_property(&case.text).unwrap();
    let mut profiler = SpanProfiler::new();
    let v = verifier.check_profiled(&property, &mut profiler).expect("profiled check runs");
    assert!(v.verdict.holds(), "{:?}", v.verdict);
    assert_eq!(profiler.open_depth(), 0, "span frames must balance");

    // the leaf phases feed profiler and SearchProfile the same measured
    // interval, so agreement is exact
    let p = &v.stats.profile;
    assert_eq!(profiler.self_ns_of("eval"), p.eval_ns);
    assert_eq!(profiler.self_ns_of("intern"), p.intern_ns);
    assert_eq!(profiler.self_ns_of("visit"), p.visit_ns);

    // expand is timed twice, independently: by the SearchProfile phase
    // timer and by the span's own enter/exit pair — within 5% (the
    // acceptance bound; measured skew is ~0.03%)
    let span_ns = profiler.total_ns_of("expand", NO_INDEX) as f64;
    let phase_ns = p.expand_ns as f64;
    assert!(phase_ns > 0.0, "P5 must spend time expanding");
    let ratio = span_ns / phase_ns;
    assert!((0.95..=1.05).contains(&ratio), "expand span/timer ratio drifted: {ratio}");

    // the FO components are evaluated through the engine under their
    // own query ids, past the spec's rules and targets
    let num_queries = verifier.spec().num_queries;
    let components: Vec<_> = v.stats.queries.iter().filter(|q| q.qid >= num_queries).collect();
    assert!(!components.is_empty(), "no component qid in {:?}", v.stats.queries);
    assert!(components.iter().all(|q| q.calls > 0 && q.calls == q.memo_hits + q.memo_misses));

    // the in-process fold is already inferno-shaped
    let folded = profiler.fold();
    assert!(!folded.is_empty(), "a profiled run must fold to at least one stack");
    let total: u64 = folded.iter().map(|l| assert_folded_line(l)).sum();
    assert!(total > 0, "folded self-times must be non-zero");
    assert!(
        folded.iter().any(|l| l.contains("query:")),
        "per-query frames must appear in the fold: {folded:?}"
    );
}

#[test]
fn profile_out_and_prof_flame_roundtrip() {
    let dir = temp_dir("prof_cli");
    let profile = dir.join("profile.json");
    let out = Command::new(env!("CARGO_BIN_EXE_wave"))
        .args([
            "check",
            spec_path("e2_motogp.wave").to_str().unwrap(),
            "--property",
            "F @HP",
            "--profile-out",
            profile.to_str().unwrap(),
        ])
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("HOLDS"));
    let report = std::fs::read_to_string(&profile).expect("profile written");
    assert!(report.contains("\"queries\""), "{report}");
    assert!(report.contains("\"label\":\"property/component 0\""), "{report}");

    let flame = Command::new(env!("CARGO_BIN_EXE_wave"))
        .args(["prof", "flame", profile.to_str().unwrap()])
        .output()
        .expect("wave runs");
    assert_eq!(flame.status.code(), Some(0), "{flame:?}");
    let stdout = String::from_utf8(flame.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "prof flame emitted nothing");
    for line in lines {
        assert_folded_line(line);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_trend_renders_deltas_across_three_entries() {
    let dir = temp_dir("prof_trend");
    let ledger = dir.join("LEDGER.jsonl");
    let mut text = String::new();
    for (rev, ms) in [("aaa111", 10.0), ("bbb222", 14.0), ("ccc333", 12.0)] {
        text.push_str(&format!(
            "{{\"v\":1,\"kind\":\"store\",\"rev\":\"{rev}\",\"fingerprint\":\"f\",\
             \"knobs\":{{\"budgets_mb\":[64]}},\"rows\":[{{\"suite\":\"E9\",\"prop\":\"P1\",\
             \"mem_mb\":64,\"elapsed_ms\":{ms}}}]}}\n"
        ));
    }
    std::fs::write(&ledger, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_wave"))
        .args(["bench", "--trend", "--ledger", ledger.to_str().unwrap()])
        .output()
        .expect("wave runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("ledger trend — store (3 entries: aaa111 → bbb222 → ccc333)"),
        "{stdout}"
    );
    assert!(stdout.contains("E9/P1 @64MiB"), "{stdout}");
    assert!(stdout.contains("+20.0%"), "first→last delta: {stdout}");
    assert!(stdout.contains("▁█▅"), "sparkline over the series: {stdout}");
    assert!(stdout.contains("suite total"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
