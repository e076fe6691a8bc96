//! Golden-file pin of the JSONL trace schema (version 2).
//!
//! DESIGN.md's compatibility rule: within a schema version, fields may
//! only be *appended* to an event; renaming, reordering, or removing a
//! field requires bumping `TRACE_SCHEMA_VERSION`. This test turns every
//! event shape a small E1 search emits into a skeleton — field names in
//! emission order, values replaced by type placeholders (`N` number,
//! `B` bool, `S` string) — and compares the sorted skeleton set against
//! `tests/golden/trace_schema.golden`. If this test fails you have
//! changed the wire format: either restore it, or bump the version and
//! regenerate the golden file deliberately.
//!
//! Version 2 appended the `memo`, `join_build`, and `compact` event
//! kinds; every v1 event shape is unchanged, so v1 traces remain a
//! strict subset of v2 (pinned by `v1_traces_still_summarize`). The
//! writer no longer emits `join_build` (the hash join it counted is
//! gone), so the golden file pins the subset of v2 written today.

use wave::apps::e1;
use wave::core::{JsonlTracer, Observer, TraceEvent, TRACE_SCHEMA_VERSION};
use wave::{parse_property, Verifier, VerifyOptions};
use wave_svc::{parse_json, Json};

/// Reduce one trace line to its schema skeleton.
fn skeleton(line: &str) -> String {
    let json = parse_json(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
    let Json::Obj(pairs) = json else { panic!("trace line is not an object: {line}") };
    assert_eq!(pairs.first().map(|(k, _)| k.as_str()), Some("v"), "v leads: {line}");
    assert_eq!(pairs.get(1).map(|(k, _)| k.as_str()), Some("ev"), "ev is second: {line}");
    assert_eq!(pairs.last().map(|(k, _)| k.as_str()), Some("t_ns"), "t_ns trails: {line}");
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            let value = match (k.as_str(), v) {
                // version and tag are part of the schema, keep them
                ("v", _) | ("ev", _) => v.to_string(),
                (_, Json::Bool(_)) => "B".to_string(),
                (_, Json::Str(_)) => "S".to_string(),
                (_, Json::Num(_)) => "N".to_string(),
                _ => panic!("unexpected value shape in {line}"),
            };
            format!("\"{k}\":{value}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn trace_of(verifier: &Verifier, property: &str) -> String {
    let prop = parse_property(property).unwrap();
    let mut tracer = JsonlTracer::new(Vec::new());
    verifier.prepare(&prop).unwrap().check(&mut tracer).expect("check runs");
    assert!(tracer.take_error().is_none());
    String::from_utf8(tracer.into_inner()).unwrap()
}

#[test]
fn trace_schema_matches_the_golden_file() {
    assert_eq!(TRACE_SCHEMA_VERSION, 2, "version bump: regenerate the golden file");
    let suite = e1::suite();
    let verifier = Verifier::new(suite.spec.clone()).unwrap();
    // three small runs that together emit every run-derived event type:
    // a holding property, a violated one (cycle), and a budget-exhausted
    // one
    let mut lines = String::new();
    lines.push_str(&trace_of(&verifier, &suite.properties[0].text)); // P1, holds
    let p17 = suite.properties.iter().find(|c| c.name == "P17").unwrap();
    lines.push_str(&trace_of(&verifier, &p17.text)); // violated: cycle event
    let tight = Verifier::with_options(
        suite.spec.clone(),
        VerifyOptions { max_steps: Some(10), ..VerifyOptions::default() },
    )
    .unwrap();
    lines.push_str(&trace_of(&tight, &suite.properties[0].text)); // budget event

    // the store-dependent kinds (spill, compact) only fire on forced
    // out-of-core runs, so pin their wire shape directly
    let mut synth = JsonlTracer::new(Vec::new());
    synth.event(TraceEvent::Spill { unit: 0, core: 0, pairs: 1, segments: 1, compactions: 0 });
    synth.event(TraceEvent::Compact { unit: 0, core: 0, compactions: 1, segments: 1 });
    synth.event(TraceEvent::Memo { unit: 0, core: 0, hits: 1, misses: 1, evictions: 0 });
    assert!(synth.take_error().is_none());
    lines.push_str(&String::from_utf8(synth.into_inner()).unwrap());

    let mut skeletons: Vec<String> = Vec::new();
    for line in lines.lines().filter(|l| !l.trim().is_empty()) {
        let s = skeleton(line);
        if !skeletons.contains(&s) {
            skeletons.push(s);
        }
    }
    skeletons.sort();
    let got = skeletons.join("\n") + "\n";
    let golden = include_str!("golden/trace_schema.golden");
    assert_eq!(
        got, golden,
        "trace schema drifted — fields may only be appended within a \
         version; otherwise bump TRACE_SCHEMA_VERSION and regenerate \
         tests/golden/trace_schema.golden"
    );
}

/// Run `wave trace summarize` on a trace file holding `text`; returns
/// whether it succeeded, and its stdout.
fn summarize(name: &str, text: &str) -> (bool, String) {
    let dir = std::env::temp_dir().join(format!("wave_{name}_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.jsonl"));
    std::fs::write(&path, text).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_wave"))
        .args(["trace", "summarize"])
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// A v2 reader must keep decoding v1 traces: the version bump appended
/// event kinds, it did not change any existing shape. These lines are
/// verbatim from a pre-v2 `--trace-out` run.
#[test]
fn v1_traces_still_summarize() {
    let v1 = "\
{\"v\":1,\"ev\":\"core\",\"unit\":0,\"core\":0,\"t_ns\":100}\n\
{\"v\":1,\"ev\":\"expand\",\"depth\":0,\"succs\":3,\"dur_ns\":1500,\"t_ns\":200}\n\
{\"v\":1,\"ev\":\"intern\",\"hit\":true,\"t_ns\":300}\n\
{\"v\":1,\"ev\":\"phase\",\"candy\":false,\"depth\":1,\"t_ns\":400}\n\
{\"v\":1,\"ev\":\"spill\",\"unit\":0,\"core\":0,\"pairs\":12,\"segments\":1,\"compactions\":0,\"t_ns\":500}\n";
    let (ok, stdout) = summarize("v1", v1);
    assert!(ok, "summarize rejected a v1 trace: {stdout}");
    assert!(stdout.contains("5 events"), "{stdout}");
    assert!(stdout.contains("spill: 12 pairs in 1 segments, 0 compactions"), "{stdout}");
}

/// Traces written before the hash join was deleted carry `join_build`
/// events; the reader counts the tag like any other and rolls nothing
/// up from it.
#[test]
fn retired_join_build_events_still_summarize() {
    let v2 = "\
{\"v\":2,\"ev\":\"core\",\"unit\":0,\"core\":0,\"t_ns\":100}\n\
{\"v\":2,\"ev\":\"memo\",\"unit\":0,\"core\":0,\"hits\":3,\"misses\":1,\"evictions\":0,\"t_ns\":200}\n\
{\"v\":2,\"ev\":\"join_build\",\"unit\":0,\"core\":0,\"builds\":2,\"t_ns\":300}\n";
    let (ok, stdout) = summarize("join_build", v2);
    assert!(ok, "summarize rejected a join_build trace: {stdout}");
    assert!(stdout.contains("3 events"), "{stdout}");
    assert!(stdout.contains("join_build"), "the tag is still counted: {stdout}");
    assert!(stdout.contains("memo: 3 hits / 1 misses"), "{stdout}");
    assert!(!stdout.contains("joins:"), "{stdout}");
}
