//! Query-engine equivalence suite (ISSUE 7): the cardinality-guided
//! optimizer, the hash-join lowering and the delta-driven result memo
//! must be observationally identical to the naive nested-loop engine —
//! same verdicts, same deterministic search counters, byte-identical
//! counterexample renderings — across every property of all four
//! benchmark applications.
//!
//! `WAVE_TEST_JOINS=naive` (the CI matrix leg) flips the *default* side
//! of each comparison to the ablation too, so the whole integration
//! test binary also runs green with the engine disabled.
//!
//! The property's FO components run through the same engine (compiled
//! plans, query ids past the spec's rules and targets), while
//! counterexample replay re-derives every step's assignment with the
//! interpreter — so replaying each suite's violations cross-checks the
//! compiled components on every counterexample step.

use wave::apps::AppSuite;
use wave::{parse_property, Verdict, Verifier, VerifyOptions};

/// Heavyweights excluded from the *debug* sweeps, mirroring
/// `store_tiered.rs` — release runs and the CI bench gate cover them.
#[cfg(debug_assertions)]
const SWEEP_EXCLUDE: [(&str, &str); 3] = [("E1", "P5"), ("E1", "P7"), ("E3", "R9")];
#[cfg(not(debug_assertions))]
const SWEEP_EXCLUDE: [(&str, &str); 0] = [];

fn suite(name: &str) -> AppSuite {
    match name {
        "E1" => wave::apps::e1::suite(),
        "E2" => wave::apps::e2::suite(),
        "E3" => wave::apps::e3::suite(),
        "E4" => wave::apps::e4::suite(),
        other => panic!("unknown suite {other}"),
    }
}

/// Everything the engine determines about one property: verdict shape,
/// the deterministic stats columns, and the rendered counterexample.
/// Memo/join counters are deliberately absent — they are the knob under
/// test, not part of the observable result.
#[derive(Debug, PartialEq)]
struct Outcome {
    name: String,
    verdict: String,
    configs: u64,
    cores: u64,
    assignments: u64,
    max_trie: usize,
    max_run_len: usize,
    counterexample: Option<String>,
}

/// `(outcomes, total memo hits, total hash builds)` for the selected
/// properties with the given engine setting.
fn run(suite: &AppSuite, names: &[&str], naive_joins: bool) -> (Vec<Outcome>, u64, u64) {
    let options = VerifyOptions { naive_joins, ..Default::default() };
    let verifier = Verifier::with_options(suite.spec.clone(), options).expect("suite compiles");
    let mut outcomes = Vec::new();
    let (mut hits, mut builds) = (0, 0);
    for case in &suite.properties {
        if !names.contains(&case.name) {
            continue;
        }
        let v = verifier.check_str(&case.text).expect("check runs");
        hits += v.stats.profile.memo_hits;
        builds += v.stats.profile.join_builds;
        outcomes.push(Outcome {
            name: case.name.to_string(),
            verdict: match &v.verdict {
                Verdict::Holds => "holds".into(),
                Verdict::Violated(_) => "violated".into(),
                Verdict::Unknown(b) => format!("unknown({b:?})"),
            },
            configs: v.stats.configs,
            cores: v.stats.cores,
            assignments: v.stats.assignments,
            max_trie: v.stats.max_trie,
            max_run_len: v.stats.max_run_len,
            counterexample: match &v.verdict {
                Verdict::Violated(ce) => Some(verifier.render_counterexample(ce)),
                _ => None,
            },
        });
    }
    (outcomes, hits, builds)
}

/// When the CI matrix sets `WAVE_TEST_JOINS=naive`, even the "default"
/// side of each comparison runs the ablation.
fn default_is_naive() -> bool {
    std::env::var("WAVE_TEST_JOINS").as_deref() == Ok("naive")
}

/// The committed `BENCH_query.json` rows.
fn committed_query_rows() -> Vec<wave_svc::Json> {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json"))
            .expect("BENCH_query.json is committed at the repo root");
    let json = wave_svc::parse_json(&text).expect("bench file parses");
    json.get("rows").and_then(wave_svc::Json::as_array).expect("rows array").to_vec()
}

/// Every outcome's verdict and search counters equal the committed
/// `joins=opt` row of its property — the columns `wave bench --check`
/// gates, pinned under `cargo test` too.
fn assert_matches_committed_rows(suite: &AppSuite, outcomes: &[Outcome]) {
    use wave_svc::Json;
    let rows = committed_query_rows();
    for o in outcomes {
        let row = rows
            .iter()
            .find(|r| {
                r.get("suite").and_then(Json::as_str) == Some(suite.name)
                    && r.get("prop").and_then(Json::as_str) == Some(o.name.as_str())
                    && r.get("joins").and_then(Json::as_str) == Some("opt")
            })
            .unwrap_or_else(|| panic!("{}/{}: no committed joins=opt row", suite.name, o.name));
        let measured = [
            ("verdict", Json::from(o.verdict.as_str())),
            ("configs", Json::from(o.configs)),
            ("cores", Json::from(o.cores)),
            ("assignments", Json::from(o.assignments)),
            ("max_run_len", Json::from(o.max_run_len)),
            ("max_trie", Json::from(o.max_trie)),
        ];
        for (key, value) in measured {
            assert_eq!(
                row.get(key),
                Some(&value),
                "{}/{}: {key} differs from BENCH_query.json",
                suite.name,
                o.name
            );
        }
    }
}

fn optimized_matches_naive_everywhere(name: &str) {
    let suite = suite(name);
    let excluded: Vec<&str> =
        SWEEP_EXCLUDE.iter().filter(|(s, _)| *s == name).map(|(_, prop)| *prop).collect();
    let names: Vec<&str> =
        suite.properties.iter().map(|c| c.name).filter(|n| !excluded.contains(n)).collect();
    let (engine, hits, _) = run(&suite, &names, default_is_naive());
    let (naive, naive_hits, naive_builds) = run(&suite, &names, true);
    assert_eq!(engine.len(), names.len());
    assert_eq!(engine, naive, "{name}: query engine diverged from nested-loop baseline");
    assert_matches_committed_rows(&suite, &engine);
    assert_eq!(naive_hits, 0, "{name}: the ablation must not memoize");
    assert_eq!(naive_builds, 0, "{name}: the ablation must not build hash tables");
    if !default_is_naive() {
        assert!(hits > 0, "{name}: the memo never hit across a whole suite");
    }
}

#[test]
fn e1_query_engine_matches_naive_on_every_property() {
    optimized_matches_naive_everywhere("E1");
}

#[test]
fn e2_query_engine_matches_naive_on_every_property() {
    optimized_matches_naive_everywhere("E2");
}

#[test]
fn e3_query_engine_matches_naive_on_every_property() {
    optimized_matches_naive_everywhere("E3");
}

#[test]
fn e4_query_engine_matches_naive_on_every_property() {
    optimized_matches_naive_everywhere("E4");
}

/// For every property of a suite: (a) every instantiated FO component of
/// every unit compiles to a plan — a compiler change that silently falls
/// back to the interpreter fails here — and (b) every violation's
/// counterexample replays, recomputing each step's assignment with the
/// interpreter.
fn components_compile_and_violations_replay(name: &str) {
    let suite = suite(name);
    let options = VerifyOptions { naive_joins: default_is_naive(), ..Default::default() };
    let verifier = Verifier::with_options(suite.spec.clone(), options).expect("suite compiles");
    let mut replayed = 0;
    for case in &suite.properties {
        let property = parse_property(&case.text).expect("suite property parses");
        let prepared = verifier.prepare(&property).expect("property prepares");
        for unit in 0..prepared.num_units() {
            let (plans, interpreted) = prepared.component_coverage(unit);
            assert!(plans > 0, "{name}/{}: unit {unit} has no components", case.name);
            assert_eq!(interpreted, 0, "{name}/{}: unit {unit} interprets", case.name);
        }
        if SWEEP_EXCLUDE.contains(&(name, case.name)) {
            continue;
        }
        let v = verifier.check(&property).expect("check runs");
        assert_eq!(v.verdict.holds(), case.holds, "{name}/{}: {:?}", case.name, v.verdict);
        if let Verdict::Violated(ce) = &v.verdict {
            verifier
                .validate_counterexample(&property, ce)
                .unwrap_or_else(|e| panic!("{name}/{}: replay failed: {e}", case.name));
            replayed += 1;
        }
    }
    assert!(replayed > 0, "{name}: no violation replayed");
}

#[test]
fn e1_components_compile_and_violations_replay() {
    components_compile_and_violations_replay("E1");
}

#[test]
fn e2_components_compile_and_violations_replay() {
    components_compile_and_violations_replay("E2");
}

#[test]
fn e3_components_compile_and_violations_replay() {
    components_compile_and_violations_replay("E3");
}

#[test]
fn e4_components_compile_and_violations_replay() {
    components_compile_and_violations_replay("E4");
}

/// The interpreter baseline ignores the ablation flag entirely: with
/// `--interpret` there are no plans to optimize or memoize, so both
/// settings are the same run.
#[test]
fn interpret_mode_is_unaffected_by_the_ablation_flag() {
    let suite = suite("E2");
    let names = ["Q1", "Q6"];
    for naive in [false, true] {
        let options = VerifyOptions { use_plans: false, naive_joins: naive, ..Default::default() };
        let verifier = Verifier::with_options(suite.spec.clone(), options).unwrap();
        for name in names {
            let case = suite.properties.iter().find(|c| c.name == name).unwrap();
            let v = verifier.check_str(&case.text).expect("check runs");
            assert_eq!(v.stats.profile.memo_hits, 0);
            assert_eq!(v.stats.profile.memo_misses, 0);
            assert_eq!(v.stats.profile.join_builds, 0);
        }
    }
}

/// The committed query bench stays structurally sound: an `opt` and a
/// `naive` row for every property, with identical deterministic columns
/// — the equivalence claim, as committed. (The numeric freshness gate is
/// `wave bench --check` in CI, which re-measures in release mode.)
#[test]
fn committed_query_bench_is_structurally_consistent() {
    let rows = committed_query_rows();
    assert!(!rows.is_empty());
    let get =
        |row: &wave_svc::Json, key: &str| row.get(key).cloned().unwrap_or(wave_svc::Json::Null);
    for name in ["E1", "E2", "E3", "E4"] {
        let suite = suite(name);
        for case in &suite.properties {
            let matching: Vec<&wave_svc::Json> = rows
                .iter()
                .filter(|row| {
                    row.get("suite").and_then(wave_svc::Json::as_str) == Some(suite.name)
                        && row.get("prop").and_then(wave_svc::Json::as_str) == Some(case.name)
                })
                .collect();
            let joins = |r: &wave_svc::Json| get(r, "joins").as_str().map(str::to_string);
            assert_eq!(matching.len(), 2, "{name}/{}: one row per mode", case.name);
            let (opt, naive) = (matching[0], matching[1]);
            assert_eq!(joins(opt).as_deref(), Some("opt"));
            assert_eq!(joins(naive).as_deref(), Some("naive"));
            for key in ["verdict", "configs", "cores", "assignments", "max_run_len", "max_trie"] {
                assert_eq!(
                    get(opt, key),
                    get(naive, key),
                    "{name}/{}: {key} differs between engine modes",
                    case.name
                );
            }
            let expected = if case.holds { "holds" } else { "violated" };
            assert_eq!(get(opt, "verdict").as_str(), Some(expected), "{name}/{}", case.name);
        }
    }
}
