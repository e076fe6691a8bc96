//! Tier-equivalence suite (ISSUE 6): the out-of-core tiered state store
//! must be observationally identical to the interned in-memory store —
//! same verdicts, same deterministic search counters, byte-identical
//! counterexample renderings — at a generous memory budget (nothing
//! spills) and at a pathologically small one (the visited set lives
//! mostly in spill segments).
//!
//! The generous-budget tests sweep every property of all four benchmark
//! applications. The forced-spill tests run a per-suite subset chosen
//! so each suite demonstrably spills without dragging the heavyweight
//! properties (E1 P4 peaks at ~82k visited pairs; pushing all of them
//! through one-eviction-per-insert spill churn belongs in the release
//! bench, not a debug test).
//!
//! `WAVE_TEST_STORE=tiered` (the CI matrix leg) additionally flips the
//! *generous* sweeps to a small hot tier — `WAVE_TEST_STORE_MEM_KB`
//! sets the budget in KiB — so the whole equivalence surface runs under
//! spill pressure there too.

use wave::apps::AppSuite;
use wave::core::{
    check_checkpointed, CheckpointConfig, CheckpointOutcome, StateStoreKind, TierParams,
};
use wave::{parse_property, parse_spec, Verdict, Verifier, VerifyOptions};

/// A hot tier of ~128 slots: properties past ~100 distinct pairs spill.
const TINY_BUDGET_BYTES: u64 = 1152;

/// Per-suite forced-spill subsets: two of the largest visited sets that
/// stay debug-friendly, plus one violated property so counterexample
/// paths cross the spill machinery too.
const SPILL_SUBSET: [(&str, &[&str]); 4] = [
    ("E1", &["P9", "P10", "P3"]),
    ("E2", &["Q12", "Q6"]),
    ("E3", &["R8", "R13", "R5"]),
    ("E4", &["S13", "S2", "S7"]),
];

/// Heavyweights excluded from the *debug* full sweeps — E1 P5 alone is
/// ~6 s in release, which multiplies into minutes across two backends
/// without optimization. Release runs (`cargo test --release`) and the
/// CI bench gate still cover them.
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

/// The tiered parameters the generous-budget sweeps run with: 64 MiB by
/// default, or whatever the CI matrix injects through `WAVE_TEST_STORE`
/// / `WAVE_TEST_STORE_MEM_KB`.
fn tiered_params() -> TierParams {
    let mut params = TierParams::default();
    if std::env::var("WAVE_TEST_STORE").as_deref() == Ok("tiered") {
        if let Ok(kb) = std::env::var("WAVE_TEST_STORE_MEM_KB") {
            params.mem_bytes =
                kb.parse::<u64>().expect("WAVE_TEST_STORE_MEM_KB must be a KiB count") << 10;
        }
    }
    params
}

/// Everything a backend determines about one property: verdict shape,
/// the deterministic stats columns, and the rendered counterexample.
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

/// `(outcomes, any_spilled)` for the selected properties under `store`.
fn run(suite: &AppSuite, names: Option<&[&str]>, store: StateStoreKind) -> (Vec<Outcome>, bool) {
    let options = VerifyOptions { state_store: store, ..Default::default() };
    let verifier = Verifier::with_options(suite.spec.clone(), options).expect("suite compiles");
    let mut outcomes = Vec::new();
    let mut spilled = false;
    for case in &suite.properties {
        if names.is_some_and(|names| !names.contains(&case.name)) {
            continue;
        }
        let v = verifier.check_str(&case.text).expect("check runs");
        spilled |= v.stats.max_spilled > 0;
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
    (outcomes, spilled)
}

fn tiered_matches_interned_everywhere(name: &str) {
    let suite = suite(name);
    let excluded: Vec<&str> =
        SWEEP_EXCLUDE.iter().filter(|(s, _)| *s == name).map(|(_, prop)| *prop).collect();
    let names: Vec<&str> =
        suite.properties.iter().map(|c| c.name).filter(|n| !excluded.contains(n)).collect();
    let (interned, _) = run(&suite, Some(&names), StateStoreKind::Interned);
    let (tiered, _) = run(&suite, Some(&names), StateStoreKind::Tiered(tiered_params()));
    assert_eq!(interned.len(), names.len());
    assert_eq!(interned, tiered, "{name}: tiered diverged from interned");
}

#[test]
fn e1_tiered_matches_interned_on_every_property() {
    tiered_matches_interned_everywhere("E1");
}

#[test]
fn e2_tiered_matches_interned_on_every_property() {
    tiered_matches_interned_everywhere("E2");
}

#[test]
fn e3_tiered_matches_interned_on_every_property() {
    tiered_matches_interned_everywhere("E3");
}

#[test]
fn e4_tiered_matches_interned_on_every_property() {
    tiered_matches_interned_everywhere("E4");
}

/// The pathological budget: the subset must actually spill, and still
/// byte-match the interned outcomes.
#[test]
fn forced_spill_matches_interned_on_the_subsets() {
    for (name, props) in SPILL_SUBSET {
        let suite = suite(name);
        let (interned, _) = run(&suite, Some(props), StateStoreKind::Interned);
        let tiny = TierParams { mem_bytes: TINY_BUDGET_BYTES, spill_dir: None };
        let (tiered, spilled) = run(&suite, Some(props), StateStoreKind::Tiered(tiny));
        assert_eq!(interned.len(), props.len(), "{name}: unknown property in subset");
        assert!(spilled, "{name}: the tiny budget must force spilling");
        assert_eq!(interned, tiered, "{name}: forced-spill run diverged from interned");
    }
}

/// The benchmark's read half: E1/P4 at a 1 MiB hot tier spills three
/// segments, never compacts, and then probes the cold tier 9 514 times.
/// Eviction order decides every one of these counters, so any change
/// to the hot tier's positions or sweep shows here before the
/// benchmark's traced run reports counter drift. Release only: E1/P4
/// through the tiered store is seconds of debug-build search.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn e1_p4_read_half_counters_at_one_mib() {
    let suite = suite("E1");
    let case = suite.properties.iter().find(|c| c.name == "P4").expect("E1 has P4");
    let params = TierParams { mem_bytes: 1 << 20, spill_dir: None };
    let options =
        VerifyOptions { state_store: StateStoreKind::Tiered(params), ..Default::default() };
    let verifier = Verifier::with_options(suite.spec.clone(), options).expect("suite compiles");
    let stats = verifier.check_str(&case.text).expect("check runs").stats;
    let p = &stats.profile;
    assert_eq!(
        (stats.max_resident, stats.max_spilled),
        (49152, 49152),
        "E1/P4 @1 MiB (max_resident, max_spilled)"
    );
    assert_eq!(
        (p.spill_pairs, p.spill_segments, p.spill_compactions, p.cold_probes),
        (49152, 3, 0, 9514),
        "E1/P4 @1 MiB (spill_pairs, spill_segments, spill_compactions, cold_probes)"
    );
}

/// A multi-unit workload (Heuristic 1 off widens the unit fan-out, the
/// constant disjuncts widen the `C_∃` assignments) so checkpoints land
/// mid-search — the same shape the core checkpoint tests use.
fn multiunit_verifier(store: StateStoreKind) -> Verifier {
    let spec = parse_spec(
        r#"
        spec tagged {
          database { tag(x); }
          state { seen(x); }
          inputs { pick(x); button(x); }
          home A;
          page A {
            inputs { pick, button }
            options button(x) <- x = "go";
            options pick(x) <- tag(x);
            insert seen(x) <- pick(x) & button("go");
            target B <- (exists x: pick(x)) & button("go");
          }
          page B { target A <- true; }
        }
    "#,
    )
    .unwrap();
    let options = VerifyOptions { heuristic1: false, state_store: store, ..Default::default() };
    Verifier::with_options(spec, options).unwrap()
}

const MULTIUNIT_PROP: &str =
    r#"forall x: G (seen(x) -> (exists y: tag(y)) | x = "go" | x = "other")"#;

/// Kill-and-resume under the tiered backend at the public API level:
/// interrupt after the first checkpoint, resume to completion, and
/// compare verdict + deterministic stats against an uninterrupted
/// interned run.
#[test]
fn kill_and_resume_on_tiered_matches_the_uninterrupted_interned_run() {
    let dir = std::env::temp_dir().join(format!("wave-store-tiered-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let baseline = multiunit_verifier(StateStoreKind::Interned).check_str(MULTIUNIT_PROP).unwrap();
    assert!(baseline.stats.cores > 4, "workload must be multi-core: {:?}", baseline.stats);

    let tiny = TierParams { mem_bytes: 1, spill_dir: None };
    let verifier = multiunit_verifier(StateStoreKind::Tiered(tiny));
    let property = parse_property(MULTIUNIT_PROP).unwrap();
    let mut config = CheckpointConfig::new(&dir, 3);
    config.stop_after_checkpoints = Some(1);
    let CheckpointOutcome::Interrupted { checkpoints_written } =
        check_checkpointed(&verifier, &property, &config).unwrap()
    else {
        panic!("the stop hook must interrupt the run")
    };
    assert_eq!(checkpoints_written, 1);

    config.stop_after_checkpoints = None;
    let CheckpointOutcome::Finished(resumed) =
        check_checkpointed(&verifier, &property, &config).unwrap()
    else {
        panic!("the resumed run must finish")
    };
    assert_eq!(
        format!("{:?}", baseline.verdict),
        format!("{:?}", resumed.verdict),
        "resume changed the verdict"
    );
    assert_eq!(baseline.stats.configs, resumed.stats.configs);
    assert_eq!(baseline.stats.cores, resumed.stats.cores);
    assert_eq!(baseline.stats.assignments, resumed.stats.assignments);
    assert_eq!(baseline.stats.max_trie, resumed.stats.max_trie);
    assert!(!dir.join("wave.ckpt").exists(), "completion must clear the checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed bench file stays structurally sound: both budgets
/// present for every row pair, verdicts matching the suite
/// expectations, and budget-independent verdict columns. (The full
/// numeric freshness gate is `wave bench --check` in CI, which re-runs
/// the measurements in release mode.)
#[test]
fn committed_bench_file_is_structurally_consistent() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json"))
            .expect("BENCH_store.json is committed at the repo root");
    let json = wave_svc::parse_json(&text).expect("bench file parses");
    let rows = json.get("rows").and_then(wave_svc::Json::as_array).expect("rows array");
    assert!(!rows.is_empty());
    for name in ["E1", "E2", "E3", "E4"] {
        let suite = suite(name);
        for case in &suite.properties {
            let mut verdicts = Vec::new();
            for row in rows {
                let same = row.get("suite").and_then(wave_svc::Json::as_str) == Some(suite.name)
                    && row.get("prop").and_then(wave_svc::Json::as_str) == Some(case.name);
                if same {
                    verdicts.push(
                        row.get("verdict").and_then(wave_svc::Json::as_str).unwrap().to_string(),
                    );
                }
            }
            assert_eq!(verdicts.len(), 2, "{name}/{}: one row per budget", case.name);
            assert_eq!(verdicts[0], verdicts[1], "{name}/{}: budget changed verdict", case.name);
            let expected = if case.holds { "holds" } else { "violated" };
            assert_eq!(verdicts[0], expected, "{name}/{}: bench verdict", case.name);
        }
    }
}
