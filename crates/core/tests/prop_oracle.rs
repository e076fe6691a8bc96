//! Cross-validation of the pseudorun search against the explicit-state
//! `wave-naive` oracle on random miniature specifications.
//!
//! The generated family is propositional navigation: pages whose targets
//! are guarded by input constants only, no database relations. On this
//! class every pseudorun is realizable as a genuine run over the spec
//! constants, so the pseudorun verdict and the bounded explicit-state
//! verdict must coincide exactly.
//!
//! Two invariants per case:
//!
//! * the in-memory visited set and the tiered one at a 0-byte budget
//!   (the hot tier's 64-slot floor, so a search past 48 visited pairs
//!   spills) produce the same verdict and, on violations, byte-identical
//!   counterexample lassos (where the marks live is semantics-neutral),
//! * the in-memory verdict agrees with the `wave-naive` oracle
//!   (`Holds` ↔ `HoldsBounded`, `Violated` ↔ `Violated`).

use proptest::prelude::*;
use wave_core::{StateStoreKind, TierParams, Verdict, Verifier, VerifyOptions};
use wave_naive::{NaiveOptions, NaiveVerdict, NaiveVerifier};
use wave_spec::parse_spec;

const PAGES: [&str; 3] = ["A", "B", "C"];

/// Per-destination target guard in the generated page.
#[derive(Clone, Copy, Debug)]
enum Guard {
    None,
    True,
    Go,
    Stop,
}

impl Guard {
    fn render(self) -> Option<&'static str> {
        match self {
            Guard::None => None,
            Guard::True => Some("true"),
            Guard::Go => Some("b(\"go\")"),
            Guard::Stop => Some("b(\"stop\")"),
        }
    }
}

fn guard_strategy() -> impl Strategy<Value = Guard> {
    prop_oneof![Just(Guard::None), Just(Guard::True), Just(Guard::Go), Just(Guard::Stop),]
}

/// Render a spec with `n` pages and the given target matrix
/// (`targets[src][dst]`). Every page keeps a self-loop fallback so no
/// page is a dead end.
fn render_spec(n: usize, targets: &[Vec<Guard>]) -> String {
    let mut src = String::from("spec gen {\n  inputs { b(x); }\n  home A;\n");
    for (i, page) in PAGES.iter().take(n).enumerate() {
        src.push_str(&format!("  page {page} {{\n"));
        src.push_str("    inputs { b }\n");
        src.push_str("    options b(x) <- x = \"go\" | x = \"stop\";\n");
        let mut any = false;
        for (j, guard) in targets[i].iter().take(n).enumerate() {
            if i == j {
                continue; // the self-loop is appended last, unconditionally
            }
            if let Some(g) = guard.render() {
                src.push_str(&format!("    target {} <- {g};\n", PAGES[j]));
                any = true;
            }
        }
        // fallback: stay on the page (guards may otherwise disable every
        // move and the generated family should have total runs)
        let self_guard = targets[i][i].render().unwrap_or("true");
        src.push_str(&format!("    target {page} <- {self_guard};\n"));
        let _ = any;
        src.push_str("  }\n");
    }
    src.push_str("}\n");
    src
}

/// A small pool of properties over the page propositions.
fn render_property(kind: usize, a: usize, b: usize, n: usize) -> String {
    let pa = PAGES[a % n];
    let pb = PAGES[b % n];
    match kind % 5 {
        0 => format!("F @{pa}"),
        1 => format!("G !@{pb}"),
        2 => format!("G (@{pa} -> X (@{pa} | @{pb}))"),
        3 => format!("G (@{pa} -> F @{pb})"),
        _ => format!("(!@{pb}) U @{pa}"),
    }
}

fn check(spec_src: &str, property: &str, store: StateStoreKind) -> wave_core::Verification {
    let spec = parse_spec(spec_src).expect("generated spec parses");
    let verifier =
        Verifier::with_options(spec, VerifyOptions { state_store: store, ..Default::default() })
            .expect("generated spec compiles");
    verifier.check_str(property).expect("check runs")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// The in-memory and the 0-byte tiered visited sets agree on verdict
    /// and lasso, and the verdict matches the explicit-state oracle.
    #[test]
    fn interned_search_matches_naive_oracle(
        n in 2usize..=3,
        targets in prop::collection::vec(
            prop::collection::vec(guard_strategy(), 3),
            3,
        ),
        kind in 0usize..5,
        a in 0usize..3,
        b in 0usize..3,
    ) {
        let spec_src = render_spec(n, &targets);
        let property = render_property(kind, a, b, n);

        let interned = check(&spec_src, &property, StateStoreKind::Interned);
        let spilled = check(
            &spec_src,
            &property,
            StateStoreKind::Tiered(TierParams { mem_bytes: 0, spill_dir: None }),
        );

        // where the marks live is semantics-neutral: identical verdicts
        // and, on violations, identical lollipop counterexamples
        prop_assert_eq!(
            format!("{:?}", interned.verdict),
            format!("{:?}", spilled.verdict),
            "the tiered store changed the verdict on {} / {}", spec_src, property
        );

        // oracle agreement (skip if either side ran out of budget; the
        // generated family is tiny, so neither should)
        let naive = NaiveVerifier::new(
            parse_spec(&spec_src).unwrap(),
            NaiveOptions { fresh_values: 1, ..Default::default() },
        )
        .expect("oracle compiles");
        let (oracle, _) = naive.check_str(&property).expect("oracle runs");
        match (&interned.verdict, &oracle) {
            (Verdict::Holds, NaiveVerdict::HoldsBounded)
            | (Verdict::Violated(_), NaiveVerdict::Violated) => {}
            (Verdict::Unknown(_), _)
            | (_, NaiveVerdict::Exhausted | NaiveVerdict::Explosion { .. }) => {
                // budget ran out — vacuously fine, but should not happen
            }
            (wave, oracle) => prop_assert!(
                false,
                "verdict mismatch on {spec_src} / {property}: wave={wave:?} oracle={oracle:?}"
            ),
        }
    }
}
