//! Pins every field of the flow report on every spec in the repository
//! that parses and validates: the bundled E1–E4 specs and the lint
//! fixtures. The verifier's slice consumes per-rule liveness and the
//! always-empty set, and the W06xx lints print the dead-rule notes, so
//! any drift in the fixpoint or the classification shows up here as a
//! diff against `golden/report.txt`.
//!
//! On a mismatch the rendered report is written to the system temp
//! dir as `report_golden.actual` for inspection.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use wave_flow::{analyze, RuleKind, RuleRef};
use wave_spec::Spec;

fn spec_files() -> Vec<(String, PathBuf)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = Vec::new();
    for dir in ["crates/apps/specs", "tests/fixtures/lint"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("spec dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) == Some("wave") {
                let name = path.file_name().unwrap().to_str().unwrap();
                out.push((format!("{dir}/{name}"), path));
            }
        }
    }
    out.sort();
    out
}

fn bit(b: bool) -> u8 {
    u8::from(b)
}

/// Render every report field of `spec` in a fixed text form.
fn render(label: &str, spec: &Spec, out: &mut String) {
    let report = analyze(spec);
    let page = |pi: usize| spec.pages[pi].name.as_str();
    writeln!(out, "== {label}").unwrap();

    for (pi, p) in spec.pages.iter().enumerate() {
        let counts = [
            (RuleKind::Option, p.option_rules.len()),
            (RuleKind::State, p.state_rules.len()),
            (RuleKind::Action, p.action_rules.len()),
            (RuleKind::Target, p.target_rules.len()),
        ];
        for (kind, n) in counts {
            for index in 0..n {
                let r = RuleRef { page: pi, kind, index };
                writeln!(
                    out,
                    "rule {} {kind:?} {index}: live={} dead={}",
                    p.name,
                    bit(report.is_live(&r)),
                    bit(report.is_dead(&r))
                )
                .unwrap();
            }
        }
    }

    for d in &report.dead {
        writeln!(out, "dead {} {:?} {}", page(d.rule.page), d.rule.kind, d.rule.index).unwrap();
        for n in &d.notes {
            writeln!(out, "  note: {n}").unwrap();
        }
    }

    let reachable: Vec<&str> = report.reachable_pages.iter().map(|&pi| page(pi)).collect();
    writeln!(out, "reachable: {}", reachable.join(" ")).unwrap();
    let unreachable: Vec<&str> = report.unreachable_pages.iter().map(|&pi| page(pi)).collect();
    writeln!(out, "unreachable: {}", unreachable.join(" ")).unwrap();

    for e in &report.always_empty {
        writeln!(out, "always_empty {} writers={}: {}", e.rel, e.writers, e.note).unwrap();
    }
    let never: Vec<&str> = report.never_nonempty.iter().map(String::as_str).collect();
    writeln!(out, "never_nonempty: {}", never.join(" ")).unwrap();
    writeln!(out, "monotone: {}", report.monotone.join(" ")).unwrap();
    let deletes: Vec<String> = report
        .page_has_live_delete
        .iter()
        .enumerate()
        .map(|(pi, b)| format!("{}={}", page(pi), bit(*b)))
        .collect();
    writeln!(out, "page_has_live_delete: {}", deletes.join(" ")).unwrap();

    // every tracked column: state and action relations, non-constant inputs
    let mut tracked: Vec<(&str, usize)> =
        spec.states.iter().chain(&spec.actions).map(|(r, a)| (r.as_str(), *a)).collect();
    tracked.extend(spec.inputs.iter().filter(|i| !i.constant).map(|i| (i.name.as_str(), i.arity)));
    for (rel, arity) in tracked {
        for col in 0..arity {
            writeln!(out, "column {rel}.{col}: {}", report.facts.column(rel, col).describe())
                .unwrap();
        }
    }
}

#[test]
fn flow_reports_match_golden() {
    let mut actual = String::new();
    let mut analyzed = 0;
    for (label, path) in spec_files() {
        let src = std::fs::read_to_string(&path).expect("read spec");
        let Ok(spec) = wave_spec::parse_spec(&src) else { continue };
        if spec.validate().is_err() {
            continue;
        }
        render(&label, &spec, &mut actual);
        analyzed += 1;
    }
    assert_eq!(analyzed, 23, "the four bundled specs and 19 validating lint fixtures");

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report.txt");
    let golden = std::fs::read_to_string(&golden_path).expect("golden report");
    if actual != golden {
        let dump = std::env::temp_dir().join("report_golden.actual");
        std::fs::write(&dump, &actual).expect("write actual report");
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(golden.lines().count()));
        panic!(
            "flow report drifted from golden at line {} (actual written to {})",
            first + 1,
            dump.display()
        );
    }
}
