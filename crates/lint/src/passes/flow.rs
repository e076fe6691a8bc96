//! Pass 6: fixpoint dataflow findings (the wave-flow analyses).
//!
//! Reads the request's [`FlowReport`] — the one least-fixpoint abstract
//! interpretation [`crate::FrontEnd`] runs, which the verifier's slice is
//! built from too — and reports what the purely syntactic passes cannot
//! see:
//!
//! * a rule whose guard is *statically unsatisfiable* given relation
//!   emptiness and option value sets ([`crate::diag::W0601`]), with the
//!   provenance chain as notes;
//! * a relation that has writers, all of which are refuted, so it can
//!   never hold a tuple ([`crate::diag::W0602`]);
//! * a page all of whose incoming target edges are refuted, making it
//!   unreachable even though the syntactic page graph connects it
//!   ([`crate::diag::W0603`]);
//! * a state relation that only ever grows ([`crate::diag::N0604`], an
//!   informational note — the verifier exploits monotonicity
//!   automatically).
//!
//! Findings already covered by a syntactic pass are suppressed here:
//! trivially false bodies are W0304/W0202, syntactically unreachable
//! pages are W0201, and rules on such pages are implied dead by them.

use std::collections::HashSet;

use crate::diag::{Diagnostic, N0604, W0601, W0602, W0603};
use crate::simplify::{truth, Tri};
use wave_flow::{FlowReport, RuleKind, RuleRef};
use wave_spec::Spec;

use super::ParsedProperty;

/// `syntactic` is the page set pass 2 reached in the syntactic page
/// graph, so suppression of already-reported findings agrees with it.
pub fn run(
    spec: &Spec,
    report: &FlowReport,
    syntactic: &HashSet<&str>,
    props: &[ParsedProperty],
    out: &mut Vec<Diagnostic>,
) {
    for dead in &report.dead {
        let page = &spec.pages[dead.rule.page];
        // already reported: W0304/W0202 (trivially false body) and
        // W0201 ("its rules can never fire" on unreachable pages)
        if truth(rule_body(spec, &dead.rule)) == Tri::False
            || !syntactic.contains(page.name.as_str())
        {
            continue;
        }
        let (what, span) = describe(spec, &dead.rule);
        let mut d = Diagnostic::new(
            W0601,
            format!("{what} can never fire: its guard is statically unsatisfiable"),
        )
        .with_span(span);
        for note in &dead.notes {
            d = d.note(note.clone());
        }
        out.push(d);
    }

    for empty in &report.always_empty {
        let writers = if empty.writers == 1 { "its only writer is" } else { "all its writers are" };
        let mut d = Diagnostic::new(
            W0602,
            format!("relation {} can never hold a tuple: {writers} dead", empty.rel),
        )
        .note(empty.note.clone());
        if let Some(span) = spec.decl_span(&empty.rel) {
            d = d.with_span(span);
        }
        out.push(d);
    }

    for &pi in &report.unreachable_pages {
        let page = &spec.pages[pi];
        // syntactically unreachable pages are already W0201
        if !syntactic.contains(page.name.as_str()) {
            continue;
        }
        out.push(
            Diagnostic::new(
                W0603,
                format!(
                    "page {} is unreachable: every target edge leading to it \
                     is statically refuted",
                    page.name
                ),
            )
            .with_span(page.span)
            .note("the syntactic page graph connects it, but no connecting rule can ever fire"),
        );
    }

    // monotonicity is a hint about verification behavior, so like the
    // whole-problem dead-code findings it only fires when the linter
    // sees the full problem (spec + properties)
    if props.is_empty() {
        return;
    }
    for rel in &report.monotone {
        let mut d = Diagnostic::new(
            N0604,
            format!("state relation {rel} is monotone: inserted but never deleted"),
        )
        .note(
            "the verifier skips insert/delete conflict handling on pages \
             without live delete rules",
        );
        if let Some(span) = spec.decl_span(rel) {
            d = d.with_span(span);
        }
        out.push(d);
    }
}

fn rule_body<'s>(spec: &'s Spec, r: &RuleRef) -> &'s wave_fol::Formula {
    let page = &spec.pages[r.page];
    match r.kind {
        RuleKind::Option => &page.option_rules[r.index].body,
        RuleKind::State => &page.state_rules[r.index].body,
        RuleKind::Action => &page.action_rules[r.index].body,
        RuleKind::Target => &page.target_rules[r.index].condition,
    }
}

fn describe(spec: &Spec, r: &RuleRef) -> (String, wave_fol::Span) {
    let page = &spec.pages[r.page];
    match r.kind {
        RuleKind::Option => {
            let rule = &page.option_rules[r.index];
            (format!("option rule for input {} on page {}", rule.input, page.name), rule.span)
        }
        RuleKind::State => {
            let rule = &page.state_rules[r.index];
            let verb = if rule.insert { "insert" } else { "delete" };
            (format!("{verb} rule for state {} on page {}", rule.state, page.name), rule.span)
        }
        RuleKind::Action => {
            let rule = &page.action_rules[r.index];
            (format!("action rule for {} on page {}", rule.action, page.name), rule.span)
        }
        RuleKind::Target => {
            let rule = &page.target_rules[r.index];
            (format!("target rule to {} on page {}", rule.target, page.name), rule.span)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint, LintRequest, PropertySource};

    /// A spec whose defects only the dataflow fixpoint can see: every
    /// guard is syntactically satisfiable, the page graph connects
    /// everything, yet `ghost` can never hold a tuple, the rules that
    /// depend on it are dead, and `Ghost` is never displayed.
    const DIRTY: &str = r#"
        spec dirty {
          state { log(entry); ghost(x); }
          inputs { pick(choice); }
          home A;
          page A {
            inputs { pick }
            options pick(c) <- c = "go" | c = "stay";
            insert log(c) <- pick(c);
            insert ghost(c) <- pick(c) & c = "teleport";
            target B <- pick("go");
            target Ghost <- ghost("x");
          }
          page B {
            inputs { pick }
            options pick(c) <- c = "go";
            target A <- pick("go");
          }
          page Ghost {
            inputs { pick }
            options pick(c) <- c = "go";
            target A <- pick("go");
          }
        }
    "#;

    #[test]
    fn dataflow_findings_fire_with_provenance() {
        let req = LintRequest::spec_only("dirty.wave", DIRTY);
        let diags = lint(&req);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"W0601"), "{diags:?}"); // ghost insert + ghost target
        assert!(codes.contains(&"W0602"), "{diags:?}"); // ghost always empty
        assert!(codes.contains(&"W0603"), "{diags:?}"); // Ghost page
                                                        // none of the syntactic passes see any of this
        assert!(!codes.contains(&"W0304"), "{diags:?}");
        assert!(!codes.contains(&"W0202"), "{diags:?}");
        assert!(!codes.contains(&"W0201"), "{diags:?}");

        let dead_insert = diags
            .iter()
            .find(|d| d.code == "W0601" && d.message.contains("insert rule for state ghost"))
            .expect("dead ghost insert");
        assert!(!dead_insert.notes.is_empty(), "provenance notes expected: {dead_insert:?}");
        assert!(dead_insert.span.is_some());
    }

    #[test]
    fn monotone_note_needs_properties_and_stays_note_severity() {
        let req = LintRequest::spec_only("dirty.wave", DIRTY);
        let diags = lint(&req);
        assert!(diags.iter().all(|d| d.code != "N0604"), "{diags:?}");

        let mut req = req;
        req.properties
            .push(PropertySource { label: "p".into(), text: "G (log(\"go\") -> F @B)".into() });
        let diags = lint(&req);
        let note = diags.iter().find(|d| d.code == "N0604").expect("monotone note");
        assert_eq!(note.severity, crate::Severity::Note);
        assert!(note.message.contains("log"), "{note:?}");

        // --deny warnings never promotes notes
        let denied = crate::LintConfig { deny_warnings: true, ..Default::default() }.apply(diags);
        let note = denied.iter().find(|d| d.code == "N0604").expect("still present");
        assert_eq!(note.severity, crate::Severity::Note);
        // but --allow can drop them
        let cfg = crate::LintConfig {
            allow: std::iter::once("N0604".to_string()).collect(),
            ..Default::default()
        };
        assert!(cfg.apply(denied).iter().all(|d| d.code != "N0604"));
    }

    #[test]
    fn trivially_false_bodies_stay_w0304_not_w0601() {
        let src = DIRTY.replace(
            "insert ghost(c) <- pick(c) & c = \"teleport\";",
            "insert ghost(c) <- pick(c) & \"a\" = \"b\";",
        );
        let req = LintRequest::spec_only("dirty.wave", src);
        let diags = lint(&req);
        assert!(
            !diags
                .iter()
                .any(|d| d.code == "W0601" && d.message.contains("insert rule for state ghost")),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.code == "W0304"), "{diags:?}");
    }
}
