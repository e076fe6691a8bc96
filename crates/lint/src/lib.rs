//! `wave-lint`: static analysis for wave specifications and properties.
//!
//! Runs a pipeline of analysis passes over a spec (and optionally the
//! LTL-FO properties to be verified against it) and produces a unified
//! stream of [`Diagnostic`]s with stable codes, severities, notes, and
//! source spans. Three renderers share the same resolved positions:
//! human-readable text with caret underlines ([`render::render_text`]),
//! machine-readable JSON ([`render::render_json`]), and SARIF 2.1.0 for
//! CI ingestion ([`sarif::render_sarif`]).
//!
//! Pass families (see [`passes`]):
//! 1. decidable-fragment checks (input-boundedness, option-rule fragment),
//! 2. page-graph reachability from the home page,
//! 3. dead-code analysis,
//! 4. insert/delete conflict detection,
//! 5. spec ↔ property cross-checks,
//! 6. fixpoint dataflow findings (guard-unsat rules, always-empty
//!    relations, flow-unreachable pages, monotone state — via
//!    [`wave_flow`]).
//!
//! [`FrontEnd`] is the one place a request's text becomes a checked spec:
//! the verifier gets the spec, properties and [`FlowReport`] the
//! diagnostics came from.

use std::collections::BTreeSet;
use std::fmt;

pub mod diag;
pub mod passes;
pub mod render;
pub mod sarif;
pub mod simplify;

pub use diag::{
    code_description, code_explanation, code_severity, Diagnostic, Origin, Severity, CODES,
    EXPLANATIONS,
};
pub use render::{render_json, render_text, summary, SourceSet};
pub use sarif::render_sarif;

use diag::{E0001, E0002};
use passes::ParsedProperty;
use wave_flow::FlowReport;
use wave_fol::{ParseError, Span};
use wave_ltl::Property;
use wave_spec::{CompileSpecError, Spec, SpecError};

/// One property source handed to the linter alongside the spec.
#[derive(Clone, Debug)]
pub struct PropertySource {
    /// Display name used in diagnostics (a file path, or e.g. `property#1`
    /// for inline text).
    pub label: String,
    pub text: String,
}

/// Everything the linter needs: the spec source plus any properties.
#[derive(Clone, Debug)]
pub struct LintRequest {
    /// Display name of the spec artifact (usually its file path).
    pub spec_path: String,
    pub spec_src: String,
    pub properties: Vec<PropertySource>,
}

impl LintRequest {
    /// A request with no properties.
    pub fn spec_only(path: impl Into<String>, src: impl Into<String>) -> LintRequest {
        LintRequest { spec_path: path.into(), spec_src: src.into(), properties: Vec::new() }
    }

    /// A request with the one property of a check, labelled `property`.
    pub fn with_property(path: String, src: String, text: String) -> LintRequest {
        let properties = vec![PropertySource { label: "property".to_string(), text }];
        LintRequest { spec_path: path, spec_src: src, properties }
    }
}

/// Why a request's spec text gave no spec to check.
#[derive(Debug)]
pub enum SpecFailure {
    Parse(ParseError),
    /// The errors of [`Spec::validate`], in its order.
    Invalid(Vec<SpecError>),
}

impl fmt::Display for SpecFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecFailure::Parse(e) => write!(f, "{e}"),
            // the wording the verifier's compile step uses for the same errors
            SpecFailure::Invalid(errs) => write!(f, "{}", CompileSpecError::Invalid(errs.clone())),
        }
    }
}

/// One request's front end: its spec and property texts parsed, the spec
/// validated and flow-analyzed, and every lint pass run, each once.
/// `wave check`, the verification service and [`lint`] all start here.
#[derive(Debug)]
pub struct FrontEnd {
    /// The request's properties, parsed, in request order.
    pub properties: Vec<Result<Property, ParseError>>,
    /// The validated spec with its flow report, or why there is none.
    pub spec: Result<(Spec, FlowReport), SpecFailure>,
    /// Every finding, sorted by artifact and source position; parse and
    /// validation failures are E0001/E0002 findings, and the semantic
    /// passes run only on a valid spec.
    pub diagnostics: Vec<Diagnostic>,
}

impl FrontEnd {
    /// Parse, validate, analyze and lint `req`.
    pub fn new(req: &LintRequest) -> FrontEnd {
        FrontEnd::build(req, wave_spec::parse_spec(&req.spec_src))
    }

    /// The front end of a request whose spec text `spec` is the parse of.
    pub fn parsed(req: &LintRequest, spec: Spec) -> FrontEnd {
        FrontEnd::build(req, Ok(spec))
    }

    fn build(req: &LintRequest, spec: Result<Spec, ParseError>) -> FrontEnd {
        let properties: Vec<_> =
            req.properties.iter().map(|p| wave_ltl::parse_property(&p.text)).collect();
        let mut diagnostics = Vec::new();
        let mut parsed = Vec::new();
        for (index, p) in properties.iter().enumerate() {
            match p {
                Ok(property) => parsed.push(ParsedProperty { index, property }),
                Err(e) => diagnostics.push(parse_error_diag(e).in_property(index)),
            }
        }
        let spec = match spec {
            Err(e) => {
                diagnostics.push(parse_error_diag(&e));
                Err(SpecFailure::Parse(e))
            }
            Ok(spec) => match spec.validate() {
                Err(errs) => {
                    for e in &errs {
                        let mut d = Diagnostic::new(E0002, e.to_string());
                        if let Some(span) = spec_error_span(&spec, e) {
                            d = d.with_span(span);
                        }
                        diagnostics.push(d);
                    }
                    Err(SpecFailure::Invalid(errs))
                }
                Ok(()) => {
                    let flow = wave_flow::analyze(&spec);
                    passes::run_all(&spec, &flow, &parsed, &mut diagnostics);
                    Ok((spec, flow))
                }
            },
        };
        sort_diagnostics(&mut diagnostics);
        FrontEnd { properties, spec, diagnostics }
    }
}

/// Lint a request end to end: the diagnostics of its [`FrontEnd`].
pub fn lint(req: &LintRequest) -> Vec<Diagnostic> {
    FrontEnd::new(req).diagnostics
}

fn parse_error_diag(e: &ParseError) -> Diagnostic {
    Diagnostic::new(E0001, e.message.clone()).with_span(Span::point(e.pos))
}

/// Best source anchor for a structural validation error.
fn spec_error_span(spec: &Spec, e: &SpecError) -> Option<Span> {
    let page_span = |name: &str| spec.page(name).map(|p| p.span);
    match e {
        SpecError::DuplicateRelation(n) => spec.decl_span(n),
        SpecError::DuplicatePage(n) => {
            spec.pages.iter().rev().find(|p| p.name == *n).map(|p| p.span)
        }
        SpecError::MissingHomePage(_) => Some(spec.home_span),
        SpecError::UnknownTarget { page, target } => spec
            .page(page)
            .and_then(|p| p.target_rules.iter().find(|r| r.target == *target))
            .map(|r| r.span)
            .or_else(|| page_span(page)),
        SpecError::OptionForNonInput { page, input }
        | SpecError::OptionForConstant { page, input } => spec
            .page(page)
            .and_then(|p| p.option_rules.iter().find(|r| r.input == *input))
            .map(|r| r.span)
            .or_else(|| page_span(page)),
        SpecError::OpenTargetCondition { page, target, .. } => spec
            .page(page)
            .and_then(|p| p.target_rules.iter().find(|r| r.target == *target))
            .map(|r| r.span)
            .or_else(|| page_span(page)),
        SpecError::UnknownRelation { page, .. }
        | SpecError::UnknownInput { page, .. }
        | SpecError::ArityMismatch { page, .. }
        | SpecError::UnboundHeadVar { page, .. }
        | SpecError::StrayFreeVar { page, .. }
        | SpecError::WrongRuleKind { page, .. }
        | SpecError::PrevOnNonInput { page, .. }
        | SpecError::UnknownPageRef { page, .. } => page_span(page),
    }
    .filter(|s| !s.is_dummy())
}

fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        let key = |d: &Diagnostic| {
            (d.origin, d.span.map_or(usize::MAX, |s| s.start), d.code, d.message.clone())
        };
        key(a).cmp(&key(b))
    });
}

/// Severity policy applied after linting: `--allow CODE` drops warnings by
/// code, `--deny warnings` promotes the survivors to errors.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    pub deny_warnings: bool,
    pub allow: BTreeSet<String>,
}

impl LintConfig {
    /// Apply the policy. Warning- and note-class codes can be allowed
    /// away; errors always survive. `--deny warnings` promotes only
    /// warnings — notes are informational and never fail a run.
    pub fn apply(&self, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags
            .into_iter()
            .filter(|d| {
                !(code_severity(d.code) != Some(Severity::Error) && self.allow.contains(d.code))
            })
            .map(|mut d| {
                if self.deny_warnings && d.severity == Severity::Warning {
                    d.severity = Severity::Error;
                }
                d
            })
            .collect()
    }
}

/// True when any diagnostic is error-severity (after policy application).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
        spec s {
          database { user(name, passwd); }
          state { logged(u); }
          action { greet(u); }
          inputs { button(x); constant uname; constant pass; }
          home HP;
          page HP {
            inputs { button, uname, pass }
            options button(x) <- x = "login";
            insert logged(u) <- uname(u) & (exists p: pass(p) & user(u, p))
                                & button("login");
            target CP <- button("login");
          }
          page CP {
            inputs { button }
            options button(x) <- x = "logout";
            action greet(u) <- logged(u) & button("logout");
            target HP <- button("logout");
          }
        }
    "#;

    #[test]
    fn clean_spec_yields_no_diagnostics() {
        let diags = lint(&LintRequest::spec_only("s.wave", GOOD));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn clean_spec_with_property_yields_no_warnings() {
        let mut req = LintRequest::spec_only("s.wave", GOOD);
        req.properties.push(PropertySource {
            label: "p1".into(),
            text: "forall u: G (greet(u) -> logged(u))".into(),
        });
        let diags = lint(&req);
        // `logged` is genuinely monotone, so the informational N0604
        // note fires — but nothing of warning severity or above
        assert!(diags.iter().all(|d| d.severity == Severity::Note), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "N0604"), "{diags:?}");
    }

    #[test]
    fn parse_error_is_e0001_with_position() {
        let diags = lint(&LintRequest::spec_only("s.wave", "spec s {\n  home\n}"));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E0001");
        assert!(diags[0].span.is_some());
    }

    #[test]
    fn invalid_spec_is_e0002_and_skips_semantic_passes() {
        // home page missing: E0002 only, no reachability cascade
        let src = GOOD.replace("home HP;", "home NOPE;");
        let diags = lint(&LintRequest::spec_only("s.wave", src));
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code == "E0002"), "{diags:?}");
    }

    #[test]
    fn property_parse_error_is_e0001_on_the_property() {
        let mut req = LintRequest::spec_only("s.wave", GOOD);
        req.properties.push(PropertySource { label: "p1".into(), text: "G (".into() });
        let diags = lint(&req);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E0001");
        assert_eq!(diags[0].origin, Origin::Property(0));
    }

    #[test]
    fn unreachable_page_and_never_firing_target_are_found() {
        let src = GOOD.replace(
            "page CP {",
            r#"page GHOST {
            inputs { button }
            options button(x) <- x = "go";
            target HP <- button("go") & "a" = "b";
          }
          page CP {"#,
        );
        let diags = lint(&LintRequest::spec_only("s.wave", src));
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"W0201"), "{diags:?}");
        assert!(codes.contains(&"W0202"), "{diags:?}");
    }

    #[test]
    fn dead_state_needs_property_context() {
        let src = GOOD.replace("state { logged(u); }", "state { logged(u); scratch(x); }").replace(
            "target CP <- button(\"login\");",
            "insert scratch(u) <- uname(u) & button(\"login\");\n            target CP <- button(\"login\");",
        );
        // without properties: silent (scratch could be a property observable)
        let diags = lint(&LintRequest::spec_only("s.wave", src.clone()));
        assert!(diags.is_empty(), "{diags:?}");
        // with a property that does not read it: W0301 (plus monotone
        // notes, which are not warnings)
        let mut req = LintRequest::spec_only("s.wave", src);
        req.properties.push(PropertySource {
            label: "p1".into(),
            text: "forall u: G (greet(u) -> logged(u))".into(),
        });
        let diags: Vec<_> =
            lint(&req).into_iter().filter(|d| d.severity > Severity::Note).collect();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "W0301");
        assert!(diags[0].span.is_some(), "anchored at the declaration");
    }

    #[test]
    fn always_empty_state_reported_without_properties() {
        let src = GOOD.replace(
            "action greet(u) <- logged(u) & button(\"logout\");",
            "action greet(u) <- phantom(u) & button(\"logout\");",
        );
        let src = src.replace("state { logged(u); }", "state { logged(u); phantom(x); }");
        let diags = lint(&LintRequest::spec_only("s.wave", src));
        assert!(diags.iter().any(|d| d.code == "W0302"), "{diags:?}");
    }

    #[test]
    fn insert_delete_conflict_detected_and_disjointness_respected() {
        // same page, same state, same guard: conflict
        let src = GOOD.replace(
            "target CP <- button(\"login\");",
            "delete logged(u) <- logged(u) & uname(u) & button(\"login\");\n            target CP <- button(\"login\");",
        );
        let diags = lint(&LintRequest::spec_only("s.wave", src));
        assert!(diags.iter().any(|d| d.code == "W0401"), "{diags:?}");

        // distinct button guards: provably disjoint, no warning
        let src2 = GOOD
            .replace(
                "options button(x) <- x = \"login\";",
                "options button(x) <- x = \"login\" | x = \"clear\";",
            )
            .replace(
                "target CP <- button(\"login\");",
                "delete logged(u) <- logged(u) & uname(u) & button(\"clear\");\n            target CP <- button(\"login\");",
            );
        let diags = lint(&LintRequest::spec_only("s.wave", src2));
        assert!(diags.iter().all(|d| d.code != "W0401"), "{diags:?}");
    }

    #[test]
    fn property_cross_checks_fire() {
        let mut req = LintRequest::spec_only("s.wave", GOOD);
        req.properties.push(PropertySource {
            label: "p1".into(),
            text: "G (ghost(u) -> F (user(u) & @NOPAGE))".into(),
        });
        let diags = lint(&req);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"E0501"), "{diags:?}"); // ghost undeclared
        assert!(codes.contains(&"E0502"), "{diags:?}"); // user/1 vs user/2
        assert!(codes.contains(&"E0503"), "{diags:?}"); // @NOPAGE
    }

    #[test]
    fn non_input_bounded_property_component_warns() {
        let mut req = LintRequest::spec_only("s.wave", GOOD);
        req.properties.push(PropertySource {
            label: "p1".into(),
            text: r#"G (forall u, p: user(u, p) -> logged(u))"#.into(),
        });
        let diags = lint(&req);
        assert!(diags.iter().any(|d| d.code == "W0504"), "{diags:?}");
    }

    #[test]
    fn non_input_bounded_rule_warns_with_span() {
        let src = GOOD.replace(
            "target CP <- button(\"login\");",
            "target CP <- forall u, p: user(u, p) -> logged(u);",
        );
        let diags = lint(&LintRequest::spec_only("s.wave", src.clone()));
        let d = diags.iter().find(|d| d.code == "W0101").expect("W0101 expected");
        let span = d.span.expect("span expected");
        assert!(
            src[span.start..span.end].starts_with("target CP"),
            "{:?}",
            &src[span.start..span.end]
        );
    }

    #[test]
    fn config_allows_and_denies() {
        let src = GOOD.replace(
            "target CP <- button(\"login\");",
            "target CP <- forall u, p: user(u, p) -> logged(u);",
        );
        let diags = lint(&LintRequest::spec_only("s.wave", src));
        assert!(!has_errors(&diags));

        let cfg = LintConfig { deny_warnings: true, ..LintConfig::default() };
        let denied = cfg.apply(diags.clone());
        assert!(has_errors(&denied));

        let cfg = LintConfig {
            allow: std::iter::once("W0101".to_string()).collect(),
            ..LintConfig::default()
        };
        let allowed = cfg.apply(diags);
        assert!(allowed.iter().all(|d| d.code != "W0101"));
    }

    #[test]
    fn diagnostics_are_sorted_by_position() {
        let src = GOOD
            .replace("state { logged(u); }", "state { logged(u); void1(x); void2(x); }")
            .replace(
                "target CP <- button(\"login\");",
                "insert void2(u) <- uname(u) & button(\"login\");\n            insert void1(u) <- uname(u) & button(\"login\");\n            target CP <- button(\"login\");",
            );
        let mut req = LintRequest::spec_only("s.wave", src);
        req.properties.push(PropertySource {
            label: "p".into(),
            text: "forall u: G (greet(u) -> logged(u))".into(),
        });
        let diags = lint(&req);
        let starts: Vec<usize> = diags.iter().filter_map(|d| d.span.map(|s| s.start)).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
        let warnings: Vec<_> = diags.iter().filter(|d| d.severity > Severity::Note).collect();
        assert_eq!(warnings.len(), 2, "{warnings:?}"); // void1 + void2, decl order
    }
}
