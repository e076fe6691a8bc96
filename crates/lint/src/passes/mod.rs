//! The lint pass pipeline.
//!
//! Each pass inspects a *validated* [`wave_spec::Spec`] (and, where
//! relevant, the parsed LTL-FO properties) and appends [`Diagnostic`]s.
//! [`run_all`] runs them in a fixed order and the caller sorts the
//! combined output by source position. Pass 6 reads the spec's flow
//! report and the page set pass 2 reached, so neither is computed twice.

use crate::diag::Diagnostic;
use wave_flow::FlowReport;
use wave_ltl::{Ltl, Property};
use wave_spec::Spec;

pub mod bounded;
pub mod conflict;
pub mod dead;
pub mod flow;
pub mod property;
pub mod reach;

/// A property that survived parsing, tagged with its index in the lint
/// request (diagnostics use the index as their [`crate::diag::Origin`]).
pub struct ParsedProperty<'a> {
    pub index: usize,
    pub property: &'a Property,
}

/// Run every semantic pass over a validated spec and its flow report.
pub fn run_all(
    spec: &Spec,
    report: &FlowReport,
    props: &[ParsedProperty],
    out: &mut Vec<Diagnostic>,
) {
    bounded::run(spec, out);
    let reached = reach::run(spec, out);
    dead::run(spec, props, out);
    conflict::run(spec, out);
    property::run(spec, props, out);
    flow::run(spec, report, &reached, props, out);
}

/// The maximal FO components of a property body (the paper's `frFO(φ)`).
pub fn fo_components(p: &Property) -> Vec<&wave_fol::Formula> {
    let mut out = Vec::new();
    collect_fo(&p.body, &mut out);
    out
}

fn collect_fo<'a>(l: &'a Ltl, out: &mut Vec<&'a wave_fol::Formula>) {
    match l {
        Ltl::Fo(f) => out.push(f),
        Ltl::Not(x) | Ltl::X(x) | Ltl::F(x) | Ltl::G(x) => collect_fo(x, out),
        Ltl::And(a, b)
        | Ltl::Or(a, b)
        | Ltl::Implies(a, b)
        | Ltl::U(a, b)
        | Ltl::R(a, b)
        | Ltl::B(a, b) => {
            collect_fo(a, out);
            collect_fo(b, out);
        }
    }
}
