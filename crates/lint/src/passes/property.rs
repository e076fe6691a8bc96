//! Pass 5: spec ↔ property cross-checks.
//!
//! LTL-FO properties are parsed and verified against a specific spec, but
//! nothing in the property language itself ties the two together — a typo
//! in a relation name silently produces a property about an always-empty
//! relation. This pass checks every FO component of every property against
//! the spec's declarations: unknown relations ([`crate::diag::E0501`]),
//! arity mismatches ([`crate::diag::E0502`]), unknown `@page` references
//! ([`crate::diag::E0503`]), and components outside the input-bounded
//! fragment ([`crate::diag::W0504`] — the paper's completeness theorem
//! needs the *property* to be input-bounded too, not just the spec).

use std::collections::HashSet;

use crate::diag::{Diagnostic, E0501, E0502, E0503, W0504};
use wave_fol::Formula;
use wave_spec::{spec_kinds, Spec};

use super::{fo_components, ParsedProperty};

pub fn run(spec: &Spec, props: &[ParsedProperty], out: &mut Vec<Diagnostic>) {
    let kinds = spec_kinds(spec);
    for pp in props {
        // report each unknown name once per property, not once per occurrence
        let mut reported: HashSet<String> = HashSet::new();
        for comp in fo_components(pp.property) {
            comp.visit_atoms(&mut |a| match spec.arity_of(&a.rel) {
                None => {
                    if reported.insert(a.rel.clone()) {
                        out.push(
                            Diagnostic::new(
                                E0501,
                                format!("property references undeclared relation {}", a.rel),
                            )
                            .in_property(pp.index)
                            .note("the atom can never hold; the verdict would be vacuous"),
                        );
                    }
                }
                Some(arity) if arity != a.terms.len() => {
                    if reported.insert(format!("{}/{}", a.rel, a.terms.len())) {
                        out.push(
                            Diagnostic::new(
                                E0502,
                                format!(
                                    "property uses {} with arity {}, declared {}",
                                    a.rel,
                                    a.terms.len(),
                                    arity
                                ),
                            )
                            .in_property(pp.index),
                        );
                    }
                }
                Some(_) => {}
            });
            check_page_refs(spec, comp, pp.index, &mut reported, out);
            if let Err(v) = wave_fol::check_input_bounded(comp, &kinds) {
                out.push(
                    Diagnostic::new(
                        W0504,
                        format!("property component `{comp}` is not input-bounded: {v}"),
                    )
                    .in_property(pp.index)
                    .note(
                        "the paper's completeness theorem requires input-bounded \
                         properties; verification stays sound but may not terminate \
                         with a conclusive PASS",
                    ),
                );
            }
        }
    }
}

fn check_page_refs(
    spec: &Spec,
    f: &Formula,
    index: usize,
    reported: &mut HashSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    match f {
        Formula::Page(p) if spec.page(p).is_none() && reported.insert(format!("@{p}")) => {
            out.push(
                Diagnostic::new(E0503, format!("property references unknown page {p}"))
                    .in_property(index),
            );
        }
        Formula::Page(_) => {}
        Formula::Not(x) | Formula::Exists(_, x) | Formula::Forall(_, x) => {
            check_page_refs(spec, x, index, reported, out);
        }
        Formula::And(xs) | Formula::Or(xs) => {
            for x in xs {
                check_page_refs(spec, x, index, reported, out);
            }
        }
        Formula::Implies(a, b) => {
            check_page_refs(spec, a, index, reported, out);
            check_page_refs(spec, b, index, reported, out);
        }
        _ => {}
    }
}
