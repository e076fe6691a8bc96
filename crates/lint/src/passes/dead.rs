//! Pass 3: dead-code analysis.
//!
//! Splits into two families:
//!
//! * **Spec-internal** findings that hold regardless of the properties to
//!   be verified: a state relation that is read but has no insert rule is
//!   always empty ([`crate::diag::W0302`]); an action relation with no
//!   emitting rule is always empty ([`crate::diag::W0305`]); a rule body
//!   refuted by the constant analysis never fires
//!   ([`crate::diag::W0304`]).
//!
//! * **Whole-problem** findings that need the property set: state and
//!   action relations are exactly the observables LTL-FO properties read,
//!   so "written but never read" ([`crate::diag::W0301`]), "input never
//!   referenced" ([`crate::diag::W0303`]) and "relation never used"
//!   ([`crate::diag::W0306`]) are only decidable once the linter sees the
//!   properties. These fire only when at least one property is supplied;
//!   their read-set is rule bodies plus property FO components.

use std::collections::HashSet;

use crate::diag::{Diagnostic, W0301, W0302, W0303, W0304, W0305, W0306};
use crate::simplify::{truth, Tri};
use wave_spec::Spec;

use super::{fo_components, ParsedProperty};

pub fn run(spec: &Spec, props: &[ParsedProperty], out: &mut Vec<Diagnostic>) {
    // Relations read by any rule body or target condition.
    let mut rule_reads: HashSet<&str> = HashSet::new();
    for p in &spec.pages {
        for r in &p.option_rules {
            collect_reads(&r.body, spec, &mut rule_reads);
        }
        for r in &p.state_rules {
            collect_reads(&r.body, spec, &mut rule_reads);
        }
        for r in &p.action_rules {
            collect_reads(&r.body, spec, &mut rule_reads);
        }
        for r in &p.target_rules {
            collect_reads(&r.condition, spec, &mut rule_reads);
        }
    }

    // Relations read by property FO components (by name; properties may
    // reference relations the spec does not declare — pass 5 reports
    // those, here they simply match nothing).
    let mut prop_reads: HashSet<String> = HashSet::new();
    for pp in props {
        for comp in fo_components(pp.property) {
            comp.visit_atoms(&mut |a| {
                prop_reads.insert(a.rel.clone());
            });
        }
    }

    let read = |name: &str| rule_reads.contains(name) || prop_reads.contains(name);

    // Rule heads.
    let mut inserted: HashSet<&str> = HashSet::new();
    let mut deleted: HashSet<&str> = HashSet::new();
    let mut emitted: HashSet<&str> = HashSet::new();
    for p in &spec.pages {
        for r in &p.state_rules {
            if r.insert { &mut inserted } else { &mut deleted }.insert(r.state.as_str());
        }
        for r in &p.action_rules {
            emitted.insert(r.action.as_str());
        }
    }

    // -- spec-internal findings ------------------------------------------

    for (name, _) in &spec.states {
        if read(name) && !inserted.contains(name.as_str()) {
            let mut d = Diagnostic::new(
                W0302,
                format!("state relation {name} is read but no rule inserts into it"),
            )
            .note("the relation is empty in every run; reads of it never hold");
            if deleted.contains(name.as_str()) {
                d = d.note("it has delete rules, but deleting from an empty relation is a no-op");
            }
            if let Some(span) = spec.decl_span(name) {
                d = d.with_span(span);
            }
            out.push(d);
        }
    }

    for (name, _) in &spec.actions {
        if !emitted.contains(name.as_str()) {
            let mut d = Diagnostic::new(
                W0305,
                format!("action relation {name} is never emitted by any rule"),
            )
            .note("the relation is empty in every run");
            if let Some(span) = spec.decl_span(name) {
                d = d.with_span(span);
            }
            out.push(d);
        }
    }

    for p in &spec.pages {
        for r in &p.option_rules {
            if truth(&r.body) == Tri::False {
                out.push(
                    Diagnostic::new(
                        W0304,
                        format!(
                            "option rule for input {:?} on page {} has a trivially \
                             false body: it never generates options",
                            r.input, p.name
                        ),
                    )
                    .with_span(r.span),
                );
            }
        }
        for r in &p.state_rules {
            if truth(&r.body) == Tri::False {
                let verb = if r.insert { "insert" } else { "delete" };
                out.push(
                    Diagnostic::new(
                        W0304,
                        format!(
                            "{verb} rule for state {} on page {} has a trivially \
                             false body: it never fires",
                            r.state, p.name
                        ),
                    )
                    .with_span(r.span),
                );
            }
        }
        for r in &p.action_rules {
            if truth(&r.body) == Tri::False {
                out.push(
                    Diagnostic::new(
                        W0304,
                        format!(
                            "action rule for {} on page {} has a trivially \
                             false body: it never fires",
                            r.action, p.name
                        ),
                    )
                    .with_span(r.span),
                );
            }
        }
        // trivially false target conditions are W0202 (reachability pass)
    }

    // -- whole-problem findings (need the property set) ------------------

    if props.is_empty() {
        return;
    }

    for (name, _) in &spec.states {
        let written = inserted.contains(name.as_str()) || deleted.contains(name.as_str());
        if written && !read(name) {
            let mut d = Diagnostic::new(
                W0301,
                format!(
                    "state relation {name} is written but never read by any \
                     rule or property"
                ),
            )
            .note("its contents cannot influence any run or verdict");
            if let Some(span) = spec.decl_span(name) {
                d = d.with_span(span);
            }
            out.push(d);
        }
        if !written && !read(name) {
            let mut d =
                Diagnostic::new(W0306, format!("state relation {name} is declared but never used"));
            if let Some(span) = spec.decl_span(name) {
                d = d.with_span(span);
            }
            out.push(d);
        }
    }

    for (name, _) in &spec.database {
        if !read(name) {
            let mut d = Diagnostic::new(
                W0306,
                format!("database relation {name} is declared but never used"),
            );
            if let Some(span) = spec.decl_span(name) {
                d = d.with_span(span);
            }
            out.push(d);
        }
    }

    for (name, _) in &spec.actions {
        // an un-emitted action already got W0305 above
        if emitted.contains(name.as_str()) && !read(name) {
            let mut d = Diagnostic::new(
                W0301,
                format!(
                    "action relation {name} is emitted but never read by any \
                     rule or property"
                ),
            )
            .note("its contents cannot influence any run or verdict");
            if let Some(span) = spec.decl_span(name) {
                d = d.with_span(span);
            }
            out.push(d);
        }
    }

    for i in &spec.inputs {
        if !read(&i.name) {
            let kind = if i.constant { "input constant" } else { "input relation" };
            let mut d = Diagnostic::new(
                W0303,
                format!(
                    "{kind} {} is declared but never referenced by any rule \
                     or property",
                    i.name
                ),
            );
            if let Some(span) = spec.decl_span(&i.name) {
                d = d.with_span(span);
            }
            out.push(d);
        }
    }
}

fn collect_reads<'s>(f: &wave_fol::Formula, spec: &'s Spec, out: &mut HashSet<&'s str>) {
    f.visit_atoms(&mut |a| {
        // intern via the spec's declaration tables so the set borrows from
        // the spec, not from the formula being visited
        if let Some(n) = decl_name(spec, &a.rel) {
            out.insert(n);
        }
    });
}

fn decl_name<'s>(spec: &'s Spec, rel: &str) -> Option<&'s str> {
    spec.database
        .iter()
        .chain(spec.states.iter())
        .chain(spec.actions.iter())
        .map(|(n, _)| n.as_str())
        .chain(spec.inputs.iter().map(|i| i.name.as_str()))
        .find(|n| *n == rel)
}
