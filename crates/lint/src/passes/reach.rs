//! Pass 2: page-graph reachability.
//!
//! Builds the page graph (one node per page, one edge per target rule
//! whose condition is not trivially false) and walks it from the home
//! page. Pages no run can ever display get [`crate::diag::W0201`];
//! target rules whose condition the constant analysis refutes get
//! [`crate::diag::W0202`] — such an edge also does not count for
//! reachability, so a page only linked through it is reported too. The
//! reached set is returned for pass 6, which suppresses what this pass
//! already reports.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::diag::{Diagnostic, W0201, W0202};
use crate::simplify::{truth, Tri};
use wave_spec::Spec;

/// Report W0202 and W0201, and return the pages reached from home.
pub fn run<'s>(spec: &'s Spec, out: &mut Vec<Diagnostic>) -> HashSet<&'s str> {
    let mut edges: HashMap<&str, Vec<&str>> = HashMap::new();
    for p in &spec.pages {
        let succs = edges.entry(p.name.as_str()).or_default();
        for r in &p.target_rules {
            if truth(&r.condition) == Tri::False {
                out.push(
                    Diagnostic::new(
                        W0202,
                        format!(
                            "target rule to {} on page {} can never fire: \
                             its condition is trivially false",
                            r.target, p.name
                        ),
                    )
                    .with_span(r.span),
                );
            } else {
                succs.push(r.target.as_str());
            }
        }
    }

    let mut reached: HashSet<&str> = HashSet::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    if spec.page(&spec.home).is_some() {
        reached.insert(spec.home.as_str());
        queue.push_back(spec.home.as_str());
    }
    while let Some(page) = queue.pop_front() {
        for succ in edges.get(page).into_iter().flatten() {
            if reached.insert(succ) {
                queue.push_back(succ);
            }
        }
    }

    for p in &spec.pages {
        if !reached.contains(p.name.as_str()) {
            out.push(
                Diagnostic::new(
                    W0201,
                    format!("page {} is unreachable from the home page {}", p.name, spec.home),
                )
                .with_span(p.span)
                .note(
                    "no sequence of target-rule transitions leads here; \
                       its rules can never fire",
                ),
            );
        }
    }
    reached
}
