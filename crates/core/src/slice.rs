//! The verifier-side realization of the wave-flow slice.
//!
//! [`SliceInfo`] translates a [`wave_flow::FlowReport`] into the shape
//! the search consumes: a per-query-id liveness bitmap (dead or
//! unreachable rules are skipped wholesale), a per-page "has live
//! delete rules" flag (pages without one take a monotone insert fast
//! path that bypasses the insert/delete conflict machinery), and a
//! memo-mask narrowing pass (rules whose only reads of a section are
//! relations proven always-empty stop keying their memo entries on that
//! section's epoch).
//!
//! **Soundness contract** (DESIGN.md §14): every transformation here is
//! *runtime-inert* — verdicts, counterexample traces, and the
//! deterministic search counters are byte-identical with the slice on
//! or off, on every spec. A dead rule can never derive a tuple or fire
//! a transition; a page with no live delete rule produces the same
//! state set with or without the conflict bookkeeping; and an
//! always-empty relation contributes the same (empty) content to every
//! memoized evaluation. Only wall-time and the memo hit/miss split may
//! differ. The [`wave_flow`] analyses err toward "don't know", so
//! anything pruned here is impossible in every run over every database.

use std::collections::BTreeSet;

use wave_flow::{FlowReport, RuleKind, RuleRef};
use wave_spec::{sections, CompiledSpec};

/// Slice facts in the verifier's coordinates, computed once per
/// [`crate::Verifier`] and shared by every prepared check.
#[derive(Clone, Debug)]
pub struct SliceInfo {
    /// Liveness by dense query id (`reads.qid`); targets included.
    live: Vec<bool>,
    /// Per page (by [`wave_spec::PageId`] index): does it host a live
    /// delete rule? `false` enables the monotone insert fast path.
    page_has_live_delete: Vec<bool>,
    /// Rules (including targets) the slice removes from the search.
    pub rules_removed: u64,
    /// Relations statically proven always-empty (the memo-mask
    /// narrowing set).
    pub relations_removed: u64,
    /// Rules whose guard the flow analysis refuted outright.
    pub dead_rules: u64,
    /// State relations inserted but never deleted (reporting only; the
    /// fast path keys off `page_has_live_delete`).
    pub monotone_relations: Vec<String>,
}

impl SliceInfo {
    /// The identity slice for `--no-slice`: every rule live, delete
    /// handling wherever a delete rule exists syntactically, no mask
    /// narrowing, all counters zero.
    pub fn full(spec: &CompiledSpec) -> SliceInfo {
        SliceInfo {
            live: vec![true; spec.num_queries as usize],
            page_has_live_delete: spec
                .pages
                .iter()
                .map(|p| p.state_rules.iter().any(|r| !r.insert))
                .collect(),
            rules_removed: 0,
            relations_removed: 0,
            dead_rules: 0,
            monotone_relations: Vec::new(),
        }
    }

    /// Run the flow analyses over the compiled spec and build the slice
    /// from their report.
    pub fn compute(spec: &mut CompiledSpec) -> SliceInfo {
        SliceInfo::from_report(spec, &wave_flow::analyze(&spec.spec))
    }

    /// Build the slice from `spec.spec`'s flow report, narrowing the memo
    /// read-masks in place (the compiled rule order is the AST rule
    /// order, so [`RuleRef`]s translate to query ids positionally).
    pub fn from_report(spec: &mut CompiledSpec, report: &FlowReport) -> SliceInfo {
        let mut live = vec![true; spec.num_queries as usize];
        let mut rules_removed = 0u64;
        for (pi, page) in spec.pages.iter().enumerate() {
            let mut mark = |kind: RuleKind, index: usize, qid: u32| {
                if !report.is_live(&RuleRef { page: pi, kind, index }) {
                    live[qid as usize] = false;
                    rules_removed += 1;
                }
            };
            for (i, r) in page.option_rules.iter().enumerate() {
                mark(RuleKind::Option, i, r.reads.qid);
            }
            for (i, r) in page.state_rules.iter().enumerate() {
                mark(RuleKind::State, i, r.reads.qid);
            }
            for (i, r) in page.action_rules.iter().enumerate() {
                mark(RuleKind::Action, i, r.reads.qid);
            }
            for (i, t) in page.target_rules.iter().enumerate() {
                mark(RuleKind::Target, i, t.reads.qid);
            }
        }

        narrow_masks(spec, &report.never_nonempty);

        SliceInfo {
            live,
            page_has_live_delete: report.page_has_live_delete.clone(),
            rules_removed,
            relations_removed: report.never_nonempty.len() as u64,
            dead_rules: report.dead.len() as u64,
            monotone_relations: report.monotone.clone(),
        }
    }

    /// May the rule with query id `qid` ever fire?
    #[inline]
    pub fn live(&self, qid: u32) -> bool {
        self.live[qid as usize]
    }

    /// Does the page host a live delete rule? `false` means inserts can
    /// go straight into the state set.
    #[inline]
    pub fn has_live_delete(&self, page: usize) -> bool {
        self.page_has_live_delete[page]
    }
}

/// Panic unless `report` is the flow report of `spec` on every field
/// [`SliceInfo::from_report`] reads.
#[cfg(debug_assertions)]
pub(crate) fn check_report(spec: &wave_spec::Spec, report: &FlowReport) {
    let read = |r: &FlowReport| {
        let dead: Vec<RuleRef> = r.dead.iter().map(|d| d.rule).collect();
        let pages = (r.reachable_pages.clone(), r.page_has_live_delete.clone());
        (dead, pages, r.never_nonempty.clone(), r.monotone.clone())
    };
    assert_eq!(read(report), read(&wave_flow::analyze(spec)), "flow report of another spec");
}

/// Clear memo-mask section bits for rules whose only reads of that
/// section are always-empty relations: the section's contents can never
/// influence the rule's result, so its epoch need not key the memo.
/// Database relations, page markers, and input constants are never in
/// `empty`, so the EXT/PAGE bits (and any INPUT bit they contribute)
/// are untouched.
fn narrow_masks(spec: &mut CompiledSpec, empty: &BTreeSet<String>) {
    if empty.is_empty() {
        return;
    }
    let schema = spec.schema.clone();
    // which narrowable section a relation name read by a body occupies
    let section_of = |rel: &str, prev: bool| -> Option<u8> {
        use wave_relalg::RelKind;
        let id = schema.lookup(rel)?;
        Some(match schema.kind(id) {
            RelKind::State => sections::STATE,
            RelKind::Action => sections::ACTIONS,
            RelKind::Input | RelKind::InputConstant if prev => sections::PREV,
            RelKind::Input | RelKind::InputConstant => sections::INPUT,
            // EXT / PAGE reads always keep their bits
            RelKind::Database => return None,
        })
    };
    for page in &mut spec.pages {
        let rules =
            page.option_rules.iter_mut().chain(&mut page.state_rules).chain(&mut page.action_rules);
        for rule in rules {
            rule.reads.mask &= !clearable(&rule.body, empty, &section_of);
        }
        for t in &mut page.target_rules {
            t.reads.mask &= !clearable(&t.condition, empty, &section_of);
        }
    }
}

/// Section bits where *every* read the body makes of the section is an
/// always-empty relation. A section read by any non-empty (or
/// untracked) relation keeps its bit.
fn clearable(
    body: &wave_fol::Formula,
    empty: &BTreeSet<String>,
    section_of: &impl Fn(&str, bool) -> Option<u8>,
) -> u8 {
    let mut all_empty = 0u8; // sections read only through empty relations so far
    let mut keep = 0u8; // sections with at least one live read
    let mut visit = |rel: &str, prev: bool| {
        if let Some(bit) = section_of(rel, prev) {
            if empty.contains(rel) {
                all_empty |= bit;
            } else {
                keep |= bit;
            }
        }
    };
    body.visit_atoms(&mut |a| visit(&a.rel, a.prev));
    visit_input_empty(body, &mut visit);
    all_empty & !keep
}

/// `InputEmpty` tests read the relation's section too.
fn visit_input_empty(f: &wave_fol::Formula, visit: &mut impl FnMut(&str, bool)) {
    use wave_fol::Formula as F;
    match f {
        F::InputEmpty { rel, prev } => visit(rel, *prev),
        F::Not(x) | F::Exists(_, x) | F::Forall(_, x) => visit_input_empty(x, visit),
        F::And(xs) | F::Or(xs) => xs.iter().for_each(|x| visit_input_empty(x, visit)),
        F::Implies(a, b) => {
            visit_input_empty(a, visit);
            visit_input_empty(b, visit);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_spec::parse_spec;

    fn dirty() -> CompiledSpec {
        CompiledSpec::compile(
            parse_spec(
                r#"
                spec dirty {
                  state { log(entry); ghost(x); }
                  inputs { pick(choice); }
                  home A;
                  page A {
                    inputs { pick }
                    options pick(c) <- c = "go" | c = "stay";
                    insert log(c) <- pick(c);
                    insert ghost(c) <- pick(c) & c = "teleport";
                    delete log(c) <- ghost(c) & pick(c);
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
                "#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn full_slice_is_identity() {
        let spec = dirty();
        let slice = SliceInfo::full(&spec);
        assert_eq!(slice.rules_removed, 0);
        assert!((0..spec.num_queries).all(|q| slice.live(q)));
        // page A has a syntactic delete rule, so no fast path there
        assert!(slice.has_live_delete(0));
        assert!(!slice.has_live_delete(1));
    }

    #[test]
    fn computed_slice_kills_dead_rules_and_enables_fast_path() {
        let mut spec = dirty();
        let slice = SliceInfo::compute(&mut spec);
        assert!(slice.dead_rules >= 2, "ghost insert + delete log + ghost target: {slice:?}");
        assert!(slice.rules_removed >= slice.dead_rules);
        assert_eq!(slice.relations_removed, 1, "ghost is always empty");
        assert_eq!(slice.monotone_relations, vec!["log".to_string()]);
        // the only delete rule is dead (guarded by ghost), so every page
        // takes the monotone fast path
        assert!(!slice.has_live_delete(0));

        // the dead ghost insert's qid is dead, the live log insert's is not
        let page_a = &spec.pages[0];
        let log_insert = &page_a.state_rules[0];
        let ghost_insert = &page_a.state_rules[1];
        assert!(slice.live(log_insert.reads.qid));
        assert!(!slice.live(ghost_insert.reads.qid));

        // mask narrowing: the delete rule reads only ghost in the STATE
        // section, so its STATE bit is cleared
        let del = &page_a.state_rules[2];
        assert_eq!(del.reads.mask & sections::STATE, 0, "mask {:#b}", del.reads.mask);
        // the target on A that tests ghost loses STATE too
        let ghost_target = &page_a.target_rules[1];
        assert_eq!(ghost_target.reads.mask & sections::STATE, 0);
    }
}
