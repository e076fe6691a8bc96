//! The spec-level analyses: a combined least fixpoint over page
//! reachability, relation emptiness, and column value sets, followed by
//! a classification pass that names dead rules (with provenance),
//! unreachable pages, always-empty relations, and monotone state
//! relations. Everything downstream — the W06xx lints, the verifier's
//! rule-liveness slice, the memo-mask narrowing — reads the
//! [`FlowReport`] this module produces.
//!
//! The fixpoint is a dependency worklist. Its nodes are the populating
//! rules (option, insert and action rules, which feed their head
//! relation) and the target edges (which make their target page
//! reachable). A node is queued when its page first becomes reachable,
//! and queued again only when a tracked relation its guard reads — an
//! atom, current or `prev`, or an emptiness test — grows. Every transfer
//! is monotone (more facts only un-refute a guard or widen a pin), so
//! the least fixpoint, and with it the report, does not depend on the
//! order the worklist runs in.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::Range;

use crate::absint::{Evaluator, Facts, GuardId, Program, RelId, TrackedRel};
use wave_spec::Spec;

/// Which rule vector of a page a [`RuleRef`] indexes into. `State`
/// covers both insert and delete rules (they share one vector in the
/// spec model, and the compiled spec preserves that order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleKind {
    Option,
    State,
    Action,
    Target,
}

/// A rule, addressed positionally so the compiled spec (which maps each
/// AST rule vector in order) can translate it to a query id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RuleRef {
    pub page: usize,
    pub kind: RuleKind,
    pub index: usize,
}

/// A rule whose guard is statically unsatisfiable, with the provenance
/// chain explaining the refutation.
#[derive(Clone, Debug)]
pub struct DeadRule {
    pub rule: RuleRef,
    pub notes: Vec<String>,
}

/// A tracked relation that has populating rules, all of which are dead
/// or unreachable — it can never hold a tuple.
#[derive(Clone, Debug)]
pub struct EmptyRel {
    pub rel: String,
    pub writers: usize,
    pub note: String,
}

/// The output of [`analyze`]: everything the lints and the verifier
/// slice consume.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// The post-fixpoint facts (relation emptiness + column value sets).
    pub facts: Facts,
    /// Guard-unsat rules, in page/kind/index order.
    pub dead: Vec<DeadRule>,
    dead_set: BTreeSet<RuleRef>,
    /// Pages reachable from home via statically-live target edges.
    pub reachable_pages: BTreeSet<usize>,
    /// Complement of `reachable_pages`, in index order.
    pub unreachable_pages: Vec<usize>,
    /// Tracked relations with ≥1 populating rule that still can never
    /// hold a tuple (W0602 material).
    pub always_empty: Vec<EmptyRel>,
    /// Every tracked relation that can never hold a tuple, writers or
    /// not (memo-mask narrowing material).
    pub never_nonempty: BTreeSet<String>,
    /// State relations inserted by some rule but never deleted by any.
    pub monotone: Vec<String>,
    /// Per page: does it host a *live* delete rule? Pages without one
    /// can take the verifier's monotone insert fast path.
    pub page_has_live_delete: Vec<bool>,
}

impl FlowReport {
    /// Is the rule's guard statically unsatisfiable?
    pub fn is_dead(&self, r: &RuleRef) -> bool {
        self.dead_set.contains(r)
    }

    /// Can the rule ever fire: guard satisfiable *and* page reachable?
    pub fn is_live(&self, r: &RuleRef) -> bool {
        !self.is_dead(r) && self.reachable_pages.contains(&r.page)
    }

    /// Refutation notes for a dead rule, if it is one.
    pub fn dead_notes(&self, r: &RuleRef) -> Option<&[String]> {
        self.dead.iter().find(|d| d.rule == *r).map(|d| d.notes.as_slice())
    }
}

/// How a relation is populated, for provenance wording and writer counts.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RelClass {
    Db,
    State,
    Action,
    Input,
}

/// The relations whose emptiness and value sets the fixpoint tracks —
/// state and action relations plus non-constant inputs, each once —
/// and their dense ids. Database relations and input constants carry
/// arbitrary instance data.
fn tracked_relations(spec: &Spec) -> (Vec<TrackedRel>, HashMap<&str, RelId>) {
    let mut class = BTreeMap::new();
    for (r, _) in &spec.database {
        class.insert(r.as_str(), RelClass::Db);
    }
    for (r, _) in &spec.states {
        class.insert(r.as_str(), RelClass::State);
    }
    for (r, _) in &spec.actions {
        class.insert(r.as_str(), RelClass::Action);
    }
    for i in &spec.inputs {
        class.insert(i.name.as_str(), RelClass::Input);
    }

    // rules (across every page) that populate each relation, by kind
    let mut inserts: HashMap<&str, usize> = HashMap::new();
    let mut emits: HashMap<&str, usize> = HashMap::new();
    let mut offers: HashMap<&str, usize> = HashMap::new();
    for p in &spec.pages {
        for r in p.state_rules.iter().filter(|r| r.insert) {
            *inserts.entry(r.state.as_str()).or_default() += 1;
        }
        for r in &p.action_rules {
            *emits.entry(r.action.as_str()).or_default() += 1;
        }
        for r in &p.option_rules {
            *offers.entry(r.input.as_str()).or_default() += 1;
        }
    }
    let count = |m: &HashMap<&str, usize>, rel: &str| m.get(rel).copied().unwrap_or(0);

    let decls = spec.states.iter().chain(&spec.actions).map(|(r, a)| (r, *a));
    let inputs = spec.inputs.iter().filter(|i| !i.constant).map(|i| (&i.name, i.arity));
    let mut out: Vec<TrackedRel> = Vec::new();
    let mut ids = HashMap::new();
    for (rel, arity) in decls.chain(inputs) {
        if let Some(&id) = ids.get(rel.as_str()) {
            let seen: &mut TrackedRel = &mut out[id];
            seen.arity = seen.arity.max(arity);
            continue;
        }
        ids.insert(rel.as_str(), out.len());
        let (writers, source) = match class.get(rel.as_str()) {
            Some(RelClass::State) => (count(&inserts, rel), "the insert rules that populate it"),
            Some(RelClass::Action) => (count(&emits, rel), "the action rules that emit it"),
            Some(RelClass::Input) => (count(&offers, rel), "the option rules that offer it"),
            _ => (0, "the rules that populate it"),
        };
        out.push(TrackedRel::new(rel.clone(), arity, writers, source));
    }
    (out, ids)
}

/// What an unrefuted guard does in the fixpoint.
#[derive(Clone, Copy)]
enum Effect {
    /// Feed the head pins into a tracked relation.
    Feed(RelId),
    /// Make a page reachable.
    Enter(usize),
    /// Nothing: delete rules, rules populating untracked relations,
    /// edges to undeclared pages.
    Inert,
}

/// One rule of the spec, compiled.
struct Rule {
    at: RuleRef,
    guard: GuardId,
    effect: Effect,
}

/// FIFO of rules waiting for (re-)evaluation. A rule already waiting is
/// not queued twice; once popped it can be queued again.
struct Worklist {
    queue: VecDeque<usize>,
    waiting: Vec<bool>,
}

impl Worklist {
    fn new(len: usize) -> Worklist {
        Worklist { queue: VecDeque::new(), waiting: vec![false; len] }
    }

    /// Queue `item` unless it is already waiting.
    fn push(&mut self, item: usize) {
        if !std::mem::replace(&mut self.waiting[item], true) {
            self.queue.push_back(item);
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let item = self.queue.pop_front()?;
        self.waiting[item] = false;
        Some(item)
    }
}

/// The compiled spec the fixpoint runs over.
struct Graph {
    /// Every rule in page / kind / index order.
    rules: Vec<Rule>,
    /// Each page's rules, as a range of `rules`.
    pages: Vec<Range<usize>>,
    /// Per tracked relation, the non-inert rules whose guards read it.
    readers: Vec<Vec<usize>>,
    home: usize,
}

impl Graph {
    fn compile<'s>(
        spec: &'s Spec,
        prog: &mut Program<'s>,
        rel_ids: &HashMap<&str, RelId>,
    ) -> Graph {
        let page_index: HashMap<&str, usize> =
            spec.pages.iter().enumerate().map(|(i, p)| (p.name.as_str(), i)).collect();
        let feed = |rel: &str| rel_ids.get(rel).map_or(Effect::Inert, |&r| Effect::Feed(r));
        let mut rules = Vec::new();
        let mut pages = Vec::new();
        for (pi, p) in spec.pages.iter().enumerate() {
            let start = rules.len();
            let page = p.name.as_str();
            let mut add = |kind, index, guard, effect| {
                rules.push(Rule { at: RuleRef { page: pi, kind, index }, guard, effect });
            };
            for (i, r) in p.option_rules.iter().enumerate() {
                add(RuleKind::Option, i, prog.guard(&r.body, page, &r.head), feed(&r.input));
            }
            for (i, r) in p.state_rules.iter().enumerate() {
                let effect = if r.insert { feed(&r.state) } else { Effect::Inert };
                add(RuleKind::State, i, prog.guard(&r.body, page, &r.head), effect);
            }
            for (i, r) in p.action_rules.iter().enumerate() {
                add(RuleKind::Action, i, prog.guard(&r.body, page, &r.head), feed(&r.action));
            }
            for (i, t) in p.target_rules.iter().enumerate() {
                let effect = page_index
                    .get(t.target.as_str())
                    .map_or(Effect::Inert, |&ti| Effect::Enter(ti));
                add(RuleKind::Target, i, prog.guard(&t.condition, page, &[]), effect);
            }
            pages.push(start..rules.len());
        }

        let mut readers = vec![Vec::new(); rel_ids.len()];
        for (ri, rule) in rules.iter().enumerate() {
            if matches!(rule.effect, Effect::Inert) {
                continue;
            }
            for rel in prog.reads(rule.guard) {
                // a rule's reads are pushed together, so a repeat is last
                let list: &mut Vec<usize> = &mut readers[rel];
                if list.last() != Some(&ri) {
                    list.push(ri);
                }
            }
        }
        let home = page_index.get(spec.home.as_str()).copied().unwrap_or(0);
        Graph { rules, pages, readers, home }
    }

    /// Run the worklist to the least fixpoint, growing `facts`; returns
    /// which pages are reachable.
    fn solve(&self, ev: &mut Evaluator<'_, '_>, facts: &mut Facts) -> Vec<bool> {
        let mut reachable = vec![false; self.pages.len()];
        let mut work = Worklist::new(self.rules.len());
        let enter = |page: usize, reachable: &mut [bool], work: &mut Worklist| {
            if !std::mem::replace(&mut reachable[page], true) {
                for ri in self.pages[page].clone() {
                    if !matches!(self.rules[ri].effect, Effect::Inert) {
                        work.push(ri);
                    }
                }
            }
        };
        if self.home < self.pages.len() {
            enter(self.home, &mut reachable, &mut work);
        }
        while let Some(ri) = work.pop() {
            let rule = &self.rules[ri];
            match rule.effect {
                // an edge into a reached page has nothing left to add
                Effect::Enter(target) if reachable[target] => continue,
                _ if ev.refutes(rule.guard, facts) => continue,
                Effect::Feed(rel) => {
                    if facts.feed(rel, ev.head(rule.guard)) {
                        for &reader in &self.readers[rel] {
                            if reachable[self.rules[reader].at.page] {
                                work.push(reader);
                            }
                        }
                    }
                }
                Effect::Enter(target) => enter(target, &mut reachable, &mut work),
                Effect::Inert => {}
            }
        }
        reachable
    }

    /// The closure check behind the worklist's re-queue edges: against
    /// the final facts, no rule on a reachable page could grow a relation
    /// or reach a new page. A missed re-queue fails here — and would
    /// otherwise make the slice drop a live rule.
    #[cfg(debug_assertions)]
    fn assert_closed(&self, ev: &mut Evaluator<'_, '_>, facts: &Facts, reachable: &[bool]) {
        for rule in &self.rules {
            if !reachable[rule.at.page] || ev.refutes(rule.guard, facts) {
                continue;
            }
            match rule.effect {
                Effect::Feed(rel) => {
                    let mut probe = facts.clone();
                    assert!(
                        !probe.feed(rel, ev.head(rule.guard)),
                        "flow fixpoint not closed: {:?} still grows its relation",
                        rule.at
                    );
                }
                Effect::Enter(target) => assert!(
                    reachable[target],
                    "flow fixpoint not closed: {:?} reaches an unreached page",
                    rule.at
                ),
                Effect::Inert => {}
            }
        }
    }
}

/// Run the combined reachability / emptiness / value-set least fixpoint
/// and classify every rule, page, and relation of `spec`.
pub fn analyze(spec: &Spec) -> FlowReport {
    let (tracked, rel_ids) = tracked_relations(spec);
    // constants interned in text order, so bitset order is text order
    let mut consts = spec.all_constants();
    consts.sort_unstable();
    let mut prog = Program::new(&consts, rel_ids.clone());
    let graph = Graph::compile(spec, &mut prog, &rel_ids);
    let mut facts = Facts::bottom(consts.clone(), tracked);

    let mut ev = Evaluator::new(&prog);
    let reachable = graph.solve(&mut ev, &mut facts);
    #[cfg(debug_assertions)]
    graph.assert_closed(&mut ev, &facts, &reachable);

    // classification: every guard on every page, reachable or not; only
    // a refuted one is evaluated again, with its provenance rendered
    let mut dead = Vec::new();
    let mut dead_set = BTreeSet::new();
    for rule in &graph.rules {
        if ev.refutes(rule.guard, &facts) {
            dead_set.insert(rule.at);
            dead.push(DeadRule { rule: rule.at, notes: ev.explain(rule.guard, &facts) });
        }
    }

    let reachable_pages: BTreeSet<usize> =
        (0..spec.pages.len()).filter(|&p| reachable[p]).collect();
    let unreachable_pages: Vec<usize> = (0..spec.pages.len()).filter(|&p| !reachable[p]).collect();

    let mut empty: Vec<&TrackedRel> = facts.empty_tracked().collect();
    empty.sort_by(|a, b| a.name.cmp(&b.name));
    let never_nonempty: BTreeSet<String> = empty.iter().map(|r| r.name.clone()).collect();
    let always_empty: Vec<EmptyRel> = empty
        .iter()
        .filter(|r| r.writers > 0)
        .map(|r| EmptyRel { rel: r.name.clone(), writers: r.writers, note: r.why_empty() })
        .collect();

    // monotonicity: inserted somewhere, and no *live* delete rule — a
    // delete whose guard is refuted or whose page is unreachable can
    // never fire, so the relation only ever grows. Relations that can
    // never hold a tuple are vacuously monotone; their useful diagnostic
    // is W0602, so they are excluded here.
    let live_delete = |pi: usize, i: usize| {
        reachable[pi] && !dead_set.contains(&RuleRef { page: pi, kind: RuleKind::State, index: i })
    };
    let monotone: Vec<String> = spec
        .states
        .iter()
        .map(|(s, _)| s)
        .filter(|s| !never_nonempty.contains(s.as_str()))
        .filter(|s| {
            let mut inserts = 0;
            let mut live_deletes = 0;
            for (pi, p) in spec.pages.iter().enumerate() {
                for (i, r) in p.state_rules.iter().enumerate() {
                    if &r.state == *s {
                        if r.insert {
                            inserts += 1;
                        } else if live_delete(pi, i) {
                            live_deletes += 1;
                        }
                    }
                }
            }
            inserts > 0 && live_deletes == 0
        })
        .cloned()
        .collect();

    let page_has_live_delete: Vec<bool> = spec
        .pages
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            p.state_rules.iter().enumerate().any(|(i, r)| !r.insert && live_delete(pi, i))
        })
        .collect();

    FlowReport {
        facts,
        dead,
        dead_set,
        reachable_pages,
        unreachable_pages,
        always_empty,
        never_nonempty,
        monotone,
        page_has_live_delete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_spec::parse_spec;

    /// A spec with a dead option rule (value-set contradiction), an
    /// always-empty state relation, an unreachable page, and a monotone
    /// state relation.
    fn dirty() -> Spec {
        parse_spec(
            r#"
            spec dirty {
              state { log(entry); ghost(x); }
              action { noted(entry); }
              inputs { pick(choice); }
              home A;

              page A {
                inputs { pick }
                options pick(c) <- c = "go" | c = "stay";
                insert log(c) <- pick(c);
                action noted(c) <- pick(c);
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
            "#,
        )
        .expect("dirty spec parses")
    }

    #[test]
    fn classifies_dead_rules_pages_and_relations() {
        let spec = dirty();
        let report = analyze(&spec);

        // ghost insert needs c = "teleport", but pick only offers go/stay
        let ghost_insert = report
            .dead
            .iter()
            .find(|d| d.rule.kind == RuleKind::State)
            .expect("ghost insert is dead");
        assert!(
            ghost_insert.notes.iter().any(|n| n.contains("teleport") || n.contains("pick")),
            "notes explain the refutation: {:?}",
            ghost_insert.notes
        );

        // ghost never holds a tuple, so the Ghost edge is dead too
        assert!(report.never_nonempty.contains("ghost"));
        assert_eq!(report.always_empty.len(), 1);
        assert!(report.dead.iter().any(|d| d.rule.kind == RuleKind::Target));

        // and the Ghost page is unreachable via live edges
        let ghost_page = spec.pages.iter().position(|p| p.name == "Ghost").unwrap();
        assert_eq!(report.unreachable_pages, vec![ghost_page]);
        assert!(!report.is_live(&RuleRef { page: ghost_page, kind: RuleKind::Target, index: 0 }));

        // log is inserted but never deleted
        assert_eq!(report.monotone, vec!["log".to_string()]);
        assert!(report.page_has_live_delete.iter().all(|b| !b));
    }

    #[test]
    fn live_rules_stay_live() {
        let spec = dirty();
        let report = analyze(&spec);
        let a = spec.pages.iter().position(|p| p.name == "A").unwrap();
        assert!(report.is_live(&RuleRef { page: a, kind: RuleKind::Option, index: 0 }));
        assert!(report.is_live(&RuleRef { page: a, kind: RuleKind::Action, index: 0 }));
        // the facts learned pick's value set
        let vals = report.facts.column("pick", 0);
        assert_eq!(vals.describe(), "{\"go\", \"stay\"}");
    }

    /// Facts that appear only after the first evaluation of a guard must
    /// re-queue it: `C` is reached through an edge that reads `seen`,
    /// which only page `B` inserts into, and page `C` is the only writer
    /// of the value `"late"` that unlocks page `D`.
    #[test]
    fn growth_requeues_the_guards_that_read_it() {
        let spec = parse_spec(
            r#"
            spec chain {
              state { seen(x); mark(x); }
              inputs { pick(choice); }
              home A;
              page A {
                inputs { pick }
                options pick(c) <- c = "go";
                target C <- seen("b") & prev mark("late");
                target C <- seen("b");
                target B <- pick("go");
              }
              page B {
                inputs { pick }
                options pick(c) <- c = "go";
                insert seen(c) <- c = "b";
                target A <- pick("go");
              }
              page C {
                inputs { pick }
                options pick(c) <- c = "go" | c = "late";
                insert mark(c) <- pick(c);
                target D <- mark("late");
              }
              page D {
                inputs { pick }
                options pick(c) <- c = "go";
                target A <- true;
              }
            }
            "#,
        )
        .expect("chain spec parses");
        let report = analyze(&spec);
        assert!(report.dead.is_empty(), "{:?}", report.dead);
        assert!(report.unreachable_pages.is_empty(), "{:?}", report.unreachable_pages);
        assert_eq!(report.facts.column("pick", 0).describe(), "{\"go\", \"late\"}");
        assert_eq!(report.facts.column("mark", 0).describe(), "{\"go\", \"late\"}");
        assert_eq!(report.facts.column("seen", 0).describe(), "{\"b\"}");
    }

    #[test]
    fn worklist_dedups_while_waiting() {
        let mut w = Worklist::new(3);
        w.push(1);
        w.push(1); // already waiting: not queued twice
        w.push(2);
        assert_eq!(w.pop(), Some(1));
        w.push(1); // popped, so it can be queued again
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), None);
    }
}
