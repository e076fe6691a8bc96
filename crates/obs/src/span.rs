//! wave-prof: the hierarchical span profiler.
//!
//! [`SpanProfiler`] is the [`Observer`] that takes span frames (its
//! `SPANS` flag is on, `EVENTS` off). Under the quiet observer `()`
//! every span site in the search compiles out, so the unprofiled search
//! monomorphizes to the code it had before the profiler existed (pinned
//! by the byte-identical verdict equivalence suite in
//! tests/observability.rs).
//!
//! The profiler aggregates frames into a call tree rather than
//! recording every entry/exit: each distinct stack of `(label, index)`
//! frames is one node carrying call and nanosecond totals. Two emission
//! styles feed it:
//!
//! * [`Observer::enter`]/[`Observer::exit`] open a real frame that can
//!   hold children — used for `unit`/`core`/`expand`/`query` scopes.
//! * [`Observer::leaf_ns`] attaches an already-measured duration as a
//!   childless frame — used where the engine has its own timer (the
//!   `SearchProfile` phase counters), so the profiler's number for
//!   those phases agrees with the flat profile *exactly* instead of
//!   within clock-call jitter.
//!
//! The tree renders two ways: a row table ([`SpanProfiler::rows`]) for
//! the attribution report, and folded stacks ([`SpanProfiler::fold`])
//! in the `frame;frame;frame value` format consumed by
//! inferno / flamegraph.pl, with each node's *self* time as the value.

use crate::Observer;
use std::time::Instant;

/// Frame index meaning "no index": the frame renders as its bare label.
pub const NO_INDEX: u64 = u64::MAX;

/// One aggregated call-tree node.
#[derive(Clone, Debug)]
struct Node {
    label: &'static str,
    index: u64,
    parent: usize,
    children: Vec<usize>,
    calls: u64,
    total_ns: u64,
    /// Time attributed to children (total − child = self time).
    child_ns: u64,
}

/// One row of the rendered span table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRow {
    /// Semicolon-joined stack, root first (e.g. `core:0;expand;query:3`).
    pub stack: String,
    pub label: &'static str,
    /// [`NO_INDEX`] when the frame has no index.
    pub index: u64,
    pub depth: usize,
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus time spent in child frames.
    pub self_ns: u64,
}

/// Aggregating span sink: builds the call tree described in the module
/// docs. Not thread-safe; the search drives one profiler per run.
pub struct SpanProfiler {
    /// Node 0 is the synthetic root (never rendered).
    nodes: Vec<Node>,
    /// Open frames: (node, entry instant).
    stack: Vec<(usize, Instant)>,
}

impl Default for SpanProfiler {
    fn default() -> SpanProfiler {
        SpanProfiler::new()
    }
}

impl SpanProfiler {
    pub fn new() -> SpanProfiler {
        SpanProfiler {
            nodes: vec![Node {
                label: "",
                index: NO_INDEX,
                parent: 0,
                children: Vec::new(),
                calls: 0,
                total_ns: 0,
                child_ns: 0,
            }],
            stack: Vec::new(),
        }
    }

    fn child_of(&mut self, parent: usize, label: &'static str, index: u64) -> usize {
        if let Some(&id) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].label == label && self.nodes[c].index == index)
        {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            label,
            index,
            parent,
            children: Vec::new(),
            calls: 0,
            total_ns: 0,
            child_ns: 0,
        });
        self.nodes[parent].children.push(id);
        id
    }

    fn top(&self) -> usize {
        self.stack.last().map_or(0, |&(id, _)| id)
    }

    /// Depth of the currently open stack (0 at the root).
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// Sum of `self_ns` over every node whose label is `label` — the
    /// wall time attributed to that frame kind anywhere in the tree.
    pub fn self_ns_of(&self, label: &str) -> u64 {
        self.nodes
            .iter()
            .skip(1)
            .filter(|n| n.label == label)
            .map(|n| n.total_ns.saturating_sub(n.child_ns))
            .sum()
    }

    /// Sum of `total_ns` over every node with `label` (and, when
    /// `index` is not [`NO_INDEX`], that index).
    pub fn total_ns_of(&self, label: &str, index: u64) -> u64 {
        self.nodes
            .iter()
            .skip(1)
            .filter(|n| n.label == label && (index == NO_INDEX || n.index == index))
            .map(|n| n.total_ns)
            .sum()
    }

    fn frame_name(node: &Node) -> String {
        if node.index == NO_INDEX {
            node.label.to_string()
        } else {
            format!("{}:{}", node.label, node.index)
        }
    }

    fn walk(&self, id: usize, path: &str, depth: usize, out: &mut Vec<SpanRow>) {
        for &c in &self.nodes[id].children {
            let n = &self.nodes[c];
            let name = Self::frame_name(n);
            let stack = if path.is_empty() { name.clone() } else { format!("{path};{name}") };
            out.push(SpanRow {
                stack: stack.clone(),
                label: n.label,
                index: n.index,
                depth,
                calls: n.calls,
                total_ns: n.total_ns,
                self_ns: n.total_ns.saturating_sub(n.child_ns),
            });
            self.walk(c, &stack, depth + 1, out);
        }
    }

    /// All tree rows, depth-first in frame-creation order.
    pub fn rows(&self) -> Vec<SpanRow> {
        let mut out = Vec::new();
        self.walk(0, "", 0, &mut out);
        out
    }

    /// Folded-stack lines (`stack;frames space-separated-from value`),
    /// one per node with nonzero self time, directly consumable by
    /// inferno / flamegraph.pl. Values are nanoseconds.
    pub fn fold(&self) -> Vec<String> {
        self.rows()
            .into_iter()
            .filter(|r| r.self_ns > 0)
            .map(|r| format!("{} {}", r.stack, r.self_ns))
            .collect()
    }
}

impl Observer for SpanProfiler {
    const SPANS: bool = true;

    fn enter(&mut self, label: &'static str, index: u64) {
        let id = self.child_of(self.top(), label, index);
        self.stack.push((id, Instant::now()));
    }

    fn exit(&mut self) {
        let Some((id, t0)) = self.stack.pop() else { return };
        let ns = t0.elapsed().as_nanos() as u64;
        let node = &mut self.nodes[id];
        node.calls += 1;
        node.total_ns += ns;
        let parent = node.parent;
        self.nodes[parent].child_ns += ns;
    }

    fn leaf_ns(&mut self, label: &'static str, index: u64, calls: u64, ns: u64) {
        let parent = self.top();
        let id = self.child_of(parent, label, index);
        let node = &mut self.nodes[id];
        node.calls += calls;
        node.total_ns += ns;
        self.nodes[parent].child_ns += ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_aggregate_by_label_and_index() {
        let mut p = SpanProfiler::new();
        for qid in [0u64, 1, 0] {
            p.enter("expand", NO_INDEX);
            p.enter("query", qid);
            p.exit();
            p.exit();
        }
        let rows = p.rows();
        assert_eq!(
            rows.iter().map(|r| r.stack.as_str()).collect::<Vec<_>>(),
            vec!["expand", "expand;query:0", "expand;query:1"]
        );
        let expand = &rows[0];
        assert_eq!((expand.calls, expand.depth), (3, 0));
        let q0 = rows.iter().find(|r| r.stack == "expand;query:0").unwrap();
        assert_eq!(q0.calls, 2);
    }

    #[test]
    fn self_time_excludes_children_and_leaves_are_exact() {
        let mut p = SpanProfiler::new();
        p.enter("core", 0);
        p.leaf_ns("visit", NO_INDEX, 10, 1_000);
        p.leaf_ns("visit", NO_INDEX, 5, 500);
        p.exit();
        assert_eq!(p.total_ns_of("visit", NO_INDEX), 1_500);
        let rows = p.rows();
        let visit = rows.iter().find(|r| r.label == "visit").unwrap();
        assert_eq!((visit.calls, visit.total_ns, visit.self_ns), (15, 1_500, 1_500));
        // In production leaf durations are measured inside the parent
        // frame, so parent total ≥ Σ leaves; with synthetic test values
        // larger than real elapsed time, self time saturates at zero.
        let core = rows.iter().find(|r| r.label == "core").unwrap();
        assert_eq!(core.self_ns, core.total_ns.saturating_sub(1_500));
        assert_eq!(p.self_ns_of("core"), core.self_ns);
    }

    #[test]
    fn fold_emits_inferno_lines() {
        let mut p = SpanProfiler::new();
        p.enter("unit", 0);
        p.leaf_ns("intern", NO_INDEX, 2, 300);
        p.exit();
        for line in p.fold() {
            let (stack, value) = line.rsplit_once(' ').expect("folded line has a space");
            assert!(!stack.is_empty());
            assert!(stack.split(';').all(|f| !f.is_empty() && !f.contains(' ')));
            let _: u64 = value.parse().expect("folded value is an integer");
        }
        assert!(p.fold().iter().any(|l| l.starts_with("unit:0;intern ")), "{:?}", p.fold());
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let mut p = SpanProfiler::new();
        p.exit();
        assert!(p.rows().is_empty());
        assert_eq!(p.open_depth(), 0);
    }
}
