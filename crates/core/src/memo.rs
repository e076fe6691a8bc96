//! Delta-driven query memoization — the "query engine" side of the
//! search.
//!
//! The NDFS expands enormously many pseudoconfigurations that differ in
//! only one or two fact sections: every successor of one expansion
//! shares its previous-input and state sections, and the hash-consed
//! [`crate::intern::ConfigStore`] extends the sharing to *equal*
//! sections across expansions. A rule body (or target condition, or
//! property FO component) whose read-set touches only unchanged
//! sections must therefore produce the same answer — the
//! [`QueryEngine`]'s memo makes that observation operational by assigning
//! every distinct section content an *epoch* and keying each prepared
//! query's result on the epochs of exactly the sections in its
//! [`ReadProfile`] mask.
//!
//! The invariant that makes the key sound: for a fixed search core, a
//! plan-executed query's result is a function of (a) the base instance
//! (fixed per [`QueryEngine`]), (b) the contents of the config sections
//! it scans, and (c) its parameter bindings — and the bindings
//! themselves are a function of the input/prev sections
//! ([`wave_spec::CompiledSpec::bind_params`] reads only input-kind
//! relations, which `materialize` fills from those two sections).
//! Plans never consult the active domain (only the interpreter fallback
//! does, and interpreted queries are never memoized), so the section
//! epochs plus the page marker determine the result exactly.
//!
//! Epochs are assigned by content, not by `Arc` pointer, so
//! structurally equal sections reached through different allocations
//! still hit; a pointer-identity fast path (keeping the `Arc` alive to
//! prevent address reuse) makes the common same-allocation case a
//! single `HashMap` probe. Both the epoch table and the memo are
//! insert-capped: when full they stop learning, never evict — eviction
//! order would be allocation-order dependent, and a memo that silently
//! drops entries is still correct but must never change answers.

use crate::config::{PseudoConfig, SharedFacts};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use wave_relalg::{Instance, Params, PreparedQuery, Relation, Tuple};
use wave_spec::{sections, ReadProfile};

/// Insert caps keeping the tables bounded on pathological searches.
/// Hitting a cap degrades hit-rate, never correctness.
const EPOCH_CAP: usize = 1 << 17;
const MEMO_CAP: usize = 1 << 17;

/// Content-addressed epoch numbering for fact sections.
#[derive(Default)]
struct EpochTable {
    next: u64,
    /// Fast path: `Arc` address → epoch. The stored clone keeps the
    /// allocation alive, so an address can never be reused by a
    /// different section while its entry exists.
    by_ptr: HashMap<usize, (u64, SharedFacts)>,
    /// Ground truth: section content → epoch.
    by_content: HashMap<SharedFacts, u64>,
}

impl EpochTable {
    /// Epoch of a section's content. Epochs start at 1 (0 is the "not
    /// read" slot in memo keys). Returns a fresh, never-repeating epoch
    /// once the table is full — subsequent memo keys simply never match.
    fn epoch(&mut self, facts: &SharedFacts) -> u64 {
        let ptr = SharedFacts::as_ptr(facts) as usize;
        if let Some(&(e, _)) = self.by_ptr.get(&ptr) {
            return e;
        }
        let e = match self.by_content.get(facts) {
            Some(&e) => e,
            None => {
                self.next += 1;
                let e = self.next;
                if self.by_content.len() >= EPOCH_CAP {
                    return e; // full: unique throwaway epoch
                }
                self.by_content.insert(SharedFacts::clone(facts), e);
                e
            }
        };
        if self.by_ptr.len() < EPOCH_CAP {
            self.by_ptr.insert(ptr, (e, SharedFacts::clone(facts)));
        }
        e
    }
}

/// Memo key: query id plus the epochs of the sections it reads (0 for
/// sections outside its mask) and the page marker when read.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    qid: u32,
    page: u32,
    epochs: [u64; 5],
}

/// A memoized result.
enum MemoVal {
    Rows(Vec<Tuple>),
    Bool(bool),
}

/// Per-query cost roll-up, collected only when the engine is built
/// with profiling on (`wave check --profile-out`). One entry per
/// compiled query id — rules, targets and the check's property
/// components; `calls` counts memo hits and executions alike.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    pub qid: u32,
    /// Evaluations routed through the engine (hits + execs).
    pub calls: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    /// Wall time in actual plan executions (memo hits cost none).
    pub exec_ns: u64,
    /// Output rows produced by executions.
    pub rows: u64,
}

impl QueryCost {
    /// Fold `other` into `self` (same qid).
    pub fn add(&mut self, other: &QueryCost) {
        self.calls += other.calls;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.exec_ns += other.exec_ns;
        self.rows += other.rows;
    }

    /// Memo hit rate over engine-routed calls, `None` before any call.
    pub fn hit_rate(&self) -> Option<f64> {
        let probes = self.memo_hits + self.memo_misses;
        if probes == 0 {
            None
        } else {
            Some(self.memo_hits as f64 / probes as f64)
        }
    }
}

/// Per-core query engine: the delta-driven result memo over the
/// prepared queries the search hands it. Owned by `SearchCtx`; uses
/// interior mutability because the search holds the context by shared
/// reference.
pub struct QueryEngine {
    memo_enabled: bool,
    epochs: RefCell<EpochTable>,
    memo: RefCell<HashMap<MemoKey, MemoVal>>,
    memo_hits: Cell<u64>,
    memo_misses: Cell<u64>,
    /// Inserts dropped because the memo hit its cap (the memo never
    /// evicts resident entries; "eviction" in the trace-event sense).
    memo_evictions: Cell<u64>,
    /// Per-qid cost roll-ups; empty unless built with `profiled`.
    profiled: bool,
    costs: RefCell<Vec<QueryCost>>,
}

impl QueryEngine {
    /// Build the engine for one search core over `num_queries` query
    /// ids (a spec's rules and targets, then a check's property
    /// components). `memo` arms the result memo (off under
    /// `--naive-joins` and `--interpret`); `profiled` arms the per-qid
    /// cost roll-ups ([`QueryEngine::query_costs`]), which add one clock
    /// read per execution and leave answers unaffected.
    pub fn new(num_queries: usize, memo: bool, profiled: bool) -> QueryEngine {
        let mut costs = Vec::new();
        if profiled {
            costs.resize_with(num_queries, QueryCost::default);
            for (qid, c) in costs.iter_mut().enumerate() {
                c.qid = qid as u32;
            }
        }
        QueryEngine {
            memo_enabled: memo,
            epochs: RefCell::new(EpochTable::default()),
            memo: RefCell::new(HashMap::new()),
            memo_hits: Cell::new(0),
            memo_misses: Cell::new(0),
            memo_evictions: Cell::new(0),
            profiled,
            costs: RefCell::new(costs),
        }
    }

    #[inline]
    fn cost_mut(&self, qid: u32, f: impl FnOnce(&mut QueryCost)) {
        if !self.profiled {
            return;
        }
        let mut costs = self.costs.borrow_mut();
        if let Some(c) = costs.get_mut(qid as usize) {
            f(c);
        }
    }

    /// The memo key for running `reads` against `cfg`, or `None` when
    /// memoization is off.
    fn key(&self, reads: ReadProfile, cfg: &PseudoConfig) -> Option<MemoKey> {
        if !self.memo_enabled {
            return None;
        }
        let mut epochs = [0u64; 5];
        let table = &mut *self.epochs.borrow_mut();
        for (i, (bit, section)) in [
            (sections::EXT, &cfg.ext),
            (sections::INPUT, &cfg.input),
            (sections::PREV, &cfg.prev),
            (sections::STATE, &cfg.state),
            (sections::ACTIONS, &cfg.actions),
        ]
        .into_iter()
        .enumerate()
        {
            if reads.mask & bit != 0 {
                epochs[i] = table.epoch(section);
            }
        }
        let page = if reads.mask & sections::PAGE != 0 { cfg.page.0 + 1 } else { 0 };
        Some(MemoKey { qid: reads.qid, page, epochs })
    }

    /// Run a rule query, memoized on the section epochs of `cfg`. The
    /// working instance and parameter bindings are requested lazily —
    /// on a memo hit they are never needed, which lets the caller skip
    /// materializing the instance altogether.
    pub fn run_rows<'i>(
        &self,
        reads: ReadProfile,
        compiled: &PreparedQuery,
        cfg: &PseudoConfig,
        lazy: impl FnOnce() -> (&'i Instance, &'i Params),
    ) -> Result<Vec<Tuple>, wave_relalg::ExecError> {
        let key = self.key(reads, cfg);
        if let Some(key) = key {
            if let Some(MemoVal::Rows(rows)) = self.memo.borrow().get(&key) {
                self.memo_hits.set(self.memo_hits.get() + 1);
                self.cost_mut(reads.qid, |c| {
                    c.calls += 1;
                    c.memo_hits += 1;
                });
                return Ok(rows.clone());
            }
        }
        let (inst, params) = lazy();
        let rel = self.execute(reads.qid, compiled, inst, params)?;
        let rows: Vec<Tuple> = rel.iter().cloned().collect();
        if let Some(key) = key {
            self.memo_misses.set(self.memo_misses.get() + 1);
            self.cost_mut(reads.qid, |c| c.memo_misses += 1);
            let mut memo = self.memo.borrow_mut();
            if memo.len() < MEMO_CAP {
                memo.insert(key, MemoVal::Rows(rows.clone()));
            } else {
                self.memo_evictions.set(self.memo_evictions.get() + 1);
            }
        }
        Ok(rows)
    }

    /// Run a target condition or property component, memoized on the
    /// section epochs of `cfg`; `lazy` as in [`QueryEngine::run_rows`].
    pub fn run_bool<'i>(
        &self,
        reads: ReadProfile,
        compiled: &PreparedQuery,
        cfg: &PseudoConfig,
        lazy: impl FnOnce() -> (&'i Instance, &'i Params),
    ) -> Result<bool, wave_relalg::ExecError> {
        let key = self.key(reads, cfg);
        if let Some(key) = key {
            if let Some(MemoVal::Bool(b)) = self.memo.borrow().get(&key) {
                self.memo_hits.set(self.memo_hits.get() + 1);
                self.cost_mut(reads.qid, |c| {
                    c.calls += 1;
                    c.memo_hits += 1;
                });
                return Ok(*b);
            }
        }
        let (inst, params) = lazy();
        let b = !self.execute(reads.qid, compiled, inst, params)?.is_empty();
        if let Some(key) = key {
            self.memo_misses.set(self.memo_misses.get() + 1);
            self.cost_mut(reads.qid, |c| c.memo_misses += 1);
            let mut memo = self.memo.borrow_mut();
            if memo.len() < MEMO_CAP {
                memo.insert(key, MemoVal::Bool(b));
            } else {
                self.memo_evictions.set(self.memo_evictions.get() + 1);
            }
        }
        Ok(b)
    }

    fn execute(
        &self,
        qid: u32,
        compiled: &PreparedQuery,
        inst: &Instance,
        params: &Params,
    ) -> Result<Relation, wave_relalg::ExecError> {
        let t0 = if self.profiled { Some(std::time::Instant::now()) } else { None };
        let rel = compiled.run(inst, params)?;
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.cost_mut(qid, |c| {
                c.calls += 1;
                c.exec_ns += ns;
                c.rows += rel.len() as u64;
            });
        }
        Ok(rel)
    }

    /// Memo lookups that returned a cached result.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.get()
    }

    /// Memo lookups that fell through to execution (memoized runs only;
    /// disabled-memo executions count neither way).
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses.get()
    }

    /// Memo inserts dropped at the capacity cap (see the field docs —
    /// the memo never evicts resident entries).
    pub fn memo_evictions(&self) -> u64 {
        self.memo_evictions.get()
    }

    /// Per-qid cost roll-ups with at least one engine-routed call.
    /// Empty unless built with `profiled` on.
    pub fn query_costs(&self) -> Vec<QueryCost> {
        self.costs.borrow().iter().filter(|c| c.calls > 0).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{canonicalize, core_instance, no_facts, Facts};
    use std::sync::Arc;
    use wave_relalg::Value;
    use wave_spec::{parse_spec, CompiledRule, CompiledSpec, PageId, RuleExec};

    fn spec() -> CompiledSpec {
        CompiledSpec::compile(
            parse_spec(
                r#"
            spec memo {
              database { item(i); }
              state { seen(i); }
              inputs { pick(x); }
              home P;
              page P {
                inputs { pick }
                options pick(x) <- item(x);
                insert seen(x) <- pick(x);
                target P <- exists x: seen(x);
              }
            }
        "#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn fact(spec: &CompiledSpec, rel: &str, vals: &[u32]) -> (wave_relalg::RelId, Tuple) {
        (
            spec.schema.lookup(rel).unwrap(),
            Tuple::from(vals.iter().map(|&v| Value(v)).collect::<Vec<_>>()),
        )
    }

    fn option_rule(spec: &CompiledSpec) -> &CompiledRule {
        &spec.page(PageId(0)).option_rules[0]
    }

    fn run(
        engine: &QueryEngine,
        spec: &CompiledSpec,
        base: &Instance,
        cfg: &PseudoConfig,
    ) -> Vec<Tuple> {
        let rule = option_rule(spec);
        let RuleExec::Plan(q) = &rule.exec else { panic!("option rule compiles to a plan") };
        let inst = cfg.materialize(spec, base);
        let params = spec.bind_params(&inst);
        engine.run_rows(rule.reads, q, cfg, || (&inst, &params)).unwrap()
    }

    #[test]
    fn unchanged_sections_hit_even_across_allocations() {
        let s = spec();
        let core: Facts = vec![fact(&s, "item", &[1]), fact(&s, "item", &[2])];
        let base = core_instance(&s, &core);
        let engine = QueryEngine::new(s.num_queries as usize, true, false);

        let mut cfg = PseudoConfig::initial(PageId(0));
        cfg.state = Arc::new(canonicalize(vec![fact(&s, "seen", &[1])]));
        let first = run(&engine, &s, &base, &cfg);
        assert_eq!(engine.memo_misses(), 1);
        assert_eq!(engine.memo_hits(), 0);

        // Same Arc: pointer fast path.
        let again = run(&engine, &s, &base, &cfg);
        assert_eq!(again, first);
        assert_eq!(engine.memo_hits(), 1);

        // Equal content behind a different allocation still hits.
        let mut cfg2 = PseudoConfig::initial(PageId(0));
        cfg2.state = Arc::new(canonicalize(vec![fact(&s, "seen", &[1])]));
        assert!(!Arc::ptr_eq(&cfg.state, &cfg2.state));
        let third = run(&engine, &s, &base, &cfg2);
        assert_eq!(third, first);
        assert_eq!(engine.memo_hits(), 2);
        assert_eq!(engine.memo_misses(), 1);
    }

    #[test]
    fn changed_read_section_re_runs_unrelated_change_hits() {
        let s = spec();
        let core: Facts = vec![fact(&s, "item", &[1])];
        let base = core_instance(&s, &core);
        let engine = QueryEngine::new(s.num_queries as usize, true, false);
        let rule = option_rule(&s);
        // The option rule reads only the database extension; state is
        // outside its mask.
        assert_eq!(rule.reads.mask & wave_spec::sections::STATE, 0);
        assert_ne!(rule.reads.mask & wave_spec::sections::EXT, 0);

        let cfg = PseudoConfig::initial(PageId(0));
        let baseline = run(&engine, &s, &base, &cfg);
        assert_eq!(engine.memo_misses(), 1);

        // Mutating a section the rule does NOT read must hit the memo.
        let mut unrelated = PseudoConfig::initial(PageId(0));
        unrelated.state = Arc::new(canonicalize(vec![fact(&s, "seen", &[1])]));
        assert_eq!(run(&engine, &s, &base, &unrelated), baseline);
        assert_eq!(engine.memo_hits(), 1, "state change is invisible to the option rule");

        // Mutating a section it DOES read must re-run with the new data.
        let mut related = PseudoConfig::initial(PageId(0));
        related.ext = Arc::new(canonicalize(vec![fact(&s, "item", &[7])]));
        let widened = run(&engine, &s, &base, &related);
        assert_eq!(engine.memo_misses(), 2, "ext change must re-execute");
        assert_ne!(widened, baseline);
        assert!(widened.contains(&Tuple::from([Value(7)])));
    }

    #[test]
    fn disabled_engine_does_not_memoize() {
        let s = spec();
        let base = core_instance(&s, &vec![fact(&s, "item", &[1])]);
        let engine = QueryEngine::new(s.num_queries as usize, false, false);
        let cfg = PseudoConfig { input: no_facts(), ..PseudoConfig::initial(PageId(0)) };
        let a = run(&engine, &s, &base, &cfg);
        let b = run(&engine, &s, &base, &cfg);
        assert_eq!(a, b);
        assert_eq!(engine.memo_hits(), 0);
        assert_eq!(engine.memo_misses(), 0);
    }
}
