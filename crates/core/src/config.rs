//! Pseudoconfigurations: the partially specified configurations explored by
//! the `ndfs-pseudo` search (Section 3.1 of the paper).
//!
//! A pseudoconfiguration `⟨D, V, I, P, S, A⟩` carries the current page,
//! the database *extension* (the core is fixed per search and therefore
//! not stored per configuration), the current and previous inputs, the
//! state relations (ground tuples over `C` only) and the actions taken.
//!
//! Configurations are stored in canonical form (sorted tuple lists), which
//! gives structural equality. Each fact section is held behind an `Arc`,
//! so `succP` successors that leave a section unchanged (the common case:
//! every successor of one expansion shares its previous-input and state
//! sections) share it copy-on-write instead of deep-cloning — see
//! [`crate::intern`] for the hash-consing layer that extends the sharing
//! across equal (not just same-origin) sections.

use std::sync::Arc;
use wave_relalg::{Instance, RelId, Tuple};
use wave_spec::{CompiledSpec, PageId};

/// A canonical list of `(relation, tuple)` facts.
pub type Facts = Vec<(RelId, Tuple)>;

/// Sort and deduplicate facts into canonical order.
pub fn canonicalize(mut facts: Facts) -> Facts {
    facts.sort_unstable();
    facts.dedup();
    facts
}

/// A shared, canonical fact list (cheap to clone).
pub type SharedFacts = Arc<Facts>;

/// The shared empty fact list (`Vec::new` does not allocate, but the
/// `Arc` control block does — share one for the very common empty case).
pub fn no_facts() -> SharedFacts {
    static EMPTY: std::sync::OnceLock<SharedFacts> = std::sync::OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

/// A pseudoconfiguration (the core is held by the enclosing search).
///
/// Equality and hashing are structural (the `Arc`s dereference); clones
/// share the fact sections.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PseudoConfig {
    pub page: PageId,
    /// Extension tuples (database relations beyond the core).
    pub ext: SharedFacts,
    /// Current input (at most one tuple per input relation).
    pub input: SharedFacts,
    /// Previous input.
    pub prev: SharedFacts,
    /// State tuples (ground over `C`).
    pub state: SharedFacts,
    /// Action tuples emitted this step (ground over `C`).
    pub actions: SharedFacts,
}

impl PseudoConfig {
    /// The start-of-run configuration shell for `page` (empty state, no
    /// inputs yet): callers fill in `ext`, `input` and `actions`.
    pub fn initial(page: PageId) -> Self {
        PseudoConfig {
            page,
            ext: no_facts(),
            input: no_facts(),
            prev: no_facts(),
            state: no_facts(),
            actions: no_facts(),
        }
    }

    /// Materialize this configuration (plus the fixed `core`) into a fresh
    /// working instance for rule evaluation. `base` must be an instance
    /// holding exactly the core tuples (it is cloned, not mutated).
    pub fn materialize(&self, spec: &CompiledSpec, base: &Instance) -> Instance {
        let mut inst = base.clone();
        for (rel, t) in self
            .ext
            .iter()
            .chain(self.input.iter())
            .chain(self.prev.iter())
            .chain(self.state.iter())
            .chain(self.actions.iter())
        {
            inst.insert(*rel, t.clone());
        }
        inst.insert(spec.page(self.page).marker, Tuple::from([]));
        inst
    }
}

/// Build the base instance holding the core tuples only.
pub fn core_instance(spec: &CompiledSpec, core: &Facts) -> Instance {
    let mut inst = Instance::empty(Arc::clone(&spec.schema));
    for (rel, t) in core {
        inst.insert(*rel, t.clone());
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_relalg::Value;
    use wave_spec::{parse_spec, CompiledSpec};

    fn spec() -> CompiledSpec {
        CompiledSpec::compile(
            parse_spec(
                r#"
            spec s {
              database { db(a, b); }
              state { st(a); }
              action { act(a); }
              inputs { pick(x); }
              home P;
              page P {
                inputs { pick }
                options pick(x) <- exists y: db(x, y);
                insert st(x) <- pick(x);
                action act(x) <- pick(x);
                target P <- true;
              }
            }
        "#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn fact(spec: &CompiledSpec, rel: &str, vals: &[u32]) -> (RelId, Tuple) {
        (
            spec.schema.lookup(rel).unwrap(),
            Tuple::from(vals.iter().map(|&v| Value(v)).collect::<Vec<_>>()),
        )
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let s = spec();
        let facts = canonicalize(vec![
            fact(&s, "db", &[2, 2]),
            fact(&s, "db", &[1, 1]),
            fact(&s, "db", &[2, 2]),
        ]);
        assert_eq!(facts.len(), 2);
        assert!(facts[0].1 < facts[1].1);
    }

    #[test]
    fn equal_configs_equal_keys() {
        // canonical form makes fact order irrelevant all the way to the
        // interned id, and so to the visited-set key
        let s = spec();
        let mut a = PseudoConfig::initial(PageId(0));
        a.state = Arc::new(canonicalize(vec![fact(&s, "st", &[3]), fact(&s, "st", &[1])]));
        let mut b = PseudoConfig::initial(PageId(0));
        b.state = Arc::new(canonicalize(vec![fact(&s, "st", &[1]), fact(&s, "st", &[3])]));
        assert_eq!(a, b);
        let mut store = crate::intern::ConfigStore::new();
        let (ia, ib) = (store.intern(&a), store.intern(&b));
        assert_eq!(ia, ib);
        assert_eq!(crate::trie::VisitTable::key(ia, 5), crate::trie::VisitTable::key(ib, 5));
    }

    #[test]
    fn clones_share_sections() {
        let s = spec();
        let mut a = PseudoConfig::initial(PageId(0));
        a.state = Arc::new(vec![fact(&s, "st", &[1])]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.state, &b.state), "clone is copy-on-write");
    }

    #[test]
    fn materialize_includes_core_config_and_marker() {
        let s = spec();
        let core = vec![fact(&s, "db", &[10, 11])];
        let base = core_instance(&s, &core);
        let mut c = PseudoConfig::initial(PageId(0));
        c.ext = Arc::new(vec![fact(&s, "db", &[20, 21])]);
        c.state = Arc::new(vec![fact(&s, "st", &[10])]);
        let inst = c.materialize(&s, &base);
        let db = s.schema.lookup("db").unwrap();
        let st = s.schema.lookup("st").unwrap();
        let marker = s.schema.lookup("page$P").unwrap();
        assert_eq!(inst.rel(db).len(), 2);
        assert_eq!(inst.rel(st).len(), 1);
        assert!(!inst.rel(marker).is_empty());
        // base untouched
        assert_eq!(base.rel(db).len(), 1);
    }
}
