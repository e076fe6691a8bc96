//! The state store of the nested depth-first search.
//!
//! A [`StateStore`] holds what the search keeps for one work unit: the
//! hash-consed [`ConfigStore`] arena, where a configuration interns once
//! to a dense [`ConfigId`], and the visited set over packed
//! `(ConfigId, automaton state)` pair keys ([`VisitTable::key`]) with
//! their stick/candy marks. [`StateStoreKind`] picks where the marks
//! live:
//!
//! * [`StateStoreKind::Interned`] — in memory, in the flat
//!   [`VisitTable`]. This is the default.
//! * [`StateStoreKind::Tiered`] — in `wave-store`'s [`TieredVisits`]
//!   (Bloom front → clock hot tier → sorted spill segments) under a
//!   byte budget, so searches whose visited set outgrows RAM spill to
//!   disk instead of dying. See DESIGN.md §10.
//!
//! Keys, interning and traversal order are the same either way, so
//! verdicts and the deterministic stats columns are byte-identical
//! across the two (pinned by `tests/store_tiered.rs` and
//! `crates/core/tests/prop_oracle.rs`). [`StateStore::intern`] returns
//! the arena's canonical copy of a configuration, whose sections are
//! shared `Arc`s, so callers that retain it (path steps, successor
//! caches) deduplicate storage for free.

use crate::config::PseudoConfig;
use crate::intern::{ConfigId, ConfigStore};
use crate::trie::{Phase, VisitTable};
use std::io;
use std::path::PathBuf;
use wave_store::{ByteReader, ByteWriter, TierConfig, TierCounters, TieredVisits};

/// Sizing knobs of the tiered visited set (a subset of
/// [`wave_store::TierConfig`] — the segment-merge fanout stays an
/// internal constant so verdict-relevant options stay small).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierParams {
    /// Hot-tier byte budget.
    pub mem_bytes: u64,
    /// Parent directory for spill files; `None` = system temp dir.
    /// Each store spills into its own private subdirectory underneath,
    /// removed on drop — concurrent searches may share one parent.
    pub spill_dir: Option<PathBuf>,
}

impl Default for TierParams {
    fn default() -> TierParams {
        TierParams { mem_bytes: 64 << 20, spill_dir: None }
    }
}

/// Where a search keeps its visited marks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum StateStoreKind {
    /// In memory, in the flat [`VisitTable`].
    #[default]
    Interned,
    /// In the tiered out-of-core visited set.
    Tiered(TierParams),
}

/// The state one NDFS runs over. One store serves all cores of one
/// work unit; [`StateStore::clear_visits`] resets the visited set
/// between cores while interned ids stay valid for the store's lifetime.
#[derive(Debug)]
pub struct StateStore {
    arena: ConfigStore,
    visits: Visits,
}

/// The two homes of the visited marks.
#[derive(Debug)]
enum Visits {
    Table(VisitTable),
    Tiered(Box<TieredVisits>),
}

impl StateStore {
    /// An empty store whose visited set lives where `kind` says. Fails
    /// when the tiered set cannot create its spill directory — a store
    /// that cannot spill cannot honor its memory budget.
    pub fn new(kind: &StateStoreKind) -> io::Result<StateStore> {
        let visits = match kind {
            StateStoreKind::Interned => Visits::Table(VisitTable::new()),
            StateStoreKind::Tiered(params) => {
                let config = TierConfig {
                    mem_bytes: usize::try_from(params.mem_bytes).unwrap_or(usize::MAX),
                    spill_dir: params.spill_dir.clone(),
                    ..TierConfig::default()
                };
                let visits = TieredVisits::new(config).map_err(|e| {
                    io::Error::new(e.kind(), format!("tiered store: cannot create spill dir: {e}"))
                })?;
                Visits::Tiered(Box::new(visits))
            }
        };
        Ok(StateStore { arena: ConfigStore::new(), visits })
    }

    /// Intern a configuration, returning its id and canonical form.
    pub fn intern(&mut self, cfg: &PseudoConfig) -> (ConfigId, PseudoConfig) {
        let id = self.arena.intern(cfg);
        (id, self.arena.config(id))
    }

    /// Mark a pair key visited in `phase`; true when it already was.
    #[inline]
    pub fn mark(&mut self, key: u64, phase: Phase) -> bool {
        match &mut self.visits {
            Visits::Table(t) => t.mark(key, phase),
            Visits::Tiered(t) => t.mark(key, phase.mask()),
        }
    }

    /// Is a pair key marked for `phase`?
    #[inline]
    pub fn is_marked(&self, key: u64, phase: Phase) -> bool {
        match &self.visits {
            Visits::Table(t) => t.is_marked(key, phase),
            Visits::Tiered(t) => t.is_marked(key, phase.mask()),
        }
    }

    /// Reset the visited set (between cores), keeping the historic max.
    pub fn clear_visits(&mut self) {
        match &mut self.visits {
            Visits::Table(t) => t.clear(),
            Visits::Tiered(t) => t.clear(),
        }
    }

    /// Maximum number of *distinct* visited pairs between clears (the
    /// paper's "Max. trie size" column) — resident and spilled pairs
    /// together; see [`StateStore::visited_breakdown`] for the split.
    pub fn max_visited(&self) -> usize {
        match &self.visits {
            Visits::Table(t) => t.max_len(),
            Visits::Tiered(t) => t.max_distinct(),
        }
    }

    /// `(max resident, max spilled)` high-water marks. The in-memory
    /// table keeps everything resident; the tiered set reports its
    /// hot-tier occupancy peak and on-disk entry peak separately (the
    /// spilled count includes duplicate copies across segments, so the
    /// two need not sum to [`StateStore::max_visited`]).
    pub fn visited_breakdown(&self) -> (usize, usize) {
        match &self.visits {
            Visits::Table(t) => (t.max_len(), 0),
            Visits::Tiered(t) => (t.max_resident(), t.max_spilled()),
        }
    }

    /// Spill/compaction/Bloom event counters (all zero in memory).
    pub fn tier_counters(&self) -> TierCounters {
        match &self.visits {
            Visits::Table(_) => TierCounters::default(),
            Visits::Tiered(t) => t.counters(),
        }
    }

    /// Wall time spent in (segment writes, merge compactions), ns.
    /// Zero in memory; profiler diagnostics only, not part of the
    /// deterministic counter contract.
    pub fn spill_timers(&self) -> (u64, u64) {
        match &self.visits {
            Visits::Table(_) => (0, 0),
            Visits::Tiered(t) => t.spill_timers(),
        }
    }

    /// Interner (hits, misses) counters since construction.
    pub fn intern_counters(&self) -> (u64, u64) {
        let s = self.arena.stats();
        (s.config_hits, s.config_misses)
    }

    /// Serialize the intern arena into a checkpoint payload. Visited
    /// marks are *not* part of it: checkpoints happen at core
    /// boundaries, where the visited set is empty by construction.
    pub fn save_state(&self, w: &mut ByteWriter) {
        self.arena.serialize(w);
    }

    /// Restore [`StateStore::save_state`] output; false on a corrupt
    /// payload. Must be called on a freshly built store.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> bool {
        match ConfigStore::deserialize(r) {
            Some(arena) => {
                self.arena = arena;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::no_facts;
    use std::sync::Arc;
    use wave_relalg::{RelId, Tuple, Value};
    use wave_spec::PageId;

    fn cfg(page: u32, vals: &[u32]) -> PseudoConfig {
        let mut c = PseudoConfig::initial(PageId(page));
        c.state =
            Arc::new(vals.iter().map(|&v| (RelId(0), Tuple::from([Value(v)]))).collect::<Vec<_>>());
        c
    }

    fn store(kind: StateStoreKind) -> StateStore {
        StateStore::new(&kind).expect("store builds")
    }

    fn tiered(mem_bytes: u64) -> StateStore {
        store(StateStoreKind::Tiered(TierParams { mem_bytes, spill_dir: None }))
    }

    /// Both visited sets implement the same semantics.
    fn exercise(mut s: StateStore) {
        let (ka, ca) = s.intern(&cfg(0, &[1]));
        let (kb, _) = s.intern(&cfg(0, &[2]));
        assert_eq!(ca, cfg(0, &[1]), "canonical config is structurally equal");
        let (ka2, _) = s.intern(&cfg(0, &[1]));
        assert_eq!(ka, ka2, "equal configs key equally");
        assert_ne!(ka, kb);

        let pa0 = VisitTable::key(ka, 0);
        let pa1 = VisitTable::key(ka, 1);

        assert!(!s.mark(pa0, Phase::Stick));
        assert!(s.mark(pa0, Phase::Stick));
        assert!(!s.is_marked(pa0, Phase::Candy));
        assert!(!s.mark(pa1, Phase::Stick));
        assert_eq!(s.max_visited(), 2);
        s.clear_visits();
        assert!(!s.is_marked(pa0, Phase::Stick));
        assert!(!s.mark(pa0, Phase::Stick), "keys survive clear_visits");
        assert_eq!(s.max_visited(), 2, "historic max survives clear");
    }

    #[test]
    fn interned_store_semantics() {
        exercise(store(StateStoreKind::Interned));
    }

    #[test]
    fn tiered_store_semantics() {
        exercise(store(StateStoreKind::Tiered(TierParams::default())));
        // and again with a budget small enough that everything spills
        exercise(tiered(0));
    }

    #[test]
    fn unusable_spill_dir_is_an_error() {
        let file = std::env::temp_dir().join(format!("wave-spill-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let kind =
            StateStoreKind::Tiered(TierParams { mem_bytes: 0, spill_dir: Some(file.clone()) });
        let err = StateStore::new(&kind).expect_err("a regular file cannot hold spill segments");
        std::fs::remove_file(&file).unwrap();
        assert!(err.to_string().starts_with("tiered store: cannot create spill dir: "), "{err}");
    }

    #[test]
    fn tiered_breakdown_separates_resident_from_spilled() {
        let mut s = tiered(0);
        // 64-slot floor -> 48-entry ceiling; 300 pairs must spill
        let (key, _) = s.intern(&cfg(0, &[1]));
        for auto_state in 0..300 {
            assert!(!s.mark(VisitTable::key(key, auto_state), Phase::Stick));
        }
        assert_eq!(s.max_visited(), 300, "distinct count spans both tiers");
        let (resident, spilled) = s.visited_breakdown();
        assert!(resident <= 48, "resident bounded by the budget: {resident}");
        assert!(spilled > 0, "overflow went to disk");
        assert!(s.tier_counters().spill_segments > 0);
        let interned = store(StateStoreKind::Interned);
        assert_eq!(interned.visited_breakdown(), (0, 0), "the table keeps everything resident");
    }

    #[test]
    fn intern_counters_count_repeats_as_hits() {
        for kind in [StateStoreKind::Interned, StateStoreKind::Tiered(TierParams::default())] {
            let mut s = store(kind);
            assert_eq!(s.intern_counters(), (0, 0));
            s.intern(&cfg(0, &[1]));
            s.intern(&cfg(0, &[2]));
            s.intern(&cfg(0, &[1]));
            assert_eq!(s.intern_counters(), (1, 2), "(hits, misses)");
            s.clear_visits();
            assert_eq!(s.intern_counters(), (1, 2), "clearing the visits keeps the arena");
        }
    }

    #[test]
    fn in_memory_store_reports_no_tier_activity() {
        let mut s = store(StateStoreKind::Interned);
        let (key, _) = s.intern(&cfg(0, &[1]));
        for auto_state in 0..300 {
            s.mark(VisitTable::key(key, auto_state), Phase::Stick);
        }
        assert_eq!(s.tier_counters(), TierCounters::default());
        assert_eq!(s.spill_timers(), (0, 0));
        assert_eq!(s.visited_breakdown(), (300, 0), "everything stays resident");
    }

    #[test]
    fn save_state_round_trips_the_arena() {
        let mut s = store(StateStoreKind::Tiered(TierParams::default()));
        let (ka, _) = s.intern(&cfg(0, &[1]));
        let (kb, _) = s.intern(&cfg(1, &[2, 3]));
        let mut w = ByteWriter::new();
        s.save_state(&mut w);
        let buf = w.into_inner();

        let mut fresh = store(StateStoreKind::Tiered(TierParams::default()));
        assert!(fresh.load_state(&mut ByteReader::new(&buf)));
        let (ka2, _) = fresh.intern(&cfg(0, &[1]));
        let (kb2, _) = fresh.intern(&cfg(1, &[2, 3]));
        assert_eq!((ka, kb), (ka2, kb2), "ids survive the round trip");
        assert!(!fresh.load_state(&mut ByteReader::new(&buf[..3])), "corrupt payload");

        let mut interned = store(StateStoreKind::Interned);
        interned.intern(&cfg(0, &[9]));
        let mut w = ByteWriter::new();
        interned.save_state(&mut w);
        let buf = w.into_inner();
        let mut fresh = store(StateStoreKind::Interned);
        assert!(fresh.load_state(&mut ByteReader::new(&buf)));
        assert_eq!(fresh.intern_counters(), interned.intern_counters());
    }

    #[test]
    fn interned_store_dedups_storage() {
        let mut s = store(StateStoreKind::Interned);
        let (_, a) = s.intern(&cfg(0, &[5]));
        let (_, b) = s.intern(&cfg(1, &[5]));
        assert!(Arc::ptr_eq(&a.state, &b.state), "hash-consed sections share");
        assert!(Arc::ptr_eq(&a.ext, &no_facts()) || a.ext.is_empty());
        let (hits, misses) = s.intern_counters();
        assert_eq!((hits, misses), (0, 2));
        s.intern(&cfg(0, &[5]));
        assert_eq!(s.intern_counters(), (1, 2));
    }
}
