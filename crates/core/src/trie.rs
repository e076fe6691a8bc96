//! The in-memory visited set of the nested depth-first search.
//!
//! The paper keeps visited search nodes in a byte trie (Section 4: "The
//! visited configurations are then stored in a trie data structure which
//! allows updates and membership tests in time linear in the size of the
//! bitmap"). Once configurations are interned (see [`crate::intern`]), a
//! search node is just a `(u32 config id, u32 automaton state)` pair, so
//! [`VisitTable`] is a flat hash table over packed `u64` keys instead —
//! no per-visit serialization, no per-byte trie walk.
//!
//! Each key carries two marks — the `0` (stick) and `1` (candy) flags of
//! the nested depth-first search — and the table reports the statistic
//! the paper's experiments table records: the maximum number of keys
//! resident (its "Max. trie size" column). `wave-store`'s tiered set
//! implements the same semantics out of core (see [`crate::store`]).
//!
//! The table and the search's per-configuration cache hash with
//! [`MixState`] rather than std's SipHash: their keys are ids the store
//! assigns, never client input, so a fixed splitmix64 finalizer
//! suffices.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Which search phase marked the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The outer search (flag `0` in the paper's pseudocode).
    Stick,
    /// The nested search (flag `1`).
    Candy,
}

impl Phase {
    pub(crate) fn mask(self) -> u8 {
        match self {
            Phase::Stick => 0b01,
            Phase::Candy => 0b10,
        }
    }
}

/// A [`Hasher`] for store-assigned keys: each word is folded in with
/// `wave-store`'s splitmix64 finalizer ([`wave_store::mix64`]). The
/// finalizer mixes the high bits into the low ones, which matters
/// because hashbrown picks the bucket from the low bits: under a bare
/// multiply, the low half of a packed `(config id, state)` key's hash
/// would depend on the automaton state alone. Byte slices fold in eight
/// bytes at a time.
#[derive(Clone, Copy, Debug, Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = wave_store::mix64(self.0 ^ n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`std::hash::BuildHasher`] of [`MixHasher`].
pub type MixState = BuildHasherDefault<MixHasher>;

/// A visited set over interned search nodes: `(config id, automaton
/// state)` pairs packed into `u64` keys, two phase marks per key. The
/// historical maximum survives [`VisitTable::clear`], so it reports the
/// paper's "Max. trie size" across the cores of a unit.
#[derive(Debug, Default)]
pub struct VisitTable {
    marks: HashMap<u64, u8, MixState>,
    max_keys: usize,
}

impl VisitTable {
    /// Empty table.
    pub fn new() -> Self {
        VisitTable::default()
    }

    /// Pack a `(config id, automaton state)` search node into a key.
    #[inline]
    pub fn key(config: crate::intern::ConfigId, auto_state: usize) -> u64 {
        (u64::from(config.0) << 32) | auto_state as u64
    }

    /// Remove all keys but remember the historical maximum.
    pub fn clear(&mut self) {
        self.marks.clear();
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// True when no key is stored.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// Largest number of keys ever resident (across `clear`s).
    pub fn max_len(&self) -> usize {
        self.max_keys
    }

    /// Mark `key` as visited in `phase`. Returns `true` if it was already
    /// marked for that phase (i.e. the search can prune).
    pub fn mark(&mut self, key: u64, phase: Phase) -> bool {
        let slot = self.marks.entry(key).or_insert(0);
        let was_marked = *slot & phase.mask() != 0;
        *slot |= phase.mask();
        self.max_keys = self.max_keys.max(self.marks.len());
        was_marked
    }

    /// Is `key` marked for `phase`?
    pub fn is_marked(&self, key: u64, phase: Phase) -> bool {
        self.marks.get(&key).is_some_and(|m| m & phase.mask() != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::ConfigId;

    #[test]
    fn table_mark_reports_prior_state() {
        let mut t = VisitTable::new();
        let k = VisitTable::key(ConfigId(7), 3);
        assert!(!t.mark(k, Phase::Stick));
        assert!(t.mark(k, Phase::Stick));
        assert!(!t.mark(k, Phase::Candy), "phases are independent");
        assert!(t.is_marked(k, Phase::Candy));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn table_keys_separate_config_and_state() {
        let a = VisitTable::key(ConfigId(1), 2);
        let b = VisitTable::key(ConfigId(2), 1);
        let c = VisitTable::key(ConfigId(1), 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn table_clear_resets_but_max_persists() {
        let mut t = VisitTable::new();
        for i in 0..10 {
            t.mark(VisitTable::key(ConfigId(i), 0), Phase::Stick);
        }
        assert_eq!(t.max_len(), 10);
        t.clear();
        assert_eq!(t.len(), 0);
        t.mark(VisitTable::key(ConfigId(0), 0), Phase::Stick);
        assert_eq!(t.max_len(), 10, "historic max survives clear");
    }

    #[test]
    fn fresh_keys_are_unmarked() {
        let t = VisitTable::new();
        let k = VisitTable::key(ConfigId(3), 1);
        assert!(!t.is_marked(k, Phase::Stick));
        assert!(!t.is_marked(k, Phase::Candy));
        assert!(t.is_empty(), "probing does not insert");
        assert_eq!(t.max_len(), 0);
    }

    #[test]
    fn mark_reports_prior_state() {
        let mut t = VisitTable::new();
        let k = VisitTable::key(ConfigId(2), 5);
        assert!(!t.mark(k, Phase::Candy));
        assert!(t.mark(k, Phase::Candy));
        assert!(t.mark(k, Phase::Candy), "a mark is never taken back");
        assert_eq!((t.len(), t.max_len()), (1, 1), "re-marking does not re-count the key");
    }

    #[test]
    fn phases_are_independent() {
        let mut t = VisitTable::new();
        let k = VisitTable::key(ConfigId(4), 0);
        t.mark(k, Phase::Candy);
        assert!(!t.is_marked(k, Phase::Stick), "a candy mark is not a stick mark");
        assert!(!t.mark(k, Phase::Stick));
        assert!(t.is_marked(k, Phase::Stick) && t.is_marked(k, Phase::Candy));
        assert_eq!(t.len(), 1, "same key, both phases: one key");
    }

    #[test]
    fn prefix_keys_are_distinct() {
        // keys sharing their config half (the high word) or their state
        // half (the low word) are distinct entries
        let mut t = VisitTable::new();
        t.mark(VisitTable::key(ConfigId(1), 2), Phase::Stick);
        for (c, s) in [(1, 0), (1, 1), (1, 3), (0, 2), (2, 2), (2, 1)] {
            assert!(!t.is_marked(VisitTable::key(ConfigId(c), s), Phase::Stick), "({c}, {s})");
        }
        t.mark(VisitTable::key(ConfigId(1), 1), Phase::Stick);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_key_is_a_valid_key() {
        // the first interned config in automaton state 0 packs to key 0,
        // and the last id in the last 32-bit state to u64::MAX
        let (first, last) =
            (VisitTable::key(ConfigId(0), 0), VisitTable::key(ConfigId(u32::MAX), 0xffff_ffff));
        assert_eq!((first, last), (0, u64::MAX));
        let mut t = VisitTable::new();
        assert!(!t.mark(first, Phase::Candy));
        assert!(t.is_marked(first, Phase::Candy));
        assert!(!t.mark(last, Phase::Stick));
        assert!(t.is_marked(last, Phase::Stick));
        assert!(!t.is_marked(first, Phase::Stick) && !t.is_marked(last, Phase::Candy));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clear_resets_but_max_persists() {
        let mut t = VisitTable::new();
        let keys: Vec<u64> = (0..10).map(|s| VisitTable::key(ConfigId(1), s)).collect();
        for &k in &keys {
            t.mark(k, Phase::Stick);
            t.mark(k, Phase::Candy);
        }
        t.clear();
        for &k in &keys {
            assert!(!t.is_marked(k, Phase::Stick) && !t.is_marked(k, Phase::Candy));
        }
        // a later, larger core raises the historic max past the old one
        for s in 0..12 {
            assert!(!t.mark(VisitTable::key(ConfigId(2), s), Phase::Stick));
        }
        assert_eq!((t.len(), t.max_len()), (12, 12));
    }

    #[test]
    fn many_keys_round_trip() {
        // enough keys, spread over both halves, to force several resizes
        let keys: Vec<u64> =
            (0..500u32).map(|i| VisitTable::key(ConfigId(i / 7), (i % 7) as usize)).collect();
        let mut t = VisitTable::new();
        for &k in &keys {
            assert!(!t.mark(k, Phase::Stick));
        }
        for &k in &keys {
            assert!(t.is_marked(k, Phase::Stick));
            assert!(!t.is_marked(k, Phase::Candy));
        }
        assert_eq!((t.len(), t.max_len()), (500, 500));
    }

    #[test]
    fn mix_hasher_spreads_packed_keys_over_the_low_bits() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let state = MixState::default();
        // hashbrown buckets by the low bits: both halves of a packed key
        // must reach them (a bare multiply keeps the config half out)
        let low12 = |keys: Vec<u64>| {
            keys.into_iter().map(|k| state.hash_one(k) & 0xfff).collect::<HashSet<_>>().len()
        };
        let by_config = low12((0..4096).map(|i| VisitTable::key(ConfigId(i), 3)).collect());
        let by_state = low12((0..4096).map(|s| VisitTable::key(ConfigId(7), s)).collect());
        assert!(by_config >= 2048, "config ids collapse: {by_config} distinct low-12 values");
        assert!(by_state >= 2048, "states collapse: {by_state} distinct low-12 values");
    }

    #[test]
    fn mix_hasher_separates_byte_keys_differing_in_the_last_byte() {
        use std::hash::BuildHasher;
        let state = MixState::default();
        for len in 1..=24u8 {
            let a: Vec<u8> = (0..len).collect();
            let mut b = a.clone();
            *b.last_mut().unwrap() ^= 0x80;
            assert_ne!(state.hash_one(&a), state.hash_one(&b), "length {len}");
        }
    }
}
