//! Visited sets for the nested depth-first search.
//!
//! Two implementations, one per state-store backend:
//!
//! * [`VisitTrie`] — the paper's data structure (Section 4: "The visited
//!   configurations are then stored in a trie data structure which allows
//!   updates and membership tests in time linear in the size of the
//!   bitmap"). Keys are the canonical byte encodings of `(automaton
//!   state, pseudoconfiguration)` pairs. Kept as the byte-key ablation
//!   baseline.
//! * [`VisitTable`] — the hash-consed replacement: once configurations
//!   are interned (see [`crate::intern`]), a search node is just a
//!   `(u32 config id, u32 automaton state)` pair, and the visited set is
//!   a flat hash table over packed `u64` keys — no per-visit
//!   serialization, no per-byte trie walk.
//!
//! Each key carries two marks — the `0` (stick) and `1` (candy) flags of
//! the nested depth-first search — and both structures report the
//! statistic the paper's experiments table records: the maximum number of
//! keys resident (its "Max. trie size" column).
//!
//! The table and the search's per-configuration cache hash with
//! [`MixState`] rather than std's SipHash: their keys are ids the store
//! assigns (encodings of generated configurations, under the byte-key
//! backend), never client input, so a fixed splitmix64 finalizer
//! suffices.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A byte-trie with two boolean marks per key.
#[derive(Debug)]
pub struct VisitTrie {
    nodes: Vec<Node>,
    keys: usize,
    max_keys: usize,
}

#[derive(Debug, Default)]
struct Node {
    /// Sorted (byte, child index) pairs — keys are short, branching is low.
    children: Vec<(u8, u32)>,
    /// Bit 0: stick-visited; bit 1: candy-visited; bit 2: key present.
    marks: u8,
}

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

impl Default for VisitTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl VisitTrie {
    /// Empty trie.
    pub fn new() -> Self {
        VisitTrie { nodes: vec![Node::default()], keys: 0, max_keys: 0 }
    }

    /// Remove all keys but remember the historical maximum.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::default());
        self.keys = 0;
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.keys
    }

    /// True when no key is stored.
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Largest number of keys ever resident (across `clear`s).
    pub fn max_len(&self) -> usize {
        self.max_keys
    }

    /// Number of trie nodes (memory diagnostic).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn descend(&mut self, key: &[u8]) -> usize {
        let mut cur = 0usize;
        for &b in key {
            cur = match self.nodes[cur].children.binary_search_by_key(&b, |&(c, _)| c) {
                Ok(i) => self.nodes[cur].children[i].1 as usize,
                Err(i) => {
                    let next = self.nodes.len();
                    self.nodes.push(Node::default());
                    self.nodes[cur].children.insert(i, (b, next as u32));
                    next
                }
            };
        }
        cur
    }

    /// Mark `key` as visited in `phase`. Returns `true` if it was already
    /// marked for that phase (i.e. the search can prune).
    pub fn mark(&mut self, key: &[u8], phase: Phase) -> bool {
        let node = self.descend(key);
        let n = &mut self.nodes[node];
        let was_key = n.marks & 0b100 != 0;
        let was_marked = n.marks & phase.mask() != 0;
        n.marks |= 0b100 | phase.mask();
        if !was_key {
            self.keys += 1;
            self.max_keys = self.max_keys.max(self.keys);
        }
        was_marked
    }

    /// Is `key` marked for `phase`?
    pub fn is_marked(&self, key: &[u8], phase: Phase) -> bool {
        let mut cur = 0usize;
        for &b in key {
            match self.nodes[cur].children.binary_search_by_key(&b, |&(c, _)| c) {
                Ok(i) => cur = self.nodes[cur].children[i].1 as usize,
                Err(_) => return false,
            }
        }
        self.nodes[cur].marks & phase.mask() != 0
    }
}

/// A [`Hasher`] for store-assigned keys: each word is folded in with
/// `wave-store`'s splitmix64 finalizer ([`wave_store::mix64`]). The
/// finalizer mixes the high bits into the low ones, which matters
/// because hashbrown picks the bucket from the low bits: under a bare
/// multiply, the low half of a packed `(config id, state)` key's hash
/// would depend on the automaton state alone. Byte slices (the byte-key
/// backend's keys) fold in eight bytes at a time after their length.
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
/// state)` pairs packed into `u64` keys, two phase marks per key.
///
/// Mirrors the [`VisitTrie`] API (including the historical maximum
/// surviving [`VisitTable::clear`]) so the two backends are
/// interchangeable in the search and report the same "Max. trie size"
/// statistic.
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

    #[test]
    fn fresh_keys_are_unmarked() {
        let t = VisitTrie::new();
        assert!(!t.is_marked(b"abc", Phase::Stick));
        assert!(t.is_empty());
    }

    #[test]
    fn mark_reports_prior_state() {
        let mut t = VisitTrie::new();
        assert!(!t.mark(b"abc", Phase::Stick));
        assert!(t.mark(b"abc", Phase::Stick));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn phases_are_independent() {
        let mut t = VisitTrie::new();
        t.mark(b"k", Phase::Stick);
        assert!(!t.is_marked(b"k", Phase::Candy));
        assert!(!t.mark(b"k", Phase::Candy));
        assert!(t.is_marked(b"k", Phase::Candy));
        assert_eq!(t.len(), 1, "same key, both phases: one key");
    }

    #[test]
    fn prefix_keys_are_distinct() {
        let mut t = VisitTrie::new();
        t.mark(b"ab", Phase::Stick);
        assert!(!t.is_marked(b"a", Phase::Stick));
        assert!(!t.is_marked(b"abc", Phase::Stick));
        t.mark(b"a", Phase::Stick);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_key_is_a_valid_key() {
        let mut t = VisitTrie::new();
        assert!(!t.mark(b"", Phase::Candy));
        assert!(t.is_marked(b"", Phase::Candy));
    }

    #[test]
    fn clear_resets_but_max_persists() {
        let mut t = VisitTrie::new();
        for i in 0..10u8 {
            t.mark(&[i], Phase::Stick);
        }
        assert_eq!(t.max_len(), 10);
        t.clear();
        assert_eq!(t.len(), 0);
        t.mark(b"x", Phase::Stick);
        assert_eq!(t.max_len(), 10, "historic max survives clear");
    }

    #[test]
    fn many_keys_round_trip() {
        let mut t = VisitTrie::new();
        let keys: Vec<Vec<u8>> = (0..500u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for k in &keys {
            assert!(!t.mark(k, Phase::Stick));
        }
        for k in &keys {
            assert!(t.is_marked(k, Phase::Stick));
            assert!(!t.is_marked(k, Phase::Candy));
        }
        assert_eq!(t.len(), 500);
    }
}
