//! Hot in-memory tier: an open-addressing table of packed visit pairs
//! under clock (second-chance) eviction.
//!
//! Each slot is 9 bytes — a packed `(ConfigId << 32 | auto_state)` key
//! plus a meta byte holding the two phase mark bits, an occupancy bit
//! (key 0 is a valid pair, so occupancy cannot be a key sentinel), and
//! the clock's reference bit. The table never resizes: its capacity is
//! the largest power of two fitting the configured byte budget, and
//! when occupancy reaches 75% a batch eviction sweep frees a quarter of
//! the capacity in one pass, handing the victims to the caller (which
//! spills them to a cold segment).
//!
//! Eviction is the textbook second chance: the hand sweeps slots,
//! clearing the reference bit on entries that have it and evicting the
//! ones that don't, so recently re-marked pairs survive. Because open
//! addressing cannot delete in place without breaking probe chains, the
//! sweep collects victims and then rebuilds the table from the
//! survivors — O(capacity), amortized over the quarter-capacity of
//! inserts that preceded it. The probe hash is a fixed splitmix64, so
//! the full eviction/spill sequence is deterministic: identical search
//! order in, identical spill counters out, on any machine.
//!
//! The sweep empties one arc of the table per spill, so the rest fills
//! toward 100% and probe runs grow to hundreds of slots. A probe
//! therefore walks its run a word at a time: one `u64` load of eight
//! meta bytes finds the group's empty slots, and the group's eight keys
//! are compared without a branch per slot. Slot positions are those of
//! a slot-by-slot linear probe, so eviction victims do not change.

use crate::bloom::mix64;

/// Bytes one slot occupies (8-byte key + meta byte).
pub const SLOT_BYTES: usize = 9;

const OCCUPIED: u8 = 0x80;
const REF: u8 = 0x40;
const MARKS: u8 = 0x03;

/// Slots a probe examines per step: one word of meta bytes.
const LANES: usize = 8;
/// The `OCCUPIED` bit of each meta byte of a group, read little-endian.
const GROUP_OCCUPIED: u64 = 0x8080_8080_8080_8080;

/// Fixed-capacity clock-evicted hash table; see the module docs.
#[derive(Clone, Debug)]
pub struct ClockTable {
    keys: Vec<u64>,
    meta: Vec<u8>,
    mask: usize,
    len: usize,
    hand: usize,
    max_len: usize,
}

impl ClockTable {
    /// Table whose slots fit in `mem_bytes` (min 64 slots).
    pub fn with_budget(mem_bytes: usize) -> ClockTable {
        let slots = (mem_bytes / SLOT_BYTES).max(64);
        // largest power of two <= slots, so the budget is never exceeded
        let cap = 1usize << (usize::BITS - 1 - slots.leading_zeros());
        ClockTable {
            keys: vec![0; cap],
            meta: vec![0; cap],
            mask: cap - 1,
            len: 0,
            hand: 0,
            max_len: 0,
        }
    }

    #[inline]
    fn start(&self, key: u64) -> usize {
        // seed differs from the Bloom front's so the two don't correlate
        mix64(key ^ 0x5bf0_3635_dcaa_b6ec) as usize & self.mask
    }

    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Historic occupancy high-water mark.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Heap footprint of the slot arrays.
    pub fn bytes(&self) -> usize {
        self.keys.len() * SLOT_BYTES
    }

    /// True once occupancy reaches 75% — evict before inserting more.
    pub fn is_full(&self) -> bool {
        self.len * 4 >= self.capacity() * 3
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)`: the empty slot that
    /// ends `key`'s probe run, where an insert puts it. Walks the run a
    /// group of [`LANES`] slots at a time; see the module docs.
    /// Always inlined: with only an `#[inline]` hint, E1/P4's visit
    /// time at a 64 MiB budget (short runs) measured ~10% above the
    /// slot-by-slot probe's.
    #[inline(always)]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let start = self.start(key);
        // in a sparse table most runs end at the home slot: look there
        // before touching a whole group's cache lines
        if self.meta[start] & OCCUPIED == 0 {
            return Err(start);
        }
        if self.keys[start] == key {
            return Ok(start);
        }
        let mut group = start & !(LANES - 1);
        // the first group's lanes before `start` are not on the run
        let mut live = u64::MAX << (8 * (start % LANES));
        loop {
            let meta = &self.meta[group..group + LANES];
            let meta = u64::from_le_bytes(meta.try_into().expect("a group is LANES slots"));
            let keys: &[u64; LANES] =
                self.keys[group..group + LANES].try_into().expect("a group is LANES slots");
            let empty = (!meta & GROUP_OCCUPIED & live).trailing_zeros();
            if keys.iter().fold(false, |any, &k| any | (k == key)) {
                let mut hits = 0u64;
                for (lane, &k) in keys.iter().enumerate() {
                    hits |= u64::from(k == key) << (8 * lane + 7);
                }
                // every lane before the first empty one is occupied, so
                // an empty slot's key (0) never passes for a hit
                let hit = (hits & live).trailing_zeros();
                if hit < empty {
                    return Ok(group + hit as usize / 8);
                }
            }
            if empty < u64::BITS {
                return Err(group + empty as usize / 8);
            }
            group = (group + LANES) & self.mask;
            live = u64::MAX;
        }
    }

    /// Mark bits of `key`, if resident. Read-only: does not set the
    /// reference bit (callers on the `&self` probe path stay pure).
    pub fn get(&self, key: u64) -> Option<u8> {
        self.find(key).ok().map(|i| self.meta[i] & MARKS)
    }

    /// If `key` is resident: OR `mask` into its marks, set the
    /// reference bit, and return the *previous* marks. `None` when
    /// absent (insert via [`ClockTable::insert`] after making room).
    pub fn touch_or(&mut self, key: u64, mask: u8) -> Option<u8> {
        let i = self.find(key).ok()?;
        let old = self.meta[i] & MARKS;
        self.meta[i] |= (mask & MARKS) | REF;
        Some(old)
    }

    /// Insert an absent key. Callers must check [`ClockTable::is_full`]
    /// first and evict; the 75% ceiling guarantees a free slot here.
    pub fn insert(&mut self, key: u64, marks: u8) {
        debug_assert!(self.len < self.capacity());
        self.insert_raw(key, (marks & MARKS) | REF);
        self.max_len = self.max_len.max(self.len);
    }

    fn insert_raw(&mut self, key: u64, meta: u8) {
        let i = self.find(key).expect_err("insert of resident key");
        self.keys[i] = key;
        self.meta[i] = OCCUPIED | meta;
        self.len += 1;
    }

    /// Second-chance sweep: free up to `target` slots, returning the
    /// victims as `(key, marks)`. Entries whose reference bit is set
    /// survive one sweep (the bit is cleared); two full revolutions
    /// bound the scan. The table is rebuilt without the victims so
    /// probe chains stay intact.
    pub fn evict(&mut self, target: usize) -> Vec<(u64, u8)> {
        let cap = self.capacity();
        let target = target.min(self.len);
        if target == 0 {
            return Vec::new();
        }
        let mut victims = Vec::with_capacity(target);
        let mut is_victim = vec![false; cap];
        let mut i = self.hand & self.mask;
        let mut examined = 0usize;
        while victims.len() < target && examined < cap * 2 {
            if self.meta[i] & OCCUPIED != 0 && !is_victim[i] {
                if self.meta[i] & REF != 0 {
                    self.meta[i] &= !REF;
                } else {
                    is_victim[i] = true;
                    victims.push((self.keys[i], self.meta[i] & MARKS));
                }
            }
            i = (i + 1) & self.mask;
            examined += 1;
        }
        self.hand = i;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let old_meta = std::mem::replace(&mut self.meta, vec![0; cap]);
        self.len = 0;
        for j in 0..cap {
            if old_meta[j] & OCCUPIED != 0 && !is_victim[j] {
                self.insert_raw(old_keys[j], old_meta[j] & !OCCUPIED);
            }
        }
        victims
    }

    /// Drop every entry (between NDFS cores); `max_len` survives.
    pub fn clear(&mut self) {
        self.keys.fill(0);
        self.meta.fill(0);
        self.len = 0;
        self.hand = 0;
    }

    /// Resident `(key, marks)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.keys
            .iter()
            .zip(&self.meta)
            .filter(|(_, &m)| m & OCCUPIED != 0)
            .map(|(&k, &m)| (k, m & MARKS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The slot-by-slot probe the word-wide one replaced: the reference
    /// its positions, answers and eviction victims must match.
    struct SlotTable {
        keys: Vec<u64>,
        meta: Vec<u8>,
        hand: usize,
    }

    impl SlotTable {
        fn new(cap: usize) -> SlotTable {
            SlotTable { keys: vec![0; cap], meta: vec![0; cap], hand: 0 }
        }

        /// `(slot, found)`: the key's slot, or the empty slot ending its run.
        fn probe(&self, key: u64) -> (usize, bool) {
            let mask = self.keys.len() - 1;
            let mut i = mix64(key ^ 0x5bf0_3635_dcaa_b6ec) as usize & mask;
            while self.meta[i] & OCCUPIED != 0 {
                if self.keys[i] == key {
                    return (i, true);
                }
                i = (i + 1) & mask;
            }
            (i, false)
        }

        fn put(&mut self, key: u64, meta: u8) {
            let (i, found) = self.probe(key);
            assert!(!found, "insert of resident key");
            (self.keys[i], self.meta[i]) = (key, OCCUPIED | meta);
        }

        fn evict(&mut self, target: usize) -> Vec<(u64, u8)> {
            let (cap, mut victims) = (self.keys.len(), Vec::new());
            let occupied = self.meta.iter().filter(|&&m| m & OCCUPIED != 0).count();
            let mut is_victim = vec![false; cap];
            let (mut i, mut examined) = (self.hand, 0);
            while victims.len() < target.min(occupied) && examined < cap * 2 {
                if self.meta[i] & OCCUPIED != 0 && !is_victim[i] {
                    if self.meta[i] & REF != 0 {
                        self.meta[i] &= !REF;
                    } else {
                        is_victim[i] = true;
                        victims.push((self.keys[i], self.meta[i] & MARKS));
                    }
                }
                (i, examined) = ((i + 1) % cap, examined + 1);
            }
            if victims.is_empty() {
                return victims;
            }
            self.hand = i;
            let keys = std::mem::replace(&mut self.keys, vec![0; cap]);
            let meta = std::mem::replace(&mut self.meta, vec![0; cap]);
            for j in (0..cap).filter(|&j| meta[j] & OCCUPIED != 0 && !is_victim[j]) {
                self.put(keys[j], meta[j] & !OCCUPIED);
            }
            victims
        }

        fn iter(&self) -> Vec<(u64, u8)> {
            let slots = self.keys.iter().zip(&self.meta);
            slots.filter(|(_, &m)| m & OCCUPIED != 0).map(|(&k, &m)| (k, m & MARKS)).collect()
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Insert(u64, u8),
        Touch(u64, u8),
        Get(u64),
        Evict(usize),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        // a key universe about twice the largest table, so runs wrap,
        // fill up and collide, and key 0 (valid, like any) shows up
        let key = 0u64..2048;
        prop_oneof![
            (key.clone(), 0u8..4).prop_map(|(k, m)| Op::Insert(k, m)),
            (key.clone(), 0u8..4).prop_map(|(k, m)| Op::Insert(k, m)),
            (key.clone(), 0u8..4).prop_map(|(k, m)| Op::Touch(k, m)),
            key.prop_map(Op::Get),
            (1usize..300).prop_map(Op::Evict),
            Just(Op::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        /// Random operation sequences at 64–1024 slots: the word-wide
        /// probe answers, evicts (victims in order) and iterates
        /// exactly as the slot-by-slot one.
        #[test]
        fn word_probe_matches_the_slot_probe(
            log_slots in 6u32..11,
            ops in prop::collection::vec(op(), 1..1500),
        ) {
            let mut table = ClockTable::with_budget((1 << log_slots) * SLOT_BYTES);
            let mut reference = SlotTable::new(1 << log_slots);
            prop_assert_eq!(table.capacity(), 1 << log_slots);
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Insert(key, marks) => {
                        if table.get(key).is_none() && !table.is_full() {
                            table.insert(key, marks);
                            reference.put(key, (marks & MARKS) | REF);
                        }
                    }
                    Op::Touch(key, mask) => {
                        let (i, found) = reference.probe(key);
                        let old = found.then(|| reference.meta[i] & MARKS);
                        if found {
                            reference.meta[i] |= (mask & MARKS) | REF;
                        }
                        prop_assert_eq!(table.touch_or(key, mask), old, "step {}", step);
                    }
                    Op::Get(key) => {
                        let (i, found) = reference.probe(key);
                        let want = found.then(|| reference.meta[i] & MARKS);
                        prop_assert_eq!(table.get(key), want, "step {}", step);
                    }
                    Op::Evict(target) => {
                        prop_assert_eq!(table.evict(target), reference.evict(target), "step {}", step);
                    }
                    Op::Clear => {
                        table.clear();
                        reference = SlotTable::new(1 << log_slots);
                    }
                }
                prop_assert_eq!(table.iter().collect::<Vec<_>>(), reference.iter(), "step {}", step);
            }
        }
    }

    #[test]
    fn budget_caps_capacity_at_a_power_of_two() {
        let t = ClockTable::with_budget(10_000);
        assert_eq!(t.capacity(), 1024); // 10_000 / 9 = 1111 -> 1024
        assert!(t.bytes() <= 10_000);
        // the budgets the CLI, CI and the benchmark use
        for (budget, slots) in [(0, 64), (8 << 10, 512), (1 << 20, 1 << 16), (64 << 20, 1 << 22)] {
            let t = ClockTable::with_budget(budget);
            assert_eq!(t.capacity(), slots, "{budget} bytes");
            assert_eq!(t.bytes(), slots * SLOT_BYTES, "{budget} bytes");
        }
    }

    #[test]
    fn insert_get_touch_roundtrip_including_key_zero() {
        let mut t = ClockTable::with_budget(1024);
        assert_eq!(t.get(0), None);
        t.insert(0, 0b01);
        t.insert(7, 0b10);
        assert_eq!(t.get(0), Some(0b01));
        assert_eq!(t.get(7), Some(0b10));
        assert_eq!(t.touch_or(0, 0b10), Some(0b01));
        assert_eq!(t.get(0), Some(0b11));
        assert_eq!(t.touch_or(99, 0b01), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn eviction_frees_slots_and_prefers_unreferenced() {
        let mut t = ClockTable::with_budget(64 * SLOT_BYTES); // 64 slots
        for k in 0..40u64 {
            t.insert(k, 0b01);
        }
        // re-touch half: they carry the reference bit into the sweep
        for k in 0..20u64 {
            t.touch_or(k, 0b01);
        }
        // newly inserted entries also start referenced; age them once
        let first = t.evict(10);
        assert_eq!(first.len(), 10);
        assert_eq!(t.len(), 30);
        for (k, m) in &first {
            assert_eq!(t.get(*k), None);
            assert_eq!(*m, 0b01);
        }
        // survivors keep their marks and stay probeable after rebuild
        let survivors: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(survivors.len(), 30);
        for k in survivors {
            assert_eq!(t.get(k), Some(0b01));
        }
    }

    #[test]
    fn eviction_is_deterministic() {
        let run = || {
            let mut t = ClockTable::with_budget(64 * SLOT_BYTES);
            for k in 0..48u64 {
                t.insert(k * 17, (k % 2 + 1) as u8);
            }
            t.evict(16)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clear_keeps_high_water_mark() {
        let mut t = ClockTable::with_budget(1024);
        for k in 0..50u64 {
            t.insert(k, 1);
        }
        assert_eq!(t.max_len(), 50);
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.max_len(), 50);
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn full_table_eviction_terminates_even_when_all_referenced() {
        let mut t = ClockTable::with_budget(64 * SLOT_BYTES);
        for k in 0..48u64 {
            t.insert(k, 1);
            t.touch_or(k, 1); // everyone referenced
        }
        let v = t.evict(48);
        assert_eq!(v.len(), 48, "second revolution must evict");
        assert!(t.is_empty());
    }
}
