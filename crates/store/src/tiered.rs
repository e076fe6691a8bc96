//! The tiered visited-pair set: Bloom front → clock hot tier → sorted
//! spill segments, with a manifest for checkpoint round-trips.
//!
//! [`TieredVisits`] implements the same mark semantics as the in-core
//! `VisitTable` (two phase bits per packed `u64` pair key, marks
//! monotone until [`TieredVisits::clear`]) while bounding resident
//! memory. The decision ladder for a probe is:
//!
//! 1. **hot hit** — answer from the clock table. Invariant: a resident
//!    key's mark bits are a superset of every cold copy of that key,
//!    so the hot answer is final.
//! 2. **Bloom miss** — the key was never marked since the last clear;
//!    definitely unvisited, no disk touched (`bloom_skips`).
//! 3. **cold probe** — newest segment first, stop at the first hit
//!    (`cold_probes`); re-promotion ORs the cold marks into the hot
//!    insert, which is what maintains invariant 1.
//!
//! A `mark` of a non-resident key always (re-)inserts it hot; when the
//! hot tier is full a second-chance sweep spills a quarter of its
//! capacity as one sorted segment, and once the segment count passes
//! `TierConfig::segment_limit` a k-way merge compacts the cold tier to
//! a single run (duplicate keys OR their marks — marks are monotone,
//! so the OR is exact). Every hash involved is fixed, so spill and
//! compaction counters are deterministic for a given mark sequence.
//!
//! The store counts distinct keys *exactly* (`distinct`): a Bloom miss
//! is a definite "new key", and a Bloom maybe is resolved by the exact
//! cold probe — false positives cost a probe, never a miscount.
//!
//! Spill I/O failures (disk full, unlinked spill dir) panic: `mark` has
//! no error channel, and a store that silently dropped visited marks
//! would turn the NDFS into a liveness bug.

use crate::bloom::SplitBloom;
use crate::hot::ClockTable;
use crate::segment::{Segment, SegmentWriter};
use crate::ser::{fnv1a, ByteReader, ByteWriter};
use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tier sizing and placement knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierConfig {
    /// Byte budget for the hot tier's slot arrays (the Bloom front
    /// adds ~2 bytes per distinct key on top; see DESIGN.md §10).
    pub mem_bytes: usize,
    /// Parent directory for spill segments; `None` uses the system
    /// temp dir. Each store creates its own private subdirectory under
    /// the parent (sibling stores sharing one parent never collide),
    /// removed when the store drops.
    pub spill_dir: Option<PathBuf>,
    /// Cold segment count that triggers a full-merge compaction.
    pub segment_limit: usize,
}

impl Default for TierConfig {
    fn default() -> TierConfig {
        TierConfig { mem_bytes: 64 << 20, spill_dir: None, segment_limit: 8 }
    }
}

/// Monotone event counters, surfaced into `SearchProfile`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Pairs written to spill segments (re-spills of re-promoted keys
    /// count again; this measures I/O volume, not distinct keys).
    pub spill_pairs: u64,
    /// Spill segments written (compaction outputs included).
    pub spill_segments: u64,
    /// Cold-tier merge compactions run.
    pub compactions: u64,
    /// Probes answered "definitely absent" by the Bloom front.
    pub bloom_skips: u64,
    /// Probes that had to search the cold tier.
    pub cold_probes: u64,
}

/// Process-unique suffix for unnamed spill directories.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
struct SpillDir {
    path: PathBuf,
    /// We created it privately — remove the whole directory on drop
    /// (unless a manifest detached it for a later reopen).
    owned: bool,
    next_seq: u64,
}

impl SpillDir {
    fn create(config: &TierConfig) -> io::Result<SpillDir> {
        // Every store gets a private subdirectory (pid + process-wide
        // counter): sibling stores built from one TierConfig — parallel
        // units, or concurrent processes sharing one --spill-dir —
        // must never see each other's segment paths, or a spill in one
        // would truncate a segment a sibling is reading.
        let n = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let leaf = format!("wave-spill-{}-{n}", std::process::id());
        let path = match &config.spill_dir {
            Some(dir) => dir.join(leaf),
            None => std::env::temp_dir().join(leaf),
        };
        std::fs::create_dir_all(&path)?;
        Ok(SpillDir { path, owned: true, next_seq: 0 })
    }

    fn next_segment_path(&mut self) -> PathBuf {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.path.join(format!("seg-{seq:06}.wseg"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// The tiered visited-pair set; see the module docs.
#[derive(Debug)]
pub struct TieredVisits {
    config: TierConfig,
    front: SplitBloom,
    hot: ClockTable,
    /// Oldest → newest; probed newest-first.
    cold: Vec<Segment>,
    dir: SpillDir,
    /// Exact count of distinct keys marked since the last clear.
    distinct: usize,
    max_distinct: usize,
    max_resident: usize,
    /// Entries currently on disk (duplicates across segments counted).
    spilled: usize,
    max_spilled: usize,
    spill_pairs: u64,
    spill_segments: u64,
    compactions: u64,
    /// Wall time in segment writes / merge compactions. Diagnostics
    /// for the span profiler — not persisted, not part of the
    /// deterministic [`TierCounters`] contract.
    spill_ns: u64,
    compact_ns: u64,
    // read-path counters need interior mutability: is_marked is &self
    bloom_skips: Cell<u64>,
    cold_probes: Cell<u64>,
}

impl TieredVisits {
    pub fn new(config: TierConfig) -> io::Result<TieredVisits> {
        let dir = SpillDir::create(&config)?;
        let hot = ClockTable::with_budget(config.mem_bytes);
        // front sized to the hot capacity initially; grows with distinct
        let front = SplitBloom::with_capacity(hot.capacity());
        Ok(TieredVisits {
            config,
            front,
            hot,
            cold: Vec::new(),
            dir,
            distinct: 0,
            max_distinct: 0,
            max_resident: 0,
            spilled: 0,
            max_spilled: 0,
            spill_pairs: 0,
            spill_segments: 0,
            compactions: 0,
            spill_ns: 0,
            compact_ns: 0,
            bloom_skips: Cell::new(0),
            cold_probes: Cell::new(0),
        })
    }

    /// Mark `key` with `mask`; true when the masked bits were already
    /// set (same contract as `VisitTable::mark`).
    pub fn mark(&mut self, key: u64, mask: u8) -> bool {
        if let Some(old) = self.hot.touch_or(key, mask) {
            return old & mask != 0;
        }
        let cold_marks = if self.front.may_contain(key) {
            self.cold_probes.set(self.cold_probes.get() + 1);
            self.probe_cold(key)
        } else {
            self.bloom_skips.set(self.bloom_skips.get() + 1);
            None
        };
        if cold_marks.is_none() {
            self.distinct += 1;
            self.max_distinct = self.max_distinct.max(self.distinct);
            if self.distinct > self.front.capacity() {
                self.grow_front();
            }
            self.front.insert(key);
        }
        let merged = cold_marks.unwrap_or(0) | mask;
        self.insert_hot(key, merged);
        cold_marks.is_some_and(|m| m & mask != 0)
    }

    /// Are `mask`'s bits set for `key`? Pure read: no promotion, no
    /// reference-bit update.
    pub fn is_marked(&self, key: u64, mask: u8) -> bool {
        if let Some(marks) = self.hot.get(key) {
            return marks & mask != 0;
        }
        if !self.front.may_contain(key) {
            self.bloom_skips.set(self.bloom_skips.get() + 1);
            return false;
        }
        self.cold_probes.set(self.cold_probes.get() + 1);
        self.probe_cold(key).is_some_and(|m| m & mask != 0)
    }

    /// Drop all marks (between NDFS cores). High-water marks and event
    /// counters survive; segment files are deleted.
    pub fn clear(&mut self) {
        self.hot.clear();
        for seg in self.cold.drain(..) {
            let _ = std::fs::remove_file(seg.path());
        }
        self.front.clear();
        self.distinct = 0;
        self.spilled = 0;
    }

    /// Max distinct keys ever marked between clears (the paper's
    /// "Max. trie size" column).
    pub fn max_distinct(&self) -> usize {
        self.max_distinct
    }

    /// Pairs currently resident in the hot tier.
    pub fn resident(&self) -> usize {
        self.hot.len()
    }

    /// High-water mark of hot-tier residency.
    pub fn max_resident(&self) -> usize {
        self.hot.max_len().max(self.max_resident)
    }

    /// Entries currently in spill segments (duplicates included).
    pub fn spilled(&self) -> usize {
        self.spilled
    }

    /// High-water mark of on-disk entries.
    pub fn max_spilled(&self) -> usize {
        self.max_spilled
    }

    /// Hot-tier byte budget actually allocated.
    pub fn resident_bytes(&self) -> usize {
        self.hot.bytes() + self.front.bytes()
    }

    pub fn counters(&self) -> TierCounters {
        TierCounters {
            spill_pairs: self.spill_pairs,
            spill_segments: self.spill_segments,
            compactions: self.compactions,
            bloom_skips: self.bloom_skips.get(),
            cold_probes: self.cold_probes.get(),
        }
    }

    pub fn config(&self) -> &TierConfig {
        &self.config
    }

    /// Wall time spent in (segment writes, merge compactions), in
    /// nanoseconds since construction. Not persisted across reopen.
    pub fn spill_timers(&self) -> (u64, u64) {
        (self.spill_ns, self.compact_ns)
    }

    fn probe_cold(&self, key: u64) -> Option<u8> {
        // newest first: invariant 1 makes the newest copy a superset
        for seg in self.cold.iter().rev() {
            let got = seg.get(key).unwrap_or_else(|e| {
                panic!("wave-store: cold probe of {} failed: {e}", seg.path().display())
            });
            if got.is_some() {
                return got;
            }
        }
        None
    }

    fn insert_hot(&mut self, key: u64, marks: u8) {
        if self.hot.is_full() {
            self.spill();
        }
        self.hot.insert(key, marks);
        self.max_resident = self.max_resident.max(self.hot.len());
    }

    fn spill(&mut self) {
        let t0 = std::time::Instant::now();
        let target = (self.hot.capacity() / 4).max(1);
        let mut victims = self.hot.evict(target);
        if victims.is_empty() {
            return;
        }
        victims.sort_unstable_by_key(|&(k, _)| k);
        let path = self.dir.next_segment_path();
        SegmentWriter::write(&path, &victims)
            .unwrap_or_else(|e| panic!("wave-store: spill to {} failed: {e}", path.display()));
        let seg = Segment::open(&path)
            .unwrap_or_else(|e| panic!("wave-store: reopen of {} failed: {e}", path.display()));
        self.cold.push(seg);
        self.spill_pairs += victims.len() as u64;
        self.spill_segments += 1;
        self.spilled += victims.len();
        self.max_spilled = self.max_spilled.max(self.spilled);
        self.spill_ns += t0.elapsed().as_nanos() as u64;
        if self.cold.len() > self.config.segment_limit {
            self.compact();
        }
    }

    /// Merge every cold segment into one sorted run, ORing the marks of
    /// duplicate keys (exact, since marks are monotone between clears).
    fn compact(&mut self) {
        let t0 = std::time::Instant::now();
        let merged =
            self.merge_cold().unwrap_or_else(|e| panic!("wave-store: compaction read failed: {e}"));
        for seg in self.cold.drain(..) {
            let _ = std::fs::remove_file(seg.path());
        }
        let path = self.dir.next_segment_path();
        SegmentWriter::write(&path, &merged).unwrap_or_else(|e| {
            panic!("wave-store: compaction write to {} failed: {e}", path.display())
        });
        let seg = Segment::open(&path)
            .unwrap_or_else(|e| panic!("wave-store: reopen of {} failed: {e}", path.display()));
        self.spilled = seg.len();
        self.max_spilled = self.max_spilled.max(self.spilled);
        self.cold.push(seg);
        self.compactions += 1;
        self.compact_ns += t0.elapsed().as_nanos() as u64;
    }

    fn merge_cold(&self) -> io::Result<Vec<(u64, u8)>> {
        let mut iters: Vec<_> = self.cold.iter().map(|s| s.stream()).collect();
        let mut heads: Vec<Option<(u64, u8)>> = Vec::with_capacity(iters.len());
        for it in &mut iters {
            heads.push(it.next_entry()?);
        }
        let mut out: Vec<(u64, u8)> = Vec::new();
        while let Some(min) = heads.iter().flatten().map(|&(k, _)| k).min() {
            let mut marks = 0u8;
            for (it, head) in iters.iter_mut().zip(&mut heads) {
                if let Some((k, m)) = *head {
                    if k == min {
                        marks |= m;
                        *head = it.next_entry()?;
                    }
                }
            }
            out.push((min, marks));
        }
        Ok(out)
    }

    fn grow_front(&mut self) {
        let mut front = SplitBloom::with_capacity(self.distinct * 2);
        for (k, _) in self.hot.iter() {
            front.insert(k);
        }
        for seg in &self.cold {
            let mut it = seg.stream();
            loop {
                match it.next_entry() {
                    Ok(Some((k, _))) => front.insert(k),
                    Ok(None) => break,
                    Err(e) => panic!("wave-store: bloom rebuild scan failed: {e}"),
                }
            }
        }
        self.front = front;
    }

    // --- checkpoint round-trip -------------------------------------

    const MANIFEST_VERSION: u32 = 1;

    /// Serialize the tier state to a manifest blob. The hot tier is
    /// flushed to one final segment first, so the blob plus the spill
    /// directory's segment files are the complete state; pass the blob
    /// to [`TieredVisits::reopen`] to resume. After `persist` the spill
    /// directory is detached from drop-cleanup whenever it holds
    /// segments (a later reopen needs the files).
    pub fn persist(&mut self) -> io::Result<Vec<u8>> {
        let mut resident: Vec<(u64, u8)> = self.hot.iter().collect();
        if !resident.is_empty() {
            resident.sort_unstable_by_key(|&(k, _)| k);
            let path = self.dir.next_segment_path();
            SegmentWriter::write(&path, &resident)?;
            self.cold.push(Segment::open(&path)?);
            self.spilled += resident.len();
            self.max_spilled = self.max_spilled.max(self.spilled);
            self.hot.clear();
        }
        if !self.cold.is_empty() {
            self.dir.owned = false; // survive drop for the reopen
        }
        let mut w = ByteWriter::new();
        w.u32(Self::MANIFEST_VERSION);
        w.str(&self.dir.path.to_string_lossy());
        w.u64(self.dir.next_seq);
        w.u64(self.cold.len() as u64);
        for seg in &self.cold {
            let name = seg.path().file_name().unwrap_or_default().to_string_lossy();
            w.str(&name);
        }
        for v in [
            self.distinct as u64,
            self.max_distinct as u64,
            self.max_resident as u64,
            self.spilled as u64,
            self.max_spilled as u64,
            self.spill_pairs,
            self.spill_segments,
            self.compactions,
            self.bloom_skips.get(),
            self.cold_probes.get(),
        ] {
            w.u64(v);
        }
        let payload = w.into_inner();
        let mut framed = ByteWriter::new();
        framed.u64(fnv1a(&payload));
        framed.bytes(&payload);
        Ok(framed.into_inner())
    }

    /// Rebuild a store from a [`TieredVisits::persist`] blob. The
    /// segment files must still exist in the manifested directory; the
    /// Bloom front is rebuilt by scanning them, and the hot tier starts
    /// empty (keys re-promote on first touch).
    pub fn reopen(config: TierConfig, blob: &[u8]) -> io::Result<TieredVisits> {
        let bad = |what: &str| {
            io::Error::new(io::ErrorKind::InvalidData, format!("tier manifest: {what}"))
        };
        let mut framed = ByteReader::new(blob);
        let sum = framed.u64().ok_or_else(|| bad("truncated"))?;
        let payload = framed.bytes().ok_or_else(|| bad("truncated"))?;
        if fnv1a(payload) != sum {
            return Err(bad("checksum mismatch"));
        }
        let mut r = ByteReader::new(payload);
        if r.u32() != Some(Self::MANIFEST_VERSION) {
            return Err(bad("unsupported version"));
        }
        let dir_path = PathBuf::from(r.str().ok_or_else(|| bad("truncated"))?);
        let next_seq = r.u64().ok_or_else(|| bad("truncated"))?;
        let n_segs = r.u64().ok_or_else(|| bad("truncated"))?;
        let mut names = Vec::new();
        for _ in 0..n_segs {
            names.push(r.str().ok_or_else(|| bad("truncated"))?.to_string());
        }
        let mut nums = [0u64; 10];
        for slot in &mut nums {
            *slot = r.u64().ok_or_else(|| bad("truncated"))?;
        }
        std::fs::create_dir_all(&dir_path)?;
        // Segments written after the manifest was taken (a crash between
        // persist and exit leaves them) are not part of this state, and
        // a stale file at a future sequence number would fail the
        // create_new spill path — drop them. The directory is private to
        // one store, so anything unlisted is ours to delete.
        for entry in std::fs::read_dir(&dir_path)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".wseg") && !names.iter().any(|n| n.as_str() == name) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        let mut cold = Vec::with_capacity(names.len());
        for name in &names {
            cold.push(Segment::open(&dir_path.join(name))?);
        }
        let hot = ClockTable::with_budget(config.mem_bytes);
        let mut store = TieredVisits {
            front: SplitBloom::with_capacity((nums[0] as usize * 2).max(hot.capacity())),
            hot,
            cold,
            dir: SpillDir { path: dir_path, owned: false, next_seq },
            distinct: nums[0] as usize,
            max_distinct: nums[1] as usize,
            max_resident: nums[2] as usize,
            spilled: nums[3] as usize,
            max_spilled: nums[4] as usize,
            spill_pairs: nums[5],
            spill_segments: nums[6],
            compactions: nums[7],
            spill_ns: 0,
            compact_ns: 0,
            bloom_skips: Cell::new(nums[8]),
            cold_probes: Cell::new(nums[9]),
            config,
        };
        // rebuild the front from the tier that can enumerate members
        let mut front = std::mem::replace(&mut store.front, SplitBloom::with_capacity(64));
        for seg in &store.cold {
            let mut it = seg.stream();
            while let Some((k, _)) = it.next_entry()? {
                front.insert(k);
            }
        }
        store.front = front;
        Ok(store)
    }

    /// Spill directory in use (diagnostics and tests).
    pub fn spill_path(&self) -> &Path {
        &self.dir.path
    }

    /// Cold segments currently open (diagnostics and tests).
    pub fn segment_count(&self) -> usize {
        self.cold.len()
    }
}

impl Drop for TieredVisits {
    fn drop(&mut self) {
        if !self.dir.owned {
            return; // persisted (or user-directed) segments stay
        }
        for seg in self.cold.drain(..) {
            let _ = std::fs::remove_file(seg.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hot::SLOT_BYTES;

    const STICK: u8 = 0b01;
    const CANDY: u8 = 0b10;

    fn tiny() -> TierConfig {
        // 128 slots -> spills after ~96 inserts
        TierConfig { mem_bytes: 128 * SLOT_BYTES, spill_dir: None, segment_limit: 3 }
    }

    #[test]
    fn marks_behave_like_a_visit_table_without_spilling() {
        let mut t = TieredVisits::new(TierConfig::default()).unwrap();
        assert!(!t.mark(0, STICK)); // key 0 is a valid pair
        assert!(t.mark(0, STICK));
        assert!(!t.is_marked(0, CANDY));
        assert!(!t.mark(0, CANDY));
        assert!(t.is_marked(0, CANDY));
        assert_eq!(t.max_distinct(), 1);
        t.clear();
        assert!(!t.is_marked(0, STICK));
        assert!(!t.mark(0, STICK));
        assert_eq!(t.max_distinct(), 1);
    }

    #[test]
    fn spilled_keys_stay_marked_and_counters_fire() {
        let mut t = TieredVisits::new(tiny()).unwrap();
        let n = 5000u64;
        for k in 0..n {
            assert!(!t.mark(k, STICK), "first mark of {k} is fresh");
        }
        let c = t.counters();
        assert!(c.spill_segments > 0, "tiny budget must spill");
        assert!(c.spill_pairs > 0);
        assert!(c.compactions > 0, "segment_limit 3 must compact");
        assert!(t.max_spilled() > 0);
        assert_eq!(t.max_distinct(), n as usize);
        // every key still answers, resident or spilled
        for k in 0..n {
            assert!(t.is_marked(k, STICK), "key {k} lost after spill");
            assert!(!t.is_marked(k, CANDY));
        }
        // re-marking is a hit everywhere, and candy is independent
        for k in 0..n {
            assert!(t.mark(k, STICK), "re-mark of {k} must hit");
        }
        for k in (0..n).step_by(7) {
            assert!(!t.mark(k, CANDY), "candy bit of {k} was never set");
            assert!(t.is_marked(k, CANDY));
        }
        assert_eq!(t.max_distinct(), n as usize, "no double counting across tiers");
    }

    #[test]
    fn clear_deletes_segments_and_resets_membership() {
        let mut t = TieredVisits::new(tiny()).unwrap();
        for k in 0..2000u64 {
            t.mark(k, STICK);
        }
        assert!(t.segment_count() > 0);
        let dir = t.spill_path().to_path_buf();
        t.clear();
        assert_eq!(t.segment_count(), 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "segment files deleted");
        assert_eq!(t.spilled(), 0);
        for k in 0..2000u64 {
            assert!(!t.is_marked(k, STICK));
        }
        assert_eq!(t.max_distinct(), 2000, "historic max survives clear");
        assert!(t.max_spilled() > 0);
    }

    #[test]
    fn spill_counters_are_deterministic() {
        let run = || {
            let mut t = TieredVisits::new(tiny()).unwrap();
            for k in 0..3000u64 {
                t.mark(k.wrapping_mul(0x9e3779b97f4a7c15), if k % 2 == 0 { STICK } else { CANDY });
            }
            (t.counters(), t.max_resident(), t.max_spilled(), t.max_distinct())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sibling_stores_share_a_spill_dir_without_collisions() {
        let dir = std::env::temp_dir().join(format!("wave-tier-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = TierConfig { spill_dir: Some(dir.clone()), ..tiny() };
        let mut a = TieredVisits::new(config.clone()).unwrap();
        let mut b = TieredVisits::new(config).unwrap();
        assert_ne!(a.spill_path(), b.spill_path(), "each store gets a private subdirectory");
        // interleaved spilling from both stores: even keys in a, odd in b
        for k in 0..3000u64 {
            a.mark(k * 2, STICK);
            b.mark(k * 2 + 1, CANDY);
        }
        assert!(a.counters().spill_segments > 0 && b.counters().spill_segments > 0);
        for k in 0..3000u64 {
            assert!(a.is_marked(k * 2, STICK), "a lost its own key {k}");
            assert!(!a.is_marked(k * 2 + 1, CANDY), "b's marks leaked into a");
            assert!(b.is_marked(k * 2 + 1, CANDY), "b lost its own key {k}");
            assert!(!b.is_marked(k * 2, STICK), "a's marks leaked into b");
        }
        drop(a);
        drop(b);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "private subdirectories removed on drop"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_reopen_round_trips_marks_and_counters() {
        let dir = std::env::temp_dir().join(format!("wave-tier-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = TierConfig { spill_dir: Some(dir.clone()), ..tiny() };
        let mut t = TieredVisits::new(config.clone()).unwrap();
        for k in 0..2500u64 {
            t.mark(k * 11, STICK);
        }
        for k in 0..500u64 {
            t.mark(k * 11, CANDY);
        }
        let before = (t.counters(), t.max_distinct(), t.max_spilled());
        let blob = t.persist().unwrap();
        drop(t);
        let r = TieredVisits::reopen(config, &blob).unwrap();
        assert_eq!((r.counters(), r.max_distinct(), r.max_spilled()), before);
        for k in 0..2500u64 {
            assert!(r.is_marked(k * 11, STICK), "stick mark of {k} lost in round trip");
            assert_eq!(r.is_marked(k * 11, CANDY), k < 500);
        }
        assert!(!r.is_marked(3, STICK), "absent keys stay absent");
        drop(r);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_rejects_corrupt_manifests() {
        let mut t = TieredVisits::new(TierConfig::default()).unwrap();
        t.mark(1, STICK);
        let mut blob = t.persist().unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 0xff;
        assert!(TieredVisits::reopen(TierConfig::default(), &blob).is_err());
    }

    #[test]
    fn unnamed_spill_dir_is_removed_on_drop() {
        let mut t = TieredVisits::new(tiny()).unwrap();
        for k in 0..2000u64 {
            t.mark(k, STICK);
        }
        let dir = t.spill_path().to_path_buf();
        assert!(dir.exists());
        drop(t);
        assert!(!dir.exists(), "private spill dir should be cleaned up");
    }
}
