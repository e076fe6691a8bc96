//! Split (blocked) Bloom filter over packed `u64` visit-pair keys.
//!
//! The tiered store sits behind a membership-heavy workload: during a
//! search most `is_marked`/`mark` probes are for *fresh* pairs that are
//! in no tier at all, and those must not touch disk. The front filter
//! answers "definitely not present" from one cache line: a key hashes
//! to one 512-bit block and to seven bit positions inside it, so a
//! probe reads a single block regardless of filter size (the classic
//! blocked-Bloom layout of Putze/Sanders/Singler).
//!
//! Sizing is ~10 bits per expected key; with 7 probes confined to a
//! 512-bit block the false-positive rate is ≈1% at capacity. The filter
//! cannot enumerate members, so growth (done by [`crate::TieredVisits`]
//! when the distinct count outruns capacity) re-inserts keys from the
//! tiers that can.

/// 64-bit finalizer (splitmix64): full-avalanche, fixed constants, so
/// block placement — and therefore every spill/eviction decision
/// downstream — is identical across runs, platforms, and builds.
/// `wave-core` also hashes its dense-id maps with it.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const BLOCK_WORDS: usize = 8; // 512 bits = one cache line
const BLOCK_BITS: u64 = 512;
const PROBES: usize = 7; // 7 × 9 bits of h2 select bits within the block
const BITS_PER_KEY: usize = 10;

/// Blocked Bloom filter; see the module docs for layout and rates.
#[derive(Clone, Debug)]
pub struct SplitBloom {
    blocks: Vec<[u64; BLOCK_WORDS]>,
    mask: u64, // blocks.len() - 1 (power of two)
    capacity: usize,
}

impl SplitBloom {
    /// Filter sized for ~`keys` insertions at the target error rate.
    pub fn with_capacity(keys: usize) -> SplitBloom {
        let keys = keys.max(64);
        let blocks = ((keys * BITS_PER_KEY) as u64 / BLOCK_BITS + 1).next_power_of_two() as usize;
        SplitBloom {
            blocks: vec![[0; BLOCK_WORDS]; blocks],
            mask: blocks as u64 - 1,
            capacity: keys,
        }
    }

    #[inline]
    fn hashes(key: u64) -> (u64, u64) {
        let h1 = mix64(key);
        (h1, mix64(h1 ^ 0xa5a5_a5a5_a5a5_a5a5))
    }

    pub fn insert(&mut self, key: u64) {
        let (h1, h2) = SplitBloom::hashes(key);
        let block = &mut self.blocks[(h1 & self.mask) as usize];
        for i in 0..PROBES {
            let bit = (h2 >> (9 * i)) & (BLOCK_BITS - 1);
            block[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// False means *definitely absent*; true means "probe the tiers".
    pub fn may_contain(&self, key: u64) -> bool {
        let (h1, h2) = SplitBloom::hashes(key);
        let block = &self.blocks[(h1 & self.mask) as usize];
        (0..PROBES).all(|i| {
            let bit = (h2 >> (9 * i)) & (BLOCK_BITS - 1);
            block[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    pub fn clear(&mut self) {
        for block in &mut self.blocks {
            *block = [0; BLOCK_WORDS];
        }
    }

    /// Insertions the filter was sized for.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap footprint of the bit array.
    pub fn bytes(&self) -> usize {
        self.blocks.len() * BLOCK_WORDS * 8
    }

    /// Raw bit words, for segment sidecars and manifests.
    pub fn to_words(&self) -> Vec<u64> {
        self.blocks.iter().flatten().copied().collect()
    }

    /// Rebuild from [`SplitBloom::to_words`] output. `None` when the
    /// word count is not a power-of-two block multiple.
    pub fn from_words(capacity: usize, words: &[u64]) -> Option<SplitBloom> {
        let blocks = words.len() / BLOCK_WORDS;
        if blocks == 0 || !blocks.is_power_of_two() || blocks * BLOCK_WORDS != words.len() {
            return None;
        }
        let blocks: Vec<[u64; BLOCK_WORDS]> =
            words.chunks_exact(BLOCK_WORDS).map(|c| c.try_into().unwrap()).collect();
        Some(SplitBloom { mask: blocks.len() as u64 - 1, blocks, capacity: capacity.max(64) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = SplitBloom::with_capacity(10_000);
        for k in 0..10_000u64 {
            b.insert(k * 2654435761);
        }
        for k in 0..10_000u64 {
            assert!(b.may_contain(k * 2654435761));
        }
    }

    #[test]
    fn false_positive_rate_is_modest_at_capacity() {
        let mut b = SplitBloom::with_capacity(10_000);
        for k in 0..10_000u64 {
            b.insert(k);
        }
        let fps = (10_000..110_000u64).filter(|&k| b.may_contain(k)).count();
        // ~1% expected; 3% leaves slack for block skew
        assert!(fps < 3_000, "false-positive rate too high: {fps}/100000");
    }

    #[test]
    fn clear_empties_the_filter() {
        let mut b = SplitBloom::with_capacity(64);
        b.insert(42);
        assert!(b.may_contain(42));
        b.clear();
        assert!(!b.may_contain(42));
    }

    #[test]
    fn words_round_trip() {
        let mut b = SplitBloom::with_capacity(1000);
        for k in 0..1000u64 {
            b.insert(mix64(k));
        }
        let words = b.to_words();
        let b2 = SplitBloom::from_words(b.capacity(), &words).unwrap();
        assert_eq!(b2.bytes(), b.bytes());
        for k in 0..1000u64 {
            assert!(b2.may_contain(mix64(k)));
        }
        assert!(SplitBloom::from_words(64, &words[..BLOCK_WORDS * 3]).is_none());
    }
}
