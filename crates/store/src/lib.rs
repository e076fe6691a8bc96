//! wave-store: tiered out-of-core visited-pair storage.
//!
//! The NDFS visited set — packed `(ConfigId << 32 | auto_state)` pairs
//! with two phase mark bits — is the paper's "Max. trie size" column
//! and the memory ceiling of every large search. This crate bounds it:
//!
//! * [`SplitBloom`] — a blocked Bloom front; probes on fresh pairs
//!   (the common case mid-search) answer from one cache line and never
//!   touch disk.
//! * [`ClockTable`] — the hot tier: a fixed-budget open-addressing
//!   table of packed pairs under clock/second-chance eviction.
//! * [`Segment`] — the cold tier: sorted immutable spill runs with
//!   fence keys and Bloom sidecars, point-probed via positioned reads
//!   and merge-compacted LSM-style.
//! * [`TieredVisits`] — the three layers composed behind the same mark
//!   semantics as `wave-core`'s `VisitTable`, plus a persist/reopen
//!   manifest for checkpoint round-trips.
//!
//! The crate is deliberately std-only and knows nothing about
//! configurations or automata: it stores `u64` keys and `u8` mark
//! masks. `wave-core` adapts it to the `StateStore` trait; keeping the
//! mechanics here lets the tiers be unit- and property-tested against
//! a plain map oracle without dragging in the verifier.
//!
//! Every hash in the crate is fixed (splitmix64 variants), so eviction
//! order, spill counters, and compaction counts are deterministic
//! functions of the mark sequence — the property the perf-trajectory
//! file `BENCH_store.json` and the CI freshness gate rely on.

pub mod bloom;
pub mod hot;
pub mod segment;
pub mod ser;
pub mod tiered;

pub use bloom::{mix64, SplitBloom};
pub use hot::{ClockTable, SLOT_BYTES};
pub use segment::{Segment, SegmentIter, SegmentWriter};
pub use ser::{fnv1a, ByteReader, ByteWriter};
pub use tiered::{TierConfig, TierCounters, TieredVisits};
