//! A lightweight search-phase profiler.
//!
//! The `ndfs-pseudo` search spends its time in a handful of phases —
//! canonicalizing successor facts, interning configurations into the
//! hash-consed store, running `succP`, evaluating the property's FO
//! components, and probing the visited set. [`SearchProfile`] carries a
//! nanosecond counter per phase plus interner hit/miss counts, so the
//! cost split is visible in `SearchStats`, `wave check --json`, and the
//! batch/server records without an external profiler.
//!
//! The expand, intern, eval and canon counters are sampled with
//! `Instant::now()` pairs around each phase; those phases are coarse
//! (whole `succP` calls, interning batches, one assignment per
//! configuration). The visited set is not: a probe is one hash lookup,
//! several times cheaper than the clock pair that would time it, so it
//! is never timed on its own. Instead each core's search reads the clock
//! once at each end, and `visit_ns` is the *residual* — the run's wall
//! time minus the expand, intern and eval intervals inside it: visited-set
//! probes, the search path, Büchi transition selection and
//! expansion-cache lookups. [`SearchProfile::total_ns`] is therefore the
//! searches' wall time by construction. `expand_ns` measures the whole
//! `succP` call and therefore *includes* the canonicalization time
//! reported separately in `canon_ns`.

use std::time::Instant;

/// Declares [`SearchProfile`] from one list of counters, together with
/// the list itself ([`SearchProfile::FIELDS`]) and the accessors every
/// field-by-field consumer iterates — the merge, the cache and fleet
/// JSON codec, the checkpoint layout — so a new counter is one line here.
macro_rules! search_profile {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Per-phase wall-time (nanoseconds) and interner counters for one
        /// search. Merging (`add`) sums every field.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct SearchProfile {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl SearchProfile {
            /// Every counter's name, in declaration order.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];

            /// Every counter's value, in [`SearchProfile::FIELDS`] order.
            pub fn counters(&self) -> impl Iterator<Item = u64> {
                [$(self.$field),*].into_iter()
            }

            /// Every counter's slot, in [`SearchProfile::FIELDS`] order.
            pub fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                [$(&mut self.$field),*].into_iter()
            }
        }
    };
}

search_profile! {
    /// Canonicalizing (sort + dedup) successor fact lists, inside `succP`.
    canon_ns,
    /// Interning configurations into the hash-consing arena
    /// ([`crate::ConfigStore`]).
    intern_ns,
    /// `succP` successor computation (includes `canon_ns`).
    expand_ns,
    /// FO-component truth assignments.
    eval_ns,
    /// The nested DFS's own work: each search's wall time minus its
    /// expand, intern and eval intervals (visited-set probes, the path,
    /// transition selection, expansion-cache lookups).
    visit_ns,
    /// Configurations that interned to an already-stored id.
    intern_hits,
    /// Configurations stored for the first time.
    intern_misses,
    /// Steps granted by the shared [`crate::budget::BudgetPool`] to this
    /// search's leases (see the lease-chunk protocol there). The split
    /// between leases depends on the chunk size and, under the parallel
    /// scheduler, on worker timing — so these two counters are reported
    /// for budget accounting but are *not* part of the deterministic
    /// record output.
    steps_leased,
    /// Granted steps returned unspent when the leases were released.
    /// `steps_leased - steps_refunded` equals the steps actually charged.
    steps_refunded,
    /// Visited pairs written to spill segments by the tiered store
    /// (zero under the in-memory backends). Deterministic for a given
    /// sequential search; under the parallel scheduler the per-unit
    /// split varies with the split factor, like the interner counters.
    spill_pairs,
    /// Spill segments written (compaction outputs included).
    spill_segments,
    /// Cold-tier merge compactions run.
    spill_compactions,
    /// Visited-set probes the Bloom front answered without touching
    /// any tier ("definitely fresh").
    bloom_skips,
    /// Visited-set probes that had to search the on-disk cold tier.
    cold_probes,
    /// Rule/target evaluations answered from the delta-driven query memo
    /// without re-executing the plan (see [`crate::memo::QueryEngine`]).
    /// Like the interner counters, the per-unit split under the parallel
    /// scheduler depends on worker timing, so these are reported but not
    /// part of the deterministic record output.
    memo_hits,
    /// Memoized rule/target evaluations that had to execute the plan.
    memo_misses,
    /// Hash tables built by lowered hash-join operators (zero under
    /// `--naive-joins`, which keeps every join nested-loop).
    join_builds,
    /// Rules (targets included) the wave-flow slice removed from the
    /// search (dead guards + unreachable pages). Stamped once per check
    /// from the verifier's [`crate::SliceInfo`] by
    /// [`crate::PreparedCheck::settle`] — per-unit profiles carry zero. Deterministic per check, but it
    /// differs between `--no-slice` (always zero) and the default run
    /// *by design*, so equivalence comparisons must exclude it (like
    /// `memo_hits`).
    slice_rules_removed,
    /// Relations statically proven always-empty (memo-mask narrowing
    /// set). Stamped like `slice_rules_removed`.
    slice_relations_removed,
    /// Rules whose guard the flow analysis refuted outright (the W0601
    /// set; a subset of `slice_rules_removed`). Stamped like
    /// `slice_rules_removed`.
    flow_dead_rules,
}

impl SearchProfile {
    /// Fold another profile into this one (all counters add).
    pub fn add(&mut self, other: &SearchProfile) {
        for (slot, v) in self.counters_mut().zip(other.counters()) {
            *slot += v;
        }
    }

    /// True when every counter is zero (e.g. a cache-hit record).
    pub fn is_zero(&self) -> bool {
        *self == SearchProfile::default()
    }

    /// Total profiled time: the sum of the *disjoint* phases, which is
    /// the searches' wall time (`visit_ns` is the residual). `canon_ns`
    /// is excluded because `expand_ns` already includes it.
    pub fn total_ns(&self) -> u64 {
        self.intern_ns + self.expand_ns + self.eval_ns + self.visit_ns
    }

    /// Fraction of interns that hit an already-stored configuration, in
    /// `[0, 1]`; `None` before any intern happened.
    pub fn intern_hit_rate(&self) -> Option<f64> {
        let total = self.intern_hits + self.intern_misses;
        (total > 0).then(|| self.intern_hits as f64 / total as f64)
    }

    /// Fraction of memoized rule evaluations answered from the memo, in
    /// `[0, 1]`; `None` when the memo never engaged (e.g. `--naive-joins`).
    pub fn memo_hit_rate(&self) -> Option<f64> {
        let total = self.memo_hits + self.memo_misses;
        (total > 0).then(|| self.memo_hits as f64 / total as f64)
    }

    /// A phase's share of [`SearchProfile::total_ns`] as a percentage in
    /// `[0, 100]`; `None` when nothing was profiled yet. `canon_ns` is a
    /// sub-phase of `expand_ns`, so percentages of the four disjoint
    /// phases sum to ~100 while `canon` reports its own overlapping share.
    pub fn pct(&self, phase_ns: u64) -> Option<f64> {
        let total = self.total_ns();
        (total > 0).then(|| phase_ns as f64 * 100.0 / total as f64)
    }

    /// Time `f`, adding the elapsed nanoseconds to the slot `pick`
    /// selects (e.g. `|p| &mut p.eval_ns`).
    #[inline]
    pub fn time<T>(
        &mut self,
        pick: impl FnOnce(&mut Self) -> &mut u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        *pick(self) += t0.elapsed().as_nanos() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates_into_the_picked_slot() {
        let mut p = SearchProfile::default();
        let v = p.time(|p| &mut p.eval_ns, || 42);
        assert_eq!(v, 42);
        p.time(|p| &mut p.canon_ns, || std::thread::sleep(std::time::Duration::from_micros(50)));
        assert!(p.canon_ns >= 50_000, "{}", p.canon_ns);
        assert_eq!(p.visit_ns, 0);
    }

    #[test]
    fn derived_rates_and_percentages() {
        let p = SearchProfile::default();
        assert_eq!(p.total_ns(), 0);
        assert_eq!(p.intern_hit_rate(), None);
        assert_eq!(p.pct(p.eval_ns), None);

        let p = SearchProfile {
            canon_ns: 5,
            intern_ns: 10,
            expand_ns: 50,
            eval_ns: 30,
            visit_ns: 10,
            intern_hits: 3,
            intern_misses: 1,
            ..Default::default()
        };
        assert_eq!(p.total_ns(), 100, "canon is inside expand, not added again");
        assert_eq!(p.intern_hit_rate(), Some(0.75));
        assert_eq!(p.pct(p.expand_ns), Some(50.0));
        assert_eq!(p.pct(p.canon_ns), Some(5.0));
    }

    #[test]
    fn the_field_list_names_every_counter_in_order() {
        let mut p = SearchProfile::default();
        for (v, slot) in (1..).zip(p.counters_mut()) {
            *slot = v;
        }
        assert_eq!(SearchProfile::FIELDS.len(), p.counters().count());
        assert_eq!(SearchProfile::FIELDS[0], "canon_ns");
        assert_eq!(p.canon_ns, 1);
        assert_eq!(SearchProfile::FIELDS[4], "visit_ns");
        assert_eq!(p.visit_ns, 5);
        assert_eq!(SearchProfile::FIELDS.last(), Some(&"flow_dead_rules"));
        assert_eq!(p.flow_dead_rules, SearchProfile::FIELDS.len() as u64);
    }

    #[test]
    fn add_sums_everything() {
        let mut a = SearchProfile { canon_ns: 1, intern_hits: 2, ..Default::default() };
        let b = SearchProfile { canon_ns: 10, intern_misses: 3, ..Default::default() };
        a.add(&b);
        assert_eq!(a.canon_ns, 11);
        assert_eq!(a.intern_hits, 2);
        assert_eq!(a.intern_misses, 3);
        assert!(!a.is_zero());
        assert!(SearchProfile::default().is_zero());
    }
}
