//! Property-based tests for the verifier's data structures: the visited
//! table behaves like a reference set, and bitmap subset enumeration is
//! exact.

use proptest::prelude::*;
use std::collections::HashSet;
use wave_core::{Phase, Universe, VisitTable};
use wave_relalg::{RelId, Tuple, Value};

proptest! {
    /// The visited table agrees with a HashSet model under arbitrary key
    /// sequences. Keys are drawn from a small range so they repeat.
    #[test]
    fn trie_matches_reference_set(
        ops in prop::collection::vec((0u64..48, any::<bool>()), 0..64)
    ) {
        let mut table = VisitTable::new();
        let mut model: HashSet<(u64, bool)> = HashSet::new();
        for &(key, candy) in &ops {
            let phase = if candy { Phase::Candy } else { Phase::Stick };
            let was = table.mark(key, phase);
            let model_was = !model.insert((key, candy));
            prop_assert_eq!(was, model_was);
        }
        // membership queries agree afterwards, for both phases
        for key in 0u64..48 {
            for candy in [false, true] {
                let phase = if candy { Phase::Candy } else { Phase::Stick };
                prop_assert_eq!(table.is_marked(key, phase), model.contains(&(key, candy)));
            }
        }
        let keys: HashSet<u64> = ops.iter().map(|&(k, _)| k).collect();
        prop_assert_eq!(table.len(), keys.len());
        prop_assert_eq!(table.max_len(), keys.len());
    }

    /// Subset enumeration visits exactly 2^n distinct subsets.
    #[test]
    fn subsets_are_exact(n in 0usize..8) {
        let candidates: Vec<(RelId, Tuple)> = (0..n)
            .map(|i| (RelId(0), Tuple::from([Value(i as u32)])))
            .collect();
        let u = Universe { candidates };
        let subsets: Vec<_> = u.subsets().collect();
        prop_assert_eq!(subsets.len() as u64, u.subset_count());
        let distinct: HashSet<_> = subsets.iter().cloned().collect();
        prop_assert_eq!(distinct.len(), subsets.len());
        // every subset is a subset of the candidates
        for s in &subsets {
            for f in s {
                prop_assert!(u.candidates.contains(f));
            }
        }
    }

    /// Bitmap decode is the inverse of the subset's index.
    #[test]
    fn decode_round_trips(n in 1usize..8, bitmap in 0u64..256) {
        let candidates: Vec<(RelId, Tuple)> = (0..n)
            .map(|i| (RelId(0), Tuple::from([Value(i as u32)])))
            .collect();
        let u = Universe { candidates };
        let bitmap = bitmap % u.subset_count();
        let facts = u.decode(bitmap);
        // reconstruct the bitmap from the facts
        let mut rebuilt = 0u64;
        for (i, c) in u.candidates.iter().enumerate() {
            if facts.contains(c) {
                rebuilt |= 1 << i;
            }
        }
        prop_assert_eq!(rebuilt, bitmap);
    }
}
