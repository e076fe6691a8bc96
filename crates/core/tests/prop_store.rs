//! Proptest oracle for the tiered out-of-core visited set (ISSUE 6).
//!
//! The flat in-memory [`VisitTable`] is the reference semantics for the
//! NDFS visited set: per-phase mark bits on packed `(config, automaton
//! state)` keys, `clear` between cores, a historic distinct-count
//! maximum across clears. `wave-store`'s tiered backend (Bloom front →
//! clock hot tier → sorted spill segments) must be observationally
//! identical on every interleaving of `mark` / `is_marked` /
//! `clear_visits` — at a generous budget where nothing spills *and* at a
//! zero budget where eviction pushes almost everything through the
//! spill path on every insert.
//!
//! A second property drives the checkpoint invariant: at a core
//! boundary (visited set empty by construction), a `save_state` /
//! fresh-store / `load_state` round trip must preserve the intern
//! arena — same configurations re-intern to the same ids — and the
//! restored store must keep agreeing with the oracle afterwards.

use proptest::prelude::*;
use std::sync::Arc;
use wave_core::{
    ConfigId, Phase, PseudoConfig, StateStore, StateStoreKind, TierParams, VisitTable,
};
use wave_relalg::{RelId, Tuple, Value};
use wave_spec::PageId;
use wave_store::{ByteReader, ByteWriter};

/// One visited-set operation over a small key universe.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `mark(key(cfg, auto), phase)` — both sides must agree on the
    /// already-marked return.
    Mark { cfg: u8, auto: u8, candy: bool },
    /// `is_marked(key(cfg, auto), phase)`.
    Probe { cfg: u8, auto: u8, candy: bool },
    /// Core boundary: reset the visited set, keep the historic max.
    Clear,
}

fn phase(candy: bool) -> Phase {
    if candy {
        Phase::Candy
    } else {
        Phase::Stick
    }
}

/// A deliberately small universe (6 configs × 4 automaton states) so
/// random sequences revisit keys often — the interesting transitions
/// are re-marks, cross-phase probes, and eviction of a key that is
/// marked again later.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 0u8..4, prop_oneof![Just(false), Just(true)])
            .prop_map(|(cfg, auto, candy)| Op::Mark { cfg, auto, candy }),
        (0u8..6, 0u8..4, prop_oneof![Just(false), Just(true)])
            .prop_map(|(cfg, auto, candy)| Op::Probe { cfg, auto, candy }),
        Just(Op::Clear),
    ]
}

fn key(cfg: u8, auto: u8) -> u64 {
    VisitTable::key(ConfigId(u32::from(cfg)), auto as usize)
}

/// A store whose visited set is the tiered one, sized by `params`.
fn tiered_store(params: &TierParams) -> StateStore {
    StateStore::new(&StateStoreKind::Tiered(params.clone())).expect("store builds")
}

/// A distinct pseudo-configuration per universe slot (used by the
/// checkpoint property, which exercises real interning).
fn config(slot: u8) -> PseudoConfig {
    let mut c = PseudoConfig::initial(PageId(0));
    c.state = Arc::new(vec![(RelId(0), Tuple::from([Value(u32::from(slot))]))]);
    c
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// Any op sequence observes the same marks through the tiered store
    /// as through the flat table, at both budget extremes, and the
    /// historic distinct-count maximum matches at the end.
    #[test]
    fn tiered_visits_match_the_flat_table(
        ops in prop::collection::vec(op_strategy(), 160),
    ) {
        for mem_bytes in [0u64, 1 << 20] {
            let mut oracle = VisitTable::new();
            let mut tiered = tiered_store(&TierParams { mem_bytes, spill_dir: None });
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Mark { cfg, auto, candy } => {
                        let k = key(cfg, auto);
                        prop_assert_eq!(
                            oracle.mark(k, phase(candy)),
                            tiered.mark(k, phase(candy)).unwrap(),
                            "op {i}: mark({cfg},{auto},{candy:?}) diverged at {mem_bytes} bytes"
                        );
                    }
                    Op::Probe { cfg, auto, candy } => {
                        let k = key(cfg, auto);
                        prop_assert_eq!(
                            oracle.is_marked(k, phase(candy)),
                            tiered.is_marked(k, phase(candy)).unwrap(),
                            "op {i}: is_marked({cfg},{auto},{candy:?}) diverged at {mem_bytes} bytes"
                        );
                    }
                    Op::Clear => {
                        oracle.clear();
                        tiered.clear_visits();
                    }
                }
            }
            prop_assert_eq!(
                oracle.max_len(),
                tiered.max_visited(),
                "historic distinct maximum diverged at {mem_bytes} bytes"
            );
        }
    }

    /// Checkpoint round trip at a core boundary: marks agree before,
    /// the arena survives serialization (same ids for the same
    /// configurations), and marks agree after the restore.
    #[test]
    fn agreement_survives_a_checkpoint_round_trip(
        pre in prop::collection::vec(op_strategy(), 80),
        post in prop::collection::vec(op_strategy(), 80),
    ) {
        let params = TierParams { mem_bytes: 0, spill_dir: None };
        let mut oracle = StateStore::new(&StateStoreKind::Interned).unwrap();
        let mut tiered = tiered_store(&params);

        // intern the whole universe up front; ids must agree pairwise
        let mut keys = Vec::new();
        for slot in 0u8..6 {
            let (a, _) = oracle.intern(&config(slot));
            let (b, _) = tiered.intern(&config(slot));
            prop_assert_eq!(a, b, "slot {slot} interned to different ids");
            keys.push(a);
        }

        let run = |ops: &[Op],
                       oracle: &mut StateStore,
                       tiered: &mut StateStore|
         -> Result<(), String> {
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Mark { cfg, auto, candy } => {
                        let k = VisitTable::key(keys[cfg as usize], auto as usize);
                        prop_assert_eq!(
                            oracle.mark(k, phase(candy)).unwrap(),
                            tiered.mark(k, phase(candy)).unwrap(),
                            "op {i}: mark diverged"
                        );
                    }
                    Op::Probe { cfg, auto, candy } => {
                        let k = VisitTable::key(keys[cfg as usize], auto as usize);
                        prop_assert_eq!(
                            oracle.is_marked(k, phase(candy)).unwrap(),
                            tiered.is_marked(k, phase(candy)).unwrap(),
                            "op {i}: is_marked diverged"
                        );
                    }
                    Op::Clear => {
                        oracle.clear_visits();
                        tiered.clear_visits();
                    }
                }
            }
            Ok(())
        };

        run(&pre, &mut oracle, &mut tiered)?;

        // core boundary: visited sets empty on both sides by construction
        oracle.clear_visits();
        tiered.clear_visits();

        // kill + resume: serialize the arena, rebuild from scratch
        let mut w = ByteWriter::new();
        tiered.save_state(&mut w);
        let blob = w.into_inner();
        let mut tiered = tiered_store(&params);
        prop_assert!(
            tiered.load_state(&mut ByteReader::new(&blob)),
            "checkpoint payload must decode"
        );

        // the restored arena yields the same ids for the same configs
        for (slot, expected) in keys.iter().enumerate() {
            let (id, _) = tiered.intern(&config(slot as u8));
            prop_assert_eq!(id, *expected, "slot {slot} re-interned differently after restore");
        }

        run(&post, &mut oracle, &mut tiered)?;
    }
}
