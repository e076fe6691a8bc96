//! `wave-core`: the wave verifier — the primary contribution of the paper
//! "A Verifier for Interactive, Data-driven Web Applications" (SIGMOD'05),
//! reimplemented in Rust.
//!
//! The verifier checks LTL-FO properties of web application specifications
//! by a nested depth-first search over *pseudoruns*: sequences of partially
//! specified configurations built lazily from a pruned database core and
//! per-page extensions. See DESIGN.md at the repository root for the
//! architecture and the mapping to the paper's sections.
//!
//! Entry point: [`Verifier`].
//!
//! ```
//! use wave_core::Verifier;
//! use wave_spec::parse_spec;
//!
//! let spec = parse_spec(r#"
//!     spec pingpong {
//!       inputs { button(x); }
//!       home A;
//!       page A {
//!         inputs { button }
//!         options button(x) <- x = "go";
//!         target B <- button("go");
//!       }
//!       page B { target A <- true; }
//!     }
//! "#).unwrap();
//! let verifier = Verifier::new(spec).unwrap();
//! // from A the site can only move to B or stay on A
//! let v = verifier.check_str("G (@A -> X (@A | @B))").unwrap();
//! assert!(v.verdict.holds());
//! ```

pub mod budget;
pub mod cancel;
pub mod checkpoint;
pub mod config;
pub mod domain;
pub mod intern;
pub mod layout;
pub mod memo;
pub mod ndfs;
pub mod profile;
pub mod replay;
pub mod slice;
pub mod store;
pub mod succ;
pub mod trie;
pub mod universe;
pub mod verifier;
pub mod visibility;

pub use budget::{BudgetPool, StepLease, DEFAULT_BUDGET_CHUNK};
pub use cancel::CancelToken;
pub use checkpoint::{
    check_checkpointed, check_checkpointed_traced, CheckpointConfig, CheckpointOutcome,
    CHECKPOINT_FILE,
};
pub use config::{canonicalize, core_instance, no_facts, Facts, PseudoConfig, SharedFacts};
pub use domain::{assignments, build_pools, Assignment, PagePool, ParamMode};
pub use intern::{ConfigId, ConfigStore, FactsId, InternStats};
pub use layout::RelLayout;
pub use memo::{QueryCost, QueryEngine};
pub use ndfs::{Budget, CounterExample, SearchLimits, SearchResult, SearchStats, TraceStep};
pub use profile::SearchProfile;
pub use replay::{replay, ReplayError};
pub use slice::SliceInfo;
pub use store::{StateStore, StateStoreKind, TierParams};
pub use succ::{SearchCtx, SuccError};
pub use trie::{Phase, VisitTable};
pub use universe::{
    core_universe, extension_universe, ExtensionPruning, Universe, UniverseOverflow, MAX_BLOCKS,
    MAX_UNIVERSE,
};
pub use verifier::{
    PreparedCheck, Stats, UnitOutcome, Verdict, Verification, Verifier, VerifyError, VerifyOptions,
};
pub use visibility::Visibility;
// Re-exported so callers attaching a tracer don't need a direct wave-obs
// dependency for the common types.
pub use wave_obs::{
    FlightRecorder, JsonlTracer, NoopSpans, NoopTracer, SearchTracer, SpanProfiler, SpanRow,
    SpanSink, Tee, TraceEvent, NO_INDEX, TRACE_SCHEMA_VERSION,
};
// Re-exported because `StateStore::tier_counters` returns it.
pub use wave_store::TierCounters;
