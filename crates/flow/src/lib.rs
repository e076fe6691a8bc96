//! wave-flow — a fixpoint dataflow framework over wave specs.
//!
//! The framework runs a combined least fixpoint over three joined
//! graphs: page reachability (the page graph restricted to
//! statically-live target edges), relation emptiness (which state /
//! action / input relations can ever hold a tuple), and column value
//! sets (constant propagation over the §3.2 comparison sets). The
//! fixpoint is a dependency worklist over guards compiled to interned
//! ids: a rule is evaluated when its page first becomes reachable and
//! again only when a relation its guard reads grows. On top of the
//! fixpoint a classification pass names:
//!
//! * **dead rules** — guards refuted by the abstract evaluator, each
//!   with a provenance chain (surfaced as W0601 and pruned from the
//!   verifier's search). Notes are rendered only for these: every other
//!   evaluation runs with provenance compiled out;
//! * **always-empty relations** (W0602) and **unreachable pages**
//!   (W0603), both consequences of the same facts;
//! * **monotone state relations** — inserted but never deleted (N0604
//!   plus the verifier's delete-skipping fast path and memo-epoch
//!   stabilization).
//!
//! The analyses are *refutation oriented*: every definite answer errs
//! toward "don't know", so anything the report prunes is provably
//! impossible in every run over every database. That is the soundness
//! contract the verifier's slice relies on (DESIGN.md §14).

mod absint;
mod analyses;
mod lattice;

pub use analyses::{analyze, DeadRule, EmptyRel, FlowReport, RuleKind, RuleRef};
