//! `wave-relalg`: the in-memory relational engine substrate of the wave
//! verifier.
//!
//! The SIGMOD 2005 wave implementation stored pseudoconfigurations in the
//! HSQLDB main-memory DBMS and evaluated the FO rule bodies as parameterized
//! SQL prepared statements. This crate is the from-scratch Rust equivalent:
//!
//! * interned [`value::Value`]s and canonical [`tuple::Relation`]s,
//! * [`schema::Schema`]s distinguishing database/state/input/action
//!   relations,
//! * [`instance::Instance`]s (the per-step working database),
//! * [`engine`]: a [`engine::MemoryEngine`] (the HSQLDB stand-in) and a
//!   deliberately disk-backed [`engine::DiskEngine`] used only to reproduce
//!   the paper's DBMS-selection microbenchmark,
//! * [`plan`]/[`exec`]/[`prepared`]: relational-algebra plans with parameter
//!   slots, a nested-loop interpreter, and reusable prepared queries (the
//!   JDBC prepared-statement equivalent),
//! * [`optimize`](mod@optimize): the planner pass that pushes selections
//!   below products, run once per query by [`PreparedQuery::prepare`].

pub mod engine;
pub mod exec;
pub mod instance;
pub mod optimize;
pub mod plan;
pub mod prepared;
pub mod schema;
pub mod tuple;
pub mod value;

pub use engine::{DiskEngine, MemoryEngine, StorageEngine};
pub use exec::{execute, ExecError, Params};
pub use instance::Instance;
pub use optimize::optimize;
pub use plan::{Plan, PlanError, PlanReads, Pred, Scalar};
pub use prepared::PreparedQuery;
pub use schema::{RelDecl, RelId, RelKind, Schema};
pub use tuple::{Relation, Tuple, TupleInterner};
pub use value::{SymbolTable, Value, ValueKind};
