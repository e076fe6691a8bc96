//! `wave-svc`: the concurrent verification service.
//!
//! Turns the [`wave_core`] verifier into a service:
//!
//! * [`scheduler`] — a work scheduler that decomposes one check into
//!   independent units (per `C_∃` assignment, and per core-range within
//!   large assignments) and runs them on a `std::thread` worker pool,
//!   with cooperative cancellation so the first counterexample cancels
//!   its siblings. Verdicts are byte-identical to sequential runs (see
//!   the module docs for the determinism argument).
//! * [`service`] — suites and single checks as JSON jobs and records.
//! * [`cache`] — an in-memory + optional on-disk result cache keyed by
//!   a fingerprint of (canonical spec, property text, options).
//! * [`batch`] — the `wave batch <jobs.jsonl>` front-end.
//! * [`server`] — the `wave serve` line-JSON TCP front-end.
//! * [`fleet`] — distributed verification: a dispatcher that leases
//!   work units to remote `wave worker` processes with heartbeats,
//!   lease timeouts, straggler re-dispatch, and a local fallback
//!   executor, settling to verdicts byte-identical to `--jobs 1`.
//! * [`json`] — the dependency-free JSON model they all share.
//! * [`metrics`] — the service metrics bundle ([`SvcMetrics`]) backed by
//!   a [`wave_obs::MetricsRegistry`], exposed over the socket
//!   (`{"cmd":"metrics"}`) and an optional Prometheus listener.

pub mod batch;
pub mod cache;
pub mod fleet;
pub mod json;
pub mod metrics;
pub mod scheduler;
pub mod server;
pub mod service;

pub use batch::{render_records, run_batch, summary};
pub use cache::{
    fingerprint, CacheMetrics, CachedBudget, CachedResult, CachedVerdict, ResultCache,
};
pub use fleet::{
    check_fleet, run_worker, CheckSource, FleetDispatcher, FleetOptions, WorkerConfig, WorkerReport,
};
pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::SvcMetrics;
pub use scheduler::{check_parallel, run_prepared, ParallelOptions};
pub use server::{Server, ServerConfig};
pub use service::{
    diagnostic_records, lint_records, lookup_suite, parse_options, DiagnosticRecord, JobRecord,
    ServiceConfig, VerifyService,
};
