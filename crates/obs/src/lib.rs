//! `wave-obs`: observability primitives for the wave verifier.
//!
//! The search reports to one [`Observer`] ([`observer`]), which sees
//! two streams, each behind its own `const` flag: structured events and
//! span frames. The quiet observer `()` switches both off, so the
//! unobserved search monomorphizes to nothing extra. Three observers
//! ship here, all dependency-free:
//!
//! * [`trace`] — structured search tracing: a versioned [`TraceEvent`]
//!   model, a JSONL stream writer ([`JsonlTracer`]) and a bounded
//!   [`FlightRecorder`] ring buffer for postmortems.
//! * [`span`] (wave-prof) — the hierarchical [`SpanProfiler`], which
//!   renders the search's call tree as an attribution table or as
//!   inferno-compatible folded stacks.
//!
//! Beside them, [`metrics`] is a lock-free metrics registry: atomic
//! [`Counter`]s, [`Gauge`]s and log-scale-bucketed [`Histogram`]s
//! registered by name, rendered as Prometheus text exposition
//! ([`prom`]) and served by a tiny hand-rolled HTTP listener
//! ([`MetricsServer`]).
//!
//! The crate sits below `wave-core` in the dependency graph; events and
//! metric values are plain integers so nothing verifier-shaped leaks in.

pub mod metrics;
pub mod observer;
pub mod prom;
pub mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricKind, MetricSnapshot, MetricsRegistry};
pub use observer::Observer;
pub use prom::{render_prometheus, MetricsServer};
pub use span::{SpanProfiler, SpanRow, NO_INDEX};
pub use trace::{FlightRecorder, JsonlTracer, TraceEvent, TRACE_SCHEMA_VERSION};
