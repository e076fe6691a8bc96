//! Service-level metrics: the typed handle bundle every svc subsystem
//! shares.
//!
//! One [`SvcMetrics`] is created per service (or per `wave serve`
//! process) and threaded by `Arc` into the scheduler, the result cache,
//! and the TCP front-end. The instruments live in a
//! [`wave_obs::MetricsRegistry`], so the same state renders two ways:
//! line-JSON for the `{"cmd":"metrics"}` socket command
//! ([`SvcMetrics::to_json`]) and Prometheus text exposition for the
//! optional `--metrics-addr` scrape listener
//! ([`wave_obs::render_prometheus`]).

use crate::json::Json;
use std::sync::Arc;
use wave_obs::{Counter, Gauge, Histogram, MetricKind, MetricsRegistry};

/// Typed handles into the service's metrics registry. Field order is
/// registration order, which is also the exposition order.
pub struct SvcMetrics {
    registry: Arc<MetricsRegistry>,
    /// Checks started (fresh runs, not cache hits).
    pub checks_total: Arc<Counter>,
    /// Checks currently running on the scheduler.
    pub checks_inflight: Arc<Gauge>,
    /// Result-cache lookups that were served from memory or disk.
    pub cache_hits: Arc<Counter>,
    /// Result-cache lookups that missed both tiers.
    pub cache_misses: Arc<Counter>,
    /// Entries evicted from the in-memory LRU tier.
    pub cache_evictions: Arc<Counter>,
    /// Work items waiting for a scheduler worker.
    pub queue_depth: Arc<Gauge>,
    /// Wall-time per scheduler work unit (one core-range scan), ns.
    pub unit_latency_ns: Arc<Histogram>,
    /// Visited pairs written to spill segments by the tiered store.
    pub spill_pairs_total: Arc<Counter>,
    /// Spill segments written by the tiered store (compaction outputs
    /// included).
    pub spill_segments_total: Arc<Counter>,
    /// Cold-tier merge compactions run by the tiered store.
    pub spill_compactions_total: Arc<Counter>,
    /// High-water mark of visited pairs resident in memory across all
    /// completed work units (gauge; only ever ratchets up via
    /// [`Gauge::set_max`]).
    pub store_max_resident: Arc<Gauge>,
    /// High-water mark of visited pairs spilled to disk across all
    /// completed work units (gauge; ratchets up like `store_max_resident`).
    pub store_max_spilled: Arc<Gauge>,
    /// Rule/target evaluations answered from the delta-driven query memo.
    pub memo_hits_total: Arc<Counter>,
    /// Memoized rule/target evaluations that executed their plan.
    pub memo_misses_total: Arc<Counter>,
    /// Retired: always 0 (it counted hash-join builds; every join is a
    /// nested loop now). Kept while the bench harness reads the counter.
    pub join_builds_total: Arc<Counter>,
    /// Rules (targets included) the wave-flow slice removed from
    /// completed checks (summed per check, not per unit).
    pub slice_rules_removed_total: Arc<Counter>,
    /// Relations statically proven always-empty across completed checks.
    pub slice_relations_removed_total: Arc<Counter>,
    /// Rules whose guard the flow analysis refuted across completed
    /// checks.
    pub flow_dead_rules_total: Arc<Counter>,
    /// Open `wave serve` connections.
    pub connections_active: Arc<Gauge>,
    /// Request lines processed by the server.
    pub requests_total: Arc<Counter>,
    /// Connection handlers that panicked (slot released by guard).
    pub handler_panics_total: Arc<Counter>,
    /// Connections dropped on a socket read/write timeout.
    pub conn_timeouts_total: Arc<Counter>,
    /// Disk-cache persist attempts that failed (tmp write, fsync, or
    /// rename); the entry stays memory-only.
    pub cache_persist_errors_total: Arc<Counter>,
    /// Scheduler work units whose search panicked (recorded as failed
    /// outcomes, re-run by the settlement pass when budgeted).
    pub unit_panics_total: Arc<Counter>,
    /// Fleet workers currently registered with the dispatcher.
    pub fleet_workers_connected: Arc<Gauge>,
    /// Fleet workers that ever registered.
    pub fleet_workers_total: Arc<Counter>,
    /// Work-unit leases sent to fleet workers (re-dispatches included).
    pub fleet_units_dispatched_total: Arc<Counter>,
    /// Work-unit outcomes accepted from fleet workers.
    pub fleet_units_completed_total: Arc<Counter>,
    /// Straggler units duplicated onto a second worker.
    pub fleet_units_redispatched_total: Arc<Counter>,
    /// Leases that exceeded the lease timeout.
    pub fleet_lease_timeouts_total: Arc<Counter>,
    /// Workers declared dead (heartbeat loss, EOF, or protocol error).
    pub fleet_worker_deaths_total: Arc<Counter>,
    /// Worker-reported unit errors (re-queued, never recorded).
    pub fleet_worker_errors_total: Arc<Counter>,
    /// Units the dispatcher ran locally (fallback executor).
    pub fleet_local_units_total: Arc<Counter>,
    /// Heartbeat lines received from fleet workers.
    pub fleet_heartbeats_total: Arc<Counter>,
}

impl std::fmt::Debug for SvcMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SvcMetrics")
            .field("checks_total", &self.checks_total.get())
            .field("checks_inflight", &self.checks_inflight.get())
            .finish_non_exhaustive()
    }
}

impl SvcMetrics {
    pub fn new() -> Arc<SvcMetrics> {
        let registry = Arc::new(MetricsRegistry::new());
        Arc::new(SvcMetrics {
            checks_total: registry
                .counter("wave_checks_total", "Verification checks started (cache hits excluded)"),
            checks_inflight: registry
                .gauge("wave_checks_inflight", "Verification checks currently running"),
            cache_hits: registry
                .counter("wave_cache_hits_total", "Result cache hits (memory or disk tier)"),
            cache_misses: registry.counter("wave_cache_misses_total", "Result cache misses"),
            cache_evictions: registry
                .counter("wave_cache_evictions_total", "Entries evicted from the memory tier"),
            queue_depth: registry
                .gauge("wave_scheduler_queue_depth", "Work items waiting for a scheduler worker"),
            unit_latency_ns: registry
                .histogram("wave_unit_latency_ns", "Scheduler work-unit wall time (ns)"),
            spill_pairs_total: registry.counter(
                "wave_spill_pairs_total",
                "Visited pairs written to spill segments by the tiered store",
            ),
            spill_segments_total: registry.counter(
                "wave_spill_segments_total",
                "Spill segments written by the tiered store (compactions included)",
            ),
            spill_compactions_total: registry
                .counter("wave_spill_compactions_total", "Cold-tier merge compactions run"),
            store_max_resident: registry.gauge(
                "wave_store_max_resident",
                "High-water mark of visited pairs resident in memory",
            ),
            store_max_spilled: registry.gauge(
                "wave_store_max_spilled",
                "High-water mark of visited pairs spilled to disk",
            ),
            memo_hits_total: registry.counter(
                "wave_memo_hits_total",
                "Rule evaluations answered from the delta-driven query memo",
            ),
            memo_misses_total: registry.counter(
                "wave_memo_misses_total",
                "Memoized rule evaluations that executed their plan",
            ),
            join_builds_total: registry.counter(
                "wave_join_builds_total",
                "Retired, always 0: hash tables built by hash-join operators",
            ),
            slice_rules_removed_total: registry.counter(
                "wave_slice_rules_removed_total",
                "Rules removed by the wave-flow slice across completed checks",
            ),
            slice_relations_removed_total: registry.counter(
                "wave_slice_relations_removed_total",
                "Relations statically proven always-empty across completed checks",
            ),
            flow_dead_rules_total: registry.counter(
                "wave_flow_dead_rules_total",
                "Rules with statically unsatisfiable guards across completed checks",
            ),
            connections_active: registry
                .gauge("wave_connections_active", "Open wave serve connections"),
            requests_total: registry
                .counter("wave_requests_total", "Request lines processed by wave serve"),
            handler_panics_total: registry
                .counter("wave_handler_panics_total", "Connection handlers that panicked"),
            conn_timeouts_total: registry.counter(
                "wave_conn_timeouts_total",
                "Connections dropped on a socket read/write timeout",
            ),
            cache_persist_errors_total: registry.counter(
                "wave_cache_persist_errors_total",
                "Disk-cache persist attempts that failed",
            ),
            unit_panics_total: registry
                .counter("wave_unit_panics_total", "Scheduler work units whose search panicked"),
            fleet_workers_connected: registry.gauge(
                "wave_fleet_workers_connected",
                "Fleet workers currently registered with the dispatcher",
            ),
            fleet_workers_total: registry
                .counter("wave_fleet_workers_total", "Fleet workers that ever registered"),
            fleet_units_dispatched_total: registry.counter(
                "wave_fleet_units_dispatched_total",
                "Work-unit leases sent to fleet workers (re-dispatches included)",
            ),
            fleet_units_completed_total: registry.counter(
                "wave_fleet_units_completed_total",
                "Work-unit outcomes accepted from fleet workers",
            ),
            fleet_units_redispatched_total: registry.counter(
                "wave_fleet_units_redispatched_total",
                "Straggler units duplicated onto a second worker",
            ),
            fleet_lease_timeouts_total: registry
                .counter("wave_fleet_lease_timeouts_total", "Leases that exceeded the timeout"),
            fleet_worker_deaths_total: registry.counter(
                "wave_fleet_worker_deaths_total",
                "Workers declared dead (heartbeat loss, EOF, or protocol error)",
            ),
            fleet_worker_errors_total: registry.counter(
                "wave_fleet_worker_errors_total",
                "Worker-reported unit errors (re-queued, never recorded)",
            ),
            fleet_local_units_total: registry.counter(
                "wave_fleet_local_units_total",
                "Units the dispatcher ran locally (fallback executor)",
            ),
            fleet_heartbeats_total: registry
                .counter("wave_fleet_heartbeats_total", "Heartbeat lines received from workers"),
            registry,
        })
    }

    /// The backing registry (for Prometheus exposition).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Snapshot as a JSON object: counters and gauges as numbers,
    /// histograms as `{"count":…,"sum":…}` objects.
    pub fn to_json(&self) -> Json {
        let pairs = self
            .registry
            .snapshot()
            .into_iter()
            .map(|snap| {
                let value = match snap.kind {
                    MetricKind::Counter => Json::from(snap.value),
                    MetricKind::Gauge => Json::from(snap.gauge as f64),
                    MetricKind::Histogram => Json::obj([
                        ("count", Json::from(snap.hist_count)),
                        ("sum", Json::from(snap.hist_sum)),
                    ]),
                };
                (snap.name, value)
            })
            .collect();
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_snapshot_has_every_instrument() {
        let m = SvcMetrics::new();
        m.checks_total.inc();
        m.checks_inflight.set(2);
        m.unit_latency_ns.observe(1_000);
        let json = m.to_json();
        assert_eq!(json.get("wave_checks_total").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("wave_checks_inflight").unwrap().as_f64(), Some(2.0));
        let hist = json.get("wave_unit_latency_ns").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("sum").unwrap().as_u64(), Some(1_000));
        for name in [
            "wave_cache_hits_total",
            "wave_cache_misses_total",
            "wave_cache_evictions_total",
            "wave_scheduler_queue_depth",
            "wave_spill_pairs_total",
            "wave_spill_segments_total",
            "wave_spill_compactions_total",
            "wave_store_max_resident",
            "wave_store_max_spilled",
            "wave_memo_hits_total",
            "wave_memo_misses_total",
            "wave_join_builds_total",
            "wave_slice_rules_removed_total",
            "wave_slice_relations_removed_total",
            "wave_flow_dead_rules_total",
            "wave_connections_active",
            "wave_requests_total",
            "wave_handler_panics_total",
            "wave_conn_timeouts_total",
            "wave_cache_persist_errors_total",
            "wave_unit_panics_total",
            "wave_fleet_workers_connected",
            "wave_fleet_workers_total",
            "wave_fleet_units_dispatched_total",
            "wave_fleet_units_completed_total",
            "wave_fleet_units_redispatched_total",
            "wave_fleet_lease_timeouts_total",
            "wave_fleet_worker_deaths_total",
            "wave_fleet_worker_errors_total",
            "wave_fleet_local_units_total",
            "wave_fleet_heartbeats_total",
        ] {
            assert!(json.get(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn prometheus_render_covers_the_registry() {
        let m = SvcMetrics::new();
        m.requests_total.add(7);
        let text = wave_obs::render_prometheus(m.registry());
        assert!(text.contains("# TYPE wave_requests_total counter"), "{text}");
        assert!(text.contains("wave_requests_total 7"), "{text}");
        assert!(text.contains("# TYPE wave_unit_latency_ns histogram"), "{text}");
        assert!(text.contains("# TYPE wave_fleet_workers_connected gauge"), "{text}");
        assert!(text.contains("# TYPE wave_fleet_lease_timeouts_total counter"), "{text}");
    }
}
