//! The serving layer's metric catalog, following the workspace idiom
//! (`cinct::metrics`): handle structs resolved once per process into
//! [`cinct_obs::global()`], so `/metrics` on the server and `cinct stats
//! --metrics` on the CLI expose one coherent view spanning index, shard,
//! and serving layers.
//!
//! Names follow the Prometheus convention already used by the core
//! catalog: `_total` counters, `_ns` nanosecond histograms, bare names
//! for gauges; everything here is prefixed `cinct_serve_`.

use cinct_obs::{Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

/// Serving metrics: one handle per instrumentation point in the accept
/// loop, worker pool, cache, and append path.
pub struct ServeMetrics {
    /// Connections accepted and handed to a worker.
    pub connections: Arc<Counter>,
    /// Connections refused with 429 because the accept queue was full.
    pub shed: Arc<Counter>,
    /// Requests fully parsed and dispatched.
    pub requests: Arc<Counter>,
    /// Requests answered with a 4xx/5xx status.
    pub errors: Arc<Counter>,
    /// Requests rejected because the per-request deadline had passed.
    pub deadline_exceeded: Arc<Counter>,
    /// Append batches installed through the serving layer.
    pub appends: Arc<Counter>,
    /// Hot-pattern cache hits.
    pub cache_hits: Arc<Counter>,
    /// Hot-pattern cache misses (no entry).
    pub cache_misses: Arc<Counter>,
    /// Cache entries found stale (pre-append epoch) and evicted.
    pub cache_stale: Arc<Counter>,
    /// Cache entries evicted by LRU pressure.
    pub cache_evictions: Arc<Counter>,
    /// End-to-end request latency, parse to serialized response (ns).
    pub request_ns: Arc<Histogram>,
    /// Append-request latency, including index construction (ns).
    pub append_ns: Arc<Histogram>,
    /// Requests currently executing in workers.
    pub inflight: Arc<Gauge>,
    /// Current corpus epoch (appends since the server started).
    pub epoch: Arc<Gauge>,
    /// 1 while the server is draining, else 0.
    pub draining: Arc<Gauge>,
    /// Worker threads in the pool.
    pub workers: Arc<Gauge>,
    /// Appends answered from the idempotency registry (retried writes
    /// deduplicated instead of re-applied).
    pub idem_hits: Arc<Counter>,
    /// 1 while serving a degraded corpus (quarantined shards), else 0.
    pub degraded: Arc<Gauge>,
    /// HTTP client retries (reconnects after IO errors or retryable
    /// statuses). Lives in the serve catalog so server and client
    /// processes share one registry.
    pub client_retries: Arc<Counter>,
    /// Replication role: 0 = primary (accepts writes), 1 = follower
    /// (read-only, pulling a primary's WAL).
    pub repl_role: Arc<Gauge>,
    /// Records behind the primary's tip (follower only; 0 when caught
    /// up or when primary).
    pub repl_lag_records: Arc<Gauge>,
    /// Last sequence number this node has applied/journaled (its WAL
    /// `next_seq`); on a follower, primary tip minus this is the lag.
    pub repl_lag_seq: Arc<Gauge>,
    /// WAL records applied from a replication stream (follower side).
    pub repl_records_applied: Arc<Counter>,
    /// WAL records served to followers over `/repl/wal`.
    pub repl_records_shipped: Arc<Counter>,
    /// Snapshot streams served to bootstrapping followers.
    pub repl_snapshots_served: Arc<Counter>,
    /// Snapshot bootstraps this node performed as a follower.
    pub repl_bootstraps: Arc<Counter>,
    /// Sealed WAL segments reclaimed after every follower passed them.
    pub repl_segments_reclaimed: Arc<Counter>,
    /// Promotions this node performed (follower → primary).
    pub repl_promotions: Arc<Counter>,
}

/// Serving metric handles (resolved once, then lock-free).
pub fn serve() -> &'static ServeMetrics {
    static M: OnceLock<ServeMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cinct_obs::global();
        ServeMetrics {
            connections: r.counter(
                "cinct_serve_connections_total",
                "Connections accepted and handed to a worker",
            ),
            shed: r.counter(
                "cinct_serve_shed_total",
                "Connections refused with 429 under accept-queue overload",
            ),
            requests: r.counter(
                "cinct_serve_requests_total",
                "Requests fully parsed and dispatched",
            ),
            errors: r.counter(
                "cinct_serve_errors_total",
                "Requests answered with a 4xx/5xx status",
            ),
            deadline_exceeded: r.counter(
                "cinct_serve_deadline_exceeded_total",
                "Requests rejected past their per-request deadline",
            ),
            appends: r.counter(
                "cinct_serve_appends_total",
                "Append batches installed through the serving layer",
            ),
            cache_hits: r.counter("cinct_serve_cache_hits_total", "Hot-pattern cache hits"),
            cache_misses: r.counter("cinct_serve_cache_misses_total", "Hot-pattern cache misses"),
            cache_stale: r.counter(
                "cinct_serve_cache_stale_total",
                "Cache entries found stale after an append and evicted",
            ),
            cache_evictions: r.counter(
                "cinct_serve_cache_evictions_total",
                "Cache entries evicted by LRU pressure",
            ),
            request_ns: r.histogram("cinct_serve_request_ns", "End-to-end request latency (ns)"),
            append_ns: r.histogram(
                "cinct_serve_append_ns",
                "Append-request latency including index construction (ns)",
            ),
            inflight: r.gauge(
                "cinct_serve_inflight",
                "Requests currently executing in workers",
            ),
            epoch: r.gauge(
                "cinct_serve_epoch",
                "Corpus epoch: appends installed since server start",
            ),
            draining: r.gauge("cinct_serve_draining", "1 while draining, else 0"),
            workers: r.gauge("cinct_serve_workers", "Worker threads in the pool"),
            idem_hits: r.counter(
                "cinct_serve_idempotent_hits_total",
                "Appends deduplicated by idempotency key",
            ),
            degraded: r.gauge(
                "cinct_serve_degraded",
                "1 while serving a degraded (quarantined-shard) corpus, else 0",
            ),
            client_retries: r.counter(
                "cinct_client_retries_total",
                "HTTP client retries after IO errors or retryable statuses",
            ),
            repl_role: r.gauge(
                "cinct_repl_role",
                "Replication role: 0 = primary, 1 = follower",
            ),
            repl_lag_records: r.gauge(
                "cinct_repl_lag_records",
                "Records behind the primary's replication tip",
            ),
            repl_lag_seq: r.gauge(
                "cinct_repl_lag_seq",
                "Last sequence number applied/journaled locally",
            ),
            repl_records_applied: r.counter(
                "cinct_repl_records_applied_total",
                "WAL records applied from a replication stream",
            ),
            repl_records_shipped: r.counter(
                "cinct_repl_records_shipped_total",
                "WAL records served to followers over /repl/wal",
            ),
            repl_snapshots_served: r.counter(
                "cinct_repl_snapshots_served_total",
                "Snapshot streams served to bootstrapping followers",
            ),
            repl_bootstraps: r.counter(
                "cinct_repl_bootstraps_total",
                "Snapshot bootstraps performed as a follower",
            ),
            repl_segments_reclaimed: r.counter(
                "cinct_repl_segments_reclaimed_total",
                "Sealed WAL segments reclaimed after followers passed them",
            ),
            repl_promotions: r.counter(
                "cinct_repl_promotions_total",
                "Promotions performed (follower to primary)",
            ),
        }
    })
}

/// Resolve the full workspace catalog — core engine/shard/store/build
/// handles plus the serving handles above — so `/metrics` exposes idle
/// metrics as zeros instead of omitting them.
pub fn register_all() {
    cinct::metrics::register_all();
    let _ = serve();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_registers_and_samples() {
        register_all();
        let before = serve().requests.get();
        serve().requests.inc();
        assert_eq!(serve().requests.get(), before + 1);
        serve().inflight.inc();
        serve().inflight.dec();
        assert_eq!(serve().inflight.get(), 0);
        let text = cinct_obs::global().render_prometheus();
        assert!(text.contains("cinct_serve_requests_total"), "{text}");
        assert!(text.contains("cinct_serve_cache_hits_total"));
        // Core catalog rides along.
        assert!(text.contains("cinct_queries_total"));
    }
}
