//! The engine's metric catalog: every instrumentation point in this
//! crate records through the handle structs below into
//! [`cinct_obs::global()`], so the CLI (`cinct stats --metrics`) and any
//! embedding server expose one coherent view.
//!
//! Handles are resolved once per process through a `OnceLock`, so a hot
//! path pays one acquire load plus the relaxed-atomic sample itself —
//! the bench gate holds the query and build paths to their committed
//! baselines with all of this enabled.
//!
//! Metric names follow the Prometheus convention: `_total` counters,
//! `_ns` nanosecond histograms, bare names for gauges.

use crate::builder::ConstructionTimings;
use cinct_obs::{Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Query-engine metrics ([`crate::engine::QueryEngine`]).
pub struct EngineMetrics {
    /// Queries evaluated, any operation, success or failure.
    pub queries: Arc<Counter>,
    /// Queries that returned a typed error.
    pub errors: Arc<Counter>,
    /// Latency of count queries.
    pub count_ns: Arc<Histogram>,
    /// Latency of suffix-range queries.
    pub range_ns: Arc<Histogram>,
    /// Latency of occurrence-listing queries.
    pub occurrences_ns: Arc<Histogram>,
    /// Latency of extraction queries.
    pub extract_ns: Arc<Histogram>,
    /// Batch sizes handed to [`crate::engine::QueryEngine::run`].
    pub batch_size: Arc<Histogram>,
    /// Threads the most recent batch actually used.
    pub threads: Arc<Gauge>,
}

/// Engine metric handles (resolved once, then lock-free).
pub fn engine() -> &'static EngineMetrics {
    static M: OnceLock<EngineMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cinct_obs::global();
        EngineMetrics {
            queries: r.counter(
                "cinct_queries_total",
                "Queries evaluated by the batch engine",
            ),
            errors: r.counter(
                "cinct_query_errors_total",
                "Queries that failed with a typed error",
            ),
            count_ns: r.histogram("cinct_query_count_ns", "Count query latency (ns)"),
            range_ns: r.histogram("cinct_query_range_ns", "Suffix-range query latency (ns)"),
            occurrences_ns: r.histogram(
                "cinct_query_occurrences_ns",
                "Occurrence-listing query latency (ns)",
            ),
            extract_ns: r.histogram("cinct_query_extract_ns", "Extraction query latency (ns)"),
            batch_size: r.histogram("cinct_batch_size", "Queries per engine batch"),
            threads: r.gauge(
                "cinct_engine_threads",
                "Threads used by the most recent batch",
            ),
        }
    })
}

/// Sharding metrics ([`crate::shard::ShardedCinct`]).
pub struct ShardMetrics {
    /// Fan-out range computations across the shard set.
    pub fanout_queries: Arc<Counter>,
    /// Shard probes that actually ran a backward search (pruned shards
    /// are not visited).
    pub fanout_shards_visited: Arc<Counter>,
    /// Shard probes that found the path.
    pub fanout_shards_matched: Arc<Counter>,
    /// Shard probes whose backward search emptied early (path absent in
    /// that shard).
    pub fanout_shards_short_circuited: Arc<Counter>,
    /// Shards skipped because their edge-membership set ruled out a
    /// pattern edge — no backward search ran there.
    pub fanout_shards_pruned: Arc<Counter>,
    /// Whole fan-outs answered `None` from the corpus-level membership
    /// union alone (a pattern edge occurs in no shard).
    pub fanout_union_rejects: Arc<Counter>,
    /// Latency of sealing a batch into a new shard.
    pub append_ns: Arc<Histogram>,
    /// Latency of compacting the corpus to a target shard count.
    pub compact_ns: Arc<Histogram>,
}

/// Shard metric handles (resolved once, then lock-free).
pub fn shard() -> &'static ShardMetrics {
    static M: OnceLock<ShardMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cinct_obs::global();
        ShardMetrics {
            fanout_queries: r.counter(
                "cinct_fanout_queries_total",
                "Fan-out range computations across the shard set",
            ),
            fanout_shards_visited: r.counter(
                "cinct_fanout_shards_visited_total",
                "Shard probes executed by fan-out queries",
            ),
            fanout_shards_matched: r.counter(
                "cinct_fanout_shards_matched_total",
                "Shard probes that found the path",
            ),
            fanout_shards_short_circuited: r.counter(
                "cinct_fanout_shards_short_circuited_total",
                "Shard probes whose backward search emptied early",
            ),
            fanout_shards_pruned: r.counter(
                "cinct_fanout_shards_pruned_total",
                "Shards skipped by edge-membership pruning (no search ran)",
            ),
            fanout_union_rejects: r.counter(
                "cinct_fanout_union_rejects_total",
                "Fan-outs answered absent from the membership union alone",
            ),
            append_ns: r.histogram("cinct_shard_append_ns", "append_batch latency (ns)"),
            compact_ns: r.histogram("cinct_shard_compact_ns", "compact latency (ns)"),
        }
    })
}

/// Persistence metrics ([`crate::store`]).
pub struct StoreMetrics {
    /// Latency of saving a sharded corpus directory.
    pub save_ns: Arc<Histogram>,
    /// Latency of opening a sharded corpus directory.
    pub open_ns: Arc<Histogram>,
    /// Checksum verifications that passed (manifest + shard files).
    pub checksum_ok: Arc<Counter>,
    /// Checksum verifications that failed.
    pub checksum_fail: Arc<Counter>,
    /// fsync calls that failed (durability unknown — the save/append errors).
    pub fsync_fail: Arc<Counter>,
    /// Shards a resilient open quarantined instead of serving.
    pub quarantined: Arc<Counter>,
    /// Crash-leftover `*.tmp` files swept by `open_dir`.
    pub tmp_swept: Arc<Counter>,
    /// Append batches journaled to the WAL (before acking).
    pub wal_appends: Arc<Counter>,
    /// WAL records replayed into a corpus on startup.
    pub wal_replayed: Arc<Counter>,
    /// WAL truncations after a successful save made records redundant.
    pub wal_truncations: Arc<Counter>,
    /// Torn/corrupt WAL tails dropped on open (normal after a crash
    /// mid-append: the torn record was never acked).
    pub wal_torn_tail: Arc<Counter>,
    /// Latency of one durable WAL append — journal write + fsync (ns).
    pub wal_append_ns: Arc<Histogram>,
}

/// Store metric handles (resolved once, then lock-free).
pub fn store() -> &'static StoreMetrics {
    static M: OnceLock<StoreMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cinct_obs::global();
        StoreMetrics {
            save_ns: r.histogram("cinct_store_save_ns", "save_dir latency (ns)"),
            open_ns: r.histogram("cinct_store_open_ns", "open_dir latency (ns)"),
            checksum_ok: r.counter(
                "cinct_store_checksum_ok_total",
                "Checksum verifications that passed",
            ),
            checksum_fail: r.counter(
                "cinct_store_checksum_fail_total",
                "Checksum verifications that failed",
            ),
            fsync_fail: r.counter("cinct_store_fsync_fail_total", "fsync calls that failed"),
            quarantined: r.counter(
                "cinct_store_quarantined_shards_total",
                "Shards quarantined by resilient opens",
            ),
            tmp_swept: r.counter(
                "cinct_store_tmp_swept_total",
                "Crash-leftover .tmp files swept by open_dir",
            ),
            wal_appends: r.counter(
                "cinct_wal_appends_total",
                "Append batches journaled to the WAL",
            ),
            wal_replayed: r.counter(
                "cinct_wal_replayed_total",
                "WAL records replayed into a corpus on startup",
            ),
            wal_truncations: r.counter(
                "cinct_wal_truncations_total",
                "WAL truncations after a successful save",
            ),
            wal_torn_tail: r.counter(
                "cinct_wal_torn_tail_total",
                "Torn or corrupt WAL tails dropped on open",
            ),
            wal_append_ns: r.histogram(
                "cinct_wal_append_ns",
                "Durable WAL append latency: journal write + fsync (ns)",
            ),
        }
    })
}

/// Construction metrics ([`crate::builder::CinctBuilder`]): the
/// [`ConstructionTimings`] breakdown, one histogram sample per stage per
/// build, so a long-lived process reports builds exactly like `cinct
/// build` prints them.
pub struct BuildMetrics {
    /// Index builds completed (monolithic or per shard).
    pub builds: Arc<Counter>,
    /// Corpus ingestion stage (ns).
    pub ingest_ns: Arc<Histogram>,
    /// Suffix-array stage (ns).
    pub sa_ns: Arc<Histogram>,
    /// BWT derivation stage (ns).
    pub bwt_ns: Arc<Histogram>,
    /// ET-graph / RML labeling stage (ns).
    pub et_graph_ns: Arc<Histogram>,
    /// Wavelet-tree build stage (ns).
    pub wt_ns: Arc<Histogram>,
    /// Directory + SA-samples stage (ns).
    pub directory_ns: Arc<Histogram>,
    /// End-to-end build time (ns).
    pub total_ns: Arc<Histogram>,
}

/// Record one measured ingest stage (see [`record_build`] for why it is
/// separate).
pub fn record_ingest(d: Duration) {
    build().ingest_ns.record(ns(d));
}

/// Build metric handles (resolved once, then lock-free).
pub fn build() -> &'static BuildMetrics {
    static M: OnceLock<BuildMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cinct_obs::global();
        BuildMetrics {
            builds: r.counter("cinct_builds_total", "Index builds completed"),
            ingest_ns: r.histogram("cinct_build_ingest_ns", "Corpus ingestion stage (ns)"),
            sa_ns: r.histogram("cinct_build_sa_ns", "Suffix-array stage (ns)"),
            bwt_ns: r.histogram("cinct_build_bwt_ns", "BWT derivation stage (ns)"),
            et_graph_ns: r.histogram(
                "cinct_build_et_graph_ns",
                "ET-graph / RML labeling stage (ns)",
            ),
            wt_ns: r.histogram("cinct_build_wt_ns", "Wavelet-tree build stage (ns)"),
            directory_ns: r.histogram(
                "cinct_build_directory_ns",
                "Directory + SA-samples stage (ns)",
            ),
            total_ns: r.histogram(
                "cinct_build_total_ns",
                "Build time across pipeline stages (ns, excluding ingest)",
            ),
        }
    })
}

/// Resolve every handle struct, forcing the full metric catalog into the
/// registry. Exposition endpoints call this so idle metrics show up as
/// zeros instead of being absent.
pub fn register_all() {
    let _ = engine();
    let _ = shard();
    let _ = store();
    let _ = build();
}

#[inline]
fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Fold one build's [`ConstructionTimings`] into the registry.
///
/// Ingest is **not** recorded here: at the pipeline funnel
/// (`build_from_trajectory_string`) it is still zero — the entry points
/// that measure ingest (`build_streamed`, behind `build_timed`) sample
/// [`BuildMetrics::ingest_ns`] themselves.
pub fn record_build(t: &ConstructionTimings) {
    let m = build();
    m.builds.inc();
    m.sa_ns.record(ns(t.sa));
    m.bwt_ns.record(ns(t.bwt));
    m.et_graph_ns.record(ns(t.et_graph_build));
    m.wt_ns.record(ns(t.wt_build));
    m.directory_ns.record(ns(t.directory));
    m.total_ns.record(ns(t.total()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_registered_once() {
        let a = engine() as *const EngineMetrics;
        let b = engine() as *const EngineMetrics;
        assert_eq!(a, b);
        // Re-resolution returns the same underlying metric.
        let before = engine().queries.get();
        engine().queries.inc();
        assert_eq!(engine().queries.get(), before + 1);
    }

    #[test]
    fn record_build_populates_every_stage() {
        let t = ConstructionTimings {
            ingest: Duration::from_nanos(10),
            sa: Duration::from_nanos(20),
            bwt: Duration::from_nanos(30),
            et_graph_build: Duration::from_nanos(40),
            wt_build: Duration::from_nanos(50),
            directory: Duration::from_nanos(60),
        };
        let builds_before = build().builds.get();
        let totals_before = build().total_ns.count();
        record_build(&t);
        assert_eq!(build().builds.get(), builds_before + 1);
        assert_eq!(build().total_ns.count(), totals_before + 1);
        assert!(build().sa_ns.sum() >= 20);
    }
}
