//! Shared harness for the per-table / per-figure experiment binaries.
//!
//! Each binary (`table3`, `fig10`, …, `table5`) regenerates one artifact of
//! the paper's evaluation section and prints the same rows/series the paper
//! reports. Workload sizes are controlled by the `CINCT_SCALE` environment
//! variable (default `0.25`; `1.0` ≈ a few million symbols) so the whole
//! suite runs on a laptop. Absolute numbers will differ from the paper's
//! testbed; the comparisons (who wins, by roughly what factor) are the
//! reproduction target — see `EXPERIMENTS.md`.
//!
//! Two binaries are different in kind: `serveclient` is CI's functional
//! probe of a live `cinct serve` process, and `replpath` prints the
//! replication cost model (catch-up and ship rates) that `BENCHMARK.json`
//! has no workload for yet. How fast the repo itself is — end to end and
//! layer by layer — is measured by `benchmark/` (see `BENCHMARK.json` and
//! the repository's `PERFORMANCE.md`), not here.

pub mod report;
pub mod variants;
pub mod workload;

pub use report::Table;
pub use variants::{build_variant, BuiltIndex, Variant, ALL_VARIANTS};
pub use workload::{sample_patterns, time_queries, QueryTiming};

/// Scale factor from the environment (`CINCT_SCALE`, default 0.25).
pub fn scale_from_env() -> f64 {
    std::env::var("CINCT_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25)
}

/// Query count from the environment (`CINCT_QUERIES`, default 500 — the
/// paper averages over 500 suffix range queries, §VI-A3).
pub fn queries_from_env() -> usize {
    std::env::var("CINCT_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(500)
}
