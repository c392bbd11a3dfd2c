//! Query workloads and timing, matching the paper's measurement protocol
//! (§VI-A3: search time averaged over 500 suffix range queries of length
//! 20 randomly sampled from the data).
//!
//! Every variant is driven through the identical [`PathQuery`] dispatch
//! path. Hit/match accounting goes through the backend-agnostic
//! [`cinct::engine::QueryEngine`] — the same batch layer the CLI and
//! integration tests use — while the timed loop uses one timer around the
//! whole batch, per the paper's protocol (per-query timers would add
//! constant overhead comparable to a fast backend's query time).

use cinct::engine::{Query, QueryEngine};
use cinct_fmindex::{Path, PathQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sample `count` sub-paths of `len` edges from the trajectory corpus
/// (only trajectories long enough contribute). Returned as forward paths.
pub fn sample_patterns(
    trajectories: &[Vec<u32>],
    len: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let eligible: Vec<&Vec<u32>> = trajectories.iter().filter(|t| t.len() >= len).collect();
    assert!(
        !eligible.is_empty(),
        "no trajectory long enough for patterns of length {len}"
    );
    (0..count)
        .map(|_| {
            let t = eligible[rng.gen_range(0..eligible.len())];
            let start = rng.gen_range(0..=t.len() - len);
            t[start..start + len].to_vec()
        })
        .collect()
}

/// Timing results over a pattern batch.
#[derive(Clone, Copy, Debug)]
pub struct QueryTiming {
    /// Mean time per query, microseconds.
    pub mean_us: f64,
    /// Number of queries that found at least one match.
    pub hits: usize,
    /// Total matches across queries (sanity check between variants).
    pub total_matches: usize,
}

/// Run every pattern as a counting query and time it (one timer around the
/// whole batch, §VI-A3). Hits/matches come from an engine pass that doubles
/// as warm-up.
pub fn time_queries(index: &dyn PathQuery, patterns: &[Vec<u32>]) -> QueryTiming {
    if patterns.is_empty() {
        return QueryTiming {
            mean_us: 0.0,
            hits: 0,
            total_matches: 0,
        };
    }
    let batch: Vec<Query> = patterns.iter().map(|p| Query::count(p)).collect();
    let report = QueryEngine::new(index).run(&batch);
    debug_assert_eq!(report.errors(), 0, "sampled patterns must be well-formed");
    let t0 = std::time::Instant::now();
    for p in patterns {
        std::hint::black_box(index.count(Path::new(p)));
    }
    let elapsed = t0.elapsed();
    QueryTiming {
        mean_us: elapsed.as_secs_f64() * 1e6 / patterns.len() as f64,
        hits: report.hits(),
        total_matches: report.total_matches(),
    }
}

/// Time full-text extraction (paper Fig. 15: extract the entire `T`, i.e.
/// `l = |T|` from `j = 0`); returns microseconds **per symbol**.
pub fn time_full_extraction(index: &dyn PathQuery) -> f64 {
    let l = index.text_len() - 1; // all of T except the final sentinel
    let outcome = QueryEngine::new(index).run_one(&Query::extract(0, l));
    std::hint::black_box(&outcome.value);
    outcome.elapsed.as_secs_f64() * 1e6 / l as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_come_from_data() {
        let trajs = vec![vec![1u32, 2, 3, 4, 5, 6], vec![7, 8, 9, 10]];
        let pats = sample_patterns(&trajs, 3, 20, 42);
        assert_eq!(pats.len(), 20);
        for p in &pats {
            assert_eq!(p.len(), 3);
            let found = trajs.iter().any(|t| t.windows(3).any(|w| w == &p[..]));
            assert!(found, "pattern {p:?} not a sub-path of any trajectory");
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let trajs = vec![vec![1u32, 2, 3, 4, 5, 6]];
        assert_eq!(
            sample_patterns(&trajs, 2, 5, 9),
            sample_patterns(&trajs, 2, 5, 9)
        );
    }

    #[test]
    #[should_panic(expected = "no trajectory long enough")]
    fn rejects_too_long_patterns() {
        sample_patterns(&[vec![1u32, 2]], 5, 1, 0);
    }

    #[test]
    fn timing_counts_hits() {
        let trajs = vec![vec![0u32, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
        let ts = cinct_bwt::TrajectoryString::build(&trajs, 6);
        let idx = cinct_fmindex::Ufmi::from_text(ts.text(), ts.sigma());
        let patterns = vec![vec![0u32, 1], vec![1, 2]];
        let t = time_queries(&idx, &patterns);
        assert_eq!(t.hits, 2);
        assert_eq!(t.total_matches, 4);
        assert!(t.mean_us >= 0.0);
    }

    #[test]
    fn extraction_timing_is_finite() {
        let trajs = vec![vec![0u32, 1, 4, 5], vec![0, 1, 2]];
        let ts = cinct_bwt::TrajectoryString::build(&trajs, 6);
        let idx = cinct_fmindex::Ufmi::from_text(ts.text(), ts.sigma());
        let us = time_full_extraction(&idx);
        assert!(us.is_finite() && us >= 0.0);
    }
}
