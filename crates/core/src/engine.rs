//! Batch query evaluation over any [`PathQuery`] backend.
//!
//! The bench harness, the CLI, and future batching/sharding layers all
//! need the same thing: take a pile of heterogeneous queries, run them
//! against *some* index behind `&dyn PathQuery`, and get back per-query
//! results with timing — without writing per-backend dispatch. That is
//! [`QueryEngine`]:
//!
//! ```
//! use cinct::engine::{Query, QueryEngine, QueryValue};
//! use cinct::CinctBuilder;
//!
//! let trajs = vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
//! let index = CinctBuilder::new().locate_sampling(4).build(&trajs, 6);
//! let engine = QueryEngine::new(&index);
//! let report = engine.run(&[
//!     Query::count(&[0, 1]),
//!     Query::occurrences(&[1, 2]),
//!     Query::count(&[99]), // unknown edge: typed per-query error
//! ]);
//! assert_eq!(report.outcomes[0].value, Ok(QueryValue::Count(2)));
//! assert_eq!(
//!     report.outcomes[1].value,
//!     Ok(QueryValue::Occurrences(vec![(1, 1), (2, 0)]))
//! );
//! assert!(report.outcomes[2].value.is_err());
//! assert_eq!(report.hits(), 2);
//! ```

use cinct_fmindex::{Path, PathQuery, QueryError};
use std::ops::Range;
use std::time::{Duration, Instant};

/// One query in a batch. Constructors take forward edge paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// Number of occurrences of the path.
    Count(Vec<u32>),
    /// Suffix range of the path (`None` = absent).
    Range(Vec<u32>),
    /// Every `(trajectory, offset)` occurrence (needs locate support).
    Occurrences(Vec<u32>),
    /// `len` text symbols preceding `SA[row]`, forward text order.
    Extract {
        /// BWT row to start the LF walk from.
        row: usize,
        /// Number of symbols to extract.
        len: usize,
    },
}

impl Query {
    /// A counting query.
    pub fn count(path: &[u32]) -> Self {
        Query::Count(path.to_vec())
    }

    /// A suffix-range query.
    pub fn range(path: &[u32]) -> Self {
        Query::Range(path.to_vec())
    }

    /// An occurrence-listing query.
    pub fn occurrences(path: &[u32]) -> Self {
        Query::Occurrences(path.to_vec())
    }

    /// An extraction query.
    pub fn extract(row: usize, len: usize) -> Self {
        Query::Extract { row, len }
    }
}

/// The payload of a successfully evaluated [`Query`] (same arm).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryValue {
    /// Occurrence count.
    Count(usize),
    /// Suffix range, `None` when the path is absent.
    Range(Option<Range<usize>>),
    /// Matches sorted by `(trajectory, offset)`.
    Occurrences(Vec<(usize, usize)>),
    /// Extracted text symbols (encoded), forward order.
    Extract(Vec<u32>),
}

impl QueryValue {
    /// How many matches this result represents (extractions count as the
    /// number of symbols recovered).
    pub fn matches(&self) -> usize {
        match self {
            QueryValue::Count(n) => *n,
            QueryValue::Range(r) => r.as_ref().map_or(0, |r| r.len()),
            QueryValue::Occurrences(v) => v.len(),
            QueryValue::Extract(v) => v.len(),
        }
    }
}

/// One query's result + wall-clock cost.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The result, or the typed error this query (alone) failed with.
    pub value: Result<QueryValue, QueryError>,
    /// Time spent evaluating this query.
    pub elapsed: Duration,
}

/// Results of a batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Per-query outcomes, in input order.
    pub outcomes: Vec<QueryOutcome>,
    /// Total wall-clock across the batch (sum of per-query costs).
    pub elapsed: Duration,
}

impl BatchReport {
    /// Queries that succeeded with at least one match.
    pub fn hits(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.value.as_ref().is_ok_and(|v| v.matches() > 0))
            .count()
    }

    /// Total matches across all successful queries.
    pub fn total_matches(&self) -> usize {
        self.outcomes
            .iter()
            .filter_map(|o| o.value.as_ref().ok())
            .map(QueryValue::matches)
            .sum()
    }

    /// Queries that failed with a typed error.
    pub fn errors(&self) -> usize {
        self.outcomes.iter().filter(|o| o.value.is_err()).count()
    }

    /// Mean microseconds per query.
    pub fn mean_us(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.elapsed.as_secs_f64() * 1e6 / self.outcomes.len() as f64
    }
}

/// Evaluates query batches against one backend. Backend-agnostic: anything
/// implementing [`PathQuery`] (CiNCT, the five baselines, the temporal
/// index) plugs in through a trait object.
///
/// By default batches run sequentially on the caller's thread. Heavy
/// traffic turns on the parallel mode with [`QueryEngine::parallel`]:
/// the batch is split into one contiguous chunk per thread, evaluated on
/// a rayon fork-join scope (indexes are immutable, so sharing the
/// `&dyn PathQuery` is free), and reassembled **in input order** with
/// per-query timings — the report is value- and order-identical to a
/// sequential run, only wall-clock differs.
pub struct QueryEngine<'a> {
    backend: &'a dyn PathQuery,
    n_threads: usize,
}

/// Evaluate one query against a backend (shared by the sequential loop and
/// the per-thread chunk workers). Records into the process metrics
/// ([`crate::metrics::engine`]): a handful of relaxed-atomic samples per
/// query, reusing the `Instant` the outcome already needs.
fn evaluate(backend: &dyn PathQuery, query: &Query) -> QueryOutcome {
    let t0 = Instant::now();
    let value = match query {
        Query::Count(path) => backend
            .try_range(Path::new(path))
            .map(|r| QueryValue::Count(r.map_or(0, |r| r.len()))),
        Query::Range(path) => backend.try_range(Path::new(path)).map(QueryValue::Range),
        Query::Occurrences(path) => backend
            .occurrences(Path::new(path))
            .map(|it| QueryValue::Occurrences(it.collect_sorted())),
        Query::Extract { row, len } => {
            let n = backend.text_len();
            if *row >= n {
                Err(QueryError::InvalidInput(format!(
                    "extract row {row} out of range (text length {n})"
                )))
            } else if *len > n {
                // `extract` reserves `len` symbols up front.
                Err(QueryError::InvalidInput(format!(
                    "extract length {len} exceeds the text length {n}"
                )))
            } else {
                Ok(QueryValue::Extract(backend.extract(*row, *len)))
            }
        }
    };
    let elapsed = t0.elapsed();
    let m = crate::metrics::engine();
    m.queries.inc();
    if value.is_err() {
        m.errors.inc();
    }
    match query {
        Query::Count(_) => &m.count_ns,
        Query::Range(_) => &m.range_ns,
        Query::Occurrences(_) => &m.occurrences_ns,
        Query::Extract { .. } => &m.extract_ns,
    }
    .record_duration(elapsed);
    QueryOutcome { value, elapsed }
}

impl<'a> QueryEngine<'a> {
    /// Wrap a backend (sequential evaluation).
    pub fn new(backend: &'a (dyn PathQuery + 'a)) -> Self {
        QueryEngine {
            backend,
            n_threads: 1,
        }
    }

    /// Evaluate batches on up to `n_threads` threads. **`0` means "auto"**
    /// (the machine's available parallelism) — the same convention as
    /// `ShardedBuilder::threads` and every other thread knob in the
    /// workspace ([`rayon::resolve_threads`]); `1` restores the
    /// deterministic sequential path. The knob is stored raw and resolved
    /// at each [`QueryEngine::run`], so an engine configured with `0`
    /// tracks the host it runs on, exactly like a builder configured with
    /// `threads(0)`. Parallel runs return outcomes in input order with
    /// values identical to a sequential run.
    pub fn parallel(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads;
        self
    }

    /// The configured thread knob, unresolved (`0` = auto, `1` =
    /// sequential) — what was passed to [`QueryEngine::parallel`].
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The thread count a [`QueryEngine::run`] call would actually use:
    /// the configured knob with `0` resolved to the machine's available
    /// parallelism.
    pub fn effective_threads(&self) -> usize {
        rayon::resolve_threads(self.n_threads)
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &dyn PathQuery {
        self.backend
    }

    /// Evaluate one query.
    pub fn run_one(&self, query: &Query) -> QueryOutcome {
        evaluate(self.backend, query)
    }

    /// Evaluate a slice of queries, returning per-query results + timing
    /// in input order. Uses the parallel fork-join path when configured
    /// with [`QueryEngine::parallel`] and the batch is large enough to
    /// split; otherwise the sequential loop.
    pub fn run(&self, queries: &[Query]) -> BatchReport {
        let threads = self.effective_threads();
        let m = crate::metrics::engine();
        m.batch_size.record(queries.len() as u64);
        m.threads.set(threads.min(queries.len().max(1)) as u64);
        let outcomes = if threads > 1 && queries.len() > 1 {
            self.run_chunked(queries, threads)
        } else {
            queries.iter().map(|q| self.run_one(q)).collect()
        };
        let elapsed = outcomes.iter().map(|o| o.elapsed).sum();
        BatchReport { outcomes, elapsed }
    }

    /// Fan the batch out as one contiguous chunk per thread; chunk results
    /// land in pre-split slots, so reassembly preserves input order without
    /// any post-sort.
    fn run_chunked(&self, queries: &[Query], threads: usize) -> Vec<QueryOutcome> {
        let chunk_len = queries.len().div_ceil(threads);
        let mut chunk_outcomes: Vec<Vec<QueryOutcome>> = Vec::new();
        chunk_outcomes.resize_with(queries.len().div_ceil(chunk_len), Vec::new);
        let backend = self.backend;
        rayon::scope(|s| {
            for (chunk, out) in queries.chunks(chunk_len).zip(chunk_outcomes.iter_mut()) {
                s.spawn(move |_| {
                    *out = chunk.iter().map(|q| evaluate(backend, q)).collect();
                });
            }
        });
        chunk_outcomes.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CinctBuilder;
    use crate::index::CinctIndex;
    use cinct_bwt::TrajectoryString;
    use cinct_fmindex::Ufmi;

    fn paper_trajs() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]]
    }

    #[test]
    fn batch_over_cinct() {
        let idx = CinctBuilder::new()
            .locate_sampling(2)
            .build(&paper_trajs(), 6);
        let engine = QueryEngine::new(&idx);
        let report = engine.run(&[
            Query::count(&[0, 1]),
            Query::range(&[0, 1]),
            Query::range(&[3, 0]),
            Query::occurrences(&[1, 2]),
            Query::extract(0, 3),
        ]);
        assert_eq!(report.outcomes.len(), 5);
        assert_eq!(report.outcomes[0].value, Ok(QueryValue::Count(2)));
        assert_eq!(report.outcomes[1].value, Ok(QueryValue::Range(Some(9..11))));
        assert_eq!(report.outcomes[2].value, Ok(QueryValue::Range(None)));
        assert_eq!(
            report.outcomes[3].value,
            Ok(QueryValue::Occurrences(vec![(1, 1), (2, 0)]))
        );
        assert!(matches!(
            report.outcomes[4].value,
            Ok(QueryValue::Extract(ref v)) if v.len() == 3
        ));
        assert_eq!(report.errors(), 0);
        // The absent-path range query succeeded but matched nothing.
        assert_eq!(report.hits(), 4);
    }

    #[test]
    fn per_query_errors_do_not_poison_the_batch() {
        let idx = CinctIndex::build(&paper_trajs(), 6);
        let engine = QueryEngine::new(&idx);
        let report = engine.run(&[
            Query::count(&[0, 1]),
            Query::count(&[42]),                   // unknown edge
            Query::occurrences(&[0]),              // no locate support
            Query::extract(idx.text_len(), 3),     // row out of range
            Query::extract(0, idx.text_len() + 1), // length out of range
            Query::count(&[1, 2]),
        ]);
        assert_eq!(report.errors(), 4);
        assert_eq!(report.outcomes[0].value, Ok(QueryValue::Count(2)));
        assert_eq!(
            report.outcomes[1].value,
            Err(QueryError::UnknownEdge {
                edge: 42,
                n_edges: 6
            })
        );
        assert_eq!(report.outcomes[2].value, Err(QueryError::LocateUnsupported));
        for bad in &report.outcomes[3..5] {
            assert!(matches!(bad.value, Err(QueryError::InvalidInput(_))));
        }
        assert_eq!(report.outcomes[5].value, Ok(QueryValue::Count(2)));
    }

    #[test]
    fn parallel_matches_sequential_on_mixed_10k() {
        // Acceptance gate: a 10k mixed batch (counts, ranges, occurrence
        // listings, extractions, malformed queries) must produce
        // bit-identical outcomes — order and values — at every thread
        // count, including typed per-query errors.
        let idx = CinctBuilder::new()
            .locate_sampling(2)
            .build(&paper_trajs(), 6);
        let n = idx.text_len();
        let mut x = 1u64;
        let queries: Vec<Query> = (0..10_000)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // % 7 occasionally lands on edge 6 (unknown): error arm.
                let a = ((x >> 33) % 7) as u32;
                let b = ((x >> 43) % 7) as u32;
                match i % 5 {
                    0 => Query::count(&[a, b]),
                    1 => Query::range(&[a]),
                    2 => Query::occurrences(&[a, b]),
                    3 => Query::extract(i % n, 4),
                    _ => Query::count(&[a]),
                }
            })
            .collect();
        let sequential = QueryEngine::new(&idx).run(&queries);
        assert!(sequential.errors() > 0, "mixed batch should include errors");
        for threads in [2usize, 3, 8, 0] {
            let parallel = QueryEngine::new(&idx).parallel(threads).run(&queries);
            assert_eq!(parallel.outcomes.len(), sequential.outcomes.len());
            for (i, (p, s)) in parallel
                .outcomes
                .iter()
                .zip(&sequential.outcomes)
                .enumerate()
            {
                assert_eq!(p.value, s.value, "query {i} at {threads} threads");
            }
            assert_eq!(parallel.hits(), sequential.hits());
            assert_eq!(parallel.total_matches(), sequential.total_matches());
            assert_eq!(parallel.errors(), sequential.errors());
        }
    }

    #[test]
    fn parallel_knob_defaults() {
        let idx = CinctIndex::build(&paper_trajs(), 6);
        assert_eq!(QueryEngine::new(&idx).n_threads(), 1);
        assert_eq!(QueryEngine::new(&idx).parallel(4).n_threads(), 4);
        // 0 means "auto" — stored raw, resolved at run time, matching
        // ShardedBuilder::threads(0).
        let auto = QueryEngine::new(&idx).parallel(0);
        assert_eq!(auto.n_threads(), 0);
        assert_eq!(auto.effective_threads(), rayon::current_num_threads());
        assert!(auto.effective_threads() >= 1);
        // Tiny batches still work in parallel mode (fewer chunks than
        // threads).
        let report = QueryEngine::new(&idx)
            .parallel(8)
            .run(&[Query::count(&[0, 1]), Query::count(&[1, 2])]);
        assert_eq!(report.outcomes[0].value, Ok(QueryValue::Count(2)));
        assert_eq!(report.outcomes[1].value, Ok(QueryValue::Count(2)));
    }

    #[test]
    fn same_batch_any_backend() {
        let trajs = paper_trajs();
        let ts = TrajectoryString::build(&trajs, 6);
        let cinct = CinctIndex::build(&trajs, 6);
        let ufmi = Ufmi::from_text(ts.text(), ts.sigma());
        let batch = [
            Query::count(&[0, 1]),
            Query::count(&[1, 2]),
            Query::range(&[0, 3]),
        ];
        let a = QueryEngine::new(&cinct).run(&batch);
        let b = QueryEngine::new(&ufmi).run(&batch);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.value, y.value);
        }
        assert_eq!(a.total_matches(), b.total_matches());
    }
}
