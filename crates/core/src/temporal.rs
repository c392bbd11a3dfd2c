//! Temporal extension: timestamped trajectories and strict path queries.
//!
//! The paper deliberately scopes CiNCT to spatial paths and points at
//! SNT-index-style hybrids for timestamps (§VII: "our method can be
//! directly applied to some pioneering methods for spatio-temporal NCT
//! processing \[3\], \[6\]"). This module implements that integration: a
//! [`TemporalCinct`] pairs a locate-enabled [`CinctIndex`] with
//! delta-compressed per-trajectory timestamps and answers **strict path
//! queries** (Krogh et al. \[28\]): *find trajectories that traveled along
//! path `P` entirely within time interval `I`*.
//!
//! The temporal layer composes on the unified query API rather than on
//! CiNCT internals: [`TemporalCinct::strict_path_iter`] drives the
//! spatial backend's streaming [`PathQuery::occurrences`] iterator and
//! filters each `(trajectory, offset)` against the timestamp store as it
//! arrives — any backend implementing `PathQuery` with locate support
//! could sit underneath. [`TemporalCinct`] itself implements [`PathQuery`],
//! so it drops into the same engines and benches as the spatial indexes.

use crate::builder::CinctBuilder;
use crate::index::CinctIndex;
use cinct_fmindex::{OccurIter, Path, PathQuery, QueryError};
use cinct_succinct::{IntVec, SpaceUsage, Symbol};
use std::ops::Range;

/// A trajectory with one timestamp per edge entry (seconds, non-decreasing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimestampedTrajectory {
    /// Edge IDs, in travel order.
    pub edges: Vec<u32>,
    /// Entry time (seconds) of each edge; same length as `edges`.
    pub times: Vec<u64>,
}

impl TimestampedTrajectory {
    /// Validate lengths and monotonicity.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.edges.len() != self.times.len() {
            return Err(QueryError::InvalidInput(format!(
                "edges ({}) vs times ({}) length mismatch",
                self.edges.len(),
                self.times.len()
            )));
        }
        if self.times.windows(2).any(|w| w[1] < w[0]) {
            return Err(QueryError::InvalidInput(
                "timestamps must be non-decreasing".into(),
            ));
        }
        Ok(())
    }
}

/// A strict path query: a forward path plus an inclusive time interval.
#[derive(Clone, Debug)]
pub struct StrictPathQuery {
    /// The path (edge IDs, forward order).
    pub path: Vec<u32>,
    /// Inclusive interval start (seconds).
    pub t_begin: u64,
    /// Inclusive interval end (seconds).
    pub t_end: u64,
}

/// Delta-compressed timestamp store: per trajectory, the start time plus
/// packed per-step deltas.
#[derive(Clone, Debug)]
struct TimestampStore {
    /// Absolute start time per trajectory.
    starts: Vec<u64>,
    /// CSR offsets into `deltas` per trajectory.
    offsets: Vec<u32>,
    /// Packed per-step deltas (width = bits of the max delta).
    deltas: IntVec,
}

impl TimestampStore {
    fn build(trajs: &[TimestampedTrajectory]) -> Self {
        let total_steps: usize = trajs.iter().map(|t| t.times.len().saturating_sub(1)).sum();
        let max_delta = trajs
            .iter()
            .flat_map(|t| t.times.windows(2).map(|w| w[1] - w[0]))
            .max()
            .unwrap_or(0);
        let mut starts = Vec::with_capacity(trajs.len());
        let mut offsets = Vec::with_capacity(trajs.len() + 1);
        let mut deltas = IntVec::with_capacity(IntVec::width_for(max_delta), total_steps);
        offsets.push(0u32);
        for t in trajs {
            starts.push(t.times.first().copied().unwrap_or(0));
            for w in t.times.windows(2) {
                deltas.push(w[1] - w[0]);
            }
            offsets.push(deltas.len() as u32);
        }
        Self {
            starts,
            offsets,
            deltas,
        }
    }

    /// Entry time of edge `offset` within trajectory `id`.
    fn time_at(&self, id: usize, offset: usize) -> u64 {
        let lo = self.offsets[id] as usize;
        debug_assert!(lo + offset <= self.offsets[id + 1] as usize);
        let mut t = self.starts[id];
        for k in 0..offset {
            t += self.deltas.get(lo + k);
        }
        t
    }

    fn size_in_bytes(&self) -> usize {
        self.starts.capacity() * 8 + self.offsets.capacity() * 4 + self.deltas.size_in_bytes()
    }
}

/// Spatio-temporal index: CiNCT for the spatial paths + compressed
/// timestamps, answering strict path queries.
#[derive(Clone, Debug)]
pub struct TemporalCinct {
    index: CinctIndex,
    times: TimestampStore,
}

/// One strict-path match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrictPathMatch {
    /// Trajectory id.
    pub trajectory: usize,
    /// Edge offset within the trajectory where the path starts.
    pub offset: usize,
    /// Entry time of the first path edge.
    pub t_enter: u64,
    /// Entry time of the last path edge.
    pub t_exit: u64,
}

/// Streaming strict-path matches: filters the spatial backend's
/// [`OccurIter`] against the timestamp store, one occurrence at a time.
/// Created by [`TemporalCinct::strict_path_iter`].
pub struct StrictIter<'a> {
    occurrences: OccurIter<'a>,
    times: &'a TimestampStore,
    path_len: usize,
    t_begin: u64,
    t_end: u64,
}

impl Iterator for StrictIter<'_> {
    type Item = StrictPathMatch;

    fn next(&mut self) -> Option<StrictPathMatch> {
        for (trajectory, offset) in self.occurrences.by_ref() {
            let t_enter = self.times.time_at(trajectory, offset);
            let t_exit = self.times.time_at(trajectory, offset + self.path_len - 1);
            if t_enter >= self.t_begin && t_exit <= self.t_end {
                return Some(StrictPathMatch {
                    trajectory,
                    offset,
                    t_enter,
                    t_exit,
                });
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Every remaining occurrence may pass or fail the time filter.
        (0, self.occurrences.size_hint().1)
    }
}

impl TemporalCinct {
    /// Build from timestamped trajectories, validating every input
    /// trajectory up front. `sa_sampling` controls the locate cost/space
    /// trade-off (e.g. 32).
    pub fn build(
        trajs: &[TimestampedTrajectory],
        n_edges: usize,
        sa_sampling: usize,
    ) -> Result<Self, QueryError> {
        for (i, t) in trajs.iter().enumerate() {
            t.validate().map_err(|e| match e {
                QueryError::InvalidInput(msg) => {
                    QueryError::InvalidInput(format!("trajectory {i}: {msg}"))
                }
                other => other,
            })?;
        }
        let edge_seqs: Vec<Vec<u32>> = trajs.iter().map(|t| t.edges.clone()).collect();
        let index = CinctBuilder::new()
            .locate_sampling(sa_sampling)
            .build(&edge_seqs, n_edges);
        let times = TimestampStore::build(trajs);
        Ok(Self { index, times })
    }

    /// The underlying spatial index.
    pub fn spatial(&self) -> &CinctIndex {
        &self.index
    }

    /// Stream the matches of a strict path query: occurrences of `q.path`
    /// whose first-edge entry time and last-edge entry time both lie in
    /// `[t_begin, t_end]`, in suffix-range order, filtered lazily.
    pub fn strict_path_iter(&self, q: &StrictPathQuery) -> Result<StrictIter<'_>, QueryError> {
        let occurrences = self.index.occurrences(Path::new(&q.path))?;
        Ok(StrictIter {
            occurrences,
            times: &self.times,
            path_len: q.path.len(),
            t_begin: q.t_begin,
            t_end: q.t_end,
        })
    }

    /// Eagerly collect [`TemporalCinct::strict_path_iter`], sorted by
    /// `(trajectory, offset)`.
    pub fn strict_path(&self, q: &StrictPathQuery) -> Result<Vec<StrictPathMatch>, QueryError> {
        let mut out: Vec<StrictPathMatch> = self.strict_path_iter(q)?.collect();
        out.sort_unstable_by_key(|m| (m.trajectory, m.offset));
        Ok(out)
    }

    /// Total heap bytes (spatial core + directory + timestamps).
    pub fn size_in_bytes(&self) -> usize {
        self.index.core_size_in_bytes()
            + self.index.directory_size_in_bytes()
            + self.times.size_in_bytes()
    }
}

/// The temporal index is itself a [`PathQuery`] backend: spatial queries
/// delegate to the wrapped [`CinctIndex`] (which always carries SA
/// samples), so it slots into the same `QueryEngine` / bench harnesses.
impl PathQuery for TemporalCinct {
    fn text_len(&self) -> usize {
        self.index.text_len()
    }

    fn sigma(&self) -> usize {
        PathQuery::sigma(&self.index)
    }

    /// Whole-structure footprint, timestamps included (unlike the spatial
    /// index, whose accounting matches the paper's).
    fn size_in_bytes(&self) -> usize {
        TemporalCinct::size_in_bytes(self)
    }

    fn range(&self, path: &Path) -> Option<Range<usize>> {
        self.index.range(path)
    }

    fn lf_step(&self, j: usize) -> (Symbol, usize) {
        self.index.lf_step(j)
    }

    fn extract(&self, j: usize, l: usize) -> Vec<Symbol> {
        self.index.extract(j, l)
    }

    fn occurrences(&self, path: &Path) -> Result<OccurIter<'_>, QueryError> {
        self.index.occurrences(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Vec<TimestampedTrajectory> {
        vec![
            TimestampedTrajectory {
                edges: vec![0, 1, 4, 5],
                times: vec![100, 110, 125, 140],
            },
            TimestampedTrajectory {
                edges: vec![0, 1, 2],
                times: vec![200, 215, 230],
            },
            TimestampedTrajectory {
                edges: vec![1, 2],
                times: vec![50, 60],
            },
            TimestampedTrajectory {
                edges: vec![0, 3],
                times: vec![300, 310],
            },
        ]
    }

    #[test]
    fn strict_path_filters_by_time() {
        let t = TemporalCinct::build(&sample_data(), 6, 2).unwrap();
        // Path A→B (edges 0,1) is traveled by trajectories 0 (t 100..110)
        // and 1 (t 200..215).
        let all = t
            .strict_path(&StrictPathQuery {
                path: vec![0, 1],
                t_begin: 0,
                t_end: 1000,
            })
            .unwrap();
        assert_eq!(all.len(), 2);
        let early = t
            .strict_path(&StrictPathQuery {
                path: vec![0, 1],
                t_begin: 0,
                t_end: 150,
            })
            .unwrap();
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].trajectory, 0);
        assert_eq!(early[0].t_enter, 100);
        assert_eq!(early[0].t_exit, 110);
        // Window covering neither.
        let none = t
            .strict_path(&StrictPathQuery {
                path: vec![0, 1],
                t_begin: 111,
                t_end: 199,
            })
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn interval_boundaries_are_inclusive() {
        let t = TemporalCinct::build(&sample_data(), 6, 2).unwrap();
        let exact = t
            .strict_path(&StrictPathQuery {
                path: vec![0, 1],
                t_begin: 100,
                t_end: 110,
            })
            .unwrap();
        assert_eq!(exact.len(), 1);
    }

    #[test]
    fn mid_trajectory_offsets() {
        let t = TemporalCinct::build(&sample_data(), 6, 2).unwrap();
        // Path B→C (edges 1,2) occurs mid-trajectory in 1 (offset 1,
        // t 215..230) and at the start of 2 (t 50..60).
        let m = t
            .strict_path(&StrictPathQuery {
                path: vec![1, 2],
                t_begin: 200,
                t_end: 230,
            })
            .unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].trajectory, 1);
        assert_eq!(m[0].offset, 1);
        assert_eq!(m[0].t_enter, 215);
    }

    #[test]
    fn rejects_invalid_input_with_typed_errors() {
        let bad_len = vec![TimestampedTrajectory {
            edges: vec![0, 1],
            times: vec![5],
        }];
        match TemporalCinct::build(&bad_len, 6, 2) {
            Err(QueryError::InvalidInput(msg)) => {
                assert!(msg.contains("trajectory 0"), "{msg}");
                assert!(msg.contains("length mismatch"), "{msg}");
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        let bad_order = vec![TimestampedTrajectory {
            edges: vec![0, 1],
            times: vec![10, 5],
        }];
        assert!(matches!(
            TemporalCinct::build(&bad_order, 6, 2),
            Err(QueryError::InvalidInput(_))
        ));
    }

    #[test]
    fn empty_path_is_a_typed_error() {
        let t = TemporalCinct::build(&sample_data(), 6, 2).unwrap();
        assert_eq!(
            t.strict_path(&StrictPathQuery {
                path: vec![],
                t_begin: 0,
                t_end: u64::MAX,
            })
            .err(),
            Some(QueryError::EmptyPattern)
        );
    }

    #[test]
    fn behaves_as_a_path_query_backend() {
        let t = TemporalCinct::build(&sample_data(), 6, 2).unwrap();
        assert_eq!(t.count(Path::new(&[0, 1])), 2);
        let occ = t.occurrences(Path::new(&[1, 2])).unwrap();
        assert_eq!(occ.collect_sorted(), vec![(1, 1), (2, 0)]);
        assert!(PathQuery::size_in_bytes(&t) > PathQuery::size_in_bytes(t.spatial()));
    }

    #[test]
    fn streaming_matches_eager() {
        let t = TemporalCinct::build(&sample_data(), 6, 2).unwrap();
        let q = StrictPathQuery {
            path: vec![0, 1],
            t_begin: 0,
            t_end: 150,
        };
        let mut streamed: Vec<StrictPathMatch> = t.strict_path_iter(&q).unwrap().collect();
        streamed.sort_unstable_by_key(|m| (m.trajectory, m.offset));
        assert_eq!(streamed, t.strict_path(&q).unwrap());
    }

    #[test]
    fn matches_brute_force() {
        let data = sample_data();
        let t = TemporalCinct::build(&data, 6, 2).unwrap();
        let queries = [
            (vec![0u32], 0u64, 1000u64),
            (vec![0], 100, 200),
            (vec![1], 0, 120),
            (vec![0, 1, 2], 0, 1000),
            (vec![0, 1, 2], 201, 1000),
            (vec![4, 5], 120, 150),
        ];
        for (path, t0, t1) in queries {
            let got = t
                .strict_path(&StrictPathQuery {
                    path: path.clone(),
                    t_begin: t0,
                    t_end: t1,
                })
                .unwrap();
            // Brute force over all trajectories and offsets.
            let mut expected = Vec::new();
            for (id, traj) in data.iter().enumerate() {
                for off in 0..traj.edges.len().saturating_sub(path.len() - 1) {
                    if traj.edges[off..off + path.len()] == path[..]
                        && traj.times[off] >= t0
                        && traj.times[off + path.len() - 1] <= t1
                    {
                        expected.push((id, off));
                    }
                }
            }
            let got_pairs: Vec<(usize, usize)> =
                got.iter().map(|m| (m.trajectory, m.offset)).collect();
            assert_eq!(got_pairs, expected, "path {path:?} [{t0},{t1}]");
        }
    }
}
