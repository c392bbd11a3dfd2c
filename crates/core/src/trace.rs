//! Explain-mode tracing: a per-shard, per-stage breakdown of one query.
//!
//! The CLI's `--trace` flag answers "where did this query's time go, and
//! where did its matches come from?" without touching the hot path: a
//! trace **re-runs** the query with staged timing instead of threading
//! state through the search loops.
//!
//! The stage structure mirrors the engine's actual evaluation:
//!
//! 1. **pattern preprocessing** — edge validation against the network
//!    alphabet (what [`PathQuery::try_range`] checks before searching);
//! 2. **backward-search range narrowing** — one step per edge. The
//!    trajectory string stores *reversed* trajectories, so backward
//!    search consumes the path forward: the suffix range of prefix
//!    `P[..k]` **is** the intermediate range after `k` search steps,
//!    which lets the trace recover every intermediate range by prefix
//!    re-query (`O(L²)` LF steps total — explain mode only);
//! 3. **fan-out remap** — for locate traces, the per-shard occurrence
//!    walk whose local hits are remapped into the global trajectory-ID
//!    namespace.
//!
//! A [`ShardedCinct`] produces one [`ShardTrace`] per shard (a one-shard
//! corpus, the CLI's default, has exactly one), making short-circuiting
//! shards (backward search emptied early) directly visible.

use crate::shard::ShardedCinct;
use cinct_bwt::SYMBOL_OFFSET;
use cinct_fmindex::{Path, PathQuery};
use std::fmt::Write as _;
use std::ops::Range;
use std::time::{Duration, Instant};

/// One backward-search step: the range after consuming one more edge.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// The edge consumed by this step (`path[k-1]` at step `k`).
    pub edge: u32,
    /// Suffix range after this step; `None` = the range emptied here.
    pub range: Option<Range<usize>>,
    /// Time to narrow to this range (prefix re-query).
    pub elapsed: Duration,
}

/// The fan-out remap stage of a locate trace.
#[derive(Clone, Debug)]
pub struct LocateTrace {
    /// Occurrences this shard contributed (after remapping).
    pub occurrences: usize,
    /// Time for the shard-local occurrence walk.
    pub elapsed: Duration,
}

/// One shard's per-stage breakdown.
#[derive(Clone, Debug)]
pub struct ShardTrace {
    /// Shard number.
    pub shard: usize,
    /// Backward-search steps, in order; stops at the emptying step.
    pub steps: Vec<TraceStep>,
    /// `true` when the range emptied before the last edge was consumed —
    /// the remaining steps never ran in this shard.
    pub short_circuited: bool,
    /// `Some(edge)` when the shard was **pruned**: its edge-membership
    /// set ruled out `edge`, so no backward search ran here at all
    /// (steps is empty). The skipped search would have returned `None`.
    pub pruned: Option<u32>,
    /// The fan-out remap stage (locate traces on locate-capable indexes).
    pub locate: Option<LocateTrace>,
}

impl ShardTrace {
    /// The final suffix range (`None` when the path is absent here).
    pub fn final_range(&self) -> Option<Range<usize>> {
        self.steps.last().and_then(|s| s.range.clone())
    }

    /// Matches this shard contributes to the count.
    pub fn matches(&self) -> usize {
        self.final_range().map_or(0, |r| r.len())
    }

    /// Total backward-search time across the steps.
    pub fn search_time(&self) -> Duration {
        self.steps.iter().map(|s| s.elapsed).sum()
    }

    fn run(shard: usize, backend: &dyn PathQuery, path: &[u32], locate: bool) -> ShardTrace {
        let mut steps = Vec::with_capacity(path.len());
        let mut short_circuited = false;
        for k in 1..=path.len() {
            let t0 = Instant::now();
            let range = backend.range(Path::new(&path[..k]));
            let elapsed = t0.elapsed();
            let empty = range.is_none();
            steps.push(TraceStep {
                edge: path[k - 1],
                range,
                elapsed,
            });
            if empty {
                short_circuited = k < path.len();
                break;
            }
        }
        let locate = (locate && steps.last().is_some_and(|s| s.range.is_some()))
            .then(|| {
                let t0 = Instant::now();
                let occurrences = backend
                    .occurrences(Path::new(path))
                    .map(|it| it.count())
                    .ok()?;
                Some(LocateTrace {
                    occurrences,
                    elapsed: t0.elapsed(),
                })
            })
            .flatten();
        ShardTrace {
            shard,
            steps,
            short_circuited,
            pruned: None,
            locate,
        }
    }

    /// A trace entry for a shard the fan-out pruned: membership ruled
    /// out `edge`, so no search stage ran.
    fn pruned(shard: usize, edge: u32) -> ShardTrace {
        ShardTrace {
            shard,
            steps: Vec::new(),
            short_circuited: false,
            pruned: Some(edge),
            locate: None,
        }
    }
}

/// A complete explain-mode trace of one query. Build with
/// [`QueryTrace::sharded`]; render with [`QueryTrace::render`].
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// The traced path (travel order).
    pub path: Vec<u32>,
    /// Time for pattern preprocessing (edge validation).
    pub preprocess: Duration,
    /// The first out-of-alphabet edge, if validation failed (no search
    /// stages run in that case).
    pub invalid_edge: Option<u32>,
    /// Per-shard breakdowns, in shard order.
    pub shards: Vec<ShardTrace>,
    /// Wall-clock for the whole trace.
    pub elapsed: Duration,
}

impl QueryTrace {
    /// Trace `path` against every shard of a sharded corpus. Set
    /// `locate` to include the occurrence-walk stage.
    pub fn sharded(index: &ShardedCinct, path: &[u32], locate: bool) -> QueryTrace {
        let t0 = Instant::now();
        // Stage 1: validate the pattern against the network alphabet.
        let n_edges = index.sigma().saturating_sub(SYMBOL_OFFSET as usize);
        let invalid_edge = path.iter().find(|&&e| e as usize >= n_edges).copied();
        let preprocess = t0.elapsed();
        let shards = if invalid_edge.is_some() || path.is_empty() {
            Vec::new()
        } else {
            (0..index.num_shards())
                .map(|s| {
                    // Mirror the live fan-out's prune decision (resolved
                    // against the shard's membership set) so the trace
                    // shows exactly which shards a real query skips.
                    match index.pruned_edge(s, Path::new(path)) {
                        Some(edge) => ShardTrace::pruned(s, edge),
                        None => ShardTrace::run(s, index.shard_index(s), path, locate),
                    }
                })
                .collect()
        };
        QueryTrace {
            path: path.to_vec(),
            preprocess,
            invalid_edge,
            shards,
            elapsed: t0.elapsed(),
        }
    }

    /// Total matches across all shards.
    pub fn total_matches(&self) -> usize {
        self.shards.iter().map(ShardTrace::matches).sum()
    }

    /// Shards where the path was found.
    pub fn matched_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.matches() > 0).count()
    }

    /// Shards the fan-out pruned without running a search.
    pub fn pruned_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.pruned.is_some()).count()
    }

    /// Render the per-shard, per-stage breakdown for terminal output.
    pub fn render(&self) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: path {:?} ({} edge{})",
            self.path,
            self.path.len(),
            if self.path.len() == 1 { "" } else { "s" }
        );
        let _ = writeln!(
            out,
            "  preprocess: {:.2} us (edge validation)",
            us(self.preprocess)
        );
        if let Some(edge) = self.invalid_edge {
            let _ = writeln!(
                out,
                "  aborted: edge {edge} is outside the network alphabet"
            );
            return out;
        }
        for sh in &self.shards {
            let outcome = match sh.final_range() {
                Some(r) => format!("range {}..{} ({} matches)", r.start, r.end, r.len()),
                None if sh.pruned.is_some() => format!(
                    "pruned (edge {} absent from shard membership, search skipped)",
                    sh.pruned.unwrap()
                ),
                None if sh.short_circuited => format!(
                    "absent (short-circuited after {} of {} steps)",
                    sh.steps.len(),
                    self.path.len()
                ),
                None => "absent".to_string(),
            };
            let _ = writeln!(
                out,
                "  shard {}: {} | search {:.2} us",
                sh.shard,
                outcome,
                us(sh.search_time())
            );
            for (k, step) in sh.steps.iter().enumerate() {
                let narrowed = match &step.range {
                    Some(r) => format!("{}..{} ({} rows)", r.start, r.end, r.len()),
                    None => "empty".to_string(),
                };
                let _ = writeln!(
                    out,
                    "    step {}: edge {} -> {} [{:.2} us]",
                    k + 1,
                    step.edge,
                    narrowed,
                    us(step.elapsed)
                );
            }
            if let Some(loc) = &sh.locate {
                let _ = writeln!(
                    out,
                    "    fan-out remap: {} occurrence{} in {:.2} us",
                    loc.occurrences,
                    if loc.occurrences == 1 { "" } else { "s" },
                    us(loc.elapsed)
                );
            }
        }
        let pruned = self.pruned_shards();
        let pruned_note = if pruned > 0 {
            format!(" ({pruned} pruned)")
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  total: {} matches in {}/{} shards{}, {:.2} us traced",
            self.total_matches(),
            self.matched_shards(),
            self.shards.len(),
            pruned_note,
            us(self.elapsed)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CinctBuilder;
    use crate::shard::ShardedBuilder;

    fn paper_trajs() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]]
    }

    /// A one-shard corpus over the paper's trajectories.
    fn one_shard(builder: CinctBuilder) -> ShardedCinct {
        ShardedBuilder::new()
            .shards(1)
            .index_builder(builder)
            .build(&paper_trajs(), 6)
    }

    #[test]
    fn one_shard_trace_ranges_match_direct_queries() {
        let builder = CinctBuilder::new().locate_sampling(2);
        // A one-shard corpus's trace must read the same ranges as the
        // CinctIndex built directly from the same trajectories.
        let idx = builder.build(&paper_trajs(), 6);
        let path = [0u32, 1, 2];
        let tr = QueryTrace::sharded(&one_shard(builder), &path, true);
        assert_eq!(tr.shards.len(), 1);
        let sh = &tr.shards[0];
        // Every intermediate range equals the prefix's direct range.
        assert_eq!(sh.steps.len(), 3);
        for (k, step) in sh.steps.iter().enumerate() {
            assert_eq!(step.range, idx.range(Path::new(&path[..=k])));
        }
        assert_eq!(tr.total_matches(), idx.count(Path::new(&path)));
        let loc = sh.locate.as_ref().expect("locate-capable index");
        assert_eq!(loc.occurrences, 1);
        assert!(tr.render().contains("step 3: edge 2"));
    }

    #[test]
    fn short_circuit_is_reported() {
        let sharded = one_shard(CinctBuilder::new());
        // Edge 3 only follows 0; [1, 3] empties at step 2 of 3.
        let tr = QueryTrace::sharded(&sharded, &[1, 3, 0], false);
        let sh = &tr.shards[0];
        assert!(sh.short_circuited);
        assert_eq!(sh.steps.len(), 2);
        assert_eq!(sh.matches(), 0);
        assert!(tr.render().contains("short-circuited after 2 of 3 steps"));
    }

    #[test]
    fn invalid_edge_aborts_before_search() {
        let sharded = one_shard(CinctBuilder::new());
        let tr = QueryTrace::sharded(&sharded, &[0, 99], false);
        assert_eq!(tr.invalid_edge, Some(99));
        assert!(tr.shards.is_empty());
        assert!(tr.render().contains("edge 99 is outside"));
    }

    #[test]
    fn pruned_shards_are_traced_without_search_stages() {
        use crate::shard::ShardPartition;
        // Round-robin over the paper corpus: edge 3 lives only in shard
        // 1 ([0,1,2],[0,3]); shard 0 ([0,1,4,5],[1,2]) is pruned.
        let sharded = ShardedBuilder::new()
            .shards(2)
            .partition(ShardPartition::RoundRobin)
            .build(&paper_trajs(), 6);
        let tr = QueryTrace::sharded(&sharded, &[0, 3], false);
        assert_eq!(tr.pruned_shards(), 1);
        let pruned = &tr.shards[0];
        assert_eq!(pruned.pruned, Some(3));
        assert!(pruned.steps.is_empty());
        assert_eq!(pruned.matches(), 0);
        assert_eq!(tr.total_matches(), 1);
        let rendered = tr.render();
        assert!(
            rendered.contains("shard 0: pruned (edge 3 absent"),
            "{rendered}"
        );
        assert!(rendered.contains("(1 pruned)"), "{rendered}");
        // Disabling pruning removes the skip from the trace too.
        let mut unpruned = sharded.clone();
        unpruned.set_pruning(false);
        let tr = QueryTrace::sharded(&unpruned, &[0, 3], false);
        assert_eq!(tr.pruned_shards(), 0);
        assert_eq!(tr.total_matches(), 1);
    }

    #[test]
    fn sharded_trace_breaks_down_per_shard() {
        let sharded = ShardedBuilder::new()
            .shards(2)
            .locate_sampling(2)
            .build(&paper_trajs(), 6);
        let path = [1u32, 2];
        let tr = QueryTrace::sharded(&sharded, &path, true);
        assert_eq!(tr.shards.len(), 2);
        assert_eq!(tr.total_matches(), sharded.count(Path::new(&path)));
        let occ_total: usize = tr
            .shards
            .iter()
            .filter_map(|s| s.locate.as_ref())
            .map(|l| l.occurrences)
            .sum();
        assert_eq!(occ_total, 2);
        let rendered = tr.render();
        assert!(rendered.contains("shard 0:"));
        assert!(rendered.contains("shard 1:"));
        assert!(rendered.contains("2 matches in"));
    }
}
