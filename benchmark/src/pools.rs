//! Query pools with their expected answers. Every expectation comes from
//! the harness's own oracle over the raw trajectories, never from the
//! library, so each timed answer is checked against an independent one.

use crate::corpus::render_path;
use crate::oracle::PatternIndex;

/// Patterns to count, their wire form, and how often each occurs.
pub struct CountPool {
    pub patterns: Vec<Vec<u32>>,
    pub rendered: Vec<String>,
    pub counts: Vec<u64>,
}

impl CountPool {
    pub fn new(patterns: Vec<Vec<u32>>, trajectories: &[Vec<u32>], n_edges: usize) -> Self {
        let counts = PatternIndex::new(&patterns, n_edges)
            .counts(trajectories)
            .into_iter()
            .map(|c| c as u64)
            .collect();
        let rendered = patterns.iter().map(|p| render_path(p)).collect();
        CountPool {
            patterns,
            rendered,
            counts,
        }
    }

    pub fn len(&self) -> usize {
        self.patterns.len()
    }
}

/// Patterns to list, with every `(trajectory, offset)` they occur at.
pub struct LocatePool {
    pub patterns: Vec<Vec<u32>>,
    pub rendered: Vec<String>,
    pub occurrences: Vec<Vec<(usize, usize)>>,
}

impl LocatePool {
    /// Keep the candidates that occur at most `max_occurrences` times: a
    /// listing's cost is its length, and one pattern matching half the
    /// corpus would turn a latency sample into a throughput test (or
    /// run into the server's deadline, and no operation may fail).
    pub fn new(
        candidates: Vec<Vec<u32>>,
        trajectories: &[Vec<u32>],
        n_edges: usize,
        max_occurrences: usize,
    ) -> Self {
        let lists = PatternIndex::new(&candidates, n_edges).occurrences(trajectories);
        let mut pool = LocatePool {
            patterns: Vec::new(),
            rendered: Vec::new(),
            occurrences: Vec::new(),
        };
        for (p, occ) in candidates.into_iter().zip(lists) {
            if occ.len() <= max_occurrences {
                pool.rendered.push(render_path(&p));
                pool.patterns.push(p);
                pool.occurrences.push(occ);
            }
        }
        assert!(
            !pool.patterns.is_empty(),
            "every locate candidate was too frequent"
        );
        pool
    }

    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `t0,o0,t1,o1,…` — the order a served listing flattens to.
    pub fn flat(&self, i: usize) -> impl Iterator<Item = u64> + '_ {
        self.occurrences[i]
            .iter()
            .flat_map(|&(t, o)| [t as u64, o as u64])
    }
}
