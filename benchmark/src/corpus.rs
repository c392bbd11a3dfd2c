//! Corpora and query pools. Corpora come from the `cinct_datasets`
//! generators (which carry their own fixed seeds, so a corpus depends
//! only on the workload); every pool and schedule derives from `--seed`.

use crate::rng::Rng;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Generator {
    Singapore,
    Chess,
}

/// A generated corpus plus the fingerprint that pins it.
pub struct Corpus {
    pub trajectories: Vec<Vec<u32>>,
    pub n_edges: usize,
    pub fingerprint: u64,
}

impl Corpus {
    pub fn generate(generator: Generator, scale: f64) -> Corpus {
        let ds = match generator {
            Generator::Singapore => cinct_datasets::singapore(scale),
            Generator::Chess => cinct_datasets::chess(scale),
        };
        let n_edges = ds.n_edges();
        let fingerprint = fingerprint(&ds.trajectories, n_edges);
        Corpus {
            trajectories: ds.trajectories,
            n_edges,
            fingerprint,
        }
    }
}

pub fn symbols(trajectories: &[Vec<u32>]) -> usize {
    trajectories.iter().map(Vec::len).sum()
}

/// FNV-1a 64 over the alphabet size and every trajectory (length, then
/// edges). A generator change moves it, and the run refuses to measure a
/// different corpus under the same metric names.
pub fn fingerprint(trajectories: &[Vec<u32>], n_edges: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(n_edges as u64);
    for t in trajectories {
        eat(t.len() as u64);
        for &e in t {
            eat(u64::from(e));
        }
    }
    h
}

/// `count` sub-paths sampled uniformly: a trajectory, a length in
/// `lens` it can hold, a start. Every pattern occurs at least once.
pub fn sample_windows(
    trajectories: &[Vec<u32>],
    rng: &mut Rng,
    count: usize,
    lens: std::ops::RangeInclusive<usize>,
) -> Vec<Vec<u32>> {
    let (lo, hi) = (*lens.start(), *lens.end());
    let eligible: Vec<&Vec<u32>> = trajectories.iter().filter(|t| t.len() >= hi).collect();
    assert!(
        !eligible.is_empty(),
        "no trajectory holds a pattern of length {hi}"
    );
    (0..count)
        .map(|_| {
            let t = eligible[rng.below(eligible.len())];
            let len = lo + rng.below(hi - lo + 1);
            let start = rng.below(t.len() - len + 1);
            t[start..start + len].to_vec()
        })
        .collect()
}

/// `count` *selective* windows of `len` edges: windows holding an edge
/// from the rarest hundredth of edges by trajectory frequency. Rare
/// edges live in few shards, so these are the patterns shard pruning can
/// skip work for; uniform windows are dominated by edges every shard
/// holds.
pub fn selective_windows(
    trajectories: &[Vec<u32>],
    n_edges: usize,
    rng: &mut Rng,
    count: usize,
    len: usize,
) -> Vec<Vec<u32>> {
    let mut freq = vec![0u32; n_edges];
    let mut seen = Vec::new();
    for t in trajectories {
        seen.clear();
        seen.extend_from_slice(t);
        seen.sort_unstable();
        seen.dedup();
        for &e in &seen {
            freq[e as usize] += 1;
        }
    }
    let mut used: Vec<u32> = freq.iter().copied().filter(|&f| f > 0).collect();
    used.sort_unstable();
    let cutoff = used[used.len() / 100];
    let mut pool: Vec<(u32, u32)> = Vec::new();
    for (id, t) in trajectories.iter().enumerate() {
        if t.len() < len {
            continue;
        }
        for start in 0..=t.len() - len {
            if t[start..start + len]
                .iter()
                .any(|&e| freq[e as usize] <= cutoff)
            {
                pool.push((id as u32, start as u32));
            }
        }
    }
    assert!(!pool.is_empty(), "no selective window of length {len}");
    (0..count)
        .map(|_| {
            let (id, start) = pool[rng.below(pool.len())];
            trajectories[id as usize][start as usize..start as usize + len].to_vec()
        })
        .collect()
}

/// `[1,2,3]` — the wire form of one path. Bodies are assembled from
/// these before the clock starts; formatting integers inside the timed
/// region bills the client's work to the server.
pub fn render_path(path: &[u32]) -> String {
    let mut s = String::with_capacity(path.len() * 6 + 2);
    s.push('[');
    for (i, e) in path.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{e}");
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Vec<Vec<u32>> {
        vec![
            vec![0, 1, 2, 3, 4],
            vec![0, 1, 2, 3, 4],
            vec![0, 1, 2, 9, 4],
            vec![5, 6],
        ]
    }

    #[test]
    fn windows_are_sub_paths_and_seeded() {
        let t = toy();
        let a = sample_windows(&t, &mut Rng::stream(3, 0), 50, 2..=4);
        let b = sample_windows(&t, &mut Rng::stream(3, 0), 50, 2..=4);
        assert_eq!(a, b);
        for w in &a {
            assert!((2..=4).contains(&w.len()));
            assert!(t.iter().any(|t| t.windows(w.len()).any(|x| x == &w[..])));
        }
    }

    #[test]
    fn selective_windows_hold_a_rare_edge() {
        let mut t = toy();
        // 200 more edges, each in two trajectories, so the rarest
        // hundredth is exactly the frequency-1 edges 9, 5 and 6.
        for e in 100..300u32 {
            t.push(vec![e, e + 1]);
        }
        let w = selective_windows(&t, 400, &mut Rng::stream(1, 0), 20, 2);
        assert!(w
            .iter()
            .all(|w| w.iter().any(|e| [9, 5, 6, 100, 300].contains(e))));
    }

    #[test]
    fn fingerprint_sees_every_edge_and_boundary() {
        let a = fingerprint(&[vec![1, 2], vec![3]], 10);
        assert_ne!(a, fingerprint(&[vec![1], vec![2, 3]], 10));
        assert_ne!(a, fingerprint(&[vec![1, 2], vec![4]], 10));
        assert_ne!(a, fingerprint(&[vec![1, 2], vec![3]], 11));
        assert_eq!(render_path(&[7, 0, 12]), "[7,0,12]");
    }
}
