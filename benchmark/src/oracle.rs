//! The harness's own naive answers: patterns are indexed by their first
//! edge, the raw trajectories are scanned once, and every position whose
//! edge starts some pattern is compared window against window. Nothing
//! here touches the library, so agreement is evidence about the library.

/// "No edge here": a pattern shorter than three edges leaves its key
/// slots open, a trajectory position near the end has nothing to offer.
const OPEN: u32 = u32::MAX;
const END: u32 = u32::MAX - 1;

/// A pattern's second and third edge beside its ID. A bucket is sorted
/// by them, so a position looks up only the patterns that agree with it
/// on three edges — a popular first edge can start thousands.
struct Entry {
    key: (u32, u32),
    pattern: u32,
}

fn with_key(bucket: &[Entry], key: (u32, u32)) -> &[Entry] {
    let lo = bucket.partition_point(|e| e.key < key);
    let hi = bucket.partition_point(|e| e.key <= key);
    &bucket[lo..hi]
}

/// Patterns grouped by first edge, ready to scan trajectories.
pub struct PatternIndex<'a> {
    patterns: &'a [Vec<u32>],
    by_first: Vec<Vec<Entry>>,
}

impl<'a> PatternIndex<'a> {
    pub fn new(patterns: &'a [Vec<u32>], n_edges: usize) -> Self {
        let mut by_first: Vec<Vec<Entry>> = (0..n_edges).map(|_| Vec::new()).collect();
        for (id, p) in patterns.iter().enumerate() {
            assert!(!p.is_empty(), "empty pattern in the oracle");
            assert!(
                p.iter().all(|&e| e < END),
                "edge ID collides with the oracle's markers"
            );
            by_first[p[0] as usize].push(Entry {
                key: (
                    p.get(1).copied().unwrap_or(OPEN),
                    p.get(2).copied().unwrap_or(OPEN),
                ),
                pattern: id as u32,
            });
        }
        for bucket in &mut by_first {
            bucket.sort_by_key(|e| (e.key, e.pattern));
        }
        PatternIndex { patterns, by_first }
    }

    /// Call `hit(pattern, trajectory, offset)` for every occurrence, in
    /// `(trajectory, offset)` order; `first_id` is the global ID of
    /// `trajectories[0]`.
    pub fn scan(
        &self,
        trajectories: &[Vec<u32>],
        first_id: usize,
        mut hit: impl FnMut(usize, usize, usize),
    ) {
        for (t, traj) in trajectories.iter().enumerate() {
            for (o, &e) in traj.iter().enumerate() {
                let second = traj.get(o + 1).copied().unwrap_or(END);
                let third = traj.get(o + 2).copied().unwrap_or(END);
                let bucket = &self.by_first[e as usize];
                // Patterns of three or more edges, of two, and of one.
                for key in [(second, third), (second, OPEN), (OPEN, OPEN)] {
                    for entry in with_key(bucket, key) {
                        if traj[o..].starts_with(&self.patterns[entry.pattern as usize]) {
                            hit(entry.pattern as usize, first_id + t, o);
                        }
                    }
                }
            }
        }
    }

    /// Sorted `(trajectory, offset)` occurrence list of every pattern.
    pub fn occurrences(&self, trajectories: &[Vec<u32>]) -> Vec<Vec<(usize, usize)>> {
        let mut out = vec![Vec::new(); self.patterns.len()];
        self.scan(trajectories, 0, |p, t, o| out[p].push((t, o)));
        out
    }

    /// Occurrence count of every pattern. Counts add up across parts of
    /// the corpus, so each hardware thread scans one part.
    pub fn counts(&self, trajectories: &[Vec<u32>]) -> Vec<usize> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let part = trajectories.len().div_ceil(threads).max(1);
        let mut out = vec![0usize; self.patterns.len()];
        std::thread::scope(|s| {
            let scans: Vec<_> = trajectories
                .chunks(part)
                .map(|chunk| {
                    s.spawn(move || {
                        let mut counts = vec![0usize; self.patterns.len()];
                        self.scan(chunk, 0, |p, _, _| counts[p] += 1);
                        counts
                    })
                })
                .collect();
            for scan in scans {
                let counts = scan.join().expect("oracle scan thread");
                out.iter_mut().zip(counts).for_each(|(o, c)| *o += c);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_overlapping_and_repeated_occurrences_in_order() {
        let trajs = vec![vec![1, 1, 1, 2], vec![3], vec![1, 1, 2, 1, 1]];
        let patterns = vec![
            vec![1, 1],
            vec![1, 2],
            vec![3],
            vec![2, 2],
            vec![1, 1, 2],
            vec![1, 2, 1, 1, 3],
        ];
        let idx = PatternIndex::new(&patterns, 4);
        let occ = idx.occurrences(&trajs);
        assert_eq!(occ[0], vec![(0, 0), (0, 1), (2, 0), (2, 3)]);
        assert_eq!(occ[1], vec![(0, 2), (2, 1)]);
        assert_eq!(occ[2], vec![(1, 0)]);
        assert!(occ[3].is_empty());
        assert_eq!(occ[4], vec![(0, 1), (2, 0)]);
        assert!(occ[5].is_empty());
        assert_eq!(idx.counts(&trajs), vec![4, 2, 1, 0, 2, 0]);
    }
}
