//! Property-based integration tests (proptest): the paper's theorems and
//! structural invariants over randomly generated trajectory corpora.

use cinct::{CinctBuilder, CinctIndex, LabelingStrategy, Path, PathQuery, QueryError, Rml};
use cinct_bwt::{bwt, entropy_h0, CArray, TrajectoryString};
use cinct_fmindex::Ufmi;
use proptest::prelude::*;

/// Random corpora: up to 12 trajectories of 1..20 edges over a small
/// alphabet, with a transition structure (edge e can be followed by a few
/// pseudo-random successors) so the ET-graph stays sparse like real data.
fn corpus_strategy() -> impl Strategy<Value = (Vec<Vec<u32>>, usize)> {
    let n_edges = 12usize;
    (proptest::collection::vec(
        (0u32..n_edges as u32, 1usize..20, any::<u64>()),
        1..12,
    ),)
        .prop_map(move |(specs,)| {
            let trajs: Vec<Vec<u32>> = specs
                .into_iter()
                .map(|(start, len, seed)| {
                    let mut t = vec![start];
                    let mut x = seed | 1;
                    for _ in 1..len {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let prev = *t.last().unwrap();
                        // 3 deterministic successors per edge keeps G_T sparse.
                        let succ = [
                            (prev * 7 + 1) % n_edges as u32,
                            (prev * 7 + 3) % n_edges as u32,
                            (prev * 7 + 5) % n_edges as u32,
                        ];
                        t.push(succ[((x >> 33) % 3) as usize]);
                    }
                    t
                })
                .collect();
            (trajs, n_edges)
        })
}

fn brute_force_count(trajs: &[Vec<u32>], path: &[u32]) -> usize {
    trajs
        .iter()
        .map(|t| t.windows(path.len()).filter(|w| *w == path).count())
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CiNCT count == brute force for every sampled path (and agrees with
    /// the reference FM-index on the raw suffix ranges).
    #[test]
    fn counts_match_brute_force((trajs, n_edges) in corpus_strategy(), plen in 1usize..5) {
        let idx = CinctIndex::build(&trajs, n_edges);
        let ts = TrajectoryString::build(&trajs, n_edges);
        let ufmi = Ufmi::from_text(ts.text(), ts.sigma());
        // Probe paths taken from the data plus a few synthetic ones.
        let mut probes: Vec<Vec<u32>> = Vec::new();
        for t in trajs.iter().take(4) {
            if t.len() >= plen {
                probes.push(t[..plen].to_vec());
                probes.push(t[t.len() - plen..].to_vec());
            }
        }
        probes.push((0..plen as u32).collect());
        for path in probes {
            prop_assert_eq!(idx.count_path(&path), brute_force_count(&trajs, &path));
            let enc = TrajectoryString::encode_pattern(&path);
            prop_assert_eq!(idx.suffix_range_encoded(&enc), ufmi.suffix_range(&enc));
        }
    }

    /// Every trajectory can be recovered from the compressed index.
    #[test]
    fn trajectories_roundtrip((trajs, n_edges) in corpus_strategy()) {
        let idx = CinctIndex::build(&trajs, n_edges);
        let stored: Vec<&Vec<u32>> = trajs.iter().filter(|t| !t.is_empty()).collect();
        prop_assert_eq!(idx.num_trajectories(), stored.len());
        for (id, t) in stored.iter().enumerate() {
            prop_assert_eq!(&idx.trajectory(id), *t);
        }
    }

    /// Theorem 2 (balancing equation): PseudoRank equals the true rank on
    /// the raw BWT at every valid (j, w, w′).
    #[test]
    fn pseudo_rank_is_true_rank((trajs, n_edges) in corpus_strategy()) {
        let ts = TrajectoryString::build(&trajs, n_edges);
        let (_, tbwt) = bwt(ts.text(), ts.sigma());
        let idx = CinctIndex::build(&trajs, n_edges);
        let c = idx.c_array();
        for w_prime in 0..idx.sigma() as u32 {
            let range = c.symbol_range(w_prime);
            for w in idx.rml().graph().out(w_prime) {
                for j in [range.start, (range.start + range.end) / 2, range.end] {
                    let truth = tbwt[..j].iter().filter(|&&s| s == w).count();
                    prop_assert_eq!(idx.pseudo_rank(j, w, w_prime), Some(truth));
                }
            }
        }
    }

    /// Theorem 3 (labeling optimality): bigram-sorted RML never has higher
    /// H0 than a random labeling of the same ET-graph.
    #[test]
    fn bigram_labeling_is_optimal((trajs, n_edges) in corpus_strategy(), seed in any::<u64>()) {
        let ts = TrajectoryString::build(&trajs, n_edges);
        let (_, tbwt) = bwt(ts.text(), ts.sigma());
        let c = CArray::new(ts.text(), ts.sigma());
        let h = |strategy| {
            let rml = Rml::from_text(ts.text(), ts.sigma(), strategy);
            entropy_h0(&rml.label_bwt(&tbwt, &c))
        };
        let sorted = h(LabelingStrategy::BigramSorted);
        let random = h(LabelingStrategy::Random { seed });
        prop_assert!(sorted <= random + 1e-9, "sorted {} > random {}", sorted, random);
    }

    /// Extraction equals direct text slicing at arbitrary rows/lengths.
    #[test]
    fn extract_matches_text((trajs, n_edges) in corpus_strategy(), row_sel in any::<u64>(), l in 1usize..8) {
        let ts = TrajectoryString::build(&trajs, n_edges);
        let idx = CinctIndex::build(&trajs, n_edges);
        let sa = cinct_bwt::sais::naive_suffix_array(ts.text());
        let j = (row_sel % ts.len() as u64) as usize;
        let i = sa[j] as usize;
        let l = l.min(i);
        if l > 0 {
            prop_assert_eq!(&idx.extract_encoded(j, l)[..], &ts.text()[i - l..i]);
        }
    }

    /// Size accounting is consistent: w/o-ET ≤ core ≤ core + directory.
    #[test]
    fn size_monotonicity((trajs, n_edges) in corpus_strategy()) {
        let idx = CinctBuilder::new().locate_sampling(8).build(&trajs, n_edges);
        prop_assert!(idx.size_without_et_graph() <= idx.core_size_in_bytes());
        prop_assert!(idx.directory_size_in_bytes() > 0);
    }

    /// The streaming `occurrences()` iterator yields exactly the brute-force
    /// `(trajectory, offset)` matches on arbitrary corpora, paths, and
    /// sampling rates.
    #[test]
    fn occurrences_equal_brute_force(
        (trajs, n_edges) in corpus_strategy(),
        plen in 1usize..5,
        rate in prop::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let idx = CinctBuilder::new().locate_sampling(rate).build(&trajs, n_edges);
        let mut probes: Vec<Vec<u32>> = Vec::new();
        for t in trajs.iter().take(4) {
            if t.len() >= plen {
                probes.push(t[..plen].to_vec());
                probes.push(t[t.len() - plen..].to_vec());
            }
        }
        probes.push((0..plen as u32).collect());
        for path in probes {
            let streamed = idx
                .occurrences(Path::new(&path))
                .expect("locate enabled")
                .collect_sorted();
            let mut expected = Vec::new();
            for (tid, t) in trajs.iter().enumerate() {
                for off in 0..t.len().saturating_sub(plen - 1) {
                    if t[off..off + plen] == path[..] {
                        expected.push((tid, off));
                    }
                }
            }
            prop_assert_eq!(streamed, expected, "path {:?}", path);
        }
    }

    /// Error paths: no SA samples → LocateUnsupported for any well-formed
    /// path; out-of-alphabet edges → UnknownEdge everywhere.
    #[test]
    fn error_paths_are_typed((trajs, n_edges) in corpus_strategy(), bad_edge in 12u32..1000) {
        let count_only = CinctIndex::build(&trajs, n_edges);
        prop_assert_eq!(
            count_only.occurrences(Path::new(&[0])).err(),
            Some(QueryError::LocateUnsupported)
        );
        let bad = [0u32, bad_edge];
        prop_assert_eq!(
            count_only.try_range(Path::new(&bad)).err(),
            Some(QueryError::UnknownEdge { edge: bad_edge, n_edges })
        );
        // `range` treats the same path as merely absent.
        prop_assert_eq!(count_only.range(Path::new(&bad)), None);
        // Builder-level validation rejects the same edge at build time.
        let mut poisoned = trajs.clone();
        poisoned.push(vec![bad_edge]);
        prop_assert_eq!(
            CinctBuilder::new().try_build(&poisoned, n_edges).err(),
            Some(QueryError::UnknownEdge { edge: bad_edge, n_edges })
        );
    }
}
