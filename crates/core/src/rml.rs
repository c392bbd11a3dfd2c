//! Relative movement labeling (RML, paper §III-B and §III-C1).
//!
//! Given the ET-graph and the BWT `T_bwt`, RML rewrites each BWT symbol `w`
//! at position `j` as the small integer `φ(w|w′)`, where `w′` is the
//! context — the first symbol of the `j`-th sorted rotation, i.e. the
//! symbol whose `C`-range contains `j`. Because `φ(·|w′)` is one-to-one per
//! context (the labeling requirement), PseudoRank can later invert the
//! mapping.
//!
//! Labeling strategies (the Fig. 14 ablation):
//! * [`LabelingStrategy::BigramSorted`] — most-frequent transition gets
//!   label 1 (entropy-optimal, Theorem 3);
//! * [`LabelingStrategy::Random`] — random permutations per context
//!   (the paper's "random sorting" strawman).

use crate::et_graph::EtGraph;
use cinct_bwt::CArray;
use cinct_succinct::serial::Persist;

/// How labels are assigned within each out-list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelingStrategy {
    /// Descending bigram frequency — the paper's optimal strategy.
    BigramSorted,
    /// Deterministic pseudo-random permutation per vertex, seeded; the
    /// Fig. 14 baseline showing that the ordering matters.
    Random {
        /// Seed for the per-vertex permutations.
        seed: u64,
    },
}

/// The RML function φ, realised as an [`EtGraph`] whose out-lists are in
/// label order. The strategy that chose the order is a construction
/// input only: φ is the same structure whichever produced it.
#[derive(Clone, Debug)]
pub struct Rml {
    graph: EtGraph,
}

impl Rml {
    /// Build φ from a trajectory string (bigram counting + ordering).
    pub fn from_text(text: &[u32], sigma: usize, strategy: LabelingStrategy) -> Self {
        let graph = EtGraph::from_text(text, sigma);
        Self::with_strategy(graph, strategy)
    }

    /// Build φ straight from the BWT and its context structure. Every BWT
    /// position `j` in context block `w′` carries the cyclic bigram
    /// `(T_bwt[j], w′)`, so per-block symbol tallies reproduce exactly the
    /// bigram counts of [`Rml::from_text`] (cyclic wrap included) — with
    /// one dense-scratch pass instead of a hashed map over `n` bigrams.
    /// The optimized construction pipeline rides this; the resulting
    /// labeling is **identical** to the text path's (pinned by tests).
    pub fn from_bwt(tbwt: &[u32], c: &CArray, strategy: LabelingStrategy) -> Self {
        let sigma = c.sigma();
        let mut scratch = vec![0u64; sigma];
        let mut touched: Vec<u32> = Vec::new();
        let mut edges: Vec<((u32, u32), u64)> = Vec::new();
        for w_prime in 0..sigma as u32 {
            for j in c.symbol_range(w_prime) {
                let w = tbwt[j];
                if scratch[w as usize] == 0 {
                    touched.push(w);
                }
                scratch[w as usize] += 1;
            }
            for &w in &touched {
                edges.push(((w_prime, w), scratch[w as usize]));
                scratch[w as usize] = 0;
            }
            touched.clear();
        }
        let graph = EtGraph::from_bigrams(edges.into_iter(), sigma);
        Self::with_strategy(graph, strategy)
    }

    /// Apply the labeling strategy to a frequency-sorted graph.
    fn with_strategy(mut graph: EtGraph, strategy: LabelingStrategy) -> Self {
        if let LabelingStrategy::Random { seed } = strategy {
            // Fisher–Yates with a splitmix-style stream per vertex.
            graph.permute_labels(|v, list| {
                let mut state = seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(v as u64 + 1));
                let mut next = || {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^ (z >> 31)
                };
                let mut p: Vec<usize> = (0..list.len()).collect();
                for i in (1..p.len()).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    p.swap(i, j);
                }
                p
            });
        }
        Self { graph }
    }

    /// `φ(w|w′)`, or `None` if the transition does not occur in the data.
    #[inline]
    pub fn label(&self, w: u32, w_prime: u32) -> Option<u32> {
        self.graph.label(w, w_prime)
    }

    /// `(φ(w|w′), Z_{w′w})` in one adjacency lookup (the backward-search
    /// step shape; see [`crate::EtGraph::label_and_z`]).
    #[inline]
    pub fn label_and_z(&self, w: u32, w_prime: u32) -> Option<(u32, i64)> {
        self.graph.label_and_z(w, w_prime)
    }

    /// Inverse: the symbol with the given label in context `w′`.
    #[inline]
    pub fn decode(&self, label: u32, w_prime: u32) -> u32 {
        self.graph.decode(label, w_prime)
    }

    /// The labeled BWT `φ(T_bwt)` (paper step 4, Fig. 6(b)): walk the BWT
    /// context block by context block (blocks are the `C`-ranges) and
    /// replace each symbol with its label.
    pub fn label_bwt(&self, bwt: &[u32], c: &CArray) -> Vec<u32> {
        let mut labeled = vec![0u32; bwt.len()];
        for w_prime in 0..c.sigma() as u32 {
            for j in c.symbol_range(w_prime) {
                let w = bwt[j];
                let label = self
                    .label(w, w_prime)
                    .expect("BWT transition must exist in the ET-graph");
                labeled[j] = label;
            }
        }
        labeled
    }

    /// The underlying ET-graph (out-lists in label order).
    pub fn graph(&self) -> &EtGraph {
        &self.graph
    }

    /// Mutable access for the builder (Z-term attachment).
    pub(crate) fn graph_mut(&mut self) -> &mut EtGraph {
        &mut self.graph
    }

    /// Histogram of label values over `φ(T_bwt)` — label `k` is stored at
    /// index `k-1`. Used by entropy comparisons (Tables III and V).
    pub fn label_histogram(&self, labeled_bwt: &[u32]) -> Vec<u64> {
        let max = labeled_bwt.iter().copied().max().unwrap_or(1) as usize;
        let mut h = vec![0u64; max];
        for &l in labeled_bwt {
            h[(l - 1) as usize] += 1;
        }
        h
    }
}

impl Persist for Rml {
    fn persist(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        self.graph.persist(w)
    }

    fn restore(r: &mut dyn std::io::Read) -> std::io::Result<Self> {
        Ok(Self {
            graph: EtGraph::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinct_bwt::{bwt, entropy_h0, TrajectoryString};

    fn sym(c: char) -> u32 {
        match c {
            '#' => 0,
            '$' => 1,
            c => (c as u32 - 'A' as u32) + 2,
        }
    }

    fn paper_setup() -> (Vec<u32>, usize, Vec<u32>, CArray) {
        let trajs = vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
        let ts = TrajectoryString::build(&trajs, 6);
        let (_, tbwt) = bwt(ts.text(), ts.sigma());
        let c = CArray::new(ts.text(), ts.sigma());
        (ts.text().to_vec(), ts.sigma(), tbwt, c)
    }

    #[test]
    fn labeled_bwt_matches_fig6b() {
        // Fig. 6(b): T_bwt = $AAAB DBB CCE $$$ F #  labels to
        //            1 111 2 211 11 2 11 1 1 1  (context blocks #,$,A,B,C,D,E,F)
        let (text, sigma, tbwt, c) = paper_setup();
        let rml = Rml::from_text(&text, sigma, LabelingStrategy::BigramSorted);
        let labeled = rml.label_bwt(&tbwt, &c);
        let expected = vec![1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1];
        assert_eq!(labeled, expected);
    }

    #[test]
    fn paper_entropy_drop() {
        // §III-B2: H0(T_bwt) = 2.8, H0(φ(T_bwt)) = 0.7.
        let (text, sigma, tbwt, c) = paper_setup();
        let rml = Rml::from_text(&text, sigma, LabelingStrategy::BigramSorted);
        let labeled = rml.label_bwt(&tbwt, &c);
        let h_raw = entropy_h0(&tbwt);
        let h_lab = entropy_h0(&labeled);
        assert!((h_raw - 2.8).abs() < 0.05, "H0(Tbwt)={h_raw}");
        assert!((h_lab - 0.7).abs() < 0.05, "H0(phi)={h_lab}");
    }

    #[test]
    fn labeling_is_one_to_one_per_context() {
        let (text, sigma, _, _) = paper_setup();
        for strategy in [
            LabelingStrategy::BigramSorted,
            LabelingStrategy::Random { seed: 7 },
        ] {
            let rml = Rml::from_text(&text, sigma, strategy);
            for w_prime in 0..sigma as u32 {
                let out = rml.graph().out(w_prime);
                let mut seen = std::collections::HashSet::new();
                for (k, &w) in out.iter().enumerate() {
                    assert_eq!(rml.label(w, w_prime), Some(k as u32 + 1));
                    assert!(seen.insert(w), "duplicate target");
                }
            }
        }
    }

    #[test]
    fn bigram_beats_random_entropy() {
        // Theorem 3 in action on a bigger pseudo-random Markov text.
        let mut x = 3u64;
        let mut body = vec![0u32];
        for _ in 0..30_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let prev = *body.last().unwrap();
            // biased transitions among 3 successors of prev
            let r = (x >> 33) % 10;
            let next = match r {
                0..=6 => (prev * 3 + 1) % 50,
                7..=8 => (prev * 3 + 2) % 50,
                _ => (prev * 3 + 3) % 50,
            };
            body.push(next);
        }
        let ts = TrajectoryString::build(&[body], 50);
        let (_, tbwt) = bwt(ts.text(), ts.sigma());
        let c = CArray::new(ts.text(), ts.sigma());
        let h_of = |strategy| {
            let rml = Rml::from_text(ts.text(), ts.sigma(), strategy);
            entropy_h0(&rml.label_bwt(&tbwt, &c))
        };
        let h_sorted = h_of(LabelingStrategy::BigramSorted);
        // Optimality must hold for any random seed.
        for seed in [1u64, 2, 3] {
            let h_rand = h_of(LabelingStrategy::Random { seed });
            assert!(
                h_sorted <= h_rand + 1e-9,
                "seed {seed}: sorted {h_sorted} > random {h_rand}"
            );
        }
    }

    #[test]
    fn from_bwt_matches_from_text() {
        // The BWT-context construction must reproduce the text-bigram
        // construction exactly — same labels and Z slots — for both
        // strategies. Under `BigramSorted` equal out-lists are equal count
        // orders.
        let (text, sigma, tbwt, c) = paper_setup();
        for strategy in [
            LabelingStrategy::BigramSorted,
            LabelingStrategy::Random { seed: 11 },
        ] {
            let a = Rml::from_text(&text, sigma, strategy);
            let b = Rml::from_bwt(&tbwt, &c, strategy);
            assert_eq!(a.graph().num_edges(), b.graph().num_edges());
            for w_prime in 0..sigma as u32 {
                assert_eq!(a.graph().out(w_prime), b.graph().out(w_prime), "{w_prime}");
            }
        }
    }

    #[test]
    fn identity_label_roundtrip_over_bwt() {
        let (text, sigma, tbwt, c) = paper_setup();
        let rml = Rml::from_text(&text, sigma, LabelingStrategy::BigramSorted);
        let labeled = rml.label_bwt(&tbwt, &c);
        // Decode every position back using its context.
        for j in 0..tbwt.len() {
            let w_prime = c.symbol_at(j);
            assert_eq!(rml.decode(labeled[j], w_prime), tbwt[j], "j={j}");
        }
    }

    #[test]
    fn label_histogram_sums() {
        let (text, sigma, tbwt, c) = paper_setup();
        let rml = Rml::from_text(&text, sigma, LabelingStrategy::BigramSorted);
        let labeled = rml.label_bwt(&tbwt, &c);
        let hist = rml.label_histogram(&labeled);
        assert_eq!(hist.iter().sum::<u64>() as usize, tbwt.len());
        assert_eq!(hist[0], 13); // thirteen 1-labels in Fig. 6(b)
        assert_eq!(hist[1], 3);
    }

    #[test]
    fn sym_helper_consistency() {
        assert_eq!(sym('#'), 0);
        assert_eq!(sym('$'), 1);
        assert_eq!(sym('A'), 2);
        assert_eq!(sym('F'), 7);
    }
}
