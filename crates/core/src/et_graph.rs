//! The empirical transition graph (ET-graph, paper Definition 3).
//!
//! `G_T` has one vertex per alphabet symbol of the trajectory string
//! (including the sentinels `#` and `$`) and a directed edge `(w′, w)` iff
//! the bigram `w w′` occurs in `T` — i.e. iff a transition `w′ → w` is ever
//! observed in the (reversed-trajectory) string. For NCT data `G_T` is as
//! sparse as the road network itself, which is the property RML exploits.
//!
//! Stored as CSR adjacency with, per edge: the target symbol (packed at
//! `⌈lg σ⌉` bits), the RML label (implicitly, by in-list position) and the
//! PseudoRank correction term `Z_{w′w}` (packed at the width of the largest
//! term, attached by `builder.rs`). Bigram counts only choose the label
//! order during construction; the built graph does not keep them.

use cinct_succinct::serial::Persist;
use cinct_succinct::{IntVec, SpaceUsage};
use std::collections::HashMap;

/// CSR representation of the ET-graph, with per-edge payloads: exactly
/// what a query reads (labels by position, targets, `Z` terms).
#[derive(Clone, Debug)]
pub struct EtGraph {
    /// Per-vertex offsets into the edge arrays (length σ+1).
    offsets: Vec<u32>,
    /// Out-neighbours of each vertex, packed; the edge at in-list position
    /// `k` has RML label `k+1`.
    targets: IntVec,
    /// PseudoRank correction terms per edge, packed. Empty until the index
    /// builder attaches them.
    z_terms: IntVec,
}

impl EtGraph {
    /// Count bigrams of `text` (over alphabet `0..sigma`) and build the
    /// graph. Edge lists are initially ordered by **descending bigram
    /// count** (ties by symbol id) — the paper's optimal labeling strategy.
    /// `text` follows Definition 3: edge `(w′, w)` for every substring
    /// `w w′`.
    pub fn from_text(text: &[u32], sigma: usize) -> Self {
        let mut bigrams: HashMap<(u32, u32), u64> = HashMap::new();
        for pair in text.windows(2) {
            let (w, w_prime) = (pair[0], pair[1]);
            *bigrams.entry((w_prime, w)).or_insert(0) += 1;
        }
        // The BWT is defined over *rotations* (paper Fig. 2), so the labeled
        // BWT also needs the cyclic transition from the final sentinel back
        // to the first symbol: T_bwt labels `#` in the context of `T[0]`.
        if text.len() >= 2 {
            let (w, w_prime) = (text[text.len() - 1], text[0]);
            *bigrams.entry((w_prime, w)).or_insert(0) += 1;
        }
        Self::from_bigrams(bigrams.into_iter(), sigma)
    }

    /// Build from explicit `((w′, w), count)` pairs.
    pub fn from_bigrams(bigrams: impl Iterator<Item = ((u32, u32), u64)>, sigma: usize) -> Self {
        let mut per_vertex: Vec<Vec<(u32, u64)>> = vec![Vec::new(); sigma];
        let mut n_edges = 0usize;
        for ((w_prime, w), c) in bigrams {
            debug_assert!((w_prime as usize) < sigma && (w as usize) < sigma);
            per_vertex[w_prime as usize].push((w, c));
            n_edges += 1;
        }
        let mut offsets = Vec::with_capacity(sigma + 1);
        let width = IntVec::width_for(sigma.max(2) as u64 - 1);
        let mut targets = IntVec::with_capacity(width, n_edges);
        offsets.push(0u32);
        for adj in per_vertex.iter_mut() {
            adj.sort_by_key(|&(w, c)| (std::cmp::Reverse(c), w));
            for &(w, _) in adj.iter() {
                targets.push(w as u64);
            }
            offsets.push(targets.len() as u32);
        }
        Self {
            offsets,
            targets,
            z_terms: IntVec::new(1),
        }
    }

    /// Number of vertices (= σ).
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges `|E_T|`.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbour list of `w′` as a fresh `Vec` (targets in label order:
    /// position `k` has label `k+1`). For diagnostics and tests; hot paths
    /// use [`EtGraph::label`] / [`EtGraph::decode`] directly.
    pub fn out(&self, w_prime: u32) -> Vec<u32> {
        let lo = self.offsets[w_prime as usize] as usize;
        let hi = self.offsets[w_prime as usize + 1] as usize;
        (lo..hi).map(|k| self.targets.get(k) as u32).collect()
    }

    /// Out-degree of `w′`.
    #[inline]
    pub fn out_degree(&self, w_prime: u32) -> usize {
        (self.offsets[w_prime as usize + 1] - self.offsets[w_prime as usize]) as usize
    }

    /// The RML label `φ(w|w′)` (1-based), or `None` if the transition never
    /// occurs. Linear scan over the tiny out-list — the paper's O(δ) lookup
    /// (§III-C3).
    #[inline]
    pub fn label(&self, w: u32, w_prime: u32) -> Option<u32> {
        let lo = self.offsets[w_prime as usize] as usize;
        let hi = self.offsets[w_prime as usize + 1] as usize;
        (lo..hi)
            .position(|k| self.targets.get(k) as u32 == w)
            .map(|p| p as u32 + 1)
    }

    /// `(φ(w|w′), Z_{w′w})` in one adjacency-row scan — every backward
    /// search step needs both, and [`EtGraph::label`] + [`EtGraph::z_term`]
    /// would recompute the same CSR row base twice.
    #[inline]
    pub fn label_and_z(&self, w: u32, w_prime: u32) -> Option<(u32, i64)> {
        let lo = self.offsets[w_prime as usize] as usize;
        let hi = self.offsets[w_prime as usize + 1] as usize;
        for k in lo..hi {
            if self.targets.get(k) as u32 == w {
                let z = if self.z_terms.is_empty() {
                    0
                } else {
                    let enc = self.z_terms.get(k);
                    ((enc >> 1) as i64) ^ -((enc & 1) as i64)
                };
                return Some(((k - lo) as u32 + 1, z));
            }
        }
        None
    }

    /// Decode: the symbol `w` with `φ(w|w′) = label`. Inverse of
    /// [`EtGraph::label`].
    #[inline]
    pub fn decode(&self, label: u32, w_prime: u32) -> u32 {
        let lo = self.offsets[w_prime as usize] as usize;
        self.targets.get(lo + (label - 1) as usize) as u32
    }

    /// The correction term `Z_{w′w}` stored on edge `(w′, w)` identified by
    /// its label. `Z` may be negative (Eq. (7) subtracts two unrelated
    /// ranks); it is stored zigzag-encoded. Zero until the index builder
    /// attaches the computed terms.
    #[inline]
    pub fn z_term(&self, label: u32, w_prime: u32) -> i64 {
        if self.z_terms.is_empty() {
            return 0;
        }
        let lo = self.offsets[w_prime as usize] as usize;
        let enc = self.z_terms.get(lo + (label - 1) as usize);
        // Zigzag decode.
        ((enc >> 1) as i64) ^ -((enc & 1) as i64)
    }

    /// Attach all correction terms at once (edge-slot order = CSR order).
    /// Builder-only; zigzag-encodes and packs at the width of the largest.
    pub(crate) fn attach_z_terms(&mut self, zs: &[i64]) {
        debug_assert_eq!(zs.len(), self.num_edges());
        let encoded: Vec<u64> = zs.iter().map(|&z| ((z << 1) ^ (z >> 63)) as u64).collect();
        self.z_terms = IntVec::from_slice(&encoded);
    }

    /// Maximum out-degree δ (drives the Theorem 5 bound `O(|P|·δb)`).
    pub fn max_out_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.out_degree(v as u32))
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree d̄ over vertices with at least one out-edge
    /// (Table III's d̄ column).
    pub fn avg_out_degree(&self) -> f64 {
        let live = (0..self.num_vertices())
            .filter(|&v| self.out_degree(v as u32) > 0)
            .count();
        if live == 0 {
            0.0
        } else {
            self.num_edges() as f64 / live as f64
        }
    }

    /// Reorder the out-list of every vertex with the supplied permutation
    /// function (used by the random-labeling ablation, Fig. 14). The
    /// permutation receives the current list and must return a permutation
    /// of in-list indices. Construction-time only (rebuilds the packed
    /// target array).
    pub(crate) fn permute_labels(&mut self, mut perm: impl FnMut(u32, &[u32]) -> Vec<usize>) {
        let mut new_targets = IntVec::with_capacity(self.targets.width(), self.targets.len());
        for v in 0..self.num_vertices() as u32 {
            let lo = self.offsets[v as usize] as usize;
            let hi = self.offsets[v as usize + 1] as usize;
            let t_old: Vec<u32> = (lo..hi).map(|k| self.targets.get(k) as u32).collect();
            if t_old.len() <= 1 {
                for &t in &t_old {
                    new_targets.push(t as u64);
                }
                continue;
            }
            let p = perm(v, &t_old);
            debug_assert_eq!(p.len(), t_old.len());
            for &src in &p {
                new_targets.push(t_old[src] as u64);
            }
        }
        self.targets = new_targets;
    }
}

impl Persist for EtGraph {
    fn persist(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        self.offsets.persist(w)?;
        self.targets.persist(w)?;
        self.z_terms.persist(w)
    }

    fn restore(r: &mut dyn std::io::Read) -> std::io::Result<Self> {
        let offsets: Vec<u32> = Persist::restore(r)?;
        let targets = IntVec::restore(r)?;
        let z_terms = IntVec::restore(r)?;
        if offsets.is_empty() || *offsets.last().unwrap() as usize != targets.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "ET-graph tables disagree",
            ));
        }
        Ok(Self {
            offsets,
            targets,
            z_terms,
        })
    }
}

impl SpaceUsage for EtGraph {
    /// The ET-graph as the paper sizes it in "CiNCT" vs "CiNCT (w/o
    /// ET-graph)": offsets + packed targets + packed Z terms — the whole
    /// struct.
    fn size_in_bytes(&self) -> usize {
        self.offsets.capacity() * 4 + self.targets.size_in_bytes() + self.z_terms.size_in_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinct_bwt::TrajectoryString;

    /// Paper Fig. 1 / Fig. 6(a) example.
    fn paper_graph() -> EtGraph {
        let trajs = vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
        let ts = TrajectoryString::build(&trajs, 6);
        EtGraph::from_text(ts.text(), ts.sigma())
    }

    // Symbol helpers for the paper's alphabet.
    fn sym(c: char) -> u32 {
        match c {
            '#' => 0,
            '$' => 1,
            c => (c as u32 - 'A' as u32) + 2,
        }
    }

    #[test]
    fn paper_labels_fig6a() {
        let g = paper_graph();
        // Fig. 6(a): φ(B|A)=1 (n_BA=2), φ(D|A)=2 (n_DA=1).
        assert_eq!(g.label(sym('B'), sym('A')), Some(1));
        assert_eq!(g.label(sym('D'), sym('A')), Some(2));
        // From B the next symbol in T can be C ("CB" occurs twice) or E
        // ("EB" once): φ(C|B)=1, φ(E|B)=2.
        assert_eq!(g.label(sym('C'), sym('B')), Some(1));
        assert_eq!(g.label(sym('E'), sym('B')), Some(2));
        // A has no edge to C.
        assert_eq!(g.label(sym('C'), sym('A')), None);
    }

    #[test]
    fn decode_inverts_label() {
        let g = paper_graph();
        for w_prime in 0..g.num_vertices() as u32 {
            for (k, &w) in g.out(w_prime).iter().enumerate() {
                let label = k as u32 + 1;
                assert_eq!(g.label(w, w_prime), Some(label));
                assert_eq!(g.decode(label, w_prime), w);
            }
        }
    }

    #[test]
    fn bigram_counts_descend() {
        // Count `(w′, w)` naively from the text, cyclic wrap included, and
        // check every out-list is in non-increasing count order.
        let trajs = vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
        let ts = TrajectoryString::build(&trajs, 6);
        let text = ts.text();
        let g = EtGraph::from_text(text, ts.sigma());
        let n_of = |w_prime: u32, w: u32| {
            (0..text.len())
                .filter(|&i| text[i] == w && text[(i + 1) % text.len()] == w_prime)
                .count()
        };
        for v in 0..g.num_vertices() as u32 {
            let counts: Vec<usize> = g.out(v).iter().map(|&w| n_of(v, w)).collect();
            assert!(counts.iter().all(|&c| c > 0), "{v}: {counts:?}");
            assert!(counts.windows(2).all(|p| p[0] >= p[1]), "{v}: {counts:?}");
        }
    }

    #[test]
    fn sentinel_edges_exist() {
        let g = paper_graph();
        // '$' precedes the first symbols of (reversed) trajectories: e.g.
        // substring "A$" occurs, so edge ($, A) exists.
        assert!(g.label(sym('A'), sym('$')).is_some());
        // '#' follows the last '$': substring "$#" → edge (#, $).
        assert!(g.label(sym('$'), sym('#')).is_some());
        // The cyclic rotation edge (F, #) exists for BWT labeling.
        assert!(g.label(sym('#'), sym('F')).is_some());
    }

    #[test]
    fn degrees() {
        let g = paper_graph();
        assert_eq!(g.out_degree(sym('A')), 2); // → B, D
        assert!(g.max_out_degree() >= 2);
        assert!(g.avg_out_degree() > 1.0);
    }

    #[test]
    fn permute_labels_swaps() {
        let mut g = paper_graph();
        let before_1 = g.decode(1, sym('A'));
        let before_2 = g.decode(2, sym('A'));
        g.permute_labels(|_, list| (0..list.len()).rev().collect());
        assert_eq!(g.decode(1, sym('A')), before_2);
        assert_eq!(g.decode(2, sym('A')), before_1);
    }

    #[test]
    fn z_terms_roundtrip() {
        let mut g = paper_graph();
        // Mix of positive and negative terms (Eq. (7) can produce both).
        let zs: Vec<i64> = (0..g.num_edges() as i64).map(|i| (i - 3) * 5).collect();
        g.attach_z_terms(&zs);
        let mut slot = 0usize;
        for v in 0..g.num_vertices() as u32 {
            for k in 0..g.out_degree(v) {
                assert_eq!(g.z_term(k as u32 + 1, v), zs[slot]);
                slot += 1;
            }
        }
    }

    #[test]
    fn packing_is_compact() {
        let g = paper_graph();
        // σ = 8 → 3-bit targets; far below 4 bytes/edge.
        assert!(g.size_in_bytes() < g.num_edges() * 4 + (g.num_vertices() + 1) * 4 + 64);
    }

    #[test]
    fn empty_text_edge_cases() {
        let g = EtGraph::from_text(&[0], 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_out_degree(), 0.0);
    }
}
