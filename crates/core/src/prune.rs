//! Per-shard pruning metadata: which edge labels a shard actually
//! contains.
//!
//! A K-shard fan-out pays K full backward searches even when a shard
//! cannot possibly match — sequential counting measured 0.34x of the
//! monolithic index at K=8 for exactly this reason. The fix is metadata,
//! not search: an edge absent from a shard's BWT makes *every* path through
//! that edge absent from the shard, so an O(L) membership probe (L =
//! pattern length) replaces an O(L) backward search's rank machinery for
//! shards that cannot match.
//!
//! [`ShardPruning`] is an exact bitset, one bit per edge of the corpus
//! alphabet: σ bits, 1/64 of the shard's own `C` array of σ + 1 words. It
//! is read straight off that `C` array (edge `e` is present iff the
//! shifted symbol `e + SYMBOL_OFFSET` occurs in the shard's text — O(σ),
//! no text scan), so it can never mis-skip, and it is derived wherever a
//! shard materializes: fresh builds, appends and compaction. The same type
//! is the corpus-level union of every shard's set.

use crate::index::CinctIndex;
use cinct_bwt::SYMBOL_OFFSET;
use cinct_fmindex::Path;
use cinct_succinct::serial::{read_u64, write_u64};
use std::io::{Read, Write};

/// One shard's edge membership (or the union of several): bit `e` is set
/// iff edge `e` occurs in the shard. Edges beyond the stored words are
/// absent, which is also what backward search answers for them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardPruning {
    words: Vec<u64>,
}

impl ShardPruning {
    /// Derive the membership **exactly** from a shard's `C` array: edge
    /// `e` is present iff its symbol's cumulative count rises. O(σ) — cheap
    /// enough to run at every assembly and append install.
    pub fn derive(index: &CinctIndex, n_edges: usize) -> Self {
        // `counts[e..=e + 1]` brackets edge `e`'s symbol `e + SYMBOL_OFFSET`.
        let counts = index.c_array().raw_counts();
        let counts = counts.get(SYMBOL_OFFSET as usize..).unwrap_or_default();
        let mut words = vec![0u64; n_edges.div_ceil(64)];
        for (e, c) in counts.windows(2).take(n_edges).enumerate() {
            words[e / 64] |= u64::from(c[1] > c[0]) << (e % 64);
        }
        Self { words }
    }

    /// Whether the shard contains `edge`.
    #[inline]
    pub fn contains_edge(&self, edge: u32) -> bool {
        let b = edge as usize;
        self.words
            .get(b / 64)
            .is_some_and(|w| w >> (b % 64) & 1 == 1)
    }

    /// The first pattern edge whose absence rules this shard out, or
    /// `None` when every edge is present (the shard must then be
    /// searched). An absent edge makes every path through it absent, so
    /// `Some(_)` licenses skipping the backward search entirely — the
    /// search would have returned `None`.
    #[inline]
    pub fn rules_out(&self, path: &Path) -> Option<u32> {
        path.edges()
            .iter()
            .copied()
            .find(|&e| !self.contains_edge(e))
    }

    /// Fold `other` into `self`, growing `self` when `other` is longer.
    pub fn union_with(&mut self, other: &Self) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Heap bytes of the bitset.
    pub fn size_in_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Serialize (the manifest's per-shard block): the words alone.
    pub(crate) fn persist(&self, w: &mut dyn Write) -> std::io::Result<()> {
        self.words.iter().try_for_each(|&word| write_u64(w, word))
    }

    /// Deserialize a block over an alphabet of `n_edges`: exactly
    /// ⌈n_edges / 64⌉ words, each read before the next is stored, so a
    /// hostile `n_edges` runs out of bytes before it sizes anything.
    pub(crate) fn restore(r: &mut dyn Read, n_edges: usize) -> std::io::Result<Self> {
        let mut words = Vec::new();
        for _ in 0..n_edges.div_ceil(64) {
            words.push(read_u64(r)?);
        }
        Ok(Self { words })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CinctBuilder;

    #[test]
    fn union_over_approximates_both_sides() {
        let trajs = |e: u32| vec![vec![e]];
        let mut a = ShardPruning::derive(&CinctBuilder::new().build(&trajs(3), 256), 256);
        let b = ShardPruning::derive(&CinctBuilder::new().build(&trajs(200), 256), 256);
        a.union_with(&b);
        assert!(a.contains_edge(3) && a.contains_edge(200) && !a.contains_edge(4));
        // An empty union grows to the widest set folded into it.
        let mut u = ShardPruning::default();
        assert!(!u.contains_edge(0));
        u.union_with(&a);
        assert_eq!(u, a);
    }

    #[test]
    fn derive_matches_the_shard_text() {
        let trajs = vec![vec![0u32, 1, 4, 5], vec![0, 1, 2]];
        let idx = CinctBuilder::new().build(&trajs, 8);
        let p = ShardPruning::derive(&idx, 8);
        for e in 0..8u32 {
            let expect = matches!(e, 0 | 1 | 2 | 4 | 5);
            assert_eq!(p.contains_edge(e), expect, "edge {e}");
        }
        assert_eq!(p.rules_out(Path::new(&[0, 1, 2])), None);
        assert_eq!(p.rules_out(Path::new(&[0, 3, 2])), Some(3));
        // Out-of-alphabet edges rule the shard out, matching backward
        // search's graceful None.
        assert_eq!(p.rules_out(Path::new(&[99])), Some(99));
        assert!(!p.contains_edge(u32::MAX));
    }

    #[test]
    fn derive_agrees_with_the_c_array_at_word_boundaries() {
        for n_edges in [1usize, 63, 64, 65, 128, 129] {
            // Every third edge, plus the last one, occurs.
            let trajs: Vec<Vec<u32>> = (0..n_edges as u32)
                .filter(|e| e % 3 == 0 || *e as usize == n_edges - 1)
                .map(|e| vec![e])
                .collect();
            let idx = CinctBuilder::new().build(&trajs, n_edges);
            let p = ShardPruning::derive(&idx, n_edges);
            assert_eq!(p.size_in_bytes(), n_edges.div_ceil(64) * 8);
            for e in 0..n_edges as u32 + 64 {
                let expect = (e as usize) < n_edges && idx.c_array().count(e + SYMBOL_OFFSET) > 0;
                assert_eq!(p.contains_edge(e), expect, "n_edges {n_edges}, edge {e}");
            }
        }
    }

    #[test]
    fn persist_roundtrip() {
        let trajs = vec![vec![2u32, 3], vec![5, 2]];
        let idx = CinctBuilder::new().build(&trajs, 70);
        let p = ShardPruning::derive(&idx, 70);
        let mut bytes = Vec::new();
        p.persist(&mut bytes).unwrap();
        assert_eq!(bytes.len(), 16);
        let back = ShardPruning::restore(&mut std::io::Cursor::new(&bytes), 70).unwrap();
        assert_eq!(back, p);
        // A block shorter than its alphabet needs is an I/O error.
        assert!(ShardPruning::restore(&mut std::io::Cursor::new(&bytes), 129).is_err());
    }
}
