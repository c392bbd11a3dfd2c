//! The generic FM-index behind the five Table-II baselines.
//!
//! [`FmIndex`] stores `C[w]` plus the BWT in any [`SymbolSeq`]; backward
//! search follows the paper's Algorithm 1 (`SearchFM`), and sub-path
//! extraction follows the LF-mapping walk of Algorithm 4 (without the RML
//! decoding steps, which belong to CiNCT). All query traffic goes through
//! the unified [`PathQuery`] trait; the encoded-pattern primitive
//! [`FmIndex::suffix_range`] stays public for reference-oracle tests.

use crate::query::{Path, PathQuery};
use cinct_bwt::{bwt_from_sa, suffix_array, CArray};
use cinct_succinct::{Symbol, SymbolSeq};
use std::ops::Range;

/// FM-index generic over the BWT container.
#[derive(Clone, Debug)]
pub struct FmIndex<S: SymbolSeq> {
    c: CArray,
    seq: S,
}

impl<S: SymbolSeq> FmIndex<S> {
    /// Index `text` (which must end with the unique smallest sentinel) using
    /// `make_seq` to wrap its BWT.
    pub fn from_text_with(text: &[u32], sigma: usize, make_seq: impl FnOnce(&[u32]) -> S) -> Self {
        let sa = suffix_array(text, sigma);
        let bwt = bwt_from_sa(text, &sa);
        Self::from_bwt_with(&bwt, sigma, make_seq)
    }

    /// Wrap an existing BWT.
    pub fn from_bwt_with(bwt: &[u32], sigma: usize, make_seq: impl FnOnce(&[u32]) -> S) -> Self {
        let c = CArray::new(bwt, sigma);
        Self {
            c,
            seq: make_seq(bwt),
        }
    }

    /// The `C` array.
    pub fn c_array(&self) -> &CArray {
        &self.c
    }

    /// The BWT container.
    pub fn seq(&self) -> &S {
        &self.seq
    }

    /// One LF-mapping step from BWT position `j`: returns
    /// `(previous text symbol, next BWT position)`. Symbol and rank come
    /// from one fused container query ([`SymbolSeq::access_and_rank`]).
    #[inline]
    pub fn lf_step(&self, j: usize) -> (Symbol, usize) {
        let (w, rank) = self.seq.access_and_rank(j);
        (w, self.c.get(w) + rank)
    }

    /// Algorithm 1 (`SearchFM`): backward search, consuming pattern symbols
    /// last-to-first.
    fn backward_search(&self, mut symbols: impl Iterator<Item = Symbol>) -> Option<Range<usize>> {
        let Some(w) = symbols.next() else {
            return Some(0..self.seq.len());
        };
        if w as usize >= self.c.sigma() {
            return None;
        }
        let mut sp = self.c.get(w);
        let mut ep = self.c.get(w + 1);
        for w in symbols {
            if sp >= ep {
                return None;
            }
            if w as usize >= self.c.sigma() {
                return None;
            }
            let (rsp, rep) = self.seq.rank_pair(w, sp, ep);
            sp = self.c.get(w) + rsp;
            ep = self.c.get(w) + rep;
        }
        if sp < ep {
            Some(sp..ep)
        } else {
            None
        }
    }

    /// The suffix range `R(P) = [sp, ep)` of an **encoded** pattern (text
    /// symbols, i.e. a reversed path shifted past the sentinels), or `None`
    /// when the pattern does not occur. Most callers want
    /// [`PathQuery::range`] over a forward [`Path`].
    pub fn suffix_range(&self, pattern: &[Symbol]) -> Option<Range<usize>> {
        self.backward_search(pattern.iter().rev().copied())
    }
}

impl<S: SymbolSeq> PathQuery for FmIndex<S> {
    fn text_len(&self) -> usize {
        self.seq.len()
    }

    fn sigma(&self) -> usize {
        self.c.sigma()
    }

    fn size_in_bytes(&self) -> usize {
        self.c.size_in_bytes() + self.seq.size_in_bytes()
    }

    /// Backward search consumes the trajectory-string pattern last symbol
    /// first; trajectories are stored reversed, so that is the forward
    /// edge order of `path`.
    fn range(&self, path: &Path) -> Option<Range<usize>> {
        self.backward_search(path.search_symbols())
    }

    fn lf_step(&self, j: usize) -> (Symbol, usize) {
        FmIndex::lf_step(self, j)
    }
}

impl<S: SymbolSeq + SymbolSeqFromBwt> FmIndex<S> {
    /// Index `text` with the container's default construction.
    pub fn from_text(text: &[u32], sigma: usize) -> Self {
        Self::from_text_with(text, sigma, |bwt| S::from_bwt(bwt, sigma))
    }

    /// Wrap an existing BWT with the container's default construction.
    pub fn from_bwt(bwt: &[u32], sigma: usize) -> Self {
        Self::from_bwt_with(bwt, sigma, |b| S::from_bwt(b, sigma))
    }
}

/// Default construction of a BWT container; lets `FmIndex::<X>::from_text`
/// work for every variant without threading per-variant parameters.
pub trait SymbolSeqFromBwt: SymbolSeq + Sized {
    /// Build the container over `bwt` with alphabet `0..sigma`.
    fn from_bwt(bwt: &[u32], sigma: usize) -> Self;
}

impl<B: cinct_succinct::BitVecBuild> SymbolSeqFromBwt for cinct_succinct::WaveletMatrix<B> {
    fn from_bwt(bwt: &[u32], _sigma: usize) -> Self {
        Self::new(bwt)
    }
}

impl<B: cinct_succinct::BitVecBuild> SymbolSeqFromBwt for cinct_succinct::HuffmanWaveletTree<B> {
    fn from_bwt(bwt: &[u32], _sigma: usize) -> Self {
        Self::new(bwt)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indices appear in assertion messages
mod tests {
    use super::*;
    use crate::error::QueryError;
    use cinct_bwt::TrajectoryString;
    use cinct_succinct::{RankBitVec, WaveletMatrix};

    type TestIndex = FmIndex<WaveletMatrix<RankBitVec>>;

    /// Paper running example (Fig. 1 / Eq. (1)).
    fn paper_index() -> (TrajectoryString, TestIndex) {
        let trajs = vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
        let ts = TrajectoryString::build(&trajs, 6);
        let idx = TestIndex::from_text(ts.text(), ts.sigma());
        (ts, idx)
    }

    #[test]
    fn suffix_range_matches_paper_fig2() {
        let (_, idx) = paper_index();
        // P = BA → R(P) = [9, 11) (paper §II-A2). Edge ids: A=0 → symbol 2,
        // B=1 → symbol 3. Pattern "BA" over T means path A then B (T holds
        // reversed trajectories): encode_pattern([A, B]) = [B+2, A+2].
        let pattern = TrajectoryString::encode_pattern(&[0, 1]);
        assert_eq!(pattern, vec![3, 2]);
        assert_eq!(idx.suffix_range(&pattern), Some(9..11));
        // The forward-path API agrees without any encoding step.
        assert_eq!(idx.range(Path::new(&[0, 1])), Some(9..11));
        assert_eq!(idx.count(Path::new(&[0, 1])), 2); // T1 and T2 travel A→B
    }

    #[test]
    fn counts_match_naive_scan() {
        let trajs = vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
        let ts = TrajectoryString::build(&trajs, 6);
        let idx = TestIndex::from_text(ts.text(), ts.sigma());
        let paths: Vec<Vec<u32>> = vec![
            vec![0],
            vec![1],
            vec![0, 1],
            vec![1, 2],
            vec![0, 1, 4],
            vec![4, 5],
            vec![5, 4], // absent
            vec![3, 3], // absent
        ];
        for p in paths {
            let expected: usize = trajs
                .iter()
                .map(|t| t.windows(p.len()).filter(|w| *w == &p[..]).count())
                .sum();
            assert_eq!(idx.count(Path::new(&p)), expected, "path {p:?}");
            // The encoded route computes the same range.
            assert_eq!(
                idx.suffix_range(&TrajectoryString::encode_pattern(&p)),
                idx.range(Path::new(&p)),
                "path {p:?}"
            );
        }
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let (ts, idx) = paper_index();
        assert_eq!(idx.suffix_range(&[]), Some(0..ts.len()));
        assert_eq!(idx.range(Path::new(&[])), Some(0..ts.len()));
    }

    #[test]
    fn out_of_alphabet_pattern() {
        let (_, idx) = paper_index();
        assert_eq!(idx.suffix_range(&[100]), None);
        assert_eq!(idx.suffix_range(&[2, 100]), None);
        // Typed route: range says absent, try_range names the bad edge.
        assert_eq!(idx.range(Path::new(&[98])), None);
        assert_eq!(
            idx.try_range(Path::new(&[98])),
            Err(QueryError::UnknownEdge {
                edge: 98,
                n_edges: 6
            })
        );
    }

    #[test]
    fn baselines_do_not_support_locate() {
        let (_, idx) = paper_index();
        assert!(matches!(
            idx.occurrences(Path::new(&[0, 1])),
            Err(QueryError::LocateUnsupported)
        ));
        // ...but malformed queries are diagnosed first.
        assert!(matches!(
            idx.occurrences(Path::new(&[])),
            Err(QueryError::EmptyPattern)
        ));
    }

    #[test]
    fn extract_recovers_prefixes() {
        // Paper §IV-C example: the rotation at j=3 has suffix FEBA = T1^r.
        let (ts, idx) = paper_index();
        // extract(j, l) returns T[i-l..i), i = SA[j]. Verify against the
        // text for every j by computing SA naively.
        let sa = cinct_bwt::sais::naive_suffix_array(ts.text());
        for j in 0..ts.len() {
            let i = sa[j] as usize;
            for l in 1..=4usize.min(i) {
                let got = idx.extract(j, l);
                assert_eq!(&got[..], &ts.text()[i - l..i], "j={j} l={l}");
            }
        }
    }

    #[test]
    fn extract_full_text() {
        let (ts, idx) = paper_index();
        // Row 0 is the rotation starting with '#', i.e. SA[0] = n-1; walking
        // n-1 symbols back recovers T[0..n-1).
        let n = ts.len();
        let got = idx.extract(0, n - 1);
        assert_eq!(&got[..], &ts.text()[..n - 1]);
    }
}
