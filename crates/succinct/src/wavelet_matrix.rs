//! Wavelet matrix (Claude & Navarro, SPIRE'12 — paper reference \[18\]),
//! generic over the bit-vector backend.
//!
//! The paper's baselines use it two ways (Table II):
//! * **UFMI** — wavelet matrix over *uncompressed* bitmaps
//!   (`WaveletMatrix<RankBitVec>`);
//! * **ICB-WM** — wavelet matrix over RRR bitmaps
//!   (`WaveletMatrix<RrrBitVec>`), the implicit-compression-boosting variant
//!   of Brisaboa et al. \[3\].
//!
//! Space is `n ceil(log2 σ)` bits plus backend overhead; `rank`/`access`
//! cost one bit-level rank per level, i.e. `O(log σ)` — the σ-dependence
//! CiNCT's Theorem 5 removes.

use crate::bits::BitBuf;
use crate::traits::{BitVecBuild, SpaceUsage, Symbol, SymbolSeq};

/// A wavelet matrix over a `u32` alphabet.
#[derive(Clone, Debug)]
pub struct WaveletMatrix<B: BitVecBuild> {
    /// One bit vector per level, MSB level first.
    levels: Vec<B>,
    /// Number of zeros at each level (boundary between the 0-run and 1-run
    /// at the next level).
    zeros: Vec<usize>,
    len: usize,
    alphabet_size: usize,
    bits_per_symbol: usize,
}

impl<B: BitVecBuild> WaveletMatrix<B> {
    /// Build with the backend's default parameters.
    pub fn new(seq: &[Symbol]) -> Self {
        Self::with_params(seq, B::default_params())
    }

    /// Build from a sequence; `params` configures the backend.
    pub fn with_params(seq: &[Symbol], params: B::Params) -> Self {
        assert!(!seq.is_empty(), "wavelet matrix over empty sequence");
        let alphabet_size = seq.iter().copied().max().unwrap() as usize + 1;
        let bits_per_symbol = if alphabet_size <= 2 {
            1
        } else {
            usize::BITS as usize - (alphabet_size - 1).leading_zeros() as usize
        };
        let mut levels = Vec::with_capacity(bits_per_symbol);
        let mut zeros = Vec::with_capacity(bits_per_symbol);
        let mut cur: Vec<Symbol> = seq.to_vec();
        // The next level and the ones-bucket are reused across levels: a
        // fresh Vec per level is a measurable slice of UFMI/ICB-WM build
        // time at log σ levels over multi-million-symbol sequences.
        let mut next: Vec<Symbol> = Vec::with_capacity(seq.len());
        let mut ones_bucket: Vec<Symbol> = Vec::with_capacity(seq.len() / 2);
        for level in 0..bits_per_symbol {
            let shift = bits_per_symbol - 1 - level;
            let mut bits = BitBuf::with_capacity(cur.len());
            ones_bucket.clear();
            next.clear();
            // A stable partition: zeros first, then ones, each in order.
            for &s in &cur {
                let bit = (s >> shift) & 1 == 1;
                bits.push(bit);
                if bit {
                    ones_bucket.push(s);
                } else {
                    next.push(s);
                }
            }
            zeros.push(next.len());
            next.extend_from_slice(&ones_bucket);
            std::mem::swap(&mut cur, &mut next);
            levels.push(B::build(&bits, params));
        }
        Self {
            levels,
            zeros,
            len: seq.len(),
            alphabet_size,
            bits_per_symbol,
        }
    }

    /// Number of levels (= bits per symbol).
    pub fn levels(&self) -> usize {
        self.bits_per_symbol
    }
}

impl<B: BitVecBuild> SymbolSeq for WaveletMatrix<B> {
    fn len(&self) -> usize {
        self.len
    }

    fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    #[inline]
    fn rank(&self, w: Symbol, i: usize) -> usize {
        debug_assert!(i <= self.len);
        if w as usize >= self.alphabet_size {
            return 0;
        }
        let mut start = 0usize;
        let mut end = i;
        for level in 0..self.bits_per_symbol {
            let shift = self.bits_per_symbol - 1 - level;
            let bv = &self.levels[level];
            if (w >> shift) & 1 == 1 {
                let z = self.zeros[level];
                start = z + bv.rank1(start);
                end = z + bv.rank1(end);
            } else {
                start = bv.rank0(start);
                end = bv.rank0(end);
            }
            if start >= end {
                return 0;
            }
        }
        end - start
    }

    /// One descent for both positions; both ranks share the single
    /// bucket-start chain (`rank(w, ·)` maps position 0 identically for
    /// any end), and the two end positions pair up through
    /// [`crate::BitRank::rank1_pair`] (the backward-search `sp`/`ep`
    /// shape).
    #[inline]
    fn rank_pair(&self, w: Symbol, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i <= self.len && j <= self.len);
        if w as usize >= self.alphabet_size {
            return (0, 0);
        }
        let (mut s, mut e1, mut e2) = (0usize, i, j);
        for level in 0..self.bits_per_symbol {
            let shift = self.bits_per_symbol - 1 - level;
            let bv = &self.levels[level];
            let rs = bv.rank1(s);
            let (re1, re2) = bv.rank1_pair(e1, e2);
            if (w >> shift) & 1 == 1 {
                let z = self.zeros[level];
                s = z + rs;
                e1 = z + re1;
                e2 = z + re2;
            } else {
                s -= rs;
                e1 -= re1;
                e2 -= re2;
            }
            if s >= e1 && s >= e2 {
                return (0, 0);
            }
        }
        (e1.saturating_sub(s), e2.saturating_sub(s))
    }

    #[inline]
    fn access(&self, i: usize) -> Symbol {
        self.access_and_rank(i).0
    }

    /// One descent answers both: each level uses the fused
    /// [`crate::BitRank::get_and_rank1`] and the final position is
    /// `rank(symbol, i)` by the wavelet invariant.
    #[inline]
    fn access_and_rank(&self, i: usize) -> (Symbol, usize) {
        debug_assert!(i < self.len);
        let mut pos = i;
        let mut sym: Symbol = 0;
        for level in 0..self.bits_per_symbol {
            let bv = &self.levels[level];
            let (bit, r1) = bv.get_and_rank1(pos);
            sym <<= 1;
            if bit {
                sym |= 1;
                pos = self.zeros[level] + r1;
            } else {
                pos -= r1;
            }
        }
        // `pos` is the index of this occurrence within the final bucket of
        // equal symbols, offset by the bucket's start; recover the rank by
        // subtracting the bucket start = position of the first occurrence.
        let start = {
            let mut s = 0usize;
            for level in 0..self.bits_per_symbol {
                let shift = self.bits_per_symbol - 1 - level;
                let bv = &self.levels[level];
                if (sym >> shift) & 1 == 1 {
                    s = self.zeros[level] + bv.rank1(s);
                } else {
                    s -= bv.rank1(s);
                }
            }
            s
        };
        (sym, pos - start)
    }
}

impl<B: BitVecBuild> SpaceUsage for WaveletMatrix<B> {
    fn size_in_bytes(&self) -> usize {
        self.levels.iter().map(|b| b.size_in_bytes()).sum::<usize>()
            + self.zeros.capacity() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indices appear in assertion messages
mod tests {
    use super::*;
    use crate::rank_bits::RankBitVec;
    use crate::rrr::RrrBitVec;

    fn pseudo_seq(n: usize, sigma: u32, seed: u64) -> Vec<Symbol> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as u32) % sigma
            })
            .collect()
    }

    fn naive_rank(seq: &[Symbol], w: Symbol, i: usize) -> usize {
        seq[..i].iter().filter(|&&s| s == w).count()
    }

    fn check_backend<B: BitVecBuild>(params: B::Params, sigma: u32) {
        let seq = pseudo_seq(700, sigma, sigma as u64 + 5);
        let wm = WaveletMatrix::<B>::with_params(&seq, params);
        assert_eq!(wm.len(), seq.len());
        for i in 0..seq.len() {
            assert_eq!(wm.access(i), seq[i], "access({i}) sigma={sigma}");
        }
        for w in 0..sigma.min(40) {
            for &i in &[0usize, 1, 350, 699, 700] {
                assert_eq!(wm.rank(w, i), naive_rank(&seq, w, i), "rank({w},{i})");
            }
        }
    }

    #[test]
    fn rank_access_plain() {
        for sigma in [2u32, 3, 16, 17, 100] {
            check_backend::<RankBitVec>((), sigma);
        }
    }

    #[test]
    fn rank_access_rrr() {
        for &b in &[15usize, 63] {
            check_backend::<RrrBitVec>(b, 30);
        }
    }

    #[test]
    fn rank_beyond_alphabet() {
        let seq = vec![0u32, 1, 2, 3];
        let wm = WaveletMatrix::<RankBitVec>::new(&seq);
        assert_eq!(wm.rank(100, 4), 0);
    }

    #[test]
    fn binary_alphabet() {
        let seq = pseudo_seq(500, 2, 3);
        let wm = WaveletMatrix::<RankBitVec>::new(&seq);
        assert_eq!(wm.levels(), 1);
        for i in 0..seq.len() {
            assert_eq!(wm.access(i), seq[i]);
        }
        assert_eq!(wm.rank(1, 500), naive_rank(&seq, 1, 500));
    }

    #[test]
    fn levels_are_ceil_log_sigma() {
        let seq: Vec<Symbol> = (0..1000u32).map(|i| i % 1000).collect();
        let wm = WaveletMatrix::<RankBitVec>::new(&seq);
        assert_eq!(wm.levels(), 10); // ceil(log2(1000))
        assert_eq!(wm.alphabet_size(), 1000);
    }

    #[test]
    fn size_tracks_log_sigma_not_entropy() {
        // Uniform over 256 symbols vs highly skewed over 256: the WM with a
        // plain backend uses ~8 bits/symbol for both — unlike the HWT.
        let uniform = pseudo_seq(50_000, 256, 1);
        let mut skewed = vec![0u32; 50_000];
        for i in (0..skewed.len()).step_by(100) {
            skewed[i] = 255;
        }
        let a = WaveletMatrix::<RankBitVec>::new(&uniform).size_in_bits() as f64 / 50_000.0;
        let b = WaveletMatrix::<RankBitVec>::new(&skewed).size_in_bits() as f64 / 50_000.0;
        assert!((a - b).abs() < 1.0, "uniform {a:.2} vs skewed {b:.2}");
        assert!(a > 8.0 && a < 10.5);
    }
}
