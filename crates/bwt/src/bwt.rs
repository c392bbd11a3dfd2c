//! Burrows–Wheeler transform and the `C[w]` array (paper §II-A2/3).
//!
//! With the unique smallest sentinel at the end of `T`, sorting rotations
//! (the paper's Fig. 2) is equivalent to sorting suffixes, so the BWT is
//! read directly off the suffix array: `T_bwt[i] = T[(SA[i] + n − 1) mod n]`.

use crate::sais::suffix_array;
use cinct_succinct::{BitBuf, BitRank, IntVec, RankBitVec, SpaceUsage};

/// Cumulative symbol counts: `C[w]` = number of symbols in `T` smaller than
/// `w`. `[C[w], C[w+1])` is the suffix range `R(w)` of the single-symbol
/// pattern `w`, and context blocks of the BWT align with these ranges.
///
/// Besides the counts the struct can carry a rank-backed *boundary
/// accelerator* (`O(1)` [`CArray::symbol_at`]): a bit vector marking the
/// start position `C[w]` of every nonempty symbol range, plus the packed
/// list of those symbols in order. `symbol_at` is the context lookup of
/// every LF-mapping step (paper Algorithm 4 Line 1), so extract / locate /
/// trajectory-recovery walks pay it once per step — the seed's per-step
/// `O(log σ)` binary search was the dominant non-rank cost there. The
/// accelerator is built lazily on the first `symbol_at` call (≈ 1.07 bits
/// per indexed symbol), so consumers that never ask for contexts — the
/// baseline FM-indexes, `inverse_bwt` — pay nothing for it.
#[derive(Clone, Debug)]
pub struct CArray {
    counts: Vec<u64>,
    /// Lazily built `symbol_at` accelerator.
    accel: std::sync::OnceLock<SymbolAtAccel>,
}

/// The `O(1)` `symbol_at` support structure.
#[derive(Clone, Debug)]
struct SymbolAtAccel {
    /// Bit `C[w]` set for every `w` with `count(w) > 0` (length `n`).
    bounds: RankBitVec,
    /// The `k`-th symbol with a nonempty range, packed.
    live: IntVec,
}

/// Build the `symbol_at` accelerator from finished cumulative counts.
fn build_bounds(counts: &[u64]) -> SymbolAtAccel {
    let sigma = counts.len() - 1;
    let n = counts[sigma] as usize;
    let mut bits = BitBuf::zeros(n);
    let mut live = IntVec::with_capacity(IntVec::width_for(sigma.max(1) as u64), sigma.min(n));
    for w in 0..sigma {
        if counts[w + 1] > counts[w] {
            bits.set(counts[w] as usize, true);
            live.push(w as u64);
        }
    }
    live.shrink_to_fit();
    SymbolAtAccel {
        bounds: RankBitVec::new(bits),
        live,
    }
}

impl CArray {
    /// Count symbols of `text` over alphabet `0..sigma`.
    pub fn new(text: &[u32], sigma: usize) -> Self {
        let mut counts = vec![0u64; sigma + 1];
        for &c in text {
            counts[c as usize + 1] += 1;
        }
        for i in 1..=sigma {
            counts[i] += counts[i - 1];
        }
        Self {
            counts,
            accel: std::sync::OnceLock::new(),
        }
    }

    /// `C[w]`: the number of symbols smaller than `w`. `w` may be `sigma`.
    #[inline]
    pub fn get(&self, w: u32) -> usize {
        self.counts[w as usize] as usize
    }

    /// The suffix range of the single-symbol pattern `w`.
    #[inline]
    pub fn symbol_range(&self, w: u32) -> std::ops::Range<usize> {
        self.get(w)..self.get(w + 1)
    }

    /// Number of occurrences of `w` in the text.
    #[inline]
    pub fn count(&self, w: u32) -> usize {
        self.get(w + 1) - self.get(w)
    }

    /// Alphabet size σ.
    pub fn sigma(&self) -> usize {
        self.counts.len() - 1
    }

    /// The symbol `w` whose range `[C[w], C[w+1])` contains BWT position `j`
    /// — i.e. the first symbol of the `j`-th sorted rotation (Algorithm 4
    /// Line 1). `O(1)` after the first call: one directory rank on the
    /// (lazily built) boundary bit vector plus one packed-array load.
    #[inline]
    pub fn symbol_at(&self, j: usize) -> u32 {
        debug_assert!(j < *self.counts.last().unwrap() as usize);
        let accel = self.accel.get_or_init(|| build_bounds(&self.counts));
        accel.live.get(accel.bounds.rank1(j + 1) - 1) as u32
    }

    /// `symbol_at` by binary search over the cumulative counts,
    /// `O(log σ)`. Kept as the reference implementation for property
    /// tests.
    #[inline]
    pub fn symbol_at_binsearch(&self, j: usize) -> u32 {
        debug_assert!(j < *self.counts.last().unwrap() as usize);
        (self.counts.partition_point(|&c| c <= j as u64) - 1) as u32
    }

    /// Heap bytes of the counts — the paper's `C` array accounting
    /// ((σ+1) machine words). The `symbol_at` accelerator is reported
    /// separately by [`CArray::accel_size_in_bytes`].
    pub fn size_in_bytes(&self) -> usize {
        self.counts.capacity() * 8
    }

    /// Heap bytes of the `O(1)` `symbol_at` accelerator (boundary bit
    /// vector + live-symbol list, ≈ 1.07 bits per indexed symbol; `0`
    /// until the first `symbol_at` call builds it) — an engineering
    /// addition beyond the paper's data structure, accounted like the
    /// other API conveniences (trajectory directory, SA samples; see
    /// `CinctIndex::directory_size_in_bytes`).
    pub fn accel_size_in_bytes(&self) -> usize {
        self.accel
            .get()
            .map_or(0, |a| a.bounds.size_in_bytes() + a.live.size_in_bytes())
    }

    /// The raw cumulative counts (persistence support).
    pub fn raw_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Reassemble from raw cumulative counts; `None` if not non-decreasing.
    /// The `symbol_at` accelerator is derived state, rebuilt on demand.
    pub fn from_raw_counts(counts: Vec<u64>) -> Option<Self> {
        if counts.is_empty() || counts.windows(2).any(|w| w[1] < w[0]) {
            return None;
        }
        Some(Self {
            counts,
            accel: std::sync::OnceLock::new(),
        })
    }
}

/// Compute the BWT of `text` given its suffix array.
pub fn bwt_from_sa(text: &[u32], sa: &[u32]) -> Vec<u32> {
    let n = text.len();
    sa.iter()
        .map(|&i| {
            if i == 0 {
                text[n - 1]
            } else {
                text[i as usize - 1]
            }
        })
        .collect()
}

/// Derive the BWT **in place**: overwrite the suffix array with
/// `T_bwt[i] = T[(SA[i] + n − 1) mod n]`. The construction pipeline calls
/// this once every SA-dependent byproduct (trajectory directory, SA
/// samples) has been extracted, so the n-word BWT costs no allocation of
/// its own — the SA buffer *becomes* the BWT.
pub fn bwt_replace_sa(text: &[u32], sa: &mut [u32]) {
    let n = text.len();
    debug_assert_eq!(sa.len(), n);
    for slot in sa.iter_mut() {
        let i = *slot;
        *slot = if i == 0 {
            text[n - 1]
        } else {
            text[i as usize - 1]
        };
    }
}

/// Convenience: SA + BWT in one call.
pub fn bwt(text: &[u32], sigma: usize) -> (Vec<u32>, Vec<u32>) {
    let sa = suffix_array(text, sigma);
    let b = bwt_from_sa(text, &sa);
    (sa, b)
}

/// Invert a BWT (sentinel-terminated convention): reconstructs the original
/// text. Used by tests and by the bzip2-like compressor's decoder.
pub fn inverse_bwt(bwt: &[u32], sigma: usize) -> Vec<u32> {
    let n = bwt.len();
    let c = CArray::new(bwt, sigma);
    // occ[i] = rank_{bwt[i]}(bwt, i), computed in one pass.
    let mut seen = vec![0u64; sigma];
    let mut occ = Vec::with_capacity(n);
    for &s in bwt {
        occ.push(seen[s as usize]);
        seen[s as usize] += 1;
    }
    // LF-walk from the sentinel rotation (row 0 starts with the sentinel,
    // because the sentinel is the unique minimum). The walk emits
    // `T[n-2], T[n-3], …, T[0]` and finally the sentinel `T[n-1]`.
    let mut out = vec![0u32; n];
    let mut j = 0usize;
    for k in (0..n).rev() {
        let idx = if k == 0 { n - 1 } else { k - 1 };
        out[idx] = bwt[j];
        j = c.get(bwt[j]) + occ[j] as usize;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::TrajectoryString;

    /// The paper's running example (Eq. (1) / Eq. (2)).
    fn paper_text() -> Vec<u32> {
        let trajs = vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
        TrajectoryString::build(&trajs, 6).text().to_vec()
    }

    fn sym(c: char) -> u32 {
        match c {
            '#' => 0,
            '$' => 1,
            c => (c as u32 - 'A' as u32) + 2,
        }
    }

    #[test]
    fn paper_bwt_matches_eq2() {
        let text = paper_text();
        let (_, b) = bwt(&text, 8);
        let expected: Vec<u32> = "$AAABDBBCCE$$$F#".chars().map(sym).collect();
        assert_eq!(b, expected);
    }

    #[test]
    fn paper_c_array() {
        let text = paper_text();
        let c = CArray::new(&text, 8);
        // From Fig. 2: C[A]=5, C[B]=8 (§II-A3).
        assert_eq!(c.get(sym('A')), 5);
        assert_eq!(c.get(sym('B')), 8);
        assert_eq!(c.symbol_range(sym('A')), 5..8);
        assert_eq!(c.count(sym('A')), 3);
        assert_eq!(c.get(8), 16); // total length
    }

    #[test]
    fn symbol_at_inverts_ranges() {
        let text = paper_text();
        let c = CArray::new(&text, 8);
        for w in 0..8u32 {
            for j in c.symbol_range(w) {
                assert_eq!(c.symbol_at(j), w, "j={j}");
                assert_eq!(c.symbol_at_binsearch(j), w, "binsearch j={j}");
            }
        }
    }

    #[test]
    fn symbol_at_with_alphabet_gaps() {
        // Symbols 3 and 6 never occur: their (empty) ranges collapse onto
        // the next live symbol's boundary and must never be returned.
        let text: Vec<u32> = vec![0, 7, 7, 1, 4, 4, 4, 5, 1, 0];
        let c = CArray::new(&text, 9);
        let n = *c.raw_counts().last().unwrap() as usize;
        for j in 0..n {
            assert_eq!(c.symbol_at(j), c.symbol_at_binsearch(j), "j={j}");
        }
        assert!(c.accel_size_in_bytes() > 0);
        // Round-tripping through raw counts rebuilds the accelerator.
        let back = CArray::from_raw_counts(c.raw_counts().to_vec()).unwrap();
        for j in 0..n {
            assert_eq!(back.symbol_at(j), c.symbol_at(j), "j={j}");
        }
    }

    #[test]
    fn in_place_bwt_matches_allocating_path() {
        let text = paper_text();
        let (sa, b) = bwt(&text, 8);
        let mut buf = sa.clone();
        bwt_replace_sa(&text, &mut buf);
        assert_eq!(buf, b);
    }

    #[test]
    fn inverse_bwt_roundtrip() {
        let text = paper_text();
        let (_, b) = bwt(&text, 8);
        assert_eq!(inverse_bwt(&b, 8), text);
    }

    #[test]
    fn inverse_bwt_random_texts() {
        let mut x = 77u64;
        for len in [5usize, 50, 500] {
            let mut text: Vec<u32> = (0..len)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 33) as u32) % 9 + 1
                })
                .collect();
            text.push(0);
            let (_, b) = bwt(&text, 10);
            assert_eq!(inverse_bwt(&b, 10), text);
        }
    }

    #[test]
    fn bwt_is_permutation_of_text() {
        let text = paper_text();
        let (_, b) = bwt(&text, 8);
        let mut a = text.clone();
        let mut bb = b.clone();
        a.sort_unstable();
        bb.sort_unstable();
        assert_eq!(a, bb);
    }
}
