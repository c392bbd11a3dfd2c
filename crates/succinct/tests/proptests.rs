//! Property-based tests for the succinct substrate: every structure against
//! a naive oracle on arbitrary inputs.

use cinct_succinct::{
    BitBuf, BitRank, HuffmanCode, HuffmanWaveletTree, IntVec, RankBitVec, RrrBitVec, SpaceUsage,
    SymbolSeq, WaveletMatrix,
};
use proptest::prelude::*;

fn bits_strategy() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 0..2000)
}

fn biased_bits_strategy() -> impl Strategy<Value = Vec<bool>> {
    // Density parameter exercises RRR's class skew handling.
    (0u32..=100).prop_flat_map(|density| {
        proptest::collection::vec(proptest::bool::weighted(density as f64 / 100.0), 0..2000)
    })
}

fn seq_strategy(sigma: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..sigma, 1..1500)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plain_bitvec_rank_select(bits in bits_strategy()) {
        let buf = BitBuf::from_bools(bits.iter().copied());
        let rb = RankBitVec::new(buf);
        let mut ones = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(rb.rank1(i), ones);
            prop_assert_eq!(rb.get(i), b);
            if b {
                prop_assert_eq!(rb.select1(ones), Some(i));
                ones += 1;
            } else {
                prop_assert_eq!(rb.select0(i - ones), Some(i));
            }
        }
        prop_assert_eq!(rb.rank1(bits.len()), ones);
        prop_assert_eq!(rb.select1(ones), None);
    }

    #[test]
    fn rrr_equals_plain(bits in biased_bits_strategy(), b in 1usize..=63) {
        let buf = BitBuf::from_bools(bits.iter().copied());
        let rrr = RrrBitVec::new(&buf, b);
        let mut ones = 0usize;
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(rrr.rank1(i), ones, "rank1({}) b={}", i, b);
            prop_assert_eq!(rrr.get(i), bit, "get({}) b={}", i, b);
            ones += bit as usize;
        }
        prop_assert_eq!(rrr.count_ones(), ones);
    }

    #[test]
    fn rrr_hybrid_equals_plain(bits in biased_bits_strategy(), b in 1usize..=63) {
        // Raw and enumerative groups side by side, at every block size.
        let buf = BitBuf::from_bools(bits.iter().copied());
        let rrr = RrrBitVec::hybrid(&buf, b);
        prop_assert!(rrr.size_in_bytes() <= RrrBitVec::new(&buf, b).size_in_bytes());
        let mut naive = vec![0usize; bits.len() + 1];
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(rrr.get_and_rank1(i), (bit, naive[i]), "i={} b={}", i, b);
            naive[i + 1] = naive[i] + bit as usize;
        }
        for i in 0..=bits.len() {
            let j = (i + b / 2).min(bits.len());
            prop_assert_eq!(rrr.rank1_pair(i, j), (naive[i], naive[j]), "pair({}) b={}", i, b);
        }
    }

    #[test]
    fn rrr_fast_rank_matches_naive(
        bits in biased_bits_strategy(),
        b in prop::sample::select(vec![15usize, 31, 63]),
    ) {
        // The optimized hot path (three-level directory, table-driven
        // scan, pipelined/fused decodes) against the naive bit count, at
        // every paper block size.
        let buf = BitBuf::from_bools(bits.iter().copied());
        let rrr = RrrBitVec::new(&buf, b);
        let n = bits.len();
        // naive[i] = ones among the first i bits.
        let mut naive = vec![0usize; n + 1];
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(rrr.rank1(i), naive[i], "rank1({}) b={}", i, b);
            let (g, r) = rrr.get_and_rank1(i);
            prop_assert_eq!((g, r), (bit, naive[i]), "get_and_rank1({}) b={}", i, b);
            naive[i + 1] = naive[i] + bit as usize;
        }
        prop_assert_eq!(rrr.rank1(n), naive[n]);
        // Paired ranks at pseudo-random position pairs (same-block,
        // cross-block and boundary shapes all occur across cases).
        let mut x = 0x2545_f491_4f6c_dd1du64 ^ (n as u64);
        for _ in 0..32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % (n + 1);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (x >> 33) as usize % (n + 1);
            let (a, bb) = rrr.rank1_pair(i, j);
            prop_assert_eq!((a, bb), (naive[i], naive[j]), "pair({}, {}) b={}", i, j, b);
        }
    }

    #[test]
    fn hwt_equals_naive(seq in seq_strategy(25), b in prop::sample::select(vec![15usize, 31, 63])) {
        let wt = HuffmanWaveletTree::<RrrBitVec>::with_params(&seq, b);
        for (i, &s) in seq.iter().enumerate() {
            prop_assert_eq!(wt.access(i), s);
        }
        for w in 0..25u32 {
            let i = seq.len();
            let expected = seq.iter().filter(|&&s| s == w).count();
            prop_assert_eq!(wt.rank(w, i), expected);
        }
        // Mid-point ranks.
        let mid = seq.len() / 2;
        for w in 0..25u32 {
            let expected = seq[..mid].iter().filter(|&&s| s == w).count();
            prop_assert_eq!(wt.rank(w, mid), expected);
        }
    }

    #[test]
    fn wm_equals_naive(seq in seq_strategy(40)) {
        let wm = WaveletMatrix::<RankBitVec>::new(&seq);
        for (i, &s) in seq.iter().enumerate() {
            prop_assert_eq!(wm.access(i), s);
        }
        let mid = seq.len() / 2;
        for w in 0..40u32 {
            let expected = seq[..mid].iter().filter(|&&s| s == w).count();
            prop_assert_eq!(wm.rank(w, mid), expected);
        }
    }

    #[test]
    fn huffman_roundtrip(seq in seq_strategy(30)) {
        let code = HuffmanCode::from_seq(&seq);
        let bits = code.encode(&seq);
        let (back, end) = code.decode(&bits, 0, seq.len());
        prop_assert_eq!(back, seq);
        prop_assert_eq!(end, bits.len());
    }

    #[test]
    fn intvec_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..500), width_sel in 0usize..4) {
        // Mask values to assorted widths including 64.
        let width = [7usize, 23, 41, 64][width_sel];
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let vals: Vec<u64> = values.iter().map(|v| v & mask).collect();
        let mut iv = IntVec::new(width);
        for &v in &vals {
            iv.push(v);
        }
        for (i, &v) in vals.iter().enumerate() {
            prop_assert_eq!(iv.get(i), v);
        }
    }

    #[test]
    fn bitbuf_push_bits_roundtrip(chunks in proptest::collection::vec((any::<u64>(), 0usize..=64), 0..100)) {
        let mut buf = BitBuf::new();
        let norm: Vec<(u64, usize)> = chunks
            .iter()
            .map(|&(v, w)| (if w == 64 { v } else { v & ((1u64 << w) - 1) }, w))
            .collect();
        for &(v, w) in &norm {
            buf.push_bits(v, w);
        }
        let mut pos = 0usize;
        for &(v, w) in &norm {
            prop_assert_eq!(buf.get_bits(pos, w), v);
            pos += w;
        }
        prop_assert_eq!(pos, buf.len());
    }
}
