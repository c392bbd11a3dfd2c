//! Huffman-shaped wavelet tree (HWT), generic over the bit-vector backend.
//!
//! The paper's CiNCT index stores the labeled BWT `φ(T_bwt)` in an HWT whose
//! bit vectors are RRR-compressed (`HuffmanWaveletTree<RrrBitVec>`); the
//! ICB-Huff baseline stores the *unlabeled* BWT in the same structure
//! (§II-B2, Table II). Space is at most `n(1 + H0(S)) + o(n)` bits and
//! `rank_w(S, j)` costs one bit-level rank per code bit of `w` —
//! `O(1 + H0(S))` on average (Theorem 1), which is why shrinking `H0`
//! via RML makes CiNCT both smaller *and* faster.
//!
//! All node bitmaps are **concatenated into a single backend bit vector**
//! (as sdsl-lite does): per node we keep only its start offset and the
//! number of ones before it, so a node-local `rank1(p)` is one global
//! `rank1(start + p)` minus a stored constant. This avoids the paper's
//! problem P2 (per-block storage overhead) for large alphabets.

use crate::bits::BitBuf;
use crate::huffman::{Child, CodeTable, HuffmanTree};
use crate::int_vec::IntVec;
use crate::serial::{read_usize, write_usize, Persist};
use crate::traits::{BitVecBuild, SpaceUsage, Symbol, SymbolSeq};

/// Packed per-node metadata: bitmap start offsets, ones-before counters and
/// child links, each stored at the minimal bit width. With large alphabets
/// (σ internal nodes) a naive struct-of-u64s would cost 32 bytes per node —
/// a visible fraction of the whole index; packing brings it to a few bytes.
///
/// Start and ones-before are *interleaved* (`[start0, ones0, start1, …]`)
/// so every descent level fetches both with one packed read — a hot-path
/// constant, since each wavelet rank/access touches them once per level.
#[derive(Clone, Debug)]
struct NodeTable {
    /// Interleaved per-node pairs: even slots = first bit of the node's
    /// bitmap in the global vector, odd slots = ones before it.
    meta: IntVec,
    /// Child links: `(x << 1) | 1` = leaf with symbol `x`; `x << 1` =
    /// internal node `x`. Left children at even slots, right at odd.
    children: IntVec,
}

impl NodeTable {
    #[inline]
    fn child(&self, node: usize, right: bool) -> Child {
        let v = self.children.get(node * 2 + right as usize);
        if v & 1 == 1 {
            Child::Leaf((v >> 1) as Symbol)
        } else {
            Child::Node((v >> 1) as u32)
        }
    }

    /// `(start, ones_before)` of `node`, one fetch when the pair fits a
    /// word (always, until a single wavelet tree exceeds 2³² bits).
    #[inline]
    fn start_and_ones(&self, node: usize) -> (usize, usize) {
        let w = self.meta.width();
        if 2 * w <= 64 {
            let packed = self.meta.raw_bits().get_bits(2 * node * w, 2 * w);
            (
                (packed & ((1u64 << w) - 1)) as usize,
                (packed >> w) as usize,
            )
        } else {
            (
                self.meta.get(2 * node) as usize,
                self.meta.get(2 * node + 1) as usize,
            )
        }
    }
}

/// A Huffman-shaped wavelet tree over a `u32` alphabet.
#[derive(Clone, Debug)]
pub struct HuffmanWaveletTree<B: BitVecBuild> {
    /// All node bitmaps, concatenated in node-index order.
    bits: B,
    nodes: NodeTable,
    /// Codeword per symbol (root-to-leaf path bits).
    codes: CodeTable,
    len: usize,
    alphabet_size: usize,
}

impl<B: BitVecBuild> HuffmanWaveletTree<B> {
    /// Build from a sequence with the backend's default parameters.
    pub fn new(seq: &[Symbol]) -> Self {
        Self::with_params(seq, B::default_params())
    }

    /// Build from a sequence; `params` configures the backend bit vector
    /// (for RRR this is the block size `b`).
    pub fn with_params(seq: &[Symbol], params: B::Params) -> Self {
        Self::with_params_mt(seq, params, 1)
    }

    /// [`Self::with_params`] with up to `threads` workers (`0` = available
    /// parallelism). Each node's bit-partitioning is sharded into
    /// contiguous chunks stitched back in order, and the backend builds
    /// through [`BitVecBuild::build_mt`] — so the finished tree (and its
    /// serialized bytes) is **identical** to a sequential build at any
    /// thread count; only wall-clock differs.
    pub fn with_params_mt(seq: &[Symbol], params: B::Params, threads: usize) -> Self {
        assert!(!seq.is_empty(), "wavelet tree over empty sequence");
        // Resolve the `0 = all cores` knob once, not per Huffman node.
        let threads = crate::parbuild::effective_threads(threads);
        let alphabet_size = seq.iter().copied().max().unwrap() as usize + 1;
        let mut freqs = vec![0u64; alphabet_size];
        for &s in seq {
            freqs[s as usize] += 1;
        }
        let tree = HuffmanTree::from_freqs(&freqs);
        let n_nodes = tree.nodes.len();

        // Depths propagate root-down (parents precede children by
        // construction of the re-rooted Huffman tree).
        let mut depths = vec![0usize; n_nodes];
        for node in 0..n_nodes {
            let (l, r) = tree.nodes[node];
            for child in [l, r] {
                if let Child::Node(i) = child {
                    depths[i as usize] = depths[node] + 1;
                }
            }
        }

        // Build per-node raw bitmaps top-down; each node owns the
        // subsequence of symbols whose codes pass through it. Partitioning
        // a node is shard-parallel (the work per depth sums to ~n, so big
        // nodes dominate and shard well; small ones run sequentially under
        // the partition helper's threshold).
        let mut raw: Vec<BitBuf> = (0..n_nodes).map(|_| BitBuf::new()).collect();
        let mut owned: Vec<Vec<Symbol>> = vec![Vec::new(); n_nodes];
        {
            // Flat per-symbol code cache: the partition predicate becomes
            // two array loads and a shift instead of a packed-table lookup
            // per symbol per level.
            let mut code_bits = vec![0u64; alphabet_size];
            let mut code_lens = vec![0u8; alphabet_size];
            for s in 0..alphabet_size as u32 {
                if let Some(cw) = tree.code(s) {
                    code_bits[s as usize] = cw.bits;
                    code_lens[s as usize] = cw.len;
                }
            }
            let (code_bits, code_lens) = (&code_bits, &code_lens);
            let fill_node = |node: usize, node_seq: &[Symbol]| {
                let (l, r) = tree.nodes[node];
                let depth = depths[node];
                crate::parbuild::partition_by(
                    node_seq,
                    // Bit `depth` of the root-to-leaf path (Codeword::path_bit,
                    // unpacked): only symbols with codes reach any node.
                    |s| {
                        let len = code_lens[s as usize] as usize;
                        debug_assert!(depth < len, "symbol has a code through this node");
                        (code_bits[s as usize] >> (len - 1 - depth)) & 1 == 1
                    },
                    matches!(l, Child::Node(_)),
                    matches!(r, Child::Node(_)),
                    threads,
                )
            };
            let mut install = |node: usize,
                               parts: (BitBuf, Vec<Symbol>, Vec<Symbol>),
                               owned: &mut Vec<Vec<Symbol>>| {
                let (bits, lseq, rseq) = parts;
                raw[node] = bits;
                if let Child::Node(i) = tree.nodes[node].0 {
                    owned[i as usize] = lseq;
                }
                if let Child::Node(i) = tree.nodes[node].1 {
                    owned[i as usize] = rseq;
                }
            };
            install(0, fill_node(0, seq), &mut owned);
            for node in 1..n_nodes {
                let node_seq = std::mem::take(&mut owned[node]);
                install(node, fill_node(node, &node_seq), &mut owned);
            }
        }

        // Concatenate into one bitmap, recording starts and ones-before.
        let total: usize = raw.iter().map(BitBuf::len).sum();
        let mut global = BitBuf::with_capacity(total);
        let pos_width = IntVec::width_for(total.max(1) as u64);
        let child_width = IntVec::width_for(((alphabet_size.max(n_nodes)) as u64) << 1 | 1);
        let mut meta = IntVec::with_capacity(pos_width, n_nodes * 2);
        let mut children = IntVec::with_capacity(child_width, n_nodes * 2);
        let encode_child = |c: Child| -> u64 {
            match c {
                Child::Leaf(s) => ((s as u64) << 1) | 1,
                Child::Node(i) => (i as u64) << 1,
            }
        };
        let mut ones: u64 = 0;
        for (i, nb) in raw.iter().enumerate() {
            meta.push(global.len() as u64);
            meta.push(ones);
            children.push(encode_child(tree.nodes[i].0));
            children.push(encode_child(tree.nodes[i].1));
            global.append(nb);
            ones += nb.count_ones() as u64;
        }
        let bits = B::build_mt(&global, params, threads);

        Self {
            bits,
            nodes: NodeTable { meta, children },
            codes: tree.codes,
            len: seq.len(),
            alphabet_size,
        }
    }

    /// Node-local rank1 of prefix length `p` within `node`.
    #[inline]
    fn node_rank1(&self, node: usize, p: usize) -> usize {
        let (start, before) = self.nodes.start_and_ones(node);
        self.bits.rank1(start + p) - before
    }

    /// Average code length = total stored bits / sequence length; equals
    /// the expected number of bit-level ranks per symbol rank.
    pub fn avg_code_len(&self) -> f64 {
        self.bits.len() as f64 / self.len as f64
    }

    /// The concatenated backend bit vector (diagnostics / microbenches).
    pub fn backend(&self) -> &B {
        &self.bits
    }

    /// Node-local `(rank1(p), rank1(q))` through the backend's paired
    /// bit rank.
    #[inline]
    fn node_rank1_pair(&self, node: usize, p: usize, q: usize) -> (usize, usize) {
        let (start, before) = self.nodes.start_and_ones(node);
        let (a, b) = self.bits.rank1_pair(start + p, start + q);
        (a - before, b - before)
    }
}

impl<B: BitVecBuild> SymbolSeq for HuffmanWaveletTree<B> {
    fn len(&self) -> usize {
        self.len
    }

    fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// One descent for both positions: per level the two node-local bit
    /// ranks are independent, so pairing them ([`crate::BitRank::rank1_pair`])
    /// overlaps their dependency chains — the backward-search `sp`/`ep`
    /// fast path.
    #[inline]
    fn rank_pair(&self, w: Symbol, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i <= self.len && j <= self.len);
        let Some(code) = self.codes.get(w) else {
            return (0, 0);
        };
        let mut node = 0usize;
        let (mut a, mut b) = (i, j);
        for k in 0..code.len as usize {
            let bit = code.path_bit(k);
            let (ra, rb) = self.node_rank1_pair(node, a, b);
            let child = self.nodes.child(node, bit);
            if bit {
                a = ra;
                b = rb;
            } else {
                a -= ra;
                b -= rb;
            }
            match child {
                Child::Leaf(_) => return (a, b),
                Child::Node(i) => node = i as usize,
            }
        }
        (a, b)
    }

    #[inline]
    fn rank(&self, w: Symbol, i: usize) -> usize {
        debug_assert!(i <= self.len);
        let Some(code) = self.codes.get(w) else {
            return 0; // symbol never occurs
        };
        let mut node = 0usize;
        let mut pos = i;
        for k in 0..code.len as usize {
            let bit = code.path_bit(k);
            let r1 = self.node_rank1(node, pos);
            let child = self.nodes.child(node, bit);
            pos = if bit { r1 } else { pos - r1 };
            match child {
                Child::Leaf(_) => return pos,
                Child::Node(i) => node = i as usize,
            }
        }
        pos
    }

    #[inline]
    fn access(&self, i: usize) -> Symbol {
        self.access_and_rank(i).0
    }

    /// One descent answers both: per level a single fused
    /// [`crate::BitRank::get_and_rank1`] (one block decode instead of the
    /// seed's three prefix walks) steers the walk, and the leaf position
    /// is `rank(symbol, i)` by the wavelet invariant — the whole second
    /// rank descent of an LF step disappears.
    #[inline]
    fn access_and_rank(&self, i: usize) -> (Symbol, usize) {
        debug_assert!(i < self.len);
        let mut node = 0usize;
        let mut pos = i;
        loop {
            let (start, before) = self.nodes.start_and_ones(node);
            let (bit, r1_abs) = self.bits.get_and_rank1(start + pos);
            let r1 = r1_abs - before;
            let child = self.nodes.child(node, bit);
            pos = if bit { r1 } else { pos - r1 };
            match child {
                Child::Leaf(s) => return (s, pos),
                Child::Node(i) => node = i as usize,
            }
        }
    }
}

impl<B: BitVecBuild + Persist> Persist for HuffmanWaveletTree<B> {
    fn persist(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        self.bits.persist(w)?;
        self.nodes.meta.persist(w)?;
        self.nodes.children.persist(w)?;
        self.codes.persist(w)?;
        write_usize(w, self.len)?;
        write_usize(w, self.alphabet_size)
    }

    fn restore(r: &mut dyn std::io::Read) -> std::io::Result<Self> {
        let bits = B::restore(r)?;
        let meta = IntVec::restore(r)?;
        let children = IntVec::restore(r)?;
        let codes = CodeTable::restore(r)?;
        let len = read_usize(r)?;
        let alphabet_size = read_usize(r)?;
        if meta.len() != children.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "wavelet-tree node tables disagree",
            ));
        }
        Ok(Self {
            bits,
            nodes: NodeTable { meta, children },
            codes,
            len,
            alphabet_size,
        })
    }
}

impl<B: BitVecBuild> SpaceUsage for HuffmanWaveletTree<B> {
    fn size_in_bytes(&self) -> usize {
        self.bits.size_in_bytes()
            + self.nodes.meta.size_in_bytes()
            + self.nodes.children.size_in_bytes()
            + self.codes.size_in_bytes()
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
                // Skewed: favour small symbols (like RML labels).
                let r = (x >> 33) as u32;
                (r % sigma).min(r % (sigma / 2 + 1))
            })
            .collect()
    }

    fn naive_rank(seq: &[Symbol], w: Symbol, i: usize) -> usize {
        seq[..i].iter().filter(|&&s| s == w).count()
    }

    fn check_backend<B: BitVecBuild>(params: B::Params) {
        let seq = pseudo_seq(800, 12, 99);
        let wt = HuffmanWaveletTree::<B>::with_params(&seq, params);
        assert_eq!(wt.len(), seq.len());
        for i in 0..seq.len() {
            assert_eq!(wt.access(i), seq[i], "access({i})");
        }
        for w in 0..12u32 {
            for &i in &[0usize, 1, 5, 100, 400, 799, 800] {
                assert_eq!(wt.rank(w, i), naive_rank(&seq, w, i), "rank({w},{i})");
            }
        }
    }

    #[test]
    fn rank_access_plain_backend() {
        check_backend::<RankBitVec>(());
    }

    #[test]
    fn rank_access_rrr_backend() {
        for &b in &[15usize, 31, 63] {
            check_backend::<RrrBitVec>(b);
        }
    }

    #[test]
    fn rank_of_absent_symbol_is_zero() {
        let seq = vec![1u32, 2, 3, 1, 2];
        let wt = HuffmanWaveletTree::<RankBitVec>::new(&seq);
        assert_eq!(wt.rank(7, 5), 0);
        assert_eq!(wt.rank(0, 5), 0); // in range but absent
    }

    #[test]
    fn single_symbol_sequence() {
        let seq = vec![5u32; 64];
        let wt = HuffmanWaveletTree::<RrrBitVec>::with_params(&seq, 63);
        assert_eq!(wt.access(13), 5);
        assert_eq!(wt.rank(5, 64), 64);
        assert_eq!(wt.rank(5, 10), 10);
    }

    #[test]
    fn low_entropy_sequence_is_small() {
        // ~95% label 1: the HWT must approach H0 ≈ 0.3 bits/symbol, i.e. be
        // far below the 2 bits/symbol a plain code would need.
        let mut seq = vec![1u32; 100_000];
        for i in (0..seq.len()).step_by(25) {
            seq[i] = 2;
        }
        for i in (0..seq.len()).step_by(101) {
            seq[i] = 3;
        }
        let wt = HuffmanWaveletTree::<RrrBitVec>::with_params(&seq, 63);
        let bps = wt.size_in_bits() as f64 / seq.len() as f64;
        assert!(bps < 0.8, "HWT used {bps:.3} bits/symbol");
    }

    #[test]
    fn large_alphabet_overhead_is_amortised() {
        // 4000 distinct symbols over 200k positions: the concatenated
        // layout must keep total size near H0 + small per-symbol tables,
        // far below the ~100+ bits/symbol a per-node layout would cost.
        let sigma = 4000u32;
        let seq = pseudo_seq(200_000, sigma, 17);
        let wt = HuffmanWaveletTree::<RrrBitVec>::with_params(&seq, 63);
        let bps = wt.size_in_bits() as f64 / seq.len() as f64;
        assert!(bps < 16.0, "HWT used {bps:.2} bits/symbol");
        // Spot-check correctness at this size.
        for &i in &[0usize, 77_777, 199_999] {
            assert_eq!(wt.access(i), seq[i]);
        }
        let w = seq[1234];
        assert_eq!(wt.rank(w, 200_000), naive_rank(&seq, w, 200_000));
    }

    #[test]
    fn parallel_build_is_byte_identical() {
        // Large enough that node partitions and the RRR backend both cross
        // their parallel thresholds; skewed so node sizes vary.
        let seq = pseudo_seq(200_000, 50, 31);
        for &b in &[15usize, 63] {
            let seq_wt = HuffmanWaveletTree::<RrrBitVec>::with_params(&seq, b);
            let mut seq_bytes = Vec::new();
            seq_wt.persist(&mut seq_bytes).unwrap();
            for threads in [2usize, 4, 0] {
                let par_wt = HuffmanWaveletTree::<RrrBitVec>::with_params_mt(&seq, b, threads);
                let mut par_bytes = Vec::new();
                par_wt.persist(&mut par_bytes).unwrap();
                assert_eq!(par_bytes, seq_bytes, "b={b} threads={threads}");
            }
        }
    }

    #[test]
    fn avg_code_len_tracks_entropy() {
        let mut seq = vec![1u32; 10_000];
        for i in (0..seq.len()).step_by(4) {
            seq[i] = 2;
        }
        let wt = HuffmanWaveletTree::<RankBitVec>::new(&seq);
        // Two symbols → every code is exactly 1 bit.
        assert!((wt.avg_code_len() - 1.0).abs() < 1e-9);
    }
}
