//! RRR compressed bit vector (Raman–Raman–Rao, practical variant).
//!
//! This is the "practical RRR" of Navarro & Providel (SEA'12, paper
//! reference \[19\]) that CiNCT uses inside its Huffman-shaped wavelet tree:
//! the bit vector is cut into blocks of `b` bits; each block is represented
//! by its *class* `c` (popcount, fixed width `ceil(log2(b+1))` bits) and an
//! *offset* (index of the block among all `C(b, c)` blocks of that class,
//! variable width `ceil(log2(C(b, c)))` bits). A sampled directory stores
//! cumulative ranks and offset-stream positions.
//!
//! The supported block sizes are `1 ..= 63` — the paper evaluates
//! `b ∈ {15, 31, 63}` (Fig. 10) and defaults to `b = 63`. Space per bit is
//! `H0(B) + h(b)` with `h(b) = log2(b+1) / b` overhead (paper Eq. (11)),
//! and in-block rank costs `O(b)` time (Theorem 5 footnote).
//!
//! # Hot-path engineering (vs the straightforward implementation)
//!
//! `rank1`/`get` sit at the bottom of every wavelet-tree rank, i.e. of
//! every CiNCT query, so several constant-factor layers are applied:
//!
//! 1. **Three-level directory in seed-equal space** — absolute 64-bit
//!    counters every [`SUPER_RATE`] blocks, 16+16-bit relative counters
//!    packed in a `u32` every [`SAMPLE_RATE`] blocks, and packed minor
//!    entries every [`MINOR_RATE`] blocks. The seed spent the same ≈ 4
//!    bits/block on two plain `u64` arrays every 32 blocks and then
//!    scanned up to 31 block classes per query; this layout scans at most
//!    `MINOR_RATE − 1 = 7`.
//! 2. **Table-driven scan** — the residual class scan reads all ≤ 7 packed
//!    classes with a *single* `get_bits` word fetch and adds offset widths
//!    from a process-wide `u8` lookup table ([`offset_width_table`])
//!    instead of probing the binomial table per block.
//! 3. **Transposed binomial rows** — the enumerative in-block walk probes
//!    `C(rem − 1, c)` with `rem` descending and `c` fixed until a one is
//!    consumed; [`binom_rows`]`[c][rem − 1]` makes those probes consecutive
//!    `u64`s (≈ 8 per cache line) where the natural `[n][k]` layout touched
//!    a fresh 520-byte-strided line per step.
//! 4. **Branchless / fused decodes** — in-block rank reconstructs the
//!    prefix in a branchless walk (dense blocks make a per-bit conditional
//!    mispredict every other step), jumps zero runs by binary search when
//!    the block is sparse, answers `sp`/`ep` pairs that narrow into one
//!    block with a single decode + two popcounts
//!    ([`RrrBitVec::rank1_pair`]), and serves wavelet `access` descents
//!    `(bit, rank)` from one decode ([`RrrBitVec::get_and_rank1`]).
//!
//! The binomial table itself is a process-wide [`OnceLock`] static shared
//! by builds and queries on every thread.
//!
//! Unit and property tests pin every fast path to a naive bit-by-bit count
//! over the uncompressed input; `benchmark/` reports `succinct.rrr_rank1_ns`
//! and `succinct.rrr_rank1_pair_ns` (see `PERFORMANCE.md`).

use crate::bits::BitBuf;
use crate::int_vec::IntVec;
use crate::traits::{BitRank, BitVecBuild, SpaceUsage};
use std::sync::OnceLock;

/// Super sample rate, in blocks: absolute 64-bit `(ones, offset-bits)`.
const SUPER_RATE: usize = 128;

/// Major sample rate, in blocks: 16+16-bit counters relative to the super
/// sample, packed in one `u32`. `(SUPER_RATE − SAMPLE_RATE) · 63 < 2¹⁶`
/// keeps the halves in range for every supported `b`.
const SAMPLE_RATE: usize = 32;

/// Minor directory rate, in blocks. Must divide [`SAMPLE_RATE`]; entries
/// at major boundaries are implicit (always zero) and not stored, so each
/// major group stores `SAMPLE_RATE / MINOR_RATE − 1` packed entries.
const MINOR_RATE: usize = 8;

/// Stored minor entries per major sample group.
const MINORS_PER_SAMPLE: usize = SAMPLE_RATE / MINOR_RATE - 1;

/// Binomial coefficient table `C(n, k)` for `n, k <= 64`.
///
/// `C(63, 31) < 2^63`, so every entry used by block sizes `<= 63` fits in a
/// `u64` without overflow.
#[derive(Debug)]
struct BinomialTable {
    /// `binom[n][k]`, saturating (never actually saturates for n <= 63).
    table: Vec<[u64; 65]>,
}

impl BinomialTable {
    fn new() -> Self {
        let mut table = vec![[0u64; 65]; 65];
        for n in 0..=64usize {
            table[n][0] = 1;
            for k in 1..=n {
                let a = table[n - 1][k - 1];
                let b = if k < n { table[n - 1][k] } else { 0 };
                table[n][k] = a.saturating_add(b);
            }
        }
        Self { table }
    }

    #[inline]
    fn get(&self, n: usize, k: usize) -> u64 {
        if k > n {
            0
        } else {
            self.table[n][k]
        }
    }
}

/// Process-wide binomial table: built once, shared by every build and query
/// on every thread.
static BINOM: OnceLock<BinomialTable> = OnceLock::new();

#[inline]
fn binom() -> &'static BinomialTable {
    BINOM.get_or_init(BinomialTable::new)
}

/// Process-wide offset-width lookup: `offset_width_table()[b][c]` =
/// `ceil(log2(C(b, c)))` for `b, c <= 63`. 4 KiB, cache-resident; turns the
/// per-block width computation of a directory scan into one `u8` load.
static WIDTHS: OnceLock<[[u8; 64]; 64]> = OnceLock::new();

#[inline]
fn offset_width_table() -> &'static [[u8; 64]; 64] {
    WIDTHS.get_or_init(|| {
        let binom = binom();
        let mut t = [[0u8; 64]; 64];
        for (b, row) in t.iter_mut().enumerate() {
            for (c, w) in row.iter_mut().enumerate().take(b + 1) {
                *w = offset_width(b, c, binom) as u8;
            }
        }
        t
    })
}

/// Process-wide **transposed** binomial table: `binom_rows()[k][n] =
/// C(n, k)` for `n, k <= 63` (0 where `n < k`). See module docs, layer 3.
static BINOM_T: OnceLock<[[u64; 64]; 64]> = OnceLock::new();

#[inline]
fn binom_rows() -> &'static [[u64; 64]; 64] {
    BINOM_T.get_or_init(|| {
        let binom = binom();
        let mut t = [[0u64; 64]; 64];
        for (k, row) in t.iter_mut().enumerate() {
            for (n, v) in row.iter_mut().enumerate() {
                *v = binom.get(n, k);
            }
        }
        t
    })
}

/// Offset width in bits for class `c` of block size `b`.
#[inline]
fn offset_width(b: usize, c: usize, binom: &BinomialTable) -> usize {
    let count = binom.get(b, c);
    if count <= 1 {
        0
    } else {
        64 - (count - 1).leading_zeros() as usize
    }
}

/// Encode a block of `b` bits (LSB-first in `block`) with class `c` into
/// its enumerative offset. Only set bits contribute (skipping a zero at
/// `pos` adds `C(b-1-pos, c)` exactly when the bit at `pos` is one), so
/// the walk is popcount-guided — `c` table adds per block, not `b` — and
/// the skewed wavelet bitmaps CiNCT builds (H0 ≪ 1) encode in a handful
/// of steps. `c` must equal `block.count_ones()`.
#[inline]
fn encode_block(mut block: u64, b: usize, mut c: usize) -> u64 {
    let rows = binom_rows();
    let mut offset = 0u64;
    while block != 0 {
        let pos = block.trailing_zeros() as usize;
        offset += rows[c & 63][(b - 1 - pos) & 63];
        c -= 1;
        block &= block - 1;
    }
    offset
}

/// Per-iteration strategy switch for the fast decodes: jump zero runs when
/// the expected run (`remaining / (c + 1)`) dwarfs a ~log₂ b binary
/// search, i.e. when `c * JUMP_FACTOR ≤ remaining`.
const JUMP_FACTOR: usize = 8;

/// Position of the next one from `pos` on, given the walk state, found by
/// binary-searching the increasing row `binom_rows()[c]`: a one sits at the
/// first `pos'` with `offset ≥ C(b−1−pos', c)`, and `row[c−1] = 0`
/// guarantees a valid lower bound. Returns `(one_pos, row_index)`.
#[inline]
fn next_one_position(offset: u64, b: usize, c: usize, pos: usize) -> (usize, usize) {
    let row = &binom_rows()[c & 63];
    let (mut lo, mut hi) = (c - 1, b - 1 - pos);
    while lo < hi {
        let mid = hi - (hi - lo) / 2;
        if row[mid & 63] <= offset {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (b - 1 - lo, lo)
}

/// Reconstruct the first `p` bits of the block encoded by `(c, offset)` as
/// a machine word (bit `k` of the result = block bit `k`), hybrid walk:
/// branchless linear steps on dense stretches (a per-bit conditional would
/// mispredict every other step), zero-run jumps when the block is sparse.
/// In-block rank/get are then popcount/bit-test on the word. Two
/// structural properties avoid special cases: a consumed lane (`c == 0`)
/// has `offset == 0 < C(m, 0) = 1`, so it no-ops, and an all-ones suffix
/// (`remaining == c`) has `C(remaining − 1, c) = 0 ≤ offset`, so every
/// remaining step takes a one. Indexes are masked to 6 bits (`c`, `m` ≤ 63
/// by construction) so the loops carry no panic branches.
#[inline]
fn decode_prefix_word(mut offset: u64, b: usize, mut c: usize, p: usize) -> u64 {
    debug_assert!(p <= b && b <= 63);
    let rows = binom_rows();
    let mut word = 0u64;
    let mut pos = 0usize;
    // Strategy picked once per block (not per step — the check would tax
    // every dense iteration): dense blocks take the pipelined branchless
    // walk, sparse ones jump zero runs.
    if c * JUMP_FACTOR > p {
        // Software-pipelined: the next step's class is this step's `c` or
        // `c − 1`, so both table candidates are loaded with addresses that
        // depend only on the already-resolved class and the taken one is
        // selected by a conditional move — the L1 load latency sits off
        // the loop-carried `offset`/`take` chain. A wrapped `c − 1` when
        // `c` hits 0 reads a harmless in-bounds garbage candidate (never
        // selected: a consumed lane's skip is C(m, 0) = 1 > offset = 0).
        let mut a = rows[c & 63][(b - 1) & 63];
        while c > 0 && pos < p {
            let mnext = (b.wrapping_sub(2 + pos)) & 63;
            let l_keep = rows[c & 63][mnext];
            let l_down = rows[c.wrapping_sub(1) & 63][mnext];
            let take = (offset >= a) as u64;
            offset -= a & take.wrapping_neg();
            word |= take << pos;
            c -= take as usize;
            a = if take == 1 { l_down } else { l_keep };
            pos += 1;
        }
        return word;
    }
    while c > 0 && pos < p {
        let (one_pos, m) = next_one_position(offset, b, c, pos);
        if one_pos >= p {
            return word; // next one is beyond the prefix
        }
        word |= 1u64 << one_pos;
        offset -= rows[c & 63][m & 63];
        c -= 1;
        pos = one_pos + 1;
    }
    word
}

/// Dense pipelined tally from a mid-walk state `(offset, c)` at position
/// `pos`, counting ones in `[pos, p)`. Same software pipeline as
/// [`decode_prefix_word`], minus the word. Returns the tally plus the walk
/// state at `p` so a caller can resume (the state is live loop state —
/// returning it is free).
#[inline]
fn dense_ones_walk(
    mut offset: u64,
    b: usize,
    mut c: usize,
    mut pos: usize,
    p: usize,
) -> (usize, u64, usize) {
    let rows = binom_rows();
    let mut ones = 0usize;
    let mut a = rows[c & 63][(b.wrapping_sub(1 + pos)) & 63];
    // No `c > 0` early exit: a consumed lane no-ops (skip = C(m, 0) = 1 >
    // offset = 0), and the fixed trip count lets the compiler unroll.
    while pos < p {
        let mnext = (b.wrapping_sub(2 + pos)) & 63;
        let l_keep = rows[c & 63][mnext];
        let l_down = rows[c.wrapping_sub(1) & 63][mnext];
        let take = (offset >= a) as usize;
        offset -= a & (take as u64).wrapping_neg();
        c -= take;
        ones += take;
        a = if take == 1 { l_down } else { l_keep };
        pos += 1;
    }
    (ones, offset, c)
}

/// [`dense_ones_walk`] when only the tally is needed.
#[inline]
fn dense_ones_tail(offset: u64, b: usize, c: usize, pos: usize, p: usize) -> usize {
    dense_ones_walk(offset, b, c, pos, p).0
}

/// Ones among the first `p1` and first `p2 >= p1` bits of one block, in a
/// single resumed walk (no word is materialized) — the same-block
/// `sp`/`ep` rank pair.
#[inline]
fn decode_prefix_ones2(offset: u64, b: usize, c: usize, p1: usize, p2: usize) -> (usize, usize) {
    debug_assert!(p1 <= p2 && p2 <= b);
    if c * JUMP_FACTOR > p2 {
        let (ones1, off_mid, c_mid) = dense_ones_walk(offset, b, c, 0, p1);
        let ones2 = ones1 + dense_ones_tail(off_mid, b, c_mid, p1, p2);
        return (ones1, ones2);
    }
    let word = decode_prefix_word(offset, b, c, p2);
    (
        (word & low_mask(p1)).count_ones() as usize,
        (word & low_mask(p2)).count_ones() as usize,
    )
}

/// [`decode_prefix_word`] specialized to the count of ones (no word is
/// materialized — pure `rank1` lanes don't need the bits, only the tally).
#[inline]
fn decode_prefix_ones(mut offset: u64, b: usize, mut c: usize, p: usize) -> usize {
    debug_assert!(p <= b && b <= 63);
    if c * JUMP_FACTOR > p {
        return dense_ones_tail(offset, b, c, 0, p);
    }
    let rows = binom_rows();
    let mut ones = 0usize;
    let mut pos = 0usize;
    while c > 0 && pos < p {
        let (one_pos, m) = next_one_position(offset, b, c, pos);
        if one_pos >= p {
            return ones;
        }
        offset -= rows[c & 63][m & 63];
        c -= 1;
        ones += 1;
        pos = one_pos + 1;
    }
    ones
}

/// Two [`decode_prefix_ones`] walks fused into one lockstep loop when both
/// lanes are dense (independent chains overlap in the out-of-order core);
/// sparse lanes fall back to their own zero-run-jumping walks.
#[inline]
fn decode_prefix_ones_pair(
    mut off1: u64,
    mut c1: usize,
    p1: usize,
    mut off2: u64,
    mut c2: usize,
    p2: usize,
    b: usize,
) -> (usize, usize) {
    debug_assert!(p1 <= b && p2 <= b && b <= 63);
    if c1 * JUMP_FACTOR <= p1 || c2 * JUMP_FACTOR <= p2 {
        return (
            decode_prefix_ones(off1, b, c1, p1),
            decode_prefix_ones(off2, b, c2, p2),
        );
    }
    let rows = binom_rows();
    let (mut ones1, mut ones2) = (0usize, 0usize);
    // Phase 1: both lanes to the shorter prefix, two software-pipelined
    // lanes in lockstep (see [`decode_prefix_word`]) with no per-lane
    // bound checks. Phase 2: the longer lane finishes alone.
    let pmin = p1.min(p2);
    let mut pos = 0usize;
    let mut a1 = rows[c1 & 63][(b - 1) & 63];
    let mut a2 = rows[c2 & 63][(b - 1) & 63];
    // Fixed trip count (consumed lanes no-op; see `dense_ones_tail`).
    while pos < pmin {
        let mnext = (b.wrapping_sub(2 + pos)) & 63;
        let l1_keep = rows[c1 & 63][mnext];
        let l1_down = rows[c1.wrapping_sub(1) & 63][mnext];
        let l2_keep = rows[c2 & 63][mnext];
        let l2_down = rows[c2.wrapping_sub(1) & 63][mnext];
        let t1 = (off1 >= a1) as usize;
        let t2 = (off2 >= a2) as usize;
        off1 -= a1 & (t1 as u64).wrapping_neg();
        off2 -= a2 & (t2 as u64).wrapping_neg();
        c1 -= t1;
        c2 -= t2;
        ones1 += t1;
        ones2 += t2;
        a1 = if t1 == 1 { l1_down } else { l1_keep };
        a2 = if t2 == 1 { l2_down } else { l2_keep };
        pos += 1;
    }
    if p1 > pos {
        ones1 += dense_ones_tail(off1, b, c1, pos, p1);
    } else if p2 > pos {
        ones2 += dense_ones_tail(off2, b, c2, pos, p2);
    }
    (ones1, ones2)
}

/// The low `p < 64` bits set.
#[inline]
fn low_mask(p: usize) -> u64 {
    (1u64 << p) - 1
}

/// The derived rank directory over the packed classes; rebuilt on load,
/// never persisted.
#[derive(Clone, Debug)]
struct Directory {
    /// Every SUPER_RATE blocks: absolute cumulative ones before the block.
    super_ranks: Vec<u64>,
    /// Every SUPER_RATE blocks: absolute bit position in `offsets`.
    super_ptrs: Vec<u64>,
    /// Every SAMPLE_RATE blocks: `(offset_bits << 16) | ones`, relative to
    /// the enclosing super sample.
    majors: Vec<u32>,
    /// Every MINOR_RATE blocks not on a major boundary:
    /// `(offset_bits << minor_ones_bits) | ones`, relative to the
    /// enclosing major sample.
    minors: IntVec,
    /// Low-bit width of the `ones` half of a packed minor entry.
    minor_ones_bits: usize,
}

/// Packed widths of a minor directory entry for block size `b`:
/// `(ones_bits, total_entry_bits)`. A stored entry covers at most
/// `SAMPLE_RATE − MINOR_RATE` blocks of cumulative counts.
#[inline]
fn minor_entry_shape(b: usize) -> (usize, usize) {
    let max_blocks = (SAMPLE_RATE - MINOR_RATE) as u64;
    let ones_bits = IntVec::width_for(max_blocks * b as u64);
    let max_ow = offset_width_table()[b][b / 2] as u64;
    let ptr_bits = IntVec::width_for(max_blocks * max_ow);
    (ones_bits, ones_bits + ptr_bits)
}

/// Build the three-level directory over packed `classes` (`n_blocks`
/// entries of `class_width` bits). Also returns the totals the classes
/// imply: `(ones, offset_bits)` — callers validate stored payloads
/// against them.
fn build_directory(
    b: usize,
    n_blocks: usize,
    classes: &BitBuf,
    class_width: usize,
) -> (Directory, u64, u64) {
    let (ones_bits, entry_bits) = minor_entry_shape(b);
    let widths = offset_width_table();
    let mut super_ranks = Vec::with_capacity(n_blocks / SUPER_RATE + 1);
    let mut super_ptrs = Vec::with_capacity(n_blocks / SUPER_RATE + 1);
    let mut majors = Vec::with_capacity(n_blocks / SAMPLE_RATE + 1);
    let mut minors = IntVec::with_capacity(
        entry_bits,
        n_blocks / SAMPLE_RATE * MINORS_PER_SAMPLE + MINORS_PER_SAMPLE,
    );
    let (mut ones, mut ptr) = (0u64, 0u64);
    let (mut sup_ones, mut sup_ptr) = (0u64, 0u64);
    let (mut maj_ones, mut maj_ptr) = (0u64, 0u64);
    for blk in 0..n_blocks {
        if blk % SUPER_RATE == 0 {
            super_ranks.push(ones);
            super_ptrs.push(ptr);
            sup_ones = ones;
            sup_ptr = ptr;
        }
        if blk % SAMPLE_RATE == 0 {
            debug_assert!(ptr - sup_ptr < (1 << 16) && ones - sup_ones < (1 << 16));
            majors.push((((ptr - sup_ptr) as u32) << 16) | (ones - sup_ones) as u32);
            maj_ones = ones;
            maj_ptr = ptr;
        } else if blk % MINOR_RATE == 0 {
            minors.push(((ptr - maj_ptr) << ones_bits) | (ones - maj_ones));
        }
        let c = classes.get_bits(blk * class_width, class_width) as usize;
        ones += c as u64;
        ptr += widths[b][c & 63] as u64;
    }
    minors.shrink_to_fit();
    (
        Directory {
            super_ranks,
            super_ptrs,
            majors,
            minors,
            minor_ones_bits: ones_bits,
        },
        ones,
        ptr,
    )
}

impl SpaceUsage for Directory {
    fn size_in_bytes(&self) -> usize {
        self.super_ranks.capacity() * 8
            + self.super_ptrs.capacity() * 8
            + self.majors.capacity() * 4
            + self.minors.size_in_bytes()
    }
}

/// RRR compressed bit vector with runtime block size `b ∈ 1..=63`.
#[derive(Clone, Debug)]
pub struct RrrBitVec {
    /// Block size in bits.
    b: usize,
    /// Bits needed to store a class value: ceil(log2(b+1)).
    class_width: usize,
    /// Total bits represented.
    len: usize,
    /// Packed classes, `class_width` bits each.
    classes: BitBuf,
    /// Concatenated variable-width offsets.
    offsets: BitBuf,
    /// Derived rank directory (see [`Directory`]).
    dir: Directory,
    ones: usize,
}

/// Below this many blocks a sharded build costs more in thread spawns than
/// the encode saves.
const PAR_BUILD_MIN_BLOCKS: usize = 1 << 13;

/// Encode blocks `[start_blk, end_blk)` of `bits` into packed classes +
/// offsets; the shard kernel of both the sequential and the parallel build
/// (identical output streams by construction). Returns the shard's ones.
fn encode_blocks(
    bits: &BitBuf,
    b: usize,
    class_width: usize,
    start_blk: usize,
    end_blk: usize,
    binom: &BinomialTable,
) -> (BitBuf, BitBuf, u64) {
    let len = bits.len();
    let mut classes = BitBuf::with_capacity((end_blk - start_blk) * class_width);
    let mut offsets = BitBuf::new();
    let mut ones = 0u64;
    for blk in start_blk..end_blk {
        let start = blk * b;
        let width = b.min(len - start);
        // Bits beyond `len` in the last block are implicit zeros.
        let word = bits.get_bits(start, width);
        let c = word.count_ones() as usize;
        classes.push_bits(c as u64, class_width);
        let ow = offset_width(b, c, binom);
        let off = encode_block(word, b, c);
        offsets.push_bits(off, ow);
        ones += c as u64;
    }
    (classes, offsets, ones)
}

impl RrrBitVec {
    /// Compress `bits` with block size `b` (clamped to `1..=63`).
    pub fn new(bits: &BitBuf, b: usize) -> Self {
        let b = b.clamp(1, 63);
        Self::build_with(bits, b, binom())
    }

    /// [`RrrBitVec::new`] with block classification + enumerative encoding
    /// sharded across up to `threads` workers (`0` = available
    /// parallelism). Shards are contiguous block ranges stitched back in
    /// block order, so the packed class/offset streams — and therefore the
    /// serialized bytes — are **identical** to a sequential build's at any
    /// thread count (pinned by tests).
    pub fn with_threads(bits: &BitBuf, b: usize, threads: usize) -> Self {
        let b = b.clamp(1, 63);
        let threads = crate::parbuild::effective_threads(threads);
        let n_blocks = bits.len().div_ceil(b);
        if threads <= 1 || n_blocks < PAR_BUILD_MIN_BLOCKS {
            return Self::build_with(bits, b, binom());
        }
        let binom = binom();
        let per = n_blocks.div_ceil(threads);
        let n_shards = n_blocks.div_ceil(per);
        let class_width = (64 - (b as u64).leading_zeros() as usize).max(1);
        let mut shards: Vec<Option<(BitBuf, BitBuf, u64)>> = vec![None; n_shards];
        rayon::scope(|s| {
            for (k, slot) in shards.iter_mut().enumerate() {
                s.spawn(move |_| {
                    let start_blk = k * per;
                    let end_blk = ((k + 1) * per).min(n_blocks);
                    *slot = Some(encode_blocks(
                        bits,
                        b,
                        class_width,
                        start_blk,
                        end_blk,
                        binom,
                    ));
                });
            }
        });
        let mut classes = BitBuf::with_capacity(n_blocks * class_width);
        let mut offsets = BitBuf::new();
        let mut ones = 0u64;
        for shard in shards {
            let (c, o, n1) = shard.expect("every shard spawned");
            classes.append(&c);
            offsets.append(&o);
            ones += n1;
        }
        Self::assemble(bits.len(), b, class_width, classes, offsets, ones)
    }

    fn build_with(bits: &BitBuf, b: usize, binom: &BinomialTable) -> Self {
        let n_blocks = bits.len().div_ceil(b);
        let class_width = (64 - (b as u64).leading_zeros() as usize).max(1);
        let (classes, offsets, ones) = encode_blocks(bits, b, class_width, 0, n_blocks, binom);
        Self::assemble(bits.len(), b, class_width, classes, offsets, ones)
    }

    /// Final assembly shared by the sequential and sharded builds: shrink
    /// the streams, derive the rank directory, cross-check totals.
    fn assemble(
        len: usize,
        b: usize,
        class_width: usize,
        mut classes: BitBuf,
        mut offsets: BitBuf,
        ones: u64,
    ) -> Self {
        let n_blocks = len.div_ceil(b);
        classes.shrink_to_fit();
        offsets.shrink_to_fit();
        let (dir, dir_ones, dir_ptr) = build_directory(b, n_blocks, &classes, class_width);
        debug_assert_eq!(ones, dir_ones);
        debug_assert_eq!(offsets.len() as u64, dir_ptr);
        Self {
            b,
            class_width,
            len,
            classes,
            offsets,
            dir,
            ones: ones as usize,
        }
    }

    /// The block size `b` this vector was built with.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Decompose into the persisted fields: `(b, len, classes, offsets,
    /// ones)`. The rank directory is derived state and not part of the
    /// persisted shape (it is rebuilt by [`RrrBitVec::from_raw_parts`]).
    pub fn raw_parts(&self) -> (usize, usize, &BitBuf, &BitBuf, usize) {
        (self.b, self.len, &self.classes, &self.offsets, self.ones)
    }

    /// Reassemble from raw fields; `None` on inconsistent shapes (including
    /// an `ones` count that disagrees with the classes). Rebuilds the rank
    /// directory.
    pub fn from_raw_parts(
        b: usize,
        len: usize,
        classes: BitBuf,
        offsets: BitBuf,
        ones: usize,
    ) -> Option<Self> {
        if !(1..=63).contains(&b) || ones > len {
            return None;
        }
        let class_width = (64 - (b as u64).leading_zeros() as usize).max(1);
        let n_blocks = len.div_ceil(b);
        if classes.len() != n_blocks * class_width {
            return None;
        }
        let (dir, dir_ones, dir_ptr) = build_directory(b, n_blocks, &classes, class_width);
        // The classes imply exact totals; a payload that disagrees (e.g. a
        // truncated offsets stream) is corrupt.
        if dir_ones != ones as u64 || dir_ptr != offsets.len() as u64 {
            return None;
        }
        Some(Self {
            b,
            class_width,
            len,
            classes,
            offsets,
            dir,
            ones,
        })
    }

    /// Directory seek to block `target_blk`: super + major + minor lookups,
    /// then one register-chunked scan of at most `MINOR_RATE − 1` classes
    /// against the caller-provided width row (`offset_width_table()[b]`).
    /// Returns `(ones_before_block, offset_ptr_of_block, class_of_block)`.
    #[inline]
    fn seek(&self, target_blk: usize, widths: &[u8; 64]) -> (u64, u64, usize) {
        let major = self.dir.majors[target_blk / SAMPLE_RATE];
        let mut ones = self.dir.super_ranks[target_blk / SUPER_RATE] + (major & 0xFFFF) as u64;
        let mut ptr = self.dir.super_ptrs[target_blk / SUPER_RATE] + (major >> 16) as u64;
        let within = (target_blk % SAMPLE_RATE) / MINOR_RATE;
        if within > 0 {
            // Boundaries at major samples are implicitly zero, so entry
            // `within - 1` of this group holds the cumulative.
            let entry = self
                .dir
                .minors
                .get(target_blk / SAMPLE_RATE * MINORS_PER_SAMPLE + within - 1);
            ones += entry & low_mask(self.dir.minor_ones_bits);
            ptr += entry >> self.dir.minor_ones_bits;
        }
        // ≤ 7 residual classes + the target's own, ≤ 8 × 6 bits: one
        // ≤ 48-bit fetch covers the whole scan and the returned class.
        let first = target_blk / MINOR_RATE * MINOR_RATE;
        let count = target_blk - first;
        let cw = self.class_width;
        let mut chunk = self.classes.get_bits(first * cw, (count + 1) * cw);
        let cmask = low_mask(cw);
        for _ in 0..count {
            let c = (chunk & cmask) as usize;
            ones += c as u64;
            ptr += widths[c & 63] as u64;
            chunk >>= cw;
        }
        (ones, ptr, (chunk & cmask) as usize)
    }

    /// `(get(i), rank1(i))` from one directory seek and one block decode:
    /// the prefix word up to bit `i % b` inclusive yields the bit (its top
    /// position) and the rank (popcount below it) together. This is the
    /// wavelet-tree access descent's primitive — the seed paid a seek plus
    /// up to three prefix walks for the same pair.
    pub fn get_and_rank1(&self, i: usize) -> (bool, usize) {
        debug_assert!(i < self.len);
        let widths = &offset_width_table()[self.b];
        let blk = i / self.b;
        let (ones, ptr, c) = self.seek(blk, widths);
        let ow = widths[c & 63] as usize;
        let off = self.offsets.get_bits(ptr as usize, ow);
        let p = i % self.b;
        let word = decode_prefix_word(off, self.b, c, p + 1);
        (
            (word >> p) & 1 == 1,
            ones as usize + (word & low_mask(p)).count_ones() as usize,
        )
    }

    /// `(rank1(i), rank1(j))` with the two in-block decode walks fused
    /// (same block: one decode + two popcounts; different blocks: lockstep
    /// interleaved walks). Backward-search callers rank `sp` and `ep`
    /// together through this; it is answer-identical to two
    /// [`BitRank::rank1`] calls.
    pub fn rank1_pair(&self, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i <= self.len && j <= self.len);
        if i == 0 || i == self.len || j == 0 || j == self.len {
            return (self.rank1(i), self.rank1(j));
        }
        let widths = &offset_width_table()[self.b];
        if i / self.b == j / self.b {
            // Narrowed backward-search ranges usually land `sp` and `ep`
            // in one block: a single seek + decode answers both ranks.
            let (ones, ptr, c) = self.seek(i / self.b, widths);
            let off = self.offsets.get_bits(ptr as usize, widths[c & 63] as usize);
            let (p1, p2) = (i % self.b, j % self.b);
            let (r1, r2) = decode_prefix_ones2(off, self.b, c, p1.min(p2), p1.max(p2));
            return if p1 <= p2 {
                (ones as usize + r1, ones as usize + r2)
            } else {
                (ones as usize + r2, ones as usize + r1)
            };
        }
        let (ones1, ptr1, c1) = self.seek(i / self.b, widths);
        let (ones2, ptr2, c2) = self.seek(j / self.b, widths);
        let off1 = self
            .offsets
            .get_bits(ptr1 as usize, widths[c1 & 63] as usize);
        let off2 = self
            .offsets
            .get_bits(ptr2 as usize, widths[c2 & 63] as usize);
        let (r1, r2) = decode_prefix_ones_pair(off1, c1, i % self.b, off2, c2, j % self.b, self.b);
        (ones1 as usize + r1, ones2 as usize + r2)
    }
}

impl BitRank for RrrBitVec {
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let widths = &offset_width_table()[self.b];
        let blk = i / self.b;
        let (_, ptr, c) = self.seek(blk, widths);
        let ow = widths[c & 63] as usize;
        let off = self.offsets.get_bits(ptr as usize, ow);
        let p = i % self.b;
        (decode_prefix_word(off, self.b, c, p + 1) >> p) & 1 == 1
    }

    #[inline]
    fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.len);
        if i == 0 {
            return 0;
        }
        if i == self.len {
            return self.ones;
        }
        let widths = &offset_width_table()[self.b];
        let blk = i / self.b;
        let (ones, ptr, c) = self.seek(blk, widths);
        let p = i % self.b;
        if p == 0 {
            return ones as usize;
        }
        let ow = widths[c & 63] as usize;
        let off = self.offsets.get_bits(ptr as usize, ow);
        ones as usize + decode_prefix_ones(off, self.b, c, p)
    }

    fn count_ones(&self) -> usize {
        self.ones
    }

    #[inline]
    fn rank1_pair(&self, i: usize, j: usize) -> (usize, usize) {
        RrrBitVec::rank1_pair(self, i, j)
    }

    #[inline]
    fn get_and_rank1(&self, i: usize) -> (bool, usize) {
        RrrBitVec::get_and_rank1(self, i)
    }
}

impl SpaceUsage for RrrBitVec {
    fn size_in_bytes(&self) -> usize {
        self.classes.size_in_bytes()
            + self.offsets.size_in_bytes()
            + self.dir.size_in_bytes()
            + std::mem::size_of::<usize>() * 4
    }
}

impl BitVecBuild for RrrBitVec {
    /// The RRR block size `b` (the paper's only CiNCT parameter, §III-C).
    type Params = usize;

    fn default_params() -> Self::Params {
        63
    }

    fn build(bits: &BitBuf, params: Self::Params) -> Self {
        Self::new(bits, params)
    }

    fn build_mt(bits: &BitBuf, params: Self::Params, threads: usize) -> Self {
        Self::with_threads(bits, params, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_bits(n: usize, density_pct: u64, seed: u64) -> BitBuf {
        let mut b = BitBuf::new();
        let mut x = seed | 1;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.push((x >> 33) % 100 < density_pct);
        }
        b
    }

    fn check(bits: &BitBuf, b: usize) {
        let rrr = RrrBitVec::new(bits, b);
        assert_eq!(rrr.len(), bits.len());
        let mut ones = 0usize;
        for i in 0..=bits.len() {
            assert_eq!(rrr.rank1(i), ones, "rank1({i}) b={b}");
            if i < bits.len() {
                assert_eq!(rrr.get(i), bits.get(i), "get({i}) b={b}");
                let (bit, rank) = rrr.get_and_rank1(i);
                assert_eq!((bit, rank), (bits.get(i), ones), "get_and_rank1({i})");
                ones += bits.get(i) as usize;
            }
        }
        assert_eq!(rrr.count_ones(), ones);
        // Paired ranks across the whole position spectrum, including
        // same-block and cross-directory-stratum pairs.
        let n = bits.len();
        for (i, j) in [
            (0, n),
            (n / 3, (n / 3 + 1).min(n)),
            (n / 2, (n / 2 + b / 2).min(n)),
            (1.min(n), n.saturating_sub(1)),
            (n / 4, 3 * n / 4),
        ] {
            let (a, bb) = rrr.rank1_pair(i, j);
            assert_eq!((a, bb), (rrr.rank1(i), rrr.rank1(j)), "pair({i},{j}) b={b}");
        }
    }

    #[test]
    fn rank_access_paper_block_sizes() {
        for &b in &[15usize, 31, 63] {
            check(&pseudo_bits(2000, 50, 7), b);
            check(&pseudo_bits(2000, 5, 11), b);
            check(&pseudo_bits(2000, 95, 13), b);
        }
    }

    #[test]
    fn odd_block_sizes_and_lengths() {
        for &b in &[1usize, 2, 3, 7, 40, 63] {
            for &n in &[0usize, 1, 62, 63, 64, 65, 1000, 1024] {
                check(&pseudo_bits(n, 30, b as u64 * 1000 + n as u64 + 1), b);
            }
        }
    }

    #[test]
    fn all_zero_and_all_one() {
        for &b in &[15usize, 63] {
            check(&BitBuf::from_bools(std::iter::repeat(false).take(500)), b);
            check(&BitBuf::from_bools(std::iter::repeat(true).take(500)), b);
        }
    }

    #[test]
    fn spans_every_directory_stratum() {
        // Long enough for several super (128-block), major (32-block) and
        // minor (8-block) groups at b = 63; checks ranks across them all.
        let bits = pseudo_bits(63 * 128 * 3 + 17, 40, 21);
        let rrr = RrrBitVec::new(&bits, 63);
        let mut ones = 0usize;
        for i in 0..bits.len() {
            if i % 251 == 0 {
                assert_eq!(rrr.rank1(i), ones, "rank1({i})");
            }
            ones += bits.get(i) as usize;
        }
        assert_eq!(rrr.rank1(bits.len()), ones);
    }

    #[test]
    fn raw_parts_roundtrip() {
        let bits = pseudo_bits(10_000, 35, 3);
        let rrr = RrrBitVec::new(&bits, 63);
        let (b, len, classes, offsets, ones) = rrr.raw_parts();
        let back =
            RrrBitVec::from_raw_parts(b, len, classes.clone(), offsets.clone(), ones).unwrap();
        for i in (0..len).step_by(97) {
            assert_eq!(back.rank1(i), rrr.rank1(i), "rank1({i})");
            assert_eq!(back.get(i), rrr.get(i), "get({i})");
        }
        // A corrupted ones count is rejected (directory disagrees).
        assert!(
            RrrBitVec::from_raw_parts(b, len, classes.clone(), offsets.clone(), ones + 1).is_none()
        );
        // ... and so is a truncated offsets stream.
        let truncated = BitBuf::from_bools(offsets.iter().take(offsets.len() - 1));
        assert!(RrrBitVec::from_raw_parts(b, len, classes.clone(), truncated, ones).is_none());
    }

    #[test]
    fn parallel_build_is_byte_identical() {
        use crate::serial::Persist;
        // Long enough to clear PAR_BUILD_MIN_BLOCKS at every block size,
        // with an odd tail block.
        let bits = pseudo_bits(63 * (1 << 13) + 41, 37, 9);
        for &b in &[15usize, 31, 63] {
            let seq = RrrBitVec::new(&bits, b);
            let mut seq_bytes = Vec::new();
            seq.persist(&mut seq_bytes).unwrap();
            for threads in [2usize, 3, 4, 8] {
                let par = RrrBitVec::with_threads(&bits, b, threads);
                let mut par_bytes = Vec::new();
                par.persist(&mut par_bytes).unwrap();
                assert_eq!(par_bytes, seq_bytes, "b={b} threads={threads}");
            }
            // Answers agree too (spot check across directory strata).
            let par = RrrBitVec::with_threads(&bits, b, 4);
            for i in (0..bits.len()).step_by(997) {
                assert_eq!(par.rank1(i), seq.rank1(i), "rank1({i}) b={b}");
            }
        }
    }

    #[test]
    fn compresses_biased_bits() {
        // 2% density: RRR must be far below 1 bit/bit.
        let bits = pseudo_bits(200_000, 2, 5);
        let rrr = RrrBitVec::new(&bits, 63);
        let bits_per_bit = rrr.size_in_bits() as f64 / bits.len() as f64;
        assert!(bits_per_bit < 0.35, "RRR used {bits_per_bit:.3} bits/bit");
    }

    #[test]
    fn overhead_grows_as_block_shrinks() {
        // h(b) = lg(b+1)/b decreases with b, so b=63 must be smaller than b=15
        // on compressible data.
        let bits = pseudo_bits(100_000, 10, 3);
        let small_b = RrrBitVec::new(&bits, 15).size_in_bytes();
        let large_b = RrrBitVec::new(&bits, 63).size_in_bytes();
        assert!(large_b < small_b, "b=63 {large_b} >= b=15 {small_b}");
    }

    #[test]
    fn binomial_sanity() {
        let t = BinomialTable::new();
        assert_eq!(t.get(0, 0), 1);
        assert_eq!(t.get(63, 0), 1);
        assert_eq!(t.get(63, 63), 1);
        assert_eq!(t.get(5, 2), 10);
        assert_eq!(t.get(63, 31), 916312070471295267);
        assert_eq!(t.get(2, 3), 0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (b, c) pairs index two tables
    fn width_table_matches_direct_computation() {
        let binom = binom();
        let table = offset_width_table();
        for b in 1..=63usize {
            for c in 0..=b {
                assert_eq!(
                    table[b][c] as usize,
                    offset_width(b, c, binom),
                    "width({b},{c})"
                );
            }
        }
    }

    #[test]
    fn encode_decode_block_exhaustive_small() {
        let binom = BinomialTable::new();
        let b = 10;
        for word in 0u64..(1 << b) {
            let c = word.count_ones() as usize;
            let off = encode_block(word, b, c);
            assert!(off < binom.get(b, c));
            for p in 0..=b {
                let expect = (word & ((1u64 << p) - 1)).count_ones() as usize;
                assert_eq!(decode_prefix_ones(off, b, c, p), expect, "ones p={p}");
                assert_eq!(
                    decode_prefix_word(off, b, c, p),
                    word & ((1u64 << p) - 1),
                    "prefix word off={off} c={c} p={p}"
                );
                let p2 = (p + 3).min(b);
                let expect2 = (word & ((1u64 << p2) - 1)).count_ones() as usize;
                assert_eq!(
                    decode_prefix_ones2(off, b, c, p, p2),
                    (expect, expect2),
                    "ones2 p={p} p2={p2}"
                );
            }
        }
    }

    #[test]
    fn paired_decode_matches_singles_exhaustive_small() {
        let b = 9;
        for w1 in 0u64..(1 << b) {
            // A shifted partner pattern exercises unequal classes/offsets.
            let w2 = (w1.wrapping_mul(0x9e37) ^ (w1 >> 3)) & ((1 << b) - 1);
            let (c1, c2) = (w1.count_ones() as usize, w2.count_ones() as usize);
            let o1 = encode_block(w1, b, c1);
            let o2 = encode_block(w2, b, c2);
            for p1 in 0..=b {
                let p2 = (p1 * 5 + 3) % (b + 1);
                let got = decode_prefix_ones_pair(o1, c1, p1, o2, c2, p2, b);
                let want = (
                    (w1 & ((1u64 << p1) - 1)).count_ones() as usize,
                    (w2 & ((1u64 << p2) - 1)).count_ones() as usize,
                );
                assert_eq!(got, want, "w1={w1:b} w2={w2:b} p1={p1} p2={p2}");
            }
        }
    }
}
