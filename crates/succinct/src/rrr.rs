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
//! `H0(B) + h(b)` with `h(b) = log2(b+1) / b` overhead (paper Eq. (11)).
//! The paper's in-block rank is an `O(b)` enumerative walk (Theorem 5
//! footnote); the block code used here keeps the same classes and offset
//! widths — hence the same bytes and the same space bound — and decodes in
//! `O(log b)` splits: at most two for `b = 63`, one for 31, none for 15.
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
//! 3. **Split block code** — a block wider than [`LEAF_BITS`] is the pair
//!    of its halves ([`Split`]): `cum[c][c1] + o1 · C(n2, c2) + o2`,
//!    recursively, a bijection onto `[0, C(n, c))` by Vandermonde's
//!    identity. Decoding towards position `p` ([`decode_leaf`]) is, per
//!    split, a branch-free search for `c1` in one table row plus one
//!    division, then one load from [`leaf_words`] — the 65 536 16-bit words
//!    grouped by popcount, which number and decode every leaf width of every
//!    block size. The lexicographic code it replaced cost one table probe
//!    per bit position (≈ 70 % of a `b = 63` rank on near-uniform wavelet
//!    levels).
//! 4. **One decode behind every entry point** — `rank1`, `get`,
//!    [`RrrBitVec::get_and_rank1`] (the wavelet `access` descent) and both
//!    halves of [`RrrBitVec::rank1_pair`] are a popcount or a bit test on
//!    the decoded leaf; an `sp`/`ep` pair that narrows into one leaf takes
//!    one seek and one decode.
//!
//! The tables are process-wide [`OnceLock`] statics shared by builds and
//! queries on every thread, outside any index's reported size: the binomial
//! table (33 KiB), the leaf words and their inverse (128 KiB each; the
//! inverse is the encoder's) and, per block size in use, the split plan
//! (≈ 35 KiB at `b = 63`, ≈ 9 KiB at 31, nothing at 15).
//!
//! Unit and property tests pin every entry point to a naive bit-by-bit count
//! over the uncompressed input, and the block code to a literal table;
//! `benchmark/` reports `succinct.rrr_rank1_ns` and
//! `succinct.rrr_rank1_pair_ns` (see `PERFORMANCE.md`).

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

/// Widest leaf of the split code: a block, or a half of one, of at most
/// this many bits is numbered and decoded by one [`leaf_words`] lookup.
const LEAF_BITS: usize = 16;

/// Process-wide leaf tables: `words` is every 16-bit word, grouped by
/// popcount and in numeric order within a group, `starts[c]` group `c`'s
/// first index, and `index[w]` the position of `w` within its group (the
/// inverse, read by the encoder only). A word confined to its low `n ≤ 16`
/// bits precedes every wider word of its popcount, so its index in the
/// group is also its index among the `C(n, c)` words of that width — one
/// pair of tables serves every leaf width.
struct LeafWords {
    words: Box<[u16; 1 << LEAF_BITS]>,
    starts: [u32; 32],
    index: Box<[u16; 1 << LEAF_BITS]>,
}

static LEAF_WORDS: OnceLock<LeafWords> = OnceLock::new();

#[inline]
fn leaf_words() -> &'static LeafWords {
    LEAF_WORDS.get_or_init(|| {
        let mut starts = [0u32; 32];
        for c in 1..=LEAF_BITS {
            starts[c] = starts[c - 1] + binom().get(LEAF_BITS, c - 1) as u32;
        }
        let mut next = starts;
        let mut words = vec![0u16; 1 << LEAF_BITS];
        let mut index = vec![0u16; 1 << LEAF_BITS];
        for w in 0..=u16::MAX {
            let c = w.count_ones() as usize;
            words[next[c] as usize] = w;
            index[w as usize] = (next[c] - starts[c]) as u16;
            next[c] += 1;
        }
        let boxed = |v: Vec<u16>| v.into_boxed_slice().try_into().expect("2^16 entries");
        LeafWords {
            words: boxed(words),
            starts,
            index: boxed(index),
        }
    })
}

/// Entries per [`Split::cum`] row: `c1 ∈ 0 ..= 32`, plus the end sentinel.
const CUM_ROW: usize = 34;

/// End sentinel of a [`Split::cum`] row: above every offset (widths are
/// ≤ 60 bits), below 2⁶³ (see [`entries_at_most`]).
const CUM_END: u64 = u64::MAX >> 1;

/// Candidates of the windowed class search in [`Split::low_class`].
const WINDOW: usize = 8;

/// One inner node of a block size's split code: `n > LEAF_BITS` bits of
/// class `c` are the pair (low `n1 = ⌈n/2⌉` bits of class `c1`, high
/// `n2 = n − n1` bits of class `c2 = c − c1`), numbered
/// `cum[c][c1] + o1 · C(n2, c2) + o2`. By Vandermonde's identity the code is
/// a bijection onto `[0, C(n, c))`, so classes and offset widths are those
/// of any other enumerative code.
struct Split {
    n1: usize,
    /// `cum[c][j] = Σ_{i<j} C(n1, i) · C(n2, c − i)` up to the largest
    /// feasible `c1`, [`CUM_END`] beyond it: the `c1` of an offset is the
    /// number of entries `j ≥ 1` not above it, and is feasible (so the
    /// divisor below is ≥ 1) for *any* offset value, valid or not.
    cum: Vec<[u64; CUM_ROW]>,
    /// `c1` lies in `window[c] ..= window[c] + WINDOW` for all but the tails
    /// of its (hypergeometric, σ ≤ 2) distribution.
    window: [u8; 64],
    /// `high_count[c2] = C(n2, c2)`.
    high_count: [u64; 32],
    low: Plan,
    high: Plan,
}

/// The split code of one width: `None` is a leaf.
type Plan = Option<Box<Split>>;

fn build_plan(n: usize) -> Plan {
    if n <= LEAF_BITS {
        return None;
    }
    let binom = binom();
    let (n1, n2) = (n.div_ceil(2), n / 2);
    let mut cum = vec![[CUM_END; CUM_ROW]; n + 1];
    let mut window = [0u8; 64];
    for (c, row) in cum.iter_mut().enumerate() {
        let last = c.min(n1);
        let mut sum = 0u64;
        for (j, entry) in row.iter_mut().enumerate().take(last + 1) {
            *entry = sum;
            sum += binom.get(n1, j) * binom.get(n2, c - j);
        }
        // Centred on the mode, pulled down to end at the last feasible
        // class (which also keeps `start + WINDOW + 1` inside the row).
        let mode = (c + 1) * (n1 + 1) / (n + 2);
        let centred = mode.saturating_sub(WINDOW / 2);
        window[c] = centred.min(last.saturating_sub(WINDOW)) as u8;
    }
    let mut high_count = [0u64; 32];
    for (c2, count) in high_count.iter_mut().enumerate() {
        *count = binom.get(n2, c2);
    }
    Some(Box::new(Split {
        n1,
        cum,
        window,
        high_count,
        low: build_plan(n1),
        high: build_plan(n2),
    }))
}

/// Process-wide split plans, one per block size in use (≈ 35 KiB at
/// `b = 63`), built on first use like the binomial table.
static PLANS: [OnceLock<Plan>; 64] = [UNBUILT; 64];
#[allow(clippy::declare_interior_mutable_const)] // array-repeat seed only
const UNBUILT: OnceLock<Plan> = OnceLock::new();

#[inline]
fn plan(b: usize) -> &'static Plan {
    PLANS[b].get_or_init(|| build_plan(b))
}

/// Entries of a non-decreasing [`Split::cum`] slice that are `≤ offset`.
/// Entries and offsets are below 2⁶³, so `offset − entry` borrows into the
/// top bit exactly when `entry > offset`: the count is a sum of shifted
/// differences, which baseline x86-64 vectorises (it has no unsigned 64-bit
/// compare to vectorise the obvious `filter().count()` with).
#[inline]
fn entries_at_most(entries: &[u64], offset: u64) -> usize {
    let above: u64 = entries.iter().map(|e| offset.wrapping_sub(*e) >> 63).sum();
    entries.len() - above as usize
}

impl Split {
    /// Class `c1` of the low half of the pair numbered `offset` within
    /// class `c`, and the pair's index among those of `(c1, c − c1)`:
    /// [`WINDOW`] branch-free compares around the mode, the whole row when
    /// the offset falls outside that window.
    #[inline]
    fn low_class(&self, c: usize, offset: u64) -> (usize, u64) {
        let row = &self.cum[c & 63];
        let start = self.window[c & 63] as usize;
        let c1 = if row[start] <= offset && offset < row[start + WINDOW + 1] {
            start + entries_at_most(&row[start + 1..=start + WINDOW], offset)
        } else {
            entries_at_most(&row[1..], offset)
        };
        (c1, offset - row[c1])
    }
}

/// Offset of `word` (popcount `c`, confined to the plan's width) in the
/// split code.
fn encode_block(plan: &Plan, word: u64, c: usize) -> u64 {
    let Some(split) = plan else {
        return leaf_words().index[word as usize] as u64;
    };
    let low = word & low_mask(split.n1);
    let c1 = low.count_ones() as usize;
    split.cum[c][c1]
        + encode_block(&split.low, low, c1) * split.high_count[c - c1]
        + encode_block(&split.high, word >> split.n1, c - c1)
}

/// The leaf of a block that holds in-block position `p`.
struct Leaf {
    /// The leaf's bits (bit `k` = block bit `start + k`).
    word: u64,
    /// Ones of the block before the leaf.
    ones: usize,
    /// In-block positions `start .. end` are the leaf's.
    start: usize,
    end: usize,
}

impl Leaf {
    /// Ones of the block before position `p ∈ start ..= end`.
    #[inline]
    fn rank(&self, p: usize) -> usize {
        self.ones + (self.word & low_mask(p - self.start)).count_ones() as usize
    }

    #[inline]
    fn bit(&self, p: usize) -> bool {
        (self.word >> (p - self.start)) & 1 == 1
    }
}

/// Decode the leaf holding position `p` of the `b`-bit block `(c, offset)`:
/// at most two splits (`b ≤ 63` halves to ≤ 32, then ≤ 16), each one class
/// search and one division, then one table load. Every in-block query is a
/// popcount or a bit test on the result. Never panics or divides by zero on
/// an offset outside `[0, C(b, c))` (it returns *some* leaf).
#[inline]
fn decode_leaf(plan: &Plan, b: usize, mut c: usize, mut offset: u64, p: usize) -> Leaf {
    let (mut node, mut ones, mut start, mut end) = (plan, 0usize, 0usize, b);
    while let Some(split) = node {
        let (c1, pair) = split.low_class(c, offset);
        let c2 = c - c1;
        let high_count = split.high_count[c2 & 31];
        if p < start + split.n1 {
            (node, c, offset, end) = (&split.low, c1, pair / high_count, start + split.n1);
        } else {
            (node, c, offset, ones) = (&split.high, c2, pair % high_count, ones + c1);
            start += split.n1;
        }
    }
    let table = leaf_words();
    let index = (table.starts[c & 31] as u64).wrapping_add(offset) as usize;
    let word = table.words[index & ((1 << LEAF_BITS) - 1)] as u64;
    Leaf {
        word,
        ones,
        start,
        end,
    }
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
/// against them. `None` when a class exceeds `b` (representable whenever
/// `b + 1` is not a power of two, and no row of any table).
fn build_directory(
    b: usize,
    n_blocks: usize,
    classes: &BitBuf,
    class_width: usize,
) -> Option<(Directory, u64, u64)> {
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
        if c > b {
            return None;
        }
        ones += c as u64;
        ptr += widths[b][c] as u64;
    }
    minors.shrink_to_fit();
    let dir = Directory {
        super_ranks,
        super_ptrs,
        majors,
        minors,
        minor_ones_bits: ones_bits,
    };
    Some((dir, ones, ptr))
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
    let plan = plan(b);
    for blk in start_blk..end_blk {
        let start = blk * b;
        let width = b.min(len - start);
        // Bits beyond `len` in the last block are implicit zeros.
        let word = bits.get_bits(start, width);
        let c = word.count_ones() as usize;
        classes.push_bits(c as u64, class_width);
        let ow = offset_width(b, c, binom);
        let off = encode_block(plan, word, c);
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
        let (dir, dir_ones, dir_ptr) = build_directory(b, n_blocks, &classes, class_width)
            .expect("the encoder emits classes <= b");
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
    /// a class above `b` and an `ones` count that disagrees with the
    /// classes). Rebuilds the rank directory. Offset *values* are not
    /// checked: one outside its class's range decodes to some answer.
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
        let (dir, dir_ones, dir_ptr) = build_directory(b, n_blocks, &classes, class_width)?;
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

    /// Seek block `blk` and fetch its offset: `(ones_before_block, class,
    /// offset)`, the input of [`decode_leaf`].
    #[inline]
    fn block(&self, blk: usize) -> (usize, usize, u64) {
        let widths = &offset_width_table()[self.b];
        let (ones, ptr, c) = self.seek(blk, widths);
        let off = self.offsets.get_bits(ptr as usize, widths[c & 63] as usize);
        (ones as usize, c, off)
    }

    /// `(get(i), rank1(i))` from one directory seek and one block decode:
    /// the wavelet-tree access descent's primitive.
    pub fn get_and_rank1(&self, i: usize) -> (bool, usize) {
        debug_assert!(i < self.len);
        let (ones, c, off) = self.block(i / self.b);
        let p = i % self.b;
        let leaf = decode_leaf(plan(self.b), self.b, c, off, p);
        (leaf.bit(p), ones + leaf.rank(p))
    }

    /// `(rank1(i), rank1(j))`, answer-identical to two [`BitRank::rank1`]
    /// calls. Backward-search callers rank `sp` and `ep` together through
    /// this: narrowed ranges usually land both in one block (one seek), and
    /// often in one leaf (one decode + two popcounts).
    pub fn rank1_pair(&self, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i <= self.len && j <= self.len);
        if i == 0 || i == self.len || j == 0 || j == self.len || i / self.b != j / self.b {
            return (self.rank1(i), self.rank1(j));
        }
        let (ones, c, off) = self.block(i / self.b);
        let plan = plan(self.b);
        let (p1, p2) = (i % self.b, j % self.b);
        let leaf1 = decode_leaf(plan, self.b, c, off, p1);
        let r2 = if (leaf1.start..=leaf1.end).contains(&p2) {
            leaf1.rank(p2)
        } else {
            decode_leaf(plan, self.b, c, off, p2).rank(p2)
        };
        (ones + leaf1.rank(p1), ones + r2)
    }
}

impl BitRank for RrrBitVec {
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (_, c, off) = self.block(i / self.b);
        let p = i % self.b;
        decode_leaf(plan(self.b), self.b, c, off, p).bit(p)
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
        let (ones, c, off) = self.block(i / self.b);
        let p = i % self.b;
        ones + decode_leaf(plan(self.b), self.b, c, off, p).rank(p)
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

    /// Naive in-block answers at position `p` of `word`.
    fn naive(word: u64, p: usize) -> (bool, usize) {
        (
            (word >> p) & 1 == 1,
            (word & low_mask(p)).count_ones() as usize,
        )
    }

    /// Kernel round trip of one block: the offset is in range and every
    /// position decodes to the naive bit and rank.
    fn check_block(b: usize, word: u64) {
        let c = word.count_ones() as usize;
        let off = encode_block(plan(b), word, c);
        assert!(off < binom().get(b, c), "b={b} word={word:#x} off={off}");
        for p in 0..b {
            let leaf = decode_leaf(plan(b), b, c, off, p);
            assert!(leaf.start <= p && p < leaf.end && leaf.end <= b);
            assert_eq!(
                (leaf.bit(p), leaf.rank(p)),
                naive(word, p),
                "b={b} word={word:#x} p={p}"
            );
            assert_eq!(leaf.rank(leaf.end), naive(word, leaf.end).1);
        }
    }

    #[test]
    fn encode_decode_block_exhaustive_small() {
        for b in 1..=12usize {
            let mut seen = vec![false; 1 << b];
            for word in 0u64..(1 << b) {
                check_block(b, word);
                // Bijection per class: (class, offset) pairs are distinct.
                let c = word.count_ones() as usize;
                let rank_base: u64 = (0..c).map(|k| binom().get(b, k)).sum();
                let slot = (rank_base + encode_block(plan(b), word, c)) as usize;
                assert!(!std::mem::replace(&mut seen[slot], true), "b={b} {word:#x}");
            }
        }
    }

    #[test]
    fn block_code_golden_table() {
        // (b, word, class, offset): pinned literally so a change to the
        // block code fails here, one level below the index digests.
        const GOLDEN: [(usize, u64, usize, u64); 21] = [
            (15, 0x0, 0, 0),       // all zero
            (15, 0x7fff, 15, 0),   // all one
            (15, 0x1, 1, 0),       // lowest bit
            (15, 0x4000, 1, 14),   // highest bit
            (15, 0x5555, 8, 4081), // alternating
            (15, 0x5f77, 12, 144), // dense
            (15, 0x1082, 3, 242),  // sparse
            (31, 0x0, 0, 0),
            (31, 0x7fff_ffff, 31, 0),
            (31, 0x1, 1, 15),
            (31, 0x4000_0000, 1, 14),
            (31, 0x5555_5555, 16, 114_421_576),
            (31, 0x5fff_7ff7, 28, 726),
            (31, 0x1000_8002, 3, 3737),
            (63, 0x0, 0, 0),
            (63, 0x7fff_ffff_ffff_ffff, 63, 0),
            (63, 0x1, 1, 47),
            (63, 0x4000_0000_0000_0000, 1, 14),
            (63, 0x5555_5555_5555_5555, 32, 403_889_897_712_369_892),
            (63, 0x5fff_ffff_7fff_fff7, 60, 14_649),
            (63, 0x1000_0000_8000_0002, 3, 24_068),
        ];
        for (b, word, class, offset) in GOLDEN {
            assert_eq!(word.count_ones() as usize, class, "b={b} {word:#x}");
            assert_eq!(
                encode_block(plan(b), word, class),
                offset,
                "b={b} {word:#x}"
            );
            check_block(b, word);
        }
    }

    #[test]
    fn split_plans_satisfy_vandermonde() {
        fn check_node(n: usize, node: &Plan) {
            let Some(split) = node else {
                assert!(n <= LEAF_BITS);
                return;
            };
            let (n1, n2) = (split.n1, n - split.n1);
            assert_eq!((n1, n2), (n.div_ceil(2), n / 2));
            assert_eq!(split.cum.len(), n + 1);
            for (c, row) in split.cum.iter().enumerate() {
                let last = c.min(n1);
                let last_term = binom().get(n1, last) * binom().get(n2, c - last);
                assert_eq!(row[last] + last_term, binom().get(n, c), "n={n} c={c}");
                assert!(row[last + 1..].iter().all(|&e| e == CUM_END));
                assert!(row[..=last].windows(2).all(|w| w[0] <= w[1]));
                // The window sits on feasible classes (or below them, where
                // the row is zero) and never reaches past the row.
                let start = split.window[c] as usize;
                assert!(start <= last && start + WINDOW + 1 < CUM_ROW);
            }
            check_node(n1, &split.low);
            check_node(n2, &split.high);
        }
        for b in 1..=63usize {
            check_node(b, plan(b));
        }
    }

    #[test]
    fn uneven_splits_match_popcounts() {
        // Odd widths: uneven halves, and leaves narrower than 16 bits.
        for &b in &[17usize, 33, 47, 63] {
            for &density in &[3u64, 25, 50, 97] {
                let words = 10_000;
                let bits = pseudo_bits(words * b, density, (b as u64) << 8 | density);
                let rrr = RrrBitVec::new(&bits, b);
                let mut before = 0usize;
                for k in 0..words {
                    let word = bits.get_bits(k * b, b);
                    check_block(b, word);
                    // Through the public entry points: a pair inside the
                    // block (same or different leaves) and one leaving it.
                    let (p1, p2) = (k % b, (k * 7 + 3) % b);
                    let (i, j) = (k * b + p1, k * b + p2);
                    let want = (before + naive(word, p1).1, before + naive(word, p2).1);
                    assert_eq!(rrr.rank1_pair(i, j), want, "pair b={b} k={k}");
                    assert_eq!(rrr.rank1_pair(k * b, j), (before, want.1));
                    assert_eq!(rrr.get_and_rank1(i), (naive(word, p1).0, want.0));
                    before += word.count_ones() as usize;
                }
                assert_eq!(rrr.count_ones(), before);
            }
        }
    }

    #[test]
    fn paired_decode_matches_singles_exhaustive_small() {
        // Every (i, j) over two 9-bit blocks, every first block.
        let b = 9;
        for w1 in 0u64..(1 << b) {
            // A shifted partner pattern exercises unequal classes/offsets.
            let w2 = (w1.wrapping_mul(0x9e37) ^ (w1 >> 3)) & ((1 << b) - 1);
            let mut bits = BitBuf::new();
            bits.push_bits(w1, b);
            bits.push_bits(w2, b);
            let rrr = RrrBitVec::new(&bits, b);
            let all = w1 | (w2 << b);
            for i in 0..=2 * b {
                for j in 0..=2 * b {
                    let want = (naive(all, i).1, naive(all, j).1);
                    assert_eq!(
                        rrr.rank1_pair(i, j),
                        want,
                        "w1={w1:b} w2={w2:b} i={i} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn class_above_block_size_is_rejected() {
        // b = 10 stores classes in 4 bits, so 11..=15 are representable.
        let b = 10;
        let bits = pseudo_bits(400, 50, 17);
        let rrr = RrrBitVec::new(&bits, b);
        let (_, len, classes, offsets, ones) = rrr.raw_parts();
        let mut hostile = BitBuf::new();
        hostile.push_bits(11, 4);
        for blk in 1..len.div_ceil(b) {
            hostile.push_bits(classes.get_bits(blk * 4, 4), 4);
        }
        // Totals are kept consistent with the forged class (width 0 is what
        // the unchecked scan priced it at), so only the class check can
        // refuse it.
        let first = classes.get_bits(0, 4) as usize;
        let skip = offset_width_table()[b][first] as usize;
        let tail = BitBuf::from_bools(offsets.iter().skip(skip));
        assert!(
            RrrBitVec::from_raw_parts(b, len, hostile, tail, ones - first + 11).is_none(),
            "class 11 accepted at b = 10"
        );
    }

    #[test]
    fn out_of_range_offsets_decode_without_panic() {
        // An offset in [C(b, c), 2^width) is representable on disk and
        // passes `from_raw_parts` (totals only): every entry point must
        // still return *some* in-range answer.
        for &b in &[15usize, 31, 63] {
            let bits = pseudo_bits(40_000, 45, b as u64);
            let rrr = RrrBitVec::new(&bits, b);
            let (_, len, classes, offsets, ones) = rrr.raw_parts();
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ b as u64;
            let mut next = move |bound: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as usize % bound
            };
            for round in 0..20 {
                // Progressively noisier: 1, 2, 4, ... flipped bits, then
                // every bit set (each offset at its width's maximum).
                let mut mutated: Vec<bool> = offsets.iter().collect();
                if round == 19 {
                    mutated.iter_mut().for_each(|bit| *bit = true);
                } else {
                    for _ in 0..(1usize << round.min(12)) {
                        let at = next(mutated.len());
                        mutated[at] = !mutated[at];
                    }
                }
                let hostile = RrrBitVec::from_raw_parts(
                    b,
                    len,
                    classes.clone(),
                    BitBuf::from_bools(mutated),
                    ones,
                )
                .expect("totals unchanged");
                for _ in 0..1000 {
                    let (i, j) = (next(len), next(len + 1));
                    assert!(hostile.rank1(j) <= len);
                    let _ = hostile.get(i);
                    let (_, rank) = hostile.get_and_rank1(i);
                    assert!(rank <= len);
                    let near = (i + next(b)).min(len);
                    let (ri, rj) = hostile.rank1_pair(i, near);
                    assert!(ri <= len && rj <= len);
                    let _ = hostile.rank1_pair(i, j);
                }
            }
        }
    }
}
