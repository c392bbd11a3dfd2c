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
//! A vector built by [`RrrBitVec::hybrid`] stores each group of
//! [`SAMPLE_RATE`] blocks raw where that is strictly smaller (layer 5), so
//! its space is the per-group minimum of that bound and one bit per bit.
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
//! 5. **Raw groups** — on near-uniform bitmaps RRR saves nothing (a
//!    class plus a ≈ `b − 3`-bit offset per block) and every rank still
//!    pays a decode. [`RrrBitVec::hybrid`] stores a major group raw when
//!    its raw bits are strictly fewer than its classes plus offsets,
//!    after Kärkkäinen, Kempa & Puglisi's hybrid FM-index bitvectors (DCC
//!    2014). A raw group's first bits fill its class slots and the rest
//!    take the place of its offsets, so the class stream, the directory
//!    and every enumerative block are laid out as in a pure vector; one
//!    flag per group (persisted, and packed into the major entry on load)
//!    tells them apart. In a raw group the minor entries hold ones only,
//!    derived on load by a popcount pass. Every entry point reads the raw
//!    flag from the major entry before any enumerative work, and one raw
//!    routine (`RrrBitVec::raw`) answers it: the bit and the ones before
//!    it in a single pass over at most `MINOR_RATE · b` bits (≤ 8 words)
//!    from the first bit of the minor stretch. A stretch that starts past
//!    the class slots is counted over the offsets stream alone; one that
//!    starts inside them (a group's first, and every one for `b ≤ 19`,
//!    where `8 · b < 32 · ⌈log₂(b + 1)⌉`) counts both streams. No entry
//!    point divides at run time: block index and in-block position are a
//!    multiply-high by a reciprocal of `b` (`Reciprocal`, after Granlund
//!    & Montgomery, PLDI 1994), derived on build and open and never
//!    persisted, exact below 2⁵⁷ bits ([`RrrBitVec::from_raw_parts`]
//!    refuses longer vectors). Every entry point is `#[inline]`, so it is
//!    compiled into the crate of a caller's generic wavelet descent.
//!
//! The tables are process-wide [`OnceLock`] statics shared by builds and
//! queries on every thread, outside any index's reported size: the binomial
//! table (33 KiB), the leaf words and their inverse (128 KiB each; the
//! inverse is the encoder's) and, per block size in use, the split plan
//! (≈ 35 KiB at `b = 63`, ≈ 9 KiB at 31, nothing at 15).
//!
//! Unit and property tests pin every entry point to a naive bit-by-bit count
//! over the uncompressed input, and the block code and the per-group
//! raw-or-RRR choice to literal tables;
//! `benchmark/` reports `succinct.rrr_rank1_ns` and
//! `succinct.rrr_rank1_pair_ns` (see `PERFORMANCE.md`).

use crate::bits::BitBuf;
use crate::int_vec::IntVec;
use crate::traits::{BitRank, BitVecBuild, SpaceUsage};
use std::ops::Range;
use std::sync::OnceLock;

/// Super sample rate, in blocks: absolute 64-bit `(ones, offset-bits)`.
const SUPER_RATE: usize = 128;

/// Major sample rate, in blocks: 16+15-bit counters relative to the super
/// sample and a raw flag, packed in one `u32`. `(SUPER_RATE − SAMPLE_RATE)
/// · 63 < 2¹⁵` keeps the counters in range for every supported `b`. Each
/// major group is stored raw or enumeratively as a whole.
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

/// Flag bit of a packed major entry: the group is stored raw. The ones
/// half stays below it, since `(SUPER_RATE − SAMPLE_RATE) · 63 < 2¹⁵`.
const RAW_FLAG: u32 = 1 << 15;

/// The blocks of major group `g` (the last group may be partial).
#[inline]
fn group_blocks(g: usize, n_blocks: usize) -> Range<usize> {
    let first = g * SAMPLE_RATE;
    first..(first + SAMPLE_RATE).min(n_blocks)
}

/// Where a raw group's bits are stored: its first `head` bits in the
/// group's class slots (from bit `cls` of the class stream), the rest in
/// the offsets stream from bit `ptr`. Its methods take bit positions
/// relative to the group's first bit.
#[derive(Clone, Copy, Debug)]
struct RawGroup {
    cls: usize,
    head: usize,
    ptr: usize,
}

impl RawGroup {
    /// `(bit v, ones among bits from .. v)` of the group: one popcount of
    /// the offsets stream where `from` lies past the class slots, of the
    /// slots alone where `v` does not, and of both otherwise.
    #[inline]
    fn bit_and_ones(
        &self,
        classes: &BitBuf,
        offsets: &BitBuf,
        from: usize,
        v: usize,
    ) -> (bool, usize) {
        let (mut from, mut ones) = (from, 0);
        if from < self.head {
            if v < self.head {
                return classes.bit_and_ones_before(self.cls + from, self.cls + v);
            }
            ones = classes.count_ones_in(self.cls + from..self.cls + self.head);
            from = self.head;
        }
        let (bit, rest) =
            offsets.bit_and_ones_before(self.ptr + from - self.head, self.ptr + v - self.head);
        (bit, ones + rest)
    }
}

/// Longest vector, in bits: [`Reciprocal`] divides every position below
/// it exactly. [`RrrBitVec::from_raw_parts`] refuses longer ones.
const MAX_LEN: u64 = 1 << 57;

/// Division by the block size `b ∈ 1..=63` as a multiply-high (Granlund &
/// Montgomery, PLDI 1994): with `m = ⌈2⁶³ / b⌉`, `⌊n · m / 2⁶³⌋ = ⌊n / b⌋`
/// for every `n < MAX_LEN`, since `n · (m · b − 2⁶³) < 2⁵⁷ · b ≤ 2⁶³`.
/// Derived from `b` on build and open, never persisted.
#[derive(Clone, Copy, Debug)]
struct Reciprocal {
    b: usize,
    m: u64,
}

impl Reciprocal {
    fn new(b: usize) -> Self {
        debug_assert!((1..=63).contains(&b));
        let m = (1u64 << 63).div_ceil(b as u64);
        Self { b, m }
    }

    /// `(n / b, n % b)` for `n < MAX_LEN`.
    #[inline]
    fn div_rem(self, n: usize) -> (usize, usize) {
        debug_assert!((n as u64) < MAX_LEN);
        let q = ((n as u128 * self.m as u128) >> 63) as usize;
        (q, n - q * self.b)
    }
}

/// The derived rank directory over the packed classes and raw groups;
/// rebuilt on load, never persisted.
#[derive(Clone, Debug)]
struct Directory {
    /// Every SUPER_RATE blocks: absolute cumulative ones before the block.
    super_ranks: Vec<u64>,
    /// Every SUPER_RATE blocks: absolute bit position in `offsets`.
    super_ptrs: Vec<u64>,
    /// Every SAMPLE_RATE blocks: `(offset_bits << 16) | raw | ones`,
    /// relative to the enclosing super sample, with [`RAW_FLAG`] set when
    /// the group is stored raw.
    majors: Vec<u32>,
    /// Every MINOR_RATE blocks not on a major boundary:
    /// `(offset_bits << minor_ones_bits) | ones`, relative to the
    /// enclosing major sample. A raw group's entries hold ones only.
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

/// Build the three-level directory of a `len`-bit vector: class scans for
/// enumerative groups, a popcount pass over each raw group (`raw` holds
/// one flag per group). Also returns the totals the streams imply:
/// `(ones, offset_bits)` — callers validate stored payloads against them.
/// `None` when a class exceeds `b` (representable whenever `b + 1` is not
/// a power of two, and no row of any table) or a raw group runs past the
/// offsets stream.
fn build_directory(
    b: usize,
    len: usize,
    raw: &BitBuf,
    classes: &BitBuf,
    class_width: usize,
    offsets: &BitBuf,
) -> Option<(Directory, u64, u64)> {
    let n_blocks = len.div_ceil(b);
    let (ones_bits, entry_bits) = minor_entry_shape(b);
    let widths = &offset_width_table()[b];
    let mut super_ranks = Vec::with_capacity(n_blocks / SUPER_RATE + 1);
    let mut super_ptrs = Vec::with_capacity(n_blocks / SUPER_RATE + 1);
    let mut majors = Vec::with_capacity(n_blocks / SAMPLE_RATE + 1);
    let mut minors = IntVec::with_capacity(
        entry_bits,
        n_blocks / SAMPLE_RATE * MINORS_PER_SAMPLE + MINORS_PER_SAMPLE,
    );
    let (mut ones, mut ptr) = (0u64, 0u64);
    let (mut sup_ones, mut sup_ptr) = (0u64, 0u64);
    for g in 0..n_blocks.div_ceil(SAMPLE_RATE) {
        let blocks = group_blocks(g, n_blocks);
        if blocks.start % SUPER_RATE == 0 {
            super_ranks.push(ones);
            super_ptrs.push(ptr);
            sup_ones = ones;
            sup_ptr = ptr;
        }
        debug_assert!(ptr - sup_ptr < (1 << 16) && ones - sup_ones < RAW_FLAG as u64);
        let is_raw = raw.get(g);
        let flag = if is_raw { RAW_FLAG } else { 0 };
        majors.push((((ptr - sup_ptr) as u32) << 16) | flag | (ones - sup_ones) as u32);
        let (maj_ones, maj_ptr) = (ones, ptr);
        let (start, end) = (blocks.start * b, (blocks.end * b).min(len));
        let raw_group = is_raw.then_some(RawGroup {
            cls: blocks.start * class_width,
            head: blocks.len() * class_width,
            ptr: ptr as usize,
        });
        let tail = raw_group.map_or(0, |group| (end - start).saturating_sub(group.head));
        if (ptr as usize).checked_add(tail)? > offsets.len() {
            return None;
        }
        // One pass per minor stretch: a popcount of a raw group's bits
        // (its offset-stream position moves only past the whole group),
        // or one fetch of at most eight packed classes.
        for first in blocks.clone().step_by(MINOR_RATE) {
            if first != blocks.start {
                minors.push(((ptr - maj_ptr) << ones_bits) | (ones - maj_ones));
            }
            let last = (first + MINOR_RATE).min(blocks.end);
            if let Some(group) = &raw_group {
                let end = (last * b).min(len) - start - 1;
                let (bit, before) = group.bit_and_ones(classes, offsets, first * b - start, end);
                ones += (before + bit as usize) as u64;
                continue;
            }
            let mut chunk = classes.get_bits(first * class_width, (last - first) * class_width);
            for _ in first..last {
                let c = (chunk & low_mask(class_width)) as usize;
                if c > b {
                    return None;
                }
                ones += c as u64;
                ptr += widths[c] as u64;
                chunk >>= class_width;
            }
        }
        ptr += tail as u64;
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

/// RRR compressed bit vector with runtime block size `b ∈ 1..=63`, whose
/// groups of 32 blocks are each enumerative or, in a vector built by
/// [`RrrBitVec::hybrid`], raw where that is strictly smaller.
#[derive(Clone, Debug)]
pub struct RrrBitVec {
    /// Block size in bits.
    b: usize,
    /// Division by `b` (derived).
    recip: Reciprocal,
    /// Bits needed to store a class value: ceil(log2(b+1)).
    class_width: usize,
    /// Total bits represented.
    len: usize,
    /// Blocks, `⌈len / b⌉` (derived).
    n_blocks: usize,
    /// Packed classes, `class_width` bits each; a raw group's slots hold
    /// its first bits instead.
    classes: BitBuf,
    /// Concatenated variable-width offsets, and the rest of each raw
    /// group's bits in its place.
    offsets: BitBuf,
    /// Derived rank directory (see [`Directory`]).
    dir: Directory,
    ones: usize,
}

/// Encode `bits` group by group into packed classes, offsets and one raw
/// flag per group; a group goes raw only when `hybrid` and strictly
/// smaller. Returns `(classes, offsets, raw)`.
fn encode(bits: &BitBuf, b: usize, class_width: usize, hybrid: bool) -> (BitBuf, BitBuf, BitBuf) {
    let len = bits.len();
    let n_blocks = len.div_ceil(b);
    let widths = &offset_width_table()[b];
    let plan = plan(b);
    let mut classes = BitBuf::with_capacity(n_blocks * class_width);
    let mut offsets = BitBuf::new();
    let mut raw = BitBuf::with_capacity(n_blocks.div_ceil(SAMPLE_RATE));
    // Bits beyond `len` in the last block are implicit zeros.
    let word = |blk: usize| bits.get_bits(blk * b, b.min(len - blk * b));
    for g in 0..n_blocks.div_ceil(SAMPLE_RATE) {
        let blocks = group_blocks(g, n_blocks);
        let (start, end) = (blocks.start * b, (blocks.end * b).min(len));
        let head = blocks.len() * class_width;
        let offset_bits: usize = blocks
            .clone()
            .map(|blk| widths[word(blk).count_ones() as usize] as usize)
            .sum();
        // A raw group's first `head` bits take its class slots, so it is
        // strictly smaller exactly when the rest undercut its offsets.
        let is_raw = hybrid && (end - start).saturating_sub(head) < offset_bits;
        raw.push(is_raw);
        if is_raw {
            let split = (start + head).min(end);
            classes.append_range(bits, start..split);
            // A final group shorter than its class slots is zero-padded.
            (split - start..head).for_each(|_| classes.push(false));
            offsets.append_range(bits, split..end);
            continue;
        }
        for blk in blocks {
            let w = word(blk);
            let c = w.count_ones() as usize;
            classes.push_bits(c as u64, class_width);
            offsets.push_bits(encode_block(plan, w, c), widths[c] as usize);
        }
    }
    (classes, offsets, raw)
}

impl RrrBitVec {
    /// Compress `bits` with block size `b` (clamped to `1..=63`), every
    /// group enumerative: the paper's RRR.
    pub fn new(bits: &BitBuf, b: usize) -> Self {
        Self::encoded(bits, b, false)
    }

    /// Compress `bits` with block size `b` (clamped to `1..=63`), storing
    /// a group raw wherever its raw bits are strictly fewer than its
    /// classes plus offsets. Never larger than [`RrrBitVec::new`].
    pub fn hybrid(bits: &BitBuf, b: usize) -> Self {
        Self::encoded(bits, b, true)
    }

    fn encoded(bits: &BitBuf, b: usize, hybrid: bool) -> Self {
        let b = b.clamp(1, 63);
        let len = bits.len();
        assert!(
            len as u64 <= MAX_LEN,
            "{len} bits exceed the RRR length limit"
        );
        let class_width = (64 - (b as u64).leading_zeros() as usize).max(1);
        let (mut classes, mut offsets, raw) = encode(bits, b, class_width, hybrid);
        classes.shrink_to_fit();
        offsets.shrink_to_fit();
        let (dir, dir_ones, dir_ptr) =
            build_directory(b, len, &raw, &classes, class_width, &offsets)
                .expect("the encoder emits classes <= b");
        debug_assert_eq!(bits.count_ones() as u64, dir_ones);
        debug_assert_eq!(offsets.len() as u64, dir_ptr);
        Self {
            b,
            recip: Reciprocal::new(b),
            class_width,
            len,
            n_blocks: len.div_ceil(b),
            classes,
            offsets,
            dir,
            ones: dir_ones as usize,
        }
    }

    /// The block size `b` this vector was built with.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// One flag per group of 32 blocks, set where the group is stored raw
    /// (persisted beside [`RrrBitVec::raw_parts`]).
    pub fn raw_groups(&self) -> BitBuf {
        BitBuf::from_bools(self.dir.majors.iter().map(|m| m & RAW_FLAG != 0))
    }

    /// Decompose into the persisted streams: `(b, len, classes, offsets,
    /// ones)`; [`RrrBitVec::raw_groups`] is the rest. The rank directory
    /// is derived state and not part of the persisted shape (it is rebuilt
    /// by [`RrrBitVec::from_raw_parts`]).
    pub fn raw_parts(&self) -> (usize, usize, &BitBuf, &BitBuf, usize) {
        (self.b, self.len, &self.classes, &self.offsets, self.ones)
    }

    /// Reassemble from raw fields; `None` on inconsistent shapes (including
    /// a length above 2⁵⁷ bits, a group flag count that is not one per
    /// group, a class above `b`, a raw group past the offsets stream and an
    /// `ones` count that disagrees with the streams). Rebuilds the rank
    /// directory. Offset *values* are not checked: one outside its class's
    /// range decodes to some answer.
    pub fn from_raw_parts(
        b: usize,
        len: usize,
        raw: BitBuf,
        classes: BitBuf,
        offsets: BitBuf,
        ones: usize,
    ) -> Option<Self> {
        if !(1..=63).contains(&b) || ones > len || len as u64 > MAX_LEN {
            return None;
        }
        let class_width = (64 - (b as u64).leading_zeros() as usize).max(1);
        let n_blocks = len.div_ceil(b);
        if classes.len() != n_blocks * class_width || raw.len() != n_blocks.div_ceil(SAMPLE_RATE) {
            return None;
        }
        let (dir, dir_ones, dir_ptr) =
            build_directory(b, len, &raw, &classes, class_width, &offsets)?;
        // The streams imply exact totals; a payload that disagrees (e.g. a
        // truncated offsets stream) is corrupt.
        if dir_ones != ones as u64 || dir_ptr != offsets.len() as u64 {
            return None;
        }
        Some(Self {
            b,
            recip: Reciprocal::new(b),
            class_width,
            len,
            n_blocks,
            classes,
            offsets,
            dir,
            ones,
        })
    }

    /// Directory seek to the minor stretch holding block `blk`: super,
    /// major and minor lookups. Returns the major entry, whose
    /// [`RAW_FLAG`] tells the group's coding, and the ones and
    /// offset-stream position before the stretch's first block.
    #[inline]
    fn seek(&self, blk: usize) -> (u32, usize, usize) {
        let g = blk / SAMPLE_RATE;
        let major = self.dir.majors[g];
        let mut ones = self.dir.super_ranks[blk / SUPER_RATE] + (major & (RAW_FLAG - 1)) as u64;
        let mut ptr = self.dir.super_ptrs[blk / SUPER_RATE] + (major >> 16) as u64;
        let within = (blk % SAMPLE_RATE) / MINOR_RATE;
        if within > 0 {
            // Boundaries at major samples are implicitly zero, so entry
            // `within - 1` of this group holds the cumulative.
            let entry = self.dir.minors.get(g * MINORS_PER_SAMPLE + within - 1);
            ones += entry & low_mask(self.dir.minor_ones_bits);
            ptr += entry >> self.dir.minor_ones_bits;
        }
        (major, ones as usize, ptr as usize)
    }

    /// Bit `p` of enumerative block `blk` and the ones before its
    /// positions `p` and `q`, from the seek of its stretch: one
    /// register-chunked scan of at most `MINOR_RATE − 1` classes, the
    /// block's offset fetch and one decode, a second only where `q` lies
    /// outside `p`'s leaf.
    #[inline]
    fn enumerative(
        &self,
        blk: usize,
        mut ones: usize,
        mut ptr: usize,
        p: usize,
        q: usize,
    ) -> (bool, usize, usize) {
        // ≤ 7 residual classes + the target's own, ≤ 8 × 6 bits: one
        // ≤ 48-bit fetch covers the whole scan and the block's class.
        let first = blk / MINOR_RATE * MINOR_RATE;
        let cw = self.class_width;
        let widths = &offset_width_table()[self.b];
        let count = blk - first;
        let mut chunk = self.classes.get_bits(first * cw, (count + 1) * cw);
        let cmask = low_mask(cw);
        for _ in 0..count {
            let c = (chunk & cmask) as usize;
            ones += c;
            ptr += widths[c & 63] as usize;
            chunk >>= cw;
        }
        let c = (chunk & cmask) as usize;
        let off = self.offsets.get_bits(ptr, widths[c & 63] as usize);
        let plan = plan(self.b);
        let leaf = decode_leaf(plan, self.b, c, off, p);
        let rank_q = if (leaf.start..=leaf.end).contains(&q) {
            leaf.rank(q)
        } else {
            decode_leaf(plan, self.b, c, off, q).rank(q)
        };
        (leaf.bit(p), ones + leaf.rank(p), ones + rank_q)
    }

    /// Bit `i` of a raw group and the ones before it, from the seek of its
    /// block `blk`: a popcount from the first bit of the block's minor
    /// stretch, over the offsets stream alone unless the stretch starts
    /// inside the group's class slots (its first stretch, and every one
    /// for `b ≤ 19`). The raw routine behind every entry point.
    #[inline]
    fn raw(&self, blk: usize, ones: usize, ptr: usize, i: usize) -> (bool, usize) {
        let first = blk / SAMPLE_RATE * SAMPLE_RATE;
        let group = RawGroup {
            cls: first * self.class_width,
            head: (self.n_blocks - first).min(SAMPLE_RATE) * self.class_width,
            ptr,
        };
        let from = (blk - first) / MINOR_RATE * MINOR_RATE * self.b;
        let v = i - first * self.b;
        let (bit, before) = group.bit_and_ones(&self.classes, &self.offsets, from, v);
        (bit, ones + before)
    }

    /// `(get(i), rank1(i))` from one directory seek and one block decode
    /// or popcount: the wavelet-tree access descent's primitive, and
    /// behind [`BitRank::get`] and [`BitRank::rank1`] too.
    #[inline]
    pub fn get_and_rank1(&self, i: usize) -> (bool, usize) {
        debug_assert!(i < self.len);
        let (blk, p) = self.recip.div_rem(i);
        let (major, ones, ptr) = self.seek(blk);
        if major & RAW_FLAG != 0 {
            return self.raw(blk, ones, ptr, i);
        }
        let (bit, rank, _) = self.enumerative(blk, ones, ptr, p, p);
        (bit, rank)
    }

    /// `(rank1(i), rank1(j))`, answer-identical to two [`BitRank::rank1`]
    /// calls. Backward-search callers rank `sp` and `ep` together through
    /// this: narrowed ranges usually land both in one block (one seek), and
    /// often in one leaf (one decode + two popcounts).
    #[inline]
    pub fn rank1_pair(&self, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i <= self.len && j <= self.len);
        if i == self.len || j == self.len {
            return (self.rank1(i), self.rank1(j));
        }
        let ((blk, p1), (blk_j, p2)) = (self.recip.div_rem(i), self.recip.div_rem(j));
        if blk != blk_j {
            return (self.get_and_rank1(i).1, self.get_and_rank1(j).1);
        }
        let (major, ones, ptr) = self.seek(blk);
        if major & RAW_FLAG != 0 {
            return (self.raw(blk, ones, ptr, i).1, self.raw(blk, ones, ptr, j).1);
        }
        let (_, r1, r2) = self.enumerative(blk, ones, ptr, p1, p2);
        (r1, r2)
    }
}

impl BitRank for RrrBitVec {
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.get_and_rank1(i).0
    }

    #[inline]
    fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.len);
        if i == self.len {
            return self.ones;
        }
        self.get_and_rank1(i).1
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

    /// Every entry point of `rrr` against a naive count over `bits`, with
    /// `rank1_pair` over same-block, same-group and distant pairs.
    fn check_against_naive(rrr: &RrrBitVec, bits: &BitBuf) {
        let (n, b) = (bits.len(), rrr.block_size());
        assert_eq!(rrr.len(), n);
        let mut naive = Vec::with_capacity(n + 1);
        naive.push(0usize);
        for i in 0..n {
            naive.push(naive[i] + bits.get(i) as usize);
        }
        for i in 0..=n {
            assert_eq!(rrr.rank1(i), naive[i], "rank1({i}) b={b}");
            if i < n {
                assert_eq!(rrr.get(i), bits.get(i), "get({i}) b={b}");
                let want = (bits.get(i), naive[i]);
                assert_eq!(rrr.get_and_rank1(i), want, "get_and_rank1({i}) b={b}");
            }
            for step in [0, 1, b / 2, b - 1, b, MINOR_RATE * b, n] {
                let j = (i + step).min(n);
                assert_eq!(
                    rrr.rank1_pair(i, j),
                    (naive[i], naive[j]),
                    "pair({i},{j}) b={b}"
                );
                assert_eq!(
                    rrr.rank1_pair(j, i),
                    (naive[j], naive[i]),
                    "pair({j},{i}) b={b}"
                );
            }
        }
        assert_eq!(rrr.count_ones(), naive[n]);
    }

    /// Both constructors over `bits`; the hybrid is never the larger.
    fn check(bits: &BitBuf, b: usize) {
        let pure = RrrBitVec::new(bits, b);
        assert_eq!(pure.raw_groups().count_ones(), 0);
        check_against_naive(&pure, bits);
        let hybrid = RrrBitVec::hybrid(bits, b);
        check_against_naive(&hybrid, bits);
        assert!(hybrid.size_in_bytes() <= pure.size_in_bytes(), "b={b}");
    }

    /// Groups of [`SAMPLE_RATE`] `b`-bit blocks, group `g` at density
    /// `densities[g]` percent; the last group holds `last_len` bits.
    fn grouped_bits(b: usize, densities: &[u64], last_len: usize) -> BitBuf {
        let mut bits = BitBuf::new();
        for (g, &density) in densities.iter().enumerate() {
            let n = if g + 1 == densities.len() {
                last_len
            } else {
                SAMPLE_RATE * b
            };
            bits.append(&pseudo_bits(n, density, (b * 100 + g) as u64 ^ density));
        }
        bits
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
        let bits = grouped_bits(63, &[50, 3, 50, 3, 50], 5 * 63 + 7);
        let rrr = RrrBitVec::hybrid(&bits, 63);
        let raw = rrr.raw_groups();
        assert_eq!(raw.iter().filter(|&r| r).count(), 3);
        let (b, len, classes, offsets, ones) = rrr.raw_parts();
        let parts = |raw: &BitBuf, offsets: &BitBuf, ones| {
            RrrBitVec::from_raw_parts(b, len, raw.clone(), classes.clone(), offsets.clone(), ones)
        };
        let back = parts(&raw, offsets, ones).unwrap();
        for i in (0..len).step_by(97) {
            assert_eq!(back.rank1(i), rrr.rank1(i), "rank1({i})");
            assert_eq!(back.get(i), rrr.get(i), "get({i})");
        }
        assert_eq!(back.raw_groups(), raw);
        // A corrupted ones count is rejected (directory disagrees).
        assert!(parts(&raw, offsets, ones + 1).is_none());
        // ... and so is a truncated offsets stream.
        let truncated = BitBuf::from_bools(offsets.iter().take(offsets.len() - 1));
        assert!(parts(&raw, &truncated, ones).is_none());
        // ... and a flag per group too few or too many.
        let short = BitBuf::from_bools(raw.iter().skip(1));
        assert!(parts(&short, offsets, ones).is_none());
        let long = BitBuf::from_bools(raw.iter().chain([false]));
        assert!(parts(&long, offsets, ones).is_none());
        // ... and every single flipped flag (the streams then disagree).
        for g in 0..raw.len() {
            let mut flipped = raw.clone();
            flipped.set(g, !raw.get(g));
            assert!(parts(&flipped, offsets, ones).is_none(), "group {g}");
        }
    }

    /// The raw-or-enumerative choice of every group of `bits`, recomputed
    /// bit by bit: raw exactly where the bits beyond the group's class
    /// slots are strictly fewer than its offsets' widths.
    fn naive_raw_choice(bits: &BitBuf, b: usize) -> Vec<bool> {
        let len = bits.len();
        let n_blocks = len.div_ceil(b);
        let class_width = (64 - (b as u64).leading_zeros() as usize).max(1);
        (0..n_blocks.div_ceil(SAMPLE_RATE))
            .map(|g| {
                let blocks = group_blocks(g, n_blocks);
                let offset_bits: usize = blocks
                    .clone()
                    .map(|blk| {
                        let ones = (blk * b..((blk + 1) * b).min(len))
                            .filter(|&i| bits.get(i))
                            .count();
                        offset_width(b, ones, binom())
                    })
                    .sum();
                let group_bits = (blocks.end * b).min(len) - blocks.start * b;
                group_bits.saturating_sub(blocks.len() * class_width) < offset_bits
            })
            .collect()
    }

    #[test]
    fn hybrid_layouts_match_naive_counts() {
        // (densities per group, last group's length in blocks and bits):
        // 50 % groups go raw at every paper block size, 3 % ones stay
        // enumerative. Every block size runs: a minor stretch starts inside
        // a raw group's class slots only where 8 · b < 32 · ⌈log₂(b + 1)⌉,
        // i.e. for b ≤ 19.
        let layouts: [(&[u64], usize, usize); 5] = [
            (&[50, 50, 50, 50, 50], SAMPLE_RATE, 0),  // all raw
            (&[3, 3, 3, 3, 3], SAMPLE_RATE, 0),       // all RRR
            (&[50, 3, 50, 3, 50, 3], SAMPLE_RATE, 0), // alternating
            (&[3, 3, 3, 3, 50], 5, 7),                // raw final partial group
            (&[3, 100], 0, 3),                        // shorter than its class slots
        ];
        for b in 1..=63usize {
            for (densities, blocks, bits_over) in layouts {
                let bits = grouped_bits(b, densities, blocks * b + bits_over);
                let rrr = RrrBitVec::hybrid(&bits, b);
                let got: Vec<bool> = rrr.raw_groups().iter().collect();
                assert_eq!(got, naive_raw_choice(&bits, b), "b={b} {densities:?}");
                if [15, 31, 63].contains(&b) {
                    let want: Vec<bool> = densities.iter().map(|&d| d >= 50).collect();
                    assert_eq!(got, want, "b={b} {densities:?}");
                }
                // A 1-bit block has no offset to undercut; every wider one
                // stores a half-dense group raw.
                if densities[0] == 50 {
                    assert_eq!(got[0], b > 1, "b={b} {densities:?}");
                }
                check_against_naive(&rrr, &bits);
                let pure = RrrBitVec::new(&bits, b);
                assert!(rrr.size_in_bytes() <= pure.size_in_bytes());
                // Restored from its persisted parts, it answers the same.
                let (_, len, classes, offsets, ones) = rrr.raw_parts();
                let back = RrrBitVec::from_raw_parts(
                    b,
                    len,
                    rrr.raw_groups(),
                    classes.clone(),
                    offsets.clone(),
                    ones,
                )
                .expect("consistent parts");
                if [15, 31, 63].contains(&b) {
                    check_against_naive(&back, &bits);
                    continue;
                }
                for i in 0..len {
                    assert_eq!(back.get_and_rank1(i), rrr.get_and_rank1(i), "b={b} {i}");
                }
                assert_eq!(back.rank1(len), rrr.rank1(len));
            }
        }
    }

    #[test]
    fn reciprocal_divides_exactly_below_the_length_limit() {
        let top = MAX_LEN as usize;
        for b in 1..=63usize {
            let recip = Reciprocal::new(b);
            let edges = (0..4096).chain(top - 4096..top);
            for n in edges.chain((1..64).map(|k| top / 64 * k + b)) {
                assert_eq!(recip.div_rem(n), (n / b, n % b), "n={n} b={b}");
            }
        }
        // Past the limit it can fail: at b = 63, m · b − 2⁶³ = 55, so the
        // position 62 past a multiple of 63 near 2⁵⁸ rounds up.
        let n = (1usize << 58) / 63 * 63 + 62;
        let q = ((n as u128 * Reciprocal::new(63).m as u128) >> 63) as usize;
        assert_eq!(q, n / 63 + 1);
    }

    #[test]
    fn group_choice_golden_table() {
        // (density %, raw, offset-stream bits the group takes) per group of
        // one fixed b = 63 bitmap, whose last group is 300 bits: pinned
        // literally, so a change to the choice rule or to what a raw group
        // stores fails here. A full raw group puts 32 · 63 − 32 · 6 = 1824
        // bits beside its class slots.
        const GOLDEN: [(u64, bool, usize); 9] = [
            (50, true, 1824),
            (2, false, 184),
            (30, false, 1683),
            (10, false, 795),
            (47, true, 1824),
            (45, true, 1824),
            (40, false, 1821), // 1824 raw bits would not be strictly fewer
            (20, false, 1369),
            (50, true, 270),
        ];
        let densities = GOLDEN.map(|(d, _, _)| d);
        let bits = grouped_bits(63, &densities, 300);
        let rrr = RrrBitVec::hybrid(&bits, 63);
        let pure = RrrBitVec::new(&bits, 63);
        let n_blocks = bits.len().div_ceil(63);
        for (g, (density, raw, offset_bits)) in GOLDEN.into_iter().enumerate() {
            let blocks = group_blocks(g, n_blocks);
            let group_offsets = |v: &RrrBitVec| {
                let at = |blk: usize| {
                    if blk == n_blocks {
                        v.offsets.len()
                    } else {
                        v.dir.super_ptrs[blk / SUPER_RATE] as usize
                            + (v.dir.majors[blk / SAMPLE_RATE] >> 16) as usize
                    }
                };
                at(blocks.end) - at(blocks.start)
            };
            println!(
                "DUMP ({density}, {}, {}), pure {}",
                rrr.raw_groups().get(g),
                group_offsets(&rrr),
                group_offsets(&pure)
            );
            assert_eq!(
                (rrr.raw_groups().get(g), group_offsets(&rrr)),
                (raw, offset_bits),
                "group {g} at {density} %"
            );
            // A raw group's offsets undercut the enumerative ones by at
            // least its class slots; an enumerative group is unchanged.
            let enumerative = group_offsets(&pure);
            assert!(if raw {
                offset_bits < enumerative
            } else {
                offset_bits == enumerative
            });
        }
        assert_eq!((rrr.offsets.len(), pure.offsets.len()), (11_594, 11_808));
        assert_eq!(
            rrr.classes.len(),
            pure.classes.len(),
            "class slots are kept"
        );
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
        let raw = rrr.raw_groups();
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
            RrrBitVec::from_raw_parts(b, len, raw, hostile, tail, ones - first + 11).is_none(),
            "class 11 accepted at b = 10"
        );
    }

    #[test]
    fn out_of_range_offsets_decode_without_panic() {
        // An offset in [C(b, c), 2^width) is representable on disk and
        // passes `from_raw_parts` (totals only), and so is a raw group's
        // payload or flag forged to keep the totals: every entry point
        // must still return *some* in-range answer.
        for &b in &[15usize, 31, 63] {
            let mixed = grouped_bits(b, &[45, 3, 50, 45, 3, 50, 10, 50], 9 * b + 5);
            for rrr in [
                RrrBitVec::new(&pseudo_bits(40_000, 45, b as u64), b),
                RrrBitVec::hybrid(&mixed, b),
            ] {
                let (_, len, classes, offsets, ones) = rrr.raw_parts();
                let raw = rrr.raw_groups();
                let all_enumerative = raw.count_ones() == 0;
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ b as u64;
                let mut next = move |bound: usize| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 11) as usize % bound
                };
                for round in 0..24 {
                    // Progressively noisier: 1, 2, 4, ... flipped offset
                    // bits, then every bit set (each offset at its width's
                    // maximum), then flipped group flags.
                    let mut mutated: Vec<bool> = offsets.iter().collect();
                    let mut flags = raw.clone();
                    if round == 19 {
                        mutated.iter_mut().for_each(|bit| *bit = true);
                    } else if round < 19 {
                        for _ in 0..(1usize << round.min(12)) {
                            let at = next(mutated.len());
                            mutated[at] = !mutated[at];
                        }
                    } else {
                        let at = next(flags.len());
                        flags.set(at, !flags.get(at));
                    }
                    let Some(hostile) = RrrBitVec::from_raw_parts(
                        b,
                        len,
                        flags,
                        classes.clone(),
                        BitBuf::from_bools(mutated),
                        ones,
                    ) else {
                        // Only a raw payload's popcount or a flag can move
                        // the totals.
                        assert!(!all_enumerative || round > 19, "b={b} round {round}");
                        continue;
                    };
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
}
