//! A growable bit buffer with word-level access.
//!
//! [`BitBuf`] is the raw material from which the rank structures are built:
//! wavelet-tree construction appends bits level by level, then hands the
//! buffer to [`crate::RankBitVec`] or [`crate::RrrBitVec`].

use crate::traits::SpaceUsage;
use std::ops::Range;

/// An append-only, randomly readable vector of bits, stored LSB-first in
/// `u64` words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitBuf {
    words: Vec<u64>,
    len: usize,
}

impl BitBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with capacity for `nbits` bits.
    pub fn with_capacity(nbits: usize) -> Self {
        Self {
            words: Vec::with_capacity(nbits.div_ceil(64)),
            len: 0,
        }
    }

    /// A buffer of `nbits` zero bits.
    pub fn zeros(nbits: usize) -> Self {
        Self {
            words: vec![0u64; nbits.div_ceil(64)],
            len: nbits,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a single bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Append the low `width` bits of `value`, LSB first. `width <= 64`.
    #[inline]
    pub fn push_bits(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64);
        debug_assert!(width == 64 || value < (1u64 << width) || width == 0);
        if width == 0 {
            return;
        }
        let off = self.len % 64;
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= value << off;
        if off + width > 64 {
            self.words.push(value >> (64 - off));
        }
        self.len += width;
    }

    /// Read the bit at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set the bit at position `i`.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Read `width <= 64` bits starting at position `i`, LSB first.
    #[inline]
    pub fn get_bits(&self, i: usize, width: usize) -> u64 {
        debug_assert!(width <= 64);
        debug_assert!(i + width <= self.len);
        if width == 0 {
            return 0;
        }
        let (word, off) = (i / 64, i % 64);
        // The next word's share, whether or not the field reaches it: no
        // data-dependent branch (a field ends within two words).
        let next = self
            .words
            .get(word + 1)
            .map_or(0, |&w| (w << 1) << (63 - off));
        let mask = u64::MAX >> (64 - width);
        ((self.words[word] >> off) | next) & mask
    }

    /// The underlying words (the last word's high bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassemble from raw words + bit length (persistence support). The
    /// caller must supply exactly `len.div_ceil(64)` words.
    pub fn from_raw_parts(words: Vec<u64>, len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        Self { words, len }
    }

    /// Count of ones in the whole buffer.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Count of ones in bits `range`: one popcount per word it touches.
    #[inline]
    pub fn count_ones_in(&self, range: Range<usize>) -> usize {
        let Range { start, end } = range;
        debug_assert!(start <= end && end <= self.len);
        if start == end {
            return 0;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        // The low `n ∈ 1 ..= 64` bits of a word.
        let low = |word: u64, n: usize| word & (u64::MAX >> (64 - n));
        let head = self.words[first] >> (start % 64);
        if first == last {
            return low(head, end - start).count_ones() as usize;
        }
        let middle: u32 = self.words[first + 1..last]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        let tail = low(self.words[last], end - last * 64);
        (head.count_ones() + middle + tail.count_ones()) as usize
    }

    /// `(bit to, ones in bits from .. to)` for `from <= to < len`: every
    /// word from `from`'s through `to`'s popcounted once, the ones of
    /// `from`'s word below it taken back off, no branch but the loop's.
    #[inline]
    pub(crate) fn bit_and_ones_before(&self, from: usize, to: usize) -> (bool, usize) {
        debug_assert!(from <= to && to < self.len);
        let (first, last) = (from / 64, to / 64);
        let word = self.words[last];
        let below = |word: u64, p: usize| (word & ((1u64 << p) - 1)).count_ones();
        let middle: u32 = self.words[first..last].iter().map(|w| w.count_ones()).sum();
        let ones = middle + below(word, to % 64) - below(self.words[first], from % 64);
        ((word >> (to % 64)) & 1 == 1, ones as usize)
    }

    /// Iterator over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Build from an iterator of bools.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut b = Self::new();
        for bit in iter {
            b.push(bit);
        }
        b
    }

    /// Shrink the backing storage to fit.
    pub fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
    }

    /// Append every bit of `other`, word-chunked (64 bits per step, not
    /// bit-by-bit).
    pub fn append(&mut self, other: &BitBuf) {
        self.append_range(other, 0..other.len);
    }

    /// Append bits `range` of `other`, word-chunked.
    pub fn append_range(&mut self, other: &BitBuf, range: Range<usize>) {
        debug_assert!(range.start <= range.end && range.end <= other.len);
        self.words
            .reserve((self.len + range.len()).div_ceil(64) - self.words.len());
        let mut i = range.start;
        while i + 64 <= range.end {
            self.push_bits(other.get_bits(i, 64), 64);
            i += 64;
        }
        if i < range.end {
            self.push_bits(other.get_bits(i, range.end - i), range.end - i);
        }
    }
}

impl SpaceUsage for BitBuf {
    fn size_in_bytes(&self) -> usize {
        self.words.capacity() * 8 + std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let pattern = |i: usize| (i * 7 + 3) % 5 < 2;
        let mut b = BitBuf::new();
        for i in 0..1000 {
            b.push(pattern(i));
        }
        assert_eq!(b.len(), 1000);
        for i in 0..1000 {
            assert_eq!(b.get(i), pattern(i), "bit {i}");
        }
    }

    #[test]
    fn push_bits_matches_single_pushes() {
        let mut a = BitBuf::new();
        let mut b = BitBuf::new();
        let values = [
            (0b1011u64, 4),
            (0u64, 1),
            (u64::MAX, 64),
            (0b1, 1),
            (0x1234_5678_9abc_def0, 61),
            (0, 0),
            (0b111, 3),
        ];
        for &(v, w) in &values {
            a.push_bits(v, w);
            for k in 0..w {
                b.push((v >> k) & 1 == 1);
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn get_bits_roundtrip() {
        let mut b = BitBuf::new();
        let vals: Vec<(u64, usize)> = (0..200)
            .map(|i| {
                let w = 1 + (i * 13) % 64;
                let v = (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1))
                    & if w == 64 { u64::MAX } else { (1 << w) - 1 };
                (v, w)
            })
            .collect();
        for &(v, w) in &vals {
            b.push_bits(v, w);
        }
        let mut pos = 0;
        for &(v, w) in &vals {
            assert_eq!(b.get_bits(pos, w), v);
            pos += w;
        }
    }

    #[test]
    fn set_and_zeros() {
        let mut b = BitBuf::zeros(130);
        assert_eq!(b.count_ones(), 0);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert_eq!(b.count_ones(), 3);
        b.set(64, false);
        assert_eq!(b.count_ones(), 2);
        assert!(b.get(0) && b.get(129) && !b.get(64));
    }

    #[test]
    fn from_bools_iter() {
        let bits = vec![true, false, true, true, false];
        let b = BitBuf::from_bools(bits.iter().copied());
        let back: Vec<bool> = b.iter().collect();
        assert_eq!(bits, back);
    }

    #[test]
    fn append_matches_pushes() {
        // Appends at every word-phase offset, including empty operands.
        for head_len in [0usize, 1, 63, 64, 65, 130] {
            for tail_len in [0usize, 1, 64, 100, 129] {
                let head = BitBuf::from_bools((0..head_len).map(|i| i % 3 == 0));
                let tail = BitBuf::from_bools((0..tail_len).map(|i| i % 5 < 2));
                let mut joined = head.clone();
                joined.append(&tail);
                let expect = BitBuf::from_bools(head.iter().chain(tail.iter()));
                assert_eq!(joined, expect, "head={head_len} tail={tail_len}");
            }
        }
    }

    #[test]
    fn ranged_counts_and_appends_match_bitwise() {
        let bits = BitBuf::from_bools((0..300).map(|i| (i * 7 + i / 5) % 3 == 0));
        for start in [0usize, 1, 63, 64, 65, 127, 128, 200] {
            for end in [start, start + 1, 64, 128, 129, 191, 256, 300] {
                if end < start {
                    continue;
                }
                let naive = (start..end).filter(|&i| bits.get(i)).count();
                assert_eq!(bits.count_ones_in(start..end), naive, "{start}..{end}");
                let mut copy = BitBuf::from_bools([true]);
                copy.append_range(&bits, start..end);
                let expect = [true].into_iter().chain((start..end).map(|i| bits.get(i)));
                assert_eq!(copy, BitBuf::from_bools(expect), "{start}..{end}");
            }
        }
    }

    #[test]
    fn empty_buffer() {
        let b = BitBuf::new();
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.get_bits(0, 0), 0);
    }
}
