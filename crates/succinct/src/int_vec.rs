//! Fixed-width packed integer vectors.
//!
//! Used for the C-array companion tables, SA samples, and anywhere a
//! `Vec<u32>`/`Vec<u64>` would waste bits (index size accounting must be
//! faithful for the paper's bits-per-symbol plots).

use crate::bits::BitBuf;
use crate::traits::SpaceUsage;

/// A vector of unsigned integers, each stored in exactly `width` bits.
#[derive(Clone, Debug, Default)]
pub struct IntVec {
    bits: BitBuf,
    width: usize,
    len: usize,
}

impl IntVec {
    /// An empty vector storing `width`-bit values (`width <= 64`).
    pub fn new(width: usize) -> Self {
        assert!(width <= 64);
        Self {
            bits: BitBuf::new(),
            width,
            len: 0,
        }
    }

    /// Minimal width to represent `max_value`.
    pub fn width_for(max_value: u64) -> usize {
        (64 - max_value.leading_zeros() as usize).max(1)
    }

    /// Pack a slice with the minimal width for its maximum element.
    pub fn from_slice(values: &[u64]) -> Self {
        let width = Self::width_for(values.iter().copied().max().unwrap_or(0));
        let mut v = Self::with_capacity(width, values.len());
        for &x in values {
            v.push(x);
        }
        v
    }

    /// An empty vector with room for `n` values.
    pub fn with_capacity(width: usize, n: usize) -> Self {
        assert!(width <= 64);
        Self {
            bits: BitBuf::with_capacity(width * n),
            width,
            len: 0,
        }
    }

    /// Append `value` (must fit in `width` bits).
    #[inline]
    pub fn push(&mut self, value: u64) {
        debug_assert!(self.width == 64 || value < (1u64 << self.width));
        self.bits.push_bits(value, self.width);
        self.len += 1;
    }

    /// The value at index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        self.bits.get_bits(i * self.width, self.width)
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per stored value.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Iterator over all values.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Release spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.bits.shrink_to_fit();
    }

    /// The packed bit storage (persistence support).
    pub fn raw_bits(&self) -> &BitBuf {
        &self.bits
    }

    /// Reassemble from packed bits + shape; `None` if the shape does not
    /// match the bit count.
    pub fn from_raw_parts(bits: BitBuf, width: usize, len: usize) -> Option<Self> {
        if width > 64 || width.checked_mul(len) != Some(bits.len()) {
            return None;
        }
        Some(Self { bits, width, len })
    }
}

impl SpaceUsage for IntVec {
    fn size_in_bytes(&self) -> usize {
        self.bits.size_in_bytes() + std::mem::size_of::<usize>() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        for width in [1usize, 5, 17, 32, 33, 63, 64] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            let vals: Vec<u64> = (0..300u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & mask)
                .collect();
            let mut v = IntVec::new(width);
            for &x in &vals {
                v.push(x);
            }
            assert_eq!(v.len(), vals.len());
            for (i, &x) in vals.iter().enumerate() {
                assert_eq!(v.get(i), x, "width={width} i={i}");
            }
            let back: Vec<u64> = v.iter().collect();
            assert_eq!(back, vals);
        }
    }

    #[test]
    fn width_for_values() {
        assert_eq!(IntVec::width_for(0), 1);
        assert_eq!(IntVec::width_for(1), 1);
        assert_eq!(IntVec::width_for(2), 2);
        assert_eq!(IntVec::width_for(255), 8);
        assert_eq!(IntVec::width_for(256), 9);
        assert_eq!(IntVec::width_for(u64::MAX), 64);
    }

    #[test]
    fn from_slice_packs_minimally() {
        let v = IntVec::from_slice(&[3, 7, 0, 5]);
        assert_eq!(v.width(), 3);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![3, 7, 0, 5]);
    }

    #[test]
    fn empty_from_slice() {
        let v = IntVec::from_slice(&[]);
        assert!(v.is_empty());
        assert_eq!(v.width(), 1);
    }
}
