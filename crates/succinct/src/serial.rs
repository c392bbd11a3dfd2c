//! Minimal binary persistence for the succinct structures.
//!
//! A production index is built once and queried for months; [`Persist`]
//! lets every structure be written to and reloaded from a stream in a
//! stable little-endian format, without any serialization dependency.
//! `cinct::CinctIndex` composes these impls into whole-index save/load.

use crate::bits::BitBuf;
use crate::huffman::CodeTable;
use crate::int_vec::IntVec;
use crate::rank_bits::RankBitVec;
use crate::rrr::RrrBitVec;
use std::io::{self, Read, Write};

/// Stream (de)serialization in a stable little-endian layout.
pub trait Persist: Sized {
    /// Write `self` to the stream.
    fn persist(&self, w: &mut dyn Write) -> io::Result<()>;
    /// Read a value previously written with [`Persist::persist`].
    fn restore(r: &mut dyn Read) -> io::Result<Self>;
}

/// Write a `u64` little-endian.
pub fn write_u64(w: &mut dyn Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Read a `u64` little-endian.
pub fn read_u64(r: &mut dyn Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Write a `usize` as `u64`.
pub fn write_usize(w: &mut dyn Write, v: usize) -> io::Result<()> {
    write_u64(w, v as u64)
}

/// Read a `usize` (written as `u64`), failing on overflow.
pub fn read_usize(r: &mut dyn Read) -> io::Result<usize> {
    usize::try_from(read_u64(r)?)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "usize overflow"))
}

/// Write `values` as a length word plus little-endian words — the layout
/// `Vec<u64>::restore` reads back — straight from a borrowed slice.
pub fn write_u64s(w: &mut dyn Write, values: &[u64]) -> io::Result<()> {
    write_usize(w, values.len())?;
    for &v in values {
        write_u64(w, v)?;
    }
    Ok(())
}

/// Up-front reservation cap of [`read_values`], in bytes: a vector past
/// it grows only as bytes arrive.
const RESERVE_MAX: usize = 1 << 20;

/// Read a length word `n`, then `n` little-endian values of `width` bytes,
/// decoded through a stack buffer as the bytes arrive. A forged length
/// costs a short read (`UnexpectedEof`) or an overflow (`InvalidData`),
/// never an allocation of the size it claims.
fn read_values<T>(
    r: &mut dyn Read,
    width: usize,
    decode: impl Fn(&[u8]) -> T,
) -> io::Result<Vec<T>> {
    let n = read_usize(r)?;
    let mut left = n
        .checked_mul(width)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "length overflow"))?;
    let mut values = Vec::with_capacity(n.min(RESERVE_MAX / width));
    let mut buf = [0u8; 8192];
    while left > 0 {
        let chunk = &mut buf[..left.min(8192)];
        r.read_exact(chunk)?;
        values.extend(chunk.chunks_exact(width).map(&decode));
        left -= chunk.len();
    }
    Ok(values)
}

impl Persist for Vec<u64> {
    fn persist(&self, w: &mut dyn Write) -> io::Result<()> {
        write_u64s(w, self)
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        read_values(r, 8, |c| {
            u64::from_le_bytes(c.try_into().expect("8-byte chunk"))
        })
    }
}

impl Persist for Vec<u32> {
    fn persist(&self, w: &mut dyn Write) -> io::Result<()> {
        write_usize(w, self.len())?;
        for &v in self {
            w.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        read_values(r, 4, |c| {
            u32::from_le_bytes(c.try_into().expect("4-byte chunk"))
        })
    }
}

impl Persist for Vec<u8> {
    fn persist(&self, w: &mut dyn Write) -> io::Result<()> {
        write_usize(w, self.len())?;
        w.write_all(self)
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        read_values(r, 1, |c| c[0])
    }
}

impl Persist for BitBuf {
    fn persist(&self, w: &mut dyn Write) -> io::Result<()> {
        write_usize(w, self.len())?;
        write_u64s(w, self.words())
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let len = read_usize(r)?;
        let words: Vec<u64> = Persist::restore(r)?;
        if words.len() != len.div_ceil(64) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "BitBuf word count mismatch",
            ));
        }
        Ok(BitBuf::from_raw_parts(words, len))
    }
}

impl Persist for IntVec {
    fn persist(&self, w: &mut dyn Write) -> io::Result<()> {
        write_usize(w, self.width())?;
        write_usize(w, self.len())?;
        self.raw_bits().persist(w)
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let width = read_usize(r)?;
        let len = read_usize(r)?;
        let bits = BitBuf::restore(r)?;
        IntVec::from_raw_parts(bits, width, len)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "IntVec shape mismatch"))
    }
}

impl Persist for RankBitVec {
    fn persist(&self, w: &mut dyn Write) -> io::Result<()> {
        // The directory is derived; persist only the raw bits.
        self.bits().persist(w)
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        Ok(RankBitVec::new(BitBuf::restore(r)?))
    }
}

impl Persist for RrrBitVec {
    fn persist(&self, w: &mut dyn Write) -> io::Result<()> {
        // The rank directory is derived state: only the compressed payload
        // is written, and `from_raw_parts` rebuilds the directory on load.
        let (b, len, classes, offsets, ones) = self.raw_parts();
        write_usize(w, b)?;
        write_usize(w, len)?;
        self.raw_groups().persist(w)?;
        classes.persist(w)?;
        offsets.persist(w)?;
        write_usize(w, ones)
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let b = read_usize(r)?;
        let len = read_usize(r)?;
        let raw = BitBuf::restore(r)?;
        let classes = BitBuf::restore(r)?;
        let offsets = BitBuf::restore(r)?;
        let ones = read_usize(r)?;
        RrrBitVec::from_raw_parts(b, len, raw, classes, offsets, ones)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "RRR shape mismatch"))
    }
}

impl Persist for CodeTable {
    fn persist(&self, w: &mut dyn Write) -> io::Result<()> {
        let (bits, lens) = self.raw_parts();
        bits.persist(w)?;
        lens.to_vec().persist(w)
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let bits = IntVec::restore(r)?;
        let lens: Vec<u8> = Persist::restore(r)?;
        CodeTable::from_raw_parts(bits, lens)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "CodeTable mismatch"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::BitRank;

    fn roundtrip<T: Persist>(v: &T) -> T {
        let mut buf = Vec::new();
        v.persist(&mut buf).expect("write");
        let mut cur = io::Cursor::new(buf);
        let back = T::restore(&mut cur).expect("read");
        assert_eq!(
            cur.position() as usize,
            cur.get_ref().len(),
            "trailing bytes"
        );
        back
    }

    #[test]
    fn bitbuf_roundtrip() {
        let b = BitBuf::from_bools((0..777).map(|i| i % 3 == 0));
        let back = roundtrip(&b);
        assert_eq!(b, back);
    }

    #[test]
    fn intvec_roundtrip() {
        let mut v = IntVec::new(13);
        for i in 0..500u64 {
            v.push(i % 8000);
        }
        let back = roundtrip(&v);
        assert_eq!(back.len(), v.len());
        for i in 0..v.len() {
            assert_eq!(back.get(i), v.get(i));
        }
    }

    #[test]
    fn rank_bitvec_roundtrip() {
        let bits = BitBuf::from_bools((0..3000).map(|i| (i * 7) % 11 < 4));
        let rb = RankBitVec::new(bits);
        let back = roundtrip(&rb);
        assert_eq!(back.len(), rb.len());
        for i in (0..=rb.len()).step_by(97) {
            assert_eq!(back.rank1(i), rb.rank1(i));
        }
    }

    #[test]
    fn rrr_roundtrip() {
        let bits = BitBuf::from_bools((0..3000).map(|i| (i * 13) % 17 < 3));
        for b in [15usize, 63] {
            let rrr = RrrBitVec::new(&bits, b);
            let back = roundtrip(&rrr);
            assert_eq!(back.len(), rrr.len());
            for i in (0..=rrr.len()).step_by(61) {
                assert_eq!(back.rank1(i), rrr.rank1(i), "b={b} i={i}");
            }
        }
    }

    #[test]
    fn hybrid_rrr_roundtrips_and_refuses_hostile_length_words() {
        // Raw and enumerative groups, and a partial last group.
        let bits = BitBuf::from_bools((0..5000).map(|i| {
            let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            if (i / 2016) % 2 == 0 {
                x % 2 == 0
            } else {
                x % 50 == 0
            }
        }));
        let rrr = RrrBitVec::hybrid(&bits, 63);
        assert!(rrr.raw_groups().count_ones() > 0);
        let back = roundtrip(&rrr);
        assert_eq!(back.raw_groups(), rrr.raw_groups());
        for i in (0..=rrr.len()).step_by(7) {
            assert_eq!(back.rank1(i), rrr.rank1(i), "i={i}");
        }
        // Every length word and flag word overwritten with a huge value:
        // a typed error or some vector, never a panic or a huge allocation.
        let mut buf = Vec::new();
        rrr.persist(&mut buf).unwrap();
        for at in (0..=buf.len() - 8).step_by(8) {
            for value in [1u64 << 32, 1 << 61, u64::MAX] {
                let mut bad = buf.clone();
                bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
                let _ = RrrBitVec::restore(&mut io::Cursor::new(bad));
            }
        }
    }

    #[test]
    fn corrupt_data_is_rejected() {
        let b = BitBuf::from_bools((0..100).map(|i| i % 2 == 0));
        let mut buf = Vec::new();
        b.persist(&mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(BitBuf::restore(&mut io::Cursor::new(buf)).is_err());
    }
}
