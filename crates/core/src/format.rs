//! How every CiNCT byte stream is headed, versioned and sealed: the one
//! owner of the persisted formats' magic words, versions and checksums.
//!
//! Every stream opens with one little-endian `u64` header word: a 48-bit
//! prefix naming the format (`CINC` plus two ASCII bytes) over a 16-bit
//! version. This build reads and writes exactly one version of each
//! format, and [`Format::check`] refuses any other by name and number
//! before a byte behind the header is read. A shard file is vouched for
//! by the manifest's checksum for it, the manifest by its own trailing
//! checksum ([`seal`]), a snapshot by the manifest it carries, and a WAL
//! record by the checksum in its frame. Every checksum is [`checksum64`];
//! [`vouch`] checks a whole file or sealed body and counts the outcome in
//! `cinct_store_checksum_{ok,fail}_total`.

use cinct_fmindex::QueryError;
use std::fmt::Display;

/// One persisted format: its header prefix, the one version this build
/// reads and writes, and the name its errors use.
pub(crate) struct Format {
    pub(crate) prefix: u64,
    pub(crate) version: u64,
    name: &'static str,
}

// Version history. Index: 5 added a raw-or-RRR flag per RRR group, 4
// dropped the ET-graph's bigram counts and the labeling tag, 3 renumbered
// RRR offsets by the split block code, 2 dropped the RRR sample arrays.
// Manifest: 6 stores each pruning block as its bitset words alone, 5
// records each shard file's length and derives its name and trajectory
// count, 4 moved every checksum to `checksum64`, 3 added pruning blocks,
// 2 the absorbed WAL position. Snapshot: 3 is the manifest and the files
// it names, back to back; 2 framed them itself. WAL: 3 moved record
// checksums to `checksum64`, 2 made segments position-addressed.
pub(crate) const INDEX: Format = Format::new(0x4349_4e43_5431_0000, 5, "index");
pub(crate) const MANIFEST: Format = Format::new(0x4349_4e43_5453_0000, 6, "shard manifest");
pub(crate) const SNAPSHOT: Format = Format::new(0x4349_4e43_534e_0000, 3, "snapshot");
pub(crate) const WAL: Format = Format::new(0x4349_4e43_574c_0000, 3, "WAL");

impl Format {
    const fn new(prefix: u64, version: u64, name: &'static str) -> Format {
        Format {
            prefix,
            version,
            name,
        }
    }

    /// The header word this build writes.
    pub(crate) fn header(&self) -> u64 {
        self.prefix | self.version
    }

    /// Refuse a header word of another format, or of another version of
    /// this one, with a typed error naming both versions.
    pub(crate) fn check(&self, word: u64) -> Result<(), QueryError> {
        if word & !0xffff != self.prefix {
            return Err(corrupt(format!("not a CiNCT {} (bad magic)", self.name)));
        }
        let version = word & 0xffff;
        if version != self.version {
            return Err(corrupt(format!(
                "unsupported {} version {version} (this build reads {})",
                self.name, self.version
            )));
        }
        Ok(())
    }

    /// [`Format::check`] the header word at the front of `bytes`,
    /// returning the bytes behind it.
    pub(crate) fn strip<'a>(&self, bytes: &'a [u8]) -> Result<&'a [u8], QueryError> {
        let Some(word) = first_word(bytes) else {
            return Err(corrupt(format!("{} too short to hold a header", self.name)));
        };
        self.check(word)?;
        Ok(&bytes[8..])
    }
}

/// The little-endian `u64` at the front of `bytes`, if they hold one.
pub(crate) fn first_word(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

pub(crate) fn corrupt(msg: impl Into<String>) -> QueryError {
    QueryError::CorruptIndex(msg.into())
}

/// `body` followed by its [`checksum64`].
pub(crate) fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let digest = checksum64(&body);
    body.extend_from_slice(&digest.to_le_bytes());
    body
}

/// The body of a [`seal`]ed stream, once its trailing checksum matches.
pub(crate) fn unseal<'a>(sealed: &'a [u8], what: &str) -> Result<&'a [u8], QueryError> {
    let (body, tail) = sealed.split_at(sealed.len().saturating_sub(8));
    match first_word(tail) {
        Some(checksum) => vouch(body, checksum, what).map(|()| body),
        None => Err(mismatch(what)),
    }
}

/// Check `bytes` against the checksum recorded for them, counting the
/// outcome. A short read fails too: the checksum is seeded by length.
pub(crate) fn vouch(bytes: &[u8], checksum: u64, what: impl Display) -> Result<(), QueryError> {
    if checksum64(bytes) != checksum {
        return Err(mismatch(what));
    }
    crate::metrics::store().checksum_ok.inc();
    Ok(())
}

/// A failed verification, counted and typed.
fn mismatch(what: impl Display) -> QueryError {
    crate::metrics::store().checksum_fail.inc();
    corrupt(format!("{what} checksum mismatch (truncated or corrupted)"))
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One XXH64-style round: a bijection in `w` for a fixed `acc`, and in
/// `acc` for a fixed `w` (odd multipliers, rotation and addition all are).
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The store's integrity checksum, over the manifest, every shard file
/// and each WAL record. Not cryptographic; it guards against truncation,
/// bit rot and mixed-up files, which is the failure model for a local
/// index directory.
///
/// Four independent 64-bit lanes consume 32-byte stripes, so the loop is
/// bound by multiply throughput, not by one multiply's latency per byte.
/// The byte length seeds the fold; the lanes, the 8-byte words of the
/// < 32-byte tail and its last bytes follow in order, then an avalanche.
/// Every step is a bijection in the input it changes, so damage confined
/// to one aligned 8-byte word, or to one tail byte, always changes the
/// digest.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }
    let mut h = (bytes.len() as u64).wrapping_add(P5);
    for lane in lanes {
        h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w))).rotate_left(27);
        h = h.wrapping_mul(P1).wrapping_add(P4);
    }
    for &b in words.remainder() {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` bytes of a fixed pattern: the top byte of `i · φ·2⁶⁴`.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect()
    }

    #[test]
    fn checksum64_known_answers() {
        // `checksum64(&pattern(len))` for every length 0..=70: each tail
        // length on both sides of the 32- and 64-byte stripe boundaries.
        // Pinned literally so any change to the function — and so to the
        // manifest, snapshot and WAL formats — fails here.
        const KNOWN: [u64; 71] = [
            0xc1620d0a2dcaa9d2,
            0x2ccc2711faa975c3,
            0x18161ed80b3a5d48,
            0x346079dc583ee432,
            0x13869fe8635be6b3,
            0x561f1dd813e4fe1b,
            0xcda4acb5100fbfc2,
            0xaebc793044debb8d,
            0xbe4049df5f472187,
            0xed35e6a30273b822,
            0xe5ec625b79afc6e1,
            0x31d16ef464b60d47,
            0x6e27300112a54c47,
            0x5acc42c406049fe4,
            0x7b05d72aa777b9ad,
            0x0cb0b93e46717b55,
            0xe3de18a1f5ee617b,
            0xfae327b9af564dd4,
            0x5745f9e421ce0517,
            0x17b3ffe4cbb663f2,
            0x469b45db6c452214,
            0x90d6296c893a6b20,
            0xbff2942ea31b446d,
            0x225aee47f334bc9d,
            0x94969aedd92de47a,
            0x95c601cd5976d8de,
            0x171928d207a405f0,
            0x9ef8f4a43776afd0,
            0x69a573ed78efba33,
            0x39b96f2741c1f77e,
            0x082b58d69a5910d3,
            0xdcf423542b25c69d,
            0x4f27aab714cad2aa,
            0xdd555f6c5e503aae,
            0x3ffcb38520e906f9,
            0x20d872c2e30804cf,
            0xc7408be61afaae5c,
            0x140fdb0f1bbfa603,
            0xd62a7317ab85c3de,
            0x0a9d3a7db8506ef9,
            0x2c6109c40e46c8ad,
            0xccd03f934596cc90,
            0x0a6b144d0185b26f,
            0x7766a794a1f255e6,
            0xd498de37b7f81bbf,
            0x390cd7255aac25d9,
            0xac6a5e241116c088,
            0xdd19aa73ca1b3acf,
            0x5e50aea33bfb54af,
            0xc992a8228ecf7605,
            0x80a8ca396474a1c2,
            0xd07436934735edb8,
            0xb1d106b6a385b17c,
            0xef0a61dbe88ea2fa,
            0xd0e7e9ce717ea31d,
            0x498332e81d349e7d,
            0xd169ca70c47ec52e,
            0xdb743cbbcb5254df,
            0x0871e0e6ac0edfd2,
            0x1cf24189f8cf979c,
            0xc9fe1ebd815f9393,
            0x5e73eb4dde0a9f62,
            0x5a5d14e2bca7ac92,
            0x67052da5d9b8c0bc,
            0x06d82dd87f96b29a,
            0xfb4af93647dd78c7,
            0x3b5c41cb5da79404,
            0x7fdbef64ce03666b,
            0x681f333fbb6bac3e,
            0xa612804ba25157e0,
            0x9c4e332561493320,
        ];
        for (len, &want) in KNOWN.iter().enumerate() {
            assert_eq!(checksum64(&pattern(len)), want, "len {len}");
        }
        assert_eq!(checksum64(&pattern(1 << 20)), 0x3a3215eb656bd509, "1 MiB");
    }

    /// 4 KiB from a 64-bit LCG: no two 8-byte words alike.
    fn noise() -> Vec<u8> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn checksum64_catches_bit_flips_word_swaps_and_appended_zeros() {
        let buf = noise();
        let base = checksum64(&buf);
        for bit in 0..buf.len() * 8 {
            let mut b = buf.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&b), base, "bit {bit}");
        }
        for w in 0..buf.len() / 8 - 1 {
            let mut b = buf.clone();
            b[w * 8..w * 8 + 16].rotate_left(8);
            assert_ne!(b, buf);
            assert_ne!(checksum64(&b), base, "swap words {w}, {}", w + 1);
        }
        for len in (0..=70).chain([buf.len()]) {
            let mut b = buf[..len].to_vec();
            let before = checksum64(&b);
            b.push(0);
            assert_ne!(checksum64(&b), before, "len {len}");
        }
    }
}
