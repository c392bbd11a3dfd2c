//! Per-shard pruning metadata: which edge labels a shard actually
//! contains, and which slice of the global trajectory-ID namespace it
//! owns.
//!
//! A K-shard fan-out pays K full backward searches even when a shard
//! cannot possibly match — sequential counting measured 0.34x of the
//! monolithic index at K=8 for exactly this reason. The fix is metadata,
//! not search: an edge absent from a shard's BWT makes *every* path through
//! that edge absent from the shard, so an O(L) membership probe (L =
//! pattern length) replaces an O(L) backward search's rank machinery for
//! shards that cannot match. [`EdgeMembership`] is that structure;
//! [`ShardPruning`] bundles it with the shard's global-ID span so
//! ID-constrained lookups route straight to the owning shard.
//!
//! # Exact bitset vs Bloom filter
//!
//! Membership is **exact** (one bit per alphabet edge) while the
//! alphabet is small: at the paper's σ≈5k a bitset is ~640 bytes per
//! shard and can never mis-skip. Beyond [`BITSET_MAX_EDGES`] the bitset
//! gives way to a fixed-size Bloom filter ([`BLOOM_BITS`] bits,
//! [`BLOOM_HASHES`] probes): a Bloom *false positive* only costs a
//! wasted shard visit — the backward search then rules the shard out as
//! before — while a **false skip is impossible** in either shape, which
//! is the property the pruned == unpruned identity tests pin.
//!
//! Metadata is derived **exactly** from a shard's own `C` array
//! (`count(edge + SYMBOL_OFFSET) > 0` — O(σ), no text scan), so it can
//! be (re)built wherever a shard materializes: fresh builds, appends,
//! compaction, and an open whose manifest block fails its sanity check.

use crate::index::CinctIndex;
use cinct_bwt::SYMBOL_OFFSET;
use cinct_fmindex::Path;
use cinct_succinct::serial::{read_u64, read_usize, write_u64, write_usize, Persist};
use std::io::{Read, Write};

/// Largest edge alphabet served by the exact bitset (128 KiB of bits per
/// shard). City-scale road networks (σ in the thousands to low millions)
/// stay exact; only a corpus indexed over a truly huge synthetic alphabet
/// falls back to the Bloom shape.
pub const BITSET_MAX_EDGES: usize = 1 << 20;
/// Bloom filter size in bits (8 KiB per shard) for alphabets beyond
/// [`BITSET_MAX_EDGES`].
pub const BLOOM_BITS: usize = 1 << 16;
/// Bloom probe count. With m = 2^16 bits and k = 4, a shard holding
/// 10k distinct edges sees a false-*visit* rate well under 1% — and a
/// false visit only costs one redundant backward search.
pub const BLOOM_HASHES: u32 = 4;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Set-membership over a shard's edge alphabet: exact bitset for small
/// alphabets, Bloom filter beyond [`BITSET_MAX_EDGES`]. Both shapes share
/// one invariant: `contains` may report a *false positive* (Bloom only),
/// never a false negative — so "not contained" always licenses a skip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeMembership {
    /// The bit array, packed into words.
    words: Vec<u64>,
    /// Bit-domain size: the edge alphabet for the exact shape, the
    /// filter size for the Bloom shape.
    n_bits: usize,
    /// `0` = exact bitset; otherwise the number of Bloom probes.
    hashes: u32,
}

impl EdgeMembership {
    /// An empty membership set shaped for an alphabet of `n_edges`
    /// labels: exact while `n_edges <= BITSET_MAX_EDGES`, Bloom beyond.
    pub fn for_alphabet(n_edges: usize) -> Self {
        if n_edges <= BITSET_MAX_EDGES {
            Self {
                words: vec![0; n_edges.div_ceil(64)],
                n_bits: n_edges,
                hashes: 0,
            }
        } else {
            Self {
                words: vec![0; BLOOM_BITS / 64],
                n_bits: BLOOM_BITS,
                hashes: BLOOM_HASHES,
            }
        }
    }

    /// Whether this is the exact (false-positive-free) shape.
    pub fn is_exact(&self) -> bool {
        self.hashes == 0
    }

    fn bloom_bits(&self, edge: u32) -> impl Iterator<Item = usize> + '_ {
        let h = splitmix64(edge as u64);
        let h1 = h >> 32;
        let h2 = h | 1; // odd, so the probe sequence covers the filter
        (0..self.hashes as u64)
            .map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % self.n_bits as u64) as usize)
    }

    /// Record `edge` as present.
    pub fn insert(&mut self, edge: u32) {
        if self.is_exact() {
            let b = edge as usize;
            debug_assert!(b < self.n_bits, "edge {edge} beyond the membership domain");
            self.words[b / 64] |= 1 << (b % 64);
        } else {
            let bits: Vec<usize> = self.bloom_bits(edge).collect();
            for b in bits {
                self.words[b / 64] |= 1 << (b % 64);
            }
        }
    }

    /// Whether `edge` may be present. Exact shape: precise. Bloom shape:
    /// `true` may be a false positive; `false` is always right.
    #[inline]
    pub fn contains(&self, edge: u32) -> bool {
        if self.is_exact() {
            let b = edge as usize;
            // Out-of-alphabet edges are definitionally absent (backward
            // search returns None for them too).
            b < self.n_bits && self.words[b / 64] >> (b % 64) & 1 == 1
        } else {
            self.bloom_bits(edge)
                .all(|b| self.words[b / 64] >> (b % 64) & 1 == 1)
        }
    }

    /// Fold `other` into `self` (both must share a shape — all shards of
    /// one corpus do, the shape being a function of `n_edges` alone).
    /// Bloom unions stay sound: the union of two filters over-approximates
    /// the union of their sets.
    pub fn union_with(&mut self, other: &Self) {
        debug_assert!(self.same_shape(other), "membership shapes diverged");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Whether `other` has the same shape (domain size, probe count and
    /// word count — a loaded block with fewer words than its domain
    /// needs would index past its end on the first probe).
    pub fn same_shape(&self, other: &Self) -> bool {
        self.n_bits == other.n_bits
            && self.hashes == other.hashes
            && self.words.len() == other.words.len()
    }

    /// Heap bytes of the bit array.
    pub fn size_in_bytes(&self) -> usize {
        self.words.len() * 8
    }

    fn persist(&self, w: &mut dyn Write) -> std::io::Result<()> {
        write_usize(w, self.n_bits)?;
        write_u64(w, self.hashes as u64)?;
        self.words.clone().persist(w)
    }

    fn restore(r: &mut dyn Read) -> std::io::Result<Self> {
        let n_bits = read_usize(r)?;
        let hashes = read_u64(r)? as u32;
        let words: Vec<u64> = Persist::restore(r)?;
        Ok(Self {
            words,
            n_bits,
            hashes,
        })
    }
}

/// One shard's pruning metadata: the edge-membership structure plus the
/// first/last global trajectory IDs the shard owns. Derived at every
/// point a shard materializes ([`ShardPruning::derive`]); persisted in
/// manifest format v5 (see [`crate::store`]) so it ships inside snapshot
/// bootstraps unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPruning {
    membership: EdgeMembership,
    /// Smallest global trajectory ID in the shard (`u32::MAX` when the
    /// shard is empty — unreachable through the builders).
    min_global: u32,
    /// Largest global trajectory ID in the shard.
    max_global: u32,
}

impl ShardPruning {
    /// Derive pruning metadata **exactly** from a shard's `C` array: edge
    /// `e` is present iff the shifted symbol `e + SYMBOL_OFFSET` occurs
    /// in the shard's text. O(σ) array probes — cheap enough to run at
    /// every assembly, append install, and legacy-manifest open.
    pub fn derive(index: &CinctIndex, n_edges: usize, globals: &[u32]) -> Self {
        let mut membership = EdgeMembership::for_alphabet(n_edges);
        let c = index.c_array();
        for e in 0..n_edges as u32 {
            if c.count(e + SYMBOL_OFFSET) > 0 {
                membership.insert(e);
            }
        }
        let (min_global, max_global) = id_span(globals);
        Self {
            membership,
            min_global,
            max_global,
        }
    }

    /// The membership structure.
    pub fn membership(&self) -> &EdgeMembership {
        &self.membership
    }

    /// Whether the shard may contain `edge` (false ⇒ definitely absent).
    #[inline]
    pub fn contains_edge(&self, edge: u32) -> bool {
        self.membership.contains(edge)
    }

    /// The first pattern edge whose absence from the membership set rules
    /// this shard out, or `None` when every edge may be present (the
    /// shard must then be searched). An absent edge makes every path
    /// through it absent, so `Some(_)` licenses skipping the backward
    /// search entirely — the search would have returned `None`.
    #[inline]
    pub fn rules_out(&self, path: &Path) -> Option<u32> {
        path.edges()
            .iter()
            .copied()
            .find(|&e| !self.membership.contains(e))
    }

    /// Smallest global trajectory ID owned by the shard.
    pub fn min_global(&self) -> u32 {
        self.min_global
    }

    /// Largest global trajectory ID owned by the shard.
    pub fn max_global(&self) -> u32 {
        self.max_global
    }

    /// Whether global ID `g` falls inside the shard's owned span. The
    /// span is a superset of ownership (compaction interleaves IDs across
    /// shards), so `false` rules the shard out while `true` merely
    /// permits it — the same one-sided contract as [`EdgeMembership`].
    pub fn may_own_id(&self, g: u32) -> bool {
        self.min_global <= g && g <= self.max_global
    }

    /// Sanity-check loaded metadata against the shard it claims to
    /// describe: the membership must be shaped for this corpus's alphabet
    /// (word count included) and the ID span must match the shard's
    /// manifest column. A loader
    /// that finds a mismatch re-derives instead of trusting the block.
    pub fn matches(&self, n_edges: usize, globals: &[u32]) -> bool {
        let expect = EdgeMembership::for_alphabet(n_edges);
        self.membership.same_shape(&expect)
            && (self.min_global, self.max_global) == id_span(globals)
    }

    /// Heap bytes of the metadata.
    pub fn size_in_bytes(&self) -> usize {
        self.membership.size_in_bytes() + 8
    }

    /// Serialize (the manifest's per-shard block).
    pub(crate) fn persist(&self, w: &mut dyn Write) -> std::io::Result<()> {
        self.membership.persist(w)?;
        write_u64(w, self.min_global as u64)?;
        write_u64(w, self.max_global as u64)
    }

    /// Deserialize (the manifest's per-shard block).
    pub(crate) fn restore(r: &mut dyn Read) -> std::io::Result<Self> {
        let membership = EdgeMembership::restore(r)?;
        let min_global = read_u64(r)? as u32;
        let max_global = read_u64(r)? as u32;
        Ok(Self {
            membership,
            min_global,
            max_global,
        })
    }
}

fn id_span(globals: &[u32]) -> (u32, u32) {
    (
        globals.iter().copied().min().unwrap_or(u32::MAX),
        globals.iter().copied().max().unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CinctBuilder;

    #[test]
    fn exact_membership_is_precise() {
        let mut m = EdgeMembership::for_alphabet(100);
        assert!(m.is_exact());
        for e in [0u32, 1, 63, 64, 99] {
            m.insert(e);
        }
        for e in 0..100u32 {
            let expect = matches!(e, 0 | 1 | 63 | 64 | 99);
            assert_eq!(m.contains(e), expect, "edge {e}");
        }
        // Out-of-domain edges are definitionally absent.
        assert!(!m.contains(100));
        assert!(!m.contains(u32::MAX));
    }

    #[test]
    fn bloom_membership_has_no_false_negatives() {
        let mut m = EdgeMembership::for_alphabet(BITSET_MAX_EDGES + 1);
        assert!(!m.is_exact());
        let present: Vec<u32> = (0..5000u32).map(|i| i * 977 + 13).collect();
        for &e in &present {
            m.insert(e);
        }
        for &e in &present {
            assert!(m.contains(e), "false negative on {e}");
        }
        // False positives are allowed but must be rare at this load.
        let fp = (0..100_000u32)
            .map(|i| 50_000_000 + i)
            .filter(|&e| m.contains(e))
            .count();
        assert!(
            fp < 2_000,
            "Bloom false-positive rate too high: {fp}/100000"
        );
    }

    #[test]
    fn union_over_approximates_both_sides() {
        let mut a = EdgeMembership::for_alphabet(256);
        let mut b = EdgeMembership::for_alphabet(256);
        a.insert(3);
        b.insert(200);
        a.union_with(&b);
        assert!(a.contains(3) && a.contains(200) && !a.contains(4));
    }

    #[test]
    fn derive_matches_the_shard_text() {
        let trajs = vec![vec![0u32, 1, 4, 5], vec![0, 1, 2]];
        let idx = CinctBuilder::new().build(&trajs, 8);
        let p = ShardPruning::derive(&idx, 8, &[7, 3]);
        for e in 0..8u32 {
            let expect = matches!(e, 0 | 1 | 2 | 4 | 5);
            assert_eq!(p.contains_edge(e), expect, "edge {e}");
        }
        assert_eq!((p.min_global(), p.max_global()), (3, 7));
        assert!(p.may_own_id(5) && !p.may_own_id(2) && !p.may_own_id(8));
        assert_eq!(p.rules_out(Path::new(&[0, 1, 2])), None);
        assert_eq!(p.rules_out(Path::new(&[0, 3, 2])), Some(3));
        // Out-of-alphabet edges rule the shard out, matching backward
        // search's graceful None.
        assert_eq!(p.rules_out(Path::new(&[99])), Some(99));
        assert!(p.matches(8, &[3, 7]));
        assert!(!p.matches(8, &[3, 6]));
    }

    #[test]
    fn persist_roundtrip() {
        let trajs = vec![vec![2u32, 3], vec![5, 2]];
        let idx = CinctBuilder::new().build(&trajs, 6);
        let p = ShardPruning::derive(&idx, 6, &[0, 1]);
        let mut bytes = Vec::new();
        p.persist(&mut bytes).unwrap();
        let back = ShardPruning::restore(&mut std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(back, p);
    }
}
