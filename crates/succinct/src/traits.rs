//! Core traits shared by all succinct structures.

/// A symbol: road-segment IDs, sentinels and RML labels are all `u32`.
///
/// The CiNCT paper reserves `# = 0` (end of string) and `$ = 1` (trajectory
/// separator); road segments occupy `2..σ`. Nothing in this crate depends on
/// that convention — the alphabet is just `0..σ`.
pub type Symbol = u32;

/// Heap-space accounting. Every succinct structure reports the number of
/// bytes it occupies so the experiment harness can reproduce the paper's
/// bits-per-symbol figures exactly (paper Fig. 10, 12, 13).
pub trait SpaceUsage {
    /// Total heap bytes owned by this structure (excluding `size_of::<Self>()`
    /// itself unless noted).
    fn size_in_bytes(&self) -> usize;

    /// Convenience: size in bits.
    fn size_in_bits(&self) -> usize {
        self.size_in_bytes() * 8
    }
}

impl<T: SpaceUsage> SpaceUsage for Vec<T> {
    fn size_in_bytes(&self) -> usize {
        self.iter().map(SpaceUsage::size_in_bytes).sum::<usize>()
            + self.capacity() * std::mem::size_of::<T>()
    }
}

/// Bit-level rank/access interface implemented by both the plain
/// ([`crate::RankBitVec`]) and the compressed ([`crate::RrrBitVec`]) bit
/// vectors. Wavelet structures are generic over this trait, which is how the
/// paper's UFMI / ICB-WM / ICB-Huff / CiNCT variants share one code base.
///
/// `Send + Sync` are supertraits: rank structures are immutable once built
/// and the parallel query engine shares indexes across threads.
pub trait BitRank: SpaceUsage + Send + Sync {
    /// Number of bits stored.
    fn len(&self) -> usize;

    /// `true` iff no bits are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bit at position `i`. Panics if `i >= len()`.
    fn get(&self, i: usize) -> bool;

    /// Number of set bits in positions `[0, i)`. `i` may equal `len()`.
    fn rank1(&self, i: usize) -> usize;

    /// Number of zero bits in positions `[0, i)`.
    fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// Total number of set bits.
    fn count_ones(&self) -> usize {
        self.rank1(self.len())
    }

    /// `(get(i), rank1(i))` in one call — the per-level primitive of a
    /// wavelet-tree access descent. Backends that decode a block per query
    /// ([`crate::RrrBitVec`]) override this to answer both from a single
    /// decode. Must be answer-identical to `get` + `rank1`.
    fn get_and_rank1(&self, i: usize) -> (bool, usize) {
        (self.get(i), self.rank1(i))
    }

    /// `(rank1(i), rank1(j))` in one call. Backward search ranks two
    /// positions per step; backends with a serial per-rank dependency
    /// chain ([`crate::RrrBitVec`]) override this to interleave the two
    /// chains for instruction-level parallelism. Must be answer-identical
    /// to two [`BitRank::rank1`] calls.
    fn rank1_pair(&self, i: usize, j: usize) -> (usize, usize) {
        (self.rank1(i), self.rank1(j))
    }
}

/// Construction interface: build a rank structure from a raw bit buffer.
///
/// The single generic entry point lets [`crate::HuffmanWaveletTree`] and
/// [`crate::WaveletMatrix`] be instantiated with either backend.
pub trait BitVecBuild: BitRank + Sized {
    /// Parameters controlling the build (e.g. the RRR block size `b`).
    type Params: Copy + Clone + std::fmt::Debug;

    /// Default parameters (`b = 63` for RRR, matching the paper's default).
    fn default_params() -> Self::Params;

    /// Build from a finished [`crate::BitBuf`].
    fn build(bits: &crate::BitBuf, params: Self::Params) -> Self;

    /// Build with up to `threads` worker threads (`0` = the machine's
    /// available parallelism). Implementations must produce a structure
    /// **identical** to [`BitVecBuild::build`] — same serialized bytes —
    /// regardless of thread count; backends with no parallel path keep
    /// this default, which ignores the hint.
    fn build_mt(bits: &crate::BitBuf, params: Self::Params, threads: usize) -> Self {
        let _ = threads;
        Self::build(bits, params)
    }
}

/// Symbol-level sequence interface: the operations an FM-index needs from the
/// structure holding the (possibly labeled) BWT.
///
/// `Send + Sync` are supertraits for the same reason as [`BitRank`]'s: BWT
/// containers are immutable query structures shared across query threads.
pub trait SymbolSeq: SpaceUsage + Send + Sync {
    /// Sequence length.
    fn len(&self) -> usize;

    /// `true` iff the sequence is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of occurrences of `w` in positions `[0, i)`.
    fn rank(&self, w: Symbol, i: usize) -> usize;

    /// `(rank(w, i), rank(w, j))` in one call — the shape of every
    /// backward-search step (`sp`/`ep`). Wavelet backends override this to
    /// descend once and pair the bit-level ranks ([`BitRank::rank1_pair`]);
    /// must be answer-identical to two [`SymbolSeq::rank`] calls.
    fn rank_pair(&self, w: Symbol, i: usize, j: usize) -> (usize, usize) {
        (self.rank(w, i), self.rank(w, j))
    }

    /// The symbol at position `i`.
    fn access(&self, i: usize) -> Symbol;

    /// `(access(i), rank(access(i), i))` in one call — exactly the pair an
    /// LF-mapping step consumes. A wavelet descent computes the rank as a
    /// by-product of access (the leaf position *is* the rank), so wavelet
    /// backends override this to answer both in one descent; must be
    /// answer-identical to `access` + `rank`.
    fn access_and_rank(&self, i: usize) -> (Symbol, usize) {
        let s = self.access(i);
        (s, self.rank(s, i))
    }

    /// Size of the alphabet (symbols are `0..alphabet_size`).
    fn alphabet_size(&self) -> usize;
}
