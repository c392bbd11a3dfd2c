//! The unified `PathQuery` interface: one query API for CiNCT and every
//! baseline FM-index.
//!
//! The paper's core claim is that a single compressed self-index answers
//! *counting* (Algorithm 1/3), *locate* (§IV-B) and *sub-path extraction*
//! (Algorithm 4) over network-constrained trajectories. This module is
//! that claim as a trait:
//!
//! * [`PathQuery`] — counting/range queries over a forward [`Path`] of
//!   edge IDs, streaming occurrence listing ([`PathQuery::occurrences`]),
//!   and streaming extraction ([`PathQuery::extract_iter`]). Implemented by
//!   `CinctIndex`, the five Table-II baselines ([`crate::Ufmi`],
//!   [`crate::IcbWm`], [`crate::IcbHuff`], [`crate::FmGmr`],
//!   [`crate::FmApHyb`]), and `TemporalCinct`.
//! * [`OccurIter`] — a lazy iterator over `(trajectory, offset)` matches,
//!   driven row-by-row by sampled-suffix-array walks: no intermediate
//!   `Vec` is ever materialized.
//! * [`ExtractIter`] — a lazy iterator over the symbols of an LF-mapping
//!   walk, one symbol per step.
//!
//! Error semantics: "path not present" is **not** an error (`None` /
//! an empty iterator); see [`crate::error`] for what is.

use crate::error::QueryError;
use cinct_bwt::SYMBOL_OFFSET;
use cinct_succinct::Symbol;
use std::ops::Range;

/// A forward path of road-network edge IDs — the query type of every
/// backend. `Path` is an unsized view (like `str` to `String`); build one
/// with [`Path::new`]:
///
/// ```
/// use cinct_fmindex::Path;
/// let p = Path::new(&[0, 1, 4]);
/// assert_eq!(p.len(), 3);
/// assert_eq!(&p[..2], &[0, 1]);
/// ```
#[derive(Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct Path([u32]);

impl Path {
    /// View a slice of edge IDs (travel order) as a path.
    pub fn new(edges: &[u32]) -> &Path {
        // SAFETY: `Path` is `repr(transparent)` over `[u32]`.
        unsafe { &*(edges as *const [u32] as *const Path) }
    }

    /// The edge IDs in travel order.
    pub fn edges(&self) -> &[u32] {
        &self.0
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` for the empty path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Text symbols in backward-search order. The trajectory string stores
    /// *reversed* trajectories, so backward search consumes the path
    /// **forward**: first edge first, each shifted past the sentinels.
    /// Backends drive their search loops off this; other callers rarely
    /// need it.
    pub fn search_symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.0.iter().map(|&e| e + SYMBOL_OFFSET)
    }
}

impl std::ops::Deref for Path {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        &self.0
    }
}

impl<'a> From<&'a [u32]> for &'a Path {
    fn from(edges: &'a [u32]) -> &'a Path {
        Path::new(edges)
    }
}

impl<'a> From<&'a Vec<u32>> for &'a Path {
    fn from(edges: &'a Vec<u32>) -> &'a Path {
        Path::new(edges)
    }
}

impl AsRef<Path> for [u32] {
    fn as_ref(&self) -> &Path {
        Path::new(self)
    }
}

impl AsRef<Path> for Vec<u32> {
    fn as_ref(&self) -> &Path {
        Path::new(self)
    }
}

/// The query surface shared by every index in this workspace.
///
/// Required methods are the index primitives (text length, alphabet,
/// suffix range, one LF step); everything else — counting, validation,
/// streaming occurrence and extraction iterators — is provided on top.
/// The trait is object-safe: the batch `QueryEngine` and the bench
/// harness drive all backends through `&dyn PathQuery`.
///
/// `Send + Sync` are supertraits: every index is an immutable query
/// structure once built, and the batch layer fans one `&dyn PathQuery`
/// out across threads (`QueryEngine::parallel`).
pub trait PathQuery: Send + Sync {
    /// Length of the indexed trajectory string, sentinels included.
    fn text_len(&self) -> usize;

    /// Alphabet size σ (road edges + 2 sentinels).
    fn sigma(&self) -> usize;

    /// Heap bytes of the queryable structure.
    fn size_in_bytes(&self) -> usize;

    /// Suffix range `R(P)` of a forward path, or `None` when no trajectory
    /// travels it. The empty path matches everywhere.
    fn range(&self, path: &Path) -> Option<Range<usize>>;

    /// One LF-mapping step from BWT row `j`: `(T_bwt[j], LF(j))`.
    fn lf_step(&self, j: usize) -> (Symbol, usize);

    /// Number of occurrences of the path across all trajectories.
    fn count(&self, path: &Path) -> usize {
        self.range(path).map_or(0, |r| r.len())
    }

    /// `true` iff nothing is indexed.
    fn is_empty(&self) -> bool {
        self.text_len() == 0
    }

    /// Reject malformed query paths: [`QueryError::EmptyPattern`] and
    /// [`QueryError::UnknownEdge`] (edge ID outside the indexed network).
    fn validate_path(&self, path: &Path) -> Result<(), QueryError> {
        if path.is_empty() {
            return Err(QueryError::EmptyPattern);
        }
        let n_edges = self.sigma().saturating_sub(SYMBOL_OFFSET as usize);
        for &edge in path.edges() {
            if edge as usize >= n_edges {
                return Err(QueryError::UnknownEdge { edge, n_edges });
            }
        }
        Ok(())
    }

    /// [`PathQuery::range`], but distinguishing *malformed* from *absent*:
    /// `Ok(None)` is a well-formed path no trajectory travels.
    fn try_range(&self, path: &Path) -> Result<Option<Range<usize>>, QueryError> {
        self.validate_path(path)?;
        Ok(self.range(path))
    }

    /// Stream every `(trajectory, offset)` occurrence of the path, in
    /// suffix-range order (use [`OccurIter::collect_sorted`] for the
    /// id-then-offset order the legacy eager API returned). `offset` is
    /// the edge index within the trajectory where the path starts.
    ///
    /// Errors: [`QueryError::LocateUnsupported`] unless the index carries
    /// SA samples, plus path validation. An *absent* path yields
    /// `Ok` with an empty iterator.
    fn occurrences(&self, path: &Path) -> Result<OccurIter<'_>, QueryError> {
        self.validate_path(path)?;
        Err(QueryError::LocateUnsupported)
    }

    /// Stream the `l` text symbols preceding position `SA[j]`, one per
    /// LF step — i.e. `T[SA[j]-l .. SA[j])` in **reverse text order** (the
    /// walk moves backward through the text). [`PathQuery::extract`]
    /// collects the forward order.
    fn extract_iter(&self, j: usize, l: usize) -> ExtractIter<'_>
    where
        Self: Sized,
    {
        ExtractIter::new(self, j, l)
    }

    /// Eager extraction in forward text order: `T[SA[j]-l .. SA[j])`
    /// (paper Algorithm 4).
    fn extract(&self, j: usize, l: usize) -> Vec<Symbol>
    where
        Self: Sized,
    {
        self.extract_iter(j, l).collect_forward()
    }

    /// Index size in bits per indexed symbol (the y-axis of paper Fig. 10).
    fn bits_per_symbol(&self) -> f64 {
        self.size_in_bytes() as f64 * 8.0 / self.text_len() as f64
    }
}

/// Streaming sub-path extraction: yields one symbol per LF step, walking
/// backward from `SA[j]`. Created by [`PathQuery::extract_iter`].
pub struct ExtractIter<'a> {
    index: &'a dyn PathQuery,
    row: usize,
    remaining: usize,
}

impl<'a> ExtractIter<'a> {
    /// Start an `l`-symbol walk at BWT row `j`.
    pub fn new(index: &'a (dyn PathQuery + 'a), j: usize, l: usize) -> Self {
        ExtractIter {
            index,
            row: j,
            remaining: l,
        }
    }

    /// The BWT row the next LF step will read (exposes the walk state for
    /// callers that alternate extraction with other row-space queries).
    pub fn row(&self) -> usize {
        self.row
    }

    /// Drain the walk and return the symbols in forward text order.
    pub fn collect_forward(self) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = self.collect();
        out.reverse();
        out
    }
}

impl Iterator for ExtractIter<'_> {
    type Item = Symbol;

    fn next(&mut self) -> Option<Symbol> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (symbol, next_row) = self.index.lf_step(self.row);
        self.row = next_row;
        Some(symbol)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ExtractIter<'_> {}

/// Row-to-occurrence resolution — the locate half of an index. Implemented
/// by backends with SA samples and a trajectory directory (`CinctIndex`);
/// [`OccurIter`] drives it one suffix-range row at a time.
pub trait OccurrenceSource {
    /// Map BWT row `j` of a match of a `path_len`-edge path to the
    /// `(trajectory, offset)` of the path's first edge.
    ///
    /// # Panics
    /// May panic on rows outside the match range of such a path, or if the
    /// index's SA samples were checked absent (callers go through
    /// [`PathQuery::occurrences`], which validates first).
    fn resolve_row(&self, j: usize, path_len: usize) -> (usize, usize);
}

/// One resolvable slice of suffix-range rows inside an [`OccurIter`]: a
/// locate-capable source, the row range to walk, and an optional
/// trajectory-ID remap applied to everything the source resolves.
///
/// Single-index backends never see this type ([`OccurIter::new`] wraps one
/// segment); sharded backends build one segment per shard and chain them
/// with [`OccurIter::fan_out`], remapping each shard's *local* trajectory
/// IDs into the corpus-global namespace.
pub struct OccurSegment<'a> {
    source: &'a dyn OccurrenceSource,
    rows: Range<usize>,
    /// `id_map[local_traj] = global_traj`; `None` = identity.
    id_map: Option<&'a [u32]>,
}

impl<'a> OccurSegment<'a> {
    /// A segment over `rows` of `source`, reporting the source's own
    /// trajectory IDs.
    pub fn new(source: &'a (dyn OccurrenceSource + 'a), rows: Option<Range<usize>>) -> Self {
        OccurSegment {
            source,
            rows: rows.unwrap_or(0..0),
            id_map: None,
        }
    }

    /// A segment whose resolved trajectory IDs are remapped through
    /// `id_map` (`id_map[local] = global`). The map must cover every
    /// trajectory the source can resolve.
    pub fn remapped(
        source: &'a (dyn OccurrenceSource + 'a),
        rows: Option<Range<usize>>,
        id_map: &'a [u32],
    ) -> Self {
        OccurSegment {
            source,
            rows: rows.unwrap_or(0..0),
            id_map: Some(id_map),
        }
    }
}

/// Streaming occurrence listing: lazily maps each suffix-range row to its
/// `(trajectory, offset)` via sampled-SA walks. Created by
/// [`PathQuery::occurrences`]; never materializes an intermediate `Vec`.
/// A sharded backend chains one segment per shard ([`OccurIter::fan_out`]);
/// the iterator drains segments in order, so shard-local row order is
/// preserved within each segment.
pub struct OccurIter<'a> {
    segments: Vec<OccurSegment<'a>>,
    /// Index of the segment currently being drained.
    cur: usize,
    path_len: usize,
}

impl<'a> OccurIter<'a> {
    /// Iterate the matches of a `path_len`-edge path over suffix-range
    /// `rows`. Backends call this from their `occurrences` impl *after*
    /// validating the path and locate support.
    pub fn new(
        source: &'a (dyn OccurrenceSource + 'a),
        rows: Option<Range<usize>>,
        path_len: usize,
    ) -> Self {
        Self::fan_out(vec![OccurSegment::new(source, rows)], path_len)
    }

    /// Chain several per-source segments into one occurrence stream (the
    /// sharded fan-out path). Segments are drained in the given order.
    pub fn fan_out(segments: Vec<OccurSegment<'a>>, path_len: usize) -> Self {
        OccurIter {
            segments,
            cur: 0,
            path_len,
        }
    }

    /// Occurrences left to yield.
    pub fn remaining(&self) -> usize {
        self.segments[self.cur..].iter().map(|s| s.rows.len()).sum()
    }

    /// Drain into a `Vec` sorted by `(trajectory, offset)`.
    pub fn collect_sorted(self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = self.collect();
        out.sort_unstable();
        out
    }
}

impl Iterator for OccurIter<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        loop {
            let seg = self.segments.get_mut(self.cur)?;
            match seg.rows.next() {
                Some(j) => {
                    let (t, off) = seg.source.resolve_row(j, self.path_len);
                    let t = seg.id_map.map_or(t, |m| m[t] as usize);
                    return Some((t, off));
                }
                None => self.cur += 1,
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for OccurIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_views_are_transparent() {
        let edges = vec![3u32, 1, 4];
        let p: &Path = Path::new(&edges);
        assert_eq!(p.edges(), &[3, 1, 4]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        let q: &Path = (&edges).into();
        assert_eq!(p, q);
        assert_eq!(
            p.search_symbols().collect::<Vec<_>>(),
            vec![3 + SYMBOL_OFFSET, 1 + SYMBOL_OFFSET, 4 + SYMBOL_OFFSET]
        );
    }

    #[test]
    fn empty_path() {
        let p = Path::new(&[]);
        assert!(p.is_empty());
        assert_eq!(p.search_symbols().count(), 0);
    }
}
