//! The CiNCT index: labeled BWT in an HWT over hybrid RRR + ET-graph with
//! correction terms (paper §III–§IV).

use crate::builder::CinctBuilder;
use crate::format;
use crate::rml::Rml;
use cinct_bwt::CArray;
use cinct_fmindex::{OccurIter, OccurrenceSource, Path, PathQuery, QueryError};
use cinct_succinct::serial::{read_u64, read_usize, write_u64, write_u64s, write_usize, Persist};
use cinct_succinct::{
    BitRank, HuffmanWaveletTree, IntVec, RankBitVec, RrrBitVec, SpaceUsage, Symbol, SymbolSeq,
};
use std::io::{Read, Write};
use std::ops::Range;

/// Optional locate support: a sampled suffix array lets the index map BWT
/// rows back to text positions (needed by `locate`/strict-path queries).
#[derive(Clone, Debug)]
pub(crate) struct SaSamples {
    /// Marks BWT rows `j` with `SA[j] % rate == 0`.
    pub(crate) marked: RankBitVec,
    /// `SA[j]` for marked rows, in row order, packed.
    pub(crate) values: IntVec,
    /// Sampling rate.
    pub(crate) rate: usize,
}

/// The CiNCT compressed trajectory index.
///
/// Built with [`CinctIndex::build`] (defaults: bigram-sorted RML, RRR block
/// size `b = 63`, hybrid RRR) or via [`CinctBuilder`] for the ablation
/// knobs.
#[derive(Clone, Debug)]
pub struct CinctIndex {
    pub(crate) c: CArray,
    /// `φ(T_bwt)` in a Huffman-shaped wavelet tree over RRR bitmaps whose
    /// 32-block groups are stored raw where RRR saves nothing
    /// ([`RrrBitVec::hybrid`]; [`CinctBuilder::pure_rrr`] builds the
    /// paper's pure RRR).
    pub(crate) labeled: HuffmanWaveletTree<RrrBitVec>,
    /// The RML function + ET-graph with attached `Z` terms.
    pub(crate) rml: Rml,
    /// Start offsets of each (reversed) trajectory in the text — the
    /// trajectory *directory*, an API convenience kept outside the paper's
    /// size accounting (see [`CinctIndex::directory_size_in_bytes`]).
    pub(crate) traj_starts: Vec<u32>,
    /// Row `ISA[end_k]` per trajectory: the BWT row of the `$` rotation that
    /// terminates trajectory `k` (directory).
    pub(crate) traj_rows: Vec<u32>,
    /// Optional SA sampling for locate.
    pub(crate) samples: Option<SaSamples>,
    pub(crate) n_network_edges: usize,
}

impl CinctIndex {
    /// Index a set of trajectories (edge-ID sequences over `0..n_edges`)
    /// with default parameters.
    pub fn build(trajectories: &[Vec<u32>], n_edges: usize) -> Self {
        CinctBuilder::new().build(trajectories, n_edges)
    }

    /// Number of indexed trajectories.
    pub fn num_trajectories(&self) -> usize {
        self.traj_starts.len()
    }

    /// The alphabet size σ (road segments + 2 sentinels).
    pub fn sigma(&self) -> usize {
        self.c.sigma()
    }

    /// The `C` array.
    pub fn c_array(&self) -> &CArray {
        &self.c
    }

    /// The RML/ET-graph.
    pub fn rml(&self) -> &Rml {
        &self.rml
    }

    /// The wavelet tree holding `φ(T_bwt)`, over (hybrid) RRR.
    pub fn labeled_bwt(&self) -> &HuffmanWaveletTree<RrrBitVec> {
        &self.labeled
    }

    /// PseudoRank (paper Algorithm 2 / Theorem 2): simulate
    /// `rank_w(T_bwt, j)` from the labeled BWT, valid when
    /// `w ∈ N_out(w′)` and `C[w′] ≤ j ≤ C[w′+1]`.
    ///
    /// Returns `None` when the transition `w′ → w` never occurs (in which
    /// case the true rank answer would make the pattern vanish anyway).
    #[inline]
    pub fn pseudo_rank(&self, j: usize, w: Symbol, w_prime: Symbol) -> Option<usize> {
        let label = self.rml.label(w, w_prime)?;
        debug_assert!(self.c.get(w_prime) <= j && j <= self.c.get(w_prime + 1));
        let z = self.rml.graph().z_term(label, w_prime);
        Some((self.labeled.rank(label, j) as i64 - z) as usize)
    }

    /// `LabeledSearchFM` (paper Algorithm 3): backward search where each
    /// rank is a PseudoRank, consuming pattern symbols last-to-first. Each
    /// step fetches the label and its `Z` term in one lookup and ranks
    /// `sp` and `ep` together.
    fn labeled_search(&self, mut symbols: impl Iterator<Item = Symbol>) -> Option<Range<usize>> {
        let Some(mut w_prev) = symbols.next() else {
            return Some(0..self.labeled.len());
        };
        if w_prev as usize >= self.sigma() {
            return None;
        }
        let mut sp = self.c.get(w_prev);
        let mut ep = self.c.get(w_prev + 1);
        for w in symbols {
            if sp >= ep {
                return None;
            }
            if w as usize >= self.sigma() {
                return None;
            }
            let (label, z) = self.rml.label_and_z(w, w_prev)?; // Line 5-6: NotFound
            let (rsp, rep) = self.labeled.rank_pair(label, sp, ep);
            sp = (self.c.get(w) as i64 + rsp as i64 - z) as usize;
            ep = (self.c.get(w) as i64 + rep as i64 - z) as usize;
            w_prev = w;
        }
        if sp < ep {
            Some(sp..ep)
        } else {
            None
        }
    }

    /// Suffix range query over an **encoded** pattern. Most callers want
    /// [`PathQuery::range`] / [`CinctIndex::path_range`] over forward paths.
    pub fn suffix_range_encoded(&self, pattern: &[Symbol]) -> Option<Range<usize>> {
        self.labeled_search(pattern.iter().rev().copied())
    }

    /// Suffix range of a **forward path** of road-segment IDs
    /// (slice-flavored convenience for [`PathQuery::range`]).
    pub fn path_range(&self, path: &[u32]) -> Option<Range<usize>> {
        self.range(Path::new(path))
    }

    /// Number of times the path occurs across all trajectories
    /// (slice-flavored convenience for [`PathQuery::count`]).
    pub fn count_path(&self, path: &[u32]) -> usize {
        self.count(Path::new(path))
    }

    /// One LF-mapping step from a row on its own: [`CinctIndex::step`]
    /// after a binary-search lookup of the row's context.
    #[inline]
    pub fn lf_step(&self, j: usize) -> (Symbol, usize) {
        self.step(j, self.c.symbol_at(j))
    }

    /// The LF step kernel, simulated with PseudoRank (the loop body of
    /// Algorithm 4): `(T_bwt[j] decoded, LF(j))` from row `j` in context
    /// `w′ = F[j]`. Row `LF(j)` begins with `T_bwt[j]` (the FM-index
    /// property), so a walk passes each decoded symbol on as its next
    /// step's context and only its first step looks one up. The context's
    /// ET-graph row is read before the one fused wavelet descent
    /// ([`SymbolSeq::access_and_rank`]) that yields the label and its
    /// rank.
    #[inline]
    fn step(&self, j: usize, w_prime: Symbol) -> (Symbol, usize) {
        debug_assert_eq!(w_prime, self.c.symbol_at(j), "context of row {j}");
        let graph = self.rml.graph();
        let row = graph.row(w_prime);
        let (label, rank) = self.labeled.access_and_rank(j);
        let (w, z) = graph.edge(row, label);
        (w, (self.c.get(w) as i64 + rank as i64 - z) as usize)
    }

    /// Recover the `id`-th trajectory (forward edge order) from the
    /// compressed index alone.
    pub fn trajectory(&self, id: usize) -> Vec<u32> {
        let len = self.trajectory_len(id);
        // Row `traj_rows[id]` is the rotation starting at the `$` that
        // terminates the reversed trajectory, so `$` is the first step's
        // context. Walking `len` steps back from it yields `T_k^r`
        // backwards, i.e. the trajectory in forward edge order.
        let (mut row, mut w_prime) = (self.traj_rows[id] as usize, cinct_bwt::SEPARATOR);
        (0..len)
            .map(|_| {
                (w_prime, row) = self.step(row, w_prime);
                w_prime - cinct_bwt::SYMBOL_OFFSET
            })
            .collect()
    }

    /// Length (in edges) of the `id`-th trajectory.
    pub fn trajectory_len(&self, id: usize) -> usize {
        let start = self.traj_starts[id] as usize;
        let end = self
            .traj_starts
            .get(id + 1)
            .map_or(self.labeled.len() - 2, |&s| s as usize - 1);
        end - start
    }

    /// Locate: text position `SA[j]` for a BWT row, using the sampled
    /// suffix array. `None` if the index was built without locate support
    /// (`CinctBuilder::locate_sampling`).
    ///
    /// # Panics
    ///
    /// If no sampled row is met within `rate` LF steps (or one pass over
    /// every row), which a correct index always meets: forged RRR offsets
    /// in an opened index can still bend LF, and a walk past the bound
    /// would never end.
    pub fn locate(&self, j: usize) -> Option<usize> {
        let samples = self.samples.as_ref()?;
        let bound = samples.rate.min(self.labeled.len());
        let (mut j, mut w_prime) = (j, self.c.symbol_at(j));
        for steps in 0..=bound {
            if samples.marked.get(j) {
                let k = samples.marked.rank1(j);
                return Some(samples.values.get(k) as usize + steps);
            }
            (w_prime, j) = self.step(j, w_prime);
        }
        panic!("corrupt index: locate met no SA sample in {bound} LF steps");
    }

    /// Size of the queryable index as the paper accounts it: labeled
    /// wavelet tree + ET-graph (labels and `Z` terms) + `C` array.
    pub fn core_size_in_bytes(&self) -> usize {
        self.labeled.size_in_bytes() + self.rml.graph().size_in_bytes() + self.c.size_in_bytes()
    }

    /// Size without the ET-graph — the paper's "CiNCT (w/o ET-graph)"
    /// series in Figs. 10, 12, 13.
    pub fn size_without_et_graph(&self) -> usize {
        self.labeled.size_in_bytes() + self.c.size_in_bytes()
    }

    /// Bytes spent on the trajectory directory and optional SA samples —
    /// engineering conveniences beyond the paper's data structure (which
    /// [`CinctIndex::core_size_in_bytes`] accounts).
    pub fn directory_size_in_bytes(&self) -> usize {
        self.traj_starts.capacity() * 4
            + self.traj_rows.capacity() * 4
            + self
                .samples
                .as_ref()
                .map_or(0, |s| s.marked.size_in_bytes() + s.values.size_in_bytes())
    }

    /// Number of road-network edges this index was built over.
    pub fn network_edges(&self) -> usize {
        self.n_network_edges
    }

    /// SA sampling rate, if the index was built with locate support.
    pub fn locate_sampling_rate(&self) -> Option<usize> {
        self.samples.as_ref().map(|s| s.rate)
    }
}

impl CinctIndex {
    /// Serialize the whole index (including the trajectory directory and
    /// optional SA samples) to a stream.
    pub fn write_to(&self, w: &mut dyn Write) -> std::io::Result<()> {
        write_u64(w, format::INDEX.header())?;
        write_u64s(w, self.c.raw_counts())?;
        self.labeled.persist(w)?;
        self.rml.persist(w)?;
        self.traj_starts.persist(w)?;
        self.traj_rows.persist(w)?;
        match &self.samples {
            None => write_u64(w, 0)?,
            Some(s) => {
                write_u64(w, 1)?;
                s.marked.persist(w)?;
                s.values.persist(w)?;
                write_usize(w, s.rate)?;
            }
        }
        write_usize(w, self.n_network_edges)
    }

    /// Reload an index written with [`CinctIndex::write_to`].
    ///
    /// A stream of another format version is refused at its header (an
    /// older payload would load and rank wrongly). Structural problems
    /// surface as [`QueryError::CorruptIndex`]; truncated or failing
    /// streams as [`QueryError::Io`].
    pub fn read_from(r: &mut dyn Read) -> Result<Self, QueryError> {
        let bad = |msg: &str| QueryError::CorruptIndex(msg.to_string());
        format::INDEX.check(read_u64(r)?)?;
        let cumulative: Vec<u64> = Persist::restore(r).map_err(shape)?;
        let c = CArray::from_raw_counts(cumulative).ok_or_else(|| bad("corrupt C array"))?;
        let labeled = HuffmanWaveletTree::<RrrBitVec>::restore(r).map_err(shape)?;
        if c.get(c.sigma() as u32) != labeled.len() {
            return Err(bad("C array and labeled BWT disagree on length"));
        }
        let rml = Rml::restore(r).map_err(shape)?;
        if rml.graph().num_vertices() != c.sigma() {
            return Err(bad("ET-graph and C array disagree on sigma"));
        }
        // What bounds a query's work is checked here, so a forged directory
        // or sample set is refused on open instead of hanging a query or
        // sizing an allocation: trajectory `k` spans `traj_starts[k] ..
        // traj_starts[k + 1] − 1`, the last one ends before the text's
        // final `$#`, and a locate walk needs one mark per sample.
        let text_len = labeled.len();
        let traj_starts: Vec<u32> = Persist::restore(r).map_err(shape)?;
        let traj_rows: Vec<u32> = Persist::restore(r).map_err(shape)?;
        if traj_rows.len() != traj_starts.len() {
            return Err(bad("trajectory directory mismatch"));
        }
        let last_start = text_len
            .checked_sub(2)
            .ok_or_else(|| bad("text too short"))?;
        // Folds, not short-circuits, so the scans vectorize.
        let next = traj_starts.get(1..).unwrap_or(&[]);
        let increasing = traj_starts
            .iter()
            .zip(next)
            .fold(true, |ok, (a, b)| ok & (a < b));
        if !increasing
            || traj_starts.first().is_some_and(|&s| s != 0)
            || traj_starts.last().is_some_and(|&s| s as usize > last_start)
        {
            return Err(bad(
                "trajectory starts are not increasing from 0 inside the text",
            ));
        }
        if traj_rows.iter().fold(0, |max, &row| max.max(row)) as usize >= text_len {
            return Err(bad("trajectory row outside the BWT"));
        }
        let samples = match read_u64(r)? {
            0 => None,
            1 => Some(SaSamples {
                marked: RankBitVec::restore(r).map_err(shape)?,
                values: IntVec::restore(r).map_err(shape)?,
                rate: read_usize(r)?,
            }),
            _ => return Err(bad("bad samples tag")),
        };
        if let Some(s) = &samples {
            if s.marked.len() != text_len || s.marked.count_ones() != s.values.len() || s.rate == 0
            {
                return Err(bad("SA samples disagree with their marks"));
            }
        }
        // The network size bounds every edge a query or an append may
        // name, so it must be the one the alphabet was built over.
        let n_network_edges = read_usize(r)?;
        if n_network_edges.checked_add(cinct_bwt::SYMBOL_OFFSET as usize) != Some(c.sigma()) {
            return Err(bad("stored network size disagrees with the C array"));
        }
        Ok(Self {
            c,
            labeled,
            rml,
            traj_starts,
            traj_rows,
            samples,
            n_network_edges,
        })
    }
}

/// A decoder's refusal of a field's shape is a corrupt index; a short or
/// failing stream stays an I/O error.
fn shape(e: std::io::Error) -> QueryError {
    if e.kind() == std::io::ErrorKind::InvalidData {
        QueryError::CorruptIndex(e.to_string())
    } else {
        e.into()
    }
}

impl PathQuery for CinctIndex {
    fn text_len(&self) -> usize {
        self.labeled.len()
    }

    fn sigma(&self) -> usize {
        self.c.sigma()
    }

    fn size_in_bytes(&self) -> usize {
        self.core_size_in_bytes()
    }

    /// Backward search consumes the trajectory-string pattern last symbol
    /// first; trajectories are stored reversed, so that is the forward
    /// edge order of `path`.
    fn range(&self, path: &Path) -> Option<Range<usize>> {
        self.labeled_search(path.search_symbols())
    }

    fn lf_step(&self, j: usize) -> (Symbol, usize) {
        CinctIndex::lf_step(self, j)
    }

    /// Looks up row `j`'s context once, then walks as
    /// [`CinctIndex::trajectory`] does: each decoded symbol is the next
    /// step's context.
    fn extract(&self, j: usize, l: usize) -> Vec<Symbol> {
        let (mut row, mut w_prime) = (j, self.c.symbol_at(j));
        let mut out: Vec<Symbol> = (0..l)
            .map(|_| {
                (w_prime, row) = self.step(row, w_prime);
                w_prime
            })
            .collect();
        out.reverse();
        out
    }

    fn occurrences(&self, path: &Path) -> Result<cinct_fmindex::OccurIter<'_>, QueryError> {
        self.validate_path(path)?;
        if self.samples.is_none() {
            return Err(QueryError::LocateUnsupported);
        }
        Ok(OccurIter::new(self, self.range(path), path.len()))
    }
}

impl OccurrenceSource for CinctIndex {
    fn resolve_row(&self, j: usize, path_len: usize) -> (usize, usize) {
        let text_pos = self.locate(j).expect("occurrences() checked SA samples");
        // text_pos is the start (in T) of the suffix matching the encoded
        // (reversed) pattern; that is the position of the *last* path edge
        // within the reversed trajectory.
        let t = match self.traj_starts.binary_search(&(text_pos as u32)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let len = self.trajectory_len(t);
        let start_in_rev = text_pos - self.traj_starts[t] as usize;
        // Reversed offset of the path's last edge → forward offset of its
        // first edge.
        (t, len - start_in_rev - path_len)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indices appear in assertion messages
mod tests {
    use super::*;
    use crate::builder::CinctBuilder;
    use crate::rml::LabelingStrategy;
    use cinct_bwt::TrajectoryString;

    fn paper_trajs() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]]
    }

    #[test]
    fn paper_suffix_range() {
        let idx = CinctIndex::build(&paper_trajs(), 6);
        // R(BA) = [9, 11): path A→B.
        assert_eq!(idx.path_range(&[0, 1]), Some(9..11));
        assert_eq!(idx.count_path(&[0, 1]), 2);
        assert_eq!(idx.count_path(&[0, 1, 4, 5]), 1);
        assert_eq!(idx.count_path(&[1, 2]), 2);
        assert_eq!(idx.count_path(&[3, 0]), 0); // D then A never happens
        assert_eq!(idx.count_path(&[5, 0]), 0);
    }

    #[test]
    fn matches_reference_fm_index() {
        let trajs = paper_trajs();
        let ts = TrajectoryString::build(&trajs, 6);
        let reference = cinct_fmindex::Ufmi::from_text(ts.text(), ts.sigma());
        let idx = CinctIndex::build(&trajs, 6);
        // Exhaustive agreement over all edge paths of length ≤ 3.
        for a in 0..6u32 {
            for b in 0..6u32 {
                for c in 0..6u32 {
                    for path in [vec![a], vec![a, b], vec![a, b, c]] {
                        let enc = TrajectoryString::encode_pattern(&path);
                        assert_eq!(
                            idx.suffix_range_encoded(&enc),
                            reference.suffix_range(&enc),
                            "path {path:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trajectory_recovery() {
        let trajs = paper_trajs();
        let idx = CinctIndex::build(&trajs, 6);
        assert_eq!(idx.num_trajectories(), 4);
        for (i, t) in trajs.iter().enumerate() {
            assert_eq!(&idx.trajectory(i), t, "trajectory {i}");
            assert_eq!(idx.trajectory_len(i), t.len());
        }
    }

    #[test]
    fn extract_matches_reference() {
        let trajs = paper_trajs();
        let ts = TrajectoryString::build(&trajs, 6);
        let reference = cinct_fmindex::Ufmi::from_text(ts.text(), ts.sigma());
        let idx = CinctIndex::build(&trajs, 6);
        let n = ts.len();
        for j in 0..n {
            for l in [1usize, 2, 4] {
                assert_eq!(idx.extract(j, l), reference.extract(j, l), "j={j} l={l}");
            }
        }
    }

    #[test]
    fn locate_roundtrip() {
        let trajs = paper_trajs();
        let idx = CinctBuilder::new().locate_sampling(2).build(&trajs, 6);
        let ts = TrajectoryString::build(&trajs, 6);
        let sa = cinct_bwt::sais::naive_suffix_array(ts.text());
        for j in 0..ts.len() {
            assert_eq!(idx.locate(j), Some(sa[j] as usize), "row {j}");
        }
    }

    #[test]
    #[should_panic(expected = "corrupt index: locate met no SA sample in 8 LF steps")]
    fn locate_walk_is_bounded_on_a_corrupt_index() {
        // Marks that no walk can reach: the walk stops at its bound.
        let mut idx = CinctBuilder::new()
            .locate_sampling(8)
            .build(&paper_trajs(), 6);
        let samples = idx.samples.as_mut().expect("locate enabled");
        samples.marked = RankBitVec::new(cinct_succinct::BitBuf::zeros(samples.marked.len()));
        let _ = idx.locate(3);
    }

    #[test]
    fn a_forged_first_count_is_refused_on_open() {
        // `C[0]` counts the symbols smaller than 0, so it is 0. Set to 1,
        // it would make every context lookup of row 0 underflow.
        let idx = CinctBuilder::new()
            .locate_sampling(4)
            .build(&paper_trajs(), 6);
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).unwrap();
        // Header word, count of `C` words (σ + 1), then `C[0]`.
        let word = |k: usize| u64::from_le_bytes(bytes[8 * k..8 * k + 8].try_into().unwrap());
        assert_eq!((word(1), word(2)), (idx.sigma() as u64 + 1, 0));
        bytes[16] = 1;
        assert!(matches!(
            CinctIndex::read_from(&mut &bytes[..]),
            Err(QueryError::CorruptIndex(_))
        ));
    }

    #[test]
    fn a_forged_network_size_is_refused_on_open() {
        // The network size is the stream's last word; σ = n + 2 ties it
        // to the C array, so any other value is refused, huge or not.
        let idx = CinctBuilder::new().build(&paper_trajs(), 6);
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).unwrap();
        let at = bytes.len() - 8;
        assert_eq!(bytes[at..], 6u64.to_le_bytes());
        for forged in [5u64, 7, 1 << 60, u64::MAX] {
            bytes[at..].copy_from_slice(&forged.to_le_bytes());
            assert!(
                matches!(
                    CinctIndex::read_from(&mut &bytes[..]),
                    Err(QueryError::CorruptIndex(_))
                ),
                "network size {forged}"
            );
        }
    }

    #[test]
    fn occurrences_stream_matches() {
        let trajs = paper_trajs();
        let idx = CinctBuilder::new().locate_sampling(4).build(&trajs, 6);
        // Path A→B occurs at offset 0 of trajectories 0 and 1.
        let occ = idx.occurrences(Path::new(&[0, 1])).expect("locate enabled");
        assert_eq!(occ.remaining(), 2);
        assert_eq!(occ.collect_sorted(), vec![(0, 0), (1, 0)]);
        // Path B→C occurs in trajectory 1 (offset 1) and 2 (offset 0).
        let occ = idx.occurrences(Path::new(&[1, 2])).expect("locate enabled");
        assert_eq!(occ.collect_sorted(), vec![(1, 1), (2, 0)]);
        // Absent path → empty iterator, not an error.
        let occ = idx.occurrences(Path::new(&[5, 5])).expect("locate enabled");
        assert_eq!(occ.count(), 0);
        // Malformed paths are typed errors.
        assert_eq!(
            idx.occurrences(Path::new(&[])).err(),
            Some(QueryError::EmptyPattern)
        );
        assert_eq!(
            idx.occurrences(Path::new(&[0, 77])).err(),
            Some(QueryError::UnknownEdge {
                edge: 77,
                n_edges: 6
            })
        );
    }

    #[test]
    fn locate_without_support_is_an_error() {
        let idx = CinctIndex::build(&paper_trajs(), 6);
        assert_eq!(idx.locate(0), None);
        assert_eq!(
            idx.occurrences(Path::new(&[0, 1])).err(),
            Some(QueryError::LocateUnsupported)
        );
        // Even an absent path reports the capability gap up front.
        assert_eq!(
            idx.occurrences(Path::new(&[5, 5])).err(),
            Some(QueryError::LocateUnsupported)
        );
    }

    #[test]
    fn pseudo_rank_equals_true_rank() {
        // Theorem 2 / balancing equation (5): for every context w′ and
        // every w ∈ N_out(w′), PseudoRank equals the naive rank over T_bwt.
        let trajs = paper_trajs();
        let ts = TrajectoryString::build(&trajs, 6);
        let (_, tbwt) = cinct_bwt::bwt::bwt(ts.text(), ts.sigma());
        let idx = CinctIndex::build(&trajs, 6);
        for w_prime in 0..idx.sigma() as u32 {
            let range = idx.c.symbol_range(w_prime);
            for w in idx.rml.graph().out(w_prime) {
                for j in range.start..=range.end {
                    let truth = tbwt[..j].iter().filter(|&&s| s == w).count();
                    assert_eq!(
                        idx.pseudo_rank(j, w, w_prime),
                        Some(truth),
                        "w={w} w'={w_prime} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn label_and_z_golden_table() {
        // (w′, w, label, Z) for every ET-graph edge of the Fig. 1 corpus,
        // pinned literally: none depends on how the bitmaps are encoded.
        const GOLDEN: [(u32, u32, u32, i64); 11] = [
            (0, 1, 1, 0),
            (1, 2, 1, 1),
            (1, 3, 2, 0),
            (2, 3, 1, 3),
            (2, 5, 2, 1),
            (3, 4, 1, 6),
            (3, 6, 2, 2),
            (4, 1, 1, 7),
            (5, 1, 1, 7),
            (6, 7, 1, 11),
            (7, 0, 1, 12),
        ];
        let idx = CinctIndex::build(&paper_trajs(), 6);
        let edges: Vec<(u32, u32)> = (0..idx.sigma() as u32)
            .flat_map(|w_prime| {
                let out = idx.rml.graph().out(w_prime);
                out.into_iter().map(move |w| (w_prime, w))
            })
            .collect();
        assert_eq!(edges, GOLDEN.map(|(wp, w, _, _)| (wp, w)).to_vec());
        for (w_prime, w, label, z) in GOLDEN {
            assert_eq!(
                idx.rml.label_and_z(w, w_prime),
                Some((label, z)),
                "w={w} w'={w_prime}"
            );
        }
    }

    #[test]
    fn pseudo_rank_golden_table() {
        // (w′, w, C[w′], PseudoRank at j = C[w′] ..= C[w′ + 1]) over exactly
        // the triples `pseudo_rank_equals_true_rank` enumerates.
        const GOLDEN: [(u32, u32, usize, &[usize]); 11] = [
            (0, 1, 0, &[0, 1]),
            (1, 2, 1, &[0, 1, 2, 3, 3]),
            (1, 3, 1, &[0, 0, 0, 0, 1]),
            (2, 3, 5, &[1, 1, 2, 3]),
            (2, 5, 5, &[0, 1, 1, 1]),
            (3, 4, 8, &[0, 1, 2, 2]),
            (3, 6, 8, &[0, 0, 0, 1]),
            (4, 1, 11, &[1, 2, 3]),
            (5, 1, 13, &[3, 4]),
            (6, 7, 14, &[0, 1]),
            (7, 0, 15, &[0, 1]),
        ];
        let idx = CinctIndex::build(&paper_trajs(), 6);
        let mut rows = GOLDEN.iter();
        for w_prime in 0..idx.sigma() as u32 {
            let range = idx.c.symbol_range(w_prime);
            for w in idx.rml.graph().out(w_prime) {
                let &(gp, gw, start, ranks) = rows.next().expect("table covers every edge");
                assert_eq!((gp, gw, start), (w_prime, w, range.start));
                let got: Vec<usize> = (range.start..=range.end)
                    .map(|j| idx.pseudo_rank(j, w, w_prime).expect("edge exists"))
                    .collect();
                assert_eq!(got, ranks, "w={w} w'={w_prime}");
            }
        }
        assert!(rows.next().is_none(), "table lists an edge the graph lacks");
    }

    #[test]
    fn random_labeling_still_correct() {
        // Fig. 14's random strategy changes size/speed, never answers.
        let trajs = paper_trajs();
        let sorted = CinctIndex::build(&trajs, 6);
        let random = CinctBuilder::new()
            .labeling(LabelingStrategy::Random { seed: 99 })
            .build(&trajs, 6);
        for a in 0..6u32 {
            for b in 0..6u32 {
                assert_eq!(
                    sorted.path_range(&[a, b]),
                    random.path_range(&[a, b]),
                    "path [{a},{b}]"
                );
            }
        }
    }

    #[test]
    fn block_size_variants_agree() {
        let trajs = paper_trajs();
        let b63 = CinctBuilder::new().block_size(63).build(&trajs, 6);
        let b15 = CinctBuilder::new().block_size(15).build(&trajs, 6);
        for a in 0..6u32 {
            for b in 0..6u32 {
                assert_eq!(b63.path_range(&[a, b]), b15.path_range(&[a, b]));
            }
        }
    }

    #[test]
    fn size_accounting_separates_directory() {
        let idx = CinctBuilder::new()
            .locate_sampling(4)
            .build(&paper_trajs(), 6);
        assert!(idx.core_size_in_bytes() > 0);
        assert!(idx.size_without_et_graph() < idx.core_size_in_bytes());
        assert!(idx.directory_size_in_bytes() > 0);
    }

    /// `idx`, built over `trajs`, against repeated single `lf_step` calls:
    /// every `trajectory`, an `extract` of `walk` symbols from every row
    /// (reversed into walk order), and every `locate`, which must also
    /// give the naive suffix array's answer.
    fn check_walks(idx: &CinctIndex, trajs: &[Vec<u32>], n_edges: usize, walk: usize) {
        let n = idx.text_len();
        let single: Vec<(Symbol, usize)> = (0..n).map(|j| idx.lf_step(j)).collect();
        let single_steps = |mut j: usize, l: usize| -> Vec<Symbol> {
            (0..l)
                .map(|_| {
                    let (w, next) = single[j];
                    j = next;
                    w
                })
                .collect()
        };
        for (g, t) in trajs.iter().enumerate() {
            let steps = single_steps(idx.traj_rows[g] as usize, t.len());
            let want: Vec<u32> = steps.iter().map(|s| s - cinct_bwt::SYMBOL_OFFSET).collect();
            assert_eq!(&want, t, "trajectory {g} by single steps");
            assert_eq!(idx.trajectory(g), want, "trajectory {g}");
        }
        let ts = TrajectoryString::build(trajs, n_edges);
        let sa = cinct_bwt::sais::naive_suffix_array(ts.text());
        let samples = idx.samples.as_ref().expect("locate enabled");
        for j in 0..n {
            let mut got = idx.extract(j, walk.min(n));
            got.reverse();
            assert_eq!(got, single_steps(j, walk.min(n)), "walk from row {j}");
            let (mut row, mut steps) = (j, 0);
            while !samples.marked.get(row) {
                row = single[row].1;
                steps += 1;
            }
            let want = samples.values.get(samples.marked.rank1(row)) as usize + steps;
            assert_eq!(want, sa[j] as usize, "row {j} by single steps");
            assert_eq!(idx.locate(j), Some(want), "locate({j})");
        }
    }

    #[test]
    fn walks_agree_with_single_steps() {
        let random = crate::builder::tests::synthetic_trajs(2_000, 300, 39);
        for (trajs, n_edges, walk) in [(paper_trajs(), 6, 16), (random, 300, 8)] {
            for rate in [1, 4, 32] {
                let idx = CinctBuilder::new()
                    .locate_sampling(rate)
                    .build(&trajs, n_edges);
                check_walks(&idx, &trajs, n_edges, walk);
                let sharded = crate::ShardedBuilder::new()
                    .shards(3)
                    .locate_sampling(rate)
                    .build(&trajs, n_edges);
                for s in 0..sharded.num_shards() {
                    let local: Vec<Vec<u32>> = sharded
                        .shard_globals(s)
                        .iter()
                        .map(|&g| trajs[g as usize].clone())
                        .collect();
                    check_walks(sharded.shard_index(s), &local, n_edges, walk);
                }
                // Walks in the sharded corpus's global row space, which
                // hands each walk to the shard checked above.
                for j in (0..sharded.text_len()).step_by(7) {
                    let mut row = j;
                    let want: Vec<Symbol> = (0..walk)
                        .map(|_| {
                            let (w, next) = PathQuery::lf_step(&sharded, row);
                            row = next;
                            w
                        })
                        .collect();
                    let mut got = sharded.extract(j, walk);
                    got.reverse();
                    assert_eq!(got, want, "rate {rate}, global row {j}");
                }
            }
        }
    }

    #[test]
    fn empty_pattern() {
        let idx = CinctIndex::build(&paper_trajs(), 6);
        assert_eq!(idx.suffix_range_encoded(&[]), Some(0..16));
    }
}
