//! The CiNCT index: labeled BWT in an HWT/RRR + ET-graph with correction
//! terms (paper §III–§IV).

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
/// size `b = 63`) or via [`CinctBuilder`] for the ablation knobs.
#[derive(Clone, Debug)]
pub struct CinctIndex {
    pub(crate) c: CArray,
    /// `φ(T_bwt)` in a Huffman-shaped wavelet tree over RRR bitmaps.
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

    /// The wavelet tree holding `φ(T_bwt)`.
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

    /// One LF-mapping step simulated with PseudoRank (the loop body of
    /// Algorithm 4): returns `(T_bwt[j] decoded, LF(j))`. The context is
    /// an `O(1)` boundary-rank lookup and the label + its rank come from
    /// one fused wavelet descent ([`SymbolSeq::access_and_rank`]).
    #[inline]
    pub fn lf_step(&self, j: usize) -> (Symbol, usize) {
        let w_prime = self.c.symbol_at(j);
        let (label, rank) = self.labeled.access_and_rank(j);
        let w = self.rml.decode(label, w_prime);
        let z = self.rml.graph().z_term(label, w_prime);
        let next = (self.c.get(w) as i64 + rank as i64 - z) as usize;
        (w, next)
    }

    /// Sub-path extraction (paper Algorithm 4): the `l` text symbols
    /// preceding position `SA[j]`, i.e. `T[SA[j]-l .. SA[j])`. Eager twin
    /// of the streaming [`PathQuery::extract_iter`].
    pub fn extract_encoded(&self, j: usize, l: usize) -> Vec<Symbol> {
        PathQuery::extract(self, j, l)
    }

    /// Recover the `id`-th trajectory (forward edge order) from the
    /// compressed index alone.
    pub fn trajectory(&self, id: usize) -> Vec<u32> {
        let len = self.trajectory_len(id);
        let row = self.traj_rows[id] as usize;
        // Row `row` is the rotation starting at the `$` that terminates the
        // reversed trajectory; extracting `len` symbols yields `T_k^r`.
        let encoded = self.extract_encoded(row, len);
        // Reversed trajectory, offset symbols → forward edges.
        encoded
            .iter()
            .rev()
            .map(|&s| s - cinct_bwt::SYMBOL_OFFSET)
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
    pub fn locate(&self, j: usize) -> Option<usize> {
        let samples = self.samples.as_ref()?;
        let mut j = j;
        let mut steps = 0usize;
        loop {
            if samples.marked.get(j) {
                let k = samples.marked.rank1(j);
                return Some(samples.values.get(k) as usize + steps);
            }
            let (_, next) = self.lf_step(j);
            j = next;
            steps += 1;
            debug_assert!(steps <= self.labeled.len(), "locate walk diverged");
        }
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

    /// Bytes spent on the trajectory directory, optional SA samples and
    /// the `C`-array's `symbol_at` accelerator — engineering conveniences
    /// beyond the paper's data structure (which
    /// [`CinctIndex::core_size_in_bytes`] accounts).
    pub fn directory_size_in_bytes(&self) -> usize {
        self.traj_starts.capacity() * 4
            + self.traj_rows.capacity() * 4
            + self.c.accel_size_in_bytes()
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
        let cumulative: Vec<u64> = Persist::restore(r)?;
        let c = CArray::from_raw_counts(cumulative).ok_or_else(|| bad("corrupt C array"))?;
        let labeled = HuffmanWaveletTree::<RrrBitVec>::restore(r)?;
        if c.get(c.sigma() as u32) != labeled.len() {
            return Err(bad("C array and labeled BWT disagree on length"));
        }
        let rml = Rml::restore(r)?;
        if rml.graph().num_vertices() != c.sigma() {
            return Err(bad("ET-graph and C array disagree on sigma"));
        }
        let traj_starts: Vec<u32> = Persist::restore(r)?;
        let traj_rows: Vec<u32> = Persist::restore(r)?;
        if traj_rows.len() != traj_starts.len() {
            return Err(bad("trajectory directory mismatch"));
        }
        let samples = match read_u64(r)? {
            0 => None,
            1 => Some(SaSamples {
                marked: RankBitVec::restore(r)?,
                values: IntVec::restore(r)?,
                rate: read_usize(r)?,
            }),
            _ => return Err(bad("bad samples tag")),
        };
        let n_network_edges = read_usize(r)?;
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
                assert_eq!(
                    idx.extract_encoded(j, l),
                    reference.extract(j, l),
                    "j={j} l={l}"
                );
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

    #[test]
    fn empty_pattern() {
        let idx = CinctIndex::build(&paper_trajs(), 6);
        assert_eq!(idx.suffix_range_encoded(&[]), Some(0..16));
    }
}
