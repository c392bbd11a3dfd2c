//! CiNCT index construction (paper §III-A steps 1–5) with per-phase
//! timings for the Fig. 16 construction-time breakdown.
//!
//! # The allocation-lean pipeline
//!
//! The default build keeps the peak working set near two `n`-word arrays
//! (the text and the SA) instead of the seed's five:
//!
//! 1. **SA** via the workspace SA-IS ([`cinct_bwt::suffix_array_with`]) —
//!    no per-recursion-level allocations;
//! 2. **trajectory directory** read straight out of the SA's separator
//!    rows (the seed materialized a full n-word inverse suffix array just
//!    to look up one row per trajectory);
//! 3. **BWT in place**: the SA buffer *becomes* the BWT
//!    ([`cinct_bwt::bwt_replace_sa`]) once the directory and the optional
//!    SA samples are extracted;
//! 4. **labeling fused with Z-terms, in place**: one context-block scan
//!    rewrites the BWT buffer into `φ(T_bwt)` while accumulating every
//!    correction term `Z_{w′w}` (paper Eq. (7)) — the seed wrote a fresh
//!    labeled copy and then re-scanned both arrays;
//! 5. **wavelet tree** over the (now labeled) buffer, built sequentially:
//!    one index is one pipeline, and the parallelism lives one level up,
//!    where [`crate::ShardedBuilder::threads`] builds shards concurrently.
//!
//! The serialized index is pinned byte for byte: a table-driven test holds
//! the length and `store::checksum64` of `write_to`'s output for fixed
//! corpora at every paper block size (recorded from the seed pipeline,
//! which this one replaced).

use crate::index::{CinctIndex, SaSamples};
use crate::rml::{LabelingStrategy, Rml};
use cinct_bwt::{bwt_replace_sa, suffix_array_with, CArray, SaisWorkspace, TrajectoryString};
use cinct_fmindex::QueryError;
use cinct_succinct::{BitBuf, HuffmanWaveletTree, IntVec, RankBitVec, RrrBitVec};
use std::time::{Duration, Instant};

/// Wall-clock spent in each construction phase. The paper's Fig. 16
/// splits its bars into `BWT`, `WT-build`, and `ET-graph-build`; this
/// breakdown is finer so build regressions localize to a stage:
/// corpus ingestion, suffix array, BWT derivation, RML/ET-graph labeling,
/// succinct-structure build, and the trajectory directory + SA samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConstructionTimings {
    /// Corpus ingestion: concatenating (reversed) trajectories into the
    /// trajectory string. Zero when the caller supplied a prepared string.
    pub ingest: Duration,
    /// Suffix-array construction (SA-IS).
    pub sa: Duration,
    /// BWT derivation from the SA plus the `C` array.
    pub bwt: Duration,
    /// ET-graph construction, RML labeling, and `Z`-term computation — all
    /// operations the other FM-index variants do not need.
    pub et_graph_build: Duration,
    /// Wavelet-tree construction over the labeled BWT.
    pub wt_build: Duration,
    /// Trajectory directory + optional SA samples.
    pub directory: Duration,
}

impl ConstructionTimings {
    /// Total construction time.
    pub fn total(&self) -> Duration {
        self.ingest + self.sa + self.bwt + self.et_graph_build + self.wt_build + self.directory
    }

    /// Suffix array + BWT derivation combined (the two halves of what a
    /// coarser breakdown would call the BWT phase; `fig16` folds
    /// `ingest`/`directory` in as well so its columns sum to the total).
    pub fn sa_plus_bwt(&self) -> Duration {
        self.sa + self.bwt
    }
}

/// Configurable CiNCT construction.
#[derive(Clone, Copy, Debug)]
pub struct CinctBuilder {
    labeling: LabelingStrategy,
    block_size: usize,
    locate_sampling: Option<usize>,
    pure_rrr: bool,
}

impl Default for CinctBuilder {
    fn default() -> Self {
        Self {
            labeling: LabelingStrategy::BigramSorted,
            block_size: 63,
            locate_sampling: None,
            pure_rrr: false,
        }
    }
}

impl CinctBuilder {
    /// Default configuration: bigram-sorted RML, `b = 63`, no locate, the
    /// labeled wavelet tree over hybrid RRR ([`RrrBitVec::hybrid`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Store every group of the labeled wavelet tree enumeratively, as
    /// the paper's CiNCT does ([`RrrBitVec::new`]), instead of raw where
    /// RRR saves nothing. For the paper-fidelity experiments: same answers,
    /// never smaller. Not persisted, so a sharded corpus ignores it (every
    /// shard it builds, saves or compacts is hybrid).
    pub fn pure_rrr(mut self) -> Self {
        self.pure_rrr = true;
        self
    }

    /// This configuration with hybrid RRR, whatever
    /// [`CinctBuilder::pure_rrr`] said.
    pub(crate) fn hybrid(mut self) -> Self {
        self.pure_rrr = false;
        self
    }

    /// Labeling strategy (Fig. 14 ablation).
    pub fn labeling(mut self, strategy: LabelingStrategy) -> Self {
        self.labeling = strategy;
        self
    }

    /// RRR block size `b` — the paper's only parameter (§III-C2),
    /// evaluated at `b ∈ {15, 31, 63}`.
    pub fn block_size(mut self, b: usize) -> Self {
        self.block_size = b;
        self
    }

    /// Enable locate support with the given SA sampling rate (smaller =
    /// faster locate, more space).
    pub fn locate_sampling(mut self, rate: usize) -> Self {
        assert!(rate >= 1);
        self.locate_sampling = Some(rate);
        self
    }

    /// The configured RRR block size (see [`CinctBuilder::block_size`]).
    pub fn configured_block_size(&self) -> usize {
        self.block_size
    }

    /// The configured SA sampling rate, `None` when locate support is off
    /// (see [`CinctBuilder::locate_sampling`]).
    pub fn configured_locate_sampling(&self) -> Option<usize> {
        self.locate_sampling
    }

    /// The configured labeling strategy (see [`CinctBuilder::labeling`]).
    pub fn configured_labeling(&self) -> LabelingStrategy {
        self.labeling
    }

    /// Build from raw trajectories.
    ///
    /// Construction trusts its input for speed; use
    /// [`CinctBuilder::try_build`] when the trajectories come from an
    /// untrusted source.
    pub fn build(self, trajectories: &[Vec<u32>], n_edges: usize) -> CinctIndex {
        self.build_timed(trajectories, n_edges).0
    }

    /// Validate that every edge ID lies in `0..n_edges` and that there is
    /// something to index, then build. Violations surface as
    /// [`QueryError::UnknownEdge`] / [`QueryError::InvalidInput`] instead
    /// of a panic (or silent corruption) deep inside construction.
    pub fn try_build(
        self,
        trajectories: &[Vec<u32>],
        n_edges: usize,
    ) -> Result<CinctIndex, QueryError> {
        validate_corpus(trajectories, n_edges)?;
        Ok(self.build(trajectories, n_edges))
    }

    /// Build and report per-phase timings.
    pub fn build_timed(
        self,
        trajectories: &[Vec<u32>],
        n_edges: usize,
    ) -> (CinctIndex, ConstructionTimings) {
        self.build_streamed(trajectories, n_edges)
    }

    /// Build from a **stream** of trajectories: edge sequences are folded
    /// into the (reversed, `$`-separated) trajectory string as they
    /// arrive, so the caller never has to materialize the whole corpus as
    /// a `Vec<Vec<u32>>` alongside the index's own arrays. Everything
    /// downstream is the allocation-lean pipeline of
    /// [`CinctBuilder::build_from_trajectory_string`].
    pub fn build_streamed<I, T>(
        self,
        trajectories: I,
        n_edges: usize,
    ) -> (CinctIndex, ConstructionTimings)
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u32]>,
    {
        let t0 = Instant::now();
        let ts = TrajectoryString::from_iter(trajectories, n_edges);
        let ingest = t0.elapsed();
        crate::metrics::record_ingest(ingest);
        let (index, mut timings) = self.build_from_trajectory_string(&ts, n_edges);
        timings.ingest = ingest;
        (index, timings)
    }

    /// Build from a prepared trajectory string (lets callers share the
    /// string across several index builds, as the experiment harness does).
    pub fn build_from_trajectory_string(
        self,
        ts: &TrajectoryString,
        n_edges: usize,
    ) -> (CinctIndex, ConstructionTimings) {
        let mut timings = ConstructionTimings::default();
        let text = ts.text();
        let sigma = ts.sigma();
        let n = text.len();

        // Step 1–2a: suffix array (workspace SA-IS, no per-level allocs).
        let t0 = Instant::now();
        let mut ws = SaisWorkspace::new();
        let mut sa = suffix_array_with(text, sigma, &mut ws);
        drop(ws);
        timings.sa = t0.elapsed();

        // Symbol counts; needed by the directory (separator rows) and by
        // every later stage. Accounted with the BWT stage.
        let t0 = Instant::now();
        let c = CArray::new(text, sigma);
        timings.bwt = t0.elapsed();

        // Trajectory directory: the BWT row of trajectory `k`'s closing
        // `$` is `ISA[end_k]`. Every `$` position is some trajectory's
        // end, and their rows are exactly the `$` context block of the
        // SA — so one scan of that block replaces the seed's full n-word
        // inverse suffix array.
        let t0 = Instant::now();
        let starts = ts.starts();
        let ends: Vec<u32> = starts
            .iter()
            .enumerate()
            .map(|(k, &s)| {
                let end = starts.get(k + 1).map_or(n - 2, |&next| next as usize - 1);
                debug_assert_eq!(text[end], cinct_bwt::SEPARATOR);
                debug_assert!(end > s as usize);
                end as u32
            })
            .collect();
        let mut traj_rows = vec![0u32; ends.len()];
        for row in c.symbol_range(cinct_bwt::SEPARATOR) {
            let pos = sa[row];
            let k = ends
                .binary_search(&pos)
                .expect("separator position is a trajectory end");
            traj_rows[k] = row as u32;
        }

        // Optional SA samples for locate.
        let samples = self.locate_sampling.map(|rate| {
            let mut marked = BitBuf::zeros(n);
            let mut values = IntVec::with_capacity(IntVec::width_for(n as u64), n / rate + 1);
            for (row, &pos) in sa.iter().enumerate() {
                if (pos as usize) % rate == 0 {
                    marked.set(row, true);
                    values.push(pos as u64);
                }
            }
            values.shrink_to_fit();
            SaSamples {
                marked: RankBitVec::new(marked),
                values,
                rate,
            }
        });
        timings.directory = t0.elapsed();

        // Step 2b: the SA is spent — derive the BWT into the same buffer.
        let t0 = Instant::now();
        bwt_replace_sa(text, &mut sa);
        let mut labeled = sa; // T_bwt for now; labeled in place below
        timings.bwt += t0.elapsed();

        // Steps 3–4: ET-graph straight from the BWT's context blocks (no
        // hashed bigram map), then one fused scan rewrites `T_bwt` into
        // `φ(T_bwt)` while accumulating every `Z` term.
        let t0 = Instant::now();
        let mut rml = Rml::from_bwt(&labeled, &c, self.labeling);
        label_and_z_in_place(&mut rml, &mut labeled, &c);
        timings.et_graph_build = t0.elapsed();

        // Step 5: compressed wavelet tree.
        let t0 = Instant::now();
        let b = self.block_size;
        let wt = if self.pure_rrr {
            HuffmanWaveletTree::<RrrBitVec>::with_params(&labeled, b)
        } else {
            HuffmanWaveletTree::with_backend(&labeled, |bits| RrrBitVec::hybrid(bits, b))
        };
        timings.wt_build = t0.elapsed();

        let index = CinctIndex {
            c,
            labeled: wt,
            rml,
            traj_starts: starts.to_vec(),
            traj_rows,
            samples,
            n_network_edges: n_edges,
        };
        // Every build funnels through here (owned, streamed, per-shard).
        // `ingest` is recorded by build_streamed, which knows it.
        crate::metrics::record_build(&timings);
        (index, timings)
    }
}

/// The `try_build` validation contract, shared by monolithic
/// ([`CinctBuilder::try_build`]) and sharded construction/ingest
/// (`ShardedBuilder::try_build`, `ShardedCinct::append_batch`): a
/// non-empty corpus, no empty trajectory (dropping one during
/// construction would silently shift every trajectory ID), every edge
/// in `0..n_edges`.
pub(crate) fn validate_corpus(trajectories: &[Vec<u32>], n_edges: usize) -> Result<(), QueryError> {
    if trajectories.is_empty() {
        return Err(QueryError::InvalidInput("no trajectories to index".into()));
    }
    if let Some(i) = trajectories.iter().position(|t| t.is_empty()) {
        return Err(QueryError::InvalidInput(format!("trajectory {i} is empty")));
    }
    for t in trajectories {
        for &edge in t {
            if edge as usize >= n_edges {
                return Err(QueryError::UnknownEdge { edge, n_edges });
            }
        }
    }
    Ok(())
}

/// One fused context-block scan (the pipeline's steps 3–4):
/// rewrite `T_bwt` into `φ(T_bwt)` **in place** while accumulating every
/// correction term `Z_{w′w}` (paper Eq. (7)). At each block boundary
/// `j = C[w′]` the running counters hold `rank_η(φ(T_bwt), j)` and
/// `rank_w(T_bwt, j)` for every `η`/`w` — exactly the Z-term operands —
/// so no second pass over the two arrays is needed.
fn label_and_z_in_place(rml: &mut Rml, tbwt: &mut [u32], c: &CArray) {
    let sigma = c.sigma();
    let max_label = rml.graph().max_out_degree();
    let mut label_counts = vec![0u64; max_label + 1];
    let mut sym_counts = vec![0u64; sigma];
    // Dense symbol→label map for the current block: O(1) per position
    // instead of the seed's per-position adjacency-row scan. Installed and
    // cleared per block (O(E) total).
    let mut map = vec![0u32; sigma];
    let mut zs: Vec<i64> = Vec::with_capacity(rml.graph().num_edges());
    for w_prime in 0..sigma as u32 {
        let graph = rml.graph();
        let degree = graph.out_degree(w_prime);
        for k in 0..degree {
            let label = k as u32 + 1;
            let w = graph.decode(label, w_prime);
            zs.push(label_counts[label as usize] as i64 - sym_counts[w as usize] as i64);
            map[w as usize] = label;
        }
        for j in c.symbol_range(w_prime) {
            let w = tbwt[j];
            let label = map[w as usize];
            debug_assert!(label > 0, "BWT transition must exist in the ET-graph");
            sym_counts[w as usize] += 1;
            label_counts[label as usize] += 1;
            tbwt[j] = label;
        }
        let graph = rml.graph();
        for k in 0..degree {
            map[graph.decode(k as u32 + 1, w_prime) as usize] = 0;
        }
    }
    rml.graph_mut().attach_z_terms(&zs);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cinct_bwt::bwt::bwt;

    fn paper_trajs() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]]
    }

    /// A mid-size walk-shaped pseudo-random corpus, shared by the index,
    /// shard and pipeline-equivalence tests.
    pub(crate) fn synthetic_trajs(n_trajs: usize, n_edges: u32, seed: u64) -> Vec<Vec<u32>> {
        let mut x = seed | 1;
        (0..n_trajs)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let len = 3 + ((x >> 33) % 40) as usize;
                let mut cur = ((x >> 20) as u32) % n_edges;
                (0..len)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        // Walk-like: move to one of a few successors.
                        cur = (cur * 4 + 1 + ((x >> 33) as u32) % 4) % n_edges;
                        cur
                    })
                    .collect()
            })
            .collect()
    }

    fn serialize(idx: &CinctIndex) -> Vec<u8> {
        let mut bytes = Vec::new();
        idx.write_to(&mut bytes).expect("in-memory write");
        bytes
    }

    #[test]
    fn z_terms_satisfy_eq7() {
        let trajs = paper_trajs();
        let ts = TrajectoryString::build(&trajs, 6);
        let (_, tbwt) = bwt(ts.text(), ts.sigma());
        let c = CArray::new(ts.text(), ts.sigma());
        let idx = CinctBuilder::new().build(&trajs, 6);
        let labeled: Vec<u32> = (0..tbwt.len())
            .map(|j| {
                let w_prime = c.symbol_at(j);
                idx.rml()
                    .label(tbwt[j], w_prime)
                    .expect("transition exists")
            })
            .collect();
        for w_prime in 0..idx.sigma() as u32 {
            for (k, &w) in idx.rml().graph().out(w_prime).iter().enumerate() {
                let label = k as u32 + 1;
                let boundary = c.get(w_prime);
                let rank_label = labeled[..boundary].iter().filter(|&&l| l == label).count() as i64;
                let rank_sym = tbwt[..boundary].iter().filter(|&&s| s == w).count() as i64;
                assert_eq!(
                    idx.rml().graph().z_term(label, w_prime),
                    rank_label - rank_sym,
                    "Z[{w_prime}→{w}]"
                );
            }
        }
    }

    #[test]
    fn timings_cover_all_phases() {
        let (_, t) = CinctBuilder::new().build_timed(&paper_trajs(), 6);
        for stage in [
            t.ingest,
            t.sa,
            t.bwt,
            t.et_graph_build,
            t.wt_build,
            t.directory,
        ] {
            assert!(t.total() >= stage);
        }
        assert_eq!(
            t.total(),
            t.ingest + t.sa_plus_bwt() + t.et_graph_build + t.wt_build + t.directory
        );
    }

    #[test]
    fn builder_is_reusable_and_deterministic() {
        let b = CinctBuilder::new().block_size(31);
        let i1 = b.build(&paper_trajs(), 6);
        let i2 = b.build(&paper_trajs(), 6);
        assert_eq!(i1.core_size_in_bytes(), i2.core_size_in_bytes());
        assert_eq!(i1.path_range(&[0, 1]), i2.path_range(&[0, 1]));
    }

    #[derive(Clone, Copy, Debug)]
    enum Corpus {
        /// The paper's Fig. 1 trajectories over 6 edges.
        Paper,
        /// `synthetic_trajs(400, 80, 21)` over 80 edges.
        Synthetic,
    }

    impl Corpus {
        fn trajs(self) -> (Vec<Vec<u32>>, usize) {
            match self {
                Corpus::Paper => (paper_trajs(), 6),
                Corpus::Synthetic => (synthetic_trajs(400, 80, 21), 80),
            }
        }
    }

    /// `(corpus, block size, locate sampling, bytes built with
    /// [`CinctBuilder::pure_rrr`], bytes, checksum64 of the bytes)` of the
    /// serialized index: a row that moves means the on-disk format or a
    /// numeric kernel changed. Re-pinned once for index format 5, which
    /// adds one raw-or-RRR flag per group of the labeled tree's RRR: a
    /// pure-RRR build is the format-4 bytes plus that field (24 bytes for
    /// up to 64 groups), and the default hybrid build is never longer.
    /// Format 4 dropped the ET-graph's bigram counts and the labeling tag
    /// (8·|E_T| − 24 bytes off format 3), and the digests moved once more
    /// when `checksum64` replaced FNV-1a.
    const GOLDEN: [(Corpus, usize, Option<usize>, usize, usize, u64); 12] = {
        use Corpus::{Paper, Synthetic};
        [
            (Paper, 15, None, 519, 519, 0x18d8cc696e2e1e7b),
            (Paper, 15, Some(8), 591, 591, 0x9c3db35d4b486aab),
            (Paper, 31, None, 519, 519, 0xa982aec2054bed87),
            (Paper, 31, Some(8), 591, 591, 0xae57440049bddac1),
            (Paper, 63, None, 519, 519, 0x35ffcd5cc7918855),
            (Paper, 63, Some(8), 591, 591, 0x0c0037af33e0ad40),
            (Synthetic, 15, None, 9429, 9173, 0x7dd0e234b9d8f151),
            (Synthetic, 15, Some(8), 12645, 12389, 0x1d29b0832f40b496),
            (Synthetic, 31, None, 9317, 9165, 0x33843e45965facf3),
            (Synthetic, 31, Some(8), 12533, 12381, 0x9d37a83b3a18ab06),
            (Synthetic, 63, None, 9237, 9157, 0x02f7c2c8c27dab14),
            (Synthetic, 63, Some(8), 12453, 12373, 0xda2a30ec6ada3352),
        ]
    };

    #[test]
    fn serialized_index_matches_golden_digests() {
        for (corpus, b, locate, pure_len, len, digest) in GOLDEN {
            let (trajs, n_edges) = corpus.trajs();
            let mut builder = CinctBuilder::new().block_size(b);
            if let Some(rate) = locate {
                builder = builder.locate_sampling(rate);
            }
            let bytes = serialize(&builder.build(&trajs, n_edges));
            let pure = serialize(&builder.pure_rrr().build(&trajs, n_edges));
            assert_eq!(
                (pure.len(), bytes.len(), crate::store::checksum64(&bytes)),
                (pure_len, len, digest),
                "{corpus:?} b={b} locate={locate:?}"
            );
        }
    }

    #[test]
    fn streamed_build_matches_owned_build() {
        let trajs = synthetic_trajs(60, 30, 3);
        let (owned, _) = CinctBuilder::new()
            .locate_sampling(4)
            .build_timed(&trajs, 30);
        let (streamed, timings) = CinctBuilder::new()
            .locate_sampling(4)
            .build_streamed(trajs.iter().map(Vec::as_slice), 30);
        assert_eq!(serialize(&owned), serialize(&streamed));
        assert!(timings.total() >= timings.ingest);
    }

    #[test]
    #[should_panic(expected = "rate >= 1")]
    fn rejects_zero_sampling() {
        let _ = CinctBuilder::new().locate_sampling(0);
    }

    #[test]
    fn try_build_validates_input() {
        assert_eq!(
            CinctBuilder::new().try_build(&[vec![0, 9, 1]], 6).err(),
            Some(QueryError::UnknownEdge {
                edge: 9,
                n_edges: 6
            })
        );
        assert!(matches!(
            CinctBuilder::new().try_build(&[vec![], vec![]], 6),
            Err(QueryError::InvalidInput(_))
        ));
        // A mix of empty and non-empty trajectories would misattribute
        // every occurrence (IDs shift when empties are dropped).
        assert!(matches!(
            CinctBuilder::new().try_build(&[vec![], vec![0, 1]], 6),
            Err(QueryError::InvalidInput(_))
        ));
        assert!(matches!(
            CinctBuilder::new().try_build(&[], 6),
            Err(QueryError::InvalidInput(_))
        ));
        let idx = CinctBuilder::new().try_build(&paper_trajs(), 6).unwrap();
        assert_eq!(idx.count_path(&[0, 1]), 2);
    }
}
