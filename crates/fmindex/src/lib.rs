#![warn(missing_docs)]
//! Baseline FM-index family (paper Table II) and the unified [`PathQuery`]
//! query interface.
//!
//! A single generic [`FmIndex`] parameterised by the symbol-rank structure
//! holding the BWT yields the paper's five competitors:
//!
//! | Paper name  | Instantiation                                        |
//! |-------------|------------------------------------------------------|
//! | `UFMI`      | wavelet matrix over uncompressed bitmaps              |
//! | `ICB-WM`    | wavelet matrix over RRR bitmaps                       |
//! | `ICB-Huff`  | Huffman-shaped wavelet tree over RRR bitmaps          |
//! | `FM-GMR`    | per-symbol position lists (large-alphabet, fast, big) |
//! | `FM-AP-HYB` | alphabet partitioning (large-alphabet, compressed)    |
//!
//! All of them — and `CinctIndex` / `TemporalCinct` in the `cinct` crate —
//! answer queries through one trait, [`PathQuery`]: counting, suffix
//! ranges, streaming occurrence listing, and streaming extraction, over
//! forward [`Path`]s of edge IDs. Failures are typed ([`QueryError`]);
//! "path not present" is a normal non-error result.
//!
//! # Quick start
//!
//! ```
//! use cinct_bwt::TrajectoryString;
//! use cinct_fmindex::{Path, PathQuery, QueryError, Ufmi};
//!
//! // Paper Fig. 1: four trajectories over road segments A..F = 0..5.
//! let trajs = vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
//! let ts = TrajectoryString::build(&trajs, 6);
//! let index = Ufmi::from_text(ts.text(), ts.sigma());
//!
//! // Counting: how many vehicles traveled A then B?
//! assert_eq!(index.count(Path::new(&[0, 1])), 2);
//! // An absent path is not an error — it just has no matches.
//! assert_eq!(index.range(Path::new(&[3, 0])), None);
//! // A malformed path is: edge 99 is not in the 6-edge network.
//! assert_eq!(
//!     index.try_range(Path::new(&[99])),
//!     Err(QueryError::UnknownEdge { edge: 99, n_edges: 6 })
//! );
//! // Streaming extraction: symbols of an LF walk, one per step.
//! let walk: Vec<u32> = index.extract_iter(0, 4).collect();
//! assert_eq!(walk.len(), 4);
//! ```

pub mod ap;
pub mod error;
pub mod fm;
pub mod gmr;
pub mod query;

pub use ap::AlphabetPartitionSeq;
pub use error::QueryError;
pub use fm::{FmIndex, SymbolSeqFromBwt};
pub use gmr::PositionListSeq;
pub use query::{ExtractIter, OccurIter, OccurSegment, OccurrenceSource, Path, PathQuery};

use cinct_succinct::{HuffmanWaveletTree, RankBitVec, RrrBitVec, WaveletMatrix};

/// `UFMI`: FM-index over a wavelet matrix with plain bitmaps.
pub type Ufmi = FmIndex<WaveletMatrix<RankBitVec>>;
/// `ICB-WM`: FM-index over a wavelet matrix with RRR bitmaps
/// (implicit compression boosting, Brisaboa et al. \[3\]).
pub type IcbWm = FmIndex<WaveletMatrix<RrrBitVec>>;
/// `ICB-Huff`: FM-index over a Huffman-shaped wavelet tree with RRR bitmaps
/// (Mäkinen & Navarro \[17\]).
pub type IcbHuff = FmIndex<HuffmanWaveletTree<RrrBitVec>>;
/// `FM-GMR`-style: FM-index over per-symbol position lists.
pub type FmGmr = FmIndex<PositionListSeq>;
/// `FM-AP-HYB`-style: FM-index over an alphabet-partitioned sequence.
pub type FmApHyb = FmIndex<AlphabetPartitionSeq>;
