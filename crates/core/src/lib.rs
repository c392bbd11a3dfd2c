#![warn(missing_docs)]
//! CiNCT — Compressed-index for Network-Constrained Trajectories.
//!
//! Rust reproduction of Koide, Tadokoro, Xiao & Ishikawa,
//! *"CiNCT: Compression and retrieval for massive vehicular trajectories
//! via relative movement labeling"*, ICDE 2018.
//!
//! CiNCT stores a fleet's worth of road-network trajectories in a
//! compressed self-index that supports:
//!
//! * **suffix range queries** — "which trajectories traveled exactly along
//!   path `P`?" — in time independent of the road-network size σ
//!   (Theorem 5), and
//! * **sub-path extraction** from any position, without decompressing the
//!   rest of the data.
//!
//! The two ideas:
//!
//! 1. **Relative movement labeling (RML, §III-B)** — because a vehicle on
//!    segment `w′` can only move to one of the few segments connected to
//!    `w′`, the BWT of the trajectory string can be re-labeled
//!    *per context block* with small integers `φ(w|w′) ∈ {1..δ}`, ordered
//!    by bigram frequency (which is entropy-optimal, Theorem 3). The
//!    labeled BWT has tiny `H0`, so its Huffman-shaped wavelet tree is both
//!    small and shallow.
//! 2. **PseudoRank (§IV-A)** — `rank_w(T_bwt, j)` is recovered from the
//!    labeled BWT alone as `rank_η(φ(T_bwt), j) − Z_{w′w}` whenever `j`
//!    lies in the context block of `w′` (Theorem 2), with one precomputed
//!    correction term `Z` per ET-graph edge.
//!
//! # Quick start
//!
//! Every index in this workspace — CiNCT here, the five Table-II baselines
//! in `cinct_fmindex` — answers queries through one trait, [`PathQuery`]:
//!
//! ```
//! use cinct::{CinctBuilder, CinctIndex, Path, PathQuery, QueryError};
//!
//! // Paper Fig. 1: four trajectories over road segments A..F = 0..5.
//! let trajectories = vec![
//!     vec![0, 1, 4, 5], // A B E F
//!     vec![0, 1, 2],    // A B C
//!     vec![1, 2],       // B C
//!     vec![0, 3],       // A D
//! ];
//! // `locate_sampling` enables occurrence listing (locate queries).
//! let index = CinctBuilder::new().locate_sampling(4).build(&trajectories, 6);
//!
//! // Counting: how many vehicles traveled A then B?
//! assert_eq!(index.count(Path::new(&[0, 1])), 2);
//! // An absent path is a non-error: no suffix range, zero matches.
//! assert_eq!(index.range(Path::new(&[3, 0])), None);
//! // Occurrence listing streams (trajectory, offset) pairs lazily off
//! // sampled-suffix-array walks — no intermediate Vec.
//! let occs = index.occurrences(Path::new(&[1, 2])).unwrap();
//! assert_eq!(occs.collect_sorted(), vec![(1, 1), (2, 0)]);
//! // Malformed queries are typed errors (see [`error`] for the taxonomy).
//! assert_eq!(
//!     index.occurrences(Path::new(&[99])).err(),
//!     Some(QueryError::UnknownEdge { edge: 99, n_edges: 6 })
//! );
//! // Recover a stored trajectory from the compressed index alone.
//! assert_eq!(index.trajectory(0), vec![0, 1, 4, 5]);
//! ```
//!
//! Batches of heterogeneous queries run through [`engine::QueryEngine`],
//! which works over any `&dyn PathQuery` backend and reports per-query
//! results plus timing; `QueryEngine::parallel(n)` fans a batch out
//! across threads with order- and value-identical results. Every thread
//! knob in the workspace shares one convention: **`0` means "auto"** (the
//! machine's available parallelism, `rayon::resolve_threads`), `1` means
//! sequential.
//!
//! # Scaling out: sharded corpora
//!
//! One index means one machine-sized BWT and a full rebuild per new
//! trajectory. [`ShardedCinct`] (module [`shard`]) partitions the corpus
//! into K per-shard indexes behind the same [`PathQuery`] trait, with
//! fan-out querying under a **global trajectory-ID namespace**, durable
//! multi-file persistence (module [`store`]), and incremental ingest:
//!
//! ```
//! use cinct::{Path, PathQuery, ShardedBuilder, ShardedCinct};
//!
//! let trajs = vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
//! let mut sharded = ShardedBuilder::new()
//!     .shards(2)                 // K per-shard CinctIndexes
//!     .locate_sampling(4)
//!     .build(&trajs, 6);
//! // Monolithic answers, global IDs — shard layout is invisible.
//! assert_eq!(sharded.count(Path::new(&[0, 1])), 2);
//! let occ = sharded.occurrences(Path::new(&[1, 2])).unwrap();
//! assert_eq!(occ.collect_sorted(), vec![(1, 1), (2, 0)]);
//! // Grow without a rebuild; re-balance when small shards pile up.
//! sharded.append_batch(&[vec![1, 2, 5]]).unwrap();
//! sharded.compact(2).unwrap();
//! # let dir = std::env::temp_dir().join(format!("cinct-doc-{}", std::process::id()));
//! // Durable: versioned, checksummed manifest + one file per shard.
//! sharded.save_dir(&dir).unwrap();
//! let back = ShardedCinct::open_dir(&dir).unwrap();
//! assert_eq!(back.count(Path::new(&[1, 2])), 3);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! The `cinct` CLI drives the same layer: `cinct build trips.txt out.d
//! --shards 8` builds a sharded directory, `cinct append out.d more.txt`
//! seals new batches into fresh shards, `cinct compact out.d 8`
//! re-balances, and `count`/`locate`/`get`/`stats` accept a sharded
//! directory anywhere they accept a single-file index.
//!
//! The query hot path (RRR rank directory, fused wavelet descents, O(1)
//! LF context) and the sharded serving cost model are described in the
//! repository's `PERFORMANCE.md`; how fast they are is measured by
//! `benchmark/` (see `BENCHMARK.json`).

pub mod builder;
pub mod engine;
pub mod error;
pub mod et_graph;
pub mod faultio;
mod format;
pub mod index;
pub mod metrics;
pub mod prune;
pub mod rml;
pub mod shard;
pub mod stats;
pub mod store;
pub mod temporal;
pub mod text_io;
pub mod trace;
pub mod wal;

pub use builder::{CinctBuilder, ConstructionTimings};
pub use engine::{BatchReport, Query, QueryEngine, QueryOutcome, QueryValue};
pub use error::QueryError;
pub use et_graph::EtGraph;
pub use index::CinctIndex;
pub use prune::{EdgeMembership, ShardPruning};
pub use rml::{LabelingStrategy, Rml};
pub use shard::{PreparedBatch, QuarantinedShard, ShardPartition, ShardedBuilder, ShardedCinct};
pub use stats::DatasetStats;
pub use store::{Durability, OpenMode};
pub use temporal::{
    StrictIter, StrictPathMatch, StrictPathQuery, TemporalCinct, TimestampedTrajectory,
};
pub use trace::{QueryTrace, ShardTrace, TraceStep};
pub use wal::{Wal, WalRead, WalRecord, MAX_RECORD_BYTES};

// The unified query surface lives in `cinct_fmindex` (below every backend
// in the dependency graph); re-export it so `use cinct::PathQuery` works.
pub use cinct_fmindex::{ExtractIter, OccurIter, OccurrenceSource, Path, PathQuery};
