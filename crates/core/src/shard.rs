//! Horizontal scale-out: a corpus partitioned across K per-shard
//! [`CinctIndex`]es behind one [`PathQuery`] facade.
//!
//! A single CiNCT index is capped by one SA-IS pass and one machine-sized
//! BWT, and any new trajectory forces a full rebuild. [`ShardedCinct`]
//! removes both limits:
//!
//! * **Partitioned construction** — [`ShardedBuilder`] splits the corpus
//!   into K shards (round-robin or size-balanced, [`ShardPartition`]),
//!   builds each shard's `CinctIndex` independently (in parallel on the
//!   rayon shim), and records a *manifest*: the bijection between
//!   corpus-global trajectory IDs and `(shard, local)` IDs.
//! * **Fan-out querying** — `count`/`occurrences` sweep the path across
//!   every shard on the calling thread (no thread is created on a query
//!   path) and merge; occurrence listings stream through
//!   [`cinct_fmindex::OccurIter::fan_out`] with each shard's local IDs
//!   remapped to the global namespace, so results are comparable
//!   element-for-element with a monolithic index over the same corpus.
//! * **Pruned fan-out** — every shard carries [`crate::prune`] metadata
//!   (edge membership + owned global-ID span), derived at construction
//!   and persisted in the manifest. Pattern labels are resolved **once
//!   per query** against the corpus-level membership union, then shards
//!   whose membership rules out any pattern edge are skipped without a
//!   backward search — outcome-identical, just cheaper (see
//!   [`ShardedCinct::shard_ranges`]).
//! * **Incremental ingest** — [`ShardedCinct::append_batch`] seals a new
//!   batch of trajectories into a fresh shard (no existing shard is
//!   touched); [`ShardedCinct::compact`] re-balances back down to a
//!   target shard count when append-created shards accumulate.
//! * **Durable multi-file persistence** — [`ShardedCinct::save_dir`] /
//!   [`ShardedCinct::open_dir`] (see [`crate::store`]): a versioned,
//!   checksummed shard manifest plus one index file per shard.
//!
//! # Global row space and the `range` contract
//!
//! BWT row spaces are per-shard; `ShardedCinct` exposes them as one
//! *concatenated* global row space (shard `s` owns rows
//! `[bases[s], bases[s+1])`), in which [`PathQuery::lf_step`] and
//! therefore extraction walks work unchanged — an LF step never leaves
//! its shard. A path's suffix *range*, however, is one contiguous
//! interval per shard and cannot be a single global interval; the sharded
//! [`PathQuery::range`] therefore returns a **multiplicity-preserving
//! virtual range** `Some(0..count)` (or `None` when the path is absent)
//! so `count`-shaped callers — including the batch `QueryEngine` — see
//! exactly the monolithic answers. Callers that need real per-shard rows
//! use [`ShardedCinct::shard_ranges`].
//!
//! # Quick start
//!
//! ```
//! use cinct::{Path, PathQuery, ShardedBuilder};
//!
//! let trajs = vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
//! let mut sharded = ShardedBuilder::new()
//!     .shards(2)
//!     .locate_sampling(4)
//!     .build(&trajs, 6);
//! assert_eq!(sharded.num_shards(), 2);
//! // Same answers as a monolithic index, global trajectory IDs included.
//! assert_eq!(sharded.count(Path::new(&[0, 1])), 2);
//! let occ = sharded.occurrences(Path::new(&[1, 2])).unwrap();
//! assert_eq!(occ.collect_sorted(), vec![(1, 1), (2, 0)]);
//! assert_eq!(sharded.trajectory(3), vec![0, 3]);
//! // Grow without rebuilding: the batch becomes shard #3 ...
//! sharded.append_batch(&[vec![1, 2, 5]]).unwrap();
//! assert_eq!(sharded.count(Path::new(&[1, 2])), 3);
//! // ... and compaction re-balances when fresh shards pile up.
//! sharded.compact(2).unwrap();
//! assert_eq!(sharded.num_shards(), 2);
//! assert_eq!(sharded.trajectory(4), vec![1, 2, 5]);
//! ```

use crate::builder::{validate_corpus, CinctBuilder};
use crate::index::CinctIndex;
use crate::prune::{EdgeMembership, ShardPruning};
use crate::rml::LabelingStrategy;
use cinct_bwt::SYMBOL_OFFSET;
use cinct_fmindex::{OccurIter, OccurSegment, Path, PathQuery, QueryError};
use cinct_succinct::Symbol;
use std::ops::Range;

/// How [`ShardedBuilder`] distributes trajectories across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPartition {
    /// Trajectory `g` goes to shard `g % K`. Predictable and oblivious to
    /// trajectory length — fine when lengths are i.i.d.
    RoundRobin,
    /// Greedy balance on *symbols*: each trajectory (in corpus order) goes
    /// to the currently lightest shard, ties to the lowest shard index.
    /// Keeps per-shard build and query cost even under skewed trajectory
    /// lengths. The default.
    SizeBalanced,
}

/// A shard excluded from a resiliently opened corpus, and why.
///
/// Produced by [`ShardedCinct::open_dir_with`](crate::store::OpenMode)
/// when a shard fails its checksum, parse, or namespace checks. The
/// shard's trajectories stay *reserved* in the global namespace (so
/// appends keep numbering correctly) but read as unavailable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedShard {
    /// The shard's slot in the manifest it was loaded from.
    pub slot: usize,
    /// The shard file's name inside the corpus directory.
    pub file: String,
    /// How many trajectories the manifest says the shard held.
    pub trajectories: usize,
    /// The failure that quarantined it (a rendered [`QueryError`]).
    pub reason: String,
}

/// One shard: a self-contained [`CinctIndex`] over a slice of the corpus,
/// plus the manifest column mapping its local trajectory IDs back to the
/// corpus-global namespace.
#[derive(Clone, Debug)]
pub(crate) struct Shard {
    pub(crate) index: CinctIndex,
    /// `globals[local_id] = global_id`.
    pub(crate) globals: Vec<u32>,
    /// Pruning metadata: edge membership + owned global-ID span (see
    /// [`crate::prune`]). Derived from the index at every construction
    /// site, or restored from the manifest.
    pub(crate) pruning: ShardPruning,
}

/// Configurable sharded construction. Mirrors [`CinctBuilder`]'s knobs
/// (they configure every per-shard index) and adds the shard count, the
/// partition strategy, and shard-level build parallelism.
#[derive(Clone, Copy, Debug)]
pub struct ShardedBuilder {
    index_builder: CinctBuilder,
    n_shards: usize,
    partition: ShardPartition,
    threads: usize,
}

impl Default for ShardedBuilder {
    fn default() -> Self {
        Self {
            index_builder: CinctBuilder::new(),
            n_shards: 1,
            partition: ShardPartition::SizeBalanced,
            threads: 0,
        }
    }
}

impl ShardedBuilder {
    /// Default configuration: one shard, size-balanced partition, shard
    /// builds fanned across all cores (`threads(0)` = auto), default
    /// [`CinctBuilder`] per shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards to partition the corpus into (`>= 1`). Shards
    /// that would receive no trajectory (e.g. `K >` corpus size) are not
    /// created.
    pub fn shards(mut self, k: usize) -> Self {
        assert!(k >= 1, "shard count must be >= 1");
        self.n_shards = k;
        self
    }

    /// Partition strategy (default [`ShardPartition::SizeBalanced`]).
    pub fn partition(mut self, p: ShardPartition) -> Self {
        self.partition = p;
        self
    }

    /// Replace the per-shard index configuration wholesale.
    pub fn index_builder(mut self, b: CinctBuilder) -> Self {
        self.index_builder = b;
        self
    }

    /// Per-shard RRR block size (see [`CinctBuilder::block_size`]).
    pub fn block_size(mut self, b: usize) -> Self {
        self.index_builder = self.index_builder.block_size(b);
        self
    }

    /// Per-shard locate support (see [`CinctBuilder::locate_sampling`]).
    pub fn locate_sampling(mut self, rate: usize) -> Self {
        self.index_builder = self.index_builder.locate_sampling(rate);
        self
    }

    /// Per-shard labeling strategy (see [`CinctBuilder::labeling`]).
    pub fn labeling(mut self, strategy: LabelingStrategy) -> Self {
        self.index_builder = self.index_builder.labeling(strategy);
        self
    }

    /// Build with up to `n` concurrent shards.
    /// `0` = "auto" (the machine's available parallelism) — the
    /// workspace-wide thread-knob convention (`rayon::resolve_threads`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// The configured per-shard index builder (persisted in the shard
    /// manifest so reopened directories keep building identical shards).
    pub fn index_builder_config(&self) -> CinctBuilder {
        self.index_builder
    }

    /// The configured shard count (see [`ShardedBuilder::shards`]).
    pub fn configured_shards(&self) -> usize {
        self.n_shards
    }

    /// The configured partition strategy.
    pub fn configured_partition(&self) -> ShardPartition {
        self.partition
    }

    /// The configured thread knob, unresolved (`0` = auto).
    pub fn configured_threads(&self) -> usize {
        self.threads
    }

    /// Assign each global trajectory ID to a shard; returns per-shard
    /// member lists (corpus order within each shard), empties dropped.
    fn members(&self, trajectories: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let k = self.n_shards.min(trajectories.len()).max(1);
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
        match self.partition {
            ShardPartition::RoundRobin => {
                for g in 0..trajectories.len() {
                    members[g % k].push(g as u32);
                }
            }
            ShardPartition::SizeBalanced => {
                let mut load = vec![0usize; k];
                for (g, t) in trajectories.iter().enumerate() {
                    let lightest = (0..k).min_by_key(|&s| load[s]).expect("k >= 1");
                    load[lightest] += t.len() + 1;
                    members[lightest].push(g as u32);
                }
            }
        }
        members.retain(|m| !m.is_empty());
        members
    }

    /// Build from raw trajectories. Like [`CinctBuilder::build`] this
    /// trusts its input; use [`ShardedBuilder::try_build`] for untrusted
    /// sources.
    pub fn build(&self, trajectories: &[Vec<u32>], n_edges: usize) -> ShardedCinct {
        let members = self.members(trajectories);
        let shards = build_shards(
            trajectories,
            n_edges,
            &members,
            self.index_builder,
            self.threads,
        );
        ShardedCinct::assemble(shards, n_edges, *self).expect("fresh partition is a bijection")
    }

    /// Validate every trajectory (non-empty corpus, no empty trajectory,
    /// all edges `< n_edges`), then build. Violations surface as typed
    /// [`QueryError`]s — the same contract as [`CinctBuilder::try_build`].
    pub fn try_build(
        &self,
        trajectories: &[Vec<u32>],
        n_edges: usize,
    ) -> Result<ShardedCinct, QueryError> {
        validate_corpus(trajectories, n_edges)?;
        Ok(self.build(trajectories, n_edges))
    }
}

/// Build every shard's index, fanning shards across up to `threads`
/// workers on the rayon shim. Deterministic: each shard's build is
/// independent and lands in its own slot, so thread count never changes
/// the result.
fn build_shards(
    trajectories: &[Vec<u32>],
    n_edges: usize,
    members: &[Vec<u32>],
    index_builder: CinctBuilder,
    threads: usize,
) -> Vec<Shard> {
    let build_one = |m: &Vec<u32>| -> CinctIndex {
        // Streamed ingest: each shard folds borrowed slices straight into
        // its trajectory string — the corpus is never copied per shard.
        index_builder
            .build_streamed(
                m.iter().map(|&g| trajectories[g as usize].as_slice()),
                n_edges,
            )
            .0
    };
    let threads = rayon::resolve_threads(threads).min(members.len().max(1));
    let mut slots: Vec<Option<CinctIndex>> = Vec::new();
    slots.resize_with(members.len(), || None);
    if threads <= 1 {
        for (slot, m) in slots.iter_mut().zip(members) {
            *slot = Some(build_one(m));
        }
    } else {
        let per = members.len().div_ceil(threads);
        rayon::scope(|s| {
            for (m_chunk, slot_chunk) in members.chunks(per).zip(slots.chunks_mut(per)) {
                s.spawn(move |_| {
                    for (slot, m) in slot_chunk.iter_mut().zip(m_chunk) {
                        *slot = Some(build_one(m));
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .zip(members)
        .map(|(idx, m)| {
            let index = idx.expect("every shard slot filled");
            let pruning = ShardPruning::derive(&index, n_edges, m);
            Shard {
                index,
                globals: m.clone(),
                pruning,
            }
        })
        .collect()
}

/// A batch validated and built into a shard-shaped index, not yet part
/// of any corpus. Produced by [`ShardedCinct::prepare_batch`] (cheap to
/// hold, expensive to make); consumed by
/// [`ShardedCinct::install_prepared`], which assigns the global IDs.
#[derive(Clone, Debug)]
pub struct PreparedBatch {
    index: CinctIndex,
    len: usize,
}

impl PreparedBatch {
    /// Number of trajectories the batch will add.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the batch adds nothing (unreachable through
    /// [`ShardedCinct::prepare_batch`], which rejects empty corpora).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A corpus partitioned across K per-shard [`CinctIndex`]es, queried as
/// one [`PathQuery`] backend under a global trajectory-ID namespace.
///
/// See the [module docs](self) for the data model, the global row space,
/// and the `range` contract. Built by [`ShardedBuilder`]; persisted with
/// [`ShardedCinct::save_dir`] / reopened with [`ShardedCinct::open_dir`];
/// grown with [`ShardedCinct::append_batch`] and re-balanced with
/// [`ShardedCinct::compact`].
#[derive(Clone, Debug)]
pub struct ShardedCinct {
    shards: Vec<Shard>,
    /// `lookup[global_id] = (shard, local_id)` — the manifest mapping.
    lookup: Vec<(u32, u32)>,
    /// Global row-space bases: shard `s` owns rows `bases[s]..bases[s+1]`.
    bases: Vec<usize>,
    n_edges: usize,
    /// The construction configuration, kept so `append_batch`/`compact`
    /// (and a reopened directory) build new shards identically.
    config: ShardedBuilder,
    /// Union of every shard's edge membership — the corpus-level
    /// instant-miss check: a pattern edge absent here is absent from
    /// every shard, so the whole fan-out short-circuits to `None`
    /// without touching a single shard.
    prune_union: EdgeMembership,
    /// Whether fan-outs consult pruning metadata (default on; benches
    /// flip it off to measure the unpruned fan-out tax).
    prune_enabled: bool,
    /// Shards a resilient open excluded (empty for a healthy corpus).
    /// Their global IDs are holes in `lookup`.
    quarantined: Vec<QuarantinedShard>,
}

impl ShardedCinct {
    /// Build with default sharding (see [`ShardedBuilder::new`]) — `k`
    /// shards over the corpus.
    pub fn build(trajectories: &[Vec<u32>], n_edges: usize, k: usize) -> Self {
        ShardedBuilder::new().shards(k).build(trajectories, n_edges)
    }

    /// Assemble from shards + config, rebuilding and validating the
    /// global lookup: every global ID in `0..n` must appear exactly once
    /// across the shard manifests. `Err(CorruptIndex)` otherwise (the
    /// persistence layer funnels loaded directories through here).
    pub(crate) fn assemble(
        shards: Vec<Shard>,
        n_edges: usize,
        config: ShardedBuilder,
    ) -> Result<Self, QueryError> {
        let n: usize = shards.iter().map(|s| s.globals.len()).sum();
        Self::assemble_with_holes(shards, n, n_edges, config, Vec::new())
    }

    /// [`ShardedCinct::assemble`] over a namespace of `n_total` IDs of
    /// which some may be **holes** — IDs belonging to `quarantined`
    /// shards a resilient open excluded. Holes are only legal when a
    /// quarantine explains them; with `quarantined` empty this is exactly
    /// the strict total-coverage assembly.
    pub(crate) fn assemble_with_holes(
        shards: Vec<Shard>,
        n_total: usize,
        n_edges: usize,
        config: ShardedBuilder,
        quarantined: Vec<QuarantinedShard>,
    ) -> Result<Self, QueryError> {
        let mut lookup = vec![(u32::MAX, u32::MAX); n_total];
        let mut filled = 0usize;
        for (s, shard) in shards.iter().enumerate() {
            if shard.globals.len() != shard.index.num_trajectories() {
                return Err(QueryError::CorruptIndex(format!(
                    "shard {s}: {} trajectories but {} manifest entries",
                    shard.index.num_trajectories(),
                    shard.globals.len()
                )));
            }
            for (l, &g) in shard.globals.iter().enumerate() {
                let slot = lookup.get_mut(g as usize).ok_or_else(|| {
                    QueryError::CorruptIndex(format!(
                        "shard {s}: global trajectory id {g} out of range (corpus has {n_total})"
                    ))
                })?;
                if slot.0 != u32::MAX {
                    return Err(QueryError::CorruptIndex(format!(
                        "global trajectory id {g} appears in shards {} and {s}",
                        slot.0
                    )));
                }
                *slot = (s as u32, l as u32);
                filled += 1;
            }
        }
        // n_total slots, `filled` entries, no duplicates: any shortfall
        // must be accounted for by a quarantine.
        if filled < n_total && quarantined.is_empty() {
            return Err(QueryError::CorruptIndex(format!(
                "{} global trajectory id(s) missing from every shard",
                n_total - filled
            )));
        }
        let mut bases = Vec::with_capacity(shards.len() + 1);
        bases.push(0usize);
        for shard in &shards {
            bases.push(bases.last().unwrap() + shard.index.text_len());
        }
        let mut prune_union = EdgeMembership::for_alphabet(n_edges);
        for shard in &shards {
            prune_union.union_with(shard.pruning.membership());
        }
        Ok(ShardedCinct {
            shards,
            lookup,
            bases,
            n_edges,
            config,
            prune_union,
            prune_enabled: true,
            quarantined,
        })
    }

    /// Number of shards currently serving the corpus.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of indexed trajectories (across all shards).
    pub fn num_trajectories(&self) -> usize {
        self.lookup.len()
    }

    /// Number of road-network edges the corpus was indexed over.
    pub fn network_edges(&self) -> usize {
        self.n_edges
    }

    /// The construction configuration new shards are built with.
    pub fn config(&self) -> &ShardedBuilder {
        &self.config
    }

    /// The `s`-th shard's index (read-only; shard-local IDs).
    pub fn shard_index(&self, s: usize) -> &CinctIndex {
        &self.shards[s].index
    }

    /// The `s`-th shard's manifest column: `globals[local] = global`.
    pub fn shard_globals(&self, s: usize) -> &[u32] {
        &self.shards[s].globals
    }

    /// Whether this corpus was resiliently opened around damaged shards.
    /// Degraded corpora answer queries over the surviving shards but
    /// refuse [`ShardedCinct::save_dir`] and [`ShardedCinct::compact`].
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// The shards a resilient open quarantined (empty when healthy).
    pub fn quarantined(&self) -> &[QuarantinedShard] {
        &self.quarantined
    }

    /// Whether global trajectory `g` is loaded — `false` for IDs beyond
    /// the namespace *and* for IDs stranded in a quarantined shard.
    pub fn trajectory_available(&self, g: usize) -> bool {
        self.lookup.get(g).is_some_and(|&(s, _)| s != u32::MAX)
    }

    /// Where global trajectory `g` lives: `(shard, local_id)`.
    ///
    /// Panics if `g` is out of range or quarantined — query
    /// [`ShardedCinct::trajectory_available`] (or use
    /// [`ShardedCinct::try_trajectory`]) on possibly-degraded corpora.
    pub fn shard_of(&self, g: usize) -> (usize, usize) {
        let (s, l) = self.lookup[g];
        debug_assert!(s != u32::MAX, "trajectory {g} is quarantined");
        (s as usize, l as usize)
    }

    /// Recover global trajectory `g` (forward edge order) from its shard.
    ///
    /// Panics on an out-of-range or quarantined `g` — see
    /// [`ShardedCinct::try_trajectory`] for the fallible form.
    pub fn trajectory(&self, g: usize) -> Vec<u32> {
        let (s, l) = self.shard_of(g);
        self.shards[s].index.trajectory(l)
    }

    /// Fallible [`ShardedCinct::trajectory`]: `InvalidInput` for an ID
    /// beyond the namespace, `CorruptIndex` for one whose shard a
    /// resilient open quarantined.
    pub fn try_trajectory(&self, g: usize) -> Result<Vec<u32>, QueryError> {
        match self.lookup.get(g) {
            None => Err(QueryError::InvalidInput(format!(
                "trajectory id {g} out of range (corpus has {})",
                self.lookup.len()
            ))),
            Some(&(s, _)) if s == u32::MAX => Err(QueryError::CorruptIndex(format!(
                "trajectory {g} is unavailable: its shard is quarantined"
            ))),
            Some(&(s, l)) => Ok(self.shards[s as usize].index.trajectory(l as usize)),
        }
    }

    /// Length (in edges) of global trajectory `g`.
    pub fn trajectory_len(&self, g: usize) -> usize {
        let (s, l) = self.shard_of(g);
        self.shards[s].index.trajectory_len(l)
    }

    /// Sum of per-shard core index sizes (the paper's accounting).
    pub fn core_size_in_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.index.core_size_in_bytes())
            .sum()
    }

    /// Set the thread budget of later shard builds
    /// ([`ShardedCinct::compact`]): [`ShardedBuilder::threads`] applied
    /// to the kept configuration (`0` = auto, `1` = sequential) and
    /// persisted with it in the manifest. The name is historical and kept
    /// for its callers; queries are not affected, because a query's
    /// per-shard searches always run on the calling thread (see
    /// [`ShardedCinct::shard_ranges`]).
    pub fn set_fan_out_threads(&mut self, n: usize) {
        self.config = self.config.threads(n);
    }

    /// Enable or disable shard pruning for fan-out queries (default:
    /// enabled). Pruning is outcome-identical either way — a pruned
    /// shard's backward search would have returned `None` — so this is a
    /// measurement knob: benches flip it off to record the unpruned
    /// fan-out tax the metadata saves.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.prune_enabled = enabled;
    }

    /// Whether fan-out queries consult pruning metadata.
    pub fn pruning_enabled(&self) -> bool {
        self.prune_enabled
    }

    /// The `s`-th shard's pruning metadata (edge membership + global-ID
    /// span) — what the fan-out's skip decisions are made from.
    pub fn shard_pruning(&self, s: usize) -> &ShardPruning {
        &self.shards[s].pruning
    }

    /// The global trajectory-ID span `(first, last)` shard `s` owns —
    /// the manifest-level routing hint for ID-constrained lookups.
    /// (`lookup` already routes point lookups O(1); the span is what the
    /// manifest persists so a future lazy open can route without loading
    /// the column.)
    pub fn shard_id_span(&self, s: usize) -> (u32, u32) {
        let p = &self.shards[s].pruning;
        (p.min_global(), p.max_global())
    }

    /// Why shard `s` would be skipped for `path`, if it would: the first
    /// pattern edge the shard's membership set rules out. `None` when the
    /// shard must be searched — or when pruning is disabled. Drives
    /// `--trace` output and the CI pruning assertions.
    pub fn pruned_edge(&self, s: usize, path: &Path) -> Option<u32> {
        if !self.prune_enabled {
            return None;
        }
        self.shards[s].pruning.rules_out(path)
    }

    /// Whether every shard supports locate (occurrence listing needs all
    /// of them to).
    pub fn locate_supported(&self) -> bool {
        !self.shards.is_empty()
            && self
                .shards
                .iter()
                .all(|s| s.index.locate_sampling_rate().is_some())
    }

    /// Per-shard suffix ranges of a forward path — the real (shard-local)
    /// row intervals behind the virtual [`PathQuery::range`]. The sweep
    /// runs on the calling thread: a visited shard costs a few
    /// microseconds of backward search, less than creating a thread to
    /// run it on, so parallelism lives across queries
    /// ([`crate::engine::QueryEngine::parallel`]), not inside one.
    ///
    /// **Shared-work pruning** (unless [`ShardedCinct::set_pruning`]
    /// disabled it): the pattern's edge labels are resolved **once per
    /// query** against the corpus-level membership union — an edge absent
    /// everywhere ends the fan-out before any shard is touched — then
    /// each shard's own membership set is probed (O(L) bit tests) and
    /// shards that cannot match are skipped without running their
    /// backward search. A skipped shard contributes exactly the `None`
    /// its search would have returned, so pruned and unpruned fan-outs
    /// are outcome-identical; skipped-vs-visited counts land in the
    /// `cinct_obs` shard catalog.
    pub fn shard_ranges(&self, path: &Path) -> Vec<Option<Range<usize>>> {
        let m = crate::metrics::shard();
        m.fanout_queries.inc();
        let k = self.shards.len();
        if self.prune_enabled && path.edges().iter().any(|&e| !self.prune_union.contains(e)) {
            // Corpus-level instant miss: some pattern edge occurs in no
            // shard at all, so every per-shard search would return None.
            m.fanout_union_rejects.inc();
            m.fanout_shards_pruned.add(k as u64);
            return vec![None; k];
        }
        // Once-per-query prune plan: which shards must actually search.
        let visit: Vec<bool> = if self.prune_enabled {
            self.shards
                .iter()
                .map(|s| s.pruning.rules_out(path).is_none())
                .collect()
        } else {
            vec![true; k]
        };
        let n_visit = visit.iter().filter(|&&v| v).count();
        let slots: Vec<Option<Range<usize>>> = self
            .shards
            .iter()
            .zip(&visit)
            .map(|(s, &v)| if v { s.index.range(path) } else { None })
            .collect();
        // Per-fan-out accounting: a few relaxed adds amortized over the
        // whole shard sweep, off the per-shard search loop.
        let matched = slots.iter().filter(|r| r.is_some()).count() as u64;
        m.fanout_shards_visited.add(n_visit as u64);
        m.fanout_shards_pruned.add((k - n_visit) as u64);
        m.fanout_shards_matched.add(matched);
        m.fanout_shards_short_circuited
            .add(n_visit as u64 - matched);
        slots
    }

    /// Seal `batch` into a **new shard** — no existing shard is rebuilt
    /// or touched. The batch's trajectories receive the next global IDs
    /// in order; the assigned ID range is returned. The new shard is
    /// built with the same configuration as the originals, so query
    /// semantics (locate support, block size, labeling) stay uniform.
    ///
    /// Validation is the [`CinctBuilder::try_build`] contract; note the
    /// edge-ID alphabet is **fixed at first build** — a batch touching an
    /// edge `>= network_edges()` is rejected with
    /// [`QueryError::UnknownEdge`].
    ///
    /// This is [`ShardedCinct::prepare_batch`] followed by
    /// [`ShardedCinct::install_prepared`]; long-lived servers call the
    /// two halves separately so the expensive build runs while readers
    /// keep querying, and only the O(batch) install needs exclusivity.
    pub fn append_batch(&mut self, batch: &[Vec<u32>]) -> Result<Range<usize>, QueryError> {
        let prepared = self.prepare_batch(batch)?;
        Ok(self.install_prepared(prepared))
    }

    /// First half of an append: validate `batch` and build it into a
    /// shard-shaped index, through `&self` — concurrent readers (and
    /// other `prepare_batch` calls) proceed untouched. The result is
    /// position-independent: global IDs are assigned at
    /// [`ShardedCinct::install_prepared`] time, so prepared batches may
    /// install in any order, including after other appends landed.
    pub fn prepare_batch(&self, batch: &[Vec<u32>]) -> Result<PreparedBatch, QueryError> {
        let _span = cinct_obs::Span::enter(&crate::metrics::shard().append_ns);
        validate_corpus(batch, self.n_edges)?;
        Ok(PreparedBatch {
            index: self.config.index_builder.build(batch, self.n_edges),
            len: batch.len(),
        })
    }

    /// Second half of an append: assign the next global IDs to a
    /// prepared batch and install it as a fresh shard. O(batch) — no
    /// decompression, no rebuild, no per-shard work — so a server can
    /// hold its write lock for microseconds rather than a build.
    pub fn install_prepared(&mut self, prepared: PreparedBatch) -> Range<usize> {
        let PreparedBatch { index, len } = prepared;
        let first = self.lookup.len();
        let globals: Vec<u32> = (first..first + len).map(|g| g as u32).collect();
        let s = self.shards.len() as u32;
        self.lookup.extend((0..len).map(|l| (s, l as u32)));
        self.bases
            .push(self.bases.last().unwrap() + index.text_len());
        let pruning = ShardPruning::derive(&index, self.n_edges, &globals);
        self.prune_union.union_with(pruning.membership());
        self.shards.push(Shard {
            index,
            globals,
            pruning,
        });
        first..first + len
    }

    /// Re-balance the corpus into `target_shards` shards (decompressing
    /// every trajectory and rebuilding with the configured partition
    /// strategy). Global trajectory IDs are **preserved** — queries
    /// before and after compaction are outcome-identical. Use after a
    /// run of [`ShardedCinct::append_batch`] calls has accumulated many
    /// small shards.
    pub fn compact(&mut self, target_shards: usize) -> Result<(), QueryError> {
        let _span = cinct_obs::Span::enter(&crate::metrics::shard().compact_ns);
        if target_shards == 0 {
            return Err(QueryError::InvalidInput(
                "compact target must be >= 1 shard".into(),
            ));
        }
        if self.is_degraded() {
            return Err(QueryError::InvalidInput(format!(
                "refusing to compact a degraded corpus ({} quarantined shard(s) would be dropped)",
                self.quarantined.len()
            )));
        }
        // Global ID g == corpus position, so rebuilding from trajectories
        // in global order re-derives the same namespace.
        let corpus: Vec<Vec<u32>> = (0..self.num_trajectories())
            .map(|g| self.trajectory(g))
            .collect();
        let rebuilt = ShardedBuilder {
            n_shards: target_shards,
            ..self.config
        }
        .try_build(&corpus, self.n_edges)?;
        *self = rebuilt;
        Ok(())
    }

    /// Map a global row to `(shard, local row)`.
    #[inline]
    fn locate_row(&self, j: usize) -> (usize, usize) {
        debug_assert!(j < self.text_len(), "row {j} out of the global row space");
        let s = self.bases.partition_point(|&b| b <= j) - 1;
        (s, j - self.bases[s])
    }
}

impl PathQuery for ShardedCinct {
    fn text_len(&self) -> usize {
        *self.bases.last().unwrap_or(&0)
    }

    fn sigma(&self) -> usize {
        self.n_edges + SYMBOL_OFFSET as usize
    }

    fn size_in_bytes(&self) -> usize {
        self.core_size_in_bytes()
    }

    /// **Virtual** range: `Some(0..count)` with the fan-out total, `None`
    /// when the path is absent everywhere. A sharded corpus has one
    /// contiguous suffix range *per shard* ([`ShardedCinct::shard_ranges`]),
    /// not a single global interval; preserving `range(path).len() ==
    /// count(path)` keeps every count-shaped caller (the batch engine's
    /// `Count`, `try_range`) outcome-identical to a monolithic index.
    /// The endpoints are **not** rows of the global row space.
    fn range(&self, path: &Path) -> Option<Range<usize>> {
        let total: usize = self
            .shard_ranges(path)
            .into_iter()
            .map(|r| r.map_or(0, |r| r.len()))
            .sum();
        if total == 0 {
            None
        } else {
            Some(0..total)
        }
    }

    /// One LF step in the **global row space** (see the module docs): the
    /// row is delegated to its owning shard and the successor re-offset,
    /// so extraction walks behave exactly as on a monolithic index.
    fn lf_step(&self, j: usize) -> (Symbol, usize) {
        let (s, local) = self.locate_row(j);
        let (symbol, next) = self.shards[s].index.lf_step(local);
        (symbol, self.bases[s] + next)
    }

    fn occurrences(&self, path: &Path) -> Result<OccurIter<'_>, QueryError> {
        self.validate_path(path)?;
        if !self.locate_supported() {
            return Err(QueryError::LocateUnsupported);
        }
        let ranges = self.shard_ranges(path);
        let segments = self
            .shards
            .iter()
            .zip(ranges)
            .map(|(shard, rows)| OccurSegment::remapped(&shard.index, rows, &shard.globals))
            .collect();
        Ok(OccurIter::fan_out(segments, path.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Query, QueryEngine, QueryValue};

    fn paper_trajs() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]]
    }

    /// Walk-shaped pseudo-random corpus (same generator family as the
    /// builder tests).
    fn synthetic_trajs(n_trajs: usize, n_edges: u32, seed: u64) -> Vec<Vec<u32>> {
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
                        cur = (cur * 4 + 1 + ((x >> 33) as u32) % 4) % n_edges;
                        cur
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn partitions_cover_the_corpus() {
        let trajs = synthetic_trajs(23, 20, 5);
        for partition in [ShardPartition::RoundRobin, ShardPartition::SizeBalanced] {
            for k in [1usize, 2, 5, 40] {
                let sharded = ShardedBuilder::new()
                    .shards(k)
                    .partition(partition)
                    .build(&trajs, 20);
                assert_eq!(sharded.num_trajectories(), trajs.len());
                assert!(sharded.num_shards() <= k.min(trajs.len()));
                for (g, t) in trajs.iter().enumerate() {
                    assert_eq!(&sharded.trajectory(g), t, "{partition:?} k={k} g={g}");
                    assert_eq!(sharded.trajectory_len(g), t.len());
                }
            }
        }
    }

    #[test]
    fn size_balanced_spreads_symbols() {
        // One giant trajectory + many small ones: round-robin would put
        // the giant plus a share of small ones on one shard; size-balanced
        // gives the giant its own shard.
        let mut trajs = vec![vec![1u32; 500]];
        trajs.extend(synthetic_trajs(20, 10, 3));
        let sharded = ShardedBuilder::new()
            .shards(2)
            .partition(ShardPartition::SizeBalanced)
            .build(&trajs, 10);
        let (giant_shard, _) = sharded.shard_of(0);
        assert_eq!(
            sharded.shard_index(giant_shard).num_trajectories(),
            1,
            "giant trajectory should be alone on its shard"
        );
    }

    #[test]
    fn counts_and_virtual_range_match_monolithic() {
        let trajs = paper_trajs();
        let mono = CinctIndex::build(&trajs, 6);
        let sharded = ShardedCinct::build(&trajs, 6, 2);
        for a in 0..6u32 {
            for b in 0..6u32 {
                let p = [a, b];
                let path = Path::new(&p);
                assert_eq!(sharded.count(path), mono.count(path), "path {p:?}");
                match mono.range(path) {
                    None => assert_eq!(sharded.range(path), None),
                    Some(r) => assert_eq!(sharded.range(path), Some(0..r.len())),
                }
            }
        }
    }

    #[test]
    fn occurrences_carry_global_ids() {
        let trajs = paper_trajs();
        let sharded = ShardedBuilder::new()
            .shards(3)
            .locate_sampling(2)
            .build(&trajs, 6);
        let occ = sharded.occurrences(Path::new(&[0, 1])).unwrap();
        assert_eq!(occ.remaining(), 2);
        assert_eq!(occ.collect_sorted(), vec![(0, 0), (1, 0)]);
        let occ = sharded.occurrences(Path::new(&[1, 2])).unwrap();
        assert_eq!(occ.collect_sorted(), vec![(1, 1), (2, 0)]);
        // Absent path: empty stream, not an error.
        assert_eq!(sharded.occurrences(Path::new(&[5, 5])).unwrap().count(), 0);
        // Typed errors.
        assert_eq!(
            sharded.occurrences(Path::new(&[])).err(),
            Some(QueryError::EmptyPattern)
        );
        assert_eq!(
            sharded.occurrences(Path::new(&[99])).err(),
            Some(QueryError::UnknownEdge {
                edge: 99,
                n_edges: 6
            })
        );
        // No locate support anywhere -> LocateUnsupported up front.
        let plain = ShardedCinct::build(&trajs, 6, 2);
        assert_eq!(
            plain.occurrences(Path::new(&[0, 1])).err(),
            Some(QueryError::LocateUnsupported)
        );
    }

    #[test]
    fn global_row_space_extraction() {
        let trajs = paper_trajs();
        let sharded = ShardedCinct::build(&trajs, 6, 2);
        assert_eq!(
            sharded.text_len(),
            (0..sharded.num_shards())
                .map(|s| sharded.shard_index(s).text_len())
                .sum::<usize>()
        );
        // Every global row's LF step matches the owning shard's local step.
        for j in 0..sharded.text_len() {
            let (s, local) = sharded.locate_row(j);
            let (sym, next) = sharded.shard_index(s).lf_step(local);
            assert_eq!(
                PathQuery::lf_step(&sharded, j),
                (
                    sym,
                    next + {
                        let mut base = 0;
                        for i in 0..s {
                            base += sharded.shard_index(i).text_len();
                        }
                        base
                    }
                )
            );
            // Extraction walks stay inside the shard.
            let extracted = sharded.extract(j, 3);
            assert_eq!(extracted, sharded.shard_index(s).extract(local, 3));
        }
    }

    #[test]
    fn append_seals_a_fresh_shard() {
        let mut sharded = ShardedBuilder::new()
            .shards(2)
            .locate_sampling(4)
            .build(&paper_trajs(), 6);
        let before_shards = sharded.num_shards();
        let ids = sharded.append_batch(&[vec![1, 2, 5], vec![0, 1]]).unwrap();
        assert_eq!(ids, 4..6);
        assert_eq!(sharded.num_shards(), before_shards + 1);
        assert_eq!(sharded.num_trajectories(), 6);
        assert_eq!(sharded.trajectory(4), vec![1, 2, 5]);
        assert_eq!(sharded.trajectory(5), vec![0, 1]);
        // Queries see the merged corpus, new global IDs included.
        assert_eq!(sharded.count(Path::new(&[0, 1])), 3);
        let occ = sharded.occurrences(Path::new(&[1, 2])).unwrap();
        assert_eq!(occ.collect_sorted(), vec![(1, 1), (2, 0), (4, 0)]);
        // Ingest validation is the try_build contract.
        assert_eq!(
            sharded.append_batch(&[vec![0, 99]]).err(),
            Some(QueryError::UnknownEdge {
                edge: 99,
                n_edges: 6
            })
        );
        assert!(sharded.append_batch(&[]).is_err());
        assert!(sharded.append_batch(&[vec![]]).is_err());
    }

    #[test]
    fn prepare_then_install_matches_append() {
        // The split API must be observationally identical to append_batch,
        // including when prepares interleave with other installs (global
        // IDs are assigned at install time, not prepare time).
        let mut a = ShardedBuilder::new()
            .shards(2)
            .locate_sampling(4)
            .build(&paper_trajs(), 6);
        let mut b = a.clone();
        let batch1 = vec![vec![1u32, 2, 5], vec![0, 1]];
        let batch2 = vec![vec![0u32, 3, 0]];
        let ids1 = a.append_batch(&batch1).unwrap();
        let ids2 = a.append_batch(&batch2).unwrap();
        // Prepare both against the *pre-append* corpus, install in order.
        let p1 = b.prepare_batch(&batch1).unwrap();
        assert_eq!(p1.len(), 2);
        let p2 = b.prepare_batch(&batch2).unwrap();
        assert_eq!(b.install_prepared(p1), ids1);
        assert_eq!(b.install_prepared(p2), ids2);
        assert_eq!(a.num_shards(), b.num_shards());
        for g in 0..a.num_trajectories() {
            assert_eq!(a.trajectory(g), b.trajectory(g), "g={g}");
        }
        for path in [[0u32, 1], [1, 2], [0, 3]] {
            let p = Path::new(&path);
            assert_eq!(a.count(p), b.count(p));
            assert_eq!(
                a.occurrences(p).unwrap().collect_sorted(),
                b.occurrences(p).unwrap().collect_sorted()
            );
        }
        // Validation stays the prepare half's job.
        assert_eq!(
            b.prepare_batch(&[vec![0, 99]]).err(),
            Some(QueryError::UnknownEdge {
                edge: 99,
                n_edges: 6
            })
        );
    }

    #[test]
    fn compact_preserves_the_namespace() {
        let trajs = synthetic_trajs(30, 15, 11);
        let mut sharded = ShardedBuilder::new()
            .shards(2)
            .locate_sampling(4)
            .build(&trajs, 15);
        for batch in trajs.chunks(7) {
            sharded.append_batch(batch).unwrap();
        }
        let n = sharded.num_trajectories();
        let before: Vec<Vec<u32>> = (0..n).map(|g| sharded.trajectory(g)).collect();
        let count_before = sharded.count(Path::new(&[1, 5]));
        assert!(sharded.num_shards() > 3);
        sharded.compact(3).unwrap();
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.num_trajectories(), n);
        for (g, t) in before.iter().enumerate() {
            assert_eq!(&sharded.trajectory(g), t, "g={g}");
        }
        assert_eq!(sharded.count(Path::new(&[1, 5])), count_before);
        assert!(matches!(
            sharded.compact(0),
            Err(QueryError::InvalidInput(_))
        ));
    }

    #[test]
    fn engine_runs_sharded_batches() {
        // The batch layer needs nothing sharding-specific: ShardedCinct
        // is just another PathQuery backend.
        let trajs = paper_trajs();
        let sharded = ShardedBuilder::new()
            .shards(2)
            .locate_sampling(2)
            .build(&trajs, 6);
        let report = QueryEngine::new(&sharded).run(&[
            Query::count(&[0, 1]),
            Query::occurrences(&[1, 2]),
            Query::count(&[99]),
        ]);
        assert_eq!(report.outcomes[0].value, Ok(QueryValue::Count(2)));
        assert_eq!(
            report.outcomes[1].value,
            Ok(QueryValue::Occurrences(vec![(1, 1), (2, 0)]))
        );
        assert!(report.outcomes[2].value.is_err());
    }

    #[test]
    fn try_build_validates() {
        assert!(ShardedBuilder::new().try_build(&[], 6).is_err());
        assert!(ShardedBuilder::new().try_build(&[vec![]], 6).is_err());
        assert_eq!(
            ShardedBuilder::new().try_build(&[vec![0, 9]], 6).err(),
            Some(QueryError::UnknownEdge {
                edge: 9,
                n_edges: 6
            })
        );
    }

    #[test]
    fn pruning_skips_shards_and_preserves_outcomes() {
        // Round-robin puts g % 2: shard 0 = [0,1,4,5],[1,2], shard 1 =
        // [0,1,2],[0,3]. Edge 3 lives only in shard 1; edges 4 and 5
        // only in shard 0.
        let mut sharded = ShardedBuilder::new()
            .shards(2)
            .partition(ShardPartition::RoundRobin)
            .locate_sampling(2)
            .build(&paper_trajs(), 6);
        assert!(sharded.pruning_enabled());
        assert_eq!(sharded.pruned_edge(0, Path::new(&[0, 3])), Some(3));
        assert_eq!(sharded.pruned_edge(1, Path::new(&[0, 3])), None);
        assert_eq!(sharded.pruned_edge(1, Path::new(&[4, 5])), Some(4));
        // Metric deltas are `>=`: the counters are process-global and
        // other tests fan out concurrently.
        let m = crate::metrics::shard();
        let pruned_before = m.fanout_shards_pruned.get();
        assert_eq!(sharded.count(Path::new(&[0, 3])), 1);
        assert!(m.fanout_shards_pruned.get() > pruned_before);
        // Corpus-level instant miss: an edge no shard contains.
        let rejects_before = m.fanout_union_rejects.get();
        assert_eq!(sharded.count(Path::new(&[0, 99])), 0);
        assert!(m.fanout_union_rejects.get() > rejects_before);
        // Pruned vs unpruned fan-outs are outcome-identical everywhere.
        let mut unpruned = sharded.clone();
        unpruned.set_pruning(false);
        assert!(!unpruned.pruning_enabled());
        assert_eq!(unpruned.pruned_edge(0, Path::new(&[0, 3])), None);
        for a in 0..7u32 {
            for b in 0..7u32 {
                let p = [a, b];
                let path = Path::new(&p);
                assert_eq!(sharded.shard_ranges(path), unpruned.shard_ranges(path));
                assert_eq!(sharded.count(path), unpruned.count(path), "path {p:?}");
            }
        }
        // Appends keep the metadata (and the union) current.
        sharded.append_batch(&[vec![2, 3]]).unwrap();
        assert_eq!(sharded.pruned_edge(2, Path::new(&[2, 3])), None);
        assert_eq!(sharded.shard_id_span(2), (4, 4));
        assert_eq!(sharded.count(Path::new(&[2, 3])), 1);
        // Compaction re-derives spans and membership for the new layout.
        sharded.compact(2).unwrap();
        for s in 0..sharded.num_shards() {
            let (lo, hi) = sharded.shard_id_span(s);
            for &g in sharded.shard_globals(s) {
                assert!(sharded.shard_pruning(s).may_own_id(g));
                assert!(lo <= g && g <= hi);
            }
        }
        assert_eq!(sharded.count(Path::new(&[2, 3])), 1);
    }

    #[test]
    fn shard_id_spans_cover_ownership() {
        let trajs = synthetic_trajs(30, 15, 7);
        for partition in [ShardPartition::RoundRobin, ShardPartition::SizeBalanced] {
            let sharded = ShardedBuilder::new()
                .shards(4)
                .partition(partition)
                .build(&trajs, 15);
            for s in 0..sharded.num_shards() {
                let (lo, hi) = sharded.shard_id_span(s);
                let globals = sharded.shard_globals(s);
                assert_eq!(lo, *globals.iter().min().unwrap());
                assert_eq!(hi, *globals.iter().max().unwrap());
            }
            // The span routes every owned ID to (possibly) this shard and
            // definitively rules out IDs outside it.
            for g in 0..trajs.len() as u32 {
                let (owner, _) = sharded.shard_of(g as usize);
                assert!(sharded.shard_pruning(owner).may_own_id(g));
            }
        }
    }

    #[test]
    fn parallel_shard_build_is_deterministic() {
        let trajs = synthetic_trajs(40, 25, 9);
        let base = ShardedBuilder::new().shards(5).locate_sampling(8);
        let seq = base.threads(1).build(&trajs, 25);
        for threads in [2usize, 5, 0] {
            let par = base.threads(threads).build(&trajs, 25);
            assert_eq!(par.num_shards(), seq.num_shards());
            for s in 0..par.num_shards() {
                let mut a = Vec::new();
                let mut b = Vec::new();
                par.shard_index(s).write_to(&mut a).unwrap();
                seq.shard_index(s).write_to(&mut b).unwrap();
                assert_eq!(a, b, "shard {s} at {threads} threads");
                assert_eq!(par.shard_globals(s), seq.shard_globals(s));
            }
        }
    }
}
