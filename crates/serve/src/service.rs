//! [`CorpusService`]: the transport-free heart of the server — a
//! [`ShardedCinct`] behind a reader/writer lock, fronted by the
//! epoch-stamped [`QueryCache`].
//!
//! Everything the HTTP layer does funnels through this type, and
//! everything here is directly testable without a socket. The
//! concurrency discipline, in full:
//!
//! * **Queries** (count and occurrences, single or batched — a single
//!   path is a batch of one) follow one rule. Every path is probed in
//!   the cache *without* the corpus lock; if every probe hit at one
//!   epoch, that is the answer and no lock is taken, so a hot client is
//!   unaffected by concurrent appends. Otherwise the read lock is taken
//!   **once** and the epoch read under it: hits validated at that epoch
//!   are kept, the rest are computed against the locked corpus and
//!   inserted stamped with it. A result computed at epoch `e` is only
//!   inserted if `e` is still current, so a racing append can never be
//!   shadowed by a stale insert. The epoch is returned with the answers,
//!   so every response names the one epoch all of its answers are of.
//! * **Appends** run in two phases mirroring
//!   [`ShardedCinct::prepare_batch`] / [`ShardedCinct::install_prepared`]:
//!   the expensive index construction happens under the **read** lock
//!   (queries keep flowing), then the write lock is taken only for the
//!   O(K) install, and the cache epoch advances *inside* the write
//!   section — readers under the read lock always observe a mutually
//!   consistent (corpus, epoch) pair.
//! * Lock poisoning is absorbed (`into_inner`): a panicking request
//!   handler must not take the whole server down, and both phases of an
//!   append leave the corpus structurally valid at every step.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use cinct::{
    QuarantinedShard, Query, QueryEngine, QueryError, QueryValue, ShardedCinct, Wal, WalRead,
    WalRecord,
};
use cinct_fmindex::PathQuery;

use crate::cache::{CacheOp, CachedValue, Lookup, QueryCache};
use crate::metrics;

/// Idempotency keys remembered per process. Bounded FIFO: old keys age
/// out, which is fine — a client retries within seconds, not after four
/// thousand other appends.
const IDEMPOTENCY_CAPACITY: usize = 4096;

/// A sorted `(trajectory, offset)` occurrence listing, shared with the
/// cache via `Arc` so hits are allocation-free.
pub type OccurrenceList = Arc<Vec<(usize, usize)>>;

/// Outcome of one append batch installed through the service.
#[derive(Debug, Clone)]
pub struct AppendOutcome {
    /// Global trajectory IDs assigned to the batch, in input order.
    pub assigned: Range<usize>,
    /// Shard count after the install.
    pub shards: usize,
    /// The epoch the install advanced the corpus to.
    pub epoch: u64,
    /// `true` when an idempotency key matched an already-applied batch
    /// and this outcome was replayed instead of re-installed.
    pub deduplicated: bool,
}

/// A point-in-time snapshot for the stats endpoint.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Number of shards.
    pub shards: usize,
    /// Trajectories across all shards.
    pub trajectories: usize,
    /// Indexed symbols (text length including terminators).
    pub indexed_symbols: usize,
    /// Road-network edge count the corpus was built against.
    pub network_edges: usize,
    /// Whether occurrence listing is supported (locate sampling on).
    pub locate_supported: bool,
    /// Core index bytes across shards.
    pub index_bytes: usize,
    /// Current corpus epoch (appends since start).
    pub epoch: u64,
    /// Live cache entries.
    pub cache_entries: usize,
    /// Cache capacity (0 = disabled).
    pub cache_capacity: usize,
    /// Whether the corpus was opened resiliently with shards quarantined.
    pub degraded: bool,
    /// Number of quarantined shards (0 unless degraded).
    pub quarantined_shards: usize,
    /// Whether appends are journaled to a write-ahead log before acking.
    pub wal_enabled: bool,
    /// WAL records journaled since the last snapshot (0 without a WAL).
    pub wal_pending: usize,
    /// Sequence number the next WAL append will receive — one past the
    /// replication log's last record (0 without a WAL).
    pub wal_next_seq: u64,
    /// Followers that have registered on the replication stream.
    pub followers: usize,
}

/// Bounded FIFO map from idempotency key to the outcome it produced.
#[derive(Default)]
struct IdemRegistry {
    outcomes: HashMap<String, AppendOutcome>,
    order: VecDeque<String>,
}

impl IdemRegistry {
    fn get(&self, key: &str) -> Option<AppendOutcome> {
        self.outcomes.get(key).map(|o| AppendOutcome {
            deduplicated: true,
            ..o.clone()
        })
    }

    fn insert(&mut self, key: &str, outcome: &AppendOutcome) {
        if self
            .outcomes
            .insert(key.to_owned(), outcome.clone())
            .is_none()
        {
            self.order.push_back(key.to_owned());
            while self.order.len() > IDEMPOTENCY_CAPACITY {
                if let Some(old) = self.order.pop_front() {
                    self.outcomes.remove(&old);
                }
            }
        }
    }
}

fn into_count(value: CachedValue) -> usize {
    match value {
        CachedValue::Count(n) => n,
        CachedValue::Occurrences(_) => unreachable!("count answered with occurrences"),
    }
}

fn into_occurrences(value: CachedValue) -> OccurrenceList {
    match value {
        CachedValue::Occurrences(occ) => occ,
        CachedValue::Count(_) => unreachable!("occurrences answered with a count"),
    }
}

/// See the module docs.
pub struct CorpusService {
    corpus: RwLock<ShardedCinct>,
    cache: QueryCache,
    /// When present, every append is journaled (and fsynced, per the
    /// WAL's [`cinct::Durability`]) before it is installed or acked.
    /// The mutex also serializes journal order with install order —
    /// replay applies records in WAL order, so the two must agree.
    wal: Option<Mutex<Wal>>,
    idem: Mutex<IdemRegistry>,
    /// Quarantine report snapshotted at construction. Quarantine only
    /// happens at open time, so the snapshot never goes stale.
    quarantined: Vec<QuarantinedShard>,
    /// Replication-log tip (the WAL's `next_seq`), mirrored outside the
    /// WAL mutex so `/repl/wal` long-polls can block on the condvar
    /// without contending the append path.
    tip: Mutex<u64>,
    tip_cv: Condvar,
    /// Followers registered on the replication stream: follower id →
    /// the next sequence number it still needs. Sealed WAL segments
    /// below the minimum of these are the only ones reclaim may drop.
    followers: Mutex<HashMap<String, u64>>,
}

impl CorpusService {
    /// Wrap an assembled corpus. `cache_capacity == 0` disables the
    /// result cache; `cache_shards` is clamped to at least 1.
    pub fn new(corpus: ShardedCinct, cache_capacity: usize, cache_shards: usize) -> Self {
        Self::build(corpus, cache_capacity, cache_shards, None)
    }

    /// Wrap a corpus with a write-ahead log: `replay` (the records
    /// [`Wal::open`] recovered) is re-applied to the corpus first, so a
    /// crash after ack but before snapshot loses nothing. Replayed
    /// records keep their idempotency keys registered, so a client
    /// retrying across the restart still deduplicates.
    pub fn new_durable(
        mut corpus: ShardedCinct,
        cache_capacity: usize,
        cache_shards: usize,
        wal: Wal,
        replay: Vec<WalRecord>,
    ) -> Result<Self, QueryError> {
        let mut replayed: Vec<(String, AppendOutcome)> = Vec::new();
        for rec in &replay {
            let assigned = corpus.append_batch(&rec.batch)?;
            if !rec.key.is_empty() {
                replayed.push((
                    rec.key.clone(),
                    AppendOutcome {
                        assigned,
                        shards: corpus.num_shards(),
                        epoch: 0,
                        deduplicated: false,
                    },
                ));
            }
        }
        let svc = Self::build(corpus, cache_capacity, cache_shards, Some(wal));
        {
            let mut idem = svc.idem.lock().unwrap_or_else(|e| e.into_inner());
            for (key, outcome) in &replayed {
                idem.insert(key, outcome);
            }
        }
        Ok(svc)
    }

    fn build(
        corpus: ShardedCinct,
        cache_capacity: usize,
        cache_shards: usize,
        wal: Option<Wal>,
    ) -> Self {
        let quarantined = corpus.quarantined().to_vec();
        let tip = wal.as_ref().map_or(0, |w| w.next_seq());
        let svc = CorpusService {
            corpus: RwLock::new(corpus),
            cache: QueryCache::new(cache_capacity, cache_shards),
            wal: wal.map(Mutex::new),
            idem: Mutex::new(IdemRegistry::default()),
            quarantined,
            tip: Mutex::new(tip),
            tip_cv: Condvar::new(),
            followers: Mutex::new(HashMap::new()),
        };
        metrics::serve().epoch.set(0);
        metrics::serve()
            .degraded
            .set(u64::from(!svc.quarantined.is_empty()));
        svc
    }

    /// Whether the corpus was opened resiliently with shards lost to
    /// quarantine (queries succeed but cover only surviving shards).
    pub fn degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// The quarantine report from open time (empty unless degraded).
    pub fn quarantined(&self) -> &[QuarantinedShard] {
        &self.quarantined
    }

    /// Whether appends are journaled to a WAL before acking.
    pub fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, ShardedCinct> {
        self.corpus.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` against the live corpus under the read lock — the hook
    /// identity tests use to compare served answers with direct ones.
    pub fn with_corpus<R>(&self, f: impl FnOnce(&ShardedCinct) -> R) -> R {
        f(&self.read())
    }

    /// Current corpus epoch (appends installed since construction).
    pub fn epoch(&self) -> u64 {
        self.cache.current_epoch()
    }

    /// Count trajectories matching `path`. Returns `(count, from_cache,
    /// epoch)` under the module's epoch contract. `use_cache = false`
    /// bypasses both lookup and insert (honest cache-miss benchmarking;
    /// also the right call for one-off probes).
    pub fn count(&self, path: &[u32], use_cache: bool) -> Result<(usize, bool, u64), QueryError> {
        let (mut values, hits, epoch) =
            self.serve(CacheOp::Count, std::slice::from_ref(&path), use_cache)?;
        Ok((into_count(values.remove(0)), hits == 1, epoch))
    }

    /// Count a batch; the first invalid path fails the whole batch with
    /// the [`QueryError`] [`CorpusService::count`] gives for it. Returns
    /// `(counts, cache_hits, epoch)`: every count, cached or computed, is
    /// the answer at `epoch`.
    pub fn count_batch(
        &self,
        paths: &[Vec<u32>],
        use_cache: bool,
    ) -> Result<(Vec<usize>, usize, u64), QueryError> {
        let (values, hits, epoch) = self.serve(CacheOp::Count, paths, use_cache)?;
        Ok((values.into_iter().map(into_count).collect(), hits, epoch))
    }

    /// List every `(trajectory, offset)` occurrence of `path`, sorted.
    /// Returns `(occurrences, from_cache, epoch)` with the epoch contract
    /// of [`CorpusService::count`]; the list is shared with the cache via
    /// `Arc`, so hits are allocation-free.
    pub fn occurrences(
        &self,
        path: &[u32],
        use_cache: bool,
    ) -> Result<(OccurrenceList, bool, u64), QueryError> {
        let (mut values, hits, epoch) =
            self.serve(CacheOp::Occurrences, std::slice::from_ref(&path), use_cache)?;
        Ok((into_occurrences(values.remove(0)), hits == 1, epoch))
    }

    /// Batched [`CorpusService::occurrences`], with the error and epoch
    /// contract of [`CorpusService::count_batch`]. Returns `(per-path
    /// listings, cache_hits, epoch)`.
    pub fn occurrences_batch(
        &self,
        paths: &[Vec<u32>],
        use_cache: bool,
    ) -> Result<(Vec<OccurrenceList>, usize, u64), QueryError> {
        let (values, hits, epoch) = self.serve(CacheOp::Occurrences, paths, use_cache)?;
        Ok((
            values.into_iter().map(into_occurrences).collect(),
            hits,
            epoch,
        ))
    }

    /// The one served-query routine behind count and occurrences, single
    /// or batched (a single path is a batch of one); the lock/epoch rule
    /// is in the module docs. Returns `(values, cache_hits, epoch)`.
    ///
    /// Engine metrics count every evaluated path, the failing one too
    /// (and that one as an error); latency is one per-path mean sample
    /// per call (end-to-end latency lives in `cinct_serve_request_ns`).
    pub(crate) fn serve<P: AsRef<[u32]>>(
        &self,
        op: CacheOp,
        paths: &[P],
        use_cache: bool,
    ) -> Result<(Vec<CachedValue>, usize, u64), QueryError> {
        let m = metrics::serve();
        let mut probed: Vec<Option<(CachedValue, u64)>> = Vec::with_capacity(paths.len());
        for path in paths {
            probed.push(if use_cache {
                match self.cache.get(op, path.as_ref()) {
                    Lookup::Hit(value, epoch) => Some((value, epoch)),
                    Lookup::Stale => {
                        m.cache_stale.inc();
                        m.cache_misses.inc();
                        None
                    }
                    Lookup::Miss => {
                        m.cache_misses.inc();
                        None
                    }
                }
            } else {
                None
            });
        }
        // Every path hit at one epoch: answer without the lock.
        if let Some(&Some((_, epoch))) = probed.first() {
            if probed
                .iter()
                .all(|p| matches!(p, Some((_, e)) if *e == epoch))
            {
                m.cache_hits.add(probed.len() as u64);
                let values = probed.into_iter().flatten().map(|(v, _)| v).collect();
                return Ok((values, paths.len(), epoch));
            }
        }

        let corpus = self.read();
        let epoch = self.cache.current_epoch();
        let mut values = Vec::with_capacity(paths.len());
        let mut hits = 0usize;
        let mut evaluated = 0u64;
        let mut failed = None;
        let t0 = Instant::now();
        for (path, probe) in paths.iter().zip(probed) {
            match probe {
                Some((value, e)) if e == epoch => {
                    hits += 1;
                    values.push(value);
                    continue;
                }
                // Validated before an append the lock now sees.
                Some(_) => {
                    m.cache_stale.inc();
                    m.cache_misses.inc();
                }
                None => {}
            }
            evaluated += 1;
            let path = path.as_ref();
            let value = match op {
                CacheOp::Count => corpus
                    .try_range(cinct::Path::new(path))
                    .map(|r| CachedValue::Count(r.map_or(0, |r| r.len()))),
                CacheOp::Occurrences => corpus
                    .occurrences(cinct::Path::new(path))
                    .map(|it| CachedValue::Occurrences(Arc::new(it.collect_sorted()))),
            };
            match value {
                Ok(value) => {
                    if use_cache && self.cache.insert(op, path, value.clone(), epoch) {
                        m.cache_evictions.inc();
                    }
                    values.push(value);
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        m.cache_hits.add(hits as u64);
        if evaluated > 0 {
            let em = cinct::metrics::engine();
            em.queries.add(evaluated);
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX) / evaluated;
            match op {
                CacheOp::Count => em.count_ns.record(ns),
                CacheOp::Occurrences => em.occurrences_ns.record(ns),
            }
        }
        if let Some(e) = failed {
            cinct::metrics::engine().errors.inc();
            return Err(e);
        }
        Ok((values, hits, epoch))
    }

    /// Extract `len` symbols preceding `SA[row]` (never cached: row
    /// space shifts as shards are appended). Returns `(symbols, epoch)`,
    /// the epoch read under the same read lock — the row space the
    /// caller's `row` was interpreted in.
    pub fn extract(&self, row: usize, len: usize) -> Result<(Vec<u32>, u64), QueryError> {
        let corpus = self.read();
        let epoch = self.cache.current_epoch();
        let value = QueryEngine::new(&*corpus)
            .run_one(&Query::extract(row, len))
            .value?;
        let QueryValue::Extract(symbols) = value else {
            unreachable!("extract query returned non-extract value")
        };
        Ok((symbols, epoch))
    }

    /// Recover a full stored trajectory by global ID. On a degraded
    /// corpus, IDs whose shard was quarantined fail with
    /// [`QueryError::CorruptIndex`] rather than panicking.
    pub fn trajectory(&self, id: usize) -> Result<Vec<u32>, QueryError> {
        self.trajectory_at(id).map(|(symbols, _)| symbols)
    }

    /// [`CorpusService::trajectory`] plus the epoch read under the same
    /// read lock.
    pub fn trajectory_at(&self, id: usize) -> Result<(Vec<u32>, u64), QueryError> {
        let corpus = self.read();
        let n = corpus.num_trajectories();
        if id >= n {
            return Err(QueryError::InvalidInput(format!(
                "trajectory {id} out of range ({n} trajectories)"
            )));
        }
        Ok((corpus.try_trajectory(id)?, self.cache.current_epoch()))
    }

    /// Install an append batch: build under the read lock (queries keep
    /// flowing), install + epoch bump under the write lock. See the
    /// module docs for why the epoch must advance inside the write
    /// section.
    pub fn append(&self, batch: &[Vec<u32>]) -> Result<AppendOutcome, QueryError> {
        self.append_keyed(batch, None)
    }

    /// [`CorpusService::append`] with an optional idempotency key.
    ///
    /// With a key, a batch is applied **exactly once per process
    /// lifetime** (the registry remembers the most recent 4096 keys):
    /// a repeat of an already-applied key returns the original outcome
    /// with `deduplicated: true` and installs nothing. With a WAL, the
    /// key is journaled in the record, so deduplication also survives a
    /// crash-and-replay restart.
    ///
    /// Ordering discipline when a WAL is present: journal (fsync per
    /// the WAL's durability) **then** install, both under the WAL
    /// mutex, so WAL order equals install order and replay reassigns
    /// the same global IDs.
    pub fn append_keyed(
        &self,
        batch: &[Vec<u32>],
        key: Option<&str>,
    ) -> Result<AppendOutcome, QueryError> {
        let m = metrics::serve();
        let t0 = Instant::now();
        if let Some(key) = key {
            let idem = self.idem.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(hit) = idem.get(key) {
                m.idem_hits.inc();
                return Ok(hit);
            }
        }
        let prepared = self.read().prepare_batch(batch)?;
        let outcome = match &self.wal {
            Some(wal) => {
                let mut wal = wal.lock().unwrap_or_else(|e| e.into_inner());
                // Re-check under the serializing lock: a racing retry
                // may have journaled + installed this key meanwhile.
                if let Some(key) = key {
                    let hit = {
                        let idem = self.idem.lock().unwrap_or_else(|e| e.into_inner());
                        idem.get(key)
                    };
                    if let Some(hit) = hit {
                        m.idem_hits.inc();
                        return Ok(hit);
                    }
                }
                let seq = wal.append(key.unwrap_or(""), batch)?;
                let outcome = self.install(prepared);
                if let Some(key) = key {
                    let mut idem = self.idem.lock().unwrap_or_else(|e| e.into_inner());
                    idem.insert(key, &outcome);
                }
                self.note_tip(seq + 1);
                outcome
            }
            None => match key {
                Some(key) => {
                    // No WAL: the idem lock itself serializes same-key
                    // installs, closing the check/install race.
                    let mut idem = self.idem.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(hit) = idem.get(key) {
                        m.idem_hits.inc();
                        return Ok(hit);
                    }
                    let outcome = self.install(prepared);
                    idem.insert(key, &outcome);
                    outcome
                }
                None => self.install(prepared),
            },
        };
        m.appends.inc();
        m.epoch.set(outcome.epoch);
        m.append_ns
            .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Ok(outcome)
    }

    fn install(&self, prepared: cinct::PreparedBatch) -> AppendOutcome {
        let (assigned, shards, epoch);
        {
            let mut corpus = self.corpus.write().unwrap_or_else(|e| e.into_inner());
            assigned = corpus.install_prepared(prepared);
            epoch = self.cache.advance_epoch();
            shards = corpus.num_shards();
        }
        AppendOutcome {
            assigned,
            shards,
            epoch,
            deduplicated: false,
        }
    }

    /// Snapshot for the stats endpoint.
    pub fn stats(&self) -> ServiceStats {
        let (wal_pending, wal_next_seq) = self.wal.as_ref().map_or((0, 0), |w| {
            let w = w.lock().unwrap_or_else(|e| e.into_inner());
            (w.pending(), w.next_seq())
        });
        let followers = self
            .followers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        let corpus = self.read();
        ServiceStats {
            shards: corpus.num_shards(),
            trajectories: corpus.num_trajectories(),
            indexed_symbols: corpus.text_len(),
            network_edges: corpus.network_edges(),
            locate_supported: corpus.locate_supported(),
            index_bytes: corpus.core_size_in_bytes(),
            epoch: self.cache.current_epoch(),
            cache_entries: self.cache.len(),
            cache_capacity: self.cache.capacity(),
            degraded: self.degraded(),
            quarantined_shards: self.quarantined.len(),
            wal_enabled: self.wal.is_some(),
            wal_pending,
            wal_next_seq,
            followers,
        }
    }

    /// Persist the live corpus (graceful-shutdown durability for served
    /// appends), then **retire** the WAL's active segment: everything
    /// journaled is now in the manifest, so the segment is sealed (kept
    /// on disk for lagging followers) and a fresh one started. The WAL
    /// lock is held across both so no append can journal between the
    /// save and the seal and be lost. Takes the corpus read lock:
    /// concurrent queries proceed, appends wait out the save. Finally,
    /// sealed segments every registered follower has passed are
    /// reclaimed — a follower that never comes back would otherwise pin
    /// history forever, so callers can drop it from the registry with
    /// [`CorpusService::forget_follower`] first.
    pub fn save_dir(&self, dir: &std::path::Path) -> Result<(), QueryError> {
        match &self.wal {
            Some(wal) => {
                let mut wal = wal.lock().unwrap_or_else(|e| e.into_inner());
                // Stamp the absorbed WAL position into the manifest: the
                // WAL lock is held, so the corpus holds exactly the
                // records below `next_seq`. If we crash after the
                // manifest rename but before the retire below, replay
                // skips the absorbed records instead of applying them
                // twice.
                self.read()
                    .save_dir_at(dir, cinct::Durability::Durable, wal.next_seq())?;
                wal.retire()?;
                let floor = {
                    let followers = self.followers.lock().unwrap_or_else(|e| e.into_inner());
                    followers.values().copied().min().unwrap_or(u64::MAX)
                };
                let reclaimed = wal.reclaim(floor)?;
                if reclaimed > 0 {
                    metrics::serve()
                        .repl_segments_reclaimed
                        .add(reclaimed as u64);
                }
                Ok(())
            }
            None => self.read().save_dir(dir),
        }
    }

    // ------------------------------------------------------------------
    // Replication: the primary-side stream and the follower-side apply.
    // ------------------------------------------------------------------

    /// Mirror the WAL tip (its `next_seq`) for long-pollers and wake
    /// them. Called after every successful journaled append.
    fn note_tip(&self, next_seq: u64) {
        let mut tip = self.tip.lock().unwrap_or_else(|e| e.into_inner());
        if next_seq > *tip {
            *tip = next_seq;
            self.tip_cv.notify_all();
        }
    }

    /// Block until the replication log holds a record at-or-after
    /// `from` (i.e. the tip moves past it) or `timeout` elapses; returns
    /// the current tip either way. The long-poll half of `/repl/wal`.
    pub fn wait_for_tip(&self, from: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut tip = self.tip.lock().unwrap_or_else(|e| e.into_inner());
        while *tip <= from {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _) = self
                .tip_cv
                .wait_timeout(tip, left)
                .unwrap_or_else(|e| e.into_inner());
            tip = guard;
        }
        *tip
    }

    /// Sequence number the next journaled append will receive (`None`
    /// without a WAL — a memory-only corpus has no replication log).
    pub fn wal_next_seq(&self) -> Option<u64> {
        self.wal
            .as_ref()
            .map(|w| w.lock().unwrap_or_else(|e| e.into_inner()).next_seq())
    }

    /// Read the replication log at-or-after `from` — the record source
    /// behind `/repl/wal`. Errors without a WAL.
    pub fn wal_read_from(&self, from: u64) -> Result<WalRead, QueryError> {
        let wal = self.wal.as_ref().ok_or_else(|| {
            QueryError::InvalidInput("replication requires a WAL (serve a saved directory)".into())
        })?;
        let wal = wal.lock().unwrap_or_else(|e| e.into_inner());
        wal.read_from(from)
    }

    /// Record (or refresh) a follower's position: `from` is the next
    /// sequence number it still needs. Registered positions are the
    /// floor below which [`CorpusService::save_dir`] may reclaim sealed
    /// WAL segments.
    pub fn register_follower(&self, id: &str, from: u64) {
        let mut followers = self.followers.lock().unwrap_or_else(|e| e.into_inner());
        followers.insert(id.to_owned(), from);
    }

    /// Drop a follower from the registry (it was decommissioned, or its
    /// lag is being traded for disk by forcing a snapshot bootstrap).
    pub fn forget_follower(&self, id: &str) {
        let mut followers = self.followers.lock().unwrap_or_else(|e| e.into_inner());
        followers.remove(id);
    }

    /// Serialize a consistent snapshot of the live corpus plus the WAL
    /// position it absorbs — the payload behind `/repl/snapshot`. The
    /// WAL lock freezes the cut point: appends journal under that lock,
    /// so no record can land between reading `next_seq` and serializing
    /// the corpus state that includes it.
    pub fn snapshot_stream(&self) -> Result<Vec<u8>, QueryError> {
        let wal = self.wal.as_ref().ok_or_else(|| {
            QueryError::InvalidInput("replication requires a WAL (serve a saved directory)".into())
        })?;
        let wal = wal.lock().unwrap_or_else(|e| e.into_inner());
        let absorbed = wal.next_seq();
        let stream = self.read().snapshot_to_vec(absorbed)?;
        metrics::serve().repl_snapshots_served.inc();
        Ok(stream)
    }

    /// Replace the local corpus wholesale with a primary's snapshot
    /// stream — the follower-bootstrap path, taken when the local log
    /// is behind the primary's oldest retained segment. Installs the
    /// snapshot into `dir`, swaps it in under the corpus write lock,
    /// and re-bases the WAL at the absorbed position so pulling resumes
    /// exactly where the snapshot left off; returns that position.
    /// Cached results and idempotency keys all predate the new corpus,
    /// so the epoch advances (evicting cache entries on sight) and the
    /// key registry is dropped.
    pub fn bootstrap_snapshot(
        &self,
        dir: &std::path::Path,
        stream: &[u8],
    ) -> Result<u64, QueryError> {
        let wal_mutex = self.wal.as_ref().ok_or_else(|| {
            QueryError::InvalidInput("replication requires a WAL (serve a saved directory)".into())
        })?;
        let mut wal = wal_mutex.lock().unwrap_or_else(|e| e.into_inner());
        let durability = wal.durability();
        let (corpus, absorbed) = ShardedCinct::install_snapshot(dir, stream, durability)?;
        {
            let mut live = self.corpus.write().unwrap_or_else(|e| e.into_inner());
            *live = corpus;
            self.cache.advance_epoch();
        }
        *wal = Wal::create_at(dir, durability, absorbed)?;
        {
            let mut idem = self.idem.lock().unwrap_or_else(|e| e.into_inner());
            *idem = IdemRegistry::default();
        }
        self.note_tip(absorbed);
        metrics::serve().repl_bootstraps.inc();
        Ok(absorbed)
    }

    /// Apply records pulled from a primary, in order: journal each under
    /// the **primary's** sequence number (so a restart resumes pulling
    /// from the right position), install it, and register its
    /// idempotency key — a client retrying a write against a promoted
    /// follower deduplicates exactly as it would have on the old
    /// primary. Records below the local tip are skips (already applied);
    /// a record past it is a gap and fails — the puller must re-fetch.
    /// Returns how many records were newly applied.
    pub fn apply_replicated(&self, records: &[WalRecord]) -> Result<usize, QueryError> {
        let Some(wal_mutex) = self.wal.as_ref() else {
            return Err(QueryError::InvalidInput(
                "replication requires a WAL (serve a saved directory)".into(),
            ));
        };
        let mut applied = 0usize;
        for rec in records {
            let prepared = self.read().prepare_batch(&rec.batch)?;
            let mut wal = wal_mutex.lock().unwrap_or_else(|e| e.into_inner());
            let next = wal.next_seq();
            if rec.seq < next {
                continue; // replayed overlap from a re-fetch
            }
            if rec.seq > next {
                return Err(QueryError::InvalidInput(format!(
                    "replication gap: record {} arrived but local log ends at {next}",
                    rec.seq
                )));
            }
            wal.append_at(rec.seq, &rec.key, &rec.batch)?;
            let outcome = self.install(prepared);
            if !rec.key.is_empty() {
                let mut idem = self.idem.lock().unwrap_or_else(|e| e.into_inner());
                idem.insert(&rec.key, &outcome);
            }
            self.note_tip(rec.seq + 1);
            drop(wal);
            applied += 1;
            metrics::serve().repl_records_applied.inc();
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinct::{Path, ShardedBuilder};

    fn corpus() -> ShardedCinct {
        let trajs = vec![
            vec![0, 1, 4, 5],
            vec![0, 1, 2],
            vec![1, 2],
            vec![0, 3],
            vec![2, 3, 4],
            vec![4, 5, 0],
        ];
        ShardedBuilder::new()
            .shards(2)
            .locate_sampling(4)
            .build(&trajs, 6)
    }

    #[test]
    fn served_answers_match_direct_queries() {
        let svc = CorpusService::new(corpus(), 64, 4);
        for pat in [&[0u32, 1][..], &[1, 2], &[4, 5], &[3, 0]] {
            let direct_count = svc.with_corpus(|c| c.count(Path::new(pat)));
            let (served, cached, _) = svc.count(pat, true).unwrap();
            assert_eq!(served, direct_count, "{pat:?}");
            assert!(!cached);
            // Second ask: same answer, from cache.
            let (served2, cached2, _) = svc.count(pat, true).unwrap();
            assert_eq!(served2, direct_count);
            assert!(cached2);

            let direct_occ =
                svc.with_corpus(|c| c.occurrences(Path::new(pat)).unwrap().collect_sorted());
            let (occ, ..) = svc.occurrences(pat, true).unwrap();
            assert_eq!(*occ, direct_occ, "{pat:?}");
            let (occ2, cached_occ, _) = svc.occurrences(pat, true).unwrap();
            assert_eq!(*occ2, direct_occ);
            assert!(cached_occ);
        }
        // Errors are outcome-identical too: an unknown edge fails the
        // same way served as direct.
        let direct_err = svc.with_corpus(|c| c.occurrences(Path::new(&[9])).err());
        assert_eq!(svc.occurrences(&[9], true).err(), direct_err);
        assert!(matches!(
            svc.occurrences(&[9], true),
            Err(QueryError::UnknownEdge {
                edge: 9,
                n_edges: 6
            })
        ));

        // A single path is a batch of one: same value, error, cache
        // flag and epoch. Each side gets its own identically-primed
        // service so neither call warms the cache for the other.
        let primed = || {
            let svc = CorpusService::new(corpus(), 64, 4);
            svc.append(&[vec![0, 1, 2]]).unwrap();
            svc.count(&[0, 1], true).unwrap();
            svc.occurrences(&[0, 1], true).unwrap();
            svc
        };
        let hot = vec![0u32, 1];
        let cold = vec![1u32, 2];
        let absent = vec![5u32, 1];
        let unknown = vec![9u32];
        let empty: Vec<u32> = Vec::new();
        for p in [&hot, &cold, &absent, &unknown, &empty] {
            for use_cache in [true, false] {
                let single = primed().count(p, use_cache);
                let batch = primed().count_batch(std::slice::from_ref(p), use_cache);
                match (single, batch) {
                    (Ok((n, cached, e)), Ok((ns, hits, be))) => {
                        assert_eq!((vec![n], usize::from(cached), e), (ns, hits, be), "{p:?}");
                        assert_eq!(cached, use_cache && p == &hot, "{p:?}");
                        assert_eq!(e, 1);
                    }
                    (single, batch) => assert_eq!(single.err(), batch.err(), "{p:?}"),
                }
                let single = primed().occurrences(p, use_cache);
                let batch = primed().occurrences_batch(std::slice::from_ref(p), use_cache);
                match (single, batch) {
                    (Ok((occ, cached, e)), Ok((occs, hits, be))) => {
                        assert_eq!(
                            (vec![occ], usize::from(cached), e),
                            (occs, hits, be),
                            "{p:?}"
                        );
                        assert_eq!(cached, use_cache && p == &hot, "{p:?}");
                    }
                    (single, batch) => assert_eq!(single.err(), batch.err(), "{p:?}"),
                }
            }
        }
        assert!(primed().count(&unknown, true).is_err());
        assert!(primed().count(&empty, true).is_err());
    }

    /// Engine metrics count every evaluated path of a failing request,
    /// and the failure as an error — single or batched. The metrics are
    /// process-global (other tests run concurrently), hence `>=`.
    #[test]
    fn failed_requests_still_record_engine_metrics() {
        let svc = CorpusService::new(corpus(), 64, 4);
        let em = cinct::metrics::engine();
        let (q0, e0) = (em.queries.get(), em.errors.get());
        assert!(svc.count(&[9], false).is_err());
        assert!(em.queries.get() > q0);
        assert!(em.errors.get() > e0);

        let (q0, e0) = (em.queries.get(), em.errors.get());
        let batch = [vec![0, 1], vec![1, 2], vec![9], vec![4, 5]];
        assert!(svc.count_batch(&batch, false).is_err());
        assert!(
            em.queries.get() >= q0 + 3,
            "both answered paths and the failing one"
        );
        assert!(em.errors.get() > e0);

        let (q0, e0) = (em.queries.get(), em.errors.get());
        assert!(svc.occurrences_batch(&batch, false).is_err());
        assert!(em.queries.get() >= q0 + 3);
        assert!(em.errors.get() > e0);
    }

    #[test]
    fn cache_bypass_never_caches() {
        let svc = CorpusService::new(corpus(), 64, 4);
        let (_, cached, _) = svc.count(&[0, 1], false).unwrap();
        assert!(!cached);
        // Still a miss afterwards: bypass inserted nothing.
        let (_, cached, _) = svc.count(&[0, 1], true).unwrap();
        assert!(!cached);
    }

    #[test]
    fn append_invalidates_cached_counts() {
        let svc = CorpusService::new(corpus(), 64, 4);
        let (before, ..) = svc.count(&[1, 2], true).unwrap();
        let (_, cached, _) = svc.count(&[1, 2], true).unwrap();
        assert!(cached, "primed");

        let out = svc.append(&[vec![1, 2, 5], vec![1, 2]]).unwrap();
        assert_eq!(out.assigned, 6..8);
        assert_eq!(out.epoch, 1);
        assert_eq!(svc.epoch(), 1);

        // The cached pre-append answer must not surface.
        let (after, cached, epoch) = svc.count(&[1, 2], true).unwrap();
        assert!(!cached, "stale entry must have been evicted");
        assert_eq!((after, epoch), (before + 2, 1));
        // Occurrence lists see the appended rows under their global IDs.
        let (occ, ..) = svc.occurrences(&[1, 2], true).unwrap();
        assert!(occ.iter().any(|&(t, _)| t == 6));
        assert!(occ.iter().any(|&(t, _)| t == 7));
    }

    #[test]
    fn append_errors_leave_corpus_and_epoch_untouched() {
        let svc = CorpusService::new(corpus(), 64, 4);
        let err = svc.append(&[vec![0, 99]]).unwrap_err();
        assert!(matches!(err, QueryError::UnknownEdge { edge: 99, .. }));
        assert_eq!(svc.epoch(), 0);
        assert_eq!(svc.stats().trajectories, 6);
    }

    #[test]
    fn trajectory_and_extract_round_trip() {
        let svc = CorpusService::new(corpus(), 0, 1);
        assert_eq!(svc.trajectory(0).unwrap(), vec![0, 1, 4, 5]);
        assert_eq!(svc.trajectory(5).unwrap(), vec![4, 5, 0]);
        assert!(matches!(
            svc.trajectory(6),
            Err(QueryError::InvalidInput(_))
        ));
        let direct = svc.with_corpus(|c| {
            QueryEngine::new(c)
                .run_one(&Query::extract(0, 3))
                .value
                .unwrap()
        });
        let QueryValue::Extract(expect) = direct else {
            unreachable!()
        };
        assert_eq!(svc.extract(0, 3).unwrap(), (expect, 0));
    }

    #[test]
    fn stats_reflect_appends_and_cache() {
        let svc = CorpusService::new(corpus(), 8, 2);
        let s = svc.stats();
        assert_eq!((s.shards, s.trajectories, s.epoch), (2, 6, 0));
        assert_eq!(s.cache_capacity, 8);
        assert!(s.locate_supported);
        assert_eq!(s.network_edges, 6);

        svc.count(&[0, 1], true).unwrap();
        assert_eq!(svc.stats().cache_entries, 1);
        svc.append(&[vec![3, 4]]).unwrap();
        let s = svc.stats();
        assert_eq!((s.shards, s.trajectories, s.epoch), (3, 7, 1));
    }

    /// The epoch-invalidation race, hammered with scoped threads: an
    /// append that has *completed* must be visible to every count that
    /// *starts* afterwards — a cached pre-append answer surfacing
    /// post-append is the bug this test exists to catch.
    #[test]
    fn concurrent_appends_never_serve_stale_cached_counts() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let svc = CorpusService::new(corpus(), 256, 4);
        let pat = [1u32, 2];
        let base = svc.count(&pat, true).unwrap().0;
        let appends_done = AtomicUsize::new(0);
        const APPENDS: usize = 12;

        std::thread::scope(|s| {
            // One appender: each batch adds exactly one new [1,2] match.
            s.spawn(|| {
                for _ in 0..APPENDS {
                    svc.append(&[vec![1, 2, 4]]).unwrap();
                    appends_done.fetch_add(1, Ordering::Release);
                }
            });
            // Batched readers mixing the hot pattern (usually a hit) with
            // a rotating cold one (usually a miss): a hit kept beside
            // computed answers must be of the epoch the call names.
            for r in 0..2u32 {
                let (svc, appends_done) = (&svc, &appends_done);
                s.spawn(move || {
                    for i in 0u32.. {
                        let done = appends_done.load(Ordering::Acquire);
                        let cold = vec![(r + i) % 6, i % 6, (i / 6) % 6];
                        let (ns, _, epoch) = svc.count_batch(&[pat.to_vec(), cold], true).unwrap();
                        assert!(ns[0] >= base + done, "batched count {} after {done}", ns[0]);
                        assert_eq!(ns[0], base + epoch as usize, "batch names epoch {epoch}");
                        if done == APPENDS {
                            break;
                        }
                    }
                });
            }
            // N readers racing it through the cache.
            for _ in 0..4 {
                s.spawn(|| loop {
                    let done = appends_done.load(Ordering::Acquire);
                    let (n, _, epoch) = svc.count(&pat, true).unwrap();
                    assert!(
                        n >= base + done,
                        "count {n} started after {done} appends completed (base {base})"
                    );
                    // ...and names the epoch it is the answer of.
                    assert_eq!(n, base + epoch as usize, "count {n} names epoch {epoch}");
                    if done == APPENDS {
                        break;
                    }
                });
            }
        });
        assert_eq!(svc.count(&pat, true).unwrap().0, base + APPENDS);
        assert_eq!(svc.epoch(), APPENDS as u64);
    }
}
