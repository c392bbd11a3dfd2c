//! Hot-pattern result cache: a sharded, epoch-stamped LRU.
//!
//! Fleet-analytics traffic is heavily skewed — a handful of corridors
//! account for most count/locate queries — so repeated backward searches
//! over the same pattern are pure waste. The cache memoizes results
//! keyed by `(operation, path)`, sharded across independently locked
//! LRU maps so concurrent workers rarely contend on one mutex.
//!
//! **Staleness discipline.** Every entry is stamped with the corpus
//! *epoch*, an [`AtomicU64`] that advances exactly once per installed
//! append batch — and only while the appender holds the corpus write
//! lock (see `CorpusService::append`), so readers holding the read lock
//! always observe a (corpus, epoch) pair that is mutually consistent.
//! A lookup whose entry carries an older epoch is a miss: the entry is
//! evicted on the spot and the caller recomputes against the grown
//! corpus. Cached results are therefore never stale — an append
//! invalidates the whole cache by bumping one integer, O(1), no sweep.
//!
//! The LRU itself is an index-linked list over a slab (`Vec<Node>` +
//! free list): no unsafe, no per-entry allocation churn, O(1)
//! get/insert/evict while holding the shard mutex.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which query operation a cached value answers. Count and occurrence
/// results are distinct entries: a count is one word, an occurrence
/// list can be thousands, and callers that only count must not pay to
/// materialize positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOp {
    /// `count` — number of matching trajectories.
    Count,
    /// `occurrences`/`locate` — the full sorted `(trajectory, offset)`
    /// list (shared via `Arc`; responses slice it per-request).
    Occurrences,
}

/// A memoized query result.
#[derive(Debug, Clone)]
pub enum CachedValue {
    /// A `count` result.
    Count(usize),
    /// A full sorted occurrence list, shared between the cache and any
    /// in-flight responses without copying.
    Occurrences(Arc<Vec<(usize, usize)>>),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    op: CacheOp,
    path: Box<[u32]>,
}

/// What a [`QueryCache::get`] observed — the caller translates these
/// into hit/miss/stale metrics.
#[derive(Debug)]
pub enum Lookup {
    /// Fresh entry, and the epoch it was validated at: the value is the
    /// corpus's answer as of exactly that many installed appends.
    Hit(CachedValue, u64),
    /// No entry.
    Miss,
    /// An entry existed but predated the last append; it has been
    /// evicted.
    Stale,
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    key: Key,
    value: CachedValue,
    epoch: u64,
    prev: usize,
    next: usize,
}

#[derive(Debug, Default)]
struct LruShard {
    map: HashMap<Key, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::with_capacity(capacity.min(1024)),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn remove(&mut self, i: usize) {
        self.unlink(i);
        self.map.remove(&self.nodes[i].key);
        self.free.push(i);
    }

    /// Evict the least-recently-used entry; returns whether one existed.
    fn evict_tail(&mut self) -> bool {
        let t = self.tail;
        if t == NIL {
            return false;
        }
        self.remove(t);
        true
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The sharded, epoch-stamped LRU. See the module docs for semantics.
#[derive(Debug)]
pub struct QueryCache {
    shards: Vec<Mutex<LruShard>>,
    epoch: AtomicU64,
    capacity: usize,
}

impl QueryCache {
    /// A cache holding up to `capacity` entries spread over `shards`
    /// independently locked LRUs. `capacity == 0` disables caching
    /// entirely (every lookup misses, inserts are dropped) — the epoch
    /// still advances so `current_epoch` stays meaningful for stats.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        QueryCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            epoch: AtomicU64::new(0),
            capacity,
        }
    }

    /// Total entry capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current corpus epoch. `Acquire` pairs with the `Release` in
    /// [`QueryCache::advance_epoch`]: a thread that observes epoch `e`
    /// also observes every corpus write that happened before `e` was
    /// published (the corpus `RwLock` provides the heavyweight ordering;
    /// the fence keeps the bare stat reads coherent too).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advance the epoch, invalidating every cached entry at once.
    /// **Call only while holding the corpus write lock**, immediately
    /// after installing an append, so readers under the read lock never
    /// see a new corpus with an old epoch or vice versa.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    fn shard_for(&self, key: &Key) -> &Mutex<LruShard> {
        // FNV-1a over the key; independent of HashMap's SipHash so one
        // bad distribution cannot align with the other.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(key.op as u8);
        for &e in key.path.iter() {
            for b in e.to_le_bytes() {
                eat(b);
            }
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Look up `(op, path)`. A stale entry (older epoch) is evicted and
    /// reported as [`Lookup::Stale`] so the caller can count it.
    pub fn get(&self, op: CacheOp, path: &[u32]) -> Lookup {
        if self.capacity == 0 {
            return Lookup::Miss;
        }
        let key = Key {
            op,
            path: path.into(),
        };
        let epoch = self.current_epoch();
        let mut shard = self
            .shard_for(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let Some(&i) = shard.map.get(&key) else {
            return Lookup::Miss;
        };
        if shard.nodes[i].epoch != epoch {
            shard.remove(i);
            return Lookup::Stale;
        }
        // Touch: move to MRU position.
        shard.unlink(i);
        shard.push_front(i);
        Lookup::Hit(shard.nodes[i].value.clone(), epoch)
    }

    /// Insert a result computed against epoch `epoch` (read under the
    /// corpus read lock). If an append has advanced the epoch since,
    /// the value describes a corpus that no longer exists and is
    /// silently dropped. Returns whether an LRU eviction occurred.
    pub fn insert(&self, op: CacheOp, path: &[u32], value: CachedValue, epoch: u64) -> bool {
        if self.capacity == 0 || epoch != self.current_epoch() {
            return false;
        }
        let key = Key {
            op,
            path: path.into(),
        };
        let mut shard = self
            .shard_for(&key)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Re-check under the lock: an append may have landed between the
        // argument check and acquiring the shard.
        if epoch != self.current_epoch() {
            return false;
        }
        if let Some(&i) = shard.map.get(&key) {
            shard.nodes[i].value = value;
            shard.nodes[i].epoch = epoch;
            shard.unlink(i);
            shard.push_front(i);
            return false;
        }
        let mut evicted = false;
        if shard.len() >= shard.capacity {
            if !shard.evict_tail() {
                return false; // capacity-0 shard (unreachable given the guard)
            }
            evicted = true;
        }
        let node = Node {
            key: key.clone(),
            value,
            epoch,
            prev: NIL,
            next: NIL,
        };
        let i = match shard.free.pop() {
            Some(i) => {
                shard.nodes[i] = node;
                i
            }
            None => {
                shard.nodes.push(node);
                shard.nodes.len() - 1
            }
        };
        shard.map.insert(key, i);
        shard.push_front(i);
        evicted
    }

    /// Number of live entries across all shards (stats endpoint).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(n: usize) -> CachedValue {
        CachedValue::Count(n)
    }

    fn get_count(c: &QueryCache, path: &[u32]) -> Lookup {
        c.get(CacheOp::Count, path)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = QueryCache::new(16, 2);
        assert!(matches!(get_count(&c, &[1, 2]), Lookup::Miss));
        c.insert(CacheOp::Count, &[1, 2], count(7), c.current_epoch());
        match get_count(&c, &[1, 2]) {
            Lookup::Hit(CachedValue::Count(7), 0) => {}
            other => panic!("{other:?}"),
        }
        // Different op, same path: distinct entry.
        assert!(matches!(c.get(CacheOp::Occurrences, &[1, 2]), Lookup::Miss));
    }

    #[test]
    fn epoch_advance_invalidates_everything() {
        let c = QueryCache::new(16, 4);
        let e = c.current_epoch();
        c.insert(CacheOp::Count, &[1], count(1), e);
        c.insert(CacheOp::Count, &[2], count(2), e);
        assert_eq!(c.advance_epoch(), e + 1);
        assert!(matches!(get_count(&c, &[1]), Lookup::Stale));
        assert!(matches!(get_count(&c, &[1]), Lookup::Miss)); // evicted
        assert!(matches!(get_count(&c, &[2]), Lookup::Stale));
        // Re-inserting under the new epoch works.
        c.insert(CacheOp::Count, &[1], count(3), c.current_epoch());
        assert!(matches!(get_count(&c, &[1]), Lookup::Hit(..)));
    }

    #[test]
    fn insert_with_outdated_epoch_is_dropped() {
        let c = QueryCache::new(16, 1);
        let old = c.current_epoch();
        c.advance_epoch();
        c.insert(CacheOp::Count, &[9], count(9), old);
        assert!(matches!(get_count(&c, &[9]), Lookup::Miss));
    }

    #[test]
    fn lru_evicts_oldest_and_touch_refreshes() {
        let c = QueryCache::new(2, 1); // one shard, two slots
        let e = c.current_epoch();
        c.insert(CacheOp::Count, &[1], count(1), e);
        c.insert(CacheOp::Count, &[2], count(2), e);
        // Touch [1] so [2] becomes LRU.
        assert!(matches!(get_count(&c, &[1]), Lookup::Hit(..)));
        let evicted = c.insert(CacheOp::Count, &[3], count(3), e);
        assert!(evicted);
        assert!(matches!(get_count(&c, &[2]), Lookup::Miss));
        assert!(matches!(get_count(&c, &[1]), Lookup::Hit(..)));
        assert!(matches!(get_count(&c, &[3]), Lookup::Hit(..)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let c = QueryCache::new(0, 4);
        c.insert(CacheOp::Count, &[1], count(1), c.current_epoch());
        assert!(matches!(get_count(&c, &[1]), Lookup::Miss));
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        c.advance_epoch(); // still meaningful for stats
        assert_eq!(c.current_epoch(), 1);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let c = QueryCache::new(2, 1);
        let e = c.current_epoch();
        for round in 0..100u32 {
            c.insert(CacheOp::Count, &[round], count(round as usize), e);
        }
        // Only capacity nodes + at most capacity freed slots ever exist.
        let shard = c.shards[0].lock().unwrap();
        assert!(shard.nodes.len() <= 4, "slab grew to {}", shard.nodes.len());
        assert_eq!(shard.len(), 2);
    }

    #[test]
    fn concurrent_readers_and_epoch_bumps_never_see_stale_hits() {
        // After an appender bumps the epoch, no reader may observe a
        // hit carrying a pre-bump value for the current epoch.
        use std::sync::atomic::{AtomicBool, Ordering as O};
        let c = QueryCache::new(64, 4);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while !stop.load(O::Relaxed) {
                        let e = c.current_epoch();
                        c.insert(CacheOp::Count, &[1], count(e as usize), e);
                        if let Lookup::Hit(CachedValue::Count(n), at) = c.get(CacheOp::Count, &[1])
                        {
                            // The value is the epoch it was computed at; a
                            // hit must name exactly that epoch, never the
                            // one a racing bump moved to.
                            assert_eq!(n as u64, at);
                        }
                    }
                });
            }
            for _ in 0..500 {
                c.advance_epoch();
                std::hint::spin_loop();
            }
            stop.store(true, O::Relaxed);
        });
    }
}
