//! A warm count on a sharded corpus allocates nothing. The counting
//! allocator below counts per thread, so the harness's own threads and
//! any test running beside this one cannot move the figure.

use cinct::{Path, PathQuery, ShardedBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread asks of it.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a const-initialized thread-local, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f()` and the bytes this thread allocated while it ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// 64 walks over edges 0..40, and walk 0 alone through edge 50, of a
/// 64-edge network: edge 63 occurs nowhere.
fn corpus() -> Vec<Vec<u32>> {
    (0..64u32)
        .map(|g| {
            let mut walk: Vec<u32> = (0..10).map(|j| (g * 7 + j * 3) % 40).collect();
            if g == 0 {
                walk.push(50);
            }
            walk
        })
        .collect()
}

/// Occurrences of `path` in `trajs`, window by window.
fn naive_count(trajs: &[Vec<u32>], path: &[u32]) -> usize {
    trajs
        .iter()
        .map(|t| t.windows(path.len()).filter(|w| *w == path).count())
        .sum()
}

#[test]
fn warm_sharded_counts_allocate_nothing() {
    let trajs = corpus();
    let matching = &trajs[5][2..5];
    let in_one_shard = [trajs[0][9], 50];
    let union_rejected = [trajs[5][2], 63];
    for k in [1, 4, 8] {
        let mut sharded = ShardedBuilder::new().shards(k).build(&trajs, 64);
        let pruned = |path: &[u32]| {
            (0..k)
                .filter(|&s| sharded.pruned_edge(s, Path::new(path)).is_some())
                .count()
        };
        // The shapes the fan-out takes with pruning on: a match in many
        // walks, a match only one shard can hold, and a union reject.
        assert_eq!(pruned(&in_one_shard), k - 1, "k={k}");
        assert_eq!(pruned(&union_rejected), k, "k={k}");
        assert!(naive_count(&trajs, matching) > 1);
        for pruning in [true, false] {
            sharded.set_pruning(pruning);
            for path in [matching, &in_one_shard, &union_rejected] {
                let want = naive_count(&trajs, path);
                let path = Path::new(path);
                assert_eq!(sharded.count(path), want, "warm-up, k={k}");
                let (count, bytes) = allocated_by(|| sharded.count(path));
                assert_eq!(count, want);
                assert_eq!(bytes, 0, "k={k} pruning={pruning} path={path:?}");
            }
        }
    }
}
