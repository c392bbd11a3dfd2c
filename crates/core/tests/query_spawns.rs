//! No thread is created on a query path. On the offline rayon shim
//! every spawned task is an OS thread, and `rayon::spawned_tasks()`
//! counts them process-wide — so this file holds exactly one test:
//! nothing else in the process may spawn while it reads the counter.

use cinct::engine::{Query, QueryEngine};
use cinct::{Path, PathQuery, ShardedBuilder, ShardedCinct};

/// 48 walks round an 8-edge cycle, one per starting offset: every
/// pattern `[e, e + 1]` occurs in all four shards, so each query's sweep
/// visits all of them (the case the old per-query fork was taken for).
fn corpus() -> Vec<Vec<u32>> {
    (0..48u32)
        .map(|g| (0..12).map(|j| (g + j) % 8).collect())
        .collect()
}

#[test]
fn queries_spawn_no_tasks_and_a_parallel_batch_one_per_thread() {
    let trajs = corpus();
    // Default configuration throughout: `threads(0)`, as a library user
    // gets it.
    let built = ShardedBuilder::new()
        .shards(4)
        .locate_sampling(4)
        .build(&trajs, 8);
    let dir = std::env::temp_dir().join(format!("cinct-query-spawns-{}", std::process::id()));
    built.save_dir(&dir).unwrap();
    let reopened = ShardedCinct::open_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    for corpus in [&built, &reopened] {
        assert_eq!(corpus.num_shards(), 4);
        let engine = QueryEngine::new(corpus);
        let before = rayon::spawned_tasks();
        for i in 0..1_000usize {
            let t = &trajs[i % trajs.len()];
            let pattern = &t[i % 8..i % 8 + 2];
            let path = Path::new(pattern);
            assert_eq!(corpus.shard_ranges(path).iter().flatten().count(), 4);
            let listed = corpus.occurrences(path).unwrap().collect_sorted();
            assert_eq!(listed.len(), corpus.count(path));
            assert_eq!(&corpus.try_trajectory(i % trajs.len()).unwrap(), t);
            assert!(engine.run_one(&Query::count(pattern)).value.is_ok());
            assert!(engine.run_one(&Query::occurrences(pattern)).value.is_ok());
        }
        assert_eq!(
            rayon::spawned_tasks(),
            before,
            "a query created a thread: spawned-task counter moved"
        );

        // Across queries is where the threads go: one task per chunk.
        let batch: Vec<Query> = (0..2_500usize)
            .map(|i| Query::count(&trajs[i % trajs.len()][i % 10..i % 10 + 2]))
            .collect();
        let parallel = QueryEngine::new(corpus).parallel(0);
        let report = parallel.run(&batch);
        assert_eq!(report.errors(), 0);
        let spawned = rayon::spawned_tasks() - before;
        assert!(
            spawned <= parallel.effective_threads() as u64,
            "a 2 500-query batch spawned {spawned} tasks on {} threads",
            parallel.effective_threads()
        );
    }
}
