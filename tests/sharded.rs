//! Property-based integration tests for the sharded corpus layer: a
//! K-sharded corpus must be **outcome-identical** to a monolithic index
//! over the same corpus — counts, occurrence listings under the global
//! trajectory-ID namespace, and extraction (trajectory recovery) — for
//! K ∈ {1, 2, 5}, both partition strategies, and across the full
//! lifecycle: fresh build, after `append_batch` ingest, and after
//! `compact` re-balancing.

use cinct::engine::{Query, QueryEngine};
use cinct::{
    CinctBuilder, CinctIndex, Path, PathQuery, ShardPartition, ShardPruning, ShardedBuilder,
    ShardedCinct,
};
use proptest::prelude::*;

/// Random corpora over a sparse transition structure (same family as
/// `tests/properties.rs`, slightly larger so K = 5 shards stay populated).
fn corpus_strategy() -> impl Strategy<Value = (Vec<Vec<u32>>, usize)> {
    let n_edges = 12usize;
    (proptest::collection::vec(
        (0u32..n_edges as u32, 1usize..20, any::<u64>()),
        6..18,
    ),)
        .prop_map(move |(specs,)| {
            let trajs: Vec<Vec<u32>> = specs
                .into_iter()
                .map(|(start, len, seed)| {
                    let mut t = vec![start];
                    let mut x = seed | 1;
                    for _ in 1..len {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let prev = *t.last().unwrap();
                        let succ = [
                            (prev * 7 + 1) % n_edges as u32,
                            (prev * 7 + 3) % n_edges as u32,
                            (prev * 7 + 5) % n_edges as u32,
                        ];
                        t.push(succ[((x >> 33) % 3) as usize]);
                    }
                    t
                })
                .collect();
            (trajs, n_edges)
        })
}

/// Probe paths: data-derived prefixes/suffixes (present), plus synthetic
/// paths that are well-formed but usually absent.
fn probe_paths(trajs: &[Vec<u32>], n_edges: usize) -> Vec<Vec<u32>> {
    let mut probes: Vec<Vec<u32>> = Vec::new();
    for t in trajs.iter().take(6) {
        for plen in [1usize, 2, 4] {
            if t.len() >= plen {
                probes.push(t[..plen].to_vec());
                probes.push(t[t.len() - plen..].to_vec());
            }
        }
    }
    probes.push(vec![0]);
    probes.push((0..4.min(n_edges) as u32).collect());
    probes
}

/// The identity battery: every query class answered by the sharded index
/// must match the monolithic index over the same corpus.
fn assert_identical(
    mono: &CinctIndex,
    sharded: &cinct::ShardedCinct,
    trajs: &[Vec<u32>],
    n_edges: usize,
    tag: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        sharded.num_trajectories(),
        mono.num_trajectories(),
        "{}: corpus size",
        tag
    );
    // Note: text_len is *not* compared — every shard's trajectory string
    // carries its own terminal sentinel, so a K-shard corpus indexes K-1
    // more symbols than the monolithic string. Query outcomes are what
    // must match.
    for p in probe_paths(trajs, n_edges) {
        let path = Path::new(&p);
        // Count identity.
        prop_assert_eq!(
            sharded.count(path),
            mono.count(path),
            "{}: count {:?}",
            tag,
            &p
        );
        // Locate identity: same (global trajectory, offset) multiset —
        // collect_sorted makes the order canonical.
        prop_assert_eq!(
            sharded.occurrences(path).unwrap().collect_sorted(),
            mono.occurrences(path).unwrap().collect_sorted(),
            "{}: occurrences {:?}",
            tag,
            &p
        );
        // The virtual range preserves multiplicity (None iff absent).
        match mono.range(path) {
            None => prop_assert_eq!(sharded.range(path), None),
            Some(r) => prop_assert_eq!(sharded.range(path), Some(0..r.len())),
        }
    }
    // Extraction identity: every trajectory decompresses to the same
    // edges under the same global ID.
    for g in 0..mono.num_trajectories() {
        prop_assert_eq!(
            sharded.trajectory(g),
            mono.trajectory(g),
            "{}: trajectory {}",
            tag,
            g
        );
    }
    // The batch engine cannot tell the backends apart (per-query errors
    // included: edge 12 is outside the indexed network).
    let mut batch: Vec<Query> = probe_paths(trajs, n_edges)
        .iter()
        .flat_map(|p| [Query::count(p), Query::occurrences(p)])
        .collect();
    batch.push(Query::count(&[n_edges as u32]));
    let a = QueryEngine::new(mono).run(&batch);
    let b = QueryEngine::new(sharded).run(&batch);
    for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        prop_assert_eq!(&x.value, &y.value, "{}: engine outcome {}", tag, i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// K-sharded == monolithic for K ∈ {1, 2, 5}, both partitions, over
    /// the full lifecycle (fresh → appended → compacted).
    #[test]
    fn sharded_lifecycle_is_outcome_identical(
        (trajs, n_edges) in corpus_strategy(),
        partition_sel in any::<bool>(),
    ) {
        let partition = if partition_sel {
            ShardPartition::RoundRobin
        } else {
            ShardPartition::SizeBalanced
        };
        let index_builder = CinctBuilder::new().locate_sampling(2);
        // The appended tail is part of the *final* corpus; the monolithic
        // reference indexes all of it up front (global IDs are corpus
        // positions in both worlds).
        let base_len = trajs.len() - trajs.len() / 3;
        let mono = index_builder.build(&trajs, n_edges);
        for k in [1usize, 2, 5] {
            let mut sharded = ShardedBuilder::new()
                .shards(k)
                .partition(partition)
                .index_builder(index_builder)
                .threads(1)
                .try_build(&trajs[..base_len], n_edges)
                .expect("valid corpus");
            // Ingest the tail in two batches -> two fresh shards.
            let tail = &trajs[base_len..];
            if !tail.is_empty() {
                let split = tail.len().div_ceil(2);
                for batch in tail.chunks(split) {
                    let ids = sharded.append_batch(batch).expect("valid batch");
                    prop_assert_eq!(ids.len(), batch.len());
                }
            }
            assert_identical(&mono, &sharded, &trajs, n_edges, &format!("K={k} appended"))?;
            // Re-balance and re-check: compaction must preserve the
            // namespace and every answer.
            sharded.compact(k).expect("compact");
            prop_assert!(sharded.num_shards() <= k);
            assert_identical(&mono, &sharded, &trajs, n_edges, &format!("K={k} compacted"))?;
        }
    }

    /// Shard pruning never changes answers: across K ∈ {1, 2, 8}, both
    /// partition strategies, and the append/reopen/compact lifecycle, the
    /// pruned fan-out (default) matches a pruning-disabled clone AND
    /// the monolithic index on every probe — a pruned shard's backward
    /// search would have returned `None`, so skipping it is invisible.
    #[test]
    fn pruned_fan_out_is_outcome_identical(
        (trajs, n_edges) in corpus_strategy(),
        partition_sel in any::<bool>(),
    ) {
        let partition = if partition_sel {
            ShardPartition::RoundRobin
        } else {
            ShardPartition::SizeBalanced
        };
        let index_builder = CinctBuilder::new().locate_sampling(2);
        let mono = index_builder.build(&trajs, n_edges);
        let base_len = trajs.len() - trajs.len() / 3;
        for k in [1usize, 2, 8] {
            let mut sharded = ShardedBuilder::new()
                .shards(k)
                .partition(partition)
                .index_builder(index_builder)
                .threads(1)
                .build(&trajs[..base_len], n_edges);
            prop_assert!(sharded.pruning_enabled());
            let tail = &trajs[base_len..];
            if !tail.is_empty() {
                let split = tail.len().div_ceil(2);
                for batch in tail.chunks(split) {
                    sharded.append_batch(batch).expect("valid batch");
                }
            }
            for stage in ["appended", "reopened", "compacted"] {
                if stage == "reopened" {
                    // The open trusts the manifest's membership words as
                    // they are: they must be what the shard derives.
                    let dir = std::env::temp_dir().join(format!(
                        "cinct-prune-reopen-{}-{k}",
                        std::process::id()
                    ));
                    sharded.save_dir(&dir).expect("save");
                    sharded = ShardedCinct::open_dir(&dir).expect("open");
                    std::fs::remove_dir_all(&dir).ok();
                    for s in 0..sharded.num_shards() {
                        prop_assert_eq!(
                            sharded.shard_pruning(s),
                            &ShardPruning::derive(sharded.shard_index(s), n_edges),
                            "K={} reopened: shard {} membership", k, s
                        );
                    }
                }
                if stage == "compacted" {
                    sharded.compact(k).expect("compact");
                }
                let mut unpruned = sharded.clone();
                unpruned.set_pruning(false);
                for p in probe_paths(&trajs, n_edges) {
                    let path = Path::new(&p);
                    let want = mono.count(path);
                    prop_assert_eq!(
                        sharded.count(path), want, "K={} {}: pruned count {:?}", k, stage, &p
                    );
                    prop_assert_eq!(
                        unpruned.count(path), want, "K={} {}: unpruned count {:?}", k, stage, &p
                    );
                    prop_assert_eq!(
                        sharded.shard_ranges(path),
                        unpruned.shard_ranges(path),
                        "K={} {}: shard ranges {:?}", k, stage, &p
                    );
                    prop_assert_eq!(
                        sharded.occurrences(path).unwrap().collect_sorted(),
                        unpruned.occurrences(path).unwrap().collect_sorted(),
                        "K={} {}: occurrences {:?}", k, stage, &p
                    );
                }
            }
        }
    }

    /// Batch parallelism over a sharded backend never changes answers:
    /// a mixed batch (count / range / occurrences / extract, unknown-edge
    /// errors included) fanned across threads by `QueryEngine::parallel`
    /// over a 3-shard corpus is order- and value-identical to the
    /// sequential engine. A query's own shard sweep has one path, so this
    /// is the only parallelism a sharded query can meet.
    #[test]
    fn parallel_fan_out_is_value_identical((trajs, n_edges) in corpus_strategy()) {
        let sharded = ShardedBuilder::new()
            .shards(3)
            .locate_sampling(2)
            .threads(1)
            .build(&trajs, n_edges);
        let rows = sharded.text_len();
        let mut batch: Vec<Query> = Vec::new();
        for (i, p) in probe_paths(&trajs, n_edges).iter().enumerate() {
            batch.push(Query::count(p));
            batch.push(Query::range(p));
            batch.push(Query::occurrences(p));
            batch.push(Query::extract((i * 7) % rows, 1 + i % 5));
            // Edge `n_edges` is outside the indexed network.
            let mut unknown = p.clone();
            unknown.push(n_edges as u32);
            batch.push(if i % 2 == 0 {
                Query::count(&unknown)
            } else {
                Query::occurrences(&unknown)
            });
        }
        let seq = QueryEngine::new(&sharded).run(&batch);
        prop_assert!(seq.errors() > 0 && seq.hits() > 0);
        for threads in [2usize, 3, 0] {
            let par = QueryEngine::new(&sharded).parallel(threads).run(&batch);
            prop_assert_eq!(par.outcomes.len(), seq.outcomes.len());
            for (i, (x, y)) in par.outcomes.iter().zip(&seq.outcomes).enumerate() {
                prop_assert_eq!(&x.value, &y.value, "query {} at {} threads", i, threads);
            }
        }
    }

    /// Persistence lifecycle under random corpora: save → open roundtrips
    /// every answer (the targeted corruption cases live in
    /// `cinct::store`'s unit tests).
    #[test]
    fn save_open_roundtrips_randomized((trajs, n_edges) in corpus_strategy(), stamp in any::<u64>()) {
        let sharded = ShardedBuilder::new()
            .shards(3)
            .locate_sampling(4)
            .build(&trajs, n_edges);
        let dir = std::env::temp_dir().join(format!(
            "cinct-prop-{}-{stamp:x}",
            std::process::id()
        ));
        sharded.save_dir(&dir).expect("save");
        let back = cinct::ShardedCinct::open_dir(&dir).expect("open");
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(back.num_shards(), sharded.num_shards());
        for g in 0..sharded.num_trajectories() {
            prop_assert_eq!(back.trajectory(g), sharded.trajectory(g));
        }
        for p in probe_paths(&trajs, n_edges) {
            prop_assert_eq!(back.count(Path::new(&p)), sharded.count(Path::new(&p)));
            prop_assert_eq!(
                back.occurrences(Path::new(&p)).unwrap().collect_sorted(),
                sharded.occurrences(Path::new(&p)).unwrap().collect_sorted()
            );
        }
    }
}

/// Raw groups in every shard's labeled tree.
fn raw_groups(corpus: &cinct::ShardedCinct) -> Vec<usize> {
    (0..corpus.num_shards())
        .map(|s| {
            let labeled = corpus.shard_index(s).labeled_bwt();
            labeled.backend().raw_groups().count_ones()
        })
        .collect()
}

#[test]
fn a_saved_corpus_is_hybrid_and_compacts_to_hybrid() {
    // Singapore's labeled trees are near-uniform, so most RRR groups go
    // raw. The paper's pure-RRR setting does not survive into a sharded
    // corpus: what is built, saved, reopened and compacted is hybrid, and
    // answers as the pure monolithic index does.
    let ds = cinct_datasets::singapore(0.05);
    let (trajs, n_edges) = (&ds.trajectories, ds.n_edges());
    let pure = CinctBuilder::new()
        .pure_rrr()
        .locate_sampling(8)
        .build(trajs, n_edges);
    assert_eq!(pure.labeled_bwt().backend().raw_groups().count_ones(), 0);
    let mut corpus = ShardedBuilder::new()
        .shards(2)
        .index_builder(CinctBuilder::new().pure_rrr().locate_sampling(8))
        .build(trajs, n_edges);
    let dir = std::env::temp_dir().join(format!("cinct-hybrid-{}", std::process::id()));
    corpus.save_dir(&dir).expect("save");
    let opened = cinct::ShardedCinct::open_dir(&dir).expect("open");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(raw_groups(&opened), raw_groups(&corpus));
    corpus.compact(1).expect("compact");
    for sharded in [&opened, &corpus] {
        assert!(
            raw_groups(sharded).iter().all(|&raw| raw > 0),
            "{:?}",
            raw_groups(sharded)
        );
        for (g, t) in trajs.iter().enumerate().step_by(37) {
            assert_eq!(&sharded.trajectory(g), t, "trajectory {g}");
            let path = Path::new(&t[..3.min(t.len())]);
            assert_eq!(sharded.count(path), pure.count(path));
            assert_eq!(
                sharded.occurrences(path).unwrap().collect_sorted(),
                pure.occurrences(path).unwrap().collect_sorted()
            );
        }
    }
}
