//! Each layer on its own, timed from outside through its public
//! functions on the workload's own corpus and patterns. Layer = module
//! name. A workload measures the layers it enters; the others report 0.

use crate::corpus::symbols;
use crate::metrics::Report;
use crate::rng::Rng;
use crate::setup::{Env, Spec, LOCATE_SAMPLING};
use crate::workloads::{Inputs, Op, Traffic, APPEND_BATCH};
use cinct::engine::{Query, QueryEngine};
use cinct::{CinctBuilder, CinctIndex, Durability, Path, PathQuery, ShardedCinct, Wal};
use cinct_serve::cache::{CacheOp, CachedValue, QueryCache};
use cinct_serve::http::{self, Limits, Response};
use cinct_serve::json::{self, obj_move, Json};
use cinct_succinct::{BitRank, SymbolSeq};
use std::hint::black_box;
use std::path::Path as FsPath;
use std::time::Instant;

/// Calls per timed loop of a nanosecond-scale operation.
const CALLS: usize = 200_000;
/// Queries per timed loop of a microsecond-scale operation.
const QUERIES: usize = 2000;

/// Passes of a timed loop; the fastest counts (see [`crate::stats`] on
/// why the fast side). The first also brings the inputs and the
/// structure's hot parts into cache, as a running system has them.
const PASSES: usize = 3;

/// Nanoseconds per call of `f(i)` over `n` calls.
fn per_call_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let pass = |f: &mut dyn FnMut(usize)| {
        let t0 = Instant::now();
        (0..n).for_each(f);
        t0.elapsed().as_secs_f64() * 1e9 / n as f64
    };
    (0..PASSES)
        .map(|_| pass(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Mean nanoseconds per call of `a(i)` and of `b(i)`, taken in one loop
/// with the order alternating: the two see the same cache and the same
/// moment of the host, so their difference is about them.
fn paired_ns(n: usize, mut a: impl FnMut(usize), mut b: impl FnMut(usize)) -> (f64, f64) {
    let (mut a_ns, mut b_ns) = (0u128, 0u128);
    for pass in 0..2 {
        (a_ns, b_ns) = (0, 0);
        for i in 0..n {
            let t0 = Instant::now();
            if (i + pass) % 2 == 0 {
                a(i);
                let t1 = Instant::now();
                b(i);
                a_ns += (t1 - t0).as_nanos();
                b_ns += t1.elapsed().as_nanos();
            } else {
                b(i);
                let t1 = Instant::now();
                a(i);
                b_ns += (t1 - t0).as_nanos();
                a_ns += t1.elapsed().as_nanos();
            }
        }
    }
    (a_ns as f64 / n as f64, b_ns as f64 / n as f64)
}

fn ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

fn dir_bytes(dir: &FsPath) -> u64 {
    std::fs::read_dir(dir)
        .expect("list corpus directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

pub fn measure(spec: &Spec, env: &Env, inputs: &Inputs, seed: u64, report: &mut Report) {
    let mut rng = Rng::stream(seed, 40);
    let base = &env.corpus.trajectories[..env.base];
    let n_edges = env.corpus.n_edges;
    let patterns: Vec<&[u32]> = (0..QUERIES)
        .map(|_| &inputs.counts.patterns[rng.below(inputs.counts.len())][..])
        .collect();

    // builder + index: the paper's structure, one index over the corpus.
    let (index, timings) = CinctBuilder::new()
        .locate_sampling(LOCATE_SAMPLING)
        .build_timed(base, n_edges);
    report.set("builder.stage_ingest_s", timings.ingest.as_secs_f64());
    report.set("builder.stage_sa_s", timings.sa.as_secs_f64());
    report.set("builder.stage_bwt_s", timings.bwt.as_secs_f64());
    report.set(
        "builder.stage_et_graph_s",
        timings.et_graph_build.as_secs_f64(),
    );
    report.set("builder.stage_wt_s", timings.wt_build.as_secs_f64());
    report.set("builder.stage_directory_s", timings.directory.as_secs_f64());
    report.set("builder.build_s", timings.total().as_secs_f64());
    index_layer(&index, base, &mut rng, report);
    succinct_layer(&index, &mut rng, report);

    // bwt: SA-IS over one shard's share of the corpus, as a sharded
    // build runs it.
    let share = &base[..base.len() / spec.shards];
    let text = cinct_bwt::TrajectoryString::build(share, n_edges);
    let sais_ms = ms(|| {
        black_box(cinct_bwt::suffix_array(text.text(), text.sigma()));
    });
    report.set("bwt.sais_msym_per_s", text.len() as f64 / 1e3 / sais_ms);

    // engine: what run_one adds to a bare count, and what a second
    // thread buys a batch, both on the single index (no fan-out inside).
    let queries: Vec<Query> = patterns.iter().map(|p| Query::count(p)).collect();
    let engine = QueryEngine::new(&index);
    let (bare, through) = paired_ns(
        QUERIES,
        |i| {
            black_box(index.count(Path::new(patterns[i])));
        },
        |i| {
            black_box(engine.run_one(&queries[i]).value.is_ok());
        },
    );
    report.set("engine.run_one_overhead_ns", through - bare);
    let sequential = ms(|| {
        black_box(engine.run(&queries).outcomes.len());
    });
    let parallel = ms(|| {
        black_box(
            QueryEngine::new(&index)
                .parallel(0)
                .run(&queries)
                .outcomes
                .len(),
        );
    });
    report.set("engine.parallel_speedup", sequential / parallel);
    drop(index);

    // shard + prune + store: on a private reopen of the saved corpus, so
    // the fan-out setting can be changed without touching the live one.
    let mut copy = ShardedCinct::open_dir(&env.dir).expect("reopen the saved corpus");
    let default_ns = per_call_ns(QUERIES, |i| {
        black_box(copy.count(Path::new(patterns[i])));
    });
    copy.set_fan_out_threads(1);
    // Sequential fan-out against the same searches run shard by shard.
    // A served corpus is already pinned to one fan-out thread, and on
    // ingest_mixed only the live one holds the appended shards.
    let sequential = |corpus: &ShardedCinct| {
        paired_ns(
            QUERIES,
            |i| {
                black_box(corpus.count(Path::new(patterns[i])));
            },
            |i| {
                for s in 0..corpus.num_shards() {
                    if corpus.pruned_edge(s, Path::new(patterns[i])).is_none() {
                        black_box(corpus.shard_index(s).count_path(patterns[i]));
                    }
                }
            },
        )
    };
    let (fan1_ns, per_shard_ns) = if spec.served {
        env.with_corpus(sequential)
    } else {
        sequential(&copy)
    };
    report.set("shard.count_default_us", default_ns / 1e3);
    report.set("shard.count_fan1_us", fan1_ns / 1e3);
    report.set("shard.fanout_overhead_ns", fan1_ns - per_shard_ns);
    report.set(
        "shard.num_shards_end",
        env.with_corpus(|c| c.num_shards()) as f64,
    );
    let shards = copy.num_shards();
    report.set(
        "prune.rules_out_ns",
        per_call_ns(QUERIES, |i| {
            for s in 0..shards {
                black_box(copy.shard_pruning(s).rules_out(Path::new(patterns[i])));
            }
        }) / shards as f64,
    );
    store_layer(&copy, env, report);

    if inputs.appends() > 0 {
        let batch = &env.corpus.trajectories[env.base..env.base + APPEND_BATCH];
        let mut prepared = None;
        report.set(
            "shard.prepare_ms",
            ms(|| prepared = Some(copy.prepare_batch(batch).expect("prepare a valid batch"))),
        );
        let prepared = prepared.expect("closure ran");
        report.set(
            "shard.install_us",
            ms(|| {
                copy.install_prepared(prepared);
            }) * 1e3,
        );
        wal_layer(env, report);
    }
    drop(copy);

    if spec.served {
        serve_layers(spec, env, inputs, &patterns, &mut rng, report);
    }
}

fn index_layer(index: &CinctIndex, base: &[Vec<u32>], rng: &mut Rng, report: &mut Report) {
    // Pattern lengths are capped by the longest trajectory (chess games
    // are cut at ten plies).
    let longest = base
        .iter()
        .map(Vec::len)
        .max()
        .expect("corpus is not empty");
    for (name, len) in [
        ("index.count_p2_ns", 2),
        ("index.count_p5_ns", 5),
        ("index.count_p10_ns", 10),
        ("index.count_p20_ns", 20),
    ] {
        let len = len.min(longest);
        let patterns = crate::corpus::sample_windows(base, rng, QUERIES, len..=len);
        report.set(
            name,
            per_call_ns(QUERIES, |i| {
                black_box(index.count_path(&patterns[i]));
            }),
        );
    }
    let n = index.text_len();
    let rows: Vec<usize> = (0..CALLS).map(|_| rng.below(n)).collect();
    report.set(
        "index.lf_step_ns",
        per_call_ns(CALLS, |i| {
            black_box(index.lf_step(rows[i]));
        }),
    );
    report.set(
        "index.locate_ns",
        per_call_ns(CALLS / 10, |i| {
            black_box(index.locate(rows[i]));
        }),
    );
    // PseudoRank at the rows and contexts real LF steps visit: the step
    // from row j reads symbol w in context w' = symbol_at(j).
    let calls: Vec<(usize, u32, u32)> = rows
        .iter()
        .map(|&j| (j, index.lf_step(j).0, index.c_array().symbol_at(j)))
        .collect();
    report.set(
        "index.pseudo_rank_ns",
        per_call_ns(CALLS, |i| {
            let (j, w, context) = calls[i];
            black_box(index.pseudo_rank(j, w, context));
        }),
    );
    let ids: Vec<usize> = (0..QUERIES).map(|_| rng.below(base.len())).collect();
    let extracted: usize = ids.iter().map(|&id| base[id].len()).sum();
    let total_ns = per_call_ns(QUERIES, |i| {
        black_box(index.trajectory(ids[i]));
    }) * QUERIES as f64;
    report.set("index.extract_ns_per_symbol", total_ns / extracted as f64);
    report.set(
        "index.bits_per_symbol",
        index.core_size_in_bytes() as f64 * 8.0 / n as f64,
    );
    report.set(
        "index.et_graph_bytes",
        (index.core_size_in_bytes() - index.size_without_et_graph()) as f64,
    );
    report.set(
        "index.directory_bytes",
        index.directory_size_in_bytes() as f64,
    );
}

fn succinct_layer(index: &CinctIndex, rng: &mut Rng, report: &mut Report) {
    let wt = index.labeled_bwt();
    let rrr = wt.backend();
    let bits: Vec<usize> = (0..CALLS).map(|_| rng.below(rrr.len())).collect();
    report.set(
        "succinct.rrr_rank1_ns",
        per_call_ns(CALLS, |i| {
            black_box(rrr.rank1(bits[i]));
        }),
    );
    report.set(
        "succinct.rrr_rank1_pair_ns",
        per_call_ns(CALLS - 1, |i| {
            let (a, b) = (bits[i].min(bits[i + 1]), bits[i].max(bits[i + 1]));
            black_box(rrr.rank1_pair(a, b));
        }),
    );
    let rows: Vec<usize> = (0..CALLS).map(|_| rng.below(wt.len())).collect();
    report.set(
        "succinct.wt_access_ns",
        per_call_ns(CALLS, |i| {
            black_box(wt.access(rows[i]));
        }),
    );
    let labels: Vec<u32> = rows.iter().map(|&j| wt.access(j)).collect();
    report.set(
        "succinct.wt_rank_ns",
        per_call_ns(CALLS, |i| {
            black_box(wt.rank(labels[i], rows[i]));
        }),
    );
}

fn store_layer(copy: &ShardedCinct, env: &Env, report: &mut Report) {
    let scratch = env.dir.with_file_name("layers");
    let dir = |name: &str| scratch.join(name);
    report.set(
        "store.save_fast_ms",
        ms(|| {
            copy.save_dir_with(dir("fast"), Durability::Fast)
                .expect("save (fast)")
        }),
    );
    report.set(
        "store.save_durable_ms",
        ms(|| {
            copy.save_dir_with(dir("durable"), Durability::Durable)
                .expect("save (durable)")
        }),
    );
    let opens: Vec<f64> = (0..3)
        .map(|_| ms(|| drop(ShardedCinct::open_dir(dir("fast")).expect("open"))))
        .collect();
    report.set("store.open_ms", crate::stats::median(opens));
    report.set(
        "store.disk_bytes_per_symbol",
        dir_bytes(&dir("fast")) as f64 / copy.text_len() as f64,
    );
    let mut stream = Vec::new();
    report.set(
        "store.snapshot_ser_ms",
        ms(|| stream = copy.snapshot_to_vec(0).expect("snapshot")),
    );
    report.set(
        "store.snapshot_install_ms",
        ms(|| {
            drop(
                ShardedCinct::install_snapshot(dir("snapshot"), &stream, Durability::Fast)
                    .expect("install snapshot"),
            );
        }),
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The write-ahead log on its own: the workload's first append batches
/// journaled with and without fsync, then replayed.
fn wal_layer(env: &Env, report: &mut Report) {
    const RECORDS: usize = 20;
    let scratch = env.dir.with_file_name("wal");
    let tail = &env.corpus.trajectories[env.base..];
    let batches: Vec<&[Vec<u32>]> = tail.chunks(APPEND_BATCH).take(RECORDS).collect();
    let journal = |name: &str, durability: Durability| -> f64 {
        let (mut wal, _) = Wal::open(scratch.join(name), durability).expect("open WAL");
        let us: Vec<f64> = batches
            .iter()
            .enumerate()
            .map(|(i, b)| {
                ms(|| {
                    wal.append(&format!("k{i}"), b).expect("journal");
                }) * 1e3
            })
            .collect();
        crate::stats::median(us)
    };
    report.set("wal.append_fsync_us", journal("fsync", Durability::Durable));
    report.set("wal.append_nosync_us", journal("nosync", Durability::Fast));
    let mut replayed = 0;
    report.set(
        "wal.replay_ms",
        ms(|| {
            replayed = Wal::open(scratch.join("fsync"), Durability::Durable)
                .expect("reopen WAL")
                .1
                .len();
        }),
    );
    assert_eq!(
        replayed,
        batches.len(),
        "the WAL must replay every journaled batch"
    );
    let journaled: usize = batches.iter().map(|b| symbols(b)).sum();
    report.set(
        "wal.bytes_per_symbol",
        dir_bytes(&scratch.join("fsync")) as f64 / journaled as f64,
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

/// json, http, cache and service, on the workload's own requests.
fn serve_layers(
    spec: &Spec,
    env: &Env,
    inputs: &Inputs,
    patterns: &[&[u32]],
    rng: &mut Rng,
    report: &mut Report,
) {
    let traffic = Traffic::new(spec, env, inputs);
    let ops: Vec<Op> = (0..200)
        .map(|_| traffic.draw(rng))
        .filter(|op| !matches!(op, Op::Extract(_)))
        .collect();
    let bodies: Vec<String> = ops
        .iter()
        .map(|op| {
            let mut body = String::new();
            traffic.render(op, false, &mut body);
            body
        })
        .collect();
    let paths: usize = ops.iter().map(|op| op.paths() as usize).sum();
    let rounds = (QUERIES * 10 / paths).max(1);
    let per_path = |f: &mut dyn FnMut(usize)| {
        let t0 = Instant::now();
        for _ in 0..rounds {
            for i in 0..ops.len() {
                f(i);
            }
        }
        t0.elapsed().as_secs_f64() * 1e9 / (rounds * paths) as f64
    };
    report.set(
        "json.parse_fast_ns_per_path",
        per_path(&mut |i| {
            black_box(json::parse_fast_query(&bodies[i]).is_some());
        }),
    );
    report.set(
        "json.parse_generic_ns_per_path",
        per_path(&mut |i| {
            black_box(Json::parse(&bodies[i]).is_ok());
        }),
    );
    // The answer to a count of k paths, built and rendered as the
    // server's handler does.
    report.set(
        "json.render_ns_per_path",
        per_path(&mut |i| {
            let k = ops[i].paths() as usize;
            let body = if k == 1 {
                obj_move(vec![
                    ("count", 7usize.into()),
                    ("cached", false.into()),
                    ("epoch", 0usize.into()),
                    ("elapsed_ns", 12345usize.into()),
                ])
            } else {
                obj_move(vec![
                    ("counts", vec![7usize; k].into()),
                    ("cache_hits", 0usize.into()),
                    ("epoch", 0usize.into()),
                    ("elapsed_ns", 12345usize.into()),
                ])
            };
            black_box(body.render().len());
        }),
    );

    let raw: Vec<String> = ops
        .iter()
        .zip(&bodies)
        .map(|(op, b)| format!("POST {} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}", op.target(), b.len()))
        .collect();
    let limits = Limits::default();
    let per_request = |f: &mut dyn FnMut(usize)| per_path(f) * paths as f64 / ops.len() as f64;
    report.set(
        "http.read_request_ns",
        per_request(&mut |i| {
            black_box(http::read_request(&mut raw[i].as_bytes(), &limits).is_ok());
        }),
    );
    let responses: Vec<Response> = ops
        .iter()
        .map(|op| {
            Response::json(
                200,
                &obj_move(vec![("counts", vec![7usize; op.paths() as usize].into())]),
            )
        })
        .collect();
    let mut wire = Vec::with_capacity(4096);
    report.set(
        "http.write_response_ns",
        per_request(&mut |i| {
            wire.clear();
            black_box(responses[i].write_to(&mut wire).is_ok());
        }),
    );

    // cache: a private cache of the server's default shape.
    let cache = QueryCache::new(4096, 8);
    let epoch = cache.current_epoch();
    let (held, absent) = patterns.split_at(patterns.len() / 2);
    report.set(
        "cache.insert_ns",
        per_call_ns(held.len(), |i| {
            black_box(cache.insert(CacheOp::Count, held[i], CachedValue::Count(i), epoch));
        }),
    );
    report.set(
        "cache.get_hit_ns",
        per_call_ns(CALLS, |i| {
            black_box(cache.get(CacheOp::Count, held[i % held.len()]));
        }),
    );
    report.set(
        "cache.get_miss_ns",
        per_call_ns(CALLS, |i| {
            black_box(cache.get(CacheOp::Count, absent[i % absent.len()]));
        }),
    );

    // service: the live service with the cache bypassed, against the
    // same counts straight on its corpus.
    let service = env.served().handle().service();
    let (single, direct) = service.with_corpus(|corpus| {
        paired_ns(
            QUERIES,
            |i| {
                black_box(service.count(patterns[i], false).is_ok());
            },
            |i| {
                black_box(corpus.count(Path::new(patterns[i])));
            },
        )
    });
    let owned: Vec<Vec<u32>> = patterns.iter().map(|p| p.to_vec()).collect();
    let batched = ms(|| {
        for chunk in owned.chunks(32) {
            black_box(service.count_batch(chunk, false).is_ok());
        }
    }) * 1e6
        / owned.len() as f64;
    report.set("service.count_ns", single);
    report.set("service.count_batch_ns_per_path", batched);
    report.set("service.lock_overhead_ns", single - direct);
}
