//! `cinct` — command-line interface to the CiNCT trajectory index.
//!
//! Trajectory files are plain text: one trajectory per line, comma- or
//! whitespace-separated edge IDs. An index is always a *directory*: one
//! index file per shard plus a checksummed manifest (one shard unless
//! `--shards K` asks for more). It can grow without a rebuild. Typical
//! session:
//!
//! ```text
//! cinct build   trips.txt  trips.d             # build + save a one-shard index
//! cinct stats   trips.d                        # size breakdown, per shard
//! cinct count   trips.d    12,13,14            # how many travel 12→13→14?
//! cinct locate  trips.d    12,13,14            # who, and where (needs --locate at build)
//! cinct get     trips.d    7                   # decompress trajectory #7
//! cinct build   trips.txt  trips8.d --shards 8 --locate 32
//! cinct append  trips8.d   more_trips.txt      # new batch → one fresh shard
//! cinct compact trips8.d   8                   # re-balance small shards away
//! ```
//!
//! Serving session — `cinct serve` exposes an index directory over
//! HTTP/1.1 + JSON (see the `cinct_serve` crate docs for the protocol):
//!
//! ```text
//! cinct serve trips.d --addr 127.0.0.1:8080    # blocks until drained
//! curl -d '{"path":[12,13,14]}' localhost:8080/v1/count
//! curl -d '{"batch":[[12,13]]}' localhost:8080/v1/append
//! curl localhost:8080/metrics                  # Prometheus text
//! curl -X POST localhost:8080/admin/shutdown   # graceful drain; served
//!                                              # appends persist to trips.d
//! ```

use cinct::text_io::{format_trajectory, parse_path, parse_trajectories};
use cinct::{
    CinctBuilder, Path, PathQuery, QueryTrace, ShardPartition, ShardedBuilder, ShardedCinct,
};
use cinct_serve::{ServeConfig, Server};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  cinct build <trajectories.txt> <index-dir> [--block-size 15|31|63] [--locate RATE]
              [--threads N] [--shards K] [--balance size|rr]
                                            writes an index directory of K
                                            per-shard indexes (default 1) +
                                            manifest; up to N shards build
                                            concurrently (default 0 = all
                                            cores; output is identical at any
                                            N); --balance picks the partition
                                            (size-balanced default, rr =
                                            round-robin)
  cinct append <index-dir> <trajectories.txt>   seal a new batch into a fresh
                                            shard (no rebuild of old shards)
  cinct compact <index-dir> <K>             re-balance the corpus into K shards
  cinct stats <index-dir> [--metrics[=prometheus|json]]
                                            --metrics dumps the process metric
                                            registry after loading the index
  cinct count <index-dir> <path> [--trace]  path = comma-separated edge IDs;
                                            --trace explains the query: per-
                                            shard, per-stage breakdown
  cinct locate <index-dir> <path> [--trace]
  cinct get <index-dir> <trajectory-id>
  cinct serve <index-dir> [--addr HOST:PORT] [--workers N] [--queue N]
              [--deadline-ms MS] [--cache N] [--max-body BYTES]
              [--no-save] [--resilient]
              [--replica-of HOST:PORT] [--follower-id NAME]
                                            serve the sharded directory over
                                            HTTP/1.1 + JSON; --workers 0 = one
                                            per core; POST /admin/shutdown
                                            drains gracefully and (unless
                                            --no-save) persists served appends.
                                            Appends journal to a write-ahead
                                            log before acking and replay on
                                            restart (--no-save disables the
                                            WAL too). --resilient opens the
                                            corpus even when shards fail
                                            verification, quarantining them
                                            and serving degraded.
                                            --replica-of makes this a read-only
                                            follower pulling HOST:PORT's WAL:
                                            appends answer 421 with the primary
                                            location until POST /admin/promote"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match (cmd.as_str(), args.len()) {
        ("build", n) if n >= 3 => cmd_build(&args[1], &args[2], &args[3..]),
        ("append", 3) => cmd_append(&args[1], &args[2]),
        ("compact", 3) => cmd_compact(&args[1], &args[2]),
        ("stats", n) if n >= 2 => cmd_stats(&args[1], &args[2..]),
        ("count", n) if n >= 3 => cmd_count(&args[1], &args[2], &args[3..]),
        ("locate", n) if n >= 3 => cmd_locate(&args[1], &args[2], &args[3..]),
        ("get", 3) => cmd_get(&args[1], &args[2]),
        ("serve", n) if n >= 2 => cmd_serve(&args[1], &args[2..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse a trajectory file via [`cinct::text_io`].
fn read_trajectories(path: &str) -> Result<(Vec<Vec<u32>>, usize), String> {
    let f = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    parse_trajectories(std::io::BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
}

fn load(path: &str) -> Result<ShardedCinct, String> {
    ShardedCinct::open_dir(path).map_err(|e| format!("load {path}: {e}"))
}

fn cmd_build(input: &str, output: &str, flags: &[String]) -> Result<(), String> {
    let mut builder = CinctBuilder::new();
    let mut shards = 1;
    let mut partition = ShardPartition::SizeBalanced;
    let mut threads = 0;
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--block-size" => {
                let b: usize = flags
                    .get(i + 1)
                    .ok_or("--block-size needs a value")?
                    .parse()
                    .map_err(|_| "bad --block-size")?;
                builder = builder.block_size(b);
                i += 2;
            }
            "--locate" => {
                let r: usize = flags
                    .get(i + 1)
                    .ok_or("--locate needs a sampling rate")?
                    .parse()
                    .map_err(|_| "bad --locate rate")?;
                builder = builder.locate_sampling(r);
                i += 2;
            }
            "--threads" => {
                let n: usize = flags
                    .get(i + 1)
                    .ok_or("--threads needs a count (0 = all cores)")?
                    .parse()
                    .map_err(|_| "bad --threads count")?;
                threads = n;
                i += 2;
            }
            "--shards" => {
                let k: usize = flags
                    .get(i + 1)
                    .ok_or("--shards needs a count (>= 1)")?
                    .parse()
                    .map_err(|_| "bad --shards count")?;
                if k == 0 {
                    return Err("--shards must be >= 1".into());
                }
                shards = k;
                i += 2;
            }
            "--balance" => {
                partition = match flags.get(i + 1).map(String::as_str) {
                    Some("size") => ShardPartition::SizeBalanced,
                    Some("rr") => ShardPartition::RoundRobin,
                    _ => return Err("--balance takes `size` or `rr`".into()),
                };
                i += 2;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let (trajs, n_edges) = read_trajectories(input)?;
    let t0 = std::time::Instant::now();
    let sharded = ShardedBuilder::new()
        .shards(shards)
        .partition(partition)
        .threads(threads)
        .index_builder(builder)
        .try_build(&trajs, n_edges)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "built in {:.2}s: {} trajectories across {} shard(s), {} edges, \
         {:.2} bits/symbol",
        t0.elapsed().as_secs_f64(),
        sharded.num_trajectories(),
        sharded.num_shards(),
        n_edges,
        sharded.bits_per_symbol()
    );
    sharded.save_dir(output).map_err(|e| e.to_string())?;
    eprintln!("saved index directory to {output}");
    Ok(())
}

fn cmd_append(index_dir: &str, input: &str) -> Result<(), String> {
    let mut sharded = load(index_dir)?;
    let (batch, batch_edges) = read_trajectories(input)?;
    if batch_edges > sharded.network_edges() {
        return Err(format!(
            "batch references edge {} but the index network has {} edges \
             (the alphabet is fixed at first build)",
            batch_edges - 1,
            sharded.network_edges()
        ));
    }
    let t0 = std::time::Instant::now();
    let ids = sharded.append_batch(&batch).map_err(|e| e.to_string())?;
    sharded.save_dir(index_dir).map_err(|e| e.to_string())?;
    eprintln!(
        "appended {} trajectories (global IDs {}..{}) as shard {} in {:.2}s; \
         {} shards total",
        ids.len(),
        ids.start,
        ids.end,
        sharded.num_shards() - 1,
        t0.elapsed().as_secs_f64(),
        sharded.num_shards()
    );
    Ok(())
}

fn cmd_compact(index_dir: &str, k_spec: &str) -> Result<(), String> {
    let mut sharded = load(index_dir)?;
    let k: usize = k_spec.parse().map_err(|_| "bad shard count")?;
    let before = sharded.num_shards();
    let t0 = std::time::Instant::now();
    sharded.compact(k).map_err(|e| e.to_string())?;
    // save_dir garbage-collects the pre-compaction shard files once the
    // new manifest is live.
    sharded.save_dir(index_dir).map_err(|e| e.to_string())?;
    eprintln!(
        "compacted {} shards -> {} in {:.2}s",
        before,
        sharded.num_shards(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Parse a `--trace` flag tail for the query verbs.
fn parse_trace_flag(flags: &[String]) -> Result<bool, String> {
    match flags {
        [] => Ok(false),
        [f] if f == "--trace" => Ok(true),
        [other, ..] => Err(format!("unknown flag {other}")),
    }
}

fn cmd_stats(path: &str, flags: &[String]) -> Result<(), String> {
    let mut metrics: Option<&str> = None;
    for f in flags {
        metrics = Some(match f.as_str() {
            "--metrics" | "--metrics=prometheus" => "prometheus",
            "--metrics=json" => "json",
            other => return Err(format!("unknown flag {other}")),
        });
    }
    let s = load(path)?;
    // The metrics dump reflects this process's work so far — for the CLI
    // that is the index load itself (open timings, checksum verifies).
    if let Some(format) = metrics {
        drop(s);
        cinct::metrics::register_all();
        let registry = cinct_obs::global();
        print!(
            "{}",
            if format == "json" {
                registry.render_json()
            } else {
                registry.render_prometheus()
            }
        );
        return Ok(());
    }
    println!("kind:             sharded ({} shards)", s.num_shards());
    println!("trajectories:     {}", s.num_trajectories());
    println!("indexed symbols:  {}", s.text_len());
    println!("network edges:    {}", s.network_edges());
    println!("sigma:            {}", s.sigma());
    println!(
        "core size:        {} bytes ({:.2} bits/symbol)",
        s.core_size_in_bytes(),
        s.bits_per_symbol()
    );
    match s
        .config()
        .index_builder_config()
        .configured_locate_sampling()
    {
        Some(r) if s.locate_supported() => {
            println!("locate support:   yes (SA sampling 1/{r})")
        }
        _ => println!("locate support:   no (rebuild with --locate)"),
    }
    println!(
        "per shard:        id  trajectories  symbols  core bytes  labeled-BWT bytes  \
         directory bytes  ET-graph edges  max out-degree"
    );
    for i in 0..s.num_shards() {
        let idx = s.shard_index(i);
        let graph = idx.rml().graph();
        println!(
            "                  {:>2}  {:>12}  {:>7}  {:>10}  {:>17}  {:>15}  {:>14}  {:>14}",
            i,
            idx.num_trajectories(),
            idx.text_len(),
            idx.core_size_in_bytes(),
            idx.size_without_et_graph(),
            idx.directory_size_in_bytes(),
            graph.num_edges(),
            graph.max_out_degree()
        );
    }
    Ok(())
}

fn cmd_count(path: &str, spec: &str, flags: &[String]) -> Result<(), String> {
    let trace = parse_trace_flag(flags)?;
    let s = load(path)?;
    let p = parse_path(spec).map_err(|e| e.to_string())?;
    if trace {
        print!("{}", QueryTrace::sharded(&s, &p, false).render());
        return Ok(());
    }
    // A sharded range is virtual (multiplicity only) — fan out once and
    // print the real per-shard suffix ranges instead of fake global
    // endpoints.
    let path = Path::new(&p);
    s.validate_path(path).map_err(|e| e.to_string())?;
    let ranges = s.shard_ranges(path);
    let total: usize = ranges
        .iter()
        .map(|r| r.as_ref().map_or(0, |r| r.len()))
        .sum();
    if total == 0 {
        println!("0");
    } else {
        let per: Vec<String> = ranges
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.as_ref()
                    .map(|r| format!("shard {i}: {}..{}", r.start, r.end))
            })
            .collect();
        println!("{total} ({})", per.join(", "));
    }
    Ok(())
}

fn cmd_locate(path: &str, spec: &str, flags: &[String]) -> Result<(), String> {
    let trace = parse_trace_flag(flags)?;
    let s = load(path)?;
    let p = parse_path(spec).map_err(|e| e.to_string())?;
    if trace {
        print!("{}", QueryTrace::sharded(&s, &p, true).render());
        return Ok(());
    }
    let occ = s.occurrences(Path::new(&p)).map_err(|e| e.to_string())?;
    println!("{} occurrence(s)", occ.remaining());
    // Sorted (trajectory, offset) — the order scripts relied on before the
    // streaming API; the iterator itself yields suffix-range order. IDs
    // are corpus-global.
    for (traj, offset) in occ.collect_sorted() {
        println!("trajectory {traj} @ edge offset {offset}");
    }
    Ok(())
}

fn cmd_get(path: &str, id_spec: &str) -> Result<(), String> {
    let s = load(path)?;
    let id: usize = id_spec.parse().map_err(|_| "bad trajectory id")?;
    if id >= s.num_trajectories() {
        return Err(format!(
            "trajectory {id} out of range (have {})",
            s.num_trajectories()
        ));
    }
    println!("{}", format_trajectory(&s.trajectory(id)));
    Ok(())
}

fn cmd_serve(index_dir: &str, flags: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    let mut addr = String::from("127.0.0.1:8080");
    let mut save_on_drain = true;
    let mut resilient = false;
    let mut replica_of: Option<String> = None;
    let mut follower_id: Option<String> = None;
    let mut i = 0;
    let parse_usize = |flags: &[String], i: usize, what: &str| -> Result<usize, String> {
        flags
            .get(i + 1)
            .ok_or(format!("{what} needs a value"))?
            .parse()
            .map_err(|_| format!("bad {what} value"))
    };
    while i < flags.len() {
        match flags[i].as_str() {
            "--addr" => {
                addr = flags.get(i + 1).ok_or("--addr needs host:port")?.clone();
                i += 2;
            }
            "--workers" => {
                cfg.workers = parse_usize(flags, i, "--workers")?;
                i += 2;
            }
            "--queue" => {
                cfg.queue_depth = parse_usize(flags, i, "--queue")?;
                i += 2;
            }
            "--deadline-ms" => {
                cfg.deadline = std::time::Duration::from_millis(parse_usize(
                    flags,
                    i,
                    "--deadline-ms",
                )? as u64);
                i += 2;
            }
            "--cache" => {
                cfg.cache_capacity = parse_usize(flags, i, "--cache")?;
                i += 2;
            }
            "--max-body" => {
                cfg.max_body_bytes = parse_usize(flags, i, "--max-body")?;
                i += 2;
            }
            "--no-save" => {
                save_on_drain = false;
                i += 1;
            }
            "--resilient" => {
                resilient = true;
                i += 1;
            }
            "--replica-of" => {
                replica_of = Some(
                    flags
                        .get(i + 1)
                        .ok_or("--replica-of needs host:port")?
                        .clone(),
                );
                i += 2;
            }
            "--follower-id" => {
                follower_id = Some(
                    flags
                        .get(i + 1)
                        .ok_or("--follower-id needs a name")?
                        .clone(),
                );
                i += 2;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mode = if resilient {
        cinct::OpenMode::Resilient
    } else {
        cinct::OpenMode::Strict
    };
    let sharded = ShardedCinct::open_dir_with(index_dir, mode)
        .map_err(|e| format!("load {index_dir}: {e}"))?;
    for q in sharded.quarantined() {
        eprintln!(
            "warning: quarantined shard {} ({}, {} trajectories): {}",
            q.slot, q.file, q.trajectories, q.reason
        );
    }
    // `--no-save` means "this process never writes the corpus dir" — so
    // no WAL either. Otherwise every acked append survives kill -9.
    let server = if save_on_drain {
        let (wal, replay) = cinct::Wal::open(index_dir, cinct::Durability::Durable)
            .map_err(|e| format!("open WAL in {index_dir}: {e}"))?;
        if !replay.is_empty() {
            eprintln!(
                "replaying {} journaled append batch(es) from the write-ahead log",
                replay.len()
            );
        }
        Server::bind_durable(addr.as_str(), sharded, cfg, wal, replay)
    } else {
        Server::bind(addr.as_str(), sharded, cfg)
    }
    .map_err(|e| format!("bind {addr}: {e}"))?;
    let handle = server.handle();
    let rc = handle.config();
    eprintln!(
        "serving {index_dir} on http://{} — {} workers \
         (host parallelism {}), queue {}, deadline {:?}, cache {} entries",
        handle.addr(),
        rc.workers,
        rc.host_parallelism,
        rc.queue_depth,
        rc.deadline,
        rc.cache_capacity,
    );
    eprintln!(
        "endpoints: POST /v1/count /v1/locate /v1/occurrences /v1/extract /v1/append; \
         GET /v1/stats /metrics /healthz /repl/snapshot /repl/wal; \
         POST /admin/shutdown /admin/promote"
    );
    // Follower mode: mark the role before traffic, then pull the
    // primary's WAL on a background thread until drain or promotion.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut repl_thread = None;
    if let Some(primary) = &replica_of {
        if !save_on_drain {
            return Err("--replica-of needs the WAL; drop --no-save".into());
        }
        handle.set_replica_of(primary);
        let id = follower_id.unwrap_or_else(|| handle.addr().to_string());
        eprintln!("replicating from {primary} as follower {id:?} (read-only until promoted)");
        let mut replicator = cinct_serve::Replicator::new(
            handle.clone(),
            primary,
            &id,
            std::path::PathBuf::from(index_dir),
        );
        let stop_flag = std::sync::Arc::clone(&stop);
        repl_thread = Some(std::thread::spawn(move || replicator.run(&stop_flag)));
    }
    let run_result = server.run().map_err(|e| e.to_string());
    stop.store(true, std::sync::atomic::Ordering::Release);
    if let Some(t) = repl_thread {
        let _ = t.join();
    }
    run_result?;
    let appends = handle.service().epoch();
    let wal_pending = handle.service().stats().wal_pending;
    if save_on_drain && handle.service().degraded() {
        // A degraded save would drop the quarantined shards' data from
        // the manifest for good. Acked appends are safe in the WAL and
        // replay on the next start.
        eprintln!(
            "drained; NOT persisting a degraded corpus ({} quarantined shard(s)); \
             {} journaled append batch(es) remain in the WAL for replay",
            handle.service().quarantined().len(),
            wal_pending,
        );
    } else if save_on_drain && (appends > 0 || wal_pending > 0) {
        handle
            .service()
            .save_dir(std::path::Path::new(index_dir))
            .map_err(|e| format!("persist {index_dir}: {e}"))?;
        eprintln!("drained; persisted {appends} served append batch(es) back to {index_dir}");
    } else {
        eprintln!(
            "drained cleanly ({appends} served append batch(es){})",
            if appends > 0 {
                ", not persisted (--no-save)"
            } else {
                ""
            }
        );
    }
    Ok(())
}
