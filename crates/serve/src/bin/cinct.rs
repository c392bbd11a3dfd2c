//! `cinct` — command-line interface to the CiNCT trajectory index.
//!
//! Trajectory files are plain text: one trajectory per line, comma- or
//! whitespace-separated edge IDs. Typical session:
//!
//! ```text
//! cinct build  trips.txt  trips.cinct          # build + save an index
//! cinct stats  trips.cinct                     # size breakdown
//! cinct count  trips.cinct  12,13,14           # how many travel 12→13→14?
//! cinct locate trips.cinct  12,13,14           # who, and where (needs --locate at build)
//! cinct get    trips.cinct  7                  # decompress trajectory #7
//! ```
//!
//! Sharded session — `--shards K` makes the output a *directory* (one
//! index file per shard plus a checksummed manifest), which every query
//! verb accepts wherever a single-file index is accepted, and which can
//! grow without a rebuild:
//!
//! ```text
//! cinct build   trips.txt  trips.d  --shards 8 --locate 32
//! cinct append  trips.d    more_trips.txt      # new batch → one fresh shard
//! cinct compact trips.d    8                   # re-balance small shards away
//! cinct count   trips.d    12,13,14            # fan-out over all shards
//! cinct locate  trips.d    12,13,14            # global trajectory IDs
//! ```

//!
//! Serving session — `cinct serve` exposes a sharded directory over
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
    CinctBuilder, CinctIndex, Path, PathQuery, QueryTrace, ShardPartition, ShardedBuilder,
    ShardedCinct,
};
use cinct_serve::{ServeConfig, Server};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  cinct build <trajectories.txt> <index.cinct> [--block-size 15|31|63] [--locate RATE]
              [--threads N] [--shards K] [--balance size|rr]
                                            N = 0 uses all cores; output is
                                            identical at any thread count.
                                            --shards K writes a sharded index
                                            *directory* (K per-shard indexes +
                                            manifest); --balance picks the
                                            partition (size-balanced default,
                                            rr = round-robin)
  cinct append <index-dir> <trajectories.txt>   seal a new batch into a fresh
                                            shard (no rebuild of old shards)
  cinct compact <index-dir> <K>             re-balance the corpus into K shards
  cinct stats <index> [--metrics[=prometheus|json]]
                                            index = file or sharded directory;
                                            --metrics dumps the process metric
                                            registry after loading the index
  cinct count <index> <path> [--trace]      path = comma-separated edge IDs;
                                            --trace explains the query: per-
                                            shard, per-stage breakdown
  cinct locate <index> <path> [--trace]
  cinct get <index> <trajectory-id>
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

/// A loaded index, either flavor; queried through `&dyn PathQuery`.
/// (Both variants are boxed: each handle is hundreds of bytes — the
/// sharded one now carries the corpus-union edge membership — and
/// clippy's large-enum-variant lint is right that the enum should not
/// carry that inline.)
enum Backend {
    Mono(Box<CinctIndex>),
    Sharded(Box<ShardedCinct>),
}

impl Backend {
    fn as_query(&self) -> &dyn PathQuery {
        match self {
            Backend::Mono(i) => i.as_ref(),
            Backend::Sharded(s) => s.as_ref(),
        }
    }

    fn num_trajectories(&self) -> usize {
        match self {
            Backend::Mono(i) => i.num_trajectories(),
            Backend::Sharded(s) => s.num_trajectories(),
        }
    }

    fn trajectory(&self, id: usize) -> Vec<u32> {
        match self {
            Backend::Mono(i) => i.trajectory(id),
            Backend::Sharded(s) => s.trajectory(id),
        }
    }
}

/// Load a single-file index or a sharded index directory, inferred from
/// what `path` points at.
fn load_any(path: &str) -> Result<Backend, String> {
    if std::path::Path::new(path).is_dir() {
        ShardedCinct::open_dir(path)
            .map(|s| Backend::Sharded(Box::new(s)))
            .map_err(|e| format!("load {path}: {e}"))
    } else {
        let mut f = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        CinctIndex::read_from(&mut f)
            .map(|i| Backend::Mono(Box::new(i)))
            .map_err(|e| format!("load {path}: {e}"))
    }
}

fn load_sharded(path: &str) -> Result<ShardedCinct, String> {
    ShardedCinct::open_dir(path).map_err(|e| format!("load {path}: {e}"))
}

fn cmd_build(input: &str, output: &str, flags: &[String]) -> Result<(), String> {
    let mut builder = CinctBuilder::new();
    let mut shards: Option<usize> = None;
    let mut partition = ShardPartition::SizeBalanced;
    let mut threads: Option<usize> = None;
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
                threads = Some(n);
                builder = builder.threads(n);
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
                shards = Some(k);
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
    match shards {
        None => {
            let t0 = std::time::Instant::now();
            let (index, timings) = builder.build_timed(&trajs, n_edges);
            eprintln!(
                "built in {:.2}s: {} trajectories, {} edges, {:.2} bits/symbol",
                t0.elapsed().as_secs_f64(),
                index.num_trajectories(),
                n_edges,
                index.bits_per_symbol()
            );
            eprintln!("stages: {}", timings.breakdown());
            let mut f =
                std::fs::File::create(output).map_err(|e| format!("create {output}: {e}"))?;
            index
                .write_to(&mut f)
                .map_err(|e| format!("write {output}: {e}"))?;
            eprintln!("saved to {output}");
        }
        Some(k) => {
            let t0 = std::time::Instant::now();
            // For sharded builds --threads governs how many *shards*
            // build concurrently (each shard's own pipeline stays
            // sequential — fanning both levels would multiply threads);
            // without the flag, shard builds use all cores.
            let sharded = ShardedBuilder::new()
                .shards(k)
                .partition(partition)
                .threads(threads.unwrap_or(0))
                .index_builder(builder.threads(1))
                .try_build(&trajs, n_edges)
                .map_err(|e| e.to_string())?;
            eprintln!(
                "built in {:.2}s: {} trajectories across {} shards, {} edges, \
                 {:.2} bits/symbol",
                t0.elapsed().as_secs_f64(),
                sharded.num_trajectories(),
                sharded.num_shards(),
                n_edges,
                sharded.bits_per_symbol()
            );
            sharded.save_dir(output).map_err(|e| e.to_string())?;
            eprintln!("saved sharded index directory to {output}");
        }
    }
    Ok(())
}

fn cmd_append(index_dir: &str, input: &str) -> Result<(), String> {
    let mut sharded = load_sharded(index_dir)?;
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
    let mut sharded = load_sharded(index_dir)?;
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
    let backend = load_any(path)?;
    // The metrics dump reflects this process's work so far — for the CLI
    // that is the index load itself (open timings, checksum verifies).
    if let Some(format) = metrics {
        drop(backend);
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
    match &backend {
        Backend::Mono(idx) => {
            println!("kind:             monolithic (single file)");
            println!("trajectories:     {}", idx.num_trajectories());
            println!("indexed symbols:  {}", idx.text_len());
            println!("network edges:    {}", idx.network_edges());
            println!("sigma:            {}", idx.sigma());
            println!("ET-graph edges:   {}", idx.rml().graph().num_edges());
            println!("max out-degree:   {}", idx.rml().graph().max_out_degree());
            println!(
                "core size:        {} bytes ({:.2} bits/symbol)",
                idx.core_size_in_bytes(),
                idx.bits_per_symbol()
            );
            println!("  labeled BWT:    {} bytes", idx.size_without_et_graph());
            println!("directory extras: {} bytes", idx.directory_size_in_bytes());
            match idx.locate_sampling_rate() {
                Some(r) => println!("locate support:   yes (SA sampling 1/{r})"),
                None => println!("locate support:   no (rebuild with --locate)"),
            }
        }
        Backend::Sharded(s) => {
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
            println!(
                "locate support:   {}",
                if s.locate_supported() { "yes" } else { "no" }
            );
            println!("per shard:        id  trajectories  symbols  core bytes");
            for i in 0..s.num_shards() {
                let idx = s.shard_index(i);
                println!(
                    "                  {:>2}  {:>12}  {:>7}  {:>10}",
                    i,
                    idx.num_trajectories(),
                    idx.text_len(),
                    idx.core_size_in_bytes()
                );
            }
        }
    }
    Ok(())
}

fn cmd_count(path: &str, spec: &str, flags: &[String]) -> Result<(), String> {
    let trace = parse_trace_flag(flags)?;
    let backend = load_any(path)?;
    let p = parse_path(spec).map_err(|e| e.to_string())?;
    let path = Path::new(&p);
    if trace {
        let tr = match &backend {
            Backend::Mono(idx) => QueryTrace::monolithic(idx.as_ref(), &p, false),
            Backend::Sharded(s) => QueryTrace::sharded(s, &p, false),
        };
        print!("{}", tr.render());
        return Ok(());
    }
    match &backend {
        Backend::Mono(idx) => match idx.try_range(path).map_err(|e| e.to_string())? {
            Some(r) => println!("{} (suffix range {}..{})", r.len(), r.start, r.end),
            None => println!("0"),
        },
        // A sharded range is virtual (multiplicity only) — fan out once
        // and print the real per-shard suffix ranges instead of fake
        // global endpoints.
        Backend::Sharded(s) => {
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
        }
    }
    Ok(())
}

fn cmd_locate(path: &str, spec: &str, flags: &[String]) -> Result<(), String> {
    let trace = parse_trace_flag(flags)?;
    let backend = load_any(path)?;
    let p = parse_path(spec).map_err(|e| e.to_string())?;
    if trace {
        let tr = match &backend {
            Backend::Mono(idx) => QueryTrace::monolithic(idx.as_ref(), &p, true),
            Backend::Sharded(s) => QueryTrace::sharded(s, &p, true),
        };
        print!("{}", tr.render());
        return Ok(());
    }
    let occ = backend
        .as_query()
        .occurrences(Path::new(&p))
        .map_err(|e| e.to_string())?;
    println!("{} occurrence(s)", occ.remaining());
    // Sorted (trajectory, offset) — the order scripts relied on before the
    // streaming API; the iterator itself yields suffix-range order. IDs
    // are corpus-global for both backends.
    for (traj, offset) in occ.collect_sorted() {
        println!("trajectory {traj} @ edge offset {offset}");
    }
    Ok(())
}

fn cmd_get(path: &str, id_spec: &str) -> Result<(), String> {
    let backend = load_any(path)?;
    let id: usize = id_spec.parse().map_err(|_| "bad trajectory id")?;
    if id >= backend.num_trajectories() {
        return Err(format!(
            "trajectory {id} out of range (have {})",
            backend.num_trajectories()
        ));
    }
    println!("{}", format_trajectory(&backend.trajectory(id)));
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
