//! Replication cost model: what does WAL shipping cost a follower, and
//! how fast does a lagging (or fresh) replica converge?
//!
//! Sections, all at the transport-free service seam (`wal_read_from` →
//! `apply_replicated`, exactly what `Replicator::step` drives over
//! HTTP) so the numbers isolate replication work from socket noise:
//!
//! 1. **Catch-up** — the primary journals every append batch first,
//!    then a lagging follower pulls the whole backlog: records/s and
//!    trajectories/s of bulk apply.
//! 2. **Steady-state ship** — append one batch on the primary, ship it
//!    immediately: the per-round append→follower-applied latency a
//!    tailing replica sees.
//! 3. **Snapshot bootstrap** — after the primary compacts its history,
//!    a fresh follower must bootstrap: snapshot serialize + install
//!    time and stream size.
//!
//! Every section ends in a mirror-identity assert against the primary.
//! Absolute numbers are host-dependent (page cache, allocator). A JSON
//! report of the three sections is the last thing printed on stdout.
//! Knobs: `CINCT_SCALE` (default 0.25), `CINCT_SERVE_BATCH` (default 64).

use std::fmt::Write as _;
use std::time::Instant;

use cinct::{Durability, Path, PathQuery, ShardedBuilder, Wal, WalRead};
use cinct_serve::CorpusService;

const SHARDS: usize = 4;
const LOCATE_RATE: usize = 32;
const BASE_FRACTION: f64 = 0.9;
/// Passes over the tail batches in the steady-state section.
const REPS: usize = 3;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn percentile_us(lat: &mut [f64], q: f64) -> f64 {
    if lat.is_empty() {
        return 0.0;
    }
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    lat[((lat.len() - 1) as f64 * q) as usize]
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("cinct-replpath-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durable_service(dir: &std::path::Path) -> CorpusService {
    let opened = cinct::ShardedCinct::open_dir(dir).expect("open corpus");
    let (wal, replay) = Wal::open(dir, Durability::Fast).expect("open wal");
    CorpusService::new_durable(opened, 0, 1, wal, replay).expect("durable service")
}

/// One full ship: pull the primary's log from the follower's position
/// and apply until caught up. Returns records applied.
fn ship(primary: &CorpusService, follower: &CorpusService) -> usize {
    let mut applied = 0usize;
    loop {
        let from = follower.wal_next_seq().expect("follower wal");
        match primary.wal_read_from(from).expect("read wal") {
            WalRead::Records(recs) => {
                if recs.is_empty() {
                    return applied;
                }
                applied += follower.apply_replicated(&recs).expect("apply");
            }
            WalRead::Compacted { .. } => panic!("history unexpectedly compacted"),
        }
    }
}

fn assert_mirror(primary: &CorpusService, follower: &CorpusService, what: &str) {
    let probes: [&[u32]; 3] = [&[0, 1], &[1, 2], &[2, 3]];
    primary.with_corpus(|p| {
        follower.with_corpus(|f| {
            assert_eq!(
                f.num_trajectories(),
                p.num_trajectories(),
                "{what}: trajectory count diverged"
            );
            for pat in probes {
                assert_eq!(
                    f.count(Path::new(pat)),
                    p.count(Path::new(pat)),
                    "{what}: count diverged on {pat:?}"
                );
            }
        })
    });
}

fn main() {
    let scale = env_f64("CINCT_SCALE", 0.25);
    let batch_len = env_usize("CINCT_SERVE_BATCH", 64);

    println!("== Replication path: WAL shipping + snapshot bootstrap (scale={scale}) ==\n");
    let ds = cinct_datasets::singapore(scale);
    let n_edges = ds.n_edges();
    let trajs = &ds.trajectories;
    let base_len = ((trajs.len() as f64 * BASE_FRACTION) as usize)
        .max(1)
        .min(trajs.len());
    let (base, tail) = trajs.split_at(base_len);
    let batches: Vec<&[Vec<u32>]> = tail.chunks(batch_len.max(1)).collect();
    assert!(!batches.is_empty(), "scale too small: no append batches");
    let shipped_trajs: usize = batches.iter().map(|b| b.len()).sum();
    println!(
        "corpus: {} base trajectories, {} shipped in {} records of <= {batch_len}, \
         {n_edges} edges\n",
        base.len(),
        shipped_trajs,
        batches.len()
    );

    // Both roles start from the same saved seed, as a real deployment
    // would (`cinct serve --replica-of` over a copied directory).
    let seed = ShardedBuilder::new()
        .shards(SHARDS)
        .index_builder(cinct::CinctBuilder::new().locate_sampling(LOCATE_RATE))
        .threads(0)
        .build(base, n_edges);
    let (pdir, fdir) = (scratch("primary"), scratch("follower"));
    seed.save_dir(&pdir).expect("save primary seed");
    seed.save_dir(&fdir).expect("save follower seed");
    drop(seed);
    let primary = durable_service(&pdir);
    let follower = durable_service(&fdir);

    // --- 1: catch-up — the whole backlog journaled before the first
    // pull, the lagging-follower worst case. ---
    for (i, b) in batches.iter().enumerate() {
        primary
            .append_keyed(b, Some(&format!("ship-{i}")))
            .expect("primary append");
    }
    let t0 = Instant::now();
    let applied = ship(&primary, &follower);
    let catch_up_secs = t0.elapsed().as_secs_f64();
    assert_eq!(applied, batches.len());
    assert_mirror(&primary, &follower, "catch-up");
    let records_per_sec = applied as f64 / catch_up_secs;
    let trajs_per_sec = shipped_trajs as f64 / catch_up_secs;
    println!(
        "catch-up: {applied} records ({shipped_trajs} trajectories) in {:.1} ms \
         = {records_per_sec:.0} records/s, {trajs_per_sec:.0} trajectories/s",
        catch_up_secs * 1e3
    );

    // --- 2: steady-state — ship each record as it lands, the tailing
    // replica's per-round latency (journal + pull + apply). ---
    let mut lat = Vec::with_capacity(batches.len() * REPS);
    for rep in 0..REPS {
        for (i, b) in batches.iter().enumerate() {
            let t0 = Instant::now();
            primary
                .append_keyed(b, Some(&format!("tail-{rep}-{i}")))
                .expect("primary append");
            let n = ship(&primary, &follower);
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
            assert_eq!(n, 1);
        }
    }
    let ship_mean_us = lat.iter().sum::<f64>() / lat.len() as f64;
    let ship_p50_us = percentile_us(&mut lat, 0.50);
    let ship_p99_us = percentile_us(&mut lat, 0.99);
    assert_mirror(&primary, &follower, "steady-state");
    println!(
        "steady-state ship: mean {ship_mean_us:>8.1} us  p50 {ship_p50_us:>8.1}  \
         p99 {ship_p99_us:>8.1}  (append -> follower applied)"
    );

    // --- 3: snapshot bootstrap — the primary folds + reclaims its
    // history; a fresh follower must bootstrap from a snapshot. ---
    primary.save_dir(&pdir).expect("primary save");
    assert!(
        matches!(primary.wal_read_from(0), Ok(WalRead::Compacted { .. })),
        "save did not reclaim history"
    );
    let bdir = scratch("bootstrap");
    ShardedBuilder::new()
        .shards(SHARDS)
        .index_builder(cinct::CinctBuilder::new().locate_sampling(LOCATE_RATE))
        .threads(0)
        .build(base, n_edges)
        .save_dir(&bdir)
        .expect("save bootstrap seed");
    let fresh = durable_service(&bdir);
    let t0 = Instant::now();
    let stream = primary.snapshot_stream().expect("snapshot stream");
    let serialize_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snapshot_bytes = stream.len();
    let t0 = Instant::now();
    fresh.bootstrap_snapshot(&bdir, &stream).expect("bootstrap");
    let install_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_mirror(&primary, &fresh, "bootstrap");
    assert_eq!(fresh.wal_next_seq(), primary.wal_next_seq());
    println!(
        "snapshot bootstrap: {:.2} MiB serialized in {serialize_ms:.1} ms, \
         installed in {install_ms:.1} ms\n",
        snapshot_bytes as f64 / (1024.0 * 1024.0)
    );

    // --- JSON report (all host-dependent). ---
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"meta\": {{\"dataset\": \"{}\", \"scale\": {scale}, \"reps\": {REPS}, \
         \"batch\": {batch_len}, \"shipped_records\": {}, \"shipped_trajectories\": \
         {shipped_trajs}, \"shards\": {SHARDS}, \"locate_sampling\": {LOCATE_RATE}, \
         \"n_edges\": {n_edges}, \"note\": \"WAL-shipping replication at the service \
         seam: bulk catch-up, per-record tailing, snapshot bootstrap. Every section \
         asserts mirror identity. Host-dependent\"}},",
        ds.name,
        batches.len()
    );
    let _ = writeln!(
        json,
        "  \"catch_up\": {{\"records\": {applied}, \"trajectories\": {shipped_trajs}, \
         \"secs\": {catch_up_secs:.4}, \"records_per_sec\": {records_per_sec:.0}, \
         \"trajectories_per_sec\": {trajs_per_sec:.0}}},"
    );
    let _ = writeln!(
        json,
        "  \"steady_state_ship\": {{\"mean_us\": {ship_mean_us:.1}, \
         \"p50_us\": {ship_p50_us:.1}, \"p99_us\": {ship_p99_us:.1}}},"
    );
    let _ = writeln!(
        json,
        "  \"snapshot_bootstrap\": {{\"stream_bytes\": {snapshot_bytes}, \
         \"serialize_ms\": {serialize_ms:.1}, \"install_ms\": {install_ms:.1}, \
         \"mirror_identity\": true}}"
    );
    json.push('}');
    println!("{json}");

    for d in [pdir, fdir, bdir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
