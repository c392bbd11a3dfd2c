//! The replication fault matrix: WAL shipping between a primary and a
//! mirror follower, driven at the transport-free service seam so
//! `faultio` crash plans (thread-local by design) land exactly where
//! the matrix points them, plus live two-server tests over HTTP for the
//! pull loop, follower reads, the 421 write redirect, and promotion.
//!
//! The oracle everywhere is **mirror-corpus identity**: after every
//! kill-and-recover (or partition-and-heal), the follower's corpus
//! fingerprints exactly equal the primary's — never a prefix left
//! behind for good, never a record applied twice.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cinct::faultio::{self, Fault};
use cinct::{Durability, Path, PathQuery, ShardedBuilder, ShardedCinct, Wal, WalRead};
use cinct_serve::json::{obj, Json};
use cinct_serve::{
    Client, CorpusService, FailoverClient, Replicator, RetryPolicy, ServeConfig, Server,
    ServerHandle, StepOutcome,
};

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

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("cinct-serve-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A saved seed directory — both roles start from the same corpus.
fn seed(tag: &str) -> std::path::PathBuf {
    let dir = scratch(tag);
    corpus().save_dir(&dir).unwrap();
    dir
}

fn durable_service(dir: &std::path::Path) -> CorpusService {
    let opened = ShardedCinct::open_dir(dir).unwrap();
    let (wal, replay) = Wal::open(dir, Durability::Fast).unwrap();
    CorpusService::new_durable(opened, 64, 4, wal, replay).unwrap()
}

/// Everything observable about a served corpus, for exact mirror
/// compares.
fn fingerprint(svc: &CorpusService) -> (usize, Vec<Vec<u32>>, usize, usize) {
    svc.with_corpus(|c| {
        let trajs: Vec<Vec<u32>> = (0..c.num_trajectories()).map(|g| c.trajectory(g)).collect();
        (
            c.num_trajectories(),
            trajs,
            c.count(Path::new(&[0, 1])),
            c.count(Path::new(&[1, 2])),
        )
    })
}

/// Ship until caught up, at the service seam: pull the primary's log at
/// the follower's position, apply, and fall back to a snapshot
/// bootstrap when the history was reclaimed — exactly what
/// `Replicator::step` does over HTTP. Returns records applied.
fn ship(
    primary: &CorpusService,
    follower: &CorpusService,
    follower_dir: &std::path::Path,
) -> usize {
    let mut applied = 0usize;
    loop {
        let from = follower.wal_next_seq().unwrap();
        match primary.wal_read_from(from).unwrap() {
            WalRead::Records(recs) => {
                if recs.is_empty() {
                    return applied;
                }
                applied += follower.apply_replicated(&recs).unwrap();
            }
            WalRead::Compacted { .. } => {
                let stream = primary.snapshot_stream().unwrap();
                follower.bootstrap_snapshot(follower_dir, &stream).unwrap();
            }
        }
    }
}

const BATCHES: [&[u32]; 3] = [&[1, 2, 5], &[0, 1], &[4, 5, 0, 1]];

fn append_all(svc: &CorpusService) {
    for (i, b) in BATCHES.iter().enumerate() {
        svc.append_keyed(&[b.to_vec()], Some(&format!("k{i}")))
            .unwrap();
    }
}

// ---------------------------------------------------------------------
// Shipping: convergence, partition/heal, compaction → bootstrap.
// ---------------------------------------------------------------------

#[test]
fn follower_converges_by_shipping_and_stays_caught_up() {
    let (pdir, fdir) = (seed("ship-p"), seed("ship-f"));
    let (primary, follower) = (durable_service(&pdir), durable_service(&fdir));
    append_all(&primary);
    assert_eq!(ship(&primary, &follower, &fdir), BATCHES.len());
    assert_eq!(fingerprint(&follower), fingerprint(&primary));
    // Caught up: a second round ships nothing.
    assert_eq!(ship(&primary, &follower, &fdir), 0);
    // Shipped records keep their idempotency keys: a client retry that
    // lands on the follower after promotion still deduplicates.
    let out = follower
        .append_keyed(&[BATCHES[0].to_vec()], Some("k0"))
        .unwrap();
    assert!(out.deduplicated, "shipped key k0 was not remembered");
}

#[test]
fn partition_heals_into_catch_up_not_bootstrap() {
    let (pdir, fdir) = (seed("part-p"), seed("part-f"));
    let (primary, follower) = (durable_service(&pdir), durable_service(&fdir));
    append_all(&primary);
    assert_eq!(ship(&primary, &follower, &fdir), BATCHES.len());
    // Partition: the follower stops pulling. The primary keeps serving
    // writes and even folds its journal — but the follower is
    // registered, so its unshipped history is pinned, not reclaimed.
    primary.register_follower("f1", follower.wal_next_seq().unwrap());
    primary.append(&[vec![3, 4, 5]]).unwrap();
    primary.save_dir(&pdir).unwrap();
    primary.append(&[vec![5, 0]]).unwrap();
    // Heal: the next pull must find records (sealed + active), not a
    // compaction notice.
    let from = follower.wal_next_seq().unwrap();
    assert!(
        matches!(primary.wal_read_from(from).unwrap(), WalRead::Records(ref r) if !r.is_empty()),
        "pinned history was reclaimed"
    );
    assert_eq!(ship(&primary, &follower, &fdir), 2);
    assert_eq!(fingerprint(&follower), fingerprint(&primary));
}

#[test]
fn reclaimed_history_forces_a_snapshot_bootstrap() {
    let (pdir, fdir) = (seed("boot-p"), seed("boot-f"));
    let (primary, follower) = (durable_service(&pdir), durable_service(&fdir));
    append_all(&primary);
    // No registered followers: the save reclaims every sealed segment,
    // so position 0 is gone and the lagging follower must bootstrap.
    primary.save_dir(&pdir).unwrap();
    assert!(matches!(
        primary.wal_read_from(0).unwrap(),
        WalRead::Compacted { .. }
    ));
    ship(&primary, &follower, &fdir);
    assert_eq!(fingerprint(&follower), fingerprint(&primary));
    assert_eq!(follower.wal_next_seq(), primary.wal_next_seq());
    // The bootstrap is durable: reopening the follower's directory
    // yields the same corpus at the same position.
    drop(follower);
    let back = durable_service(&fdir);
    assert_eq!(fingerprint(&back), fingerprint(&primary));
    assert_eq!(back.wal_next_seq(), primary.wal_next_seq());
}

#[test]
fn bootstrap_keeps_fingerprint_and_prunes_like_primary() {
    let (pdir, fdir) = (seed("prune-p"), seed("prune-f"));
    let (primary, follower) = (durable_service(&pdir), durable_service(&fdir));
    append_all(&primary);
    let stream = primary.snapshot_stream().unwrap();
    follower.bootstrap_snapshot(&fdir, &stream).unwrap();
    assert_eq!(fingerprint(&follower), fingerprint(&primary));
    // Pruning metadata rides inside the snapshot's manifest: the
    // bootstrapped follower makes the same skip decisions as the
    // primary and answers the selective pattern identically. Edge 2
    // lands only in the size-balanced shard {[0,1,2],[1,2],[2,3,4]},
    // so [1,2] deterministically prunes at least one shard.
    let selective = [1u32, 2];
    let decisions = |svc: &CorpusService| {
        svc.with_corpus(|c| {
            (0..c.num_shards())
                .map(|s| c.pruned_edge(s, Path::new(&selective)))
                .collect::<Vec<_>>()
        })
    };
    let f_decisions = decisions(&follower);
    assert_eq!(f_decisions, decisions(&primary));
    assert!(
        f_decisions.iter().any(|d| d.is_some()),
        "no shard was pruned for the selective pattern: {f_decisions:?}"
    );
    let count = |svc: &CorpusService| svc.with_corpus(|c| c.count(Path::new(&selective)));
    assert_eq!(count(&follower), count(&primary));
}

// ---------------------------------------------------------------------
// The crash matrices: kill the primary mid-append and mid-save, the
// follower mid-apply and mid-bootstrap, at *every* injection point.
// ---------------------------------------------------------------------

#[test]
fn crash_matrix_primary_mid_append_is_acked_or_absent_and_reconverges() {
    let batch = vec![vec![1u32, 2, 5]];
    // Observe one append's injection points on a throwaway setup.
    let dir = seed("pa-observe");
    let svc = durable_service(&dir);
    faultio::arm(Fault::Observe);
    svc.append(&batch).unwrap();
    let total_ops = faultio::disarm().unwrap().ops;
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(total_ops >= 1, "append has no injection points");

    for torn in [false, true] {
        for at in 0..total_ops {
            let tag = format!("pa-{at}-{torn}");
            let (pdir, fdir) = (seed(&format!("{tag}-p")), seed(&format!("{tag}-f")));
            let svc = durable_service(&pdir);
            let pre = fingerprint(&svc);
            faultio::arm(Fault::CrashAt { at, torn });
            let acked = svc.append(&batch).is_ok();
            let report = faultio::disarm().unwrap();
            assert!(report.fired, "op {at} never reached (total {total_ops})");
            drop(svc);
            // Reopen the crashed primary: an acked batch must be there;
            // an unacked one is there or not, but never half-there.
            let back = durable_service(&pdir);
            let got = fingerprint(&back);
            let post = {
                let mut m = corpus();
                m.append_batch(&batch).unwrap();
                (
                    pre.0 + 1,
                    {
                        let mut t = pre.1.clone();
                        t.push(batch[0].clone());
                        t
                    },
                    m.count(Path::new(&[0, 1])),
                    m.count(Path::new(&[1, 2])),
                )
            };
            if acked {
                assert_eq!(got, post, "acked batch lost at op {at} (torn={torn})");
            } else {
                assert!(
                    got == pre || got == post,
                    "mixed state at op {at} (torn={torn})"
                );
            }
            // And the recovered primary still replicates: a fresh
            // follower converges to exactly its state.
            let follower = durable_service(&fdir);
            ship(&back, &follower, &fdir);
            assert_eq!(fingerprint(&follower), fingerprint(&back));
            std::fs::remove_dir_all(&pdir).unwrap();
            std::fs::remove_dir_all(&fdir).unwrap();
        }
    }
}

#[test]
fn crash_matrix_primary_mid_save_never_loses_or_double_applies() {
    // Observe one journaled save's injection points.
    let dir = seed("ps-observe");
    let svc = durable_service(&dir);
    append_all(&svc);
    faultio::arm(Fault::Observe);
    svc.save_dir(&dir).unwrap();
    let total_ops = faultio::disarm().unwrap().ops;
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        total_ops >= 8,
        "suspiciously few save injection points: {total_ops}"
    );

    for torn in [false, true] {
        for at in 0..total_ops {
            let pdir = seed(&format!("ps-{at}-{torn}"));
            let svc = durable_service(&pdir);
            append_all(&svc);
            let live = fingerprint(&svc);
            faultio::arm(Fault::CrashAt { at, torn });
            let err = svc.save_dir(&pdir);
            let report = faultio::disarm().unwrap();
            assert!(err.is_err(), "crash at op {at} did not surface");
            assert!(report.fired, "op {at} never reached (total {total_ops})");
            drop(svc);
            // Every acked record was journaled, and the manifest's
            // absorbed-position stamp keeps replay from re-applying
            // what the manifest already holds — so recovery is *exact*:
            // the pre-crash live state, whether the crash hit before or
            // after the manifest rename, before or after the retire.
            let back = durable_service(&pdir);
            assert_eq!(
                fingerprint(&back),
                live,
                "recovered state diverged at op {at} (torn={torn})"
            );
            std::fs::remove_dir_all(&pdir).unwrap();
        }
    }
}

#[test]
fn crash_matrix_follower_mid_apply_resumes_without_double_apply() {
    // A primary with shipped-ready history.
    let pdir = seed("fa-primary");
    let primary = durable_service(&pdir);
    append_all(&primary);
    let WalRead::Records(records) = primary.wal_read_from(0).unwrap() else {
        panic!("history unexpectedly compacted");
    };
    assert_eq!(records.len(), BATCHES.len());

    // Observe one full apply on a throwaway follower.
    let fdir = seed("fa-observe");
    let svc = durable_service(&fdir);
    faultio::arm(Fault::Observe);
    svc.apply_replicated(&records).unwrap();
    let total_ops = faultio::disarm().unwrap().ops;
    drop(svc);
    std::fs::remove_dir_all(&fdir).unwrap();
    assert!(
        total_ops >= 3,
        "suspiciously few apply injection points: {total_ops}"
    );

    for torn in [false, true] {
        for at in 0..total_ops {
            let fdir = seed(&format!("fa-{at}-{torn}"));
            let follower = durable_service(&fdir);
            faultio::arm(Fault::CrashAt { at, torn });
            let _ = follower.apply_replicated(&records);
            let report = faultio::disarm().unwrap();
            assert!(report.fired, "op {at} never reached (total {total_ops})");
            drop(follower);
            // Reopen and finish the pull from wherever the crash left
            // the journal: the mirror must land exactly — a record
            // re-shipped across the crash applies once, not twice.
            let follower = durable_service(&fdir);
            ship(&primary, &follower, &fdir);
            assert_eq!(
                fingerprint(&follower),
                fingerprint(&primary),
                "mirror diverged after crash at op {at} (torn={torn})"
            );
            assert_eq!(follower.wal_next_seq(), primary.wal_next_seq());
            std::fs::remove_dir_all(&fdir).unwrap();
        }
    }
}

#[test]
fn crash_matrix_follower_mid_bootstrap_reopens_and_reconverges() {
    // A primary whose history is compacted: followers *must* bootstrap.
    let pdir = seed("fb-primary");
    let primary = durable_service(&pdir);
    append_all(&primary);
    primary.save_dir(&pdir).unwrap();
    assert!(matches!(
        primary.wal_read_from(0).unwrap(),
        WalRead::Compacted { .. }
    ));
    let stream = primary.snapshot_stream().unwrap();

    // Observe one full bootstrap.
    let fdir = seed("fb-observe");
    let svc = durable_service(&fdir);
    faultio::arm(Fault::Observe);
    svc.bootstrap_snapshot(&fdir, &stream).unwrap();
    let total_ops = faultio::disarm().unwrap().ops;
    drop(svc);
    std::fs::remove_dir_all(&fdir).unwrap();
    assert!(
        total_ops >= 4,
        "suspiciously few bootstrap injection points: {total_ops}"
    );

    for torn in [false, true] {
        for at in 0..total_ops {
            let fdir = seed(&format!("fb-{at}-{torn}"));
            let follower = durable_service(&fdir);
            faultio::arm(Fault::CrashAt { at, torn });
            let err = follower.bootstrap_snapshot(&fdir, &stream);
            let report = faultio::disarm().unwrap();
            assert!(err.is_err(), "crash at op {at} did not surface");
            assert!(report.fired, "op {at} never reached (total {total_ops})");
            drop(follower);
            // The follower's directory must reopen whatever the crash
            // left: the old seed (install not committed) or the
            // snapshot (manifest renamed) — and crucially, when the
            // manifest landed but the WAL re-base didn't, the stale
            // pre-snapshot log must NOT replay over the installed
            // corpus. Then the retried pull converges.
            let follower = durable_service(&fdir);
            ship(&primary, &follower, &fdir);
            assert_eq!(
                fingerprint(&follower),
                fingerprint(&primary),
                "mirror diverged after bootstrap crash at op {at} (torn={torn})"
            );
            assert_eq!(follower.wal_next_seq(), primary.wal_next_seq());
            std::fs::remove_dir_all(&fdir).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Live two-server tests: the HTTP pull loop, follower reads, the 421
// write redirect, promotion, and client failover.
// ---------------------------------------------------------------------

fn start_durable(dir: &std::path::Path) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let opened = ShardedCinct::open_dir(dir).unwrap();
    let (wal, replay) = Wal::open(dir, Durability::Fast).unwrap();
    // Several keep-alive connections stay open at once (query client,
    // replicator, admin); workers default to the core count, which may
    // be 1 — pin enough workers that no connection starves another.
    let cfg = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let server = Server::bind_durable("127.0.0.1:0", opened, cfg, wal, replay).expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (handle, join)
}

fn append_req(batch: &[u32]) -> Json {
    obj(&[(
        "batch",
        Json::Arr(vec![Json::Arr(
            batch.iter().map(|&s| Json::Num(s as f64)).collect(),
        )]),
    )])
}

fn count_req(path: &[u32]) -> Json {
    obj(&[(
        "path",
        Json::Arr(path.iter().map(|&s| Json::Num(s as f64)).collect()),
    )])
}

#[test]
fn live_follower_pulls_reads_serve_writes_redirect() {
    let (pdir, fdir) = (seed("live-p"), seed("live-f"));
    let (p_handle, p_join) = start_durable(&pdir);
    let (f_handle, f_join) = start_durable(&fdir);
    let p_addr = p_handle.addr().to_string();
    f_handle.set_replica_of(&p_addr);
    let mut repl = Replicator::new(f_handle.clone(), &p_addr, "live-f", fdir.clone()).poll_ms(0);

    // Write to the primary, pull once, read the write on the follower.
    let mut pc = Client::connect(p_handle.addr()).unwrap();
    let (status, _) = pc.post_json("/v1/append", &append_req(&[1, 2, 5])).unwrap();
    assert_eq!(status, 200);
    assert!(matches!(repl.step().unwrap(), StepOutcome::Applied(1)));
    assert!(matches!(repl.step().unwrap(), StepOutcome::CaughtUp));
    let mut fc = Client::connect(f_handle.addr()).unwrap();
    let (status, resp) = fc.post_json("/v1/count", &count_req(&[1, 2, 5])).unwrap();
    assert_eq!(status, 200);
    assert_eq!(resp.get("count").unwrap().as_usize(), Some(1));

    // The follower's health says so, with lag accounting.
    let (status, body) = fc.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("role").unwrap().as_str(), Some("follower"));
    assert!(health.get("replication").is_some());

    // A write sent to the follower is misdirected: 421 + the primary's
    // location, which FailoverClient follows in one hop.
    let (status, resp) = fc.post_json("/v1/append", &append_req(&[9, 9])).unwrap();
    assert_eq!(status, 421);
    assert_eq!(resp.get("primary").unwrap().as_str(), Some(p_addr.as_str()));
    let f_addr = f_handle.addr().to_string();
    let mut failover = FailoverClient::new(&[&f_addr], RetryPolicy::none()).unwrap();
    let (status, resp) = failover
        .append_idempotent(&append_req(&[4, 5]), "via-redirect")
        .unwrap();
    assert_eq!(status, 200, "{resp:?}");
    assert!(matches!(repl.step().unwrap(), StepOutcome::Applied(1)));

    // Promotion flips the role: the pull loop stops itself and the
    // ex-follower accepts writes directly.
    assert!(f_handle.promote());
    assert!(matches!(repl.step().unwrap(), StepOutcome::NotFollower));
    let (status, _) = fc.post_json("/v1/append", &append_req(&[3, 3])).unwrap();
    assert_eq!(status, 200);
    let (_, body) = fc.get("/healthz").unwrap();
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("role").unwrap().as_str(), Some("primary"));

    p_handle.shutdown();
    f_handle.shutdown();
    p_join.join().unwrap();
    f_join.join().unwrap();
}

#[test]
fn live_run_loop_converges_then_failover_after_primary_death() {
    let (pdir, fdir) = (seed("fo-p"), seed("fo-f"));
    let (p_handle, p_join) = start_durable(&pdir);
    let (f_handle, f_join) = start_durable(&fdir);
    let p_addr = p_handle.addr().to_string();
    let f_addr = f_handle.addr().to_string();
    f_handle.set_replica_of(&p_addr);

    // Background pull loop, as `cinct serve --replica-of` runs it.
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let pull = {
        let mut repl = Replicator::new(f_handle.clone(), &p_addr, "fo-f", fdir.clone()).poll_ms(50);
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            repl.run(&stop);
        })
    };

    let policy = RetryPolicy {
        attempts: 3,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(40),
        timeout: Duration::from_secs(2),
    };
    let mut client = FailoverClient::new(&[&p_addr, &f_addr], policy).unwrap();
    let (status, _) = client
        .append_idempotent(&append_req(&[1, 2, 5]), "fo-1")
        .unwrap();
    assert_eq!(status, 200);

    // Wait for the pull loop to converge the follower.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let n = f_handle.service().stats().trajectories;
        if n == 7 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never converged ({n}/7)"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Primary dies; the operator promotes the follower (over HTTP, as
    // the CI smoke does); the same client keeps writing.
    p_handle.shutdown();
    p_join.join().unwrap();
    let mut admin = Client::connect(f_handle.addr()).unwrap();
    let (status, resp) = admin.post_json("/admin/promote", &obj(&[])).unwrap();
    assert_eq!(status, 200, "{resp:?}");
    let (status, resp) = client
        .append_idempotent(&append_req(&[4, 5, 0]), "fo-2")
        .unwrap();
    assert_eq!(status, 200, "failover append did not land: {resp:?}");
    assert_eq!(f_handle.service().stats().trajectories, 8);
    // The pull loop noticed the promotion and exited on its own.
    stop.store(true, Ordering::Release);
    pull.join().unwrap();

    f_handle.shutdown();
    f_join.join().unwrap();
}
