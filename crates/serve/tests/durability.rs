//! Durability integration tests for the serving layer: WAL-journaled
//! appends that survive a simulated crash, idempotency-key dedup at the
//! service and HTTP layers, degraded serving over a quarantined corpus,
//! and the client's retry/backoff machinery against a scripted peer.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;

use cinct::{Durability, OpenMode, Path, PathQuery, ShardedBuilder, ShardedCinct, Wal};
use cinct_serve::json::{obj, Json};
use cinct_serve::{
    Client, CorpusService, FailoverClient, RetryPolicy, ServeConfig, Server, ServerHandle,
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
    let d = std::env::temp_dir().join(format!("cinct-serve-dura-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durable_service(dir: &std::path::Path) -> CorpusService {
    let opened = ShardedCinct::open_dir(dir).unwrap();
    let (wal, replay) = Wal::open(dir, Durability::Fast).unwrap();
    CorpusService::new_durable(opened, 64, 4, wal, replay).unwrap()
}

/// An acked append must survive a crash (process death without save):
/// the WAL replays it into the reopened corpus, outcome-identical to a
/// mirror that applied the same batches directly, and the idempotency
/// key journaled with it still deduplicates after the restart.
#[test]
fn wal_replay_recovers_acked_appends_and_keys_across_restart() {
    let dir = scratch("replay");
    corpus().save_dir(&dir).unwrap();

    let svc = durable_service(&dir);
    let first = svc
        .append_keyed(&[vec![1, 2, 5], vec![0, 1]], Some("batch-a"))
        .unwrap();
    assert!(!first.deduplicated);
    svc.append(&[vec![4, 5]]).unwrap();
    assert_eq!(svc.stats().wal_pending, 2);
    // Crash: drop the service without save_dir. The WAL file remains.
    drop(svc);

    let mirror = {
        let mut m = corpus();
        m.append_batch(&[vec![1, 2, 5], vec![0, 1]]).unwrap();
        m.append_batch(&[vec![4, 5]]).unwrap();
        m
    };
    let svc = durable_service(&dir);
    svc.with_corpus(|c| {
        assert_eq!(c.num_trajectories(), mirror.num_trajectories());
        for g in 0..mirror.num_trajectories() {
            assert_eq!(c.trajectory(g), mirror.trajectory(g), "trajectory {g}");
        }
        for pat in [&[1u32, 2][..], &[0, 1], &[4, 5]] {
            assert_eq!(c.count(Path::new(pat)), mirror.count(Path::new(pat)));
        }
    });
    // The replayed key still deduplicates: a client retrying across the
    // restart gets the original assignment, and nothing is re-applied.
    let retried = svc
        .append_keyed(&[vec![1, 2, 5], vec![0, 1]], Some("batch-a"))
        .unwrap();
    assert!(retried.deduplicated);
    assert_eq!(retried.assigned, first.assigned);
    assert_eq!(svc.stats().trajectories, mirror.num_trajectories());
}

/// `save_dir` folds the journal into the snapshot and truncates it:
/// a restart after a clean save replays nothing and re-opens the saved
/// corpus exactly.
#[test]
fn save_dir_truncates_the_wal() {
    let dir = scratch("truncate");
    corpus().save_dir(&dir).unwrap();

    let svc = durable_service(&dir);
    svc.append_keyed(&[vec![1, 2]], Some("k1")).unwrap();
    assert_eq!(svc.stats().wal_pending, 1);
    svc.save_dir(&dir).unwrap();
    assert_eq!(svc.stats().wal_pending, 0);
    drop(svc);

    let (_, replay) = Wal::open(&dir, Durability::Fast).unwrap();
    assert!(replay.is_empty(), "journal survived the save: {replay:?}");
    let reopened = ShardedCinct::open_dir(&dir).unwrap();
    assert_eq!(reopened.num_trajectories(), 7);
    assert_eq!(reopened.count(Path::new(&[1, 2])), 3);
}

/// The same key applies exactly once — also without a WAL, and also
/// under concurrent retries racing each other.
#[test]
fn idempotency_key_applies_exactly_once() {
    let svc = CorpusService::new(corpus(), 64, 4);
    let first = svc.append_keyed(&[vec![1, 2, 5]], Some("dup")).unwrap();
    let second = svc.append_keyed(&[vec![1, 2, 5]], Some("dup")).unwrap();
    assert!(!first.deduplicated);
    assert!(second.deduplicated);
    assert_eq!(second.assigned, first.assigned);
    assert_eq!(svc.stats().trajectories, 7);
    // A different key is a different write.
    let third = svc.append_keyed(&[vec![1, 2, 5]], Some("dup2")).unwrap();
    assert!(!third.deduplicated);
    assert_eq!(svc.stats().trajectories, 8);

    // Hammer one key from many threads: exactly one install wins.
    let svc = CorpusService::new(corpus(), 64, 4);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| svc.append_keyed(&[vec![0, 1]], Some("race")).unwrap());
        }
    });
    assert_eq!(svc.stats().trajectories, 7, "one key, one install");
}

/// The same race through a WAL: the retries that lose see the key
/// under the writer lock, so the log holds one record and the corpus
/// one install — and a crash-and-replay restart installs it once too.
#[test]
fn racing_keyed_retries_journal_exactly_once() {
    let dir = scratch("race-wal");
    corpus().save_dir(&dir).unwrap();
    let svc = durable_service(&dir);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..8)
            .map(|_| s.spawn(|| svc.append_keyed(&[vec![0, 1]], Some("race")).unwrap()))
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(outcomes.iter().filter(|o| !o.deduplicated).count(), 1);
    assert!(outcomes.iter().all(|o| o.assigned == (6..7)));
    assert_eq!(svc.stats().trajectories, 7, "one key, one install");
    assert_eq!(svc.wal_next_seq(), Some(1), "one key, one record");
    drop(svc);

    let svc = durable_service(&dir);
    assert_eq!(svc.stats().trajectories, 7, "replay installs it once");
    let retried = svc.append_keyed(&[vec![0, 1]], Some("race")).unwrap();
    assert!(retried.deduplicated);
    assert_eq!(retried.assigned, 6..7);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Serving a corpus does not rewrite its build configuration: the
/// thread knob a directory was built with is the knob a save from a
/// bound server persists, so a later `cinct compact` builds its shards
/// the same way whether or not the directory was ever served.
#[test]
fn binding_and_saving_keeps_the_built_thread_knob() {
    for knob in [0usize, 3] {
        let built = ShardedBuilder::new()
            .shards(2)
            .threads(knob)
            .build(&[vec![0, 1, 2], vec![1, 2], vec![0, 3]], 4);
        let server = Server::bind("127.0.0.1:0", built, ServeConfig::default()).expect("bind");
        let dir = scratch(&format!("knob-{knob}"));
        server.handle().service().save_dir(&dir).unwrap();
        let reopened = ShardedCinct::open_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(reopened.config().configured_threads(), knob);
    }
}

fn start(corpus: ShardedCinct, cfg: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", corpus, cfg).expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (handle, join)
}

fn shutdown(handle: &ServerHandle, join: std::thread::JoinHandle<()>) {
    handle.shutdown();
    join.join().unwrap();
}

/// HTTP layer: `Idempotency-Key` dedups a retried append; the `"key"`
/// body member works too; responses say `deduplicated`.
#[test]
fn http_append_with_idempotency_key_is_exactly_once() {
    let (handle, join) = start(corpus(), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let body = obj(&[(
        "batch",
        Json::Arr(vec![Json::Arr(vec![1u32.into(), 2u32.into()])]),
    )]);
    let (status, first) = client.append_idempotent(&body, "http-key").unwrap();
    assert_eq!(status, 200, "{first:?}");
    assert_eq!(first.get("deduplicated").unwrap().as_bool(), Some(false));
    let (status, second) = client.append_idempotent(&body, "http-key").unwrap();
    assert_eq!(status, 200);
    assert_eq!(second.get("deduplicated").unwrap().as_bool(), Some(true));
    assert_eq!(
        second.get("assigned").unwrap().render(),
        first.get("assigned").unwrap().render()
    );

    // Same dedup via the `"key"` body member.
    let keyed = obj(&[
        (
            "batch",
            Json::Arr(vec![Json::Arr(vec![0u32.into(), 1u32.into()])]),
        ),
        ("key", "body-key".into()),
    ]);
    let (_, first) = client.post_json("/v1/append", &keyed).unwrap();
    let (_, second) = client.post_json("/v1/append", &keyed).unwrap();
    assert_eq!(first.get("deduplicated").unwrap().as_bool(), Some(false));
    assert_eq!(second.get("deduplicated").unwrap().as_bool(), Some(true));

    // 6 base + 1 + 1: each key applied exactly once.
    assert_eq!(handle.service().stats().trajectories, 8);
    // An empty key is rejected, not silently deduplicated-forever.
    let (status, _) = client
        .request("POST", "/v1/append", Some(r#"{"batch":[[0,1]],"key":""}"#))
        .unwrap();
    assert_eq!(status, 400);
    shutdown(&handle, join);
}

/// Degraded serving end to end: corrupt one shard on disk, open
/// resilient, serve. Queries answer 200 with `degraded: true` and the
/// quarantine report; healthz reads `degraded`; unavailable
/// trajectories fail individually while the rest extract fine.
#[test]
fn http_serves_a_degraded_corpus_with_explicit_markers() {
    let dir = scratch("degraded");
    corpus().save_dir(&dir).unwrap();
    // Bit-rot one shard file mid-byte.
    let shard = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("shard-00001"))
        })
        .expect("shard file");
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&shard, &bytes).unwrap();

    assert!(
        ShardedCinct::open_dir(&dir).is_err(),
        "strict open must stay fail-fast"
    );
    let opened = ShardedCinct::open_dir_with(&dir, OpenMode::Resilient).unwrap();
    let lost: Vec<usize> = (0..opened.num_trajectories())
        .filter(|&g| !opened.trajectory_available(g))
        .collect();
    assert!(!lost.is_empty());

    let (handle, join) = start(opened, ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("degraded"));

    let (status, resp) = client
        .post_json(
            "/v1/count",
            &obj(&[("path", Json::Arr(vec![1u32.into(), 2u32.into()]))]),
        )
        .unwrap();
    assert_eq!(status, 200, "degraded corpus must still answer: {resp:?}");
    assert_eq!(resp.get("degraded").unwrap().as_bool(), Some(true));
    let quarantined = resp.get("quarantined").unwrap().as_arr().unwrap();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].get("slot").unwrap().as_usize(), Some(1));
    assert!(quarantined[0].get("reason").unwrap().as_str().is_some());

    let (_, stats) = client
        .get("/v1/stats")
        .map(|(s, t)| (s, Json::parse(&t).unwrap()))
        .unwrap();
    assert_eq!(stats.get("degraded").unwrap().as_bool(), Some(true));

    // Surviving trajectory extracts; a quarantined one is a clean 500.
    let ok_id = (0..6).find(|g| !lost.contains(g)).unwrap();
    let (status, _) = client
        .post_json("/v1/extract", &obj(&[("trajectory", ok_id.into())]))
        .unwrap();
    assert_eq!(status, 200);
    let (status, resp) = client
        .post_json("/v1/extract", &obj(&[("trajectory", lost[0].into())]))
        .unwrap();
    assert_eq!(status, 500, "{resp:?}");

    // Appends still work while degraded (they land in fresh shards).
    let (status, resp) = client
        .post_json(
            "/v1/append",
            &obj(&[(
                "batch",
                Json::Arr(vec![Json::Arr(vec![0u32.into(), 1u32.into()])]),
            )]),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(resp.get("degraded").unwrap().as_bool(), Some(true));
    shutdown(&handle, join);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Healthz ranks draining above degraded above ok.
#[test]
fn healthz_reports_ok_then_draining() {
    let (handle, join) = start(corpus(), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("role").unwrap().as_str(), Some("primary"));
    assert_eq!(
        health.get("wal").unwrap().get("enabled").unwrap().as_bool(),
        Some(false)
    );
    handle.shutdown();
    // The drained server refuses new connections; the flag is what the
    // body would report, so check it directly.
    assert!(handle.is_draining());
    join.join().unwrap();
}

/// The retry client against a scripted peer: a 503 + `Retry-After`
/// and a mid-request connection drop are both retried (reconnecting
/// when the connection died), and the request ultimately succeeds.
#[test]
fn client_retries_503_and_reconnects_after_connection_drop() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        // Connection 1: answer 503 (keep-alive), then slam the door
        // mid-exchange on the follow-up request.
        let (mut c1, _) = listener.accept().unwrap();
        read_one_request(&mut c1);
        c1.write_all(
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\nContent-Length: 0\r\n\r\n",
        )
        .unwrap();
        read_one_request(&mut c1);
        drop(c1); // EOF before any response bytes
                  // Connection 2 (the reconnect): serve the answer.
        let (mut c2, _) = listener.accept().unwrap();
        read_one_request(&mut c2);
        c2.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n")
            .unwrap();
    });

    let mut client = Client::connect_with(
        addr,
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
            timeout: Duration::from_secs(5),
        },
    )
    .unwrap();
    let (status, body) = client.get("/probe").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    script.join().unwrap();
}

/// Non-idempotent requests never retry: one 503 is the final answer.
#[test]
fn client_does_not_retry_bare_posts() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        let (mut c, _) = listener.accept().unwrap();
        read_one_request(&mut c);
        c.write_all(
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\nContent-Length: 0\r\n\r\n",
        )
        .unwrap();
        // Stay open long enough to notice a (wrong) retry arriving.
        c.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut buf = [0u8; 1];
        assert!(
            !matches!(c.read(&mut buf), Ok(n) if n > 0),
            "a bare POST must not be retried"
        );
    });

    let mut client = Client::connect_with(
        addr,
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
            timeout: Duration::from_secs(5),
        },
    )
    .unwrap();
    let (status, _) = client.post("/v1/append", r#"{"batch":[[0,1]]}"#).unwrap();
    assert_eq!(status, 503);
    script.join().unwrap();
}

/// An honored `Retry-After` is capped at the policy's backoff
/// ceiling: a peer demanding an hour-long pause can't stall the
/// client past `max_backoff`.
#[test]
fn retry_after_beyond_the_ceiling_is_capped() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        let (mut c, _) = listener.accept().unwrap();
        read_one_request(&mut c);
        c.write_all(
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 3600\r\nContent-Length: 0\r\n\r\n",
        )
        .unwrap();
        read_one_request(&mut c);
        c.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n")
            .unwrap();
    });

    let mut client = Client::connect_with(
        addr,
        RetryPolicy {
            attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            timeout: Duration::from_secs(5),
        },
    )
    .unwrap();
    let start = std::time::Instant::now();
    let (status, body) = client.get("/probe").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    // The retry honored at most max_backoff (50ms), not the 3600s the
    // peer asked for. Generous bound for a loaded CI box.
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "Retry-After must be capped at max_backoff, waited {:?}",
        start.elapsed()
    );
    script.join().unwrap();
}

/// `attempts: 1` is truly single-shot: a 503 carrying a `Retry-After`
/// comes straight back, with no backoff sleep at all.
#[test]
fn single_attempt_policy_never_sleeps() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        let (mut c, _) = listener.accept().unwrap();
        read_one_request(&mut c);
        c.write_all(
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 30\r\nContent-Length: 0\r\n\r\n",
        )
        .unwrap();
    });

    let mut client = Client::connect_with(
        addr,
        RetryPolicy {
            attempts: 1,
            base_backoff: Duration::from_secs(60),
            max_backoff: Duration::from_secs(60),
            timeout: Duration::from_secs(5),
        },
    )
    .unwrap();
    let start = std::time::Instant::now();
    let (status, _) = client.get("/probe").unwrap();
    assert_eq!(status, 503);
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "attempts=1 must return without backing off, waited {:?}",
        start.elapsed()
    );
    script.join().unwrap();
}

/// Answer one request on `listener` with a 421 that names `primary`,
/// then exit — a scripted not-the-primary peer.
fn answer_421(listener: TcpListener, primary: String) {
    let (mut c, _) = listener.accept().unwrap();
    read_one_request(&mut c);
    let body = format!("{{\"error\":{{\"kind\":\"not_primary\"}},\"primary\":\"{primary}\"}}");
    write!(
        c,
        "HTTP/1.1 421 Misdirected Request\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
}

/// The failover client follows exactly one 421 redirect. Two peers
/// each naming the other as primary form a routing loop; the second
/// 421 surfaces to the caller instead of ping-ponging forever.
#[test]
fn failover_client_follows_421_at_most_once() {
    let a = TcpListener::bind("127.0.0.1:0").unwrap();
    let b = TcpListener::bind("127.0.0.1:0").unwrap();
    let a_addr = a.local_addr().unwrap().to_string();
    let b_addr = b.local_addr().unwrap().to_string();

    let sa = std::thread::spawn({
        let to = b_addr.clone();
        move || answer_421(a, to)
    });
    let sb = std::thread::spawn({
        let to = a_addr.clone();
        move || answer_421(b, to)
    });

    let mut client = FailoverClient::new(&[a_addr.as_str()], RetryPolicy::none()).unwrap();
    let body = obj(&[(
        "batch",
        Json::Arr(vec![Json::Arr(vec![0u32.into(), 1u32.into()])]),
    )]);
    let (status, resp) = client.append_idempotent(&body, "loop-key").unwrap();
    assert_eq!(status, 421, "{resp:?}");
    // The surfaced 421 came from peer B (it names A as primary): the
    // client followed A→B and then stopped.
    assert_eq!(resp.get("primary").unwrap().as_str(), Some(a_addr.as_str()));
    sa.join().unwrap();
    sb.join().unwrap();
}

/// Read one HTTP request (headers + Content-Length body) off a raw
/// socket — just enough for the scripted-peer tests above.
fn read_one_request(stream: &mut std::net::TcpStream) {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => buf.push(byte[0]),
            _ => return,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let body_len = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_owned)
        })
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; body_len];
    let _ = stream.read_exact(&mut body);
}
