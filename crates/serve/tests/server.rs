//! Socket-level integration tests for `cinct serve`: protocol behavior,
//! outcome identity against direct [`cinct::PathQuery`] calls across the
//! fresh → append → query lifecycle (including under concurrent
//! appends), load shedding, deadlines, and graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cinct::{Path, PathQuery, ShardedBuilder, ShardedCinct};
use cinct_serve::json::{obj, Json};
use cinct_serve::{Client, ServeConfig, Server, ServerHandle};

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

/// Bind + run on an ephemeral port; returns the handle and the join
/// guard for the accept thread.
fn start(corpus: ShardedCinct, cfg: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", corpus, cfg).expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (handle, join)
}

fn path_json(path: &[u32]) -> Json {
    Json::Arr(path.iter().map(|&e| Json::from(e)).collect())
}

fn count_req(path: &[u32]) -> Json {
    obj(&[("path", path_json(path))])
}

fn append_req(batch: &[Vec<u32>]) -> Json {
    obj(&[(
        "batch",
        Json::Arr(batch.iter().map(|t| path_json(t)).collect()),
    )])
}

fn occ_pairs(v: &Json) -> Vec<(usize, usize)> {
    v.as_arr()
        .unwrap()
        .iter()
        .map(|pair| {
            let p = pair.as_arr().unwrap();
            (p[0].as_usize().unwrap(), p[1].as_usize().unwrap())
        })
        .collect()
}

#[test]
fn lifecycle_identity_fresh_append_query() {
    let (handle, join) = start(corpus(), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    // A local mirror evolved with identical appends is the oracle.
    let mut mirror = corpus();

    let patterns: Vec<Vec<u32>> = vec![vec![0, 1], vec![1, 2], vec![4, 5], vec![2], vec![5, 0]];
    let check_all = |client: &mut Client, mirror: &ShardedCinct| {
        for pat in &patterns {
            let (status, resp) = client.post_json("/v1/count", &count_req(pat)).unwrap();
            assert_eq!(status, 200, "{resp:?}");
            assert_eq!(
                resp.get("count").unwrap().as_usize().unwrap(),
                mirror.count(Path::new(pat)),
                "count identity for {pat:?}"
            );
            let (status, resp) = client.post_json("/v1/locate", &count_req(pat)).unwrap();
            assert_eq!(status, 200);
            let direct = mirror.occurrences(Path::new(pat)).unwrap().collect_sorted();
            assert_eq!(resp.get("total").unwrap().as_usize().unwrap(), direct.len());
            assert_eq!(
                occ_pairs(resp.get("occurrences").unwrap()),
                direct,
                "occurrence identity for {pat:?}"
            );
        }
    };

    // Fresh.
    check_all(&mut client, &mirror);

    // Append (twice), re-checking identity after each.
    for batch in [vec![vec![1u32, 2, 5], vec![0, 1]], vec![vec![4, 5, 0, 1]]] {
        let (status, resp) = client.post_json("/v1/append", &append_req(&batch)).unwrap();
        assert_eq!(status, 200, "{resp:?}");
        let expect = mirror.append_batch(&batch).unwrap();
        let assigned = resp.get("assigned").unwrap();
        assert_eq!(
            assigned.get("start").unwrap().as_usize().unwrap(),
            expect.start
        );
        assert_eq!(assigned.get("end").unwrap().as_usize().unwrap(), expect.end);
        check_all(&mut client, &mirror);
    }

    // Extraction identity: every trajectory recovers byte-for-byte.
    for id in 0..mirror.num_trajectories() {
        let (status, resp) = client
            .post_json("/v1/extract", &obj(&[("trajectory", id.into())]))
            .unwrap();
        assert_eq!(status, 200);
        let symbols: Vec<u32> = resp
            .get("symbols")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.as_usize().unwrap() as u32)
            .collect();
        assert_eq!(symbols, mirror.trajectory(id), "trajectory {id}");
    }

    // Stats reflect the lifecycle.
    let (status, stats) = client.get("/v1/stats").unwrap();
    assert_eq!(status, 200);
    let stats = Json::parse(&stats).unwrap();
    assert_eq!(
        stats.get("trajectories").unwrap().as_usize().unwrap(),
        mirror.num_trajectories()
    );
    assert_eq!(stats.get("epoch").unwrap().as_usize().unwrap(), 2);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_appends_and_reads_stay_outcome_identical() {
    // One worker per connection: a worker owns its connection for its
    // keep-alive lifetime, so with fewer the readers can hold every worker
    // while the appender they wait for sits in the accept queue.
    let (handle, join) = start(
        corpus(),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    let pat = [1u32, 2];
    let base = {
        let mut c = Client::connect(handle.addr()).unwrap();
        let (_, resp) = c.post_json("/v1/count", &count_req(&pat)).unwrap();
        resp.get("count").unwrap().as_usize().unwrap()
    };
    const APPENDS: usize = 10;
    let appends_done = AtomicUsize::new(0);

    std::thread::scope(|s| {
        // Appender client: each batch adds exactly one [1,2] match.
        s.spawn(|| {
            let mut c = Client::connect(handle.addr()).unwrap();
            let body = append_req(&[vec![1, 2, 4]]);
            for _ in 0..APPENDS {
                let (status, _) = c.post_json("/v1/append", &body).unwrap();
                assert_eq!(status, 200);
                appends_done.fetch_add(1, Ordering::Release);
            }
        });
        // Reader clients racing the appender: a count that starts after
        // k appends were acknowledged must reflect at least k of them —
        // the cached-stale-answer bug would violate exactly this.
        for _ in 0..3 {
            s.spawn(|| {
                let mut c = Client::connect(handle.addr()).unwrap();
                loop {
                    let done = appends_done.load(Ordering::Acquire);
                    let (status, resp) = c.post_json("/v1/count", &count_req(&pat)).unwrap();
                    assert_eq!(status, 200);
                    let n = resp.get("count").unwrap().as_usize().unwrap();
                    assert!(
                        n >= base + done,
                        "served {n} after {done} acknowledged appends (base {base})"
                    );
                    if done == APPENDS {
                        break;
                    }
                }
            });
        }
    });

    // Final identity against a mirror grown the same way.
    let mut mirror = corpus();
    for _ in 0..APPENDS {
        mirror.append_batch(&[vec![1, 2, 4]]).unwrap();
    }
    let mut c = Client::connect(handle.addr()).unwrap();
    let (_, resp) = c.post_json("/v1/count", &count_req(&pat)).unwrap();
    assert_eq!(
        resp.get("count").unwrap().as_usize().unwrap(),
        mirror.count(Path::new(&pat))
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn racing_counts_name_the_epoch_they_were_answered_at() {
    // Appends that add two, none or one match of the probe in turn, so
    // the expected count is not a function a stale epoch could satisfy.
    const APPENDS: usize = 30;
    let pat = [1u32, 2];
    let batches: Vec<Vec<Vec<u32>>> = (0..APPENDS)
        .map(|i| match i % 3 {
            0 => vec![vec![1, 2, 4], vec![0, 1, 2]],
            1 => vec![vec![0, 3]],
            _ => vec![vec![1, 2]],
        })
        .collect();
    // expected[e] = the mirror corpus's count after exactly e appends.
    let mut mirror = corpus();
    let mut expected = vec![mirror.count(Path::new(&pat))];
    for batch in &batches {
        mirror.append_batch(batch).unwrap();
        expected.push(mirror.count(Path::new(&pat)));
    }

    // One worker per connection, so the readers really race the appender.
    let (handle, join) = start(
        corpus(),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    let appends_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut c = Client::connect(handle.addr()).unwrap();
            for batch in &batches {
                let (status, _) = c.post_json("/v1/append", &append_req(batch)).unwrap();
                assert_eq!(status, 200);
            }
            appends_done.store(true, Ordering::Release);
        });
        // Cached and uncached readers: both paths must pair the count
        // with the epoch it was computed (or validated) at.
        for use_cache in [true, false, true] {
            let (appends_done, expected) = (&appends_done, &expected);
            let addr = handle.addr();
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let body = obj(&[("path", path_json(&pat)), ("cache", use_cache.into())]);
                loop {
                    let last = appends_done.load(Ordering::Acquire);
                    let (status, resp) = c.post_json("/v1/count", &body).unwrap();
                    assert_eq!(status, 200);
                    let n = resp.get("count").unwrap().as_usize().unwrap();
                    let epoch = resp.get("epoch").unwrap().as_usize().unwrap();
                    assert_eq!(
                        n, expected[epoch],
                        "count {n} names epoch {epoch} (cache {use_cache})"
                    );
                    if last {
                        assert_eq!(epoch, APPENDS);
                        break;
                    }
                }
            });
        }
    });
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn batch_queries_and_cache_flags_round_trip() {
    let (handle, join) = start(corpus(), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let body = obj(&[(
        "paths",
        Json::Arr(vec![
            path_json(&[0, 1]),
            path_json(&[1, 2]),
            path_json(&[3, 0]),
        ]),
    )]);
    let (status, resp) = client.post_json("/v1/count", &body).unwrap();
    assert_eq!(status, 200);
    let counts: Vec<usize> = resp
        .get("counts")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|c| c.as_usize().unwrap())
        .collect();
    assert_eq!(counts, vec![2, 2, 0]);
    assert_eq!(resp.get("cache_hits").unwrap().as_usize(), Some(0));
    // Second round: all three come from the cache.
    let (_, resp) = client.post_json("/v1/count", &body).unwrap();
    assert_eq!(resp.get("cache_hits").unwrap().as_usize(), Some(3));
    // Bypass flag: identical answers, no cache involvement.
    let mut bypass = body.clone();
    if let Json::Obj(m) = &mut bypass {
        m.insert("cache".into(), Json::Bool(false));
    }
    let (_, resp) = client.post_json("/v1/count", &bypass).unwrap();
    assert_eq!(resp.get("cache_hits").unwrap().as_usize(), Some(0));

    // Batched occurrences with a limit: totals are full, lists truncated.
    let body = obj(&[
        (
            "paths",
            Json::Arr(vec![path_json(&[1, 2]), path_json(&[0])]),
        ),
        ("limit", 1usize.into()),
    ]);
    let (status, resp) = client.post_json("/v1/occurrences", &body).unwrap();
    assert_eq!(status, 200);
    let results = resp.get("results").unwrap().as_arr().unwrap();
    let direct = corpus()
        .occurrences(Path::new(&[1, 2]))
        .unwrap()
        .collect_sorted();
    assert_eq!(
        results[0].get("total").unwrap().as_usize().unwrap(),
        direct.len()
    );
    assert_eq!(
        occ_pairs(results[0].get("occurrences").unwrap()),
        direct[..1]
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn error_taxonomy_maps_onto_statuses_over_the_wire() {
    let (handle, join) = start(corpus(), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    let kind_of = |resp: &str| {
        Json::parse(resp)
            .unwrap()
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };

    // Malformed JSON → 400 malformed_json.
    let (status, resp) = client.post("/v1/count", "{not json").unwrap();
    assert_eq!((status, kind_of(&resp).as_str()), (400, "malformed_json"));
    // Unknown edge → 400 unknown_edge (QueryError taxonomy).
    let (status, resp) = client.post_json("/v1/count", &count_req(&[99])).unwrap();
    assert_eq!(
        (status, kind_of(&resp.render()).as_str()),
        (400, "unknown_edge")
    );
    // Empty pattern → 400 empty_pattern.
    let (status, resp) = client.post_json("/v1/count", &count_req(&[])).unwrap();
    assert_eq!(
        (status, kind_of(&resp.render()).as_str()),
        (400, "empty_pattern")
    );
    // Missing member → 400 invalid_input.
    let (status, resp) = client.post("/v1/count", "{}").unwrap();
    assert_eq!((status, kind_of(&resp).as_str()), (400, "invalid_input"));
    // Unknown route → 404, wrong method → 405.
    let (status, _) = client.get("/v1/nope").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.get("/v1/count").unwrap();
    assert_eq!(status, 405);
    // An absent path is NOT an error at any layer.
    let (status, resp) = client.post_json("/v1/count", &count_req(&[3, 0])).unwrap();
    assert_eq!(status, 200);
    assert_eq!(resp.get("count").unwrap().as_usize(), Some(0));

    // Locate without sampling support → 422 locate_unsupported.
    let no_locate = ShardedBuilder::new()
        .shards(2)
        .build(&[vec![0u32, 1], vec![1, 0]], 2);
    let (h2, j2) = start(no_locate, ServeConfig::default());
    let mut c2 = Client::connect(h2.addr()).unwrap();
    let (status, resp) = c2.post_json("/v1/locate", &count_req(&[0, 1])).unwrap();
    assert_eq!(
        (status, kind_of(&resp.render()).as_str()),
        (422, "locate_unsupported")
    );
    h2.shutdown();
    j2.join().unwrap();

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn zero_deadline_sheds_queries_with_503() {
    let (handle, join) = start(
        corpus(),
        ServeConfig {
            deadline: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(handle.addr()).unwrap();
    let (status, resp) = client.post_json("/v1/count", &count_req(&[0, 1])).unwrap();
    assert_eq!(status, 503, "{resp:?}");
    assert_eq!(
        resp.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("deadline_exceeded")
    );
    // Health and metrics are exempt from the deadline.
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn full_accept_queue_sheds_with_429() {
    // One worker, queue depth 1. A connected idle client *owns* the
    // worker for its keep-alive lifetime, a second connection fills the
    // queue, so a third must be shed with 429 + Retry-After.
    let (handle, join) = start(
        corpus(),
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    );
    let mut holder = Client::connect(handle.addr()).unwrap();
    let (status, _) = holder.get("/healthz").unwrap(); // bind worker to this conn
    assert_eq!(status, 200);
    let _queued = TcpStream::connect(handle.addr()).unwrap(); // fills the queue
    std::thread::sleep(Duration::from_millis(100)); // let accept loop enqueue it

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut shed_seen = false;
    while Instant::now() < deadline {
        let mut c = Client::connect(handle.addr()).unwrap();
        match c.get("/healthz") {
            Ok((429, body)) => {
                let parsed = Json::parse(&body).unwrap();
                assert_eq!(
                    parsed.get("error").unwrap().get("kind").unwrap().as_str(),
                    Some("overloaded")
                );
                shed_seen = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(shed_seen, "no 429 observed under a saturated accept queue");
    drop(holder);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn graceful_drain_finishes_in_flight_and_refuses_new_connects() {
    let (handle, join) = start(corpus(), ServeConfig::default());
    let addr = handle.addr();

    // Open a connection and send only half the request, so it is
    // genuinely in flight when the drain starts.
    let mut inflight = TcpStream::connect(addr).unwrap();
    inflight.set_nodelay(true).unwrap();
    let body = r#"{"path":[0,1]}"#;
    let head = format!(
        "POST /v1/count HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    inflight.write_all(head.as_bytes()).unwrap();
    inflight.write_all(&body.as_bytes()[..5]).unwrap();
    inflight.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50)); // worker is mid-read

    handle.shutdown();

    // Finish the request: it must complete with a correct answer and
    // Connection: close.
    inflight.write_all(&body.as_bytes()[5..]).unwrap();
    inflight.flush().unwrap();
    let mut response = String::new();
    inflight.read_to_string(&mut response).unwrap(); // server closes after
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("Connection: close"), "{response}");
    assert!(response.contains("\"count\":2"), "{response}");

    // run() returns once the drain completes...
    join.join().unwrap();
    // ...and the port no longer accepts connections.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(refused.is_err(), "listener still accepting after drain");
}

#[test]
fn pipelined_requests_on_one_connection() {
    let (handle, join) = start(corpus(), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    // Write two requests back-to-back before reading either response.
    let b1 = r#"{"path":[0,1]}"#;
    let raw = format!(
        "POST /v1/count HTTP/1.1\r\nContent-Length: {}\r\n\r\n{b1}GET /healthz HTTP/1.1\r\n\r\n",
        b1.len()
    );
    client.send_raw(raw.as_bytes()).unwrap();
    let (s1, r1) = client.read_response().unwrap();
    let (s2, r2) = client.read_response().unwrap();
    assert_eq!(s1, 200);
    assert!(r1.contains("\"count\":2"), "{r1}");
    assert_eq!(s2, 200);
    assert!(r2.contains("\"status\":\"ok\""), "{r2}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn metrics_endpoint_exposes_serving_counters() {
    let (handle, join) = start(corpus(), ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.post_json("/v1/count", &count_req(&[0, 1])).unwrap();
    client.post_json("/v1/count", &count_req(&[0, 1])).unwrap();
    let (status, text) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    for needle in [
        "# TYPE cinct_serve_requests_total counter",
        "cinct_serve_cache_hits_total",
        "cinct_serve_request_ns",
        "cinct_serve_workers",
        "cinct_queries_total", // core catalog rides along
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    handle.shutdown();
    join.join().unwrap();
}
