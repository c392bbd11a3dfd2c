//! The traced run: per-layer counters from the workload's own traffic,
//! a span ladder over a sample of its operations, and the layer
//! microbenchmarks of [`crate::layers`].
//!
//! The ladder replays each sampled operation once per rung, from the
//! client round trip down to the rank calls of its backward search,
//! through public entry points only, and records one span per rung:
//!
//! ```text
//! request                 client round trip (root of a served operation)
//! ├ http.read_request     the request bytes, parsed from a buffer
//! ├ json.parse            the body, parsed as the server parses it
//! ├ service.*             CorpusService, cache bypassed
//! │ └ shard.*             ShardedCinct (root of a direct operation's tree
//! │   │                   sits one rung up, at engine.run_one)
//! │   └ index.*  [shard]  each visited shard's CinctIndex
//! │     └ succinct.rank   the paired wavelet ranks of that shard's search
//! ├ json.render           the answer, rendered as the server renders it
//! └ http.write_response   the response, written to a buffer
//! ```
//!
//! Rungs run one after another, not nested in time, so a span's children
//! are given by its `parent` field and a layer's self time is a span's
//! duration minus its children's durations. Every replay bypasses the
//! result cache (`"cache":false`): the ladder shows where the time of a
//! *computed* answer goes; how often the cache spares that work is
//! `cache.hit_ratio`, and what a hit costs is `cache.get_hit_ns`.

use crate::layers;
use crate::load::{self, Phase};
use crate::metrics::Report;
use crate::rng::Rng;
use crate::setup::{Env, Kind, Spec};
use crate::stats::{self, Windows, MIN_WINDOW_SAMPLES};
use crate::workloads::{self, InProcess, Inputs, Op, Traffic};
use crate::Args;
use cinct::engine::QueryEngine;
use cinct::{CinctIndex, Path, PathQuery, ShardedCinct};
use cinct_serve::http::{self, Limits, NextRequest, Response};
use cinct_serve::json::{self, obj_move, Json};
use cinct_serve::{Client, CorpusService};
use cinct_succinct::SymbolSeq;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Single-path operations in a traced sample; a batched workload traces
/// [`TRACE_BATCHES`] requests instead (each is 128 paths).
const TRACE_OPS: usize = 2000;
const TRACE_BATCHES: usize = 100;
/// Paths per `count_batch` call, as the server chunks a batch between
/// deadline checks.
const SERVICE_CHUNK: usize = 32;
/// Length of the fixed-rate phase behind `server.open_*` and its
/// request rate, for one path a request and for 128: a fraction of what
/// the closed loop reaches, and a thousand samples at least.
const OPEN_LOOP: Duration = Duration::from_millis(2500);
const OPEN_LOOP_RATE: u32 = 2000;
const OPEN_LOOP_RATE_BATCHED: u32 = 400;
/// Pairs of unrecorded and recorded passes behind
/// `trace.overhead_share`.
const OVERHEAD_PAIRS: usize = 9;
/// Passes over the in-process rungs; the fastest is kept.
const RUNG_PASSES: usize = 3;

#[derive(Clone)]
pub struct Span {
    id: u32,
    /// 0 for a root.
    parent: u32,
    request: u32,
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of one traced sample, kept in memory until the run ends.
#[derive(Clone)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as a span under `parent`; returns the span's ID.
    fn span<T>(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (self.push(parent, request, name, start, end), out)
    }

    /// Record a span timed elsewhere (a load thread's round trip).
    fn push(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let layer = name
            .split('.')
            .next()
            .expect("split yields at least one piece");
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            layer,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        id
    }

    /// Nanoseconds of self time per layer, the roots' total, and the
    /// mean self time of a root. Rungs are replayed at different
    /// moments, so one span's children can come out slower than it did;
    /// its negative remainder is kept, and cancels against its
    /// neighbours' positive ones within the layer's sum.
    fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64, f64) {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        for s in &self.spans {
            if s.parent != 0 {
                own[s.parent as usize - 1] -= (s.end_ns - s.start_ns) as f64;
            }
        }
        let mut by_layer = BTreeMap::new();
        let (mut roots, mut root_total, mut root_self) = (0usize, 0.0, 0.0);
        for (s, own) in self.spans.iter().zip(&own) {
            *by_layer.entry(s.layer).or_insert(0.0) += own;
            if s.parent == 0 {
                roots += 1;
                root_total += (s.end_ns - s.start_ns) as f64;
                root_self += own;
            }
        }
        (by_layer, root_total, root_self / roots.max(1) as f64)
    }

    fn write(&self, workload: &str, seed: u64) -> std::io::Result<std::path::PathBuf> {
        let (by_layer, root_total, _) = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 96 + 256);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"root_ns\":{root_total},\"self_ns_by_layer\":{{");
        for (i, (layer, ns)) in by_layer.iter().enumerate() {
            let _ = write!(out, "{}\"{layer}\":{ns}", if i > 0 { "," } else { "" });
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if i > 0 { "," } else { "" },
                s.id,
                s.parent,
                s.request,
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("]}\n");
        let path = crate::out_dir().join(format!("trace-{workload}.json"));
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

/// Add the in-process rungs under the root spans already in `roots`,
/// [`RUNG_PASSES`] times over, and keep the pass whose spans took the
/// least time in total: the one the host disturbed least (see
/// [`crate::stats`] on why the fast side).
fn fastest_rungs(roots: &Recorder, mut rungs: impl FnMut(&mut Recorder)) -> Recorder {
    let cost = |rec: &Recorder| -> u64 {
        rec.spans[roots.spans.len()..]
            .iter()
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    };
    let mut best: Option<Recorder> = None;
    for _ in 0..RUNG_PASSES {
        let mut rec = roots.clone();
        rungs(&mut rec);
        if best.as_ref().map_or(true, |b| cost(&rec) < cost(b)) {
            best = Some(rec);
        }
    }
    best.expect("at least one pass")
}

/// What an operation asks of the corpus, as borrowed paths.
enum Work<'a> {
    Count(Vec<&'a [u32]>),
    List(Vec<&'a [u32]>),
    Extract(usize),
}

impl<'a> Work<'a> {
    fn of(op: &Op, inputs: &'a Inputs) -> Work<'a> {
        let counts = |picks: &[usize]| {
            picks
                .iter()
                .map(|&i| &inputs.counts.patterns[i][..])
                .collect()
        };
        let lists = |picks: &[usize]| {
            picks
                .iter()
                .map(|&i| &inputs.locates.patterns[i][..])
                .collect()
        };
        match op {
            Op::Count(i) => Work::Count(counts(&[*i])),
            Op::CountBatch(picks) => Work::Count(counts(picks)),
            Op::Locate(i) => Work::List(lists(&[*i])),
            Op::ListBatch(picks) => Work::List(lists(picks)),
            Op::Extract(id) => Work::Extract(*id),
        }
    }
}

/// The `(label, sp, ep)` arguments of every paired rank the backward
/// search for `path` makes on `index`'s labeled BWT (paper Algorithm 3;
/// finding the label and its correction term is the index's own work).
fn rank_calls(index: &CinctIndex, path: &[u32], out: &mut Vec<(u32, usize, usize)>) {
    let c = index.c_array();
    let mut symbols = Path::new(path).search_symbols();
    let Some(mut context) = symbols.next() else {
        return;
    };
    if context as usize >= index.sigma() {
        return;
    }
    let (mut sp, mut ep) = (c.get(context), c.get(context + 1));
    for w in symbols {
        if sp >= ep || w as usize >= index.sigma() {
            return;
        }
        let Some((label, z)) = index.rml().label_and_z(w, context) else {
            return;
        };
        out.push((label, sp, ep));
        let (rsp, rep) = index.labeled_bwt().rank_pair(label, sp, ep);
        sp = (c.get(w) as i64 + rsp as i64 - z) as usize;
        ep = (c.get(w) as i64 + rep as i64 - z) as usize;
        context = w;
    }
}

/// The rungs from `ShardedCinct` down, under `parent`.
fn shard_rungs(rec: &mut Recorder, parent: u32, request: u32, work: &Work, corpus: &ShardedCinct) {
    match work {
        Work::Count(paths) => {
            let (shard, _) = rec.span(parent, request, "shard.count", || {
                paths
                    .iter()
                    .map(|p| corpus.count(Path::new(p)))
                    .sum::<usize>()
            });
            for s in 0..corpus.num_shards() {
                let index = corpus.shard_index(s);
                let visited: Vec<&[u32]> = paths
                    .iter()
                    .copied()
                    .filter(|p| corpus.pruned_edge(s, Path::new(p)).is_none())
                    .collect();
                if visited.is_empty() {
                    continue;
                }
                let (span, _) = rec.span(shard, request, "index.count_path", || {
                    visited.iter().map(|p| index.count_path(p)).sum::<usize>()
                });
                let mut calls = Vec::new();
                visited
                    .iter()
                    .for_each(|p| rank_calls(index, p, &mut calls));
                rec.span(span, request, "succinct.rank", || {
                    for &(label, sp, ep) in &calls {
                        black_box(index.labeled_bwt().rank_pair(label, sp, ep));
                    }
                });
            }
        }
        Work::List(paths) => {
            let (shard, _) = rec.span(parent, request, "shard.occurrences", || {
                paths
                    .iter()
                    .map(|p| {
                        corpus
                            .occurrences(Path::new(p))
                            .map_or(0, |it| it.collect_sorted().len())
                    })
                    .sum::<usize>()
            });
            for s in 0..corpus.num_shards() {
                let index = corpus.shard_index(s);
                let visited: Vec<&[u32]> = paths
                    .iter()
                    .copied()
                    .filter(|p| corpus.pruned_edge(s, Path::new(p)).is_none())
                    .collect();
                if visited.is_empty() {
                    continue;
                }
                rec.span(shard, request, "index.occurrences", || {
                    visited
                        .iter()
                        .map(|p| {
                            index
                                .occurrences(Path::new(p))
                                .map_or(0, |it| it.collect_sorted().len())
                        })
                        .sum::<usize>()
                });
            }
        }
        Work::Extract(id) => {
            let (shard, _) = rec.span(parent, request, "shard.trajectory", || {
                corpus.try_trajectory(*id)
            });
            let (s, local) = corpus.shard_of(*id);
            rec.span(shard, request, "index.trajectory", || {
                corpus.shard_index(s).trajectory(local)
            });
        }
    }
}

/// The values of an answer, computed, not yet JSON.
enum Answer {
    Count(usize),
    Counts(Vec<usize>),
    Listing(Vec<(usize, usize)>),
    Totals(Vec<usize>),
    Symbols(Vec<u32>),
}

impl Answer {
    /// Ask the service, cache bypassed, as the server's handlers do: one
    /// call for a single path, [`SERVICE_CHUNK`]-path calls for a batch
    /// (`owned` is the batch's paths in the shape those calls take).
    fn of(work: &Work, owned: &[Vec<u32>], service: &CorpusService) -> Answer {
        const VALID: &str = "pool patterns and IDs are valid";
        match work {
            Work::Count(paths) if paths.len() == 1 => {
                Answer::Count(service.count(paths[0], false).expect(VALID).0)
            }
            Work::Count(_) => Answer::Counts(
                owned
                    .chunks(SERVICE_CHUNK)
                    .flat_map(|chunk| service.count_batch(chunk, false).expect(VALID).0)
                    .collect(),
            ),
            Work::List(paths) if paths.len() == 1 => Answer::Listing(
                service
                    .occurrences(paths[0], false)
                    .expect(VALID)
                    .0
                    .to_vec(),
            ),
            Work::List(_) => Answer::Totals(
                owned
                    .chunks(SERVICE_CHUNK)
                    .flat_map(|chunk| service.occurrences_batch(chunk, false).expect(VALID).0)
                    .map(|listing| listing.len())
                    .collect(),
            ),
            Work::Extract(id) => Answer::Symbols(service.trajectory(*id).expect(VALID)),
        }
    }

    /// Build and render the body the way the server's handlers do.
    fn render(self, epoch: u64) -> Response {
        let tail = |mut fields: Vec<(&'static str, Json)>| {
            fields.push(("epoch", epoch.into()));
            fields.push(("elapsed_ns", 0usize.into()));
            obj_move(fields)
        };
        let body = match self {
            Answer::Count(n) => tail(vec![("count", n.into()), ("cached", false.into())]),
            Answer::Counts(counts) => tail(vec![
                ("counts", counts.into()),
                ("cache_hits", 0usize.into()),
            ]),
            Answer::Listing(occ) => {
                let listing = Json::Arr(
                    occ.iter()
                        .map(|&(t, o)| Json::Arr(vec![t.into(), o.into()]))
                        .collect(),
                );
                tail(vec![
                    ("total", occ.len().into()),
                    ("occurrences", listing),
                    ("cached", false.into()),
                ])
            }
            Answer::Totals(totals) => {
                let results = totals
                    .into_iter()
                    .map(|n| {
                        obj_move(vec![
                            ("total", n.into()),
                            ("occurrences", Json::Arr(Vec::new())),
                        ])
                    })
                    .collect();
                tail(vec![
                    ("results", Json::Arr(results)),
                    ("cache_hits", 0usize.into()),
                ])
            }
            Answer::Symbols(symbols) => {
                obj_move(vec![("symbols", symbols.into()), ("epoch", epoch.into())])
            }
        };
        Response::json(200, &body)
    }
}

/// The in-process rungs of one served operation, under its root span.
fn served_rungs(
    rec: &mut Recorder,
    root: u32,
    request: u32,
    op: &Op,
    body: &str,
    traffic: &Traffic,
    service: &CorpusService,
) {
    let raw = format!(
        "POST {} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        op.target(),
        body.len()
    );
    let (_, parsed) = rec.span(root, request, "http.read_request", || {
        http::read_request(&mut raw.as_bytes(), &Limits::default())
    });
    let Ok(NextRequest::Request(req)) = parsed else {
        panic!("the harness's own request did not parse")
    };
    let text = std::str::from_utf8(&req.body).expect("request body is UTF-8");
    rec.span(root, request, "json.parse", || match op {
        Op::Extract(_) => black_box(Json::parse(text).is_ok()),
        _ => black_box(json::parse_fast_query(text).is_some()),
    });

    // The service rung keeps its answer: rendering needs the values.
    let work = Work::of(op, traffic.inputs);
    let name = match (&work, op.paths()) {
        (Work::Count(_), 1) => "service.count",
        (Work::Count(_), _) => "service.count_batch",
        (Work::List(_), 1) => "service.occurrences",
        (Work::List(_), _) => "service.occurrences_batch",
        (Work::Extract(_), _) => "service.trajectory",
    };
    let owned: Vec<Vec<u32>> = match &work {
        Work::Count(paths) | Work::List(paths) => paths.iter().map(|p| p.to_vec()).collect(),
        Work::Extract(_) => Vec::new(),
    };
    let (svc, answer) = rec.span(root, request, name, || Answer::of(&work, &owned, service));
    service.with_corpus(|corpus| shard_rungs(rec, svc, request, &work, corpus));

    let epoch = service.epoch();
    let (_, response) = rec.span(root, request, "json.render", || answer.render(epoch));
    let mut wire = Vec::with_capacity(response.body.len() + 128);
    rec.span(root, request, "http.write_response", || {
        response.write_to(&mut wire).is_ok()
    });
}

/// Trace a sample of a served workload's operations. Returns the
/// recorder, the overhead of recording, and `(checked, wrong)`.
fn trace_served(spec: &Spec, env: &Env, inputs: &Inputs, seed: u64) -> (Recorder, f64, (u64, u64)) {
    let traffic = Traffic::new(spec, env, inputs);
    let served = env.served();
    let service = served.handle().service();
    let mut rng = Rng::stream(seed, 20);
    let n = if spec.kind == Kind::ServeHotBatch {
        TRACE_BATCHES
    } else {
        TRACE_OPS
    };
    let ops: Vec<Op> = (0..n).map(|_| traffic.draw(&mut rng)).collect();
    let bodies: Vec<String> = ops
        .iter()
        .map(|op| {
            let mut body = String::new();
            traffic.render(op, true, &mut body);
            body
        })
        .collect();
    // Round trips over as many connections as the load phase holds, each
    // sending its share of the sample back to back: the conditions the
    // end-to-end numbers were taken under. One connection alone would
    // leave a core idle and add its wake-up to every round trip.
    let connections = served.max_connections().min(2);
    let share = ops.len().div_ceil(connections);
    let mut clients: Vec<Client> = (0..connections)
        .map(|_| Client::connect(served.addr()).expect("trace connection"))
        .collect();
    let (mut checked, mut wrong) = (0u64, 0u64);
    // One pass over the sample; `record` keeps a start and an end per
    // request. Returns the pass's wall time and what it kept.
    let mut round_trips = |record: bool| -> (f64, Vec<(Instant, Instant)>) {
        let t0 = Instant::now();
        let mut spans = Vec::with_capacity(ops.len());
        std::thread::scope(|s| {
            let parts: Vec<_> = clients
                .iter_mut()
                .zip(ops.chunks(share).zip(bodies.chunks(share)))
                .map(|(client, (ops, bodies))| {
                    let traffic = &traffic;
                    s.spawn(move || {
                        let mut spans = Vec::with_capacity(if record { ops.len() } else { 0 });
                        let mut wrong = 0u64;
                        for (op, body) in ops.iter().zip(bodies) {
                            let answer = if record {
                                let start = Instant::now();
                                let answer = client.post(op.target(), body);
                                spans.push((start, Instant::now()));
                                answer
                            } else {
                                client.post(op.target(), body)
                            };
                            wrong += u64::from(
                                !answer
                                    .is_ok_and(|(status, body)| traffic.check(op, status, &body)),
                            );
                        }
                        (spans, wrong)
                    })
                })
                .collect();
            for part in parts {
                let (part_spans, part_wrong) = part.join().expect("trace connection thread");
                spans.extend(part_spans);
                wrong += part_wrong;
            }
        });
        checked += ops.len() as u64;
        (t0.elapsed().as_secs_f64(), spans)
    };
    let mut rec = Recorder::new();
    round_trips(false);
    // The root spans come from the fastest recorded pass: the one the
    // host disturbed least.
    let mut fastest: Option<(f64, Vec<(Instant, Instant)>)> = None;
    let overhead = overhead_share(|record| {
        let (seconds, kept) = round_trips(record);
        if record && fastest.as_ref().map_or(true, |(best, _)| seconds < *best) {
            fastest = Some((seconds, kept));
        }
        seconds
    });
    drop(clients);
    let (_, spans) = fastest.expect("at least one recorded pass");
    let roots: Vec<u32> = spans
        .iter()
        .enumerate()
        .map(|(request, &(start, end))| rec.push(0, request as u32, "server.request", start, end))
        .collect();
    let rec = fastest_rungs(&rec, |rec| {
        for (request, ((op, body), &root)) in ops.iter().zip(&bodies).zip(&roots).enumerate() {
            served_rungs(rec, root, request as u32, op, body, &traffic, service);
        }
    });
    (rec, overhead, (checked, wrong))
}

/// Trace a sample of `direct_query`'s operations: the root is the call
/// a library user makes, and each call's rungs are replayed right after
/// it (nothing here needs a second connection's load to be realistic).
fn trace_direct(spec: &Spec, env: &Env, inputs: &Inputs, seed: u64) -> (Recorder, f64, (u64, u64)) {
    let traffic = Traffic::new(spec, env, inputs);
    let mut rng = Rng::stream(seed, 20);
    let ops: Vec<Op> = (0..TRACE_OPS).map(|_| traffic.draw(&mut rng)).collect();
    let calls: Vec<InProcess> = ops.iter().map(|op| InProcess::of(op, inputs)).collect();
    let (mut checked, mut wrong) = (0u64, 0u64);
    env.with_corpus(|corpus| {
        let engine = QueryEngine::new(corpus);
        let root_name = |call: &InProcess| match call {
            InProcess::Extract(_) => "shard.trajectory",
            InProcess::Engine(..) => "engine.run_one",
        };
        // The calls alone, with and without a span around each.
        let mut pass = |record: bool| {
            let mut rec = Recorder::new();
            let t0 = Instant::now();
            for (request, call) in calls.iter().enumerate() {
                let ok = if record {
                    rec.span(0, request as u32, root_name(call), || {
                        call.run(&engine, corpus, traffic.trajectories)
                    })
                    .1
                } else {
                    call.run(&engine, corpus, traffic.trajectories)
                };
                checked += 1;
                wrong += u64::from(!ok);
            }
            t0.elapsed().as_secs_f64()
        };
        pass(false);
        let overhead = overhead_share(&mut pass);

        let rec = fastest_rungs(&Recorder::new(), |rec| {
            for (request, (op, call)) in ops.iter().zip(&calls).enumerate() {
                let request = request as u32;
                let (root, _) = rec.span(0, request, root_name(call), || {
                    call.run(&engine, corpus, traffic.trajectories)
                });
                let work = Work::of(op, inputs);
                match &work {
                    // The root already is the shard rung.
                    Work::Extract(id) => {
                        let (s, local) = corpus.shard_of(*id);
                        rec.span(root, request, "index.trajectory", || {
                            corpus.shard_index(s).trajectory(local)
                        });
                    }
                    _ => shard_rungs(rec, root, request, &work, corpus),
                }
            }
        });
        (rec, overhead, (checked, wrong))
    })
}

/// Median over [`OVERHEAD_PAIRS`] of how much longer a recorded pass
/// takes than an unrecorded one, as a share of the latter. The order
/// within a pair alternates, so a host that drifts one way during the
/// measurement pushes successive pairs opposite ways.
fn overhead_share(mut pass: impl FnMut(bool) -> f64) -> f64 {
    let shares = (0..OVERHEAD_PAIRS).map(|pair| {
        let (untraced, traced) = if pair % 2 == 0 {
            let untraced = pass(false);
            (untraced, pass(true))
        } else {
            let traced = pass(true);
            (pass(false), traced)
        };
        (traced - untraced) / untraced
    });
    stats::median(shares.collect())
}

/// Values of the program's own counters, for before-and-after deltas.
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    cache_stale: u64,
    cache_evictions: u64,
    shed: u64,
    errors: u64,
    append_ns: (u64, u64),
    fanout_queries: u64,
    visited: u64,
    pruned: u64,
    union_rejects: u64,
}

impl Counters {
    fn read() -> Counters {
        let s = cinct_serve::metrics::serve();
        let f = cinct::metrics::shard();
        Counters {
            cache_hits: s.cache_hits.get(),
            cache_misses: s.cache_misses.get(),
            cache_stale: s.cache_stale.get(),
            cache_evictions: s.cache_evictions.get(),
            shed: s.shed.get(),
            errors: s.errors.get(),
            append_ns: (s.append_ns.sum(), s.append_ns.count()),
            fanout_queries: f.fanout_queries.get(),
            visited: f.fanout_shards_visited.get(),
            pruned: f.fanout_shards_pruned.get(),
            union_rejects: f.fanout_union_rejects.get(),
        }
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced run of one workload. Returns `(checked, wrong)`.
pub fn run(spec: &Spec, env: Env, inputs: &Inputs, args: &Args, report: &mut Report) -> (u64, u64) {
    let (mut checked, mut wrong) = (0u64, 0u64);
    let mut tally = |(c, w): (u64, u64)| {
        checked += c;
        wrong += w;
    };

    // 1. The workload's own traffic, with the program's counters read
    //    before and after.
    let before = Counters::read();
    if spec.served {
        let run = workloads::run_load(spec, &env, inputs, args.seed, args.seconds);
        tally((
            run.reads.attempted + run.appends.attempted,
            run.reads.failed + run.appends.failed,
        ));
        let windows = Windows::cut(
            &run.reads.samples,
            spec.window_ns(),
            spec.windows_in(args.seconds),
            MIN_WINDOW_SAMPLES,
        );
        assert!(
            !windows.kept.is_empty(),
            "no window reached {MIN_WINDOW_SAMPLES} requests: nothing to report"
        );
        report.set("server.req_p90_us", windows.median_of(|w| w.p90_us));
        report.set("server.req_p99_us", windows.median_of(|w| w.p99_us));
        report.set("server.req_max_us", windows.median_of(|w| w.max_us));
        report.set("loadgen.samples", windows.samples() as f64);
        report.set("loadgen.windows_dropped", windows.dropped as f64);

        // Fixed-rate reads on one connection, timed from when each was
        // due. Reported, never bounded: at this rate a core idles
        // between requests, so the median is mostly its wake-up and the
        // tail is the shared host's.
        let batched = spec.kind == Kind::ServeHotBatch;
        let interval = Duration::from_secs(1)
            / if batched {
                OPEN_LOOP_RATE_BATCHED
            } else {
                OPEN_LOOP_RATE
            };
        let count = (OPEN_LOOP.as_secs_f64() / interval.as_secs_f64()) as usize;
        let phase = Phase::starting_in(Duration::from_millis(100), OPEN_LOOP);
        let mut plan =
            workloads::ReadPlan::new(Traffic::new(spec, &env, inputs), Rng::stream(args.seed, 30));
        let open = load::fixed_schedule(env.served().addr(), &mut plan, phase, interval, count);
        tally((open.attempted, open.failed));
        let mut lat: Vec<f64> = open
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e3)
            .collect();
        stats::sort(&mut lat);
        report.set("server.open_p50_us", stats::nearest_rank(&lat, 0.50));
        report.set("server.open_p99_us", stats::nearest_rank(&lat, 0.99));
        report.set(
            "loadgen.late_max_us",
            open.late_max_ns.max(run.appends.late_max_ns) as f64 / 1e3,
        );

        let mut appends: Vec<f64> = run
            .appends
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        if !appends.is_empty() {
            stats::sort(&mut appends);
            report.set("server.append_p50_ms", stats::nearest_rank(&appends, 0.50));
            report.set("server.append_p90_ms", stats::nearest_rank(&appends, 0.90));
        }
    } else {
        let run = workloads::run_direct(spec, &env, inputs, args.seed, args.seconds as f64);
        tally((run.tally.attempted, run.tally.failed));
        report.set("loadgen.samples", run.tally.attempted as f64);
    }
    let after = Counters::read();
    let lookups =
        (after.cache_hits - before.cache_hits) + (after.cache_misses - before.cache_misses);
    let fanouts = after.fanout_queries - before.fanout_queries;
    let (visited, pruned) = (after.visited - before.visited, after.pruned - before.pruned);
    report.set("shard.visited_per_query", share(visited, fanouts));
    report.set("prune.skipped_share", share(pruned, visited + pruned));
    report.set(
        "prune.union_reject_share",
        share(after.union_rejects - before.union_rejects, fanouts),
    );
    if spec.served {
        report.set(
            "cache.hit_ratio",
            share(after.cache_hits - before.cache_hits, lookups),
        );
        report.set(
            "cache.evictions",
            (after.cache_evictions - before.cache_evictions) as f64,
        );
        report.set(
            "cache.stale",
            (after.cache_stale - before.cache_stale) as f64,
        );
        report.set("server.shed", (after.shed - before.shed) as f64);
        report.set("server.errors", (after.errors - before.errors) as f64);
        let appended = after.append_ns.1 - before.append_ns.1;
        if appended > 0 {
            report.set(
                "service.append_ms",
                (after.append_ns.0 - before.append_ns.0) as f64 / appended as f64 / 1e6,
            );
        }
    }

    // 2. The span ladder over a sample of the same operations.
    let (rec, overhead, counted) = if spec.served {
        trace_served(spec, &env, inputs, args.seed)
    } else {
        trace_direct(spec, &env, inputs, args.seed)
    };
    tally(counted);
    let (by_layer, root_total, root_self) = rec.self_times();
    report.set("trace.spans", rec.spans.len() as f64);
    report.set("trace.overhead_share", overhead);
    // Signed self times sum to the roots' total by construction; a layer
    // whose sum is negative had children replay slower than the layer
    // itself ran, and counting it as zero pushes coverage above 1.
    report.set(
        "trace.self_time_coverage",
        by_layer.values().map(|ns| ns.max(0.0)).sum::<f64>() / root_total,
    );
    if spec.served {
        report.set("server.wire_overhead_us", root_self / 1e3);
    }
    match rec.write(spec.name, args.seed) {
        Ok(path) => eprintln!("trace: {} spans in {}", rec.spans.len(), path.display()),
        Err(e) => panic!("cannot write the trace file: {e}"),
    }
    for (layer, ns) in &by_layer {
        eprintln!(
            "trace: self time {layer:<9} {:>6.1}%",
            100.0 * ns / root_total
        );
    }

    // 3. Each layer on its own.
    layers::measure(spec, &env, inputs, args.seed, report);
    for layer in [
        "wal", "json", "http", "cache", "service", "server", "shard", "loadgen",
    ] {
        report.not_exercised(layer);
    }
    if inputs.appends() > 0 {
        tally(workloads::verify_ingest(spec, env, inputs));
    }
    (checked, wrong)
}
