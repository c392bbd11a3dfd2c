//! The four workloads: what each builds, what traffic it sends, and how
//! every answer is checked. README.md gives the reason for each.

use crate::corpus::{sample_windows, selective_windows, Generator};
use crate::direct;
use crate::load::{self, ConnReport, Phase, Plan, Req};
use crate::oracle::PatternIndex;
use crate::pools::{CountPool, LocatePool};
use crate::rng::{Rng, Zipf};
use crate::setup::{Env, Kind, Spec};
use cinct::engine::{Query, QueryEngine, QueryValue};
use cinct::{Path, PathQuery, ShardedCinct};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::DirectQuery,
        name: "direct_query",
        generator: Generator::Singapore,
        scale: 4.0,
        shards: 4,
        served: false,
        base_fraction: 1.0,
        fingerprint: 0xcfaa_afa9_8e62_3eee,
        window_ms: 500,
    },
    Spec {
        kind: Kind::ServeMiss,
        name: "serve_miss",
        generator: Generator::Singapore,
        scale: 4.0,
        shards: 4,
        served: true,
        base_fraction: 1.0,
        fingerprint: 0xcfaa_afa9_8e62_3eee,
        window_ms: 500,
    },
    Spec {
        kind: Kind::ServeHotBatch,
        name: "serve_hot_batch",
        generator: Generator::Chess,
        scale: 2.0,
        shards: 8,
        served: true,
        base_fraction: 1.0,
        fingerprint: 0x5da4_1a3a_ea53_479e,
        window_ms: 1000,
    },
    Spec {
        kind: Kind::IngestMixed,
        name: "ingest_mixed",
        generator: Generator::Singapore,
        scale: 4.0,
        shards: 4,
        served: true,
        base_fraction: 0.9,
        fingerprint: 0xcfaa_afa9_8e62_3eee,
        window_ms: 500,
    },
];

/// One line per workload for `BENCHMARK.json`.
pub const WHY: [(&str, &str); 4] = [
    ("direct_query", "the paper's count, locate and extract called in process on a reopened 4-shard corpus: index, succinct and shard do all the work, the serve stack none"),
    ("serve_miss", "unbatched single-path requests over 200k distinct patterns, so the cache misses and the per-request cost of http, json, server and service dominates the search"),
    ("serve_hot_batch", "128-path batches, Zipf-popular over 50k patterns on a large-alphabet corpus: cache, json per-path parsing and shard pruning dominate and hits bypass the index"),
    ("ingest_mixed", "durable appends on a fixed schedule beside cached reads: every append fsyncs, mints a shard and invalidates the cache, so read-side gains that tax writes show"),
];

/// Single-path count patterns of the Singapore workloads: far more than
/// the 4096-entry result cache, so uniform draws miss it.
const MISS_POOL: usize = 200_000;
/// Pool the Zipf draws of `serve_hot_batch` rank.
const HOT_POOL: usize = 50_000;
/// Pool the Zipf draws of the `ingest_mixed` reader rank.
const INGEST_POOL: usize = 20_000;
const LOCATE_CANDIDATES: usize = 4_000;
const ZIPF_S: f64 = 1.1;
/// Paths per `serve_hot_batch` request.
pub const BATCH: usize = 128;
/// Trajectories per append.
pub const APPEND_BATCH: usize = 64;
/// Appends per second on `ingest_mixed`.
const APPEND_RATE: u32 = 5;

/// A workload's pools, schedules and expected answers.
pub struct Inputs {
    pub counts: CountPool,
    pub locates: LocatePool,
    /// Popularity over `counts` (and, restricted, over `locates`).
    zipf: Option<Zipf>,
    zipf_locates: Option<Zipf>,
    /// `ingest_mixed`: expected count of every pool pattern after `e`
    /// appends, and the rendered append bodies.
    epoch_counts: Vec<Vec<u64>>,
    append_bodies: Vec<String>,
    /// Trajectories in the corpus once every append has landed.
    pub final_len: usize,
}

impl Inputs {
    pub fn build(spec: &Spec, env: &Env, seed: u64, seconds: u64) -> Inputs {
        let all = &env.corpus.trajectories;
        let n_edges = env.corpus.n_edges;
        let mut rng = Rng::stream(seed, 1);
        match spec.kind {
            Kind::DirectQuery | Kind::ServeMiss => {
                let counts = CountPool::new(
                    sample_windows(all, &mut rng, MISS_POOL, 2..=20),
                    all,
                    n_edges,
                );
                let candidates = sample_windows(all, &mut rng, LOCATE_CANDIDATES, 5..=5);
                let locates = LocatePool::new(candidates, all, n_edges, 256);
                Inputs::plain(counts, locates, None, None, all.len())
            }
            Kind::ServeHotBatch => {
                let mut patterns = sample_windows(all, &mut rng, HOT_POOL / 2, 2..=6);
                patterns.extend(selective_windows(all, n_edges, &mut rng, HOT_POOL / 2, 4));
                rng.shuffle(&mut patterns);
                let counts = CountPool::new(patterns, all, n_edges);
                // Listings draw from the patterns that occur at most 64
                // times, kept in popularity order.
                let rare = counts
                    .patterns
                    .iter()
                    .zip(&counts.counts)
                    .filter(|(_, &c)| c <= 64);
                let locates =
                    LocatePool::new(rare.map(|(p, _)| p.clone()).collect(), all, n_edges, 64);
                let zipf = Zipf::new(counts.len(), ZIPF_S);
                let zipf_locates = Zipf::new(locates.len(), ZIPF_S);
                Inputs::plain(counts, locates, Some(zipf), Some(zipf_locates), all.len())
            }
            Kind::IngestMixed => {
                let base = &all[..env.base];
                let appends = ((APPEND_RATE as u64 * seconds) as usize)
                    .min((all.len() - env.base) / APPEND_BATCH);
                assert!(appends > 0, "corpus tail too short for one append");
                let final_len = env.base + appends * APPEND_BATCH;
                let mut counts = CountPool::new(
                    sample_windows(base, &mut rng, INGEST_POOL, 2..=20),
                    base,
                    n_edges,
                );
                let index = PatternIndex::new(&counts.patterns, n_edges);
                let mut epoch_counts = vec![counts.counts.clone()];
                let mut append_bodies = Vec::with_capacity(appends);
                for (i, batch) in all[env.base..final_len].chunks(APPEND_BATCH).enumerate() {
                    let mut next = epoch_counts[i].clone();
                    index.scan(batch, 0, |p, _, _| next[p] += 1);
                    epoch_counts.push(next);
                    let paths: Vec<String> = batch
                        .iter()
                        .map(|t| crate::corpus::render_path(t))
                        .collect();
                    append_bodies.push(format!(
                        "{{\"key\":\"append-{i}\",\"batch\":[{}]}}",
                        paths.join(",")
                    ));
                }
                counts.counts = epoch_counts[appends].clone();
                let candidates = sample_windows(base, &mut rng, LOCATE_CANDIDATES, 5..=5);
                let locates = LocatePool::new(candidates, &all[..final_len], n_edges, 256);
                let zipf = Zipf::new(counts.len(), ZIPF_S);
                Inputs {
                    counts,
                    locates,
                    zipf: Some(zipf),
                    zipf_locates: None,
                    epoch_counts,
                    append_bodies,
                    final_len,
                }
            }
        }
    }

    fn plain(
        counts: CountPool,
        locates: LocatePool,
        zipf: Option<Zipf>,
        zipf_locates: Option<Zipf>,
        final_len: usize,
    ) -> Inputs {
        Inputs {
            counts,
            locates,
            zipf,
            zipf_locates,
            epoch_counts: Vec::new(),
            append_bodies: Vec::new(),
            final_len,
        }
    }

    pub fn appends(&self) -> usize {
        self.append_bodies.len()
    }

    /// Expected counts before any append.
    fn initial_counts(&self) -> &[u64] {
        self.epoch_counts.first().unwrap_or(&self.counts.counts)
    }

    pub fn direct<'a>(&'a self, env: &'a Env) -> direct::Inputs<'a> {
        direct::Inputs {
            counts: &self.counts,
            locates: &self.locates,
            trajectories: &env.corpus.trajectories[..self.final_len],
        }
    }
}

/// Before anything is timed: the library against the oracle on a sample
/// of 1 000 counts, 1 000 listings and 1 000 extractions. Returns
/// `(checked, wrong)`.
pub fn precheck(env: &Env, inputs: &Inputs) -> (u64, u64) {
    const SAMPLE: usize = 1000;
    let mut tally = direct::Tally::default();
    env.with_corpus(|corpus| {
        for (p, &want) in inputs
            .counts
            .patterns
            .iter()
            .zip(inputs.initial_counts())
            .take(SAMPLE)
        {
            tally.check(corpus.count(Path::new(p)) as u64 == want);
        }
        for (p, want) in inputs
            .locates
            .patterns
            .iter()
            .zip(&inputs.locates.occurrences)
            .take(SAMPLE)
        {
            // Before the appends the corpus holds only the base IDs.
            let want: Vec<(usize, usize)> = want
                .iter()
                .copied()
                .filter(|&(t, _)| t < env.base)
                .collect();
            let got = corpus
                .occurrences(Path::new(p))
                .map(|it| it.collect_sorted());
            tally.check(got.is_ok_and(|g| g == want));
        }
        let step = (env.base / SAMPLE).max(1);
        for id in (0..env.base).step_by(step).take(SAMPLE) {
            tally.check(
                corpus
                    .try_trajectory(id)
                    .is_ok_and(|t| t == env.corpus.trajectories[id]),
            );
        }
    });
    (tally.attempted, tally.failed)
}

// --- direct_query --------------------------------------------------------

/// Chunk sizes of a `direct_query` cycle and of the probe the serve
/// workloads run on their live corpus.
pub const DIRECT_CHUNKS: direct::ChunkSizes = direct::ChunkSizes {
    count: 1000,
    locate: 100,
    extract: 250,
};
/// Individually timed operations per cycle (the in-process "request").
const MIX_CHUNK: usize = 1000;
/// Queries per parallel-engine batch.
const ENGINE_BATCH: usize = 2500;

/// Per-cycle results of `direct_query` beyond the three chunk timings.
pub struct DirectRun {
    pub tally: direct::Tally,
    pub req_p50_us: Vec<f64>,
    pub paths_per_s: Vec<f64>,
}

/// A single-path [`Op`] ready to run in process: the query is built
/// before the clock starts, as a request body is.
pub enum InProcess {
    /// A count or a listing through the engine, and its expected matches.
    Engine(Query, u64),
    Extract(usize),
}

impl InProcess {
    pub fn of(op: &Op, inputs: &Inputs) -> InProcess {
        match op {
            Op::Count(i) => InProcess::Engine(
                Query::count(&inputs.counts.patterns[*i]),
                inputs.counts.counts[*i],
            ),
            Op::Locate(i) => InProcess::Engine(
                Query::occurrences(&inputs.locates.patterns[*i]),
                inputs.locates.occurrences[*i].len() as u64,
            ),
            Op::Extract(id) => InProcess::Extract(*id),
            Op::CountBatch(_) | Op::ListBatch(_) => unreachable!("batches are a wire shape"),
        }
    }

    /// Run it as a library caller would; whether the answer is right.
    pub fn run(
        &self,
        engine: &QueryEngine,
        corpus: &ShardedCinct,
        trajectories: &[Vec<u32>],
    ) -> bool {
        match self {
            InProcess::Engine(q, want) => engine
                .run_one(q)
                .value
                .is_ok_and(|v| v.matches() as u64 == *want),
            InProcess::Extract(id) => corpus
                .try_trajectory(*id)
                .is_ok_and(|t| t == trajectories[*id]),
        }
    }
}

fn direct_cycle(
    corpus: &ShardedCinct,
    traffic: &Traffic,
    rng: &mut Rng,
    record: bool,
    run: &mut DirectRun,
) {
    let (inputs, trajectories) = (traffic.inputs, traffic.trajectories);
    let direct = direct::Inputs {
        counts: &inputs.counts,
        locates: &inputs.locates,
        trajectories,
    };
    direct::cycle(corpus, &direct, rng, DIRECT_CHUNKS, record, &mut run.tally);

    // One call at a time through the engine, each with its own timer:
    // what a caller that needs every latency pays.
    let engine = QueryEngine::new(corpus);
    let ops: Vec<InProcess> = (0..MIX_CHUNK)
        .map(|_| InProcess::of(&traffic.draw(rng), inputs))
        .collect();
    let mut latencies = Vec::with_capacity(ops.len());
    for op in &ops {
        let t0 = Instant::now();
        let ok = op.run(&engine, corpus, trajectories);
        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
        run.tally.check(ok);
    }
    crate::stats::sort(&mut latencies);

    // A batch through the parallel engine: sustained paths per second.
    let picks: Vec<usize> = (0..ENGINE_BATCH)
        .map(|_| rng.below(inputs.counts.len()))
        .collect();
    let queries: Vec<Query> = picks
        .iter()
        .map(|&i| Query::count(&inputs.counts.patterns[i]))
        .collect();
    let t0 = Instant::now();
    let report = QueryEngine::new(corpus).parallel(0).run(&queries);
    let elapsed = t0.elapsed().as_secs_f64();
    for (&i, outcome) in picks.iter().zip(&report.outcomes) {
        let ok = matches!(&outcome.value, Ok(QueryValue::Count(n)) if *n as u64 == inputs.counts.counts[i]);
        run.tally.check(ok);
    }

    if record {
        run.req_p50_us
            .push(crate::stats::nearest_rank(&latencies, 0.5));
        run.paths_per_s.push(queries.len() as f64 / elapsed);
    }
}

pub fn run_direct(spec: &Spec, env: &Env, inputs: &Inputs, seed: u64, seconds: f64) -> DirectRun {
    let mut rng = Rng::stream(seed, 2);
    let mut run = DirectRun {
        tally: direct::Tally::default(),
        req_p50_us: Vec::new(),
        paths_per_s: Vec::new(),
    };
    let traffic = Traffic::new(spec, env, inputs);
    env.with_corpus(|corpus| {
        direct_cycle(corpus, &traffic, &mut rng, false, &mut run);
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds || run.req_p50_us.is_empty() {
            direct_cycle(corpus, &traffic, &mut rng, true, &mut run);
        }
    });
    run
}

// --- served reads ------------------------------------------------------------

/// One read request, as indices into the workload's pools.
#[derive(Clone, Debug)]
pub enum Op {
    Count(usize),
    Locate(usize),
    Extract(usize),
    /// Indices into the count pool.
    CountBatch(Vec<usize>),
    /// Indices into the locate pool; only totals travel (`limit: 0`).
    ListBatch(Vec<usize>),
}

impl Op {
    pub fn target(&self) -> &'static str {
        match self {
            Op::Count(_) | Op::CountBatch(_) => "/v1/count",
            Op::Locate(_) => "/v1/locate",
            Op::ListBatch(_) => "/v1/occurrences",
            Op::Extract(_) => "/v1/extract",
        }
    }

    pub fn paths(&self) -> u32 {
        match self {
            Op::CountBatch(picks) | Op::ListBatch(picks) => picks.len() as u32,
            _ => 1,
        }
    }
}

/// The read traffic of one served workload.
pub struct Traffic<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub trajectories: &'a [Vec<u32>],
}

impl<'a> Traffic<'a> {
    pub fn new(spec: &'a Spec, env: &'a Env, inputs: &'a Inputs) -> Self {
        Traffic {
            spec,
            inputs,
            trajectories: &env.corpus.trajectories[..inputs.final_len],
        }
    }

    pub fn draw(&self, rng: &mut Rng) -> Op {
        let inputs = self.inputs;
        match self.spec.kind {
            // One path per request, uniform over the pools: 85 % count,
            // 10 % locate, 5 % extract.
            Kind::DirectQuery | Kind::ServeMiss => match rng.below(100) {
                0..=84 => Op::Count(rng.below(inputs.counts.len())),
                85..=94 => Op::Locate(rng.below(inputs.locates.len())),
                _ => Op::Extract(rng.below(self.trajectories.len())),
            },
            // 128 Zipf-popular paths per request; one request in five
            // asks for listings.
            Kind::ServeHotBatch => {
                let listing = rng.below(5) == 0;
                let zipf = if listing {
                    &inputs.zipf_locates
                } else {
                    &inputs.zipf
                };
                let zipf = zipf
                    .as_ref()
                    .expect("batched workload has a popularity law");
                let picks = (0..BATCH).map(|_| zipf.sample(rng)).collect();
                if listing {
                    Op::ListBatch(picks)
                } else {
                    Op::CountBatch(picks)
                }
            }
            // Cached single-path counts, Zipf-popular.
            Kind::IngestMixed => {
                let zipf = inputs
                    .zipf
                    .as_ref()
                    .expect("ingest reader has a popularity law");
                Op::Count(zipf.sample(rng))
            }
        }
    }

    /// The request body of `op`; `uncached` adds `"cache":false`.
    pub fn render(&self, op: &Op, uncached: bool, body: &mut String) {
        let inputs = self.inputs;
        body.clear();
        body.push('{');
        if uncached && !matches!(op, Op::Extract(_)) {
            body.push_str("\"cache\":false,");
        }
        let batch = |rendered: &[String], picks: &[usize], body: &mut String| {
            body.push_str("\"paths\":[");
            for (k, &i) in picks.iter().enumerate() {
                if k > 0 {
                    body.push(',');
                }
                body.push_str(&rendered[i]);
            }
            body.push(']');
        };
        match op {
            Op::Count(i) => {
                body.push_str("\"path\":");
                body.push_str(&inputs.counts.rendered[*i]);
            }
            Op::Locate(i) => {
                body.push_str("\"path\":");
                body.push_str(&inputs.locates.rendered[*i]);
            }
            Op::Extract(id) => {
                let _ = write!(body, "\"trajectory\":{id}");
            }
            Op::CountBatch(picks) => batch(&inputs.counts.rendered, picks, body),
            Op::ListBatch(picks) => {
                body.push_str("\"limit\":0,");
                batch(&inputs.locates.rendered, picks, body);
            }
        }
        body.push('}');
    }

    /// Whether `body` answers `op` exactly as the oracle does. While
    /// appends are landing a count is judged against the epoch the
    /// answer names. The server reads that epoch after it has computed
    /// the count, so an append landing in between makes an answer name
    /// the epoch after its own: the count must be the oracle's after
    /// exactly that many appends, or one fewer.
    pub fn check(&self, op: &Op, status: u16, body: &str) -> bool {
        let inputs = self.inputs;
        status == 200
            && match op {
                Op::Count(i) => {
                    let got = load::uint_after(body, "\"count\":");
                    if inputs.epoch_counts.is_empty() {
                        got == Some(inputs.counts.counts[*i])
                    } else {
                        let named = load::uint_after(body, "\"epoch\":").map(|e| e as usize);
                        let at = |epoch: Option<usize>| {
                            epoch
                                .and_then(|e| inputs.epoch_counts.get(e))
                                .map(|c| c[*i])
                        };
                        got.is_some()
                            && (got == at(named) || got == at(named.and_then(|e| e.checked_sub(1))))
                    }
                }
                Op::Locate(i) => {
                    load::uint_after(body, "\"total\":")
                        == Some(inputs.locates.occurrences[*i].len() as u64)
                        && load::array_after_equals(
                            body,
                            "\"occurrences\":",
                            inputs.locates.flat(*i),
                        )
                }
                Op::Extract(id) => {
                    let want = self.trajectories[*id].iter().map(|&e| u64::from(e));
                    load::array_after_equals(body, "\"symbols\":", want)
                }
                Op::CountBatch(picks) => load::array_after_equals(
                    body,
                    "\"counts\":",
                    picks.iter().map(|&i| inputs.counts.counts[i]),
                ),
                Op::ListBatch(picks) => {
                    let want = picks
                        .iter()
                        .map(|&i| inputs.locates.occurrences[i].len() as u64);
                    load::each_uint_after_equals(body, "\"total\":", want)
                }
            }
    }
}

/// A connection drawing from [`Traffic`] with its own stream.
pub struct ReadPlan<'a> {
    traffic: Traffic<'a>,
    rng: Rng,
    body: String,
    op: Op,
}

impl<'a> ReadPlan<'a> {
    pub fn new(traffic: Traffic<'a>, rng: Rng) -> Self {
        ReadPlan {
            traffic,
            rng,
            body: String::new(),
            op: Op::Count(0),
        }
    }
}

impl Plan for ReadPlan<'_> {
    fn next(&mut self) -> Req<'_> {
        self.op = self.traffic.draw(&mut self.rng);
        self.traffic.render(&self.op, false, &mut self.body);
        Req {
            target: self.op.target(),
            body: &self.body,
            paths: self.op.paths(),
        }
    }

    fn check(&mut self, status: u16, body: &str) -> bool {
        self.traffic.check(&self.op, status, body)
    }
}

/// `ingest_mixed` writer: the withheld tail, 64 trajectories at a time.
pub struct AppendPlan<'a> {
    inputs: &'a Inputs,
    base: usize,
    sent: usize,
}

impl<'a> AppendPlan<'a> {
    pub fn new(inputs: &'a Inputs, env: &Env) -> Self {
        AppendPlan {
            inputs,
            base: env.base,
            sent: 0,
        }
    }
}

impl Plan for AppendPlan<'_> {
    fn next(&mut self) -> Req<'_> {
        self.sent += 1;
        Req {
            target: "/v1/append",
            body: &self.inputs.append_bodies[self.sent - 1],
            paths: 0,
        }
    }

    fn check(&mut self, status: u16, body: &str) -> bool {
        let start = (self.base + (self.sent - 1) * APPEND_BATCH) as u64;
        status == 200
            && load::uint_after(body, "\"start\":") == Some(start)
            && load::uint_after(body, "\"end\":") == Some(start + APPEND_BATCH as u64)
            && body.contains("\"deduplicated\":false")
    }
}

// --- the load phase --------------------------------------------------------

/// Warm-up before the recorded part of a load phase.
pub const WARM_UP: Duration = Duration::from_millis(1500);

pub struct LoadRun {
    pub reads: ConnReport,
    pub appends: ConnReport,
}

/// Drive the workload's traffic at its server for `seconds` after the
/// warm-up: as many connections as the server has workers (two here),
/// every one closed-loop; on `ingest_mixed` the first also carries the
/// append schedule.
pub fn run_load(spec: &Spec, env: &Env, inputs: &Inputs, seed: u64, seconds: u64) -> LoadRun {
    let served = env.served();
    let addr = served.addr();
    let connections = served.max_connections().min(2);
    let phase = Phase::starting_in(WARM_UP, Duration::from_secs(seconds));
    let mut run = LoadRun {
        reads: ConnReport::default(),
        appends: ConnReport::default(),
    };
    std::thread::scope(|s| {
        let mut readers = Vec::new();
        let mut writer = None;
        for c in 0..connections {
            let mut reads = ReadPlan::new(
                Traffic::new(spec, env, inputs),
                Rng::stream(seed, 10 + c as u64),
            );
            if inputs.appends() > 0 && c == 0 {
                let interval = Duration::from_secs(1) / APPEND_RATE;
                writer = Some(s.spawn(move || {
                    let mut writes = AppendPlan::new(inputs, env);
                    load::reads_with_scheduled_writes(
                        addr,
                        &mut reads,
                        &mut writes,
                        phase,
                        interval,
                        inputs.appends(),
                    )
                }));
            } else {
                readers.push(s.spawn(move || load::closed_loop(addr, &mut reads, phase)));
            }
        }
        for r in readers {
            run.reads.absorb(r.join().expect("reader thread"));
        }
        if let Some(w) = writer {
            let (reads, appends) = w.join().expect("writer thread");
            run.reads.absorb(reads);
            run.appends = appends;
        }
    });
    run
}

/// After the load on `ingest_mixed`: every acknowledged append is in
/// the live corpus, and a server bound afresh on the same directory —
/// whose manifest still describes only the base — gets every one of
/// them back from the WAL. Returns `(checked, wrong)`.
pub fn verify_ingest(spec: &Spec, env: Env, inputs: &Inputs) -> (u64, u64) {
    const SAMPLE: usize = 2000;
    let mut tally = direct::Tally::default();
    let check_state = |env: &Env, tally: &mut direct::Tally| {
        let stats = env.served().handle().service().stats();
        tally.check(stats.trajectories == inputs.final_len);
        tally.check(stats.shards == spec.shards + inputs.appends());
        env.with_corpus(|corpus| {
            for (p, &want) in inputs
                .counts
                .patterns
                .iter()
                .zip(&inputs.counts.counts)
                .take(SAMPLE)
            {
                tally.check(corpus.count(Path::new(p)) as u64 == want);
            }
            let last = inputs.final_len - 1;
            tally.check(
                corpus
                    .try_trajectory(last)
                    .is_ok_and(|t| t == env.corpus.trajectories[last]),
            );
        });
    };
    check_state(&env, &mut tally);

    let Env {
        corpus,
        base,
        dir,
        target,
    } = env;
    drop(target);
    let reopened = ShardedCinct::open_dir(&dir).expect("reopen the base corpus");
    tally.check(reopened.num_trajectories() == base);
    let served = crate::setup::bind(reopened, &dir, true);
    let env = Env {
        corpus,
        base,
        dir,
        target: crate::setup::Target::Served(served),
    };
    check_state(&env, &mut tally);
    (tally.attempted, tally.failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinct_serve::json::{parse_fast_query, Json};

    /// Harness trap: a body the server's single-scan parser does not
    /// recognise still gets answered — through the generic JSON tree, at
    /// several times the cost, which the benchmark would then bill to the
    /// server. Every shape the load sends must take the fast path and
    /// carry exactly the paths it was drawn with.
    #[test]
    fn rendered_bodies_take_the_servers_fast_path() {
        let trajectories = vec![vec![0, 1, 2, 3], vec![1, 2, 3], vec![4, 5]];
        let counts = CountPool::new(vec![vec![1, 2], vec![4, 5]], &trajectories, 6);
        assert_eq!(counts.counts, vec![2, 1]);
        let locates = LocatePool::new(vec![vec![2, 3]], &trajectories, 6, 10);
        assert_eq!(locates.occurrences, vec![vec![(0, 2), (1, 1)]]);
        let inputs = Inputs::plain(counts, locates, None, None, trajectories.len());
        let traffic = Traffic {
            spec: &SPECS[1],
            inputs: &inputs,
            trajectories: &trajectories,
        };
        let mut body = String::new();
        for uncached in [false, true] {
            let cache = if uncached { Some(false) } else { None };
            traffic.render(&Op::Count(1), uncached, &mut body);
            let q = parse_fast_query(&body).expect("count body takes the fast path");
            assert_eq!((q.path, q.cache), (Some(vec![4, 5]), cache), "{body}");
            traffic.render(&Op::Locate(0), uncached, &mut body);
            assert_eq!(
                parse_fast_query(&body).expect("locate body").path,
                Some(vec![2, 3])
            );
            traffic.render(&Op::CountBatch(vec![0, 1, 0]), uncached, &mut body);
            let q = parse_fast_query(&body).expect("batch body takes the fast path");
            assert_eq!(
                q.paths,
                Some(vec![vec![1, 2], vec![4, 5], vec![1, 2]]),
                "{body}"
            );
            traffic.render(&Op::ListBatch(vec![0]), uncached, &mut body);
            let q = parse_fast_query(&body).expect("listing body takes the fast path");
            assert_eq!(
                (q.paths, q.limit, q.cache),
                (Some(vec![vec![2, 3]]), Some(0), cache),
                "{body}"
            );
        }
        traffic.render(&Op::Extract(2), false, &mut body);
        let extract = Json::parse(&body).expect("extract body is JSON");
        assert_eq!(extract.get("trajectory").and_then(Json::as_usize), Some(2));

        // And the checks accept exactly the oracle's answers.
        assert!(traffic.check(
            &Op::Count(0),
            200,
            r#"{"count":2,"cached":false,"epoch":0}"#
        ));
        assert!(!traffic.check(
            &Op::Count(0),
            200,
            r#"{"count":3,"cached":false,"epoch":0}"#
        ));
        assert!(!traffic.check(&Op::Count(0), 503, r#"{"count":2}"#));
        assert!(traffic.check(
            &Op::Locate(0),
            200,
            r#"{"total":2,"occurrences":[[0,2],[1,1]]}"#
        ));
        assert!(!traffic.check(
            &Op::Locate(0),
            200,
            r#"{"total":2,"occurrences":[[0,2],[1,2]]}"#
        ));
        assert!(traffic.check(&Op::Extract(1), 200, r#"{"symbols":[1,2,3],"epoch":0}"#));
        assert!(traffic.check(
            &Op::CountBatch(vec![1, 0]),
            200,
            r#"{"counts":[1,2],"cache_hits":0}"#
        ));
        assert!(traffic.check(
            &Op::ListBatch(vec![0]),
            200,
            r#"{"results":[{"total":2,"occurrences":[]}]}"#
        ));
    }
}
