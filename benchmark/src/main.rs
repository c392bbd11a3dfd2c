//! The repo's benchmark: `--workload <name> --seed <n> --seconds <n>
//! --trace <0|1>` sets up, warms, measures, checks every answer and
//! prints each metric by name, the last line of stdout being the result
//! as one JSON object. README.md has the load model and the reasons.

mod corpus;
mod direct;
mod layers;
mod load;
mod metrics;
mod oracle;
mod pools;
mod rng;
mod setup;
mod stats;
mod trace;
mod workloads;

use cinct::{Path, PathQuery, ShardedCinct};
use metrics::Report;
use rng::Rng;
use setup::{Env, SetupTimes, Workdir};
use stats::{fast_quartile, median, Better, Windows, MIN_WINDOW_SAMPLES};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Inputs;

/// What `BENCHMARK.json` tells the driver to pass as `--seconds`.
const RUN_SECONDS: u64 = 12;
/// Whole set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Reopens behind `cold_open_ms`.
const COLD_OPENS: usize = 5;
/// Length of the in-process probe a serve workload ends with.
const PROBE_SECONDS: f64 = 3.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Multiplier on every corpus size; 1 is the benchmark, less is a
    /// smoke test whose numbers mean nothing.
    pub scale: f64,
}

/// Where scratch corpora and trace files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

const USAGE: &str = "usage: cinct_benchmark --workload <direct_query|serve_miss|serve_hot_batch|ingest_mixed> \
--seed <u64> [--seconds <1..=60>] [--trace <0|1>] [--scale <f64>]\n       cinct_benchmark --describe";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: RUN_SECONDS,
        trace: false,
        scale: 1.0,
    };
    let mut seeded = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("not a u64"))?;
                seeded = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| bad("not in 1..=60"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                }
            }
            "--scale" => {
                args.scale = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 4.0)
                    .ok_or_else(|| bad("not in (0, 4]"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seeded || !workloads::SPECS.iter().any(|s| s.name == args.workload) {
        return Err("--workload and --seed are required".to_string());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::describe(&workloads::WHY, RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    print!("{}", outcome.report.table());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.report.json()
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} operations gave a wrong answer or failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn tally(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn run(args: &Args) -> Outcome {
    let spec = workloads::SPECS
        .iter()
        .find(|s| s.name == args.workload)
        .expect("checked by parse_args");
    let workdir = Workdir::new(spec.name).expect("create scratch directory under benchmark/out");
    let dir = workdir.path().join("corpus");

    let mut times: Vec<SetupTimes> = Vec::new();
    let mut env: Option<Env> = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        // Drain the previous repetition's server before its directory
        // is rebuilt.
        drop(env.take());
        let (e, t) = setup::set_up(spec, args.scale, &dir);
        eprintln!(
            "set-up: generate {:.3}s build {:.3}s save {:.3}s open {:.3}s bind {:.3}s",
            t.generate_s, t.build_s, t.save_s, t.open_s, t.bind_s
        );
        times.push(t);
        env = Some(e);
    }
    let env = env.expect("at least one set-up");
    eprintln!(
        "corpus: {} trajectories, {} symbols, {} edges, fingerprint {:#018x}",
        env.corpus.trajectories.len(),
        corpus::symbols(&env.corpus.trajectories),
        env.corpus.n_edges,
        env.corpus.fingerprint
    );
    if args.scale == 1.0 {
        assert_eq!(
            env.corpus.fingerprint, spec.fingerprint,
            "the {} corpus is not the one this benchmark's numbers are about (generator drift)",
            spec.name
        );
    }

    let t0 = Instant::now();
    let inputs = Inputs::build(spec, &env, args.seed, args.seconds);
    eprintln!(
        "pools and oracle answers: {:.3}s",
        t0.elapsed().as_secs_f64()
    );

    let mut outcome = Outcome {
        report: Report::end_to_end(),
        attempted: 0,
        failed: 0,
    };
    outcome.tally(workloads::precheck(&env, &inputs));
    if args.trace {
        outcome.report = Report::per_layer();
        let counted = trace::run(spec, env, &inputs, args, &mut outcome.report);
        outcome.tally(counted);
        return outcome;
    }

    outcome.report.set(
        "setup_s",
        median(times.iter().map(SetupTimes::total_s).collect()),
    );
    outcome.report.set(
        "build_msym_per_s",
        fast_quartile(
            times.iter().map(SetupTimes::build_msym_per_s).collect(),
            Better::Higher,
        ),
    );
    outcome.report.set("cold_open_ms", cold_open_ms(&env));

    let probe = if spec.served {
        let run = workloads::run_load(spec, &env, &inputs, args.seed, args.seconds);
        let windows = Windows::cut(
            &run.reads.samples,
            spec.window_ns(),
            spec.windows_in(args.seconds),
            MIN_WINDOW_SAMPLES,
        );
        eprintln!(
            "load: {} requests, {} failed, {} appends, {} windows kept, {} dropped",
            run.reads.attempted,
            run.reads.failed + run.appends.failed,
            run.appends.attempted,
            windows.kept.len(),
            windows.dropped
        );
        assert!(
            !windows.kept.is_empty(),
            "no window reached {MIN_WINDOW_SAMPLES} requests: nothing to report"
        );
        outcome.report.set(
            "req_p50_us",
            windows.fast_quartile_of(Better::Lower, |w| w.p50_us),
        );
        outcome.report.set(
            "paths_per_s",
            windows.fast_quartile_of(Better::Higher, |w| w.paths_per_s),
        );
        outcome.tally((
            run.reads.attempted + run.appends.attempted,
            run.reads.failed + run.appends.failed,
        ));
        let mut rng = Rng::stream(args.seed, 3);
        env.with_corpus(|c| {
            direct::probe(
                c,
                &inputs.direct(&env),
                &mut rng,
                workloads::DIRECT_CHUNKS,
                PROBE_SECONDS,
            )
        })
    } else {
        let run = workloads::run_direct(spec, &env, &inputs, args.seed, args.seconds as f64);
        outcome
            .report
            .set("req_p50_us", fast_quartile(run.req_p50_us, Better::Lower));
        outcome.report.set(
            "paths_per_s",
            fast_quartile(run.paths_per_s, Better::Higher),
        );
        run.tally
    };
    eprintln!(
        "direct: {} cycles, {} operations, {} failed",
        probe.count_us.len(),
        probe.attempted,
        probe.failed
    );
    outcome
        .report
        .set("count_us", fast_quartile(probe.count_us, Better::Lower));
    outcome
        .report
        .set("locate_us", fast_quartile(probe.locate_us, Better::Lower));
    outcome.report.set(
        "extract_ns_per_symbol",
        fast_quartile(probe.extract_ns_per_symbol, Better::Lower),
    );
    outcome.tally((probe.attempted, probe.failed));
    outcome
        .report
        .set("bits_per_symbol", env.with_corpus(|c| c.bits_per_symbol()));
    if inputs.appends() > 0 {
        outcome.tally(workloads::verify_ingest(spec, env, &inputs));
    }
    outcome
}

/// Fast-side quartile over [`COLD_OPENS`] of `open_dir` (strict) plus a
/// first count, in milliseconds. The files were just written, so the operating
/// system's page cache is warm: this is the cost of reading, checking
/// and installing the index, not of a disk.
fn cold_open_ms(env: &Env) -> f64 {
    let probe = &env.corpus.trajectories[0][..2];
    let mut ms = Vec::with_capacity(COLD_OPENS);
    for _ in 0..COLD_OPENS {
        let t0 = Instant::now();
        let corpus = ShardedCinct::open_dir(&env.dir).expect("reopen the saved corpus");
        let n = corpus.count(Path::new(probe));
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(n > 0, "a sub-path of the corpus must occur in it");
    }
    fast_quartile(ms, Better::Lower)
}
