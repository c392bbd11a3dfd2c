//! Set-up: generate the corpus, build it, save it, reopen it and (for the
//! serve workloads) bind a server on it — every step through the public
//! API with default configuration, each step timed. `setup_s` is the sum.

use crate::corpus::{symbols, Corpus, Generator};
use cinct::{Durability, ShardedBuilder, ShardedCinct, Wal};
use cinct_serve::{Client, ServeConfig, Server, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// SA sampling rate of every corpus (the repo's bench default).
pub const LOCATE_SAMPLING: usize = 32;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    DirectQuery,
    ServeMiss,
    ServeHotBatch,
    IngestMixed,
}

/// What one workload builds and how it is reached.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub generator: Generator,
    /// Generator scale at `--scale 1`.
    pub scale: f64,
    pub shards: usize,
    pub served: bool,
    /// Share of the corpus built up front; the rest is appended live
    /// through a WAL-backed server.
    pub base_fraction: f64,
    /// [`crate::corpus::fingerprint`] of the corpus at `--scale 1`.
    pub fingerprint: u64,
    /// Length of the windows a load phase is cut into: short enough
    /// that a run has a quartile's worth of them, long enough that each
    /// holds well over a thousand requests.
    pub window_ms: u64,
}

impl Spec {
    pub fn window_ns(&self) -> u64 {
        self.window_ms * 1_000_000
    }

    /// Windows in a load phase of `seconds`.
    pub fn windows_in(&self, seconds: u64) -> usize {
        (seconds * 1000 / self.window_ms) as usize
    }
}

/// A scratch directory under `benchmark/out/`, removed on drop.
pub struct Workdir(PathBuf);

impl Workdir {
    pub fn new(label: &str) -> std::io::Result<Workdir> {
        let dir = crate::out_dir().join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Workdir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seconds spent in each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub build_s: f64,
    pub save_s: f64,
    pub open_s: f64,
    pub bind_s: f64,
    pub built_symbols: usize,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.build_s + self.save_s + self.open_s + self.bind_s
    }

    pub fn build_msym_per_s(&self) -> f64 {
        self.built_symbols as f64 / 1e6 / self.build_s
    }
}

/// An in-process server on its own thread. Dropping it drains the
/// server and joins the thread.
pub struct Served {
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Served {
    pub fn start(server: Server) -> Served {
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let served = Served {
            handle,
            thread: Some(thread),
        };
        wait_ready(served.addr());
        served
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn handle(&self) -> &ServerHandle {
        &self.handle
    }

    /// Connections a load phase may hold: a worker owns one connection
    /// for its keep-alive lifetime, so one more than `workers` would sit
    /// in the accept queue for the whole run and time out.
    pub fn max_connections(&self) -> usize {
        self.handle.config().workers
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            // A panicking server thread already failed the requests
            // that were in flight; nothing more to report from a drop.
            let _ = t.join();
        }
    }
}

/// Block until `/healthz` answers 200. The probing client is dropped
/// before this returns: it would otherwise pin one worker (a worker
/// serves one connection until it closes) and starve a load connection.
pub fn wait_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            if matches!(c.get("/healthz"), Ok((200, _))) {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server at {addr} never became healthy"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

pub enum Target {
    Direct(ShardedCinct),
    Served(Served),
}

/// One finished set-up.
pub struct Env {
    pub corpus: Corpus,
    /// Trajectories built up front; `corpus.trajectories[base..]` is the
    /// tail an ingest workload appends.
    pub base: usize,
    /// The saved corpus directory (also the WAL's directory).
    pub dir: PathBuf,
    pub target: Target,
}

impl Env {
    pub fn served(&self) -> &Served {
        match &self.target {
            Target::Served(s) => s,
            Target::Direct(_) => panic!("workload is not served"),
        }
    }

    /// Run `f` on the live corpus, wherever it lives.
    pub fn with_corpus<R>(&self, f: impl FnOnce(&ShardedCinct) -> R) -> R {
        match &self.target {
            Target::Direct(c) => f(c),
            Target::Served(s) => s.handle().service().with_corpus(f),
        }
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot = t0.elapsed().as_secs_f64();
    out
}

/// Bind a server on `corpus` exactly as `cinct serve` does: default
/// configuration, and a durable WAL in the corpus directory when the
/// workload ingests.
pub fn bind(corpus: ShardedCinct, dir: &Path, durable: bool) -> Served {
    let cfg = ServeConfig::default();
    let server = if durable {
        let (wal, replay) = Wal::open(dir, Durability::Durable).expect("open WAL");
        Server::bind_durable("127.0.0.1:0", corpus, cfg, wal, replay)
    } else {
        Server::bind("127.0.0.1:0", corpus, cfg)
    };
    Served::start(server.expect("bind server"))
}

/// Set up `spec` at `scale` times its nominal size inside `dir`.
pub fn set_up(spec: &Spec, scale: f64, dir: &Path) -> (Env, SetupTimes) {
    let mut t = SetupTimes::default();
    let corpus = timed(&mut t.generate_s, || {
        Corpus::generate(spec.generator, spec.scale * scale)
    });
    let base = (corpus.trajectories.len() as f64 * spec.base_fraction).round() as usize;
    let base_trajs = &corpus.trajectories[..base];
    t.built_symbols = symbols(base_trajs);
    let built = timed(&mut t.build_s, || {
        ShardedBuilder::new()
            .shards(spec.shards)
            .locate_sampling(LOCATE_SAMPLING)
            .build(base_trajs, corpus.n_edges)
    });
    let _ = std::fs::remove_dir_all(dir);
    timed(&mut t.save_s, || built.save_dir(dir).expect("save_dir"));
    drop(built);
    let opened = timed(&mut t.open_s, || {
        ShardedCinct::open_dir(dir).expect("open_dir")
    });
    let target = if spec.served {
        Target::Served(timed(&mut t.bind_s, || {
            bind(opened, dir, spec.base_fraction < 1.0)
        }))
    } else {
        Target::Direct(opened)
    };
    let env = Env {
        corpus,
        base,
        dir: dir.to_path_buf(),
        target,
    };
    (env, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinct_serve::RetryPolicy;

    /// Harness trap: with every worker holding a connection, one more
    /// connection waits in the accept queue until a worker frees up. If
    /// `wait_ready` kept its probe open, this request on a one-worker
    /// server would sit there until the client's timeout.
    #[test]
    fn readiness_probe_releases_its_worker() {
        let corpus = ShardedBuilder::new().build(&[vec![0, 1, 2], vec![1, 2]], 3);
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let served = Served::start(Server::bind("127.0.0.1:0", corpus, cfg).expect("bind"));
        assert_eq!(served.max_connections(), 1);
        let policy = RetryPolicy {
            timeout: Duration::from_secs(2),
            ..RetryPolicy::none()
        };
        let mut c = Client::connect_with(served.addr(), policy).expect("connect");
        let (status, body) = c.post("/v1/count", "{\"path\":[1,2]}").expect("count");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"count\":2"), "{body}");
    }
}
