#![warn(missing_docs)]
//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build container has no registry access, so this shim provides the
//! subset of the criterion 0.5 API the workspace's benches use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`BenchmarkGroup::throughput`], [`Bencher::iter`], [`black_box`],
//! [`criterion_group!`] and
//! [`criterion_main!`] — with plain mean/min wall-clock reporting instead
//! of criterion's statistical machinery. Swap the workspace `criterion`
//! path dependency for the registry crate for real measurements.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness configuration and entry point.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be >= 2");
        self.sample_size = n;
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("group {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
        }
    }
}

/// Work done by one iteration, reported as a rate beside the time.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration (printed as GB/s).
    Bytes(u64),
}

/// A named benchmark group (prints one line per benchmark on completion).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Report the benchmarks that follow with a rate for `throughput`.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Time one benchmark closure.
    pub fn bench_function(&mut self, id: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        let id = id.into();
        let mut samples = Vec::with_capacity(self.criterion.sample_size);
        // One warm-up run, then the timed samples.
        for i in 0..=self.criterion.sample_size {
            let mut b = Bencher {
                elapsed: Duration::ZERO,
                iters: 0,
            };
            f(&mut b);
            assert!(b.iters > 0, "Bencher::iter was never called in {id}");
            if i > 0 {
                samples.push(b.elapsed.as_secs_f64() / b.iters as f64);
            }
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) => format!(", {:.2} GB/s", n as f64 / mean / 1e9),
            None => String::new(),
        };
        eprintln!(
            "  {}/{id}: mean {:.3} us, min {:.3} us ({} samples){rate}",
            self.name,
            mean * 1e6,
            min * 1e6,
            samples.len()
        );
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Passed to benchmark closures; times the work under [`Bencher::iter`].
pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Run `f` repeatedly and record its wall-clock time.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        // Calibrate an iteration count that runs long enough to time.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(20));
        let reps = (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(f());
        }
        self.elapsed += t0.elapsed();
        self.iters += reps;
    }
}

/// Bundle benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),* $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)*
        }
    };
    ($name:ident, $($target:path),* $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),*
        );
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),* $(,)?) => {
        fn main() {
            $($group();)*
        }
    };
}
