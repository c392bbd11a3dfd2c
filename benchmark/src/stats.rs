//! Order statistics and the aggregation every timing metric goes through.
//!
//! A run is cut into repetitions — half-second windows of a load phase,
//! cycles of in-process chunks, whole reopens — and each yields its own
//! statistic (a window's is the median over its requests). Across
//! repetitions the metric is the **quartile on the fast side**: the value
//! a quarter of the repetitions beat. The reason is the host: each of its
//! two cores drops to about two thirds of its speed for one to six
//! seconds at a time, about a third of the time (a neighbour on the
//! sibling hardware thread; it is not reported as steal). The median over
//! repetitions lands in the slow mode on some runs and in the fast mode
//! on others, 35 % apart; the fast-side quartile stays in the fast mode
//! unless three quarters of a run are disturbed. It is not the best
//! repetition: a quarter of them must do at least as well.

/// Fewest samples a window needs before its percentiles are trusted;
/// thinner windows are dropped and counted (`loadgen.windows_dropped`).
pub const MIN_WINDOW_SAMPLES: usize = 1000;

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q` of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// Median (nearest-rank) of an unsorted sample.
pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    nearest_rank(&values, 0.5)
}

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// The quartile of `values` on the side `better` points to (nearest
/// rank): the value a quarter of the repetitions are at least as good as.
pub fn fast_quartile(mut values: Vec<f64>, better: Better) -> f64 {
    sort(&mut values);
    if better == Better::Higher {
        values.reverse();
    }
    nearest_rank(&values, 0.25)
}

/// One completed operation of a load phase.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Completion time, nanoseconds after the phase's start.
    pub end_ns: u64,
    pub latency_ns: u64,
    /// Paths the operation answered (a batched request answers many).
    pub paths: u32,
}

/// Statistics of one window that met [`MIN_WINDOW_SAMPLES`].
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub samples: usize,
    pub paths_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

#[derive(Clone, Debug, Default)]
pub struct Windows {
    pub kept: Vec<Window>,
    pub dropped: usize,
}

impl Windows {
    /// Cut `samples` into `count` windows of `window_ns` by completion
    /// time; samples completing after the last window are ignored.
    pub fn cut(samples: &[Sample], window_ns: u64, count: usize, min_samples: usize) -> Windows {
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); count];
        let mut paths = vec![0u64; count];
        for s in samples {
            let w = (s.end_ns / window_ns) as usize;
            if w < count {
                buckets[w].push(s.latency_ns as f64 / 1e3);
                paths[w] += u64::from(s.paths);
            }
        }
        let mut out = Windows::default();
        for (lat, paths) in buckets.iter_mut().zip(paths) {
            if lat.len() < min_samples {
                out.dropped += 1;
                continue;
            }
            sort(lat);
            out.kept.push(Window {
                samples: lat.len(),
                paths_per_s: paths as f64 * 1e9 / window_ns as f64,
                p50_us: nearest_rank(lat, 0.50),
                p90_us: nearest_rank(lat, 0.90),
                p99_us: nearest_rank(lat, 0.99),
                max_us: lat[lat.len() - 1],
            });
        }
        out
    }

    /// Median over the kept windows of one per-window statistic.
    pub fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(self.kept.iter().map(f).collect())
    }

    /// [`fast_quartile`] over the kept windows of one statistic.
    pub fn fast_quartile_of(&self, better: Better, f: impl Fn(&Window) -> f64) -> f64 {
        fast_quartile(self.kept.iter().map(f).collect(), better)
    }

    pub fn samples(&self) -> usize {
        self.kept.iter().map(|w| w.samples).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_the_textbook_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.91), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn fast_quartile_sits_a_quarter_in_from_the_good_end() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(fast_quartile(v.clone(), Better::Lower), 2.0);
        assert_eq!(fast_quartile(v, Better::Higher), 7.0);
        // Three repetitions: the best one. Five: the second best.
        assert_eq!(fast_quartile(vec![3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(
            fast_quartile(vec![5.0, 3.0, 1.0, 2.0, 4.0], Better::Higher),
            4.0
        );
    }

    /// Harness trap: a window with too few samples reports a percentile
    /// that is really one or two requests. It must be dropped and
    /// counted, never averaged in.
    #[test]
    fn thin_windows_are_dropped_and_counted() {
        let mut samples = Vec::new();
        // Window 0: 1000 samples of 10 µs; window 1: 3 samples of 1 s.
        for i in 0..1000u64 {
            samples.push(Sample {
                end_ns: i * 1000,
                latency_ns: 10_000,
                paths: 2,
            });
        }
        for i in 0..3u64 {
            samples.push(Sample {
                end_ns: 1_000_000_000 + i,
                latency_ns: 1_000_000_000,
                paths: 2,
            });
        }
        // Past the last window: ignored entirely.
        samples.push(Sample {
            end_ns: 5_000_000_000,
            latency_ns: 1,
            paths: 1,
        });
        let w = Windows::cut(&samples, 1_000_000_000, 2, MIN_WINDOW_SAMPLES);
        assert_eq!(w.kept.len(), 1);
        assert_eq!(w.dropped, 1);
        assert_eq!(w.samples(), 1000);
        assert_eq!(w.kept[0].p50_us, 10.0);
        assert_eq!(w.kept[0].paths_per_s, 2000.0);
        assert_eq!(w.median_of(|w| w.p99_us), 10.0);
    }
}
