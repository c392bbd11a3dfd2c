//! In-process operations on the live corpus: the paper's three queries
//! called as a library user calls them, in fixed-size chunks with one
//! timer around each chunk (a timer per call would cost as much as a
//! fast call), every answer checked after the chunk's clock has stopped.

use crate::pools::{CountPool, LocatePool};
use crate::rng::Rng;
use cinct::{Path, PathQuery, ShardedCinct};
use std::time::Instant;

/// What a chunk draws from. `trajectories` are the raw inputs in global
/// ID order — the truth an extraction must reproduce.
pub struct Inputs<'a> {
    pub counts: &'a CountPool,
    pub locates: &'a LocatePool,
    pub trajectories: &'a [Vec<u32>],
}

/// Operations per chunk.
#[derive(Clone, Copy)]
pub struct ChunkSizes {
    pub count: usize,
    pub locate: usize,
    pub extract: usize,
}

/// Per-chunk timings plus the tally of checked operations.
#[derive(Default)]
pub struct Tally {
    pub count_us: Vec<f64>,
    pub locate_us: Vec<f64>,
    pub extract_ns_per_symbol: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One chunk of each operation. `record` is false for warm-up cycles.
pub fn cycle(
    corpus: &ShardedCinct,
    inp: &Inputs,
    rng: &mut Rng,
    sizes: ChunkSizes,
    record: bool,
    tally: &mut Tally,
) {
    let picks: Vec<usize> = (0..sizes.count)
        .map(|_| rng.below(inp.counts.len()))
        .collect();
    let mut got = Vec::with_capacity(picks.len());
    let t0 = Instant::now();
    for &i in &picks {
        got.push(corpus.count(Path::new(&inp.counts.patterns[i])));
    }
    let count_us = t0.elapsed().as_secs_f64() * 1e6 / picks.len() as f64;
    for (&i, &n) in picks.iter().zip(&got) {
        tally.check(n as u64 == inp.counts.counts[i]);
    }

    let picks: Vec<usize> = (0..sizes.locate)
        .map(|_| rng.below(inp.locates.len()))
        .collect();
    let mut got = Vec::with_capacity(picks.len());
    let t0 = Instant::now();
    for &i in &picks {
        let listing = corpus
            .occurrences(Path::new(&inp.locates.patterns[i]))
            .map(|it| it.collect_sorted());
        got.push(listing);
    }
    let locate_us = t0.elapsed().as_secs_f64() * 1e6 / picks.len() as f64;
    for (&i, listing) in picks.iter().zip(&got) {
        tally.check(
            listing
                .as_ref()
                .is_ok_and(|l| *l == inp.locates.occurrences[i]),
        );
    }

    let picks: Vec<usize> = (0..sizes.extract)
        .map(|_| rng.below(inp.trajectories.len()))
        .collect();
    let mut got = Vec::with_capacity(picks.len());
    let t0 = Instant::now();
    for &id in &picks {
        got.push(corpus.try_trajectory(id));
    }
    let elapsed = t0.elapsed();
    let symbols: usize = picks.iter().map(|&id| inp.trajectories[id].len()).sum();
    for (&id, t) in picks.iter().zip(&got) {
        tally.check(t.as_ref().is_ok_and(|t| *t == inp.trajectories[id]));
    }

    if record {
        tally.count_us.push(count_us);
        tally.locate_us.push(locate_us);
        tally
            .extract_ns_per_symbol
            .push(elapsed.as_secs_f64() * 1e9 / symbols as f64);
    }
}

/// Run cycles for `seconds`, after one unrecorded warm-up cycle.
pub fn probe(
    corpus: &ShardedCinct,
    inp: &Inputs,
    rng: &mut Rng,
    sizes: ChunkSizes,
    seconds: f64,
) -> Tally {
    let mut tally = Tally::default();
    cycle(corpus, inp, rng, sizes, false, &mut tally);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || tally.count_us.is_empty() {
        cycle(corpus, inp, rng, sizes, true, &mut tally);
    }
    tally
}
