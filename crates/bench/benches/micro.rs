//! Criterion micro-benchmarks for the succinct substrate: bit-level rank
//! (plain vs RRR at the paper's block sizes), symbol rank (HWT vs WM),
//! and PseudoRank vs true rank — the operations whose costs drive every
//! figure in the paper — plus the store's integrity checksum, which every
//! open, save, snapshot install and WAL record pays per byte.

use cinct::{CinctBuilder, LabelingStrategy};
use cinct_bwt::TrajectoryString;
use cinct_succinct::{
    BitBuf, BitRank, HuffmanWaveletTree, RankBitVec, RrrBitVec, SymbolSeq, WaveletMatrix,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn pseudo_bits(n: usize, density_pct: u64, seed: u64) -> BitBuf {
    let mut b = BitBuf::new();
    let mut x = seed | 1;
    for _ in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        b.push((x >> 33) % 100 < density_pct);
    }
    b
}

fn bench_bit_rank(c: &mut Criterion) {
    let n = 1 << 20;
    let mut group = c.benchmark_group("bit_rank");
    let mut positions: Vec<usize> = Vec::new();
    let mut x = 99u64;
    for _ in 0..1024 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        positions.push((x >> 33) as usize % n);
    }
    // 3 % watches sparse blocks, 30 % is the historical row, 50 % is what
    // the wavelet levels of a random-walk corpus look like.
    for density in [3u64, 30, 50] {
        let bits = pseudo_bits(n, density, 7);
        if density == 30 {
            let plain = RankBitVec::new(bits.clone());
            group.bench_function("plain", |bch| {
                bch.iter(|| {
                    let mut acc = 0usize;
                    for &p in &positions {
                        acc += plain.rank1(black_box(p));
                    }
                    acc
                })
            });
        }
        for b in [15usize, 31, 63] {
            let rrr = RrrBitVec::new(&bits, b);
            group.bench_function(format!("rrr_b{b}_d{density}"), |bch| {
                bch.iter(|| {
                    let mut acc = 0usize;
                    for &p in &positions {
                        acc += rrr.rank1(black_box(p));
                    }
                    acc
                })
            });
            // `sp`/`ep` pairs: both in one block (a narrowed range), and
            // three blocks apart (a wide one).
            let mut bench_pairs = |name: &str, pair: &dyn Fn(usize) -> (usize, usize)| {
                group.bench_function(format!("rrr_b{b}_d{density}_pair_{name}"), |bch| {
                    bch.iter(|| {
                        let mut acc = 0usize;
                        for &p in &positions {
                            let (i, j) = pair(black_box(p));
                            let (ri, rj) = rrr.rank1_pair(i, j);
                            acc += ri + rj;
                        }
                        acc
                    })
                });
            };
            bench_pairs("same", &|p| (p - p % b / 2, p));
            bench_pairs("cross", &|p| (p, (p + 3 * b).min(n - 1)));
        }
    }
    group.finish();
}

fn skewed_seq(n: usize, sigma: u32, seed: u64) -> Vec<u32> {
    // Zipf-ish label-like distribution.
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (x >> 33) % 100;
            match r {
                0..=69 => 1,
                70..=89 => 2,
                _ => 3 + ((x >> 40) as u32 % (sigma - 3).max(1)),
            }
        })
        .collect()
}

fn bench_symbol_rank(c: &mut Criterion) {
    let n = 1 << 19;
    let seq = skewed_seq(n, 16, 3);
    let hwt = HuffmanWaveletTree::<RrrBitVec>::with_params(&seq, 63);
    let wm = WaveletMatrix::<RrrBitVec>::with_params(&seq, 63);
    let mut group = c.benchmark_group("symbol_rank_low_entropy");
    group.bench_function("hwt_rrr", |bch| {
        bch.iter(|| {
            let mut acc = 0usize;
            for i in (0..n).step_by(4097) {
                acc += hwt.rank(black_box(1), black_box(i));
            }
            acc
        })
    });
    group.bench_function("wm_rrr", |bch| {
        bch.iter(|| {
            let mut acc = 0usize;
            for i in (0..n).step_by(4097) {
                acc += wm.rank(black_box(1), black_box(i));
            }
            acc
        })
    });
    group.finish();
}

fn bench_pseudo_rank(c: &mut Criterion) {
    // The paper's headline op: simulated rank over the labeled BWT vs the
    // same rank on the raw BWT in an ICB-Huff-style HWT.
    let ds = cinct_datasets::roma(0.1);
    let ts = TrajectoryString::build(&ds.trajectories, ds.n_edges());
    let idx = CinctBuilder::new()
        .labeling(LabelingStrategy::BigramSorted)
        .build_from_trajectory_string(&ts, ds.n_edges())
        .0;
    let (_, tbwt) = cinct_bwt::bwt(ts.text(), ts.sigma());
    let raw_hwt = HuffmanWaveletTree::<RrrBitVec>::with_params(&tbwt, 63);

    // Collect valid (j, w, w') probes: positions within contexts.
    let c_arr = idx.c_array();
    let mut probes = Vec::new();
    'outer: for w_prime in 0..idx.sigma() as u32 {
        let range = c_arr.symbol_range(w_prime);
        if range.is_empty() {
            continue;
        }
        for w in idx.rml().graph().out(w_prime) {
            probes.push((range.start + range.len() / 2, w, w_prime));
            if probes.len() >= 2048 {
                break 'outer;
            }
        }
    }
    let mut group = c.benchmark_group("rank_on_bwt");
    group.bench_function("cinct_pseudo_rank", |bch| {
        bch.iter(|| {
            let mut acc = 0usize;
            for &(j, w, w_prime) in &probes {
                acc += idx.pseudo_rank(black_box(j), w, w_prime).unwrap_or(0);
            }
            acc
        })
    });
    group.bench_function("icb_huff_true_rank", |bch| {
        bch.iter(|| {
            let mut acc = 0usize;
            for &(j, w, _) in &probes {
                acc += raw_hwt.rank(black_box(w), black_box(j));
            }
            acc
        })
    });
    group.finish();
}

fn bench_store_checksum(c: &mut Criterion) {
    // 1 MiB is a small shard file; 8 MiB is the `direct_query` corpus's
    // whole directory (7.4 MB over four shards).
    let mut group = c.benchmark_group("store_checksum");
    for mib in [1usize, 8] {
        let mut x = 17u64;
        let buf: Vec<u8> = (0..mib << 20)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        group.throughput(Throughput::Bytes(buf.len() as u64));
        group.bench_function(format!("{mib}mib"), |bch| {
            bch.iter(|| cinct::store::checksum64(black_box(&buf)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_bit_rank, bench_symbol_rank, bench_pseudo_rank, bench_store_checksum
}
criterion_main!(benches);
