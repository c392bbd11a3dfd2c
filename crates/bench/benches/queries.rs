//! Criterion end-to-end query benchmarks: suffix-range search and
//! extraction on paper-like corpora, CiNCT vs each baseline — all driven
//! through the unified `PathQuery` trait. This is the Criterion
//! counterpart of the fig10/fig15 harness binaries.

use cinct::Path;
use cinct_bench::{build_variant, sample_patterns, Variant};
use cinct_bwt::TrajectoryString;
use cinct_fmindex::ExtractIter;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_suffix_range(c: &mut Criterion) {
    let ds = cinct_datasets::singapore2(0.1);
    let ts = TrajectoryString::build(&ds.trajectories, ds.n_edges());
    let patterns = sample_patterns(&ds.trajectories, 20, 100, 42);
    let mut group = c.benchmark_group("suffix_range_singapore2");
    for v in [
        Variant::Cinct { b: 63 },
        Variant::Ufmi,
        Variant::IcbWm { b: 63 },
        Variant::IcbHuff { b: 63 },
        Variant::FmGmr,
        Variant::FmApHyb,
    ] {
        let built = build_variant(v, &ts, ds.n_edges());
        group.bench_function(built.name.clone(), |bch| {
            bch.iter(|| {
                let mut acc = 0usize;
                for p in &patterns {
                    acc += built.index.count(black_box(Path::new(p)));
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_extract(c: &mut Criterion) {
    let ds = cinct_datasets::roma(0.1);
    let ts = TrajectoryString::build(&ds.trajectories, ds.n_edges());
    let mut group = c.benchmark_group("extract_roma");
    for v in [
        Variant::Cinct { b: 63 },
        Variant::Ufmi,
        Variant::IcbHuff { b: 63 },
    ] {
        let built = build_variant(v, &ts, ds.n_edges());
        group.bench_function(built.name.clone(), |bch| {
            bch.iter(|| {
                ExtractIter::new(built.index.as_ref(), black_box(0), black_box(5_000))
                    .collect_forward()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_suffix_range, bench_extract
}
criterion_main!(benches);
