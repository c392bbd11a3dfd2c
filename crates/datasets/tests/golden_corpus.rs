//! Golden corpora: every generator's output pinned by size and
//! fingerprint, so a change to how a corpus is *computed* can be shown
//! not to change what is *computed*.
//!
//! The fingerprint is the benchmark harness's (`benchmark/src/corpus.rs`):
//! FNV-1a 64 over the alphabet size, then each trajectory's length and
//! edges, every value as eight little-endian bytes.

use cinct_datasets::{chess, mo_gen, randwalk, roma, singapore, singapore2, Dataset};

fn fingerprint(ds: &Dataset) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(ds.n_edges() as u64);
    for t in &ds.trajectories {
        eat(t.len() as u64);
        for &e in t {
            eat(u64::from(e));
        }
    }
    h
}

/// (generator, scale, trajectories, symbols, fingerprint).
/// RandWalk has no scale; its row is `randwalk(4096, 4.0, 50_000, 3)`.
const GOLDEN: &[(&str, f64, usize, usize, u64)] = &[
    ("Singapore", 0.05, 900, 63213, 0x0615_dcd4_5863_6d82),
    ("Singapore", 0.25, 4500, 318763, 0xa801_310c_40ef_47af),
    ("Singapore-2", 0.05, 900, 241701, 0xd201_d9c7_8edb_1bb2),
    ("Singapore-2", 0.1, 1800, 483299, 0x6e04_5d25_666f_f917),
    ("Roma", 0.05, 1000, 53769, 0x986f_bd3c_52fd_2daf),
    ("Roma", 0.25, 5000, 263424, 0x8726_6584_22ad_ab71),
    ("MO-gen", 0.05, 600, 22157, 0x400e_c40e_1ae7_9ef7),
    ("MO-gen", 0.25, 3000, 110650, 0x5a5b_b480_a2dd_439e),
    ("Chess", 0.02, 2000, 20000, 0x3700_f426_9d14_2cd5),
    ("Chess", 0.1, 10000, 100000, 0x0549_58d8_226f_faf4),
    ("RandWalk", 1.0, 1000, 50000, 0x22c0_a59b_6a60_bfaa),
];

fn generate(name: &str, scale: f64) -> Dataset {
    match name {
        "Singapore" => singapore(scale),
        "Singapore-2" => singapore2(scale),
        "Roma" => roma(scale),
        "MO-gen" => mo_gen(scale),
        "Chess" => chess(scale),
        "RandWalk" => randwalk(4096, 4.0, 50_000, 3),
        other => panic!("no generator named {other}"),
    }
}

#[test]
fn golden_corpus_table() {
    let mut wrong = Vec::new();
    for &(name, scale, trajs, symbols, fp) in GOLDEN {
        let ds = generate(name, scale);
        let got = (ds.trajectories.len(), ds.total_symbols(), fingerprint(&ds));
        if got != (trajs, symbols, fp) {
            wrong.push(format!(
                "(\"{name}\", {scale:?}, {}, {}, {:#018x}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(wrong.is_empty(), "corpora moved:\n{}", wrong.join("\n"));
}

/// The corpora `benchmark/src/workloads.rs` pins: a generator change that
/// moves either makes the benchmark refuse to measure. Ignored because it
/// generates ≈ 7 M symbols; run it with `--include-ignored` in release.
#[test]
#[ignore]
fn benchmark_scale_corpora() {
    assert_eq!(fingerprint(&singapore(4.0)), 0xcfaa_afa9_8e62_3eee);
    assert_eq!(fingerprint(&chess(2.0)), 0x5da4_1a3a_ea53_479e);
}
