//! Design-choice ablations beyond the paper's figures:
//!
//! 1. **HWT vs wavelet matrix for the labeled BWT** — the paper picks a
//!    Huffman-shaped tree (§III-C2) because the label distribution is
//!    skewed; a WM would pay ⌈lg δ⌉ levels for every rank.
//! 2. **RRR vs plain bitmaps under the labels** — quantifies what the
//!    compressed backend buys once RML has already shrunk the entropy;
//!    the `CiNCT (hybrid)` row (this repository's extension) stores each
//!    group of 32 RRR blocks raw where that is smaller.
//! 3. **Correction-term width** — how many bits the packed `Z` terms
//!    actually need per ET-graph edge.
//!
//! Run: `cargo run -p cinct-bench --release --bin ablation`

use cinct::{CinctBuilder, LabelingStrategy, Rml};
use cinct_bench::report::{f2, Table};
use cinct_bench::scale_from_env;
use cinct_bwt::{bwt, CArray, TrajectoryString};
use cinct_succinct::{
    HuffmanWaveletTree, RankBitVec, RrrBitVec, SpaceUsage, SymbolSeq, WaveletMatrix,
};
use std::time::Instant;

fn time_ranks<S: SymbolSeq>(seq: &S, probes: &[(u32, usize)]) -> f64 {
    let t0 = Instant::now();
    let mut acc = 0usize;
    for &(w, i) in probes {
        acc += seq.rank(w, i);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e9 / probes.len() as f64
}

fn main() {
    let scale = scale_from_env();
    println!("== Ablations: labeled-BWT container choices (scale={scale}) ==\n");
    let ds = cinct_datasets::singapore2(scale);
    let ts = TrajectoryString::build(&ds.trajectories, ds.n_edges());
    let (_, tbwt) = bwt(ts.text(), ts.sigma());
    let c = CArray::new(ts.text(), ts.sigma());
    let rml = Rml::from_text(ts.text(), ts.sigma(), LabelingStrategy::BigramSorted);
    let labeled = rml.label_bwt(&tbwt, &c);
    let n = labeled.len();
    println!(
        "labeled BWT: {} symbols, max label {}",
        n,
        labeled.iter().max().unwrap()
    );

    // Probes: rank of label 1 (the hot case) and of rarer labels.
    let probes: Vec<(u32, usize)> = (0..2048)
        .map(|k| {
            let label = 1 + (k % 3) as u32;
            (label, (k * 8191) % n)
        })
        .collect();

    let mut table = Table::new(&["Container", "bits/sym", "rank ns"]);
    {
        let s = HuffmanWaveletTree::<RrrBitVec>::with_params(&labeled, 63);
        table.row(vec![
            "HWT + RRR (CiNCT)".into(),
            f2(s.size_in_bits() as f64 / n as f64),
            f2(time_ranks(&s, &probes)),
        ]);
    }
    {
        let s = HuffmanWaveletTree::with_backend(&labeled, |bits| RrrBitVec::hybrid(bits, 63));
        table.row(vec![
            "CiNCT (hybrid)".into(),
            f2(s.size_in_bits() as f64 / n as f64),
            f2(time_ranks(&s, &probes)),
        ]);
    }
    {
        let s = HuffmanWaveletTree::<RankBitVec>::new(&labeled);
        table.row(vec![
            "HWT + plain".into(),
            f2(s.size_in_bits() as f64 / n as f64),
            f2(time_ranks(&s, &probes)),
        ]);
    }
    {
        let s = WaveletMatrix::<RrrBitVec>::with_params(&labeled, 63);
        table.row(vec![
            "WM + RRR".into(),
            f2(s.size_in_bits() as f64 / n as f64),
            f2(time_ranks(&s, &probes)),
        ]);
    }
    {
        let s = WaveletMatrix::<RankBitVec>::new(&labeled);
        table.row(vec![
            "WM + plain".into(),
            f2(s.size_in_bits() as f64 / n as f64),
            f2(time_ranks(&s, &probes)),
        ]);
    }
    table.print();

    // Z-term width accounting.
    let (idx, _) = CinctBuilder::new().build_from_trajectory_string(&ts, ds.n_edges());
    let g = idx.rml().graph();
    println!(
        "\nET-graph: {} edges; total {} bytes = {:.1} bits/edge (targets + Z, packed)",
        g.num_edges(),
        g.size_in_bytes(),
        g.size_in_bytes() as f64 * 8.0 / g.num_edges() as f64
    );
    println!("\nExpected shape: HWT+RRR smallest; HWT beats WM on rank speed for");
    println!("label 1..3 because skewed labels sit near the Huffman root. The");
    println!("hybrid is never larger than HWT+RRR and ranks faster where RRR");
    println!("saves nothing.");
}
