//! Fig. 10: index size (bits/symbol) vs suffix-range query time for every
//! dataset × method, with RRR block sizes b ∈ {15, 31, 63} for the
//! compressed variants, plus this repository's `CiNCT (hybrid)` row.
//!
//! Run: `cargo run -p cinct-bench --release --bin fig10`

use cinct_bench::report::{f2, Table};
use cinct_bench::{
    build_variant, queries_from_env, sample_patterns, scale_from_env, time_queries, Variant,
};
use cinct_bwt::TrajectoryString;

fn main() {
    let scale = scale_from_env();
    let n_queries = queries_from_env();
    println!(
        "== Fig. 10: size vs suffix-range time (scale={scale}, {n_queries} queries, |P|=20) =="
    );
    for ds in cinct_datasets::all_table_datasets(scale) {
        let ts = TrajectoryString::build(&ds.trajectories, ds.n_edges());
        // Chess games are exactly 10 plies; cap |P| accordingly.
        let plen = ds
            .trajectories
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(20)
            .min(20);
        let patterns = sample_patterns(&ds.trajectories, plen, n_queries, 42);
        println!(
            "\n-- {} (|T|={}, sigma={}) |P|={plen} --",
            ds.name,
            ts.len(),
            ts.sigma()
        );
        let mut table = Table::new(&["Method", "b", "bits/sym", "time us", "hits"]);
        let mut variants: Vec<Variant> = Vec::new();
        for b in [15usize, 31, 63] {
            variants.push(Variant::Cinct { b });
        }
        variants.push(Variant::Ufmi);
        for b in [15usize, 31, 63] {
            variants.push(Variant::IcbWm { b });
            variants.push(Variant::IcbHuff { b });
        }
        variants.push(Variant::FmGmr);
        variants.push(Variant::FmApHyb);
        // This repository's extension, after the paper's series.
        variants.push(Variant::CinctHybrid { b: 63 });
        for v in variants {
            let built = build_variant(v, &ts, ds.n_edges());
            let timing = time_queries(built.index.as_ref(), &patterns);
            let b_str = match v {
                Variant::Cinct { b }
                | Variant::CinctHybrid { b }
                | Variant::IcbWm { b }
                | Variant::IcbHuff { b } => b.to_string(),
                _ => "-".into(),
            };
            table.row(vec![
                built.name.clone(),
                b_str,
                f2(built.bits_per_symbol()),
                f2(timing.mean_us),
                timing.hits.to_string(),
            ]);
            if let (Variant::Cinct { b: 63 }, Some(w)) = (v, built.size_without_et_graph) {
                table.row(vec![
                    "CiNCT (w/o ET)".into(),
                    "63".into(),
                    f2(w as f64 * 8.0 / built.index.text_len() as f64),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
        table.print();
    }
    println!("\nShape check (paper): CiNCT is the smallest AND fastest suffix-");
    println!("range index on sparse datasets; ICB variants are 2-25x slower;");
    println!("UFMI/FM-GMR are fast but many times larger. CiNCT (hybrid) stores a");
    println!("group raw where RRR saves nothing: never larger than CiNCT 63, faster");
    println!("where its bitmaps do not compress.");
}
