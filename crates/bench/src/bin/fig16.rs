//! Fig. 16: index construction time on Singapore, broken down into the
//! BWT, wavelet-structure build, and (for CiNCT) the ET-graph pipeline —
//! all the operations the other variants do not need.
//!
//! Run: `cargo run -p cinct-bench --release --bin fig16`

use cinct::CinctBuilder;
use cinct_bench::report::Table;
use cinct_bench::{build_variant, scale_from_env, Variant};
use cinct_bwt::TrajectoryString;

fn main() {
    let scale = scale_from_env();
    println!("== Fig. 16: index construction time, Singapore (scale={scale}) ==\n");
    let ds = cinct_datasets::singapore(scale);
    let ts = TrajectoryString::build(&ds.trajectories, ds.n_edges());
    println!("|T| = {} symbols, sigma = {}\n", ts.len(), ts.sigma());

    // CiNCT with per-phase timings. The paper's "BWT" bar absorbs every
    // stage outside the ET-graph and WT builds (SA, BWT derivation, and
    // the SA-byproduct trajectory directory), so the three columns sum to
    // the total.
    let (_, timings) = CinctBuilder::new()
        .pure_rrr()
        .build_from_trajectory_string(&ts, ds.n_edges());
    let bwt_col = timings.total() - timings.et_graph_build - timings.wt_build;
    let mut table = Table::new(&["Method", "BWT s", "ET-graph s", "WT-build s", "total s"]);
    table.row(vec![
        "CiNCT".into(),
        format!("{:.2}", bwt_col.as_secs_f64()),
        format!("{:.2}", timings.et_graph_build.as_secs_f64()),
        format!("{:.2}", timings.wt_build.as_secs_f64()),
        format!("{:.2}", timings.total().as_secs_f64()),
    ]);
    // Baselines: total only (BWT is shared; the remainder is WT build).
    for v in [
        Variant::IcbHuff { b: 63 },
        Variant::IcbWm { b: 63 },
        Variant::Ufmi,
        Variant::FmGmr,
        Variant::FmApHyb,
    ] {
        let built = build_variant(v, &ts, ds.n_edges());
        table.row(vec![
            built.name.clone(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{:.2}", built.build_secs),
        ]);
    }
    table.print();
    println!("\nShape check (paper Fig. 16): CiNCT's construction is comparable");
    println!("to ICB-Huff (second fastest); the ET-graph phase is a small");
    println!("fraction of the total, and everything is linear in |T|.");
}
