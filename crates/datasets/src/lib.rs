#![warn(missing_docs)]
//! Deterministic emulations of the CiNCT paper's evaluation datasets
//! (§VI-A4, Table III).
//!
//! The originals (Singapore/Roma taxi NCTs, Brinkhoff MO-gen output, FICS
//! chess records) are not redistributable, so each is substituted by a
//! seeded generator tuned to reproduce the statistics that drive the
//! paper's results: alphabet size σ, ET-graph average out-degree d̄, and
//! the labeled-BWT entropy `H0(φ(T_bwt))`. See `DESIGN.md` §3 for the
//! substitution rationale.
//!
//! All generators take a `scale` factor: `scale = 1.0` produces workloads
//! of a few hundred thousand to a few million symbols (laptop-friendly);
//! larger scales approach the paper's sizes.

use cinct_network::generators::{grid_city, layered_dag, poisson_digraph, ring_radial_city};
use cinct_network::travel::{interpolate_gaps, GapNoise, TripGenerator, WalkConfig};
use cinct_network::RoadNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated dataset: the network and its trajectories.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Dataset label (paper's name).
    pub name: &'static str,
    /// The road network (or transition DAG) the trajectories live on.
    pub network: RoadNetwork,
    /// Trajectories as edge-ID sequences.
    pub trajectories: Vec<Vec<u32>>,
}

impl Dataset {
    /// Total symbols across trajectories (≈ |T| minus separators).
    pub fn total_symbols(&self) -> usize {
        self.trajectories.iter().map(Vec::len).sum()
    }

    /// Alphabet size (network edges).
    pub fn n_edges(&self) -> usize {
        self.network.num_edges()
    }
}

/// Trajectory count scaled, with a floor to keep statistics meaningful.
fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(50)
}

/// **Singapore**: noisy taxi NCTs. Map-matching artifacts leave ~4% of
/// transitions physically disconnected, inflating the ET-graph out-degree
/// (paper: d̄ = 26.8 vs 4.0 after cleaning).
pub fn singapore(scale: f64) -> Dataset {
    let net = grid_city(36, 36, 0x516);
    let cfg = WalkConfig {
        straight_bias: 5.0,
        min_len: 20,
        max_len: 120,
    };
    let mut trajs = cfg.generate(&net, scaled(18_000, scale), 101);
    GapNoise { gap_prob: 0.12 }.apply(&net, &mut trajs, 102);
    Dataset {
        name: "Singapore",
        network: net,
        trajectories: trajs,
    }
}

/// **Singapore-2**: the same data with gapped transitions interpolated by
/// shortest paths (the paper's preprocessing that grows |T| 53M → 75M and
/// collapses d̄ to 4.0).
pub fn singapore2(scale: f64) -> Dataset {
    let base = singapore(scale);
    let trajs = interpolate_gaps(&base.network, &base.trajectories);
    Dataset {
        name: "Singapore-2",
        network: base.network,
        trajectories: trajs,
    }
}

/// **Roma**: HMM-map-matched taxi GPS on a sparse ring-radial network;
/// strongly straight-biased driving → very low entropy (paper H0(φ)=0.9,
/// d̄ = 2.4).
pub fn roma(scale: f64) -> Dataset {
    let net = ring_radial_city(18, 48, 7);
    let cfg = WalkConfig {
        straight_bias: 24.0,
        min_len: 15,
        max_len: 90,
    };
    let trajs = cfg.generate(&net, scaled(20_000, scale), 201);
    Dataset {
        name: "Roma",
        network: net,
        trajectories: trajs,
    }
}

/// **MO-gen**: Brinkhoff-style moving objects traveling shortest paths
/// between random origin/destination pairs (paper H0(φ)=2.8, d̄=8.8 —
/// the most entropic of the real-ish datasets).
pub fn mo_gen(scale: f64) -> Dataset {
    let net = grid_city(32, 32, 11);
    let gen = TripGenerator {
        min_edges: 10,
        max_attempts: 8,
    };
    // Half purposeful trips, half near-uniform wandering (Brinkhoff objects
    // re-route and idle-cruise): together they reach the paper's H0(φ)≈2.8,
    // the most entropic of the real-ish datasets.
    let mut trajs = gen.generate(&net, scaled(6_000, scale), 301);
    let wander = WalkConfig {
        straight_bias: 1.0,
        min_len: 20,
        max_len: 80,
    };
    trajs.extend(wander.generate(&net, scaled(6_000, scale), 302));
    // Interleave deterministically so corpus order doesn't separate modes.
    let mut rng = StdRng::seed_from_u64(303);
    for i in (1..trajs.len()).rev() {
        let j = rng.gen_range(0..=i);
        trajs.swap(i, j);
    }
    Dataset {
        name: "MO-gen",
        network: net,
        trajectories: trajs,
    }
}

/// Plies per Chess game: every game runs the whole depth of the DAG.
const CHESS_PLIES: usize = 10;

/// **Chess**: opening prefixes (10 plies) over a sparse game DAG with a
/// huge alphabet and d̄ ≈ 1.6 (each position has few popular continuations).
pub fn chess(scale: f64) -> Dataset {
    let net = layered_dag(CHESS_PLIES, 2_000, 10, 13);
    let zipf = Zipf::up_to(net.max_out_degree());
    let mut rng = StdRng::seed_from_u64(401);
    let n_games = scaled(100_000, scale);
    let mut trajs = Vec::with_capacity(n_games);
    for _ in 0..n_games {
        // A game follows out-edges from the start node, preferring the
        // first (most popular) continuation — Zipf-like opening theory.
        let mut cur = {
            let first = net.out_edges(0);
            first[zipf.pick(&mut rng, first.len())]
        };
        let mut game = Vec::with_capacity(CHESS_PLIES);
        game.push(cur);
        loop {
            let succ = net.successors(cur);
            if succ.is_empty() {
                break;
            }
            cur = succ[zipf.pick(&mut rng, succ.len())];
            game.push(cur);
        }
        trajs.push(game);
    }
    Dataset {
        name: "Chess",
        network: net,
        trajectories: trajs,
    }
}

/// Zipf(1) picks over `0..k` for every `k` up to a bound, with the
/// harmonic sums `H_k` tabulated once.
struct Zipf {
    harmonic: Vec<f64>,
}

impl Zipf {
    fn up_to(max_k: usize) -> Self {
        let mut harmonic = Vec::with_capacity(max_k + 1);
        harmonic.push(0.0);
        for i in 1..=max_k {
            harmonic.push(harmonic[i - 1] + 1.0 / i as f64);
        }
        Self { harmonic }
    }

    /// Zipf(1) pick over `0..k` (one draw).
    fn pick(&self, rng: &mut StdRng, k: usize) -> usize {
        debug_assert!(k >= 1);
        let mut u = rng.gen::<f64>() * self.harmonic[k];
        for i in 0..k {
            u -= 1.0 / (i + 1) as f64;
            if u <= 0.0 {
                return i;
            }
        }
        k - 1
    }
}

/// **RandWalk** (Figs. 12–13): uniform random walks on a Poisson random
/// digraph with `n_edges` segments and average out-degree `d`; `walk_len`
/// edges per trajectory, enough trajectories to reach `total_symbols`.
pub fn randwalk(n_edges: usize, d: f64, total_symbols: usize, seed: u64) -> Dataset {
    let net = poisson_digraph(n_edges, d, seed);
    let walk_len = 50usize;
    let n_walks = (total_symbols / walk_len).max(10);
    let cfg = WalkConfig {
        straight_bias: 1.0, // uniform successor choice
        min_len: walk_len,
        max_len: walk_len,
    };
    let trajs = cfg.generate(&net, n_walks, seed ^ 0xABCD);
    Dataset {
        name: "RandWalk",
        network: net,
        trajectories: trajs,
    }
}

/// The paper's five evaluation datasets at the given scale.
pub fn all_table_datasets(scale: f64) -> Vec<Dataset> {
    vec![
        singapore(scale),
        singapore2(scale),
        roma(scale),
        mo_gen(scale),
        chess(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinct_network::travel::is_connected_path;

    #[test]
    fn singapore_has_gaps_singapore2_does_not() {
        let sg = singapore(0.05);
        let broken = sg
            .trajectories
            .iter()
            .filter(|t| !is_connected_path(&sg.network, t))
            .count();
        assert!(broken > 0, "Singapore should contain gapped transitions");
        let sg2 = singapore2(0.05);
        for t in &sg2.trajectories {
            assert!(is_connected_path(&sg2.network, t));
        }
        // Interpolation grows the corpus (53M → 75M in the paper).
        assert!(sg2.total_symbols() > sg.total_symbols());
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = roma(0.05);
        let b = roma(0.05);
        assert_eq!(a.trajectories, b.trajectories);
    }

    #[test]
    fn chess_paths_follow_the_dag() {
        let ds = chess(0.02);
        for t in ds.trajectories.iter().take(100) {
            assert!(is_connected_path(&ds.network, t));
            assert_eq!(t.len(), 10); // 10 plies
        }
    }

    #[test]
    fn randwalk_respects_parameters() {
        let ds = randwalk(4096, 4.0, 50_000, 3);
        assert_eq!(ds.n_edges(), 4096);
        let sym = ds.total_symbols();
        assert!((45_000..=55_000).contains(&sym), "{sym}");
        for t in ds.trajectories.iter().take(50) {
            assert!(is_connected_path(&ds.network, t));
        }
    }

    #[test]
    fn scale_controls_size() {
        let small = roma(0.02);
        let large = roma(0.08);
        assert!(large.total_symbols() > small.total_symbols() * 2);
    }

    #[test]
    fn all_five_present() {
        let all = all_table_datasets(0.01);
        let names: Vec<&str> = all.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec!["Singapore", "Singapore-2", "Roma", "MO-gen", "Chess"]
        );
        for d in &all {
            assert!(!d.trajectories.is_empty(), "{} is empty", d.name);
        }
    }
}
