//! Trajectory generation on road networks.
//!
//! Provides the travel behaviours behind the paper's datasets:
//!
//! * [`WalkConfig`] — turn-biased random walks. Real vehicles mostly go
//!   straight (paper §II-B, §V-D), so walks weight successor edges by turn
//!   angle; `straight_bias` tunes the resulting entropy, letting us hit the
//!   paper's per-dataset `H0(φ(T_bwt))` profile (Table III).
//! * [`TripGenerator`] — shortest-path trips between random origin /
//!   destination pairs (Brinkhoff-style moving-object generation for the
//!   MO-gen emulation).
//! * [`GapNoise`] — random "gapped" transitions emulating map-matching
//!   noise in the Singapore dataset, plus [`interpolate_gaps`] which fills
//!   gaps with shortest paths, exactly the Singapore → Singapore-2
//!   preprocessing of §VI-A4. Gap noise needs a network without dead
//!   ends (every edge has a successor) and panics on one.
//!
//! **Cost.** Every generator is linear in the size of its output, plus
//! one-off work per network: a walk reads its turn weights from a table
//! built once per [`WalkConfig::generate`] call (O(|E|·δ)); a gap's
//! re-walk is written only up to the next gap, the draws it would make
//! past that being skipped as raw `next_u64` calls; and trips and gap
//! fills read their paths from one memoised shortest-path tree per
//! distinct source node ([`ShortestPathTrees`]), so at most |V|
//! Dijkstras per call. None of this changes the sequence of random draws
//! or the values computed from them, so a seed fixes its corpus
//! (`cinct_datasets`' golden corpus table pins them).

use crate::graph::{EdgeId, RoadNetwork, ShortestPathTrees};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for turn-biased random walks.
#[derive(Clone, Copy, Debug)]
pub struct WalkConfig {
    /// Weight multiplier for the straightest successor. 1.0 = uniform walk;
    /// larger values concentrate probability on going straight, lowering
    /// the entropy of the RML label stream.
    pub straight_bias: f64,
    /// Trajectory length is sampled uniformly from this range.
    pub min_len: usize,
    /// Inclusive upper bound on trajectory length.
    pub max_len: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            straight_bias: 4.0,
            min_len: 10,
            max_len: 60,
        }
    }
}

impl WalkConfig {
    /// Generate `count` trajectories by turn-biased random walks, each
    /// starting from a uniformly random edge.
    pub fn generate(&self, net: &RoadNetwork, count: usize, seed: u64) -> Vec<Vec<EdgeId>> {
        let turns = TurnWeights::new(self.straight_bias, net);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| self.walk(net, &turns, &mut rng))
            .filter(|t| !t.is_empty())
            .collect()
    }

    fn walk(&self, net: &RoadNetwork, turns: &TurnWeights, rng: &mut StdRng) -> Vec<EdgeId> {
        let len = rng.gen_range(self.min_len..=self.max_len);
        let mut cur = rng.gen_range(0..net.num_edges()) as EdgeId;
        let mut out = Vec::with_capacity(len);
        out.push(cur);
        for _ in 1..len {
            let succ = net.successors(cur);
            cur = match succ {
                [] => break,
                [only] => *only,
                _ => turns.pick(cur, succ, rng),
            };
            out.push(cur);
        }
        out
    }
}

/// The weight of every turn in a network, tabulated once: turning from
/// `e` onto its `i`-th successor weighs `weights[offsets[e] + i]`, where
/// weight = `straight_bias^(1 - |angle|/π)` and U-turns (|angle| > 0.9π)
/// are further damped; `totals[e]` is the sum of `e`'s turn weights.
struct TurnWeights {
    offsets: Vec<usize>,
    weights: Vec<f64>,
    totals: Vec<f64>,
}

impl TurnWeights {
    fn new(straight_bias: f64, net: &RoadNetwork) -> Self {
        let mut offsets = Vec::with_capacity(net.num_edges() + 1);
        let mut weights = Vec::new();
        let mut totals = Vec::with_capacity(net.num_edges());
        offsets.push(0);
        for e in 0..net.num_edges() as EdgeId {
            let lo = weights.len();
            weights.extend(net.successors(e).iter().map(|&s| {
                let a = net.turn_angle(e, s).abs() / std::f64::consts::PI;
                let mut w = straight_bias.powf(1.0 - a);
                if a > 0.9 {
                    w *= 0.05; // U-turns are rare in traffic
                }
                w
            }));
            totals.push(weights[lo..].iter().sum());
            offsets.push(weights.len());
        }
        Self {
            offsets,
            weights,
            totals,
        }
    }

    /// Weighted choice over `succ`, the successors of `cur` (one draw).
    fn pick(&self, cur: EdgeId, succ: &[EdgeId], rng: &mut StdRng) -> EdgeId {
        let e = cur as usize;
        let weights = &self.weights[self.offsets[e]..self.offsets[e + 1]];
        let mut u = rng.gen::<f64>() * self.totals[e];
        for (&s, &w) in succ.iter().zip(weights) {
            if u <= w {
                return s;
            }
            u -= w;
        }
        *succ.last().expect("non-empty successors")
    }
}

/// Shortest-path trips between random origin/destination node pairs.
///
/// Paths come from one shortest-path tree per distinct origin, computed
/// on first use and kept for the call, so a call costs at most |V|
/// Dijkstras plus the length of the trips it returns.
#[derive(Clone, Copy, Debug)]
pub struct TripGenerator {
    /// Trips shorter than this many edges are rejected and resampled.
    pub min_edges: usize,
    /// Number of O/D resampling attempts before giving up on a trip.
    pub max_attempts: usize,
}

impl Default for TripGenerator {
    fn default() -> Self {
        Self {
            min_edges: 8,
            max_attempts: 8,
        }
    }
}

/// Destinations drawn per origin before a new origin is drawn.
const TRIPS_PER_ORIGIN: usize = 4;

/// Consecutive origins yielding no trip after which a network is taken to
/// hold no (more) trips of `min_edges` edges.
const BARREN_ORIGIN_LIMIT: usize = 1_000;

impl TripGenerator {
    /// Generate up to `count` shortest-path trips.
    ///
    /// Returns fewer than `count` trips — possibly none — once 1 000
    /// origins in a row yield no trip of at least `min_edges` edges, as on
    /// a network whose diameter is below `min_edges`.
    pub fn generate(&self, net: &RoadNetwork, count: usize, seed: u64) -> Vec<Vec<EdgeId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees = ShortestPathTrees::new(net);
        let mut out = Vec::with_capacity(count);
        let mut barren = 0;
        while out.len() < count && barren < BARREN_ORIGIN_LIMIT {
            let from = rng.gen_range(0..net.num_nodes()) as u32;
            let mut produced = 0usize;
            for _ in 0..self.max_attempts * TRIPS_PER_ORIGIN {
                if produced == TRIPS_PER_ORIGIN || out.len() == count {
                    break;
                }
                let to = rng.gen_range(0..net.num_nodes()) as u32;
                if let Some(path) = trees.path(from, to) {
                    if path.len() >= self.min_edges {
                        out.push(path);
                        produced += 1;
                    }
                }
            }
            barren = if produced == 0 { barren + 1 } else { 0 };
        }
        out
    }
}

/// Map-matching gap noise: with probability `gap_prob`, a step jumps to a
/// uniformly random edge instead of a connected successor — producing the
/// physically-disconnected transitions that inflate the Singapore dataset's
/// ET-graph out-degree to d̄ ≈ 27 (Table III).
#[derive(Clone, Copy, Debug)]
pub struct GapNoise {
    /// Per-step probability of a gapped (teleport) transition.
    pub gap_prob: f64,
}

impl GapNoise {
    /// Corrupt trajectories in place. After a gap, the rest of the
    /// trajectory is re-walked uniformly from the teleported edge so it
    /// stays connected; a later gap replaces that re-walk from its own
    /// position on.
    ///
    /// Each re-walk takes one draw per remaining position, but only the
    /// part up to the next gap is built, from a copy of the generator
    /// taken at the gap, so the cost is linear in the trajectory plus one
    /// raw draw per skipped position.
    ///
    /// # Panics
    ///
    /// If an edge of `net` has no successor: a re-walk must be able to
    /// continue from any edge.
    pub fn apply(&self, net: &RoadNetwork, trajs: &mut [Vec<EdgeId>], seed: u64) {
        if let Some(e) = (0..net.num_edges() as EdgeId).find(|&e| net.successors(e).is_empty()) {
            panic!("gap noise needs every edge to have a successor; edge {e} is a dead end");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for t in trajs.iter_mut() {
            // The latest gap's re-walk, not yet written: the generator as
            // it stood after the teleport, and the first position it writes.
            let mut pending: Option<(StdRng, usize)> = None;
            for i in 1..t.len() {
                if rng.gen::<f64>() < self.gap_prob {
                    if let Some((walk_rng, from)) = pending.take() {
                        rewalk(net, &mut t[..i], from, walk_rng);
                    }
                    t[i] = rng.gen_range(0..net.num_edges()) as EdgeId;
                    pending = Some((rng.clone(), i + 1));
                    for _ in i + 1..t.len() {
                        rng.next_u64();
                    }
                }
            }
            if let Some((walk_rng, from)) = pending {
                rewalk(net, t, from, walk_rng);
            }
        }
    }
}

/// Uniform walk over `t[from..]`, each step continuing from the one
/// before it, one draw per step.
fn rewalk(net: &RoadNetwork, t: &mut [EdgeId], from: usize, mut rng: StdRng) {
    for j in from..t.len() {
        let succ = net.successors(t[j - 1]);
        t[j] = succ[rng.gen_range(0..succ.len())];
    }
}

/// Replace every physically-disconnected transition `a → b` with
/// `a → shortest_path(head(a), tail(b)) → b` (the Singapore-2
/// preprocessing). Transitions with no connecting path split the
/// trajectory.
///
/// Fills come from one shortest-path tree per distinct gap source node,
/// computed on first use, so a call costs at most |V| Dijkstras plus the
/// length of its output.
pub fn interpolate_gaps(net: &RoadNetwork, trajs: &[Vec<EdgeId>]) -> Vec<Vec<EdgeId>> {
    let mut trees = ShortestPathTrees::new(net);
    let mut out = Vec::with_capacity(trajs.len());
    for t in trajs {
        let mut cur: Vec<EdgeId> = Vec::with_capacity(t.len());
        for (i, &e) in t.iter().enumerate() {
            if i == 0 {
                cur.push(e);
                continue;
            }
            let prev = *cur.last().expect("non-empty");
            if net.connected(prev, e) {
                cur.push(e);
            } else {
                let from = net.edge(prev).to;
                let to = net.edge(e).from;
                match trees.path(from, to) {
                    Some(mut fill) => {
                        cur.append(&mut fill);
                        cur.push(e);
                    }
                    None => {
                        // Unbridgeable gap: split into a new trajectory.
                        if cur.len() > 1 {
                            out.push(std::mem::take(&mut cur));
                        } else {
                            cur.clear();
                        }
                        cur.push(e);
                    }
                }
            }
        }
        if cur.len() > 1 {
            out.push(cur);
        }
    }
    out
}

/// Check that every consecutive pair in a trajectory is physically
/// connected in the network.
pub fn is_connected_path(net: &RoadNetwork, t: &[EdgeId]) -> bool {
    t.windows(2).all(|w| net.connected(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::grid_city;
    use crate::graph::Edge;

    #[test]
    fn walks_are_connected_paths() {
        let net = grid_city(8, 8, 1);
        let trajs = WalkConfig::default().generate(&net, 50, 2);
        assert!(!trajs.is_empty());
        for t in &trajs {
            assert!(is_connected_path(&net, t), "disconnected walk");
            assert!(t.len() >= 2);
        }
    }

    #[test]
    fn straight_bias_reduces_turning() {
        let net = grid_city(12, 12, 1);
        let count_turns = |bias: f64| -> f64 {
            let cfg = WalkConfig {
                straight_bias: bias,
                min_len: 30,
                max_len: 30,
            };
            let trajs = cfg.generate(&net, 100, 7);
            let mut turns = 0usize;
            let mut steps = 0usize;
            for t in &trajs {
                for w in t.windows(2) {
                    steps += 1;
                    if net.turn_angle(w[0], w[1]).abs() > 0.1 {
                        turns += 1;
                    }
                }
            }
            turns as f64 / steps as f64
        };
        let uniform = count_turns(1.0);
        let biased = count_turns(16.0);
        assert!(
            biased < uniform * 0.6,
            "bias did not reduce turns: {biased} vs {uniform}"
        );
    }

    #[test]
    fn trips_are_shortest_paths() {
        let net = grid_city(10, 10, 3);
        let trips = TripGenerator::default().generate(&net, 20, 5);
        assert_eq!(trips.len(), 20);
        for t in &trips {
            assert!(is_connected_path(&net, t));
            assert!(t.len() >= 8);
            // Verify optimality: path weight equals Dijkstra distance.
            let from = net.edge(t[0]).from;
            let to = net.edge(*t.last().unwrap()).to;
            let sp = net.dijkstra(from);
            let w: f64 = t.iter().map(|&e| net.edge(e).weight).sum();
            assert!((w - sp.dist[to as usize]).abs() < 1e-9);
        }
    }

    /// Nodes `0..n` on a line, with a segment each way between neighbours.
    fn line(n: u32) -> RoadNetwork {
        let coords = (0..n).map(|i| (f64::from(i), 0.0)).collect();
        let edges = (0..n - 1)
            .flat_map(|i| [(i, i + 1), (i + 1, i)])
            .map(|(from, to)| Edge {
                from,
                to,
                weight: 1.0,
            })
            .collect();
        RoadNetwork::new(coords, edges)
    }

    #[test]
    fn trips_stop_on_a_network_too_small_for_them() {
        // Diameter 4 edges, so no trip reaches `min_edges`.
        let net = line(5);
        let gen = TripGenerator {
            min_edges: 5,
            max_attempts: 8,
        };
        assert!(gen.generate(&net, 10, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "edge 1 is a dead end")]
    fn gap_noise_rejects_a_network_with_a_dead_end() {
        // 0 → 1 → 2: edge 1 ends where nothing leaves.
        let coords = vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)];
        let edges = vec![
            Edge {
                from: 0,
                to: 1,
                weight: 1.0,
            },
            Edge {
                from: 1,
                to: 2,
                weight: 1.0,
            },
        ];
        let net = RoadNetwork::new(coords, edges);
        let mut trajs = vec![vec![0, 1]; 8];
        GapNoise { gap_prob: 1.0 }.apply(&net, &mut trajs, 3);
    }

    #[test]
    fn gap_noise_disconnects_then_interpolation_reconnects() {
        let net = grid_city(10, 10, 3);
        let mut trajs = WalkConfig::default().generate(&net, 80, 11);
        GapNoise { gap_prob: 0.1 }.apply(&net, &mut trajs, 13);
        let broken = trajs.iter().filter(|t| !is_connected_path(&net, t)).count();
        assert!(broken > 0, "noise should break some trajectories");
        let fixed = interpolate_gaps(&net, &trajs);
        for t in &fixed {
            assert!(is_connected_path(&net, t), "interpolation left a gap");
        }
        // Interpolation inserts edges, so total symbols grow (like 53M → 75M
        // for Singapore → Singapore-2 in Table III).
        let before: usize = trajs.iter().map(Vec::len).sum();
        let after: usize = fixed.iter().map(Vec::len).sum();
        assert!(after > before);
    }

    #[test]
    fn interpolation_is_identity_on_clean_paths() {
        let net = grid_city(6, 6, 5);
        let trajs = WalkConfig::default().generate(&net, 10, 17);
        let fixed = interpolate_gaps(&net, &trajs);
        assert_eq!(trajs, fixed);
    }

    #[test]
    fn deterministic_generation() {
        let net = grid_city(6, 6, 5);
        let a = WalkConfig::default().generate(&net, 10, 99);
        let b = WalkConfig::default().generate(&net, 10, 99);
        assert_eq!(a, b);
    }
}
