//! Property-based tests for the road-network substrate: Dijkstra vs a
//! Bellman-Ford oracle, generator invariants, and travel-simulation
//! guarantees on arbitrary networks.

use cinct_network::generators::{grid_city, poisson_digraph};
use cinct_network::graph::{Edge, ShortestPathTrees};
use cinct_network::travel::{interpolate_gaps, is_connected_path};
use cinct_network::{RoadNetwork, WalkConfig};
use proptest::prelude::*;

/// Arbitrary small connected-ish digraphs.
fn network_strategy() -> impl Strategy<Value = RoadNetwork> {
    (3usize..15).prop_flat_map(|n_nodes| {
        proptest::collection::vec(
            (0..n_nodes as u32, 0..n_nodes as u32, 1u32..100),
            n_nodes..n_nodes * 3,
        )
        .prop_map(move |edge_specs| {
            let coords: Vec<(f64, f64)> = (0..n_nodes)
                .map(|i| ((i * 7 % 13) as f64, (i * 5 % 11) as f64))
                .collect();
            let mut edges: Vec<Edge> = edge_specs
                .into_iter()
                .map(|(from, to, w)| Edge {
                    from,
                    to,
                    weight: w as f64 + 0.001 * ((from as f64) + 1.3 * to as f64),
                })
                .collect();
            // Guarantee every node has an out-edge so walks don't stall.
            for v in 0..n_nodes as u32 {
                edges.push(Edge {
                    from: v,
                    to: (v + 1) % n_nodes as u32,
                    weight: 50.0 + v as f64 * 0.01,
                });
            }
            RoadNetwork::new(coords, edges)
        })
    })
}

/// Bellman–Ford oracle for distances.
fn bellman_ford(net: &RoadNetwork, source: u32) -> Vec<f64> {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    dist[source as usize] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for e in 0..net.num_edges() as u32 {
            let edge = net.edge(e);
            let nd = dist[edge.from as usize] + edge.weight;
            if nd < dist[edge.to as usize] - 1e-12 {
                dist[edge.to as usize] = nd;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dijkstra_matches_bellman_ford(net in network_strategy(), src_sel in any::<u32>()) {
        let src = src_sel % net.num_nodes() as u32;
        let sp = net.dijkstra(src);
        let oracle = bellman_ford(&net, src);
        for (v, &b) in oracle.iter().enumerate().take(net.num_nodes()) {
            let a = sp.dist[v];
            prop_assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-6,
                "node {}: dijkstra {} vs bf {}", v, a, b
            );
        }
    }

    #[test]
    fn shortest_path_edges_have_matching_weight(net in network_strategy(), sels in (any::<u32>(), any::<u32>())) {
        let from = sels.0 % net.num_nodes() as u32;
        let to = sels.1 % net.num_nodes() as u32;
        // The memo's first answer runs a Dijkstra, its second reads the tree.
        let mut trees = ShortestPathTrees::new(&net);
        for _ in 0..2 {
            prop_assert_eq!(trees.path(from, to), net.shortest_path_edges(from, to));
        }
        if let Some(path) = net.shortest_path_edges(from, to) {
            prop_assert!(is_connected_path(&net, &path));
            if !path.is_empty() {
                prop_assert_eq!(net.edge(path[0]).from, from);
                prop_assert_eq!(net.edge(*path.last().unwrap()).to, to);
            }
            let w: f64 = path.iter().map(|&e| net.edge(e).weight).sum();
            let sp = net.dijkstra(from);
            prop_assert!((w - sp.dist[to as usize]).abs() < 1e-6);
        }
    }

    #[test]
    fn walks_follow_the_network(net in network_strategy(), seed in any::<u64>()) {
        let cfg = WalkConfig { straight_bias: 2.0, min_len: 2, max_len: 15 };
        let trajs = cfg.generate(&net, 10, seed);
        for t in &trajs {
            prop_assert!(is_connected_path(&net, t));
        }
    }

    #[test]
    fn interpolation_yields_connected_paths(net in network_strategy(), seed in any::<u64>()) {
        // Build deliberately gapped trajectories by concatenating two walks.
        let cfg = WalkConfig { straight_bias: 1.5, min_len: 2, max_len: 8 };
        let a = cfg.generate(&net, 5, seed);
        let b = cfg.generate(&net, 5, seed ^ 0xFFFF);
        let glued: Vec<Vec<u32>> = a
            .into_iter()
            .zip(b)
            .map(|(mut x, y)| {
                x.extend(y);
                x
            })
            .collect();
        for t in interpolate_gaps(&net, &glued) {
            prop_assert!(is_connected_path(&net, &t), "gap survived interpolation");
        }
    }
}

#[test]
fn generators_are_deterministic_and_well_formed() {
    for seed in [1u64, 7, 42] {
        let a = grid_city(7, 5, seed);
        let b = grid_city(7, 5, seed);
        assert_eq!(a.num_edges(), b.num_edges());
        for e in 0..a.num_edges() as u32 {
            assert_eq!(a.edge(e), b.edge(e));
        }
        let p = poisson_digraph(500, 3.0, seed);
        assert_eq!(p.num_edges(), 500);
        for e in 0..p.num_edges() as u32 {
            assert!(
                !p.successors(e).is_empty(),
                "dead-end edge in poisson graph"
            );
        }
    }
}
