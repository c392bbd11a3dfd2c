//! Directed road-network model.
//!
//! Trajectories are sequences of **edge IDs** (road segments), so the model
//! is edge-centric: the key relation is "which edges may follow edge `e`"
//! (edges leaving `e`'s head node). Nodes carry planar coordinates so
//! generators can express turn geometry (vehicles preferring to go
//! straight — the bias RML exploits, paper §V-D / Fig. 9).

use std::collections::BinaryHeap;

/// Node (intersection) identifier.
pub type NodeId = u32;
/// Edge (road segment) identifier — the alphabet of trajectory strings.
pub type EdgeId = u32;

/// One directed road segment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Tail node (where the segment starts).
    pub from: NodeId,
    /// Head node (where the segment ends).
    pub to: NodeId,
    /// Travel cost (length in abstract units).
    pub weight: f64,
}

/// A directed road network with coordinates, CSR-style adjacency, and an
/// edge-to-edge successor relation.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    /// Planar coordinates per node.
    pub coords: Vec<(f64, f64)>,
    edges: Vec<Edge>,
    /// CSR offsets into `out_edges` per node.
    node_out_offsets: Vec<u32>,
    /// Edge IDs leaving each node, grouped by node.
    node_out_edges: Vec<EdgeId>,
}

impl RoadNetwork {
    /// Build from raw parts. Edge order defines the edge-ID alphabet.
    pub fn new(coords: Vec<(f64, f64)>, edges: Vec<Edge>) -> Self {
        let n_nodes = coords.len();
        let mut counts = vec![0u32; n_nodes + 1];
        for e in &edges {
            debug_assert!((e.from as usize) < n_nodes && (e.to as usize) < n_nodes);
            counts[e.from as usize + 1] += 1;
        }
        for i in 1..=n_nodes {
            counts[i] += counts[i - 1];
        }
        let node_out_offsets = counts.clone();
        let mut fill = counts;
        let mut node_out_edges = vec![0 as EdgeId; edges.len()];
        for (id, e) in edges.iter().enumerate() {
            let slot = fill[e.from as usize];
            node_out_edges[slot as usize] = id as EdgeId;
            fill[e.from as usize] += 1;
        }
        Self {
            coords,
            edges,
            node_out_offsets,
            node_out_edges,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of edges = alphabet size of raw trajectories.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge record for `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e as usize]
    }

    /// Edges leaving node `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        let lo = self.node_out_offsets[v as usize] as usize;
        let hi = self.node_out_offsets[v as usize + 1] as usize;
        &self.node_out_edges[lo..hi]
    }

    /// Edges that can physically follow `e` (those leaving `e`'s head).
    #[inline]
    pub fn successors(&self, e: EdgeId) -> &[EdgeId] {
        self.out_edges(self.edges[e as usize].to)
    }

    /// Whether `b` may directly follow `a`.
    pub fn connected(&self, a: EdgeId, b: EdgeId) -> bool {
        self.edges[a as usize].to == self.edges[b as usize].from
    }

    /// Maximum out-degree over nodes (the paper's δ; "usually less than
    /// four" for road networks, Theorem 5).
    pub fn max_out_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.out_edges(v as NodeId).len())
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree over nodes.
    pub fn avg_out_degree(&self) -> f64 {
        self.num_edges() as f64 / self.num_nodes().max(1) as f64
    }

    /// Turn angle (radians, in `[-π, π]`) when moving from edge `a` onto
    /// edge `b`; 0 means straight ahead. Requires `connected(a, b)`.
    pub fn turn_angle(&self, a: EdgeId, b: EdgeId) -> f64 {
        let ea = self.edges[a as usize];
        let eb = self.edges[b as usize];
        let (ax, ay) = self.coords[ea.from as usize];
        let (bx, by) = self.coords[ea.to as usize];
        let (cx, cy) = self.coords[eb.to as usize];
        let (v1x, v1y) = (bx - ax, by - ay);
        let (v2x, v2y) = (cx - bx, cy - by);
        let dot = v1x * v2x + v1y * v2y;
        let cross = v1x * v2y - v1y * v2x;
        cross.atan2(dot)
    }

    /// Dijkstra from `source` node; returns per-node distance (`f64::INFINITY`
    /// if unreachable) and the incoming edge on the shortest-path tree.
    pub fn dijkstra(&self, source: NodeId) -> ShortestPaths {
        let n = self.num_nodes();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent_edge = vec![u32::MAX; n];
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        dist[source as usize] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
        while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for &eid in self.out_edges(v) {
                let e = self.edges[eid as usize];
                let nd = d + e.weight;
                if nd < dist[e.to as usize] {
                    dist[e.to as usize] = nd;
                    parent_edge[e.to as usize] = eid;
                    heap.push(HeapEntry {
                        dist: nd,
                        node: e.to,
                    });
                }
            }
        }
        ShortestPaths { dist, parent_edge }
    }

    /// Shortest path between two nodes, as an edge sequence. `None` if
    /// unreachable.
    pub fn shortest_path_edges(&self, from: NodeId, to: NodeId) -> Option<Vec<EdgeId>> {
        if from == to {
            return Some(Vec::new());
        }
        let sp = self.dijkstra(from);
        sp.path_to(self, to)
    }
}

/// Incremental Dijkstra: expands the search ball only as far as requested.
///
/// The PRESS-like shortest-path coder grows a window edge by edge and only
/// ever needs distances up to the window's accumulated weight; a full
/// Dijkstra per window start would make corpus encoding quadratic. This
/// wrapper keeps the priority queue alive between queries and settles
/// nodes lazily.
#[derive(Clone, Debug)]
pub struct LazyDijkstra {
    dist: Vec<f64>,
    parent_edge: Vec<u32>,
    /// Epoch stamps: an entry is valid only if its stamp equals `epoch`,
    /// so `reset` is O(1) and the buffers are reused across runs.
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    /// All nodes with final distance <= this radius are settled.
    settled_radius: f64,
}

impl LazyDijkstra {
    /// Allocate buffers for `net` and start a run from `source`.
    pub fn new(net: &RoadNetwork, source: NodeId) -> Self {
        let n = net.num_nodes();
        let mut this = Self {
            dist: vec![f64::INFINITY; n],
            parent_edge: vec![u32::MAX; n],
            stamp: vec![0; n],
            epoch: 0,
            heap: BinaryHeap::new(),
            settled_radius: -1.0,
        };
        this.reset(source);
        this
    }

    /// Restart from a new source, reusing the allocations (O(1) plus heap
    /// clear — no per-node re-initialisation).
    pub fn reset(&mut self, source: NodeId) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: invalidate everything explicitly.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();
        self.set(source, 0.0, u32::MAX);
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
        self.settled_radius = -1.0;
    }

    #[inline]
    fn set(&mut self, v: NodeId, d: f64, parent: u32) {
        self.dist[v as usize] = d;
        self.parent_edge[v as usize] = parent;
        self.stamp[v as usize] = self.epoch;
    }

    /// Expand until every node within `radius` of the source is settled.
    pub fn settle_to(&mut self, net: &RoadNetwork, radius: f64) {
        if radius <= self.settled_radius {
            return;
        }
        while let Some(&HeapEntry { dist: d, node: v }) = self.heap.peek() {
            if d > radius {
                break;
            }
            self.heap.pop();
            if d > self.dist(v) {
                continue; // stale entry
            }
            for &eid in net.out_edges(v) {
                let e = net.edge(eid);
                let nd = d + e.weight;
                if nd < self.dist(e.to) {
                    self.set(e.to, nd, eid);
                    self.heap.push(HeapEntry {
                        dist: nd,
                        node: e.to,
                    });
                }
            }
        }
        self.settled_radius = radius;
    }

    /// Distance to `node`, final only if `<= settled radius`.
    #[inline]
    pub fn dist(&self, node: NodeId) -> f64 {
        if self.stamp[node as usize] == self.epoch {
            self.dist[node as usize]
        } else {
            f64::INFINITY
        }
    }

    /// Shortest-path-tree incoming edge of `node` (`u32::MAX` = none yet).
    #[inline]
    pub fn parent_edge(&self, node: NodeId) -> u32 {
        if self.stamp[node as usize] == self.epoch {
            self.parent_edge[node as usize]
        } else {
            u32::MAX
        }
    }
}

/// Result of a Dijkstra run.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// Distance per node.
    pub dist: Vec<f64>,
    /// Incoming shortest-path-tree edge per node (`u32::MAX` = none).
    pub parent_edge: Vec<u32>,
}

impl ShortestPaths {
    /// Reconstruct the edge path to `target`, or `None` if unreachable.
    pub fn path_to(&self, net: &RoadNetwork, target: NodeId) -> Option<Vec<EdgeId>> {
        if !self.dist[target as usize].is_finite() {
            return None;
        }
        Some(tree_path(net, &self.parent_edge, target))
    }
}

/// The edge path from a shortest-path tree's root to `target`, read off
/// the tree's parent-edge array (`target` must be reachable).
fn tree_path(net: &RoadNetwork, parent_edge: &[u32], target: NodeId) -> Vec<EdgeId> {
    let mut path = Vec::new();
    let mut v = target;
    while parent_edge[v as usize] != u32::MAX {
        let e = parent_edge[v as usize];
        path.push(e);
        v = net.edge(e).from;
    }
    path.reverse();
    path
}

/// Shortest-path trees memoised per source node: the first path asked
/// from a source runs its Dijkstra, and the tree is kept as its
/// parent-edge array for every later path from that source. Serving any
/// number of paths costs at most |V| Dijkstras and |V|² words.
#[derive(Debug)]
pub struct ShortestPathTrees<'a> {
    net: &'a RoadNetwork,
    /// Parent-edge array per source node; empty until first used.
    parent_edges: Vec<Vec<u32>>,
}

impl<'a> ShortestPathTrees<'a> {
    /// An empty memo over `net`.
    pub fn new(net: &'a RoadNetwork) -> Self {
        Self {
            net,
            parent_edges: vec![Vec::new(); net.num_nodes()],
        }
    }

    /// Shortest path between two nodes, as an edge sequence (the same
    /// path [`RoadNetwork::shortest_path_edges`] returns). `None` if
    /// unreachable.
    pub fn path(&mut self, from: NodeId, to: NodeId) -> Option<Vec<EdgeId>> {
        let net = self.net;
        let tree = &mut self.parent_edges[from as usize];
        if tree.is_empty() {
            *tree = net.dijkstra(from).parent_edge;
        }
        // With non-negative edge weights only the root has no parent edge.
        if to != from && tree[to as usize] == u32::MAX {
            return None;
        }
        Some(tree_path(net, tree, to))
    }
}

/// Max-heap entry ordered by smallest distance first.
#[derive(Clone, Copy, Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-node diamond: 0 → 1 → 3 and 0 → 2 → 3, plus a long direct 0 → 3.
    fn diamond() -> RoadNetwork {
        let coords = vec![(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (2.0, 0.0)];
        let edges = vec![
            Edge {
                from: 0,
                to: 1,
                weight: 1.0,
            }, // e0
            Edge {
                from: 0,
                to: 2,
                weight: 2.0,
            }, // e1
            Edge {
                from: 1,
                to: 3,
                weight: 1.0,
            }, // e2
            Edge {
                from: 2,
                to: 3,
                weight: 1.0,
            }, // e3
            Edge {
                from: 0,
                to: 3,
                weight: 10.0,
            }, // e4
        ];
        RoadNetwork::new(coords, edges)
    }

    #[test]
    fn adjacency() {
        let net = diamond();
        assert_eq!(net.out_edges(0), &[0, 1, 4]);
        assert_eq!(net.out_edges(3), &[] as &[EdgeId]);
        assert_eq!(net.successors(0), &[2]);
        assert!(net.connected(0, 2));
        assert!(!net.connected(0, 3));
        assert_eq!(net.max_out_degree(), 3);
    }

    #[test]
    fn dijkstra_distances() {
        let net = diamond();
        let sp = net.dijkstra(0);
        assert_eq!(sp.dist[0], 0.0);
        assert_eq!(sp.dist[1], 1.0);
        assert_eq!(sp.dist[2], 2.0);
        assert_eq!(sp.dist[3], 2.0); // via node 1, not the weight-10 edge
    }

    #[test]
    fn shortest_path_reconstruction() {
        let net = diamond();
        assert_eq!(net.shortest_path_edges(0, 3), Some(vec![0, 2]));
        assert_eq!(net.shortest_path_edges(0, 0), Some(vec![]));
        assert_eq!(net.shortest_path_edges(3, 0), None); // no reverse edges
    }

    #[test]
    fn turn_angles() {
        // straight line 0 → 1 → 2 along x-axis, plus a left turn up.
        let coords = vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 1.0)];
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
            Edge {
                from: 1,
                to: 3,
                weight: 1.0,
            },
        ];
        let net = RoadNetwork::new(coords, edges);
        assert!(net.turn_angle(0, 1).abs() < 1e-12); // straight
        assert!((net.turn_angle(0, 2) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        // left
    }

    #[test]
    fn unreachable_nodes() {
        let net = RoadNetwork::new(
            vec![(0.0, 0.0), (1.0, 0.0)],
            vec![Edge {
                from: 0,
                to: 1,
                weight: 1.0,
            }],
        );
        let sp = net.dijkstra(1);
        assert!(!sp.dist[0].is_finite());
        assert!(sp.path_to(&net, 0).is_none());
    }
}
