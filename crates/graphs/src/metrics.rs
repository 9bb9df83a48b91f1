//! Distance metrics: eccentricities, diameter, radius.
//!
//! These are the centralized ground-truth quantities the paper's distributed
//! algorithms compute. [`eccentricities`] (and with it [`diameter`],
//! [`radius`] and [`peripheral_node`]) runs a bit-parallel multi-source BFS
//! (Then et al., "The More the Merrier", PVLDB 2014): 64 sources share one
//! `u64` word per node, so all eccentricities cost
//! `O(⌈n/64⌉ · (ecc_max + 1) · (n + m))` word operations.

use crate::traversal::Bfs;
use crate::{Dist, Graph, NodeId};

/// Eccentricity of `v`: the largest distance from `v` to any node.
///
/// Returns `None` if the graph is disconnected (the eccentricity is then
/// infinite) or empty.
pub fn eccentricity(graph: &Graph, v: NodeId) -> Option<Dist> {
    Bfs::run(graph, v).eccentricity()
}

/// Eccentricities of all nodes, or `None` if the graph is disconnected or
/// empty.
///
/// Runs the sources in batches of 64, one bit per source: `seen[v]` holds
/// the sources that have reached `v`, `frontier[v]` those that reached it at
/// the current level. Each level pushes every frontier word to its
/// neighbours (`next[w] |= frontier[v]`) and keeps `next & !seen` as the
/// new frontier; a source's eccentricity is the last level at which its bit
/// was new anywhere. The three word arrays are allocated once and reused
/// across batches.
pub fn eccentricities(graph: &Graph) -> Option<Vec<Dist>> {
    let n = graph.len();
    if n == 0 {
        return None;
    }
    let mut ecc = vec![0; n];
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    for base in (0..n).step_by(64) {
        let width = (n - base).min(64);
        let all = u64::MAX >> (64 - width);
        seen.fill(0);
        frontier.fill(0);
        for i in 0..width {
            seen[base + i] = 1 << i;
            frontier[base + i] = 1 << i;
        }
        let mut level: Dist = 0;
        loop {
            for (v, &bits) in frontier.iter().enumerate() {
                if bits != 0 {
                    for &w in graph.neighbors(NodeId::new(v)) {
                        next[w.index()] |= bits;
                    }
                }
            }
            let mut grew = 0u64;
            for ((s, f), x) in seen.iter_mut().zip(&mut frontier).zip(&mut next) {
                let new = *x & !*s;
                *s |= new;
                *f = new;
                *x = 0;
                grew |= new;
            }
            if grew == 0 {
                break;
            }
            level += 1;
            while grew != 0 {
                ecc[base + grew.trailing_zeros() as usize] = level;
                grew &= grew - 1;
            }
        }
        if seen.iter().any(|&s| s != all) {
            return None;
        }
    }
    Some(ecc)
}

/// Diameter: the maximum eccentricity.
///
/// Returns `None` if the graph is disconnected or empty. The single-node
/// graph has diameter 0.
///
/// # Example
///
/// ```
/// use graphs::{generators, metrics};
///
/// assert_eq!(metrics::diameter(&generators::path(10)), Some(9));
/// assert_eq!(metrics::diameter(&generators::complete(10)), Some(1));
/// ```
pub fn diameter(graph: &Graph) -> Option<Dist> {
    eccentricities(graph)?.into_iter().max()
}

/// Radius: the minimum eccentricity.
///
/// Returns `None` if the graph is disconnected or empty.
pub fn radius(graph: &Graph) -> Option<Dist> {
    eccentricities(graph)?.into_iter().min()
}

/// A node of maximum eccentricity (a "peripheral" node) together with the
/// diameter, or `None` if disconnected/empty.
///
/// Ties break toward the smallest node id.
pub fn peripheral_node(graph: &Graph) -> Option<(NodeId, Dist)> {
    let eccs = eccentricities(graph)?;
    let (idx, &max) = eccs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
    Some((NodeId::new(idx), max))
}

/// Girth: the length of a shortest cycle, or `None` for forests.
///
/// Uses the standard edge-removal characterization: the shortest cycle
/// through an edge `{u, v}` has length `d_{G−uv}(u, v) + 1`, so the girth
/// is the minimum over edges. `O(m · (n + m))`.
///
/// # Example
///
/// ```
/// use graphs::{generators, metrics};
///
/// assert_eq!(metrics::girth(&generators::cycle(7)), Some(7));
/// assert_eq!(metrics::girth(&generators::path(7)), None);
/// assert_eq!(metrics::girth(&generators::complete(5)), Some(3));
/// ```
pub fn girth(graph: &Graph) -> Option<Dist> {
    use std::collections::VecDeque;
    let mut best: Option<Dist> = None;
    for (u, v) in graph.edges() {
        // BFS from u avoiding the edge {u, v}.
        let mut dist = vec![crate::INFINITY; graph.len()];
        let mut queue = VecDeque::new();
        dist[u.index()] = 0;
        queue.push_back(u);
        'bfs: while let Some(a) = queue.pop_front() {
            let da = dist[a.index()];
            if let Some(b) = best {
                // Cycles through this edge can no longer beat the best.
                if da + 1 >= b {
                    break 'bfs;
                }
            }
            for &c in graph.neighbors(a) {
                if (a == u && c == v) || (a == v && c == u) {
                    continue;
                }
                if dist[c.index()] == crate::INFINITY {
                    dist[c.index()] = da + 1;
                    queue.push_back(c);
                }
            }
        }
        if dist[v.index()] != crate::INFINITY {
            let cycle = dist[v.index()] + 1;
            best = Some(best.map_or(cycle, |b| b.min(cycle)));
        }
    }
    best
}

/// The largest distance between a node of `left` and a node of `right` —
/// the quantity `Δ(G)` of the paper's Section 5 (used by the
/// disjointness-to-diameter reductions, Definition 3).
///
/// Returns `None` if some pair is disconnected or either side is empty.
pub fn bipartite_delta(graph: &Graph, left: &[NodeId], right: &[NodeId]) -> Option<Dist> {
    if left.is_empty() || right.is_empty() {
        return None;
    }
    let mut best = 0;
    for &u in left {
        let bfs = Bfs::run(graph, u);
        for &v in right {
            best = best.max(bfs.dist(v)?);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Graph;

    #[test]
    fn path_metrics() {
        let g = generators::path(9);
        assert_eq!(diameter(&g), Some(8));
        assert_eq!(radius(&g), Some(4));
        assert_eq!(eccentricity(&g, NodeId::new(4)), Some(4));
        assert_eq!(eccentricity(&g, NodeId::new(0)), Some(8));
    }

    #[test]
    fn cycle_metrics() {
        let g = generators::cycle(10);
        assert_eq!(diameter(&g), Some(5));
        assert_eq!(radius(&g), Some(5));
    }

    #[test]
    fn complete_graph_diameter_one() {
        let g = generators::complete(6);
        assert_eq!(diameter(&g), Some(1));
        assert_eq!(radius(&g), Some(1));
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(diameter(&g), Some(0));
        assert_eq!(radius(&g), Some(0));
        assert_eq!(peripheral_node(&g), Some((NodeId::new(0), 0)));
    }

    #[test]
    fn disconnected_metrics_are_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
        assert_eq!(eccentricities(&g), None);
        assert_eq!(peripheral_node(&g), None);
    }

    #[test]
    fn empty_graph_has_no_eccentricities() {
        let g = Graph::from_edges(0, []).unwrap();
        assert_eq!(eccentricities(&g), None);
        assert_eq!(diameter(&g), None);
        assert_eq!(radius(&g), None);
        assert_eq!(peripheral_node(&g), None);
    }

    /// The per-source reference: one queue BFS per node.
    fn per_source(g: &Graph) -> Option<Vec<Dist>> {
        g.nodes().map(|v| Bfs::run(g, v).eccentricity()).collect()
    }

    #[test]
    fn eccentricities_match_per_source_bfs_across_word_boundaries() {
        for n in [1, 2, 63, 64, 65, 127, 128, 129] {
            let mut families = vec![generators::path(n)];
            if n >= 2 {
                families.push(generators::star(n - 1));
                families.push(generators::random_sparse(n, 4.0, n as u64));
            }
            if n >= 3 {
                families.push(generators::cycle(n));
            }
            for g in families {
                assert_eq!(g.len(), n);
                let expected = per_source(&g);
                assert!(expected.is_some(), "families are connected (n = {n})");
                assert_eq!(eccentricities(&g), expected, "n = {n}");
            }
        }
    }

    #[test]
    fn eccentricities_match_per_source_bfs_on_grids_and_trees() {
        for g in [
            generators::grid(8, 9),
            generators::balanced_tree(2, 7),
            generators::hypercube(7),
            generators::barbell(40, 30),
        ] {
            assert_eq!(eccentricities(&g), per_source(&g));
        }
    }

    #[test]
    fn disconnected_only_in_the_last_partial_word_is_none() {
        // Path on 0..64 plus an isolated node 64: the first batch (sources
        // 0..64) never reaches node 64, and the second batch (source 64
        // alone) reaches nothing else.
        let g = Graph::from_edges(65, (0..63).map(|i| (i, i + 1))).unwrap();
        assert_eq!(eccentricities(&g), None);
        assert_eq!(per_source(&g), None);
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn peripheral_node_on_star() {
        let g = generators::star(5);
        let (v, ecc) = peripheral_node(&g).unwrap();
        assert_eq!(ecc, 2);
        assert_ne!(v, NodeId::new(0)); // the hub has eccentricity 1
        assert_eq!(v, NodeId::new(1)); // smallest id among the leaves
    }

    #[test]
    fn girth_on_families() {
        assert_eq!(girth(&generators::cycle(3)), Some(3));
        assert_eq!(girth(&generators::cycle(11)), Some(11));
        assert_eq!(girth(&generators::complete(4)), Some(3));
        assert_eq!(girth(&generators::grid(3, 4)), Some(4));
        assert_eq!(girth(&generators::hypercube(4)), Some(4));
        assert_eq!(girth(&generators::path(9)), None);
        assert_eq!(girth(&generators::star(6)), None);
        assert_eq!(girth(&generators::random_tree(30, 1)), None);
        // Subdividing multiplies the girth.
        let g = generators::subdivide(&generators::cycle(4), 2);
        assert_eq!(girth(&g), Some(12));
        // Barbell: the cliques contain triangles.
        assert_eq!(girth(&generators::barbell(4, 6)), Some(3));
    }

    #[test]
    fn girth_of_disconnected_graph_sees_each_component() {
        // Triangle plus a separate path: girth 3 despite disconnection.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]).unwrap();
        assert_eq!(girth(&g), Some(3));
    }

    #[test]
    fn bipartite_delta_on_path() {
        let g = generators::path(6);
        let left = [NodeId::new(0), NodeId::new(1)];
        let right = [NodeId::new(4), NodeId::new(5)];
        assert_eq!(bipartite_delta(&g, &left, &right), Some(5));
        assert_eq!(bipartite_delta(&g, &left, &[]), None);
    }

    #[test]
    fn diameter_equals_max_bipartite_delta_over_all_nodes() {
        let g = generators::grid(3, 4);
        let all: Vec<NodeId> = g.nodes().collect();
        assert_eq!(bipartite_delta(&g, &all, &all), diameter(&g));
    }
}
