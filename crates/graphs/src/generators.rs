//! Graph families used by the experiments.
//!
//! Deterministic families (paths, cycles, grids, …) exercise extreme
//! diameters; seeded random families (Erdős–Rényi, random trees) provide the
//! "typical" instances for the paper's round-complexity sweeps. Every random
//! generator takes an explicit seed so experiments are reproducible.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::{Graph, GraphBuilder};

/// Path graph `P_n`: `0 — 1 — … — n-1`. Diameter `n - 1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path requires at least one node");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.edge(i - 1, i);
    }
    b.build()
}

/// Cycle graph `C_n`. Diameter `⌊n/2⌋`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires at least three nodes");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.edge(i - 1, i);
    }
    b.edge(n - 1, 0);
    b.build()
}

/// Complete graph `K_n`. Diameter 1 (for `n ≥ 2`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "complete graph requires at least one node");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.edge(i, j);
        }
    }
    b.build()
}

/// Star with a hub (node 0) and `leaves` leaves. Diameter 2 (for `leaves ≥ 2`).
///
/// # Panics
///
/// Panics if `leaves == 0`.
pub fn star(leaves: usize) -> Graph {
    assert!(leaves > 0, "star requires at least one leaf");
    let mut b = GraphBuilder::new(leaves + 1);
    for i in 1..=leaves {
        b.edge(0, i);
    }
    b.build()
}

/// `rows × cols` grid. Node `(r, c)` has index `r * cols + c`.
/// Diameter `rows + cols - 2`.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c + 1 < cols {
                b.edge(i, i + 1);
            }
            if r + 1 < rows {
                b.edge(i, i + cols);
            }
        }
    }
    b.build()
}

/// `rows × cols` torus (grid with wraparound).
///
/// # Panics
///
/// Panics if either dimension is less than 3 (smaller wraparounds create
/// duplicate edges).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(
        rows >= 3 && cols >= 3,
        "torus dimensions must be at least 3"
    );
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            b.edge(i, r * cols + (c + 1) % cols);
            b.edge(i, ((r + 1) % rows) * cols + c);
        }
    }
    b.build()
}

/// Hypercube of dimension `dim` (`2^dim` nodes). Diameter `dim`.
///
/// # Panics
///
/// Panics if `dim == 0` or `dim > 24`.
pub fn hypercube(dim: usize) -> Graph {
    assert!(
        dim > 0 && dim <= 24,
        "hypercube dimension must be in 1..=24"
    );
    let n = 1usize << dim;
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for bit in 0..dim {
            let j = i ^ (1 << bit);
            if i < j {
                b.edge(i, j);
            }
        }
    }
    b.build()
}

/// Complete `arity`-ary tree of the given `depth` (depth 0 is a single
/// node). Diameter `2 * depth`.
///
/// # Panics
///
/// Panics if `arity == 0`.
pub fn balanced_tree(arity: usize, depth: usize) -> Graph {
    assert!(arity > 0, "arity must be positive");
    let mut b = GraphBuilder::new(1);
    let mut frontier = vec![0usize];
    for _ in 0..depth {
        let mut next = Vec::new();
        for &u in &frontier {
            let first = b.add_nodes(arity).index();
            for c in first..first + arity {
                b.edge(u, c);
                next.push(c);
            }
        }
        frontier = next;
    }
    b.build()
}

/// Two `k`-cliques joined by a path of `bridge` intermediate nodes.
/// `n = 2k + bridge`, diameter `bridge + 3` (for `k ≥ 2`).
///
/// A classic high-diameter/low-conductance family.
///
/// # Panics
///
/// Panics if `k < 1`.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    assert!(k >= 1, "cliques must be nonempty");
    let mut b = GraphBuilder::new(2 * k + bridge);
    for i in 0..k {
        for j in (i + 1)..k {
            b.edge(i, j);
            b.edge(k + bridge + i, k + bridge + j);
        }
    }
    // Path k, k+1, …, k+bridge-1 connecting node 0 of each clique.
    let mut prev = 0;
    for p in 0..bridge {
        b.edge(prev, k + p);
        prev = k + p;
    }
    b.edge(prev, k + bridge);
    b.build()
}

/// A `k`-clique with a pendant path of `tail` nodes ("lollipop").
/// `n = k + tail`.
///
/// # Panics
///
/// Panics if `k < 1`.
pub fn lollipop(k: usize, tail: usize) -> Graph {
    assert!(k >= 1, "clique must be nonempty");
    let mut b = GraphBuilder::new(k + tail);
    for i in 0..k {
        for j in (i + 1)..k {
            b.edge(i, j);
        }
    }
    let mut prev = 0;
    for p in 0..tail {
        b.edge(prev, k + p);
        prev = k + p;
    }
    b.build()
}

/// A cycle of `k` cliques of size `m`, adjacent cliques sharing one edge
/// between designated ports. Gives `n = k·m` with diameter `Θ(k)` and high
/// local density.
///
/// # Panics
///
/// Panics if `k < 3` or `m < 2`.
pub fn ring_of_cliques(k: usize, m: usize) -> Graph {
    assert!(
        k >= 3 && m >= 2,
        "ring of cliques requires k >= 3 and m >= 2"
    );
    let mut b = GraphBuilder::new(k * m);
    for c in 0..k {
        let base = c * m;
        for i in 0..m {
            for j in (i + 1)..m {
                b.edge(base + i, base + j);
            }
        }
        // Port m-1 of clique c connects to port 0 of clique c+1.
        let next = ((c + 1) % k) * m;
        b.edge(base + m - 1, next);
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` nodes, each carrying `legs` leaf
/// nodes. `n = spine · (1 + legs)`, diameter `spine + 1` (for `spine ≥ 2`,
/// `legs ≥ 1`). A tree family whose DFS tour is leg-dominated — a stress
/// case for the window structure of Definition 2.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0, "caterpillar requires a nonempty spine");
    let mut b = GraphBuilder::new(spine);
    for i in 1..spine {
        b.edge(i - 1, i);
    }
    for i in 0..spine {
        let first = b.add_nodes(legs).index();
        for leg in first..first + legs {
            b.edge(i, leg);
        }
    }
    b.build()
}

/// Subdivides every edge of `graph` with `extra` fresh intermediate nodes,
/// multiplying all distances by `extra + 1`.
///
/// This is the workhorse for dialling the diameter `D` independently of the
/// base topology (and is exactly the edge-stretching operation of the
/// paper's Figure 8, there applied only to the cut edges).
pub fn subdivide(graph: &Graph, extra: usize) -> Graph {
    if extra == 0 {
        return graph.clone();
    }
    let mut b = GraphBuilder::new(graph.len());
    for (u, v) in graph.edges() {
        let first = b.add_nodes(extra).index();
        b.edge(u.index(), first);
        for i in 1..extra {
            b.edge(first + i - 1, first + i);
        }
        b.edge(first + extra - 1, v.index());
    }
    b.build()
}

/// Uniform random labelled tree on `n` nodes via a random Prüfer sequence.
/// Diameter `Θ(√n)` in expectation.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n > 0, "tree requires at least one node");
    if n == 1 {
        return GraphBuilder::new(1).build();
    }
    if n == 2 {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1);
        return b.build();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &x in &prufer {
        degree[x] += 1;
    }
    let mut b = GraphBuilder::new(n);
    // Standard Prüfer decoding with a "pointer + leaf" scan.
    let mut ptr = 0;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &x in &prufer {
        b.edge(leaf, x);
        degree[x] -= 1;
        if degree[x] == 1 && x < ptr {
            leaf = x;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    b.edge(leaf, n - 1);
    b.build()
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: edges are sampled
/// independently, then a uniformly shuffled spanning-tree skeleton patches
/// any missing connectivity so the result is always connected.
///
/// For `p ≳ ln n / n` the patching is almost always a no-op and the
/// distribution is essentially `G(n, p) | connected`.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn random_connected(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "graph requires at least one node");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_bool(p) {
                b.edge(i, j);
            }
        }
    }
    patch_connectivity(&mut b, &mut rng);
    b.build()
}

/// Random graph with expected degree `deg` (i.e. `G(n, deg/(n-1))`),
/// conditioned on connectivity. Sparse analogue of [`random_connected`]
/// that keeps `m = Θ(n)` as `n` grows.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_sparse(n: usize, deg: f64, seed: u64) -> Graph {
    assert!(n >= 2, "need at least two nodes");
    let p = (deg / (n as f64 - 1.0)).clamp(0.0, 1.0);
    // Sample via geometric skips for large sparse graphs.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if p > 0.0 {
        let logq = (1.0 - p).ln();
        if logq == 0.0 {
            // p == 0 after clamping; nothing to sample.
        } else if p >= 1.0 {
            for i in 0..n {
                for j in (i + 1)..n {
                    b.edge(i, j);
                }
            }
        } else {
            // Iterate pairs (i, j), i < j, in a flattened index with skips.
            let total = n * (n - 1) / 2;
            let mut idx: f64 = -1.0;
            let mut pairs = PairCursor::new(n);
            loop {
                let u: f64 = rng.random();
                idx += 1.0 + (1.0 - u).ln() / logq;
                if idx >= total as f64 {
                    break;
                }
                let (i, j) = pairs.pair(idx as usize);
                b.edge_if_absent(i, j);
            }
        }
    }
    patch_connectivity(&mut b, &mut rng);
    b.build()
}

/// Maps flattened pair indices to `(i, j)` with `i < j` over `n` nodes, in
/// row-major order. The skip sampler's indices only grow, so the cursor
/// only moves forward and the whole sweep costs `O(n + m)`.
struct PairCursor {
    n: usize,
    /// Current row `i`.
    row: usize,
    /// Flattened index of the pair `(row, row + 1)`.
    row_start: usize,
}

impl PairCursor {
    fn new(n: usize) -> Self {
        PairCursor {
            n,
            row: 0,
            row_start: 0,
        }
    }

    /// The pair at flattened index `idx`; `idx` must not decrease between
    /// calls and must be below `n (n - 1) / 2`.
    fn pair(&mut self, idx: usize) -> (usize, usize) {
        debug_assert!(idx >= self.row_start, "pair indices must not decrease");
        // Row i owns (n - 1 - i) pairs.
        while idx - self.row_start >= self.n - 1 - self.row {
            self.row_start += self.n - 1 - self.row;
            self.row += 1;
        }
        (self.row, self.row + 1 + idx - self.row_start)
    }
}

/// Connects the components of the graph under construction with uniformly
/// random inter-component edges (one per merge), using a shuffled node
/// permutation so the patch edges are unbiased.
fn patch_connectivity(b: &mut GraphBuilder, rng: &mut StdRng) {
    let n = b.len();
    if n <= 1 {
        return;
    }
    // Union-find over current edges.
    let snapshot = b.clone().build();
    let (labels, count) = crate::traversal::connected_components(&snapshot);
    if count <= 1 {
        return;
    }
    // Pick one random representative per component, shuffle, chain them.
    let mut reps: Vec<Vec<usize>> = vec![Vec::new(); count];
    for (v, &c) in labels.iter().enumerate() {
        reps[c].push(v);
    }
    let mut chosen: Vec<usize> = reps
        .iter()
        .map(|members| members[rng.random_range(0..members.len())])
        .collect();
    chosen.shuffle(rng);
    for w in chosen.windows(2) {
        b.edge_if_absent(w[0], w[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::diameter;
    use crate::traversal::is_connected;

    #[test]
    fn deterministic_family_shapes() {
        assert_eq!(diameter(&path(10)), Some(9));
        assert_eq!(diameter(&cycle(11)), Some(5));
        assert_eq!(diameter(&complete(7)), Some(1));
        assert_eq!(diameter(&star(6)), Some(2));
        assert_eq!(diameter(&grid(4, 7)), Some(9));
        assert_eq!(diameter(&hypercube(5)), Some(5));
        assert_eq!(diameter(&balanced_tree(2, 3)), Some(6));
    }

    #[test]
    fn torus_diameter() {
        // Torus diameter = floor(r/2) + floor(c/2).
        assert_eq!(diameter(&torus(4, 6)), Some(2 + 3));
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(5, 4);
        assert_eq!(g.len(), 14);
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(4 + 3));
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 6);
        assert_eq!(g.len(), 10);
        assert_eq!(diameter(&g), Some(7)); // across clique (1) + tail (6)
    }

    #[test]
    fn ring_of_cliques_shape() {
        let g = ring_of_cliques(4, 3);
        assert_eq!(g.len(), 12);
        assert!(is_connected(&g));
        let d = diameter(&g).unwrap();
        assert!((3..=8).contains(&d), "unexpected diameter {d}");
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(5, 3);
        assert_eq!(g.len(), 5 * 4);
        assert_eq!(g.num_edges(), 4 + 15); // spine + legs: a tree
        assert!(is_connected(&g));
        assert_eq!(diameter(&g), Some(6)); // leg + spine(4) + leg
        assert_eq!(crate::metrics::girth(&g), None);
        // Degenerate: no legs is just a path.
        assert_eq!(caterpillar(4, 0), path(4));
    }

    #[test]
    fn subdivide_multiplies_distances() {
        let g = cycle(6);
        let s = subdivide(&g, 3);
        assert_eq!(s.len(), 6 + 6 * 3);
        assert_eq!(diameter(&s), Some(3 * 4));
        // extra = 0 is the identity.
        assert_eq!(subdivide(&g, 0), g);
    }

    #[test]
    fn random_tree_is_a_tree() {
        for seed in 0..5 {
            let g = random_tree(50, seed);
            assert_eq!(g.num_edges(), 49);
            assert!(is_connected(&g));
        }
        assert_eq!(random_tree(1, 0).len(), 1);
        assert_eq!(random_tree(2, 0).num_edges(), 1);
    }

    #[test]
    fn random_tree_is_seed_deterministic() {
        let a = random_tree(64, 42);
        let b = random_tree(64, 42);
        assert_eq!(a, b);
        let c = random_tree(64, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn random_connected_is_connected_even_for_tiny_p() {
        for seed in 0..5 {
            let g = random_connected(40, 0.01, seed);
            assert!(is_connected(&g));
            assert_eq!(g.len(), 40);
        }
    }

    #[test]
    fn random_sparse_has_roughly_expected_degree() {
        let g = random_sparse(400, 6.0, 1);
        assert!(is_connected(&g));
        let avg = 2.0 * g.num_edges() as f64 / g.len() as f64;
        assert!(
            (4.0..=8.0).contains(&avg),
            "average degree {avg} far from 6"
        );
    }

    #[test]
    fn random_sparse_extreme_probabilities() {
        let g = random_sparse(6, 0.0, 0);
        assert!(is_connected(&g)); // pure patching: a random spanning chain
        assert_eq!(g.num_edges(), 5);
        let g = random_sparse(6, 5.0, 0); // p = 1
        assert_eq!(g.num_edges(), 15);
    }

    #[test]
    fn pair_cursor_matches_closed_form_on_every_pair() {
        for n in 2..40 {
            let mut pairs = PairCursor::new(n);
            let mut idx = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(idx, i * (2 * n - i - 1) / 2 + (j - i - 1));
                    assert_eq!(pairs.pair(idx), (i, j), "n = {n}, idx = {idx}");
                    idx += 1;
                }
            }
            assert_eq!(idx, n * (n - 1) / 2);
        }
    }

    #[test]
    fn pair_cursor_skips_rows() {
        // Sparse, non-decreasing indices jump over whole rows at once.
        let n = 10;
        let mut pairs = PairCursor::new(n);
        assert_eq!(pairs.pair(0), (0, 1));
        assert_eq!(pairs.pair(0), (0, 1));
        assert_eq!(pairs.pair(30), (4, 5));
        assert_eq!(pairs.pair(44), (8, 9));
    }

    /// FNV-1a over the edge list: a fingerprint of the exact edge set.
    fn edge_checksum(g: &Graph) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (u, v) in g.edges() {
            for x in [u.index() as u64, v.index() as u64] {
                for byte in x.to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn random_sparse_edge_sets_are_pinned() {
        // The benchmark and every seeded experiment depend on these exact
        // edge sets; a sampler change must reproduce them.
        for (n, seed, edges, checksum) in [
            (64, 0, 169, 0x75a1_5696_081c_3cc4),
            (1024, 1, 3050, 0xf4ea_d9d5_05e4_63ae),
            (4096, 1, 12417, 0x3fc5_a7c4_4831_7d66),
        ] {
            let g = random_sparse(n, 6.0, seed);
            assert_eq!(g.num_edges(), edges, "(n, seed) = ({n}, {seed})");
            assert_eq!(edge_checksum(&g), checksum, "(n, seed) = ({n}, {seed})");
        }
    }
}
