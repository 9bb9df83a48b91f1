//! The correctness reference and the answer checker.
//!
//! The reference diameter is computed here rather than taken from
//! `graphs::metrics`: the exact driver feeds
//! `graphs::metrics::eccentricities` into its closed form, so a wrong
//! eccentricity kernel must not be able to agree with itself. It is a
//! bit-parallel BFS from every node, 64 sources per `u64` word, which keeps
//! set-up affordable at n = 4096.

use graphs::{Dist, Graph, NodeId};

/// A graph the reference BFS can walk.
pub trait Adjacency {
    fn nodes(&self) -> usize;
    fn for_each_neighbor(&self, v: usize, f: impl FnMut(usize));
}

impl Adjacency for Graph {
    fn nodes(&self) -> usize {
        self.len()
    }

    fn for_each_neighbor(&self, v: usize, mut f: impl FnMut(usize)) {
        for w in self.neighbors(NodeId::new(v)) {
            f(w.index());
        }
    }
}

/// The diameter of a connected graph, or `None` when it is disconnected or
/// empty.
pub fn diameter(graph: &impl Adjacency) -> Option<Dist> {
    let n = graph.nodes();
    if n == 0 {
        return None;
    }
    // Bit i of seen[v] (frontier[v]) is set once node v has been reached
    // (was first reached in the last level) from source base + i.
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut best = 0;
    for base in (0..n).step_by(64) {
        let width = (n - base).min(64);
        let all = u64::MAX >> (64 - width);
        seen.fill(0);
        frontier.fill(0);
        for i in 0..width {
            seen[base + i] = 1 << i;
            frontier[base + i] = 1 << i;
        }
        // After the loop, `level` is the largest eccentricity among this
        // batch of sources.
        let mut level = 0;
        loop {
            for (v, &f) in frontier.iter().enumerate() {
                if f != 0 {
                    graph.for_each_neighbor(v, |w| next[w] |= f);
                }
            }
            let mut grew = false;
            for v in 0..n {
                let new = next[v] & !seen[v];
                next[v] = 0;
                frontier[v] = new;
                seen[v] |= new;
                grew |= new != 0;
            }
            if !grew {
                break;
            }
            level += 1;
        }
        if seen.iter().any(|&s| s != all) {
            return None;
        }
        best = best.max(level);
    }
    Some(best)
}

/// How one query ended, as the driver reported it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// The driver returned a diameter.
    Value(Dist),
    /// The driver returned a typed error.
    TypedError,
}

/// Tally of answers checked against the reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checker {
    /// Queries checked.
    pub attempted: u64,
    /// Queries that returned the reference diameter.
    pub ok: u64,
    /// Queries that ended in a typed error.
    pub typed_errors: u64,
    /// Queries that returned a diameter other than the reference: silent
    /// wrong answers.
    pub wrong: u64,
}

impl Checker {
    /// Records one answer against its reference diameter.
    pub fn record(&mut self, answer: Answer, reference: Dist) {
        self.attempted += 1;
        match answer {
            Answer::Value(v) if v == reference => self.ok += 1,
            Answer::Value(_) => self.wrong += 1,
            Answer::TypedError => self.typed_errors += 1,
        }
    }

    /// Share of queries that returned the reference diameter.
    pub fn ok_frac(&self) -> f64 {
        self.ok as f64 / self.attempted.max(1) as f64
    }

    /// Share of queries that were correct or ended in a typed error; only
    /// silent wrong answers lower it.
    pub fn sound_frac(&self) -> f64 {
        (self.ok + self.typed_errors) as f64 / self.attempted.max(1) as f64
    }

    /// Queries that did not return the reference diameter.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;

    #[test]
    fn reference_matches_graphs_metrics_on_small_graphs() {
        let mut cases = vec![
            generators::path(9),
            generators::cycle(11),
            generators::star(7),
            generators::grid(4, 6),
            generators::complete(5),
            Graph::from_edges(1, []).unwrap(),
        ];
        // Sizes around and across the 64-source word boundary.
        for seed in 0..8 {
            cases.push(generators::random_sparse(60, 3.0, seed));
            cases.push(generators::random_sparse(64, 4.0, seed));
            cases.push(generators::random_sparse(96, 5.0, seed));
            cases.push(generators::random_sparse(200, 6.0, seed));
        }
        cases.push(generators::path(130));
        for g in &cases {
            assert_eq!(diameter(g), graphs::metrics::diameter(g), "{g:?}");
        }
    }

    #[test]
    fn reference_rejects_disconnected_graphs() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn wrong_answers_lower_both_fractions() {
        let mut good = Checker::default();
        let mut bad = Checker::default();
        for _ in 0..4 {
            good.record(Answer::Value(7), 7);
            bad.record(Answer::Value(7), 7);
        }
        bad.record(Answer::Value(6), 7);
        assert_eq!((good.ok_frac(), good.sound_frac()), (1.0, 1.0));
        assert_eq!(bad.ok_frac(), 0.8);
        assert_eq!(bad.sound_frac(), 0.8);
        assert_eq!(bad.failed(), 1);
    }

    #[test]
    fn typed_errors_lower_only_ok_frac() {
        let mut c = Checker::default();
        c.record(Answer::Value(3), 3);
        c.record(Answer::TypedError, 3);
        assert_eq!(c.ok_frac(), 0.5);
        assert_eq!(c.sound_frac(), 1.0);
        assert_eq!(c.failed(), 1);
    }
}
