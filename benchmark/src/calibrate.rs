//! Machine-speed calibration of the end-to-end times.
//!
//! A shared 2-vCPU container changes speed by up to 30% over minutes, for
//! every process alike, so raw wall times of the same code drift more
//! between two sets of runs than a regression bound can allow. Interleaved
//! with the queries, a fixed kernel is timed: a bit-parallel all-sources
//! BFS over a fixed graph held in the benchmark's own adjacency arrays, so
//! no change to the program can make it faster or slower. Each end-to-end
//! time is scaled by [`REFERENCE_S`] over the median of the kernel samples
//! taken just before it, i.e. reported at the machine speed at which the
//! kernel takes [`REFERENCE_S`]. Raw wall times are printed beside the
//! scaled ones; `benchmark/README.md` gives the measured effect.

use std::hint::black_box;
use std::time::Instant;

use crate::reference::{self, Adjacency};

/// Kernel time at the reference machine speed.
pub const REFERENCE_S: f64 = 0.025;

/// Measured work between two kernel samples.
const EVERY_S: f64 = 0.5;

/// Kernel samples whose median scales the next measurement, so one
/// disturbed sample cannot move it much.
const RECENT: usize = 3;

/// Nodes of the kernel's graph: a ring plus two random chords per node.
const NODES: usize = 4096;

/// Compressed adjacency arrays owned by the benchmark.
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// An undirected graph from an edge list.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; 2 * edges.len()];
        for &(u, v) in edges {
            targets[fill[u as usize] as usize] = v;
            fill[u as usize] += 1;
            targets[fill[v as usize] as usize] = u;
            fill[v as usize] += 1;
        }
        Csr { offsets, targets }
    }

    /// The kernel's fixed, connected graph.
    fn kernel() -> Csr {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut edges = Vec::with_capacity(3 * NODES);
        for v in 0..NODES as u32 {
            edges.push((v, (v + 1) % NODES as u32));
            for _ in 0..2 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                edges.push((v, (x % NODES as u64) as u32));
            }
        }
        Csr::from_edges(NODES, &edges)
    }
}

impl Adjacency for Csr {
    fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    fn for_each_neighbor(&self, v: usize, mut f: impl FnMut(usize)) {
        let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
        for &w in &self.targets[range] {
            f(w as usize);
        }
    }
}

/// Kernel samples taken over one run.
pub struct Calibration {
    graph: Csr,
    samples: Vec<f64>,
    since: f64,
}

impl Calibration {
    /// Builds the kernel's graph and takes the first sample.
    pub fn new() -> Calibration {
        let mut c = Calibration {
            graph: Csr::kernel(),
            samples: Vec::new(),
            since: 0.0,
        };
        c.sample();
        c
    }

    /// Times the kernel once and returns its seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(reference::diameter(black_box(&self.graph)));
        let secs = t.elapsed().as_secs_f64();
        self.samples.push(secs);
        secs
    }

    /// Counts `secs` of measured work and samples the kernel once every
    /// [`EVERY_S`] of it.
    pub fn tick(&mut self, secs: f64) {
        self.since += secs;
        if self.since >= EVERY_S {
            self.since = 0.0;
            self.sample();
        }
    }

    /// Median kernel time of the run.
    pub fn median_s(&self) -> f64 {
        crate::quantile(&self.samples, 0.5)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Factor that turns a wall time measured now into a time at the
    /// reference machine speed: [`REFERENCE_S`] over the median of the
    /// last [`RECENT`] kernel samples.
    pub fn scale_now(&self) -> f64 {
        let recent = &self.samples[self.samples.len().saturating_sub(RECENT)..];
        REFERENCE_S / crate::quantile(recent, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_walks_like_the_graph_it_copies() {
        let g = graphs::generators::random_sparse(150, 4.0, 3);
        let edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (u.index() as u32, v.index() as u32))
            .collect();
        let csr = Csr::from_edges(g.len(), &edges);
        assert_eq!(reference::diameter(&csr), reference::diameter(&g));
    }

    #[test]
    fn kernel_graph_is_connected() {
        assert!(reference::diameter(&Csr::kernel()).is_some());
    }
}
