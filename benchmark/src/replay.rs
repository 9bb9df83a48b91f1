//! The traced run's replays: each driver's body as the same sequence of
//! public layer calls, each call timed as a span. The caller asserts that a
//! replay's [`Outcome`] equals the driver's, so a replay cannot drift from
//! the code it stands in for.

use classical::aggregate::{self, Op};
use classical::{bfs, dfs_walk, leader, recovery, waves, TreeView};
use congest::{bits, Config, RoundsLedger};
use diameter_quantum::dfs_window::Windows;
use diameter_quantum::evaluation;
use diameter_quantum::exact::{DiameterRun, ExactParams};
use diameter_quantum::framework::{self, DistributedOracle};
use graphs::tree::{EulerTour, RootedTree};
use graphs::{Dist, Graph, NodeId};
use quantum::{MaximizeParams, SearchState};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::spans::Recorder;
use crate::workload::{
    apsp_fingerprint, exact_fingerprint, faulty_config, recovered_fingerprint, Driver, Outcome,
    Query, Workload,
};

/// What a traced query returns besides its outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct Extra {
    /// Oracle applications charged by the quantum optimization.
    pub oracle_calls: u64,
    /// Recovery statistics of the fault workload; `None` on other
    /// workloads and on typed errors.
    pub recovery: Option<congest::RecoveryStats>,
}

/// Runs query `q` as the traced replay of the workload's driver.
pub fn run(w: &Workload, q: &Query, rec: &mut Recorder) -> (Outcome, Extra) {
    match w.driver {
        Driver::Exact => exact(&q.graph, ExactParams::new(q.seed), rec).map_or_else(
            |_| (Outcome::error(), Extra::default()),
            |run| {
                let extra = Extra {
                    oracle_calls: run.oracle.total_ops(),
                    recovery: None,
                };
                (exact_fingerprint(&run), extra)
            },
        ),
        Driver::Apsp => (
            apsp(&q.graph, rec).map_or_else(|_| Outcome::error(), |out| apsp_fingerprint(&out)),
            Extra::default(),
        ),
        Driver::ApspRecovering => {
            let config = faulty_config(&q.graph, q.seed);
            rec.time("classical.recover", || {
                recovery::exact_diameter_recovering(&q.graph, config)
            })
            .map_or_else(
                |_| (Outcome::error(), Extra::default()),
                |out| {
                    let extra = Extra {
                        oracle_calls: 0,
                        recovery: Some(out.recovery),
                    };
                    (recovered_fingerprint(&out), extra)
                },
            )
        }
    }
}

/// Any failure of a replayed layer call; the driver reports the same
/// failure as a typed error. (Not `Debug`, so the blanket conversion below
/// does not overlap `From<Failed> for Failed`.)
pub struct Failed;

impl<E: std::fmt::Debug> From<E> for Failed {
    fn from(_: E) -> Self {
        Failed
    }
}

/// `diameter_quantum::exact::diameter`, replayed.
fn exact(graph: &Graph, params: ExactParams, rec: &mut Recorder) -> Result<DiameterRun, Failed> {
    let n = graph.len();
    let config = Config::for_graph(graph);
    let mut init_ledger = RoundsLedger::new();

    let elect = rec.time("classical.leader", || leader::elect(graph, config))?;
    init_ledger.add("leader election", elect.stats);
    let b = rec.time("classical.bfs", || bfs::build(graph, elect.leader, config))?;
    init_ledger.add("bfs(leader) [Figure 1]", b.stats);
    let tree = TreeView::from(&b);
    let d = b.depth;
    let memory = framework::memory_estimate(n, n, (f64::from(d).max(1.0)) / (2.0 * n as f64));
    if n == 1 || d == 0 {
        return Err(Failed);
    }

    let tour = rec.time("core.windows", || {
        RootedTree::from_parents(&b.parents).map(|rooted| EulerTour::new(&rooted))
    })?;
    let eccs = rec
        .time("graphs.eccentricities", || {
            graphs::metrics::eccentricities(graph)
        })
        .ok_or(Failed)?;
    let f_values = rec.time("core.windows", || {
        Windows::new(&tour, 2 * d as usize).window_max(&eccs)
    });

    let mut probe_ledger = RoundsLedger::new();
    let setup_probe = rec.time("classical.broadcast", || {
        aggregate::broadcast(graph, &tree, 0, bits::for_node(n), config)
    })?;
    probe_ledger.add("probe: setup broadcast [Prop 2]", setup_probe.stats);
    let eval_probe = rec.time("core.figure2", || {
        evaluation::run_figure2(graph, &tree, d, elect.leader, config)
    })?;
    probe_ledger.extend_prefixed("probe: ", &eval_probe.ledger);
    let oracle_schedule =
        DistributedOracle::from_rounds(setup_probe.stats.rounds, eval_probe.forward_rounds())
            .with_setup_traffic(setup_probe.stats.total_bits, setup_probe.stats.messages)
            .with_evaluation_traffic(eval_probe.forward_bits(), eval_probe.forward_messages());

    let min_mass = (f64::from(d) / (2.0 * n as f64)).clamp(1.0 / n as f64, 1.0);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let opt = rec.time("core.optimize", || {
        framework::optimize(
            &SearchState::uniform(n),
            |u| u64::from(f_values[u]),
            oracle_schedule,
            MaximizeParams::with_min_mass(min_mass).with_failure_prob(params.failure_prob),
            &mut rng,
        )
    })?;

    let mut branches: Vec<usize> = (0..params.verify_branches)
        .map(|_| rng.random_range(0..n))
        .collect();
    branches.push(opt.argmax);
    branches.sort_unstable();
    branches.dedup();
    for u in branches {
        let run = rec.time("core.figure2", || {
            evaluation::run_figure2(graph, &tree, d, NodeId::new(u), config)
        })?;
        probe_ledger.extend_prefixed(&format!("verify u={u}: "), &run.ledger);
        if run.value != f_values[u] {
            return Err(Failed);
        }
    }

    Ok(DiameterRun {
        value: opt.value as Dist,
        leader: elect.leader,
        d,
        argmax: NodeId::new(opt.argmax),
        init_ledger,
        probe_ledger,
        oracle: opt.oracle,
        quantum_rounds: opt.quantum_rounds,
        oracle_schedule,
        memory,
        verified: true,
        aborted: opt.aborted,
    })
}

/// `classical::apsp::exact_diameter`, replayed on a fault-free network (so
/// the driver's fault-aware checks never run).
fn apsp(
    graph: &Graph,
    rec: &mut Recorder,
) -> Result<classical::apsp::ExactDiameterOutcome, Failed> {
    let n = graph.len() as u64;
    let config = Config::for_graph(graph);
    let mut ledger = RoundsLedger::new();

    let elect = rec.time("classical.leader", || leader::elect(graph, config))?;
    ledger.add("leader election", elect.stats);
    let b = rec.time("classical.bfs", || bfs::build(graph, elect.leader, config))?;
    ledger.add("bfs(leader)", b.stats);
    let tree = TreeView::from(&b);
    if n == 1 {
        return Err(Failed);
    }

    let steps = 2 * (n - 1);
    let dfs = rec.time("classical.dfs_walk", || {
        dfs_walk::walk(graph, &tree, elect.leader, steps, config)
    })?;
    ledger.add("dfs numbering", dfs.stats);
    let sources = dfs
        .tau
        .iter()
        .enumerate()
        .map(|(i, t)| t.map(|t| (NodeId::new(i), t)))
        .collect::<Option<Vec<_>>>()
        .ok_or(Failed)?;
    let duration = 2 * steps + u64::from(b.depth) + 2;
    let wave = rec.time("classical.waves", || {
        waves::run(graph, &sources, duration, config)
    })?;
    ledger.add("eccentricity waves", wave.stats);

    let values: Vec<u64> = wave.max_dist.iter().map(|&d| d as u64).collect();
    let width = bits::for_dist(graph.len());
    let agg = rec.time("classical.convergecast", || {
        aggregate::convergecast(graph, &tree, &values, width, Op::Max, config)
    })?;
    ledger.add("max convergecast", agg.stats);
    let min = rec.time("classical.convergecast", || {
        aggregate::convergecast(graph, &tree, &values, width, Op::Min, config)
    })?;
    ledger.add("min convergecast", min.stats);

    Ok(classical::apsp::ExactDiameterOutcome {
        diameter: agg.value as Dist,
        radius: min.value as Dist,
        eccentricities: wave.max_dist,
        leader: elect.leader,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{make_query, run_driver, WORKLOADS};

    /// Each replay reproduces its driver on small graphs of its workload's
    /// family.
    #[test]
    fn replays_reproduce_their_drivers() {
        for w in WORKLOADS {
            let w = Workload { n: 128, ..w };
            let mut rec = Recorder::default();
            for index in 0..3 {
                let q = make_query(&w, 7, index, &mut rec);
                let registry = metrics::Registry::shared();
                let ((replayed, _), _) = rec.query(index, registry, |rec| run(&w, &q, rec));
                assert_eq!(replayed, run_driver(&w, &q), "{} query {index}", w.name);
            }
        }
    }
}
