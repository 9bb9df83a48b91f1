//! The workloads: their inputs, made from the seed, and one call of each
//! driver through its public entry point with the default `Config`.

use classical::{apsp, recovery};
use congest::{Config, FaultPlan, RecoveryPolicy};
use diameter_quantum::exact::{self, ExactParams};
use graphs::{generators, Dist, Graph};

use crate::reference::{self, Answer};
use crate::spans::Recorder;

/// Which driver a workload calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `diameter_quantum::exact::diameter` (Theorem 1).
    Exact,
    /// `classical::apsp::exact_diameter` (the classical exact baseline).
    Apsp,
    /// `classical::recovery::exact_diameter_recovering` under a seeded
    /// drop-only fault plan and `RecoveryPolicy::standard()`.
    ApspRecovering,
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    /// Nodes per query graph.
    pub n: usize,
    /// Expected degree of `random_sparse`.
    pub degree: f64,
    /// Graphs set up per batch, sized so one batch's set-up takes about
    /// 0.2 s: long enough to time steadily.
    pub batch: usize,
    /// Fewest queries a run makes, so its percentiles have ten samples
    /// beyond them.
    pub min_queries: usize,
}

/// Per-message drop probability of the fault workload.
pub const DROP: f64 = 0.002;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "exact-4k",
        driver: Driver::Exact,
        n: 4096,
        degree: 6.0,
        batch: 4,
        min_queries: 20,
    },
    Workload {
        name: "apsp-1k",
        driver: Driver::Apsp,
        n: 1024,
        degree: 6.0,
        batch: 96,
        min_queries: 20,
    },
    Workload {
        name: "apsp-drop-96",
        driver: Driver::ApspRecovering,
        n: 96,
        degree: 5.0,
        batch: 4096,
        min_queries: 100,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The paper's round bound for one query: `√(nD)` for Theorem 1, `n`
    /// for the classical APSP baseline.
    pub fn round_bound(&self, diameter: Dist) -> f64 {
        match self.driver {
            Driver::Exact => (self.n as f64 * f64::from(diameter.max(1))).sqrt(),
            Driver::Apsp | Driver::ApspRecovering => self.n as f64,
        }
    }
}

/// One query: its graph, its reference diameter and the seed its driver
/// takes (measurement randomness, or the fault plan's seed).
pub struct Query {
    pub index: u64,
    pub graph: Graph,
    pub reference: Dist,
    pub seed: u64,
}

/// SplitMix64: decorrelates the per-query seeds derived from one run seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Builds query `index` of a run: the same `(seed, index)` always gives
/// the same graph and driver seed.
pub fn make_query(w: &Workload, seed: u64, index: u64, rec: &mut Recorder) -> Query {
    let base = mix(seed ^ mix(index));
    let graph = rec.time("graphs.generate", || {
        generators::random_sparse(w.n, w.degree, base)
    });
    let reference = rec
        .time("setup.reference", || reference::diameter(&graph))
        .expect("random_sparse patches connectivity");
    Query {
        index,
        graph,
        reference,
        seed: mix(base),
    }
}

/// What one driver call returned, reduced to what the benchmark checks
/// and compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub answer: Answer,
    /// Rounds the driver charges for the query, retries included; `None`
    /// on a typed error.
    pub rounds: Option<u64>,
    /// The answer's accounting, flattened: a replay must reproduce it
    /// exactly.
    pub fingerprint: Vec<u64>,
}

impl Outcome {
    pub fn error() -> Outcome {
        Outcome {
            answer: Answer::TypedError,
            rounds: None,
            fingerprint: Vec::new(),
        }
    }
}

pub fn exact_fingerprint(run: &exact::DiameterRun) -> Outcome {
    let s = run.oracle_schedule;
    Outcome {
        answer: Answer::Value(run.value),
        rounds: Some(run.rounds()),
        fingerprint: vec![
            u64::from(run.value),
            run.leader.index() as u64,
            u64::from(run.d),
            run.argmax.index() as u64,
            run.init_ledger.total_rounds(),
            run.init_ledger.total_messages(),
            run.init_ledger.total_bits(),
            run.probe_ledger.total_rounds(),
            run.probe_ledger.total_messages(),
            run.probe_ledger.total_bits(),
            run.oracle.setup,
            run.oracle.evaluation,
            run.oracle.iterations,
            run.oracle.measurements,
            run.quantum_rounds,
            s.setup_rounds,
            s.evaluation_rounds,
            s.setup_qubits,
            s.setup_messages,
            s.evaluation_qubits,
            s.evaluation_messages,
            run.memory.per_node_qubits as u64,
            run.memory.leader_qubits as u64,
            u64::from(run.aborted),
        ],
    }
}

pub fn apsp_fingerprint(out: &apsp::ExactDiameterOutcome) -> Outcome {
    let mut fingerprint = vec![
        u64::from(out.diameter),
        u64::from(out.radius),
        out.leader.index() as u64,
        out.ledger.total_rounds(),
        out.ledger.total_messages(),
        out.ledger.total_bits(),
    ];
    fingerprint.extend(out.eccentricities.iter().map(|&e| u64::from(e)));
    Outcome {
        answer: Answer::Value(out.diameter),
        rounds: Some(out.rounds()),
        fingerprint,
    }
}

pub fn recovered_fingerprint(out: &recovery::RecoveredDiameter) -> Outcome {
    let r = out.recovery;
    let mut outcome = apsp_fingerprint(&out.outcome);
    outcome.fingerprint.extend([
        r.retries,
        r.restarts,
        r.retransmissions,
        r.reroots,
        r.wasted_rounds,
        r.wasted_messages,
        r.wasted_bits,
    ]);
    // A partial-network answer is explicitly tagged, so it is sound, but it
    // is not the diameter of the whole graph.
    if out.is_partial() {
        outcome.answer = Answer::TypedError;
    }
    outcome
}

/// The configuration the fault workload runs under: the default `Config`
/// plus the seeded fault plan and the standard recovery policy.
pub fn faulty_config(graph: &Graph, seed: u64) -> Config {
    Config::for_graph(graph)
        .with_faults(FaultPlan::new(seed).with_drop(DROP))
        .with_recovery(RecoveryPolicy::standard())
}

/// Runs the workload's driver on `q` through its public entry point.
pub fn run_driver(w: &Workload, q: &Query) -> Outcome {
    let g = &q.graph;
    match w.driver {
        Driver::Exact => exact::diameter(g, ExactParams::new(q.seed), Config::for_graph(g))
            .map_or_else(|_| Outcome::error(), |run| exact_fingerprint(&run)),
        Driver::Apsp => apsp::exact_diameter(g, Config::for_graph(g))
            .map_or_else(|_| Outcome::error(), |out| apsp_fingerprint(&out)),
        Driver::ApspRecovering => recovery::exact_diameter_recovering(g, faulty_config(g, q.seed))
            .map_or_else(|_| Outcome::error(), |out| recovered_fingerprint(&out)),
    }
}
