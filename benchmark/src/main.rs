//! End-to-end and per-layer benchmark of the Table-1 diameter drivers.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload exact-4k --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process, one thread, a closed loop with one client: each query
//! waits for the previous one. Every answer is checked against a reference
//! diameter computed by the benchmark itself. The last line of standard
//! output is one JSON object; the lines before it are a readable table.
//! See `benchmark/README.md`.

mod calibrate;
mod reference;
mod replay;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calibrate::{Calibration, REFERENCE_S};
use reference::Checker;
use spans::Recorder;
use workload::{make_query, run_driver, Driver, Query, Workload, WORKLOADS};

/// No run may outlast this, whatever its sample minimums ask for.
const HARD_CAP: Duration = Duration::from_secs(150);

/// Set-ups of the first batch, so `setup_s` is a median of several.
const SETUP_REPS: usize = 5;

/// Share of traced query time that may go unattributed before it counts
/// as a defect.
const UNATTRIBUTED_LIMIT: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: diameter-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: WORKLOADS[0],
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Whether a `q`-quantile over `n` samples has at least ten beyond it.
fn quantile_is_resolved(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() >= 10.0
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The printed metrics: name, value, unit and sample count.
#[derive(Default)]
struct Report {
    rows: Vec<(String, f64, &'static str, usize)>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.rows.push((name.to_string(), value, unit, samples));
    }

    /// The readable table, then the JSON result as the last line.
    fn print(&self, checker: &Checker, correct: bool) {
        println!(
            "{:<28} {:>16} {:<12} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for (name, value, unit, samples) in &self.rows {
            println!("{name:<28} {value:>16.6} {unit:<12} {samples:>8}");
        }
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            checker.attempted,
            checker.failed()
        );
        for (i, (name, value, unit, _)) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// State shared by both modes: queries come in batches, each set up (and
/// its set-up timed) before its queries run.
struct Loop<'a> {
    args: &'a Args,
    started: Instant,
    next_index: u64,
    setup_s: Vec<f64>,
    graphs: usize,
    rec: Recorder,
}

impl<'a> Loop<'a> {
    fn new(args: &'a Args) -> Self {
        Loop {
            args,
            started: Instant::now(),
            next_index: 0,
            setup_s: Vec::new(),
            graphs: 0,
            rec: Recorder::default(),
        }
    }

    fn done(&self, queries: usize) -> bool {
        let elapsed = self.started.elapsed();
        (elapsed >= Duration::from_secs(self.args.seconds)
            && queries >= self.args.workload.min_queries)
            || elapsed >= HARD_CAP
    }

    /// Sets up the next batch of queries, passing each set-up's seconds to
    /// `after_setup`. The first batch is set up [`SETUP_REPS`] times, so
    /// even a run with few batches has several set-up samples.
    fn batch(&mut self, mut after_setup: impl FnMut(f64)) -> Vec<Query> {
        let w = self.args.workload;
        let start = self.next_index;
        let reps = if start == 0 { SETUP_REPS } else { 1 };
        let mut batch = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            batch = (start..start + w.batch as u64)
                .map(|i| make_query(&w, self.args.seed, i, &mut self.rec))
                .collect();
            let secs = t.elapsed().as_secs_f64();
            self.setup_s.push(secs);
            self.graphs += batch.len();
            after_setup(secs);
        }
        self.next_index += w.batch as u64;
        batch
    }
}

fn time_driver(w: &Workload, q: &Query) -> (workload::Outcome, f64) {
    let t = Instant::now();
    let out = black_box(run_driver(w, black_box(q)));
    (out, t.elapsed().as_secs_f64())
}

/// The untraced run: end-to-end metrics, with each time scaled to the
/// reference machine speed by the kernel samples taken next to it (see
/// `calibrate`).
fn run_untraced(args: &Args) -> (Report, Checker) {
    let w = args.workload;
    let mut lp = Loop::new(args);
    let mut calibration = Calibration::new();
    let mut checker = Checker::default();
    let (mut query_s, mut query_scaled) = (Vec::new(), Vec::new());
    let mut setup_scaled = Vec::new();
    let mut per_bound = Vec::new();
    'run: while !lp.done(query_s.len()) {
        let batch = lp.batch(|secs| {
            calibration.sample();
            setup_scaled.push(secs * calibration.scale_now());
        });
        for q in batch {
            if lp.done(query_s.len()) {
                break 'run;
            }
            let scale = calibration.scale_now();
            let (out, secs) = time_driver(&w, &q);
            query_s.push(secs);
            query_scaled.push(secs * scale);
            calibration.tick(secs);
            checker.record(out.answer, q.reference);
            if let Some(rounds) = out.rounds {
                per_bound.push(rounds as f64 / w.round_bound(q.reference));
            }
        }
    }

    let n = query_s.len();
    let mut report = Report::default();
    report.add("query_s.p50", quantile(&query_scaled, 0.5), "s", n);
    let queries_per_s = n as f64 / query_scaled.iter().sum::<f64>();
    report.add("queries_per_s", queries_per_s, "1/s", n);
    report.add(
        "setup_s",
        quantile(&setup_scaled, 0.5),
        "s",
        setup_scaled.len(),
    );
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    let rounds_per_bound = mean(&per_bound);
    report.add(
        "rounds_per_bound",
        rounds_per_bound,
        "ratio",
        per_bound.len(),
    );
    report.add("ok_frac", checker.ok_frac(), "ratio", n);
    report.add("sound_frac", checker.sound_frac(), "ratio", n);
    println!(
        "calibration kernel {:.6} s median over {} samples (reference {REFERENCE_S} s)",
        calibration.median_s(),
        calibration.samples()
    );
    println!(
        "raw wall time: query_s.p50 {:.6} s, queries_per_s {:.4} 1/s, setup_s {:.6} s",
        quantile(&query_s, 0.5),
        n as f64 / query_s.iter().sum::<f64>(),
        quantile(&lp.setup_s, 0.5)
    );
    // The p90 is resolved only on the workload with ≥100 queries per run;
    // it is printed in the table, not in the JSON result, which carries
    // the same metrics on every workload.
    if quantile_is_resolved(n, 0.9) {
        println!(
            "query_s.p90 {:.6} s (raw {:.6} s) over {n} samples",
            quantile(&query_scaled, 0.9),
            quantile(&query_s, 0.9)
        );
    }
    if !quantile_is_resolved(n, 0.5) {
        eprintln!("warning: query_s.p50 has fewer than ten samples beyond it ({n} samples)");
    }
    (report, checker)
}

/// Accumulated per-layer counts of the traced run.
#[derive(Default)]
struct Counts {
    rounds: u64,
    messages: u64,
    wire_bits: u64,
    scheduled: u64,
    node_rounds: u64,
    faults: u64,
    oracle_calls: u64,
    answered: u64,
    retries: u64,
    wasted_rounds: u64,
    wasted_bits: u64,
}

/// Layer spans whose calls run the CONGEST simulator.
const SIMULATOR_LAYERS: [&str; 8] = [
    "classical.leader",
    "classical.bfs",
    "classical.dfs_walk",
    "classical.waves",
    "classical.convergecast",
    "classical.broadcast",
    "core.figure2",
    "classical.recover",
];

/// The traced run: the driver and its traced replay on every query, in
/// alternating order, then the per-layer metrics.
fn run_traced(args: &Args) -> Result<(Report, Checker, bool), String> {
    use metrics::names;
    let w = args.workload;
    let mut lp = Loop::new(args);
    let mut checker = Checker::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut mismatches = 0u64;
    let mut c = Counts::default();
    'run: while !lp.done(traced_s.len()) {
        for q in lp.batch(|_| {}) {
            if lp.done(traced_s.len()) {
                break 'run;
            }
            let traced_first = q.index % 2 == 1;
            let mut traced = None;
            let mut trace = |lp: &mut Loop| {
                let registry = metrics::Registry::shared();
                let ((out, extra), secs) = lp
                    .rec
                    .query(q.index, registry.clone(), |rec| replay::run(&w, &q, rec));
                traced = Some((out, extra, secs, registry));
            };
            if traced_first {
                trace(&mut lp);
            }
            let (driver_out, secs) = time_driver(&w, &q);
            if !traced_first {
                trace(&mut lp);
            }
            let (out, extra, traced_secs, registry) = traced.expect("traced replay ran");
            untraced_s.push(secs);
            traced_s.push(traced_secs);
            checker.record(driver_out.answer, q.reference);
            if out != driver_out {
                mismatches += 1;
                eprintln!(
                    "error: query {}: traced replay ({:?}, {:?} rounds) does not reproduce \
                     the driver ({:?}, {:?} rounds) or its message and bit totals",
                    q.index, out.answer, out.rounds, driver_out.answer, driver_out.rounds
                );
            }
            let r = registry.borrow();
            c.rounds += r.counter(names::ROUNDS);
            c.messages += r.counter(names::MESSAGES);
            c.wire_bits += r.counter(names::WIRE_BITS);
            c.scheduled += r.counter(names::SCHEDULED_NODES);
            c.node_rounds += r.counter(names::NODE_ROUNDS);
            c.faults += r.counter(names::FAULTS);
            c.oracle_calls += extra.oracle_calls;
            if let Some(stats) = extra.recovery {
                c.answered += 1;
                c.retries += stats.retries;
                c.wasted_rounds += stats.wasted_rounds;
                c.wasted_bits += stats.wasted_bits;
            }
        }
    }

    let n = traced_s.len();
    let per_query = |x: f64| x / n.max(1) as f64;
    let self_times = lp.rec.self_times();
    let self_s = |name: &str| {
        self_times
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 * 1e-9)
    };
    let query_total = lp.rec.total_ns("query") as f64 * 1e-9;
    let unattributed_frac = self_s("unattributed") / query_total;
    let simulator_s: f64 = SIMULATOR_LAYERS
        .iter()
        .map(|l| lp.rec.total_ns(l) as f64 * 1e-9)
        .sum();

    let mut report = Report::default();
    for (metric, span) in [
        ("graphs.eccentricities_s", "graphs.eccentricities"),
        ("classical.leader_s", "classical.leader"),
        ("classical.bfs_s", "classical.bfs"),
        ("classical.dfs_walk_s", "classical.dfs_walk"),
        ("classical.waves_s", "classical.waves"),
        ("classical.convergecast_s", "classical.convergecast"),
        ("classical.broadcast_s", "classical.broadcast"),
        ("core.figure2_s", "core.figure2"),
        ("core.windows_s", "core.windows"),
        ("core.optimize_s", "core.optimize"),
        ("congest.commit_s", "congest.commit"),
        ("congest.execute_s", "congest.execute"),
        ("classical.recover_s", "classical.recover"),
    ] {
        report.add(metric, per_query(self_s(span)), "s", n);
    }
    report.add(
        "graphs.generate_s",
        lp.rec.total_ns("graphs.generate") as f64 * 1e-9 / lp.graphs as f64,
        "s",
        lp.graphs,
    );
    for (metric, total, unit) in [
        ("quantum.oracle_calls", c.oracle_calls, "count/query"),
        ("congest.rounds", c.rounds, "count/query"),
        ("congest.messages", c.messages, "count/query"),
        ("congest.wire_bits", c.wire_bits, "bits/query"),
        ("congest.faults", c.faults, "count/query"),
    ] {
        report.add(metric, per_query(total as f64), unit, n);
    }
    let active = c.scheduled as f64 / c.node_rounds.max(1) as f64;
    report.add("congest.active_fraction", active, "ratio", n);
    let rounds_per_s = c.rounds as f64 / simulator_s;
    report.add("congest.rounds_per_s", rounds_per_s, "1/s", n);
    // Recovery statistics exist only for queries that returned an answer.
    let answered = c.answered as usize;
    for (metric, total, unit) in [
        ("classical.retries", c.retries, "count/query"),
        ("classical.wasted_rounds", c.wasted_rounds, "count/query"),
        ("classical.wasted_bits", c.wasted_bits, "bits/query"),
    ] {
        let mean = total as f64 / answered.max(1) as f64;
        report.add(metric, mean, unit, answered);
    }
    report.add("unattributed_frac", unattributed_frac, "ratio", n);
    report.add(
        "trace_overhead_frac",
        quantile(&traced_s, 0.5) / quantile(&untraced_s, 0.5) - 1.0,
        "ratio",
        n,
    );

    print_layer_table(&w, &self_times, query_total, n);
    if unattributed_frac > UNATTRIBUTED_LIMIT {
        println!(
            "DEFECT: {:.1}% of traced query time is unattributed (limit {:.0}%)",
            unattributed_frac * 100.0,
            UNATTRIBUTED_LIMIT * 100.0
        );
    }
    let path = write_spans(&w, args.seed, &lp.rec)?;
    println!("spans -> {path}");
    if mismatches > 0 {
        eprintln!("error: {mismatches} traced replays did not reproduce the driver");
    }
    let correct = mismatches == 0;
    Ok((report, checker, correct))
}

fn print_layer_table(
    w: &Workload,
    self_times: &std::collections::BTreeMap<&'static str, spans::LayerTime>,
    query_total: f64,
    queries: usize,
) {
    println!(
        "per-layer self time, workload {} ({queries} traced queries)",
        w.name
    );
    println!(
        "{:<24} {:>8} {:>14} {:>14} {:>8}",
        "layer", "calls", "self s/query", "total s/query", "share"
    );
    for (name, t) in self_times {
        if name.starts_with("setup.") || *name == "graphs.generate" {
            continue;
        }
        let per_query = |ns: u64| ns as f64 * 1e-9 / queries.max(1) as f64;
        println!(
            "{name:<24} {:>8} {:>14.6} {:>14.6} {:>7.1}%",
            t.calls,
            per_query(t.self_ns),
            per_query(t.total_ns),
            t.self_ns as f64 * 1e-9 / query_total * 100.0
        );
    }
}

fn write_spans(w: &Workload, seed: u64, rec: &Recorder) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/spans-{}-seed{seed}.jsonl", w.name);
    std::fs::write(&path, rec.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {} (n = {}, degree {}), seed {}, {} s, trace {}",
        w.name,
        w.n,
        w.degree,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        run_traced(&args)
    } else {
        let (report, checker) = run_untraced(&args);
        Ok((report, checker, true))
    };
    let (report, checker, replay_ok) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Fault-free workloads must answer every query with the reference
    // diameter. Under injected faults the share that does is the measured
    // quantity (ok_frac, sound_frac), not a gate.
    let answers_ok = w.driver == Driver::ApspRecovering || checker.failed() == 0;
    if !answers_ok {
        eprintln!(
            "error: {} of {} answers differ from the reference diameter",
            checker.failed(),
            checker.attempted
        );
    }
    report.print(&checker, replay_ok && answers_ok);
    ExitCode::SUCCESS
}
