//! In-memory spans of the traced run, recorded from the benchmark's own
//! code around each call into a layer's public functions.
//!
//! A query span is the root; each layer call is a child span of it. The
//! simulator's own `congest/commit` and `congest/execute` profiler spans
//! arrive through the installed `metrics::Registry` as totals, so they are
//! recorded as counts on the layer span whose interval contains them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use metrics::SharedRegistry;

const COMMIT: &str = "congest/commit";
const EXECUTE: &str = "congest/execute";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Query the span belongs to; `None` for set-up spans.
    pub query: Option<u64>,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulator commit and execute time inside this span, read from the
    /// installed registry.
    pub commit_ns: u64,
    pub execute_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of one layer, summed over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Collects spans in memory; written out when the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    query: Option<(u64, usize)>,
    registry: Option<SharedRegistry>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            query: None,
            registry: None,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn simulator_ns(&self) -> (u64, u64) {
        self.registry.as_ref().map_or((0, 0), |r| {
            let r = r.borrow();
            let nanos = |path| r.spans().get(path).map_or(0, |s| s.nanos);
            (nanos(COMMIT), nanos(EXECUTE))
        })
    }

    /// Runs `f` as the root span of query `query`, with `registry`
    /// installed for the simulator's own spans and counters. Returns `f`'s
    /// value and the span's wall seconds.
    pub fn query<T>(
        &mut self,
        query: u64,
        registry: SharedRegistry,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let _guard = metrics::install(registry.clone());
        self.registry = Some(registry);
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: "query",
            query: Some(query),
            parent: None,
            start_ns,
            end_ns: start_ns,
            commit_ns: 0,
            execute_ns: 0,
        });
        self.query = Some((query, id));
        let value = f(self);
        let end_ns = self.now_ns();
        let (commit_ns, execute_ns) = self.simulator_ns();
        let root = &mut self.spans[id];
        root.end_ns = end_ns;
        root.commit_ns = commit_ns;
        root.execute_ns = execute_ns;
        self.query = None;
        self.registry = None;
        (value, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Runs `f` as a span named `name`, a child of the open query span if
    /// there is one.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (query, parent) = match self.query {
            Some((q, id)) => (Some(q), Some(id)),
            None => (None, None),
        };
        let (commit0, execute0) = self.simulator_ns();
        let start_ns = self.now_ns();
        let value = f();
        let end_ns = self.now_ns();
        let (commit1, execute1) = self.simulator_ns();
        self.spans.push(Span {
            name,
            query,
            parent,
            start_ns,
            end_ns,
            commit_ns: commit1 - commit0,
            execute_ns: execute1 - execute0,
        });
        value
    }

    /// Per-layer self time: a layer span's duration minus the simulator
    /// time inside it; a query span's self time is the time no layer call
    /// covered (`unattributed`). Simulator time is reported as
    /// `congest.commit` and `congest.execute`.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let (name, covered) = if s.name == "query" {
                ("unattributed", child_ns[i])
            } else {
                let sim = s.commit_ns + s.execute_ns;
                for (part, ns) in [
                    ("congest.commit", s.commit_ns),
                    ("congest.execute", s.execute_ns),
                ] {
                    if ns > 0 {
                        let e = out.entry(part).or_default();
                        e.calls += 1;
                        e.total_ns += ns;
                        e.self_ns += ns;
                    }
                }
                (s.name, sim)
            };
            let e = out.entry(name).or_default();
            e.calls += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Total nanoseconds of spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let null_or = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
            let parent = null_or(s.parent.map(|p| p.to_string()));
            let query = null_or(s.query.map(|q| q.to_string()));
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"query\":{query},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"congest_commit_ns\":{},\"congest_execute_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.commit_ns, s.execute_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_simulator_time() {
        let mut rec = Recorder::default();
        let registry = metrics::Registry::shared();
        rec.query(0, registry.clone(), |rec| {
            rec.time("layer", || {
                metrics::with(|r| r.record_span(COMMIT, 5_000));
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let t = rec.self_times();
        assert_eq!(t["layer"].calls, 1);
        assert_eq!(t["congest.commit"].total_ns, 5_000);
        assert_eq!(t["layer"].self_ns, t["layer"].total_ns - 5_000);
        let query = rec.total_ns("query");
        assert_eq!(t["unattributed"].self_ns, query - t["layer"].total_ns);
        assert!(t["unattributed"].self_ns >= 1_000_000);
        assert_eq!(rec.to_jsonl().lines().count(), 2);
    }
}
