//! Metric names, the result line, and host counters from `/proc`.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step. End-to-end metrics are printed by an
//! untraced run (`--trace 0`), per-layer metrics by a traced run
//! (`--trace 1`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("battery_access_per_s", "acc/s"),
    ("fit_ms", "ms"),
    ("pred_err_pct", "%"),
    ("serve_rps", "req/s"),
    ("predict_hit_p50_us", "us"),
    ("predict_hit_p90_us", "us"),
    ("predict_miss_p50_ms", "ms"),
    ("predict_miss_p90_ms", "ms"),
    ("recommend_cold_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Memsim metrics reported once per anchor layout (`.4k`, `.2m`).
pub const MEMSIM: [(&str, &str); 14] = [
    ("access_ns", "ns"),
    ("walks_per_kacc", "count"),
    ("l1tlb_ns", "ns"),
    ("l1tlb_hit", "ratio"),
    ("stlb_ns", "ns"),
    ("stlb_hit", "ratio"),
    ("pwc_ns", "ns"),
    ("pwc_hit", "ratio"),
    ("walk_path_ns", "ns"),
    ("hierarchy_ns", "ns"),
    ("l1d_hit", "ratio"),
    ("l2_hit", "ratio"),
    ("l3_hit", "ratio"),
    ("walker_loads_per_walk", "count"),
];

/// The anchor layouts the access-level replays use.
pub const ANCHORS: [&str; 2] = ["4k", "2m"];

/// Request-path stages whose per-request time the server's `metrics`
/// verb sums (`service::server::WALL_STAGES`).
pub const STAGES: [&str; 8] = [
    "read",
    "parse",
    "fit",
    "cache_lookup",
    "explore",
    "score",
    "simulate",
    "render",
];

/// Per-layer metrics other than the memsim, stage and fit families:
/// `(name, unit)`.
const LAYER_SCALARS: [(&str, &str); 22] = [
    ("workloads.trace_ns", "ns"),
    ("mosalloc.page_size_at_ns", "ns"),
    ("workloads.windows_ns", "ns"),
    ("workloads.kept_frac", "ratio"),
    ("harness.gate_ms", "ms"),
    ("harness.gate_err", "ratio"),
    ("harness.gate_share", "ratio"),
    ("machine.profile_ms", "ms"),
    ("layouts.plan_ms", "ms"),
    ("harness.measure_ms", "ms"),
    ("harness.parallel_eff", "ratio"),
    ("mosmodel.kfold_ms", "ms"),
    ("recommend.enumerate_ms", "ms"),
    ("recommend.candidates", "count"),
    ("service.parse_ns", "ns"),
    ("service.render_ns", "ns"),
    ("service.pred_cache_hit", "ratio"),
    ("service.rec_cache_hit", "ratio"),
    ("host.cpu_s", "s"),
    ("host.minor_faults", "count"),
    ("host.ctx_switches", "count"),
    ("host.peak_rss_mb", "MB"),
];

/// The traced run's wall time over the untraced run's, as a percentage
/// above 100.
pub const TRACE_OVERHEAD: (&str, &str) = ("bench.trace_overhead_pct", "%");

/// Every per-layer metric, `(name, unit)`, in a stable order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_SCALARS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for anchor in ANCHORS {
        for (name, unit) in MEMSIM {
            out.push((format!("memsim.{name}.{anchor}"), unit));
        }
        out.push((format!("machine.run_ns.{anchor}"), "ns"));
        out.push((format!("machine.timing_ns.{anchor}"), "ns"));
    }
    for kind in mosmodel::ModelKind::ALL {
        out.push((format!("mosmodel.fit_ms.{}", kind.name()), "ms"));
    }
    for stage in STAGES {
        out.push((format!("service.stage.{stage}_us"), "us"));
    }
    out.push((TRACE_OVERHEAD.0.to_string(), TRACE_OVERHEAD.1));
    out
}

/// The metrics one run collected, with the count of operations
/// attempted and failed.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<String, f64>,
    /// Operations attempted (batteries, fits, requests, checks).
    pub attempted: u64,
    /// Operations that failed, including failed correctness checks.
    pub failed: u64,
    /// Why each failure happened, printed to stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempted operation that failed, with the reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.problems.push(why.into());
    }

    /// Counts an attempted check; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempt();
        if !ok {
            self.fail(why());
        }
    }

    /// Renders the result line for the metrics `names`. A missing or
    /// non-finite value is a failure and prints as zero, except the
    /// `host.*` counters, which are left out where `/proc` is unreadable.
    pub fn render(&mut self, names: &[(String, &'static str)]) -> String {
        let mut metrics = String::new();
        for (name, unit) in names {
            if name.starts_with("host.") && !self.values.contains_key(name) {
                continue;
            }
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    let why = format!("metric {name} not measured ({other:?})");
                    self.failed += 1;
                    self.problems.push(why);
                    0.0
                }
            };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A summary of a sample for the human-readable log: count, median,
/// quartiles and their spread.
pub fn describe_sample(name: &str, values: &[f64]) -> String {
    let n = values.len();
    match (stats::median(values), stats::quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!(
            "{name}: n={n} median={m:.4} q1={q1:.4} q3={q3:.4} spread={:.3}",
            stats::relative_spread(values).unwrap_or(f64::NAN)
        ),
        (Some(m), None) => format!("{name}: n={n} median={m:.4}"),
        _ => format!("{name}: n=0"),
    }
}

/// Process counters read from `/proc/self`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostCounters {
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Voluntary plus involuntary context switches of the live threads.
    pub ctx_switches: u64,
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux architecture the benchmark targets).
const USER_HZ: f64 = 100.0;

impl HostCounters {
    /// Reads the counters, or `None` where `/proc` is unreadable.
    pub fn read() -> Option<HostCounters> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesised command name, which may itself
        // hold spaces: state is field 3, minflt 10, utime 14, stime 15.
        let rest = stat.rsplit_once(')')?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
        let minor_faults = field(10)?;
        let ticks = field(14)? + field(15)?;
        let mut ctx_switches = 0;
        for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            ctx_switches += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
            ctx_switches += status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
        Some(HostCounters {
            cpu_s: ticks as f64 / USER_HZ,
            minor_faults,
            ctx_switches,
        })
    }

    /// Records `self - before` as the `host.*` metrics.
    pub fn record_since(&self, before: &HostCounters, out: &mut Outcome) {
        out.set("host.cpu_s", self.cpu_s - before.cpu_s);
        out.set(
            "host.minor_faults",
            self.minor_faults.saturating_sub(before.minor_faults) as f64,
        );
        out.set(
            "host.ctx_switches",
            self.ctx_switches.saturating_sub(before.ctx_switches) as f64,
        );
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field(&status, "VmHWM").map(|kib| kib as f64 / 1024.0)
}

/// The leading integer of a `Name:  value [unit]` line of a
/// `/proc/*/status` document.
fn status_field(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key == name).then(|| value.split_whitespace().next()?.parse().ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "<x>"` entries of one array of `BENCHMARK.json`.
    fn declared(json: &str, array: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{array}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {array}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |key: &str| {
                    let at = obj.find(&format!("\"{key}\"")).expect("field present");
                    let after = &obj[at + key.len() + 2..];
                    let open = after.find('"').expect("value opens") + 1;
                    let len = after[open..].find('"').expect("value closes");
                    after[open..open + len].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let json = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&json, "end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&json, "per_layer"), layer);
    }

    #[test]
    fn render_counts_missing_metrics_as_failures() {
        let mut out = Outcome::default();
        out.set("a", 1.5);
        let names = vec![("a".to_string(), "ms"), ("b".to_string(), "s")];
        let line = out.render(&names);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn proc_counters_parse_when_readable() {
        if let Some(host) = HostCounters::read() {
            assert!(host.cpu_s >= 0.0);
            assert!(host.ctx_switches > 0);
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
        assert_eq!(status_field("VmHWM:\t  2048 kB\n", "VmHWM"), Some(2048));
        assert_eq!(status_field("VmHWM:\t  2048 kB\n", "VmRSS"), None);
    }
}
