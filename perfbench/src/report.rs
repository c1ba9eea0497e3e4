//! Metric catalogue, result records and the final JSON line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items the audit checked.
    pub attempted: u64,
    /// Items lost, duplicated, out of FIFO order or refused, plus one per
    /// broken certificate.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra `key: JSON value` fields for the result record (sample
    /// counts, failure breakdown).
    pub record: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.record.push((key, value.to_string()));
    }

    /// Records the end-to-end metrics every untraced run reports (all but
    /// `rss_peak_mib`, read at exit): throughput, the percentiles of every
    /// latency sample of the timed run, and the median set-up time.
    pub fn end_to_end(&mut self, items_per_s: f64, latency_ns: &mut [u64], setups: &mut [f64]) {
        let lat = crate::stats::summarize(latency_ns, 1e-3);
        self.metric("items_per_s", items_per_s, "1/s");
        self.metric("latency_p50_us", lat.p50, "us");
        self.metric("latency_p99_us", lat.p99, "us");
        self.metric("setup_s", crate::stats::median(setups), "s");
        self.note("latency_samples", lat.n);
    }

    pub fn fail_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The end-to-end metrics every untraced run prints, with their units.
/// `fail_frac` is not among them: it is reported through the result's
/// `attempted`/`failed` counts and printed with the table.
pub const END_TO_END: [(&str, &str); 5] = [
    ("items_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("rss_peak_mib", "MiB"),
    ("setup_s", "s"),
];

/// Layers of the ledger, in stacking order.
pub const LEDGER_LAYERS: [&str; 8] = [
    "core",
    "core-noreclaim",
    "core-bounded",
    "ring",
    "shard",
    "channel-try",
    "channel-blocking",
    "broker-try",
];

/// Per-layer metrics measured by the traced run, each with its unit and
/// the workloads that load its layer.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, &'static [&'static str])> {
    const QC: &[&str] = &["queue-contend"];
    const TB: &[&str] = &["topic-burst"];
    const TF: &[&str] = &["task-fanout"];
    const OPEN: &[&str] = &["topic-burst", "task-fanout"];
    const ALL: &[&str] = &crate::WORKLOADS;
    let fixed: [(&str, &str, &[&str]); 39] = [
        ("core.enqueue_ns.p50", "ns", QC),
        ("core.enqueue_ns.p99", "ns", QC),
        ("core.dequeue_ns.p50", "ns", QC),
        ("core.dequeue_ns.p99", "ns", QC),
        ("core.dequeue_null_share", "share", QC),
        ("core.steps_per_op", "1/op", QC),
        ("core.cas_per_op", "1/op", QC),
        ("core.cas_fail_per_op", "1/op", QC),
        ("core.tree_visits_per_op", "1/op", QC),
        ("core.block_allocs_per_op", "1/op", QC),
        ("core.reclaim.truncations_per_kop", "1/kop", QC),
        ("core.reclaim.blocks_per_op", "1/op", QC),
        ("core.live_blocks_end", "count", QC),
        ("core.bounded.steps_per_msg", "1/msg", TB),
        ("core.bounded.cas_per_msg", "1/msg", TB),
        ("core.bounded.gc_phases_per_kmsg", "1/kmsg", TB),
        ("core.bounded.help_per_kmsg", "1/kmsg", TB),
        ("core.bounded.live_blocks_end", "count", TB),
        ("broker.publish_ns.p50", "ns", TB),
        ("broker.publish_ns.p99", "ns", TB),
        ("broker.queue_wait_us.p50", "us", TB),
        ("broker.queue_wait_us.p99", "us", TB),
        ("broker.full_share", "share", TB),
        ("broker.recv_wait_us.p50", "us", TB),
        ("broker.backlog_max", "count", TB),
        ("executor.inject_spawn_ns.p50", "ns", TF),
        ("executor.inject_spawn_ns.p99", "ns", TF),
        ("executor.local_spawn_ns.p50", "ns", TF),
        ("executor.local_spawn_ns.p99", "ns", TF),
        ("executor.queue_wait_us.p50", "us", TF),
        ("executor.queue_wait_us.p99", "us", TF),
        ("executor.from_local_share", "share", TF),
        ("executor.from_injection_share", "share", TF),
        ("executor.from_steal_share", "share", TF),
        ("executor.stolen_per_batch", "1/batch", TF),
        ("executor.parks_per_ktask", "1/ktask", TF),
        ("gen.lag_p99_us", "us", OPEN),
        ("gen.samples", "count", OPEN),
        ("trace.overhead_ratio", "ratio", ALL),
    ];
    let mut all: Vec<_> = fixed
        .iter()
        .map(|&(n, u, w)| (n.to_string(), u, w))
        .collect();
    for layer in LEDGER_LAYERS {
        for p in ["p1", "p2"] {
            for (kind, unit) in [
                ("ns_per_op", "ns/op"),
                ("steps_per_op", "1/op"),
                ("cas_per_op", "1/op"),
            ] {
                all.push((format!("ledger.{layer}.{p}.{kind}"), unit, QC));
            }
        }
    }
    all
}

/// The unit of a metric of [`END_TO_END`] or the per-layer catalogue.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, unit)| unit)
        .or_else(|| {
            per_layer_catalogue()
                .into_iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, unit, _)| unit)
        })
}

/// Machine and build fingerprint stamped on every result record.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", json_str(&cpu)),
        ("kernel", json_str(&kernel)),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("git_commit", json_str(env!("PERFBENCH_COMMIT"))),
        ("source_digest", json_str(env!("PERFBENCH_SOURCE_DIGEST"))),
    ]
}

/// Machine-wide CPU time so far, from the `cpu` line of `/proc/stat`:
/// `(steal, total)` in clock ticks. Steal is time the hypervisor ran
/// other guests while this one was runnable; its share over a run says how
/// much of the run's spread came from outside the program.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from `key: JSON value` pairs.
pub fn json_object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite metric value as a JSON number with all its digits.
fn json_num(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not finite");
    format!("{value}")
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = json_object(metrics.iter().map(|m| {
        let v = json_object([("value", json_num(m.value)), ("unit", json_str(m.unit))]);
        (m.name.as_str(), v)
    }));
    json_object([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics),
    ])
}

/// One tab-separated, human-readable line per metric; `--workload all`
/// reads these back from each child.
pub fn metric_line(m: &Metric) -> String {
    format!("metric\t{}\t{}\t{}", m.name, m.value, m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let m = [Metric {
            name: "setup_s".into(),
            value: 0.8125,
            unit: "s",
        }];
        assert_eq!(
            result_line(true, 3, 0, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.8125, "unit": "s"}}}"#
        );
        assert_eq!(json_str("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        let catalogue = per_layer_catalogue();
        let names = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(catalogue.iter().map(|(n, u, _)| (n.clone(), *u)));
        let mut count = 0;
        for (name, unit) in names {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
            count += 1;
        }
        assert_eq!(
            spec.matches(r#""unit": "#).count(),
            count,
            "BENCHMARK.json lists metrics the benchmark does not print"
        );
        assert!(catalogue.len() <= 128);
    }
}
