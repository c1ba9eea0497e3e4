//! The repository's benchmark: three workloads, each loading different
//! layers of the queue stack, measured end to end with tracing off and
//! layer by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <queue-contend|topic-burst|task-fanout|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones of `BENCHMARK.json`; with `--trace 1`
//! they are its per-layer ones. The lines before it are the result record
//! (machine fingerprint, seed, sample counts) and one `metric` line per
//! number. `--workload all` runs each workload in its own process.

mod audit;
mod ledger;
mod queue_contend;
mod report;
mod rng;
mod stats;
mod task_fanout;
mod topic_burst;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::{
    json_object, json_str, metric_line, per_layer_catalogue, result_line, Metric, Outcome,
};

/// Set-ups per run; `setup_s` is their median and the last one is timed.
pub const SETUP_REPS: usize = 5;

pub const WORKLOADS: [&str; 3] = ["queue-contend", "topic-burst", "task-fanout"];

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What one set-up reports, timed or not.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub setup_s: f64,
    /// Items the trial's audit checked, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
}

/// Runs [`SETUP_REPS`] trials, only the last of them timed
/// (`trial(true)`), and adds every trial's audit counts to `out`. Returns
/// the set-up times and the timed trial.
pub fn repeat_setups<T>(
    out: &mut Outcome,
    mut trial: impl FnMut(bool) -> (Setup, T),
) -> (Vec<f64>, T) {
    let mut setups = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let (setup, t) = trial(rep + 1 == SETUP_REPS);
        setups.push(setup.setup_s);
        out.attempted += setup.attempted;
        out.failed += setup.failed;
        last = Some(t);
    }
    (setups, last.expect("at least one set-up"))
}

/// Nanoseconds from `start` to `t`, `0` if `t` is earlier.
pub fn ns_since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// Sleeps, then spins the last stretch, until `deadline`.
pub fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > 2 * SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?.clamp(1, 60),
            "--trace" => cfg.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok((workload, cfg))
}

fn run_workload(workload: &str, cfg: &Config) -> Outcome {
    let mut out = match workload {
        "queue-contend" => queue_contend::run(cfg),
        "topic-burst" => topic_burst::run(cfg),
        "task-fanout" => task_fanout::run(cfg),
        _ => unreachable!("checked by parse"),
    };
    if cfg.trace {
        if workload == "queue-contend" {
            // The ledger replays queue-contend's op stream.
            out.metrics.extend(ledger::run(cfg.seed));
        }
        // Every per-layer metric is printed on every workload, in
        // catalogue order; a layer the workload does not load reads 0.
        let mut ordered = Vec::new();
        let mut absent = Vec::new();
        for (name, unit, owners) in per_layer_catalogue() {
            match out.metrics.iter().position(|m| m.name == name) {
                Some(i) => ordered.push(out.metrics.swap_remove(i)),
                None => {
                    assert!(
                        !owners.contains(&workload),
                        "{workload} did not measure {name}"
                    );
                    absent.push(json_str(&name));
                    ordered.push(Metric {
                        name,
                        value: 0.0,
                        unit,
                    });
                }
            }
        }
        assert!(
            out.metrics.is_empty(),
            "metrics outside the catalogue: {:?}",
            out.metrics
        );
        out.metrics = ordered;
        out.note("not_loaded_here", format!("[{}]", absent.join(", ")));
    } else {
        out.metric("rss_peak_mib", report::rss_peak_mib(), "MiB");
        let order = |m: &Metric| report::END_TO_END.iter().position(|&(n, _)| n == m.name);
        assert!(
            out.metrics.iter().all(|m| order(m).is_some()),
            "unexpected end-to-end metric"
        );
        out.metrics.sort_by_key(|m| order(m));
    }
    out
}

fn print_run(workload: &str, cfg: &Config, out: &Outcome) {
    let mut record = vec![
        ("workload", json_str(workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
    ];
    record.extend(report::fingerprint());
    record.push(("fail_frac", out.fail_frac().to_string()));
    record.extend(out.record.iter().cloned());
    println!("record {}", json_object(record));
    for m in &out.metrics {
        println!("{}", metric_line(m));
    }
    println!(
        "{}",
        metric_line(&Metric {
            name: "fail_frac".into(),
            value: out.fail_frac(),
            unit: "share"
        })
    );
    println!("audit\t{}\t{}", out.attempted, out.failed);
    println!(
        "{}",
        result_line(out.failed == 0, out.attempted, out.failed, &out.metrics)
    );
}

/// Runs this benchmark again in a child process with `args` and returns
/// its standard output; an error if it cannot start or exits non-zero.
fn run_child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        print!("{stdout}");
        return Err(format!("{args:?} exited with {}", output.status));
    }
    Ok(stdout)
}

fn child_args(workload: &str, cfg: &Config) -> Vec<String> {
    vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        cfg.seed.to_string(),
        "--seconds".to_string(),
        cfg.seconds.to_string(),
        "--trace".to_string(),
        u8::from(cfg.trace).to_string(),
    ]
}

/// The combined result of `--workload all`.
#[derive(Debug, Default)]
struct Combined {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Combined {
    /// Adds one child's printed output: its audit counts and its metrics,
    /// renamed `<workload>.<metric>`. A child that printed no audit line
    /// is an error.
    fn add(&mut self, workload: &str, stdout: &str) -> Result<(), String> {
        let bad = |what: &str| format!("{workload}: unreadable {what}");
        let mut audited = false;
        for line in stdout.lines() {
            match line.split('\t').collect::<Vec<_>>()[..] {
                ["metric", name, value, _] => {
                    let value: f64 = value.parse().map_err(|_| bad(name))?;
                    if let Some(unit) = report::unit_of(name) {
                        let name = format!("{workload}.{name}");
                        self.metrics.push(Metric { name, value, unit });
                    }
                }
                ["audit", a, f] => {
                    self.attempted += a.parse::<u64>().map_err(|_| bad("attempted"))?;
                    self.failed += f.parse::<u64>().map_err(|_| bad("failed"))?;
                    audited = true;
                }
                _ => {}
            }
        }
        if audited {
            Ok(())
        } else {
            Err(bad("output: no audit line"))
        }
    }

    fn result_line(&self) -> String {
        result_line(self.failed == 0, self.attempted, self.failed, &self.metrics)
    }
}

/// Runs every workload in a child process of its own (so each has its own
/// peak RSS) and prints their output, then one combined result line whose
/// metric names are prefixed with the workload.
fn run_all(cfg: &Config) -> Result<(), String> {
    let mut combined = Combined::default();
    for workload in WORKLOADS {
        let stdout = run_child(&child_args(workload, cfg))?;
        print!("{stdout}");
        combined.add(workload, &stdout)?;
    }
    println!("{}", combined.result_line());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let result = if workload == "all" {
        run_all(&cfg)
    } else {
        let (steal0, total0) = report::cpu_ticks();
        let mut out = run_workload(&workload, &cfg);
        let (steal1, total1) = report::cpu_ticks();
        let steal = stats::ratio((steal1 - steal0) as f64, (total1 - total0) as f64);
        out.note("cpu_steal_share", steal);
        print_run(&workload, &cfg, &out);
        Ok(())
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let (w, cfg) = parse(&args(
            "--workload topic-burst --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, "topic-burst");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 12, true));
        assert!(parse(&args("--workload queue-contend --bogus 2")).is_err());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload all --seed")).is_err());
    }

    /// A child's printed output with the given audit counts.
    fn child_output(attempted: u64, failed: u64) -> String {
        let out = Outcome {
            attempted,
            failed,
            metrics: vec![Metric {
                name: "items_per_s".into(),
                value: 1000.5,
                unit: "1/s",
            }],
            record: Vec::new(),
        };
        format!(
            "{}\naudit\t{attempted}\t{failed}\n{}\n",
            metric_line(&out.metrics[0]),
            result_line(failed == 0, attempted, failed, &out.metrics)
        )
    }

    #[test]
    fn a_failing_child_makes_the_combined_result_incorrect() {
        let mut combined = Combined::default();
        combined
            .add("queue-contend", &child_output(100, 3))
            .unwrap();
        combined.add("topic-burst", &child_output(50, 0)).unwrap();
        combined.add("task-fanout", &child_output(20, 0)).unwrap();
        assert_eq!((combined.attempted, combined.failed), (170, 3));
        assert_eq!(combined.metrics.len(), 3);
        assert_eq!(combined.metrics[0].name, "queue-contend.items_per_s");
        let line = combined.result_line();
        assert!(
            line.starts_with(r#"{"correct": false, "attempted": 170, "failed": 3, "#),
            "{line}"
        );
        assert!(Combined::default()
            .add("topic-burst", "metric\tx\t1\ts\n")
            .is_err());
    }
}
