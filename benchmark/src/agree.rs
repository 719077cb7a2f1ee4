//! `tecore-e2e agree`: is the benchmark steady enough to be believed?
//!
//! Runs every workload `--runs` times in each of two sets — one fresh
//! process per run, a different seed per run, the workload order
//! reversed in the second set — then compares, for every end-to-end
//! metric, the two sets' medians with the metric's bound, and prints the
//! run-to-run spread (inter-quartile range over median) beside it.
//! Exits non-zero when a difference exceeds its bound, or a spread other
//! than that of `setup_s` does — the two things the benchmark's
//! acceptance is judged by.

use std::process::{Command, ExitCode, Stdio};

use crate::metrics::{Better, DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{median, quartile_spread};
use crate::Args;

/// Pulls `"name": {"value": <number>` out of a run's last output line.
fn metric_value(record: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &record[record.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// One run in a child process; returns its end-to-end metric values in
/// table order, or what went wrong.
fn child_run(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["run", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let record = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || !record.contains("\"correct\": true") {
        return Err(format!("{workload} seed {seed}: {}", record.trim()));
    }
    END_TO_END
        .iter()
        .map(|m| metric_value(record, m.name).ok_or(format!("{workload}: no {} in record", m.name)))
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Entry point of the subcommand.
pub fn run(args: &Args) -> ExitCode {
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { RUN_SECONDS as f64 });
    let runs = args.runs.max(1);
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    let mut broken = false;
    for (set, of_set) in values.iter_mut().enumerate() {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for run in 0..runs {
            for &w in &order {
                let seed = args.seed.unwrap_or(DEFAULT_SEED) + run as u64;
                eprintln!("set {set} run {run}: {} seed {seed:#x}", WORKLOADS[w].name);
                match child_run(WORKLOADS[w].name, seed, seconds, args.smoke) {
                    Ok(row) => {
                        for (m, v) in row.into_iter().enumerate() {
                            of_set[w][m].push(v);
                        }
                    }
                    Err(why) => {
                        eprintln!("run failed or incorrect: {why}");
                        broken = true;
                    }
                }
            }
        }
    }

    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median set 0", "median set 1", "worse", "spread", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let first = median(&values[0][w][m]);
            let last = median(&values[1][w][m]);
            let worse = worsening(metric.better, first, last);
            let spread = values
                .iter()
                .map(|of_set| quartile_spread(&of_set[w][m]))
                .fold(0.0, f64::max);
            let verdict = if worse.abs() > metric.bound {
                "DISAGREE"
            } else if spread > metric.bound && metric.name != "setup_s" {
                "WIDE"
            } else {
                "agree"
            };
            broken |= verdict != "agree";
            println!(
                "{:<22} {:<18} {:>14.5} {:>14.5} {:>7.2}% {:>7.2}% {:>6.1}%  {}",
                workload.name,
                metric.name,
                first,
                last,
                worse * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                verdict
            );
        }
    }
    if broken {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_are_read_from_the_last_line() {
        let record = "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": \
                      {\"setup_s\": {\"value\": 0.2513, \"unit\": \"s\"}, \
                      \"ok_share\": {\"value\": 1, \"unit\": \"share\"}}}";
        assert_eq!(metric_value(record, "setup_s"), Some(0.2513));
        assert_eq!(metric_value(record, "ok_share"), Some(1.0));
        assert_eq!(metric_value(record, "op_p50_ms"), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }
}
