//! `bench_check` — the CI bench-regression gate.
//!
//! Compares the `BENCH_*.json` reports of a bench run (the CI
//! bench-smoke step) against the baselines committed in the repository
//! and fails when any tracked median regressed by more than the
//! configured tolerance. Smoke runs are single-iteration, so the
//! tolerance is deliberately generous (default 3×) and sub-millisecond
//! baselines are skipped entirely (default floor 1 ms): the gate exists
//! to catch order-of-magnitude perf bit-rot per commit, not to replace
//! a real benchmark run.
//!
//! Usage:
//!
//! ```text
//! bench_check --baseline-dir crates/bench --reports-dir bench-reports \
//!             [--tolerance 3.0] [--min-ns 1000000] [--ratio 'a/b<=x']...
//! ```
//!
//! A `--ratio` rule compares two benchmarks of the *same* run with each
//! other — `median(a) / median(b)` must not exceed `x` — so it holds or
//! fails the same way on a fast machine and a slow one, and can be set
//! far tighter than the baseline tolerance. `a` and `b` are full
//! benchmark names (which contain `/` themselves: the rule is split at
//! the one `/` that leaves a reported name on either side).
//!
//! Only benchmarks present in *both* a baseline file and the matching
//! report are compared; a missing report file fails the gate (a bench
//! binary disappeared), a missing individual benchmark inside an
//! existing report fails too (a benchmark was renamed or dropped
//! without updating the baseline).
//!
//! The JSON is the criterion shim's flat schema
//! (`{"bench": ..., "results": [{"name": ..., "median_ns": ...}]}`);
//! the parser below reads exactly that shape with no dependencies (the
//! build environment has no registry, so no serde). Entries may
//! additionally carry latency percentiles (`"p50_ns"`, `"p99_ns"` —
//! the server load generator's schema); when a baseline entry has
//! them, they are gated exactly like the median, and a report that
//! *drops* a baselined percentile fails (a latency metric silently
//! disappearing is itself a regression).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One benchmark entry: name, median, and optional latency
/// percentiles (the load-generator schema).
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    name: String,
    median_ns: u64,
    p50_ns: Option<u64>,
    p99_ns: Option<u64>,
}

/// Extracts the string value following `"key":` at `pos` in `s`.
fn string_value(s: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let needle = format!("\"{key}\"");
    let at = s[from..].find(&needle)? + from + needle.len();
    let colon = s[at..].find(':')? + at + 1;
    let open = s[colon..].find('"')? + colon + 1;
    let close = s[open..].find('"')? + open;
    Some((s[open..close].to_string(), close + 1))
}

/// Extracts the unsigned integer following `"key":` at `pos` in `s`.
fn integer_value(s: &str, key: &str, from: usize) -> Option<(u64, usize)> {
    let needle = format!("\"{key}\"");
    let at = s[from..].find(&needle)? + from + needle.len();
    let colon = s[at..].find(':')? + at + 1;
    let rest = s[colon..].trim_start();
    let offset = colon + (s[colon..].len() - rest.len());
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        return None;
    }
    Some((digits.parse().ok()?, offset + digits.len()))
}

/// Parses the criterion shim's `BENCH_*.json` report: every
/// `{"name": ..., "median_ns": ...}` pair in order, plus the optional
/// `p50_ns`/`p99_ns` percentile fields of the load-generator schema.
///
/// Percentiles are searched only within the entry's own object (the
/// span from the name to the next `}`), so an entry without them never
/// steals the fields of the entry after it.
fn parse_report(text: &str) -> Vec<Entry> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while let Some((name, after_name)) = string_value(text, "name", pos) {
        let Some((median_ns, after_median)) = integer_value(text, "median_ns", after_name) else {
            break;
        };
        let entry_end = text[after_name..]
            .find('}')
            .map(|i| after_name + i)
            .unwrap_or(text.len());
        let entry_text = &text[after_name..entry_end];
        out.push(Entry {
            name,
            median_ns,
            p50_ns: integer_value(entry_text, "p50_ns", 0).map(|(v, _)| v),
            p99_ns: integer_value(entry_text, "p99_ns", 0).map(|(v, _)| v),
        });
        pos = after_median.max(entry_end);
    }
    out
}

fn format_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

struct Args {
    baseline_dir: PathBuf,
    reports_dir: PathBuf,
    tolerance: f64,
    min_ns: u64,
    ratios: Vec<RatioRule>,
}

/// One `--ratio 'a/b<=x'` rule, not yet split into its two names.
#[derive(Debug, Clone, PartialEq)]
struct RatioRule {
    /// `a/b` as written.
    names: String,
    /// The largest `median(a) / median(b)` allowed.
    at_most: f64,
}

impl RatioRule {
    fn parse(text: &str) -> Result<RatioRule, String> {
        let (names, bound) = text
            .split_once("<=")
            .ok_or_else(|| format!("bad --ratio {text:?}: expected 'a/b<=x'"))?;
        let at_most: f64 = bound
            .trim()
            .parse()
            .map_err(|e| format!("bad --ratio bound in {text:?}: {e}"))?;
        if !(at_most.is_finite() && at_most > 0.0) {
            return Err(format!("bad --ratio bound in {text:?}: must be positive"));
        }
        Ok(RatioRule {
            names: names.trim().to_string(),
            at_most,
        })
    }

    /// Evaluates the rule over the entries of one run: `Ok` carries the
    /// report line, `Err` the failure.
    fn check(&self, entries: &[Entry]) -> Result<String, String> {
        let median = |name: &str| entries.iter().find(|e| e.name == name).map(|e| e.median_ns);
        let split = self
            .names
            .match_indices('/')
            .filter_map(|(at, _)| {
                let (a, b) = (&self.names[..at], &self.names[at + 1..]);
                Some((a, median(a)?, b, median(b)?))
            })
            .next();
        let Some((a, a_ns, b, b_ns)) = split else {
            return Err(format!(
                "ratio {}: no split into two reported benchmarks (renamed or dropped?)",
                self.names
            ));
        };
        if b_ns == 0 {
            return Err(format!("ratio {a} / {b}: denominator measured 0 ns"));
        }
        let ratio = a_ns as f64 / b_ns as f64;
        let line = format!(
            "{a} / {b} = {} / {} = {ratio:.4} (allowed {:.4})",
            format_ms(a_ns),
            format_ms(b_ns),
            self.at_most
        );
        if ratio <= self.at_most {
            Ok(line)
        } else {
            Err(format!("ratio {line}"))
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut baseline_dir = None;
    let mut reports_dir = None;
    let mut tolerance = 3.0f64;
    let mut min_ns = 1_000_000u64;
    let mut ratios = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--baseline-dir" => baseline_dir = Some(PathBuf::from(value("--baseline-dir")?)),
            "--reports-dir" => reports_dir = Some(PathBuf::from(value("--reports-dir")?)),
            "--tolerance" => {
                tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
            }
            "--min-ns" => {
                min_ns = value("--min-ns")?
                    .parse()
                    .map_err(|e| format!("bad --min-ns: {e}"))?;
            }
            "--ratio" => ratios.push(RatioRule::parse(&value("--ratio")?)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        baseline_dir: baseline_dir.ok_or("--baseline-dir is required")?,
        reports_dir: reports_dir.ok_or("--reports-dir is required")?,
        tolerance,
        min_ns,
        ratios,
    })
}

/// Compares one baseline file against its report; returns the failures.
fn check_file(baseline_path: &Path, args: &Args, failures: &mut Vec<String>) {
    let file_name = baseline_path.file_name().unwrap_or_default();
    let report_path = args.reports_dir.join(file_name);
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => parse_report(&text),
        Err(e) => {
            failures.push(format!(
                "{}: unreadable baseline: {e}",
                baseline_path.display()
            ));
            return;
        }
    };
    let report = match std::fs::read_to_string(&report_path) {
        Ok(text) => parse_report(&text),
        Err(_) => {
            failures.push(format!(
                "{}: no report produced by the bench run (bench binary removed without \
                 updating its baseline?)",
                report_path.display()
            ));
            return;
        }
    };
    for base in &baseline {
        let Some(current) = report.iter().find(|e| e.name == base.name) else {
            failures.push(format!(
                "{}: benchmark disappeared from the report (renamed without updating \
                 the baseline?)",
                base.name
            ));
            continue;
        };
        // Every metric the baseline tracks is gated; a report that
        // dropped a baselined percentile fails outright.
        let metrics: [(&str, u64, Option<u64>); 3] = [
            ("median", base.median_ns, Some(current.median_ns)),
            ("p50", base.p50_ns.unwrap_or(0), current.p50_ns),
            ("p99", base.p99_ns.unwrap_or(0), current.p99_ns),
        ];
        for (metric, base_ns, current_ns) in metrics {
            if base_ns == 0 {
                continue; // metric not tracked by the baseline
            }
            if base_ns < args.min_ns {
                continue; // too fast to measure meaningfully in a smoke run
            }
            let Some(current_ns) = current_ns else {
                failures.push(format!(
                    "{} [{metric}]: metric disappeared from the report (schema changed \
                     without updating the baseline?)",
                    base.name
                ));
                continue;
            };
            let ratio = current_ns as f64 / base_ns as f64;
            let verdict = if ratio > args.tolerance {
                "REGRESSED"
            } else {
                "ok"
            };
            let label = format!("{} [{metric}]", base.name);
            println!(
                "{verdict:>9}  {label:<60} baseline {:>12}  now {:>12}  ({ratio:.2}x)",
                format_ms(base_ns),
                format_ms(current_ns),
            );
            if ratio > args.tolerance {
                failures.push(format!(
                    "{label}: {} vs baseline {} ({ratio:.2}x > {:.2}x tolerance)",
                    format_ms(current_ns),
                    format_ms(base_ns),
                    args.tolerance
                ));
            }
        }
    }
}

/// The `BENCH_*.json` files of a directory, sorted.
fn bench_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    Ok(files)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    };
    let baselines = match bench_files(&args.baseline_dir) {
        Ok(files) => files,
        Err(e) => {
            eprintln!(
                "bench_check: cannot read {}: {e}",
                args.baseline_dir.display()
            );
            return ExitCode::from(2);
        }
    };
    if baselines.is_empty() {
        eprintln!(
            "bench_check: no BENCH_*.json baselines in {}",
            args.baseline_dir.display()
        );
        return ExitCode::from(2);
    }
    println!(
        "bench_check: {} baseline file(s), tolerance {:.2}x, floor {}",
        baselines.len(),
        args.tolerance,
        format_ms(args.min_ns)
    );
    let mut failures = Vec::new();
    for baseline in &baselines {
        check_file(baseline, &args, &mut failures);
    }
    if !args.ratios.is_empty() {
        // Ratio rules read the run's own reports, baselined or not.
        let reported: Vec<Entry> = bench_files(&args.reports_dir)
            .unwrap_or_default()
            .iter()
            .filter_map(|report| std::fs::read_to_string(report).ok())
            .flat_map(|text| parse_report(&text))
            .collect();
        for rule in &args.ratios {
            match rule.check(&reported) {
                Ok(line) => println!("{:>9}  {line}", "ok"),
                Err(failure) => failures.push(failure),
            }
        }
    }
    if failures.is_empty() {
        println!("bench_check: all tracked medians within tolerance");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_check: {} regression(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"bench": "streaming_updates", "results": [
  {"name": "streaming_updates/from_scratch/mln-cpi", "median_ns": 9253598, "min_ns": 8824074, "max_ns": 13090564, "stddev_ns": 1394616, "samples": 10},
  {"name": "streaming_updates/incremental/mln-cpi", "median_ns": 8417035, "min_ns": 7783941, "max_ns": 9955630, "stddev_ns": 646518, "samples": 10}
]}"#;

    #[test]
    fn parses_the_shim_schema() {
        let entries = parse_report(SAMPLE);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "streaming_updates/from_scratch/mln-cpi");
        assert_eq!(entries[0].median_ns, 9_253_598);
        assert_eq!(entries[1].median_ns, 8_417_035);
    }

    #[test]
    fn ratio_rule_splits_at_reported_names_and_gates() {
        let entries = parse_report(SAMPLE);
        let names = "streaming_updates/incremental/mln-cpi/streaming_updates/from_scratch/mln-cpi";
        // 8417035 / 9253598 = 0.9096.
        let loose = RatioRule::parse(&format!("{names}<=0.95")).unwrap();
        let line = loose.check(&entries).expect("within the bound");
        assert!(line.contains("= 0.9096"), "{line}");
        let tight = RatioRule::parse(&format!("{names} <= 0.5")).unwrap();
        let failure = tight.check(&entries).expect_err("past the bound");
        assert!(failure.contains("allowed 0.5000"), "{failure}");
        // A rule naming a benchmark the run did not report fails.
        let gone = RatioRule::parse("streaming_updates/incremental/mln-cpi/nope<=2").unwrap();
        assert!(gone.check(&entries).unwrap_err().contains("no split"));
    }

    #[test]
    fn malformed_ratio_rules_are_rejected() {
        assert!(RatioRule::parse("a/b").is_err(), "no bound");
        assert!(RatioRule::parse("a/b<=fast").is_err(), "bound not a number");
        assert!(RatioRule::parse("a/b<=0").is_err(), "bound not positive");
        assert_eq!(
            RatioRule::parse(" a/b <= 0.25 ").unwrap(),
            RatioRule {
                names: "a/b".to_string(),
                at_most: 0.25
            }
        );
    }

    #[test]
    fn parses_empty_and_garbage() {
        assert!(parse_report("{}").is_empty());
        assert!(parse_report("").is_empty());
        assert!(parse_report("not json at all").is_empty());
        // A name without a median terminates cleanly.
        assert!(parse_report(r#"{"name": "x"}"#).is_empty());
    }

    #[test]
    fn value_extractors() {
        let s = r#"{"name": "a/b", "median_ns": 123}"#;
        let (name, after) = string_value(s, "name", 0).unwrap();
        assert_eq!(name, "a/b");
        let (median, _) = integer_value(s, "median_ns", after).unwrap();
        assert_eq!(median, 123);
        assert!(integer_value(s, "missing", 0).is_none());
    }

    #[test]
    fn end_to_end_gate() {
        let dir = std::env::temp_dir().join(format!("bench_check_test_{}", std::process::id()));
        let baselines = dir.join("baselines");
        let reports = dir.join("reports");
        std::fs::create_dir_all(&baselines).unwrap();
        std::fs::create_dir_all(&reports).unwrap();
        std::fs::write(baselines.join("BENCH_x.json"), SAMPLE).unwrap();
        // Report: first benchmark 2x slower (within 3x), second 4x (out).
        let report = SAMPLE
            .replace("\"median_ns\": 9253598", "\"median_ns\": 18507196")
            .replace("\"median_ns\": 8417035", "\"median_ns\": 33668140");
        std::fs::write(reports.join("BENCH_x.json"), report).unwrap();
        let args = Args {
            baseline_dir: baselines,
            reports_dir: reports,
            tolerance: 3.0,
            min_ns: 1_000_000,
            ratios: Vec::new(),
        };
        let mut failures = Vec::new();
        check_file(
            &args.baseline_dir.join("BENCH_x.json"),
            &args,
            &mut failures,
        );
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("incremental/mln-cpi"), "{failures:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sub_floor_entries_are_skipped() {
        let dir = std::env::temp_dir().join(format!("bench_check_floor_{}", std::process::id()));
        let baselines = dir.join("baselines");
        let reports = dir.join("reports");
        std::fs::create_dir_all(&baselines).unwrap();
        std::fs::create_dir_all(&reports).unwrap();
        let tiny = r#"{"bench": "q", "results": [
          {"name": "q/stab", "median_ns": 2300, "min_ns": 1, "max_ns": 9, "stddev_ns": 1, "samples": 30}
        ]}"#;
        std::fs::write(baselines.join("BENCH_q.json"), tiny).unwrap();
        // 1000x slower in the report — but under the floor, so ignored.
        std::fs::write(
            reports.join("BENCH_q.json"),
            tiny.replace("\"median_ns\": 2300", "\"median_ns\": 2300000"),
        )
        .unwrap();
        let args = Args {
            baseline_dir: baselines,
            reports_dir: reports,
            tolerance: 3.0,
            min_ns: 1_000_000,
            ratios: Vec::new(),
        };
        let mut failures = Vec::new();
        check_file(
            &args.baseline_dir.join("BENCH_q.json"),
            &args,
            &mut failures,
        );
        assert!(failures.is_empty(), "{failures:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    const PERCENTILE_SAMPLE: &str = r#"{"bench": "server_load", "results": [
  {"name": "server_load/churn/qps", "median_ns": 5000000, "min_ns": 1, "max_ns": 2, "stddev_ns": 0, "samples": 1},
  {"name": "server_load/churn/read_latency", "median_ns": 4100000, "p50_ns": 4100000, "p99_ns": 9300000, "samples": 1},
  {"name": "server_load/idle/read_latency", "median_ns": 3800000, "p50_ns": 3800000, "p99_ns": 7200000, "samples": 1}
]}"#;

    #[test]
    fn parses_the_percentile_schema() {
        let entries = parse_report(PERCENTILE_SAMPLE);
        assert_eq!(entries.len(), 3);
        // Old-schema entry: percentiles absent, not borrowed from the
        // next entry in the file.
        assert_eq!(entries[0].name, "server_load/churn/qps");
        assert_eq!(entries[0].p50_ns, None);
        assert_eq!(entries[0].p99_ns, None);
        assert_eq!(entries[1].p50_ns, Some(4_100_000));
        assert_eq!(entries[1].p99_ns, Some(9_300_000));
        assert_eq!(entries[2].p99_ns, Some(7_200_000));
        // The plain shim schema still parses with empty percentiles.
        let old = parse_report(SAMPLE);
        assert!(old.iter().all(|e| e.p50_ns.is_none() && e.p99_ns.is_none()));
    }

    #[test]
    fn p99_regression_is_caught() {
        let dir = std::env::temp_dir().join(format!("bench_check_p99_{}", std::process::id()));
        let baselines = dir.join("baselines");
        let reports = dir.join("reports");
        std::fs::create_dir_all(&baselines).unwrap();
        std::fs::create_dir_all(&reports).unwrap();
        std::fs::write(baselines.join("BENCH_server_load.json"), PERCENTILE_SAMPLE).unwrap();
        // p99 of the churn phase blows past 3x; medians and p50s stay put.
        let report = PERCENTILE_SAMPLE.replace("\"p99_ns\": 9300000", "\"p99_ns\": 93000000");
        std::fs::write(reports.join("BENCH_server_load.json"), report).unwrap();
        let args = Args {
            baseline_dir: baselines,
            reports_dir: reports,
            tolerance: 3.0,
            min_ns: 1_000_000,
            ratios: Vec::new(),
        };
        let mut failures = Vec::new();
        check_file(
            &args.baseline_dir.join("BENCH_server_load.json"),
            &args,
            &mut failures,
        );
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("churn/read_latency [p99]"),
            "{failures:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_percentile_metric_fails() {
        let dir = std::env::temp_dir().join(format!("bench_check_drop_{}", std::process::id()));
        let baselines = dir.join("baselines");
        let reports = dir.join("reports");
        std::fs::create_dir_all(&baselines).unwrap();
        std::fs::create_dir_all(&reports).unwrap();
        std::fs::write(baselines.join("BENCH_server_load.json"), PERCENTILE_SAMPLE).unwrap();
        // The report regressed to the old schema: percentiles gone.
        let report = PERCENTILE_SAMPLE
            .replace(", \"p50_ns\": 4100000, \"p99_ns\": 9300000", "")
            .replace(", \"p50_ns\": 3800000, \"p99_ns\": 7200000", "");
        std::fs::write(reports.join("BENCH_server_load.json"), report).unwrap();
        let args = Args {
            baseline_dir: baselines,
            reports_dir: reports,
            tolerance: 3.0,
            min_ns: 1_000_000,
            ratios: Vec::new(),
        };
        let mut failures = Vec::new();
        check_file(
            &args.baseline_dir.join("BENCH_server_load.json"),
            &args,
            &mut failures,
        );
        // p50 + p99 disappeared on both latency entries.
        assert_eq!(failures.len(), 4, "{failures:?}");
        assert!(
            failures.iter().all(|f| f.contains("metric disappeared")),
            "{failures:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_report_file_fails() {
        let dir = std::env::temp_dir().join(format!("bench_check_miss_{}", std::process::id()));
        let baselines = dir.join("baselines");
        std::fs::create_dir_all(&baselines).unwrap();
        std::fs::create_dir_all(dir.join("reports")).unwrap();
        std::fs::write(baselines.join("BENCH_gone.json"), SAMPLE).unwrap();
        let args = Args {
            baseline_dir: baselines,
            reports_dir: dir.join("reports"),
            tolerance: 3.0,
            min_ns: 1_000_000,
            ratios: Vec::new(),
        };
        let mut failures = Vec::new();
        check_file(
            &args.baseline_dir.join("BENCH_gone.json"),
            &args,
            &mut failures,
        );
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("no report"), "{failures:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
