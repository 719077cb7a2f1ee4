//! `tecore-e2e` — the end-to-end benchmark of the TeCoRe workspace.
//!
//! ```text
//! tecore-e2e --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! tecore-e2e run W   [--seed N] [--seconds S] [--smoke]      the same with `--trace 0`
//! tecore-e2e trace W [--seed N] [--seconds S] [--smoke]      the same with `--trace 1`
//! tecore-e2e run --smoke                                     all six workloads at 1/20 scale
//! tecore-e2e agree [--runs 5] [--seconds S]                  do two sets of runs agree?
//! ```
//!
//! Every run prints each metric by name with its unit and, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md`.

#![forbid(unsafe_code)]

mod agree;
mod hostspeed;
mod inputs;
mod metrics;
mod oracle;
mod procfs;
mod run;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use metrics::{json_num, json_str, metrics_json, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Ctx, Outcome};
use trace::Tracer;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    command: String,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
}

/// Parses `123`, `0x7ec0_2017` and `0X5EED0014`.
fn parse_seed(text: &str) -> Option<u64> {
    let clean = text.replace('_', "");
    match clean
        .strip_prefix("0x")
        .or_else(|| clean.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => clean.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        runs: 5,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} wants a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(parse_seed(&v).ok_or(format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad seconds {v:?}"))?;
                if !(secs.is_finite() && secs > 0.0 && secs <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {v}"));
                }
                args.seconds = Some(secs);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--runs" => {
                let v = value("--runs")?;
                args.runs = v.parse().map_err(|_| format!("bad --runs {v:?}"))?;
            }
            name if !name.starts_with("--") && args.workload.is_none() => {
                args.workload = Some(name.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where records go: `benchmark/out` under the working directory when
/// run from the repository root (as the driver does), else `out` beside
/// the manifest the binary was built from.
fn out_dir() -> PathBuf {
    let from_root = PathBuf::from("benchmark");
    if from_root.join("Cargo.toml").is_file() {
        from_root.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Runs one workload and prints its record; returns whether every
/// operation was correct.
fn execute(ctx: &Ctx) -> bool {
    let mut tracer = Tracer::new(ctx.trace);
    let mut outcome: Outcome = workloads::run(ctx, &mut tracer);

    let attempted = outcome.attempted.max(1);
    let failed = outcome.failed.min(attempted);
    outcome
        .values
        .set("ok_share", (attempted - failed) as f64 / attempted as f64);
    // `VmHWM` at exit, unless the workload read it at a fixed point.
    if outcome.values.get("peak_rss_mb") == 0.0 {
        outcome
            .values
            .set("peak_rss_mb", procfs::peak_rss_mb().unwrap_or(0.0));
    }

    let mode = if ctx.trace { "trace" } else { "run" };
    let defs: &[MetricDef] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = first_line_of("rustc", &["-V"]);
    let commit = first_line_of("git", &["rev-parse", "--short", "HEAD"]);

    println!(
        "== tecore-e2e {mode} {} — seed {:#x}, {} s measured{}",
        ctx.workload.name,
        ctx.seed,
        ctx.seconds,
        if ctx.smoke {
            ", smoke scale (1/20)"
        } else {
            ""
        }
    );
    println!("nproc {nproc} | {rustc} | git {commit}");
    for (key, value) in &outcome.notes {
        println!("{key}: {value}");
    }
    println!(
        "operations {attempted} attempted, {failed} failed; op_p50_ms over {} samples",
        outcome.samples
    );
    for m in defs {
        println!(
            "{:<36} {:>16.6} {}",
            m.name,
            outcome.values.get(m.name),
            m.unit
        );
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }

    // The record on disk carries both tables' values that were set,
    // the environment, and — traced run — every span.
    let mut record = String::from("{");
    let _ = write!(
        record,
        "\"workload\": {}, \"mode\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \
         \"nproc\": {nproc}, \"rustc\": {}, \"git_commit\": {}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"samples\": {}",
        json_str(ctx.workload.name),
        json_str(mode),
        ctx.seed,
        json_num(ctx.seconds),
        ctx.smoke,
        json_str(&rustc),
        json_str(&commit),
        outcome.samples,
    );
    for (key, value) in &outcome.notes {
        let _ = write!(record, ", {}: {}", json_str(key), json_str(value));
    }
    let _ = write!(
        record,
        ", \"failures\": [{}]",
        outcome
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = write!(
        record,
        ", \"end_to_end\": {}, \"per_layer\": {}",
        metrics_json(&END_TO_END, &outcome.values),
        metrics_json(&PER_LAYER, &outcome.values)
    );
    if ctx.trace {
        let _ = write!(record, ", \"spans\": {}", tracer.to_json());
    }
    record.push_str("}\n");
    let path = ctx
        .out_dir
        .join(format!("{mode}-{}.json", ctx.workload.name));
    if let Err(e) =
        std::fs::create_dir_all(&ctx.out_dir).and_then(|()| std::fs::write(&path, record))
    {
        eprintln!("could not write {}: {e}", path.display());
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(defs, &outcome.values)
    );
    failed == 0
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tecore-e2e [run|trace] <workload> [--seed N] [--seconds S] [--smoke]\n\
         \x20      tecore-e2e --workload W --seed N --seconds S --trace 0|1\n\
         \x20      tecore-e2e run --smoke | agree [--runs 5]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tecore-e2e: {e}");
            return usage();
        }
    };
    match args.command.as_str() {
        "agree" => agree::run(&args),
        "run" | "trace" => {
            let trace = args.trace || args.command == "trace";
            let seed = args.seed.unwrap_or(metrics::DEFAULT_SEED);
            let chosen: Vec<&'static metrics::WorkloadDef> = match &args.workload {
                Some(name) => match metrics::workload(name) {
                    Some(w) => vec![w],
                    None => {
                        eprintln!("tecore-e2e: unknown workload {name:?}; the workloads are:");
                        for w in &WORKLOADS {
                            eprintln!("  {:<22} {}", w.name, w.why);
                        }
                        return ExitCode::from(2);
                    }
                },
                // Only the smoke run may share a process between workloads.
                None if args.smoke => WORKLOADS.iter().collect(),
                None => return usage(),
            };
            let seconds = args.seconds.unwrap_or(if args.smoke {
                1.0
            } else {
                metrics::RUN_SECONDS as f64
            });
            let mut all_correct = true;
            for workload in chosen {
                all_correct &= execute(&Ctx {
                    workload,
                    seed,
                    seconds,
                    trace,
                    smoke: args.smoke,
                    out_dir: out_dir(),
                });
            }
            // The driver reads correctness from the record; a smoke run
            // (tests) also wants it as the exit code.
            if args.smoke && !all_correct {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("0x7ec0_2017"), Some(metrics::DEFAULT_SEED));
        assert_eq!(parse_seed("0X5EED0014"), Some(0x5eed_0014));
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("forty-two"), None);
    }

    #[test]
    fn driver_form_and_subcommand_form_agree() {
        let driver = parse_args(&argv(&[
            "--workload",
            "serve_read_wd200k",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(driver.command, "run");
        assert_eq!(driver.workload.as_deref(), Some("serve_read_wd200k"));
        assert_eq!(
            (driver.seed, driver.seconds, driver.trace),
            (Some(7), Some(10.0), true)
        );

        let sub = parse_args(&argv(&["trace", "serve_read_wd200k", "--seed", "0x7"])).unwrap();
        assert_eq!(sub.command, "trace");
        assert_eq!(sub.workload.as_deref(), Some("serve_read_wd200k"));
        assert_eq!(sub.seed, Some(7));

        assert!(parse_args(&argv(&["run", "--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["run", "--trace", "2"])).is_err());
        assert!(parse_args(&argv(&["run", "--bogus"])).is_err());
    }
}
