//! Drives the built binary the way a user does: the six-workload smoke
//! run, one traced run, and the driver's flag form.

use std::process::Command;
use std::time::Instant;

const WORKLOADS: [&str; 6] = [
    "cold_cpi_fb243k",
    "cold_psl_fb243k",
    "cold_walksat_wd400k",
    "serve_read_wd200k",
    "serve_edit_wd100k",
    "stream_slide_w20k",
];

const END_TO_END: [&str; 7] = [
    "setup_s",
    "op_p50_ms",
    "throughput_per_s",
    "cpu_ms_per_op",
    "peak_rss_mb",
    "repair_f1",
    "ok_share",
];

fn e2e(args: &[&str]) -> (bool, String) {
    e2e_with(args, |_| {})
}

fn e2e_with(args: &[&str], tweak: impl FnOnce(&mut Command)) -> (bool, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_tecore-e2e"));
    command.args(args);
    tweak(&mut command);
    let output = command.output().expect("run the benchmark binary");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("utf-8 output"),
    )
}

/// `"name": {"value": <number>` from a record line.
fn value(record: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &record[record
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {record}"))
        + key.len()..];
    rest[..rest.find(',').expect("unit follows")]
        .parse()
        .expect("numeric value")
}

#[test]
fn smoke_run_covers_every_workload_and_every_end_to_end_metric() {
    let started = Instant::now();
    let (ok, stdout) = e2e(&["run", "--smoke"]);
    let elapsed = started.elapsed();
    assert!(ok, "smoke run failed:\n{stdout}");
    let records: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(records.len(), WORKLOADS.len(), "{stdout}");
    for (workload, record) in WORKLOADS.iter().zip(&records) {
        assert!(
            stdout.contains(&format!("== tecore-e2e run {workload} ")),
            "{workload} did not run"
        );
        assert!(record.contains("\"correct\": true"), "{workload}: {record}");
        for metric in END_TO_END {
            assert!(value(record, metric) > 0.0, "{workload}: {metric} is 0");
        }
        assert_eq!(value(record, "ok_share"), 1.0, "{workload}");
    }
    // Every record names its seed, machine, toolchain and sample count.
    for needle in [
        "seed 0x7ec02017",
        "nproc ",
        "rustc",
        "git ",
        "samples",
        "setup_reps: ",
        "cpu_pinning: every thread on cpu ",
    ] {
        assert!(stdout.contains(needle), "{needle:?} missing");
    }
    assert!(stdout.contains("wal_flush_policy: EveryN(64)"));
    // Under 20 s in a release build on the 2-core box it was sized on;
    // the dev-profile binary `cargo test` drives gets some slack.
    eprintln!("smoke run took {elapsed:?}");
    assert!(elapsed.as_secs() < 90, "smoke run took {elapsed:?}");
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_writes_its_spans() {
    let (ok, stdout) = e2e(&[
        "--workload",
        "stream_slide_w20k",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
    ]);
    assert!(ok, "{stdout}");
    let record = stdout.lines().last().expect("a record line");
    assert!(record.contains("\"correct\": true"), "{record}");
    for metric in [
        "datagen.generate_ms",
        "ground.delta_ms",
        "core.resolve_incr_ms",
        "stream.push_ns",
        "stream.fire_ms",
        "stream.admitted_per_fire",
        "mln.walksat_flips",
    ] {
        assert!(value(record, metric) > 0.0, "{metric} is 0: {record}");
    }
    // Metrics of other workloads' layers are printed too, as 0.
    assert_eq!(value(record, "psl.admm_iterations"), 0.0);
    assert!(record.contains("\"loadgen.trace_overhead_share\""));
    assert!(
        !record.contains("\"setup_s\""),
        "traced run prints per-layer only"
    );

    let trace = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/out/trace-stream_slide_w20k.json"
    ))
    .expect("the traced run wrote its record");
    for needle in [
        "\"spans\": [",
        "\"name\":\"ground.delta\"",
        "\"parent\":",
        "\"seed\": 7",
    ] {
        assert!(
            trace.contains(needle),
            "{needle:?} missing from the trace file"
        );
    }
}

/// The edit and stream workloads read `repair_f1` off a fixed operation
/// of the phase, so it does not depend on where the clock stops the run.
#[test]
fn repair_f1_repeats_exactly_for_a_seed() {
    for workload in ["serve_edit_wd100k", "stream_slide_w20k"] {
        let f1 = |seconds: &str, seed: &str| {
            let (ok, stdout) = e2e(&[
                "run",
                workload,
                "--smoke",
                "--seed",
                seed,
                "--seconds",
                seconds,
            ]);
            assert!(ok, "{stdout}");
            value(stdout.lines().last().expect("a record line"), "repair_f1")
        };
        let short = f1("0.2", "11");
        assert!(short > 0.0, "{workload}");
        assert_eq!(short, f1("0.6", "11"), "{workload}: same seed, longer run");
        assert_ne!(short, f1("0.2", "12"), "{workload}: another seed");
    }
}

/// Without `taskset` the read workload would measure another regime
/// (round trips across two CPUs); such a run is reported as incorrect.
#[test]
fn an_unpinned_read_run_is_counted_as_failed() {
    let (ok, stdout) = e2e_with(
        &["run", "serve_read_wd200k", "--smoke", "--seconds", "0.2"],
        |command| {
            command.env("PATH", "");
        },
    );
    assert!(!ok, "a smoke run exits non-zero when an operation failed");
    assert!(stdout.contains("FAILED cpu pinning"), "{stdout}");
    let record = stdout.lines().last().expect("a record line");
    assert!(record.contains("\"correct\": false"), "{record}");
    assert!(value(record, "ok_share") < 1.0);
}

#[test]
fn bad_invocations_exit_non_zero_without_a_record() {
    for args in [
        &["run", "no_such_workload"][..],
        &["--workload", "cold_cpi_fb243k", "--seconds", "0"][..],
        &["run"][..],
    ] {
        let (ok, stdout) = e2e(args);
        assert!(!ok, "{args:?} should fail");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a record");
    }
}
