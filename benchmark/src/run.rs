//! The run protocol every workload shares: repeated, timed set-ups; a
//! discarded warm-up of a fixed number of operations; a measured phase
//! that lasts `--seconds`; and the reduction of what it recorded to the
//! seven end-to-end metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tecore_core::{Snapshot, SolverRegistry, TecoreConfig};
use tecore_datagen::{repair_metrics, GeneratedKg};
use tecore_kg::{FactId, UtkGraph};

use crate::hostspeed;
use crate::metrics::{Values, WorkloadDef};
use crate::procfs;
use crate::stats::{median, percentile, segment_median_rate, Mark};
use crate::trace::Tracer;

/// Timed repetitions of the set-up (after one discarded repetition): at
/// least [`SETUP_REPS_MIN`], then more while fewer than
/// [`SETUP_REPS_MAX`] have run and they have used less than
/// [`SETUP_BUDGET`] — a 0.1 s set-up is timed 15 times, a 0.8 s one 5.
pub const SETUP_REPS_MIN: usize = 5;
/// See [`SETUP_REPS_MIN`].
pub const SETUP_REPS_MAX: usize = 15;
/// See [`SETUP_REPS_MIN`].
pub const SETUP_BUDGET: Duration = Duration::from_millis(3_000);

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload to run.
    pub workload: &'static WorkloadDef,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or end-to-end run?
    pub trace: bool,
    /// 1/20-scale inputs, for tests.
    pub smoke: bool,
    /// Where records, traces and WAL directories go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A full-scale size, divided by 20 in a smoke run.
    pub fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

/// Engine configuration for one of the registered backends.
pub fn engine_config(backend: &str) -> TecoreConfig {
    TecoreConfig {
        backend: SolverRegistry::with_default_backends()
            .resolve(backend)
            .expect("the four seed backends are always registered"),
        ..TecoreConfig::default()
    }
}

/// What a workload hands back: metric values plus the correctness tally.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, and per-layer metrics in a traced run.
    pub values: Values,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that errored or failed the workload's oracle.
    pub failed: u64,
    /// The first few failures, offending operation included.
    pub failures: Vec<String>,
    /// Samples behind `op_p50_ms`.
    pub samples: u64,
    /// Extra `key: value` facts for the record (WAL directory, …).
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one failed operation, keeping the first few for printing.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// What [`timed_setups`] measured.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Median set-up time as the clock read it, seconds.
    pub raw_s: f64,
    /// Timed repetitions.
    pub reps: usize,
    /// Scale to the nominal host speed (see [`hostspeed`]).
    pub host_factor: f64,
}

/// Runs `build` once discarded and then timed (see [`SETUP_REPS_MIN`]
/// for how often), tearing every product but the last down with
/// `teardown` and taking a host-speed reference after each, both
/// outside the timer. `build` is handed the repetition's number.
/// Returns the last product and the times.
pub fn timed_setups<T>(
    tracer: &mut Tracer,
    mut build: impl FnMut(usize, &mut Tracer) -> T,
    mut teardown: impl FnMut(T),
) -> (T, SetupTimes) {
    let mut times = Vec::with_capacity(SETUP_REPS_MAX);
    let mut references = Vec::with_capacity(SETUP_REPS_MAX);
    let mut spent = Duration::ZERO;
    let mut last: Option<T> = None;
    for rep in 0..=SETUP_REPS_MAX {
        if rep > SETUP_REPS_MIN && spent >= SETUP_BUDGET {
            break;
        }
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        let id = tracer.enter("setup");
        let product = build(rep, tracer);
        tracer.exit(id);
        if rep > 0 {
            let took = t0.elapsed();
            spent += took;
            times.push(took.as_secs_f64());
            references.push(hostspeed::reference_ms());
        }
        last = Some(product);
    }
    (
        last.expect("at least one repetition ran"),
        SetupTimes {
            raw_s: median(&times),
            reps: times.len(),
            host_factor: hostspeed::factor(&references),
        },
    )
}

/// Recorder of the measured phase.
#[derive(Debug)]
pub struct Phase {
    origin: Instant,
    cpu0: Option<Duration>,
    length: Duration,
    min_ops: usize,
    /// Wall and CPU time spent in [`Phase::outside`].
    excluded: Duration,
    excluded_cpu: Duration,
    durs_ms: Vec<f64>,
    marks: Vec<Mark>,
    units: u64,
    /// Host-speed references, one every [`hostspeed::EVERY`].
    references: Vec<f64>,
    last_reference: Instant,
    /// The workload takes the references itself.
    by_hand: bool,
}

/// The measured phase reduced to numbers, as the clocks read them.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSummary {
    /// Median operation latency.
    pub op_p50_ms: f64,
    /// 99th percentile operation latency.
    pub op_p99_ms: f64,
    /// Slowest operation.
    pub op_max_ms: f64,
    /// Median units/s over five segments.
    pub throughput_per_s: f64,
    /// Process CPU time per operation.
    pub cpu_ms_per_op: f64,
    /// Operations recorded.
    pub samples: u64,
    /// Scale to the nominal host speed (see [`hostspeed`]).
    pub host_factor: f64,
    /// Median host-speed reference, ms.
    pub reference_ms: f64,
}

impl Phase {
    /// Starts the measured phase: it lasts `seconds`, and longer if it
    /// takes longer to measure `min_ops` operations (at least 5, so
    /// every throughput segment has one) — whatever a workload reads
    /// off a fixed operation of the phase is then always there.
    pub fn begin(seconds: f64, min_ops: usize) -> Self {
        let now = Instant::now();
        Phase {
            references: Vec::new(),
            // The first operation is followed by the first reference.
            last_reference: now.checked_sub(hostspeed::EVERY).unwrap_or(now),
            by_hand: false,
            origin: now,
            cpu0: procfs::cpu_time(),
            length: Duration::from_secs_f64(seconds),
            min_ops: min_ops.max(5),
            excluded: Duration::ZERO,
            excluded_cpu: Duration::ZERO,
            durs_ms: Vec::with_capacity(1 << 16),
            marks: vec![Mark { units: 0, t_ns: 0 }],
            units: 0,
        }
    }

    /// For a workload whose other threads would share the CPUs with a
    /// reference taken between two operations: [`Phase::record`] takes
    /// none, the workload hands in ones it took with those threads at
    /// rest ([`Phase::add_reference`]).
    pub fn references_by_hand(mut self) -> Self {
        self.by_hand = true;
        self
    }

    /// Adds a host-speed reference taken outside the phase.
    pub fn add_reference(&mut self, ms: f64) {
        self.references.push(ms);
    }

    /// Is there time left?
    pub fn running(&self) -> bool {
        self.durs_ms.len() < self.min_ops
            || self.origin.elapsed().saturating_sub(self.excluded) < self.length
    }

    /// Runs load-generator or oracle work between two operations with
    /// the phase's wall and CPU clocks stopped, so that it shows in
    /// neither `throughput_per_s` nor `cpu_ms_per_op`.
    pub fn outside<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let (t0, cpu0) = (Instant::now(), procfs::cpu_time());
        let result = work();
        self.excluded += t0.elapsed();
        if let (Some(a), Some(b)) = (cpu0, procfs::cpu_time()) {
            self.excluded_cpu += b.saturating_sub(a);
        }
        result
    }

    /// Records an operation that began at `start`, ends now, and
    /// completed `units` of work. Returns its latency in ms.
    pub fn record(&mut self, start: Instant, units: u64) -> f64 {
        let now = Instant::now();
        let ms = (now - start).as_secs_f64() * 1e3;
        self.durs_ms.push(ms);
        self.units += units;
        self.marks.push(Mark {
            units: self.units,
            t_ns: (now - self.origin).saturating_sub(self.excluded).as_nanos() as u64,
        });
        if !self.by_hand && now - self.last_reference >= hostspeed::EVERY {
            let reference = self.outside(hostspeed::reference_ms);
            self.references.push(reference);
            self.last_reference = Instant::now();
        }
        ms
    }

    /// Operations recorded so far.
    pub fn ops(&self) -> usize {
        self.durs_ms.len()
    }

    /// Latencies recorded so far, ms.
    pub fn durs_ms(&self) -> &[f64] {
        &self.durs_ms
    }

    /// Ends the phase.
    pub fn finish(self) -> PhaseSummary {
        let cpu_ms = match (self.cpu0, procfs::cpu_time()) {
            (Some(a), Some(b)) => {
                b.saturating_sub(a)
                    .saturating_sub(self.excluded_cpu)
                    .as_secs_f64()
                    * 1e3
            }
            _ => 0.0,
        };
        let n = self.durs_ms.len().max(1) as f64;
        PhaseSummary {
            op_p50_ms: median(&self.durs_ms),
            op_p99_ms: percentile(&self.durs_ms, 99.0),
            op_max_ms: percentile(&self.durs_ms, 100.0),
            throughput_per_s: segment_median_rate(&self.marks),
            cpu_ms_per_op: cpu_ms / n,
            samples: self.durs_ms.len() as u64,
            host_factor: hostspeed::factor(&self.references),
            reference_ms: median(&self.references),
        }
    }
}

/// Writes the phase summary, set-up time and correctness tally into the
/// outcome — the part of the record every workload shares. Timings go in
/// at the nominal host speed; the record keeps what the clocks read.
pub fn fill_end_to_end(
    out: &mut Outcome,
    setup: &SetupTimes,
    phase: &PhaseSummary,
    repair_f1: f64,
) {
    let f = phase.host_factor;
    out.samples = phase.samples;
    out.values.set("setup_s", setup.raw_s * setup.host_factor);
    out.values.set("op_p50_ms", phase.op_p50_ms * f);
    out.values
        .set("throughput_per_s", phase.throughput_per_s / f);
    out.values.set("cpu_ms_per_op", phase.cpu_ms_per_op * f);
    out.values.set("repair_f1", repair_f1);
    out.values.set("op_p99_ms", phase.op_p99_ms * f);
    out.values.set("op_max_ms", phase.op_max_ms * f);
    out.values
        .set("loadgen.host_reference_ms", phase.reference_ms);
    out.notes.push(("setup_reps", setup.reps.to_string()));
    out.notes.push((
        "host_speed",
        format!(
            "reference {:.3} ms in the phase (nominal {}), timings x{f:.4}, set-up x{:.4}",
            phase.reference_ms,
            hostspeed::NOMINAL_MS,
            setup.host_factor
        ),
    ));
    out.notes.push((
        "raw",
        format!(
            "setup_s={} op_p50_ms={} throughput_per_s={} cpu_ms_per_op={}",
            setup.raw_s, phase.op_p50_ms, phase.throughput_per_s, phase.cpu_ms_per_op
        ),
    ));
}

/// `tecore_datagen::repair_metrics` F1 of `removed` against noise labels
/// indexed by fact id.
pub fn f1_of(labels: Vec<bool>, removed: &[FactId]) -> f64 {
    let noisy = labels.iter().filter(|&&b| b).count();
    let truth = GeneratedKg {
        graph: UtkGraph::new(),
        correct_facts: labels.len() - noisy,
        noisy_facts: noisy,
        labels,
    };
    repair_metrics(&truth, removed).f1()
}

/// F1 of a snapshot's removed facts against noise labels indexed by
/// engine fact id.
pub fn repair_f1(labels: &[bool], snapshot: &Snapshot) -> f64 {
    let removed: Vec<FactId> = snapshot.removed.iter().map(|r| r.id).collect();
    f1_of(labels.to_vec(), &removed)
}

/// `loadgen.trace_overhead_share`: how much slower the traced half of a
/// traced run's operations was than the untraced half, as a share.
pub fn set_trace_overhead(out: &mut Outcome, plain: &[f64], traced: &[f64]) {
    let plain = median(plain);
    if plain > 0.0 {
        out.values.set(
            "loadgen.trace_overhead_share",
            (median(traced) - plain) / plain,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_discard_the_first_and_tear_down_all_but_the_last() {
        // Instant set-ups never use up the budget: the maximum runs.
        let mut torn = Vec::new();
        let mut tracer = Tracer::new(true);
        let (last, times) = timed_setups(&mut tracer, |rep, _| rep, |n| torn.push(n));
        assert_eq!((last, times.reps), (SETUP_REPS_MAX, SETUP_REPS_MAX));
        assert_eq!(torn, (0..SETUP_REPS_MAX).collect::<Vec<_>>());
        assert!(times.raw_s >= 0.0 && times.host_factor > 0.0);
        assert_eq!(tracer.durations_ms("setup").len(), SETUP_REPS_MAX + 1);
    }

    #[test]
    fn slow_setups_stop_at_the_minimum() {
        let slow = SETUP_BUDGET / SETUP_REPS_MIN as u32 + Duration::from_millis(1);
        let mut tracer = Tracer::new(false);
        let (_, times) = timed_setups(&mut tracer, |_, _| std::thread::sleep(slow), drop);
        assert_eq!(times.reps, SETUP_REPS_MIN);
        assert!(times.raw_s >= slow.as_secs_f64());
    }

    #[test]
    fn phase_measures_at_least_the_asked_operations() {
        for (min_ops, expected) in [(0, 5), (9, 9)] {
            let mut phase = Phase::begin(0.0, min_ops);
            let mut ops = 0;
            while phase.running() {
                phase.record(Instant::now(), 3);
                ops += 1;
            }
            assert_eq!(ops, expected);
            let s = phase.finish();
            assert_eq!(s.samples, expected as u64);
            assert!(s.throughput_per_s > 0.0);
        }
    }

    #[test]
    fn time_outside_the_phase_is_in_no_clock() {
        let mut phase = Phase::begin(0.05, 0);
        let pause = Duration::from_millis(200);
        assert_eq!(phase.outside(|| std::thread::sleep(pause)), ());
        assert!(phase.running(), "the pause used up none of the 50 ms");
        phase.record(Instant::now(), 1);
        let mark = phase.marks.last().expect("one operation recorded");
        assert!(Duration::from_nanos(mark.t_ns) < pause);
    }
}
