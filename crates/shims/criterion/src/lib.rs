//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no registry access, so this crate provides
//! the subset of the criterion API the workspace's benches use
//! (`Criterion`, benchmark groups, `BenchmarkId`, `Throughput`, the
//! `criterion_group!`/`criterion_main!` macros) as a plain wall-clock
//! runner. Each benchmark is warmed up once, then sampled `sample_size`
//! times; the **median ± standard deviation** plus min and max
//! per-iteration times are printed, and a throughput rate when one was
//! declared.
//!
//! Besides the human-readable stdout lines, every bench binary writes a
//! machine-readable report `BENCH_<binary>.json` (into
//! `TECORE_BENCH_DIR`, or the current directory when unset) with
//! per-benchmark `median_ns`/`min_ns`/`max_ns`/`stddev_ns`, so the perf
//! trajectory can be tracked across commits by tooling instead of by
//! eye.
//!
//! There is no outlier rejection or HTML report. Benches register with
//! `harness = false` in their crate manifest, exactly as with the real
//! criterion.
//!
//! A benchmark filter can be passed on the command line (`cargo bench --
//! <substring>`); non-matching benchmarks are skipped.

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-iteration timing of one benchmark.
#[derive(Debug, Clone, Copy)]
struct Sampled {
    median: Duration,
    stddev: Duration,
    min: Duration,
    max: Duration,
    samples: usize,
}

/// One finished benchmark, queued for the JSON report.
#[derive(Debug, Clone)]
struct Record {
    name: String,
    sampled: Sampled,
}

/// Results accumulated across every group of the bench binary.
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// The benchmark driver.
pub struct Criterion {
    filter: Option<String>,
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- <filter>` forwards everything after `--`;
        // criterion-style flags we don't implement are ignored.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && !a.is_empty());
        Criterion {
            filter,
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = id.to_string();
        run_one(
            &name,
            self.filter.as_deref(),
            self.default_sample_size,
            None,
            &mut f,
        );
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Declares the work per iteration, enabling a rate column.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs a benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = format!("{}/{}", self.name, id);
        run_one(
            &name,
            self.criterion.filter.as_deref(),
            self.sample_size
                .unwrap_or(self.criterion.default_sample_size),
            self.throughput,
            &mut f,
        );
        self
    }

    /// Runs a benchmark that borrows a prepared input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (a no-op; provided for API compatibility).
    pub fn finish(self) {}
}

/// Times the closure under test.
pub struct Bencher {
    result: Option<Sampled>,
    sample_size: usize,
}

impl Bencher {
    /// Runs `f` once for warm-up, then `sample_size` timed iterations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        let mut samples: Vec<Duration> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(f());
            samples.push(start.elapsed());
        }
        self.result = Some(summarise(&mut samples));
    }
}

/// Median / stddev / min / max over the raw samples.
fn summarise(samples: &mut [Duration]) -> Sampled {
    samples.sort_unstable();
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2
    };
    let mean_ns = samples.iter().map(Duration::as_nanos).sum::<u128>() as f64 / n as f64;
    let stddev_ns = if n > 1 {
        let var = samples
            .iter()
            .map(|s| {
                let d = s.as_nanos() as f64 - mean_ns;
                d * d
            })
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    } else {
        0.0
    };
    Sampled {
        median,
        stddev: Duration::from_nanos(stddev_ns as u64),
        min: samples[0],
        max: samples[n - 1],
        samples: n,
    }
}

/// Is the CI smoke mode active? `TECORE_BENCH_SMOKE=1` caps every
/// benchmark at a single timed iteration: the point is to keep bench
/// code compiling and running (and the `BENCH_*.json` schema stable)
/// on every commit, not to produce meaningful numbers there.
fn smoke_mode() -> bool {
    static SMOKE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SMOKE.get_or_init(|| {
        std::env::var("TECORE_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

fn run_one<F: FnMut(&mut Bencher)>(
    name: &str,
    filter: Option<&str>,
    sample_size: usize,
    throughput: Option<Throughput>,
    f: &mut F,
) {
    if let Some(pat) = filter {
        if !name.contains(pat) {
            return;
        }
    }
    let sample_size = if smoke_mode() { 1 } else { sample_size };
    let mut bencher = Bencher {
        result: None,
        sample_size,
    };
    f(&mut bencher);
    match bencher.result {
        Some(s) => {
            let rate = throughput.map(|t| t.rate(s.median)).unwrap_or_default();
            println!(
                "bench: {name:<56} median {:>12?} ± {:>10?}  min {:>12?}  max {:>12?}  ({} samples){rate}",
                s.median, s.stddev, s.min, s.max, s.samples
            );
            RECORDS.lock().expect("bench record lock").push(Record {
                name: name.to_string(),
                sampled: s,
            });
        }
        None => println!("bench: {name:<56} (no iterations recorded)"),
    }
}

/// Writes the accumulated results as `BENCH_<binary>.json` (called by
/// [`criterion_main!`] after every group has run).
///
/// The target directory is `TECORE_BENCH_DIR` when set, else the
/// current directory. The format is intentionally flat:
///
/// ```json
/// {"bench": "map_footballdb", "results": [
///   {"name": "...", "median_ns": 1, "min_ns": 1, "max_ns": 1,
///    "stddev_ns": 0, "samples": 20}
/// ]}
/// ```
pub fn write_json_report() {
    let records = RECORDS.lock().expect("bench record lock");
    if records.is_empty() {
        return;
    }
    let binary = std::env::args()
        .next()
        .map(|arg0| {
            let stem = std::path::Path::new(&arg0)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "bench".to_string());
            // cargo names bench binaries `<name>-<16-hex-hash>`.
            match stem.rsplit_once('-') {
                Some((base, hash))
                    if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
                {
                    base.to_string()
                }
                _ => stem,
            }
        })
        .unwrap_or_else(|| "bench".to_string());
    let dir = std::env::var("TECORE_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{binary}.json"));

    let mut json = String::new();
    json.push_str(&format!(
        "{{\"bench\": \"{}\", \"results\": [\n",
        escape(&binary)
    ));
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let s = r.sampled;
        json.push_str(&format!(
            "  {{\"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
             \"stddev_ns\": {}, \"samples\": {}}}",
            escape(&r.name),
            s.median.as_nanos(),
            s.min.as_nanos(),
            s.max.as_nanos(),
            s.stddev.as_nanos(),
            s.samples
        ));
    }
    json.push_str("\n]}\n");
    match std::fs::write(&path, json) {
        Ok(()) => println!("bench report: {}", path.display()),
        Err(e) => eprintln!("bench report: failed to write {}: {e}", path.display()),
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Work performed per iteration, for rate reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Logical elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

impl Throughput {
    fn rate(self, median: Duration) -> String {
        let secs = median.as_secs_f64().max(1e-12);
        match self {
            Throughput::Elements(n) => format!("  {:.0} elem/s", n as f64 / secs),
            Throughput::Bytes(n) => format!("  {:.0} B/s", n as f64 / secs),
        }
    }
}

/// A benchmark identifier combining a function name and a parameter.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// `<name>/<parameter>`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            text: format!("{name}/{parameter}"),
        }
    }

    /// Just the parameter (the group supplies the name).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Re-export for benches that take `black_box` from criterion rather
/// than `std::hint`.
pub use std::hint::black_box;

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's entry point; writes the
/// machine-readable `BENCH_<binary>.json` report once all groups ran.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_json_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_samples() {
        let mut c = Criterion {
            filter: None,
            default_sample_size: 3,
        };
        let mut runs = 0u32;
        c.bench_function("smoke", |b| b.iter(|| runs += 1));
        // 1 warm-up + 3 samples.
        assert_eq!(runs, 4);
    }

    #[test]
    fn group_settings_and_ids() {
        let mut c = Criterion {
            filter: Some("match-me".into()),
            default_sample_size: 3,
        };
        let mut group = c.benchmark_group("g");
        group.sample_size(2).throughput(Throughput::Elements(10));
        let mut hits = 0u32;
        group.bench_with_input(BenchmarkId::new("match-me", 7), &5u64, |b, &x| {
            b.iter(|| hits += x as u32)
        });
        group.bench_function(BenchmarkId::from_parameter("skipped"), |b| {
            b.iter(|| hits += 1000)
        });
        group.finish();
        // Filtered-in bench: warm-up + 2 samples of +5; the second bench
        // doesn't match the filter and never runs.
        assert_eq!(hits, 15);
    }

    #[test]
    fn summary_statistics() {
        let mut samples: Vec<Duration> = [40u64, 10, 20, 30]
            .iter()
            .map(|&n| Duration::from_nanos(n))
            .collect();
        let s = summarise(&mut samples);
        assert_eq!(s.median, Duration::from_nanos(25));
        assert_eq!(s.min, Duration::from_nanos(10));
        assert_eq!(s.max, Duration::from_nanos(40));
        assert_eq!(s.samples, 4);
        // stddev of {10,20,30,40} (sample) ≈ 12.9 ns.
        let sd = s.stddev.as_nanos();
        assert!((12..=13).contains(&sd), "stddev {sd}");
    }

    #[test]
    fn json_report_written() {
        let dir = std::env::temp_dir().join("tecore_bench_shim_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("TECORE_BENCH_DIR", &dir);
        let mut c = Criterion {
            filter: None,
            default_sample_size: 2,
        };
        c.bench_function("json-smoke", |b| b.iter(|| 1 + 1));
        write_json_report();
        std::env::remove_var("TECORE_BENCH_DIR");
        let report = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().starts_with("BENCH_"))
            .expect("report file written");
        let text = std::fs::read_to_string(report.path()).unwrap();
        assert!(text.contains("\"json-smoke\""), "{text}");
        assert!(text.contains("median_ns"), "{text}");
        assert!(text.contains("stddev_ns"), "{text}");
        std::fs::remove_file(report.path()).ok();
    }

    #[test]
    fn escape_handles_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
