//! The host's speed, measured beside the work it distorts.
//!
//! The benchmark runs on small shared virtual machines whose speed
//! wanders by a quarter over seconds to minutes (other tenants' memory
//! traffic, mostly): the median latency of one ten-second phase repeats
//! no better than ±10–20 % from run to run, whatever statistic is taken
//! inside the phase. What does repeat is the *ratio* of the engine's
//! time to the time of a fixed piece of work done in the same seconds.
//! So every half second of a measured phase, and after every timed
//! set-up, the benchmark runs the reference below, outside its clocks,
//! and reports its timings as if the reference had taken
//! [`NOMINAL_MS`] throughout: `time × NOMINAL_MS / median reference`.
//! The raw values and the reference are printed beside them. (Where a
//! server's threads would share the CPUs with it, the workload first
//! lets them come to rest: `Phase::references_by_hand`.)
//!
//! The reference is std only and owned by the benchmark, so no change
//! to the engine moves it: inserting generated keys and rendered terms
//! into a hash map and sorting them — allocation, hashing, pointer
//! chasing and comparison over a few megabytes, the engine's own diet.
//! A reference that only computes (an xorshift loop in cache) did not
//! follow the engine's slow-downs at all; this one tracked ten-second
//! medians of a cold `resolve` to within 2 % while they moved by 38 %.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Entries one reference inserts, renders and sorts.
const ENTRIES: u64 = 100_000;

/// What one reference takes on the quiet 2-vCPU box the benchmark was
/// sized on; timings are reported at this speed.
pub const NOMINAL_MS: f64 = 20.0;

/// A measured phase runs a reference this often.
pub const EVERY: Duration = Duration::from_millis(500);

/// Runs the reference once; returns how long it took, in ms.
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    // A fixed hasher: the same table layout, hence the same work, in
    // every process.
    let mut terms: HashMap<u64, String, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut key = 0x2545_f491_4f6c_dd1d_u64;
    for i in 0..ENTRIES {
        key ^= key << 13;
        key ^= key >> 7;
        key ^= key << 17;
        terms.insert(key, format!("Q{i}"));
    }
    let mut rows: Vec<(&u64, &String)> = terms.iter().collect();
    rows.sort_unstable();
    std::hint::black_box(rows.last());
    t0.elapsed().as_secs_f64() * 1e3
}

/// What to multiply a raw time by, given the references taken beside it.
pub fn factor(reference_ms: &[f64]) -> f64 {
    let reference = median(reference_ms);
    if reference > 0.0 {
        NOMINAL_MS / reference
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_times_down_and_no_sample_scales_nothing() {
        assert_eq!(factor(&[]), 1.0);
        assert_eq!(factor(&[NOMINAL_MS]), 1.0);
        assert_eq!(factor(&[2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS, 9.0]), 0.5);
        assert!(reference_ms() > 0.0);
    }
}
