//! Order statistics the run protocol is built on: medians of repeated
//! set-ups, latency percentiles, and per-segment throughput.

/// The `p`-th percentile (`0..=100`) of `values` by nearest rank on the
/// sorted sample. `0.0` on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median, averaging the two middle values of an even sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One progress mark of the measured phase: `units` of work (facts
/// resolved, requests answered, edits visible, events ingested) were
/// complete at `t_ns` nanoseconds after the phase began.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    /// Cumulative units of work done.
    pub units: u64,
    /// Nanoseconds since the measured phase began.
    pub t_ns: u64,
}

/// Throughput (units per second) of `segments` contiguous segments of
/// the measured phase, cut at the marks closest to equal mark counts.
/// `marks` must start with the phase origin (`units = 0, t_ns = 0`).
/// Fewer marks than segments yields one rate per gap.
pub fn segment_rates(marks: &[Mark], segments: usize) -> Vec<f64> {
    if marks.len() < 2 || segments == 0 {
        return Vec::new();
    }
    let gaps = marks.len() - 1;
    let segments = segments.min(gaps);
    let mut rates = Vec::with_capacity(segments);
    for s in 0..segments {
        let a = marks[s * gaps / segments];
        let b = marks[(s + 1) * gaps / segments];
        let secs = (b.t_ns - a.t_ns) as f64 / 1e9;
        if secs > 0.0 {
            rates.push((b.units - a.units) as f64 / secs);
        }
    }
    rates
}

/// Median throughput over five segments — the `throughput_per_s` rule.
pub fn segment_median_rate(marks: &[Mark]) -> f64 {
    median(&segment_rates(marks, 5))
}

/// Inter-quartile range over the median, with the quartiles taken as
/// Python's `statistics.quantiles(values, n=4)` takes them (exclusive
/// method) — the spread the benchmark's acceptance is judged by.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 99.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn marks(points: &[(u64, u64)]) -> Vec<Mark> {
        points
            .iter()
            .map(|&(units, t_ns)| Mark { units, t_ns })
            .collect()
    }

    #[test]
    fn segment_median_ignores_one_stalled_segment() {
        // Ten operations of one unit each; the fourth takes ten times
        // as long. Four of five segments run at 1 unit/ms.
        let mut points = vec![(0, 0)];
        let mut t = 0;
        for i in 1..=10u64 {
            t += if i == 4 { 10_000_000 } else { 1_000_000 };
            points.push((i, t));
        }
        let rates = segment_rates(&marks(&points), 5);
        assert_eq!(rates.len(), 5);
        assert!((segment_median_rate(&marks(&points)) - 1000.0).abs() < 1e-6);
        assert!(rates[1] < 200.0, "the stalled segment is slower: {rates:?}");
    }

    #[test]
    fn segments_cover_uneven_counts_and_short_samples() {
        // 7 gaps into 5 segments: sizes differ by at most one.
        let points: Vec<(u64, u64)> = (0..=7).map(|i| (i * 3, i * 1_000_000_000)).collect();
        let rates = segment_rates(&marks(&points), 5);
        assert_eq!(rates.len(), 5);
        assert!(rates.iter().all(|r| (r - 3.0).abs() < 1e-9));
        // Fewer gaps than segments: one rate per gap.
        assert_eq!(
            segment_rates(&marks(&[(0, 0), (4, 2_000_000_000)]), 5),
            [2.0]
        );
        assert!(segment_rates(&marks(&[(0, 0)]), 5).is_empty());
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), 0.0);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
