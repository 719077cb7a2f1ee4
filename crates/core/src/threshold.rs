//! Thresholding of derived facts.
//!
//! "TeCoRe allows to set a threshold value and remove derived facts
//! below that" (paper §1). The threshold applies to *derived* facts
//! only — evidence facts are governed by MAP inference itself.

use std::sync::Arc;

use crate::resolution::InferredFact;

/// Does a derived fact of this confidence pass the threshold? A
/// threshold of `0.0` (or below) keeps everything.
pub fn passes(confidence: f64, threshold: f64) -> bool {
    threshold <= 0.0 || confidence >= threshold
}

/// Sweeps a set of thresholds and reports `(threshold, kept)` pairs —
/// the curve behind experiment E5.
pub fn sweep(inferred: &[Arc<InferredFact>], thresholds: &[f64]) -> Vec<(f64, usize)> {
    thresholds
        .iter()
        .map(|&t| {
            let kept = inferred.iter().filter(|f| f.confidence >= t).count();
            (t, kept)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tecore_temporal::Interval;

    fn fact(conf: f64) -> Arc<InferredFact> {
        Arc::new(InferredFact {
            subject: "s".into(),
            predicate: "p".into(),
            object: "o".into(),
            interval: Interval::new(1, 2).unwrap(),
            confidence: conf,
        })
    }

    #[test]
    fn zero_threshold_keeps_all() {
        assert!(passes(0.1, 0.0));
        assert!(passes(0.0, 0.0));
    }

    #[test]
    fn filters_below() {
        assert!(!passes(0.1, 0.5));
        assert!(passes(0.5, 0.5)); // inclusive
        assert!(passes(0.9, 0.5));
    }

    #[test]
    fn sweep_monotone_decreasing() {
        let facts = vec![fact(0.2), fact(0.4), fact(0.6), fact(0.8)];
        let curve = sweep(&facts, &[0.0, 0.3, 0.5, 0.7, 0.9]);
        assert_eq!(
            curve,
            vec![(0.0, 4), (0.3, 3), (0.5, 2), (0.7, 1), (0.9, 0)]
        );
        for w in curve.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
