//! Generator configurations.
//!
//! Configs are plain data; (de)serialization support is intentionally
//! omitted because the build environment has no registry access for
//! `serde` (configs round-trip through their `Debug` form in tooling).

/// Configuration of the FootballDB-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct FootballConfig {
    /// Number of players.
    pub players: usize,
    /// Fraction of players who also have `coach` spells.
    pub coach_fraction: f64,
    /// Erroneous facts per correct fact (`1.0` = the paper's "as many
    /// erroneous facts as the correct ones").
    pub noise_ratio: f64,
    /// RNG seed — generation is fully deterministic given the config.
    pub seed: u64,
    /// Last observed year (`birthDate` intervals end here, careers are
    /// clipped to it). The paper's data ends in 2017.
    pub observation_end: i64,
}

impl Default for FootballConfig {
    fn default() -> Self {
        FootballConfig {
            players: 2_000,
            coach_fraction: 0.12,
            noise_ratio: 0.25,
            seed: 0xF007_BA11,
            observation_end: 2017,
        }
    }
}

impl FootballConfig {
    /// Average facts per player produced by the generator (one birth
    /// date, ~3 playing spells, coach spells for a fraction of
    /// players). Used to size configs from a target fact count.
    pub const FACTS_PER_PLAYER: f64 = 4.02;

    /// Sizes the generator to approximately `total_facts` facts
    /// (correct + noisy) at the given noise ratio.
    pub fn with_target_facts(total_facts: usize, noise_ratio: f64, seed: u64) -> Self {
        let correct = total_facts as f64 / (1.0 + noise_ratio);
        let players = (correct / Self::FACTS_PER_PLAYER).round().max(1.0) as usize;
        FootballConfig {
            players,
            noise_ratio,
            seed,
            ..FootballConfig::default()
        }
    }

    /// The configuration calibrated to the paper's Figure 8 screen:
    /// a uTKG of ≈243,157 temporal facts with ≈8.1% conflicting facts
    /// (19,734 reported).
    pub fn paper_scale() -> Self {
        // conflicting/total = 19734/243157 ≈ 0.08115
        // noise/(correct+noise) = 0.08115 → ratio ≈ 0.0883.
        FootballConfig::with_target_facts(243_157, 0.0883, 0x7ec0_2017)
    }
}

/// Configuration of the Wikidata-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WikidataConfig {
    /// Total number of temporal facts to generate (correct + noisy).
    pub total_facts: usize,
    /// Erroneous facts per correct fact.
    pub noise_ratio: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WikidataConfig {
    fn default() -> Self {
        WikidataConfig {
            total_facts: 100_000,
            noise_ratio: 0.1,
            seed: 0x1D47A_u64,
        }
    }
}

impl WikidataConfig {
    /// The full-scale slice of the paper (6.3M facts). Heavy: intended
    /// for the scaling example, not for unit tests.
    pub fn paper_scale() -> Self {
        WikidataConfig {
            total_facts: 6_300_000,
            ..WikidataConfig::default()
        }
    }

    /// Relation mix of the paper (§4), normalised to fractions of the
    /// total: `playsFor` dominates with >4M of 6.3M facts; the listed
    /// long-tail relations keep their relative sizes; the remainder is
    /// spread over generic relations.
    pub const RELATION_MIX: [(&'static str, f64); 5] = [
        ("playsFor", 0.635),     // > 4M
        ("memberOf", 0.00365),   // > 23K
        ("spouse", 0.00317),     // > 20K
        ("educatedAt", 0.00095), // > 6K
        ("occupation", 0.00071), // > 4.5K
    ];
}

/// Configuration of the timestamped event-stream generator
/// (see [`crate::stream::generate_stream`]).
///
/// The generator emits `playsFor` assertion events over the
/// Wikidata-like entity universe in **arrival order**, with event
/// times running behind arrival by a bounded random jitter — the
/// realistic "slightly out-of-order" stream that exercises watermark
/// lateness. A configurable fraction of events is re-emitted verbatim
/// (duplicates) and another fraction is crafted to overlap an earlier
/// spell of the same person (conflicts for the disjointness
/// constraint).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Total events to emit (including duplicates and conflicts).
    pub events: usize,
    /// Size of the person universe (`Q0` … `Q{people-1}`).
    pub people: usize,
    /// Size of the club universe (`Team0` … `Team{clubs-1}`).
    pub clubs: usize,
    /// Mean events per event-time unit (the arrival clock advances by
    /// ~`1/rate` per event).
    pub rate: f64,
    /// Maximum out-of-order displacement: each event's time lags the
    /// arrival clock by a uniform draw from `0..=jitter`.
    pub jitter: i64,
    /// Fraction of events that are exact re-emissions of an earlier
    /// event (stream duplicates).
    pub duplicate_ratio: f64,
    /// Fraction of events whose validity interval overlaps an earlier
    /// spell of the same person with a different club — conflicts
    /// under the paper's disjointness constraint.
    pub conflict_ratio: f64,
    /// Event time of the first arrival.
    pub start_time: i64,
    /// RNG seed — generation is fully deterministic given the config.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            events: 10_000,
            people: 500,
            clubs: 50,
            rate: 10.0,
            jitter: 3,
            duplicate_ratio: 0.02,
            conflict_ratio: 0.10,
            start_time: 0,
            seed: 0x0057_AEA4,
        }
    }
}

/// Configuration of the skewed-predicate generator — a join-planning
/// stress workload whose per-predicate fact counts follow a Zipf
/// distribution (`weight(rank) = 1 / rank^skew`).
///
/// The resulting graph is pathological for joining in source order:
/// one predicate holds most of the facts while the tail predicates are
/// tiny, so a body written "big atom first" enumerates the dominant
/// predicate even though starting from a tail atom would bound the
/// search immediately. The grounder's join-order rule reads the
/// imbalance off the length of each predicate's atom list and
/// reorders.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewedConfig {
    /// Total number of temporal facts to generate.
    pub total_facts: usize,
    /// Number of distinct predicates (`rel0` … `rel{n-1}`, rank order).
    pub predicates: usize,
    /// Zipf exponent. `0.0` is uniform; `1.0` is classic Zipf; larger
    /// values concentrate ever more mass on `rel0`.
    pub skew: f64,
    /// Zipf exponent of the *entity* popularity distribution (subjects
    /// and objects). `0.0` draws entities uniformly; positive values
    /// create hub entities, so multi-hop joins through the dominant
    /// predicate fan out super-linearly — the regime where join order
    /// matters most.
    pub entity_skew: f64,
    /// RNG seed — generation is fully deterministic given the config.
    pub seed: u64,
}

impl Default for SkewedConfig {
    fn default() -> Self {
        SkewedConfig {
            total_facts: 10_000,
            predicates: 16,
            skew: 1.2,
            entity_skew: 0.5,
            seed: 0x5EED_0001,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_sizing() {
        let cfg = FootballConfig::with_target_facts(10_000, 0.25, 1);
        let correct = cfg.players as f64 * FootballConfig::FACTS_PER_PLAYER;
        let total = correct * 1.25;
        assert!(
            (total - 10_000.0).abs() / 10_000.0 < 0.05,
            "total ≈ {total}"
        );
    }

    #[test]
    fn paper_scale_ratio() {
        let cfg = FootballConfig::paper_scale();
        let share = cfg.noise_ratio / (1.0 + cfg.noise_ratio);
        assert!((share - 0.08115).abs() < 0.001, "share {share}");
    }

    #[test]
    fn defaults_are_sane() {
        let f = FootballConfig::default();
        assert!(f.players > 0 && f.noise_ratio >= 0.0);
        let w = WikidataConfig::default();
        assert!(w.total_facts > 0);
    }

    #[test]
    fn wikidata_mix_sums_below_one() {
        let s: f64 = WikidataConfig::RELATION_MIX.iter().map(|(_, f)| f).sum();
        assert!(s < 1.0);
        assert!(s > 0.6);
    }
}
