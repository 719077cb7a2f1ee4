//! Skewed-predicate workload generator.
//!
//! Produces a uTKG whose per-predicate fact counts follow a Zipf
//! distribution with configurable exponent ([`SkewedConfig::skew`]):
//! `rel0` receives weight `1`, `rel1` weight `1/2^s`, and so on. At the
//! default `s = 1.2` over 16 predicates, `rel0` holds roughly 40% of
//! all facts while the tail predicates hold well under 1% each.
//!
//! This is the stress scenario for join ordering: a rule body written
//! with the dominant predicate first enumerates the bulk of the store
//! when joined in source order, while the grounder's rule, which reads
//! the atom store's counts, starts from a tail predicate and prunes
//! immediately. The `join_planning` bench in `tecore-bench` grounds
//! exactly that shape ([`PLANNING_PROGRAM`]) at 10K and 100K facts.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tecore_kg::UtkGraph;
use tecore_temporal::Interval;

use crate::config::SkewedConfig;

/// Multi-hop chains through the dominant predicate, each terminated by
/// a selective atom — written worst-first. `flagged` / `suspect` /
/// `retracted` are annotation predicates with no facts in the clean
/// graph (the common "constraint referencing a marker predicate"
/// shape): a join that starts there prunes the whole chain; one that
/// walks the dominant-predicate frontier first discovers the emptiness
/// only at the last hop.
pub const PLANNING_PROGRAM: &str = "\
    c1: quad(x, rel0, y, t) ^ quad(y, rel0, z, t2) ^ quad(z, rel0, v, t3) ^ quad(v, rel0, q, t4) ^ quad(q, flagged, u, t5) -> false w = inf\n\
    c2: quad(x, rel0, y, t) ^ quad(y, rel0, z, t2) ^ quad(z, rel0, v, t3) ^ quad(v, suspect, u, t4) -> false w = inf\n\
    c3: quad(x, rel0, y, t) ^ quad(y, rel1, z, t2) ^ quad(z, rel0, v, t3) ^ quad(v, retracted, u, t4) -> false w = inf\n\
    c4: quad(x, rel0, y, t) ^ quad(y, rel0, z, t2) ^ quad(z, rel15, u, t3) -> false w = inf\n\
    c5: quad(x, rel0, y, t) ^ quad(x, rel14, z, t2) -> false w = inf\n";

/// Generates a skewed-predicate uTKG. Deterministic given the config.
pub fn generate_skewed(config: &SkewedConfig) -> UtkGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let predicates = config.predicates.max(1);

    // Cumulative Zipf weights: weight(rank) = 1 / rank^s, rank 1-based.
    let zipf_cumulative = |n: usize, s: f64| {
        let mut cumulative = Vec::with_capacity(n);
        let mut sum = 0.0f64;
        for rank in 1..=n {
            sum += 1.0 / (rank as f64).powf(s);
            cumulative.push(sum);
        }
        cumulative
    };
    let pred_weights = zipf_cumulative(predicates, config.skew);
    let pred_sum = *pred_weights.last().expect("predicates >= 1");

    // Entity pool scales with the fact count so join fan-out stays
    // bounded; shared subjects/objects keep rule bodies joinable.
    // Popularity follows its own Zipf (`entity_skew`): hub entities
    // appear in many facts, the long tail in few.
    let entities = (config.total_facts / 4).clamp(16, 200_000);
    let entity_weights = zipf_cumulative(entities, config.entity_skew);
    let entity_sum = *entity_weights.last().expect("entities >= 16");

    let mut graph = UtkGraph::with_capacity(config.total_facts);
    let draw_entity = |rng: &mut StdRng| {
        let roll = rng.random_range(0.0..entity_sum);
        entity_weights
            .partition_point(|&c| c <= roll)
            .min(entities - 1)
    };
    for _ in 0..config.total_facts {
        let roll = rng.random_range(0.0..pred_sum);
        let pred = pred_weights
            .partition_point(|&c| c <= roll)
            .min(predicates - 1);
        let s = draw_entity(&mut rng);
        let o = draw_entity(&mut rng);
        let start = rng.random_range(1950..=2010);
        let iv = Interval::new(start, start + rng.random_range(1..=10)).expect("len >= 0");
        let conf = rng.random_range(0.5..=0.99);
        graph
            .insert(
                &format!("E{s}"),
                &format!("rel{pred}"),
                &format!("E{o}"),
                iv,
                conf,
            )
            .expect("valid confidence");
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(graph: &UtkGraph, predicates: usize) -> Vec<usize> {
        (0..predicates)
            .map(|rank| {
                graph
                    .dict()
                    .lookup(&format!("rel{rank}"))
                    .map_or(0, |p| graph.facts_with_predicate(p).count())
            })
            .collect()
    }

    #[test]
    fn deterministic() {
        let cfg = SkewedConfig::default();
        let a = generate_skewed(&cfg);
        let b = generate_skewed(&cfg);
        assert_eq!(a.len(), b.len());
        assert_eq!(counts(&a, cfg.predicates), counts(&b, cfg.predicates));
    }

    #[test]
    fn total_is_exact() {
        let cfg = SkewedConfig {
            total_facts: 3_000,
            ..SkewedConfig::default()
        };
        assert_eq!(generate_skewed(&cfg).len(), 3_000);
    }

    #[test]
    fn head_dominates_tail() {
        let cfg = SkewedConfig::default();
        let g = generate_skewed(&cfg);
        let counts = counts(&g, cfg.predicates);
        // rel0's expected share at s = 1.2 over 16 predicates is ~38%;
        // the last rank's is under 2%.
        assert!(
            counts[0] as f64 > 0.25 * g.len() as f64,
            "head share {}",
            counts[0] as f64 / g.len() as f64
        );
        assert!(
            counts[0] > 10 * counts[cfg.predicates - 1].max(1),
            "head {} vs tail {}",
            counts[0],
            counts[cfg.predicates - 1]
        );
    }

    #[test]
    fn skew_knob_changes_concentration() {
        let flat = generate_skewed(&SkewedConfig {
            skew: 0.0,
            ..SkewedConfig::default()
        });
        let steep = generate_skewed(&SkewedConfig {
            skew: 2.0,
            ..SkewedConfig::default()
        });
        let p = SkewedConfig::default().predicates;
        let flat_head = counts(&flat, p)[0] as f64 / flat.len() as f64;
        let steep_head = counts(&steep, p)[0] as f64 / steep.len() as f64;
        // Uniform: ~1/16 ≈ 6%. Steep: ~63%.
        assert!(flat_head < 0.15, "flat head share {flat_head}");
        assert!(steep_head > 0.45, "steep head share {steep_head}");
    }

    #[test]
    fn entity_skew_creates_hubs() {
        let cfg = SkewedConfig::default();
        let g = generate_skewed(&cfg);
        let degree = |name: &str| {
            g.dict()
                .lookup(name)
                .map_or(0, |sym| g.iter().filter(|(_, f)| f.subject == sym).count())
        };
        // E0 is the hub; an entity deep in the tail is rare or absent.
        assert!(
            degree("E0") > 5 * degree("E1500").max(1),
            "hub {} vs tail {}",
            degree("E0"),
            degree("E1500")
        );
    }

    #[test]
    fn cardinalities_reflect_skew() {
        let cfg = SkewedConfig::default();
        let g = generate_skewed(&cfg);
        let stats = tecore_kg::GraphStats::compute(&g);
        assert_eq!(stats.fact_count, g.len());
        let head = g.dict().lookup("rel0").unwrap();
        assert_eq!(
            stats.per_predicate[0],
            ("rel0".to_string(), g.facts_with_predicate(head).count())
        );
    }
}
