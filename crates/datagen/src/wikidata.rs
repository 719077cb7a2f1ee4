//! The Wikidata-like generator.
//!
//! Reproduces the *shape* of the 6.3M-fact temporal slice the demo uses
//! (§4): the relation mix of [`WikidataConfig::RELATION_MIX`]
//! (`playsFor` dominates with >4M facts), person-centric subjects, and
//! labelled conflict injection on the constrained relations (`spouse`
//! overlap = bigamy, `playsFor` overlap, duplicate `birthDate`).
//!
//! The generator streams facts in O(total) with O(people) state, so the
//! full paper scale fits comfortably in memory (the scaling bench sweeps
//! 10K → 1M; the `experiments` binary's E6 runs 10K → 640K).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tecore_kg::UtkGraph;
use tecore_temporal::Interval;

use crate::config::WikidataConfig;
use crate::noise::GeneratedKg;

/// Generates a labelled Wikidata-like uTKG.
pub fn generate_wikidata(config: &WikidataConfig) -> GeneratedKg {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let correct_target = (config.total_facts as f64 / (1.0 + config.noise_ratio)).round() as usize;

    // People ≈ correct facts / 3 (each person gets ~3 facts).
    let people = (correct_target / 3).max(1);
    let clubs = (people / 20).clamp(10, 20_000);
    let orgs = (people / 50).clamp(5, 5_000);
    let occupations = 64.min(people);

    let mut graph = UtkGraph::with_capacity(config.total_facts + people);
    let mut labels = Vec::with_capacity(config.total_facts + people);
    let mut correct = 0usize;

    // Track one ground-truth spell per person for conflict injection,
    // plus the next free year per constrained relation so correct facts
    // never conflict with each other (spells are sequential per person).
    let mut plays_spell: Vec<Option<(usize, Interval)>> = vec![None; people];
    let mut spouse_spell: Vec<Option<(usize, Interval)>> = vec![None; people];
    let mut next_play_year: Vec<Option<i64>> = vec![None; people];
    let mut next_spouse_year: Vec<Option<i64>> = vec![None; people];
    let mut birth_year: Vec<i64> = Vec::with_capacity(people);

    for _pid in 0..people {
        birth_year.push(rng.random_range(1900..=1995));
    }

    let emit = |graph: &mut UtkGraph,
                labels: &mut Vec<bool>,
                correct: &mut usize,
                s: String,
                p: &str,
                o: String,
                iv: Interval,
                conf: f64| {
        graph.insert(&s, p, &o, iv, conf).expect("valid confidence");
        labels.push(false);
        *correct += 1;
    };

    let mut pid = 0usize;
    while correct < correct_target {
        let person = pid % people;
        let name = format!("Q{person}");
        let by = birth_year[person];
        // Choose the relation by the paper's mix; the remainder becomes
        // birthDate / occupation-style long tail.
        let roll: f64 = rng.random_range(0.0..1.0);
        let conf = rng.random_range(0.55..=0.99);
        if roll < 0.635 {
            // playsFor spell, strictly after the person's previous one.
            let start = match next_play_year[person] {
                Some(y) => y,
                None => by + rng.random_range(16..=30),
            };
            let len = rng.random_range(1..=8);
            let iv = Interval::new(start, start + len).expect("len >= 0");
            next_play_year[person] = Some(start + len + rng.random_range(2..=4));
            if plays_spell[person].is_none() {
                plays_spell[person] = Some((correct, iv));
            }
            let club = rng.random_range(0..clubs);
            emit(
                &mut graph,
                &mut labels,
                &mut correct,
                name,
                "playsFor",
                format!("Team{club}"),
                iv,
                conf,
            );
        } else if roll < 0.635 + 0.00365 {
            let start = by + rng.random_range(18..=40);
            let iv = Interval::new(start, start + rng.random_range(1..=20)).expect("len >= 0");
            let org = rng.random_range(0..orgs);
            emit(
                &mut graph,
                &mut labels,
                &mut correct,
                name,
                "memberOf",
                format!("Org{org}"),
                iv,
                conf,
            );
        } else if roll < 0.635 + 0.00365 + 0.00317 {
            let start = match next_spouse_year[person] {
                Some(y) => y,
                None => by + rng.random_range(18..=50),
            };
            let len = rng.random_range(1..=40);
            let iv = Interval::new(start, start + len).expect("len >= 0");
            next_spouse_year[person] = Some(start + len + rng.random_range(2..=5));
            if spouse_spell[person].is_none() {
                spouse_spell[person] = Some((correct, iv));
            }
            let partner = rng.random_range(0..people);
            emit(
                &mut graph,
                &mut labels,
                &mut correct,
                name,
                "spouse",
                format!("Q{partner}"),
                iv,
                conf,
            );
        } else if roll < 0.635 + 0.00365 + 0.00317 + 0.00095 {
            let start = by + rng.random_range(5..=25);
            let iv = Interval::new(start, start + rng.random_range(1..=8)).expect("len >= 0");
            emit(
                &mut graph,
                &mut labels,
                &mut correct,
                name,
                "educatedAt",
                format!("School{}", rng.random_range(0..orgs)),
                iv,
                conf,
            );
        } else if roll < 0.635 + 0.00365 + 0.00317 + 0.00095 + 0.00071 {
            let start = by + rng.random_range(16..=40);
            let iv = Interval::new(start, start + rng.random_range(1..=30)).expect("len >= 0");
            emit(
                &mut graph,
                &mut labels,
                &mut correct,
                name,
                "occupation",
                format!("Occ{}", rng.random_range(0..occupations)),
                iv,
                conf,
            );
        } else {
            // Long tail: birthDate facts (one per person, reused slot).
            let iv = Interval::new(by, 2017).expect("birth before 2017");
            emit(
                &mut graph,
                &mut labels,
                &mut correct,
                name,
                "birthDate",
                by.to_string(),
                iv,
                conf,
            );
        }
        pid += 1;
    }

    // Conflict injection on constrained relations.
    let noise_target = (correct as f64 * config.noise_ratio).round() as usize;
    let mut noisy = 0usize;
    let mut attempts = 0usize;
    while noisy < noise_target && attempts < noise_target * 20 + 100 {
        attempts += 1;
        let person = rng.random_range(0..people);
        let name = format!("Q{person}");
        let conf = rng.random_range(0.3..=0.8);
        let inserted = match rng.random_range(0..3) {
            0 => match plays_spell[person] {
                Some((_, iv)) => {
                    let club = rng.random_range(0..clubs);
                    graph
                        .insert(&name, "playsFor", &format!("RivalTeam{club}"), iv, conf)
                        .expect("valid");
                    true
                }
                None => false,
            },
            1 => match spouse_spell[person] {
                Some((_, iv)) => {
                    let partner = rng.random_range(0..people);
                    graph
                        .insert(&name, "spouse", &format!("Rival{partner}"), iv, conf)
                        .expect("valid");
                    true
                }
                None => false,
            },
            _ => {
                let wrong = birth_year[person] + rng.random_range(1..=15);
                if wrong >= 2017 {
                    false
                } else {
                    // Requires the true birthDate fact to exist for a
                    // clash; insert both sides to guarantee a conflict.
                    graph
                        .insert(
                            &name,
                            "birthDate",
                            &birth_year[person].to_string(),
                            Interval::new(birth_year[person], 2017).expect("by < 2017"),
                            rng.random_range(0.7..=0.99),
                        )
                        .expect("valid");
                    labels.push(false);
                    correct += 1;
                    graph
                        .insert(
                            &name,
                            "birthDate",
                            &wrong.to_string(),
                            Interval::new(wrong, 2017).expect("wrong < 2017"),
                            conf,
                        )
                        .expect("valid");
                    true
                }
            }
        };
        if inserted {
            labels.push(true);
            noisy += 1;
        }
    }

    GeneratedKg {
        graph,
        labels,
        correct_facts: correct,
        noisy_facts: noisy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WikidataConfig {
        WikidataConfig {
            total_facts: 5_000,
            noise_ratio: 0.1,
            seed: 11,
        }
    }

    #[test]
    fn deterministic() {
        let a = generate_wikidata(&small());
        let b = generate_wikidata(&small());
        assert_eq!(a.graph.len(), b.graph.len());
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn total_near_target() {
        let g = generate_wikidata(&small());
        let total = g.graph.len() as f64;
        assert!((total - 5_000.0).abs() / 5_000.0 < 0.1, "total {total}");
        assert_eq!(g.labels.len(), g.graph.len());
    }

    #[test]
    fn plays_for_dominates() {
        let g = generate_wikidata(&small());
        let plays_for = g.graph.dict().lookup("playsFor").unwrap();
        let pf = g.graph.facts_with_predicate(plays_for).count();
        assert!(
            pf as f64 > 0.5 * g.graph.len() as f64,
            "playsFor share {}",
            pf as f64 / g.graph.len() as f64
        );
    }

    #[test]
    fn mix_contains_all_relations() {
        let g = generate_wikidata(&WikidataConfig {
            total_facts: 40_000,
            noise_ratio: 0.05,
            seed: 3,
        });
        for rel in [
            "playsFor",
            "memberOf",
            "spouse",
            "educatedAt",
            "occupation",
            "birthDate",
        ] {
            assert!(
                g.graph.dict().lookup(rel).is_some(),
                "{rel} missing from generated graph"
            );
        }
    }

    #[test]
    fn noise_counted() {
        let g = generate_wikidata(&small());
        assert!(g.noisy_facts > 0);
        let labelled_noise = g.labels.iter().filter(|&&b| b).count();
        assert_eq!(labelled_noise, g.noisy_facts);
    }
}
