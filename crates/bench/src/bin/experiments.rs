//! Regenerates every number reported in the paper and prints a
//! paper-vs-measured table (the source of `EXPERIMENTS.md`).
//!
//! Run with: `cargo run --release -p tecore-bench --bin experiments`
//! Pass `--quick` to shrink E2/E6 (CI-sized run).
//! Every input E2, E5 and E6 resolve (and a skewed one) also prints its
//! component sizes, and the cold inputs of the end-to-end benchmark
//! print the grounder's work per clause. Exits non-zero when a backend
//! misses Figure 7 (E1) or E5's exact grading is off.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tecore_bench::harness;
use tecore_core::registry::SolverRegistry;
use tecore_core::resolution::InferredFact;
use tecore_core::{ConfidenceMode, Engine, MapSolver, TecoreConfig};
use tecore_datagen::config::{FootballConfig, SkewedConfig, WikidataConfig};
use tecore_datagen::football::generate_football;
use tecore_datagen::generate_wikidata;
use tecore_datagen::noise::repair_metrics;
use tecore_datagen::skewed::generate_skewed;
use tecore_datagen::standard::{
    football_program, paper_program, paper_rules, ranieri_utkg, wikidata_program,
};
use tecore_ground::{ground, intern_constants, Partition, MAX_GRADED_ATOMS};
use tecore_kg::UtkGraph;
use tecore_logic::LogicProgram;
use tecore_mln::{CpiConfig, CpiSolver, WalkSatConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let e1_matches = e1_running_example();
    e2_conflict_statistics(quick);
    e3_map_performance(quick);
    e4_noise_stress(quick);
    let e5_graded = e5_threshold();
    e6_wikidata_scaling(quick);
    skewed_components();
    ground_work(quick);
    println!("\nAll experiments completed.");
    if !e1_matches {
        eprintln!("E1: a backend does not reproduce Figure 7 (MISMATCH above)");
    }
    if !(e1_matches && e5_graded) {
        std::process::exit(1);
    }
}

/// Prints the conflict components of `graph` under `program` by atom
/// count, and the atoms in components above [`MAX_GRADED_ATOMS`].
/// The program's constants are interned into `graph` first.
fn print_components(label: &str, graph: &mut UtkGraph, program: &LogicProgram) {
    intern_constants(program, graph.dict_mut());
    let grounding = ground(graph, program).expect("grounds");
    let partition = Partition::of(&grounding.clauses, grounding.num_atoms());
    let mut by_size: BTreeMap<usize, usize> = BTreeMap::new();
    for comp in 0..partition.len() {
        *by_size.entry(partition.atoms(comp).len()).or_default() += 1;
    }
    let histogram: String = by_size.iter().map(|(a, n)| format!(" {a}:{n}")).collect();
    let above: usize = by_size
        .range(MAX_GRADED_ATOMS + 1..)
        .map(|(a, n)| a * n)
        .sum();
    println!("    components [{label}] (atoms:count){histogram}; above {MAX_GRADED_ATOMS}: {above} atoms");
}

fn line() {
    println!("{}", "-".repeat(72));
}

/// E1 — Figures 1/4/6 → Figure 7, on every registered backend.
/// Returns whether all of them match.
fn e1_running_example() -> bool {
    line();
    println!("E1  Running example (Figure 7)");
    println!("    paper: fact (5) (CR, coach, Napoli, [2001,2003]) removed; (1)-(4) kept");
    let registry = SolverRegistry::with_default_backends();
    let mut all_match = true;
    for name in registry.names() {
        let config = TecoreConfig {
            backend: registry.resolve(name).expect("registered backend"),
            ..TecoreConfig::default()
        };
        let r = Engine::with_config(ranieri_utkg(), paper_program(), config)
            .resolve()
            .expect("resolves");
        let removed: Vec<String> = r
            .removed
            .iter()
            .map(|f| r.consistent.dict().resolve(f.fact.object).to_string())
            .collect();
        let matches = removed == ["Napoli"] && r.consistent.len() == 4;
        all_match &= matches;
        println!(
            "    measured [{name}]: kept {}, removed {:?}, inferred {} -> {}",
            r.consistent.len(),
            removed,
            r.inferred.len(),
            if matches { "MATCH" } else { "MISMATCH" }
        );
    }
    all_match
}

/// E2 — Figure 8: 19,734 conflicting facts out of 243,157.
fn e2_conflict_statistics(quick: bool) {
    line();
    println!("E2  Conflict statistics (Figure 8)");
    println!("    paper: 19,734 conflicting facts / 243,157 temporal facts (8.11%)");
    let config = if quick {
        FootballConfig::with_target_facts(30_000, 0.0883, 0x7ec0_2017)
    } else {
        FootballConfig::paper_scale()
    };
    let mut generated = generate_football(&config);
    print_components("football", &mut generated.graph, &football_program());
    for name in ["mln-cpi", "psl-admm"] {
        let r = harness::resolve(&generated, &football_program(), harness::solver(name));
        println!(
            "    measured [{name}]: {} conflicting / {} facts ({:.2}%)",
            r.stats.conflicting_facts,
            r.stats.total_facts,
            100.0 * r.stats.conflict_ratio()
        );
    }
}

/// E3 — §3: nRockIt 12,181 ms vs nPSL 6,129 ms (avg of 10 runs).
fn e3_map_performance(quick: bool) {
    line();
    println!("E3  MAP inference running time on FootballDB (avg of 10 runs)");
    println!("    paper: nRockIt 12,181 ms vs nPSL 6,129 ms (PSL ≈1.99x faster)");
    // §4 sizes FootballDB at >13K playsFor + >6K birthDate ≈ 20K facts.
    let generated = harness::football(20_000);
    let runs = if quick { 3 } else { 10 };
    let program = football_program();
    let quality_matched: Arc<dyn MapSolver> = Arc::new(CpiSolver::new(CpiConfig {
        walksat: WalkSatConfig {
            max_flips: 1_500_000,
            restarts: 6,
        },
    }));
    let mut results: Vec<(&str, Duration, f64)> = Vec::new();
    for (label, backend) in [
        ("mln-cpi (default budget)", harness::solver("mln-cpi")),
        ("mln-cpi (quality-matched)", quality_matched),
        ("psl-admm", harness::solver("psl-admm")),
    ] {
        let mut total = Duration::ZERO;
        let mut f1 = 0.0;
        for _ in 0..runs {
            let t = Instant::now();
            let r = harness::resolve(&generated, &program, backend.clone());
            total += t.elapsed();
            let removed: Vec<_> = r.removed.iter().map(|x| x.id).collect();
            f1 = repair_metrics(&generated, &removed).f1();
        }
        results.push((label, total / runs, f1));
    }
    for (label, avg, f1) in &results {
        println!("    measured [{label}]: {avg:?} (repair F1 {f1:.3})");
    }
    if let (Some(m), Some(p)) = (
        results.iter().find(|r| r.0.contains("quality-matched")),
        results.iter().find(|r| r.0 == "psl-admm"),
    ) {
        println!(
            "    shape: at matched quality PSL is {:.2}x faster (paper: ≈1.99x)",
            m.1.as_secs_f64() / p.1.as_secs_f64().max(1e-9)
        );
    }
}

/// E4 — §1: 1:1 noise stress test.
fn e4_noise_stress(quick: bool) {
    line();
    println!("E4  Noise stress (paper: works with erroneous == correct facts)");
    let size = if quick { 4_000 } else { 10_000 };
    for ratio in [0.1f64, 0.5, 1.0] {
        let generated = harness::football_noisy(size, ratio);
        for name in ["mln-cpi", "psl-admm"] {
            let r = harness::resolve(&generated, &football_program(), harness::solver(name));
            let removed: Vec<_> = r.removed.iter().map(|x| x.id).collect();
            let m = repair_metrics(&generated, &removed);
            println!(
                "    ratio {ratio:>4}: [{name}] precision {:.3} recall {:.3} f1 {:.3}",
                m.precision(),
                m.recall(),
                m.f1()
            );
        }
    }
}

/// E5 — §1: threshold on derived facts, graded by their exact
/// marginals. Returns whether the grading is sound: every confidence in
/// `(0, 1]`, and not every one of them `1.0`.
fn e5_threshold() -> bool {
    line();
    println!("E5  Derived-fact threshold sweep (kept facts per threshold)");
    let mut graph = ranieri_utkg();
    for i in 0..300 {
        let start = 1950 + (i % 60);
        graph
            .insert(
                &format!("P{i}"),
                "playsFor",
                &format!("Club{}", i % 23),
                tecore_temporal::Interval::new(start, start + 3).unwrap(),
                0.51 + 0.48 * ((i % 10) as f64 / 10.0),
            )
            .unwrap();
    }
    print_components("e5", &mut graph, &paper_rules());
    let config = TecoreConfig {
        confidence: ConfidenceMode::Marginal,
        ..TecoreConfig::default()
    };
    let r = Engine::with_config(graph, paper_rules(), config)
        .resolve()
        .expect("resolves");
    let thresholds: Vec<f64> = (0..=9).map(|i| f64::from(i) / 10.0).collect();
    let curve = sweep(&r.inferred, &thresholds);
    print!("    ");
    for (t, kept) in curve {
        print!("τ={t:.1}:{kept}  ");
    }
    println!("\n    shape: monotonically decreasing kept-count");
    let mut confidences: Vec<f64> = r.inferred.iter().map(|f| f.confidence).collect();
    confidences.sort_by(f64::total_cmp);
    let at = |q: usize| {
        let i = q * confidences.len().saturating_sub(1) / 2;
        confidences.get(i).copied().unwrap_or(f64::NAN)
    };
    let (min, median, max) = (at(0), at(1), at(2));
    // Every one exactly 1.0 would mean grading is silently off.
    let sound = min > 0.0 && min < 1.0 && max <= 1.0;
    println!(
        "    confidence: min {min:.6} / median {median:.6} / max {max:.6}, {} ungraded -> {}",
        r.stats.ungraded_facts,
        if sound { "OK" } else { "FAIL" }
    );
    sound
}

/// E6 — §4: Wikidata scalability.
/// Sweeps a set of thresholds and reports `(threshold, kept)` pairs —
/// the curve behind experiment E5.
fn sweep(inferred: &[Arc<InferredFact>], thresholds: &[f64]) -> Vec<(f64, usize)> {
    thresholds
        .iter()
        .map(|&t| {
            let kept = inferred.iter().filter(|f| f.confidence >= t).count();
            (t, kept)
        })
        .collect()
}

fn e6_wikidata_scaling(quick: bool) {
    line();
    println!("E6  Wikidata scaling (paper slice: 6.3M facts; PSL offered for scale)");
    let sizes: &[usize] = if quick {
        &[10_000, 40_000]
    } else {
        &[10_000, 40_000, 160_000, 640_000]
    };
    for &size in sizes {
        let mut generated = harness::wikidata(size);
        print_components(
            &format!("wikidata {size}"),
            &mut generated.graph,
            &wikidata_program(),
        );
        for name in ["mln-cpi", "psl-admm"] {
            let t = Instant::now();
            let r = harness::resolve(&generated, &wikidata_program(), harness::solver(name));
            println!(
                "    {size:>8} facts [{name}]: total {:?} (ground {:?} / solve {:?}), {} conflicts",
                t.elapsed(),
                r.stats.grounding_time,
                r.stats.solve_time,
                r.stats.conflicting_facts
            );
        }
    }
}

/// The grounder's work on the cold inputs of the end-to-end benchmark
/// (`cold_cpi_fb243k` and `cold_walksat_wd400k` at its default seed;
/// 1/20 of the scale with `--quick`): candidates the joins examined per
/// formula clause of one cold `ground()`.
fn ground_work(quick: bool) {
    line();
    println!("Ground work on the cold benchmark inputs (no paper number)");
    let (scale, seed) = (if quick { 20 } else { 1 }, 0x7ec0_2017);
    let note = if quick { " at 1/20 of the scale" } else { "" };
    let football = generate_football(&FootballConfig::with_target_facts(
        243_157 / scale,
        0.0883,
        seed,
    ));
    let wikidata = generate_wikidata(&WikidataConfig {
        total_facts: 400_000 / scale,
        noise_ratio: 0.1,
        seed,
    });
    let inputs = [
        ("fb243k", football.graph, football_program()),
        ("wd400k", wikidata.graph, wikidata_program()),
    ];
    for (label, mut graph, program) in inputs {
        intern_constants(&program, graph.dict_mut());
        let stats = ground(&graph, &program).expect("grounds").stats;
        println!(
            "    {label}{note}: {} candidates examined for {} formula clauses \
             ({:.2} a clause), {} matches",
            stats.candidates_examined,
            stats.formula_clauses,
            stats.candidates_examined as f64 / stats.formula_clauses.max(1) as f64,
            stats.body_matches
        );
    }
}

/// Component sizes where they grow: the hubs of `datagen::skewed` 10k
/// under a `rel0` disjointness constraint.
fn skewed_components() {
    line();
    println!("Component sizes under a hub-heavy constraint (no paper number)");
    let program = LogicProgram::parse(
        "c: quad(x, rel0, y, t) ^ quad(x, rel0, z, t') ^ y != z -> disjoint(t, t') w = inf",
    );
    let mut graph = generate_skewed(&SkewedConfig::default());
    print_components("skewed 10000", &mut graph, &program.expect("valid program"));
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
