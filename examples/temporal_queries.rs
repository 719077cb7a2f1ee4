//! Querying the resolved KG: the engine → snapshot → query flow.
//!
//! The paper's demo is ultimately about *answering questions* against
//! the repaired graph — "who played for this club in 1990?", "when was
//! this person employed at all?". This example resolves the
//! Wikidata-like workload once, then drives the snapshot's temporal
//! query layer: point-in-time lookups, window scans, Allen filters,
//! coalesced per-entity timelines and confidence projection — all
//! index-backed, all on an immutable snapshot that later engine edits
//! can never disturb. It asserts what it prints about versioning and
//! the Allen filter, so CI fails when either changes.
//!
//! Run with: `cargo run --release --example temporal_queries`

use tecore_core::prelude::*;
use tecore_datagen::config::WikidataConfig;
use tecore_datagen::standard::wikidata_program;
use tecore_datagen::wikidata::generate_wikidata;
use tecore_temporal::{AllenRelation, AllenSet, Interval};

fn main() {
    // 1. Resolve the workload into a snapshot.
    let generated = generate_wikidata(&WikidataConfig {
        total_facts: 2_000,
        noise_ratio: 0.05,
        seed: 0xE6,
    });
    let mut engine = Engine::new(generated.graph, wikidata_program());
    let snapshot = engine.resolve().expect("workload resolves");
    println!(
        "resolved {} facts: {} conflicting removed, {} inferred (epoch {})",
        snapshot.stats.total_facts,
        snapshot.stats.conflicting_facts,
        snapshot.stats.inferred_facts,
        snapshot.epoch(),
    );
    let dict = snapshot.expanded().dict();

    // 2. Point-in-time lookup: who was playing for some club in 1990?
    let year = 1990;
    let playing = snapshot.at(year).predicate("playsFor");
    println!(
        "\n{} playsFor statements valid in {year}; first five:",
        playing.count()
    );
    for (_, fact) in playing.iter().take(5) {
        println!("  {}", fact.display(dict));
    }

    // 3. Entity timeline: every spell of one player, coalesced.
    let subject = playing
        .iter()
        .map(|(_, f)| f.subject)
        .next()
        .expect("someone plays in 1990");
    let name = dict.resolve(subject).to_string();
    println!("\ncareer timeline of {name}:");
    for entry in snapshot.query().subject(&name).timeline() {
        println!("  {}", entry.describe(dict));
    }
    let active = snapshot
        .query()
        .subject(&name)
        .predicate("playsFor")
        .coalesced_validity();
    println!("  -> under contract somewhere during {active}");

    // 4. Window + Allen filters: spells overlapping the 1980s, and
    //    spells strictly before that window (career predecessors).
    let eighties = Interval::new(1980, 1989).expect("valid window");
    println!(
        "\nplaysFor spells overlapping the 1980s: {}",
        snapshot
            .query()
            .predicate("playsFor")
            .overlapping(eighties)
            .count()
    );
    let before = snapshot
        .query()
        .predicate("playsFor")
        .allen(AllenRelation::Before, eighties)
        .count();
    println!("playsFor spells entirely before the 1980s (Allen before): {before}");
    let spells = snapshot.query().predicate("playsFor").count();
    assert!(before <= spells, "{before} Allen-before spells of {spells}");
    println!(
        "spouse spells disjoint from the 1980s: {}",
        snapshot
            .query()
            .predicate("spouse")
            .allen_set(AllenSet::DISJOINT, eighties)
            .count()
    );

    // 5. Confidence projection: only high-confidence facts at `year`.
    println!(
        "\nfacts valid in {year}: {} total, {} with confidence >= 0.9",
        snapshot.at(year).count(),
        snapshot.at(year).min_confidence(0.9).count()
    );

    // 6. Snapshots are versioned: editing (an `EditBatch` through
    //    `Engine::apply`) and re-resolving produces a new snapshot at a
    //    later epoch; the one above is untouched.
    //    `QNew` is a fresh subject, so no constraint can fire on it.
    let in_year = playing.count();
    let edit =
        EditBatch::new().insert("QNew", "playsFor", "TimeTravelFC", Interval::at(year), 0.99);
    engine.apply(&edit).into_result().expect("insert");
    let newer = engine.resolve_incremental().expect("re-resolves");
    let (old, new) = (
        snapshot.at(year).predicate("playsFor").count(),
        newer.at(year).predicate("playsFor").count(),
    );
    println!(
        "\nafter one streaming edit: old snapshot epoch {} still sees {old} \
         playsFor facts in {year}, new snapshot epoch {} sees {new}",
        snapshot.epoch(),
        newer.epoch(),
    );
    assert_eq!(old, in_year, "the old snapshot moved");
    assert_eq!(new, in_year + 1, "the new snapshot misses QNew");
}
