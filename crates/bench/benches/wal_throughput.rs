//! WAL throughput — the price of durability.
//!
//! The write-ahead log exists so edits survive a crash, but a log that
//! slows the streaming path to a crawl would never be left enabled.
//! This bench prices each durability primitive and then the contract
//! that matters: a durable streaming edit cycle must stay within
//! **1.3x** of the in-memory incremental cycle on wikidata-2k.
//!
//! * `append/*` — raw `log_insert` rate under `FsyncPolicy::Always`
//!   (fsync per record: the floor) and `EveryN(64)` (group commit:
//!   the deployment setting);
//! * `replay/wikidata_seed` — `Wal::open` over a 2 000-record log:
//!   recovery cost when no checkpoint covers the tail;
//! * `checkpoint/wikidata2k` — serialising the resolved wikidata-2k
//!   graph into a checkpoint file;
//! * `edit_cycle/{in_memory,durable_every64}` — the streaming bench's
//!   insert-resolve-remove-resolve cycle with and without journaling.
//!
//! The 1.3x gate is asserted from a manual timed loop (medians over
//! interleavable work, same idiom as `server_load`'s p99 gate) and
//! skipped under `TECORE_BENCH_SMOKE=1`, where single-sample medians
//! are noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use tecore_bench::harness;
use tecore_core::{Engine, TecoreConfig};
use tecore_datagen::standard::wikidata_program;
use tecore_kg::FactId;
use tecore_temporal::Interval;
use tecore_wal::{FsyncPolicy, InsertRecord, Wal, WalConfig};

/// Records in the seeded replay log.
const REPLAY_RECORDS: u32 = 2_000;

fn smoke_mode() -> bool {
    std::env::var("TECORE_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A fresh per-process scratch directory (recreated on every call, so
/// reruns never replay a previous run's log).
fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tecore-wal-bench-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    dir
}

fn wal_config(fsync: FsyncPolicy) -> WalConfig {
    WalConfig {
        fsync,
        ..WalConfig::default()
    }
}

/// An appendable log plus the epoch/id cursors that keep it replayable
/// (replay checks epoch continuity and arena alignment, so the bench
/// writes real frames, not garbage).
struct AppendState {
    wal: Wal,
    epoch: u64,
    next_id: u32,
}

impl AppendState {
    fn open(dir: &std::path::Path, fsync: FsyncPolicy) -> AppendState {
        let (wal, graph) = Wal::open(dir, wal_config(fsync)).expect("wal opens");
        assert_eq!(graph.epoch(), 0, "append bench expects a fresh log");
        AppendState {
            wal,
            epoch: 0,
            next_id: 0,
        }
    }

    fn append_one(&mut self) -> u64 {
        self.epoch += 1;
        let id = FactId(self.next_id);
        let subject = format!("Q{}", self.next_id % 1024);
        self.next_id += 1;
        let record = InsertRecord {
            subject: &subject,
            predicate: "spouse",
            object: "QAppend",
            interval: Interval::new(1990, 1995).expect("static interval"),
            confidence: 0.62,
        };
        self.wal
            .log_insert(self.epoch, id, &record)
            .expect("append");
        self.epoch
    }
}

/// Seeds a directory with `n` journaled inserts (flushed, no
/// checkpoint), so every `Wal::open` replays the full log.
fn seed_replay_dir(n: u32) -> PathBuf {
    let dir = bench_dir("replay");
    let (mut wal, mut graph) =
        Wal::open(&dir, wal_config(FsyncPolicy::EveryN(64))).expect("wal opens");
    for i in 0..n {
        let subject = format!("Q{}", i % 256);
        let object = format!("O{}", i % 97);
        let interval = Interval::new(1900 + i64::from(i % 100), 1906 + i64::from(i % 100))
            .expect("static interval");
        let confidence = 0.5 + f64::from(i % 40) * 0.01;
        let id = FactId(graph.arena_len() as u32);
        let record = InsertRecord {
            subject: &subject,
            predicate: "playsFor",
            object: &object,
            interval,
            confidence,
        };
        wal.log_insert(graph.epoch() + 1, id, &record)
            .expect("journal");
        graph
            .insert(&subject, "playsFor", &object, interval, confidence)
            .expect("insert");
    }
    wal.flush().expect("flush");
    dir
}

/// One streaming edit session (identical to `streaming_updates`):
/// insert a clashing spouse fact, resolve, retract it, resolve again.
fn edit_cycle(engine: &mut Engine, edit: &mut u64) -> usize {
    let year = 1980 + (*edit % 30) as i64;
    *edit += 1;
    let interval = Interval::new(year, year + 4).expect("static interval");
    let id = engine
        .insert_fact("Q1", "spouse", "QStream", interval, 0.62)
        .expect("insert");
    let after_insert = engine.resolve_incremental().expect("resolve");
    engine.remove_fact(id).expect("remove");
    let after_remove = engine.resolve_incremental().expect("resolve");
    after_insert.stats.conflicting_facts + after_remove.stats.conflicting_facts
}

/// Median nanoseconds per edit cycle over `cycles` manual samples.
fn median_cycle_ns(engine: &mut Engine, edit: &mut u64, cycles: usize) -> u64 {
    let mut samples = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let start = Instant::now();
        black_box(edit_cycle(engine, edit));
        samples.push(start.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn bench_wal_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_throughput");

    // Raw append rate: one journaled insert per iteration.
    group.sample_size(100);
    group.throughput(Throughput::Elements(1));
    for (name, fsync) in [
        ("always", FsyncPolicy::Always),
        ("every64", FsyncPolicy::EveryN(64)),
    ] {
        let dir = bench_dir(&format!("append-{name}"));
        let mut state = AppendState::open(&dir, fsync);
        group.bench_function(BenchmarkId::new("append", name), |b| {
            b.iter(|| black_box(state.append_one()))
        });
    }

    // Recovery replay: every open re-reads the whole seeded log.
    let replay_dir = seed_replay_dir(REPLAY_RECORDS);
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(REPLAY_RECORDS)));
    group.bench_function("replay/wikidata_seed", |b| {
        b.iter(|| {
            let (wal, graph) =
                Wal::open(&replay_dir, wal_config(FsyncPolicy::EveryN(64))).expect("recovers");
            assert_eq!(graph.epoch(), u64::from(REPLAY_RECORDS));
            black_box((wal.recovery().replayed, graph.len()))
        })
    });

    // Checkpoint serialisation of the 2k-fact workload.
    let generated = harness::wikidata(2_000);
    let ckpt_dir = bench_dir("checkpoint");
    let (mut ckpt_wal, _) = Wal::open(&ckpt_dir, WalConfig::default()).expect("wal opens");
    group.sample_size(10);
    group.throughput(Throughput::Elements(generated.graph.len() as u64));
    group.bench_function("checkpoint/wikidata2k", |b| {
        b.iter(|| {
            ckpt_wal.checkpoint(&generated.graph).expect("checkpoint");
            black_box(ckpt_wal.stats().last_checkpoint_epoch)
        })
    });

    // The headline contract: durable streaming within 1.3x of
    // in-memory. Criterion rows for the report, then a manual gate.
    let program = wikidata_program();
    let config = TecoreConfig {
        backend: harness::solver("mln-walksat"),
        ..TecoreConfig::default()
    };
    group.sample_size(10);
    group.throughput(Throughput::Elements(2));

    let mut inmem = Engine::with_config(generated.graph.clone(), program.clone(), config.clone());
    inmem.resolve_incremental().expect("prime");
    let mut inmem_edit = 0u64;
    group.bench_function(BenchmarkId::new("edit_cycle", "in_memory"), |b| {
        b.iter(|| black_box(edit_cycle(&mut inmem, &mut inmem_edit)))
    });

    let wal_dir = bench_dir("edit-cycle");
    let (wal, _) = Wal::open(&wal_dir, wal_config(FsyncPolicy::EveryN(64))).expect("wal opens");
    let mut durable = Engine::with_config(generated.graph.clone(), program.clone(), config.clone());
    // attach_wal checkpoints the 2k graph as the log's baseline — paid
    // once at deployment, outside the measured loop.
    durable.attach_wal(wal).expect("attach");
    durable.resolve_incremental().expect("prime");
    let mut durable_edit = 0u64;
    group.bench_function(BenchmarkId::new("edit_cycle", "durable_every64"), |b| {
        b.iter(|| black_box(edit_cycle(&mut durable, &mut durable_edit)))
    });
    group.finish();

    // Manual 1.3x gate over fresh medians (the shim does not expose
    // its samples). Skipped in smoke mode: a 1-sample median is noise.
    let smoke = smoke_mode();
    let cycles = if smoke { 1 } else { 9 };
    let inmem_ns = median_cycle_ns(&mut inmem, &mut inmem_edit, cycles);
    let durable_ns = median_cycle_ns(&mut durable, &mut durable_edit, cycles);
    let ratio = durable_ns as f64 / inmem_ns.max(1) as f64;
    println!(
        "bench: wal_throughput edit-cycle durable/in-memory ratio: {ratio:.2}x \
         (durable {durable_ns}ns vs in-memory {inmem_ns}ns, {cycles} cycles)"
    );
    if smoke {
        println!("bench: wal_throughput 1.3x gate skipped (smoke run)");
    } else {
        assert!(
            ratio <= 1.3,
            "durable edit cycle {durable_ns}ns is {ratio:.2}x the in-memory cycle \
             {inmem_ns}ns (> 1.3x): journaling is eating the streaming budget"
        );
    }

    let durable_stats = durable.wal_stats().expect("durable engine has a wal");
    assert!(durable_stats.bytes > 0, "edit cycles journaled nothing");
}

criterion_group!(benches, bench_wal_throughput);
criterion_main!(benches);
