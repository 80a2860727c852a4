//! E14 — parallel batch evaluation: scoped thread-pool fan-out speedup
//! over the sequential path, and sharded-cache vs single-lock contention.
//!
//! Two sweeps, both printed as tables:
//!
//! 1. **Worker sweep** — the same repeated-query trace through
//!    `Engine::batch` over `solve` with `workers = 1, 2, 4, …`: wall-clock per
//!    batch and speedup vs the sequential path.  On a 4+-core machine the
//!    parallel rows must show ≥ 2x; on fewer cores the table degenerates
//!    honestly (the fan-out costs nothing but buys nothing).
//! 2. **Shard sweep** — 8 threads hammering one shared engine (warm cache,
//!    every lookup a hit) with the shard count swept 1 → 16: per-lookup
//!    cost under contention.  One shard serializes every lookup on a single
//!    mutex; sharding spreads them.

use cq_bench::median_time;
use cq_core::{Engine, EngineConfig};
use cq_structures::Structure;
use cq_workloads::{distinct_query_fleet, repeated_query_traffic};
use criterion::{criterion_group, criterion_main, Criterion};

fn engine_with_workers(workers: usize) -> Engine {
    Engine::new(EngineConfig {
        workers,
        ..EngineConfig::default()
    })
}

fn bench(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("E14: available parallelism = {cores} core(s)");
    if cores < 4 {
        println!("E14: note — speedup targets assume 4+ cores; this machine has {cores}");
    }

    // ---- Worker sweep: parallel batch vs sequential ----
    // Mixed repeated-query traffic (4 query shapes x 24 repeats, databases
    // of 16 vertices): enough per-instance solver work that fan-out
    // amortizes thread spawn, with preparation amortized by the warm cache.
    let traffic = repeated_query_traffic(8, 16, 24, 42);
    let instances = traffic.instances();
    println!(
        "E14: worker sweep over {} instances ({} distinct queries, {} databases)",
        instances.len(),
        traffic.queries.len(),
        traffic.databases.len()
    );

    let mut worker_counts = vec![1usize, 2, 4, 8];
    if cores > 8 {
        worker_counts.push(cores);
    }
    let mut sequential_time = None;
    println!("  workers | median batch time | speedup vs workers=1");
    for &workers in &worker_counts {
        let engine = engine_with_workers(workers);
        engine.batch(&instances, |e, &(q, d)| e.solve(q, d)); // warm the plan cache
        let t = median_time(7, || {
            engine.batch(&instances, |e, &(q, d)| e.solve(q, d));
        });
        let baseline = *sequential_time.get_or_insert(t);
        println!(
            "  {workers:>7} | {t:>17.3?} | {:>6.2}x",
            baseline.as_secs_f64() / t.as_secs_f64()
        );
    }

    // The same two end points through the criterion harness, for the
    // uniform `bench ...` output lines the other experiments produce.
    let mut g = c.benchmark_group("e14");
    g.sample_size(10);
    g.bench_function("sequential: batch of solve, workers=1", |b| {
        let engine = engine_with_workers(1);
        engine.batch(&instances, |e, &(q, d)| e.solve(q, d));
        b.iter(|| engine.batch(&instances, |e, &(q, d)| e.solve(q, d)).len())
    });
    g.bench_function("parallel: batch of solve, workers=auto", |b| {
        let engine = engine_with_workers(0);
        engine.batch(&instances, |e, &(q, d)| e.solve(q, d));
        b.iter(|| engine.batch(&instances, |e, &(q, d)| e.solve(q, d)).len())
    });
    g.finish();

    // ---- Shard sweep: cache-lock contention under concurrent lookups ----
    // 8 threads, warm cache, every prepare() a hit: the measured cost is
    // the shard mutex + slot scan.  distinct_query_fleet gives every
    // fingerprint its own slot so single-lock contention is maximal.
    const HAMMER_THREADS: usize = 8;
    const ROUNDS: usize = 40;
    let fleet: Vec<Structure> = distinct_query_fleet(16);
    println!(
        "E14: shard sweep — {HAMMER_THREADS} threads x {ROUNDS} rounds of hits over {} cached plans",
        fleet.len()
    );
    println!("  shards | median hammer time | vs 1 shard");
    let mut single_shard_time = None;
    for shards in [1usize, 2, 4, 8, 16] {
        let engine = engine_with_workers(1).with_cache_shards(shards);
        for q in &fleet {
            engine.prepare(q); // warm: all lookups below are hits
        }
        let t = median_time(5, || {
            std::thread::scope(|s| {
                for _ in 0..HAMMER_THREADS {
                    s.spawn(|| {
                        for _ in 0..ROUNDS {
                            for q in &fleet {
                                criterion::black_box(engine.prepare(q));
                            }
                        }
                    });
                }
            });
        });
        let baseline = *single_shard_time.get_or_insert(t);
        println!(
            "  {shards:>6} | {t:>18.3?} | {:>6.2}x",
            baseline.as_secs_f64() / t.as_secs_f64()
        );
        let stats = engine.cache_stats();
        assert_eq!(stats.hits + stats.misses, stats.lookups);
    }

    // Accounting sanity printed like E13's closing lines: one warm pass.
    let engine = engine_with_workers(0);
    engine.batch(&instances, |e, &(q, d)| e.solve(q, d));
    let stats = engine.cache_stats();
    let prep = engine.prep_stats();
    println!(
        "E14: one warm pass: {} lookups = {} hits + {} misses; {} preparations across workers",
        stats.lookups, stats.hits, stats.misses, prep.preparations
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
