//! E14 — parallel batch evaluation: scoped thread-pool fan-out speedup
//! over the sequential path, and plan-cache lock contention.
//!
//! Two tables:
//!
//! 1. **Worker sweep** — the same repeated-query trace through
//!    `Engine::batch` over `solve` with `workers = 1, 2, 4, …`: wall-clock per
//!    batch and speedup vs the sequential path.  On a 4+-core machine the
//!    parallel rows must show ≥ 2x; on fewer cores the table degenerates
//!    honestly (the fan-out costs nothing but buys nothing).
//! 2. **Warm-hit hammer** — one default engine (8 plan-cache shards), warm
//!    cache, every lookup a hit, hammered from 1 thread and from 8: the
//!    per-lookup cost of each row, and the 8-thread row's cost relative to
//!    the 1-thread row, which is what lock contention adds.

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

    // ---- Warm-hit hammer: cache-lock contention under concurrent lookups ----
    // Warm cache, every prepare() a hit: the measured cost is the shard
    // mutex + slot scan.  distinct_query_fleet gives every fingerprint its
    // own slot, spread over the default engine's 8 shards.
    const ROUNDS: usize = 40;
    let fleet: Vec<Structure> = distinct_query_fleet(16);
    let engine = engine_with_workers(1);
    for q in &fleet {
        engine.prepare(q); // warm: all lookups below are hits
    }
    println!(
        "E14: warm-hit hammer — {ROUNDS} rounds of hits per thread over {} cached plans, default engine",
        fleet.len()
    );
    println!("  threads | median hammer time | per lookup | vs 1 thread");
    let mut single_thread_lookup = None;
    for threads in [1usize, 8] {
        let t = median_time(5, || {
            std::thread::scope(|s| {
                for _ in 0..threads {
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
        let per_lookup = t / (threads * ROUNDS * fleet.len()) as u32;
        let baseline = *single_thread_lookup.get_or_insert(per_lookup);
        println!(
            "  {threads:>7} | {t:>18.3?} | {per_lookup:>10.3?} | {:>6.2}x",
            per_lookup.as_secs_f64() / baseline.as_secs_f64()
        );
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    assert_eq!(stats.misses, fleet.len() as u64, "the hammer only hits");

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
