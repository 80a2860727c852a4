//! E13 — plan cache: cold-path vs cached-plan throughput on repeated-query
//! traffic.
//!
//! The prepared-query engine exists for exactly this workload: the same
//! query evaluated against many databases.  The cold path pays the
//! per-query preparation (core computation + the three exponential width
//! DPs + decomposition certificates) on every instance; the cached path
//! pays it once and serves every later instance from the LRU plan cache.

use cq_core::{Engine, EngineConfig};
use cq_structures::families;
use cq_workloads::{database_fleet, repeated_query_traffic};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    // One query, many databases: the purest repeated-query shape.  C9 is a
    // core (odd cycle) with pathwidth 2 and tree depth 5, so preparation
    // runs the full analysis and dispatch lands on the path sweep.
    let query = families::cycle(9);
    let fleet = database_fleet(8, 14, 0.35, 42);

    println!(
        "E13: cold preparation vs cached plans ({} databases, query C9)",
        fleet.len()
    );
    let mut g = c.benchmark_group("e13");
    g.sample_size(10);
    g.bench_function("cold: fresh engine per batch (prepare every time)", |b| {
        b.iter(|| {
            // A fresh engine has an empty plan cache: every instance pays
            // preparation again because the cache is gone between batches.
            fleet
                .iter()
                .map(|db| {
                    Engine::new(EngineConfig::default())
                        .solve(&query, db)
                        .exists
                })
                .filter(|&e| e)
                .count()
        })
    });
    g.bench_function(
        "cached: shared engine (prepare once, hit thereafter)",
        |b| {
            let engine = Engine::new(EngineConfig::default());
            b.iter(|| {
                fleet
                    .iter()
                    .map(|db| engine.solve(&query, db).exists)
                    .filter(|&e| e)
                    .count()
            })
        },
    );
    g.bench_function("prepared handle: batch over a registered query", |b| {
        let engine = Engine::new(EngineConfig::default());
        let id = engine.register(&query);
        let batch: Vec<_> = fleet.iter().map(|db| (id, db)).collect();
        b.iter(|| {
            engine
                .batch(&batch, |e, &(id, d)| e.solve_prepared(&e.prepared(id), d))
                .iter()
                .filter(|r| r.exists)
                .count()
        })
    });
    g.finish();

    // Mixed traffic through the raw-instance batch API: distinct queries
    // interleaved, each recurring many times.
    let traffic = repeated_query_traffic(6, 12, 8, 7);
    println!(
        "E13: mixed traffic — {} instances over {} distinct queries",
        traffic.len(),
        traffic.queries.len()
    );
    let mut g = c.benchmark_group("e13-traffic");
    g.sample_size(10);
    g.bench_function("cold: caching disabled", |b| {
        let engine = Engine::new(EngineConfig::default()).with_cache_capacity(0);
        b.iter(|| {
            engine
                .batch(&traffic.instances(), |e, &(q, d)| e.solve(q, d))
                .iter()
                .filter(|r| r.exists)
                .count()
        })
    });
    g.bench_function("cached: warm engine across batches", |b| {
        let engine = Engine::new(EngineConfig::default());
        b.iter(|| {
            engine
                .batch(&traffic.instances(), |e, &(q, d)| e.solve(q, d))
                .iter()
                .filter(|r| r.exists)
                .count()
        })
    });
    g.finish();

    // Report the cache effectiveness a single warm pass ends with.
    let engine = Engine::new(EngineConfig::default());
    engine.batch(&traffic.instances(), |e, &(q, d)| e.solve(q, d));
    let stats = engine.cache_stats();
    println!(
        "E13: one warm pass over the mixed trace: {} misses (distinct queries), {} hits, {} cached plans",
        stats.misses, stats.hits, stats.entries
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
