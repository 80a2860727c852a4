//! E15 — counting through the prepared engine: cold preparation vs
//! cached-plan counting throughput, and the worker sweep over
//! `Engine::batch` over `Engine::count_instance`.
//!
//! Three parts, printed as tables:
//!
//! 1. **Cold vs cached** — the `counting_traffic` trace (closed-form
//!    expected counts) through a fresh engine (every distinct query pays
//!    preparation *and* counting-certificate materialization) vs a warm
//!    engine (pure per-database counting);
//! 2. **Worker sweep** — the same trace with `workers = 1, 2, 4, 8`:
//!    wall-clock per batch; the counts are asserted bit-identical across
//!    all worker counts and equal to the closed forms;
//! 3. **PrepStats audit** — after warm-up, a cached counting run must
//!    perform **zero** additional decomposition passes (the acceptance
//!    criterion of the counting pipeline), asserted via
//!    [`cq_core::PrepStats`].

use cq_bench::median_time;
use cq_core::{CountReport, Engine, EngineConfig};
use cq_structures::Structure;
use cq_workloads::counting_traffic;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn engine_with_workers(workers: usize) -> Engine {
    Engine::new(EngineConfig {
        workers,
        ..EngineConfig::default()
    })
}

/// Count every instance through the engine's one batch form.
fn count_all(engine: &Engine, instances: &[(&Structure, &Structure)]) -> Vec<CountReport> {
    engine.batch(instances, |e, &(q, d)| e.count_instance(q, d))
}

fn bench(c: &mut Criterion) {
    // Clique targets big enough that per-instance counting is real work,
    // repeats low enough that cold preparation is a visible share of the
    // batch (the cold/cached ratio is the point of part 1).
    let traffic = counting_traffic(&[4, 5, 6], 6, 42);
    let instances = traffic.instances();
    println!(
        "E15: counting trace of {} instances ({} distinct queries, targets K4/K5/K6)",
        instances.len(),
        traffic.queries.len()
    );

    // ---- Cold vs cached ----
    let cold = median_time(5, || {
        let engine = engine_with_workers(1);
        let reports = count_all(&engine, &instances);
        assert_eq!(reports.len(), instances.len());
    });
    let warm_engine = engine_with_workers(1);
    count_all(&warm_engine, &instances); // warm plans + counting certificates
    let cached = median_time(5, || {
        count_all(&warm_engine, &instances);
    });
    println!("  cold   (prepare + count): {cold:>12.3?}");
    println!(
        "  cached (count only):      {cached:>12.3?}  ({:.2}x)",
        cold.as_secs_f64() / cached.as_secs_f64()
    );

    // ---- PrepStats audit: zero additional decomposition passes ----
    let before = warm_engine.prep_stats();
    count_all(&warm_engine, &instances);
    let after = warm_engine.prep_stats();
    assert_eq!(
        before, after,
        "cached counting run re-ran preparation work: {before:?} -> {after:?}"
    );
    println!(
        "  prep audit: {} preparations, {} counting-certificate materializations, {} width DPs — all before the cached run, none during",
        after.preparations,
        after.counting_preparations,
        after.total_width_calls()
    );

    // ---- Worker sweep: counts bit-identical, closed forms hold ----
    println!("  workers | median batch time | speedup vs workers=1");
    let mut baseline: Option<(Duration, Vec<CountReport>)> = None;
    for workers in [1usize, 2, 4, 8] {
        let engine = engine_with_workers(workers);
        count_all(&engine, &instances); // warm
        let t = median_time(5, || {
            count_all(&engine, &instances);
        });
        let reports = count_all(&engine, &instances);
        for (report, &expected) in reports.iter().zip(&traffic.expected) {
            assert_eq!(report.count, expected, "closed-form count violated");
        }
        let (t1, expected_reports) = baseline.get_or_insert_with(|| (t, reports.clone()));
        assert_eq!(
            &reports, expected_reports,
            "workers={workers} diverged from the sequential reports"
        );
        println!(
            "  {workers:>7} | {t:>17.3?} | {:>6.2}x",
            t1.as_secs_f64() / t.as_secs_f64()
        );
    }

    // The cold/cached end points through the criterion harness, for the
    // uniform `bench ...` output lines the other experiments produce.
    let mut g = c.benchmark_group("e15");
    g.sample_size(10);
    g.bench_function("cold: batched counts, fresh engine each run", |b| {
        b.iter(|| count_all(&engine_with_workers(1), &instances).len())
    });
    g.bench_function("cached: batched counts, warm engine", |b| {
        let engine = engine_with_workers(1);
        count_all(&engine, &instances);
        b.iter(|| count_all(&engine, &instances).len())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
