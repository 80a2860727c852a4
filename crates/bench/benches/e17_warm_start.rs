//! E17 — warm start: cold preparation vs `load_plans` across the workload
//! fleet.
//!
//! The experiment isolates exactly the cost the plan store amortizes away:
//!
//! * **cold prepare** — a fresh engine prepares every `distinct_query_fleet`
//!   query (core + three exponential width DPs) and materializes the lazy
//!   artifacts (sentence, staircase, counting certificates), i.e. the work
//!   a process restart used to repay in full;
//! * **warm load** — a fresh engine adopts the same plans from a store file:
//!   decode + full verification (fingerprint, hom-equivalence, certificate
//!   validity, sentence recompilation) but **zero** width DPs and zero core
//!   computations — asserted through `PrepStats`, not assumed.
//!
//! Correctness is asserted before timing: the warm engine's decision and
//! counting reports over the whole fleet × target batch are bit-identical
//! to the cold engine's.
//!
//! Full mode writes the machine-readable `BENCH_E17.json` at the repository
//! root.  Quick mode (`CQ_BENCH_QUICK=1`, the CI bench-smoke step) skips
//! the rewrite and instead gates the measured load-vs-prepare speedup
//! against the checked-in baseline with a generous 1.5x floor.

use cq_bench::{json_field_f64, median_time, quick_mode, timing_runs};
use cq_core::{Engine, EngineConfig};
use cq_structures::{families, Structure};
use cq_workloads::distinct_query_fleet;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

const FLEET: usize = 12;

/// The full per-query cost a cold process pays: preparation plus every lazy
/// artifact the store would have carried.
fn prepare_cold(config: EngineConfig, fleet: &[Structure]) -> Engine {
    let engine = Engine::new(config);
    for q in fleet {
        let plan = engine.prepare(q);
        plan.sentence();
        plan.staircase();
        plan.counting_analysis();
    }
    engine
}

fn bench(c: &mut Criterion) {
    let config = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    let fleet = distinct_query_fleet(FLEET);
    let targets = [
        families::clique(3),
        families::clique(4),
        families::grid(3, 3),
        families::cycle(6),
    ];
    let batch: Vec<(&Structure, &Structure)> = fleet
        .iter()
        .flat_map(|q| targets.iter().map(move |t| (q, t)))
        .collect();
    let mut store_path = std::env::temp_dir();
    store_path.push(format!("cq_e17_plans_{}.bin", std::process::id()));

    // Reference engine: full cold pass, then save the store once.
    let cold_engine = prepare_cold(config, &fleet);
    let cold_reports = cold_engine.batch(&batch, |e, &(q, d)| e.solve(q, d));
    let cold_counts = cold_engine.batch(&batch, |e, &(q, d)| e.count_instance(q, d));
    let saved = cold_engine.save_plans(&store_path).expect("save_plans");
    assert_eq!(saved, FLEET as u64);
    let store_bytes = std::fs::metadata(&store_path).expect("store file").len();
    println!(
        "E17: {FLEET} distinct queries, {} instances, store file {store_bytes} bytes",
        batch.len()
    );

    // Correctness before timing: a warm engine is bit-identical and runs
    // zero per-query exponential work.
    let warm_engine = Engine::new(config)
        .with_plan_store(&store_path)
        .expect("warm start");
    let stats = warm_engine.prep_stats();
    assert_eq!(stats.plans_loaded, FLEET as u64);
    assert_eq!(stats.plans_rejected, 0);
    assert_eq!(
        warm_engine.batch(&batch, |e, &(q, d)| e.solve(q, d)),
        cold_reports
    );
    assert_eq!(
        warm_engine.batch(&batch, |e, &(q, d)| e.count_instance(q, d)),
        cold_counts
    );
    let stats = warm_engine.prep_stats();
    assert_eq!(stats.preparations, 0, "warm path prepared a plan");
    assert_eq!(stats.total_width_calls(), 0, "warm path ran a width DP");
    assert_eq!(stats.core_computations, 0, "warm path recomputed a core");
    println!(
        "  warm engine bit-identical over {} instances, zero width DPs / cores",
        batch.len()
    );

    let cold_prepare = median_time(timing_runs(3, 7), || {
        std::hint::black_box(prepare_cold(config, &fleet));
    });
    let warm_load = median_time(timing_runs(3, 7), || {
        let engine = Engine::new(config);
        let summary = engine.load_plans(&store_path).expect("load_plans");
        assert_eq!(summary.loaded, FLEET as u64);
        std::hint::black_box(engine);
    });
    let speedup = cold_prepare.as_secs_f64() / warm_load.as_secs_f64();
    println!(
        "  cold prepare {cold_prepare:>10.3?} | warm load {warm_load:>10.3?} | speedup {speedup:.2}x"
    );

    let _ = std::fs::remove_file(&store_path);

    if quick_mode() {
        gate_against_baseline(speedup);
        return;
    }

    write_json(cold_prepare, warm_load, speedup, store_bytes, batch.len());

    let mut g = c.benchmark_group("e17");
    g.sample_size(10);
    g.bench_function("cold: prepare fleet (DPs + lazy artifacts)", |b| {
        b.iter(|| std::hint::black_box(prepare_cold(config, &fleet)))
    });
    let reload_path = {
        let engine = prepare_cold(config, &fleet);
        let mut p = std::env::temp_dir();
        p.push(format!("cq_e17_reload_{}.bin", std::process::id()));
        engine.save_plans(&p).expect("save");
        p
    };
    g.bench_function("warm: load_plans (decode + verify, zero DPs)", |b| {
        b.iter(|| {
            let engine = Engine::new(config);
            engine.load_plans(&reload_path).expect("load");
            std::hint::black_box(engine);
        })
    });
    g.finish();
    let _ = std::fs::remove_file(&reload_path);
}

/// The CI regression gate of quick mode: the measured load-vs-prepare
/// speedup must hold a generous 1.5x floor, and is diffed against the
/// checked-in `BENCH_E17.json` for the log.
fn gate_against_baseline(speedup: f64) {
    const FLOOR: f64 = 1.5;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E17.json");
    let baseline = std::fs::read_to_string(path)
        .ok()
        .and_then(|json| json_field_f64(&json, "\"speedup\": "));
    match baseline {
        Some(recorded) => println!(
            "  quick-mode gate: measured {speedup:.2}x | baseline {recorded:.2}x | delta {:+.1}%",
            (speedup / recorded - 1.0) * 100.0
        ),
        None => println!("  quick-mode gate: measured {speedup:.2}x (no readable baseline)"),
    }
    assert!(
        speedup >= FLOOR,
        "E17 warm-start regression: load_plans is only {speedup:.2}x faster than cold \
         preparation (floor {FLOOR}x)"
    );
    println!("  quick-mode gate passed: warm start holds the {FLOOR}x floor");
}

/// Emit `BENCH_E17.json` at the repository root, machine-readable.
fn write_json(
    cold_prepare: Duration,
    warm_load: Duration,
    speedup: f64,
    store_bytes: u64,
    instances: usize,
) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let out = format!(
        "{{\n  \"experiment\": \"e17_warm_start\",\n  \"corpus\": {{\"fleet\": {FLEET}, \
         \"instances\": {instances}, \"store_bytes\": {store_bytes}}},\n  \
         \"cold_prepare_ms\": {:.3},\n  \"warm_load_ms\": {:.3},\n  \"speedup\": {:.2},\n  \
         \"warm_width_dps\": 0,\n  \"warm_core_computations\": 0\n}}\n",
        ms(cold_prepare),
        ms(warm_load),
        speedup
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E17.json");
    std::fs::write(path, out).expect("write BENCH_E17.json at the repo root");
    println!("  wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
