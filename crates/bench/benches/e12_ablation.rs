//! E12 — ablations: core preprocessing on/off, arc consistency on/off, and
//! tier removals in the dispatch engine.
//!
//! With the prepared-query engine, tier ablations are one builder call
//! (`Engine::without_tier`) rather than code forks: the same batch of
//! instances is driven through engines whose tier orders differ by one
//! tier, and the dispatch / answers are compared directly.

use cq_core::{Engine, EngineConfig, SolverChoice};
use cq_solver::backtrack::{BacktrackConfig, BacktrackSolver};
use cq_structures::families;
use cq_workloads::database_fleet;
use criterion::{criterion_group, criterion_main, Criterion};

/// An engine with the standard tiers, minus `removed` when given.
fn ablated(cfg: EngineConfig, removed: Option<SolverChoice>) -> Engine {
    match removed {
        None => Engine::new(cfg),
        Some(choice) => Engine::new(cfg).without_tier(choice),
    }
}

fn bench(c: &mut Criterion) {
    println!("E12: ablation — search effort with and without arc consistency");
    let a = families::cycle(7);
    let b = families::path(2);
    let with_ac = BacktrackSolver::default().solve(&a, &b).1;
    let without_ac = BacktrackSolver::with_config(BacktrackConfig {
        preprocess_arc_consistency: false,
        maintain_arc_consistency: false,
        fail_first_ordering: true,
    })
    .solve(&a, &b)
    .1;
    println!(
        "  C7 -> K2 (no): assignments with AC = {}, without AC = {}",
        with_ac.assignments, without_ac.assignments
    );

    println!("E12: ablation — core preprocessing shrinks the evaluated query");
    let c8 = families::cycle(8);
    let with_core = Engine::new(EngineConfig::default()).solve(&c8, &families::path(2));
    let without_core = Engine::new(EngineConfig {
        use_core: false,
        ..EngineConfig::default()
    })
    .solve(&c8, &families::path(2));
    println!(
        "  C8 query: evaluated size with core = {}, without = {}",
        with_core.evaluated_query_size, without_core.evaluated_query_size
    );

    println!("E12: ablation — decision tiers removed from the dispatch order");
    let cfg = EngineConfig::default();
    let star = families::star(5);
    let fleet = database_fleet(6, 12, 0.35, 3);
    let ablations: [(&str, Option<SolverChoice>); 3] = [
        ("all tiers", None),
        ("without tree-depth tier", Some(SolverChoice::TreeDepth)),
        (
            "without path-sweep tier",
            Some(SolverChoice::PathDecomposition),
        ),
    ];
    for (name, removed) in &ablations {
        let engine = ablated(cfg, *removed);
        let report = engine.solve(&star, &fleet[0]);
        println!("  {name:<28} star(5) dispatched to {:?}", report.choice);
    }

    let mut g = c.benchmark_group("e12");
    g.sample_size(10);
    let query = families::cycle(6);
    let target = families::grid(3, 3);
    g.bench_function("engine with core preprocessing", |bch| {
        bch.iter(|| {
            Engine::new(EngineConfig::default())
                .solve(&query, &target)
                .exists
        })
    });
    g.bench_function("engine without core preprocessing", |bch| {
        bch.iter(|| {
            Engine::new(EngineConfig {
                use_core: false,
                ..EngineConfig::default()
            })
            .solve(&query, &target)
            .exists
        })
    });
    g.finish();

    // Tier-ablation throughput: the same repeated-query batch through all
    // tiers and through engines with one tier removed (batch API, warm
    // cache): how much each licensed tier is worth.
    let mut g = c.benchmark_group("e12-tiers");
    g.sample_size(10);
    for (name, removed) in &ablations {
        let engine = ablated(cfg, *removed);
        let id = engine.register(&star);
        let batch: Vec<_> = fleet.iter().map(|db| (id, db)).collect();
        g.bench_function(*name, |bch| {
            bch.iter(|| {
                engine
                    .batch(&batch, |e, &(id, d)| e.solve_prepared(&e.prepared(id), d))
                    .iter()
                    .filter(|r| r.exists)
                    .count()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
