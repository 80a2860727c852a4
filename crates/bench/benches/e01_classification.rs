//! E1 — Theorem 3.1: classify named query classes into the three degrees.
//! Regenerates the classification table (degree per family) and benchmarks
//! the classification routine itself, plus the engine's batch evaluation of
//! one representative member per degree.

use cq_core::{classify_generated, Degree, Engine, EngineConfig};
use cq_structures::{families, star_expansion};
use cq_workloads::database_fleet;
use criterion::{criterion_group, criterion_main, Criterion};

type FamilyRow = (
    &'static str,
    Box<dyn Fn(usize) -> cq_structures::Structure>,
    Degree,
);

fn families_table() -> Vec<FamilyRow> {
    vec![
        (
            "undirected paths",
            Box::new(|i| families::path(i + 2)),
            Degree::ParaL,
        ),
        ("stars", Box::new(|i| families::star(i + 1)), Degree::ParaL),
        (
            "even cycles",
            Box::new(|i| families::cycle(2 * i + 4)),
            Degree::ParaL,
        ),
        (
            "directed paths",
            Box::new(|i| families::directed_path(i + 2)),
            Degree::PathComplete,
        ),
        (
            "coloured paths P*",
            Box::new(|i| star_expansion(&families::path(i + 2))),
            Degree::PathComplete,
        ),
        (
            "odd cycles",
            Box::new(|i| families::cycle(2 * i + 3)),
            Degree::PathComplete,
        ),
        (
            "coloured trees T*",
            Box::new(|i| star_expansion(&families::tree_t(i + 1))),
            Degree::TreeComplete,
        ),
        (
            "cliques",
            Box::new(|i| families::clique(i + 1)),
            Degree::W1Hard,
        ),
        (
            "coloured grids",
            Box::new(|i| star_expansion(&families::grid(i + 1, i + 1))),
            Degree::W1Hard,
        ),
    ]
}

fn bench(c: &mut Criterion) {
    println!("E1: class -> degree (Theorem 3.1)");
    for (name, gen, expected) in families_table() {
        // Tree/grid families get expensive fast (the members grow
        // exponentially/quadratically), and odd cycles reach 2i+3 vertices —
        // exponential exact-width territory past ~7 samples.  The path-shaped
        // families need a longer prefix because tree depth grows only
        // logarithmically: at 6 samples the growth detector cannot yet see
        // td(->P_k) move.
        let samples = if name.contains("trees") || name.contains("grids") {
            3
        } else if name.contains("cycles") {
            7
        } else {
            10
        };
        let got = classify_generated(&*gen, samples).degree;
        println!("  {name:<22} expected {expected:?} measured {got:?}");
        assert_eq!(got, expected, "{name}");
    }
    let mut g = c.benchmark_group("e01");
    g.sample_size(10);
    g.bench_function("classify directed paths (6 samples)", |b| {
        b.iter(|| classify_generated(|i| families::directed_path(i + 2), 6).degree)
    });
    g.finish();

    // Batch evaluation of one representative query per degree against a
    // database fleet, through the prepared-query engine: each query is
    // prepared once (plan cache), each instance pays only solver work.
    let engine = Engine::new(EngineConfig::default());
    let representatives = [
        ("star (para-L)", families::star(4)),
        ("odd cycle (PATH)", families::cycle(7)),
        ("clique K4 (tree DP)", families::clique(4)),
    ];
    let fleet = database_fleet(6, 12, 0.35, 5);
    let batch: Vec<_> = representatives
        .iter()
        .map(|(_, q)| engine.register(q))
        .flat_map(|id| fleet.iter().map(move |db| (id, db)))
        .collect();
    let mut g = c.benchmark_group("e01-batch");
    g.sample_size(10);
    g.bench_function("engine.batch (3 queries x 6 databases)", |b| {
        b.iter(|| {
            engine
                .batch(&batch, |e, &(id, d)| e.solve_prepared(&e.prepared(id), d))
                .iter()
                .filter(|r| r.exists)
                .count()
        })
    });
    g.finish();
    let stats = engine.cache_stats();
    println!(
        "E1: batch served with {} prepared plans ({} cache hits so far)",
        stats.entries, stats.hits
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
