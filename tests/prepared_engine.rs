//! End-to-end test of the prepared-query engine through the facade crate:
//! register queries, evaluate a batch, inspect the cache — the workflow a
//! downstream service embedding `cq-fine` would run.

use cq_fine::classification::{Engine, EngineConfig, QueryId, SolverChoice};
use cq_fine::structures::{families, homomorphism_exists, relabeled, star_expansion, Structure};

#[test]
fn batch_workflow_through_the_facade() {
    let engine = Engine::new(EngineConfig::default());

    // Register a mixed bag of queries, one per solver tier.
    let star = families::star(4);
    let colored_path = star_expansion(&families::path(9)); // td 4 > threshold: path tier
    let clique = families::clique(5); // treewidth 4 > threshold: backtracking tier
    let ids: Vec<QueryId> = [&star, &colored_path, &clique]
        .into_iter()
        .map(|q| engine.register(q))
        .collect();

    let targets: Vec<Structure> = vec![
        families::clique(4),
        families::cycle(6),
        families::grid(3, 3),
    ];

    let batch: Vec<(QueryId, &Structure)> = targets
        .iter()
        .flat_map(|t| ids.iter().map(move |&id| (id, t)))
        .collect();
    let reports = engine.batch(&batch, |e, &(id, d)| e.solve_prepared(&e.prepared(id), d));
    assert_eq!(reports.len(), batch.len());

    let queries = [&star, &colored_path, &clique];
    for ((report, (_, t)), q) in reports.iter().zip(&batch).zip(queries.iter().cycle()) {
        assert_eq!(report.exists, homomorphism_exists(q, t), "{q} -> {t}");
    }

    // The tiers were actually exercised.
    let choices: Vec<SolverChoice> = reports.iter().take(3).map(|r| r.choice).collect();
    assert_eq!(
        choices,
        [
            SolverChoice::TreeDepth,
            SolverChoice::PathDecomposition,
            SolverChoice::Backtracking
        ]
    );

    // Re-registering an equivalent query is a cache hit, not a new plan.
    let scrambled: Vec<usize> = (0..star.universe_size()).rev().collect();
    engine.register(&relabeled(&star, &scrambled));
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.hits, 1);
}
