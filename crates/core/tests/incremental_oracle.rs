//! Differential **incremental-evaluation** oracle: drive an engine through
//! rounds of [`DeltaBatch`] mutations ([`Engine::apply_delta`] /
//! [`Engine::apply_delta_chained`]) and, after **every** round, compare
//! decide, count and min-cost answers on the mutated database against a
//! fresh cold engine that has never seen a delta — the update-regime
//! analogue of `differential_oracle.rs`.
//!
//! The warm engine answers through the delta-maintained [`StructureIndex`]
//! and whatever retained DP join tables survived the round; the cold
//! engine indexes and evaluates from scratch.  A disagreement means the
//! in-place index maintenance, the retained-table reuse, or the weight
//! table maintenance dropped or double-applied part of a delta.
//!
//! Warm and cold counts take the same tier (the tree DP, retained only on
//! the warm side), so each warm count is also checked against
//! [`count_homomorphisms_bruteforce`], an algorithm that shares nothing
//! with the DP.
//!
//! Weights are a pure function of the tuple **content** (never the row
//! id), so the incrementally maintained [`TupleWeights`] and the cold
//! engine's freshly built table must assign every tuple the same weight
//! even though churn permutes row ids via swap-remove.

use cq_core::{AggregateObjective, CountMethod, Engine, EngineConfig};
use cq_structures::{count_homomorphisms_bruteforce, families, Structure, SymbolId, TupleWeights};
use cq_workloads::{mutation_traffic, random_digraph_structure, random_graph_structure};

/// Same thresholds as the other differential oracles: every structural
/// tier admits most of the corpus, tables stay testable.
fn oracle_config() -> EngineConfig {
    EngineConfig {
        treedepth_threshold: 4,
        pathwidth_threshold: 3,
        treewidth_threshold: 3,
        ..EngineConfig::default()
    }
}

/// Deterministic content-keyed weights: a function of the symbol and the
/// tuple's elements only, so maintained and freshly built tables agree by
/// construction whenever both are aligned with the same structure.
fn weight_of(sym: SymbolId, tuple: &[u32]) -> u64 {
    let spread: u64 = tuple
        .iter()
        .enumerate()
        .map(|(pos, &e)| (u64::from(e) + 1) * (pos as u64 * 5 + 3))
        .sum();
    (sym.index() as u64 + 1) * 11 + spread % 97
}

/// One corpus entry: a database plus the queries evaluated against it
/// after every mutation round.
fn corpus() -> Vec<(String, Structure, Vec<Structure>)> {
    vec![
        (
            "graph (n=24, seed=11)".to_string(),
            random_graph_structure(24, 0.2, 11),
            vec![
                families::path(4),
                families::cycle(5),
                families::star(3),
                random_graph_structure(4, 0.5, 3),
            ],
        ),
        (
            "digraph (n=20, seed=13)".to_string(),
            random_digraph_structure(20, 0.25, 13),
            vec![
                random_digraph_structure(3, 0.5, 1),
                random_digraph_structure(4, 0.4, 2),
            ],
        ),
    ]
}

#[test]
fn delta_path_agrees_with_a_cold_engine_after_every_round() {
    const ROUNDS: usize = 8;
    const CHURN: f64 = 0.08;
    let mut comparisons = 0usize;
    let mut tree_dp_counts = 0usize;
    for (label, db, queries) in corpus() {
        let warm = Engine::new(oracle_config());
        let batches = mutation_traffic(&db, ROUNDS, CHURN, 0xA11CE);
        assert_eq!(batches.len(), ROUNDS, "traffic generator degenerated");
        let mut weights = TupleWeights::from_fn(&db, |sym, _, t| weight_of(sym, t));
        let mut report = None;
        for (round, batch) in batches.iter().enumerate() {
            // Round 0 enters by reference; later rounds consume the
            // previous report so the engine mutates its index in place.
            let next = match report.take() {
                None => warm.apply_delta(&db, batch),
                Some(prev) => warm.apply_delta_chained(prev, batch),
            }
            .expect("mutation_traffic emits only valid batches");
            weights.apply_delta(next.applied(), weight_of);
            let now = next.database().clone();
            assert!(
                weights.matches(&now),
                "{label} round {round}: maintained weight table misaligned"
            );

            // The cold reference: a brand-new engine and a freshly built
            // weight table over the same mutated database.
            let cold = Engine::new(oracle_config());
            let cold_weights = TupleWeights::from_fn(&now, |sym, _, t| weight_of(sym, t));
            for (qi, query) in queries.iter().enumerate() {
                let warm_decide = warm.solve(query, &now);
                let cold_decide = cold.solve(query, &now);
                assert_eq!(
                    warm_decide.exists, cold_decide.exists,
                    "{label} round {round} query {qi}: delta-path decide diverged"
                );
                let warm_count = warm.count_instance(query, &now);
                let cold_count = cold.count_instance(query, &now);
                assert_eq!(
                    warm_count.count, cold_count.count,
                    "{label} round {round} query {qi}: delta-path count diverged"
                );
                assert_eq!(
                    warm_count.count,
                    count_homomorphisms_bruteforce(query, &now),
                    "{label} round {round} query {qi}: delta-path count wrong"
                );
                if warm_count.widths.treewidth <= oracle_config().treewidth_threshold {
                    assert_eq!(
                        warm_count.method,
                        CountMethod::TreeDecompositionDp,
                        "{label} query {qi}: bounded treewidth must count through the tree DP"
                    );
                    tree_dp_counts += 1;
                }
                let warm_min = warm.aggregate(query, &now, &weights, AggregateObjective::MinCost);
                let cold_min =
                    cold.aggregate(query, &now, &cold_weights, AggregateObjective::MinCost);
                assert_eq!(
                    warm_min.value, cold_min.value,
                    "{label} round {round} query {qi}: delta-path min-cost diverged"
                );
                comparisons += 4;
            }
            report = Some(next);
        }
    }
    assert!(
        comparisons >= 100,
        "only {comparisons} comparisons ran — corpus or traffic degenerated"
    );
    assert!(
        tree_dp_counts >= 40,
        "only {tree_dp_counts} tree-DP counts ran — corpus degenerated"
    );
}

#[test]
fn chained_and_unchained_delta_application_agree() {
    // The two entry points differ only in ownership (chained consumes the
    // previous report to mutate in place); the resulting database and the
    // answers on it must be identical round for round.
    let db = random_graph_structure(18, 0.25, 5);
    let query = families::cycle(4);
    let batches = mutation_traffic(&db, 6, 0.1, 99);
    let chained_engine = Engine::new(oracle_config());
    let stepwise_engine = Engine::new(oracle_config());
    let mut chained = None;
    let mut current = db.clone();
    for (round, batch) in batches.iter().enumerate() {
        let next = match chained.take() {
            None => chained_engine.apply_delta(&db, batch),
            Some(prev) => chained_engine.apply_delta_chained(prev, batch),
        }
        .expect("valid batch");
        // The unchained route: re-enter by reference every round.
        let step = stepwise_engine
            .apply_delta(&current, batch)
            .expect("valid batch");
        current = step.database().clone();
        assert_eq!(
            next.database(),
            &current,
            "round {round}: chained and unchained structures diverged"
        );
        assert_eq!(
            chained_engine.solve(&query, &current).exists,
            stepwise_engine.solve(&query, &current).exists,
            "round {round}: decisions diverged"
        );
        chained = Some(next);
    }
}
