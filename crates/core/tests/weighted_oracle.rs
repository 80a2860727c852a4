//! Differential **weighted-aggregate** oracle: on a seeded corpus of
//! random (query, structure, weights) triples, every tier of
//! [`PreparedQuery::aggregate`] must return the same min-cost / max-weight as
//! the structure-agnostic reference (enumerate every homomorphism with
//! [`homomorphisms_iter`], cost each by summing image-tuple weights) — the
//! weighted analogue of `counting_oracle.rs`.
//!
//! Weighted aggregates share counting's failure mode (a tier silently
//! optimizing over the **core**'s homomorphisms misses cost-distinct
//! homomorphisms the core collapses), plus one of their own: a kernel bag
//! charging a tuple's weight twice (or not at all) still *decides* and
//! *counts* correctly — only a weighted differential catches it.  The
//! corpus weights are deliberately non-uniform so every double-charge
//! shifts some optimum.

use cq_core::{AggregateObjective, CountMethod, Engine, EngineConfig, PreparedQuery};
use cq_structures::{homomorphisms_iter, Structure, StructureIndex, TupleWeights};
use cq_workloads::{random_digraph_structure, random_graph_structure, weighted_traffic};

/// Same thresholds as the counting oracle: generous enough that the
/// structural tiers admit most of the corpus on the original query's
/// widths, small enough that the DP tables stay testable.
fn oracle_config() -> EngineConfig {
    EngineConfig {
        treedepth_threshold: 4,
        pathwidth_threshold: 3,
        treewidth_threshold: 3,
        ..EngineConfig::default()
    }
}

/// Deterministic non-uniform weights: a fixed formula of the symbol, the
/// row id and the tuple's first element — no RNG, so every failure
/// reproduces from the corpus labels alone.
fn test_weights(db: &Structure) -> TupleWeights {
    TupleWeights::from_fn(db, |sym, row, t| {
        (sym.index() as u64 + 1) * 7 + row as u64 * 3 + t.first().copied().unwrap_or(0) as u64 % 5
    })
}

/// The reference: enumerate every homomorphism, cost each one by summing
/// the weights of its image tuples, and fold with min / max.  Uses none of
/// the prepared certificates, so a disagreement means an aggregate solver
/// (or the certificate it consumed) is wrong.
fn bruteforce_aggregates(
    query: &Structure,
    db: &Structure,
    index: &StructureIndex,
    weights: &TupleWeights,
) -> (Option<u64>, Option<u64>) {
    let mut min: Option<u64> = None;
    let mut max: Option<u64> = None;
    for h in homomorphisms_iter(query, db) {
        let mut cost = 0u64;
        for sym in query.vocabulary().ids() {
            let db_sym = db
                .vocabulary()
                .id_of(query.vocabulary().name(sym))
                .expect("query vocabulary interpretable in the database");
            for t in query.relation(sym).rows() {
                let image: Vec<u32> = t.iter().map(|&v| h[v as usize] as u32).collect();
                let row = index
                    .row_of(db_sym, &image)
                    .expect("a homomorphism's image is a database tuple");
                cost += weights.get(db_sym, row);
            }
        }
        min = Some(min.map_or(cost, |m| m.min(cost)));
        max = Some(max.map_or(cost, |m| m.max(cost)));
    }
    (min, max)
}

/// The seeded corpus of `counting_oracle.rs`, reused verbatim: small random
/// undirected and directed queries against larger random targets.
fn corpus() -> Vec<(String, Structure, Structure)> {
    let mut pairs = Vec::new();
    for n in 3..6 {
        for seed in 0..4 {
            let query = random_graph_structure(n, 0.45, seed);
            for (tn, tseed) in [(6usize, 100u64), (8, 101)] {
                let target = random_graph_structure(tn, 0.4, tseed + seed);
                pairs.push((
                    format!(
                        "graph q=(n={n}, seed={seed}) t=(n={tn}, seed={})",
                        tseed + seed
                    ),
                    query.clone(),
                    target,
                ));
            }
        }
    }
    for n in 3..6 {
        for seed in 0..4 {
            let query = random_digraph_structure(n, 0.35, seed);
            for (tn, tseed) in [(6usize, 200u64), (8, 201)] {
                let target = random_digraph_structure(tn, 0.35, tseed + seed);
                pairs.push((
                    format!(
                        "digraph q=(n={n}, seed={seed}) t=(n={tn}, seed={})",
                        tseed + seed
                    ),
                    query.clone(),
                    target,
                ));
            }
        }
    }
    pairs
}

#[test]
fn every_aggregate_solver_agrees_with_bruteforce_on_the_corpus() {
    let config = oracle_config();
    let methods = [
        CountMethod::ForestSumProduct,
        CountMethod::TreeDecompositionDp,
        CountMethod::BruteForce,
    ];

    let mut comparisons = 0usize;
    let mut disagreements = Vec::new();
    for (label, query, target) in corpus() {
        let prepared = PreparedQuery::prepare(&query, &config);
        let index = StructureIndex::new(&target);
        let weights = test_weights(&target);
        let (expected_min, expected_max) = bruteforce_aggregates(&query, &target, &index, &weights);
        for method in methods {
            if !method.admits(prepared.counting_widths(), &config) {
                continue;
            }
            for (objective, expected) in [
                (AggregateObjective::MinCost, expected_min),
                (AggregateObjective::MaxWeight, expected_max),
            ] {
                comparisons += 1;
                let got = prepared.aggregate(method, &index, &weights, objective);
                if got != expected {
                    disagreements.push(format!(
                        "{method:?} {objective} says {got:?}, brute force says {expected:?} on {label}:\n  query  {query}\n  target {target}"
                    ));
                }
            }
        }
    }
    assert!(
        disagreements.is_empty(),
        "{} weighted disagreement(s):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
    // The oracle must not silently go vacuous.
    assert!(
        comparisons >= 100,
        "only {comparisons} weighted comparisons ran — corpus or thresholds degenerated"
    );
}

/// The engine entry points against the closed-form weighted workload:
/// `Engine::aggregate` under both objectives must reproduce every
/// closed form through the cached-plan path (the workload's query fleet
/// crosses the core-invariance trap on every other instance).
#[test]
fn engine_matches_the_closed_forms_of_the_weighted_workload() {
    let w = weighted_traffic(&[3, 4, 5], 4, 11);
    let engine = Engine::new(oracle_config());
    for (i, (query, db, weights)) in w.instances().into_iter().enumerate() {
        let min = engine.aggregate(query, db, weights, AggregateObjective::MinCost);
        let max = engine.aggregate(query, db, weights, AggregateObjective::MaxWeight);
        assert_eq!(
            min.value, w.expected_min[i],
            "min-cost wrong on trace entry {i} ({query} -> {db}), method {:?}",
            min.method
        );
        assert_eq!(
            max.value, w.expected_max[i],
            "max-weight wrong on trace entry {i} ({query} -> {db}), method {:?}",
            max.method
        );
        assert_eq!(min.objective, AggregateObjective::MinCost);
        assert_eq!(max.objective, AggregateObjective::MaxWeight);
    }
    // The workload has 4 distinct queries; the whole trace must have been
    // served from 4 cached plans (aggregates share the decision/counting
    // plan cache).
    assert_eq!(engine.prep_stats().preparations, 4);
}

/// Weighted batch determinism: `Engine::batch` over `aggregate` under both
/// objectives and any worker count returns sequences bit-identical to the
/// sequential path (the guarantee batched counts make, extended to
/// aggregates).
#[test]
fn weighted_batches_are_bit_identical_across_worker_counts() {
    let w = weighted_traffic(&[3, 4, 5], 6, 23);
    let instances = w.instances();
    let aggregate_all = |engine: &Engine, objective| {
        engine.batch(&instances, |e, &(q, d, w)| e.aggregate(q, d, w, objective))
    };
    let sequential = Engine::new(EngineConfig {
        workers: 1,
        ..oracle_config()
    });
    let expected_min = aggregate_all(&sequential, AggregateObjective::MinCost);
    let expected_max = aggregate_all(&sequential, AggregateObjective::MaxWeight);
    for (i, report) in expected_min.iter().enumerate() {
        assert_eq!(
            report.value, w.expected_min[i],
            "sequential min wrong at {i}"
        );
    }
    for workers in [2usize, 4] {
        let parallel = Engine::new(EngineConfig {
            workers,
            ..oracle_config()
        });
        assert_eq!(
            aggregate_all(&parallel, AggregateObjective::MinCost),
            expected_min,
            "min-cost batch diverged at workers={workers}"
        );
        assert_eq!(
            aggregate_all(&parallel, AggregateObjective::MaxWeight),
            expected_max,
            "max-weight batch diverged at workers={workers}"
        );
        assert_eq!(
            parallel.prep_stats().preparations,
            sequential.prep_stats().preparations,
            "workers={workers} prepared a different number of plans"
        );
    }
}

/// No homomorphism means `None` on both objectives through the engine —
/// and swapping the aggregate tier changes the method, never the value.
#[test]
fn unsatisfiable_instances_and_ablations_behave() {
    use cq_structures::families;
    use AggregateObjective::{MaxWeight, MinCost};
    let engine = Engine::new(oracle_config());
    // C3 has no homomorphism into bipartite C4.
    let c3 = families::cycle(3);
    let c4 = families::cycle(4);
    let weights = TupleWeights::uniform(&c4, 1);
    assert_eq!(engine.aggregate(&c3, &c4, &weights, MinCost).value, None);
    assert_eq!(engine.aggregate(&c3, &c4, &weights, MaxWeight).value, None);

    let star = families::star(3);
    let k4 = families::clique(4);
    let wk4 = test_weights(&k4);
    let full = engine.aggregate(&star, &k4, &wk4, MinCost);
    assert_eq!(full.method, CountMethod::TreeDecompositionDp);
    let plan = engine.prepare(&star);
    let index = engine.instance_index(&k4);
    let searched = plan.aggregate(CountMethod::BruteForce, &index, &wk4, MinCost);
    assert_eq!(
        full.value, searched,
        "swapping the tier changed the optimum"
    );
}
