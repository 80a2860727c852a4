//! Differential **counting** oracle: on a seeded corpus of random (query,
//! structure) pairs, every counting tier of [`CountMethod`] — the
//! dispatched `TreeDecompositionDp` and `BruteForce` and the Theorem
//! 6.1 (3) reference `ForestSumProduct` — must return the same number as
//! the structure-agnostic reference [`count_homomorphisms_bruteforce`] —
//! the counting analogue of `differential_oracle.rs`.
//!
//! Brute-force enumeration is the reference because it uses none of the
//! prepared certificates: a disagreement means a counting tier (or the
//! original-structure certificate it consumed) is wrong.  Failures print
//! the offending pair with the seeds that regenerate it, so every
//! counterexample reproduces exactly.
//!
//! Counting has a failure mode decision does not: a tier silently
//! counting the **core** instead of the original query returns a plausible
//! but wrong (smaller) number on every query with a proper core — the
//! corpus is full of such queries, and the closed-form regression at the
//! bottom pins the trap explicitly.

use cq_core::{CountMethod, Engine, EngineConfig, PreparedQuery};
use cq_structures::{core_of, count_homomorphisms_bruteforce, families, Structure, StructureIndex};
use cq_workloads::{random_digraph_structure, random_graph_structure};

/// Thresholds generous enough that the structural counters admit most of
/// the corpus **on the original query's widths** (counting never keys on
/// the core's), but small enough that the DP tables stay testable.
fn oracle_config() -> EngineConfig {
    EngineConfig {
        treedepth_threshold: 4,
        pathwidth_threshold: 3,
        treewidth_threshold: 3,
        ..EngineConfig::default()
    }
}

/// The seeded corpus: small random undirected and directed queries, each
/// paired with a handful of larger random targets of the same vocabulary.
/// Everything derives from the `(n, seed)` labels in the assertion
/// messages.
fn corpus() -> Vec<(String, Structure, Structure)> {
    let mut pairs = Vec::new();
    for n in 3..6 {
        for seed in 0..4 {
            let query = random_graph_structure(n, 0.45, seed);
            for (tn, tseed) in [(6usize, 100u64), (8, 101), (9, 102)] {
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
fn every_count_registry_solver_agrees_with_bruteforce_on_the_corpus() {
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
        let expected = count_homomorphisms_bruteforce(&query, &target);
        for method in methods {
            if !method.admits(prepared.counting_widths(), &config) {
                continue;
            }
            comparisons += 1;
            let got = prepared.count(method, &target, &index);
            if got != expected {
                disagreements.push(format!(
                    "{method:?} says {got}, brute force says {expected} on {label}:\n  query  {query}\n  target {target}"
                ));
            }
        }
    }
    assert!(
        disagreements.is_empty(),
        "{} counting disagreement(s):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
    // The oracle must not silently go vacuous (e.g. thresholds drifting so
    // no structural counter ever admits a corpus query).
    assert!(
        comparisons >= 150,
        "only {comparisons} counting comparisons ran — corpus or thresholds degenerated"
    );
}

/// Kernel-vs-reference **counting** oracle: the kernel group-sum tree DP
/// and the kernel forest sum–product must return the exact counts of the
/// retained reference implementations (`count_hom_via_tree_decomposition`,
/// `count_with_forest`) on every corpus pair, certificate for certificate.
#[test]
fn kernel_counting_agrees_with_the_retained_references_on_the_corpus() {
    use cq_solver::kernel::{ForestProgram, TreeDpProgram};
    let config = oracle_config();
    let mut comparisons = 0usize;
    let mut disagreements = Vec::new();
    for (label, query, target) in corpus() {
        let prepared = PreparedQuery::prepare(&query, &config);
        let index = StructureIndex::new(&target);
        let analysis = prepared.counting_analysis();

        let kernel_tree =
            TreeDpProgram::compile(prepared.original(), &index, &analysis.tree_decomposition)
                .count(&index);
        let reference_tree = cq_solver::treedec::count_hom_via_tree_decomposition(
            prepared.original(),
            &target,
            &analysis.tree_decomposition,
        );
        if kernel_tree.count != reference_tree {
            disagreements.push(format!(
                "TreeDec kernel counts {}, reference counts {reference_tree} on {label}:\n  query  {query}\n  target {target}",
                kernel_tree.count
            ));
        }
        comparisons += 1;

        let kernel_forest =
            ForestProgram::compile(prepared.original(), &index, &analysis.elimination_forest)
                .count(&index);
        let reference_forest = cq_solver::treedepth::count_with_forest(
            prepared.original(),
            &target,
            &analysis.elimination_forest,
        );
        if kernel_forest.count != reference_forest {
            disagreements.push(format!(
                "Forest kernel counts {}, reference counts {reference_forest} on {label}:\n  query  {query}\n  target {target}",
                kernel_forest.count
            ));
        }
        comparisons += 1;
    }
    assert!(
        disagreements.is_empty(),
        "{} kernel counting disagreement(s):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
    assert!(
        comparisons >= 100,
        "only {comparisons} kernel counting comparisons ran — corpus degenerated"
    );
}

/// The oracle repeated through prepared-plan reuse: counting the same
/// corpus through one engine (warm plan cache, every tier dispatched by
/// [`CountMethod::for_widths`]) matches brute force, and the parallel
/// `Engine::batch` over `count_instance` returns bit-identical sequences for every worker count.  Guards the
/// cache + counting-dispatch composition rather than individual tiers.
#[test]
fn engine_count_batch_over_the_corpus_matches_brute_force_for_every_worker_count() {
    let pairs = corpus();
    let batch: Vec<(&Structure, &Structure)> = pairs.iter().map(|(_, q, t)| (q, t)).collect();
    let sequential = Engine::new(EngineConfig {
        workers: 1,
        ..oracle_config()
    });
    let expected = sequential.batch(&batch, |e, &(q, d)| e.count_instance(q, d));
    for ((label, query, target), report) in pairs.iter().zip(&expected) {
        assert_eq!(
            report.count,
            count_homomorphisms_bruteforce(query, target),
            "engine ({:?}) wrong on {label}: {query} -> {target}",
            report.method
        );
    }
    for workers in [2usize, 4, 8] {
        let parallel = Engine::new(EngineConfig {
            workers,
            ..oracle_config()
        });
        let got = parallel.batch(&batch, |e, &(q, d)| e.count_instance(q, d));
        assert_eq!(got, expected, "workers={workers} diverged from sequential");
        assert_eq!(
            parallel.prep_stats().preparations,
            sequential.prep_stats().preparations,
            "workers={workers} prepared a different number of plans"
        );
    }
}

/// Regression pinning the core-invariance trap (the caveat of
/// Theorem 6.1): on a query with a non-trivial core, the decision engine
/// evaluates the core, but the count must be over the original structure —
/// closed-form expected values on both sides of the trap.
#[test]
fn counting_uses_the_original_query_even_when_decision_uses_the_core() {
    let engine = Engine::new(EngineConfig::default());
    let k3 = families::clique(3);

    // C8 cores down to an edge K2.  #hom(C_n, K_q) counts proper
    // q-colourings of the cycle: (q-1)^n + (-1)^n (q-1), so
    // #hom(C8, K3) = 2^8 + 2 = 258, while #hom(K2, K3) = 3·2 = 6.
    let c8 = families::cycle(8);
    let decision = engine.solve(&c8, &k3);
    assert!(decision.exists);
    assert_eq!(
        decision.evaluated_query_size, 2,
        "decision evaluates the core"
    );
    let core_count = count_homomorphisms_bruteforce(&core_of(&c8).core, &k3);
    assert_eq!(core_count, 6);
    let report = engine.count_instance(&c8, &k3);
    assert_eq!(report.count, 258, "count over the original C8");
    assert_ne!(report.count, core_count, "the trap is non-vacuous");
    assert_eq!(report.counted_query_size, 8);

    // P4 cores down to K2 as well: #hom(P_k, K_q) = q·(q-1)^(k-1), so
    // #hom(P4, K3) = 3·2³ = 24 against the same core count 6.
    let p4 = families::path(4);
    assert_eq!(engine.solve(&p4, &k3).evaluated_query_size, 2);
    assert_eq!(engine.count_instance(&p4, &k3).count, 24);

    // Both counting runs reused the decision plans (2 preparations, both
    // materializing original-structure certificates exactly once).
    let prep = engine.prep_stats();
    assert_eq!(prep.preparations, 2);
    assert_eq!(prep.counting_preparations, 2);
}

/// The Lemma 6.2 inclusion–exclusion reduction through the engine-backed
/// oracle: `Engine::count_star` agrees with directly counting from the star
/// expansion, while all oracle calls run over one cached plan.
#[test]
fn engine_backed_star_counting_matches_direct_counting() {
    let engine = Engine::new(EngineConfig::default());
    for (a, base) in [
        (families::path(3), families::cycle(5)),
        (families::cycle(4), families::clique(3)),
        (families::star(3), families::clique(3)),
    ] {
        let n = a.universe_size();
        let b =
            cq_structures::ops::colored_target(n, &base, |_| (0..base.universe_size()).collect());
        let expected = count_homomorphisms_bruteforce(&cq_structures::star_expansion(&a), &b);
        assert_eq!(engine.count_star(&a, &b), expected, "query {a}");
    }
    // Three distinct left-hand sides, each prepared exactly once despite
    // 2^n - 1 oracle calls apiece.
    assert_eq!(engine.prep_stats().preparations, 3);
}

/// Swapping the counting tier must change the method, never the number —
/// exercised against the corpus reference on a query every tier admits:
/// the engine's dispatched tree DP, the forest sum–product reference and
/// brute force all agree through one cached plan.
#[test]
fn counting_ablations_preserve_counts() {
    let config = oracle_config();
    let engine = Engine::new(config);
    let star = families::star(3);
    let plan = engine.prepare(&star);
    for t in [
        families::clique(3),
        families::cycle(6),
        families::grid(3, 3),
    ] {
        let expected = count_homomorphisms_bruteforce(&star, &t);
        let report = engine.count_instance(&star, &t);
        assert_eq!(report.method, CountMethod::TreeDecompositionDp);
        assert_eq!(report.count, expected);
        let index = engine.instance_index(&t);
        for method in [CountMethod::ForestSumProduct, CountMethod::BruteForce] {
            assert!(method.admits(report.widths, &config));
            assert_eq!(
                plan.count(method, &t, &index),
                expected,
                "{method:?} -> {t}"
            );
        }
    }
}
