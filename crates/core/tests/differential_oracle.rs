//! Differential decision oracle: on a seeded corpus of random (query,
//! structure) pairs, every structural tier of [`SolverChoice`]
//! (`TreeDepth`, `PathDecomposition`, `TreeDecomposition`) must return the
//! same decision as the structure-agnostic `Backtracking` tier.
//!
//! The backtracking search is the reference because it uses none of the
//! prepared certificates beyond the query itself — a disagreement means a
//! solver (or the certificate it consumed) is wrong.  Failures print the
//! offending pair with the seeds that regenerate it, so every
//! counterexample reproduces exactly.
//!
//! This is the safety net that makes aggressive engine refactors (parallel
//! fan-out, cache sharding) cheap to attempt: any plan-level corruption
//! surfaces as a solver disagreement on some corpus pair.

use cq_core::{EngineConfig, PreparedQuery, SolverChoice};
use cq_structures::{homomorphism_exists, Structure, StructureIndex};
use cq_workloads::{random_digraph_structure, random_graph_structure};

/// Thresholds generous enough that every structural tier admits most of
/// the corpus (so the oracle actually compares them), but small enough that
/// the path-sweep frontier (`|B|^{pw+1}`) stays testable.
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
fn every_registry_solver_agrees_with_backtracking_on_the_corpus() {
    let config = oracle_config();
    let fail_first = config.backtrack.fail_first_ordering;

    let mut comparisons = 0usize;
    let mut disagreements = Vec::new();
    for (label, query, target) in corpus() {
        let prepared = PreparedQuery::prepare(&query, &config);
        let index = StructureIndex::new(&target);
        let expected = prepared.decide(SolverChoice::Backtracking, &index, fail_first);
        // The reference itself must match the brute-force ground truth.
        assert_eq!(
            expected,
            homomorphism_exists(&query, &target),
            "backtracking reference wrong on {label}: {query} -> {target}"
        );
        for choice in SolverChoice::STANDARD {
            if choice == SolverChoice::Backtracking || !choice.admits(prepared.widths(), &config) {
                continue;
            }
            comparisons += 1;
            let got = prepared.decide(choice, &index, fail_first);
            if got != expected {
                disagreements.push(format!(
                    "{choice:?} says {got}, backtracking says {expected} on {label}:\n  query  {query}\n  target {target}"
                ));
            }
        }
    }
    assert!(
        disagreements.is_empty(),
        "{} solver disagreement(s):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
    // The oracle must not silently go vacuous (e.g. thresholds drifting so
    // no structural tier ever admits a corpus query).
    assert!(
        comparisons >= 100,
        "only {comparisons} solver comparisons ran — corpus or thresholds degenerated"
    );
}

/// Kernel-vs-reference oracle: every kernel evaluation path (indexed tree
/// DP over the tree and over the path certificate, forest decision,
/// whole-query search) must agree with the **retained reference
/// implementation** of its tier on every corpus pair — the differential
/// guarantee that lets the tiers dispatch to the kernel while the
/// reference survives as ground truth.
#[test]
fn kernel_solvers_agree_with_the_retained_references_on_the_corpus() {
    use cq_solver::kernel::{ForestProgram, SearchProgram, TreeDpProgram};
    let config = oracle_config();
    let mut comparisons = 0usize;
    let mut disagreements = Vec::new();
    let mut record = |name: &str,
                      label: &str,
                      got: bool,
                      expected: bool,
                      q: &Structure,
                      t: &Structure| {
        if got != expected {
            disagreements.push(format!(
                "{name} kernel says {got}, reference says {expected} on {label}:\n  query  {q}\n  target {t}"
            ));
        }
    };
    for (label, query, target) in corpus() {
        let prepared = PreparedQuery::prepare(&query, &config);
        let index = StructureIndex::new(&target);
        let evaluated = prepared.evaluated();

        // Tree DP: kernel hash-join DP vs the reference BTreeMap DP, on
        // the same prepared certificate.
        let td = &prepared.analysis().tree_decomposition;
        let kernel_tree = TreeDpProgram::compile(evaluated, &index, td).decide(&index);
        let reference_tree = cq_solver::treedec::hom_via_tree_decomposition(evaluated, &target, td);
        record(
            "TreeDec",
            &label,
            kernel_tree.exists,
            reference_tree,
            &query,
            &target,
        );
        comparisons += 1;

        // Path tier: kernel tree DP over the path certificate vs the
        // reference Theorem 4.6 PartialHom frontier, on its staircase form.
        let path_td = prepared
            .analysis()
            .path_decomposition
            .to_tree_decomposition();
        let kernel_path = TreeDpProgram::compile(evaluated, &index, &path_td).decide(&index);
        let reference_path =
            cq_solver::pathdp::hom_via_staircase(evaluated, &target, prepared.staircase());
        record(
            "PathDp",
            &label,
            kernel_path.exists,
            reference_path.exists,
            &query,
            &target,
        );
        comparisons += 1;

        // Tree depth: kernel forest recursion vs the reference Lemma 3.3
        // sentence model check.
        let kernel_forest =
            ForestProgram::compile(evaluated, &index, &prepared.analysis().elimination_forest)
                .decide(&index);
        let reference_sentence =
            cq_solver::treedepth::hom_via_compiled_sentence(prepared.sentence(), &target);
        record(
            "TreeDepth",
            &label,
            kernel_forest.exists,
            reference_sentence.exists,
            &query,
            &target,
        );
        comparisons += 1;

        // Fallback search: kernel whole-query program vs the reference
        // propagating backtracker.
        let (witness, _) = SearchProgram::compile(evaluated, &index, true).run(&index);
        let reference_bt =
            cq_solver::backtrack::BacktrackSolver::default().exists(evaluated, &target);
        record(
            "Backtrack",
            &label,
            witness.is_some(),
            reference_bt,
            &query,
            &target,
        );
        comparisons += 1;
    }
    assert!(
        disagreements.is_empty(),
        "{} kernel disagreement(s):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
    assert!(
        comparisons >= 200,
        "only {comparisons} kernel comparisons ran — corpus degenerated"
    );
}

/// The oracle repeated through prepared-plan reuse: solving the same corpus
/// through one engine (warm plan cache, every tier dispatched in standard
/// order) matches brute force.  Guards the cache + dispatch composition
/// rather than individual solvers.
#[test]
fn engine_dispatch_over_the_corpus_matches_brute_force() {
    let engine = cq_core::Engine::new(oracle_config());
    for (label, query, target) in corpus() {
        let report = engine.solve(&query, &target);
        assert_eq!(
            report.exists,
            homomorphism_exists(&query, &target),
            "engine ({:?}) wrong on {label}: {query} -> {target}",
            report.choice
        );
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.lookups, stats.hits + stats.misses);
}
