//! Behavioural tests of the plan cache: equivalent queries hit, distinct
//! queries miss, and cached plans answer exactly like cold preparation —
//! across every decision tier.

use cq_core::{Engine, EngineConfig, SolverChoice};
use cq_structures::{families, homomorphism_exists, relabeled, star_expansion, Structure};

/// `cycle(7)` built with two different vertex orderings is the same
/// canonical query: the second preparation must be a cache hit.
#[test]
fn same_canonical_query_hits_the_cache() {
    let engine = Engine::new(EngineConfig::default());
    let c7 = families::cycle(7);
    let reversed: Vec<usize> = (0..7).rev().collect();
    let rotated: Vec<usize> = (0..7).map(|i| (i + 3) % 7).collect();

    let p1 = engine.prepare(&c7);
    let p2 = engine.prepare(&relabeled(&c7, &reversed));
    let p3 = engine.prepare(&relabeled(&c7, &rotated));

    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1, "one cold preparation");
    assert_eq!(stats.hits, 2, "both relabellings hit");
    assert!(std::sync::Arc::ptr_eq(&p1, &p2));
    assert!(std::sync::Arc::ptr_eq(&p1, &p3));
}

/// Distinct queries never share a plan.
#[test]
fn distinct_queries_do_not_hit_the_cache() {
    let engine = Engine::new(EngineConfig::default());
    let queries = [
        families::cycle(7),
        families::cycle(5),
        families::path(7),
        families::star(6),
        families::clique(4),
        star_expansion(&families::path(4)),
    ];
    for q in &queries {
        engine.prepare(q);
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.misses as usize, queries.len());
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.entries, queries.len());
}

/// The engine.rs test matrix (queries exercising all four solver tiers
/// against assorted targets): cached and cold paths must return identical
/// `exists` answers, and both must match the reference solver.
#[test]
fn cached_and_cold_answers_agree_across_the_registry() {
    let queries = [
        families::star(4),                    // tree depth 2
        star_expansion(&families::path(6)),   // pathwidth 1
        star_expansion(&families::tree_t(2)), // treewidth 1, pathwidth grows
        families::clique(4),                  // nothing bounded
    ];
    let targets = [
        families::clique(4),
        families::cycle(6),
        families::grid(3, 3),
    ];

    let cached_engine = Engine::new(EngineConfig::default());
    for a in &queries {
        for b in &targets {
            // Cold: a fresh engine every time (never a cache hit).
            let cold = Engine::new(EngineConfig::default()).solve(a, b);
            // Cached: same engine throughout; every repetition after the
            // first prepare of `a` is served from the plan cache.
            let warm_first = cached_engine.solve(a, b);
            let warm_again = cached_engine.solve(a, b);
            let expected = homomorphism_exists(a, b);
            assert_eq!(cold.exists, expected, "cold {a} -> {b}");
            assert_eq!(warm_first.exists, expected, "warm {a} -> {b}");
            assert_eq!(warm_again.exists, expected, "warm repeat {a} -> {b}");
            assert_eq!(cold.choice, warm_again.choice, "{a} -> {b}");
            assert_eq!(cold.widths, warm_again.widths, "{a} -> {b}");
        }
    }
    let stats = cached_engine.cache_stats();
    assert_eq!(stats.misses as usize, queries.len());
    assert_eq!(
        stats.hits as usize,
        queries.len() * targets.len() * 2 - queries.len()
    );
}

/// Cache hits respect the relabelling: answers computed through a plan
/// prepared from a *differently ordered* copy of the query are still
/// correct (homomorphic equivalence preserves answers).
#[test]
fn relabelled_cache_hits_answer_correctly() {
    let engine = Engine::new(EngineConfig::default());
    let c7 = families::cycle(7);
    let perm: Vec<usize> = (0..7).map(|i| (i * 3) % 7).collect();
    let relabelled = relabeled(&c7, &perm);

    let targets: Vec<Structure> = vec![
        families::clique(3),
        families::cycle(7),
        families::cycle(5),
        families::grid(3, 3),
    ];
    engine.prepare(&c7);
    for t in &targets {
        let report = engine.solve(&relabelled, t);
        assert_eq!(report.exists, homomorphism_exists(&relabelled, t), "-> {t}");
    }
    assert_eq!(engine.cache_stats().misses, 1);
}

/// Plan caching composes with tier ablations: an engine with the
/// tree-depth tier removed still caches, still answers correctly, and
/// dispatches the affected queries to the next tier.
#[test]
fn ablated_engine_caches_and_answers_correctly() {
    let engine = Engine::new(EngineConfig::default()).without_tier(SolverChoice::TreeDepth);
    let star = families::star(5);
    for _ in 0..3 {
        let report = engine.solve(&star, &families::clique(3));
        assert_eq!(report.choice, SolverChoice::PathDecomposition);
        assert!(report.exists);
    }
    assert_eq!(engine.cache_stats().misses, 1);
    assert_eq!(engine.cache_stats().hits, 2);
}
