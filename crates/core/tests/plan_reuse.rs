//! Regression tests for the prepared-query engine's core guarantee: all
//! per-query exponential work (core computation, width DPs, decompositions)
//! runs **at most once per prepared query**, no matter how many databases
//! the query is evaluated against.
//!
//! Single-threaded preparation is asserted through the per-thread counts
//! of [`cq_structures::meter`] (the test harness runs every `#[test]` on
//! its own thread, so [`meter::thread`] observes exactly the work done by
//! that test).  The batch APIs fan out to worker threads, whose work the
//! caller's per-thread meter *cannot* see — batch assertions therefore go
//! through [`Engine::prep_stats`], the engine's cross-thread aggregate,
//! and a dedicated regression test pins down the undercount the aggregate
//! exists to fix.

use cq_core::{Engine, EngineConfig, PreparedQuery, QueryId};
use cq_structures::meter::{self, Meter};
use cq_structures::{families, homomorphism_exists, star_expansion};

/// The historical bug this guards against: `solve_instance` computed the
/// width profile (one pass over all three exact DPs) and then called
/// `pathwidth_exact` / `treewidth_exact` *again* to get the decompositions
/// it had just thrown away.  Preparation must run each DP exactly once, and
/// the resulting `StructuralAnalysis` must carry the certificates.
#[test]
fn preparing_a_query_runs_each_width_dp_exactly_once() {
    let a = star_expansion(&families::path(6)); // pathwidth 1: path-sweep tier
    let before = meter::thread();

    let q = PreparedQuery::prepare(&a, &EngineConfig::default());

    let delta = meter::thread().since(&before);
    assert_eq!(
        delta[Meter::TreewidthDp],
        1,
        "one treewidth DP per preparation"
    );
    assert_eq!(
        delta[Meter::PathwidthDp],
        1,
        "one pathwidth DP per preparation"
    );
    assert_eq!(
        delta[Meter::TreedepthDp],
        1,
        "one tree-depth DP per preparation"
    );
    assert_eq!(delta[Meter::CoreComputation], 1);

    // The certificates are right there — nothing needs recomputing.
    let w = q.widths();
    assert_eq!(q.analysis().tree_decomposition.width(), w.treewidth);
    assert_eq!(q.analysis().path_decomposition.width(), w.pathwidth);
    assert_eq!(q.analysis().elimination_forest.height(), w.treedepth);
}

/// Solving through a prepared query does zero additional per-query work,
/// across all four solver tiers.
#[test]
fn solving_a_prepared_query_recomputes_nothing() {
    let engine = Engine::new(EngineConfig::default());
    let queries = [
        families::star(4),                    // tree-depth solver
        star_expansion(&families::path(6)),   // path tier
        star_expansion(&families::tree_t(2)), // tree DP
        families::clique(4),                  // backtracking
    ];
    let targets = [
        families::clique(4),
        families::cycle(6),
        families::grid(3, 3),
    ];
    for a in &queries {
        let plan = engine.prepare(a);
        let before = meter::thread();
        for b in &targets {
            let report = engine.solve_prepared(&plan, b);
            assert_eq!(report.exists, homomorphism_exists(a, b), "{a} -> {b}");
        }
        let delta = meter::thread().since(&before);
        assert_eq!(delta.width_dps(), 0, "no width DP during evaluation of {a}");
        assert_eq!(
            delta[Meter::CoreComputation],
            0,
            "no core computation during evaluation of {a}"
        );
    }
}

/// Acceptance criterion: a batch of N instances sharing one query performs
/// exactly one core computation and one decomposition pass, total.
#[test]
fn batch_over_one_query_prepares_once() {
    let engine = Engine::new(EngineConfig::default());
    let query = families::cycle(5);
    let targets: Vec<_> = (3..11).map(families::clique).collect();

    let before = meter::thread();

    let id = engine.register(&query);
    let batch: Vec<(QueryId, &_)> = targets.iter().map(|t| (id, t)).collect();
    let reports = engine.batch(&batch, |e, &(id, d)| e.solve_prepared(&e.prepared(id), d));

    assert_eq!(reports.len(), targets.len());
    for (t, report) in targets.iter().zip(&reports) {
        assert_eq!(report.exists, homomorphism_exists(&query, t));
    }
    // `register` prepared on this thread; the batch must add nothing,
    // no matter which worker threads it ran on.
    let delta = meter::thread().since(&before);
    assert_eq!(delta[Meter::TreewidthDp], 1);
    assert_eq!(delta[Meter::PathwidthDp], 1);
    assert_eq!(delta[Meter::TreedepthDp], 1);
    assert_eq!(delta[Meter::CoreComputation], 1);
    let prep = engine.prep_stats();
    assert_eq!(prep.preparations, 1);
    assert_eq!(prep.treewidth_calls, 1);
    assert_eq!(prep.pathwidth_calls, 1);
    assert_eq!(prep.treedepth_calls, 1);
    assert_eq!(prep.core_computations, 1);
}

/// The raw-instance batch API behaves identically: repeated occurrences of
/// the same query hit the plan cache instead of re-preparing.  Preparation
/// may happen on any worker thread, so the accounting goes through the
/// engine's aggregated [`PrepStats`], which is exact across workers.
#[test]
fn instance_batch_with_repeated_queries_prepares_each_distinct_query_once() {
    let engine = Engine::new(EngineConfig::default());
    let star = families::star(4);
    let cycle = families::cycle(5);
    let targets: Vec<_> = (3..7).map(families::clique).collect();

    let batch: Vec<(&_, &_)> = targets
        .iter()
        .flat_map(|t| [(&star, t), (&cycle, t)])
        .collect();
    let reports = engine.batch(&batch, |e, &(q, d)| e.solve(q, d));

    for ((q, t), report) in batch.iter().zip(&reports) {
        assert_eq!(report.exists, homomorphism_exists(q, t), "{q} -> {t}");
    }
    let prep = engine.prep_stats();
    assert_eq!(prep.preparations, 2, "two distinct queries");
    assert_eq!(prep.total_width_calls(), 6, "three DPs per preparation");
    assert_eq!(prep.core_computations, 2);
    assert_eq!(engine.cache_stats().misses, 2);
    assert_eq!(engine.cache_stats().hits as usize, batch.len() - 2);
}

/// Regression test for the parallel-stats fix: a batch forced onto multiple
/// workers prepares off the calling thread, so the caller's per-thread
/// meter sees **nothing** — the historical undercount — while the
/// engine's aggregated [`PrepStats`] still accounts for every preparation
/// exactly once.
#[test]
fn aggregated_prep_stats_are_exact_where_thread_locals_undercount() {
    let engine = Engine::new(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    let queries = [
        families::star(4),
        families::cycle(5),
        families::cycle(7),
        families::clique(4),
    ];
    let targets: Vec<_> = (3..6).map(families::clique).collect();
    let batch: Vec<(&_, &_)> = queries
        .iter()
        .flat_map(|q| targets.iter().map(move |t| (q, t)))
        .collect();

    let thread_before = meter::thread();
    let process_before = meter::process();

    let reports = engine.batch(&batch, |e, &(q, d)| e.solve(q, d));
    assert_eq!(reports.len(), batch.len());

    // The calling thread only dispatched: its meter is silent...
    let thread_delta = meter::thread().since(&thread_before);
    assert_eq!(thread_delta.width_dps(), 0);
    assert_eq!(thread_delta[Meter::CoreComputation], 0);
    // ...but the engine aggregate is exact: one preparation (one core
    // computation, one DP of each kind) per distinct query.
    let prep = engine.prep_stats();
    assert_eq!(prep.preparations, 4);
    assert_eq!(prep.treewidth_calls, 4);
    assert_eq!(prep.pathwidth_calls, 4);
    assert_eq!(prep.treedepth_calls, 4);
    assert_eq!(prep.core_computations, 4);
    // The process-wide meter saw the worker threads too (>=: concurrent
    // tests in this binary may add their own calls).
    let process_delta = meter::process().since(&process_before);
    assert!(process_delta[Meter::TreewidthDp] >= 4);
}
