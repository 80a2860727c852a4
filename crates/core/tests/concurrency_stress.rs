//! Concurrency stress: many threads hammering one shared [`Engine`] with
//! overlapping query fleets.
//!
//! What must hold under fire:
//!
//! * no deadlock (the test terminating is the assertion — CI runs this
//!   binary as a dedicated step so a hang is attributable);
//! * answers are identical to an isolated sequential engine, thread by
//!   thread and instance by instance;
//! * the aggregated [`CacheStats`] are consistent
//!   (`hits + misses == lookups`);
//! * each distinct query fingerprint is prepared **exactly once**
//!   (single-flight), observable through the aggregated
//!   [`Engine::prep_stats`].
//!
//! The workloads overlap on purpose: every thread submits the same four
//! query shapes (against its own database fleet), so all threads race to
//! prepare the same plans.

use cq_core::{CountReport, Engine, EngineConfig, EngineReport};
use cq_structures::families;
use cq_structures::{core_of, Structure};
use cq_workloads::{concurrent_query_traffic, BatchWorkload};

const THREADS: usize = 8;

/// Plan-cache capacity of the eviction-churn tests: the smallest that
/// derives two shards (of 8), below the distinct queries of
/// [`churn_instances`], so both shards churn.
const CHURN_CAPACITY: usize = 16;

/// 20 distinct queries of at most 9 vertices, cheap to prepare and count.
fn churn_fleet() -> Vec<Structure> {
    (2..10)
        .map(families::directed_path)
        .chain((4..10).map(families::path))
        .chain((3..9).map(families::cycle))
        .collect()
}

/// A thread's churn traffic: its workload's instances, then the
/// [`churn_fleet`] against its first database, so more distinct queries
/// than [`CHURN_CAPACITY`] compete for the cache.
fn churn_instances<'a>(
    w: &'a BatchWorkload,
    fleet: &'a [Structure],
) -> Vec<(&'a Structure, &'a Structure)> {
    let mut instances = w.instances();
    instances.extend(fleet.iter().map(|q| (q, &w.databases[0])));
    instances
}

/// Reference answers computed on an isolated engine, sequentially.
fn sequential_reference(instances: &[(&Structure, &Structure)]) -> Vec<EngineReport> {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    instances.iter().map(|&(q, d)| engine.solve(q, d)).collect()
}

/// Reference counts computed on an isolated engine, sequentially.
fn sequential_count_reference(instances: &[(&Structure, &Structure)]) -> Vec<CountReport> {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    instances
        .iter()
        .map(|&(q, d)| engine.count_instance(q, d))
        .collect()
}

/// How many of the distinct query shapes have a proper core — exactly the
/// plans for which the counting path must materialize its own
/// original-structure certificates (the engine reuses the decision analysis
/// whenever `core(q) == q`).
fn proper_core_count(queries: &[Structure]) -> u64 {
    queries.iter().filter(|q| core_of(q).core != **q).count() as u64
}

#[test]
fn eight_threads_hammering_one_engine_stay_consistent() {
    // Workers > 1 so each thread's own batch *also* fans out internally:
    // external threads x internal workers is the worst-case interleaving.
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let workloads = concurrent_query_traffic(THREADS, 3, 11, 6, 2024);
    let distinct_queries = workloads[0].queries.len();

    let all_reports: Vec<Vec<EngineReport>> = std::thread::scope(|s| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| s.spawn(|| engine.batch(&w.instances(), |e, &(q, d)| e.solve(q, d))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress thread panicked"))
            .collect()
    });

    // Answers: every thread got exactly what a sequential engine computes.
    for (workload, reports) in workloads.iter().zip(&all_reports) {
        assert_eq!(reports, &sequential_reference(&workload.instances()));
    }

    // Stats consistency across all the interleavings.
    let stats = engine.cache_stats();
    let total_instances: u64 = workloads.iter().map(|w| w.len() as u64).sum();
    assert_eq!(stats.lookups, total_instances, "one lookup per instance");
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    assert_eq!(stats.entries, distinct_queries);
    assert_eq!(stats.evictions, 0, "capacity far above the fleet");

    // Single-flight: the overlapping fleets share plans — each distinct
    // fingerprint was prepared exactly once, engine-wide, and each
    // preparation ran exactly one core computation and one DP of each kind.
    let prep = engine.prep_stats();
    assert_eq!(prep.preparations, distinct_queries as u64);
    assert_eq!(stats.misses, prep.preparations);
    assert_eq!(prep.core_computations, distinct_queries as u64);
    assert_eq!(prep.treewidth_calls, distinct_queries as u64);
    assert_eq!(prep.pathwidth_calls, distinct_queries as u64);
    assert_eq!(prep.treedepth_calls, distinct_queries as u64);
}

#[test]
fn mixed_decide_and_count_traffic_on_shared_fingerprints_stays_consistent() {
    // Half the threads decide, half count — over the SAME four query
    // shapes, so decision and counting traffic race to prepare (and then
    // share) the same plans.  Counting must additionally materialize the
    // original-structure certificates exactly once per plan with a proper
    // core, no matter how many counting threads race on it.
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let workloads = concurrent_query_traffic(THREADS, 3, 11, 6, 4242);
    let queries = workloads[0].queries.clone();
    let distinct_queries = queries.len() as u64;

    std::thread::scope(|s| {
        for (i, w) in workloads.iter().enumerate() {
            if i % 2 == 0 {
                s.spawn(|| {
                    let reports = engine.batch(&w.instances(), |e, &(q, d)| e.solve(q, d));
                    assert_eq!(reports, sequential_reference(&w.instances()));
                });
            } else {
                s.spawn(|| {
                    let counts = engine.batch(&w.instances(), |e, &(q, d)| e.count_instance(q, d));
                    assert_eq!(counts, sequential_count_reference(&w.instances()));
                });
            }
        }
    });

    // Stats consistency across decide/count interleavings.
    let stats = engine.cache_stats();
    let total_instances: u64 = workloads.iter().map(|w| w.len() as u64).sum();
    assert_eq!(stats.lookups, total_instances, "one lookup per instance");
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    assert_eq!(stats.entries as u64, distinct_queries);

    // Exactly-once preparation — for the plans AND for the counting
    // certificates: each distinct fingerprint was prepared once
    // (single-flight), and the counting side materialized original-structure
    // certificates only for the queries whose core is proper, each once
    // (the plan's interior OnceLock single-flights racing counters).
    let prep = engine.prep_stats();
    assert_eq!(prep.preparations, distinct_queries);
    assert_eq!(stats.misses, prep.preparations);
    assert_eq!(prep.counting_preparations, proper_core_count(&queries));
    assert!(
        prep.counting_preparations > 0,
        "fleet must contain a proper-core query or the counting invariant is vacuous"
    );
    // One decision analysis per preparation plus one counting analysis per
    // proper-core plan: each runs every width DP exactly once.
    assert_eq!(
        prep.treewidth_calls,
        prep.preparations + prep.counting_preparations
    );
    assert_eq!(
        prep.treedepth_calls,
        prep.preparations + prep.counting_preparations
    );
}

#[test]
fn counts_stay_stable_under_eviction_churn() {
    // A deliberately small two-shard cache under mixed decide/count traffic:
    // plans (and their counting certificates) are evicted and re-prepared
    // concurrently.  Exactly-once is off the table — bit-stable counts,
    // consistency and termination are not.
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    })
    .with_cache_capacity(CHURN_CAPACITY);
    let workloads = concurrent_query_traffic(THREADS, 2, 10, 4, 99);
    let fleet = churn_fleet();

    std::thread::scope(|s| {
        for (i, w) in workloads.iter().enumerate() {
            if i % 2 == 0 {
                s.spawn(|| {
                    let instances = churn_instances(w, &fleet);
                    let counts = engine.batch(&instances, |e, &(q, d)| e.count_instance(q, d));
                    assert_eq!(counts, sequential_count_reference(&instances));
                });
            } else {
                s.spawn(|| {
                    let instances = churn_instances(w, &fleet);
                    let reports = engine.batch(&instances, |e, &(q, d)| e.solve(q, d));
                    assert_eq!(reports, sequential_reference(&instances));
                });
            }
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    assert!(
        stats.entries <= CHURN_CAPACITY,
        "capacity bound holds under churn"
    );
    assert!(stats.evictions > 0, "the cache churned");
    let prep = engine.prep_stats();
    // Every cache miss that ran to completion is a preparation, and churn
    // re-materializes counting certificates at most once per preparation.
    assert_eq!(prep.preparations, stats.misses);
    assert!(prep.counting_preparations <= prep.preparations);
}

#[test]
fn stress_survives_an_eviction_churning_cache() {
    // A deliberately small two-shard cache under the same overlapping traffic:
    // plans are evicted and re-prepared concurrently, so the exactly-once
    // invariant is off the table — consistency and termination are not.
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    })
    .with_cache_capacity(CHURN_CAPACITY);
    let workloads = concurrent_query_traffic(THREADS, 2, 10, 4, 7);
    let fleet = churn_fleet();

    std::thread::scope(|s| {
        for w in &workloads {
            s.spawn(|| {
                let instances = churn_instances(w, &fleet);
                let reports = engine.batch(&instances, |e, &(q, d)| e.solve(q, d));
                assert_eq!(reports, sequential_reference(&instances));
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    assert!(
        stats.entries <= CHURN_CAPACITY,
        "capacity bound holds under churn"
    );
    assert!(stats.evictions > 0, "the cache churned");
    // Every cache miss that ran to completion is a preparation.
    assert_eq!(engine.prep_stats().preparations, stats.misses);
}
