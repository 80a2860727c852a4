//! Save-on-eviction gate: a long-running engine with a small LRU must not
//! lose evicted plans.  With an eviction store configured
//! (`Engine::with_eviction_store`), every plan the LRU churns out is
//! persisted in the background, `save_plans` folds the evicted records into
//! its snapshot, and a restart warm-starts **every** fingerprint — the
//! churned ones included — with zero preparations and zero width DPs.

use cq_core::persist::PlanStore;
use cq_core::{Engine, EngineConfig};
use cq_structures::Structure;
use cq_workloads::distinct_query_fleet;

fn store_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cq_evict_store_{name}_{}.bin", std::process::id()));
    p
}

struct TempStore(std::path::PathBuf);

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Prepare the whole fleet through a cache that can only hold `capacity`
/// plans, forcing `fleet.len() - capacity` evictions.
fn churn(engine: &Engine, fleet: &[Structure]) {
    for q in fleet {
        engine.prepare(q);
    }
}

#[test]
fn eviction_churn_plus_graceful_save_warm_starts_every_fingerprint() {
    let path = store_path("graceful");
    let _cleanup = TempStore(path.clone());
    let config = EngineConfig::default();
    let fleet = distinct_query_fleet(10);
    let capacity = 3;

    let engine = Engine::new(config)
        .with_cache_capacity(capacity)
        .with_eviction_store(&path);
    churn(&engine, &fleet);
    let stats = engine.prep_stats();
    assert_eq!(stats.preparations, fleet.len() as u64);
    let evicted_live = engine.cache_stats().evictions;
    assert_eq!(
        evicted_live,
        (fleet.len() - capacity) as u64,
        "a capacity-{capacity} cache over {} distinct queries must evict",
        fleet.len()
    );
    assert_eq!(
        stats.plans_evicted_persisted, evicted_live,
        "every evicted plan must reach the eviction store"
    );

    // Graceful shutdown: save_plans merges live + evicted records.
    let saved = engine.save_plans(&path).expect("save_plans");
    assert_eq!(
        saved,
        fleet.len() as u64,
        "save_plans must cover evicted fingerprints, not just the {capacity} live ones"
    );
    drop(engine);

    // Restart with a roomy cache: every fingerprint warm-starts.
    let warm = Engine::new(config)
        .with_plan_store(&path)
        .expect("warm start");
    churn(&warm, &fleet);
    let warm_stats = warm.prep_stats();
    assert_eq!(warm_stats.plans_loaded, fleet.len() as u64);
    assert_eq!(
        warm_stats.preparations, 0,
        "no cold prepares after warm start"
    );
    assert_eq!(
        warm_stats.total_width_calls(),
        0,
        "no width DPs on the warm path"
    );
    assert_eq!(warm_stats.core_computations, 0);
}

#[test]
fn crash_without_save_still_persists_the_evicted_records() {
    let path = store_path("crash");
    let _cleanup = TempStore(path.clone());
    let config = EngineConfig::default();
    let fleet = distinct_query_fleet(8);
    let capacity = 2;

    let engine = Engine::new(config)
        .with_cache_capacity(capacity)
        .with_eviction_store(&path);
    churn(&engine, &fleet);
    let expected_evicted = (fleet.len() - capacity) as u64;
    assert_eq!(
        engine.prep_stats().plans_evicted_persisted,
        expected_evicted
    );
    // Simulated crash: drop without save_plans.  Drop flushes the writer,
    // so the background image must already hold every evicted record.
    drop(engine);

    let store = PlanStore::read_from(&path).expect("eviction image on disk");
    assert_eq!(store.corrupt_records(), 0);
    assert_eq!(
        store.len() as u64,
        expected_evicted,
        "the background image holds exactly the evicted plans"
    );

    // The image is a legitimate warm-start source for the evicted subset.
    let warm = Engine::new(config)
        .with_plan_store(&path)
        .expect("warm start");
    assert_eq!(warm.prep_stats().plans_loaded, expected_evicted);
    churn(&warm, &fleet);
    assert_eq!(
        warm.prep_stats().preparations,
        capacity as u64,
        "only the never-evicted (hence never-persisted) plans prepare cold"
    );
}

#[test]
fn eviction_store_seeds_from_an_existing_image_without_clobbering() {
    let path = store_path("seed");
    let _cleanup = TempStore(path.clone());
    let config = EngineConfig::default();
    let fleet = distinct_query_fleet(6);
    let (first_half, second_half) = fleet.split_at(3);

    // First run persists its evictions (capacity 1 ⇒ two of three evicted).
    let first = Engine::new(config)
        .with_cache_capacity(1)
        .with_eviction_store(&path);
    churn(&first, first_half);
    drop(first);
    let after_first = PlanStore::read_from(&path).expect("first image").len();
    assert_eq!(after_first, 2);

    // Second run over different queries seeds from the file: its image
    // keeps the first run's records alongside its own evictions.
    let second = Engine::new(config)
        .with_cache_capacity(1)
        .with_eviction_store(&path);
    churn(&second, second_half);
    drop(second);
    let merged = PlanStore::read_from(&path).expect("merged image");
    assert_eq!(
        merged.len(),
        4,
        "two evictions per run accumulate across restarts"
    );
    let mut fingerprints: Vec<u64> = merged.records().map(|r| r.fingerprint()).collect();
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), 4, "no duplicate fingerprints");
    let sorted = {
        let mut s = fingerprints.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(fingerprints, sorted, "image stays fingerprint-sorted");
}

#[test]
fn shrinking_the_cache_persists_the_plans_it_evicts() {
    let path = store_path("shrink");
    let _cleanup = TempStore(path.clone());
    let config = EngineConfig::default();
    let fleet = distinct_query_fleet(5);

    let engine = Engine::new(config).with_eviction_store(&path);
    let prepared: Vec<u64> = fleet
        .iter()
        .map(|q| engine.prepare(q).fingerprint())
        .collect();
    assert_eq!(engine.prep_stats().plans_evicted_persisted, 0);

    let engine = engine.with_cache_capacity(2);
    assert_eq!(engine.cache_stats().evictions, 3);
    assert_eq!(
        engine.prep_stats().plans_evicted_persisted,
        3,
        "a shrink hands its evictions to the eviction store"
    );
    drop(engine);

    let store = PlanStore::read_from(&path).expect("eviction image on disk");
    assert_eq!(store.corrupt_records(), 0);
    let mut persisted: Vec<u64> = store.records().map(|r| r.fingerprint()).collect();
    persisted.dedup();
    assert_eq!(persisted.len(), 3, "exactly the 3 evicted plans");
    assert!(
        persisted.iter().all(|fp| prepared.contains(fp)),
        "every persisted record is one of the prepared plans"
    );
}
