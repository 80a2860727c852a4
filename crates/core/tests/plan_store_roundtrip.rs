//! The plan-store round-trip gate: prepare the `distinct_query_fleet`
//! workload, save the plans, reload them into a **fresh** engine, and
//! assert that the warm engine (a) returns bit-identical `EngineReport`s /
//! `CountReport`s and (b) performs **zero** per-query exponential work —
//! no width DP, no core computation, no preparation — on the warm path.
//!
//! This is the executable statement of the persistence goal: the per-query
//! cost the Classification Theorem licenses is paid once per *store*, not
//! once per *process*.  CI runs this file in both harness modes.

use cq_core::{Engine, EngineConfig};
use cq_structures::{families, relabeled, Structure};
use cq_workloads::distinct_query_fleet;

fn fleet_targets() -> Vec<Structure> {
    vec![
        families::clique(3),
        families::clique(4),
        families::grid(3, 3),
        families::cycle(6),
    ]
}

fn store_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cq_plan_store_{name}_{}.bin", std::process::id()));
    p
}

struct TempStore(std::path::PathBuf);

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn warm_started_engine_is_bit_identical_with_zero_preparation_work() {
    let path = store_path("roundtrip");
    let _cleanup = TempStore(path.clone());
    let config = EngineConfig::default();
    let fleet = distinct_query_fleet(12);
    let targets = fleet_targets();
    let batch: Vec<(&Structure, &Structure)> = fleet
        .iter()
        .flat_map(|q| targets.iter().map(move |t| (q, t)))
        .collect();

    // Cold engine: prepare + decide + count the whole workload, then save.
    let cold = Engine::new(config);
    let cold_reports = cold.batch(&batch, |e, &(q, d)| e.solve(q, d));
    let cold_counts = cold.batch(&batch, |e, &(q, d)| e.count_instance(q, d));
    let cold_prep = cold.prep_stats();
    assert_eq!(cold_prep.preparations, fleet.len() as u64);
    let saved = cold.save_plans(&path).expect("save_plans");
    assert_eq!(saved, fleet.len() as u64);
    assert_eq!(cold.prep_stats().plans_saved, fleet.len() as u64);

    // Fresh engine, warm-started from the file.
    let warm = Engine::new(config).with_plan_store(&path).expect("load");
    let after_load = warm.prep_stats();
    assert_eq!(after_load.plans_loaded, fleet.len() as u64);
    assert_eq!(after_load.plans_rejected, 0);
    assert_eq!(
        after_load.preparations, 0,
        "loading must not prepare anything"
    );
    assert_eq!(after_load.total_width_calls(), 0, "loading must run no DP");
    assert_eq!(after_load.core_computations, 0);

    // The warm path: bit-identical reports, zero exponential work.
    let warm_reports = warm.batch(&batch, |e, &(q, d)| e.solve(q, d));
    let warm_counts = warm.batch(&batch, |e, &(q, d)| e.count_instance(q, d));
    assert_eq!(warm_reports, cold_reports, "decision reports must agree");
    assert_eq!(warm_counts, cold_counts, "count reports must agree");
    let warm_prep = warm.prep_stats();
    assert_eq!(warm_prep.preparations, 0, "warm path prepared a plan");
    assert_eq!(
        warm_prep.total_width_calls(),
        0,
        "warm path ran a width DP: {warm_prep:?}"
    );
    assert_eq!(
        warm_prep.core_computations, 0,
        "warm path recomputed a core"
    );
    assert_eq!(
        warm_prep.counting_preparations, 0,
        "counting certificates travelled with the plans"
    );
    let cache = warm.cache_stats();
    assert_eq!(cache.misses, 0, "every lookup must hit the loaded plans");
    assert_eq!(cache.hits, 2 * batch.len() as u64);
}

#[test]
fn second_generation_save_reproduces_the_store_bytes() {
    // save -> load -> save must be a fixed point: the loaded plans carry
    // everything the originals did (including lazily materialized
    // artifacts), so the second file is byte-identical to the first.
    let path1 = store_path("gen1");
    let path2 = store_path("gen2");
    let _c1 = TempStore(path1.clone());
    let _c2 = TempStore(path2.clone());
    let config = EngineConfig::default();
    let cold = Engine::new(config);
    for q in distinct_query_fleet(8) {
        cold.solve(&q, &families::clique(3));
        cold.count_instance(&q, &families::clique(3));
    }
    cold.save_plans(&path1).expect("first save");
    let warm = Engine::new(config).with_plan_store(&path1).expect("load");
    warm.save_plans(&path2).expect("second save");
    let gen1 = std::fs::read(&path1).unwrap();
    let gen2 = std::fs::read(&path2).unwrap();
    assert_eq!(gen1, gen2, "save∘load∘save must be a fixed point");
}

#[test]
fn warm_plans_serve_relabelled_queries_and_counting() {
    let path = store_path("relabel");
    let _cleanup = TempStore(path.clone());
    let config = EngineConfig::default();
    let c7 = families::cycle(7);
    let cold = Engine::new(config);
    cold.count_instance(&c7, &families::clique(4));
    cold.save_plans(&path).expect("save");

    let warm = Engine::new(config).with_plan_store(&path).expect("load");
    let perm: Vec<usize> = (0..7).rev().collect();
    let twisted = relabeled(&c7, &perm);
    let direct = warm.count_instance(&c7, &families::clique(4));
    let via_alias = warm.count_instance(&twisted, &families::clique(4));
    assert_eq!(direct.count, via_alias.count);
    assert_eq!(warm.prep_stats().preparations, 0);
}

#[test]
fn incompatible_config_rejects_the_whole_store_and_degrades_cold() {
    let path = store_path("stale");
    let _cleanup = TempStore(path.clone());
    let cold = Engine::new(EngineConfig::default());
    let fleet = distinct_query_fleet(4);
    for q in &fleet {
        cold.prepare(q);
    }
    cold.save_plans(&path).expect("save");

    // Different thresholds => stale degree hints => wholesale rejection.
    let other_config = EngineConfig {
        treedepth_threshold: 1,
        ..EngineConfig::default()
    };
    let warm = Engine::new(other_config)
        .with_plan_store(&path)
        .expect("file reads fine");
    let stats = warm.prep_stats();
    assert_eq!(stats.plans_loaded, 0);
    assert_eq!(stats.plans_rejected, fleet.len() as u64);
    // Degraded but correct: queries prepare cold and answer correctly.
    for q in &fleet {
        let report = warm.solve(q, &families::clique(4));
        assert_eq!(
            report.exists,
            cq_structures::homomorphism_exists(q, &families::clique(4))
        );
    }
    assert_eq!(warm.prep_stats().preparations, fleet.len() as u64);
}

#[test]
fn loading_on_top_of_existing_plans_skips_duplicates() {
    let path = store_path("dup");
    let _cleanup = TempStore(path.clone());
    let config = EngineConfig::default();
    let engine = Engine::new(config);
    let fleet = distinct_query_fleet(5);
    for q in &fleet {
        engine.prepare(q);
    }
    engine.save_plans(&path).expect("save");
    // Loading into the same engine: everything is already cached.
    let summary = engine.load_plans(&path).expect("load");
    assert_eq!(summary.loaded, 0);
    assert_eq!(summary.rejected, fleet.len() as u64);
    assert_eq!(engine.cache_stats().entries, fleet.len());
}

#[test]
fn missing_store_file_is_a_clean_error() {
    let engine = Engine::new(EngineConfig::default());
    let err = engine
        .load_plans(store_path("does_not_exist"))
        .expect_err("missing file must error");
    assert!(matches!(err, cq_core::PersistError::Io(_)));
    // The engine is untouched and fully usable.
    assert_eq!(engine.prep_stats().plans_loaded, 0);
    assert!(
        engine
            .solve(&families::star(3), &families::clique(3))
            .exists
    );
}
