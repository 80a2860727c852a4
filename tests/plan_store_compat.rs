//! Golden-fixture compatibility gate for the plan-store format.
//!
//! `tests/fixtures/plans_v1.bin` is a checked-in version-1 store written by
//! `examples/generate_plan_fixture.rs`.  This test decodes it with the
//! current build:
//!
//! * if the codec's byte layout drifts **without** a `PLAN_STORE_VERSION`
//!   bump, the fixture stops decoding (or stops verifying) and the build
//!   fails here;
//! * if the version is bumped, the version assertion fails until the
//!   fixture story is consciously updated alongside it.
//!
//! Either way, silent format drift cannot land.

use cq_fine::classification::{Engine, EngineConfig, PlanStore, PLAN_STORE_VERSION};
use cq_fine::structures::{families, homomorphism_exists, Structure};
use cq_fine::workloads::distinct_query_fleet;

const FIXTURE: &[u8] = include_bytes!("fixtures/plans_v1.bin");
const FIXTURE_PLANS: usize = 6;

#[test]
fn version_1_is_the_current_format() {
    // A version bump must consciously revisit the golden fixture (new
    // fixture file, updated constants here) — this assertion is the tripwire.
    assert_eq!(
        PLAN_STORE_VERSION, 1,
        "PLAN_STORE_VERSION changed: regenerate the golden fixture and update this test"
    );
}

#[test]
fn golden_fixture_decodes_and_every_plan_verifies() {
    let store = PlanStore::from_bytes(FIXTURE).expect(
        "checked-in plans_v1.bin no longer decodes: the on-disk format drifted \
         without a PLAN_STORE_VERSION bump",
    );
    assert_eq!(store.corrupt_records(), 0);
    assert_eq!(store.len(), FIXTURE_PLANS);
    assert_eq!(store.config(), &EngineConfig::default());
    let config = EngineConfig::default();
    for record in store.records() {
        let plan = record.decode_plan().expect("fixture payload decodes");
        assert_eq!(plan.fingerprint(), record.fingerprint());
        plan.verify(&config)
            .unwrap_or_else(|e| panic!("fixture plan failed verification: {e}"));
    }
}

#[test]
fn golden_fixture_warm_starts_todays_engine_with_zero_preparation() {
    // The fixture was generated from the first six distinct_query_fleet
    // queries; regenerate them and prove the decade-old bytes still serve
    // today's traffic with zero per-query exponential work.
    let fleet = distinct_query_fleet(FIXTURE_PLANS);
    let mut path = std::env::temp_dir();
    path.push(format!("cq_fixture_compat_{}.bin", std::process::id()));
    std::fs::write(&path, FIXTURE).expect("stage fixture");
    let engine = Engine::new(EngineConfig::default())
        .with_plan_store(&path)
        .expect("warm-start from the golden fixture");
    let _ = std::fs::remove_file(&path);
    let stats = engine.prep_stats();
    assert_eq!(stats.plans_loaded, FIXTURE_PLANS as u64);
    assert_eq!(stats.plans_rejected, 0);

    let targets = [
        families::clique(3),
        families::clique(4),
        families::grid(3, 3),
    ];
    let batch: Vec<(&Structure, &Structure)> = fleet
        .iter()
        .flat_map(|q| targets.iter().map(move |t| (q, t)))
        .collect();
    let reports = engine.batch(&batch, |e, &(q, d)| e.solve(q, d));
    for ((q, t), report) in batch.iter().zip(&reports) {
        assert_eq!(report.exists, homomorphism_exists(q, t), "{q} -> {t}");
    }
    let counts = engine.batch(&batch, |e, &(q, d)| e.count_instance(q, d));
    for ((q, t), count) in batch.iter().zip(&counts) {
        assert_eq!(
            count.count.positive(),
            homomorphism_exists(q, t),
            "{q} -> {t}"
        );
    }
    let after = engine.prep_stats();
    assert_eq!(after.preparations, 0, "fixture plans must serve everything");
    assert_eq!(after.total_width_calls(), 0, "warm path ran a width DP");
    assert_eq!(after.core_computations, 0);
    assert_eq!(after.counting_preparations, 0);
}

#[test]
fn fixture_regeneration_is_bit_identical() {
    // The generator example documents how the fixture is produced; this
    // test re-runs the same recipe in-process and compares bytes, so the
    // fixture can never silently diverge from its documented provenance.
    let config = EngineConfig::default();
    let engine = Engine::new(config);
    let target = families::clique(3);
    for query in distinct_query_fleet(FIXTURE_PLANS) {
        let plan = engine.prepare(&query);
        plan.sentence();
        plan.staircase();
        engine.count_prepared(&plan, &target);
    }
    let mut path = std::env::temp_dir();
    path.push(format!("cq_fixture_regen_{}.bin", std::process::id()));
    engine.save_plans(&path).expect("save");
    let regenerated = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        regenerated, FIXTURE,
        "regenerating the fixture produced different bytes: codec drift \
         without a version bump"
    );
}
