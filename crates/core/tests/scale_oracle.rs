//! Scale differential oracle: the E18 corpus generator ([`scale_corpus`]
//! at 10^5 tuples) feeds the scale bench, so its *distribution* must be
//! covered by the same brute-force references that guard the small corpora.
//! Enumerating homomorphisms into a 10^5-tuple database is hopeless, so the
//! oracle runs on seeded **induced subsamples** ([`subsample_database`]):
//! small enough for brute force, drawn from exactly the joint distribution
//! of (schema, density, query shape) the bench times.
//!
//! Three gates, all on the subsampled slice:
//!
//! 1. decision: `Engine::solve` agrees with [`homomorphism_exists`];
//! 2. counting: `Engine::count_instance`, batched, agrees with
//!    [`count_homomorphisms_bruteforce`];
//! 3. determinism: a 1-worker engine and a 4-worker engine return
//!    bit-identical report batches (parallel fan-out must not perturb
//!    results, orderings, or counts).

use cq_core::{Engine, EngineConfig};
use cq_structures::{count_homomorphisms_bruteforce, homomorphism_exists, Structure};
use cq_workloads::{scale_corpus, scale_join_queries, selective_join_queries, subsample_database};

/// The quick-mode E18 corpus shape: three dense fact relations plus the
/// sparse `S`, ~10^5 distinct tuples over 500 elements (dense enough that
/// induced subsamples carry tuples).  Seed fixed so every failure message
/// reproduces; the bench uses the same generator and seed.
const CORPUS_ELEMS: usize = 500;
const CORPUS_FACT_RELATIONS: usize = 3;
const CORPUS_FACT_TUPLES_PER_RELATION: usize = 37_000;
const CORPUS_SELECTIVE_TUPLES: usize = 2_500;
const CORPUS_SEED: u64 = 0xE18;

const SUBSAMPLE_ELEMS: usize = 12;
const SUBSAMPLE_SEEDS: [u64; 4] = [1, 2, 3, 4];

fn corpus() -> Structure {
    scale_corpus(
        CORPUS_ELEMS,
        CORPUS_FACT_RELATIONS,
        CORPUS_FACT_TUPLES_PER_RELATION,
        CORPUS_SELECTIVE_TUPLES,
        CORPUS_SEED,
    )
}

/// Both query families of the bench: bulk joins over the fact relations
/// and selective joins over `S`.
fn queries() -> Vec<Structure> {
    let mut qs = scale_join_queries(CORPUS_FACT_RELATIONS);
    qs.extend(selective_join_queries());
    qs
}

fn slices(db: &Structure) -> Vec<(u64, Structure)> {
    SUBSAMPLE_SEEDS
        .iter()
        .map(|&s| (s, subsample_database(db, SUBSAMPLE_ELEMS, s)))
        .collect()
}

#[test]
fn corpus_is_at_scale_and_subsamples_are_nontrivial() {
    let db = corpus();
    assert!(
        db.tuple_count() >= 100_000,
        "E18 corpus must reach 10^5 tuples, got {}",
        db.tuple_count()
    );
    for (seed, slice) in slices(&db) {
        assert!(
            slice.tuple_count() > 0,
            "subsample seed {seed} induced no tuples — corpus too sparse"
        );
    }
}

#[test]
fn engine_decisions_agree_with_brute_force_on_subsampled_slices() {
    let db = corpus();
    let queries = queries();
    let engine = Engine::new(EngineConfig::default());
    for (qi, q) in queries.iter().enumerate() {
        for (seed, slice) in slices(&db) {
            let report = engine.solve(q, &slice);
            let truth = homomorphism_exists(q, &slice);
            assert_eq!(
                report.exists, truth,
                "decision disagrees: query {qi}, subsample seed {seed}"
            );
        }
    }
}

#[test]
fn engine_counts_agree_with_brute_force_on_subsampled_slices() {
    let db = corpus();
    let queries = queries();
    let engine = Engine::new(EngineConfig::default());
    let sliced = slices(&db);
    let batch: Vec<(&Structure, &Structure)> = queries
        .iter()
        .flat_map(|q| sliced.iter().map(move |(_, s)| (q, s)))
        .collect();
    let reports = engine.batch(&batch, |e, &(q, d)| e.count_instance(q, d));
    for ((q, slice), report) in batch.iter().zip(&reports) {
        let truth = count_homomorphisms_bruteforce(q, slice);
        assert_eq!(
            report.count, truth,
            "count disagrees on a subsampled slice (solver {:?})",
            report.method
        );
    }
}

#[test]
fn one_worker_and_four_workers_are_bit_identical_on_the_slice_batch() {
    let db = corpus();
    let queries = queries();
    let sliced = slices(&db);
    let batch: Vec<(&Structure, &Structure)> = queries
        .iter()
        .flat_map(|q| sliced.iter().map(move |(_, s)| (q, s)))
        .collect();
    let serial = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let parallel = Engine::new(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    assert_eq!(
        serial.batch(&batch, |e, &(q, d)| e.solve(q, d)),
        parallel.batch(&batch, |e, &(q, d)| e.solve(q, d)),
        "decision batch must not depend on worker count"
    );
    assert_eq!(
        serial.batch(&batch, |e, &(q, d)| e.count_instance(q, d)),
        parallel.batch(&batch, |e, &(q, d)| e.count_instance(q, d)),
        "count batch must not depend on worker count"
    );
}
