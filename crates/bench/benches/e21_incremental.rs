//! E21 — incremental evaluation under updates: delta-maintained indexes
//! and retained DP join tables vs full re-index + re-evaluation.
//!
//! The corpus is the 10^5-tuple warehouse of E18 ([`scale_corpus`]: three
//! dense fact relations plus the sparse selective relation `S`).  A
//! [`mutation_traffic`] stream applies ~1% churn per round — half
//! deletions, half insertions, support-preserving so every position
//! domain keeps its elements and the domain epoch never moves (the
//! steady-state regime the delta path is built for; domain-growing
//! updates are covered by the epoch tests in `cq-core`).
//!
//! Two paths answer the same decide+count workload after every round:
//!
//! * **delta** — [`Engine::apply_delta`] /
//!   [`Engine::apply_delta_chained`] maintain the cached
//!   [`StructureIndex`] in place (`O(delta)` per round, no structure
//!   copy), and `PreparedQuery::{decide,count}_via_tree` patch their
//!   retained per-bag join tables instead of recomputing them;
//! * **full** — the pre-incremental behaviour: rebuild the index from
//!   scratch and re-run freshly compiled programs over everything.
//!
//! Both query families of E18 run, timed separately.  The **selective**
//! family (every atom reads the sparse `S`) is where incremental
//! evaluation is designed to win — most rounds leave its DP bags
//! untouched or patch a handful of keys, while the full path re-indexes
//! 10^5 tuples to answer the same thing; its speedup is the gated
//! headline.  The **bulk** family joins the churned fact relations in
//! every bag, so its tables legitimately recompute each round and the
//! delta path can only save the re-index + recompile — reported for
//! context, not gated.
//!
//! Correctness is asserted before timing: the delta path's answer after
//! *every* round equals a fresh index + fresh compilation on the same
//! content (the in-bench differential oracle — `"agreement": 1.0` in the
//! JSON is asserted, not assumed), and the engine is grounded against
//! brute force on seeded induced subsamples of the final mutated corpus.
//! The timed delta sweeps are additionally asserted to perform **exactly
//! zero** index builds, metered by [`index_build_count`] (the bench is
//! single-threaded, so exact equality is safe here — unlike in
//! `cargo test`).
//!
//! Full mode writes the machine-readable `BENCH_E21.json` at the
//! repository root and asserts the 3x acceptance floor; quick mode
//! (`CQ_BENCH_QUICK=1`, the CI bench-smoke step) gates the measured
//! speedup against a generous 1.5x floor.

use cq_bench::{json_field_f64, median_time, quick_mode, timing_runs};
use cq_core::{DeltaReport, Engine, EngineConfig, PreparedQuery};
use cq_solver::{Nat, TreeDpProgram};
use cq_structures::{
    count_homomorphisms_bruteforce, homomorphism_exists, index_build_count, DeltaBatch, Structure,
    StructureIndex,
};
use cq_workloads::{
    mutation_traffic, scale_corpus, scale_join_queries, selective_join_queries, subsample_database,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const CORPUS_SEED: u64 = 0xE21;
const FACT_RELATIONS: usize = 3;
const ELEMS: usize = 4_000;
const FACT_TUPLES: usize = 35_500;
const SELECTIVE_TUPLES: usize = 100;
const FLOOR_TUPLES: usize = 100_000;
const CHURN: f64 = 0.01;

/// One decide + one count per plan, through the per-index compiled-program
/// cache and its retained DP tables.
fn warm_round(plans: &[PreparedQuery], index: &StructureIndex) -> Vec<(bool, Nat)> {
    plans
        .iter()
        .map(|plan| {
            (
                plan.decide_via_tree(index).exists,
                plan.count_via_tree(index).count,
            )
        })
        .collect()
}

/// The same workload through the free kernel entry points: fresh program
/// compilation and a full evaluation per call (the pre-incremental
/// behaviour, paired with an index rebuild by the caller).
fn fresh_round(plans: &[PreparedQuery], index: &StructureIndex) -> Vec<(bool, Nat)> {
    plans
        .iter()
        .map(|plan| {
            let decide = TreeDpProgram::compile(
                plan.evaluated(),
                index,
                &plan.analysis().tree_decomposition,
            )
            .decide(index);
            let count = TreeDpProgram::compile(
                plan.original(),
                index,
                &plan.counting_analysis().tree_decomposition,
            )
            .count(index);
            (decide.exists, count.count)
        })
        .collect()
}

/// Run the whole mutation stream through the engine's delta path, timing
/// the rounds only (warm-up — the one initial index build and the program
/// compilations — happens before the clock starts).  Round 0 enters by
/// `&Structure`; every later round consumes the previous [`DeltaReport`],
/// so no caller-side handle forces a copy-on-write.
fn delta_sweep(
    config: &EngineConfig,
    db: &Structure,
    batches: &[DeltaBatch],
    plans: &[PreparedQuery],
) -> std::time::Duration {
    let engine = Engine::new(*config);
    let index0 = engine.instance_index(db);
    black_box(warm_round(plans, &index0));
    drop(index0);
    let builds_before = index_build_count();
    let start = Instant::now();
    let mut report: Option<DeltaReport> = None;
    for batch in batches {
        let next = match report.take() {
            None => engine.apply_delta(db, batch).expect("epoch-safe batch"),
            Some(prev) => engine
                .apply_delta_chained(prev, batch)
                .expect("epoch-safe batch"),
        };
        black_box(warm_round(plans, next.index()));
        report = Some(next);
    }
    let elapsed = start.elapsed();
    assert_eq!(
        index_build_count(),
        builds_before,
        "the timed delta sweep must perform exactly zero index builds"
    );
    elapsed
}

/// The full path over the same mutation stream: apply each batch to a bare
/// structure the naive way ([`Structure::apply_delta`], the reference
/// implementation a consumer without delta-maintained indexes uses), then
/// rebuild the index and recompile + re-evaluate every program.
fn full_sweep(
    db: &Structure,
    batches: &[DeltaBatch],
    plans: &[PreparedQuery],
) -> std::time::Duration {
    let mut base = db.clone();
    let start = Instant::now();
    for batch in batches {
        base.apply_delta(batch).expect("epoch-safe batch");
        let index = StructureIndex::new(&base);
        black_box(fresh_round(plans, &index));
    }
    start.elapsed()
}

struct Report {
    tuples: usize,
    rounds: usize,
    avg_round_ops: f64,
    /// `(family, delta ms/round, full ms/round, speedup)` rows; the
    /// selective row carries the gated headline speedup.
    rows: Vec<(&'static str, f64, f64, f64)>,
    oracle_comparisons: usize,
}

impl Report {
    fn selective_speedup(&self) -> f64 {
        self.rows[0].3
    }
}

fn run(config: &EngineConfig) -> Report {
    let db = scale_corpus(
        ELEMS,
        FACT_RELATIONS,
        FACT_TUPLES,
        SELECTIVE_TUPLES,
        CORPUS_SEED,
    );
    assert!(
        db.tuple_count() >= FLOOR_TUPLES,
        "corpus fell below the scale floor: {} < {FLOOR_TUPLES}",
        db.tuple_count()
    );
    let rounds = if quick_mode() { 6 } else { 16 };
    let batches = mutation_traffic(&db, rounds, CHURN, CORPUS_SEED);
    assert_eq!(batches.len(), rounds);
    let avg_round_ops = batches.iter().map(DeltaBatch::len).sum::<usize>() as f64 / rounds as f64;
    let selective_queries = selective_join_queries();
    let bulk_queries = scale_join_queries(FACT_RELATIONS);
    let queries: Vec<Structure> = selective_queries
        .iter()
        .chain(bulk_queries.iter())
        .cloned()
        .collect();
    let prepare = |qs: &[Structure]| -> Vec<PreparedQuery> {
        qs.iter()
            .map(|q| PreparedQuery::prepare(q, config))
            .collect()
    };
    let families: [(&'static str, Vec<PreparedQuery>); 2] = [
        ("selective", prepare(&selective_queries)),
        ("bulk", prepare(&bulk_queries)),
    ];
    let plans: Vec<PreparedQuery> = prepare(&queries);
    println!(
        "E21: {} elements, {} tuples | {rounds} rounds x ~{avg_round_ops:.0} tuple ops ({:.2}% churn) | {} plans",
        ELEMS,
        db.tuple_count(),
        100.0 * avg_round_ops / db.tuple_count() as f64,
        plans.len()
    );

    // ---- Reference sweep (untimed): per-round snapshots + delta answers.
    // Snapshot Arcs keep every post-round content alive for the full-path
    // sweeps; holding them makes these (untimed) rounds copy-on-write.
    let engine = Engine::new(*config);
    let mut snapshots: Vec<Arc<Structure>> = Vec::with_capacity(rounds);
    let mut delta_answers: Vec<Vec<(bool, Nat)>> = Vec::with_capacity(rounds);
    let mut report: Option<DeltaReport> = None;
    for batch in &batches {
        let next = match report.take() {
            None => engine.apply_delta(&db, batch).expect("epoch-safe batch"),
            Some(prev) => engine
                .apply_delta_chained(prev, batch)
                .expect("epoch-safe batch"),
        };
        assert!(!next.applied().is_noop(), "every round must change content");
        assert_eq!(
            next.domain_epoch(),
            0,
            "mutation_traffic must be support-preserving (no epoch bump)"
        );
        snapshots.push(Arc::clone(next.index().structure_arc()));
        delta_answers.push(warm_round(&plans, next.index()));
        report = Some(next);
    }
    drop(report);

    // ---- Differential oracle, re-run after every mutation round: the
    // delta-maintained answer equals a fresh index + fresh compilation on
    // the same content.
    let mut comparisons = 0usize;
    for (snap, answers) in snapshots.iter().zip(&delta_answers) {
        let fresh_index = StructureIndex::new(snap);
        let fresh = fresh_round(&plans, &fresh_index);
        for ((w, f), plan) in answers.iter().zip(&fresh).zip(&plans) {
            assert_eq!(w.0, f.0, "decide diverged: {:?}", plan.widths());
            assert_eq!(w.1, f.1, "count diverged: {:?}", plan.widths());
            comparisons += 2;
        }
    }
    // Ground the engine against brute force on induced subsamples of the
    // final mutated corpus (full-size brute force is infeasible; the
    // full-size agreement above closes the loop between the two paths).
    let last = snapshots.last().expect("at least one round");
    let cold = Engine::new(*config);
    for seed in 1..=3u64 {
        let slice = subsample_database(last, 40, seed);
        for q in &queries {
            assert_eq!(cold.solve(q, &slice).exists, homomorphism_exists(q, &slice));
            assert_eq!(
                cold.count_instance(q, &slice).count,
                count_homomorphisms_bruteforce(q, &slice)
            );
            comparisons += 2;
        }
    }
    println!("  oracle: {comparisons} comparisons, agreement 1.0 (asserted)");

    // ---- Cost split (informational): index maintenance vs evaluation.
    {
        let engine = Engine::new(*config);
        let index0 = engine.instance_index(&db);
        black_box(warm_round(&plans, &index0));
        drop(index0);
        let mut apply = std::time::Duration::ZERO;
        let mut eval = std::time::Duration::ZERO;
        let mut report: Option<DeltaReport> = None;
        for batch in &batches {
            let t = Instant::now();
            let next = match report.take() {
                None => engine.apply_delta(&db, batch).expect("epoch-safe batch"),
                Some(prev) => engine
                    .apply_delta_chained(prev, batch)
                    .expect("epoch-safe batch"),
            };
            apply += t.elapsed();
            let t = Instant::now();
            black_box(warm_round(&plans, next.index()));
            eval += t.elapsed();
            report = Some(next);
        }
        println!(
            "  cost split per round: index maintenance {:.3} ms | retained eval (all {} plans) {:.3} ms",
            apply.as_secs_f64() * 1e3 / rounds as f64,
            plans.len(),
            eval.as_secs_f64() * 1e3 / rounds as f64
        );
    }

    // ---- Timing: the whole stream, delta path vs full path, per family.
    // Every sweep applies the same mixed churn (deltas hit all relations —
    // the index maintenance cost is paid in full either way); what differs
    // per family is the evaluation workload riding on it.
    let runs = timing_runs(2, 3);
    let mut rows: Vec<(&'static str, f64, f64, f64)> = Vec::new();
    for (name, family) in &families {
        let delta = median_time(runs, || {
            black_box(delta_sweep(config, &db, &batches, family));
        });
        let full = median_time(runs, || {
            black_box(full_sweep(&db, &batches, family));
        });
        let delta_ms = delta.as_secs_f64() * 1e3 / rounds as f64;
        let full_ms = full.as_secs_f64() * 1e3 / rounds as f64;
        let speedup = full.as_secs_f64() / delta.as_secs_f64();
        println!(
            "  {name:<9} per round: delta {delta_ms:>8.3} ms | full re-index+re-eval {full_ms:>8.3} ms | speedup {speedup:.2}x"
        );
        rows.push((*name, delta_ms, full_ms, speedup));
    }

    Report {
        tuples: db.tuple_count(),
        rounds,
        avg_round_ops,
        rows,
        oracle_comparisons: comparisons,
    }
}

fn bench(c: &mut Criterion) {
    let config = EngineConfig::default();
    let report = run(&config);

    if quick_mode() {
        gate_against_baseline(report.selective_speedup());
        return;
    }

    assert!(
        report.selective_speedup() >= 3.0,
        "E21 acceptance: the delta path answers the selective family at only \
         {:.2}x full re-index+re-eval under {:.0}% churn (floor 3x)",
        report.selective_speedup(),
        CHURN * 100.0
    );
    write_json(&report);

    // A small criterion group for the HTML/log view: one maintained
    // round-trip (apply + undo, evaluating after each) vs one full
    // rebuild + re-evaluation.
    let db = scale_corpus(
        ELEMS,
        FACT_RELATIONS,
        FACT_TUPLES,
        SELECTIVE_TUPLES,
        CORPUS_SEED,
    );
    let batches = mutation_traffic(&db, 1, CHURN, CORPUS_SEED);
    let plans: Vec<PreparedQuery> = selective_join_queries()
        .iter()
        .map(|q| PreparedQuery::prepare(q, &config))
        .collect();
    let engine = Engine::new(config);
    let first = engine.apply_delta(&db, &batches[0]).expect("valid batch");
    // Effective forward/inverse batches from the applied delta: a
    // round-trip returns the content to its pre-batch state exactly.
    let mut forward = DeltaBatch::new();
    let mut inverse = DeltaBatch::new();
    for (sym, _, row) in first.applied().deletions() {
        forward.delete(*sym, row.clone());
        inverse.insert(*sym, row.clone());
    }
    for (sym, row) in first.applied().insertions() {
        forward.insert(*sym, row.clone());
        inverse.delete(*sym, row.clone());
    }
    let mut report = Some(
        engine
            .apply_delta_chained(first, &inverse)
            .expect("inverse of an applied delta is valid"),
    );
    let mut g = c.benchmark_group("e21");
    g.sample_size(10);
    g.bench_function("delta: maintain+eval round-trip (1e5)", |b| {
        b.iter(|| {
            let fwd = engine
                .apply_delta_chained(report.take().expect("chained"), &forward)
                .expect("forward batch");
            black_box(warm_round(&plans, fwd.index()));
            let back = engine
                .apply_delta_chained(fwd, &inverse)
                .expect("inverse batch");
            black_box(warm_round(&plans, back.index()));
            report = Some(back);
        })
    });
    g.bench_function("full: re-index+re-eval round (1e5)", |b| {
        b.iter(|| {
            let index = StructureIndex::new(&db);
            black_box(fresh_round(&plans, &index));
        })
    });
    g.finish();
}

/// The CI regression gate of quick mode: the measured delta-vs-full
/// speedup must hold a generous 1.5x floor (the full-mode acceptance
/// floor is 3x; the slack absorbs shared-runner noise).
fn gate_against_baseline(speedup: f64) {
    const FLOOR: f64 = 1.5;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E21.json");
    let recorded = std::fs::read_to_string(path)
        .ok()
        .as_deref()
        .and_then(|json| json_field_f64(json, "\"speedup\": "));
    match recorded {
        Some(r) => println!(
            "  quick-mode gate: measured {speedup:.2}x | baseline {r:.2}x | delta {:+.1}%",
            (speedup / r - 1.0) * 100.0
        ),
        None => println!("  quick-mode gate: measured {speedup:.2}x (no readable baseline)"),
    }
    assert!(
        speedup >= FLOOR,
        "E21 incremental regression: the delta path is only {speedup:.2}x \
         full re-index+re-eval (floor {FLOOR}x)"
    );
    println!("  quick-mode gate passed: the delta path holds the {FLOOR}x floor");
}

/// Emit `BENCH_E21.json` at the repository root, machine-readable.  The
/// top-level `"speedup"` is the gated selective-family number (and the
/// first such key in the document, which is what the quick-mode gate's
/// scanner reads); the per-family rows follow.
fn write_json(r: &Report) {
    let families = r
        .rows
        .iter()
        .map(|(name, delta_ms, full_ms, speedup)| {
            format!(
                "    {{\"family\": \"{name}\", \"delta_ms_per_round\": {delta_ms:.3}, \
                 \"full_ms_per_round\": {full_ms:.3}, \"family_speedup\": {speedup:.2}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let out = format!(
        "{{\n  \"experiment\": \"e21_incremental\",\n  \"seed\": {CORPUS_SEED},\n  \
         \"elements\": {ELEMS},\n  \"tuples\": {},\n  \"rounds\": {},\n  \
         \"churn\": {CHURN},\n  \"avg_round_tuple_ops\": {:.1},\n  \
         \"speedup\": {:.2},\n  \"families\": [\n{families}\n  ],\n  \
         \"index_builds_during_delta_sweep\": 0,\n  \
         \"oracle\": {{\"comparisons\": {}, \"agreement\": 1.0}}\n}}\n",
        r.tuples,
        r.rounds,
        r.avg_round_ops,
        r.selective_speedup(),
        r.oracle_comparisons
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E21.json");
    std::fs::write(path, out).expect("write BENCH_E21.json at the repo root");
    println!("  wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
