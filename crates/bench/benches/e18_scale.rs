//! E18 — scale: the compiled-program cache and the interned index at
//! 10^5–10^6 tuples.
//!
//! Each corpus is a warehouse-shaped [`scale_corpus`]: three dense fact
//! relations carrying the bulk of the tuples plus one sparse relation `S`.
//! Two query families run against it:
//!
//! * **selective** — chain/star/cycle joins whose every atom reads `S`.
//!   Their kernel *runs* are cheap (the driver iteration walks short
//!   posting lists) while per-call program *compilation* still scans the
//!   whole universe building prefilter domains — so the per-index program
//!   cache (`PreparedQuery::decide_via_tree` and friends) is the whole
//!   ballgame, and the warm-vs-recompile ratio is the headline column;
//! * **bulk** — chain/star/cycle joins over the fact relations, where the
//!   run dominates: reported for context, not gated.
//!
//! Full mode measures both the 10^5- and the 10^6-tuple corpus and writes
//! the machine-readable `BENCH_E18.json` at the repository root; the 2x
//! warm-throughput acceptance floor is asserted on the 10^5 corpus.  Quick
//! mode (`CQ_BENCH_QUICK=1`, the CI bench-smoke step) runs only the 10^5
//! corpus and gates the measured speedup against a generous 1.5x floor and
//! the peak RSS against the checked-in baseline.
//!
//! Correctness is asserted before timing, three ways: warm and
//! freshly-recompiled programs agree on every instance; the engine agrees
//! with brute force on seeded induced subsamples of the same corpus
//! (the in-bench differential oracle — `"agreement": 1.0` in the JSON is
//! asserted, not assumed); and the warm timing loops perform **exactly
//! zero** program compilations, metered by
//! [`program_compilation_count`] (the bench is single-threaded, so exact
//! equality is safe here — unlike in `cargo test`).
//!
//! The memory columns record what one cached database pins: the index
//! (which *shares* its structure via `Arc`) vs the index plus a second
//! structure copy (what the engine's instance cache held before), plus the
//! process peak RSS from `/proc/self/status`.

use cq_bench::{json_field_f64, median_time, quick_mode, timing_runs};
use cq_core::{Engine, EngineConfig, PreparedQuery};
use cq_solver::{program_compilation_count, TreeDpProgram};
use cq_structures::{
    count_homomorphisms_bruteforce, homomorphism_exists, Structure, StructureIndex,
};
use cq_workloads::{scale_corpus, scale_join_queries, selective_join_queries, subsample_database};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

const CORPUS_SEED: u64 = 0xE18;
const FACT_RELATIONS: usize = 3;

/// One corpus scale: `n` elements, per-relation fact draws, sparse-`S`
/// draws, and the distinct-tuple floor asserted after dedup.
struct Scale {
    name: &'static str,
    elems: usize,
    fact_tuples: usize,
    selective_tuples: usize,
    floor_tuples: usize,
}

const SCALES: [Scale; 2] = [
    Scale {
        name: "1e5",
        elems: 4_000,
        fact_tuples: 35_500,
        selective_tuples: 100,
        floor_tuples: 100_000,
    },
    Scale {
        name: "1e6",
        elems: 20_000,
        fact_tuples: 340_000,
        selective_tuples: 500,
        floor_tuples: 1_000_000,
    },
];

struct Family {
    name: &'static str,
    plans: Vec<PreparedQuery>,
    /// Passes over the family per timed closure (selective ops are
    /// microseconds, bulk ops much slower — equalize the timer's footing).
    passes: usize,
}

/// Measured results for one corpus scale.
struct ScaleReport {
    name: &'static str,
    elems: usize,
    tuples: usize,
    selective_tuples: usize,
    index_build_ms: f64,
    /// `(family, warm inst/s, recompile inst/s, speedup)` rows.
    rows: Vec<(&'static str, f64, f64, f64)>,
    shared_mb: f64,
    cloned_mb: f64,
    oracle_comparisons: usize,
}

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One warm pass: every plan decides and counts through its per-index
/// compiled-program cache.
fn warm_pass(family: &Family, index: &StructureIndex) {
    for plan in &family.plans {
        std::hint::black_box(plan.decide_via_tree(index));
        std::hint::black_box(plan.count_via_tree(index));
    }
}

/// One recompile pass: the same work through the free kernel entry points,
/// which compile a fresh program per call (the pre-cache engine behaviour).
fn recompile_pass(family: &Family, index: &StructureIndex) {
    for plan in &family.plans {
        std::hint::black_box(
            TreeDpProgram::compile(plan.evaluated(), index, &plan.analysis().tree_decomposition)
                .decide(index),
        );
        std::hint::black_box(
            TreeDpProgram::compile(
                plan.original(),
                index,
                &plan.counting_analysis().tree_decomposition,
            )
            .count(index),
        );
    }
}

fn run_scale(scale: &Scale, config: &EngineConfig) -> ScaleReport {
    let db = scale_corpus(
        scale.elems,
        FACT_RELATIONS,
        scale.fact_tuples,
        scale.selective_tuples,
        CORPUS_SEED,
    );
    assert!(
        db.tuple_count() >= scale.floor_tuples,
        "corpus {} fell below the scale floor: {} < {}",
        scale.name,
        db.tuple_count(),
        scale.floor_tuples
    );
    let build_start = Instant::now();
    let index = StructureIndex::new(&db);
    let index_build = build_start.elapsed();
    println!(
        "E18 [{}]: {} elements, {} tuples | index built in {index_build:.3?}",
        scale.name,
        scale.elems,
        db.tuple_count()
    );

    let prepare = |qs: Vec<Structure>| -> Vec<PreparedQuery> {
        qs.iter()
            .map(|q| PreparedQuery::prepare(q, config))
            .collect()
    };
    let families = [
        Family {
            name: "selective",
            plans: prepare(selective_join_queries()),
            passes: 30,
        },
        Family {
            name: "bulk",
            plans: prepare(scale_join_queries(FACT_RELATIONS)),
            passes: 1,
        },
    ];

    // ---- Correctness before timing -------------------------------------
    // (1) Warm and freshly-recompiled programs agree on every instance.
    let mut comparisons = 0usize;
    for family in &families {
        for plan in &family.plans {
            let warm_decide = plan.decide_via_tree(&index);
            let fresh_decide = TreeDpProgram::compile(
                plan.evaluated(),
                &index,
                &plan.analysis().tree_decomposition,
            )
            .decide(&index);
            assert_eq!(warm_decide.exists, fresh_decide.exists, "{}", family.name);
            let warm_count = plan.count_via_tree(&index);
            let fresh_count = TreeDpProgram::compile(
                plan.original(),
                &index,
                &plan.counting_analysis().tree_decomposition,
            )
            .count(&index);
            assert_eq!(warm_count.count, fresh_count.count, "{}", family.name);
            comparisons += 2;
        }
    }
    // (2) The engine agrees with brute force on induced subsamples of the
    // same corpus — the in-bench differential oracle.
    let engine = Engine::new(*config);
    let slices: Vec<Structure> = (1..=4)
        .map(|seed| subsample_database(&db, 40, seed))
        .collect();
    let oracle_queries: Vec<Structure> = selective_join_queries()
        .into_iter()
        .chain(scale_join_queries(FACT_RELATIONS))
        .collect();
    for q in &oracle_queries {
        for slice in &slices {
            assert_eq!(engine.solve(q, slice).exists, homomorphism_exists(q, slice));
            comparisons += 1;
        }
    }
    let count_batch: Vec<(&Structure, &Structure)> = oracle_queries
        .iter()
        .flat_map(|q| slices.iter().map(move |s| (q, s)))
        .collect();
    for ((q, slice), report) in count_batch
        .iter()
        .zip(engine.batch(&count_batch, |e, &(q, d)| e.count_instance(q, d)))
    {
        assert_eq!(report.count, count_homomorphisms_bruteforce(q, slice));
        comparisons += 1;
    }
    println!("  oracle: {comparisons} comparisons, agreement 1.0 (asserted)");

    // ---- Memory columns ------------------------------------------------
    // What one cached database pins: the index shares its structure via
    // `Arc`; the engine's instance cache used to hold a second copy.
    let arc_bytes = index.heap_bytes();
    let clone_bytes = index.heap_bytes() + db.heap_bytes();
    assert!(
        arc_bytes < clone_bytes,
        "sharing the structure must pin strictly less than cloning it"
    );
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    println!(
        "  cached database: {:.2} MiB shared (was {:.2} MiB with a cloned structure, {:.2}x)",
        mb(arc_bytes),
        mb(clone_bytes),
        clone_bytes as f64 / arc_bytes as f64
    );

    // ---- Throughput: warm vs per-call recompilation --------------------
    let runs = timing_runs(3, 5);
    let mut rows: Vec<(&'static str, f64, f64, f64)> = Vec::new();
    for family in &families {
        // Warm the per-index program cache, then meter: the timed warm
        // loops must compile exactly nothing.
        warm_pass(family, &index);
        let compilations_before = program_compilation_count();
        let warm = median_time(runs, || {
            for _ in 0..family.passes {
                warm_pass(family, &index);
            }
        });
        assert_eq!(
            program_compilation_count(),
            compilations_before,
            "warm {} timing loop recompiled a program",
            family.name
        );
        let recompile = median_time(runs, || {
            for _ in 0..family.passes {
                recompile_pass(family, &index);
            }
        });
        let compiled = program_compilation_count() - compilations_before;
        let expected = (runs * family.passes * family.plans.len() * 2) as u64;
        assert_eq!(
            compiled, expected,
            "recompile {} loop must compile once per call",
            family.name
        );
        let instances = (family.passes * family.plans.len()) as f64;
        let warm_tput = instances / warm.as_secs_f64();
        let recompile_tput = instances / recompile.as_secs_f64();
        let speedup = warm_tput / recompile_tput;
        println!(
            "  {:<9} warm {warm_tput:>12.0} inst/s | recompile {recompile_tput:>12.0} inst/s | speedup {speedup:.2}x",
            family.name
        );
        rows.push((family.name, warm_tput, recompile_tput, speedup));
    }

    ScaleReport {
        name: scale.name,
        elems: scale.elems,
        tuples: db.tuple_count(),
        selective_tuples: scale.selective_tuples,
        index_build_ms: index_build.as_secs_f64() * 1e3,
        rows,
        shared_mb: mb(arc_bytes),
        cloned_mb: mb(clone_bytes),
        oracle_comparisons: comparisons,
    }
}

fn bench(c: &mut Criterion) {
    let config = EngineConfig::default();
    let scales: &[Scale] = if quick_mode() {
        &SCALES[..1]
    } else {
        &SCALES[..]
    };
    let reports: Vec<ScaleReport> = scales.iter().map(|s| run_scale(s, &config)).collect();

    // The gated column: warm-vs-recompile speedup of the selective family
    // on the 10^5-tuple corpus.
    let selective_speedup = reports[0].rows[0].3;
    let peak_rss = peak_rss_kb();
    if let Some(kb) = peak_rss {
        println!("  peak RSS {:.1} MiB", kb as f64 / 1024.0);
    }

    if quick_mode() {
        gate_against_baseline(selective_speedup, peak_rss);
        return;
    }

    assert!(
        selective_speedup >= 2.0,
        "E18 acceptance: warm selective throughput on the 1e5 corpus is only \
         {selective_speedup:.2}x per-call recompilation (floor 2x)"
    );
    write_json(&reports, peak_rss);

    // A small criterion group over the 10^5 corpus for the HTML/log view.
    let scale = &SCALES[0];
    let db = scale_corpus(
        scale.elems,
        FACT_RELATIONS,
        scale.fact_tuples,
        scale.selective_tuples,
        CORPUS_SEED,
    );
    let index = StructureIndex::new(&db);
    let selective = Family {
        name: "selective",
        plans: selective_join_queries()
            .iter()
            .map(|q| PreparedQuery::prepare(q, &config))
            .collect(),
        passes: 1,
    };
    let mut g = c.benchmark_group("e18");
    g.sample_size(10);
    g.bench_function("warm: selective decide+count pass (1e5)", |b| {
        b.iter(|| warm_pass(&selective, &index))
    });
    g.bench_function("recompile: selective decide+count pass (1e5)", |b| {
        b.iter(|| recompile_pass(&selective, &index))
    });
    g.finish();
}

/// The CI regression gate of quick mode: the measured warm-vs-recompile
/// speedup on the selective family must hold a generous 1.5x floor, and
/// peak RSS must stay under the checked-in full-mode baseline (which
/// includes the 10x larger 10^6 corpus, so the ceiling is generous by
/// construction; skipped when the platform exposes no `VmHWM`).
fn gate_against_baseline(speedup: f64, peak_rss: Option<u64>) {
    const FLOOR: f64 = 1.5;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E18.json");
    let baseline = std::fs::read_to_string(path).ok();
    let recorded = baseline
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
        "E18 scale regression: warm selective throughput is only {speedup:.2}x \
         per-call recompilation (floor {FLOOR}x)"
    );
    match (
        peak_rss,
        baseline
            .as_deref()
            .and_then(|json| json_field_f64(json, "\"peak_rss_mb\": ")),
    ) {
        (Some(kb), Some(base_mb)) if base_mb > 0.0 => {
            let measured_mb = kb as f64 / 1024.0;
            assert!(
                measured_mb <= base_mb,
                "E18 peak-RSS regression: the quick 1e5 run used {measured_mb:.1} MiB, \
                 more than the recorded full-mode baseline ({base_mb:.1} MiB) that \
                 includes the 10x larger 1e6 corpus"
            );
            println!("  quick-mode RSS gate: {measured_mb:.1} MiB <= baseline {base_mb:.1} MiB");
        }
        // The platform measured VmHWM but the baseline is missing or
        // unusable: on CI that means the gate silently never ran — a real
        // RSS regression would sail through.  Fail loudly instead of
        // printing a skip line that looks like a pass.
        (Some(_), base) => panic!(
            "E18 quick-mode RSS gate could not run: /proc/self/status reports VmHWM \
             but the checked-in BENCH_E18.json baseline is {} — refusing to skip \
             the gate on a platform that can enforce it",
            if base.is_none() {
                "missing or unreadable"
            } else {
                "non-positive"
            }
        ),
        // No VmHWM at all: only acceptable off-Linux, where /proc/self/status
        // does not exist.  On Linux a missing VmHWM means the probe broke.
        (None, _) if cfg!(target_os = "linux") => panic!(
            "E18 quick-mode RSS gate could not run: this is Linux but no VmHWM was \
             read from /proc/self/status — the peak-RSS probe is broken"
        ),
        (None, _) => println!("  quick-mode RSS gate skipped (platform exposes no VmHWM)"),
    }
    println!("  quick-mode gate passed: warm scale path holds the {FLOOR}x floor");
}

/// Emit `BENCH_E18.json` at the repository root, machine-readable.
fn write_json(reports: &[ScaleReport], peak_rss: Option<u64>) {
    let corpora = reports
        .iter()
        .map(|r| {
            let families = r
                .rows
                .iter()
                .map(|(name, warm, recompile, speedup)| {
                    format!(
                        "        {{\"family\": \"{name}\", \"warm_instances_per_sec\": {warm:.0}, \
                         \"recompile_instances_per_sec\": {recompile:.0}, \"speedup\": {speedup:.2}}}"
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            format!(
                "    {{\n      \"scale\": \"{}\", \"elements\": {}, \"tuples\": {}, \
                 \"selective_tuples\": {}, \"index_build_ms\": {:.3},\n      \
                 \"families\": [\n{families}\n      ],\n      \
                 \"memory\": {{\"cached_db_shared_mb\": {:.2}, \"cached_db_cloned_mb\": {:.2}, \
                 \"share_savings\": {:.2}}},\n      \
                 \"oracle\": {{\"comparisons\": {}, \"agreement\": 1.0}}\n    }}",
                r.name,
                r.elems,
                r.tuples,
                r.selective_tuples,
                r.index_build_ms,
                r.shared_mb,
                r.cloned_mb,
                r.cloned_mb / r.shared_mb,
                r.oracle_comparisons
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let out = format!(
        "{{\n  \"experiment\": \"e18_scale\",\n  \"seed\": {CORPUS_SEED},\n  \
         \"corpora\": [\n{corpora}\n  ],\n  \"peak_rss_mb\": {:.1},\n  \
         \"warm_recompilations_during_timing\": 0\n}}\n",
        peak_rss.map(|kb| kb as f64 / 1024.0).unwrap_or(0.0),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E18.json");
    std::fs::write(path, out).expect("write BENCH_E18.json at the repo root");
    println!("  wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
