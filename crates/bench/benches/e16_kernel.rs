//! E16 — the flat evaluation kernel vs the retained reference
//! implementations: per-solver cold/warm timings on the tree-DP/counting
//! stress corpus, with 100% oracle agreement asserted instance by
//! instance.
//!
//! Five rows, one per evaluation path:
//!
//! * `treedec_decide` — reference `hom_via_tree_decomposition` (BTreeMap
//!   tables, linear-scan frontier joins) vs the kernel hash-join DP;
//! * `treedec_count` — the counting DP, reference vs kernel group-sum
//!   joins, on the original-structure certificates;
//! * `pathdp_decide` — the path tier: the reference Theorem 4.6
//!   staircase sweep (PartialHom frontier) vs the kernel tree DP over the
//!   path-decomposition certificate, the program the engine's path tier
//!   runs;
//! * `forest_count` — the Theorem 6.1 (3) sum–product, universe scan vs
//!   prefilter domains;
//! * `backtrack_decide` — the propagating reference search vs the
//!   whole-query kernel program.
//!
//! **Cold** kernel timings rebuild the [`StructureIndex`] per instance
//! (what an engine with index caching disabled pays); **warm** timings
//! reuse prebuilt indexes (what the engine's instance-index cache serves).
//! The reference has no index, so its one series doubles as both.
//!
//! The machine-readable results are written to `BENCH_E16.json` at the
//! repository root — the checked-in before/after that seeds the bench
//! trajectory.
//!
//! **Quick mode** (`CQ_BENCH_QUICK=1`, the CI bench-smoke step): fewer
//! timing runs, no JSON rewrite, no criterion endpoints — instead the
//! measured per-solver warm speedups are diffed against the checked-in
//! `BENCH_E16.json` and the run **fails** if any row drops below the
//! generous 1.5x floor (the checked-in numbers are 3–22x, so only a real
//! kernel regression trips it).

use cq_bench::{json_field_f64, median_time, quick_mode, timing_runs};
use cq_core::{EngineConfig, PreparedQuery};
use cq_solver::backtrack::BacktrackSolver as ReferenceBacktrack;
use cq_solver::kernel::{ForestProgram, SearchProgram, TreeDpProgram};
use cq_structures::{Structure, StructureIndex};
use cq_workloads::kernel_stress_traffic;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

struct SolverRow {
    name: &'static str,
    reference: Duration,
    kernel_cold: Duration,
    kernel_warm: Duration,
    comparisons: usize,
}

impl SolverRow {
    fn speedup_warm(&self) -> f64 {
        self.reference.as_secs_f64() / self.kernel_warm.as_secs_f64()
    }

    fn speedup_cold(&self) -> f64 {
        self.reference.as_secs_f64() / self.kernel_cold.as_secs_f64()
    }
}

/// Time one evaluation path: `reference` and `kernel` both run over every
/// (prepared query, target, warm index) instance; `kernel` receives the
/// index (warm) or rebuilds it (cold).  Oracle agreement is asserted once
/// over the warm pass.
fn measure(
    name: &'static str,
    instances: &[(PreparedQuery, &Structure, StructureIndex)],
    reference: impl Fn(&PreparedQuery, &Structure) -> u64,
    kernel: impl Fn(&PreparedQuery, &StructureIndex) -> u64,
) -> SolverRow {
    // Oracle agreement, instance by instance, before timing anything.
    let mut comparisons = 0usize;
    for (prepared, target, index) in instances {
        let expected = reference(prepared, target);
        let got = kernel(prepared, index);
        assert_eq!(
            got,
            expected,
            "{name}: kernel disagrees with the reference on {} -> {target}",
            prepared.original()
        );
        comparisons += 1;
    }
    let reference_time = median_time(timing_runs(2, 5), || {
        for (prepared, target, _) in instances {
            std::hint::black_box(reference(prepared, target));
        }
    });
    let kernel_cold = median_time(timing_runs(2, 5), || {
        for (prepared, target, _) in instances {
            let index = StructureIndex::new(target);
            std::hint::black_box(kernel(prepared, &index));
        }
    });
    let kernel_warm = median_time(timing_runs(2, 5), || {
        for (prepared, _, index) in instances {
            std::hint::black_box(kernel(prepared, index));
        }
    });
    SolverRow {
        name,
        reference: reference_time,
        kernel_cold,
        kernel_warm,
        comparisons,
    }
}

fn bench(c: &mut Criterion) {
    let (db_count, db_size, repeats, seed) = (4usize, 14usize, 6usize, 16u64);
    let traffic = kernel_stress_traffic(db_count, db_size, repeats, seed);
    let config = EngineConfig::default();
    println!(
        "E16: kernel stress trace of {} instances ({} treewidth-2 queries, {} random targets of {} vertices, seed {})",
        traffic.len(),
        traffic.queries.len(),
        db_count,
        db_size,
        seed
    );

    // Prepare each trace entry once: plan (with counting certificates) +
    // warm index per instance — the solvers then time pure evaluation.
    let instances: Vec<(PreparedQuery, &Structure, StructureIndex)> = traffic
        .trace
        .iter()
        .map(|&(q, d)| {
            let prepared = PreparedQuery::prepare(&traffic.queries[q], &config);
            prepared.counting_analysis(); // materialize counting certificates
            let target = &traffic.databases[d];
            (prepared, target, StructureIndex::new(target))
        })
        .collect();

    let rows = vec![
        measure(
            "treedec_decide",
            &instances,
            |p, t| {
                cq_solver::treedec::hom_via_tree_decomposition(
                    p.evaluated(),
                    t,
                    &p.analysis().tree_decomposition,
                ) as u64
            },
            |p, idx| {
                TreeDpProgram::compile(p.evaluated(), idx, &p.analysis().tree_decomposition)
                    .decide(idx)
                    .exists as u64
            },
        ),
        measure(
            "treedec_count",
            &instances,
            |p, t| {
                cq_solver::treedec::count_hom_via_tree_decomposition(
                    p.original(),
                    t,
                    &p.counting_analysis().tree_decomposition,
                )
            },
            |p, idx| {
                TreeDpProgram::compile(p.original(), idx, &p.counting_analysis().tree_decomposition)
                    .count(idx)
                    .count
                    .expect_finite()
            },
        ),
        measure(
            "pathdp_decide",
            &instances,
            |p, t| {
                cq_solver::pathdp::hom_via_staircase(p.evaluated(), t, p.staircase()).exists as u64
            },
            |p, idx| {
                let td = p.analysis().path_decomposition.to_tree_decomposition();
                TreeDpProgram::compile(p.evaluated(), idx, &td)
                    .decide(idx)
                    .exists as u64
            },
        ),
        measure(
            "forest_count",
            &instances,
            |p, t| {
                cq_solver::treedepth::count_with_forest(
                    p.original(),
                    t,
                    &p.counting_analysis().elimination_forest,
                )
            },
            |p, idx| {
                ForestProgram::compile(p.original(), idx, &p.counting_analysis().elimination_forest)
                    .count(idx)
                    .count
                    .expect_finite()
            },
        ),
        measure(
            "backtrack_decide",
            &instances,
            |p, t| ReferenceBacktrack::default().exists(p.evaluated(), t) as u64,
            |p, idx| {
                SearchProgram::compile(p.evaluated(), idx, true)
                    .run(idx)
                    .0
                    .is_some() as u64
            },
        ),
    ];

    println!("  solver           |    reference |  kernel cold |  kernel warm | speedup (warm)");
    for row in &rows {
        println!(
            "  {:<16} | {:>12.3?} | {:>12.3?} | {:>12.3?} | {:>6.2}x",
            row.name,
            row.reference,
            row.kernel_cold,
            row.kernel_warm,
            row.speedup_warm()
        );
    }
    let total_reference: f64 = rows.iter().map(|r| r.reference.as_secs_f64()).sum();
    let total_warm: f64 = rows.iter().map(|r| r.kernel_warm.as_secs_f64()).sum();
    println!(
        "  overall: kernel (warm) {:.2}x faster than the reference path; 100% oracle agreement over {} comparisons",
        total_reference / total_warm,
        rows.iter().map(|r| r.comparisons).sum::<usize>()
    );

    if quick_mode() {
        gate_against_baseline(&rows);
        return;
    }

    write_json(&rows, traffic.len(), db_count, db_size, repeats, seed);

    // Two end points through the criterion harness for the uniform
    // `bench ...` output lines the other experiments produce.
    let mut g = c.benchmark_group("e16");
    g.sample_size(10);
    g.bench_function("reference: tree-DP counting over the trace", |b| {
        b.iter(|| {
            instances
                .iter()
                .map(|(p, t, _)| {
                    cq_solver::treedec::count_hom_via_tree_decomposition(
                        p.original(),
                        t,
                        &p.counting_analysis().tree_decomposition,
                    )
                })
                .sum::<u64>()
        })
    });
    g.bench_function(
        "kernel: tree-DP counting over the trace (warm index)",
        |b| {
            b.iter(|| {
                instances
                    .iter()
                    .map(|(p, _, idx)| {
                        TreeDpProgram::compile(
                            p.original(),
                            idx,
                            &p.counting_analysis().tree_decomposition,
                        )
                        .count(idx)
                        .count
                        .expect_finite()
                    })
                    .sum::<u64>()
            })
        },
    );
    g.finish();
}

/// The CI regression gate of quick mode: diff the measured warm speedups
/// against the checked-in `BENCH_E16.json` and fail below the 1.5x floor.
fn gate_against_baseline(rows: &[SolverRow]) {
    const FLOOR: f64 = 1.5;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E16.json");
    let baseline_json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("checked-in {path} must be readable: {e}"));
    let baseline = parse_baseline_speedups(&baseline_json);
    println!("  quick-mode gate vs checked-in BENCH_E16.json (floor {FLOOR}x):");
    let mut failures = Vec::new();
    for row in rows {
        let measured = row.speedup_warm();
        let recorded = baseline
            .iter()
            .find(|(name, _)| name == row.name)
            .map(|&(_, s)| s);
        match recorded {
            Some(recorded) => println!(
                "    {:<16} measured {measured:>6.2}x | baseline {recorded:>6.2}x | delta {:>+6.1}%",
                row.name,
                (measured / recorded - 1.0) * 100.0
            ),
            None => failures.push(format!(
                "solver {} missing from the checked-in baseline",
                row.name
            )),
        }
        if measured < FLOOR {
            failures.push(format!(
                "{}: warm speedup {measured:.2}x fell below the {FLOOR}x floor (baseline {:.2}x)",
                row.name,
                recorded.unwrap_or(f64::NAN)
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "E16 kernel speedup regression:\n  {}",
        failures.join("\n  ")
    );
    println!("  quick-mode gate passed: every solver holds the {FLOOR}x floor");
}

/// Per-solver warm speedups scanned out of the checked-in JSON: one
/// record per line, `"solver": "<name>"` and `"speedup_warm": <x>` fields.
fn parse_baseline_speedups(json: &str) -> Vec<(String, f64)> {
    json.lines()
        .filter_map(|line| {
            let solver = cq_bench::json_field(line, "\"solver\": ")?.to_string();
            let speedup = json_field_f64(line, "\"speedup_warm\": ")?;
            Some((solver, speedup))
        })
        .collect()
}

/// Emit `BENCH_E16.json` at the repository root: per-solver cold/warm
/// reference-vs-kernel timings in milliseconds, machine-readable.
fn write_json(
    rows: &[SolverRow],
    instances: usize,
    db_count: usize,
    db_size: usize,
    repeats: usize,
    seed: u64,
) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"e16_kernel\",\n");
    out.push_str(&format!(
        "  \"corpus\": {{\"instances\": {instances}, \"db_count\": {db_count}, \"db_size\": {db_size}, \"repeats_per_query\": {repeats}, \"seed\": {seed}}},\n"
    ));
    out.push_str("  \"solvers\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"solver\": \"{}\", \"reference_ms\": {:.3}, \"kernel_cold_ms\": {:.3}, \"kernel_warm_ms\": {:.3}, \"speedup_cold\": {:.2}, \"speedup_warm\": {:.2}, \"oracle_agreement\": 1.0, \"comparisons\": {}}}{}\n",
            row.name,
            ms(row.reference),
            ms(row.kernel_cold),
            ms(row.kernel_warm),
            row.speedup_cold(),
            row.speedup_warm(),
            row.comparisons,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E16.json");
    std::fs::write(path, out).expect("write BENCH_E16.json at the repo root");
    println!("  wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
