//! E20 — the semiring-generic kernel: does one sum-of-products DP, written
//! once and instantiated per semiring, keep the specialised kernels'
//! throughput while adding checked counting and weighted aggregates?
//!
//! Three question blocks, all on the E16 kernel-stress corpus so the
//! numbers are directly comparable with the checked-in `BENCH_E16.json`:
//!
//! * **Boolean/counting instantiations vs the pre-refactor kernel** — the
//!   same five evaluation paths E16 times (`treedec_decide`,
//!   `treedec_count`, `pathdp_decide`, `forest_count`,
//!   `backtrack_decide`), now running through the generic kernel at
//!   `BoolSemiring` / `CheckedNatSemiring`.  `pathdp_decide` times the
//!   path tier's program, the tree DP over the path-decomposition
//!   certificate, against E16's staircase-sweep kernel.  The reported
//!   `throughput_vs_e16` is checked-in-E16-warm-ms over measured-ms; the
//!   refactor's acceptance bar is ≥ 0.9x on every row (genericity must
//!   not cost more than 10%).
//! * **Weighted aggregates** — `min_cost` / `max_weight` through the
//!   tropical instantiations on the same instances (tree-DP, forest and
//!   search tiers), with cross-tier agreement asserted instance by
//!   instance before timing.  These rows have no E16 baseline: the
//!   capability did not exist.
//! * **Separator tables: flat packed-key arena vs `HashMap<Vec<u32>, _>`**
//!   — the group-sums representation the refactor replaced.  Both group
//!   every corpus relation by its separator projection (all but the last
//!   column); the hash-map "before" allocates one `Vec<u32>` key per
//!   probe, the `GroupTable` "after" packs keys back-to-back in one `u32`
//!   arena.
//!
//! Full mode writes `BENCH_E20.json` at the repository root.  **Quick
//! mode** (`CQ_BENCH_QUICK=1`, the CI bench-smoke step) skips the JSON
//! rewrite and instead gates the Boolean/counting rows against the
//! checked-in `BENCH_E16.json` with a generous 0.7x floor: unlike the
//! other bench gates (same-run warm-vs-cold ratios, immune to machine
//! drift), this ratio divides ms measured *today* by ms recorded when
//! E16 was baselined, so day-to-day CI-runner drift moves it by ±20%.
//! Only a real genericity regression trips 0.7x; the strict 0.9x
//! acceptance bar applies to full-mode baseline refreshes.

use cq_bench::{json_field_f64, median_time, min_time, quick_mode, timing_runs};
use cq_core::{EngineConfig, PreparedQuery};
use cq_solver::kernel::{ForestProgram, SearchProgram, TreeDpProgram};
use cq_solver::{GroupTable, MaxWeightSemiring, MinCostSemiring};
use cq_structures::{Structure, StructureIndex, TupleWeights};
use cq_workloads::kernel_stress_traffic;
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;
use std::time::Duration;

struct Row {
    name: &'static str,
    kernel: Duration,
    /// The matching `kernel_warm_ms` of the checked-in `BENCH_E16.json`
    /// (pre-refactor specialised kernel), when the row existed then.
    e16_warm_ms: Option<f64>,
}

impl Row {
    /// Pre-refactor warm time over measured time: ≥ 1.0 means the generic
    /// kernel is at least as fast as the specialised one was.
    fn throughput_vs_e16(&self) -> Option<f64> {
        self.e16_warm_ms
            .map(|baseline| baseline / (self.kernel.as_secs_f64() * 1e3))
    }
}

type Instance<'a> = (PreparedQuery, &'a Structure, StructureIndex, TupleWeights);

/// Time one evaluation path over every prepared instance (warm index).
/// Sub-millisecond trace sweeps are repeated until each timing sample
/// spans at least ~20ms, so the fast rows (the whole backtrack sweep is
/// tens of microseconds) do not gate CI on timer jitter or short
/// frequency excursions; the gated number is the minimum over the
/// timing runs ([`min_time`]) because interference only ever inflates a
/// sample.
fn measure(
    name: &'static str,
    instances: &[Instance<'_>],
    baseline: &[(String, f64)],
    f: impl Fn(&PreparedQuery, &StructureIndex, &TupleWeights) -> u64,
) -> Row {
    let sweep = || {
        for (prepared, _, index, weights) in instances {
            std::hint::black_box(f(prepared, index, weights));
        }
    };
    let calibration = median_time(1, sweep);
    let repeats = (Duration::from_millis(20).as_secs_f64() / calibration.as_secs_f64().max(1e-9))
        .ceil()
        .clamp(1.0, 1000.0) as u32;
    let kernel = min_time(timing_runs(3, 5), || {
        for _ in 0..repeats {
            sweep();
        }
    }) / repeats;
    let e16_warm_ms = baseline.iter().find(|(n, _)| n == name).map(|&(_, ms)| ms);
    Row {
        name,
        kernel,
        e16_warm_ms,
    }
}

/// The `kernel_warm_ms` per solver row of the checked-in `BENCH_E16.json`.
fn e16_baseline() -> Vec<(String, f64)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E16.json");
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("checked-in {path} must be readable: {e}"));
    json.lines()
        .filter_map(|line| {
            let solver = cq_bench::json_field(line, "\"solver\": ")?.to_string();
            let warm = json_field_f64(line, "\"kernel_warm_ms\": ")?;
            Some((solver, warm))
        })
        .collect()
}

/// Group every relation of every corpus database by its separator
/// projection (all columns but the last), summing a per-row weight — the
/// exact access pattern of the kernel's per-edge group-sum tables — into
/// either representation, and time the difference.
fn group_sums_shootout(instances: &[Instance<'_>]) -> (Duration, Duration) {
    // One flat (stride, rows) stream per relation, precomputed so both
    // contenders time pure grouping.
    let mut streams: Vec<(usize, Vec<Vec<u32>>)> = Vec::new();
    for (_, target, _, _) in instances {
        for sym in target.vocabulary().ids() {
            let arity = target.vocabulary().arity(sym);
            if arity < 2 {
                continue;
            }
            let rows: Vec<Vec<u32>> = target.relation(sym).rows().map(|t| t.to_vec()).collect();
            if !rows.is_empty() {
                streams.push((arity - 1, rows));
            }
        }
    }
    let hashmap = median_time(timing_runs(2, 5), || {
        for (stride, rows) in &streams {
            let mut table: HashMap<Vec<u32>, u64> = HashMap::new();
            for row in rows {
                // The pre-refactor representation: a fresh Vec<u32> key
                // allocated per probed row.
                let key: Vec<u32> = row[..*stride].to_vec();
                *table.entry(key).or_insert(0) += u64::from(row[*stride]);
            }
            std::hint::black_box(table.len());
        }
    });
    let arena = median_time(timing_runs(2, 5), || {
        for (stride, rows) in &streams {
            let mut table: GroupTable<u64> = GroupTable::with_capacity(*stride, rows.len());
            for row in rows {
                table.merge(&row[..*stride], u64::from(row[*stride]), |acc, v| *acc += v);
            }
            std::hint::black_box(table.len());
        }
    });
    (hashmap, arena)
}

fn bench(c: &mut Criterion) {
    let (db_count, db_size, repeats, seed) = (4usize, 14usize, 6usize, 16u64);
    let traffic = kernel_stress_traffic(db_count, db_size, repeats, seed);
    let config = EngineConfig::default();
    println!(
        "E20: semiring kernel on the E16 stress trace of {} instances ({} queries, {} random targets of {} vertices, seed {})",
        traffic.len(),
        traffic.queries.len(),
        db_count,
        db_size,
        seed
    );

    let instances: Vec<Instance<'_>> = traffic
        .trace
        .iter()
        .map(|&(q, d)| {
            let prepared = PreparedQuery::prepare(&traffic.queries[q], &config);
            prepared.counting_analysis();
            let target = &traffic.databases[d];
            let weights = TupleWeights::from_fn(target, |sym, row, t| {
                (sym.index() as u64 + 1) * 7
                    + row as u64 * 3
                    + t.first().copied().unwrap_or(0) as u64 % 5
            });
            (prepared, target, StructureIndex::new(target), weights)
        })
        .collect();

    // Cross-tier weighted agreement before timing anything: the tree-DP,
    // forest and search instantiations must name the same optimum on every
    // instance and both objectives.
    for (prepared, target, index, weights) in &instances {
        let counting = prepared.counting_analysis();
        for objective in ["min", "max"] {
            let (tree, forest, search) = if objective == "min" {
                (
                    TreeDpProgram::compile(
                        prepared.original(),
                        index,
                        &counting.tree_decomposition,
                    )
                    .eval::<MinCostSemiring>(index, Some(weights))
                    .0,
                    ForestProgram::compile(
                        prepared.original(),
                        index,
                        &counting.elimination_forest,
                    )
                    .eval::<MinCostSemiring>(index, Some(weights), &mut 0),
                    SearchProgram::compile(prepared.original(), index, true)
                        .aggregate::<MinCostSemiring>(index, Some(weights))
                        .0,
                )
            } else {
                (
                    TreeDpProgram::compile(
                        prepared.original(),
                        index,
                        &counting.tree_decomposition,
                    )
                    .eval::<MaxWeightSemiring>(index, Some(weights))
                    .0,
                    ForestProgram::compile(
                        prepared.original(),
                        index,
                        &counting.elimination_forest,
                    )
                    .eval::<MaxWeightSemiring>(index, Some(weights), &mut 0),
                    SearchProgram::compile(prepared.original(), index, true)
                        .aggregate::<MaxWeightSemiring>(index, Some(weights))
                        .0,
                )
            };
            assert_eq!(
                tree,
                forest,
                "{objective}: tree-DP and forest disagree on {} -> {target}",
                prepared.original()
            );
            assert_eq!(
                tree,
                search,
                "{objective}: tree-DP and search disagree on {} -> {target}",
                prepared.original()
            );
        }
    }
    println!(
        "  weighted cross-tier agreement: 3 tiers x 2 objectives on all {} instances",
        instances.len()
    );

    let baseline = e16_baseline();
    let rows = vec![
        measure("treedec_decide", &instances, &baseline, |p, idx, _| {
            TreeDpProgram::compile(p.evaluated(), idx, &p.analysis().tree_decomposition)
                .decide(idx)
                .exists as u64
        }),
        measure("treedec_count", &instances, &baseline, |p, idx, _| {
            TreeDpProgram::compile(p.original(), idx, &p.counting_analysis().tree_decomposition)
                .count(idx)
                .count
                .expect_finite()
        }),
        measure("pathdp_decide", &instances, &baseline, |p, idx, _| {
            let td = p.analysis().path_decomposition.to_tree_decomposition();
            TreeDpProgram::compile(p.evaluated(), idx, &td)
                .decide(idx)
                .exists as u64
        }),
        measure("forest_count", &instances, &baseline, |p, idx, _| {
            ForestProgram::compile(p.original(), idx, &p.counting_analysis().elimination_forest)
                .count(idx)
                .count
                .expect_finite()
        }),
        measure("backtrack_decide", &instances, &baseline, |p, idx, _| {
            SearchProgram::compile(p.evaluated(), idx, true)
                .run(idx)
                .0
                .is_some() as u64
        }),
        measure("mincost_treedec", &instances, &baseline, |p, idx, w| {
            TreeDpProgram::compile(p.original(), idx, &p.counting_analysis().tree_decomposition)
                .eval::<MinCostSemiring>(idx, Some(w))
                .0
                .unwrap_or(0)
        }),
        measure("maxweight_forest", &instances, &baseline, |p, idx, w| {
            ForestProgram::compile(p.original(), idx, &p.counting_analysis().elimination_forest)
                .eval::<MaxWeightSemiring>(idx, Some(w), &mut 0)
                .unwrap_or(0)
        }),
        measure("mincost_search", &instances, &baseline, |p, idx, w| {
            SearchProgram::compile(p.original(), idx, true)
                .aggregate::<MinCostSemiring>(idx, Some(w))
                .0
                .unwrap_or(0)
        }),
    ];

    println!("  row              |    kernel ms |  e16 warm ms | throughput vs e16");
    for row in &rows {
        let ms = row.kernel.as_secs_f64() * 1e3;
        match (row.e16_warm_ms, row.throughput_vs_e16()) {
            (Some(base), Some(ratio)) => println!(
                "  {:<16} | {ms:>12.3} | {base:>12.3} | {ratio:>6.2}x",
                row.name
            ),
            _ => println!(
                "  {:<16} | {ms:>12.3} | {:>12} | {:>7}",
                row.name, "(new)", "-"
            ),
        }
    }

    let (hashmap, arena) = group_sums_shootout(&instances);
    let group_speedup = hashmap.as_secs_f64() / arena.as_secs_f64();
    println!(
        "  group_sums: HashMap<Vec<u32>,_> {:.3?} vs flat arena {:.3?} ({group_speedup:.2}x)",
        hashmap, arena
    );

    if quick_mode() {
        gate_against_e16(&rows);
        return;
    }

    write_json(
        &rows,
        hashmap,
        arena,
        traffic.len(),
        db_count,
        db_size,
        repeats,
        seed,
    );

    let mut g = c.benchmark_group("e20");
    g.sample_size(10);
    g.bench_function("generic kernel: checked counting over the trace", |b| {
        b.iter(|| {
            instances
                .iter()
                .map(|(p, _, idx, _)| {
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
    });
    g.bench_function("generic kernel: min-cost over the trace", |b| {
        b.iter(|| {
            instances
                .iter()
                .map(|(p, _, idx, w)| {
                    TreeDpProgram::compile(
                        p.original(),
                        idx,
                        &p.counting_analysis().tree_decomposition,
                    )
                    .eval::<MinCostSemiring>(idx, Some(w))
                    .0
                    .unwrap_or(0)
                })
                .sum::<u64>()
        })
    });
    g.finish();
}

/// The CI regression gate of quick mode: every row with an E16 twin must
/// hold ≥ `FLOOR` of the pre-refactor warm throughput.  The floor is
/// deliberately generous (0.7x, not the full-mode 0.9x acceptance bar)
/// because this is the one gate built on cross-day absolute timings —
/// today's measured ms over the ms recorded when BENCH_E16.json was
/// baselined — so runner drift alone moves the ratio by ±20%.
fn gate_against_e16(rows: &[Row]) {
    const FLOOR: f64 = 0.7;
    println!("  quick-mode gate vs checked-in BENCH_E16.json warm timings (floor {FLOOR}x):");
    let mut failures = Vec::new();
    let mut gated = 0usize;
    for row in rows {
        let Some(ratio) = row.throughput_vs_e16() else {
            continue;
        };
        gated += 1;
        println!(
            "    {:<16} throughput {ratio:>6.2}x of the pre-refactor kernel",
            row.name
        );
        if ratio < FLOOR {
            failures.push(format!(
                "{}: generic kernel runs at {ratio:.2}x of the specialised kernel (floor {FLOOR}x)",
                row.name
            ));
        }
    }
    assert!(
        gated >= 5,
        "only {gated} rows matched the E16 baseline — row names drifted"
    );
    assert!(
        failures.is_empty(),
        "E20 semiring-kernel throughput regression:\n  {}",
        failures.join("\n  ")
    );
    println!("  quick-mode gate passed: every E16 row holds the {FLOOR}x floor");
}

/// Emit `BENCH_E20.json` at the repository root.
#[allow(clippy::too_many_arguments)]
fn write_json(
    rows: &[Row],
    hashmap: Duration,
    arena: Duration,
    instances: usize,
    db_count: usize,
    db_size: usize,
    repeats: usize,
    seed: u64,
) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"e20_semiring\",\n");
    out.push_str(&format!(
        "  \"corpus\": {{\"instances\": {instances}, \"db_count\": {db_count}, \"db_size\": {db_size}, \"repeats_per_query\": {repeats}, \"seed\": {seed}}},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        match (row.e16_warm_ms, row.throughput_vs_e16()) {
            (Some(base), Some(ratio)) => out.push_str(&format!(
                "    {{\"solver\": \"{}\", \"kernel_ms\": {:.3}, \"e16_warm_ms\": {base:.3}, \"throughput_vs_e16\": {ratio:.2}}}{}\n",
                row.name,
                ms(row.kernel),
                if i + 1 < rows.len() { "," } else { "" }
            )),
            _ => out.push_str(&format!(
                "    {{\"solver\": \"{}\", \"kernel_ms\": {:.3}}}{}\n",
                row.name,
                ms(row.kernel),
                if i + 1 < rows.len() { "," } else { "" }
            )),
        }
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"group_sums\": {{\"hashmap_ms\": {:.3}, \"arena_ms\": {:.3}, \"speedup\": {:.2}}}\n",
        ms(hashmap),
        ms(arena),
        hashmap.as_secs_f64() / arena.as_secs_f64()
    ));
    out.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E20.json");
    std::fs::write(path, out).expect("write BENCH_E20.json at the repo root");
    println!("  wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
