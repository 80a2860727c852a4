//! E22 — answers: first-answer latency and per-answer delay of the
//! bounded-delay enumeration cursor on the 10^5-tuple corpus.
//!
//! The corpora are [`scale_corpus`] variants that differ **only** in the
//! density of the sparse selective relation `S` (the dense fact relations
//! are identical draws): against the endpoint query
//! `S(x0,x1) ∧ R0(x1,x2) ∧ R1(x2,x3)` with `x0, x3` free, the total
//! answer count scales with `|S|` while the structural work per cursor
//! step (pinned DP passes over the same fact relations, whose unpinned
//! depths walk posting lists rather than the 4000-element domains) does
//! not.  That contrast is the whole point of the pinned-prefix cursor
//! behind [`Engine::answers`]:
//!
//! * **first-answer latency** — one warm `answers(offset 0, limit 1)`
//!   call: the cursor descends to the lexicographically least answer and
//!   stops, never materialising the rest;
//! * **cold first-answer latency** — the same call on an index version
//!   the answer program has not seen (one fact tuple inserted or deleted
//!   just before, the domain epoch unchanged, so no recompilation): it
//!   pays the cursor's preprocessing, the one full-reducer pass that
//!   computes the free elements' viable domains for that version;
//! * **per-answer delay** — the marginal cost of a row inside one page,
//!   `(T(prefix) − T(first)) / (prefix − 1)`;
//! * **count cost** — [`Engine::count_answers`] for contrast: the grouped
//!   root-bag DP over the answer closure (each free element adjoined only
//!   on its path to the root bag) *does* touch every answer group, so its
//!   cost legitimately grows with the answer count the cursor is
//!   insensitive to.
//!
//! The gated headline is `delay_ratio`: the max/min per-answer delay
//! across variants whose total answer counts span a gated factor
//! (`answers_span`, ≥ 8x here).  If enumeration secretly materialised or
//! re-scanned the answer set, the delay would track the span; bounded
//! delay keeps the ratio flat.  First-answer latency is gated the same
//! way with a looser ceiling (it is a single µs-scale measurement, noisier
//! by nature).
//!
//! Correctness is asserted before timing, against the structure-agnostic
//! [`answers_bruteforce`] projection (none of the prepared certificates):
//! on the **full 10^5-tuple corpus** of the sparsest variant the engine's
//! count and entire first page must match the reference exactly (count,
//! rows, order), and on seeded induced subsamples of every variant the
//! pages must tile the full reference enumeration with exact `has_more`
//! flags.  Every variant must dispatch to the answer DP (no silent
//! brute-force fallback) and emit strictly ascending rows.
//!
//! Full mode writes the machine-readable `BENCH_E22.json` at the
//! repository root and asserts the acceptance ceilings; quick mode
//! (`CQ_BENCH_QUICK=1`, the CI bench-smoke step) runs the same four
//! variants with a shorter prefix, gates the same ratios against generous
//! ceilings, and holds every variant's count, warm first-answer latency
//! and per-answer delay within 4x of the values recorded in
//! `BENCH_E22.json` — so a cursor or count pass that slows uniformly,
//! leaving the ratios flat, still fails.  The cold first-answer latency
//! is reported, not gated.

use cq_bench::{json_field_f64, min_time, quick_mode, timing_runs};
use cq_core::{AnswerMethod, Engine, EngineConfig};
use cq_structures::{answers_bruteforce, ConjunctiveQuery, DeltaBatch, Structure};
use cq_workloads::{scale_corpus, subsample_database};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const CORPUS_SEED: u64 = 0xE22;
const ELEMS: usize = 4_000;
const FACT_RELATIONS: usize = 3;
const FACT_TUPLES: usize = 35_500;
const FLOOR_TUPLES: usize = 100_000;
/// Selective densities of the variants.  Answers scale roughly linearly
/// in `|S|` (one `S`-atom guards the free source); delays must not.
const DENSITIES: [usize; 4] = [100, 400, 1_600, 6_400];

/// The endpoint query: which pairs `(x0, x3)` are joined by a selective
/// edge followed by a two-hop fact path?  Treewidth 1, so the answer DP
/// is licensed under the default engine thresholds.  The count runs over
/// the answer closure (width 2 when the root bag holds `x0`: only `x3`
/// travels); the cursor's fully adjoined decomposition pays both free
/// elements (width 3).
fn endpoint_query() -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new();
    q.atom("S", &["x0", "x1"]);
    q.atom("R0", &["x1", "x2"]);
    q.atom("R1", &["x2", "x3"]);
    q.mark_free("x0").expect("x0 is declared by the S atom");
    q.mark_free("x3").expect("x3 is declared by the R1 atom");
    q
}

/// The brute-force answer rows in the engine's row type, sorted ascending
/// (the order the cursor emits).
fn reference_rows(query: &ConjunctiveQuery, target: &Structure) -> Vec<Vec<u32>> {
    let canonical = query.canonical_structure().expect("valid bench query");
    let free = query.free_element_indices();
    answers_bruteforce(&canonical, target, &free)
        .into_iter()
        .map(|row| row.into_iter().map(|e| e as u32).collect())
        .collect()
}

struct VariantRow {
    selective_tuples: usize,
    tuples: usize,
    answers: u64,
    count_ms: f64,
    first_us: f64,
    cold_first_us: f64,
    delay_us: f64,
}

struct Report {
    prefix: usize,
    rows: Vec<VariantRow>,
    oracle_comparisons: usize,
}

impl Report {
    fn span_of(&self, f: impl Fn(&VariantRow) -> f64) -> f64 {
        let max = self.rows.iter().map(&f).fold(f64::MIN, f64::max);
        let min = self.rows.iter().map(&f).fold(f64::MAX, f64::min);
        max / min
    }

    /// How far the total answer counts spread across variants.
    fn answers_span(&self) -> f64 {
        self.span_of(|r| r.answers as f64)
    }

    /// The gated headline: max/min per-answer delay across that spread.
    fn delay_ratio(&self) -> f64 {
        self.span_of(|r| r.delay_us)
    }

    fn first_ratio(&self) -> f64 {
        self.span_of(|r| r.first_us)
    }
}

fn run(config: &EngineConfig) -> Report {
    let query = endpoint_query();
    let prefix = if quick_mode() { 64 } else { 256 };
    let runs = timing_runs(2, 3);
    // The count pass is contrast (its cost legitimately grows with the
    // answer count) and the slowest call on the dense variants — time it
    // sparingly.
    let count_runs = timing_runs(1, 2);
    let corpora: Vec<(usize, Structure)> = DENSITIES
        .iter()
        .map(|&s| {
            let db = scale_corpus(ELEMS, FACT_RELATIONS, FACT_TUPLES, s, CORPUS_SEED);
            assert!(
                db.tuple_count() >= FLOOR_TUPLES,
                "variant |S|={s} fell below the scale floor: {} < {FLOOR_TUPLES}",
                db.tuple_count()
            );
            (s, db)
        })
        .collect();
    println!(
        "E22: {ELEMS} elements, {} tuples, |S| in {DENSITIES:?} | prefix {prefix} rows",
        corpora[0].1.tuple_count()
    );

    // ---- Correctness before timing -------------------------------------
    // (1) Full-corpus differential oracle on the sparsest variant: count
    // and the entire first page against the brute-force projection —
    // exact count, exact rows, exact order, on the actual 10^5-tuple
    // corpus the timings run over.
    let mut comparisons = 0usize;
    {
        let (s, db) = &corpora[0];
        let expected = reference_rows(&query, db);
        let engine = Engine::new(*config);
        let report = engine.count_answers(&query, db);
        assert_eq!(
            report.answers,
            expected.len() as u64,
            "count diverged from brute force on the full |S|={s} corpus"
        );
        let page = engine.answers(&query, db, 0, prefix);
        assert_eq!(
            page.rows.as_slice(),
            &expected[..prefix],
            "first page diverged from brute force on the full |S|={s} corpus"
        );
        comparisons += 1 + prefix;
        println!(
            "  oracle [full corpus, |S|={s}]: count {} and a {prefix}-row page agree with brute force",
            report.answers
        );
    }
    // (2) Induced subsamples of every variant: pages tile the full
    // reference enumeration with exact `has_more` flags.
    let mut subsample_answers = 0usize;
    for (s, db) in &corpora {
        for seed in 1..=2u64 {
            let slice = subsample_database(db, 400, seed);
            let expected = reference_rows(&query, &slice);
            let engine = Engine::new(*config);
            assert_eq!(
                engine.count_answers(&query, &slice).answers,
                expected.len() as u64,
                "subsample count diverged (|S|={s}, seed {seed})"
            );
            let mut offset = 0usize;
            loop {
                let page = engine.answers(&query, &slice, offset as u64, 7);
                let end = (offset + 7).min(expected.len());
                assert_eq!(
                    page.rows.as_slice(),
                    &expected[offset..end],
                    "page at offset {offset} diverged (|S|={s}, seed {seed})"
                );
                assert_eq!(page.has_more, end < expected.len());
                offset = end;
                comparisons += 1;
                if !page.has_more {
                    break;
                }
            }
            assert_eq!(offset, expected.len(), "pages must tile the enumeration");
            subsample_answers += expected.len();
        }
    }
    assert!(
        subsample_answers >= 10,
        "subsample oracle is vacuous: only {subsample_answers} answers across all slices"
    );
    println!(
        "  oracle [subsamples]: {subsample_answers} answers tiled exactly across {} slices; \
         {comparisons} comparisons, agreement 1.0 (asserted)",
        corpora.len() * 2
    );

    // ---- Timing --------------------------------------------------------
    let mut rows: Vec<VariantRow> = Vec::new();
    for (s, db) in &corpora {
        let engine = Engine::new(*config);
        // Warm-up doubles as the per-variant sanity pass: the answer DP
        // must be licensed (no silent brute-force fallback — the cursor is
        // the thing under test) and the prefix must be a strict prefix.
        let report = engine.count_answers(&query, db);
        assert_eq!(
            report.method,
            AnswerMethod::TreeDecompositionDp,
            "variant |S|={s} must dispatch to the answer DP"
        );
        assert!(
            report.answers > prefix as u64,
            "variant |S|={s} has only {} answers; the {prefix}-row prefix must be strict",
            report.answers
        );
        let page = engine.answers(&query, db, 0, prefix);
        assert_eq!(page.rows.len(), prefix);
        assert!(page.has_more, "a strict prefix must report more answers");
        assert!(
            page.rows.windows(2).all(|w| w[0] < w[1]),
            "cursor rows must be strictly ascending"
        );
        // Everything is warm now (plan, index, compiled answer program);
        // what remains is what each call genuinely re-does: one cursor
        // walk (answers) or one grouped root pass (count_answers).
        let t_count = min_time(count_runs, || {
            black_box(engine.count_answers(&query, db));
        });
        let t_first = min_time(runs, || {
            black_box(engine.answers(&query, db, 0, 1));
        });
        let t_prefix = min_time(runs, || {
            black_box(engine.answers(&query, db, 0, prefix));
        });
        let count_ms = t_count.as_secs_f64() * 1e3;
        let first_us = t_first.as_secs_f64() * 1e6;
        let delay_us =
            (t_prefix.saturating_sub(t_first).as_secs_f64() * 1e6 / (prefix - 1) as f64).max(0.001);
        let cold_first_us = cold_first_answer(&engine, &query, db, runs).as_secs_f64() * 1e6;
        println!(
            "  |S|={s:<5} answers {:>8} | answer width {} | count {count_ms:>9.3} ms | first answer {first_us:>9.1} us (cold {cold_first_us:>9.1} us) | per-answer delay {delay_us:>8.2} us",
            report.answers, report.answer_width
        );
        rows.push(VariantRow {
            selective_tuples: *s,
            tuples: db.tuple_count(),
            answers: report.answers,
            count_ms,
            first_us,
            cold_first_us,
            delay_us,
        });
    }

    let report = Report {
        prefix,
        rows,
        oracle_comparisons: comparisons,
    };
    println!(
        "  answers span {:.1}x | per-answer delay ratio {:.2}x | first-answer ratio {:.2}x",
        report.answers_span(),
        report.delay_ratio(),
        report.first_ratio()
    );
    report
}

/// The fastest of `runs` first-answer calls, each on a fresh index version:
/// a fact tuple `R1(a, b)` over existing elements is inserted, then
/// deleted, alternately, so every delta moves the version but never the
/// domain epoch — the warm answer program stays compiled (asserted) and
/// only its per-version preprocessing runs again.  Call after the warm
/// timings: it leaves the engine's index at a later version.
fn cold_first_answer(
    engine: &Engine,
    query: &ConjunctiveQuery,
    db: &Structure,
    runs: usize,
) -> std::time::Duration {
    let r1 = db.vocabulary().id_of("R1").expect("corpus relation R1");
    let rows = db.relation(r1);
    let fresh = (1..rows.len())
        .map(|i| vec![rows.row(0)[0], rows.row(i)[1]])
        .find(|t| !rows.contains_row(t))
        .expect("R1 is not complete");
    let mut report = None;
    let mut best = std::time::Duration::MAX;
    for run in 0..2 * runs {
        let mut batch = DeltaBatch::new();
        if run % 2 == 0 {
            batch.insert(r1, fresh.clone());
        } else {
            batch.delete(r1, fresh.clone());
        }
        let next = match report.take() {
            None => engine.apply_delta(db, &batch),
            Some(prev) => engine.apply_delta_chained(prev, &batch),
        }
        .expect("valid delta");
        assert_eq!(
            next.index().domain_epoch(),
            0,
            "the cold probe must not grow a domain"
        );
        let compiled = cq_solver::program_compilation_count();
        let start = std::time::Instant::now();
        black_box(engine.answers(query, next.database(), 0, 1));
        best = best.min(start.elapsed());
        assert_eq!(
            cq_solver::program_compilation_count(),
            compiled,
            "the cold probe must reuse the compiled answer program"
        );
        report = Some(next);
    }
    best
}

/// Acceptance ceilings.  The span floor makes the ratio gates meaningful
/// (delays can only be "independent of the answer count" if the counts
/// actually differ); the first-answer ceiling is looser because it is a
/// single short measurement rather than an amortised one.
const FULL_SPAN_FLOOR: f64 = 8.0;
const FULL_DELAY_CEIL: f64 = 5.0;
const FULL_FIRST_CEIL: f64 = 8.0;

fn bench(c: &mut Criterion) {
    let config = EngineConfig::default();
    let report = run(&config);

    if quick_mode() {
        gate_against_baseline(&report);
        return;
    }

    assert!(
        report.answers_span() >= FULL_SPAN_FLOOR,
        "E22 acceptance: the variants' answer counts span only {:.1}x (floor {FULL_SPAN_FLOOR}x) — \
         the delay-independence gates would be vacuous",
        report.answers_span()
    );
    assert!(
        report.delay_ratio() <= FULL_DELAY_CEIL,
        "E22 acceptance: per-answer delay varies {:.2}x across an answer-count span of {:.1}x \
         (ceiling {FULL_DELAY_CEIL}x) — enumeration delay is tracking the answer count",
        report.delay_ratio(),
        report.answers_span()
    );
    assert!(
        report.first_ratio() <= FULL_FIRST_CEIL,
        "E22 acceptance: first-answer latency varies {:.2}x across an answer-count span of {:.1}x \
         (ceiling {FULL_FIRST_CEIL}x)",
        report.first_ratio(),
        report.answers_span()
    );
    write_json(&report);

    // A small criterion group over the densest variant for the HTML/log
    // view: the first answer and a 16-row page, both warm.
    let s = DENSITIES[DENSITIES.len() - 1];
    let db = scale_corpus(ELEMS, FACT_RELATIONS, FACT_TUPLES, s, CORPUS_SEED);
    let query = endpoint_query();
    let engine = Engine::new(config);
    black_box(engine.answers(&query, &db, 0, 1));
    let mut g = c.benchmark_group("e22");
    g.sample_size(10);
    g.bench_function("first answer (1e5, densest)", |b| {
        b.iter(|| black_box(engine.answers(&query, &db, 0, 1)))
    });
    g.bench_function("16-row page (1e5, densest)", |b| {
        b.iter(|| black_box(engine.answers(&query, &db, 0, 16)))
    });
    g.finish();
}

/// The CI regression gate of quick mode: the same span floor and ratio
/// ceilings as full mode, with slack for shared-runner noise and the
/// shorter (64-row) measurement, plus absolute ceilings — each variant's
/// count, warm first-answer latency and per-answer delay within
/// [`ABSOLUTE_SLACK`] of the recorded full-mode run.  The ratios alone
/// would pass a uniformly slow cursor.
fn gate_against_baseline(report: &Report) {
    const SPAN_FLOOR: f64 = 4.0;
    const DELAY_CEIL: f64 = 8.0;
    const FIRST_CEIL: f64 = 12.0;
    const ABSOLUTE_SLACK: f64 = 4.0;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E22.json");
    let recorded = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("E22 quick mode gates against {path}: {e}"));
    match json_field_f64(&recorded, "\"delay_ratio\": ") {
        Some(r) => println!(
            "  quick-mode gate: delay ratio {:.2}x | baseline {r:.2}x",
            report.delay_ratio()
        ),
        None => println!(
            "  quick-mode gate: delay ratio {:.2}x (no readable baseline ratio)",
            report.delay_ratio()
        ),
    }
    assert!(
        report.answers_span() >= SPAN_FLOOR,
        "E22 regression: answer counts span only {:.1}x (floor {SPAN_FLOOR}x) — \
         the delay gate is vacuous",
        report.answers_span()
    );
    assert!(
        report.delay_ratio() <= DELAY_CEIL,
        "E22 regression: per-answer delay varies {:.2}x across an answer-count span of {:.1}x \
         (ceiling {DELAY_CEIL}x)",
        report.delay_ratio(),
        report.answers_span()
    );
    assert!(
        report.first_ratio() <= FIRST_CEIL,
        "E22 regression: first-answer latency varies {:.2}x (ceiling {FIRST_CEIL}x)",
        report.first_ratio()
    );
    for row in &report.rows {
        let s = row.selective_tuples;
        let line = recorded
            .lines()
            .find(|l| l.contains(&format!("\"selective_tuples\": {s},")))
            .unwrap_or_else(|| panic!("{path} records no |S|={s} variant"));
        for (name, measured, key) in [
            ("count", row.count_ms, "\"count_ms\": "),
            ("first-answer", row.first_us, "\"first_answer_us\": "),
            (
                "per-answer delay",
                row.delay_us,
                "\"per_answer_delay_us\": ",
            ),
        ] {
            let baseline = json_field_f64(line, key)
                .unwrap_or_else(|| panic!("{path}: |S|={s} has no readable {key}"));
            assert!(
                measured <= ABSOLUTE_SLACK * baseline,
                "E22 regression: |S|={s} {name} {measured:.2} exceeds {ABSOLUTE_SLACK}x \
                 the recorded {baseline:.2}"
            );
        }
    }
    println!(
        "  quick-mode gate passed: delay {:.2}x and first-answer {:.2}x ratios hold \
         across a {:.1}x answer span; every variant's count, first answer and \
         delay within {ABSOLUTE_SLACK}x of the record",
        report.delay_ratio(),
        report.first_ratio(),
        report.answers_span()
    );
}

/// Emit `BENCH_E22.json` at the repository root, machine-readable.  The
/// top-level `"delay_ratio"` is the gated headline (and the first such
/// key in the document, which is what the quick-mode gate's scanner
/// reads); the per-variant rows follow.
fn write_json(r: &Report) {
    let variants = r
        .rows
        .iter()
        .map(|v| {
            format!(
                "    {{\"selective_tuples\": {}, \"tuples\": {}, \"answers\": {}, \
                 \"count_ms\": {:.3}, \"first_answer_us\": {:.1}, \"cold_first_answer_us\": {:.1}, \
                 \"per_answer_delay_us\": {:.2}}}",
                v.selective_tuples,
                v.tuples,
                v.answers,
                v.count_ms,
                v.first_us,
                v.cold_first_us,
                v.delay_us
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let out = format!(
        "{{\n  \"experiment\": \"e22_answers\",\n  \"seed\": {CORPUS_SEED},\n  \
         \"elements\": {ELEMS},\n  \"prefix_rows\": {},\n  \
         \"delay_ratio\": {:.2},\n  \"first_answer_ratio\": {:.2},\n  \
         \"answers_span\": {:.1},\n  \"variants\": [\n{variants}\n  ],\n  \
         \"oracle\": {{\"comparisons\": {}, \"agreement\": 1.0}}\n}}\n",
        r.prefix,
        r.delay_ratio(),
        r.first_ratio(),
        r.answers_span(),
        r.oracle_comparisons
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E22.json");
    std::fs::write(path, out).expect("write BENCH_E22.json at the repo root");
    println!("  wrote {path}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
