//! Differential **answers** oracle: on a seeded corpus of free-variable
//! queries against random targets, [`Engine::count_answers`] and the paged
//! [`Engine::answers`] must agree with the structure-agnostic reference
//! [`answers_bruteforce`] — exact counts, exact rows, exact order.
//!
//! The reference enumerates every homomorphism by plain backtracking and
//! projects onto the free positions (sorted, deduplicated), using none of
//! the prepared certificates: a disagreement means the answer-closure DP
//! behind the counts, the pinned-prefix cursor over the free-adjoined
//! decomposition, or the engine's paging is wrong.  Queries whose free
//! variables sit in distant bags exercise the two decompositions where
//! they differ most.  On top of row-level agreement the suite pins the
//! paging algebra (consecutive pages tile the full enumeration,
//! `has_more` flips exactly at the end), the brute-force fallback (a treewidth threshold of zero
//! must change the method, never the rows), the plan-reuse guard (an
//! isomorphic-but-relabelled alias must not serve another query's answer
//! columns), and worker-count determinism (batch answers are bit-identical
//! for 1, 2, 4 and 8 workers).

use cq_core::{AnswerMethod, Engine, EngineConfig};
use cq_structures::{answers_bruteforce, ConjunctiveQuery, Element, Structure};
use cq_workloads::{random_digraph_structure, random_graph_structure};

/// Thresholds generous enough that the answer DP is licensed on most of the
/// corpus (dispatch keys on the *original* query's treewidth, as for
/// counting) while keeping the adjoined-width tables testable.
fn oracle_config() -> EngineConfig {
    EngineConfig {
        treedepth_threshold: 4,
        pathwidth_threshold: 3,
        treewidth_threshold: 3,
        ..EngineConfig::default()
    }
}

/// The free-variable markings exercised per query: none (boolean
/// degeneration), one, all, and a pair marked in reverse element order
/// (answer columns follow marked order, not element order).
fn free_sets(n: usize) -> Vec<Vec<usize>> {
    let mut sets = vec![Vec::new(), vec![0], (0..n).collect()];
    if n >= 2 {
        sets.push(vec![n - 1, 0]);
    }
    sets
}

/// Mark `free` (element indices) on a query built from a structure whose
/// variables are declared in element order, so variable `x{i}` is element
/// `i` of the canonical structure.
fn with_free(a: &Structure, free: &[usize]) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::from_structure(a);
    let vars: Vec<String> = free.iter().map(|&i| q.variables()[i].clone()).collect();
    for v in vars {
        q.mark_free(v).expect("corpus free sets are valid");
    }
    q
}

/// The seeded corpus: small random undirected and directed queries, each
/// with every free marking of [`free_sets`], against random targets of the
/// same vocabulary.  Everything derives from the `(n, seed)` labels in the
/// assertion messages.
fn corpus() -> Vec<(String, ConjunctiveQuery, Structure)> {
    let mut pairs = Vec::new();
    for n in 3..6 {
        for seed in 0..3 {
            let query = random_graph_structure(n, 0.45, seed);
            for (tn, tseed) in [(6usize, 100u64), (7, 101)] {
                let target = random_graph_structure(tn, 0.4, tseed + seed);
                for free in free_sets(n) {
                    pairs.push((
                        format!(
                            "graph q=(n={n}, seed={seed}) t=(n={tn}, seed={}) free={free:?}",
                            tseed + seed
                        ),
                        with_free(&query, &free),
                        target.clone(),
                    ));
                }
            }
        }
    }
    for n in 3..6 {
        for seed in 0..3 {
            let query = random_digraph_structure(n, 0.35, seed);
            for (tn, tseed) in [(6usize, 200u64)] {
                let target = random_digraph_structure(tn, 0.35, tseed + seed);
                for free in free_sets(n) {
                    pairs.push((
                        format!(
                            "digraph q=(n={n}, seed={seed}) t=(n={tn}, seed={}) free={free:?}",
                            tseed + seed
                        ),
                        with_free(&query, &free),
                        target.clone(),
                    ));
                }
            }
        }
    }
    pairs
}

/// The brute-force projection of a query's answers, in the engine's row
/// type (`u32` database elements).
fn reference_rows(query: &ConjunctiveQuery, target: &Structure) -> Vec<Vec<u32>> {
    let canonical = query
        .canonical_structure()
        .expect("corpus queries are valid");
    let free: Vec<Element> = query.free_element_indices();
    answers_bruteforce(&canonical, target, &free)
        .into_iter()
        .map(|row| row.into_iter().map(|e| e as u32).collect())
        .collect()
}

#[test]
fn engine_counts_and_full_pages_match_the_bruteforce_projection() {
    let engine = Engine::new(oracle_config());
    let mut dp_dispatches = 0usize;
    for (label, query, target) in corpus() {
        let expected = reference_rows(&query, &target);
        let report = engine.count_answers(&query, &target);
        assert_eq!(
            report.answers,
            expected.len() as u64,
            "count ({:?}) wrong on {label}: {query}",
            report.method
        );
        assert_eq!(report.free_count, query.free_variables().len(), "{label}");
        if report.method == AnswerMethod::TreeDecompositionDp {
            dp_dispatches += 1;
            assert!(
                report.answer_width <= report.widths.treewidth + report.free_count,
                "adjoined width exceeded its bound on {label}"
            );
        }
        // Row-level comparison: the full enumeration for moderate answer
        // sets, a prefix page (cursor cost is proportional to the prefix,
        // so this stays cheap) for the huge all-free ones.
        if expected.len() <= 150 {
            let page = engine.answers(&query, &target, 0, expected.len() + 3);
            assert_eq!(page.rows, expected, "rows wrong on {label}: {query}");
            assert!(!page.has_more, "phantom continuation on {label}");
            assert_eq!(page.offset, 0);
        } else {
            let page = engine.answers(&query, &target, 0, 60);
            assert_eq!(
                page.rows,
                &expected[..60],
                "prefix wrong on {label}: {query}"
            );
            assert!(page.has_more, "missing continuation on {label}");
        }
    }
    // The oracle must not silently go vacuous (thresholds drifting until
    // everything brute-forces would still pass row comparisons).
    assert!(
        dp_dispatches >= 100,
        "only {dp_dispatches} DP dispatches — corpus or thresholds degenerated"
    );
}

#[test]
fn pages_tile_the_full_enumeration_with_exact_has_more_flags() {
    let engine = Engine::new(oracle_config());
    for (label, query, target) in corpus().into_iter().step_by(7) {
        let expected = reference_rows(&query, &target);
        if expected.len() > 60 {
            // Restarting a cursor per page is quadratic in the enumeration
            // length; the tiling algebra is fully exercised by the moderate
            // answer sets.
            continue;
        }
        for page_size in [1usize, 2, 3, 7] {
            assert_eq!(
                tile(&engine, &label, &query, &target, page_size),
                expected,
                "pages of size {page_size} do not tile on {label}: {query}"
            );
        }
    }
}

/// The rows of every page of `page_size` from offset 0, concatenated,
/// checking the page algebra on the way: each page echoes its offset and
/// is no longer than asked, `has_more` only on full pages, and the page
/// one past the end is empty with nothing following.
fn tile(
    engine: &Engine,
    label: &str,
    query: &ConjunctiveQuery,
    target: &Structure,
    page_size: usize,
) -> Vec<Vec<u32>> {
    let mut tiled: Vec<Vec<u32>> = Vec::new();
    loop {
        let offset = tiled.len() as u64;
        let page = engine.answers(query, target, offset, page_size);
        assert_eq!(page.offset, offset, "{label}");
        assert!(
            page.rows.len() <= page_size,
            "oversized page on {label} at offset {offset}"
        );
        let full = page.rows.len() == page_size;
        tiled.extend(page.rows);
        if !page.has_more {
            break;
        }
        assert!(
            full,
            "has_more on a short page on {label} at offset {offset}"
        );
    }
    let past = engine.answers(query, target, tiled.len() as u64, page_size);
    assert!(past.rows.is_empty() && !past.has_more, "{label}");
    tiled
}

/// Width-1 queries whose free variables lie in different, non-adjacent
/// bags of any edge-bag decomposition — P5/P6 with free endpoints, a star
/// with two free leaves, a tree with one free deep leaf — each also with
/// no and with every variable free.  The answer closure adjoins a free
/// variable only on its path to the root bag, so here the grouped count
/// and the cursor run over genuinely different decompositions.
fn spread_free_queries() -> Vec<(String, ConjunctiveQuery)> {
    let query = |edges: &[(usize, usize)], free: &[usize]| {
        let mut q = ConjunctiveQuery::new();
        for &(a, b) in edges {
            q.atom("E", &[format!("x{a}"), format!("x{b}")]);
        }
        for &f in free {
            q.mark_free(format!("x{f}")).expect("declared by an atom");
        }
        q
    };
    let p5: Vec<(usize, usize)> = (0..4).map(|i| (i, i + 1)).collect();
    let p6: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 1)).collect();
    let star = vec![(0, 1), (0, 2), (0, 3), (0, 4)];
    // x6 hangs three edges below the root's branch through x1.
    let tree = vec![(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (5, 6)];
    let mut out = Vec::new();
    for (name, edges, spread) in [
        ("P5", &p5, vec![0, 4]),
        ("P6", &p6, vec![0, 5]),
        ("P6 reversed", &p6, vec![5, 0]),
        ("star", &star, vec![1, 3]),
        ("tree", &tree, vec![6]),
    ] {
        let all: Vec<usize> = (0..=edges.iter().map(|&(_, b)| b).max().unwrap()).collect();
        for free in [spread, Vec::new(), all] {
            out.push((format!("{name} free={free:?}"), query(edges, &free)));
        }
    }
    out
}

#[test]
fn free_variables_in_distant_bags_match_the_projection() {
    let engine = Engine::new(oracle_config());
    let targets = [
        (
            "digraph n=7 seed=400",
            random_digraph_structure(7, 0.35, 400),
        ),
        (
            "digraph n=8 seed=401",
            random_digraph_structure(8, 0.3, 401),
        ),
        ("graph n=6 seed=402", random_graph_structure(6, 0.45, 402)),
    ];
    let mut tiled = 0usize;
    for (qlabel, query) in spread_free_queries() {
        for (tlabel, target) in &targets {
            let label = format!("{qlabel} on {tlabel}");
            let expected = reference_rows(&query, target);
            let report = engine.count_answers(&query, target);
            assert_eq!(
                report.method,
                AnswerMethod::TreeDecompositionDp,
                "{label} must take the answer DP"
            );
            assert_eq!(
                report.answers,
                expected.len() as u64,
                "count wrong on {label}"
            );
            assert!(
                report.answer_width <= report.widths.treewidth + report.free_count,
                "answer width {} over its bound on {label}",
                report.answer_width
            );
            let page = engine.answers(&query, target, 0, expected.len() + 1);
            assert_eq!(page.rows, expected, "rows wrong on {label}");
            assert!(!page.has_more, "phantom continuation on {label}");
            if expected.len() <= 120 {
                for page_size in [2usize, 5] {
                    assert_eq!(
                        tile(&engine, &label, &query, target, page_size),
                        expected,
                        "pages of size {page_size} do not tile on {label}"
                    );
                }
                tiled += 1;
            }
        }
    }
    assert!(
        tiled >= 20,
        "only {tiled} tiled cases — the corpus degenerated"
    );
}

#[test]
fn bruteforce_fallback_changes_the_method_but_never_the_rows() {
    let licensed = Engine::new(oracle_config());
    // Treewidth threshold 0: every corpus query with an edge is pushed off
    // the DP onto the brute-force projection.
    let fallback = Engine::new(EngineConfig {
        treewidth_threshold: 0,
        ..oracle_config()
    });
    let mut forced = 0usize;
    for (label, query, target) in corpus().into_iter().step_by(5) {
        let a = licensed.count_answers(&query, &target);
        let b = fallback.count_answers(&query, &target);
        assert_eq!(a.answers, b.answers, "fallback count diverged on {label}");
        let pa = licensed.answers(&query, &target, 1, 4);
        let pb = fallback.answers(&query, &target, 1, 4);
        assert_eq!(
            (pa.rows, pa.has_more),
            (pb.rows, pb.has_more),
            "fallback page diverged on {label}"
        );
        if b.method == AnswerMethod::BruteForce {
            forced += 1;
        }
    }
    assert!(
        forced >= 10,
        "only {forced} brute-force dispatches — the fallback went untested"
    );
}

#[test]
fn zero_free_variables_degenerate_to_the_boolean_answer() {
    let engine = Engine::new(oracle_config());
    for (label, query, target) in corpus() {
        if !query.free_variables().is_empty() {
            continue;
        }
        let canonical = query.canonical_structure().unwrap();
        let exists = engine.solve(&canonical, &target).exists;
        let report = engine.count_answers(&query, &target);
        assert_eq!(report.answers, u64::from(exists), "{label}");
        let page = engine.answers(&query, &target, 0, 10);
        assert_eq!(
            page.rows,
            if exists { vec![Vec::new()] } else { Vec::new() },
            "the boolean page is the single empty row iff satisfiable ({label})"
        );
        assert!(!page.has_more);
    }
}

/// The plan-reuse guard: two queries with isomorphic (same fingerprint,
/// cache-colliding) but differently-labelled canonical structures must each
/// get answers in their **own** element numbering — serving one query's
/// compiled answer columns to the other would project onto the wrong
/// positions.
#[test]
fn aliased_plans_fall_back_to_the_exact_submitted_form() {
    let engine = Engine::new(oracle_config());
    let a = random_digraph_structure(5, 0.4, 9);
    let n = a.universe_size();
    let perm: Vec<usize> = (0..n).map(|i| (i + 2) % n).collect();
    let b = cq_structures::relabeled(&a, &perm);
    let qa = with_free(&a, &[0, 2]);
    let qb = with_free(&b, &[0, 2]);
    for target_seed in 0..4u64 {
        let target = random_digraph_structure(7, 0.4, 300 + target_seed);
        // Same engine, interleaved: whichever plan lands in the cache first,
        // the other query must not reuse its columns.
        for q in [&qa, &qb] {
            let expected = reference_rows(q, &target);
            assert_eq!(
                engine.count_answers(q, &target).answers,
                expected.len() as u64,
                "aliased count wrong for {q} on seed {target_seed}"
            );
            assert_eq!(
                engine.answers(q, &target, 0, expected.len() + 1).rows,
                expected,
                "aliased rows wrong for {q} on seed {target_seed}"
            );
        }
    }
}

#[test]
fn answer_batches_are_bit_identical_for_every_worker_count() {
    let pairs = corpus();
    let count_batch: Vec<(&ConjunctiveQuery, &Structure)> =
        pairs.iter().map(|(_, q, t)| (q, t)).collect();
    let page_batch: Vec<(&ConjunctiveQuery, &Structure, u64, usize)> = pairs
        .iter()
        .enumerate()
        .map(|(i, (_, q, t))| (q, t, (i % 3) as u64, 1 + i % 5))
        .collect();
    let sequential = Engine::new(EngineConfig {
        workers: 1,
        ..oracle_config()
    });
    let expected_counts = sequential.batch(&count_batch, |e, &(q, d)| e.count_answers(q, d));
    let expected_pages = sequential.batch(&page_batch, |e, &(q, d, offset, limit)| {
        e.answers(q, d, offset, limit)
    });
    for ((label, query, target), report) in pairs.iter().zip(&expected_counts) {
        assert_eq!(
            report.answers,
            reference_rows(query, target).len() as u64,
            "sequential batch count wrong on {label}"
        );
    }
    for workers in [2usize, 4, 8] {
        let parallel = Engine::new(EngineConfig {
            workers,
            ..oracle_config()
        });
        assert_eq!(
            parallel.batch(&count_batch, |e, &(q, d)| e.count_answers(q, d)),
            expected_counts,
            "workers={workers} counts diverged from sequential"
        );
        assert_eq!(
            parallel.batch(&page_batch, |e, &(q, d, offset, limit)| {
                e.answers(q, d, offset, limit)
            }),
            expected_pages,
            "workers={workers} pages diverged from sequential"
        );
    }
}
