//! Differential **incremental-evaluation** oracle: drive an engine through
//! rounds of [`DeltaBatch`] mutations ([`Engine::apply_delta`] /
//! [`Engine::apply_delta_chained`]) and, after **every** round, compare
//! decide, count and min-cost answers on the mutated database against a
//! fresh cold engine that has never seen a delta — the update-regime
//! analogue of `differential_oracle.rs`.
//!
//! The warm engine answers through the delta-maintained [`StructureIndex`]
//! and whatever retained DP join tables survived the round; the cold
//! engine indexes and evaluates from scratch.  A disagreement means the
//! in-place index maintenance, the retained-table reuse, or the weight
//! table maintenance dropped or double-applied part of a delta.
//!
//! Warm and cold counts take the same tier (the tree DP, retained only on
//! the warm side), so each warm count is also checked against
//! [`count_homomorphisms_bruteforce`], an algorithm that shares nothing
//! with the DP.
//!
//! Weights are a pure function of the tuple **content** (never the row
//! id), so the incrementally maintained [`TupleWeights`] and the cold
//! engine's freshly built table must assign every tuple the same weight
//! even though churn permutes row ids via swap-remove.
//!
//! Answers get the same treatment: after every round, answer counts and a
//! full tiling in pages of 3 on the warm engine must equal
//! [`answers_bruteforce`] on the mutated database.  Crafted rounds insert
//! an answer whose free image lay outside every answer of the previous
//! version, and delete the only support of another answer, both without
//! moving the domain epoch — so the warm answer program, and the viable
//! domains it caches per index state, serve the new version.

use cq_core::{AggregateObjective, AnswerMethod, CountMethod, DeltaReport, Engine, EngineConfig};
use cq_structures::{
    answers_bruteforce, count_homomorphisms_bruteforce, families, ConjunctiveQuery, DeltaBatch,
    Structure, SymbolId, TupleWeights,
};
use cq_workloads::{mutation_traffic, random_digraph_structure, random_graph_structure};
use std::collections::BTreeSet;

/// Same thresholds as the other differential oracles: every structural
/// tier admits most of the corpus, tables stay testable.
fn oracle_config() -> EngineConfig {
    EngineConfig {
        treedepth_threshold: 4,
        pathwidth_threshold: 3,
        treewidth_threshold: 3,
        ..EngineConfig::default()
    }
}

/// Deterministic content-keyed weights: a function of the symbol and the
/// tuple's elements only, so maintained and freshly built tables agree by
/// construction whenever both are aligned with the same structure.
fn weight_of(sym: SymbolId, tuple: &[u32]) -> u64 {
    let spread: u64 = tuple
        .iter()
        .enumerate()
        .map(|(pos, &e)| (u64::from(e) + 1) * (pos as u64 * 5 + 3))
        .sum();
    (sym.index() as u64 + 1) * 11 + spread % 97
}

/// One corpus entry: a database plus the queries evaluated against it
/// after every mutation round.
fn corpus() -> Vec<(String, Structure, Vec<Structure>)> {
    vec![
        (
            "graph (n=24, seed=11)".to_string(),
            random_graph_structure(24, 0.2, 11),
            vec![
                families::path(4),
                families::cycle(5),
                families::star(3),
                random_graph_structure(4, 0.5, 3),
            ],
        ),
        (
            "digraph (n=20, seed=13)".to_string(),
            random_digraph_structure(20, 0.25, 13),
            vec![
                random_digraph_structure(3, 0.5, 1),
                random_digraph_structure(4, 0.4, 2),
            ],
        ),
    ]
}

#[test]
fn delta_path_agrees_with_a_cold_engine_after_every_round() {
    const ROUNDS: usize = 8;
    const CHURN: f64 = 0.08;
    let mut comparisons = 0usize;
    let mut tree_dp_counts = 0usize;
    for (label, db, queries) in corpus() {
        let warm = Engine::new(oracle_config());
        let batches = mutation_traffic(&db, ROUNDS, CHURN, 0xA11CE);
        assert_eq!(batches.len(), ROUNDS, "traffic generator degenerated");
        let mut weights = TupleWeights::from_fn(&db, |sym, _, t| weight_of(sym, t));
        let mut report = None;
        for (round, batch) in batches.iter().enumerate() {
            // Round 0 enters by reference; later rounds consume the
            // previous report so the engine mutates its index in place.
            let next = match report.take() {
                None => warm.apply_delta(&db, batch),
                Some(prev) => warm.apply_delta_chained(prev, batch),
            }
            .expect("mutation_traffic emits only valid batches");
            weights.apply_delta(next.applied(), weight_of);
            let now = next.database().clone();
            assert!(
                weights.matches(&now),
                "{label} round {round}: maintained weight table misaligned"
            );

            // The cold reference: a brand-new engine and a freshly built
            // weight table over the same mutated database.
            let cold = Engine::new(oracle_config());
            let cold_weights = TupleWeights::from_fn(&now, |sym, _, t| weight_of(sym, t));
            for (qi, query) in queries.iter().enumerate() {
                let warm_decide = warm.solve(query, &now);
                let cold_decide = cold.solve(query, &now);
                assert_eq!(
                    warm_decide.exists, cold_decide.exists,
                    "{label} round {round} query {qi}: delta-path decide diverged"
                );
                let warm_count = warm.count_instance(query, &now);
                let cold_count = cold.count_instance(query, &now);
                assert_eq!(
                    warm_count.count, cold_count.count,
                    "{label} round {round} query {qi}: delta-path count diverged"
                );
                assert_eq!(
                    warm_count.count,
                    count_homomorphisms_bruteforce(query, &now),
                    "{label} round {round} query {qi}: delta-path count wrong"
                );
                if warm_count.widths.treewidth <= oracle_config().treewidth_threshold {
                    assert_eq!(
                        warm_count.method,
                        CountMethod::TreeDecompositionDp,
                        "{label} query {qi}: bounded treewidth must count through the tree DP"
                    );
                    tree_dp_counts += 1;
                }
                let warm_min = warm.aggregate(query, &now, &weights, AggregateObjective::MinCost);
                let cold_min =
                    cold.aggregate(query, &now, &cold_weights, AggregateObjective::MinCost);
                assert_eq!(
                    warm_min.value, cold_min.value,
                    "{label} round {round} query {qi}: delta-path min-cost diverged"
                );
                comparisons += 4;
            }
            report = Some(next);
        }
    }
    assert!(
        comparisons >= 100,
        "only {comparisons} comparisons ran — corpus or traffic degenerated"
    );
    assert!(
        tree_dp_counts >= 40,
        "only {tree_dp_counts} tree-DP counts ran — corpus degenerated"
    );
}

#[test]
fn chained_and_unchained_delta_application_agree() {
    // The two entry points differ only in ownership (chained consumes the
    // previous report to mutate in place); the resulting database and the
    // answers on it must be identical round for round.
    let db = random_graph_structure(18, 0.25, 5);
    let query = families::cycle(4);
    let batches = mutation_traffic(&db, 6, 0.1, 99);
    let chained_engine = Engine::new(oracle_config());
    let stepwise_engine = Engine::new(oracle_config());
    let mut chained = None;
    let mut current = db.clone();
    for (round, batch) in batches.iter().enumerate() {
        let next = match chained.take() {
            None => chained_engine.apply_delta(&db, batch),
            Some(prev) => chained_engine.apply_delta_chained(prev, batch),
        }
        .expect("valid batch");
        // The unchained route: re-enter by reference every round.
        let step = stepwise_engine
            .apply_delta(&current, batch)
            .expect("valid batch");
        current = step.database().clone();
        assert_eq!(
            next.database(),
            &current,
            "round {round}: chained and unchained structures diverged"
        );
        assert_eq!(
            chained_engine.solve(&query, &current).exists,
            stepwise_engine.solve(&query, &current).exists,
            "round {round}: decisions diverged"
        );
        chained = Some(next);
    }
}

/// A query over `E` built from `a` (variables `x{i}` = element `i`) with
/// the elements `free` marked free in that order.
fn with_free(a: &Structure, free: &[usize]) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::from_structure(a);
    let vars: Vec<String> = free.iter().map(|&i| q.variables()[i].clone()).collect();
    for v in vars {
        q.mark_free(v).expect("valid free marking");
    }
    q
}

/// The brute-force answer rows in the engine's row type, ascending.
fn reference_rows(query: &ConjunctiveQuery, target: &Structure) -> Vec<Vec<u32>> {
    let canonical = query.canonical_structure().expect("valid query");
    answers_bruteforce(&canonical, target, &query.free_element_indices())
        .into_iter()
        .map(|row| row.into_iter().map(|e| e as u32).collect())
        .collect()
}

/// Check the warm engine's answer count and its full tiling in pages of 3
/// against the brute-force projection; returns the comparisons made.
fn check_answers(engine: &Engine, query: &ConjunctiveQuery, db: &Structure, at: &str) -> usize {
    let expected = reference_rows(query, db);
    let count = engine.count_answers(query, db);
    assert_eq!(count.method, AnswerMethod::TreeDecompositionDp, "{at}");
    assert_eq!(count.answers, expected.len() as u64, "{at}: answer count");
    let (mut offset, mut pages) = (0usize, 0usize);
    loop {
        let page = engine.answers(query, db, offset as u64, 3);
        let end = (offset + 3).min(expected.len());
        assert_eq!(
            page.rows.as_slice(),
            &expected[offset..end],
            "{at}: page at {offset}"
        );
        assert_eq!(
            page.has_more,
            end < expected.len(),
            "{at}: has_more at {offset}"
        );
        offset = end;
        pages += 1;
        if !page.has_more {
            return 1 + pages;
        }
    }
}

/// Every symmetric edge `{u, v}` of `db`, once, with `u < v`.
fn edges(db: &Structure, e: SymbolId) -> BTreeSet<(u32, u32)> {
    db.relation(e)
        .rows()
        .filter(|r| r[0] < r[1])
        .map(|r| (r[0], r[1]))
        .collect()
}

/// A round inserting the triangle `u v w` around a vertex `u` that lies on
/// no triangle yet, where `u`, `v`, `w` all have edges already (so no
/// position domain grows): `u` becomes an answer image for the first time.
fn insert_fresh_triangle(db: &Structure, e: SymbolId) -> (DeltaBatch, u32) {
    let es = edges(db, e);
    let adjacent = |a: u32, b: u32| es.contains(&(a.min(b), a.max(b)));
    let touched: BTreeSet<u32> = es.iter().flat_map(|&(a, b)| [a, b]).collect();
    let on_triangle = |u: u32| {
        touched
            .iter()
            .any(|&v| adjacent(u, v) && touched.iter().any(|&w| adjacent(u, w) && adjacent(v, w)))
    };
    let u = *touched
        .iter()
        .find(|&&u| !on_triangle(u))
        .expect("some vertex lies on no triangle");
    let v = *touched
        .iter()
        .find(|&&v| adjacent(u, v))
        .expect("u has an edge");
    let w = *touched
        .iter()
        .find(|&&w| w != u && w != v)
        .expect("a third vertex with edges");
    let mut batch = DeltaBatch::new();
    for (a, b) in [(u, w), (v, w), (u, v)] {
        batch.insert(e, vec![a, b]).insert(e, vec![b, a]);
    }
    (batch, u)
}

/// A round deleting the only support of a triangle-query answer: an edge
/// `{a, b}` on exactly one triangle `a b c`; deleting `{a, c}` removes the
/// answer `(a, b)`.
fn delete_only_support(db: &Structure, e: SymbolId) -> (DeltaBatch, Vec<u32>) {
    let es = edges(db, e);
    let adjacent = |a: u32, b: u32| es.contains(&(a.min(b), a.max(b)));
    let vertices: BTreeSet<u32> = es.iter().flat_map(|&(a, b)| [a, b]).collect();
    for &(x, y) in &es {
        for (a, b) in [(x, y), (y, x)] {
            let support: Vec<u32> = vertices
                .iter()
                .copied()
                .filter(|&c| adjacent(a, c) && adjacent(b, c))
                .collect();
            if let [c] = support[..] {
                let mut batch = DeltaBatch::new();
                batch.delete(e, vec![a, c]).delete(e, vec![c, a]);
                return (batch, vec![a, b]);
            }
        }
    }
    panic!("no answer with a single support")
}

#[test]
fn answer_pages_after_deltas_match_the_projection() {
    const ROUNDS: usize = 6;
    // Small enough that restarting the cursor for every page stays cheap.
    let db = random_graph_structure(12, 0.3, 11);
    let e = db.vocabulary().id_of("E").expect("graph vocabulary");
    // x0..x2 on a triangle, answers on (x0, x1); and a 4-path answered
    // on three columns in non-element order.
    let triangle = with_free(&families::cycle(3), &[0, 1]);
    let path = with_free(&families::path(4), &[3, 0, 1]);
    let warm = Engine::new(oracle_config());
    let mut batches = mutation_traffic(&db, ROUNDS, 0.08, 0xA115);
    assert_eq!(batches.len(), ROUNDS, "traffic generator degenerated");
    let mut comparisons = 0usize;
    let mut report: Option<DeltaReport> = None;
    for round in 0..ROUNDS + 2 {
        let now = report.as_ref().map_or(&db, |r| r.database()).clone();
        // Rounds 2 and 4 are crafted; the rest replay the traffic.
        let (batch, crafted) = match round {
            2 => {
                let (batch, u) = insert_fresh_triangle(&now, e);
                let before = reference_rows(&triangle, &now);
                assert!(
                    before.iter().all(|row| row[0] != u),
                    "round {round}: {u} already answers"
                );
                (batch, Some(vec![u]))
            }
            4 => {
                let (batch, answer) = delete_only_support(&now, e);
                assert!(reference_rows(&triangle, &now).contains(&answer));
                (batch, Some(answer))
            }
            _ => (batches.remove(0), None),
        };
        let epoch = report.as_ref().map(|r| r.index().domain_epoch());
        let next = match report.take() {
            None => warm.apply_delta(&db, &batch),
            Some(prev) => warm.apply_delta_chained(prev, &batch),
        }
        .expect("valid batch");
        let now = next.database().clone();
        if let Some(probe) = crafted {
            assert_eq!(
                Some(next.index().domain_epoch()),
                epoch,
                "round {round}: a crafted round must keep the warm answer program"
            );
            let after = reference_rows(&triangle, &now);
            if round == 2 {
                assert!(after.iter().any(|row| row[0] == probe[0]));
            } else {
                assert!(
                    !after.contains(&probe),
                    "round {round}: {probe:?} kept a support"
                );
            }
        }
        for (name, query) in [("triangle", &triangle), ("path", &path)] {
            comparisons += check_answers(&warm, query, &now, &format!("round {round} {name}"));
        }
        report = Some(next);
    }
    assert!(comparisons >= 50, "only {comparisons} comparisons ran");
}

/// Count and decide `path(3)` on a report's database against brute force.
fn assert_path_answers(engine: &Engine, report: &DeltaReport, context: &str) {
    let (path, now) = (families::path(3), report.database());
    let expected = count_homomorphisms_bruteforce(&path, now);
    assert_eq!(
        engine.count_instance(&path, now).count,
        expected,
        "{context}"
    );
    assert_eq!(engine.solve(&path, now).exists, expected > 0, "{context}");
}

/// Two clones of one maintained index that take different deltas reach the
/// same `(id, version)`: after a fork, each branch must be evaluated on its
/// own content, never on retained tables the other branch left behind.
#[test]
fn forked_reports_never_share_retained_tables() {
    let db = families::cycle(6);
    let e = db.vocabulary().id_of("E").unwrap();
    let warm = Engine::new(oracle_config());
    let mut chord = DeltaBatch::new();
    chord.insert(e, vec![0, 3]);
    let forked = warm.apply_delta(&db, &chord).expect("valid batch");
    assert_path_answers(&warm, &forked, "fork point");

    // Branch A: three more chords, chained onto the original report.
    let kept = forked.clone();
    let mut more = DeltaBatch::new();
    more.insert(e, vec![1, 4])
        .insert(e, vec![4, 1])
        .insert(e, vec![2, 5]);
    let branch_a = warm
        .apply_delta_chained(forked, &more)
        .expect("valid batch");
    assert_path_answers(&warm, &branch_a, "branch A");

    // Branch B: drop the chord again, chained onto the kept clone.  Same
    // index id, same version, same domain epoch as branch A.
    let mut undo = DeltaBatch::new();
    undo.delete(e, vec![0, 3]);
    let branch_b = warm.apply_delta_chained(kept, &undo).expect("valid batch");
    assert_eq!(branch_a.index().id(), branch_b.index().id());
    assert_eq!(branch_a.version(), branch_b.version());
    assert_eq!(branch_a.domain_epoch(), branch_b.domain_epoch());
    assert_path_answers(&warm, &branch_b, "branch B");
    assert_path_answers(&warm, &branch_a, "branch A again");
}

/// Compiled programs bake position domains, which stay sound supersets
/// along one branch of deletions but not across a fork: a program first
/// compiled on a branch whose deletions shrank a domain must not serve a
/// sibling branch that kept it.
#[test]
fn forked_reports_never_share_programs_compiled_after_the_fork() {
    let db = families::cycle(6);
    let e = db.vocabulary().id_of("E").unwrap();
    let warm = Engine::new(oracle_config());
    let mut touch = DeltaBatch::new();
    touch.delete(e, vec![1, 2]).insert(e, vec![1, 2]);
    let forked = warm.apply_delta(&db, &touch).expect("valid batch");
    let kept = forked.clone();

    // Branch A evaluates first, after element 5 lost every tuple at
    // position 0; branch B keeps them, at the same id and epoch.
    let mut isolate = DeltaBatch::new();
    isolate.delete(e, vec![5, 0]).delete(e, vec![5, 4]);
    let branch_a = warm
        .apply_delta_chained(forked, &isolate)
        .expect("valid batch");
    assert_path_answers(&warm, &branch_a, "branch A");
    let mut other = DeltaBatch::new();
    other.delete(e, vec![2, 3]);
    let branch_b = warm.apply_delta_chained(kept, &other).expect("valid batch");
    assert_eq!(branch_a.index().id(), branch_b.index().id());
    assert_eq!(branch_a.domain_epoch(), branch_b.domain_epoch());
    assert_path_answers(&warm, &branch_b, "branch B");
}
