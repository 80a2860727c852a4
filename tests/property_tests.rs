//! Property-based tests on the core invariants, spanning crates.
//!
//! The container build has no access to crates.io, so instead of `proptest`
//! these properties are exercised over a deterministic grid of seeded random
//! structures (the workload generators are seeded, so failures reproduce
//! exactly; the failing `(n, seed)` pair is in every assertion message).

use cq_fine::classification::AggregateObjective::MinCost;
use cq_fine::classification::{Engine, EngineConfig, QueryId};
use cq_fine::decomp::width_profile;
use cq_fine::graphs::gaifman_graph;
use cq_fine::solver::treedec::{count_hom_via_tree_decomposition, hom_via_tree_decomposition};
use cq_fine::solver::treedepth::count_hom_via_treedepth;
use cq_fine::structures::{
    core_of, count_homomorphisms_bruteforce, homomorphism_exists, is_core, Structure,
};
use cq_fine::workloads::{random_digraph_structure, random_graph_structure};

/// Deterministic sample of small random undirected graph structures.
fn small_graphs() -> Vec<(usize, u64, Structure)> {
    let mut out = Vec::new();
    for n in 3..8 {
        for seed in 0..5 {
            out.push((n, seed, random_graph_structure(n, 0.4, seed)));
        }
    }
    out
}

/// Deterministic sample of small random digraph structures.
fn small_digraphs() -> Vec<(usize, u64, Structure)> {
    let mut out = Vec::new();
    for n in 2..7 {
        for seed in 0..3 {
            out.push((n, seed, random_digraph_structure(n, 0.3, seed)));
        }
    }
    out
}

/// The core is a core, is homomorphically equivalent to the input, and
/// taking the core twice changes nothing.
#[test]
fn core_invariants() {
    for (n, seed, a) in small_graphs() {
        let c = core_of(&a);
        assert!(is_core(&c.core), "core of (n={n}, seed={seed}) is a core");
        assert!(homomorphism_exists(&a, &c.core), "(n={n}, seed={seed})");
        assert!(homomorphism_exists(&c.core, &a), "(n={n}, seed={seed})");
        assert_eq!(
            core_of(&c.core).core_size(),
            c.core_size(),
            "idempotent core (n={n}, seed={seed})"
        );
    }
}

/// tw <= pw <= td - 1 (for graphs with at least one edge).
#[test]
fn width_measure_ordering() {
    for (n, seed, a) in small_graphs() {
        let g = gaifman_graph(&a);
        let p = width_profile(&g);
        assert!(p.treewidth <= p.pathwidth, "(n={n}, seed={seed})");
        if g.edge_count() > 0 {
            assert!(p.pathwidth < p.treedepth, "(n={n}, seed={seed})");
        }
    }
}

/// The tree-decomposition DP and the reference solver agree on decision and
/// counting; the tree-depth counter agrees as well.
#[test]
fn solvers_agree() {
    let digraphs = small_digraphs();
    for (i, (an, aseed, a)) in digraphs.iter().enumerate() {
        // Pair each query with a rotation of the sample as targets.
        let (bn, bseed, b) = &digraphs[(i * 7 + 3) % digraphs.len()];
        let label = format!("a=(n={an}, seed={aseed}) b=(n={bn}, seed={bseed})");
        let expected = homomorphism_exists(a, b);
        let (_, td) = cq_fine::decomp::treewidth::treewidth_of_structure(a);
        assert_eq!(hom_via_tree_decomposition(a, b, &td), expected, "{label}");
        let expected_count = count_homomorphisms_bruteforce(a, b);
        assert_eq!(
            count_hom_via_tree_decomposition(a, b, &td),
            expected_count,
            "{label}"
        );
        assert_eq!(count_hom_via_treedepth(a, b), expected_count, "{label}");
    }
}

/// Parallel determinism: `Engine::batch` over `solve` with `workers = 1` and
/// `workers = N` produce identical `EngineReport` sequences on random
/// batches — the parallel fan-out changes wall-clock, never results or
/// their order.  Exercised over several seeded workloads and worker counts.
#[test]
fn parallel_batch_reports_equal_sequential_reports() {
    use cq_fine::workloads::repeated_query_traffic;
    for seed in [1u64, 13, 77] {
        let workload = repeated_query_traffic(4, 10, 5, seed);
        let instances = workload.instances();
        let sequential = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let expected = sequential.batch(&instances, |e, &(q, d)| e.solve(q, d));
        for workers in [2usize, 4, 8] {
            let parallel = Engine::new(EngineConfig {
                workers,
                ..EngineConfig::default()
            });
            let got = parallel.batch(&instances, |e, &(q, d)| e.solve(q, d));
            assert_eq!(
                got, expected,
                "workers={workers} diverged from sequential (seed={seed})"
            );
            // Same preparation work too: each distinct query exactly once.
            assert_eq!(
                parallel.prep_stats().preparations,
                sequential.prep_stats().preparations,
                "seed={seed} workers={workers}"
            );
        }
    }
}

/// Batches over registered handles are deterministic across worker counts as
/// well, including the order of reports for interleaved query handles.
#[test]
fn parallel_registered_batch_is_deterministic() {
    use cq_fine::workloads::database_fleet;
    let queries = cq_fine::workloads::distinct_query_fleet(6);
    let fleet = database_fleet(5, 9, 0.4, 21);
    let make_engine = |workers: usize| {
        let engine = Engine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        });
        let ids: Vec<_> = queries.iter().map(|q| engine.register(q)).collect();
        (engine, ids)
    };
    let (seq_engine, seq_ids) = make_engine(1);
    let (par_engine, par_ids) = make_engine(8);
    let seq_batch: Vec<_> = fleet
        .iter()
        .flat_map(|db| seq_ids.iter().map(move |&id| (id, db)))
        .collect();
    let par_batch: Vec<_> = fleet
        .iter()
        .flat_map(|db| par_ids.iter().map(move |&id| (id, db)))
        .collect();
    let solve_registered = |engine: &Engine, batch: &[(QueryId, &Structure)]| {
        engine.batch(batch, |e, &(id, d)| e.solve_prepared(&e.prepared(id), d))
    };
    assert_eq!(
        solve_registered(&seq_engine, &seq_batch),
        solve_registered(&par_engine, &par_batch)
    );
}

/// Decision/counting consistency: `count > 0` ⟺ the decision engine
/// reports a homomorphism, across the seeded grid — even though the two
/// paths run different algorithms on different structures (the decision
/// side may evaluate the core, the counting side never does).  Exercised
/// through one shared engine per worker count, with counts additionally
/// bit-identical between workers 1 and 4.
#[test]
fn counting_is_positive_exactly_when_decision_succeeds() {
    let digraphs = small_digraphs();
    let pairs: Vec<(&Structure, &Structure)> = digraphs
        .iter()
        .enumerate()
        .map(|(i, (_, _, a))| {
            let (_, _, b) = &digraphs[(i * 7 + 3) % digraphs.len()];
            (a, b)
        })
        .collect();
    let mut per_worker_counts = Vec::new();
    for workers in [1usize, 4] {
        let engine = Engine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        });
        let decisions = engine.batch(&pairs, |e, &(q, d)| e.solve(q, d));
        let counts = engine.batch(&pairs, |e, &(q, d)| e.count_instance(q, d));
        for (((a, b), decision), count) in pairs.iter().zip(&decisions).zip(&counts) {
            let (an, aseed, _) = digraphs
                .iter()
                .find(|(_, _, q)| std::ptr::eq(q, *a))
                .unwrap();
            assert_eq!(
                count.count.positive(),
                decision.exists,
                "decide/count disagree on a=(n={an}, seed={aseed}) -> {b} (workers={workers})"
            );
            assert_eq!(
                count.count,
                count_homomorphisms_bruteforce(a, b),
                "count wrong on a=(n={an}, seed={aseed}) -> {b} (workers={workers})"
            );
        }
        per_worker_counts.push(counts);
    }
    assert_eq!(
        per_worker_counts[0], per_worker_counts[1],
        "counts must be bit-identical across worker counts"
    );
}

/// Kernel determinism under fan-out: the evaluation kernel behind every
/// engine tier produces **bit-identical** decision reports and counts
/// with `workers = 1` and `workers = 4` on the kernel stress trace (the
/// tree-DP/counting regime of bench E16) — the instance-index cache and
/// the hash-join tables introduce no cross-thread nondeterminism.
#[test]
fn kernel_results_are_bit_identical_across_workers_1_and_4() {
    use cq_fine::workloads::kernel_stress_traffic;
    let workload = kernel_stress_traffic(3, 10, 4, 29);
    let instances = workload.instances();
    let make_engine = |workers: usize| {
        Engine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        })
    };
    let sequential = make_engine(1);
    let parallel = make_engine(4);
    let seq_decisions = sequential.batch(&instances, |e, &(q, d)| e.solve(q, d));
    let par_decisions = parallel.batch(&instances, |e, &(q, d)| e.solve(q, d));
    assert_eq!(seq_decisions, par_decisions);
    let seq_counts = sequential.batch(&instances, |e, &(q, d)| e.count_instance(q, d));
    let par_counts = parallel.batch(&instances, |e, &(q, d)| e.count_instance(q, d));
    assert_eq!(seq_counts, par_counts);
    // The kernel answers are the brute-force truth on every instance.
    for ((q, t), (decision, count)) in instances.iter().zip(seq_decisions.iter().zip(&seq_counts)) {
        assert_eq!(decision.exists, homomorphism_exists(q, t), "{q} -> {t}");
        assert_eq!(
            count.count,
            count_homomorphisms_bruteforce(q, t),
            "{q} -> {t}"
        );
    }
    // On the sequential engine, exactly one index build per distinct
    // database seen, shared by the decide and count passes.
    let stats = sequential.index_stats();
    assert_eq!(stats.misses, stats.entries as u64);
    assert!(stats.entries <= workload.databases.len());
    assert_eq!(stats.lookups, 2 * instances.len() as u64);
}

/// Homomorphism counts multiply over direct products of targets.
#[test]
fn product_counting_law() {
    let digraphs = small_digraphs();
    for (i, (_, _, a)) in digraphs.iter().enumerate() {
        let (_, _, b) = &digraphs[(i * 5 + 1) % digraphs.len()];
        let (_, _, c) = &digraphs[(i * 11 + 2) % digraphs.len()];
        let prod = cq_fine::structures::direct_product(b, c).unwrap();
        let left = count_homomorphisms_bruteforce(a, &prod);
        let right = count_homomorphisms_bruteforce(a, b) * count_homomorphisms_bruteforce(a, c);
        assert_eq!(left, right);
    }
}

/// The binary codec is the identity on the seeded query grid:
/// `decode(encode(x)) == x` for structures, and behaviour-identical for
/// prepared plans (whose type has no `PartialEq` — equality is asserted on
/// every observable artifact and on the engine reports they produce).
#[test]
fn codec_roundtrip_is_identity_on_the_seeded_grid() {
    use cq_fine::structures::codec::{decode_from_slice, encode_to_vec};
    use cq_fine::structures::Structure;
    for (n, seed, a) in small_graphs().into_iter().chain(small_digraphs()) {
        let bytes = encode_to_vec(&a);
        let back: Structure = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, a, "structure roundtrip (n={n}, seed={seed})");
        // Deterministic encoding: same value, same bytes.
        assert_eq!(bytes, encode_to_vec(&back), "(n={n}, seed={seed})");
    }
}

/// Prepared plans round-trip through the codec with every observable
/// artifact intact, verify cleanly, and produce bit-identical engine
/// reports — across the seeded grid, with the lazy artifacts materialized
/// on a rotating subset so both the present and the absent encodings are
/// exercised.
#[test]
fn prepared_plans_roundtrip_and_verify_on_the_seeded_grid() {
    use cq_fine::classification::PreparedQuery;
    use cq_fine::structures::codec::{decode_from_slice, encode_to_vec};
    let config = EngineConfig::default();
    let targets = [
        cq_fine::structures::families::clique(3),
        cq_fine::structures::families::cycle(5),
    ];
    for (i, (n, seed, a)) in small_digraphs().into_iter().enumerate() {
        let plan = PreparedQuery::prepare(&a, &config);
        // Rotate which lazy artifacts are materialized before saving.
        if i % 2 == 0 {
            plan.sentence();
        }
        if i % 3 == 0 {
            plan.staircase();
            plan.counting_analysis();
        }
        let bytes = encode_to_vec(&plan);
        let back: PreparedQuery = decode_from_slice(&bytes).expect("decode");
        let label = format!("(n={n}, seed={seed})");
        // Re-encode before touching any lazy accessor (those materialize
        // artifacts and would legitimately grow the encoding).
        assert_eq!(bytes, encode_to_vec(&back), "{label}: deterministic");
        back.verify(&config)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(back.fingerprint(), plan.fingerprint(), "{label}");
        assert_eq!(back.original(), plan.original(), "{label}");
        assert_eq!(back.evaluated(), plan.evaluated(), "{label}");
        assert_eq!(back.core_applied(), plan.core_applied(), "{label}");
        assert_eq!(back.gaifman(), plan.gaifman(), "{label}");
        assert_eq!(back.widths(), plan.widths(), "{label}");
        assert_eq!(back.degree_hint(), plan.degree_hint(), "{label}");
        assert_eq!(back.counting_widths(), plan.counting_widths(), "{label}");
        // Behaviour: the decoded plan answers exactly like the original.
        let engine = Engine::new(config);
        for t in &targets {
            assert_eq!(
                engine.solve_prepared(&back, t),
                engine.solve_prepared(&plan, t),
                "{label} -> {t}"
            );
            assert_eq!(
                engine.count_prepared(&back, t).count,
                engine.count_prepared(&plan, t).count,
                "{label} -> {t}"
            );
        }
    }
}

/// An absent edge between existing elements, or `None` when the relation
/// is complete (dense seeds on tiny universes).
fn absent_edge(s: &Structure) -> Option<(cq_fine::structures::SymbolId, Vec<u32>)> {
    let index = cq_fine::structures::StructureIndex::new(s);
    let sym = s.vocabulary().ids().next()?;
    if s.relation(sym).arity() != 2 {
        return None;
    }
    let n = s.universe_size() as u32;
    for a in 0..n {
        for b in 0..n {
            if a != b && index.row_of(sym, &[a, b]).is_none() {
                return Some((sym, vec![a, b]));
            }
        }
    }
    None
}

/// insert ∘ delete = identity, in both orders: inserting a fresh tuple and
/// deleting it restores the original structure, and deleting an existing
/// tuple and re-inserting it does too (row ids may permute — swap-remove
/// plus append — but structure equality is set equality per relation).
#[test]
fn insert_delete_roundtrips_are_the_identity() {
    use cq_fine::structures::DeltaBatch;
    for (n, seed, s) in small_graphs().into_iter().chain(small_digraphs()) {
        let label = format!("(n={n}, seed={seed})");
        if let Some((sym, row)) = absent_edge(&s) {
            let mut forward = s.clone();
            let mut ins = DeltaBatch::new();
            ins.insert(sym, row.clone());
            forward
                .apply_delta(&ins)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_ne!(forward, s, "{label}: the insert must be visible");
            let mut del = DeltaBatch::new();
            del.delete(sym, row);
            forward
                .apply_delta(&del)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(forward, s, "{label}: delete must undo the insert");
        }
        if let Some((sym, row)) = s.all_tuples().next().map(|(sym, r)| (sym, r.to_vec())) {
            let mut back = s.clone();
            let mut del = DeltaBatch::new();
            del.delete(sym, row.clone());
            back.apply_delta(&del)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_ne!(back, s, "{label}: the delete must be visible");
            let mut ins = DeltaBatch::new();
            ins.insert(sym, row);
            back.apply_delta(&ins)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(back, s, "{label}: insert must undo the delete");
        }
    }
}

/// Deleting an absent tuple (and inserting a present one) is a validated
/// no-op across the grid: the batch is accepted, the structure is
/// unchanged, and the applied record says so.
#[test]
fn absent_deletes_and_present_inserts_are_noops_on_the_grid() {
    use cq_fine::structures::DeltaBatch;
    for (n, seed, s) in small_graphs() {
        let label = format!("(n={n}, seed={seed})");
        let mut batch = DeltaBatch::new();
        let mut expected_noop = false;
        if let Some((sym, row)) = absent_edge(&s) {
            batch.delete(sym, row);
            expected_noop = true;
        }
        if let Some((sym, row)) = s.all_tuples().next().map(|(sym, r)| (sym, r.to_vec())) {
            batch.insert(sym, row);
            expected_noop = true;
        }
        if !expected_noop {
            continue;
        }
        let mut mutated = s.clone();
        let applied = mutated
            .apply_delta(&batch)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(applied.is_noop(), "{label}: nothing effectively changed");
        assert_eq!(mutated, s, "{label}: a no-op batch leaves the structure");
    }
}

/// [`TupleWeights::apply_delta`] mirrors the structure's swap-remove row
/// moves exactly: after every churn round the maintained table is
/// slot-for-slot equal to a table rebuilt from scratch with the same
/// content-keyed formula — so a weighted aggregate can never read the
/// weight of a departed tuple, and min-cost through the engine agrees
/// with a cold evaluation.
#[test]
fn tuple_weights_stay_aligned_under_delta_churn() {
    use cq_fine::structures::{SymbolId, TupleWeights};
    use cq_fine::workloads::mutation_traffic;
    fn wf(sym: SymbolId, t: &[u32]) -> u64 {
        (sym.index() as u64 + 1) * 13 + t.iter().map(|&e| u64::from(e) * 3 + 1).sum::<u64>() % 41
    }
    let engine = Engine::new(EngineConfig::default());
    let query = cq_fine::structures::families::path(3);
    for seed in 0..4 {
        let s = random_graph_structure(12, 0.3, seed);
        let mut current = s.clone();
        let mut weights = TupleWeights::from_fn(&s, |sym, _, t| wf(sym, t));
        for (round, batch) in mutation_traffic(&s, 3, 0.2, seed ^ 0xBEEF)
            .iter()
            .enumerate()
        {
            let applied = current.apply_delta(batch).expect("valid traffic batch");
            weights.apply_delta(&applied, wf);
            let label = format!("(seed={seed}, round={round})");
            assert!(weights.matches(&current), "{label}: table misaligned");
            let fresh = TupleWeights::from_fn(&current, |sym, _, t| wf(sym, t));
            assert_eq!(weights, fresh, "{label}: a slot holds a stale weight");
            assert_eq!(
                engine.aggregate(&query, &current, &weights, MinCost).value,
                engine.aggregate(&query, &current, &fresh, MinCost).value,
                "{label}: maintained and rebuilt weights must aggregate alike"
            );
        }
    }
}
