//! # cq-workloads
//!
//! Deterministic, seeded generators of query and database workloads for the
//! experiments in EXPERIMENTS.md.  Everything is reproducible from a seed:
//! the benches print the seeds they use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cq_graphs::Graph;
use cq_structures::{ConjunctiveQuery, DeltaBatch, Structure, StructureBuilder, Vocabulary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random undirected graph `G(n, p)` (Erdős–Rényi), as a [`Graph`].
pub fn random_graph(n: usize, edge_probability: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(edge_probability) {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// A random undirected graph as a relational structure over `{E/2}`.
pub fn random_graph_structure(n: usize, edge_probability: f64, seed: u64) -> Structure {
    random_graph(n, edge_probability, seed).to_structure()
}

/// A random directed graph (each ordered pair independently an arc).
pub fn random_digraph_structure(n: usize, arc_probability: f64, seed: u64) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = Vocabulary::graph();
    let e = vocab.id_of("E").unwrap();
    let mut b = StructureBuilder::new(vocab).with_universe(n);
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen_bool(arc_probability) {
                b.raw_fact(e, vec![i, j]);
            }
        }
    }
    b.build().expect("non-empty")
}

/// A random database over a binary schema with `relations` relation symbols
/// (`R0 … R{relations-1}`), `n` elements and roughly `tuples_per_relation`
/// tuples each — the kind of instance a relational engine would evaluate a
/// conjunctive query against.
pub fn random_database(
    n: usize,
    relations: usize,
    tuples_per_relation: usize,
    seed: u64,
) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab =
        Vocabulary::from_pairs((0..relations).map(|i| (format!("R{i}"), 2))).expect("fresh names");
    let mut b = StructureBuilder::new(vocab.clone()).with_universe(n);
    for r in 0..relations {
        let sym = vocab.id_of(&format!("R{r}")).unwrap();
        for _ in 0..tuples_per_relation {
            let x = rng.gen_range(0..n);
            let y = rng.gen_range(0..n);
            b.raw_fact(sym, vec![x, y]);
        }
    }
    b.build().expect("non-empty")
}

/// The chain join query `∃x₀…x_k R0(x₀,x₁) ∧ R1(x₁,x₂) ∧ …` over the schema
/// of [`random_database`] — a bounded-pathwidth query shape typical of
/// multi-way joins.
pub fn chain_join_query(length: usize, relations: usize) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new();
    for i in 0..length {
        let r = format!("R{}", i % relations.max(1));
        q.atom(&r, &[format!("x{i}"), format!("x{}", i + 1)]);
    }
    q
}

/// The star join query `∃c x₁…x_l R0(c,x₁) ∧ R1(c,x₂) ∧ …` — a tree-depth-2
/// query shape (the para-L degree).
pub fn star_join_query(legs: usize, relations: usize) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new();
    for i in 0..legs {
        let r = format!("R{}", i % relations.max(1));
        q.atom(&r, &["c".to_string(), format!("x{i}")]);
    }
    q
}

/// The cycle join query `R0(x₀,x₁) ∧ … ∧ R_{k-1}(x_{k-1},x₀)`.
pub fn cycle_join_query(length: usize, relations: usize) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new();
    for i in 0..length {
        let r = format!("R{}", i % relations.max(1));
        q.atom(&r, &[format!("x{i}"), format!("x{}", (i + 1) % length)]);
    }
    q
}

/// A database that is guaranteed to satisfy the given chain length: a long
/// directed path plus random noise arcs (used to produce yes-instances of
/// controlled size).
pub fn path_plus_noise(n: usize, noise_arcs: usize, seed: u64) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = Vocabulary::graph();
    let e = vocab.id_of("E").unwrap();
    let mut b = StructureBuilder::new(vocab).with_universe(n);
    for i in 0..n.saturating_sub(1) {
        b.raw_fact(e, vec![i, i + 1]);
    }
    for _ in 0..noise_arcs {
        let x = rng.gen_range(0..n);
        let y = rng.gen_range(0..n);
        if x != y {
            b.raw_fact(e, vec![x, y]);
        }
    }
    b.build().expect("non-empty")
}

/// A fleet of random graph databases sharing size and density — the
/// database side of a repeated-query workload (one prepared query evaluated
/// against every member).
pub fn database_fleet(count: usize, n: usize, edge_probability: f64, seed: u64) -> Vec<Structure> {
    (0..count)
        .map(|i| random_graph_structure(n, edge_probability, seed.wrapping_add(i as u64)))
        .collect()
}

/// A batch-evaluation traffic trace: a small set of distinct query shapes, a
/// fleet of databases, and a sequence of (query index, database index)
/// instances in which each query recurs many times — the shape of traffic
/// the prepared-query engine's plan cache exists for.
#[derive(Debug, Clone)]
pub struct BatchWorkload {
    /// The distinct query structures (each index is referenced many times by
    /// the trace).
    pub queries: Vec<Structure>,
    /// The database fleet.
    pub databases: Vec<Structure>,
    /// The instance sequence as (query index, database index) pairs.
    pub trace: Vec<(usize, usize)>,
}

impl BatchWorkload {
    /// The instances of the trace as structure pairs, borrowed from the
    /// workload (the item shape `Engine::batch` fans out to `Engine::solve`).
    pub fn instances(&self) -> Vec<(&Structure, &Structure)> {
        self.trace
            .iter()
            .map(|&(q, d)| (&self.queries[q], &self.databases[d]))
            .collect()
    }

    /// Number of instances in the trace.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

/// A deterministic repeated-query trace over graph-shaped queries (stars,
/// paths, odd cycles — one query per structural decision tier of the
/// engine) against a fleet of random graph databases.  Every query occurs
/// `repeats_per_query` times; the interleaving is seeded and shuffled so
/// cache behaviour is realistic rather than perfectly clustered.
pub fn repeated_query_traffic(
    db_count: usize,
    db_size: usize,
    repeats_per_query: usize,
    seed: u64,
) -> BatchWorkload {
    use cq_structures::families;
    assert!(db_count > 0, "a traffic trace needs at least one database");
    let queries = vec![
        families::star(4),   // tree depth 2 -> para-L tier
        families::cycle(7),  // pathwidth 2, tree depth 4 -> path tier
        families::path(6),   // collapses to an edge under coring
        families::clique(4), // treewidth 3 -> tree-DP tier
    ];
    let databases = database_fleet(db_count, db_size, 0.35, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    let mut trace: Vec<(usize, usize)> = (0..queries.len())
        .flat_map(|q| (0..repeats_per_query).map(move |_| q))
        .map(|q| (q, 0usize))
        .collect();
    for slot in trace.iter_mut() {
        slot.1 = rng.gen_range(0..databases.len());
    }
    // Fisher–Yates interleave of the query order.
    for i in (1..trace.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        trace.swap(i, j);
    }
    BatchWorkload {
        queries,
        databases,
        trace,
    }
}

/// Per-thread traffic for hammering one shared engine: `threads` seeded
/// [`BatchWorkload`]s that all draw from the **same** four query shapes
/// (the per-tier set of [`repeated_query_traffic`]) but carry independent
/// database fleets and independently shuffled traces.  Overlapping query
/// fleets are the interesting concurrent regime — every thread races the
/// others to prepare the same plans, so plan-cache single-flighting and
/// shard locking are exercised on every distinct fingerprint.
pub fn concurrent_query_traffic(
    threads: usize,
    db_count: usize,
    db_size: usize,
    repeats_per_query: usize,
    seed: u64,
) -> Vec<BatchWorkload> {
    (0..threads)
        .map(|t| {
            repeated_query_traffic(
                db_count,
                db_size,
                repeats_per_query,
                seed.wrapping_add(0x5851_F42D_4C95_7F2D_u64.wrapping_mul(t as u64 + 1)),
            )
        })
        .collect()
}

/// A counting traffic trace whose every instance has a **closed-form
/// expected count** — the counting analogue of [`BatchWorkload`], used by
/// the counting differential tests and bench E15 to verify
/// `Engine::count_instance` end to end, not merely exercise it.
#[derive(Debug, Clone)]
pub struct CountingWorkload {
    /// The distinct query structures (each index recurs many times in the
    /// trace).
    pub queries: Vec<Structure>,
    /// The database fleet: complete graphs `K_q` (cliques are the targets
    /// with clean closed-form homomorphism counts).
    pub databases: Vec<Structure>,
    /// The instance sequence as (query index, database index) pairs.
    pub trace: Vec<(usize, usize)>,
    /// The closed-form expected count of each trace entry, aligned with
    /// `trace`.
    pub expected: Vec<u64>,
}

impl CountingWorkload {
    /// The instances of the trace as structure pairs, borrowed from the
    /// workload (the item shape `Engine::batch` fans out to
    /// `Engine::count_instance`).
    pub fn instances(&self) -> Vec<(&Structure, &Structure)> {
        self.trace
            .iter()
            .map(|&(q, d)| (&self.queries[q], &self.databases[d]))
            .collect()
    }

    /// Number of instances in the trace.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

/// The falling factorial `q·(q-1)···(q-k+1)` — the number of homomorphisms
/// (= injective placements) of `K_k` into `K_q`.
fn falling_factorial(q: u64, k: u64) -> u64 {
    (0..k).map(|i| q.saturating_sub(i)).product()
}

/// A deterministic repeated-query **counting** trace with known
/// closed-form answers: paths, stars and a triangle against a fleet of
/// cliques `K_q`.  The closed forms (for `q ≥ 2`):
///
/// * `#hom(P_k, K_q) = q·(q-1)^(k-1)` — walk the path, each step avoiding
///   only its predecessor's colour;
/// * `#hom(K_{1,l}, K_q) = q·(q-1)^l` — place the centre, every leaf
///   independently avoids it;
/// * `#hom(K_3, K_q) = q·(q-1)·(q-2)` — injective placements of a clique.
///
/// The path queries have proper cores (an edge), so this traffic
/// deliberately crosses the core-invariance trap on every other instance;
/// every query recurs `repeats_per_query` times per the seeded, shuffled
/// interleaving, exercising the cached-plan counting path.
pub fn counting_traffic(
    clique_sizes: &[usize],
    repeats_per_query: usize,
    seed: u64,
) -> CountingWorkload {
    use cq_structures::families;
    assert!(
        !clique_sizes.is_empty(),
        "a counting trace needs at least one clique target"
    );
    assert!(
        clique_sizes.iter().all(|&q| q >= 3),
        "closed forms above assume q >= 3 (K_3 needs three colours)"
    );
    let queries = vec![
        families::path(4),   // proper core (edge): the counting trap
        families::star(3),   // tree depth 2; bipartite, so also a proper core
        families::clique(3), // treewidth 2, its own core
        families::path(6),   // proper core AND tree depth 3: deeper recursion
    ];
    // #hom(queries[i], K_q), in the order above.
    let closed_form = |query: usize, q: u64| -> u64 {
        match query {
            0 => q * (q - 1).pow(3),
            1 => q * (q - 1).pow(3),
            2 => falling_factorial(q, 3),
            _ => q * (q - 1).pow(5),
        }
    };
    let databases: Vec<Structure> = clique_sizes.iter().map(|&q| families::clique(q)).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let mut trace: Vec<(usize, usize)> = (0..queries.len())
        .flat_map(|q| (0..repeats_per_query).map(move |_| q))
        .map(|q| (q, 0usize))
        .collect();
    for slot in trace.iter_mut() {
        slot.1 = rng.gen_range(0..databases.len());
    }
    // Fisher–Yates interleave of the query order.
    for i in (1..trace.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        trace.swap(i, j);
    }
    let expected = trace
        .iter()
        .map(|&(query, db)| closed_form(query, clique_sizes[db] as u64))
        .collect();
    CountingWorkload {
        queries,
        databases,
        trace,
        expected,
    }
}

/// A weighted-aggregate traffic trace whose every instance has
/// **closed-form expected min-cost and max-weight** — the weighted
/// analogue of [`CountingWorkload`], used by the weighted differential
/// tests and bench E20 to verify the engine's min-cost / max-weight entry
/// points end to end.
///
/// Each database carries its own per-tuple weight table.  The tables are
/// **uniform per database** (weight `w_d` on every tuple of database `d`),
/// which is what makes the oracle closed-form: every homomorphism from a
/// query with `m` tuples costs exactly `m · w_d`, so the minimum and the
/// maximum coincide at `m · w_d` whenever a homomorphism exists — and the
/// targets are cliques `K_q` with `q ≥ 3`, so one always does.
/// Non-uniform weightings are exercised by the brute-force differential
/// oracle instead, where no closed form exists.
#[derive(Debug, Clone)]
pub struct WeightedWorkload {
    /// The distinct query structures.
    pub queries: Vec<Structure>,
    /// The database fleet: cliques `K_q`.
    pub databases: Vec<Structure>,
    /// Per-database tuple-weight tables, aligned with `databases`.
    pub weights: Vec<cq_structures::TupleWeights>,
    /// The instance sequence as (query index, database index) pairs.
    pub trace: Vec<(usize, usize)>,
    /// Closed-form expected minimum cost of each trace entry.
    pub expected_min: Vec<Option<u64>>,
    /// Closed-form expected maximum weight of each trace entry.
    pub expected_max: Vec<Option<u64>>,
}

impl WeightedWorkload {
    /// The instances of the trace as (query, database, weights) triples,
    /// borrowed from the workload (the item shape `Engine::batch` fans out
    /// to `Engine::aggregate`).
    pub fn instances(&self) -> Vec<(&Structure, &Structure, &cq_structures::TupleWeights)> {
        self.trace
            .iter()
            .map(|&(q, d)| (&self.queries[q], &self.databases[d], &self.weights[d]))
            .collect()
    }

    /// Number of instances in the trace.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

/// A deterministic repeated-query **weighted** trace with closed-form
/// min-cost / max-weight answers: the [`counting_traffic`] query fleet
/// (paths, star, triangle — crossing the core-invariance trap, which
/// weighted aggregates share with counting) against uniformly weighted
/// cliques.  Database `d` of size `q_d` gets uniform weight `d + 2`, so
/// distinct databases produce distinct expected values.
pub fn weighted_traffic(
    clique_sizes: &[usize],
    repeats_per_query: usize,
    seed: u64,
) -> WeightedWorkload {
    use cq_structures::families;
    assert!(
        clique_sizes.iter().all(|&q| q >= 3),
        "every query here maps into K_q only for q >= 3"
    );
    let queries = vec![
        families::path(4),   // proper core (edge): the core-invariance trap
        families::star(3),   // tree depth 2 -> forest tier
        families::clique(3), // treewidth 2 -> tree-DP tier
        families::path(6),   // proper core, deeper recursion
    ];
    let databases: Vec<Structure> = clique_sizes.iter().map(|&q| families::clique(q)).collect();
    let weights: Vec<cq_structures::TupleWeights> = databases
        .iter()
        .enumerate()
        .map(|(d, db)| cq_structures::TupleWeights::uniform(db, d as u64 + 2))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0E20_0E20);
    let mut trace: Vec<(usize, usize)> = (0..queries.len())
        .flat_map(|q| (0..repeats_per_query).map(move |_| q))
        .map(|q| (q, 0usize))
        .collect();
    for slot in trace.iter_mut() {
        slot.1 = rng.gen_range(0..databases.len());
    }
    // Fisher–Yates interleave of the query order.
    for i in (1..trace.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        trace.swap(i, j);
    }
    // Uniform weight w_d over K_q (q >= 3): every homomorphism costs
    // `w_d · #query-tuples` exactly, so min = max = that product.
    let closed_form = |query: usize, d: usize| -> Option<u64> {
        Some((d as u64 + 2) * queries[query].tuple_count() as u64)
    };
    let expected_min: Vec<Option<u64>> = trace
        .iter()
        .map(|&(query, d)| closed_form(query, d))
        .collect();
    let expected_max = expected_min.clone();
    WeightedWorkload {
        queries,
        databases,
        weights,
        trace,
        expected_min,
        expected_max,
    }
}

/// The evaluation-kernel stress trace (bench E16 and the kernel
/// differential tests): treewidth-2 query shapes — odd cycles, a grid, a
/// complete bipartite graph — against a fleet of **larger** random graph
/// targets, every query repeated `repeats_per_query` times over a seeded,
/// shuffled interleaving.
///
/// This is deliberately the regime where the reference implementations
/// hurt most: bags of 3 against targets of `db_size` vertices make the
/// reference's full `|B|^{|bag|}` bag enumeration and `O(n²)` frontier
/// joins expensive, while the kernel's prefilter domains and separator
/// hash-joins stay near-linear — the before/after that bench E16 times.
/// Several of the queries are bipartite (proper cores), so the counting
/// side crosses the core-invariance trap as well.
pub fn kernel_stress_traffic(
    db_count: usize,
    db_size: usize,
    repeats_per_query: usize,
    seed: u64,
) -> BatchWorkload {
    use cq_structures::families;
    assert!(db_count > 0, "a traffic trace needs at least one database");
    let queries = vec![
        families::cycle(5),                 // pw 2, its own core
        families::cycle(7),                 // pw 2, td 4: deeper DP tables
        families::grid(2, 3),               // tw 2, bipartite (proper core)
        families::complete_bipartite(2, 2), // tw 2, collapses to an edge
    ];
    let databases = database_fleet(db_count, db_size, 0.35, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE16_E16);
    let mut trace: Vec<(usize, usize)> = (0..queries.len())
        .flat_map(|q| (0..repeats_per_query).map(move |_| q))
        .map(|q| (q, 0usize))
        .collect();
    for slot in trace.iter_mut() {
        slot.1 = rng.gen_range(0..databases.len());
    }
    // Fisher–Yates interleave of the query order.
    for i in (1..trace.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        trace.swap(i, j);
    }
    BatchWorkload {
        queries,
        databases,
        trace,
    }
}

/// The E18 scale corpus: `fact_relations` dense binary relations
/// `R0 … R{fact_relations-1}` of roughly `fact_tuples_per_relation` tuples
/// each, plus one **sparse** binary relation `S` of roughly
/// `selective_tuples` tuples — the fact/dimension skew of a warehouse
/// workload.  The bulk of the 10^5–10^6 tuples lives in the fact
/// relations; selective joins touch `S`, where per-call program
/// recompilation (domain prefilters over the whole universe) costs more
/// than the join itself — exactly the regime the compiled-program cache
/// exists for.
pub fn scale_corpus(
    n: usize,
    fact_relations: usize,
    fact_tuples_per_relation: usize,
    selective_tuples: usize,
    seed: u64,
) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<(String, usize)> = (0..fact_relations)
        .map(|i| (format!("R{i}"), 2))
        .chain(std::iter::once(("S".to_string(), 2)))
        .collect();
    let vocab = Vocabulary::from_pairs(names).expect("fresh names");
    let mut b = StructureBuilder::new(vocab.clone()).with_universe(n);
    for r in 0..fact_relations {
        let sym = vocab.id_of(&format!("R{r}")).unwrap();
        for _ in 0..fact_tuples_per_relation {
            let x = rng.gen_range(0..n);
            let y = rng.gen_range(0..n);
            b.raw_fact(sym, vec![x, y]);
        }
    }
    let s = vocab.id_of("S").unwrap();
    for _ in 0..selective_tuples {
        let x = rng.gen_range(0..n);
        let y = rng.gen_range(0..n);
        b.raw_fact(s, vec![x, y]);
    }
    b.build().expect("non-empty")
}

/// Selective join shapes over the sparse relation `S` of [`scale_corpus`]:
/// a chain, a star and a cycle whose every atom reads `S`.  Against a
/// fact-heavy corpus these are the high-selectivity queries whose kernel
/// *runs* are cheap (the driver iteration walks short posting lists) while
/// per-call program *compilation* still scans the whole universe — the
/// warm-vs-recompile gap bench E18 times.
pub fn selective_join_queries() -> Vec<Structure> {
    let mut chain = ConjunctiveQuery::new();
    for i in 0..3 {
        chain.atom("S", &[format!("x{i}"), format!("x{}", i + 1)]);
    }
    let mut star = ConjunctiveQuery::new();
    for i in 0..3 {
        star.atom("S", &["c".to_string(), format!("x{i}")]);
    }
    let mut cycle = ConjunctiveQuery::new();
    for i in 0..4 {
        cycle.atom("S", &[format!("x{i}"), format!("x{}", (i + 1) % 4)]);
    }
    [chain, star, cycle]
        .iter()
        .map(|q| q.canonical_structure().expect("non-empty join query"))
        .collect()
}

/// A seeded induced subsample of a large database: `elements` universe
/// elements chosen uniformly without replacement, with all induced tuples,
/// renumbered to `0..elements`.  This is how the scale-oracle tests shrink
/// the 10^5-tuple E18 corpus to something a brute-force reference can
/// enumerate while still drawing from the distribution the bench times.
pub fn subsample_database(db: &Structure, elements: usize, seed: u64) -> Structure {
    use std::collections::BTreeSet;
    let n = db.universe_size();
    let take = elements.clamp(1, n);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1_E000);
    let mut subset = BTreeSet::new();
    while subset.len() < take {
        subset.insert(rng.gen_range(0..n));
    }
    let (sub, _map) = db
        .induced_substructure(&subset)
        .expect("non-empty in-range subset");
    sub
}

/// The E18 scale-bench query shapes over the [`random_database`] schema —
/// chain, star and cycle joins as canonical structures.  Each shape touches
/// **every** relation symbol `R0 … R{relations-1}` (symbol translation in
/// the kernel is name-based, so the query vocabulary must be interpretable
/// in the corpus), and together they span the engine's structural tiers:
/// the chain is pathwidth 1, the star is tree depth 2, the cycle is
/// pathwidth 2.
pub fn scale_join_queries(relations: usize) -> Vec<Structure> {
    [
        chain_join_query(relations.max(2), relations),
        star_join_query(relations.max(2), relations),
        cycle_join_query(relations.max(3), relations),
    ]
    .iter()
    .map(|q| q.canonical_structure().expect("non-empty join query"))
    .collect()
}

/// The E21 mutation traffic: `rounds` delta batches, each churning roughly
/// the `churn` fraction of every relation's rows (half deletions of
/// existing rows, half insertions of fresh rows) — update traffic against
/// a standing corpus, touching the dense fact relations and the sparse
/// `S` alike so every query family sees genuinely dirty DP bags each
/// round.
///
/// Batches are **sequential**: batch `i` is generated against the corpus
/// as left by batches `0..i` (deletions always name rows present at that
/// point).  They are also **epoch-safe** by construction: an inserted
/// element is drawn only from elements still occurring in that position of
/// that relation after the round's deletions, and a deletion never removes
/// an element's last occurrence in a position — so applying the traffic
/// never grows a position domain and the index's
/// [`domain_epoch`](cq_structures::StructureIndex::domain_epoch) stays
/// put, keeping compiled programs and retained DP tables warm (exactly
/// the regime bench E21 measures; domain-growing updates are covered
/// separately by the epoch tests).
///
/// Deterministic in `(db, rounds, churn, seed)`.
pub fn mutation_traffic(db: &Structure, rounds: usize, churn: f64, seed: u64) -> Vec<DeltaBatch> {
    use std::collections::HashMap;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE1_7A00);
    let mut current = db.clone();
    let mut batches = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        // Per-(symbol, position, element) occurrence counts, kept live as
        // the round's deletions are queued so no element's support drops
        // to zero.
        let mut support: HashMap<(u32, usize, u32), usize> = HashMap::new();
        for (sym, row) in current.all_tuples() {
            for (pos, &elem) in row.iter().enumerate() {
                *support.entry((sym.0, pos, elem)).or_default() += 1;
            }
        }
        let mut batch = DeltaBatch::new();
        for sym in current.vocabulary().ids() {
            let relation = current.relation(sym);
            if relation.is_empty() {
                continue;
            }
            let ops = ((relation.len() as f64 * churn).round() as usize).max(2);
            let deletions = ops / 2;
            let mut queued = 0usize;
            let mut attempts = 0usize;
            while queued < deletions && attempts < deletions * 8 {
                attempts += 1;
                let row = relation.row(rng.gen_range(0..relation.len())).to_vec();
                let duplicate = batch
                    .deletions()
                    .iter()
                    .any(|(s, r)| *s == sym && *r == row);
                let safe = !duplicate
                    && row
                        .iter()
                        .enumerate()
                        .all(|(pos, &elem)| support[&(sym.0, pos, elem)] >= 2);
                if !safe {
                    continue;
                }
                for (pos, &elem) in row.iter().enumerate() {
                    *support.get_mut(&(sym.0, pos, elem)).expect("counted") -= 1;
                }
                batch.delete(sym, row);
                queued += 1;
            }
            // Insertion pools: elements whose support in the position
            // survives this round's deletions.
            let arity = relation.arity();
            let pools: Vec<Vec<u32>> = (0..arity)
                .map(|pos| {
                    let mut pool: Vec<u32> = support
                        .iter()
                        .filter(|((s, p, _), &count)| *s == sym.0 && *p == pos && count > 0)
                        .map(|((_, _, elem), _)| *elem)
                        .collect();
                    pool.sort_unstable();
                    pool
                })
                .collect();
            let insertions = ops - deletions;
            let mut queued = 0usize;
            let mut attempts = 0usize;
            while queued < insertions && attempts < insertions * 8 {
                attempts += 1;
                let row: Vec<u32> = pools
                    .iter()
                    .map(|pool| pool[rng.gen_range(0..pool.len())])
                    .collect();
                if relation.contains_row(&row)
                    || batch
                        .insertions()
                        .iter()
                        .any(|(s, r)| *s == sym && *r == row)
                {
                    continue;
                }
                batch.insert(sym, row);
                queued += 1;
            }
        }
        current
            .apply_delta(&batch)
            .expect("generated against the current corpus");
        batches.push(batch);
    }
    batches
}

/// A fleet of `count` query structures with pairwise **distinct**
/// plan-cache fingerprints, spanning several shapes (stars, odd cycles,
/// directed paths, caterpillars).  A batch over this fleet performs `count`
/// preparations and `count` cache inserts — the shape that stresses
/// cache-lock contention (many concurrent misses) rather than plan reuse.
pub fn distinct_query_fleet(count: usize) -> Vec<Structure> {
    use cq_structures::families;
    (0..count)
        .map(|i| match i % 4 {
            0 => families::star(3 + i / 4),
            1 => families::cycle(2 * (i / 4) + 5),
            2 => families::directed_path(2 + i / 4),
            _ => families::caterpillar(1 + i / 4, 2),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_graph_is_deterministic_in_the_seed() {
        let g1 = random_graph(20, 0.3, 7);
        let g2 = random_graph(20, 0.3, 7);
        let g3 = random_graph(20, 0.3, 8);
        assert_eq!(g1, g2);
        assert_ne!(g1, g3);
        assert_eq!(g1.vertex_count(), 20);
    }

    #[test]
    fn random_digraph_and_database_shapes() {
        let d = random_digraph_structure(10, 0.2, 1);
        assert!(d.is_digraph());
        let db = random_database(50, 3, 100, 2);
        assert_eq!(db.vocabulary().len(), 3);
        assert_eq!(db.universe_size(), 50);
        assert!(db.tuple_count() <= 300);
    }

    #[test]
    fn join_queries_have_expected_shapes() {
        let chain = chain_join_query(4, 2);
        assert_eq!(chain.variable_count(), 5);
        assert_eq!(chain.atoms().len(), 4);
        let star = star_join_query(5, 2);
        assert_eq!(star.variable_count(), 6);
        let cyc = cycle_join_query(4, 1);
        assert_eq!(cyc.variable_count(), 4);
        // Their canonical structures have the right width profiles.
        let chain_s = chain.canonical_structure().unwrap();
        let star_s = star.canonical_structure().unwrap();
        assert_eq!(cq_decomp::width_profile_of_structure(&chain_s).pathwidth, 1);
        assert_eq!(cq_decomp::width_profile_of_structure(&star_s).treedepth, 2);
    }

    #[test]
    fn batch_workload_is_deterministic_and_well_formed() {
        let w1 = repeated_query_traffic(6, 12, 5, 11);
        let w2 = repeated_query_traffic(6, 12, 5, 11);
        assert_eq!(w1.trace, w2.trace);
        assert_eq!(w1.len(), 4 * 5);
        assert!(!w1.is_empty());
        assert_eq!(w1.databases.len(), 6);
        for &(q, d) in &w1.trace {
            assert!(q < w1.queries.len());
            assert!(d < w1.databases.len());
        }
        // Every query index recurs `repeats_per_query` times.
        for q in 0..w1.queries.len() {
            assert_eq!(w1.trace.iter().filter(|&&(qq, _)| qq == q).count(), 5);
        }
        let instances = w1.instances();
        assert_eq!(instances.len(), w1.len());
    }

    #[test]
    fn concurrent_traffic_shares_queries_but_not_traces() {
        let workloads = concurrent_query_traffic(4, 3, 10, 5, 99);
        assert_eq!(workloads.len(), 4);
        for w in &workloads {
            assert_eq!(w.queries, workloads[0].queries, "shared query fleet");
            assert_eq!(w.len(), workloads[0].len());
        }
        // Independent seeds: the database fleets differ between threads.
        assert_ne!(workloads[0].databases, workloads[1].databases);
        // Deterministic in the seed.
        let again = concurrent_query_traffic(4, 3, 10, 5, 99);
        for (w, v) in workloads.iter().zip(&again) {
            assert_eq!(w.trace, v.trace);
        }
    }

    #[test]
    fn counting_traffic_closed_forms_match_brute_force() {
        let w = counting_traffic(&[3, 4, 5], 3, 7);
        assert_eq!(w.len(), 4 * 3);
        assert_eq!(w.expected.len(), w.len());
        // Deterministic in the seed.
        let again = counting_traffic(&[3, 4, 5], 3, 7);
        assert_eq!(w.trace, again.trace);
        assert_eq!(w.expected, again.expected);
        // Every closed form is the brute-force truth.
        for (&(q, d), &expected) in w.trace.iter().zip(&w.expected) {
            assert_eq!(
                cq_structures::count_homomorphisms_bruteforce(&w.queries[q], &w.databases[d]),
                expected,
                "closed form wrong for query {q} into K_{}",
                w.databases[d].universe_size()
            );
        }
        // Every query index recurs repeats_per_query times.
        for q in 0..w.queries.len() {
            assert_eq!(w.trace.iter().filter(|&&(qq, _)| qq == q).count(), 3);
        }
    }

    #[test]
    fn weighted_traffic_closed_forms_match_brute_force() {
        use cq_structures::{homomorphisms_iter, StructureIndex};
        let w = weighted_traffic(&[3, 4, 5], 3, 7);
        assert_eq!(w.len(), 4 * 3);
        assert_eq!(w.expected_min.len(), w.len());
        assert_eq!(w.expected_max.len(), w.len());
        // Deterministic in the seed.
        let again = weighted_traffic(&[3, 4, 5], 3, 7);
        assert_eq!(w.trace, again.trace);
        assert_eq!(w.expected_min, again.expected_min);
        // Every closed form is the brute-force truth: enumerate all
        // homomorphisms, cost each by summing image-tuple weights.
        for (&(q, d), (&emin, &emax)) in w
            .trace
            .iter()
            .zip(w.expected_min.iter().zip(&w.expected_max))
        {
            let query = &w.queries[q];
            let db = &w.databases[d];
            let index = StructureIndex::new(db);
            let mut min: Option<u64> = None;
            let mut max: Option<u64> = None;
            for h in homomorphisms_iter(query, db) {
                let mut cost = 0u64;
                for sym in query.vocabulary().ids() {
                    let db_sym = db.vocabulary().id_of(query.vocabulary().name(sym)).unwrap();
                    for t in query.relation(sym).rows() {
                        let image: Vec<u32> = t.iter().map(|&v| h[v as usize] as u32).collect();
                        let row = index.row_of(db_sym, &image).expect("hom image is a tuple");
                        cost += w.weights[d].get(db_sym, row);
                    }
                }
                min = Some(min.map_or(cost, |m| m.min(cost)));
                max = Some(max.map_or(cost, |m| m.max(cost)));
            }
            assert_eq!(min, emin, "min closed form wrong for query {q} into db {d}");
            assert_eq!(max, emax, "max closed form wrong for query {q} into db {d}");
        }
    }

    #[test]
    fn kernel_stress_traffic_is_deterministic_and_heavy_enough() {
        let w1 = kernel_stress_traffic(4, 12, 6, 5);
        let w2 = kernel_stress_traffic(4, 12, 6, 5);
        assert_eq!(w1.trace, w2.trace);
        assert_eq!(w1.len(), 4 * 6);
        assert_eq!(w1.databases.len(), 4);
        for db in &w1.databases {
            assert_eq!(db.universe_size(), 12, "larger targets are the point");
        }
        // Every query has treewidth 2 — the tree-DP/counting tier.
        for q in &w1.queries {
            assert_eq!(cq_decomp::width_profile_of_structure(q).treewidth, 2);
        }
    }

    #[test]
    fn mutation_traffic_is_sequential_epoch_safe_and_deterministic() {
        use cq_structures::StructureIndex;
        let db = scale_corpus(60, 2, 400, 40, 9);
        let batches = mutation_traffic(&db, 4, 0.01, 7);
        assert_eq!(batches.len(), 4);
        // Deterministic in (db, rounds, churn, seed).
        let again = mutation_traffic(&db, 4, 0.01, 7);
        for (a, b) in batches.iter().zip(&again) {
            assert_eq!(a.deletions(), b.deletions());
            assert_eq!(a.insertions(), b.insertions());
        }
        assert_ne!(
            mutation_traffic(&db, 4, 0.01, 8)[0].deletions(),
            batches[0].deletions(),
            "seed changes the traffic"
        );
        // Every round applies cleanly in sequence, effectively changes the
        // corpus, touches the sparse S, and never bumps the domain epoch.
        let mut index = StructureIndex::new(&db);
        let epoch = index.domain_epoch();
        let s = db.vocabulary().id_of("S").expect("scale corpus schema");
        for batch in &batches {
            assert!(!batch.is_empty());
            assert!(
                batch
                    .deletions()
                    .iter()
                    .chain(batch.insertions())
                    .any(|(sym, _)| *sym == s),
                "churn must reach the selective relation"
            );
            let applied = index.apply_delta(batch).expect("sequentially valid");
            assert!(!applied.is_noop());
            assert_eq!(index.domain_epoch(), epoch, "epoch-safe by construction");
        }
    }

    #[test]
    fn distinct_query_fleet_has_distinct_fingerprints() {
        use cq_logic::canonical::query_fingerprint;
        let fleet = distinct_query_fleet(12);
        assert_eq!(fleet.len(), 12);
        let mut fingerprints: Vec<u64> = fleet.iter().map(query_fingerprint).collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), 12, "every member preparable uniquely");
    }

    #[test]
    fn scale_corpus_is_deterministic_and_fact_heavy() {
        let db = scale_corpus(300, 3, 4_000, 300, 7);
        assert_eq!(db, scale_corpus(300, 3, 4_000, 300, 7));
        assert_eq!(db.vocabulary().len(), 4);
        assert_eq!(db.universe_size(), 300);
        let s = db.vocabulary().id_of("S").unwrap();
        let s_tuples = db.relation(s).len();
        assert!(s_tuples > 0 && s_tuples <= 300, "S stays sparse");
        assert!(
            db.tuple_count() - s_tuples > 10 * s_tuples,
            "facts dominate the corpus"
        );
    }

    #[test]
    fn selective_queries_read_only_the_sparse_relation() {
        let queries = selective_join_queries();
        assert_eq!(queries.len(), 3);
        for q in &queries {
            assert_eq!(q.vocabulary().len(), 1);
            assert_eq!(
                q.vocabulary().name(q.vocabulary().ids().next().unwrap()),
                "S"
            );
            assert!(q.tuple_count() >= 3);
        }
        let profiles: Vec<_> = queries
            .iter()
            .map(cq_decomp::width_profile_of_structure)
            .collect();
        assert_eq!(profiles[0].pathwidth, 1, "chain");
        assert_eq!(profiles[1].treedepth, 2, "star");
        assert_eq!(profiles[2].pathwidth, 2, "cycle");
    }

    #[test]
    fn subsample_is_deterministic_induced_and_small() {
        let db = random_database(200, 3, 2_000, 9);
        let s1 = subsample_database(&db, 15, 4);
        let s2 = subsample_database(&db, 15, 4);
        let s3 = subsample_database(&db, 15, 5);
        assert_eq!(s1, s2, "deterministic in the seed");
        assert_ne!(s1, s3, "different seeds pick different subsets");
        assert_eq!(s1.universe_size(), 15);
        assert_eq!(s1.vocabulary(), db.vocabulary());
        assert!(s1.tuple_count() > 0, "dense corpus: induced tuples survive");
        // Oversized requests saturate at the full universe.
        assert_eq!(subsample_database(&db, 10_000, 0).universe_size(), 200);
    }

    #[test]
    fn scale_queries_interpret_the_corpus_schema_and_span_tiers() {
        let db = random_database(50, 4, 100, 1);
        let queries = scale_join_queries(4);
        assert_eq!(queries.len(), 3);
        for q in &queries {
            for sym in q.vocabulary().ids() {
                let name = q.vocabulary().name(sym);
                assert!(
                    db.vocabulary().id_of(name).is_some(),
                    "query symbol {name} must exist in the corpus schema"
                );
            }
        }
        let profiles: Vec<_> = queries
            .iter()
            .map(cq_decomp::width_profile_of_structure)
            .collect();
        assert_eq!(profiles[0].pathwidth, 1, "chain");
        assert_eq!(profiles[1].treedepth, 2, "star");
        assert_eq!(profiles[2].pathwidth, 2, "cycle");
    }

    #[test]
    fn chain_queries_evaluate_on_path_plus_noise() {
        let db = path_plus_noise(30, 10, 3);
        let q = chain_join_query(5, 1);
        // Rename the relation R0 -> E to match the database schema: simplest
        // is to build the query directly over E.
        let mut q_e = ConjunctiveQuery::new();
        for a in q.atoms() {
            q_e.atom("E", &a.variables);
        }
        assert!(q_e.evaluate(&db).unwrap());
    }
}
