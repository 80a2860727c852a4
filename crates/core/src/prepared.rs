//! The [`PreparedQuery`] artifact: everything the engine needs to evaluate
//! one query against arbitrarily many databases, computed **once**.
//!
//! Preparation performs the per-query exponential work the Classification
//! Theorem licenses spending (it depends only on the parameter): the core
//! computation (Theorem 3.1 classifies by cores), the Gaifman graph, and the
//! single-pass structural analysis of [`cq_decomp::analyze`] — the three
//! width measures **with** their certificates (elimination forest, path
//! decomposition, tree decomposition).  The evaluation tiers
//! ([`PreparedQuery::decide`], [`PreparedQuery::count`],
//! [`PreparedQuery::aggregate`]) consume those certificates directly, so
//! nothing exponential in the query runs again at evaluation time; the
//! regression tests assert this through [`cq_structures::meter`], which
//! counts every core computation and exact width DP.
//!
//! Three derived per-query artifacts are materialized lazily on first use
//! and then shared by every subsequent evaluation:
//!
//! * the Lemma 3.3 `{∧,∃}`-sentence (the tree-depth reference), compiled
//!   from the elimination-forest certificate;
//! * the staircase normal form of the path decomposition — persisted only
//!   as the input of the Theorem 4.6 reference sweep
//!   ([`cq_solver::pathdp::hom_via_staircase`]); the path tier itself runs
//!   the tree DP over the raw path decomposition;
//! * the **counting certificates**: the structural analysis of the
//!   *original* query.  Counting is **not** invariant under taking cores
//!   (a query and its core have the same decision answer but different
//!   homomorphism counts), so the counting tiers of
//!   [`crate::CountMethod`] must run on the query exactly as submitted —
//!   with certificates of *its* Gaifman graph, not the core's.
//!   When the evaluated structure already equals the original (core
//!   preprocessing disabled, or the query is its own core) the decision
//!   certificates are reused and no extra width DP ever runs.

use crate::aggregates::AggregateObjective;
use crate::counting::{CountMethod, CountOutcome};
use crate::engine::{EngineConfig, SolverChoice};
use crate::lru::{self, Lru};
use crate::Degree;
use cq_decomp::{PathDecomposition, StructuralAnalysis, WidthProfile};
use cq_graphs::{gaifman_graph, Graph};
use cq_logic::canonical::query_fingerprint;
use cq_logic::treedepth_sentence::{corresponding_sentence_with_forest, TreeDepthSentence};
use cq_solver::kernel::{
    AnswerProgram, ForestProgram, SearchProgram, TreeDpProgram, TreeDpRun, TreeIncrementalState,
};
use cq_solver::{
    BoolSemiring, CheckedNatSemiring, Cost, MaxWeightSemiring, MinCostSemiring, Nat, Semiring,
};
use cq_structures::codec::{encode_option_ref, Decode, DecodeError, Encode, Reader};
use cq_structures::{
    core_of, count_homomorphisms_bruteforce, embedding_exists, homomorphism_exists, Element,
    IndexState, Structure, StructureIndex, TupleWeights,
};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Memoized count-verified relabelled forms per plan (a client cycling
/// more distinct orderings than this re-verifies the least recent ones).
const MAX_COUNT_VERIFIED_ALIASES: usize = 16;

/// Cap on compiled kernel-program bundles retained per plan — one bundle
/// per distinct cached database index, least-recently-used beyond this (a
/// client cycling more hot databases than this recompiles the overflow
/// ones; compilation is query-sized work, so an eviction costs
/// milliseconds, never correctness).
const MAX_KERNEL_BUNDLES: usize = 8;

/// Cap on compiled answer programs retained per kernel bundle, keyed by
/// free-element list — clients normally ask one query for answers under one
/// free list, so this stays tiny; cycling more lists recompiles the
/// overflow ones.
const MAX_ANSWER_PROGRAMS: usize = 4;

/// The compiled kernel programs of one `(plan, database index)` pair, each
/// slot materialized on first use by the corresponding tier entry point
/// and reused by every later evaluation against the same index (bundles
/// are keyed by `(`[`StructureIndex::id`]`, `[`StructureIndex::domain_epoch`]`)`
/// — compiled programs bake per-position prefilter domains, which stay
/// sound supersets across in-place deltas *within* an epoch but must be
/// recompiled when a delta grows a domain and bumps the epoch).
///
/// There is one slot per program kind (tree, forest, search) per structure
/// [`Role`], plus the path tier's tree DP over the path decomposition
/// (decision only): decision programs compile the **evaluated** structure
/// with the decision certificates, counting programs (counts, aggregates) the
/// **original** with the counting certificates — counting is not
/// core-invariant.  When the two coincide (the query is its own core, or
/// core preprocessing is off) both roles resolve to the decision slots
/// ([`PreparedQuery::role`]), so each program compiles once per index.
///
/// The two `*_retained` slots carry the incremental DP join tables of
/// [`TreeDpProgram::eval_retained`]: after [`crate::Engine::apply_delta`]
/// mutates the index in place, the next tree-DP decide/count patches or
/// selectively recomputes only the bags a touched relation reaches instead
/// of re-running the whole DP, and a repeat evaluation of an unchanged
/// version reads the retained root without bag work.  Tables live only on
/// delta-maintained indexes ([`StructureIndex::version`] `> 0`, see
/// [`retained_slot`]): a never-mutated index runs the stateless pass, so a
/// fleet of read-only databases pins no tables it could never patch.
/// `try_lock` keeps concurrent evaluations wait-free: a contended caller
/// falls back to a plain stateless pass.
struct IndexKernels {
    /// Indexed by [`Role`]; the counting entry stays empty when the
    /// counting role resolves to the decision slots.
    roles: [RolePrograms; 2],
    /// The tree DP over the decision path decomposition (the path tier).
    path: OnceLock<TreeDpProgram>,
    /// Decision stays on [`bool`] deliberately: `CheckedNat` would make
    /// deltas patchable (⊖ exists), but it prices every *recomputed* bag
    /// at full counting arithmetic — measurably slower than Bool's
    /// absorbing ⊕ whenever churn dirties most bags (E21's bulk family).
    /// Bool recomputes dirty bags cheaply and reuses clean ones, which is
    /// the better trade on both ends of the churn spectrum.
    tree_decide_retained: Mutex<Option<TreeIncrementalState<bool>>>,
    tree_count_retained: Mutex<Option<TreeIncrementalState<Nat>>>,
    /// Compiled [`AnswerProgram`]s keyed by free-element list (declared
    /// order matters — it is the answer-column order).  A plan may serve
    /// answers under several free lists; each compiles its own pair of
    /// answer DPs, LRU-retained up to [`MAX_ANSWER_PROGRAMS`].
    answers: Mutex<Lru<Vec<Element>, Arc<AnswerProgram>>>,
}

impl Default for IndexKernels {
    fn default() -> IndexKernels {
        IndexKernels {
            roles: Default::default(),
            path: OnceLock::new(),
            tree_decide_retained: Mutex::default(),
            tree_count_retained: Mutex::default(),
            answers: Mutex::new(Lru::new(MAX_ANSWER_PROGRAMS)),
        }
    }
}

/// The structure a program compiles: decision runs on the evaluated
/// structure (the core) with the decision certificates, counting,
/// aggregates and answers on the original with the counting certificates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Decision = 0,
    Counting = 1,
}

/// One role's compiled programs, one slot per kind.
#[derive(Default)]
struct RolePrograms {
    tree: OnceLock<TreeDpProgram>,
    forest: OnceLock<ForestProgram>,
    /// Compiled under the element order of its first caller (`true` =
    /// fail-first); a caller asking for the other order compiles an
    /// uncached program.
    search: OnceLock<(bool, SearchProgram)>,
}

impl RolePrograms {
    /// Which of the tree, forest and search slots hold a program.
    fn filled(&self) -> [bool; 3] {
        [
            self.tree.get().is_some(),
            self.forest.get().is_some(),
            self.search.get().is_some(),
        ]
    }
}

impl std::fmt::Debug for IndexKernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexKernels")
            .field("decision [tree, forest, search]", &self.roles[0].filled())
            .field("counting [tree, forest, search]", &self.roles[1].filled())
            .field("path", &self.path.get().is_some())
            .finish_non_exhaustive()
    }
}

/// The retained-table slot a tree-DP evaluation against `index` may use:
/// `None` — run the stateless pass — when the index has never taken an
/// in-place delta (its tables could never be patched) or when a concurrent
/// evaluation holds the slot.
fn retained_slot<'a, V>(
    slot: &'a Mutex<Option<TreeIncrementalState<V>>>,
    index: &StructureIndex,
) -> Option<MutexGuard<'a, Option<TreeIncrementalState<V>>>> {
    if index.version() == 0 {
        return None;
    }
    slot.try_lock().ok()
}

/// A query prepared for repeated evaluation: the core, its Gaifman graph,
/// the width profile, and the decomposition certificates — computed once,
/// reused for every database.
///
/// Obtained from [`crate::Engine::prepare`] (which caches prepared queries
/// by [fingerprint](cq_logic::canonical::query_fingerprint)) or directly
/// from [`PreparedQuery::prepare`].
#[derive(Debug)]
pub struct PreparedQuery {
    fingerprint: u64,
    original: Structure,
    evaluated: Structure,
    core_applied: bool,
    /// `evaluated == original`: the counting role evaluates the decision
    /// structure with the decision certificates (derived, not persisted).
    roles_coincide: bool,
    gaifman: Graph,
    analysis: StructuralAnalysis,
    degree_hint: Degree,
    sentence: OnceLock<TreeDepthSentence>,
    staircase: OnceLock<PathDecomposition>,
    /// Structural analysis of the **original** structure, for the counting
    /// path (counting is not core-invariant).  Populated lazily on the
    /// first counting evaluation; `None` forever when `evaluated ==
    /// original`, in which case [`Self::counting_analysis`] serves the
    /// decision analysis instead of duplicating it.
    counting: OnceLock<StructuralAnalysis>,
    /// Non-identical submitted forms (relabellings) already verified
    /// **isomorphic** to the original — so repeat counting lookups of the
    /// same form cost a structural equality check instead of two
    /// exponential embedding searches per count (the counting analogue of
    /// the cache's decision-level alias memoization).
    count_verified_aliases: Mutex<Lru<Structure, ()>>,
    /// Compiled kernel programs per cached database index, keyed by
    /// `(`[`StructureIndex::id`]`, `[`StructureIndex::domain_epoch`]`)` and
    /// LRU-retained up to [`MAX_KERNEL_BUNDLES`] — an in-place delta that grows
    /// a position domain bumps the epoch and transparently recompiles, while
    /// same-epoch deltas keep every warm program (their baked domains remain
    /// sound supersets).  Each entry also holds the latest index state it
    /// served: baked domains are supersets only along one branch of
    /// deletions, so a state that does not descend from it (a clone that
    /// took other deltas) recompiles.  A runtime cache of compilation work,
    /// never persisted (a warm-started plan recompiles on first
    /// evaluation, exactly like a cold one).
    kernels: Mutex<Lru<KernelCacheKey, (IndexState, Arc<IndexKernels>)>>,
}

/// Cache key for [`PreparedQuery`]'s per-index program bundles: the index's
/// [`StructureIndex::id`] plus its domain epoch (an epoch bump invalidates
/// programs whose baked position domains may have grown).
type KernelCacheKey = (u64, u64);

impl PreparedQuery {
    /// Prepare a query under the given configuration.  This is the one-time
    /// per-query cost: core computation (when `config.use_core`), Gaifman
    /// graph, and the single structural-analysis pass.
    pub fn prepare(a: &Structure, config: &EngineConfig) -> PreparedQuery {
        Self::prepare_with_fingerprint(a, config, query_fingerprint(a))
    }

    /// As [`prepare`](Self::prepare) with a caller-supplied fingerprint (the
    /// engine computes the fingerprint first for its cache lookup and avoids
    /// hashing twice).
    pub(crate) fn prepare_with_fingerprint(
        a: &Structure,
        config: &EngineConfig,
        fingerprint: u64,
    ) -> PreparedQuery {
        let evaluated = if config.use_core {
            core_of(a).core
        } else {
            a.clone()
        };
        let gaifman = gaifman_graph(&evaluated);
        let analysis = cq_decomp::analyze(&gaifman);
        let degree_hint = Degree::of_widths(analysis.widths, config);
        PreparedQuery {
            fingerprint,
            roles_coincide: evaluated == *a,
            original: a.clone(),
            evaluated,
            core_applied: config.use_core,
            gaifman,
            analysis,
            degree_hint,
            sentence: OnceLock::new(),
            staircase: OnceLock::new(),
            counting: OnceLock::new(),
            count_verified_aliases: Mutex::new(Lru::new(MAX_COUNT_VERIFIED_ALIASES)),
            kernels: Mutex::new(Lru::new(MAX_KERNEL_BUNDLES)),
        }
    }

    /// The isomorphism-invariant fingerprint of the original query (the plan
    /// cache key).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The query exactly as submitted.
    pub fn original(&self) -> &Structure {
        &self.original
    }

    /// The structure actually evaluated: the core of the original when the
    /// configuration enables core preprocessing, the original otherwise.
    pub fn evaluated(&self) -> &Structure {
        &self.evaluated
    }

    /// Whether `evaluated` is the core of `original`.
    pub fn core_applied(&self) -> bool {
        self.core_applied
    }

    /// Universe size of the evaluated structure.
    pub fn evaluated_size(&self) -> usize {
        self.evaluated.universe_size()
    }

    /// The Gaifman graph of the evaluated structure.
    pub fn gaifman(&self) -> &Graph {
        &self.gaifman
    }

    /// The structural analysis: widths plus certificates.
    pub fn analysis(&self) -> &StructuralAnalysis {
        &self.analysis
    }

    /// The width profile of the evaluated structure.
    pub fn widths(&self) -> WidthProfile {
        self.analysis.widths
    }

    /// The degree this single query would contribute to a class
    /// classification, judged against the preparing configuration's
    /// thresholds.
    pub fn degree_hint(&self) -> Degree {
        self.degree_hint
    }

    /// The Lemma 3.3 `{∧,∃}`-sentence corresponding to the evaluated
    /// structure, compiled on first use from the elimination-forest
    /// certificate (no tree-depth recomputation) and cached for every later
    /// evaluation.
    pub fn sentence(&self) -> &TreeDepthSentence {
        self.sentence.get_or_init(|| {
            corresponding_sentence_with_forest(
                &self.evaluated,
                &self.analysis.elimination_forest,
                self.analysis.widths.treedepth,
            )
        })
    }

    /// The staircase normal form of the optimal path decomposition,
    /// normalized on first use and cached: the input of the Theorem 4.6
    /// reference sweep ([`cq_solver::pathdp::hom_via_staircase`]).  The
    /// path tier does not read it.
    pub fn staircase(&self) -> &PathDecomposition {
        self.staircase
            .get_or_init(|| self.analysis.path_decomposition.normalize_staircase())
    }

    /// The structural analysis of the **original** query — the certificates
    /// the counting tiers consume.
    ///
    /// Counting is not invariant under taking cores: `#hom(A, B)` differs
    /// from `#hom(core(A), B)` whenever the core is proper (e.g.
    /// `#hom(P₄, K₃) = 24` but the core of `P₄` is an edge with
    /// `#hom(K₂, K₃) = 6`).  The decision path may therefore evaluate the
    /// core while the counting path must run on `original`; this accessor
    /// serves the matching certificates, computing them lazily on first use
    /// (and reusing the decision analysis outright when the two structures
    /// coincide, so no width DP runs twice).
    ///
    /// Engine-managed plans should be counted through
    /// [`crate::Engine::count_prepared`], which folds the width-DP work of
    /// this lazy computation into [`crate::Engine::prep_stats`].
    pub fn counting_analysis(&self) -> &StructuralAnalysis {
        self.counting_analysis_tracked().0
    }

    /// As [`Self::counting_analysis`], additionally reporting whether *this*
    /// call performed the one-time computation (`true` at most once per
    /// plan, and never when the decision analysis is reused) — the engine
    /// uses the flag to attribute the width-DP delta to its [`crate::PrepStats`].
    pub(crate) fn counting_analysis_tracked(&self) -> (&StructuralAnalysis, bool) {
        if self.roles_coincide {
            return (&self.analysis, false);
        }
        let mut computed = false;
        let analysis = self.counting.get_or_init(|| {
            computed = true;
            cq_decomp::analyze(&gaifman_graph(&self.original))
        });
        (analysis, computed)
    }

    /// The width profile of the **original** query (counting-tier
    /// selection keys on these widths, not the core's — Theorem 6.1
    /// classifies counting by the members themselves).
    pub fn counting_widths(&self) -> WidthProfile {
        self.counting_analysis().widths
    }

    /// The kernel-program bundle for one database index **at its current
    /// domain epoch**, created on first sight and LRU-retained up to
    /// [`MAX_KERNEL_BUNDLES`] distinct `(index, epoch)` pairs.  A bundle
    /// compiled before a domain-growing delta keys under the old epoch and
    /// ages out of the LRU naturally; one last used at a state the index
    /// does not descend from ([`StructureIndex::descends_from`]) is
    /// replaced.
    fn kernels_for(&self, index: &StructureIndex) -> Arc<IndexKernels> {
        let key = (index.id(), index.domain_epoch());
        let state = index.state();
        let mut cache = lru::lock(&self.kernels);
        if let Some((served, bundle)) = cache.get(&key) {
            if *served == state || index.descends_from(*served) {
                *served = state;
                return Arc::clone(bundle);
            }
            cache.remove(&key);
        }
        let bundle = Arc::new(IndexKernels::default());
        cache.insert(key, (state, Arc::clone(&bundle)));
        bundle
    }

    /// `role`'s slots in one bundle, with the structure and certificates
    /// its programs compile from.  The counting role resolves to the
    /// decision slots whenever the two roles compile the same structure
    /// with the same certificates.
    fn role<'k>(
        &self,
        kernels: &'k IndexKernels,
        role: Role,
    ) -> (&'k RolePrograms, &Structure, &StructuralAnalysis) {
        match role {
            Role::Counting if !self.roles_coincide => {
                (&kernels.roles[1], &self.original, self.counting_analysis())
            }
            _ => (&kernels.roles[0], &self.evaluated, &self.analysis),
        }
    }

    /// `role`'s [`TreeDpProgram`] in `kernels`, compiled on first use.
    fn tree_program<'k>(
        &self,
        kernels: &'k IndexKernels,
        role: Role,
        index: &StructureIndex,
    ) -> &'k TreeDpProgram {
        let (slots, a, analysis) = self.role(kernels, role);
        slots
            .tree
            .get_or_init(|| TreeDpProgram::compile(a, index, &analysis.tree_decomposition))
    }

    /// `role`'s [`ForestProgram`] in `kernels`, compiled on first use.
    fn forest_program<'k>(
        &self,
        kernels: &'k IndexKernels,
        role: Role,
        index: &StructureIndex,
    ) -> &'k ForestProgram {
        let (slots, a, analysis) = self.role(kernels, role);
        slots
            .forest
            .get_or_init(|| ForestProgram::compile(a, index, &analysis.elimination_forest))
    }

    /// Run `f` on `role`'s [`SearchProgram`] in the requested element
    /// order: the cached one when its order matches (compiled on first
    /// use), an uncached compilation otherwise.
    fn with_search<R>(
        &self,
        kernels: &IndexKernels,
        role: Role,
        index: &StructureIndex,
        fail_first: bool,
        f: impl FnOnce(&SearchProgram) -> R,
    ) -> R {
        let (slots, a, _) = self.role(kernels, role);
        let compile = || SearchProgram::compile(a, index, fail_first);
        let (order, program) = slots.search.get_or_init(|| (fail_first, compile()));
        if *order == fail_first {
            f(program)
        } else {
            f(&compile())
        }
    }

    /// Decide through the kernel tree DP (treewidth tier), compiling the
    /// [`TreeDpProgram`] on first use against this index.
    ///
    /// On a delta-maintained index evaluation is **retained**: the per-edge
    /// DP join tables of the last run stay on the bundle, so after an
    /// in-place [`crate::Engine::apply_delta`] only the bags whose
    /// constraints mention a touched relation re-run (Bool is not
    /// invertible, so dirty bags recompute rather than patch — see the
    /// bundle field docs for why that beats a `CheckedNat` decide state).
    /// A never-mutated index, or a concurrent evaluation holding the
    /// retained state, gets a plain stateless pass.
    pub fn decide_via_tree(&self, index: &StructureIndex) -> TreeDpRun {
        let kernels = self.kernels_for(index);
        let program = self.tree_program(&kernels, Role::Decision, index);
        if let Some(mut state) = retained_slot(&kernels.tree_decide_retained, index) {
            let (exists, stats) = program.eval_retained::<BoolSemiring>(index, &mut state);
            return TreeDpRun {
                exists,
                count: Nat::Finite(u64::from(exists)),
                peak_table: stats.peak_table,
            };
        }
        program.decide(index)
    }

    /// Count through the kernel tree DP, compiling the [`TreeDpProgram`]
    /// of the **original** structure with the counting certificates on
    /// first use against this index.
    ///
    /// Retained like [`Self::decide_via_tree`]; counts additionally get the
    /// subtractive fast path (`CheckedNat` is invertible, so a small delta
    /// patches group sums by ⊖/⊕ instead of re-enumerating the bag).
    pub fn count_via_tree(&self, index: &StructureIndex) -> TreeDpRun {
        let kernels = self.kernels_for(index);
        let program = self.tree_program(&kernels, Role::Counting, index);
        if let Some(mut state) = retained_slot(&kernels.tree_count_retained, index) {
            let (count, stats) = program.eval_retained::<CheckedNatSemiring>(index, &mut state);
            return TreeDpRun {
                exists: count.positive(),
                count,
                peak_table: stats.peak_table,
            };
        }
        program.count(index)
    }

    /// The compiled [`AnswerProgram`] for one free-element list against one
    /// index, built on the **original** structure's counting tree
    /// decomposition (answers, like counts, are not core-invariant —
    /// projecting homomorphisms of the core onto free positions of the
    /// core would answer a different query).  Compiled on
    /// first use and LRU-cached per free list on the index's kernel bundle.
    ///
    /// `free` must be the canonical-structure elements of the free
    /// variables in declared order, distinct; the engine validates this at
    /// the [`cq_structures::ConjunctiveQuery`] boundary.
    pub fn answer_program(&self, index: &StructureIndex, free: &[Element]) -> Arc<AnswerProgram> {
        let kernels = self.kernels_for(index);
        let mut cache = lru::lock(&kernels.answers);
        if let Some(program) = cache.get(free) {
            return Arc::clone(program);
        }
        let program = Arc::new(AnswerProgram::compile(
            &self.original,
            index,
            &self.counting_analysis().tree_decomposition,
            free,
        ));
        cache.insert(free.to_vec(), Arc::clone(&program));
        program
    }

    /// Decide through one decision tier's kernel program on the
    /// **evaluated** structure, compiled on first use against this index
    /// and reused afterwards: the forest recursion (tree depth), the tree
    /// DP over the path decomposition (pathwidth), the retained tree DP
    /// over the tree decomposition ([`Self::decide_via_tree`]) or the
    /// whole-query search, whose element order `fail_first` picks
    /// (ignored by the structural tiers).  The caller picks the tier
    /// ([`SolverChoice::admits`]); every tier is correct on every query,
    /// the licence only bounds its cost.
    pub fn decide(&self, choice: SolverChoice, index: &StructureIndex, fail_first: bool) -> bool {
        if choice == SolverChoice::TreeDecomposition {
            return self.decide_via_tree(index).exists;
        }
        let kernels = self.kernels_for(index);
        match choice {
            SolverChoice::TreeDepth => {
                let program = self.forest_program(&kernels, Role::Decision, index);
                program.decide(index).exists
            }
            SolverChoice::PathDecomposition => {
                let program = kernels.path.get_or_init(|| {
                    let td = self.analysis.path_decomposition.to_tree_decomposition();
                    TreeDpProgram::compile(&self.evaluated, index, &td)
                });
                program.decide(index).exists
            }
            _ => self.with_search(&kernels, Role::Decision, index, fail_first, |program| {
                program.run(index).0.is_some()
            }),
        }
    }

    /// Count homomorphisms from the **original** structure through one
    /// counting tier.  [`CountMethod::BruteForce`] is deliberately the
    /// un-indexed reference enumeration over `database` (it doubles as the
    /// oracle of the counting differential tests); the other tiers run
    /// the counting role's compiled programs against `index`: the retained
    /// tree DP ([`Self::count_via_tree`]) or the forest sum–product
    /// (Theorem 6.1 (3)), the [`CountMethod::ForestSumProduct`] reference
    /// the engine never dispatches.
    pub fn count(
        &self,
        method: CountMethod,
        database: &Structure,
        index: &StructureIndex,
    ) -> CountOutcome {
        match method {
            CountMethod::ForestSumProduct => {
                let kernels = self.kernels_for(index);
                let program = self.forest_program(&kernels, Role::Counting, index);
                program.count(index).count.into()
            }
            CountMethod::TreeDecompositionDp => self.count_via_tree(index).count.into(),
            CountMethod::BruteForce => {
                CountOutcome::Exact(count_homomorphisms_bruteforce(&self.original, database))
            }
        }
    }

    /// Optimize `objective` over all homomorphisms from the **original**
    /// structure through one counting tier, running the counting role's
    /// compiled programs — the same ones counts use; a compiled program is
    /// semiring-agnostic, only the weights change per call: the tree DP,
    /// the exhaustive fail-first search for [`CountMethod::BruteForce`], or
    /// the forest recursion — the Theorem 6.1 (3) reference — for
    /// [`CountMethod::ForestSumProduct`].  `weights` must align with the
    /// index's database.
    pub fn aggregate(
        &self,
        method: CountMethod,
        index: &StructureIndex,
        weights: &TupleWeights,
        objective: AggregateObjective,
    ) -> Option<u64> {
        fn run<S: Semiring<Value = Cost>>(
            plan: &PreparedQuery,
            method: CountMethod,
            index: &StructureIndex,
            weights: &TupleWeights,
        ) -> Cost {
            let kernels = plan.kernels_for(index);
            match method {
                CountMethod::ForestSumProduct => plan
                    .forest_program(&kernels, Role::Counting, index)
                    .eval::<S>(index, Some(weights), &mut 0),
                CountMethod::TreeDecompositionDp => {
                    plan.tree_program(&kernels, Role::Counting, index)
                        .eval::<S>(index, Some(weights))
                        .0
                }
                CountMethod::BruteForce => {
                    plan.with_search(&kernels, Role::Counting, index, true, |program| {
                        program.aggregate::<S>(index, Some(weights)).0
                    })
                }
            }
        }
        match objective {
            AggregateObjective::MinCost => run::<MinCostSemiring>(self, method, index, weights),
            AggregateObjective::MaxWeight => run::<MaxWeightSemiring>(self, method, index, weights),
        }
    }

    /// Whether this plan answers queries for `candidate`: true when
    /// `candidate` is homomorphically equivalent to the prepared original —
    /// exactly the equivalence under which `p-HOM` answers (and cores, hence
    /// plans) are preserved.  Used by the engine to confirm fingerprint
    /// matches before reusing a cached plan, so a hash collision can cost a
    /// cache miss but never a wrong answer.
    pub fn answers_for(&self, candidate: &Structure) -> bool {
        if *candidate == self.original {
            return true;
        }
        homomorphism_exists(candidate, &self.original)
            && homomorphism_exists(&self.original, candidate)
    }

    /// Whether this plan **counts** for `candidate`: true when `candidate`
    /// is *isomorphic* to the prepared original.
    ///
    /// Strictly stronger than [`Self::answers_for`], and necessarily so:
    /// homomorphism counts are invariant under isomorphism but **not**
    /// under homomorphic equivalence (the equivalence the decision cache
    /// trades in) — `P₄` and `K₂` are hom-equivalent yet have different
    /// counts into every non-trivial target.  The engine consults this
    /// before serving a count from a plan whose original differs
    /// syntactically from the submitted query; a hom-equivalent but
    /// non-isomorphic alias falls back to an uncached exact count instead
    /// of a silently wrong one.
    ///
    /// The check is two injective-homomorphism searches on parameter-sized
    /// structures: for finite structures, bijective homomorphisms in both
    /// directions compose to a bijective endo-homomorphism whose finite
    /// order makes the inverse a homomorphism too, i.e. an isomorphism.
    /// Verified forms are memoized on the plan, so repeated counting
    /// traffic submitting the same relabelling pays the searches once and
    /// a structural equality scan thereafter.
    pub fn counts_for(&self, candidate: &Structure) -> bool {
        if *candidate == self.original {
            return true;
        }
        if candidate.universe_size() != self.original.universe_size() {
            return false;
        }
        if lru::lock(&self.count_verified_aliases)
            .get(candidate)
            .is_some()
        {
            return true;
        }
        let isomorphic = embedding_exists(candidate, &self.original)
            && embedding_exists(&self.original, candidate);
        if isomorphic {
            let mut aliases = lru::lock(&self.count_verified_aliases);
            if aliases.get(candidate).is_none() {
                aliases.insert(candidate.clone(), ());
            }
        }
        isomorphic
    }
}

/// Binary encoding of a prepared plan: the eager artifacts in declaration
/// order, then the three lazily materialized ones (`{∧,∃}`-sentence,
/// staircase form, counting certificates) as present/absent options — a
/// plan saved before any counting traffic simply stores `None` and the
/// warm-started engine materializes on first use, exactly like a plan
/// prepared in process.  The runtime alias memo and the per-index kernel
/// bundles are deliberately not persisted (they cache verification and
/// compilation work against process-local state — index ids are not
/// stable across processes — and are not part of the plan).
impl Encode for PreparedQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.fingerprint.encode(out);
        self.original.encode(out);
        self.evaluated.encode(out);
        self.core_applied.encode(out);
        self.gaifman.encode(out);
        self.analysis.encode(out);
        self.degree_hint.encode(out);
        encode_option_ref(self.sentence.get(), out);
        encode_option_ref(self.staircase.get(), out);
        encode_option_ref(self.counting.get(), out);
    }
}

impl Decode for PreparedQuery {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        fn lock_from<T>(value: Option<T>) -> OnceLock<T> {
            match value {
                Some(v) => OnceLock::from(v),
                None => OnceLock::new(),
            }
        }
        let fingerprint = u64::decode(r)?;
        let original = Structure::decode(r)?;
        let evaluated = Structure::decode(r)?;
        Ok(PreparedQuery {
            fingerprint,
            roles_coincide: evaluated == original,
            original,
            evaluated,
            core_applied: bool::decode(r)?,
            gaifman: Graph::decode(r)?,
            analysis: StructuralAnalysis::decode(r)?,
            degree_hint: Degree::decode(r)?,
            sentence: lock_from(Option::<TreeDepthSentence>::decode(r)?),
            staircase: lock_from(Option::<PathDecomposition>::decode(r)?),
            counting: lock_from(Option::<StructuralAnalysis>::decode(r)?),
            count_verified_aliases: Mutex::new(Lru::new(MAX_COUNT_VERIFIED_ALIASES)),
            kernels: Mutex::new(Lru::new(MAX_KERNEL_BUNDLES)),
        })
    }
}

impl PreparedQuery {
    /// Verify a decoded plan before trusting it with traffic: every
    /// derivable fact the plan asserts about itself is re-checked against
    /// the configuration it is about to serve under, so a corrupted or
    /// stale record (old thresholds, edited certificates, a swapped
    /// original) is rejected and degrades to a cold prepare — never a wrong
    /// answer.
    ///
    /// The checks reuse the engine's own confirmation paths: the
    /// isomorphism-invariant fingerprint, the homomorphic-equivalence check
    /// behind [`PreparedQuery::answers_for`], the decomposition validity
    /// checkers, and a deterministic recompilation of the lazily cached
    /// sentence/staircase artifacts.  No width DP and no core computation
    /// runs — that is what makes warm starts cheap (asserted by the
    /// round-trip tests through [`crate::PrepStats`]).  The hom-equivalence
    /// confirmation is the same backtracking search the cache's lookup
    /// confirmation uses: worst-case exponential in the *query*, which is
    /// parameter-sized by the problem's definition — but a store record is
    /// untrusted input, so callers loading stores from unvetted sources
    /// should expect verification time proportional to preparing the same
    /// queries' hom-equivalence checks, not a fixed bound.
    pub fn verify(&self, config: &EngineConfig) -> Result<(), &'static str> {
        if self.core_applied != config.use_core {
            return Err("plan prepared under a different core-preprocessing setting");
        }
        if query_fingerprint(&self.original) != self.fingerprint {
            return Err("fingerprint does not match the stored original");
        }
        if self.core_applied {
            if !(homomorphism_exists(&self.evaluated, &self.original)
                && homomorphism_exists(&self.original, &self.evaluated))
            {
                return Err("evaluated structure is not hom-equivalent to the original");
            }
        } else if self.evaluated != self.original {
            return Err("evaluated structure differs although core preprocessing is off");
        }
        if self.gaifman != gaifman_graph(&self.evaluated) {
            return Err("stale Gaifman graph");
        }
        Self::verify_analysis(&self.analysis, &self.gaifman)?;
        let widths = self.analysis.widths;
        let expected_degree = Degree::from_boundedness(
            widths.treewidth <= config.treewidth_threshold,
            widths.pathwidth <= config.pathwidth_threshold,
            widths.treedepth <= config.treedepth_threshold,
        );
        if self.degree_hint != expected_degree {
            return Err("degree hint inconsistent with the widths and thresholds");
        }
        if let Some(sentence) = self.sentence.get() {
            let expected = corresponding_sentence_with_forest(
                &self.evaluated,
                &self.analysis.elimination_forest,
                widths.treedepth,
            );
            if sentence.sentence != expected.sentence
                || sentence.core != expected.core
                || sentence.treedepth != expected.treedepth
                || sentence.forest != expected.forest
            {
                return Err("cached sentence differs from a fresh compilation");
            }
        }
        if let Some(staircase) = self.staircase.get() {
            if *staircase != self.analysis.path_decomposition.normalize_staircase() {
                return Err("cached staircase differs from a fresh normalization");
            }
        }
        match self.counting.get() {
            Some(_) if self.roles_coincide => {
                // When the evaluated structure *is* the original the plan
                // reuses the decision certificates and never populates this
                // slot; a populated slot is a non-canonical (tampered)
                // record.
                return Err("redundant counting certificates");
            }
            Some(counting) => {
                Self::verify_analysis(counting, &gaifman_graph(&self.original))?;
            }
            None => {}
        }
        Ok(())
    }

    /// Certificate-side consistency: every certificate must be valid for
    /// the graph and witness exactly the claimed width.  (A valid
    /// certificate of the claimed width cannot understate the true width,
    /// so dispatch can never be tricked into running a tier outside its
    /// licence with an unusable certificate.)
    fn verify_analysis(analysis: &StructuralAnalysis, gaifman: &Graph) -> Result<(), &'static str> {
        let widths = analysis.widths;
        if !analysis.tree_decomposition.is_valid_for(gaifman)
            || analysis.tree_decomposition.width() != widths.treewidth
        {
            return Err("invalid or inconsistent tree decomposition");
        }
        if !analysis.path_decomposition.is_valid_for(gaifman)
            || analysis.path_decomposition.width() != widths.pathwidth
        {
            return Err("invalid or inconsistent path decomposition");
        }
        if !analysis.elimination_forest.is_valid_for(gaifman)
            || analysis.elimination_forest.height() != widths.treedepth
        {
            return Err("invalid or inconsistent elimination forest");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_structures::{families, relabeled, star_expansion};

    #[test]
    fn prepare_carries_certificates_matching_the_widths() {
        for a in [
            families::star(4),
            star_expansion(&families::path(6)),
            star_expansion(&families::tree_t(2)),
            families::clique(4),
        ] {
            let q = PreparedQuery::prepare(&a, &EngineConfig::default());
            let w = q.widths();
            let g = q.gaifman();
            assert!(q.analysis().tree_decomposition.is_valid_for(g));
            assert_eq!(q.analysis().tree_decomposition.width(), w.treewidth);
            assert!(q.analysis().path_decomposition.is_valid_for(g));
            assert_eq!(q.analysis().path_decomposition.width(), w.pathwidth);
            assert!(q.analysis().elimination_forest.is_valid_for(g));
            assert_eq!(q.analysis().elimination_forest.height(), w.treedepth);
        }
    }

    #[test]
    fn lazy_artifacts_are_consistent() {
        let a = star_expansion(&families::path(6));
        let q = PreparedQuery::prepare(&a, &EngineConfig::default());
        let stair = q.staircase();
        assert!(stair.is_staircase());
        assert!(stair.width() <= q.widths().pathwidth + 1);
        let sentence = &q.sentence().sentence;
        assert!(sentence.is_and_exists());
        assert!(sentence.is_sentence());
    }

    #[test]
    fn core_preprocessing_respects_the_config() {
        let c8 = families::cycle(8);
        let with_core = PreparedQuery::prepare(&c8, &EngineConfig::default());
        let without_core = PreparedQuery::prepare(
            &c8,
            &EngineConfig {
                use_core: false,
                ..EngineConfig::default()
            },
        );
        assert!(with_core.evaluated_size() < without_core.evaluated_size());
        assert!(with_core.core_applied());
        assert!(!without_core.core_applied());
        assert_eq!(without_core.evaluated(), &c8);
    }

    #[test]
    fn answers_for_accepts_relabellings_and_rejects_strangers() {
        let c7 = families::cycle(7);
        let q = PreparedQuery::prepare(&c7, &EngineConfig::default());
        let perm: Vec<usize> = (0..7).rev().collect();
        assert!(q.answers_for(&c7));
        assert!(q.answers_for(&relabeled(&c7, &perm)));
        assert!(!q.answers_for(&families::cycle(5)));
        assert!(!q.answers_for(&families::path(7)));
    }

    #[test]
    fn counting_analysis_describes_the_original_not_the_core() {
        // P6 cores down to an edge; the decision certificates describe the
        // edge (tree depth 2), the counting certificates the full path.
        let p6 = families::path(6);
        let q = PreparedQuery::prepare(&p6, &EngineConfig::default());
        assert!(q.core_applied());
        assert_eq!(q.evaluated_size(), 2);
        assert_eq!(q.widths().treedepth, 2);
        let counting = q.counting_analysis();
        let original_gaifman = cq_graphs::gaifman_graph(q.original());
        assert!(counting.elimination_forest.is_valid_for(&original_gaifman));
        assert!(counting.tree_decomposition.is_valid_for(&original_gaifman));
        assert_eq!(counting.widths.treewidth, 1);
        assert!(counting.widths.treedepth > 2, "P6 is deeper than its core");
        // The lazy computation happens exactly once.
        let (_, first) = q.counting_analysis_tracked();
        assert!(!first, "already materialized by the accessor above");
    }

    #[test]
    fn counting_analysis_reuses_decision_certificates_for_cores() {
        // An odd cycle is its own core: the counting path must not run a
        // second analysis (observable as pointer identity of the shared
        // certificates).
        let c7 = families::cycle(7);
        let q = PreparedQuery::prepare(&c7, &EngineConfig::default());
        let (counting, computed) = q.counting_analysis_tracked();
        assert!(!computed);
        assert!(std::ptr::eq(counting, q.analysis()));
        assert_eq!(q.counting_widths(), q.widths());
    }

    #[test]
    fn counts_for_is_stricter_than_answers_for() {
        // K2 and P4 are hom-equivalent (shared core K2) but not isomorphic:
        // a K2 plan answers decisions for P4 yet must refuse to count for it
        // (#hom(K2, K3) = 6 while #hom(P4, K3) = 24).
        let k2 = families::path(2);
        let p4 = families::path(4);
        let q = PreparedQuery::prepare(&k2, &EngineConfig::default());
        assert!(q.answers_for(&p4));
        assert!(!q.counts_for(&p4));
        // Relabellings are isomorphic, so counting for them is sound.
        let c7 = families::cycle(7);
        let qc = PreparedQuery::prepare(&c7, &EngineConfig::default());
        let perm: Vec<usize> = (0..7).rev().collect();
        assert!(qc.counts_for(&relabeled(&c7, &perm)));
        assert!(!qc.counts_for(&families::cycle(5)));
    }

    #[test]
    fn kernel_programs_compile_once_per_index_and_lru_evict() {
        use cq_structures::StructureIndex;
        let a = families::star(3);
        let q = PreparedQuery::prepare(&a, &EngineConfig::default());
        let warm = |i: &StructureIndex| {
            for choice in SolverChoice::STANDARD {
                q.decide(choice, i, true);
            }
            q.count(CountMethod::TreeDecompositionDp, i.structure(), i);
            q.count(CountMethod::ForestSumProduct, i.structure(), i);
        };
        let bundle_of = |i: &StructureIndex| -> Arc<IndexKernels> {
            let cache = q.kernels.lock().unwrap();
            let (_, (_, bundle)) = cache
                .iter()
                .find(|(key, _)| key.0 == i.id())
                .expect("bundle cached");
            Arc::clone(bundle)
        };
        let k3 = families::clique(3);
        let index = StructureIndex::new(&k3);
        warm(&index);
        // Correctness of the cached programs.
        assert!(q.decide_via_tree(&index).exists);
        assert_eq!(
            q.count(CountMethod::ForestSumProduct, &k3, &index),
            cq_structures::count_homomorphisms_bruteforce(&a, &k3)
        );
        // Weighted aggregates reuse the counting programs (same bundle,
        // weights supplied at run time): uniform weight 1 makes the minimum
        // cost the number of query tuples, on every tier.
        let weights = TupleWeights::uniform(&k3, 1);
        let expected_cost = Some(a.tuple_count() as u64);
        for method in [CountMethod::TreeDecompositionDp, CountMethod::BruteForce] {
            let cost = q.aggregate(method, &index, &weights, AggregateObjective::MinCost);
            assert_eq!(cost, expected_cost, "{method:?}");
        }
        // One fully populated bundle for this index; `OnceLock` slots can
        // only initialize once, so bundle identity across repeat traffic
        // proves no program was recompiled.
        let bundle = bundle_of(&index);
        assert!(bundle.path.get().is_some());
        assert!(bundle.roles.iter().all(|r| r.filled() == [true; 3]));
        warm(&index);
        assert!(Arc::ptr_eq(&bundle, &bundle_of(&index)));
        // A different database index gets its own bundle; both stay warm
        // side by side.
        let other = StructureIndex::new(&families::cycle(5));
        warm(&other);
        let other_bundle = bundle_of(&other);
        assert!(!Arc::ptr_eq(&bundle, &other_bundle));
        warm(&index);
        warm(&other);
        assert!(Arc::ptr_eq(&bundle, &bundle_of(&index)));
        assert!(Arc::ptr_eq(&other_bundle, &bundle_of(&other)));
        // Cycling more indexes than the cap evicts the least-recently-used
        // bundle; returning to it transparently recompiles (bounded
        // memory, unchanged answers).
        let extra: Vec<StructureIndex> = (0..super::MAX_KERNEL_BUNDLES)
            .map(|i| StructureIndex::new(&families::path(i + 2)))
            .collect();
        for e in &extra {
            q.decide_via_tree(e);
        }
        assert!(q
            .kernels
            .lock()
            .unwrap()
            .iter()
            .all(|(key, _)| key.0 != index.id()));
        assert!(q.decide_via_tree(&index).exists);
        assert!(!Arc::ptr_eq(&bundle, &bundle_of(&index)));
    }

    #[test]
    fn self_core_queries_share_one_program_per_kind_across_roles() {
        use cq_structures::StructureIndex;
        let target = families::clique(3);
        let index = StructureIndex::new(&target);
        let weights = TupleWeights::uniform(&target, 1);
        // An odd cycle is its own core: decide, count and aggregate run the
        // decision slots and the counting slots stay empty.  A star cores
        // down to an edge, so each role keeps its own programs.  Counts
        // describe the original either way.
        for (a, shared) in [(families::cycle(5), true), (families::star(3), false)] {
            let q = PreparedQuery::prepare(&a, &EngineConfig::default());
            assert_eq!(q.evaluated() == &a, shared);
            for choice in SolverChoice::STANDARD {
                q.decide(choice, &index, false);
            }
            let expected = cq_structures::count_homomorphisms_bruteforce(&a, &target);
            for method in [
                CountMethod::TreeDecompositionDp,
                CountMethod::ForestSumProduct,
            ] {
                assert_eq!(q.count(method, &target, &index), expected);
            }
            for method in [CountMethod::TreeDecompositionDp, CountMethod::BruteForce] {
                q.aggregate(method, &index, &weights, AggregateObjective::MinCost);
            }
            let bundle = q.kernels_for(&index);
            assert_eq!(bundle.roles[0].filled(), [true; 3]);
            assert_eq!(bundle.roles[1].filled(), [!shared; 3]);
            let decision = q.tree_program(&bundle, Role::Decision, &index);
            let counting = q.tree_program(&bundle, Role::Counting, &index);
            assert_eq!(std::ptr::eq(decision, counting), shared);
            // The search slot keeps the order it was first compiled in; the
            // other order is compiled per call, with the same answer.
            let cached = bundle.roles[0].search.get().map(|(order, _)| *order);
            assert_eq!(cached, Some(false));
            let backtrack = |order| q.decide(SolverChoice::Backtracking, &index, order);
            assert_eq!(backtrack(true), backtrack(false));
        }
    }

    #[test]
    fn in_place_deltas_reuse_warm_tree_programs_until_the_epoch_bumps() {
        use cq_structures::{
            count_homomorphisms_bruteforce, DeltaBatch, StructureIndex, Vocabulary,
        };

        let a = families::star(3);
        let q = PreparedQuery::prepare(&a, &EngineConfig::default());

        // A K4 on {0..3} plus the isolated element 4: every posting list of
        // element 4 is empty, so its first tuple later must bump the epoch.
        let voc = Vocabulary::graph();
        let e = voc.id_of("E").unwrap();
        let mut db = Structure::new(voc, 5).unwrap();
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    db.add_tuple(e, vec![u, v]).unwrap();
                }
            }
        }
        let mut index = StructureIndex::new(&db);
        let bundle_of = |i: &StructureIndex| -> Arc<IndexKernels> {
            let cache = q.kernels.lock().unwrap();
            let (_, (_, bundle)) = cache
                .iter()
                .find(|(key, _)| **key == (i.id(), i.domain_epoch()))
                .expect("bundle cached under the current (id, epoch) key");
            Arc::clone(bundle)
        };
        let check = |i: &StructureIndex| {
            let run = q.count_via_tree(i);
            assert_eq!(run.exists, q.decide_via_tree(i).exists);
            assert_eq!(run.count, count_homomorphisms_bruteforce(&a, i.structure()));
        };
        check(&index);
        let warm_bundle = bundle_of(&index);
        // A never-mutated index runs the stateless passes: no tables are
        // retained for a database that may never take a delta.
        fn retained_version<V>(slot: &Mutex<Option<TreeIncrementalState<V>>>) -> Option<u64> {
            slot.lock().unwrap().as_ref().map(|t| t.version())
        }
        assert_eq!(index.version(), 0);
        assert_eq!(retained_version(&warm_bundle.tree_count_retained), None);
        assert_eq!(retained_version(&warm_bundle.tree_decide_retained), None);
        let epoch = index.domain_epoch();

        // Same-epoch churn (delete one K4 edge, then reinsert it): every
        // touched element keeps nonempty postings, so the warm bundle —
        // `OnceLock` slots compile at most once — keeps serving, now with
        // retained tables synced to each new index version.
        for delete in [true, false] {
            let mut churn = DeltaBatch::new();
            if delete {
                churn.delete(e, vec![0, 1]);
            } else {
                churn.insert(e, vec![0, 1]);
            }
            index.apply_delta(&churn).unwrap();
            assert_eq!(index.domain_epoch(), epoch);
            check(&index);
            assert!(Arc::ptr_eq(&warm_bundle, &bundle_of(&index)));
            let synced = Some(index.version());
            assert_eq!(retained_version(&warm_bundle.tree_count_retained), synced);
            assert_eq!(retained_version(&warm_bundle.tree_decide_retained), synced);
        }

        // Epoch bump (element 4 gains its first tuples): the baked prefilter
        // domains are stale, so the next evaluation keys a fresh bundle and
        // recompiles — answers stay right throughout.
        let mut grow = DeltaBatch::new();
        grow.insert(e, vec![4, 0]).insert(e, vec![0, 4]);
        index.apply_delta(&grow).unwrap();
        assert!(index.domain_epoch() > epoch);
        check(&index);
        assert!(!Arc::ptr_eq(&warm_bundle, &bundle_of(&index)));
    }

    #[test]
    fn count_verified_aliases_are_memoized_once_per_form() {
        let c7 = families::cycle(7);
        let q = PreparedQuery::prepare(&c7, &EngineConfig::default());
        let perm: Vec<usize> = (0..7).rev().collect();
        let twisted = relabeled(&c7, &perm);
        // Repeat lookups of the same relabelled form: the embedding
        // verification runs on the first call only; afterwards the form
        // sits in the memo exactly once.
        for _ in 0..3 {
            assert!(q.counts_for(&twisted));
            assert_eq!(q.count_verified_aliases.lock().unwrap().len(), 1);
        }
        // The identical form and rejected strangers never enter the memo.
        assert!(q.counts_for(&c7));
        assert!(!q.counts_for(&families::path(7)));
        assert_eq!(q.count_verified_aliases.lock().unwrap().len(), 1);
    }
}
