//! The [`CountSolver`] trait and the priority-ordered counting registry —
//! the counting half of the classification (Theorem 6.1), mirrored on the
//! decision registry of [`crate::registry`].
//!
//! Theorem 6.1 classifies `p-#HOM(A)` by the widths of the class members
//! **themselves**: counting is not invariant under taking cores (a query
//! and its proper core have equal decision answers but different counts),
//! so unlike the decision registry — which keys on the core's widths — a
//! counting solver's [`CountSolver::admits`] keys on
//! [`PreparedQuery::counting_widths`], the width profile of the query
//! exactly as submitted, and its [`CountSolver::count`] runs on
//! [`PreparedQuery::original`] with the original-structure certificates of
//! [`PreparedQuery::counting_analysis`].
//!
//! The standard registry counts through two tiers:
//!
//! 1. [`TreeDecCountSolver`] — the extension-counting DP over the tree
//!    decomposition (the tractable tier of the counting classification,
//!    bounded treewidth).  It covers every query the forest tier admits
//!    (tree depth bounds treewidth), and on a delta-maintained index its
//!    retained tables answer an unchanged version without bag work;
//! 2. [`BruteForceCountSolver`] — exhaustive enumeration, admitting every
//!    query, so a registry walk always terminates.
//!
//! [`ForestCountSolver`] — the sum–product recursion over the elimination
//! forest (Theorem 6.1 (3), bounded tree depth) — is not in the standard
//! order: it is the reference for the theorem's space bound, measured by
//! the E16/E20 benches and available to forest-first ablation registries
//! through [`CountRegistry::new`].
//!
//! Ablations are registry edits ([`CountRegistry::without`],
//! [`CountRegistry::new`]), exactly as for decision.

use crate::engine::EngineConfig;
use crate::prepared::PreparedQuery;
use crate::service::Engine;
use crate::Degree;
use cq_decomp::WidthProfile;
use cq_solver::Nat;
use cq_structures::{count_homomorphisms_bruteforce, Structure, StructureIndex};

/// Which counting algorithm the engine picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountMethod {
    /// Sum–product recursion over the elimination forest
    /// (Theorem 6.1 (3)).
    ForestSumProduct,
    /// Extension-counting dynamic programming over the tree decomposition.
    TreeDecompositionDp,
    /// Exhaustive enumeration (no structural guarantee).
    BruteForce,
}

/// A homomorphism count that cannot silently lie: either the exact number,
/// or a typed admission that it exceeded `u64::MAX`.
///
/// This replaces the old saturating `u64` — saturated counts fed into the
/// Lemma 6.2 inclusion–exclusion produced confidently wrong answers, while
/// `Overflow` poisons every arithmetic context it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountOutcome {
    /// The exact number of homomorphisms.
    Exact(u64),
    /// The count exceeds `u64::MAX`; no numeric value is reported.
    Overflow,
}

impl CountOutcome {
    /// The exact count, or `None` on overflow.
    pub fn exact(self) -> Option<u64> {
        match self {
            CountOutcome::Exact(n) => Some(n),
            CountOutcome::Overflow => None,
        }
    }

    /// The exact count; panics with `msg` on overflow.  For callers that
    /// have already established the instance cannot overflow (tests,
    /// closed-form comparisons).
    pub fn expect_exact(self, msg: &str) -> u64 {
        match self {
            CountOutcome::Exact(n) => n,
            CountOutcome::Overflow => panic!("{msg}: count overflowed u64"),
        }
    }

    /// Whether at least one homomorphism exists.  Sound on overflow: a
    /// count past `u64::MAX` is certainly positive.
    pub fn positive(self) -> bool {
        match self {
            CountOutcome::Exact(n) => n > 0,
            CountOutcome::Overflow => true,
        }
    }
}

impl From<Nat> for CountOutcome {
    fn from(n: Nat) -> CountOutcome {
        match n {
            Nat::Finite(v) => CountOutcome::Exact(v),
            Nat::Overflow => CountOutcome::Overflow,
        }
    }
}

impl From<u64> for CountOutcome {
    fn from(n: u64) -> CountOutcome {
        CountOutcome::Exact(n)
    }
}

/// Counts compare naturally against literals (`report.count == 24`); an
/// overflowed count equals no `u64`.
impl PartialEq<u64> for CountOutcome {
    fn eq(&self, other: &u64) -> bool {
        matches!(self, CountOutcome::Exact(n) if n == other)
    }
}

impl std::fmt::Display for CountOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CountOutcome::Exact(n) => write!(f, "{n}"),
            CountOutcome::Overflow => write!(f, "overflow"),
        }
    }
}

/// What the engine did and found on one counting instance.
///
/// `PartialEq`/`Eq` so batch results can be compared wholesale — the
/// determinism tests assert that [`Engine::count_batch`] under any worker
/// count returns a sequence identical to the sequential path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountReport {
    /// The number of homomorphisms from the query **as submitted** into the
    /// database, or a typed overflow past `u64::MAX`.
    pub count: CountOutcome,
    /// The counting algorithm chosen.
    pub method: CountMethod,
    /// The degree the single query would contribute to a Theorem 6.1
    /// counting classification — judged on its **own** widths (not its
    /// core's) against the thresholds, because counting is not
    /// core-invariant.
    pub degree_hint: Degree,
    /// Width profile of the original query (what
    /// [`CountSolver::admits`] keyed on).
    pub widths: WidthProfile,
    /// Universe size of the counted (original) query.
    pub counted_query_size: usize,
}

/// One counting algorithm in the registry.
///
/// Implementations must be cheap to consult: `admits` reads the prepared
/// query's cached original-structure width profile, and `count` runs
/// against the prepared counting certificates — all exponential-in-the-query
/// work belongs to preparation, not here.  (The engine materializes the
/// counting certificates before consulting the registry, so `admits` never
/// triggers the lazy analysis itself.)
pub trait CountSolver: Send + Sync {
    /// Short human-readable name (used in reports and bench labels).
    fn name(&self) -> &'static str;

    /// The [`CountMethod`] tag this solver reports as.
    fn method(&self) -> CountMethod;

    /// Whether this solver's structural licence covers the prepared query
    /// under the given thresholds.  Counting licences key on the *original*
    /// query's widths ([`PreparedQuery::counting_widths`]).
    fn admits(&self, query: &PreparedQuery, config: &EngineConfig) -> bool;

    /// Count homomorphisms from the prepared query's original structure
    /// into one database through its cached [`StructureIndex`].
    fn count(
        &self,
        query: &PreparedQuery,
        database: &Structure,
        index: &StructureIndex,
    ) -> CountOutcome;
}

/// Sum–product counting over the original query's elimination forest
/// (Theorem 6.1 (3)): for bounded tree depth the recursion
/// `N_{r→b} = Π_i Σ_{b'} N_{t_i→b'}` counts with one image per ancestor in
/// memory.  Not in [`CountRegistry::standard`]: it is the theorem's
/// reference and an ablation solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForestCountSolver;

impl CountSolver for ForestCountSolver {
    fn name(&self) -> &'static str {
        "elimination-forest sum-product counting"
    }

    fn method(&self) -> CountMethod {
        CountMethod::ForestSumProduct
    }

    fn admits(&self, query: &PreparedQuery, config: &EngineConfig) -> bool {
        query.counting_widths().treedepth <= config.treedepth_threshold
    }

    fn count(
        &self,
        query: &PreparedQuery,
        _database: &Structure,
        index: &StructureIndex,
    ) -> CountOutcome {
        query.count_via_forest(index).count.into()
    }
}

/// Extension-counting DP over the original query's tree decomposition — the
/// bounded-treewidth tier of the counting classification.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeDecCountSolver;

impl CountSolver for TreeDecCountSolver {
    fn name(&self) -> &'static str {
        "tree-decomposition counting DP"
    }

    fn method(&self) -> CountMethod {
        CountMethod::TreeDecompositionDp
    }

    fn admits(&self, query: &PreparedQuery, config: &EngineConfig) -> bool {
        query.counting_widths().treewidth <= config.treewidth_threshold
    }

    fn count(
        &self,
        query: &PreparedQuery,
        _database: &Structure,
        index: &StructureIndex,
    ) -> CountOutcome {
        query.count_via_tree(index).count.into()
    }
}

/// Exhaustive enumeration — the structural-guarantee-free reference; admits
/// every query, so it terminates every registry walk.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForceCountSolver;

impl CountSolver for BruteForceCountSolver {
    fn name(&self) -> &'static str {
        "brute-force enumeration counting"
    }

    fn method(&self) -> CountMethod {
        CountMethod::BruteForce
    }

    fn admits(&self, _query: &PreparedQuery, _config: &EngineConfig) -> bool {
        true
    }

    fn count(
        &self,
        query: &PreparedQuery,
        database: &Structure,
        _index: &StructureIndex,
    ) -> CountOutcome {
        // Deliberately the un-indexed reference enumeration: this solver
        // doubles as the oracle of the counting differential tests.  The
        // underlying search hoists its symbol translation once per call and
        // visits complete assignments by reference, so the enumeration runs
        // with no per-assignment map allocation while staying
        // reference-pure.
        CountOutcome::Exact(count_homomorphisms_bruteforce(query.original(), database))
    }
}

/// A priority-ordered list of counting solvers; dispatch picks the first
/// that admits the query.
pub struct CountRegistry {
    solvers: Vec<Box<dyn CountSolver>>,
}

impl CountRegistry {
    /// The standard order: the tree DP (bounded treewidth), then brute
    /// force.
    pub fn standard() -> CountRegistry {
        CountRegistry {
            solvers: vec![
                Box::new(TreeDecCountSolver),
                Box::new(BruteForceCountSolver),
            ],
        }
    }

    /// A registry with an explicit solver list (full control for
    /// ablations).
    pub fn new(solvers: Vec<Box<dyn CountSolver>>) -> CountRegistry {
        CountRegistry { solvers }
    }

    /// This registry minus every solver reporting the given method — the
    /// counting analogue of the E12 ablation edit.
    pub fn without(mut self, method: CountMethod) -> CountRegistry {
        self.solvers.retain(|s| s.method() != method);
        self
    }

    /// The first solver admitting the query, in priority order.
    pub fn select(&self, query: &PreparedQuery, config: &EngineConfig) -> Option<&dyn CountSolver> {
        self.solvers
            .iter()
            .map(|s| s.as_ref())
            .find(|s| s.admits(query, config))
    }

    /// The solvers in priority order (names are stable bench labels).
    pub fn solvers(&self) -> impl Iterator<Item = &dyn CountSolver> {
        self.solvers.iter().map(|s| s.as_ref())
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether the registry is empty (no solver will ever be selected).
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }
}

impl std::fmt::Debug for CountRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.solvers.iter().map(|s| s.name()))
            .finish()
    }
}

/// Count the homomorphisms of a single `p-#HOM` instance with the algorithm
/// its structure licenses.
///
/// Compatibility wrapper over the prepared-query engine, mirroring
/// [`crate::solve_instance`]: builds a throwaway [`Engine`], prepares `a`
/// once and counts.  Repeated-query callers should hold an [`Engine`] and
/// use [`Engine::count_instance`] / [`Engine::count_batch`] so plans (and
/// their counting certificates) are reused.
pub fn count_instance(a: &Structure, b: &Structure, config: EngineConfig) -> CountReport {
    Engine::new(config).count_instance(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_structures::families;

    fn prepared(a: &Structure) -> PreparedQuery {
        PreparedQuery::prepare(a, &EngineConfig::default())
    }

    #[test]
    fn standard_registry_selects_in_priority_order() {
        let cfg = EngineConfig::default();
        let registry = CountRegistry::standard();
        let cases = [
            (families::star(5), CountMethod::TreeDecompositionDp),
            // P9 cores to an edge, but counting keys on the original: its
            // treewidth is 1.
            (families::path(9), CountMethod::TreeDecompositionDp),
            (families::clique(5), CountMethod::BruteForce),
        ];
        for (a, expected) in cases {
            let q = prepared(&a);
            let s = registry.select(&q, &cfg).expect("fallback admits");
            assert_eq!(s.method(), expected, "{a}");
        }
    }

    #[test]
    fn without_removes_a_tier_and_dispatch_falls_through() {
        let cfg = EngineConfig::default();
        let registry = CountRegistry::standard().without(CountMethod::TreeDecompositionDp);
        assert_eq!(registry.len(), 1);
        let q = prepared(&families::star(5));
        let s = registry.select(&q, &cfg).expect("fallback admits");
        assert_eq!(s.method(), CountMethod::BruteForce);
    }

    #[test]
    fn empty_registry_selects_nothing() {
        let cfg = EngineConfig::default();
        let registry = CountRegistry::new(Vec::new());
        assert!(registry.is_empty());
        let q = prepared(&families::star(3));
        assert!(registry.select(&q, &cfg).is_none());
    }

    #[test]
    fn all_registry_solvers_agree_with_the_reference() {
        let registry = CountRegistry::new(vec![
            Box::new(ForestCountSolver),
            Box::new(TreeDecCountSolver),
            Box::new(BruteForceCountSolver),
        ]);
        // Queries every solver admits, including one with a proper core
        // (P4): the counts must be those of the original structure.
        for a in [families::star(3), families::path(4)] {
            let q = prepared(&a);
            for b in [families::clique(3), families::cycle(6), families::path(4)] {
                let expected = count_homomorphisms_bruteforce(&a, &b);
                let index = StructureIndex::new(&b);
                for s in registry.solvers() {
                    assert_eq!(
                        s.count(&q, &b, &index),
                        expected,
                        "{} on {a} -> {b}",
                        s.name()
                    );
                }
            }
        }
    }

    #[test]
    fn count_instance_wrapper_counts_the_original() {
        // #hom(P4, K3) = 3·2·2·2 = 24, even though the decision path
        // evaluates the core K2 (#hom(K2, K3) = 6).
        let report = count_instance(
            &families::path(4),
            &families::clique(3),
            EngineConfig::default(),
        );
        assert_eq!(report.count, 24);
        assert_eq!(report.counted_query_size, 4);
        assert_eq!(report.widths.treewidth, 1);
    }
}
