//! Weighted-aggregate solvers and their priority-ordered registry — the
//! semiring generalization of [`crate::counting`].
//!
//! The kernel's DPs are one sum-of-products generic over a
//! [`Semiring`](cq_solver::Semiring); instantiated at [`MinCostSemiring`] /
//! [`MaxWeightSemiring`] they compute the
//! cheapest (resp. heaviest) homomorphism under a per-tuple
//! [`TupleWeights`] table instead of the number of homomorphisms.  The
//! structural licences are **identical** to counting's — aggregates, like
//! counts, are not invariant under taking cores (a core collapses distinct
//! homomorphisms that may have distinct costs), so [`AggregateSolver::admits`]
//! keys on [`PreparedQuery::counting_widths`] and evaluation runs on
//! [`PreparedQuery::original`] with the counting certificates.  The solvers
//! reuse the compiled counting programs (`tree_count` / `search_original`
//! kernel slots): a compiled program is semiring-agnostic, only the run
//! differs.
//!
//! Tiers mirror [`crate::CountRegistry::standard`] and are reported as
//! [`crate::CountMethod`]s: the tree-decomposition DP (bounded treewidth),
//! then exhaustive search (no structural guarantee).  The weighted forest
//! sum–product stays in the kernel as the Theorem 6.1 (3) reference
//! (`aggregate_with_forest_indexed`, measured by E20), not as a tier.

use crate::counting::CountMethod;
use crate::engine::EngineConfig;
use crate::prepared::PreparedQuery;
use crate::Degree;
use cq_decomp::WidthProfile;
use cq_solver::{MaxWeightSemiring, MinCostSemiring};
use cq_structures::{Structure, StructureIndex, TupleWeights};

/// Which ⊕-objective an aggregate evaluation optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateObjective {
    /// Minimum total tuple weight over all homomorphisms (tropical
    /// `(min, +)` semiring).
    MinCost,
    /// Maximum total tuple weight over all homomorphisms (`(max, +)`
    /// semiring, saturating at `u64::MAX`).
    MaxWeight,
}

impl std::fmt::Display for AggregateObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateObjective::MinCost => write!(f, "min-cost"),
            AggregateObjective::MaxWeight => write!(f, "max-weight"),
        }
    }
}

/// What the engine found on one weighted-aggregate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateReport {
    /// The optimal total weight, or `None` when no homomorphism exists
    /// (the ⊕-identity of both weighted semirings).
    pub value: Option<u64>,
    /// The objective that was optimized.
    pub objective: AggregateObjective,
    /// The algorithmic tier that ran (the counting tiers, reused).
    pub method: CountMethod,
    /// The degree the query's **own** widths would earn in the counting
    /// classification (aggregates share counting's non-core-invariance).
    pub degree_hint: Degree,
    /// Width profile of the original query (what
    /// [`AggregateSolver::admits`] keyed on).
    pub widths: WidthProfile,
}

/// One weighted-aggregate algorithm in the registry; the contract mirrors
/// [`crate::CountSolver`] — `admits` reads cached original-structure
/// widths, `evaluate` runs compiled kernel programs, nothing exponential in
/// the query happens here.
pub trait AggregateSolver: Send + Sync {
    /// Short human-readable name (reports, bench labels).
    fn name(&self) -> &'static str;

    /// The tier this solver reports as (the counting tiers, reused).
    fn method(&self) -> CountMethod;

    /// Whether the structural licence covers the query — keyed on the
    /// *original* query's widths, exactly as for counting.
    fn admits(&self, query: &PreparedQuery, config: &EngineConfig) -> bool;

    /// Optimize `objective` over all homomorphisms from the prepared
    /// query's original structure into the database, reading tuple weights
    /// from `weights` (which must align with the database's rows).
    fn evaluate(
        &self,
        query: &PreparedQuery,
        database: &Structure,
        index: &StructureIndex,
        weights: &TupleWeights,
        objective: AggregateObjective,
    ) -> Option<u64>;
}

/// Weighted DP over the original query's tree decomposition — the
/// bounded-treewidth tier, reusing the `tree_count` kernel program.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeDecAggregateSolver;

impl AggregateSolver for TreeDecAggregateSolver {
    fn name(&self) -> &'static str {
        "tree-decomposition weighted DP"
    }

    fn method(&self) -> CountMethod {
        CountMethod::TreeDecompositionDp
    }

    fn admits(&self, query: &PreparedQuery, config: &EngineConfig) -> bool {
        query.counting_widths().treewidth <= config.treewidth_threshold
    }

    fn evaluate(
        &self,
        query: &PreparedQuery,
        _database: &Structure,
        index: &StructureIndex,
        weights: &TupleWeights,
        objective: AggregateObjective,
    ) -> Option<u64> {
        match objective {
            AggregateObjective::MinCost => {
                query.aggregate_via_tree::<MinCostSemiring>(index, weights)
            }
            AggregateObjective::MaxWeight => {
                query.aggregate_via_tree::<MaxWeightSemiring>(index, weights)
            }
        }
    }
}

/// Exhaustive kernel search over the original structure — admits every
/// query, terminating every registry walk (the aggregate analogue of
/// [`crate::BruteForceCountSolver`], but indexed: it reuses the prepared
/// query's compiled original-structure [`SearchProgram`](cq_solver::SearchProgram)).
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchAggregateSolver;

impl AggregateSolver for SearchAggregateSolver {
    fn name(&self) -> &'static str {
        "exhaustive weighted search"
    }

    fn method(&self) -> CountMethod {
        CountMethod::BruteForce
    }

    fn admits(&self, _query: &PreparedQuery, _config: &EngineConfig) -> bool {
        true
    }

    fn evaluate(
        &self,
        query: &PreparedQuery,
        _database: &Structure,
        index: &StructureIndex,
        weights: &TupleWeights,
        objective: AggregateObjective,
    ) -> Option<u64> {
        match objective {
            AggregateObjective::MinCost => {
                query
                    .aggregate_via_search::<MinCostSemiring>(index, weights)
                    .0
            }
            AggregateObjective::MaxWeight => {
                query
                    .aggregate_via_search::<MaxWeightSemiring>(index, weights)
                    .0
            }
        }
    }
}

/// A priority-ordered list of aggregate solvers; dispatch picks the first
/// that admits the query.
pub struct AggregateRegistry {
    solvers: Vec<Box<dyn AggregateSolver>>,
}

impl AggregateRegistry {
    /// The standard tier order (mirrors [`crate::CountRegistry::standard`]):
    /// tree DP, then exhaustive search.
    pub fn standard() -> AggregateRegistry {
        AggregateRegistry {
            solvers: vec![
                Box::new(TreeDecAggregateSolver),
                Box::new(SearchAggregateSolver),
            ],
        }
    }

    /// A registry with an explicit solver list (ablations).
    pub fn new(solvers: Vec<Box<dyn AggregateSolver>>) -> AggregateRegistry {
        AggregateRegistry { solvers }
    }

    /// This registry minus every solver reporting the given method.
    pub fn without(mut self, method: CountMethod) -> AggregateRegistry {
        self.solvers.retain(|s| s.method() != method);
        self
    }

    /// The first solver admitting the query, in priority order.
    pub fn select(
        &self,
        query: &PreparedQuery,
        config: &EngineConfig,
    ) -> Option<&dyn AggregateSolver> {
        self.solvers
            .iter()
            .map(|s| s.as_ref())
            .find(|s| s.admits(query, config))
    }

    /// The solvers in priority order (names are stable bench labels).
    pub fn solvers(&self) -> impl Iterator<Item = &dyn AggregateSolver> {
        self.solvers.iter().map(|s| s.as_ref())
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }
}

impl std::fmt::Debug for AggregateRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.solvers.iter().map(|s| s.name()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_structures::families;

    fn prepared(a: &Structure) -> PreparedQuery {
        PreparedQuery::prepare(a, &EngineConfig::default())
    }

    #[test]
    fn standard_registry_selects_the_counting_tiers() {
        let cfg = EngineConfig::default();
        let registry = AggregateRegistry::standard();
        let cases = [
            (families::star(5), CountMethod::TreeDecompositionDp),
            // P9 cores to an edge; its own treewidth is 1.
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
    fn every_tier_agrees_on_uniform_weights() {
        // Uniform weight w: every homomorphism costs exactly
        // `w · #query-tuples`, so min and max coincide on every tier.
        let registry = AggregateRegistry::standard();
        for a in [families::star(3), families::path(4)] {
            let q = prepared(&a);
            let expected = Some(3 * a.tuple_count() as u64);
            for b in [families::clique(3), families::cycle(6)] {
                let index = StructureIndex::new(&b);
                let weights = TupleWeights::uniform(&b, 3);
                for s in registry.solvers() {
                    for objective in [AggregateObjective::MinCost, AggregateObjective::MaxWeight] {
                        assert_eq!(
                            s.evaluate(&q, &b, &index, &weights, objective),
                            expected,
                            "{} {objective} on {a} -> {b}",
                            s.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_homomorphism_reports_none_on_every_tier() {
        let registry = AggregateRegistry::standard();
        // An odd cycle has no homomorphism into an even one (bipartite).
        let a = families::cycle(3);
        let b = families::cycle(4);
        let q = prepared(&a);
        let index = StructureIndex::new(&b);
        let weights = TupleWeights::uniform(&b, 1);
        for s in registry.solvers() {
            for objective in [AggregateObjective::MinCost, AggregateObjective::MaxWeight] {
                assert_eq!(s.evaluate(&q, &b, &index, &weights, objective), None);
            }
        }
    }

    #[test]
    fn without_removes_a_tier() {
        let cfg = EngineConfig::default();
        let registry = AggregateRegistry::standard().without(CountMethod::TreeDecompositionDp);
        assert_eq!(registry.len(), 1);
        assert!(!registry.is_empty());
        let q = prepared(&families::star(5));
        let s = registry.select(&q, &cfg).expect("fallback admits");
        assert_eq!(s.method(), CountMethod::BruteForce);
        assert!(AggregateRegistry::new(Vec::new()).is_empty());
    }
}
