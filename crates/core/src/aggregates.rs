//! Weighted aggregates — the semiring generalization of
//! [`crate::counting`].
//!
//! The kernel's DPs are one sum-of-products generic over a
//! [`Semiring`](cq_solver::Semiring); instantiated at
//! [`MinCostSemiring`](cq_solver::MinCostSemiring) /
//! [`MaxWeightSemiring`](cq_solver::MaxWeightSemiring) they compute the
//! cheapest (resp. heaviest) homomorphism under a per-tuple
//! [`TupleWeights`](cq_structures::TupleWeights) table instead of the
//! number of homomorphisms.  The structural licences are **identical** to
//! counting's — aggregates, like counts, are not invariant under taking
//! cores (a core collapses distinct homomorphisms that may have distinct
//! costs), so [`crate::Engine::aggregate`] picks its tier with
//! [`CountMethod::for_widths`] on the original query's widths and runs on
//! the original structure with the counting certificates, reusing the
//! counting role's compiled tree and search programs: a compiled program
//! is semiring-agnostic, only the run differs.
//!
//! The weighted forest sum–product stays in the kernel as the Theorem
//! 6.1 (3) reference (`ForestProgram::eval`, measured by E20),
//! not as a tier.

use crate::counting::CountMethod;
use crate::Degree;
use cq_decomp::WidthProfile;

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
    /// [`CountMethod::for_widths`] keyed on).
    pub widths: WidthProfile,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig, PreparedQuery};
    use cq_structures::{families, Structure, StructureIndex, TupleWeights};

    const TIERS: [CountMethod; 3] = [
        CountMethod::ForestSumProduct,
        CountMethod::TreeDecompositionDp,
        CountMethod::BruteForce,
    ];

    fn prepared(a: &Structure) -> PreparedQuery {
        PreparedQuery::prepare(a, &EngineConfig::default())
    }

    #[test]
    fn standard_registry_selects_the_counting_tiers() {
        let engine = Engine::new(EngineConfig::default());
        let cases = [
            (families::star(5), CountMethod::TreeDecompositionDp),
            // P9 cores to an edge; its own treewidth is 1.
            (families::path(9), CountMethod::TreeDecompositionDp),
            (families::clique(5), CountMethod::BruteForce),
        ];
        let b = families::clique(3);
        let weights = TupleWeights::uniform(&b, 1);
        for (a, expected) in cases {
            let report = engine.aggregate(&a, &b, &weights, AggregateObjective::MinCost);
            assert_eq!(report.method, expected, "{a}");
        }
    }

    #[test]
    fn every_tier_agrees_on_uniform_weights() {
        // Uniform weight w: every homomorphism costs exactly
        // `w · #query-tuples`, so min and max coincide on every tier.
        for a in [families::star(3), families::path(4)] {
            let q = prepared(&a);
            let expected = Some(3 * a.tuple_count() as u64);
            for b in [families::clique(3), families::cycle(6)] {
                let index = StructureIndex::new(&b);
                let weights = TupleWeights::uniform(&b, 3);
                for method in TIERS {
                    for objective in [AggregateObjective::MinCost, AggregateObjective::MaxWeight] {
                        assert_eq!(
                            q.aggregate(method, &index, &weights, objective),
                            expected,
                            "{method:?} {objective} on {a} -> {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_homomorphism_reports_none_on_every_tier() {
        // An odd cycle has no homomorphism into an even one (bipartite).
        let a = families::cycle(3);
        let b = families::cycle(4);
        let q = prepared(&a);
        let index = StructureIndex::new(&b);
        let weights = TupleWeights::uniform(&b, 1);
        for method in TIERS {
            for objective in [AggregateObjective::MinCost, AggregateObjective::MaxWeight] {
                assert_eq!(q.aggregate(method, &index, &weights, objective), None);
            }
        }
    }
}
