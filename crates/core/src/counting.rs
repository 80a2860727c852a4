//! Counting through the prepared path — the counting half of the
//! classification (Theorem 6.1).
//!
//! Theorem 6.1 classifies `p-#HOM(A)` by the widths of the class members
//! **themselves**: counting is not invariant under taking cores (a query
//! and its proper core have equal decision answers but different counts),
//! so unlike the decision tiers of [`crate::SolverChoice`] — which key on
//! the core's widths — [`CountMethod::admits`] keys on
//! [`PreparedQuery::counting_widths`](crate::PreparedQuery::counting_widths),
//! the width profile of the query exactly as submitted, and
//! [`PreparedQuery::count`](crate::PreparedQuery::count) runs on the
//! original structure with the original-structure certificates.
//!
//! The engine counts through two tiers ([`CountMethod::for_widths`]):
//!
//! 1. [`CountMethod::TreeDecompositionDp`] — the extension-counting DP
//!    over the tree decomposition (the tractable tier of the counting
//!    classification, bounded treewidth).  It covers every query the
//!    forest tier admits (tree depth bounds treewidth), and on a
//!    delta-maintained index its retained tables answer an unchanged
//!    version without bag work;
//! 2. [`CountMethod::BruteForce`] — exhaustive enumeration, admitting
//!    every query.
//!
//! [`CountMethod::ForestSumProduct`] — the sum–product recursion over the
//! elimination forest (Theorem 6.1 (3), bounded tree depth) — is not
//! dispatched: it is the reference for the theorem's space bound, measured
//! by the E16/E20 benches and compared against brute force by the counting
//! oracle.

use crate::engine::EngineConfig;
use crate::Degree;
use cq_decomp::WidthProfile;
use cq_solver::Nat;

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

impl CountMethod {
    /// Whether this tier's structural licence covers a query whose
    /// **original** structure has the given width profile under `config`'s
    /// thresholds.
    pub fn admits(self, widths: WidthProfile, config: &EngineConfig) -> bool {
        match self {
            CountMethod::ForestSumProduct => widths.treedepth <= config.treedepth_threshold,
            CountMethod::TreeDecompositionDp => widths.treewidth <= config.treewidth_threshold,
            CountMethod::BruteForce => true,
        }
    }

    /// The tier the engine counts (and aggregates) through: the tree DP
    /// within the treewidth threshold, brute force otherwise.
    pub fn for_widths(widths: WidthProfile, config: &EngineConfig) -> CountMethod {
        if CountMethod::TreeDecompositionDp.admits(widths, config) {
            CountMethod::TreeDecompositionDp
        } else {
            CountMethod::BruteForce
        }
    }
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
/// determinism tests assert that [`crate::Engine::batch`] under any worker
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
    /// [`CountMethod::for_widths`] keyed on).
    pub widths: WidthProfile,
    /// Universe size of the counted (original) query.
    pub counted_query_size: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, PreparedQuery};
    use cq_structures::{count_homomorphisms_bruteforce, families, Structure, StructureIndex};

    fn prepared(a: &Structure) -> PreparedQuery {
        PreparedQuery::prepare(a, &EngineConfig::default())
    }

    #[test]
    fn standard_registry_selects_in_priority_order() {
        let cfg = EngineConfig::default();
        let cases = [
            (families::star(5), CountMethod::TreeDecompositionDp),
            // P9 cores to an edge, but counting keys on the original: its
            // treewidth is 1.
            (families::path(9), CountMethod::TreeDecompositionDp),
            (families::clique(5), CountMethod::BruteForce),
        ];
        for (a, expected) in cases {
            let q = prepared(&a);
            let method = CountMethod::for_widths(q.counting_widths(), &cfg);
            assert_eq!(method, expected, "{a}");
        }
    }

    #[test]
    fn all_registry_solvers_agree_with_the_reference() {
        // Queries every tier admits, including one with a proper core
        // (P4): the counts must be those of the original structure.
        for a in [families::star(3), families::path(4)] {
            let q = prepared(&a);
            for b in [families::clique(3), families::cycle(6), families::path(4)] {
                let expected = count_homomorphisms_bruteforce(&a, &b);
                let index = StructureIndex::new(&b);
                for method in [
                    CountMethod::ForestSumProduct,
                    CountMethod::TreeDecompositionDp,
                    CountMethod::BruteForce,
                ] {
                    assert!(method.admits(q.counting_widths(), &EngineConfig::default()));
                    assert_eq!(
                        q.count(method, &b, &index),
                        expected,
                        "{method:?} on {a} -> {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn count_instance_wrapper_counts_the_original() {
        // #hom(P4, K3) = 3·2·2·2 = 24, even though the decision path
        // evaluates the core K2 (#hom(K2, K3) = 6).
        let report = Engine::new(EngineConfig::default())
            .count_instance(&families::path(4), &families::clique(3));
        assert_eq!(report.count, 24);
        assert_eq!(report.counted_query_size, 4);
        assert_eq!(report.widths.treewidth, 1);
    }
}
