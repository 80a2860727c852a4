//! # cq-decomp
//!
//! Tree decompositions, path decompositions, elimination forests, and the
//! three width measures that drive the paper's classification: **treewidth**,
//! **pathwidth** and **tree depth** (Section 2.2).
//!
//! The classification of Theorem 3.1 distinguishes three degrees by whether
//! the cores of a class have bounded treewidth (hypothesis), bounded
//! pathwidth (degree `PATH` vs. `TREE`) and bounded tree depth (degree
//! `para-L` vs. `PATH`).  Everything in this crate is *exact* for the
//! parameter-sized structures appearing on the left-hand side of `p-HOM`
//! instances:
//!
//! * [`treewidth::treewidth_exact`] — exact treewidth by dynamic programming
//!   over vertex subsets, with an optimal tree decomposition;
//! * [`pathwidth::pathwidth_exact`] — exact pathwidth through the vertex
//!   separation number, with an optimal path decomposition;
//! * [`treedepth::treedepth_exact`] — exact tree depth by recursive vertex
//!   deletion with memoization, with a witnessing elimination forest;
//! * [`decomposition`] — the decomposition data types, their validity
//!   checkers (the three conditions of Section 2.2), and normal forms used
//!   by the reductions and solvers (e.g. path decompositions in which
//!   consecutive bags differ by a single insertion or deletion, as required
//!   by the `PATH` membership algorithm of Theorem 4.6);
//! * [`heuristics`] — min-degree / min-fill elimination orderings giving
//!   treewidth upper bounds for larger graphs (used only by workload
//!   generators, never by the classification of parameter-sized queries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod decomposition;
pub mod heuristics;
pub mod pathwidth;
pub mod treedepth;
pub mod treewidth;

pub use decomposition::{EliminationForest, PathDecomposition, TreeDecomposition};
pub use heuristics::{min_degree_ordering, min_fill_ordering, treewidth_upper_bound};
pub use pathwidth::{pathwidth_exact, pathwidth_of_structure};
pub use treedepth::{treedepth_exact, treedepth_of_structure};
pub use treewidth::{treewidth_exact, treewidth_of_structure};

use cq_graphs::Graph;

/// The three width measures of one graph, computed exactly.  Convenience
/// bundle used by the classification engine and the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthProfile {
    /// Treewidth `tw(G)`.
    pub treewidth: usize,
    /// Pathwidth `pw(G)`.
    pub pathwidth: usize,
    /// Tree depth `td(G)`.
    pub treedepth: usize,
}

/// Compute all three width measures of a graph exactly.
///
/// Callers that also need the witnessing decompositions should use
/// [`analyze`] instead, which computes widths *and* certificates in a single
/// pass — calling `width_profile` and then the individual exact functions
/// runs the exponential subset DPs twice.
pub fn width_profile(g: &Graph) -> WidthProfile {
    analyze(g).widths
}

/// The complete structural analysis of one graph: the three exact width
/// measures **together with the certificates** the width computations
/// produce — the optimal tree decomposition, the optimal path decomposition
/// and a minimum-height elimination forest.
///
/// This is the unit of work the prepared-query engine computes once per
/// query and then reuses across every database the query is evaluated
/// against; the solvers consume the certificates directly, so no width
/// computation ever runs twice for the same prepared query (asserted by the
/// regression tests through [`cq_structures::meter`], which every exact
/// width function records into).
#[derive(Debug, Clone)]
pub struct StructuralAnalysis {
    /// The three width measures.
    pub widths: WidthProfile,
    /// Optimal tree decomposition (width `widths.treewidth`).
    pub tree_decomposition: TreeDecomposition,
    /// Optimal path decomposition (width `widths.pathwidth`).
    pub path_decomposition: PathDecomposition,
    /// Elimination forest of minimum height (`widths.treedepth`).
    pub elimination_forest: EliminationForest,
}

/// Analyse a graph exactly, returning widths **with** their certificates.
///
/// Runs each exponential width DP exactly once; the invariant
/// `tw ≤ pw ≤ td - 1` (for graphs with an edge) holds between the returned
/// widths, and each certificate is valid for `g` with width/height equal to
/// the corresponding measure.
pub fn analyze(g: &Graph) -> StructuralAnalysis {
    let (treewidth, tree_decomposition) = treewidth::treewidth_exact(g);
    let (pathwidth, path_decomposition) = pathwidth::pathwidth_exact(g);
    let (treedepth, elimination_forest) = treedepth::treedepth_exact(g);
    StructuralAnalysis {
        widths: WidthProfile {
            treewidth,
            pathwidth,
            treedepth,
        },
        tree_decomposition,
        path_decomposition,
        elimination_forest,
    }
}

/// Analyse the Gaifman graph of a structure (see [`analyze`]).
pub fn analyze_structure(s: &cq_structures::Structure) -> StructuralAnalysis {
    analyze(&cq_graphs::gaifman_graph(s))
}

/// Compute all three width measures of the Gaifman graph of a structure.
pub fn width_profile_of_structure(s: &cq_structures::Structure) -> WidthProfile {
    width_profile(&cq_graphs::gaifman_graph(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_graphs::families::*;
    use cq_structures::meter::{self, Meter};

    #[test]
    fn width_profile_orders_correctly() {
        // tw <= pw <= td - 1 always holds.
        for g in [
            path_graph(6),
            cycle_graph(5),
            star_graph(4),
            grid_graph(2, 3),
            complete_binary_tree(3),
        ] {
            let p = width_profile(&g);
            assert!(p.treewidth <= p.pathwidth);
            assert!(p.pathwidth < p.treedepth || g.edge_count() == 0);
        }
    }

    #[test]
    fn width_profile_of_structure_matches_graph() {
        let s = cq_structures::families::grid(2, 3);
        let g = grid_graph(2, 3);
        assert_eq!(width_profile_of_structure(&s), width_profile(&g));
    }

    #[test]
    fn analyze_carries_matching_certificates() {
        for g in [
            path_graph(6),
            cycle_graph(5),
            star_graph(4),
            grid_graph(2, 3),
            complete_binary_tree(3),
        ] {
            let a = analyze(&g);
            assert!(a.tree_decomposition.is_valid_for(&g));
            assert_eq!(a.tree_decomposition.width(), a.widths.treewidth);
            assert!(a.path_decomposition.is_valid_for(&g));
            assert_eq!(a.path_decomposition.width(), a.widths.pathwidth);
            assert!(a.elimination_forest.is_valid_for(&g));
            assert_eq!(a.elimination_forest.height(), a.widths.treedepth);
        }
    }

    #[test]
    fn analyze_runs_each_width_dp_exactly_once() {
        let g = cycle_graph(6);
        let before = meter::thread();
        let _ = analyze(&g);
        let delta = meter::thread().since(&before);
        assert_eq!(delta[Meter::TreewidthDp], 1);
        assert_eq!(delta[Meter::PathwidthDp], 1);
        assert_eq!(delta[Meter::TreedepthDp], 1);
    }
}
