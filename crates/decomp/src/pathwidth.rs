//! Exact pathwidth through the vertex separation number.
//!
//! The pathwidth of a graph equals its *vertex separation number*: the
//! minimum over linear layouts `v_1, …, v_n` of the maximum, over prefixes
//! `P_i = {v_1, …, v_i}`, of the number of vertices in `P_i` that still have
//! a neighbour outside `P_i`.  A subset DP computes the optimum in
//! `O*(2^n)`:
//!
//! `VS(S) = min_{v ∈ S} max( VS(S \ {v}), boundary(S) )`, `VS(∅) = 0`,
//!
//! where `boundary(S)` is the number of vertices of `S` with a neighbour
//! outside `S`.  From the optimal layout we construct an optimal path
//! decomposition: `X_i = {v_i} ∪ {u ∈ P_{i-1} : u has a neighbour outside
//! P_{i-1}}`.
//!
//! As with treewidth, the DP is exponential and meant for parameter-sized
//! query structures; [`EXACT_LIMIT`] guards it.

use crate::decomposition::PathDecomposition;
use cq_graphs::{gaifman_graph, Graph, Vertex};
use cq_structures::meter::{self, Meter};
use cq_structures::Structure;
use std::collections::BTreeSet;

/// Largest vertex count for which the exact subset DP is attempted.
pub const EXACT_LIMIT: usize = 22;

/// Number of vertices of `S` (bitmask) with a neighbour outside `S`.
fn boundary_size(g: &Graph, s: u64) -> u32 {
    let mut count = 0;
    let mut bits = s;
    while bits != 0 {
        let v = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        if g.neighbors(v).any(|w| s >> w & 1 == 0) {
            count += 1;
        }
    }
    count
}

/// Exact pathwidth of a graph together with an optimal path decomposition.
///
/// Panics when the graph has more than [`EXACT_LIMIT`] vertices.
pub fn pathwidth_exact(g: &Graph) -> (usize, PathDecomposition) {
    meter::record(Meter::PathwidthDp);
    let n = g.vertex_count();
    assert!(
        n <= EXACT_LIMIT,
        "pathwidth_exact is exponential; graph has {n} > {EXACT_LIMIT} vertices"
    );
    if n == 0 {
        return (
            0,
            PathDecomposition {
                bags: vec![BTreeSet::new()],
            },
        );
    }
    let full: u64 = (1u64 << n) - 1;
    let size = 1usize << n;
    let mut dp = vec![u32::MAX; size];
    let mut choice: Vec<u8> = vec![u8::MAX; size];
    dp[0] = 0;
    // Pre-compute boundary sizes lazily inside the loop (each costs O(n·deg)).
    for s in 1..=full {
        let b = boundary_size(g, s);
        let mut best = u32::MAX;
        let mut best_v = u8::MAX;
        let mut bits = s;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let prev = s & !(1u64 << v);
            let sub = dp[prev as usize];
            if sub == u32::MAX {
                continue;
            }
            let val = sub.max(b);
            if val < best {
                best = val;
                best_v = v as u8;
            }
        }
        dp[s as usize] = best;
        choice[s as usize] = best_v;
    }
    let width = dp[full as usize] as usize;
    // Recover the layout: choice[s] is the *last* vertex of the prefix s.
    let mut layout_rev = Vec::with_capacity(n);
    let mut s = full;
    while s != 0 {
        let v = choice[s as usize] as usize;
        layout_rev.push(v);
        s &= !(1u64 << v);
    }
    layout_rev.reverse();
    let pd = decomposition_from_layout(g, &layout_rev);
    debug_assert!(pd.is_valid_for(g));
    debug_assert_eq!(pd.width(), width);
    (width, pd)
}

/// Build the path decomposition induced by a linear layout:
/// `X_i = {v_i} ∪ {u earlier in the layout with a neighbour at or after i}`.
pub fn decomposition_from_layout(g: &Graph, layout: &[Vertex]) -> PathDecomposition {
    let n = g.vertex_count();
    assert_eq!(layout.len(), n);
    if n == 0 {
        return PathDecomposition {
            bags: vec![BTreeSet::new()],
        };
    }
    let mut position = vec![0usize; n];
    for (i, &v) in layout.iter().enumerate() {
        position[v] = i;
    }
    let mut bags = Vec::with_capacity(n);
    for (i, &v) in layout.iter().enumerate() {
        let mut bag: BTreeSet<Vertex> = [v].into_iter().collect();
        for &u in layout.iter().take(i) {
            if g.neighbors(u).any(|w| position[w] >= i) {
                bag.insert(u);
            }
        }
        bags.push(bag);
    }
    PathDecomposition { bags }
}

/// The width achieved by a particular layout (an upper bound on pathwidth).
pub fn width_of_layout(g: &Graph, layout: &[Vertex]) -> usize {
    decomposition_from_layout(g, layout).width()
}

/// Pathwidth of a structure (of its Gaifman graph), exact.
pub fn pathwidth_of_structure(s: &Structure) -> (usize, PathDecomposition) {
    pathwidth_exact(&gaifman_graph(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treewidth::treewidth_exact;
    use cq_graphs::families::*;

    #[test]
    fn pathwidth_of_paths_is_1() {
        // Example 2.2: the class P of paths has bounded pathwidth (pw = 1).
        for k in 2..=8 {
            assert_eq!(pathwidth_exact(&path_graph(k)).0, 1, "P_{k}");
        }
        assert_eq!(pathwidth_exact(&path_graph(1)).0, 0);
    }

    #[test]
    fn pathwidth_of_cycles_is_2() {
        for k in 3..=7 {
            assert_eq!(pathwidth_exact(&cycle_graph(k)).0, 2, "C_{k}");
        }
    }

    #[test]
    fn pathwidth_of_stars_and_caterpillars_is_1() {
        assert_eq!(pathwidth_exact(&star_graph(6)).0, 1);
        assert_eq!(pathwidth_exact(&caterpillar_graph(4, 2)).0, 1);
    }

    #[test]
    fn pathwidth_of_complete_binary_trees_grows() {
        // pw(T_h) = ceil(h / 2): T_1 -> 1, T_2 -> 1, T_3 -> 2.
        // (Example 2.2: B has unbounded pathwidth.)
        assert_eq!(pathwidth_exact(&complete_binary_tree(1)).0, 1);
        assert_eq!(pathwidth_exact(&complete_binary_tree(2)).0, 1);
        assert_eq!(pathwidth_exact(&complete_binary_tree(3)).0, 2);
    }

    #[test]
    fn pathwidth_of_cliques_and_grids() {
        assert_eq!(pathwidth_exact(&complete_graph(5)).0, 4);
        assert_eq!(pathwidth_exact(&grid_graph(2, 3)).0, 2);
        assert_eq!(pathwidth_exact(&grid_graph(3, 3)).0, 3);
        assert_eq!(pathwidth_exact(&grid_graph(1, 5)).0, 1);
    }

    #[test]
    fn pathwidth_at_least_treewidth() {
        for g in [
            path_graph(6),
            cycle_graph(6),
            star_graph(4),
            grid_graph(2, 4),
            complete_binary_tree(3),
            caterpillar_graph(3, 3),
        ] {
            assert!(pathwidth_exact(&g).0 >= treewidth_exact(&g).0);
        }
    }

    #[test]
    fn decomposition_is_valid_and_matches_width() {
        for g in [
            path_graph(7),
            cycle_graph(5),
            complete_binary_tree(3),
            grid_graph(2, 4),
        ] {
            let (w, pd) = pathwidth_exact(&g);
            assert!(pd.is_valid_for(&g));
            assert_eq!(pd.width(), w);
            // The staircase normal form keeps validity and width.
            let stair = pd.normalize_staircase();
            assert!(stair.is_valid_for(&g));
            assert!(stair.is_staircase());
            assert!(stair.width() <= w + 1);
        }
    }

    #[test]
    fn layout_width_upper_bounds_pathwidth() {
        let g = cycle_graph(6);
        let natural: Vec<Vertex> = (0..6).collect();
        assert!(width_of_layout(&g, &natural) >= pathwidth_exact(&g).0);
    }

    #[test]
    fn edgeless_and_empty_graphs() {
        assert_eq!(pathwidth_exact(&Graph::new(4)).0, 0);
        assert_eq!(pathwidth_exact(&Graph::new(0)).0, 0);
    }

    #[test]
    fn structure_pathwidth_of_directed_path_is_1() {
        let p = cq_structures::families::directed_path(6);
        assert_eq!(pathwidth_of_structure(&p).0, 1);
    }

    #[test]
    #[should_panic]
    fn exact_rejects_oversized_graphs() {
        let _ = pathwidth_exact(&grid_graph(5, 5));
    }
}
