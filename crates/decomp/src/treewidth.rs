//! Exact treewidth by dynamic programming over vertex subsets.
//!
//! Treewidth equals the minimum over elimination orderings of the maximum
//! number of *higher neighbours* encountered during elimination.  The
//! Bodlaender–Fomin–Koster–Kratsch–Thilikos subset DP computes this minimum
//! in `O*(2^n)`:
//!
//! `TW(S) = min_{v ∈ S} max( TW(S \ {v}), |Q(S \ {v}, v)| )`, `TW(∅) = 0`,
//!
//! where `Q(S, v)` is the set of vertices `w ∉ S ∪ {v}` reachable from `v`
//! in `G[S ∪ {v, w}]` — exactly the higher neighbours `v` would have if the
//! vertices of `S` were eliminated before it.  `TW(V)` is the treewidth and
//! the argmin choices recover an optimal elimination ordering, from which
//! [`crate::heuristics::decomposition_from_order`] builds an optimal tree
//! decomposition.
//!
//! The DP is exponential in the number of vertices; it is intended for the
//! parameter-sized query structures of `p-HOM` instances (the paper's
//! reductions likewise spend time effectively bounded in the parameter to
//! find decompositions, cf. Lemma 3.4).  [`EXACT_LIMIT`] guards the subset
//! enumeration; larger graphs fall back to the heuristic upper bound with a
//! clear warning in the return type of [`treewidth`].

use crate::decomposition::TreeDecomposition;
use crate::heuristics;
use cq_graphs::{gaifman_graph, Graph, Vertex};
use cq_structures::meter::{self, Meter};
use cq_structures::Structure;

/// Largest vertex count for which the exact subset DP is attempted.
pub const EXACT_LIMIT: usize = 22;

/// `Q(S, v)`: the number (and set) of vertices `w ∉ S ∪ {v}` reachable from
/// `v` in `G[S ∪ {v, w}]` — i.e. reachable from `v` through interior
/// vertices drawn only from `S`.
fn q_set(g: &Graph, s: u64, v: Vertex) -> Vec<Vertex> {
    let n = g.vertex_count();
    let mut reached_in_s = vec![false; n];
    let mut out = Vec::new();
    let mut out_mark = vec![false; n];
    let mut stack = vec![v];
    let mut visited_v = vec![false; n];
    visited_v[v] = true;
    while let Some(u) = stack.pop() {
        for w in g.neighbors(u) {
            if w == v {
                continue;
            }
            if s >> w & 1 == 1 {
                if !reached_in_s[w] {
                    reached_in_s[w] = true;
                    visited_v[w] = true;
                    stack.push(w);
                }
            } else if !out_mark[w] {
                out_mark[w] = true;
                out.push(w);
            }
        }
    }
    out
}

/// Exact treewidth of a graph together with an optimal tree decomposition.
///
/// Panics when the graph has more than [`EXACT_LIMIT`] vertices — callers
/// that may receive large graphs should use [`treewidth`] instead.
pub fn treewidth_exact(g: &Graph) -> (usize, TreeDecomposition) {
    meter::record(Meter::TreewidthDp);
    let n = g.vertex_count();
    assert!(
        n <= EXACT_LIMIT,
        "treewidth_exact is exponential; graph has {n} > {EXACT_LIMIT} vertices"
    );
    if n == 0 {
        return (0, TreeDecomposition::trivial(g));
    }
    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let size = 1usize << n;
    // dp[s] = optimal max-cost of eliminating exactly the vertices of s first.
    let mut dp = vec![u32::MAX; size];
    let mut choice: Vec<u8> = vec![u8::MAX; size];
    dp[0] = 0;
    // Iterate subsets in increasing popcount order by plain increasing value:
    // any s > 0 has all its (s \ {v}) strictly smaller, so increasing value
    // order is a valid evaluation order.
    for s in 1..=full {
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
            let cost = q_set(g, prev, v).len() as u32;
            let val = sub.max(cost);
            if val < best {
                best = val;
                best_v = v as u8;
            }
        }
        dp[s as usize] = best;
        choice[s as usize] = best_v;
    }
    let width = dp[full as usize] as usize;
    // Recover the elimination ordering: choice[s] is the vertex eliminated
    // *last* among s.
    let mut order_rev = Vec::with_capacity(n);
    let mut s = full;
    while s != 0 {
        let v = choice[s as usize] as usize;
        order_rev.push(v);
        s &= !(1u64 << v);
    }
    order_rev.reverse();
    let td = heuristics::decomposition_from_order(g, &order_rev);
    debug_assert!(td.is_valid_for(g));
    debug_assert_eq!(td.width(), width);
    (width, td)
}

/// Treewidth with a graceful fallback: exact when the graph has at most
/// [`EXACT_LIMIT`] vertices, otherwise the heuristic upper bound.  The
/// boolean in the result is `true` when the value is exact.
pub fn treewidth(g: &Graph) -> (usize, TreeDecomposition, bool) {
    if g.vertex_count() <= EXACT_LIMIT {
        let (w, td) = treewidth_exact(g);
        (w, td, true)
    } else {
        let (w, td) = heuristics::treewidth_upper_bound(g);
        (w, td, false)
    }
}

/// Treewidth of a structure (the treewidth of its Gaifman graph,
/// Section 2.2), exact.
pub fn treewidth_of_structure(s: &Structure) -> (usize, TreeDecomposition) {
    treewidth_exact(&gaifman_graph(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_graphs::families::*;

    #[test]
    fn treewidth_of_basic_families() {
        assert_eq!(treewidth_exact(&path_graph(1)).0, 0);
        assert_eq!(treewidth_exact(&path_graph(6)).0, 1);
        assert_eq!(treewidth_exact(&star_graph(5)).0, 1);
        assert_eq!(treewidth_exact(&complete_binary_tree(3)).0, 1);
        assert_eq!(treewidth_exact(&cycle_graph(5)).0, 2);
        assert_eq!(treewidth_exact(&cycle_graph(8)).0, 2);
        assert_eq!(treewidth_exact(&complete_graph(4)).0, 3);
        assert_eq!(treewidth_exact(&complete_graph(6)).0, 5);
    }

    #[test]
    fn treewidth_of_grids() {
        // tw of the k x m grid (k <= m) is k (for k >= 2).
        assert_eq!(treewidth_exact(&grid_graph(2, 2)).0, 2);
        assert_eq!(treewidth_exact(&grid_graph(2, 4)).0, 2);
        assert_eq!(treewidth_exact(&grid_graph(3, 3)).0, 3);
        assert_eq!(treewidth_exact(&grid_graph(1, 6)).0, 1);
    }

    #[test]
    fn treewidth_of_complete_bipartite() {
        // tw(K_{m,n}) = min(m, n) for m, n >= 1.
        assert_eq!(treewidth_exact(&complete_bipartite_graph(2, 3)).0, 2);
        assert_eq!(treewidth_exact(&complete_bipartite_graph(3, 3)).0, 3);
        assert_eq!(treewidth_exact(&complete_bipartite_graph(1, 4)).0, 1);
    }

    #[test]
    fn decomposition_is_valid_and_optimal_width() {
        for g in [
            cycle_graph(6),
            grid_graph(2, 3),
            caterpillar_graph(4, 2),
            complete_bipartite_graph(2, 4),
        ] {
            let (w, td) = treewidth_exact(&g);
            assert!(td.is_valid_for(&g));
            assert_eq!(td.width(), w);
        }
    }

    #[test]
    fn edgeless_graph_has_treewidth_0() {
        let g = Graph::new(5);
        let (w, td) = treewidth_exact(&g);
        assert_eq!(w, 0);
        assert!(td.is_valid_for(&g));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(treewidth_exact(&g).0, 0);
    }

    #[test]
    fn structure_treewidth_bk_is_1() {
        // Example 2.2: the class B has bounded treewidth (the Gaifman graph
        // of B_k is the tree T_k).
        for k in 0..=3 {
            let b = cq_structures::families::binary_tree_b(k);
            let expected = if k == 0 { 0 } else { 1 };
            assert_eq!(treewidth_of_structure(&b).0, expected);
        }
    }

    #[test]
    fn fallback_flag_for_large_graphs() {
        let g = grid_graph(5, 5); // 25 vertices > EXACT_LIMIT
        let (w, td, exact) = treewidth(&g);
        assert!(!exact);
        assert!(td.is_valid_for(&g));
        assert!(w >= 5); // heuristic upper bound can exceed the true value 5
        let small = grid_graph(2, 2);
        let (w2, _, exact2) = treewidth(&small);
        assert!(exact2);
        assert_eq!(w2, 2);
    }

    #[test]
    #[should_panic]
    fn exact_rejects_oversized_graphs() {
        let _ = treewidth_exact(&grid_graph(5, 5));
    }

    #[test]
    fn treewidth_monotone_under_minors_spot_check() {
        // tw is minor-monotone; deleting a vertex or contracting an edge
        // never increases it.
        let g = grid_graph(2, 3);
        let (w, _) = treewidth_exact(&g);
        let d = g.delete_vertex(0);
        assert!(treewidth_exact(&d).0 <= w);
        let c = g.contract_edge(0, 1);
        assert!(treewidth_exact(&c).0 <= w);
    }
}
