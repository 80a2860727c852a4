//! Exact tree depth by recursive vertex deletion, with a witnessing
//! elimination forest.
//!
//! The tree depth of a connected graph satisfies the recursion
//! `td(G) = 1 + min_{v} td(G - v)` (with `td` of a single vertex being 1),
//! and for disconnected graphs it is the maximum over the connected
//! components (Section 2.2; the paper defines it through closures of rooted
//! trees of height `h`, which is equivalent — the chosen vertex `v` is the
//! root, the components of `G - v` hang below it).  We memoize on vertex
//! subsets of the input graph, which keeps the computation exact and fast
//! for the parameter-sized structures it is applied to.

use crate::decomposition::EliminationForest;
use cq_graphs::{gaifman_graph, traversal, Graph, Vertex};
use cq_structures::meter::{self, Meter};
use cq_structures::Structure;
use std::collections::HashMap;

/// Largest vertex count for which the exact recursion is attempted.
pub const EXACT_LIMIT: usize = 22;

struct Memo<'a> {
    g: &'a Graph,
    /// Best tree-depth value per vertex subset (bitmask).
    depth: HashMap<u64, usize>,
    /// The root chosen for a *connected* subset (bitmask), for witness
    /// reconstruction.
    root_choice: HashMap<u64, Vertex>,
}

impl<'a> Memo<'a> {
    fn new(g: &'a Graph) -> Self {
        Memo {
            g,
            depth: HashMap::new(),
            root_choice: HashMap::new(),
        }
    }

    fn components(&self, mask: u64) -> Vec<u64> {
        let mut seen = 0u64;
        let mut comps = Vec::new();
        let mut bits = mask;
        while bits != 0 {
            let start = bits.trailing_zeros() as usize;
            if seen >> start & 1 == 1 {
                bits &= bits - 1;
                continue;
            }
            // BFS within the mask.
            let mut comp = 0u64;
            let mut stack = vec![start];
            comp |= 1 << start;
            while let Some(v) = stack.pop() {
                for w in self.g.neighbors(v) {
                    if mask >> w & 1 == 1 && comp >> w & 1 == 0 {
                        comp |= 1 << w;
                        stack.push(w);
                    }
                }
            }
            seen |= comp;
            comps.push(comp);
            bits &= !comp;
        }
        comps
    }

    fn td(&mut self, mask: u64) -> usize {
        if mask == 0 {
            return 0;
        }
        if let Some(&d) = self.depth.get(&mask) {
            return d;
        }
        let comps = self.components(mask);
        let result = if comps.len() > 1 {
            comps.iter().map(|&c| self.td(c)).max().unwrap_or(0)
        } else {
            // Connected: 1 + min over root choices.
            if mask.count_ones() == 1 {
                1
            } else {
                let mut best = usize::MAX;
                let mut best_root = mask.trailing_zeros() as usize;
                let mut bits = mask;
                while bits != 0 {
                    let v = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let rest = mask & !(1u64 << v);
                    let d = 1 + self.td(rest);
                    if d < best {
                        best = d;
                        best_root = v;
                    }
                    // Lower bound: tree depth of a connected graph on m
                    // vertices is at least ceil(log2(m + 1)); stop early when
                    // reached.
                    let m = mask.count_ones() as usize;
                    let lower = (usize::BITS - m.leading_zeros()) as usize;
                    if best <= lower {
                        break;
                    }
                }
                self.root_choice.insert(mask, best_root);
                best
            }
        };
        self.depth.insert(mask, result);
        result
    }

    /// Reconstruct an elimination forest of optimal height for `mask`,
    /// writing parent pointers into `parent` with `root_parent` as the parent
    /// of the roots of this sub-forest.
    fn build_forest(
        &mut self,
        mask: u64,
        root_parent: Option<Vertex>,
        parent: &mut Vec<Option<Vertex>>,
    ) {
        if mask == 0 {
            return;
        }
        let comps = self.components(mask);
        if comps.len() > 1 {
            for c in comps {
                self.build_forest(c, root_parent, parent);
            }
            return;
        }
        if mask.count_ones() == 1 {
            let v = mask.trailing_zeros() as usize;
            parent[v] = root_parent;
            return;
        }
        // Ensure the root choice has been computed.
        self.td(mask);
        let root = *self
            .root_choice
            .get(&mask)
            .expect("root choice recorded for connected subsets");
        parent[root] = root_parent;
        self.build_forest(mask & !(1u64 << root), Some(root), parent);
    }
}

/// Exact tree depth of a graph together with a witnessing elimination forest
/// of exactly that height.
///
/// Panics when the graph has more than [`EXACT_LIMIT`] vertices.
pub fn treedepth_exact(g: &Graph) -> (usize, EliminationForest) {
    meter::record(Meter::TreedepthDp);
    let n = g.vertex_count();
    assert!(
        n <= EXACT_LIMIT,
        "treedepth_exact is exponential; graph has {n} > {EXACT_LIMIT} vertices"
    );
    if n == 0 {
        return (0, EliminationForest { parent: Vec::new() });
    }
    let full: u64 = (1u64 << n) - 1;
    let mut memo = Memo::new(g);
    let depth = memo.td(full);
    let mut parent = vec![None; n];
    memo.build_forest(full, None, &mut parent);
    let forest = EliminationForest { parent };
    debug_assert!(forest.is_valid_for(g));
    debug_assert_eq!(forest.height(), depth);
    (depth, forest)
}

/// A cheap tree-depth *upper bound* from a DFS forest: the height of a
/// depth-first spanning forest is a valid elimination forest height (every
/// non-tree edge of a DFS forest is a back edge, hence joins an
/// ancestor–descendant pair).  Used for large graphs and as a sanity check.
pub fn treedepth_dfs_upper_bound(g: &Graph) -> (usize, EliminationForest) {
    let n = g.vertex_count();
    let mut parent: Vec<Option<Vertex>> = vec![None; n];
    let mut visited = vec![false; n];
    fn dfs(g: &Graph, v: Vertex, visited: &mut [bool], parent: &mut [Option<Vertex>]) {
        visited[v] = true;
        for w in g.neighbors(v) {
            if !visited[w] {
                parent[w] = Some(v);
                dfs(g, w, visited, parent);
            }
        }
    }
    for v in 0..n {
        if !visited[v] {
            dfs(g, v, &mut visited, &mut parent);
        }
    }
    let forest = EliminationForest { parent };
    (forest.height(), forest)
}

/// Tree depth of a structure (of its Gaifman graph), exact.
pub fn treedepth_of_structure(s: &Structure) -> (usize, EliminationForest) {
    treedepth_exact(&gaifman_graph(s))
}

/// The information-theoretic lower bound `td(G) ≥ ⌈log2(ℓ + 1)⌉` where `ℓ`
/// is the number of vertices on a longest simple path of `G` (tree depth is
/// minor-monotone and `td(P_ℓ) = ⌈log2(ℓ+1)⌉`).
pub fn treedepth_path_lower_bound(g: &Graph) -> usize {
    let l = traversal::longest_path_length(g);
    (usize::BITS - l.leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathwidth::pathwidth_exact;
    use cq_graphs::families::*;

    /// td(P_k) = ceil(log2(k + 1)).
    fn expected_path_treedepth(k: usize) -> usize {
        (usize::BITS - k.leading_zeros()) as usize
    }

    #[test]
    fn treedepth_of_paths_grows_logarithmically() {
        // Example 2.2: the class P has unbounded tree depth; specifically
        // td(P_k) = ceil(log2(k+1)).
        let expected = [
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (15, 4),
            (16, 5),
        ];
        for (k, d) in expected {
            assert_eq!(treedepth_exact(&path_graph(k)).0, d, "P_{k}");
            assert_eq!(expected_path_treedepth(k), d);
        }
    }

    #[test]
    fn treedepth_of_small_families() {
        assert_eq!(treedepth_exact(&star_graph(5)).0, 2);
        assert_eq!(treedepth_exact(&complete_graph(4)).0, 4);
        assert_eq!(treedepth_exact(&cycle_graph(3)).0, 3);
        assert_eq!(treedepth_exact(&cycle_graph(4)).0, 3);
        assert_eq!(treedepth_exact(&cycle_graph(7)).0, 4);
        // Complete binary trees: td(T_h) = h + 1.
        assert_eq!(treedepth_exact(&complete_binary_tree(1)).0, 2);
        assert_eq!(treedepth_exact(&complete_binary_tree(2)).0, 3);
        assert_eq!(treedepth_exact(&complete_binary_tree(3)).0, 4);
    }

    #[test]
    fn treedepth_exceeds_pathwidth() {
        // pw(G) <= td(G) - 1 for every graph with an edge.
        for g in [
            path_graph(8),
            cycle_graph(6),
            star_graph(4),
            grid_graph(2, 4),
            complete_binary_tree(3),
        ] {
            assert!(pathwidth_exact(&g).0 < treedepth_exact(&g).0);
        }
    }

    #[test]
    fn witness_forest_is_valid_and_tight() {
        for g in [
            path_graph(7),
            cycle_graph(5),
            grid_graph(2, 3),
            caterpillar_graph(3, 2),
            complete_bipartite_graph(2, 3),
        ] {
            let (d, forest) = treedepth_exact(&g);
            assert!(forest.is_valid_for(&g));
            assert_eq!(forest.height(), d);
        }
    }

    #[test]
    fn disconnected_graph_takes_component_maximum() {
        // P_2 ∪ P_7: td = max(2, 3) = 3.
        let mut g = Graph::new(9);
        g.add_edge(0, 1);
        for i in 2..8 {
            g.add_edge(i, i + 1);
        }
        let (d, forest) = treedepth_exact(&g);
        assert_eq!(d, 3);
        assert!(forest.is_valid_for(&g));
        assert!(forest.roots().len() >= 2);
    }

    #[test]
    fn dfs_upper_bound_is_an_upper_bound() {
        for g in [path_graph(8), cycle_graph(6), grid_graph(3, 3)] {
            let (exact, _) = treedepth_exact(&g);
            let (ub, forest) = treedepth_dfs_upper_bound(&g);
            assert!(forest.is_valid_for(&g));
            assert!(ub >= exact);
        }
    }

    #[test]
    fn path_lower_bound_holds() {
        for g in [path_graph(8), complete_binary_tree(3), grid_graph(2, 4)] {
            assert!(treedepth_path_lower_bound(&g) <= treedepth_exact(&g).0);
        }
    }

    #[test]
    fn edgeless_and_empty() {
        assert_eq!(treedepth_exact(&Graph::new(4)).0, 1);
        assert_eq!(treedepth_exact(&Graph::new(0)).0, 0);
    }

    #[test]
    fn structure_treedepth_of_star_query() {
        let s = cq_structures::families::star(6);
        assert_eq!(treedepth_of_structure(&s).0, 2);
    }

    #[test]
    #[should_panic]
    fn exact_rejects_oversized_graphs() {
        let _ = treedepth_exact(&grid_graph(5, 5));
    }
}
