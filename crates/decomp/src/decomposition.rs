//! Decomposition data types and their validity checkers.
//!
//! A *tree decomposition* of a graph `G` is a tree `T` together with bags
//! `X_t ⊆ G` for `t ∈ T` such that (i) every vertex occurs in some bag,
//! (ii) every edge is contained in some bag, and (iii) for every vertex the
//! set of bags containing it induces a connected subtree of `T`
//! (Section 2.2).  A *path decomposition* is the special case where `T` is a
//! path.  The *elimination forest* is the witness object for tree depth: a
//! rooted forest on the vertices of `G` such that every edge of `G` joins an
//! ancestor–descendant pair; its height (number of vertices on a longest
//! root-to-leaf path) is the tree depth.

use cq_graphs::{traversal, Graph, Vertex};
use std::collections::BTreeSet;

/// A tree decomposition: a tree on bag indices plus one bag per tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeDecomposition {
    /// The decomposition tree (vertices are bag indices).
    pub tree: Graph,
    /// The bags, indexed by tree vertex.
    pub bags: Vec<BTreeSet<Vertex>>,
}

impl TreeDecomposition {
    /// A decomposition with a single bag containing all vertices of the
    /// graph — always valid, width `n - 1`.
    pub fn trivial(g: &Graph) -> Self {
        TreeDecomposition {
            tree: Graph::new(1),
            bags: vec![g.vertices().collect()],
        }
    }

    /// The width: maximum bag size minus one.
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(1)
            .saturating_sub(1)
    }

    /// Number of bags.
    pub fn bag_count(&self) -> usize {
        self.bags.len()
    }

    /// Validity check against a graph: the three conditions of Section 2.2.
    pub fn is_valid_for(&self, g: &Graph) -> bool {
        if self.bags.len() != self.tree.vertex_count() || self.bags.is_empty() {
            return false;
        }
        if !traversal::is_tree(&self.tree) {
            return false;
        }
        // (i) vertex coverage
        let mut covered = vec![false; g.vertex_count()];
        for bag in &self.bags {
            for &v in bag {
                if v >= g.vertex_count() {
                    return false;
                }
                covered[v] = true;
            }
        }
        if covered.iter().any(|&c| !c) {
            return false;
        }
        // (ii) edge coverage
        for (a, b) in g.edges() {
            if !self
                .bags
                .iter()
                .any(|bag| bag.contains(&a) && bag.contains(&b))
            {
                return false;
            }
        }
        // (iii) connectivity of occurrence: for every vertex, the set of bags
        // containing it induces a connected subtree.
        for v in g.vertices() {
            let holding: BTreeSet<usize> = self
                .bags
                .iter()
                .enumerate()
                .filter(|(_, bag)| bag.contains(&v))
                .map(|(i, _)| i)
                .collect();
            if holding.is_empty() {
                return false;
            }
            let (sub, _) = self.tree.induced_subgraph(&holding);
            if traversal::connected_components(&sub).len() != 1 {
                return false;
            }
        }
        true
    }

    /// Root the tree at bag 0, the root every tree DP over a decomposition
    /// evaluates toward: each bag's parent (`usize::MAX` for the root) and
    /// an order listing every bag after all of its children.  Needs at
    /// least one bag.
    pub fn rooted(&self) -> (Vec<usize>, Vec<usize>) {
        let n = self.tree.vertex_count();
        let mut parent = vec![usize::MAX; n];
        let mut visited = vec![false; n];
        let mut stack = vec![(0usize, usize::MAX)];
        let mut pre = Vec::with_capacity(n);
        while let Some((v, p)) = stack.pop() {
            if visited[v] {
                continue;
            }
            visited[v] = true;
            parent[v] = p;
            pre.push(v);
            for w in self.tree.neighbors(v) {
                if !visited[w] {
                    stack.push((w, v));
                }
            }
        }
        // Every bag follows its parent in preorder, so the reverse lists
        // children first.
        pre.reverse();
        (parent, pre)
    }

    /// The *answer decomposition* for a set of free vertices: the same tree
    /// with every free vertex adjoined to **every** bag.
    ///
    /// Adjoining a fixed set to all bags preserves all three validity
    /// conditions: coverage only gains vertices, edge coverage is unchanged,
    /// and each adjoined vertex now occurs in every bag (the whole tree is
    /// connected).  The price is width: it grows by at most `free.len()`.
    /// What it buys is a pin site for every free vertex in every bag, so a
    /// prefix of free values can be fixed uniformly across the DP — the
    /// form the answer cursor's pinned probes run on.  Grouping the root
    /// rows by free assignment needs far less: see
    /// [`TreeDecomposition::answer_closure`].
    pub fn answer_decomposition(&self, free: &[Vertex]) -> TreeDecomposition {
        let mut bags = self.bags.clone();
        for bag in &mut bags {
            bag.extend(free.iter().copied());
        }
        TreeDecomposition {
            tree: self.tree.clone(),
            bags,
        }
    }

    /// The *answer closure* for a set of free vertices: the same tree with
    /// each free vertex adjoined only to the bags on the tree path from the
    /// bags holding it up to bag 0 (the root of [`TreeDecomposition::rooted`]).
    ///
    /// A free vertex's bags form a connected subtree; adding the path from
    /// that subtree to the root keeps it connected, so the result is valid
    /// wherever `self` is.  Bag 0 then holds every free vertex, which is
    /// all that grouping the root rows by free assignment needs (a free
    /// vertex in no bag is adjoined to bag 0 alone).  Bags on no such path
    /// are unchanged, and every closure bag is a subset of the matching
    /// [`TreeDecomposition::answer_decomposition`] bag, so the width is at
    /// most that form's — and only as large as the free vertices' distance
    /// to the root makes it.
    pub fn answer_closure(&self, free: &[Vertex]) -> TreeDecomposition {
        let n = self.bags.len();
        if free.is_empty() || n == 0 {
            return self.clone();
        }
        let (parent, _) = self.rooted();
        let mut bags = self.bags.clone();
        for &f in free {
            for t in (0..n).filter(|&t| self.bags[t].contains(&f)) {
                // Stop at the first bag already holding `f`: its own walk
                // (an original holder) or an earlier one covers the rest.
                let mut u = parent[t];
                while u != usize::MAX && bags[u].insert(f) {
                    u = parent[u];
                }
            }
            bags[0].insert(f);
        }
        TreeDecomposition {
            tree: self.tree.clone(),
            bags,
        }
    }

    /// Convert a decomposition whose tree happens to be a path into a
    /// [`PathDecomposition`] (bags listed in path order).  Returns `None`
    /// when the tree is not a path.
    pub fn as_path_decomposition(&self) -> Option<PathDecomposition> {
        if !traversal::is_path_graph(&self.tree) {
            return None;
        }
        // Walk the path from an endpoint.
        let n = self.tree.vertex_count();
        if n == 1 {
            return Some(PathDecomposition {
                bags: self.bags.clone(),
            });
        }
        let start = self.tree.vertices().find(|&v| self.tree.degree(v) == 1)?;
        let mut order = vec![start];
        let mut prev = None;
        let mut cur = start;
        while order.len() < n {
            let next = self.tree.neighbors(cur).find(|&w| Some(w) != prev)?;
            order.push(next);
            prev = Some(cur);
            cur = next;
        }
        Some(PathDecomposition {
            bags: order.into_iter().map(|i| self.bags[i].clone()).collect(),
        })
    }
}

/// A path decomposition: a sequence of bags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathDecomposition {
    /// The bags, in path order.
    pub bags: Vec<BTreeSet<Vertex>>,
}

impl PathDecomposition {
    /// The width: maximum bag size minus one.
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(1)
            .saturating_sub(1)
    }

    /// Number of bags.
    pub fn bag_count(&self) -> usize {
        self.bags.len()
    }

    /// Validity check against a graph.
    pub fn is_valid_for(&self, g: &Graph) -> bool {
        self.to_tree_decomposition().is_valid_for(g)
    }

    /// View as a tree decomposition whose tree is a path.
    pub fn to_tree_decomposition(&self) -> TreeDecomposition {
        let n = self.bags.len();
        let mut tree = Graph::new(n.max(1));
        for i in 0..n.saturating_sub(1) {
            tree.add_edge(i, i + 1);
        }
        let bags = if self.bags.is_empty() {
            vec![BTreeSet::new()]
        } else {
            self.bags.clone()
        };
        TreeDecomposition { tree, bags }
    }

    /// Normalize into the *staircase form* required by the membership
    /// algorithm of Theorem 4.6: consecutive bags satisfy
    /// `X_i ⊊ X_{i+1}` or `X_{i+1} ⊊ X_i`, and no bag is empty.
    ///
    /// Between two consecutive original bags `X` and `Y` we interleave the
    /// intersection when it is a proper subset of both: `X ⊋ X∩Y ⊊ Y`.
    /// Empty intersections are replaced by keeping one element of the next
    /// bag early (which is harmless for validity).  Duplicate consecutive
    /// bags are collapsed.
    pub fn normalize_staircase(&self) -> PathDecomposition {
        let mut bags: Vec<BTreeSet<Vertex>> = Vec::new();
        // Push a bag unless it duplicates the previous one (strict
        // comparability requires no repeats).
        fn push(bags: &mut Vec<BTreeSet<Vertex>>, bag: BTreeSet<Vertex>) {
            if bags.last() != Some(&bag) {
                bags.push(bag);
            }
        }
        for bag in &self.bags {
            if bag.is_empty() {
                continue;
            }
            if let Some(last) = bags.last().cloned() {
                if &last == bag {
                    continue;
                }
                let inter: BTreeSet<Vertex> = last.intersection(bag).copied().collect();
                if last.is_subset(bag) || bag.is_subset(&last) {
                    // Already comparable; nothing to interleave.
                } else if !inter.is_empty() {
                    push(&mut bags, inter);
                } else {
                    // Disjoint consecutive bags: step down to a singleton of
                    // the old bag, through the joining pair {x, y}, and up
                    // into the new bag: … ⊇ {x} ⊂ {x, y} ⊃ {y} ⊆ bag.
                    let x = *last.iter().next().unwrap();
                    let y = *bag.iter().next().unwrap();
                    push(&mut bags, [x].into_iter().collect());
                    push(&mut bags, [x, y].into_iter().collect());
                    push(&mut bags, [y].into_iter().collect());
                }
            }
            push(&mut bags, bag.clone());
        }
        if bags.is_empty() {
            bags.push(self.bags.first().cloned().unwrap_or_default());
        }
        PathDecomposition { bags }
    }

    /// Whether consecutive bags are strictly comparable (the staircase form).
    pub fn is_staircase(&self) -> bool {
        self.bags
            .windows(2)
            .all(|w| w[0] != w[1] && (w[0].is_subset(&w[1]) || w[1].is_subset(&w[0])))
    }
}

/// An elimination forest (tree-depth decomposition): a rooted forest over the
/// graph's vertices such that every graph edge connects an
/// ancestor–descendant pair.  The *height* (vertex count of the longest
/// root-to-leaf path) witnesses `td(G) ≤ height`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliminationForest {
    /// `parent[v]` is the parent of `v`, or `None` for roots.
    pub parent: Vec<Option<Vertex>>,
}

impl EliminationForest {
    /// The roots of the forest.
    pub fn roots(&self) -> Vec<Vertex> {
        self.parent
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(v, _)| v)
            .collect()
    }

    /// The children lists of the forest.
    pub fn children(&self) -> Vec<Vec<Vertex>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (v, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                ch[*p].push(v);
            }
        }
        ch
    }

    /// The depth of every vertex (roots have depth 1).
    pub fn depths(&self) -> Vec<usize> {
        let n = self.parent.len();
        let mut depth = vec![0usize; n];
        fn depth_of(v: Vertex, parent: &[Option<Vertex>], depth: &mut [usize]) -> usize {
            if depth[v] != 0 {
                return depth[v];
            }
            let d = match parent[v] {
                None => 1,
                Some(p) => depth_of(p, parent, depth) + 1,
            };
            depth[v] = d;
            d
        }
        for v in 0..n {
            depth_of(v, &self.parent, &mut depth);
        }
        depth
    }

    /// The height of the forest: the number of vertices on a longest
    /// root-to-leaf path (equals `max` of [`EliminationForest::depths`]).
    pub fn height(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Is `a` an ancestor of `b` (or equal)?
    pub fn is_ancestor(&self, a: Vertex, b: Vertex) -> bool {
        let mut cur = Some(b);
        while let Some(v) = cur {
            if v == a {
                return true;
            }
            cur = self.parent[v];
        }
        false
    }

    /// Validity: every edge of the graph joins an ancestor–descendant pair
    /// of the forest, and the forest spans exactly the graph's vertices.
    pub fn is_valid_for(&self, g: &Graph) -> bool {
        if self.parent.len() != g.vertex_count() {
            return false;
        }
        // Acyclicity of the parent map (no vertex is its own ancestor via a
        // nontrivial chain) — detect by walking up with a step bound.
        for v in 0..self.parent.len() {
            let mut cur = self.parent[v];
            let mut steps = 0;
            while let Some(p) = cur {
                if p == v || steps > self.parent.len() {
                    return false;
                }
                cur = self.parent[p];
                steps += 1;
            }
        }
        g.edges()
            .into_iter()
            .all(|(a, b)| self.is_ancestor(a, b) || self.is_ancestor(b, a))
    }

    /// The *closure bags* path from the root to each vertex — used to read a
    /// tree decomposition of width `height - 1` off an elimination forest
    /// (every structure of tree depth `w` has treewidth at most `w - 1`).
    pub fn to_tree_decomposition(&self) -> TreeDecomposition {
        let n = self.parent.len();
        if n == 0 {
            return TreeDecomposition {
                tree: Graph::new(1),
                bags: vec![BTreeSet::new()],
            };
        }
        // Bag of v = the set of ancestors of v including v.
        let mut bags = Vec::with_capacity(n);
        for v in 0..n {
            let mut bag = BTreeSet::new();
            let mut cur = Some(v);
            while let Some(u) = cur {
                bag.insert(u);
                cur = self.parent[u];
            }
            bags.push(bag);
        }
        // Tree: connect v to its parent (bag indices = vertex indices); join
        // separate forest roots in a chain so the result is a tree.
        let mut tree = Graph::new(n);
        for (v, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                tree.add_edge(v, *p);
            }
        }
        let roots = self.roots();
        for w in roots.windows(2) {
            tree.add_edge(w[0], w[1]);
        }
        TreeDecomposition { tree, bags }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_graphs::families::*;

    fn path_decomp_of_path(k: usize) -> PathDecomposition {
        // Bags {i, i+1} for the path P_k — width 1.
        PathDecomposition {
            bags: (0..k - 1)
                .map(|i| [i, i + 1].into_iter().collect())
                .collect(),
        }
    }

    #[test]
    fn trivial_decomposition_is_valid() {
        let g = grid_graph(3, 3);
        let td = TreeDecomposition::trivial(&g);
        assert!(td.is_valid_for(&g));
        assert_eq!(td.width(), 8);
        assert_eq!(td.bag_count(), 1);
    }

    #[test]
    fn answer_decomposition_stays_valid_and_bounds_width() {
        let g = path_graph(5);
        let td = path_decomp_of_path(5).to_tree_decomposition();
        assert_eq!(td.width(), 1);
        // Adjoin two free vertices, one of which already occurs in some bags.
        let atd = td.answer_decomposition(&[0, 4]);
        assert!(atd.is_valid_for(&g));
        assert!(atd.width() <= td.width() + 2);
        for bag in &atd.bags {
            assert!(bag.contains(&0) && bag.contains(&4));
        }
        // No free vertices: unchanged.
        assert_eq!(td.answer_decomposition(&[]), td);
    }

    #[test]
    fn answer_closure_adjoins_along_root_paths_only() {
        // The endpoint chain S(x0,x1) ∧ R0(x1,x2) ∧ R1(x2,x3): a path
        // decomposition rooted at its first bag {x0, x1}.
        let chain = path_graph(4);
        let td = path_decomp_of_path(4).to_tree_decomposition();
        let closure = td.answer_closure(&[0, 3]);
        assert!(closure.is_valid_for(&chain));
        assert!(closure.bags[0].contains(&0) && closure.bags[0].contains(&3));
        assert_eq!(closure.width(), 2);
        assert_eq!(td.answer_decomposition(&[0, 3]).width(), 3);

        // P5 with the root in the middle and two branches: only the branch
        // holding the free vertex grows, the other stays as it was.
        let g = path_graph(5);
        let set = |v: &[usize]| v.iter().copied().collect::<BTreeSet<_>>();
        let mut tree = Graph::new(4);
        tree.add_edge(0, 1);
        tree.add_edge(1, 2);
        tree.add_edge(0, 3);
        let td = TreeDecomposition {
            tree,
            bags: vec![set(&[2, 3]), set(&[1, 2]), set(&[0, 1]), set(&[3, 4])],
        };
        assert!(td.is_valid_for(&g));
        for free in [vec![0], vec![4], vec![0, 4], vec![2], vec![4, 0, 1]] {
            let closure = td.answer_closure(&free);
            assert!(closure.is_valid_for(&g), "free {free:?}");
            assert!(free.iter().all(|f| closure.bags[0].contains(f)));
            assert!(closure.width() <= td.answer_decomposition(&free).width());
            for (t, bag) in closure.bags.iter().enumerate() {
                assert!(bag.is_superset(&td.bags[t]));
                assert!(bag.difference(&td.bags[t]).all(|v| free.contains(v)));
            }
        }
        let closure = td.answer_closure(&[0]);
        assert_eq!(closure.bags[1], set(&[0, 1, 2]));
        assert_eq!(closure.bags[0], set(&[0, 2, 3]));
        assert_eq!(closure.bags[3], td.bags[3], "off-path bag changed");
        assert_eq!(closure.bags[2], td.bags[2]);
        assert_eq!(closure.width(), 2);
        // No free vertices: unchanged.
        assert_eq!(td.answer_closure(&[]), td);
    }

    #[test]
    fn path_decomposition_of_path_is_valid_width_1() {
        let g = path_graph(5);
        let pd = path_decomp_of_path(5);
        assert_eq!(pd.width(), 1);
        assert!(pd.is_valid_for(&g));
        assert!(pd.to_tree_decomposition().is_valid_for(&g));
        assert_eq!(pd.bag_count(), 4);
    }

    #[test]
    fn vertex_coverage_violation_detected() {
        let g = path_graph(3);
        let pd = PathDecomposition {
            bags: vec![[0, 1].into_iter().collect()],
        };
        assert!(!pd.is_valid_for(&g));
    }

    #[test]
    fn edge_coverage_violation_detected() {
        let g = path_graph(3);
        let pd = PathDecomposition {
            bags: vec![[0, 1].into_iter().collect(), [2].into_iter().collect()],
        };
        assert!(!pd.is_valid_for(&g));
    }

    #[test]
    fn connectivity_violation_detected() {
        let g = path_graph(4);
        // Vertex 1 occurs in bags 0 and 2 but not 1: violates condition (iii).
        let pd = PathDecomposition {
            bags: vec![
                [0, 1].into_iter().collect(),
                [2, 3].into_iter().collect(),
                [1, 2].into_iter().collect(),
            ],
        };
        assert!(!pd.is_valid_for(&g));
    }

    #[test]
    fn out_of_range_bag_detected() {
        let g = path_graph(2);
        let td = TreeDecomposition {
            tree: Graph::new(1),
            bags: vec![[0, 1, 9].into_iter().collect()],
        };
        assert!(!td.is_valid_for(&g));
    }

    #[test]
    fn non_tree_decomposition_tree_detected() {
        let g = path_graph(2);
        let mut tree = Graph::new(2); // disconnected two nodes — not a tree
        let _ = &mut tree;
        let td = TreeDecomposition {
            tree,
            bags: vec![[0, 1].into_iter().collect(), [1].into_iter().collect()],
        };
        assert!(!td.is_valid_for(&g));
    }

    #[test]
    fn as_path_decomposition_roundtrip() {
        let g = path_graph(4);
        let pd = path_decomp_of_path(4);
        let td = pd.to_tree_decomposition();
        let back = td.as_path_decomposition().unwrap();
        assert_eq!(back.width(), pd.width());
        assert!(back.is_valid_for(&g));
        // A star-shaped decomposition tree is not a path.
        let star_td = TreeDecomposition {
            tree: star_graph(3),
            bags: vec![
                [0].into_iter().collect(),
                [0, 1].into_iter().collect(),
                [0, 2].into_iter().collect(),
                [0, 3].into_iter().collect(),
            ],
        };
        assert!(star_td.as_path_decomposition().is_none());
    }

    #[test]
    fn staircase_normalization() {
        let pd = PathDecomposition {
            bags: vec![
                [0, 1].into_iter().collect(),
                [1, 2].into_iter().collect(),
                [2, 3].into_iter().collect(),
            ],
        };
        assert!(!pd.is_staircase());
        let stair = pd.normalize_staircase();
        assert!(stair.is_staircase());
        assert_eq!(stair.width(), pd.width());
        assert!(stair.is_valid_for(&path_graph(4)));
    }

    #[test]
    fn staircase_normalization_handles_disjoint_bags() {
        let pd = PathDecomposition {
            bags: vec![[0].into_iter().collect(), [1].into_iter().collect()],
        };
        let stair = pd.normalize_staircase();
        assert!(stair.is_staircase());
        // Width may grow by at most one through the joining bag.
        assert!(stair.width() <= pd.width() + 1);
    }

    #[test]
    fn elimination_forest_of_path() {
        // A balanced elimination tree of P_7 rooted at the middle vertex has
        // height 3 = td(P_7).
        let g = path_graph(7);
        let parent = vec![Some(1), Some(3), Some(1), None, Some(5), Some(3), Some(5)];
        let ef = EliminationForest { parent };
        assert!(ef.is_valid_for(&g));
        assert_eq!(ef.height(), 3);
        assert_eq!(ef.roots(), vec![3]);
        assert!(ef.is_ancestor(3, 0));
        assert!(!ef.is_ancestor(0, 3));
        let td = ef.to_tree_decomposition();
        assert!(td.is_valid_for(&g));
        assert!(td.width() < ef.height());
        let ch = ef.children();
        assert_eq!(ch[3], vec![1, 5]);
    }

    #[test]
    fn invalid_elimination_forest_detected() {
        let g = path_graph(3);
        // Both endpoints are roots, so the middle edge pairs are fine but the
        // edge (0,1) joins two different branches -> invalid if 0 and 1 are
        // incomparable.
        let ef = EliminationForest {
            parent: vec![None, None, Some(1)],
        };
        assert!(!ef.is_valid_for(&g));
        // Wrong size rejected.
        let ef2 = EliminationForest { parent: vec![None] };
        assert!(!ef2.is_valid_for(&g));
        // A parent cycle is rejected.
        let ef3 = EliminationForest {
            parent: vec![Some(1), Some(0), Some(0)],
        };
        assert!(!ef3.is_valid_for(&g));
    }

    #[test]
    fn elimination_forest_with_multiple_roots() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let ef = EliminationForest {
            parent: vec![None, Some(0), None, Some(2)],
        };
        assert!(ef.is_valid_for(&g));
        assert_eq!(ef.height(), 2);
        assert_eq!(ef.roots().len(), 2);
        // Connecting roots gives a valid tree decomposition of the whole graph.
        let td = ef.to_tree_decomposition();
        assert!(td.is_valid_for(&g));
    }
}
