//! Homomorphism decision and counting by dynamic programming over a tree
//! decomposition of the query — the algorithm licensed by bounded treewidth
//! (the hypothesis of the Classification Theorem and the tractable case of
//! Dalmau–Jonsson's counting classification).
//!
//! For a query structure `A` with a width-`w` tree decomposition of its
//! Gaifman graph, the DP keeps, for every bag, the set of partial
//! homomorphisms on that bag that extend to the entire subtree below it —
//! at most `|B|^{w+1}` of them — and joins children bottom-up.  Every tuple
//! of `A` is a clique in the Gaifman graph and therefore contained in some
//! bag (cf. the proof of Lemma 3.4), so checking tuples bag-locally is
//! complete.
//!
//! Counting uses the same tree but must avoid double counting across
//! overlapping bags; we count extensions of each bag assignment to the
//! subtree below it, dividing the recombination by construction: the count
//! attached to a bag assignment is the number of extensions to the union of
//! the *strictly-below* vertices, so multiplying child counts and summing
//! over child-bag completions is exact.

use cq_decomp::TreeDecomposition;
use cq_graphs::gaifman_graph;
use cq_structures::{Element, PartialHom, Structure};
use std::collections::{BTreeMap, BTreeSet};

/// Enumerate all partial homomorphisms from the elements `bag` of `a` into
/// `b` (assignments of every bag element that satisfy all tuples of `a` lying
/// entirely inside the bag).
///
/// This is the shared **reference** helper behind both the tree DP and the
/// path sweep (the kernel counterpart is
/// [`crate::kernel::bag_rows_indexed`]); it is deliberately simple — full
/// `|B|^{|bag|}` enumeration with a leaf validity check — because it is the
/// oracle the kernel is differentially tested against.
pub(crate) fn reference_bag_assignments(
    a: &Structure,
    b: &Structure,
    bag: &BTreeSet<Element>,
) -> Vec<PartialHom> {
    let elems: Vec<Element> = bag.iter().copied().collect();
    let mut out = Vec::new();
    let mut current: Vec<Element> = Vec::with_capacity(elems.len());
    fn rec(
        a: &Structure,
        b: &Structure,
        elems: &[Element],
        current: &mut Vec<Element>,
        out: &mut Vec<PartialHom>,
    ) {
        if current.len() == elems.len() {
            let h = PartialHom::from_pairs(elems.iter().copied().zip(current.iter().copied()));
            if cq_structures::is_partial_homomorphism(a, b, &h) {
                out.push(h);
            }
            return;
        }
        for candidate in b.universe() {
            current.push(candidate);
            rec(a, b, elems, current, out);
            current.pop();
        }
    }
    rec(a, b, &elems, &mut current, &mut out);
    out
}

/// Decide `HOM(A, B)` by DP over the given tree decomposition of (the
/// Gaifman graph of) `A`.  The decomposition is validated in debug builds.
pub fn hom_via_tree_decomposition(a: &Structure, b: &Structure, td: &TreeDecomposition) -> bool {
    debug_assert!(td.is_valid_for(&gaifman_graph(a)));
    // Elements never mentioned in any bag (possible only if A has isolated
    // elements and the decomposition still covers them — validity guarantees
    // coverage, so nothing to do here).
    let (parent, post) = td.rooted();
    let n_bags = td.bags.len();
    // For each bag: the set of bag assignments that extend downwards.
    let mut viable: Vec<Option<BTreeSet<PartialHom>>> = vec![None; n_bags];
    for &t in &post {
        let own = reference_bag_assignments(a, b, &td.bags[t]);
        let children: Vec<usize> = td.tree.neighbors(t).filter(|&c| parent[c] == t).collect();
        let mut ok = BTreeSet::new();
        'assignments: for h in own {
            for &c in &children {
                let child_ok = viable[c].as_ref().expect("post-order");
                if !child_ok.iter().any(|hc| hc.compatible(&h)) {
                    continue 'assignments;
                }
            }
            ok.insert(h);
        }
        viable[t] = Some(ok);
    }
    !viable[post[post.len() - 1]]
        .as_ref()
        .expect("root computed")
        .is_empty()
}

/// Count homomorphisms from `a` to `b` by DP over the given tree
/// decomposition.
///
/// For every bag `t` and every assignment `h` of the bag, the DP computes
/// the number of extensions of `h` to the vertices appearing strictly below
/// `t` (in bags of the subtree of `t` but not in `X_t`).  Children are
/// combined by multiplying, for each child `c`, the number of extensions of
/// `h` into the part strictly below `c` plus the new vertices of `X_c`:
/// `Σ_{h_c compatible with h} count(c, h_c)` — the intersection property of
/// tree decompositions guarantees the child parts are disjoint, so the
/// product is exact.
pub fn count_hom_via_tree_decomposition(
    a: &Structure,
    b: &Structure,
    td: &TreeDecomposition,
) -> u64 {
    debug_assert!(td.is_valid_for(&gaifman_graph(a)));
    let (parent, post) = td.rooted();
    let n_bags = td.bags.len();
    // counts[t]: map from bag assignment to the number of extensions to the
    // union of bags in the subtree of t.
    let mut counts: Vec<Option<BTreeMap<PartialHom, u64>>> = vec![None; n_bags];
    for &t in &post {
        let own = reference_bag_assignments(a, b, &td.bags[t]);
        let children: Vec<usize> = td.tree.neighbors(t).filter(|&c| parent[c] == t).collect();
        // The separator X_t ∩ X_c depends only on the edge, not on the
        // assignment: hoist it out of the per-assignment loop.
        let separators: Vec<Vec<Element>> = children
            .iter()
            .map(|&c| td.bags[t].intersection(&td.bags[c]).copied().collect())
            .collect();
        let mut map = BTreeMap::new();
        for h in own {
            let mut total: u64 = 1;
            for (&c, shared) in children.iter().zip(&separators) {
                let child_counts = counts[c].as_ref().expect("post-order");
                // Number of subtree-of-c extensions compatible with h, where
                // we must not double count the shared vertices X_t ∩ X_c: we
                // sum over child assignments h_c that agree with h on the
                // intersection, and each contributes its own extension count.
                let sum: u64 = child_counts
                    .iter()
                    .filter(|(hc, _)| shared.iter().all(|&v| hc.get(v) == h.get(v)))
                    .map(|(_, &cnt)| cnt)
                    .sum();
                total = total.saturating_mul(sum);
                if total == 0 {
                    break;
                }
            }
            if total > 0 {
                map.insert(h, total);
            }
        }
        counts[t] = Some(map);
    }
    // At the root: each root-bag assignment together with its subtree
    // extension count yields distinct homomorphisms; but homomorphisms are
    // assignments of *all* elements, and the root count for assignment h is
    // the number of extensions of h to everything below, so the total is the
    // sum over root assignments.
    counts[post[post.len() - 1]]
        .as_ref()
        .expect("root computed")
        .values()
        .sum()
}

/// Convenience: compute an optimal tree decomposition of the query's Gaifman
/// graph and run the decision DP.
pub fn hom_with_computed_decomposition(a: &Structure, b: &Structure) -> bool {
    let (_, td) = cq_decomp::treewidth::treewidth_of_structure(a);
    hom_via_tree_decomposition(a, b, &td)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_decomp::treewidth::treewidth_of_structure;
    use cq_structures::{count_homomorphisms_bruteforce, families, homomorphism_exists};

    fn check_decide_and_count(a: &Structure, b: &Structure) {
        let (_, td) = treewidth_of_structure(a);
        assert_eq!(
            hom_via_tree_decomposition(a, b, &td),
            homomorphism_exists(a, b),
            "decision mismatch for {a} -> {b}"
        );
        assert_eq!(
            count_hom_via_tree_decomposition(a, b, &td),
            count_homomorphisms_bruteforce(a, b),
            "count mismatch for {a} -> {b}"
        );
    }

    #[test]
    fn agrees_with_bruteforce_on_paths_and_cycles() {
        let queries = [
            families::path(3),
            families::path(4),
            families::cycle(3),
            families::cycle(4),
            families::cycle(5),
            families::star(3),
        ];
        let targets = [
            families::path(4),
            families::cycle(5),
            families::cycle(6),
            families::clique(3),
            families::grid(2, 3),
        ];
        for a in &queries {
            for b in &targets {
                check_decide_and_count(a, b);
            }
        }
    }

    #[test]
    fn agrees_on_directed_and_higher_width_queries() {
        check_decide_and_count(&families::directed_path(4), &families::directed_cycle(5));
        check_decide_and_count(&families::directed_cycle(3), &families::directed_cycle(6));
        check_decide_and_count(&families::grid(2, 2), &families::clique(4));
        check_decide_and_count(&families::grid(2, 3), &families::grid(3, 3));
        check_decide_and_count(&families::complete_bipartite(2, 2), &families::clique(3));
    }

    #[test]
    fn counting_tree_queries_matches_closed_forms() {
        // Homomorphisms from the star K_{1,l} into K_m: m · (m-1)^l.
        let star3 = families::star(3);
        let k4 = families::clique(4);
        let (_, td) = treewidth_of_structure(&star3);
        assert_eq!(count_hom_via_tree_decomposition(&star3, &k4, &td), 4 * 27);
        // Homomorphisms from P_3 (2 edges) into K_3: 3 * 2 * 2 = 12.
        let p3 = families::path(3);
        let k3 = families::clique(3);
        let (_, td) = treewidth_of_structure(&p3);
        assert_eq!(count_hom_via_tree_decomposition(&p3, &k3, &td), 12);
    }

    #[test]
    fn colored_queries_work() {
        use cq_structures::star_expansion;
        let q = star_expansion(&families::path(3));
        let b = cq_structures::ops::colored_target(3, &families::path(5), |e| vec![e, e + 2]);
        check_decide_and_count(&q, &b);
    }

    #[test]
    fn trivial_decomposition_also_works() {
        // Using the single-bag decomposition reduces the DP to brute force —
        // results must still agree.
        let a = families::cycle(4);
        let b = families::cycle(6);
        let td = TreeDecomposition::trivial(&gaifman_graph(&a));
        assert_eq!(
            hom_via_tree_decomposition(&a, &b, &td),
            homomorphism_exists(&a, &b)
        );
        assert_eq!(
            count_hom_via_tree_decomposition(&a, &b, &td),
            count_homomorphisms_bruteforce(&a, &b)
        );
    }

    #[test]
    fn convenience_wrapper() {
        assert!(hom_with_computed_decomposition(
            &families::cycle(4),
            &families::path(2)
        ));
        assert!(!hom_with_computed_decomposition(
            &families::cycle(3),
            &families::path(2)
        ));
    }
}
