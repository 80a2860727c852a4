//! Homomorphisms, partial homomorphisms and embeddings between relational
//! structures — reference (backtracking) implementations.
//!
//! A homomorphism from `A` to `B` is a function `h : A → B` such that for
//! every relation symbol `R` and every tuple `ā ∈ R^A` we have `h(ā) ∈ R^B`
//! (Section 2.1).  An *embedding* is an injective homomorphism.
//!
//! The functions in this module are deliberately simple backtracking searches
//! with light pruning.  They serve two purposes:
//!
//! 1. as the ground truth in tests of the cleverer algorithms of `cq-solver`
//!    (tree-decomposition DP, path DP, tree-depth evaluation, colour coding);
//! 2. as the subroutine used by [`crate::core::core_of`], where the left-hand
//!    structure is parameter-sized and a simple search is entirely adequate.

use crate::structure::{Element, Structure, Tuple};
use crate::vocabulary::SymbolId;
use std::collections::BTreeMap;

/// A partial homomorphism represented as a partial map from elements of the
/// source structure to elements of the target structure.
///
/// The paper (Section 2.1) defines a partial homomorphism from `A` to `B` as
/// the empty map or a homomorphism from a substructure of `A` to `B`; this is
/// exactly a partial function that is a homomorphism on its domain.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash, PartialOrd, Ord)]
pub struct PartialHom {
    assignments: BTreeMap<Element, Element>,
}

impl PartialHom {
    /// The empty partial homomorphism.
    pub fn empty() -> Self {
        PartialHom::default()
    }

    /// Build from an iterator of `(source, target)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (Element, Element)>>(pairs: I) -> Self {
        PartialHom {
            assignments: pairs.into_iter().collect(),
        }
    }

    /// Build a total map from a vector indexed by source element.
    pub fn from_total(map: &[Element]) -> Self {
        PartialHom {
            assignments: map.iter().copied().enumerate().collect(),
        }
    }

    /// The image of `a`, if defined.
    pub fn get(&self, a: Element) -> Option<Element> {
        self.assignments.get(&a).copied()
    }

    /// Extend the map (overwrites an existing assignment for `a`).
    pub fn insert(&mut self, a: Element, b: Element) {
        self.assignments.insert(a, b);
    }

    /// Remove the assignment for `a`.
    pub fn remove(&mut self, a: Element) {
        self.assignments.remove(&a);
    }

    /// The domain of the partial map, in increasing order.
    pub fn domain(&self) -> impl Iterator<Item = Element> + '_ {
        self.assignments.keys().copied()
    }

    /// Number of assigned elements.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Iterate over `(source, target)` pairs in increasing source order.
    pub fn pairs(&self) -> impl Iterator<Item = (Element, Element)> + '_ {
        self.assignments.iter().map(|(&a, &b)| (a, b))
    }

    /// Two partial maps are *compatible* when they agree on the intersection
    /// of their domains (used by the reduction of Lemma 3.4, where the target
    /// structure's edge relation relates compatible partial homomorphisms).
    pub fn compatible(&self, other: &PartialHom) -> bool {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .pairs()
            .all(|(a, b)| large.get(a).map(|b2| b2 == b).unwrap_or(true))
    }

    /// The union of two compatible partial maps; `None` when incompatible.
    pub fn union(&self, other: &PartialHom) -> Option<PartialHom> {
        if !self.compatible(other) {
            return None;
        }
        let mut out = self.clone();
        for (a, b) in other.pairs() {
            out.insert(a, b);
        }
        Some(out)
    }

    /// Restrict the map to the given domain subset.
    pub fn restrict(&self, domain: &[Element]) -> PartialHom {
        PartialHom {
            assignments: self
                .assignments
                .iter()
                .filter(|(a, _)| domain.contains(a))
                .map(|(&a, &b)| (a, b))
                .collect(),
        }
    }

    /// Whether the map is injective on its domain.
    pub fn is_injective(&self) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        self.assignments.values().all(|&b| seen.insert(b))
    }

    /// Convert into a total map over `0..n` (`None` for unassigned sources).
    pub fn to_vec(&self, n: usize) -> Vec<Option<Element>> {
        let mut v = vec![None; n];
        for (a, b) in self.pairs() {
            if a < n {
                v[a] = Some(b);
            }
        }
        v
    }
}

/// Is `h` (a total map given as a vector over the universe of `a`) a
/// homomorphism from `a` to `b`?
pub fn is_homomorphism(a: &Structure, b: &Structure, h: &[Element]) -> bool {
    if h.len() != a.universe_size() {
        return false;
    }
    if h.iter().any(|&img| img >= b.universe_size()) {
        return false;
    }
    for (sym, t) in a.all_tuples() {
        let Some(target_sym) = b.vocabulary().id_of(a.vocabulary().name(sym)) else {
            // The target does not interpret the symbol at all; a non-empty
            // relation can then never be preserved.
            return false;
        };
        let mapped: Tuple = t.iter().map(|&e| h[e as usize]).collect();
        if !b.contains(target_sym, &mapped) {
            return false;
        }
    }
    true
}

/// Is the partial map `h` a partial homomorphism from `a` to `b`?  Only the
/// tuples of `a` entirely inside the domain of `h` are required to be
/// preserved (this is preservation with respect to the *induced substructure*
/// on the domain).
pub fn is_partial_homomorphism(a: &Structure, b: &Structure, h: &PartialHom) -> bool {
    if h.pairs()
        .any(|(x, y)| x >= a.universe_size() || y >= b.universe_size())
    {
        return false;
    }
    // Hoist the name-based symbol translation once per call instead of
    // recomputing it for every tuple.  The stricter `symbol_map` is not
    // usable here: partial-homomorphism semantics only care about symbols
    // whose tuples lie entirely inside the domain of `h`.
    let translation = name_translation(a, b);
    for (sym, t) in a.all_tuples() {
        let mapped: Option<Tuple> = t.iter().map(|&e| h.get(e as usize)).collect();
        if let Some(mapped) = mapped {
            let Some(target_sym) = translation[sym.index()] else {
                return false;
            };
            if !b.contains(target_sym, &mapped) {
                return false;
            }
        }
    }
    true
}

/// Name-based translation table from `a`'s vocabulary ids to `b`'s (`None`
/// where `b` does not interpret the name) — computed once per call site
/// instead of once per tuple.
fn name_translation(a: &Structure, b: &Structure) -> Vec<Option<SymbolId>> {
    a.vocabulary()
        .ids()
        .map(|id| b.vocabulary().id_of(a.vocabulary().name(id)))
        .collect()
}

/// Symbol translation table from `a`'s vocabulary ids to `b`'s, used by the
/// backtracking search so that name lookups happen once.  Stricter than
/// [`name_translation`]: a missing or arity-mismatched target symbol is an
/// error unless `a` never uses it.
fn symbol_map(a: &Structure, b: &Structure) -> Option<Vec<Option<SymbolId>>> {
    let translation = name_translation(a, b);
    for (id, target) in a.vocabulary().ids().zip(&translation) {
        match target {
            Some(t) if b.vocabulary().arity(*t) == a.vocabulary().arity(id) => {}
            Some(_) => return None,
            None => {
                // Missing symbols are only acceptable when A does not use them.
                if !a.relation(id).is_empty() {
                    return None;
                }
            }
        }
    }
    Some(translation)
}

struct Search<'a> {
    a: &'a Structure,
    b: &'a Structure,
    sym_map: Vec<Option<SymbolId>>,
    /// For each source element, the list of (symbol, tuple index) pairs of
    /// tuples containing that element — used for incremental checking.
    incident: Vec<Vec<(SymbolId, usize)>>,
    injective: bool,
}

impl<'a> Search<'a> {
    fn new(a: &'a Structure, b: &'a Structure, injective: bool) -> Option<Self> {
        let sym_map = symbol_map(a, b)?;
        let mut incident = vec![Vec::new(); a.universe_size()];
        for sym in a.vocabulary().ids() {
            for (idx, t) in a.relation(sym).rows().enumerate() {
                for &e in t {
                    if !incident[e as usize].contains(&(sym, idx)) {
                        incident[e as usize].push((sym, idx));
                    }
                }
            }
        }
        Some(Search {
            a,
            b,
            sym_map,
            incident,
            injective,
        })
    }

    /// Check all tuples incident to `element` that are fully assigned under
    /// `assignment`.
    fn consistent(&self, assignment: &[Option<Element>], element: Element) -> bool {
        for &(sym, idx) in &self.incident[element] {
            let t = self.a.relation(sym).row(idx);
            let mapped: Option<Tuple> = t.iter().map(|&e| assignment[e as usize]).collect();
            if let Some(mapped) = mapped {
                let Some(target) = self.sym_map[sym.index()] else {
                    return false;
                };
                if !self.b.contains(target, &mapped) {
                    return false;
                }
            }
        }
        true
    }

    fn run<F: FnMut(&[Option<Element>]) -> bool>(&self, order: &[Element], visit: &mut F) -> bool {
        let mut assignment: Vec<Option<Element>> = vec![None; self.a.universe_size()];
        let mut used = vec![false; self.b.universe_size()];
        self.recurse(order, 0, &mut assignment, &mut used, visit)
    }

    /// Depth-first assignment in the given variable order.  `visit` is called
    /// with each complete homomorphism (every slot `Some`); returning `true`
    /// from `visit` stops the search (used for existence queries), returning
    /// `false` continues enumeration.
    ///
    /// The assignment is passed by reference, so visitors that only count
    /// (the engine's brute-force counting tier) run the entire
    /// enumeration without a single per-assignment allocation; visitors that
    /// keep the map collect it themselves.
    fn recurse<F: FnMut(&[Option<Element>]) -> bool>(
        &self,
        order: &[Element],
        depth: usize,
        assignment: &mut Vec<Option<Element>>,
        used: &mut Vec<bool>,
        visit: &mut F,
    ) -> bool {
        if depth == order.len() {
            return visit(assignment);
        }
        let var = order[depth];
        for candidate in 0..self.b.universe_size() {
            if self.injective && used[candidate] {
                continue;
            }
            assignment[var] = Some(candidate);
            if self.consistent(assignment, var) {
                if self.injective {
                    used[candidate] = true;
                }
                if self.recurse(order, depth + 1, assignment, used, visit) {
                    assignment[var] = None;
                    if self.injective {
                        used[candidate] = false;
                    }
                    return true;
                }
                if self.injective {
                    used[candidate] = false;
                }
            }
            assignment[var] = None;
        }
        false
    }
}

/// A variable order that visits elements in decreasing Gaifman degree — a
/// cheap fail-first heuristic for the backtracking search.
fn default_order(a: &Structure) -> Vec<Element> {
    let adj = a.gaifman_adjacency();
    let mut order: Vec<Element> = a.universe().collect();
    order.sort_by_key(|&e| std::cmp::Reverse(adj[e].len()));
    order
}

fn complete(assignment: &[Option<Element>]) -> Vec<Element> {
    assignment
        .iter()
        .map(|x| x.expect("visit sees only complete assignments"))
        .collect()
}

/// Find some homomorphism from `a` to `b`, as a total map, if one exists.
pub fn find_homomorphism(a: &Structure, b: &Structure) -> Option<Vec<Element>> {
    let search = Search::new(a, b, false)?;
    let order = default_order(a);
    let mut found = None;
    search.run(&order, &mut |h| {
        found = Some(complete(h));
        true
    });
    found
}

/// Does a homomorphism from `a` to `b` exist?
pub fn homomorphism_exists(a: &Structure, b: &Structure) -> bool {
    find_homomorphism(a, b).is_some()
}

/// Find some embedding (injective homomorphism) from `a` to `b`.
pub fn find_embedding(a: &Structure, b: &Structure) -> Option<Vec<Element>> {
    if a.universe_size() > b.universe_size() {
        return None;
    }
    let search = Search::new(a, b, true)?;
    let order = default_order(a);
    let mut found = None;
    search.run(&order, &mut |h| {
        found = Some(complete(h));
        true
    });
    found
}

/// Does an embedding from `a` to `b` exist?
pub fn embedding_exists(a: &Structure, b: &Structure) -> bool {
    find_embedding(a, b).is_some()
}

/// Enumerate *all* homomorphisms from `a` to `b` (collected eagerly).
///
/// Exponential in `|A|`; intended for parameter-sized `a` in tests and in the
/// brute-force counting baseline.
pub fn homomorphisms_iter(a: &Structure, b: &Structure) -> Vec<Vec<Element>> {
    let Some(search) = Search::new(a, b, false) else {
        return Vec::new();
    };
    let order = default_order(a);
    let mut all = Vec::new();
    search.run(&order, &mut |h| {
        all.push(complete(h));
        false
    });
    all
}

/// The distinct projections of all homomorphisms `a → b` onto the element
/// positions `free`, sorted lexicographically ascending and deduplicated —
/// the brute-force *answer set* of a conjunctive query with free variables
/// (via Chandra–Merlin, where `free` are the canonical-structure elements of
/// the free variables in declared order).
///
/// Exponential in `|A|`; this is the differential-oracle baseline that the
/// tree-decomposition answer kernel and the enumeration cursor are checked
/// against.  The sorted order is deliberately the same order the cursor
/// emits, so oracles can compare whole pages positionally.
pub fn answers_bruteforce(a: &Structure, b: &Structure, free: &[usize]) -> Vec<Vec<Element>> {
    let mut seen = std::collections::BTreeSet::new();
    for h in homomorphisms_iter(a, b) {
        seen.insert(free.iter().map(|&i| h[i]).collect::<Vec<Element>>());
    }
    seen.into_iter().collect()
}

/// Count homomorphisms from `a` to `b` by exhaustive enumeration.
pub fn count_homomorphisms_bruteforce(a: &Structure, b: &Structure) -> u64 {
    let Some(search) = Search::new(a, b, false) else {
        return 0;
    };
    let order = default_order(a);
    let mut count = 0u64;
    search.run(&order, &mut |_| {
        count += 1;
        false
    });
    count
}

/// Count embeddings from `a` to `b` by exhaustive enumeration.
pub fn count_embeddings_bruteforce(a: &Structure, b: &Structure) -> u64 {
    if a.universe_size() > b.universe_size() {
        return 0;
    }
    let Some(search) = Search::new(a, b, true) else {
        return 0;
    };
    let order = default_order(a);
    let mut count = 0u64;
    search.run(&order, &mut |_| {
        count += 1;
        false
    });
    count
}

/// Two structures are *homomorphically equivalent* when there are
/// homomorphisms in both directions (Section 2.1).
pub fn homomorphically_equivalent(a: &Structure, b: &Structure) -> bool {
    homomorphism_exists(a, b) && homomorphism_exists(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;
    use crate::vocabulary::Vocabulary;

    fn undirected_path(k: usize) -> Structure {
        families::path(k)
    }

    fn odd_cycle(k: usize) -> Structure {
        families::cycle(k)
    }

    #[test]
    fn partial_hom_basics() {
        let mut h = PartialHom::empty();
        assert!(h.is_empty());
        h.insert(0, 3);
        h.insert(2, 5);
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(0), Some(3));
        assert_eq!(h.get(1), None);
        assert_eq!(h.domain().collect::<Vec<_>>(), vec![0, 2]);
        assert!(h.is_injective());
        h.insert(4, 3);
        assert!(!h.is_injective());
        h.remove(4);
        assert!(h.is_injective());
        assert_eq!(h.to_vec(3), vec![Some(3), None, Some(5)]);
    }

    #[test]
    fn partial_hom_compatibility_and_union() {
        let h1 = PartialHom::from_pairs([(0, 1), (1, 2)]);
        let h2 = PartialHom::from_pairs([(1, 2), (3, 4)]);
        let h3 = PartialHom::from_pairs([(1, 9)]);
        assert!(h1.compatible(&h2));
        assert!(!h1.compatible(&h3));
        let u = h1.union(&h2).unwrap();
        assert_eq!(u.len(), 3);
        assert!(h1.union(&h3).is_none());
        assert_eq!(h1.restrict(&[1]).len(), 1);
        assert_eq!(h1.restrict(&[7]).len(), 0);
    }

    #[test]
    fn path_maps_into_longer_path() {
        // An undirected path with 3 vertices maps homomorphically into an
        // undirected path with 5 vertices (fold onto an edge or slide along).
        let p3 = undirected_path(3);
        let p5 = undirected_path(5);
        assert!(homomorphism_exists(&p3, &p5));
        let h = find_homomorphism(&p3, &p5).unwrap();
        assert!(is_homomorphism(&p3, &p5, &h));
    }

    #[test]
    fn long_path_embeds_only_when_room() {
        let p4 = undirected_path(4);
        let p3 = undirected_path(3);
        assert!(!embedding_exists(&p4, &p3));
        assert!(embedding_exists(&p3, &p4));
        // But a homomorphism p4 -> p3 exists (fold back).
        assert!(homomorphism_exists(&p4, &p3));
    }

    #[test]
    fn odd_cycle_does_not_map_to_edge() {
        // C_3 (triangle) is 3-chromatic: no homomorphism to a single edge
        // (which is K_2).
        let c3 = odd_cycle(3);
        let k2 = undirected_path(2);
        assert!(!homomorphism_exists(&c3, &k2));
        // but even cycles do
        let c4 = odd_cycle(4);
        assert!(homomorphism_exists(&c4, &k2));
    }

    #[test]
    fn odd_cycle_to_shorter_odd_cycle() {
        // C_5 -> C_3 exists (odd girth argument), C_3 -> C_5 does not.
        let c5 = odd_cycle(5);
        let c3 = odd_cycle(3);
        assert!(homomorphism_exists(&c5, &c3));
        assert!(!homomorphism_exists(&c3, &c5));
    }

    #[test]
    fn directed_path_homomorphisms() {
        // ->P_3 maps into ->P_5 but not into ->P_2.
        let p3 = families::directed_path(3);
        let p5 = families::directed_path(5);
        let p2 = families::directed_path(2);
        assert!(homomorphism_exists(&p3, &p5));
        assert!(!homomorphism_exists(&p3, &p2));
    }

    #[test]
    fn counting_matches_hand_computation() {
        // Homomorphisms from a single directed edge into ->P_k: one per arc,
        // i.e. k - 1 of them.
        let edge = families::directed_path(2);
        for k in 2..6 {
            let pk = families::directed_path(k);
            assert_eq!(count_homomorphisms_bruteforce(&edge, &pk), (k - 1) as u64);
        }
        // Homomorphisms from the 1-element empty-edge structure into anything
        // with n elements: n.
        let single = Structure::new(Vocabulary::graph(), 1).unwrap();
        let p4 = families::path(4);
        assert_eq!(count_homomorphisms_bruteforce(&single, &p4), 4);
    }

    #[test]
    fn count_embeddings_of_edge_into_path() {
        // Embeddings of an undirected edge (2 vertices, both arcs) into P_k:
        // each of the k-1 undirected edges in 2 orientations.
        let e = undirected_path(2);
        let p5 = undirected_path(5);
        assert_eq!(count_embeddings_bruteforce(&e, &p5), 8);
    }

    #[test]
    fn enumerate_all_homs() {
        let e = families::directed_path(2);
        let p3 = families::directed_path(3);
        let all = homomorphisms_iter(&e, &p3);
        assert_eq!(all.len(), 2);
        for h in &all {
            assert!(is_homomorphism(&e, &p3, h));
        }
    }

    #[test]
    fn hom_respects_unary_colors() {
        // A* style colours restrict maps: a coloured vertex can only go to a
        // vertex with the same colour.
        let vocab = Vocabulary::from_pairs([("E", 2), ("C0", 1)]).unwrap();
        let e = vocab.id_of("E").unwrap();
        let c0 = vocab.id_of("C0").unwrap();
        let mut a = Structure::new(vocab.clone(), 2).unwrap();
        a.add_tuple(e, vec![0, 1]).unwrap();
        a.add_tuple(c0, vec![0]).unwrap();
        let mut b = Structure::new(vocab, 3).unwrap();
        b.add_tuple(e, vec![0, 1]).unwrap();
        b.add_tuple(e, vec![1, 2]).unwrap();
        b.add_tuple(c0, vec![1]).unwrap();
        // 0 must map to 1 (the only C0 element of B), and then 1 must map to 2.
        let h = find_homomorphism(&a, &b).unwrap();
        assert_eq!(h, vec![1, 2]);
        assert_eq!(count_homomorphisms_bruteforce(&a, &b), 1);
    }

    #[test]
    fn missing_symbol_in_target() {
        let vocab_a = Vocabulary::from_pairs([("E", 2), ("R", 1)]).unwrap();
        let e = vocab_a.id_of("E").unwrap();
        let r = vocab_a.id_of("R").unwrap();
        let mut a = Structure::new(vocab_a, 1).unwrap();
        a.add_tuple(e, vec![0, 0]).unwrap();
        a.add_tuple(r, vec![0]).unwrap();
        // Target interprets only E — no homomorphism because R is non-empty in A.
        let vocab_b = Vocabulary::graph();
        let eb = vocab_b.id_of("E").unwrap();
        let mut b = Structure::new(vocab_b, 1).unwrap();
        b.add_tuple(eb, vec![0, 0]).unwrap();
        assert!(!homomorphism_exists(&a, &b));
        assert_eq!(count_homomorphisms_bruteforce(&a, &b), 0);
    }

    #[test]
    fn homomorphic_equivalence_of_even_cycle_and_edge() {
        // Example 2.1: cycles of even length have a single edge as core, so
        // C_4 and K_2 are homomorphically equivalent.
        let c4 = odd_cycle(4);
        let k2 = undirected_path(2);
        assert!(homomorphically_equivalent(&c4, &k2));
        let c3 = odd_cycle(3);
        assert!(!homomorphically_equivalent(&c3, &k2));
    }

    #[test]
    fn is_homomorphism_rejects_bad_maps() {
        let p3 = undirected_path(3);
        let p2 = undirected_path(2);
        // wrong length
        assert!(!is_homomorphism(&p3, &p2, &[0, 1]));
        // out of range
        assert!(!is_homomorphism(&p3, &p2, &[0, 1, 7]));
        // non-edge-preserving: 0,1 adjacent in p3 but both map to 0
        assert!(!is_homomorphism(&p3, &p2, &[0, 0, 1]));
        // valid fold
        assert!(is_homomorphism(&p3, &p2, &[0, 1, 0]));
    }

    #[test]
    fn is_partial_homomorphism_checks_only_covered_tuples() {
        let p4 = undirected_path(4);
        let p2 = undirected_path(2);
        let h = PartialHom::from_pairs([(0, 0), (1, 1)]);
        assert!(is_partial_homomorphism(&p4, &p2, &h));
        let bad = PartialHom::from_pairs([(0, 0), (1, 0)]);
        assert!(!is_partial_homomorphism(&p4, &p2, &bad));
        // Out-of-range values are rejected.
        let oob = PartialHom::from_pairs([(0, 9)]);
        assert!(!is_partial_homomorphism(&p4, &p2, &oob));
        let empty = PartialHom::empty();
        assert!(is_partial_homomorphism(&p4, &p2, &empty));
    }
}
