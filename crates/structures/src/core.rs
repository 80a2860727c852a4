//! Cores of relational structures (Section 2.1).
//!
//! A structure `A` is a *core* when every homomorphism from `A` to itself is
//! an embedding.  Every structure maps homomorphically onto a weak
//! substructure that is a core; this substructure is unique up to isomorphism
//! and is called *the core of* `A`.
//!
//! The classification of Theorem 3.1 is stated in terms of the cores of the
//! class `A`: it is the treewidth / pathwidth / tree depth *of the cores*
//! that determines the degree.  This module provides an exact core
//! computation suitable for parameter-sized structures (the left-hand side of
//! a `p-HOM` instance), by repeatedly retracting onto proper induced
//! substructures.

use crate::homomorphism::{find_homomorphism, homomorphism_exists};
use crate::meter::{self, Meter};
use crate::structure::{Element, Structure};
use std::collections::BTreeSet;

/// The result of a core computation: the core itself plus bookkeeping that
/// tests and the classification engine use.
#[derive(Debug, Clone)]
pub struct CoreComputation {
    /// The core structure (elements renumbered `0..m`).
    pub core: Structure,
    /// For every element of the original structure, the element of the core
    /// it is retracted onto, expressed in *original* element numbering.
    pub retraction: Vec<Element>,
    /// The elements of the original structure that survive into the core, in
    /// increasing order (the `i`-th entry is the original element that became
    /// core element `i`).
    pub survivors: Vec<Element>,
    /// Number of retraction rounds performed.
    pub rounds: usize,
}

impl CoreComputation {
    /// Size of the core's universe.
    pub fn core_size(&self) -> usize {
        self.core.universe_size()
    }
}

/// Is the structure a core, i.e. is every self-homomorphism injective?
///
/// Exhaustive check, exponential in `|A|` — intended for parameter-sized
/// structures.
pub fn is_core(a: &Structure) -> bool {
    // A is a core iff it does not retract onto a proper induced substructure,
    // iff there is no non-injective homomorphism A -> A.  We check the
    // equivalent condition: for every element x there is no homomorphism from
    // A into A - {x}.  (If some self-homomorphism were non-injective its image
    // would miss some element x and restricting the codomain gives such a
    // homomorphism; conversely such a homomorphism is a non-injective
    // self-homomorphism whenever |A| > 1.)
    if a.universe_size() == 1 {
        return true;
    }
    for x in a.universe() {
        let rest: BTreeSet<Element> = a.universe().filter(|&e| e != x).collect();
        let (sub, old_to_new) = a
            .induced_substructure(&rest)
            .expect("non-empty since |A| > 1");
        if let Some(h) = find_homomorphism(a, &sub) {
            // h maps A into A - {x}; composing with the inclusion gives a
            // non-injective self-homomorphism.
            let _ = (h, old_to_new);
            return false;
        }
    }
    true
}

/// Compute the core of a structure by iterated retraction.
///
/// Strategy: repeatedly look for an element `x` such that `A` maps
/// homomorphically into the induced substructure on `A \ {x}`; replace `A` by
/// the *image* of such a homomorphism (an induced substructure, possibly much
/// smaller than `A \ {x}`), and repeat until no element can be dropped.  The
/// final structure is a core and is homomorphically equivalent to the input.
pub fn core_of(a: &Structure) -> CoreComputation {
    meter::record(Meter::CoreComputation);
    let n = a.universe_size();
    // survivors[i] = original element currently representing position i.
    let mut survivors: Vec<Element> = a.universe().collect();
    // retraction in original numbering, built up by composition.
    let mut retraction: Vec<Element> = a.universe().collect();
    let mut current = a.clone();
    let mut rounds = 0usize;

    loop {
        rounds += 1;
        let mut shrunk = false;
        if current.universe_size() > 1 {
            for x in current.universe() {
                let rest: BTreeSet<Element> = current.universe().filter(|&e| e != x).collect();
                let (sub, old_to_new) = current.induced_substructure(&rest).expect("non-empty");
                if let Some(h) = find_homomorphism(&current, &sub) {
                    // Compose the global retraction with h (mapping current
                    // elements to sub elements, then back to original labels).
                    let new_to_old: Vec<Element> = rest.iter().copied().collect();
                    // Update retraction: every original element now goes to
                    // the original label of its (possibly new) image.
                    for r in retraction.iter_mut() {
                        // r is an original element label; find its current
                        // position, apply h, translate back to original label.
                        let cur_pos = survivors
                            .iter()
                            .position(|&s| s == *r)
                            .expect("retraction targets survive");
                        let img_in_sub = h[cur_pos];
                        let img_in_current = new_to_old[img_in_sub];
                        *r = survivors[img_in_current];
                    }
                    // Shrink current to the *image* of h for faster progress.
                    let image: BTreeSet<Element> = h.iter().copied().collect();
                    let image_in_current: BTreeSet<Element> =
                        image.iter().map(|&e| new_to_old[e]).collect();
                    let (smaller, _) = current
                        .induced_substructure(&image_in_current)
                        .expect("image non-empty");
                    survivors = image_in_current.iter().map(|&e| survivors[e]).collect();
                    current = smaller;
                    let _ = old_to_new;
                    shrunk = true;
                    break;
                }
            }
        }
        if !shrunk {
            break;
        }
    }

    debug_assert!(is_core(&current), "core_of must return a core");
    debug_assert!(
        homomorphism_exists(a, &current) && {
            // current is an induced substructure of a on `survivors`, so the
            // inclusion provides the converse homomorphism.
            true
        },
        "core must be homomorphically equivalent to the input"
    );
    debug_assert_eq!(retraction.len(), n);

    CoreComputation {
        core: current,
        retraction,
        survivors,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;
    use crate::homomorphism::{homomorphically_equivalent, homomorphism_exists};
    use crate::ops::star_expansion;

    #[test]
    fn single_vertex_is_core() {
        let one = Structure::new(crate::vocabulary::Vocabulary::graph(), 1).unwrap();
        assert!(is_core(&one));
        assert_eq!(core_of(&one).core_size(), 1);
    }

    #[test]
    fn trees_have_single_edge_core() {
        // Example 2.1: trees with at least two vertices have a single edge as
        // core (universe of size 2).
        for k in [2usize, 3, 5] {
            let t = families::tree_t(if k == 2 { 1 } else { k / 2 });
            let c = core_of(&t);
            assert_eq!(c.core_size(), 2, "tree of height {k}");
            assert!(is_core(&c.core));
        }
        let p6 = families::path(6);
        assert_eq!(core_of(&p6).core_size(), 2);
    }

    #[test]
    fn even_cycles_have_single_edge_core() {
        for k in [4usize, 6, 8] {
            let c = families::cycle(k);
            let cc = core_of(&c);
            assert_eq!(cc.core_size(), 2, "even cycle C_{k}");
        }
    }

    #[test]
    fn odd_cycles_are_cores() {
        for k in [3usize, 5, 7] {
            let c = families::cycle(k);
            assert!(is_core(&c), "odd cycle C_{k} must be a core");
            assert_eq!(core_of(&c).core_size(), k);
        }
    }

    #[test]
    fn directed_paths_are_cores() {
        // Example 2.1: directed paths are cores.
        for k in [2usize, 3, 5] {
            let p = families::directed_path(k);
            assert!(is_core(&p), "->P_{k} must be a core");
            assert_eq!(core_of(&p).core_size(), k);
        }
    }

    #[test]
    fn star_expansions_are_cores() {
        // Example 2.1: structures of the form A* are cores.
        let g = families::grid(2, 3);
        let gs = star_expansion(&g);
        assert!(is_core(&gs));
        let p4 = star_expansion(&families::path(4));
        assert!(is_core(&p4));
    }

    #[test]
    fn cliques_are_cores() {
        for k in 1..=4 {
            assert!(is_core(&families::clique(k)));
        }
    }

    #[test]
    fn core_is_homomorphically_equivalent_to_input() {
        let inputs = vec![
            families::path(5),
            families::cycle(6),
            families::cycle(5),
            families::grid(2, 3),
            families::star(4),
            families::caterpillar(3, 2),
        ];
        for a in inputs {
            let c = core_of(&a);
            assert!(homomorphically_equivalent(&a, &c.core));
            assert!(is_core(&c.core));
        }
    }

    #[test]
    fn retraction_is_a_homomorphism_onto_survivors() {
        let a = families::cycle(6);
        let c = core_of(&a);
        // The retraction maps every original element to a surviving original
        // element, and the induced map is a homomorphism from A to A.
        for &img in &c.retraction {
            assert!(c.survivors.contains(&img));
        }
        assert!(crate::homomorphism::is_homomorphism(&a, &a, &c.retraction));
        // Survivors induce exactly the core.
        assert_eq!(c.survivors.len(), c.core_size());
    }

    #[test]
    fn core_of_core_is_same_size() {
        let a = families::caterpillar(4, 1);
        let c1 = core_of(&a);
        let c2 = core_of(&c1.core);
        assert_eq!(c1.core_size(), c2.core_size());
    }

    #[test]
    fn grid_core_is_single_edge() {
        // Grids are bipartite with at least one edge, so their core is K_2.
        let g = families::grid(3, 3);
        assert_eq!(core_of(&g).core_size(), 2);
    }

    #[test]
    fn odd_cycle_with_pendant_path_retracts_to_cycle() {
        // A triangle with a pendant path attached retracts onto the triangle.
        use crate::builder::StructureBuilder;
        let mut b = StructureBuilder::graph();
        b.edge_named("a", "b");
        b.edge_named("b", "c");
        b.edge_named("c", "a");
        b.edge_named("c", "d");
        b.edge_named("d", "e");
        let s = b.build().unwrap();
        let c = core_of(&s);
        assert_eq!(c.core_size(), 3);
        assert!(homomorphism_exists(&families::cycle(3), &c.core));
    }
}
