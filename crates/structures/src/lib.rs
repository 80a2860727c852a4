//! # cq-structures
//!
//! Finite relational structures, homomorphisms, cores, and the structure
//! families used throughout Chen & Müller, *"The Fine Classification of
//! Conjunctive Queries and Parameterized Logarithmic Space Complexity"*
//! (PODS 2013).
//!
//! This crate is the foundation of the `cq-fine` workspace.  It provides:
//!
//! * [`Vocabulary`] — finite sets of relation symbols with arities;
//! * [`Structure`] — finite relational structures over a vocabulary, with
//!   elements identified with `0..n`;
//! * homomorphism machinery ([`homomorphism`]) — existence, enumeration,
//!   counting and embedding search by plain backtracking (the *reference*
//!   implementations against which the clever solvers in `cq-solver` are
//!   validated);
//! * `core_of` (in [`core`]) — computation of the core of a structure
//!   (Section 2.1 of the paper);
//! * structure operations ([`ops`]) — induced substructures, restrictions,
//!   expansions, direct products, disjoint unions, and the `A*` expansion
//!   that attaches a fresh unary singleton relation `C_a` to every element;
//! * the concrete families of Section 2.1 ([`families`]) — directed and
//!   undirected paths `->P_k` / `P_k`, cycles `->C_k` / `C_k`, the binary
//!   tree structures `->B_k` / `B_k`, the trees `T_k`, grids, cliques and
//!   stars;
//! * boolean conjunctive queries ([`cq`]) and the Chandra–Merlin
//!   correspondence between queries and structures;
//! * the hand-rolled binary [`codec`] (`Encode` / `Decode`) behind the
//!   persistent plan store of `cq_core::persist`;
//! * the one work [`meter`] — per-thread and process-wide counts of the
//!   expensive steps (core computations, exact width DPs, kernel program
//!   compilations, index builds) that tests and benches assert on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod codec;
pub mod core;
pub mod cq;
pub mod delta;
pub mod error;
pub mod families;
pub mod homomorphism;
pub mod index;
pub mod meter;
pub mod ops;
pub mod structure;
pub mod vocabulary;
pub mod weights;

pub use crate::core::{core_of, is_core, CoreComputation};
pub use builder::StructureBuilder;
pub use cq::{Atom, ConjunctiveQuery};
pub use delta::{AppliedDelta, DeltaBatch};
pub use error::StructureError;
pub use homomorphism::{
    answers_bruteforce, count_homomorphisms_bruteforce, embedding_exists, find_embedding,
    find_homomorphism, homomorphism_exists, homomorphisms_iter, is_homomorphism,
    is_partial_homomorphism, PartialHom,
};
pub use index::{index_build_count, structure_hash, IndexState, StructureIndex};
pub use ops::{direct_product, disjoint_union, relabeled, star_expansion, symmetric_closure};
pub use structure::{Element, Relation, Structure, Tuple};
pub use vocabulary::{RelationSymbol, SymbolId, Vocabulary};
pub use weights::TupleWeights;

/// The size measure `|A|` used by the paper for parameterization:
/// `|τ| + |A| + Σ_R |R^A| · ar(R)`.
///
/// This is re-exported at the crate root because it is the parameter of all
/// the parameterized problems `p-HOM(A)`, `p-EMB(A)`, `p-#HOM(A)`.
pub fn structure_size(a: &Structure) -> usize {
    a.paper_size()
}
