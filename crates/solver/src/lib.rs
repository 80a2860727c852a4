//! # cq-solver
//!
//! Homomorphism, embedding and counting algorithms for conjunctive-query
//! evaluation, organized by the structural property that licenses them —
//! mirroring the three degrees of the Classification Theorem (Theorem 3.1)
//! and the counting classification (Theorem 6.1):
//!
//! | property of the query (core) | decision algorithm | counting algorithm |
//! |---|---|---|
//! | bounded tree depth | [`treedepth::hom_via_treedepth`] (compile to a `{∧,∃}`-sentence of bounded rank and model-check it in pl-space, Lemma 3.3) | [`treedepth::count_hom_via_treedepth`] (sum–product over the elimination forest, Theorem 6.1 (3)) |
//! | bounded pathwidth | [`pathdp::hom_via_path_decomposition`] (sweep a staircase path decomposition keeping one partial homomorphism frontier, Theorem 4.6); the kernel runs the tree DP over the path decomposition instead | via the tree DP |
//! | bounded treewidth | [`treedec::hom_via_tree_decomposition`] (bottom-up DP over a tree decomposition) | [`treedec::count_hom_via_tree_decomposition`] |
//! | none (baseline) | [`backtrack::BacktrackSolver`] (backtracking + arc consistency) | brute-force enumeration |
//!
//! Embedding problems are handled through colour coding ([`colour_coding`],
//! Lemma 3.14/3.15): the concrete PATH-complete problems of Theorem 4.7 —
//! `p-st-PATH`, `p-EMB(P)` (k-path), `p-EMB(C)` (k-cycle) and their directed
//! versions — have dedicated solvers in [`problems`].
//!
//! The table above names the **reference** implementations; the [`kernel`]
//! module provides the indexed, flat-row production counterparts
//! (compiled bag programs, prefilter domains, separator hash-joins) that
//! the engine's tiers actually dispatch to: one tree DP, which serves the
//! pathwidth and treewidth rows alike, one forest recursion and one
//! search.  The reference versions are retained as the oracle the kernel
//! is differentially tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backtrack;
pub mod colour_coding;
pub mod domains;
pub mod kernel;
pub mod pathdp;
pub mod problems;
pub mod semiring;
pub mod treedec;
pub mod treedepth;

pub use backtrack::BacktrackSolver;
pub use colour_coding::{hash_coloring, ColorCodingConfig};
pub use domains::{arc_consistency, initial_domains, Domains};
pub use kernel::{
    bag_rows_indexed, program_compilation_count, AnswerCursor, AnswerProgram, BagProgram,
    ForestProgram, ForestRun, GroupTable, KernelSearchStats, QueryDomains, RetainedEvalStats,
    SearchProgram, TreeDpProgram, TreeDpRun, TreeIncrementalState, ViableDomains,
};
pub use pathdp::{hom_via_path_decomposition, hom_via_staircase, PathDpReport};
pub use problems::{has_k_cycle, has_k_path, st_path_at_most};
pub use semiring::{
    BoolSemiring, CheckedNatSemiring, Cost, MaxWeightSemiring, MinCostSemiring, Nat, Semiring,
};
pub use treedec::{count_hom_via_tree_decomposition, hom_via_tree_decomposition};
pub use treedepth::{count_hom_via_treedepth, hom_via_compiled_sentence, hom_via_treedepth};
