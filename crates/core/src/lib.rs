//! # cq-core — the fine classification of conjunctive query classes
//!
//! The primary contribution of Chen & Müller (PODS 2013) is the
//! Classification Theorem (Theorem 3.1): for a decidable class `A` of
//! structures of bounded arity whose cores have bounded treewidth, the
//! problem `p-HOM(A)` falls into exactly one of three degrees under
//! pl-reductions — equivalent to `p-HOM(T*)` (the class TREE), equivalent to
//! `p-HOM(P*)` (the class PATH), or solvable in `para-L` — and which degree
//! applies is determined by whether the *cores* of `A` have bounded
//! pathwidth and bounded tree depth.  Theorem 6.1 gives the analogous
//! counting classification.
//!
//! This crate implements that classification as an executable object:
//!
//! * [`Degree`] — the degrees of the decision classification, plus the
//!   `W[1]`-hard degree outside the bounded-treewidth regime (Grohe's
//!   theorem, quoted as background in the paper);
//! * [`classify_members`] — exact per-member analysis of a finite family
//!   (cores, width profile of the cores);
//! * [`classify_generated`] — classification of an infinite class presented
//!   by a generator, by sampling a prefix and detecting which width measures
//!   of the cores grow without bound;
//! * the **prepared-query engine** — the "preprocess the query once, answer
//!   against many databases" layer:
//!   - [`prepared`] / [`PreparedQuery`] — the once-per-query artifact (core,
//!     Gaifman graph, width profile **with** decomposition certificates);
//!   - [`engine`] / [`SolverChoice`] — the decision tier table: tree-depth
//!     forest evaluation / tree DP over the path decomposition /
//!     tree-decomposition DP / backtracking, each licensed by one width of
//!     the core, tried in [`SolverChoice::STANDARD`] order; ablations
//!     (experiment E12) drop a tier with [`Engine::without_tier`];
//!   - [`counting`] / [`CountMethod`] — the Theorem 6.1 counting analogue:
//!     the tree-decomposition counting DP or brute force
//!     ([`CountMethod::for_widths`]), with the elimination-forest
//!     sum–product kept as the [`CountMethod::ForestSumProduct`] reference,
//!     dispatching on the **original** query's widths, because counting —
//!     unlike decision — is not invariant under taking cores;
//!   - [`answers`] — free-variable answers: [`Engine::count_answers`]
//!     counts the distinct projections of the homomorphisms onto a query's
//!     free variables, and [`Engine::answers`] enumerates them in pages
//!     with bounded delay, both through
//!     [`cq_solver::kernel::AnswerProgram`];
//!   - [`aggregates`] — the weighted generalization: min-cost / max-weight
//!     homomorphisms through the same kernel DPs instantiated at the
//!     tropical semirings ([`Engine::aggregate`]), sharing counting's tier
//!     table and compiled programs;
//!   - [`service`] / [`Engine`] — the sharded LRU plan cache keyed by an
//!     isomorphism-invariant query fingerprint (single-flight preparation
//!     under concurrent misses), one single-operation method per request
//!     kind ([`Engine::solve`], [`Engine::count_instance`],
//!     [`Engine::aggregate`], [`Engine::count_answers`], [`Engine::answers`]),
//!     one parallel batch form over any of them ([`Engine::batch`], worker
//!     count via [`EngineConfig`]), and the engine-backed Lemma 6.2
//!     reduction [`Engine::count_star`];
//!   - [`engine`] also holds the configuration and the reports;
//!   - [`persist`] / [`PlanStore`] — the versioned, checksummed on-disk
//!     plan store: [`Engine::save_plans`] snapshots the cache,
//!     [`Engine::load_plans`] / [`Engine::with_plan_store`] warm-start a
//!     fresh engine with every loaded plan verified before reuse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregates;
pub mod answers;
pub mod counting;
pub mod engine;
mod lru;
pub mod persist;
pub mod prepared;
pub mod service;

use cq_decomp::{width_profile, WidthProfile};
use cq_graphs::gaifman_graph;
use cq_structures::{core_of, Structure};

pub use aggregates::{AggregateObjective, AggregateReport};
pub use answers::{AnswerCountReport, AnswerMethod, AnswerPage};
pub use counting::{CountMethod, CountOutcome, CountReport};
pub use engine::{EngineConfig, EngineReport, SolverChoice};
pub use persist::{
    PersistError, PlanStore, StoredPlan, WarmStartSummary, PLAN_STORE_MAGIC, PLAN_STORE_VERSION,
};
pub use prepared::PreparedQuery;
pub use service::{
    CacheStats, DeltaReport, Engine, IndexStats, PrepStats, QueryId, DEFAULT_INDEX_CACHE_CAPACITY,
    DEFAULT_PLAN_CACHE_CAPACITY,
};

/// The degrees of the fine classification (Theorem 3.1, plus the
/// intractable degree of Grohe's classification for context).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Degree {
    /// `p-HOM(A) ∈ para-L` — the cores have bounded tree depth
    /// (Theorem 3.1 (3)).
    ParaL,
    /// `p-HOM(A) ≡pl p-HOM(P*)` — bounded pathwidth, unbounded tree depth
    /// (Theorem 3.1 (2)); complete for the class PATH.
    PathComplete,
    /// `p-HOM(A) ≡pl p-HOM(T*)` — bounded treewidth, unbounded pathwidth
    /// (Theorem 3.1 (1)); complete for the class TREE.
    TreeComplete,
    /// Outside the scope of Theorem 3.1: the cores have unbounded treewidth,
    /// so `p-HOM(A)` is `W[1]`-hard by Grohe's classification (quoted in the
    /// introduction of the paper).
    W1Hard,
}

impl Degree {
    /// The degree dictated by the three boundedness answers about the cores
    /// of the class (treewidth, pathwidth, tree depth) — the statement of
    /// Theorem 3.1.
    pub fn from_boundedness(
        bounded_treewidth: bool,
        bounded_pathwidth: bool,
        bounded_treedepth: bool,
    ) -> Degree {
        if !bounded_treewidth {
            Degree::W1Hard
        } else if !bounded_pathwidth {
            Degree::TreeComplete
        } else if !bounded_treedepth {
            Degree::PathComplete
        } else {
            Degree::ParaL
        }
    }

    /// The degree one query's width profile earns against `config`'s
    /// thresholds — the per-query hint the engine reports.
    pub fn of_widths(widths: WidthProfile, config: &EngineConfig) -> Degree {
        Degree::from_boundedness(
            widths.treewidth <= config.treewidth_threshold,
            widths.pathwidth <= config.pathwidth_threshold,
            widths.treedepth <= config.treedepth_threshold,
        )
    }
}

/// The exact analysis of one class member: its core and the width profile of
/// the core's Gaifman graph.
#[derive(Debug, Clone)]
pub struct MemberAnalysis {
    /// Universe size of the member.
    pub size: usize,
    /// Universe size of its core.
    pub core_size: usize,
    /// Width profile (treewidth, pathwidth, tree depth) of the core.
    pub core_widths: WidthProfile,
}

/// Analyse every member of a finite family exactly.
pub fn classify_members(members: &[Structure]) -> Vec<MemberAnalysis> {
    members
        .iter()
        .map(|m| {
            let core = core_of(m).core;
            MemberAnalysis {
                size: m.universe_size(),
                core_size: core.universe_size(),
                core_widths: width_profile(&gaifman_graph(&core)),
            }
        })
        .collect()
}

/// The outcome of classifying a generated (infinite) class from a sampled
/// prefix.
#[derive(Debug, Clone)]
pub struct Classification {
    /// The inferred degree.
    pub degree: Degree,
    /// Per-sample analyses (in generator order).
    pub samples: Vec<MemberAnalysis>,
    /// Largest core treewidth observed.
    pub max_core_treewidth: usize,
    /// Largest core pathwidth observed.
    pub max_core_pathwidth: usize,
    /// Largest core tree depth observed.
    pub max_core_treedepth: usize,
    /// Which measures were judged to grow without bound.
    pub growing: GrowthFlags,
}

/// Which of the three measures appear to grow along the sampled prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GrowthFlags {
    /// Core treewidth grows.
    pub treewidth: bool,
    /// Core pathwidth grows.
    pub pathwidth: bool,
    /// Core tree depth grows.
    pub treedepth: bool,
}

/// Judge whether a sampled width sequence is growing without bound: the
/// maximum over the last two thirds strictly exceeds the value one third of
/// the way in.  (Width measures of structured families either stabilize —
/// bounded — or keep creeping up, possibly slowly, e.g. logarithmically for
/// the tree depth of paths; this test distinguishes the two on the sampled
/// prefix.)
fn grows(values: &[usize]) -> bool {
    if values.len() < 3 {
        return false;
    }
    let third = values[values.len() / 3];
    let later_max = values[values.len() / 3..]
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    later_max > third
}

/// Classify a class presented by a generator `gen(i)` for `i = 0, 1, …`,
/// sampling `samples` members.
///
/// The growth detection is a *semi-decision* heuristic (Theorem 3.1's
/// hypotheses are about all members, which no algorithm can inspect); for
/// the structured families used in the paper and the experiments — paths,
/// cycles, trees, grids, `B_k`, stars, caterpillars, cliques — sampling a
/// modest prefix identifies the degree correctly, and the returned
/// [`Classification::samples`] lets callers audit the decision.
pub fn classify_generated(gen: impl Fn(usize) -> Structure, samples: usize) -> Classification {
    let members: Vec<Structure> = (0..samples).map(gen).collect();
    let analyses = classify_members(&members);
    let tw: Vec<usize> = analyses.iter().map(|a| a.core_widths.treewidth).collect();
    let pw: Vec<usize> = analyses.iter().map(|a| a.core_widths.pathwidth).collect();
    let td: Vec<usize> = analyses.iter().map(|a| a.core_widths.treedepth).collect();
    let growing = GrowthFlags {
        treewidth: grows(&tw),
        pathwidth: grows(&pw),
        treedepth: grows(&td),
    };
    let degree =
        Degree::from_boundedness(!growing.treewidth, !growing.pathwidth, !growing.treedepth);
    Classification {
        degree,
        max_core_treewidth: tw.iter().copied().max().unwrap_or(0),
        max_core_pathwidth: pw.iter().copied().max().unwrap_or(0),
        max_core_treedepth: td.iter().copied().max().unwrap_or(0),
        samples: analyses,
        growing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_structures::{families, star_expansion};

    const SAMPLES: usize = 7;

    #[test]
    fn degree_from_boundedness_matches_theorem() {
        assert_eq!(Degree::from_boundedness(true, true, true), Degree::ParaL);
        assert_eq!(
            Degree::from_boundedness(true, true, false),
            Degree::PathComplete
        );
        assert_eq!(
            Degree::from_boundedness(true, false, false),
            Degree::TreeComplete
        );
        assert_eq!(
            Degree::from_boundedness(false, false, false),
            Degree::W1Hard
        );
    }

    #[test]
    fn undirected_paths_collapse_to_para_l() {
        // The core of every undirected path is a single edge, so despite the
        // paths growing, the class sits in para-L.
        let c = classify_generated(|i| families::path(i + 2), SAMPLES);
        assert_eq!(c.degree, Degree::ParaL);
        assert!(c.max_core_treedepth <= 2);
    }

    #[test]
    fn directed_paths_are_path_complete() {
        // Directed paths are cores (Example 2.1) with pathwidth 1 and growing
        // tree depth: degree PATH.
        let c = classify_generated(|i| families::directed_path(i + 2), SAMPLES + 3);
        assert_eq!(c.degree, Degree::PathComplete);
        assert_eq!(c.max_core_pathwidth, 1);
        assert!(c.growing.treedepth);
    }

    #[test]
    fn colored_paths_are_path_complete() {
        // The paper's canonical PATH-complete family P*.
        let c = classify_generated(|i| star_expansion(&families::path(i + 2)), SAMPLES + 3);
        assert_eq!(c.degree, Degree::PathComplete);
    }

    #[test]
    fn colored_trees_are_tree_complete() {
        // The canonical TREE-complete family T*: pathwidth of complete binary
        // trees grows (Example 2.2), treewidth stays 1.
        let c = classify_generated(|i| star_expansion(&families::tree_t(i + 1)), 3);
        assert_eq!(c.degree, Degree::TreeComplete);
        assert_eq!(c.max_core_treewidth, 1);
    }

    #[test]
    fn odd_cycles_are_path_complete() {
        // Odd cycles are cores with pathwidth 2 and growing tree depth.
        let c = classify_generated(|i| families::cycle(2 * i + 3), SAMPLES);
        assert_eq!(c.degree, Degree::PathComplete);
        assert_eq!(c.max_core_pathwidth, 2);
    }

    #[test]
    fn even_cycles_collapse_to_para_l() {
        let c = classify_generated(|i| families::cycle(2 * i + 4), SAMPLES);
        assert_eq!(c.degree, Degree::ParaL);
    }

    #[test]
    fn stars_and_caterpillar_cores_stay_para_l() {
        let stars = classify_generated(|i| families::star(i + 1), SAMPLES);
        assert_eq!(stars.degree, Degree::ParaL);
        let cats = classify_generated(|i| families::caterpillar(i + 1, 2), SAMPLES);
        assert_eq!(cats.degree, Degree::ParaL);
    }

    #[test]
    fn colored_grids_are_w1_hard() {
        // Grids* are cores with growing treewidth: outside Theorem 3.1,
        // W[1]-hard by Grohe's classification.
        let c = classify_generated(|i| star_expansion(&families::grid(i + 1, i + 1)), 4);
        assert_eq!(c.degree, Degree::W1Hard);
        assert!(c.growing.treewidth);
    }

    #[test]
    fn cliques_are_w1_hard() {
        let c = classify_generated(|i| families::clique(i + 1), SAMPLES);
        assert_eq!(c.degree, Degree::W1Hard);
    }

    #[test]
    fn member_analysis_reports_core_shrinkage() {
        let analyses = classify_members(&[families::cycle(6), families::cycle(5)]);
        assert_eq!(analyses[0].core_size, 2);
        assert_eq!(analyses[1].core_size, 5);
        assert!(analyses[0].core_widths.treedepth <= 2);
    }

    #[test]
    fn finite_families_have_everything_bounded() {
        // A single fixed structure: trivially para-L territory.
        let c = classify_generated(|_| families::grid(2, 2), SAMPLES);
        assert_eq!(c.degree, Degree::ParaL);
    }
}
