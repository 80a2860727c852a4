//! Engine configuration, the decision tier table and per-instance
//! reports.
//!
//! Theorem 3.1 makes evaluation a function of one width profile: each tier
//! is licensed by exactly one measure of the (core's) Gaifman graph, tried
//! in the order of the paper's space hierarchy.  [`SolverChoice`] is that
//! table — [`SolverChoice::STANDARD`] is the order and
//! [`SolverChoice::admits`] the licence — and
//! [`crate::PreparedQuery::decide`] runs a tier's kernel program.  The
//! counting side keys the same way on the *original* query's widths
//! ([`crate::CountMethod`]).
//!
//! The rest of the machinery lives in the sibling modules:
//! [`crate::prepared`] (the once-per-query [`crate::PreparedQuery`]
//! artifact) and [`crate::service`] (the plan-caching [`crate::Engine`]
//! with its one batch form, [`crate::Engine::batch`]).

use crate::Degree;
use cq_decomp::WidthProfile;
use cq_solver::backtrack::BacktrackConfig;

/// A decision tier: which algorithm the engine picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverChoice {
    /// Tree-depth evaluation (para-L algorithm, Lemma 3.3): the kernel
    /// forest recursion over the elimination-forest certificate, `O(td)`
    /// images in memory.
    TreeDepth,
    /// Bounded pathwidth (PATH algorithm, Theorem 4.6): the kernel tree DP
    /// over the path-decomposition certificate, a tree decomposition whose
    /// tree is a path.  The Theorem 4.6 staircase sweep
    /// ([`cq_solver::pathdp::hom_via_staircase`]) is its reference.
    PathDecomposition,
    /// Tree-decomposition dynamic programming (TREE algorithm) with
    /// per-edge separator hash-joins.
    TreeDecomposition,
    /// Whole-query kernel search (no structural guarantee); admits every
    /// query.
    Backtracking,
}

impl SolverChoice {
    /// The standard dispatch order of Theorem 3.1: tree depth, then
    /// pathwidth, then treewidth, then the backtracking fallback.
    pub const STANDARD: [SolverChoice; 4] = [
        SolverChoice::TreeDepth,
        SolverChoice::PathDecomposition,
        SolverChoice::TreeDecomposition,
        SolverChoice::Backtracking,
    ];

    /// Whether this tier's structural licence covers a query with the
    /// given (core) width profile under `config`'s thresholds.
    pub fn admits(self, widths: WidthProfile, config: &EngineConfig) -> bool {
        match self {
            SolverChoice::TreeDepth => widths.treedepth <= config.treedepth_threshold,
            SolverChoice::PathDecomposition => widths.pathwidth <= config.pathwidth_threshold,
            SolverChoice::TreeDecomposition => widths.treewidth <= config.treewidth_threshold,
            SolverChoice::Backtracking => true,
        }
    }
}

/// Engine configuration (the ablation knobs of experiment E12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Evaluate the *core* of the query instead of the query itself
    /// (Theorem 3.1 classifies by cores; decision answers are unchanged, and
    /// the widths of the core are never larger).
    pub use_core: bool,
    /// Tree-depth threshold below which the para-L algorithm is used.
    pub treedepth_threshold: usize,
    /// Pathwidth threshold below which the path tier is used.
    pub pathwidth_threshold: usize,
    /// Treewidth threshold below which the tree DP is used.
    pub treewidth_threshold: usize,
    /// Worker threads for [`crate::Engine::batch`].  `0` (the default) means
    /// "use the machine's available parallelism"; `1` forces the sequential
    /// path.  Results are returned in input order and are identical for
    /// every worker count.
    pub workers: usize,
    /// Configuration of the backtracking fallback.
    ///
    /// The engine's fallback is the flat-kernel whole-query search, whose
    /// unary/incidence prefilter is always on and subsumes the unary half
    /// of arc consistency — so of these knobs only `fail_first_ordering`
    /// changes engine behaviour.  The AC knobs
    /// (`preprocess_arc_consistency`, `maintain_arc_consistency`) still
    /// drive the retained reference search
    /// ([`cq_solver::backtrack::BacktrackSolver`]), which the E12 ablation
    /// bench exercises directly.
    pub backtrack: BacktrackConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            use_core: true,
            treedepth_threshold: 3,
            pathwidth_threshold: 2,
            treewidth_threshold: 3,
            workers: 0,
            backtrack: BacktrackConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Whether plans prepared under `self` are reusable under `other`: true
    /// when every **plan-shaping** knob matches — core preprocessing (it
    /// decides what structure the certificates describe) and the three
    /// width thresholds (they decide the stored degree hint).  Runtime-only
    /// knobs (`workers`, the backtracking ablation flags) do not enter: a
    /// plan is the same plan no matter how many threads later evaluate it.
    ///
    /// [`crate::Engine::load_plans`] consults this before adopting a
    /// store's records; a mismatch rejects them as stale.
    pub fn plan_compatible(&self, other: &EngineConfig) -> bool {
        self.use_core == other.use_core
            && self.treedepth_threshold == other.treedepth_threshold
            && self.pathwidth_threshold == other.pathwidth_threshold
            && self.treewidth_threshold == other.treewidth_threshold
    }
}

/// What the engine did and found.
///
/// `PartialEq`/`Eq` so batch results can be compared wholesale — the
/// parallel-determinism tests assert that [`crate::Engine::batch`] under any worker
/// count returns a sequence identical to the sequential path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Whether a homomorphism exists.
    pub exists: bool,
    /// The algorithm chosen.
    pub choice: SolverChoice,
    /// The degree the *single* query would contribute to a class
    /// classification (based on its own core widths and the thresholds).
    pub degree_hint: Degree,
    /// Width profile (treewidth, pathwidth, tree depth) of the evaluated
    /// query (the core when `use_core` is set).
    pub widths: cq_decomp::WidthProfile,
    /// Universe size of the evaluated query.
    pub evaluated_query_size: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use cq_structures::{families, homomorphism_exists, star_expansion};

    #[test]
    fn engine_answers_match_reference_across_choices() {
        let queries = [
            families::star(4),                    // tree depth 2
            star_expansion(&families::path(6)),   // pathwidth 1, depth grows
            star_expansion(&families::tree_t(2)), // treewidth 1, pathwidth grows
            families::clique(4),                  // nothing bounded
        ];
        let targets = [
            families::clique(4),
            families::cycle(6),
            families::grid(3, 3),
        ];
        for a in &queries {
            for b in &targets {
                // Skip vocabulary mismatches (coloured queries vs plain graphs):
                // those instances are trivially unsatisfiable but uninteresting.
                let report = Engine::new(EngineConfig::default()).solve(a, b);
                assert_eq!(report.exists, homomorphism_exists(a, b), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn engine_picks_the_licensed_algorithm() {
        let cfg = EngineConfig::default();
        let r1 = Engine::new(cfg).solve(&families::star(5), &families::clique(3));
        assert_eq!(r1.choice, SolverChoice::TreeDepth);
        assert_eq!(r1.degree_hint, Degree::ParaL);

        let long_colored_path = star_expansion(&families::path(9));
        let target = cq_structures::ops::colored_target(9, &families::path(12), |e| vec![e, e + 1]);
        let r2 = Engine::new(cfg).solve(&long_colored_path, &target);
        assert_eq!(r2.choice, SolverChoice::PathDecomposition);

        let colored_tree = star_expansion(&families::tree_t(3));
        let tree_target =
            cq_structures::ops::colored_target(15, &families::clique(3), |_| (0..3).collect());
        // T*_3 has pathwidth 2: lower the pathwidth threshold so the tree DP
        // is the licensed algorithm.
        let tree_cfg = EngineConfig {
            pathwidth_threshold: 1,
            ..cfg
        };
        let r3 = Engine::new(tree_cfg).solve(&colored_tree, &tree_target);
        assert_eq!(r3.choice, SolverChoice::TreeDecomposition);
        assert!(r3.exists);

        let r4 = Engine::new(cfg).solve(&families::clique(5), &families::clique(6));
        assert_eq!(r4.choice, SolverChoice::Backtracking);
        assert_eq!(r4.degree_hint, Degree::W1Hard);
        assert!(r4.exists);
    }

    #[test]
    fn core_ablation_shrinks_the_evaluated_query() {
        let c8 = families::cycle(8);
        let with_core = Engine::new(EngineConfig::default()).solve(&c8, &families::path(2));
        let without_core = Engine::new(EngineConfig {
            use_core: false,
            ..EngineConfig::default()
        })
        .solve(&c8, &families::path(2));
        assert_eq!(with_core.exists, without_core.exists);
        assert!(with_core.evaluated_query_size < without_core.evaluated_query_size);
        assert!(with_core.widths.treedepth <= without_core.widths.treedepth);
    }
}
