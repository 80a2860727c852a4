//! Answer counting and bounded-delay answer enumeration — the free-variable
//! face of the engine.
//!
//! A conjunctive query with free variables
//! ([`cq_structures::ConjunctiveQuery::mark_free`]) no longer asks a yes/no
//! question: its answers are the projections of the homomorphisms from the
//! canonical structure into the database onto the free positions, counted
//! *as a set* (two homomorphisms agreeing on the free part are one answer).
//! This sits strictly between decision and counting in the classification
//! landscape — like counting (Theorem 6.1), it is **not** invariant under
//! taking cores, so everything here runs on the *original* structure with
//! the counting certificates of
//! [`PreparedQuery::counting_analysis`](crate::PreparedQuery::counting_analysis);
//! unlike counting, the tractable regime pays a width price of at most the
//! number of free variables: counts group the root rows of the answer
//! closure ([`cq_decomp::TreeDecomposition::answer_closure`], each free
//! variable adjoined only on its path to the root bag), and the cursor
//! pins prefixes over the free-adjoined decomposition
//! ([`cq_decomp::TreeDecomposition::answer_decomposition`], every free
//! variable in every bag).
//!
//! The engine entry points are [`Engine::count_answers`] and the paged
//! [`Engine::answers`] (batched through [`Engine::batch`]); the kernel
//! machinery they dispatch to is [`cq_solver::kernel::AnswerProgram`] (grouped root-bag DP for counting;
//! for enumeration, one full-reducer pass per index version that leaves
//! each free variable's viable domain, then a pinned-prefix cursor over
//! those domains with per-answer delay independent of the total answer
//! count).  The structurally unlicensed fallback is
//! [`cq_structures::answers_bruteforce`], which materializes the same
//! sorted, deduplicated projection by exhaustive enumeration.
//!
//! [`Engine::count_answers`]: crate::Engine::count_answers
//! [`Engine::answers`]: crate::Engine::answers
//! [`Engine::batch`]: crate::Engine::batch

use crate::Degree;
use cq_decomp::WidthProfile;

/// Which algorithm produced an answer count or answer page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnswerMethod {
    /// The answer-closure tree-decomposition DP / pinned-prefix cursor of
    /// [`cq_solver::kernel::AnswerProgram`] — the structurally licensed
    /// path (counting treewidth within the engine's threshold).
    TreeDecompositionDp,
    /// Exhaustive homomorphism enumeration with projection
    /// ([`cq_structures::answers_bruteforce`]) — no structural guarantee.
    BruteForce,
}

/// The result of counting a query's answers against one database
/// ([`crate::Engine::count_answers`]).
///
/// The count is the number of **distinct** free-variable assignments
/// extendable to a full homomorphism — a set cardinality, bounded by
/// `|B|^k` for `k` free variables, so unlike homomorphism counting it
/// cannot overflow `u64` on anything that fits in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerCountReport {
    /// Number of distinct answers.
    pub answers: u64,
    /// Which algorithm produced the count.
    pub method: AnswerMethod,
    /// Degree of the *decision* classification the submitted query's
    /// original widths would dictate (Theorem 3.1 via the engine's
    /// thresholds) — context, not the dispatch criterion.
    pub degree_hint: Degree,
    /// Width profile of the submitted query exactly as written (the
    /// counting widths — answers are not core-invariant).
    pub widths: WidthProfile,
    /// Width of the answer closure the grouped DP ran on (at most
    /// `widths.treewidth + free_count`, less when free variables sit near
    /// the root bag).  On the brute-force path, the `widths.treewidth +
    /// free_count` bound that the engine declined to pay is reported.
    pub answer_width: usize,
    /// Number of free variables (the arity of every answer row).
    pub free_count: usize,
}

/// One page of a query's answers ([`crate::Engine::answers`]):
/// a contiguous window of the full enumeration in lexicographically
/// ascending row order (rows are tuples of database elements aligned with
/// [`cq_structures::ConjunctiveQuery::free_variables`] order).
///
/// Pages are deterministic: the same `(query, database)` yields the same
/// total order on every call and every worker count, so
/// `answers(q, db, 0, n)` followed by `answers(q, db, n, m)` is exactly the
/// prefix-split of `answers(q, db, 0, n + m)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerPage {
    /// The rows of this page, each of length `free_count`, in ascending
    /// lexicographic order.
    pub rows: Vec<Vec<u32>>,
    /// The offset this page was requested at (rows skipped before the
    /// first returned row).
    pub offset: u64,
    /// Whether at least one answer exists beyond this page.
    pub has_more: bool,
    /// Which algorithm produced the page.
    pub method: AnswerMethod,
}
