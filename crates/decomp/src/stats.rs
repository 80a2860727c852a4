//! Thread-local instrumentation counters for the exponential width
//! computations.
//!
//! The exact width functions ([`crate::treewidth::treewidth_exact`],
//! [`crate::pathwidth::pathwidth_exact`], [`crate::treedepth::treedepth_exact`])
//! are the expensive per-query work of the evaluation pipeline, so the
//! prepared-query engine must invoke each **at most once per query**.  These
//! counters exist so tests can assert that property instead of trusting it:
//! they are bumped at the entry of each exact function and read back as a
//! [`DecompCounts`] snapshot.
//!
//! The counters are thread-local, which makes them race-free under Rust's
//! default multi-threaded test harness (each `#[test]` runs on its own
//! thread and observes only its own calls).  Thread-locality also means a
//! caller that fans work out to worker threads (the engine's parallel
//! `Engine::batch`) sees **zero** on its own thread: for cross-thread totals
//! use [`global_counts`], a process-wide monotonic aggregate bumped by the
//! same record points, or the engine's own per-engine aggregation
//! (`Engine::prep_stats`), which sums worker-thread deltas exactly.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static TREEWIDTH_CALLS: Cell<u64> = const { Cell::new(0) };
    static PATHWIDTH_CALLS: Cell<u64> = const { Cell::new(0) };
    static TREEDEPTH_CALLS: Cell<u64> = const { Cell::new(0) };
}

static GLOBAL_TREEWIDTH_CALLS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_PATHWIDTH_CALLS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_TREEDEPTH_CALLS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the per-thread width-computation call counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecompCounts {
    /// Calls to `treewidth_exact` on this thread.
    pub treewidth_calls: u64,
    /// Calls to `pathwidth_exact` on this thread.
    pub pathwidth_calls: u64,
    /// Calls to `treedepth_exact` on this thread.
    pub treedepth_calls: u64,
}

impl DecompCounts {
    /// Total number of exact width computations.
    pub fn total(&self) -> u64 {
        self.treewidth_calls + self.pathwidth_calls + self.treedepth_calls
    }

    /// Component-wise difference since an earlier snapshot.
    pub fn since(&self, earlier: &DecompCounts) -> DecompCounts {
        DecompCounts {
            treewidth_calls: self.treewidth_calls - earlier.treewidth_calls,
            pathwidth_calls: self.pathwidth_calls - earlier.pathwidth_calls,
            treedepth_calls: self.treedepth_calls - earlier.treedepth_calls,
        }
    }
}

/// Read the current thread's counters.
pub fn counts() -> DecompCounts {
    DecompCounts {
        treewidth_calls: TREEWIDTH_CALLS.with(Cell::get),
        pathwidth_calls: PATHWIDTH_CALLS.with(Cell::get),
        treedepth_calls: TREEDEPTH_CALLS.with(Cell::get),
    }
}

/// Reset the current thread's counters to zero.
///
/// The process-wide aggregate of [`global_counts`] is intentionally not
/// resettable: concurrent threads may be mid-measurement, so callers diff
/// snapshots with [`DecompCounts::since`] instead.
pub fn reset() {
    TREEWIDTH_CALLS.with(|c| c.set(0));
    PATHWIDTH_CALLS.with(|c| c.set(0));
    TREEDEPTH_CALLS.with(|c| c.set(0));
}

/// Read the process-wide counters, aggregated across **all** threads.
///
/// Monotonically non-decreasing for the lifetime of the process; callers
/// measure work by diffing two snapshots ([`DecompCounts::since`]).  This is
/// the counter to consult when the measured code fans out to worker threads
/// (the per-thread [`counts`] would silently undercount in that case).
pub fn global_counts() -> DecompCounts {
    DecompCounts {
        treewidth_calls: GLOBAL_TREEWIDTH_CALLS.load(Ordering::Relaxed),
        pathwidth_calls: GLOBAL_PATHWIDTH_CALLS.load(Ordering::Relaxed),
        treedepth_calls: GLOBAL_TREEDEPTH_CALLS.load(Ordering::Relaxed),
    }
}

pub(crate) fn record_treewidth_call() {
    TREEWIDTH_CALLS.with(|c| c.set(c.get() + 1));
    GLOBAL_TREEWIDTH_CALLS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_pathwidth_call() {
    PATHWIDTH_CALLS.with(|c| c.set(c.get() + 1));
    GLOBAL_PATHWIDTH_CALLS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_treedepth_call() {
    TREEDEPTH_CALLS.with(|c| c.set(c.get() + 1));
    GLOBAL_TREEDEPTH_CALLS.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_graphs::families::cycle_graph;

    #[test]
    fn counters_track_exact_calls_on_this_thread() {
        let before = counts();
        let g = cycle_graph(5);
        let _ = crate::treewidth::treewidth_exact(&g);
        let _ = crate::pathwidth::pathwidth_exact(&g);
        let _ = crate::treedepth::treedepth_exact(&g);
        let _ = crate::treedepth::treedepth_exact(&g);
        let delta = counts().since(&before);
        assert_eq!(delta.treewidth_calls, 1);
        assert_eq!(delta.pathwidth_calls, 1);
        assert_eq!(delta.treedepth_calls, 2);
        assert_eq!(delta.total(), 4);
    }

    #[test]
    fn global_counters_see_worker_thread_calls_that_thread_locals_miss() {
        let local_before = counts();
        let global_before = global_counts();
        let g = cycle_graph(5);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _ = crate::treewidth::treewidth_exact(&g);
                    let _ = crate::pathwidth::pathwidth_exact(&g);
                });
            }
        });
        // The calling thread ran none of the DPs itself: its thread-locals
        // are unchanged — exactly the undercount the global aggregate fixes.
        let local_delta = counts().since(&local_before);
        assert_eq!(local_delta.total(), 0);
        // The global aggregate saw both workers.  (>= rather than ==: other
        // tests in this binary run concurrently and also bump the globals.)
        let global_delta = global_counts().since(&global_before);
        assert!(global_delta.treewidth_calls >= 2);
        assert!(global_delta.pathwidth_calls >= 2);
    }
}
