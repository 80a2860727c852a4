//! The one work meter: counts of the expensive steps of evaluation.
//!
//! Theorem 3.1 sets a class's degree by the widths of its *cores*, so the
//! exponential per-query work is [`core_of`](crate::core_of) plus the three
//! exact width DPs of `cq-decomp`; the engine must run each at most once per
//! query.  Per database, the expensive steps are a full
//! [`StructureIndex`](crate::StructureIndex) build and a kernel program
//! compilation, which warm paths must not repeat.  Each of these six steps
//! calls [`record`] once, so tests and benches can assert those properties
//! instead of trusting them.
//!
//! Every record bumps two slots: one of the calling thread and one of the
//! process.  [`thread`] reads the calling thread's counts, which makes
//! exact assertions race-free under the multi-threaded test harness (each
//! `#[test]` runs on its own thread and sees only its own work).  Work
//! fanned out to worker threads is invisible there; [`process`] reads the
//! process-wide counts, which include every thread.  Both only grow, so a
//! caller measures a region by diffing two snapshots ([`Meters::since`]).

use std::cell::Cell;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};

/// A metered step of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meter {
    /// One exact treewidth DP (`cq_decomp::treewidth::treewidth_exact`).
    TreewidthDp,
    /// One exact pathwidth DP (`cq_decomp::pathwidth::pathwidth_exact`).
    PathwidthDp,
    /// One exact tree-depth DP (`cq_decomp::treedepth::treedepth_exact`).
    TreedepthDp,
    /// One core computation ([`core_of`](crate::core_of)).
    CoreComputation,
    /// One kernel program compilation
    /// (`cq_solver::kernel::QueryDomains::compile`).
    ProgramCompilation,
    /// One full index build
    /// ([`StructureIndex::from_arc`](crate::StructureIndex::from_arc)).
    IndexBuild,
}

const METERS: usize = 6;

thread_local! {
    static THREAD: [Cell<u64>; METERS] = const { [const { Cell::new(0) }; METERS] };
}

static PROCESS: [AtomicU64; METERS] = [const { AtomicU64::new(0) }; METERS];

/// Count one step of `meter` on the calling thread and in the process.
pub fn record(meter: Meter) {
    let slot = meter as usize;
    THREAD.with(|counts| counts[slot].set(counts[slot].get() + 1));
    PROCESS[slot].fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's counts.
pub fn thread() -> Meters {
    Meters(THREAD.with(|counts| counts.each_ref().map(Cell::get)))
}

/// The process-wide counts, summed over every thread.
pub fn process() -> Meters {
    Meters(
        PROCESS
            .each_ref()
            .map(|count| count.load(Ordering::Relaxed)),
    )
}

/// A snapshot of all six counts, indexed by [`Meter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Meters([u64; METERS]);

impl Meters {
    /// The counts recorded after `earlier` was taken.
    pub fn since(&self, earlier: &Meters) -> Meters {
        Meters(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    /// Exact width DPs: treewidth, pathwidth and tree depth together.
    pub fn width_dps(&self) -> u64 {
        self[Meter::TreewidthDp] + self[Meter::PathwidthDp] + self[Meter::TreedepthDp]
    }
}

impl Index<Meter> for Meters {
    type Output = u64;

    fn index(&self, meter: Meter) -> &u64 {
        &self.0[meter as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{core_of, families, StructureIndex};

    #[test]
    fn a_thread_sees_its_own_counts() {
        let before = thread();
        let c6 = families::cycle(6);
        let _ = core_of(&c6);
        let _ = StructureIndex::new(&c6);
        let _ = StructureIndex::new(&c6);
        let delta = thread().since(&before);
        assert_eq!(delta[Meter::CoreComputation], 1);
        assert_eq!(delta[Meter::IndexBuild], 2);
        assert_eq!(delta.width_dps(), 0);
        assert_eq!(delta[Meter::ProgramCompilation], 0);
    }

    #[test]
    fn process_counts_include_worker_threads_that_thread_counts_miss() {
        let thread_before = thread();
        let process_before = process();
        let c6 = families::cycle(6);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _ = core_of(&c6);
                    let _ = StructureIndex::new(&c6);
                });
            }
        });
        // The calling thread did none of the work itself.
        assert_eq!(thread().since(&thread_before), Meters::default());
        // The process counts saw both workers.  (>= rather than ==: other
        // tests in this binary run concurrently and record too.)
        let process_delta = process().since(&process_before);
        assert!(process_delta[Meter::CoreComputation] >= 2);
        assert!(process_delta[Meter::IndexBuild] >= 2);
    }
}
