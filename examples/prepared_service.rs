//! The prepared-query engine as a service loop: register query shapes once,
//! then answer a stream of (query, database) traffic through the plan cache
//! and the batch API.
//!
//! Run with `cargo run --release --example prepared_service`.

use cq_fine::classification::{Engine, EngineConfig, QueryId};
use cq_fine::structures::Structure;
use cq_fine::workloads::repeated_query_traffic;

fn main() {
    let engine = Engine::new(EngineConfig::default());

    // A deterministic traffic trace: 4 distinct query shapes (one per
    // solver tier), each recurring 12 times against a fleet of 8 random
    // databases.
    let traffic = repeated_query_traffic(8, 12, 12, 2024);
    println!(
        "traffic: {} instances over {} distinct queries, {} databases",
        traffic.len(),
        traffic.queries.len(),
        traffic.databases.len()
    );

    // Register each distinct query once; preparation (core + widths +
    // decomposition certificates) happens here and never again.
    let ids: Vec<QueryId> = traffic.queries.iter().map(|q| engine.register(q)).collect();
    for (q, id) in traffic.queries.iter().zip(&ids) {
        let plan = engine.prepared(*id);
        let w = plan.widths();
        println!(
            "prepared {q}: core size {}, tw {}, pw {}, td {}",
            plan.evaluated_size(),
            w.treewidth,
            w.pathwidth,
            w.treedepth
        );
    }

    // Serve the whole trace through the batch API.
    let batch: Vec<(QueryId, &Structure)> = traffic
        .trace
        .iter()
        .map(|&(q, d)| (ids[q], &traffic.databases[d]))
        .collect();
    let reports = engine.batch(&batch, |e, &(id, d)| e.solve_prepared(&e.prepared(id), d));

    let satisfied = reports.iter().filter(|r| r.exists).count();
    println!(
        "served {} instances: {} satisfied, {} not",
        reports.len(),
        satisfied,
        reports.len() - satisfied
    );

    // Per-tier accounting: which solver handled how much of the traffic.
    for choice in [
        cq_fine::classification::SolverChoice::TreeDepth,
        cq_fine::classification::SolverChoice::PathDecomposition,
        cq_fine::classification::SolverChoice::TreeDecomposition,
        cq_fine::classification::SolverChoice::Backtracking,
    ] {
        let n = reports.iter().filter(|r| r.choice == choice).count();
        if n > 0 {
            println!("  {choice:?}: {n} instances");
        }
    }

    let stats = engine.cache_stats();
    println!(
        "plan cache: {} plans, {} hits, {} misses (each distinct query prepared exactly once)",
        stats.entries, stats.hits, stats.misses
    );
}
