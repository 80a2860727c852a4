//! Quickstart: evaluate a boolean conjunctive query on a small database,
//! inspect its structural measures, and let the classification engine pick
//! the right algorithm.
//!
//! Run with `cargo run --example quickstart`.

use cq_fine::classification::{Engine, EngineConfig};
use cq_fine::decomp::width_profile_of_structure;
use cq_fine::workloads;

fn main() {
    // A chain (multi-way join) query: ∃x0..x4  R0(x0,x1) ∧ R1(x1,x2) ∧ ...
    let query = workloads::chain_join_query(4, 2);
    println!("query: {query}");

    // A random database over the same schema.
    let db = workloads::random_database(60, 2, 220, 7);
    println!(
        "database: {} elements, {} tuples",
        db.universe_size(),
        db.tuple_count()
    );

    // Chandra–Merlin: evaluation = homomorphism from the canonical structure.
    let canonical = query.canonical_structure().expect("well-formed query");
    let widths = width_profile_of_structure(&canonical);
    println!(
        "canonical structure widths: treewidth {}, pathwidth {}, tree depth {}",
        widths.treewidth, widths.pathwidth, widths.treedepth
    );

    let engine = Engine::new(EngineConfig::default());
    let report = engine.solve(&canonical, &db);
    println!(
        "engine chose {:?} (degree hint {:?}); query is {} on this database",
        report.choice,
        report.degree_hint,
        if report.exists { "TRUE" } else { "FALSE" }
    );

    // Direct evaluation through the ConjunctiveQuery API agrees.
    assert_eq!(query.evaluate(&db).unwrap(), report.exists);

    // A star query (tree depth 2) is evaluated by the para-L algorithm.
    let star = workloads::star_join_query(5, 2)
        .canonical_structure()
        .unwrap();
    let star_report = engine.solve(&star, &db);
    println!(
        "star join query: chose {:?}, answer {}",
        star_report.choice, star_report.exists
    );
}
