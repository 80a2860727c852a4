//! Integration test: the Classification Theorem end to end — classify a
//! family, then solve instances with the licensed algorithm and cross-check
//! every answer against the reference solver.

use cq_fine::classification::{classify_generated, Degree, Engine, EngineConfig};
use cq_fine::structures::{families, homomorphism_exists, star_expansion};

#[test]
fn degrees_of_the_paper_families() {
    assert_eq!(
        classify_generated(|i| families::path(i + 2), 7).degree,
        Degree::ParaL
    );
    assert_eq!(
        classify_generated(|i| families::directed_path(i + 2), 8).degree,
        Degree::PathComplete
    );
    assert_eq!(
        classify_generated(|i| star_expansion(&families::tree_t(i + 1)), 3).degree,
        Degree::TreeComplete
    );
    assert_eq!(
        classify_generated(|i| families::clique(i + 1), 6).degree,
        Degree::W1Hard
    );
}

#[test]
fn engine_matches_reference_on_a_grid_of_instances() {
    let queries = vec![
        families::star(3),
        families::path(5),
        families::cycle(5),
        families::cycle(6),
        families::directed_path(4),
        families::grid(2, 2),
    ];
    let targets = vec![
        families::path(4),
        families::cycle(5),
        families::cycle(8),
        families::clique(3),
        families::grid(3, 3),
        families::directed_cycle(6),
    ];
    let engine = Engine::new(EngineConfig::default());
    for a in &queries {
        for b in &targets {
            let report = engine.solve(a, b);
            assert_eq!(report.exists, homomorphism_exists(a, b), "{a} -> {b}");
        }
    }
}
