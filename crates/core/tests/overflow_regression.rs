//! Regression gate for the silent-saturation bug: counting DPs used to
//! clamp past `u64::MAX` with saturating arithmetic, so astronomical counts
//! came back as exactly `u64::MAX` and downstream inclusion–exclusion
//! subtracted garbage with full confidence.  These instances are small
//! enough to count in microseconds but have homomorphism counts far past
//! `u64::MAX`; the engine must now report a typed
//! [`CountOutcome::Overflow`], never a clamped number.

use cq_core::{CountMethod, CountOutcome, Engine, EngineConfig};
use cq_structures::families;

#[test]
fn astronomical_counts_overflow_instead_of_clamping() {
    let engine = Engine::new(EngineConfig::default());

    // #hom(P_12, K_64) = 64 · 63^11 ≈ 6.2e21 > u64::MAX.  P_12 has
    // treedepth 4 > default threshold 3, so this exercises the
    // tree-decomposition DP tier.
    let p12 = families::path(12);
    let k64 = families::clique(64);
    let report = engine.count_instance(&p12, &k64);
    assert_eq!(report.method, CountMethod::TreeDecompositionDp);
    assert_eq!(report.count, CountOutcome::Overflow);
    // Overflow still certifies existence: > u64::MAX homomorphisms is
    // emphatically more than zero.
    assert!(report.count.positive());
    assert_eq!(report.count.exact(), None);

    // #hom(star(11), K_100) = 100 · 99^11 ≈ 9e23: the default path counts
    // it through the tree DP, and the forest sum-product reference (a star
    // has treedepth 2) overflows just the same.
    let star = families::star(11);
    let k100 = families::clique(100);
    let report = engine.count_instance(&star, &k100);
    assert_eq!(report.method, CountMethod::TreeDecompositionDp);
    assert_eq!(report.count, CountOutcome::Overflow);
    assert!(report.count.positive());
    let plan = engine.prepare(&star);
    let index = engine.instance_index(&k100);
    for method in [
        CountMethod::ForestSumProduct,
        CountMethod::TreeDecompositionDp,
    ] {
        let count = plan.count(method, &k100, &index);
        assert_eq!(count, CountOutcome::Overflow, "{method:?}");
        assert!(count.positive());
    }

    // Control: one vertex shorter on the same tiers stays finite and
    // exact, so the overflow above is a property of the count, not of the
    // instance size.
    let p2 = families::path(2);
    let exact = engine.count_instance(&p2, &k64);
    assert_eq!(exact.count, CountOutcome::Exact(64 * 63));
    let star2 = families::star(2);
    let exact = engine.count_instance(&star2, &k100);
    // Centre anywhere, each of the two leaves independently on any of the
    // other 99 vertices.
    assert_eq!(exact.count.exact(), Some(100 * 99 * 99));
}

#[test]
fn overflow_displays_as_a_word_not_a_number() {
    // The one string a caller must never see is a plausible-looking
    // clamped integer.
    assert_eq!(CountOutcome::Overflow.to_string(), "overflow");
    assert_eq!(CountOutcome::Exact(42).to_string(), "42");
}
