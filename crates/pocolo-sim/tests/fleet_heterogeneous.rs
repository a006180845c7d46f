//! End-to-end heterogeneous-fleet properties exercised through the
//! public API: every cataloged SKU must run the full experiment pipeline,
//! the spec grammar must round-trip, and weighted fleets must apportion
//! slots the way the spec promises.

use pocolo_cluster::Solver;
use pocolo_core::check::failures;
use pocolo_core::fleet::{FleetSpec, ServerClass};
use pocolo_sim::experiment::ExperimentConfig;
use pocolo_sim::fleet::compare_fleet_policies;

fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        dwell_s: 1.0,
        ..ExperimentConfig::default()
    }
}

/// Every SKU in the catalog — not just the paper's Xeon — must drive the
/// whole pipeline: profile, fit, place, simulate, meter. And with one
/// class, SKU awareness must be moot.
#[test]
fn every_catalog_class_runs_the_full_pipeline() {
    let config = quick_config();
    for name in ServerClass::CATALOG {
        let spec: FleetSpec = name.parse().unwrap();
        let cmp = compare_fleet_policies(&spec, 0, &config, Solver::Hungarian);
        assert_eq!(
            cmp.aware.result.pairs, cmp.blind.result.pairs,
            "{name}: single-class awareness must not change anything"
        );
        // Caps are a hard guarantee, and the margin of awareness is zero.
        assert_eq!(failures(&cmp.checks()), Vec::<String>::new(), "{name}");
        assert!(
            cmp.aware.result.summary.avg_be_throughput > 0.0,
            "{name}: best-effort work must actually run"
        );
    }
}

/// The `--fleet` grammar round-trips: displaying a parsed spec re-parses
/// to the same fleet, including geometry overrides and weights.
#[test]
fn fleet_spec_grammar_round_trips() {
    for raw in ["mixed3", "xeon", "xeon*2+turbo", "turbo/8/10+stepcell*3"] {
        let spec: FleetSpec = raw.parse().unwrap();
        let reparsed: FleetSpec = spec.to_string().parse().unwrap();
        assert_eq!(
            spec.to_string(),
            reparsed.to_string(),
            "{raw} must round-trip through Display"
        );
        assert_eq!(spec.assign(8, 42), reparsed.assign(8, 42));
    }
}

/// Weighted specs apportion slots by largest remainder: `xeon*3+turbo`
/// over 8 slots is 6 xeons and 2 turbos no matter how the seed shuffles
/// which slot gets which class.
#[test]
fn weighted_fleets_apportion_slots_by_weight() {
    let spec: FleetSpec = "xeon*3+turbo".parse().unwrap();
    for seed in 0..16u64 {
        let assignment = spec.assign(8, seed);
        let xeons = assignment.iter().filter(|&&c| c == 0).count();
        assert_eq!(xeons, 6, "seed {seed}: 3:1 weights over 8 slots");
        assert_eq!(assignment.len() - xeons, 2);
    }
    // Different seeds must actually shuffle slot order at least once.
    let baseline = spec.assign(8, 0);
    assert!(
        (1..16u64).any(|seed| spec.assign(8, seed) != baseline),
        "seeded assignment should vary slot order across seeds"
    );
}
