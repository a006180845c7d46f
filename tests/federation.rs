//! Federation acceptance tests: under pinned multi-region chaos seeds,
//! the federated placer strictly beats region-isolated baselines, never
//! breaches a cap, and survives a leader kill with a bit-identical
//! report.

use pocolo::prelude::*;

fn with_faults(regions: usize, seed: u64, scenario: RegionScenario) -> FederationScenario {
    let mut sc = FederationScenario::pinned(regions, seed);
    sc.faults = Some(RegionFaultSpec {
        scenario,
        seed: Some(seed),
    });
    sc
}

#[test]
fn federated_strictly_beats_isolated_across_pinned_seeds() {
    // Several pinned worlds, both fault scenarios: the federated placer
    // must win on BOTH planned utility and SLO-violation fraction, with
    // zero cap violations on either side. Not one cherry-picked seed.
    for (regions, seed, scenario) in [
        (3, 42, RegionScenario::RegionBrownout),
        (4, 7, RegionScenario::RegionBrownout),
        (3, 11, RegionScenario::RegionChaos),
        (5, 23, RegionScenario::RegionChaos),
    ] {
        let fed = with_faults(regions, seed, scenario);
        let mut iso = fed.clone();
        iso.federated = false;
        let (fed_r, iso_r) = (fed.run(), iso.run());
        assert!(
            fed_r.utility > iso_r.utility,
            "seed {seed}/{regions}r {scenario:?}: federated utility {} ≤ isolated {}",
            fed_r.utility,
            iso_r.utility
        );
        assert!(
            fed_r.slo_violation_frac < iso_r.slo_violation_frac,
            "seed {seed}/{regions}r {scenario:?}: federated slo {} ≥ isolated {}",
            fed_r.slo_violation_frac,
            iso_r.slo_violation_frac
        );
        assert_eq!(fed_r.cap_violations, 0, "federated breached a cap");
        assert_eq!(iso_r.cap_violations, 0, "isolated breached a cap");
        assert!(fed_r.migrations > 0, "the win must come from failover");
    }
}

#[test]
fn leader_kill_mid_run_is_bit_identical_to_the_reference() {
    // The chaos plan kills the leader replica while the first brownout
    // is in effect. With the decision log replicated synchronously, the
    // promoted follower must continue the exact decision stream: every
    // report field but the promotion history matches bit-for-bit.
    for seed in [5u64, 11, 23] {
        let reference = with_faults(4, seed, RegionScenario::RegionChaos);
        let mut killed = reference.clone();
        killed.kill_leader = true;
        let (ref_r, kill_r) = (reference.run(), killed.run());
        assert!(
            !kill_r.promotions.is_empty(),
            "seed {seed}: a follower must be promoted"
        );
        assert!(ref_r.promotions.is_empty());
        assert_eq!(kill_r.decision_digest, ref_r.decision_digest, "seed {seed}");
        assert_eq!(kill_r.decision_log, ref_r.decision_log, "seed {seed}");
        assert_eq!(
            kill_r.utility.to_bits(),
            ref_r.utility.to_bits(),
            "seed {seed}: utility diverged"
        );
        assert_eq!(
            kill_r.slo_violation_frac.to_bits(),
            ref_r.slo_violation_frac.to_bits(),
            "seed {seed}: slo diverged"
        );
        assert_eq!(kill_r.final_version, ref_r.final_version);
        assert_eq!(kill_r.migrations, ref_r.migrations);
    }
}

#[test]
fn reports_are_bit_identical_at_any_parallelism() {
    let serial = {
        let mut sc = with_faults(4, 9, RegionScenario::RegionChaos);
        sc.kill_leader = true;
        sc
    };
    let mut auto = serial.clone();
    auto.parallelism = Parallelism::Auto;
    let mut four = serial.clone();
    four.parallelism = Parallelism::Fixed(4);
    let base = serial.run();
    assert_eq!(base, auto.run(), "auto parallelism diverged");
    assert_eq!(base, four.run(), "fixed(4) parallelism diverged");
}

#[test]
fn migrations_ride_the_warm_start_path_and_settle() {
    // After the brownout clears, hysteresis must keep the fleet from
    // thrashing: total migrations stay a small multiple of the decision
    // epochs, not one per epoch per app.
    let fed = with_faults(4, 42, RegionScenario::RegionBrownout);
    let r = fed.run();
    let epochs = r.ticks / pocolo::federation::controller::DECIDE_PERIOD;
    assert!(r.migrations > 0);
    assert!(
        r.migrations < epochs * 2,
        "{} migrations over {epochs} epochs looks like thrash",
        r.migrations
    );
    // And the decision log replays: every line is a valid FedLogEntry
    // with contiguous versions.
    let mut expect = 0u64;
    for line in &r.decision_log {
        let entry: pocolo::core::federation::FedLogEntry =
            pocolo_json::typed_from_str(line).expect("log line decodes");
        expect += 1;
        assert_eq!(entry.version, expect, "log versions must be contiguous");
    }
    assert_eq!(expect, r.final_version);
}
