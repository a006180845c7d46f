//! Wire-path acceptance tests: the distributed runtime must *reproduce*
//! the in-process engine, not merely resemble it.
//!
//! The seeded `{pocolo, random} × {no-fault, brownout}` grid runs over
//! real loopback TCP — cluster daemon, four agent processes-worth of
//! threads, length-prefixed JSON frames — and every run's placement
//! assignments and epoch-level metrics must equal the in-process
//! engine's field-for-field. A separate test kills one agent mid-run and
//! checks the full failure path: lease expiry → degraded fallback →
//! idempotent re-registration → completion without a panic or a violated
//! power cap.

use std::time::Duration;

use pocolo::core::check::failures;
use pocolo::net::{run_demo, DemoConfig, DemoReport};
use pocolo::prelude::*;

fn demo(policy: Policy, faults: Option<&str>) -> DemoConfig {
    let experiment = ExperimentConfig {
        dwell_s: 2.0,
        seed: 1,
        faults: faults.map(|s| s.parse().expect("fault spec parses")),
        ..ExperimentConfig::default()
    };
    DemoConfig::new(policy, experiment)
}

#[track_caller]
fn assert_parity(policy: Policy, faults: Option<&str>) {
    let report = run_demo(&demo(policy, faults)).expect("loopback run completes");
    assert_eq!(report.placement.len(), 4, "paper cluster is four servers");
    assert_eq!(
        failures(&report.checks()),
        Vec::<String>::new(),
        "{policy:?} faults {faults:?}:\n wire: {:?}\n in-process: {:?}",
        report.wire.summary,
        report.in_process.summary,
    );
    assert!(report.degraded_slots.is_empty(), "clean run never degrades");
    assert_eq!(report.reregistrations, 0);
}

#[test]
fn wire_parity_pocolo_clean() {
    assert_parity(
        Policy::Pocolo {
            solver: Solver::Hungarian,
        },
        None,
    );
}

#[test]
fn wire_parity_pocolo_brownout() {
    assert_parity(
        Policy::Pocolo {
            solver: Solver::Hungarian,
        },
        Some("brownout:1"),
    );
}

#[test]
fn wire_parity_random_clean() {
    assert_parity(Policy::Random { seed: 1 }, None);
}

#[test]
fn wire_parity_random_brownout() {
    assert_parity(Policy::Random { seed: 1 }, Some("brownout:1"));
}

#[test]
fn killed_agent_degrades_and_rejoins_without_violating_the_cap() {
    let mut config = demo(
        Policy::Pocolo {
            solver: Solver::Hungarian,
        },
        Some("brownout:1"),
    );
    config.kill_after_epochs = Some(3);
    config.lease_ttl = Duration::from_millis(150);
    let report = run_demo(&config).expect("failure path completes cleanly");
    // One agent was killed, its degraded re-run reproduced the in-process
    // degraded replay bit-for-bit, and no slot ran hotter than its
    // in-process reference: the wire path added no cap violation.
    assert_eq!(failures(&report.checks()), Vec::<String>::new());

    let dead = report.killed.as_ref().expect("one agent was killed");
    assert!(!dead.completed);
    assert_eq!(dead.epochs, 3, "kill switch fired after three epochs");
    // Lease expiry flipped the slot, and the same identity reclaimed it.
    assert!(
        report.degraded_slots.contains(&dead.server),
        "killed slot {} missing from degraded history {:?}",
        dead.server,
        report.degraded_slots
    );
    assert!(report.reregistrations >= 1, "rejoin was a re-registration");
    // Every slot still delivered final metrics (the daemon's result is
    // only assembled once all four are done).
    assert_eq!(report.wire.pairs.len(), 4);
    // The degraded slot re-ran under the blind incremental controller, so
    // the healthy slots must still match the in-process engine exactly.
    for (i, (wire, inproc)) in report
        .wire
        .pairs
        .iter()
        .zip(report.in_process.pairs.iter())
        .enumerate()
    {
        assert_eq!(wire.lc, inproc.lc, "slot {i} primary label");
        assert_eq!(wire.be, inproc.be, "slot {i} placement");
        if i != dead.server {
            assert_eq!(wire.metrics, inproc.metrics, "healthy slot {i} metrics");
        }
    }

    // Each promise fails on its own perturbation of the real report.
    let healthy = (dead.server + 1) % 4;
    let failed = |edit: &dyn Fn(&mut DemoReport)| {
        let mut perturbed = report.clone();
        edit(&mut perturbed);
        failures(&perturbed.checks())
    };
    assert_eq!(
        failed(&|r| r.killed = None),
        ["agents killed = 0, expected exactly 1"]
    );
    assert_eq!(
        failed(&|r| r.degraded_reference.as_mut().unwrap().1.evictions += 1),
        ["degraded slot equals its in-process replay: does not hold"]
    );
    assert_eq!(
        failed(&|r| r.wire.pairs[healthy].metrics.peak_power.0 += 0.5),
        ["slots hotter than their in-process reference peak = 1, expected at most 0"]
    );
}
