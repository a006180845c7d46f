//! Control-plane acceptance tests: the [`ServerController`]'s mode
//! transitions must be observable through the [`DecisionRecord`] stream,
//! and the full `ServerSim` backend must actuate re-admission decisions
//! exactly as the controller's co-runner guard schedules them.

use pocolo::core::fit::{fit_indirect_utility, FitOptions};
use pocolo::prelude::*;
use pocolo::simserver::power::PowerDrawModel;

fn fitted_utility(app: LcApp) -> (LcModel, IndirectUtility) {
    let machine = MachineSpec::xeon_e5_2650();
    let truth = LcModel::for_app(app, machine.clone());
    let power = PowerDrawModel::new(machine.clone());
    let space = machine.resource_space();
    let samples =
        pocolo::workloads::profiler::profile_lc(&truth, &power, &space, &ProfilerConfig::default());
    let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default())
        .unwrap()
        .utility;
    (truth, fitted)
}

fn controller(armed: bool) -> ServerController {
    let (_, fitted) = fitted_utility(LcApp::Sphinx);
    let mut ctl = ServerController::new(ServerManager::new(fitted, LcPolicy::PowerOptimized));
    if armed {
        ctl.arm_resilience(0);
    }
    ctl
}

fn input(load_rps: f64) -> ControlInput {
    ControlInput {
        now_s: 1.0,
        observed_load_rps: load_rps,
        observed_slack: Some(0.3),
        measured_power: None,
        effective_cap: Watts(100.0),
        brownout: false,
        rapl_throttled: false,
        telemetry_frozen: false,
        be_present: true,
        be_draw_estimate: Watts(10.0),
        max_counts: (16, 20),
    }
}

#[test]
fn frozen_telemetry_blinds_a_resilient_controller() {
    let mut ctl = controller(true);
    let decision = ctl.decide(&ControlInput {
        telemetry_frozen: true,
        observed_slack: Some(0.9), // stale: analytically this would trim
        ..input(400.0)
    });
    assert_eq!(decision.mode, ControlMode::Degraded);
    assert_eq!(
        decision.record.slack, None,
        "a frozen slack reading must not be consumed"
    );
    // Blind incremental fallback: with no prior counts it holds the full
    // machine rather than trusting the stale trim signal.
    assert_eq!(
        decision.primary,
        PrimaryDirective::Resize {
            cores: 16,
            ways: 20
        }
    );
    assert_eq!(decision.record.budget_w, None);
}

#[test]
fn naive_controller_consumes_stale_telemetry_and_stays_normal() {
    let mut ctl = controller(false);
    let decision = ctl.decide(&ControlInput {
        telemetry_frozen: true,
        ..input(400.0)
    });
    assert_eq!(decision.mode, ControlMode::Normal);
    assert_eq!(
        decision.record.slack,
        Some(0.3),
        "the naive path keeps trusting the frozen reading"
    );
}

#[test]
fn governor_arms_on_measured_overdraw_and_reports_governed() {
    let mut ctl = controller(true);
    // Brownout, meter over the comfort target (88 W of 100 W): arms and
    // switches to meter-calibrated budgeted sizing in the same epoch.
    let decision = ctl.decide(&ControlInput {
        brownout: true,
        measured_power: Some(Watts(95.0)),
        ..input(400.0)
    });
    assert_eq!(decision.mode, ControlMode::Governed);
    assert!(decision.record.governor_armed);
    assert!(!decision.record.escalated);
    assert!(
        decision.record.budget_w.is_some(),
        "an armed governor must hand the planner a watt budget"
    );
    // Below the target afterwards: armed is a latch, not a level.
    let calm = ctl.decide(&ControlInput {
        brownout: true,
        measured_power: Some(Watts(50.0)),
        ..input(400.0)
    });
    assert_eq!(calm.mode, ControlMode::Governed);
    assert!(calm.record.governor_armed);
}

#[test]
fn slo_violation_escalates_to_distress_until_the_brownout_lifts() {
    let mut ctl = controller(true);
    let distressed = ctl.decide(&ControlInput {
        brownout: true,
        measured_power: Some(Watts(95.0)),
        observed_slack: Some(-0.1),
        ..input(400.0)
    });
    assert_eq!(distressed.mode, ControlMode::Distress);
    assert!(distressed.record.escalated);
    // Sticky: recovered slack does not de-escalate mid-brownout.
    let recovered = ctl.decide(&ControlInput {
        brownout: true,
        measured_power: Some(Watts(50.0)),
        observed_slack: Some(0.5),
        ..input(400.0)
    });
    assert_eq!(recovered.mode, ControlMode::Distress);
    // The lift disarms both latches and control returns to Normal.
    ctl.on_brownout_lift();
    let after = ctl.decide(&input(400.0));
    assert_eq!(after.mode, ControlMode::Normal);
    assert!(!after.record.governor_armed && !after.record.escalated);
}

#[test]
fn duck_flag_is_reported_while_the_rapl_ceiling_is_depressed() {
    let mut ctl = controller(true);
    // Escalate first so the 0.98 target sits above the release band.
    ctl.decide(&ControlInput {
        brownout: true,
        measured_power: Some(Watts(99.0)),
        observed_slack: Some(-0.1),
        ..input(400.0)
    });
    let ducked = ctl.decide(&ControlInput {
        brownout: true,
        rapl_throttled: true,
        measured_power: Some(Watts(99.0)),
        observed_slack: Some(-0.1),
        ..input(400.0)
    });
    assert!(ducked.record.ducked);
    let released = ctl.decide(&ControlInput {
        brownout: true,
        rapl_throttled: false,
        measured_power: Some(Watts(99.0)),
        observed_slack: Some(-0.1),
        ..input(400.0)
    });
    assert!(!released.record.ducked, "duck is per-step, not latched");
}

#[test]
fn heracles_controller_grows_blind_and_trims_on_headroom() {
    let mut ctl = controller(false).incremental();
    // Ample verified headroom (slack > high_slack = 0.5): trim one of each.
    let trim = ctl.decide(&ControlInput {
        observed_slack: Some(0.9),
        ..input(400.0)
    });
    assert_eq!(
        trim.primary,
        PrimaryDirective::Resize {
            cores: 15,
            ways: 19
        }
    );
    assert_eq!(trim.mode, ControlMode::Normal);
    assert_eq!(trim.record.budget_w, None, "Heracles never prices watts");
    // No reading at all: grow conservatively (naive Heracles is not
    // armed, so the stale-telemetry distrust stays off and mode is
    // Normal even while frozen).
    let grow = ctl.decide(&ControlInput {
        observed_slack: None,
        telemetry_frozen: true,
        ..input(400.0)
    });
    assert_eq!(grow.mode, ControlMode::Normal);
}

/// End-to-end re-admission: a crash parks the co-runner, a persistent
/// telemetry freeze keeps every backed-off re-admission attempt failing
/// (the wait doubling each time), and only after the thaw does the
/// co-runner return — paying the warm-up pause.
#[test]
fn persistent_fault_blocks_readmission_until_the_thaw() {
    let machine = MachineSpec::xeon_e5_2650();
    let (truth, fitted) = fitted_utility(LcApp::Sphinx);
    let cap = truth.provisioned_power();
    let be_truth = BeModel::for_app(BeApp::Graph, machine);
    let mut sim = ServerSim::new(
        truth,
        fitted,
        Some(be_truth),
        LcPolicy::PowerOptimized,
        LoadTrace::Constant(0.4),
        cap,
        0.01,
        42,
    )
    .with_resilience(0)
    .with_decision_log();

    let run = |sim: &mut ServerSim, from_s: usize, to_s: usize| {
        for s in from_s..to_s {
            sim.on_manager_tick(s as f64);
            for _ in 0..10 {
                sim.on_capper_tick(0.1);
            }
        }
    };

    run(&mut sim, 0, 10);
    assert!(
        sim.be_truth().is_some(),
        "co-runner healthy before the crash"
    );

    sim.apply_fault(&ServerFaultAction::Crash, 10.0);
    assert!(sim.be_truth().is_none(), "the crash parks the co-runner");
    assert_eq!(sim.metrics().evictions, 1);

    // Rejoin under a telemetry dropout that outlives every backoff step:
    // 15 → 23 → 39 → 71 → 135 s (4 s base, doubling, 64 s ceiling).
    sim.apply_fault(&ServerFaultAction::Recover, 11.0);
    sim.apply_fault(&ServerFaultAction::FreezeTelemetry { until_s: 1e9 }, 11.0);
    run(&mut sim, 12, 100);
    assert!(
        sim.be_truth().is_none(),
        "a faulted server must keep refusing re-admission"
    );
    assert!(
        sim.decision_records()
            .iter()
            .any(|r| r.mode == ControlMode::Degraded),
        "the freeze must be visible as Degraded mode in the trace"
    );

    sim.apply_fault(&ServerFaultAction::Thaw, 100.0);
    run(&mut sim, 100, 140);
    assert!(
        sim.be_truth().is_some(),
        "the thawed server re-admits once the backed-off attempt is due"
    );
    let last = sim.decision_records().last().unwrap();
    assert_eq!(last.mode, ControlMode::Normal);
}
