//! Scale-mode gates: the swarm's wire-delivered results must match the
//! timing-independent reference, and the classic four-agent parity demo
//! must stay bit-exact under a policy the root wire-parity suite does
//! not cover.

use std::time::Duration;

use pocolo_core::check::failures;
use pocolo_net::{run_demo, run_demo_scale, DemoConfig, ScaleConfig};
use pocolo_sim::experiment::ExperimentConfig;
use pocolo_sim::Policy;

#[test]
fn three_hundred_swarm_agents_reproduce_the_reference_on_the_reactor() {
    let mut config = ScaleConfig::new(300, 3);
    // Closed-loop heartbeats: the gate checks protocol correctness and
    // parity, not pacing; wall-clock stays in CI budget.
    config.heartbeat_every = Duration::ZERO;
    let report = run_demo_scale(&config).unwrap();
    assert_eq!(failures(&report.checks()), Vec::<String>::new());
    assert_eq!(report.swarm.agents.len(), 300);
    // Closed-loop: 3 acks per agent.
    assert_eq!(report.swarm.rtts_us.len(), 900);

    // Each promise fails on its own perturbation of the real report.
    let mut diverged = report.clone();
    diverged.wire.pairs[299].metrics.samples += 1;
    assert_eq!(
        failures(&diverged.checks()),
        ["wire result equals the timing-independent reference: does not hold"]
    );
    let mut abandoned = report;
    abandoned.swarm.agents[0].completed = false;
    assert_eq!(
        failures(&abandoned.checks()),
        ["agents completed = 299, expected exactly 300"]
    );
}

#[test]
fn the_parity_demo_holds_under_the_heracles_policy() {
    let config = DemoConfig::new(
        Policy::Heracles { seed: 3 },
        ExperimentConfig {
            dwell_s: 2.0,
            seed: 3,
            ..ExperimentConfig::default()
        },
    );
    let report = run_demo(&config).unwrap();
    assert_eq!(failures(&report.checks()), Vec::<String>::new());
}
