//! Loopback harness: the seeded sim workloads driven through the real
//! wire path, verified against the in-process engine.
//!
//! [`run_demo`] spawns a [`Clusterd`] on an ephemeral loopback port and
//! one agent thread per server slot, waits for every slot to deliver its
//! metrics, and runs the identical experiment in-process for comparison.
//! On a clean run the two results must be equal field-for-field — the
//! wire path is verified against the engine, not trusted. With the kill
//! switch armed the harness also exercises the failure path end-to-end:
//! one agent dies mid-run, its lease expires, the slot flips to the
//! degraded fallback, and a restarted agent under the same identity
//! reclaims and re-runs the slot.

use std::time::{Duration, Instant};

use pocolo_core::check::{Check, Expect};
use pocolo_sim::experiment::{run_experiment_with, ExperimentConfig, ExperimentResult};
use pocolo_sim::{Policy, ServerMetrics};

use crate::agent::{default_fit, run_agent, AgentConfig, AgentReport};
use crate::cluster::{ClusterConfig, Clusterd, SlotState};
use crate::error::NetError;
use crate::swarm::{run_swarm, scale_reference, SwarmConfig, SwarmReport};
use crate::wire::RunSpec;

/// Wall-clock budget for a whole loopback run.
const DEMO_DEADLINE: Duration = Duration::from_secs(120);

/// Configuration of one loopback demonstration run.
#[derive(Debug, Clone)]
pub struct DemoConfig {
    /// Placement policy under evaluation.
    pub policy: Policy,
    /// The experiment both paths run.
    pub experiment: ExperimentConfig,
    /// Heartbeat lease TTL. Short in tests so expiry is fast; a real
    /// deployment would use a few missed heartbeats' worth.
    pub lease_ttl: Duration,
    /// Kill the first agent after this many control epochs, then restart
    /// it (same identity) once its lease has expired.
    pub kill_after_epochs: Option<u64>,
}

impl DemoConfig {
    /// A demo with a lease sized for loopback.
    pub fn new(policy: Policy, experiment: ExperimentConfig) -> Self {
        DemoConfig {
            policy,
            experiment,
            lease_ttl: Duration::from_millis(250),
            kill_after_epochs: None,
        }
    }
}

/// What the loopback run produced, on both paths.
#[derive(Debug, Clone)]
pub struct DemoReport {
    /// Result assembled by the cluster daemon from wire-delivered metrics.
    pub wire: ExperimentResult,
    /// The same experiment run entirely in-process.
    pub in_process: ExperimentResult,
    /// The placement the daemon pushed (BE app name per slot).
    pub placement: Vec<String>,
    /// Slots that passed through the degraded state at least once.
    pub degraded_slots: Vec<usize>,
    /// Failure re-registrations the daemon observed.
    pub reregistrations: usize,
    /// Whether a kill was requested ([`DemoConfig::kill_after_epochs`]).
    pub kill_requested: bool,
    /// The kill-switch agent's report, when the kill happened.
    pub killed: Option<AgentReport>,
    /// In-process reference for the killed slot's degraded re-run:
    /// `(slot, metrics)` from driving the same degraded [`SlotSpec`]
    /// (same fault timeline, same seeds) without any wire in between.
    ///
    /// [`SlotSpec`]: pocolo_sim::SlotSpec
    pub degraded_reference: Option<(usize, ServerMetrics)>,
}

impl DemoReport {
    /// The run's promises. A clean run reproduces the in-process result
    /// exactly. With a kill requested, the killed slot legitimately
    /// re-runs under the degraded controller, so the run instead promises
    /// that the kill happened, that the degraded re-run equals its
    /// in-process replay bit-for-bit, and that no slot ran hotter than
    /// its in-process reference peak. The engine's 100 ms capper is
    /// reactive, so an overshoot between capper ticks is part of its
    /// contract; what the wire path must add is no violation beyond it.
    pub fn checks(&self) -> Vec<Check> {
        if !self.kill_requested {
            return vec![Check::holds(
                "wire result equals the in-process result",
                self.wire == self.in_process,
            )];
        }
        let reference = |slot: usize| match &self.degraded_reference {
            Some((degraded, m)) if *degraded == slot => m,
            _ => &self.in_process.pairs[slot].metrics,
        };
        let hotter = (self.wire.pairs.iter().enumerate())
            .filter(|(slot, p)| p.metrics.peak_power.0 > reference(*slot).peak_power.0 + 1e-9)
            .count();
        let replayed =
            (self.degraded_reference.iter()).all(|(slot, m)| self.wire.pairs[*slot].metrics == *m);
        let killed = f64::from(u8::from(self.killed.is_some()));
        vec![
            Check::new("agents killed", killed, Expect::Exactly(1.0)),
            Check::holds("degraded slot equals its in-process replay", replayed),
            Check::new(
                "slots hotter than their in-process reference peak",
                hotter as f64,
                Expect::AtMost(0.0),
            ),
        ]
    }
}

/// Runs the full loopback demonstration.
///
/// # Errors
///
/// Returns a [`NetError`] when an agent fails in an unplanned way, a
/// lease never expires, or the cluster misses the wall-clock deadline.
pub fn run_demo(config: &DemoConfig) -> Result<DemoReport, NetError> {
    let fitted = default_fit();
    let run = RunSpec::plan(config.policy, &config.experiment, fitted);
    let n = run.n_servers();
    let clusterd = Clusterd::spawn(ClusterConfig::new(
        "127.0.0.1:0".parse().expect("loopback literal"),
        config.lease_ttl,
        run.clone(),
    ))?;
    let addr = clusterd.local_addr();

    let handles: Vec<_> = (0..n)
        .map(|i| {
            let mut agent = AgentConfig::new(addr, format!("agent-{i}"));
            if i == 0 {
                agent.die_after_epochs = config.kill_after_epochs;
            }
            std::thread::spawn(move || run_agent(&agent))
        })
        .collect();
    let mut killed: Option<AgentReport> = None;
    for handle in handles {
        let report = handle
            .join()
            .map_err(|_| NetError::Protocol("agent thread panicked".into()))??;
        if !report.completed {
            killed = Some(report);
        }
    }

    // The failure path: wait for the dead agent's lease to expire, then
    // restart it under the same identity. The daemon hands back the same
    // slot, flagged degraded, and the replacement re-runs it end-to-end.
    if let Some(dead) = &killed {
        let start = Instant::now();
        loop {
            if matches!(
                clusterd.slot_states()[dead.server],
                SlotState::Degraded { .. }
            ) {
                break;
            }
            if start.elapsed() > DEMO_DEADLINE {
                return Err(NetError::Protocol(format!(
                    "slot {} lease never expired",
                    dead.server
                )));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let report = run_agent(&AgentConfig::new(addr, "agent-0"))?;
        if !report.degraded || report.server != dead.server {
            return Err(NetError::Protocol(format!(
                "replacement agent got slot {} (degraded: {}), expected degraded slot {}",
                report.server, report.degraded, dead.server
            )));
        }
    }

    if !clusterd.wait_done(DEMO_DEADLINE) {
        return Err(NetError::Protocol(
            "cluster did not complete within the deadline".into(),
        ));
    }
    let wire = clusterd
        .result()
        .ok_or_else(|| NetError::Protocol("daemon finished without full results".into()))?;
    let in_process = run_experiment_with(config.policy, &config.experiment, fitted);
    // The killed slot re-ran degraded, so the cluster-level comparison
    // cannot cover it; replay the same degraded slot in-process (what the
    // replacement agent ran, minus the wire) as its reference.
    let degraded_reference = killed.as_ref().map(|dead| {
        let spec = run.slot_spec(dead.server, true);
        let sim = run.compile(fitted).run_slot(&spec, |_, _| true);
        (dead.server, sim.metrics().clone())
    });
    Ok(DemoReport {
        wire,
        in_process,
        placement: run.placement.iter().map(|a| a.name().to_string()).collect(),
        degraded_slots: clusterd.degraded_history(),
        reregistrations: clusterd.reregistrations(),
        kill_requested: config.kill_after_epochs.is_some(),
        killed,
        degraded_reference,
    })
}

/// Run seed of a scale run (drives the synthetic telemetry).
const SCALE_SEED: u64 = 7;

/// Wall-clock budget for a whole scale run: the 5000-agent 1 s-paced
/// headline run takes about ten seconds, so this leaves wide margin.
pub const SCALE_DEADLINE: Duration = Duration::from_secs(300);

/// Configuration of one scale demonstration: `agents` swarm agents
/// heartbeating against a single daemon event loop.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Simulated agents (one slot and one connection each).
    pub agents: usize,
    /// Telemetry frames per agent.
    pub heartbeats: u64,
    /// Pacing between one agent's heartbeats. `ZERO` = closed-loop.
    pub heartbeat_every: Duration,
    /// Heartbeat lease TTL on the daemon.
    pub lease_ttl: Duration,
}

impl ScaleConfig {
    /// A scale run with paper-shaped defaults: 1 s heartbeats, a lease
    /// that tolerates two missed beats.
    pub fn new(agents: usize, heartbeats: u64) -> ScaleConfig {
        ScaleConfig {
            agents,
            heartbeats,
            heartbeat_every: Duration::from_secs(1),
            lease_ttl: Duration::from_secs(3),
        }
    }
}

/// What a scale run produced.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Swarm-side statistics (connect wall, RTT samples, outcomes).
    pub swarm: SwarmReport,
    /// The result the daemon assembled from wire-delivered metrics.
    pub wire: ExperimentResult,
    /// The timing-independent in-process reference ([`scale_reference`]).
    pub reference: ExperimentResult,
}

impl ScaleReport {
    /// The run's promises: the wire result equals the reference
    /// bit-for-bit, and every agent completed.
    pub fn checks(&self) -> Vec<Check> {
        let agents = &self.swarm.agents;
        let completed = agents.iter().filter(|a| a.completed).count() as f64;
        vec![
            Check::holds(
                "wire result equals the timing-independent reference",
                self.wire == self.reference,
            ),
            Check::new(
                "agents completed",
                completed,
                Expect::Exactly(agents.len() as f64),
            ),
        ]
    }
}

/// Runs `agents` swarm agents against one daemon event loop, with the
/// reference ([`scale_reference`]) to verify the assembled result
/// against ([`ScaleReport::checks`]).
///
/// # Errors
///
/// Returns a [`NetError`] when any connection fails or the daemon misses
/// the deadline. A divergent result is still `Ok`, so callers can
/// inspect it.
pub fn run_demo_scale(config: &ScaleConfig) -> Result<ScaleReport, NetError> {
    let run = RunSpec::scale(config.agents, SCALE_SEED);
    let mut clusterd = Clusterd::spawn(ClusterConfig::new(
        "127.0.0.1:0".parse().expect("loopback literal"),
        config.lease_ttl,
        run.clone(),
    ))?;

    let mut swarm_config = SwarmConfig::new(
        clusterd.local_addr(),
        config.agents,
        config.heartbeats,
        SCALE_SEED,
    );
    swarm_config.heartbeat_every = config.heartbeat_every;
    swarm_config.deadline = SCALE_DEADLINE;
    let swarm = run_swarm(&swarm_config)?;

    if !clusterd.wait_done(SCALE_DEADLINE) {
        return Err(NetError::Protocol(
            "scale run: daemon did not assemble results within the deadline".into(),
        ));
    }
    let wire = clusterd
        .result()
        .ok_or_else(|| NetError::Protocol("daemon finished without full results".into()))?;
    let reference = scale_reference(&run, config.heartbeats);
    clusterd.shutdown();
    Ok(ScaleReport {
        swarm,
        wire,
        reference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_cluster::Solver;
    use pocolo_core::check::failures;

    fn quick_config(policy: Policy) -> DemoConfig {
        DemoConfig::new(
            policy,
            ExperimentConfig {
                dwell_s: 2.0,
                seed: 1,
                ..ExperimentConfig::default()
            },
        )
    }

    #[test]
    fn loopback_run_reproduces_the_in_process_engine() {
        let report = run_demo(&quick_config(Policy::Pocolo {
            solver: Solver::Hungarian,
        }))
        .unwrap();
        assert_eq!(failures(&report.checks()), Vec::<String>::new());
        assert_eq!(report.placement.len(), 4);
        assert!(report.degraded_slots.is_empty());
        assert_eq!(report.reregistrations, 0);
        assert!(report.killed.is_none());

        // The promise fails on a perturbation of the real report.
        let mut diverged = report;
        diverged.wire.pairs[1].metrics.evictions += 1;
        assert_eq!(
            failures(&diverged.checks()),
            ["wire result equals the in-process result: does not hold"]
        );
    }
}
