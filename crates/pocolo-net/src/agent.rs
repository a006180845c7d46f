//! The POM agent daemon: one process (or thread) per server slot.
//!
//! An agent registers with the cluster daemon, receives its slot and the
//! full [`RunSpec`](crate::wire::RunSpec), recompiles the run's plan
//! locally, and drives its slot through
//! [`RunPlan::run_slot`](pocolo_sim::RunPlan::run_slot) — the slot runner
//! every in-process play goes through. After every manager epoch it
//! ships telemetry (which renews its lease) and applies any budget
//! directive from the ack. On completion it delivers its final metrics.
//!
//! Every wire exchange tolerates one transparent reconnect under the
//! bounded jittered [`RetryPolicy`]; a dead cluster daemon surfaces as a
//! typed [`NetError`], never a panic.

use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::Duration;

use pocolo_core::digest::{fnv1a, FNV_OFFSET};
use pocolo_faults::RetryPolicy;
use pocolo_sim::experiment::FittedCluster;
use pocolo_sim::ServerFaultAction;
use pocolo_workloads::profiler::ProfilerConfig;

use crate::client::RpcClient;
use crate::error::NetError;
use crate::wire::Message;

/// The fitted models every agent (and the loopback harness) shares.
///
/// [`FittedCluster::fit`] is deterministic in the profiler defaults, so
/// the wire protocol never ships models: both sides of the connection fit
/// their own copy and agree bit-for-bit. Cached per process because the
/// fit is the most expensive step of agent start-up.
pub fn default_fit() -> &'static FittedCluster {
    static FIT: OnceLock<FittedCluster> = OnceLock::new();
    FIT.get_or_init(|| FittedCluster::fit(&ProfilerConfig::default()))
}

/// Configuration of one agent daemon.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Cluster daemon address.
    pub connect: SocketAddr,
    /// Stable agent identity; re-registering under the same identity
    /// after a restart reclaims the same slot (degraded).
    pub agent: String,
    /// Socket connect/read/write deadline.
    pub io_timeout: Duration,
    /// Test/demo kill switch: abandon the run (without completing or
    /// deregistering) after this many control epochs, as if the process
    /// died mid-run.
    pub die_after_epochs: Option<u64>,
}

impl AgentConfig {
    /// An agent with default deadlines.
    pub fn new(connect: SocketAddr, agent: impl Into<String>) -> Self {
        AgentConfig {
            connect,
            agent: agent.into(),
            io_timeout: Duration::from_secs(5),
            die_after_epochs: None,
        }
    }

    /// Seed for the jittered reconnect schedule: a hash of the identity,
    /// so a restarting fleet staggers.
    fn retry_seed(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.agent.as_bytes())
    }
}

/// What one agent run accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentReport {
    /// The slot the daemon assigned.
    pub server: usize,
    /// Whether the slot ran under the degraded fallback controller.
    pub degraded: bool,
    /// Control epochs driven (telemetry frames sent).
    pub epochs: u64,
    /// False when the kill switch abandoned the run mid-flight.
    pub completed: bool,
}

/// One request/response exchange that survives a single broken
/// connection: on a transport error the agent reconnects under a fresh
/// bounded retry schedule and replays the request once. Application-level
/// (`Remote`) errors are not retried — the daemon meant them.
fn exchange(
    client: &mut RpcClient,
    config: &AgentConfig,
    request: &Message,
) -> Result<Message, NetError> {
    match client.call(request) {
        Ok(reply) => Ok(reply),
        Err(e @ NetError::Remote(_)) => Err(e),
        Err(_) => {
            let mut retry = RetryPolicy::reconnect(config.retry_seed() ^ 0x9e37_79b9);
            *client = RpcClient::connect(config.connect, &mut retry, config.io_timeout)?;
            client.call(request)
        }
    }
}

/// Runs one agent to completion (or until its kill switch fires).
///
/// # Errors
///
/// Returns a [`NetError`] when the cluster daemon is unreachable past the
/// retry budget, replies out of protocol, or reports an application
/// error (e.g. no free slot).
pub fn run_agent(config: &AgentConfig) -> Result<AgentReport, NetError> {
    let mut retry = RetryPolicy::reconnect(config.retry_seed());
    let mut client = RpcClient::connect(config.connect, &mut retry, config.io_timeout)?;
    // No hardware class: the agent keeps the pre-fleet frame layout.
    let register = Message::Register {
        agent: config.agent.clone(),
        class: None,
    };
    let (server, degraded, run) = match exchange(&mut client, config, &register)? {
        Message::Welcome {
            server,
            degraded,
            run,
        } => (server, degraded, *run),
        other => {
            return Err(NetError::Protocol(format!(
                "expected welcome, got {}",
                other.type_name()
            )))
        }
    };
    let fitted = default_fit();
    if server >= run.n_servers() || run.n_servers() != fitted.lc().len() {
        return Err(NetError::Protocol(format!(
            "daemon assigned slot {server} of a {}-server run (local models cover {})",
            run.n_servers(),
            fitted.lc().len()
        )));
    }

    let mut epochs: u64 = 0;
    let mut killed = false;
    let mut last_cap_factor = 1.0_f64;
    let mut wire_failure: Option<NetError> = None;
    let sim = run
        .compile(fitted)
        .run_slot(&run.slot_spec(server, degraded), |now_s, sim| {
            if config.die_after_epochs.is_some_and(|limit| epochs >= limit) {
                killed = true;
                return false;
            }
            let telemetry = Message::Telemetry {
                server,
                epoch: epochs,
                t_s: now_s,
                power_w: sim.true_power().0,
                slack: sim.lc_slack(),
                be_throughput: sim.be_throughput(),
            };
            epochs += 1;
            match exchange(&mut client, config, &telemetry) {
                Ok(Message::TelemetryAck { cap_factor }) => {
                    // Parity runs never move the directive off 1.0: their
                    // caps come from the fault timeline, at exact event
                    // times.
                    if cap_factor != last_cap_factor {
                        sim.apply_fault(&ServerFaultAction::SetCapFactor(cap_factor), now_s);
                        last_cap_factor = cap_factor;
                    }
                    true
                }
                Ok(other) => {
                    wire_failure = Some(NetError::Protocol(format!(
                        "expected telemetry ack, got {}",
                        other.type_name()
                    )));
                    false
                }
                Err(e) => {
                    wire_failure = Some(e);
                    false
                }
            }
        });
    if let Some(e) = wire_failure {
        return Err(e);
    }
    if killed {
        return Ok(AgentReport {
            server,
            degraded,
            epochs,
            completed: false,
        });
    }

    let complete = Message::Complete {
        server,
        metrics: Box::new(sim.metrics().clone()),
    };
    match exchange(&mut client, config, &complete)? {
        Message::CompleteAck => Ok(AgentReport {
            server,
            degraded,
            epochs,
            completed: true,
        }),
        other => Err(NetError::Protocol(format!(
            "expected completion ack, got {}",
            other.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, Clusterd};
    use crate::wire::RunSpec;
    use pocolo_cluster::Solver;
    use pocolo_sim::experiment::{run_experiment_with, ExperimentConfig};
    use pocolo_sim::Policy;

    #[test]
    fn the_acked_directive_reaches_every_slot() {
        let config = ExperimentConfig {
            dwell_s: 2.0,
            seed: 1,
            ..ExperimentConfig::default()
        };
        let policy = Policy::Pocolo {
            solver: Solver::Hungarian,
        };
        let run = RunSpec::plan(policy, &config, default_fit());
        let (listen, n) = ("127.0.0.1:0".parse().unwrap(), run.n_servers());
        let mut clusterd =
            Clusterd::spawn(ClusterConfig::new(listen, Duration::from_secs(5), run)).unwrap();
        // Set before any agent registers: every slot's first ack carries it.
        clusterd.set_cap_factor(0.6);
        let addr = clusterd.local_addr();
        let agents: Vec<_> = (0..n)
            .map(|i| {
                std::thread::spawn(move || run_agent(&AgentConfig::new(addr, format!("a{i}"))))
            })
            .collect();
        for agent in agents {
            assert!(agent.join().unwrap().unwrap().completed);
        }
        assert!(clusterd.wait_done(Duration::from_secs(60)));
        let directed = clusterd.result().expect("every slot delivered its metrics");
        clusterd.shutdown();
        // Without the directive the wire run is the in-process engine's
        // (the wire parity tests pin that).
        assert_ne!(
            directed,
            run_experiment_with(policy, &config, default_fit())
        );
        // A factor below 1.0 is a fault window for the slot.
        assert!(directed
            .pairs
            .iter()
            .all(|p| p.metrics.fault_time_s() > 0.0));
    }

    #[test]
    #[should_panic(expected = "cap factor must be in (0, 1], got 1.5")]
    fn the_daemon_refuses_a_directive_outside_the_unit_interval() {
        let listen = "127.0.0.1:0".parse().unwrap();
        let config = ClusterConfig::new(listen, Duration::from_secs(5), RunSpec::scale(1, 0));
        Clusterd::spawn(config).unwrap().set_cap_factor(1.5);
    }

    #[test]
    fn retry_seeds_differ_per_identity() {
        let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let seed = |agent| AgentConfig::new(addr, agent).retry_seed();
        assert_ne!(seed("agent-0"), seed("agent-1"));
        // A restart under the same identity keeps its schedule.
        assert_eq!(seed("agent-0"), seed("agent-0"));
    }

    #[test]
    fn unreachable_daemon_is_a_typed_error() {
        let mut config = AgentConfig::new("127.0.0.1:1".parse().unwrap(), "agent-x");
        config.io_timeout = Duration::from_millis(20);
        // Shrink the retry budget so the test stays fast.
        let err = {
            let mut retry = RetryPolicy::new(0.001, 1.0, 0.001, 2, 0.0, config.retry_seed());
            RpcClient::connect(config.connect, &mut retry, config.io_timeout).unwrap_err()
        };
        assert!(matches!(err, NetError::Exhausted { .. }), "got {err}");
    }
}
