//! Length-prefixed, versioned JSON frames and the RPC message set.
//!
//! A frame is a big-endian `u32` byte length followed by that many bytes
//! of compact JSON. Every payload is an envelope
//! `{"v": 1, "type": "<name>", ...fields}`; unknown versions and types
//! are typed [`NetError`]s, never panics. All RPCs are agent-initiated —
//! the cluster daemon only ever replies — which keeps the protocol a
//! strict request/response alternation over one connection.

use std::io::{Read, Write};

use pocolo_cluster::Solver;
use pocolo_core::federation::{FedLogEntry, FedSnapshot};
use pocolo_faults::FaultSpec;
use pocolo_json::{json, ToJson, Value};
use pocolo_sim::experiment::{ExperimentConfig, FittedCluster};
use pocolo_sim::{Policy, RunPlan, ServerMetrics, SlotSpec, METER_NOISE};
use pocolo_workloads::{BeApp, LoadTrace};

use crate::error::NetError;

/// Protocol version carried in every envelope.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a frame payload. Anything larger is rejected before
/// allocation — a garbage length prefix must not OOM the daemon.
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// Writes one frame: `u32` big-endian length, then compact JSON.
pub fn write_frame(w: &mut impl Write, payload: &Value) -> Result<(), NetError> {
    let body = payload.to_compact_string();
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(NetError::Frame(format!(
            "outgoing frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            bytes.len()
        )));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, enforcing the size cap before allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Value, NetError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(NetError::Frame(format!(
            "incoming frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    let text = std::str::from_utf8(&buf)
        .map_err(|_| NetError::Frame("frame payload is not UTF-8".into()))?;
    Ok(pocolo_json::from_str(text)?)
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, NetError> {
    v.get(key)
        .ok_or_else(|| NetError::Protocol(format!("missing field {key:?}")))
}

fn str_field(v: &Value, key: &str) -> Result<String, NetError> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| NetError::Protocol(format!("field {key:?} is not a string")))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, NetError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| NetError::Protocol(format!("field {key:?} is not a number")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, NetError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| NetError::Protocol(format!("field {key:?} is not an unsigned integer")))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, NetError> {
    Ok(u64_field(v, key)? as usize)
}

fn bool_field(v: &Value, key: &str) -> Result<bool, NetError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| NetError::Protocol(format!("field {key:?} is not a boolean")))
}

fn policy_to_json(policy: Policy) -> Value {
    match policy {
        Policy::Random { seed } => json!({"kind": "random", "seed": seed}),
        Policy::Heracles { seed } => json!({"kind": "heracles", "seed": seed}),
        Policy::Pom { seed } => json!({"kind": "pom", "seed": seed}),
        Policy::Pocolo { solver } => json!({"kind": "pocolo", "solver": solver.to_string()}),
    }
}

fn policy_from_json(v: &Value) -> Result<Policy, NetError> {
    let kind = str_field(v, "kind")?;
    match kind.as_str() {
        "random" => Ok(Policy::Random {
            seed: u64_field(v, "seed")?,
        }),
        "heracles" => Ok(Policy::Heracles {
            seed: u64_field(v, "seed")?,
        }),
        "pom" => Ok(Policy::Pom {
            seed: u64_field(v, "seed")?,
        }),
        "pocolo" => {
            let solver: Solver = str_field(v, "solver")?
                .parse()
                .map_err(NetError::Protocol)?;
            Ok(Policy::Pocolo { solver })
        }
        other => Err(NetError::Protocol(format!("unknown policy kind {other:?}"))),
    }
}

fn be_from_name(name: &str) -> Result<BeApp, NetError> {
    BeApp::ALL
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| NetError::Protocol(format!("unknown BE app {name:?}")))
}

/// Everything an agent needs to run its slot of a cluster experiment
/// bit-identically to the in-process engine: the placement the cluster
/// daemon solved, the eviction ranks, the fault scenario (compiled
/// locally and deterministically from its spec string), and the dwell,
/// seed and resilience of the [`ExperimentConfig`]. Models are *not* shipped —
/// [`FittedCluster::fit`] is deterministic, so both sides fit identical
/// models from the same profiler defaults — and neither is anything
/// fixed: the control periods and the meter noise are constants, and the
/// run lasts the nine-level sweep, `9 × dwell_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The policy under evaluation.
    pub policy: Policy,
    /// LC app name per server slot (result labels).
    pub lc: Vec<String>,
    /// BE co-runner per server slot, as solved by the cluster daemon.
    pub placement: Vec<BeApp>,
    /// Cluster-wide eviction ranks for the placement.
    pub ranks: Vec<usize>,
    /// Seconds per load level of the paper sweep (finite and positive).
    pub dwell_s: f64,
    /// Base experiment seed.
    pub seed: u64,
    /// Fault scenario spec, if any (e.g. `brownout:5`).
    pub faults: Option<FaultSpec>,
    /// Whether the degraded-mode response is armed.
    pub resilience: bool,
    /// When true, agents apply the `cap_factor` from telemetry acks as a
    /// live budget directive. Parity runs leave this off: the fault
    /// scenario already carries the cap schedule at exact event times.
    pub push_budget: bool,
}

impl RunSpec {
    /// Plans a run the way the in-process engine does — the wire form of
    /// the [`RunPlan`] it would compile: placement, eviction ranks, and
    /// the scalars of the config.
    pub fn plan(policy: Policy, config: &ExperimentConfig, fitted: &FittedCluster) -> RunSpec {
        let duration_s = config.sweep_duration_s();
        let plan = RunPlan::compile(fitted.plan_inputs(), policy, config, duration_s);
        RunSpec {
            policy,
            lc: fitted
                .lc()
                .iter()
                .map(|(a, _, _)| a.name().to_string())
                .collect(),
            placement: plan.placement().to_vec(),
            ranks: plan.ranks().to_vec(),
            dwell_s: config.dwell_s,
            seed: config.seed,
            faults: config.faults,
            resilience: config.resilience,
            push_budget: false,
        }
    }

    /// Recompiles the plan behind this spec from locally-fitted models:
    /// the shipped placement, and the fault timeline compiled from the
    /// spec string — deterministic in (scenario, seed, duration,
    /// placement), so every agent's events match the in-process engine's
    /// event-for-event.
    pub fn compile<'a>(&self, fitted: &'a FittedCluster) -> RunPlan<'a> {
        let config = ExperimentConfig {
            dwell_s: self.dwell_s,
            seed: self.seed,
            faults: self.faults,
            resilience: self.resilience,
            ..ExperimentConfig::default()
        };
        RunPlan::with_placement(
            fitted.plan_inputs(),
            self.policy,
            self.placement.clone(),
            &config,
            config.sweep_duration_s(),
        )
    }

    /// Number of server slots in the run.
    pub fn n_servers(&self) -> usize {
        self.placement.len()
    }

    /// A synthetic `n`-server run for scale exercises: the paper's
    /// four-app fleet tiled out to `n` slots (LC apps and BE co-runners
    /// cycle, ranks are the slot index). Slots in a scale run are driven
    /// by the swarm's deterministic telemetry generator rather than real
    /// simulations, so the scalar config is nominal — what matters is
    /// that the spec survives the wire (`n` names in each list) and that
    /// the registry sees `n` distinct slots.
    pub fn scale(n: usize, seed: u64) -> RunSpec {
        assert!(n > 0, "a scale run needs at least one slot");
        const LC: [&str; 4] = ["img-dnn", "sphinx", "xapian", "tpcc"];
        RunSpec {
            policy: Policy::Pocolo {
                solver: Solver::Hungarian,
            },
            lc: (0..n).map(|i| LC[i % LC.len()].to_string()).collect(),
            placement: (0..n).map(|i| BeApp::ALL[i % BeApp::ALL.len()]).collect(),
            ranks: (0..n).collect(),
            dwell_s: 1.0,
            seed,
            faults: None,
            resilience: true,
            push_budget: false,
        }
    }

    /// The slot spec for one server. A `degraded` slot falls back to the
    /// blind incremental-growth controller (the Heracles baseline) — the
    /// same fallback the in-process resilience layer uses when telemetry
    /// cannot be trusted.
    pub fn slot_spec(&self, server: usize, degraded: bool) -> SlotSpec {
        let policy = if degraded {
            Policy::Heracles { seed: self.seed }
        } else {
            self.policy
        };
        SlotSpec {
            server,
            policy,
            be: self.placement[server],
            rank: self.ranks[server],
            trace: LoadTrace::paper_sweep(self.dwell_s),
            meter_noise: METER_NOISE,
            seed: self.seed,
            faulted: self.faults.is_some(),
            resilience: self.resilience,
            record_decisions: false,
        }
    }

    pub(crate) fn to_json(&self) -> Value {
        let placement: Vec<String> = self
            .placement
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        let ranks: Vec<u64> = self.ranks.iter().map(|&r| r as u64).collect();
        json!({
            "policy": policy_to_json(self.policy),
            "lc": self.lc,
            "placement": placement,
            "ranks": ranks,
            "dwell_s": self.dwell_s,
            "seed": self.seed,
            "faults": self.faults.map(|f| f.to_string()),
            "resilience": self.resilience,
            "push_budget": self.push_budget,
        })
    }

    fn from_json(v: &Value) -> Result<RunSpec, NetError> {
        let placement_names: Vec<String> = Vec::from_json(field(v, "placement")?)
            .ok_or_else(|| NetError::Protocol("placement is not a string list".into()))?;
        let placement = placement_names
            .iter()
            .map(|n| be_from_name(n))
            .collect::<Result<Vec<_>, _>>()?;
        let ranks: Vec<u64> = Vec::from_json(field(v, "ranks")?)
            .ok_or_else(|| NetError::Protocol("ranks is not an integer list".into()))?;
        let faults = match field(v, "faults")? {
            Value::Null => None,
            Value::String(s) => Some(
                s.parse::<FaultSpec>()
                    .map_err(|e| NetError::Protocol(format!("bad fault spec: {e}")))?,
            ),
            _ => return Err(NetError::Protocol("faults is not a string or null".into())),
        };
        let dwell_s = f64_field(v, "dwell_s")?;
        if !(dwell_s.is_finite() && dwell_s > 0.0) {
            return Err(NetError::Protocol(format!(
                "dwell_s must be finite and positive, got {dwell_s}"
            )));
        }
        let spec = RunSpec {
            policy: policy_from_json(field(v, "policy")?)?,
            lc: Vec::from_json(field(v, "lc")?)
                .ok_or_else(|| NetError::Protocol("lc is not a string list".into()))?,
            placement,
            ranks: ranks.into_iter().map(|r| r as usize).collect(),
            dwell_s,
            seed: u64_field(v, "seed")?,
            faults,
            resilience: bool_field(v, "resilience")?,
            push_budget: bool_field(v, "push_budget")?,
        };
        if spec.lc.len() != spec.placement.len() || spec.ranks.len() != spec.placement.len() {
            return Err(NetError::Protocol(
                "lc, placement and ranks lists disagree on cluster size".into(),
            ));
        }
        Ok(spec)
    }
}

use pocolo_json::FromJson;

/// The RPC message set. Agents send `Register`, `Telemetry`, `Complete`,
/// `Status` and `Shutdown`; the cluster daemon replies with the matching
/// response or `Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// An agent announces itself (idempotent: re-registering after a
    /// restart reclaims the same slot).
    Register {
        /// Stable agent identity, chosen by the agent.
        agent: String,
        /// Hardware class the agent claims to run on (a
        /// `pocolo_core::fleet::ServerClass` catalog name). Optional and
        /// omitted from the frame when absent, so v1 peers that predate
        /// heterogeneous fleets interoperate unchanged.
        class: Option<String>,
    },
    /// The daemon assigns a slot and pushes the run spec.
    Welcome {
        /// Assigned server slot.
        server: usize,
        /// True when this slot already ran partially and must fall back
        /// to the degraded controller.
        degraded: bool,
        /// The full run description.
        run: Box<RunSpec>,
    },
    /// Per-epoch agent telemetry; renews the slot's lease.
    Telemetry {
        /// Reporting server slot.
        server: usize,
        /// Control epoch index (0-based).
        epoch: u64,
        /// Simulated time of the report.
        t_s: f64,
        /// Measured whole-server power, watts.
        power_w: f64,
        /// Primary's latency slack.
        slack: f64,
        /// BE co-runner throughput.
        be_throughput: f64,
    },
    /// Telemetry acknowledgement carrying the current budget directive.
    TelemetryAck {
        /// Effective-cap factor the slot should run under (1.0 = the
        /// provisioned cap). Advisory unless the run pushes budgets.
        cap_factor: f64,
    },
    /// Final per-slot metrics.
    Complete {
        /// Reporting server slot.
        server: usize,
        /// The slot's accumulated metrics.
        metrics: Box<ServerMetrics>,
    },
    /// Completion acknowledgement.
    CompleteAck,
    /// Cluster status probe.
    Status,
    /// Status reply.
    StatusReport {
        /// Total server slots.
        expected: usize,
        /// Slots with a live lease.
        live: usize,
        /// Slots in degraded fallback.
        degraded: usize,
        /// Slots that delivered final metrics.
        done: usize,
    },
    /// Ask the daemon to exit once the reply is flushed.
    Shutdown,
    /// Shutdown acknowledgement.
    ShutdownAck,
    /// A federation follower asks the leader for every committed log
    /// entry past `from_version` (0 = from the beginning).
    FedPull {
        /// The follower's stable identity; renews its replication lease.
        follower: String,
        /// Highest log version the follower has applied.
        from_version: u64,
    },
    /// The leader's replication reply: the log suffix, preceded by a
    /// full snapshot when the log was compacted past `from_version`.
    FedEntries {
        /// The leader's current committed version.
        leader_version: u64,
        /// Compaction snapshot to restore before applying `entries`;
        /// present only when the follower was behind the compaction
        /// point.
        snapshot: Option<Box<FedSnapshot>>,
        /// Committed entries, ascending by version.
        entries: Vec<FedLogEntry>,
    },
    /// Application-level failure report.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Message {
    /// Short type tag carried in the envelope.
    pub fn type_name(&self) -> &'static str {
        match self {
            Message::Register { .. } => "register",
            Message::Welcome { .. } => "welcome",
            Message::Telemetry { .. } => "telemetry",
            Message::TelemetryAck { .. } => "telemetry_ack",
            Message::Complete { .. } => "complete",
            Message::CompleteAck => "complete_ack",
            Message::Status => "status",
            Message::StatusReport { .. } => "status_report",
            Message::Shutdown => "shutdown",
            Message::ShutdownAck => "shutdown_ack",
            Message::FedPull { .. } => "fed_pull",
            Message::FedEntries { .. } => "fed_entries",
            Message::Error { .. } => "error",
        }
    }

    /// Encodes the versioned envelope.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("v".to_string(), json!(PROTOCOL_VERSION)),
            ("type".to_string(), json!(self.type_name())),
        ];
        match self {
            Message::Register { agent, class } => {
                fields.push(("agent".into(), json!(agent)));
                if let Some(class) = class {
                    fields.push(("class".into(), json!(class)));
                }
            }
            Message::Welcome {
                server,
                degraded,
                run,
            } => {
                fields.push(("server".into(), json!(*server as u64)));
                fields.push(("degraded".into(), json!(*degraded)));
                fields.push(("run".into(), run.to_json()));
            }
            Message::Telemetry {
                server,
                epoch,
                t_s,
                power_w,
                slack,
                be_throughput,
            } => {
                fields.push(("server".into(), json!(*server as u64)));
                fields.push(("epoch".into(), json!(*epoch)));
                fields.push(("t_s".into(), json!(*t_s)));
                fields.push(("power_w".into(), json!(*power_w)));
                fields.push(("slack".into(), json!(*slack)));
                fields.push(("be_throughput".into(), json!(*be_throughput)));
            }
            Message::TelemetryAck { cap_factor } => {
                fields.push(("cap_factor".into(), json!(*cap_factor)));
            }
            Message::Complete { server, metrics } => {
                fields.push(("server".into(), json!(*server as u64)));
                fields.push(("metrics".into(), metrics.to_json()));
            }
            Message::StatusReport {
                expected,
                live,
                degraded,
                done,
            } => {
                fields.push(("expected".into(), json!(*expected as u64)));
                fields.push(("live".into(), json!(*live as u64)));
                fields.push(("degraded".into(), json!(*degraded as u64)));
                fields.push(("done".into(), json!(*done as u64)));
            }
            Message::FedPull {
                follower,
                from_version,
            } => {
                fields.push(("follower".into(), json!(follower)));
                fields.push(("from_version".into(), json!(*from_version)));
            }
            Message::FedEntries {
                leader_version,
                snapshot,
                entries,
            } => {
                fields.push(("leader_version".into(), json!(*leader_version)));
                fields.push((
                    "snapshot".into(),
                    match snapshot {
                        Some(s) => s.to_json(),
                        None => Value::Null,
                    },
                ));
                fields.push((
                    "entries".into(),
                    Value::Array(entries.iter().map(|e| e.to_json()).collect()),
                ));
            }
            Message::Error { message } => {
                fields.push(("message".into(), json!(message)));
            }
            Message::CompleteAck | Message::Status | Message::Shutdown | Message::ShutdownAck => {}
        }
        Value::Object(fields)
    }

    /// Decodes an envelope, rejecting unknown versions and types with
    /// typed errors.
    pub fn from_value(v: &Value) -> Result<Message, NetError> {
        let version = u64_field(v, "v")?;
        if version != PROTOCOL_VERSION {
            return Err(NetError::Protocol(format!(
                "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            )));
        }
        let kind = str_field(v, "type")?;
        match kind.as_str() {
            "register" => Ok(Message::Register {
                agent: str_field(v, "agent")?,
                // Absent in frames from pre-fleet peers: stay compatible.
                class: match v.get("class") {
                    None | Some(Value::Null) => None,
                    Some(Value::String(s)) => Some(s.clone()),
                    Some(_) => {
                        return Err(NetError::Protocol("field \"class\" is not a string".into()))
                    }
                },
            }),
            "welcome" => Ok(Message::Welcome {
                server: usize_field(v, "server")?,
                degraded: bool_field(v, "degraded")?,
                run: Box::new(RunSpec::from_json(field(v, "run")?)?),
            }),
            "telemetry" => Ok(Message::Telemetry {
                server: usize_field(v, "server")?,
                epoch: u64_field(v, "epoch")?,
                t_s: f64_field(v, "t_s")?,
                power_w: f64_field(v, "power_w")?,
                slack: f64_field(v, "slack")?,
                be_throughput: f64_field(v, "be_throughput")?,
            }),
            "telemetry_ack" => Ok(Message::TelemetryAck {
                cap_factor: f64_field(v, "cap_factor")?,
            }),
            "complete" => Ok(Message::Complete {
                server: usize_field(v, "server")?,
                metrics: Box::new(
                    ServerMetrics::from_json(field(v, "metrics")?)
                        .ok_or_else(|| NetError::Protocol("malformed metrics".into()))?,
                ),
            }),
            "complete_ack" => Ok(Message::CompleteAck),
            "status" => Ok(Message::Status),
            "status_report" => Ok(Message::StatusReport {
                expected: usize_field(v, "expected")?,
                live: usize_field(v, "live")?,
                degraded: usize_field(v, "degraded")?,
                done: usize_field(v, "done")?,
            }),
            "shutdown" => Ok(Message::Shutdown),
            "shutdown_ack" => Ok(Message::ShutdownAck),
            "fed_pull" => Ok(Message::FedPull {
                follower: str_field(v, "follower")?,
                from_version: u64_field(v, "from_version")?,
            }),
            "fed_entries" => {
                let snapshot = match field(v, "snapshot")? {
                    Value::Null => None,
                    s => Some(Box::new(
                        FedSnapshot::from_json(s).map_err(NetError::Protocol)?,
                    )),
                };
                let entries = field(v, "entries")?
                    .as_array()
                    .ok_or_else(|| NetError::Protocol("entries is not an array".into()))?
                    .iter()
                    .map(|e| FedLogEntry::from_json(e).map_err(NetError::Protocol))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Message::FedEntries {
                    leader_version: u64_field(v, "leader_version")?,
                    snapshot,
                    entries,
                })
            }
            "error" => Ok(Message::Error {
                message: str_field(v, "message")?,
            }),
            other => Err(NetError::Protocol(format!(
                "unknown message type {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_faults::Scenario;

    fn spec() -> RunSpec {
        RunSpec {
            policy: Policy::Pocolo {
                solver: Solver::Hungarian,
            },
            lc: vec!["img-dnn".into(), "sphinx".into()],
            placement: vec![BeApp::Lstm, BeApp::Graph],
            ranks: vec![1, 0],
            dwell_s: 3.0,
            seed: 0xC0C0,
            faults: Some(FaultSpec {
                scenario: Scenario::Brownout,
                seed: Some(5),
            }),
            resilience: true,
            push_budget: false,
        }
    }

    #[test]
    fn messages_round_trip_through_the_envelope() {
        let msgs = [
            Message::Register {
                agent: "agent-3".into(),
                class: None,
            },
            Message::Register {
                agent: "agent-4".into(),
                class: Some("stepcell".into()),
            },
            Message::Welcome {
                server: 2,
                degraded: true,
                run: Box::new(spec()),
            },
            Message::Telemetry {
                server: 1,
                epoch: 42,
                t_s: 42.0,
                power_w: 87.5,
                slack: -0.125,
                be_throughput: 0.5,
            },
            Message::TelemetryAck { cap_factor: 0.6 },
            Message::CompleteAck,
            Message::Status,
            Message::StatusReport {
                expected: 4,
                live: 3,
                degraded: 1,
                done: 0,
            },
            Message::Shutdown,
            Message::ShutdownAck,
            Message::FedPull {
                follower: "fed-1".into(),
                from_version: 17,
            },
            Message::FedEntries {
                leader_version: 19,
                snapshot: Some(Box::new(pocolo_core::federation::FedSnapshot {
                    version: 18,
                    tick: 180,
                    app_region: vec![0, 1, 1],
                    budget_w: vec![400.0, 350.0],
                    migrating: vec![pocolo_core::federation::MigrationRecord {
                        app: 2,
                        to: 1,
                        until_tick: 182,
                    }],
                })),
                entries: vec![pocolo_core::federation::FedLogEntry {
                    version: 19,
                    decision: pocolo_core::federation::FederationDecision {
                        tick: 190,
                        budget_w: vec![380.0, 370.0],
                        migrations: vec![pocolo_core::federation::MigrationIntent {
                            app: 0,
                            from: 0,
                            to: 1,
                            gain: 0.25,
                        }],
                    },
                }],
            },
            Message::FedEntries {
                leader_version: 0,
                snapshot: None,
                entries: Vec::new(),
            },
            Message::Error {
                message: "nope".into(),
            },
        ];
        for msg in msgs {
            let decoded = Message::from_value(&msg.to_value()).unwrap();
            assert_eq!(decoded, msg, "{} did not round-trip", msg.type_name());
        }
    }

    #[test]
    fn frames_round_trip_over_a_byte_pipe() {
        let mut buf = Vec::new();
        let v = Message::TelemetryAck { cap_factor: 0.875 }.to_value();
        write_frame(&mut buf, &v).unwrap();
        write_frame(&mut buf, &Message::Status.to_value()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), v);
        assert_eq!(read_frame(&mut r).unwrap(), Message::Status.to_value());
        assert!(read_frame(&mut r).is_err(), "pipe is drained");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::from(u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"garbage");
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, NetError::Frame(_)), "got {err}");
    }

    #[test]
    fn register_without_class_field_decodes_as_v1_compat() {
        // A frame from a peer built before heterogeneous fleets: no
        // "class" key at all. It must decode, not error.
        let v = json!({"v": PROTOCOL_VERSION, "type": "register", "agent": "old-agent"});
        assert_eq!(
            Message::from_value(&v).unwrap(),
            Message::Register {
                agent: "old-agent".into(),
                class: None,
            }
        );
        // And an explicit null is treated the same as absent.
        let v =
            json!({"v": PROTOCOL_VERSION, "type": "register", "agent": "a", "class": Value::Null});
        assert!(matches!(
            Message::from_value(&v).unwrap(),
            Message::Register { class: None, .. }
        ));
        // A declared class does not leak into classless encodings.
        let plain = Message::Register {
            agent: "a".into(),
            class: None,
        };
        assert!(plain.to_value().get("class").is_none());
    }

    #[test]
    fn wrong_version_and_unknown_type_are_typed_errors() {
        let v = json!({"v": 99u64, "type": "register", "agent": "x"});
        assert!(matches!(
            Message::from_value(&v),
            Err(NetError::Protocol(_))
        ));
        let v = json!({"v": PROTOCOL_VERSION, "type": "frobnicate"});
        assert!(matches!(
            Message::from_value(&v),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn malformed_frame_bytes_are_typed_errors() {
        // Truncated prefix, truncated payload, non-JSON payload.
        assert!(read_frame(&mut &[0u8, 0][..]).is_err());
        let mut buf = Vec::from(8u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut &buf[..]).is_err());
        let mut buf = Vec::from(3u32.to_be_bytes());
        buf.extend_from_slice(b"{{{");
        assert!(matches!(read_frame(&mut &buf[..]), Err(NetError::Frame(_))));
    }

    #[test]
    fn hostile_welcome_bodies_are_rejected_or_stripped() {
        // A Welcome carrying `run` plus some extra body fields.
        let welcome = |run: RunSpec, extra: &[(&str, f64)]| {
            let Value::Object(mut body) = run.to_json() else {
                unreachable!("a run spec encodes as an object")
            };
            body.extend(extra.iter().map(|&(k, v)| (k.to_string(), json!(v))));
            let (v, run) = (PROTOCOL_VERSION, Value::Object(body));
            let frame =
                json!({"v": v, "type": "welcome", "server": 1u64, "degraded": false, "run": run});
            Message::from_value(&frame)
        };
        // A load level that lasts no time must not reach the load trace.
        for dwell_s in [0.0, -1.0] {
            let err = welcome(RunSpec { dwell_s, ..spec() }, &[]).unwrap_err();
            assert!(matches!(err, NetError::Protocol(_)), "{dwell_s}: {err}");
        }
        // A peer that still ships the retired scalars, among them a capper
        // period that pinned the old settable-period loop to one µs
        // forever, is read as if it had not.
        let retired = [
            ("duration_s", 27.0),
            ("manager_period_s", 1.0),
            ("capper_period_s", 0.0),
            ("meter_noise", 0.5),
        ];
        let legacy = welcome(spec(), &retired);
        assert!(matches!(legacy, Ok(Message::Welcome { run, .. }) if *run == spec()));
    }

    #[test]
    fn run_spec_degraded_slot_falls_back_to_incremental_control() {
        let spec = spec();
        let healthy = spec.slot_spec(0, false);
        assert_eq!(healthy.policy, spec.policy);
        assert_eq!(healthy.be, BeApp::Lstm);
        assert_eq!(healthy.rank, 1);
        let degraded = spec.slot_spec(0, true);
        assert!(matches!(degraded.policy, Policy::Heracles { .. }));
    }
}
