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
use pocolo_json::{json, FromJson, JsonError, ToJson, Value};
use pocolo_sim::experiment::{ExperimentConfig, FittedCluster};
use pocolo_sim::{Policy, RunPlan, ServerMetrics, SlotSpec, CAPPER_PERIOD_S, METER_NOISE};
use pocolo_workloads::{BeApp, LoadTrace};

use crate::error::NetError;
use crate::frame::{encode_frame, payload_len};

/// Protocol version carried in every envelope.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a frame payload. Anything larger is rejected before
/// allocation — a garbage length prefix must not OOM the daemon.
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// Writes one frame: `u32` big-endian length, then compact JSON — the
/// bytes of [`encode_frame`], in one write, then a flush.
pub fn write_frame(w: &mut impl Write, payload: &Value) -> Result<(), NetError> {
    w.write_all(&encode_frame(payload)?)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, enforcing the size cap before allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Value, NetError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let mut buf = vec![0u8; payload_len(prefix)?];
    r.read_exact(&mut buf)?;
    let text = std::str::from_utf8(&buf)
        .map_err(|_| NetError::Frame("frame payload is not UTF-8".into()))?;
    Ok(pocolo_json::from_str(text)?)
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
    /// Seconds per load level of the paper sweep (finite, and at least one
    /// [`CAPPER_PERIOD_S`] so every level is sampled).
    pub dwell_s: f64,
    /// Base experiment seed.
    pub seed: u64,
    /// Fault scenario spec, if any (e.g. `brownout:5`).
    pub faults: Option<FaultSpec>,
    /// Whether the degraded-mode response is armed.
    pub resilience: bool,
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
}

impl ToJson for RunSpec {
    fn to_json(&self) -> Value {
        let placement: Vec<&str> = self.placement.iter().map(|a| a.name()).collect();
        json!({
            "policy": self.policy,
            "lc": self.lc,
            "placement": placement,
            "ranks": self.ranks,
            "dwell_s": self.dwell_s,
            "seed": self.seed,
            "faults": self.faults.map(|f| f.to_string()),
            "resilience": self.resilience,
        })
    }
}

impl FromJson for RunSpec {
    fn from_json(v: &Value) -> Result<RunSpec, JsonError> {
        let names: Vec<String> = v.field("placement")?;
        let placement = (names.iter().enumerate())
            .map(|(i, name)| {
                let app = BeApp::ALL.into_iter().find(|a| a.name() == name);
                let unknown = || JsonError::new(format!("unknown BE app {name:?}"));
                app.ok_or_else(|| unknown().at(i).within("placement"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let faults = v
            .field::<Option<String>>("faults")?
            .map(|s| s.parse::<FaultSpec>())
            .transpose()
            .map_err(|e| JsonError::new(format!("bad fault spec: {e}")).within("faults"))?;
        let dwell_s: f64 = v.field("dwell_s")?;
        if !(dwell_s.is_finite() && dwell_s >= CAPPER_PERIOD_S) {
            let e = JsonError::new(format!(
                "must be finite and at least one capper period ({CAPPER_PERIOD_S} s), got {dwell_s}"
            ));
            return Err(e.within("dwell_s"));
        }
        let spec = RunSpec {
            policy: v.field("policy")?,
            lc: v.field("lc")?,
            placement,
            ranks: v.field("ranks")?,
            dwell_s,
            seed: v.field("seed")?,
            faults,
            resilience: v.field("resilience")?,
        };
        let n = spec.n_servers();
        for (key, len) in [("lc", spec.lc.len()), ("ranks", spec.ranks.len())] {
            if len != n {
                return Err(JsonError::new(format!("{len} entries for {n} slots")).within(key));
            }
        }
        Ok(spec)
    }
}

/// The RPC message set. Agents send `Register`, `Telemetry` and
/// `Complete`; the cluster daemon replies with the matching response or
/// `Error`.
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
        /// provisioned cap), in `(0, 1]`. Agents apply it whenever it
        /// changes.
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
        let mut put = |key: &str, value: Value| fields.push((key.to_string(), value));
        match self {
            Message::Register { agent, class } => {
                put("agent", json!(agent));
                // Omitted rather than null when absent, so v1 peers that
                // predate heterogeneous fleets never see the key.
                if let Some(class) = class {
                    put("class", json!(class));
                }
            }
            Message::Welcome {
                server,
                degraded,
                run,
            } => {
                put("server", json!(server));
                put("degraded", json!(degraded));
                put("run", run.to_json());
            }
            Message::Telemetry {
                server,
                epoch,
                t_s,
                power_w,
                slack,
                be_throughput,
            } => {
                put("server", json!(server));
                put("epoch", json!(epoch));
                put("t_s", json!(t_s));
                put("power_w", json!(power_w));
                put("slack", json!(slack));
                put("be_throughput", json!(be_throughput));
            }
            Message::TelemetryAck { cap_factor } => put("cap_factor", json!(cap_factor)),
            Message::Complete { server, metrics } => {
                put("server", json!(server));
                put("metrics", metrics.to_json());
            }
            Message::FedPull {
                follower,
                from_version,
            } => {
                put("follower", json!(follower));
                put("from_version", json!(from_version));
            }
            Message::FedEntries {
                leader_version,
                snapshot,
                entries,
            } => {
                put("leader_version", json!(leader_version));
                put("snapshot", snapshot.to_json());
                put("entries", entries.to_json());
            }
            Message::Error { message } => put("message", json!(message)),
            Message::CompleteAck => {}
        }
        Value::Object(fields)
    }

    /// Decodes an envelope; a malformed one is a [`NetError::Protocol`]
    /// naming the field path it broke at.
    pub fn from_value(v: &Value) -> Result<Message, NetError> {
        Ok(Message::from_json(v)?)
    }
}

impl FromJson for Message {
    fn from_json(v: &Value) -> Result<Message, JsonError> {
        let version: u64 = v.field("v")?;
        if version != PROTOCOL_VERSION {
            return Err(JsonError::new(format!(
                "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            ))
            .within("v"));
        }
        Ok(match v.field::<String>("type")?.as_str() {
            "register" => Message::Register {
                agent: v.field("agent")?,
                // Absent in frames from pre-fleet peers: stay compatible.
                class: match v.get("class") {
                    None => None,
                    Some(class) => Option::from_json(class).map_err(|e| e.within("class"))?,
                },
            },
            "welcome" => Message::Welcome {
                server: v.field("server")?,
                degraded: v.field("degraded")?,
                run: v.field("run")?,
            },
            "telemetry" => Message::Telemetry {
                server: v.field("server")?,
                epoch: v.field("epoch")?,
                t_s: v.field("t_s")?,
                power_w: v.field("power_w")?,
                slack: v.field("slack")?,
                be_throughput: v.field("be_throughput")?,
            },
            "telemetry_ack" => {
                let cap_factor: f64 = v.field("cap_factor")?;
                // The agent obeys this directive: refuse what it would
                // otherwise clamp silently.
                if !(cap_factor > 0.0 && cap_factor <= 1.0) {
                    let e = JsonError::new(format!("must be in (0, 1], got {cap_factor}"));
                    return Err(e.within("cap_factor"));
                }
                Message::TelemetryAck { cap_factor }
            }
            "complete" => Message::Complete {
                server: v.field("server")?,
                metrics: v.field("metrics")?,
            },
            "complete_ack" => Message::CompleteAck,
            "fed_pull" => Message::FedPull {
                follower: v.field("follower")?,
                from_version: v.field("from_version")?,
            },
            "fed_entries" => Message::FedEntries {
                leader_version: v.field("leader_version")?,
                snapshot: v.field("snapshot")?,
                entries: v.field("entries")?,
            },
            "error" => Message::Error {
                message: v.field("message")?,
            },
            other => {
                return Err(JsonError::new(format!("unknown message type {other:?}")).within("type"))
            }
        })
    }
}

/// The head of a welcome frame, `{"v":1,"type":"welcome","server":N,"degraded":B`,
/// byte for byte as [`Message::to_value`] lays it out. The daemon writes
/// it in front of a run spec it serialized once; the swarm driver reads
/// `(server, degraded)` back with [`scan_welcome_head`] without parsing
/// the (up to ~100 KiB) run spec.
pub(crate) fn welcome_head(server: usize, degraded: bool) -> String {
    format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"welcome\",\"server\":{server},\"degraded\":{degraded}")
}

/// The `(server, degraded)` of a payload that opens with
/// [`welcome_head`] and continues with another field. `None` when the
/// payload is shaped otherwise; callers then parse it in full, so this is
/// purely a fast path.
pub(crate) fn scan_welcome_head(payload: &[u8]) -> Option<(usize, bool)> {
    let text = std::str::from_utf8(payload).ok()?;
    // Everything before the server digits is the same for every slot.
    let lead = welcome_head(0, false);
    let lead = &lead[..lead.len() - "0,\"degraded\":false".len()];
    let rest = text.strip_prefix(lead)?;
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let server = rest[..digits].parse().ok()?;
    [false, true].into_iter().find_map(|degraded| {
        let tail = text.strip_prefix(welcome_head(server, degraded).as_str())?;
        tail.starts_with(',').then_some((server, degraded))
    })
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
        }
    }

    fn metrics() -> ServerMetrics {
        use pocolo_core::units::Watts;
        let mut m = ServerMetrics::new(Watts(150.0));
        m.record(0.1, Watts(120.0), m.power_cap, 0.4, -0.05, true, true);
        m.record(0.1, Watts(131.5), Watts(126.5), 0.55, 0.2, false, false);
        m.record_eviction();
        m.record_recovery(4.5);
        m
    }

    /// One of every message, each with its exact compact encoding.
    fn pinned() -> Vec<(Message, &'static str)> {
        use pocolo_core::federation::{FederationDecision, MigrationIntent, MigrationRecord};
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
            Message::Welcome {
                server: 0,
                degraded: false,
                run: Box::new(RunSpec {
                    policy: Policy::Random {
                        seed: pocolo_json::EXACT_INT_LIMIT - 1,
                    },
                    faults: None,
                    ..spec()
                }),
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
            Message::Complete {
                server: 3,
                metrics: Box::new(metrics()),
            },
            Message::CompleteAck,
            Message::FedPull {
                follower: "fed-1".into(),
                from_version: 17,
            },
            Message::FedEntries {
                leader_version: 19,
                snapshot: Some(Box::new(FedSnapshot {
                    version: 18,
                    tick: 180,
                    app_region: vec![0, 1, 1],
                    budget_w: vec![400.0, 350.0],
                    migrating: vec![MigrationRecord {
                        app: 2,
                        to: 1,
                        until_tick: 182,
                    }],
                })),
                entries: vec![FedLogEntry {
                    version: 19,
                    decision: FederationDecision {
                        tick: 190,
                        budget_w: vec![380.0, 370.0],
                        migrations: vec![MigrationIntent {
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
        let bytes = [
            r#"{"v":1,"type":"register","agent":"agent-3"}"#,
            r#"{"v":1,"type":"register","agent":"agent-4","class":"stepcell"}"#,
            r#"{"v":1,"type":"welcome","server":2,"degraded":true,"run":{"policy":{"kind":"pocolo","solver":"hungarian"},"lc":["img-dnn","sphinx"],"placement":["lstm","graph"],"ranks":[1,0],"dwell_s":3,"seed":49344,"faults":"brownout:5","resilience":true}}"#,
            r#"{"v":1,"type":"welcome","server":0,"degraded":false,"run":{"policy":{"kind":"random","seed":9007199254740991},"lc":["img-dnn","sphinx"],"placement":["lstm","graph"],"ranks":[1,0],"dwell_s":3,"seed":49344,"faults":null,"resilience":true}}"#,
            r#"{"v":1,"type":"telemetry","server":1,"epoch":42,"t_s":42,"power_w":87.5,"slack":-0.125,"be_throughput":0.5}"#,
            r#"{"v":1,"type":"telemetry_ack","cap_factor":0.6}"#,
            r#"{"v":1,"type":"complete","server":3,"metrics":{"duration_s":0.2,"energy":25.15,"peak_power":131.5,"power_cap":150,"be_throughput_avg":0.47500000000000003,"lc_violation_frac":0.5,"capping_frac":0.5,"samples":2,"time_to_recover_s":4.5,"slo_violation_frac_during_fault":1,"evictions":1,"overcap_joules":0.5,"be_integral":0.09500000000000001,"violation_time":0.1,"capping_events":1,"fault_time":0.1,"fault_violation_time":0.1}}"#,
            r#"{"v":1,"type":"complete_ack"}"#,
            r#"{"v":1,"type":"fed_pull","follower":"fed-1","from_version":17}"#,
            r#"{"v":1,"type":"fed_entries","leader_version":19,"snapshot":{"version":18,"tick":180,"app_region":[0,1,1],"budget_w":[400,350],"migrating":[{"app":2,"to":1,"until_tick":182}]},"entries":[{"version":19,"decision":{"tick":190,"budget_w":[380,370],"migrations":[{"app":0,"from":0,"to":1,"gain":0.25}]}}]}"#,
            r#"{"v":1,"type":"fed_entries","leader_version":0,"snapshot":null,"entries":[]}"#,
            r#"{"v":1,"type":"error","message":"nope"}"#,
        ];
        msgs.into_iter().zip(bytes).collect()
    }

    #[test]
    fn messages_round_trip_through_the_envelope() {
        for (msg, bytes) in pinned() {
            assert_eq!(msg.to_value().to_compact_string(), bytes);
            let decoded = Message::from_value(&pocolo_json::from_str(bytes).unwrap()).unwrap();
            assert_eq!(decoded, msg, "{} did not round-trip", msg.type_name());
        }
    }

    /// Every one-field mutation of `v` as (field path, mutated `v`): drop
    /// a member, give a node another JSON type, or make a number
    /// negative, fractional or 2^53.
    fn mutants(v: &Value) -> Vec<(String, Value)> {
        let of_child = |child: &Value| -> Vec<(String, Value)> {
            let limit = pocolo_json::EXACT_INT_LIMIT as f64;
            let retyped = [json!("x"), json!(7), Value::Null, json!([1])]
                .into_iter()
                .filter(|m| std::mem::discriminant(m) != std::mem::discriminant(child));
            let numeric = (child.as_f64().into_iter())
                .flat_map(move |n| [-1.0 - n, n + 0.5, limit].map(Value::Number));
            let here = retyped.chain(numeric).map(|m| (String::new(), m));
            let nested = mutants(child).into_iter().map(|(sub, m)| {
                let sep = if sub.starts_with('[') { "" } else { "." };
                (format!("{sep}{sub}"), m)
            });
            here.chain(nested).collect()
        };
        let mut out = Vec::new();
        match v {
            Value::Object(entries) => {
                for (i, (key, child)) in entries.iter().enumerate() {
                    let mut dropped = entries.clone();
                    dropped.remove(i);
                    out.push((key.clone(), Value::Object(dropped)));
                    for (sub, m) in of_child(child) {
                        let mut e = entries.clone();
                        e[i].1 = m;
                        out.push((format!("{key}{sub}"), Value::Object(e)));
                    }
                }
            }
            Value::Array(items) => {
                for (i, child) in items.iter().enumerate() {
                    for (sub, m) in of_child(child) {
                        let mut e = items.clone();
                        e[i] = m;
                        out.push((format!("[{i}]{sub}"), Value::Array(e)));
                    }
                }
            }
            _ => {}
        }
        out
    }

    #[test]
    fn hostile_frames_fail_naming_the_field() {
        let mut refused = 0;
        for (msg, _) in pinned() {
            for (path, bad) in mutants(&msg.to_value()) {
                match Message::from_value(&bad) {
                    Err(NetError::Protocol(m)) => {
                        assert!(m.starts_with(&format!("{path}: ")), "{path}: {m}");
                        refused += 1;
                    }
                    Err(other) => panic!("{path}: not a protocol error: {other}"),
                    // A value the field's type admits (a negative slack, a
                    // null fault spec, no class) must arrive intact.
                    Ok(Message::Register { class: None, .. }) if path == "class" => {}
                    Ok(decoded) => assert_eq!(decoded.to_value(), bad, "{path} changed"),
                }
            }
        }
        assert!(refused > 500, "only {refused} mutations refused");
    }

    #[test]
    fn a_seed_past_2_pow_53_is_refused_not_rounded() {
        let run = Box::new(RunSpec {
            seed: pocolo_json::EXACT_INT_LIMIT + 1,
            ..spec()
        });
        let (server, degraded) = (0, false);
        let text = Message::Welcome {
            server,
            degraded,
            run,
        }
        .to_value()
        .to_compact_string();
        match Message::from_value(&pocolo_json::from_str(&text).unwrap()) {
            Err(NetError::Protocol(m)) => assert!(m.starts_with("run.seed: "), "{m}"),
            other => panic!("a seed past 2^53 must be refused, got {other:?}"),
        }
    }

    #[test]
    fn a_cap_factor_outside_the_unit_interval_is_refused() {
        let ack = |f: f64| json!({"v": PROTOCOL_VERSION, "type": "telemetry_ack", "cap_factor": f});
        for f in [0.0, -0.5, 7.5] {
            let e = Message::from_value(&ack(f)).unwrap_err().to_string();
            assert!(
                e.contains(&format!("cap_factor: must be in (0, 1], got {f}")),
                "{e}"
            );
        }
        assert!(Message::from_value(&ack(1.0)).is_ok());
    }

    #[test]
    fn frames_round_trip_over_a_byte_pipe() {
        let mut buf = Vec::new();
        let v = Message::TelemetryAck { cap_factor: 0.875 }.to_value();
        write_frame(&mut buf, &v).unwrap();
        write_frame(&mut buf, &Message::CompleteAck.to_value()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), v);
        assert_eq!(read_frame(&mut r).unwrap(), Message::CompleteAck.to_value());
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
        // A load level shorter than one capper period (so never sampled)
        // must not reach the load trace.
        for dwell_s in [0.0, -1.0, 0.05] {
            match welcome(RunSpec { dwell_s, ..spec() }, &[]) {
                Err(NetError::Protocol(m)) => assert!(m.starts_with("run.dwell_s: "), "{m}"),
                other => panic!("{dwell_s}: {other:?}"),
            }
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
