//! The swarm driver: thousands of simulated agents multiplexed on one
//! event-loop thread.
//!
//! Scale runs exercise the daemon's reactor, not the simulation — a real
//! `ServerSim` per slot would make a 5000-agent run a compute benchmark
//! of the engine. Instead each swarm agent speaks the full, unmodified
//! wire protocol (register → telemetry heartbeats → complete) but
//! derives every telemetry sample and its final metrics from a
//! deterministic hash of `(server, seed, epoch)`. The cluster daemon
//! cannot tell the difference, and the test gate is timing-independent:
//! the result the daemon assembles from wire-delivered metric payloads
//! must equal [`scale_reference`] bit-for-bit, no matter how connects,
//! heartbeats and completions interleaved.
//!
//! One thread, one [`Poll`]: the swarm drives every connection through
//! nonblocking readiness I/O with the same [`FrameBuffer`] reassembly
//! and [`Timers`] pacing the daemon uses. Registration is paced
//! (`CONNECT_BURST` in flight) so a 5000-agent cold start is a steady
//! stream rather than one SYN avalanche into the listen backlog.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use compat_mio::net::TcpStream;
use compat_mio::{Events, Interest, Poll, Token};
use pocolo_core::digest::splitmix64;
use pocolo_core::units::Watts;
use pocolo_sim::experiment::ExperimentResult;
use pocolo_sim::ServerMetrics;

use crate::error::NetError;
use crate::frame::{encode_frame, FrameBuffer, ReadStatus};
use crate::timer::Timers;
use crate::wire::{Message, RunSpec, PROTOCOL_VERSION};

/// Provisioned cap every synthetic slot reports under. Arbitrary but
/// shared between the swarm's `Complete` payloads and the in-process
/// reference.
const SCALE_POWER_CAP_W: f64 = 100.0;

/// Registrations allowed in flight at once: enough to keep the register
/// pipeline full, few enough that the daemon's accept backlog stays
/// shallow.
const CONNECT_BURST: usize = 64;

/// Configuration of one swarm pass.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Cluster daemon address.
    pub connect: SocketAddr,
    /// Stable identities, one connection each. Slot assignment comes
    /// from the daemon; identity order only paces the connect storm.
    pub identities: Vec<String>,
    /// Telemetry frames each agent sends before completing.
    pub heartbeats: u64,
    /// Pacing between an agent's heartbeats. `ZERO` runs closed-loop:
    /// the next telemetry leaves as soon as the ack lands.
    pub heartbeat_every: Duration,
    /// Run seed; must match the daemon's `RunSpec` seed for parity.
    pub seed: u64,
    /// Wall-clock budget for the whole pass.
    pub deadline: Duration,
    /// Indices (into `identities`) that abandon the run — close the
    /// socket without completing — after
    /// [`kill_after_epochs`](SwarmConfig::kill_after_epochs) heartbeats.
    /// The churn soak uses this to force lease expiries.
    pub kill: HashSet<usize>,
    /// Heartbeats a killed agent sends before dying.
    pub kill_after_epochs: u64,
}

impl SwarmConfig {
    /// A swarm of `n` agents named `agent-0..n` with loopback-sized
    /// deadlines, running closed-loop.
    pub fn new(connect: SocketAddr, n: usize, heartbeats: u64, seed: u64) -> SwarmConfig {
        SwarmConfig {
            connect,
            identities: (0..n).map(|i| format!("agent-{i}")).collect(),
            heartbeats,
            heartbeat_every: Duration::ZERO,
            seed,
            deadline: Duration::from_secs(120),
            kill: HashSet::new(),
            kill_after_epochs: 0,
        }
    }
}

/// What one swarm agent accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentOutcome {
    /// Slot the daemon assigned.
    pub server: usize,
    /// Whether the welcome flagged the slot degraded.
    pub degraded: bool,
    /// Telemetry frames acknowledged.
    pub epochs: u64,
    /// False when the kill switch abandoned the run.
    pub completed: bool,
}

/// Aggregate statistics of one swarm pass.
#[derive(Debug, Clone)]
pub struct SwarmReport {
    /// Per-agent outcomes, in identity order.
    pub agents: Vec<AgentOutcome>,
    /// First connect to last welcome.
    pub connect_wall: Duration,
    /// Whole pass, first connect to last retirement.
    pub total_wall: Duration,
    /// Telemetry round-trip samples (request write to ack decode),
    /// microseconds, unsorted.
    pub rtts_us: Vec<u64>,
}

impl SwarmReport {
    /// The `q`-quantile (0..=1) of the telemetry RTT samples, in
    /// microseconds. Zero when no telemetry flowed.
    pub fn rtt_quantile_us(&self, q: f64) -> u64 {
        if self.rtts_us.is_empty() {
            return 0;
        }
        let mut sorted = self.rtts_us.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[rank]
    }
}

/// One deterministic telemetry sample: what slot `server` reports at
/// `epoch` under `seed`, on the swarm side and in [`scale_reference`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSample {
    /// Reported whole-server power, watts.
    pub power_w: f64,
    /// Reported LC latency slack.
    pub slack: f64,
    /// Reported BE throughput.
    pub be_throughput: f64,
}

/// Unit-interval f64 from the top 53 bits of a hash.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The telemetry slot `server` reports at `epoch` under `seed`.
pub fn synthetic_sample(server: usize, seed: u64, epoch: u64) -> SyntheticSample {
    let h = splitmix64(seed ^ (server as u64).wrapping_mul(0x517c_c1b7_2722_0a95) ^ epoch);
    SyntheticSample {
        power_w: 60.0 + 35.0 * unit_f64(h),
        slack: unit_f64(splitmix64(h)) - 0.25,
        be_throughput: unit_f64(splitmix64(h ^ 0x5bf0_3635)),
    }
}

/// The metrics a swarm agent on `server` accumulates over `heartbeats`
/// epochs — exactly what its `Complete` payload carries, and what
/// [`scale_reference`] recomputes in-process.
pub fn synthetic_metrics(server: usize, seed: u64, heartbeats: u64) -> ServerMetrics {
    let mut m = ServerMetrics::new(Watts(SCALE_POWER_CAP_W));
    for epoch in 0..heartbeats {
        let s = synthetic_sample(server, seed, epoch);
        m.record(
            1.0,
            Watts(s.power_w),
            s.be_throughput,
            s.slack,
            false,
            false,
        );
    }
    m
}

/// The experiment result a clean scale run must reproduce over the wire,
/// computed without any sockets. Timing-independent by construction:
/// every term is a function of `(slot, seed, heartbeats)` only.
pub fn scale_reference(run: &RunSpec, heartbeats: u64) -> ExperimentResult {
    let metrics = (0..run.n_servers())
        .map(|server| synthetic_metrics(server, run.seed, heartbeats))
        .collect();
    ExperimentResult::from_metrics(run.policy, &run.lc, &run.placement, metrics)
        .expect("scale runs have at least one server")
}

/// Per-connection protocol position.
#[derive(Debug, Clone, Copy)]
enum AgentState {
    /// Register sent, waiting for the welcome.
    Registering,
    /// Telemetry `epoch` sent, waiting for its ack.
    AwaitAck { epoch: u64, sent_at: Instant },
    /// Between heartbeats; a timer fires the next one.
    Waiting { next_epoch: u64 },
    /// Final metrics sent, waiting for the completion ack.
    Completing,
    /// Protocol finished (completed or killed); ready to retire.
    Done,
}

/// What one decoded reply did to the swarm-level counters.
enum Progress {
    None,
    /// The welcome landed; registration pipeline has a free slot.
    Welcomed,
    /// The connection finished its protocol (ack'd or killed).
    Finished,
}

struct Conn {
    stream: TcpStream,
    in_buf: FrameBuffer,
    out: Vec<u8>,
    out_head: usize,
    write_interest: bool,
    state: AgentState,
    outcome: AgentOutcome,
}

/// Scans the cached-welcome byte layout for `(server, degraded)` without
/// parsing the (potentially ~100 KiB) run spec. Returns `None` when the
/// frame is not shaped like the daemon's splice — callers fall back to a
/// full parse, so this is purely an optimisation.
fn welcome_prefix(payload: &[u8]) -> Option<(usize, bool)> {
    let text = std::str::from_utf8(payload).ok()?;
    let head = format!("{{\"v\":{PROTOCOL_VERSION},\"type\":\"welcome\",\"server\":");
    let rest = text.strip_prefix(head.as_str())?;
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let server: usize = rest[..digits].parse().ok()?;
    let rest = rest[digits..].strip_prefix(",\"degraded\":")?;
    if let Some(tail) = rest.strip_prefix("true") {
        tail.starts_with(',').then_some((server, true))
    } else if let Some(tail) = rest.strip_prefix("false") {
        tail.starts_with(',').then_some((server, false))
    } else {
        None
    }
}

/// Decodes a reply frame the slow way (full JSON parse).
fn parse_reply(payload: &[u8]) -> Result<Message, NetError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| NetError::Frame("frame payload is not UTF-8".into()))?;
    Message::from_value(&pocolo_json::from_str(text)?)
}

fn telemetry_frame(server: usize, epoch: u64, seed: u64) -> Result<Vec<u8>, NetError> {
    let s = synthetic_sample(server, seed, epoch);
    encode_frame(
        &Message::Telemetry {
            server,
            epoch,
            t_s: epoch as f64,
            power_w: s.power_w,
            slack: s.slack,
            be_throughput: s.be_throughput,
        }
        .to_value(),
    )
}

/// Drives every identity through the full protocol on one event loop.
///
/// # Errors
///
/// Any connection-level failure, protocol violation, or daemon `Error`
/// reply fails the whole pass — a swarm run is a verification gate, so
/// partial success is failure.
pub fn run_swarm(config: &SwarmConfig) -> Result<SwarmReport, NetError> {
    let n = config.identities.len();
    if n == 0 {
        return Err(NetError::Protocol("swarm needs at least one agent".into()));
    }
    let start = Instant::now();
    let mut poll = Poll::new()?;
    let mut events = Events::with_capacity(1024);
    let mut timers = Timers::default();
    let mut conns: Vec<Option<Conn>> = (0..n).map(|_| None).collect();
    let mut outcomes: Vec<Option<AgentOutcome>> = (0..n).map(|_| None).collect();
    let mut fired: Vec<u64> = Vec::new();

    let mut next_connect = 0usize;
    let mut registering = 0usize;
    let mut welcomed = 0usize;
    let mut done = 0usize;
    let mut connect_wall = Duration::ZERO;
    let mut rtts_us: Vec<u64> = Vec::new();

    while done < n {
        if start.elapsed() > config.deadline {
            return Err(NetError::Protocol(format!(
                "swarm missed its deadline: {done}/{n} agents finished within {:?}",
                config.deadline
            )));
        }

        // Top up the register pipeline. Blocking connects are fine here:
        // on loopback the handshake completes out of the accept backlog,
        // and the burst cap keeps that backlog shallow.
        while next_connect < n && registering < CONNECT_BURST {
            let idx = next_connect;
            next_connect += 1;
            registering += 1;
            let std_stream = std::net::TcpStream::connect(config.connect)?;
            std_stream.set_nodelay(true)?;
            let stream = TcpStream::from_std(std_stream)?;
            poll.register(&stream, Token(idx), Interest::READABLE)?;
            let mut conn = Conn {
                stream,
                in_buf: FrameBuffer::new(),
                out: Vec::new(),
                out_head: 0,
                write_interest: false,
                state: AgentState::Registering,
                outcome: AgentOutcome {
                    server: usize::MAX,
                    degraded: false,
                    epochs: 0,
                    completed: false,
                },
            };
            // Swarm agents cycle through the SKU catalog so the scale
            // path exercises heterogeneous registration end to end.
            let catalog = pocolo_core::fleet::ServerClass::CATALOG;
            let frame = encode_frame(
                &Message::Register {
                    agent: config.identities[idx].clone(),
                    class: Some(catalog[idx % catalog.len()].to_string()),
                }
                .to_value(),
            )?;
            conn.out.extend_from_slice(&frame);
            flush(&poll, Token(idx), &mut conn)?;
            conns[idx] = Some(conn);
        }

        let timeout = timers
            .next_wakeup(Instant::now())
            .unwrap_or(Duration::from_millis(250))
            .min(Duration::from_millis(250));
        poll.poll(&mut events, Some(timeout))?;

        for event in events.iter() {
            let idx = event.token().0;
            let mut finished = false;
            {
                let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                    continue;
                };
                if event.is_writable() {
                    flush(&poll, Token(idx), conn)?;
                }
                if event.is_readable() || event.is_read_closed() || event.is_error() {
                    let status = conn
                        .in_buf
                        .fill_from(&mut conn.stream)
                        .map_err(NetError::Io)?;
                    let now = Instant::now();
                    while let Some(payload) = conn.in_buf.next_raw()? {
                        match advance(conn, &payload, now, config, &mut timers, idx, &mut rtts_us)?
                        {
                            Progress::Welcomed => {
                                welcomed += 1;
                                registering -= 1;
                                if welcomed == n {
                                    connect_wall = start.elapsed();
                                }
                            }
                            Progress::Finished => {
                                finished = true;
                                break;
                            }
                            Progress::None => {}
                        }
                    }
                    if !finished {
                        flush(&poll, Token(idx), conn)?;
                        if status == ReadStatus::Eof {
                            return Err(NetError::Protocol(format!(
                                "daemon closed agent {idx}'s connection mid-protocol"
                            )));
                        }
                    }
                }
                if matches!(conn.state, AgentState::Done) {
                    finished = true;
                }
            }
            if finished {
                let conn = conns[idx].take().expect("finished connection exists");
                poll.deregister(&conn.stream, Token(idx))?;
                outcomes[idx] = Some(conn.outcome);
                done += 1;
                // Dropping `conn` closes the fd.
            }
        }

        // Timers: heartbeats whose pacing interval elapsed.
        fired.clear();
        let now = Instant::now();
        timers.advance(now, &mut fired);
        for &key in &fired {
            let idx = key as usize;
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            if let AgentState::Waiting { next_epoch } = conn.state {
                let frame = telemetry_frame(conn.outcome.server, next_epoch, config.seed)?;
                conn.out.extend_from_slice(&frame);
                conn.state = AgentState::AwaitAck {
                    epoch: next_epoch,
                    sent_at: Instant::now(),
                };
                flush(&poll, Token(idx), conn)?;
            }
        }
    }

    let agents: Vec<AgentOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("all agents retired"))
        .collect();
    Ok(SwarmReport {
        agents,
        connect_wall,
        total_wall: start.elapsed(),
        rtts_us,
    })
}

/// Writes as much of the outbound buffer as the socket takes, arming
/// `WRITABLE` interest exactly while bytes remain.
fn flush(poll: &Poll, token: Token, conn: &mut Conn) -> Result<(), NetError> {
    use std::io::Write;
    while conn.out_head < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_head..]) {
            Ok(0) => {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "daemon socket accepted zero bytes",
                )))
            }
            Ok(k) => conn.out_head += k,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    if conn.out_head >= conn.out.len() {
        conn.out.clear();
        conn.out_head = 0;
    }
    let want_write = !conn.out.is_empty();
    if want_write != conn.write_interest {
        conn.write_interest = want_write;
        let interest = if want_write {
            Interest::READABLE.add(Interest::WRITABLE)
        } else {
            Interest::READABLE
        };
        poll.reregister(&conn.stream, token, interest)?;
    }
    Ok(())
}

/// Advances one connection's state machine on one decoded reply frame.
fn advance(
    conn: &mut Conn,
    payload: &[u8],
    now: Instant,
    config: &SwarmConfig,
    timers: &mut Timers,
    idx: usize,
    rtts_us: &mut Vec<u64>,
) -> Result<Progress, NetError> {
    match conn.state {
        AgentState::Registering => {
            let (server, degraded) = match welcome_prefix(payload) {
                Some(pair) => pair,
                None => match parse_reply(payload)? {
                    Message::Welcome {
                        server, degraded, ..
                    } => (server, degraded),
                    Message::Error { message } => return Err(NetError::Remote(message)),
                    other => {
                        return Err(NetError::Protocol(format!(
                            "agent {idx}: expected welcome, got {}",
                            other.type_name()
                        )))
                    }
                },
            };
            conn.outcome.server = server;
            conn.outcome.degraded = degraded;
            if config.heartbeats == 0 {
                send_complete(conn, config)?;
            } else if config.heartbeat_every.is_zero() {
                let frame = telemetry_frame(server, 0, config.seed)?;
                conn.out.extend_from_slice(&frame);
                conn.state = AgentState::AwaitAck {
                    epoch: 0,
                    sent_at: now,
                };
            } else {
                // Spread first heartbeats across one interval so a
                // 5000-agent fleet does not beat in phase.
                let phase = config.heartbeat_every.mul_f64((idx % 997) as f64 / 997.0);
                conn.state = AgentState::Waiting { next_epoch: 0 };
                timers.schedule(now, phase, idx as u64);
            }
            Ok(Progress::Welcomed)
        }
        AgentState::AwaitAck { epoch, sent_at } => {
            match parse_reply(payload)? {
                Message::TelemetryAck { .. } => {
                    rtts_us.push(now.duration_since(sent_at).as_micros() as u64);
                }
                Message::Error { message } => return Err(NetError::Remote(message)),
                other => {
                    return Err(NetError::Protocol(format!(
                        "agent {idx}: expected telemetry ack, got {}",
                        other.type_name()
                    )))
                }
            }
            conn.outcome.epochs = epoch + 1;
            if config.kill.contains(&idx) && conn.outcome.epochs >= config.kill_after_epochs {
                // Abandon mid-run: the daemon sees EOF and the lease
                // runs out. `completed` stays false.
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                conn.state = AgentState::Done;
                return Ok(Progress::Finished);
            }
            let next = epoch + 1;
            if next < config.heartbeats {
                if config.heartbeat_every.is_zero() {
                    let frame = telemetry_frame(conn.outcome.server, next, config.seed)?;
                    conn.out.extend_from_slice(&frame);
                    conn.state = AgentState::AwaitAck {
                        epoch: next,
                        sent_at: now,
                    };
                } else {
                    conn.state = AgentState::Waiting { next_epoch: next };
                    timers.schedule(now, config.heartbeat_every, idx as u64);
                }
            } else {
                send_complete(conn, config)?;
            }
            Ok(Progress::None)
        }
        AgentState::Waiting { .. } => Err(NetError::Protocol(format!(
            "agent {idx}: unsolicited frame between heartbeats"
        ))),
        AgentState::Completing => match parse_reply(payload)? {
            Message::CompleteAck => {
                conn.outcome.completed = true;
                conn.state = AgentState::Done;
                Ok(Progress::Finished)
            }
            Message::Error { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Protocol(format!(
                "agent {idx}: expected completion ack, got {}",
                other.type_name()
            ))),
        },
        AgentState::Done => Err(NetError::Protocol(format!(
            "agent {idx}: frame after protocol completion"
        ))),
    }
}

fn send_complete(conn: &mut Conn, config: &SwarmConfig) -> Result<(), NetError> {
    let metrics = synthetic_metrics(conn.outcome.server, config.seed, config.heartbeats);
    let frame = encode_frame(
        &Message::Complete {
            server: conn.outcome.server,
            metrics: Box::new(metrics),
        }
        .to_value(),
    )?;
    conn.out.extend_from_slice(&frame);
    conn.state = AgentState::Completing;
    Ok(())
}
