//! `wire-heartbeat` — the reactor daemon over loopback.
//!
//! `Clusterd` serves `RunSpec::scale(n)`; `n` agents connect and register
//! one after another with `RpcClient`, then a single generator thread
//! sends closed-loop heartbeats round-robin with one request in flight
//! (the other core belongs to the reactor; the `n` sockets are registered
//! state held idle, not load). `set_cap_factor` flips on a fixed heartbeat
//! count and every ack must carry the directive in force. Only
//! `pocolo-net` and `pocolo-json` work. Loopback, not a real link; the
//! generator and the reactor share one pinned CPU (see
//! [`pin_to_one_cpu`]).

use std::hint::black_box;
use std::time::{Duration, Instant};

use super::ms_since;
use crate::api::{
    connect_with_retry, encode_frame, read_frame, scale_reference, synthetic_metrics, write_frame,
    ClusterConfig, Clusterd, Decoded, FrameBuffer, Message, RetryPolicy, RpcClient, RunSpec,
};
use crate::gen::schedule::telemetry_payload;
use crate::proc::{pin_to_one_cpu, Pinned};
use crate::record::Recorder;
use crate::run::{Measured, SetupNotes, Sink, Workload};
use crate::stats::median;

/// Long enough that an idle registered agent never loses its lease.
const LEASE_TTL: Duration = Duration::from_secs(120);

/// Socket deadline of every benchmark connection.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The budget directive alternates between these.
const DIRECTIVES: [f64; 2] = [0.8, 1.0];

/// Slots of the small daemon that bypasses fleet-size-dependent cost.
const SMALL_FLEET: usize = 16;

/// Every this-many-th heartbeat gets a span in the traced phase.
const SPAN_EVERY: usize = 64;

/// Frames timed through the codec probe.
const CODEC_REPS: usize = 2000;

/// A daemon with every slot registered.
#[derive(Debug)]
pub struct Registered {
    /// Keeps the generator on the CPU the reactor thread was born on.
    _pinned: Pinned,
    /// `(slot, connection)` per agent, in registration order. Declared
    /// before the daemon so the sockets close before it stops.
    pub agents: Vec<(usize, RpcClient)>,
    /// The daemon under test.
    pub daemon: Clusterd,
    /// The run spec the daemon serves.
    pub run: RunSpec,
}

/// Spawns a reactor daemon for an `n`-slot scale run.
fn spawn_daemon(run: &RunSpec) -> Clusterd {
    let listen = "127.0.0.1:0".parse().expect("loopback literal");
    Clusterd::spawn(ClusterConfig::new(listen, LEASE_TTL, run.clone())).expect("daemon binds")
}

/// Spawns a daemon and registers `n` agents sequentially, noting the
/// median register time and the registration rate.
pub fn register_fleet(n: usize, seed: u64, notes: &mut SetupNotes) -> Registered {
    let run = RunSpec::scale(n, seed);
    let pinned = pin_to_one_cpu();
    let daemon = spawn_daemon(&run);
    let start = Instant::now();
    let mut register_ms = Vec::with_capacity(n);
    let agents = (0..n)
        .map(|i| {
            let one = Instant::now();
            let mut retry = RetryPolicy::reconnect(seed ^ i as u64);
            let mut client = RpcClient::connect(daemon.local_addr(), &mut retry, IO_TIMEOUT)
                .expect("loopback connect");
            let register = Message::Register {
                agent: format!("agent-{i}"),
                class: None,
            };
            let server = match client.call(&register).expect("register reply") {
                Message::Welcome { server, .. } => server,
                other => panic!("expected welcome, got {}", other.type_name()),
            };
            register_ms.push(ms_since(one));
            (server, client)
        })
        .collect();
    notes.note("connects_per_s", n as f64 / start.elapsed().as_secs_f64());
    notes.note("net.register_ms", median(&register_ms));
    Registered {
        _pinned: pinned,
        agents,
        daemon,
        run,
    }
}

/// One heartbeat: the round trip in milliseconds and the ack's directive.
pub fn heartbeat(
    client: &mut RpcClient,
    server: usize,
    epoch: u64,
    (power_w, slack, be_throughput): (f64, f64, f64),
) -> (f64, Option<f64>) {
    let telemetry = Message::Telemetry {
        server,
        epoch,
        t_s: epoch as f64,
        power_w,
        slack,
        be_throughput,
    };
    let start = Instant::now();
    let reply = client.call(&telemetry);
    let ms = ms_since(start);
    match reply {
        Ok(Message::TelemetryAck { cap_factor }) => (ms, Some(cap_factor)),
        _ => (ms, None),
    }
}

/// The workload's state.
#[derive(Debug)]
pub struct WireHeartbeat {
    fleet: Registered,
    seed: u64,
    /// Heartbeats per agent per round.
    heartbeats: u64,
    /// The directive flips every this many heartbeats.
    flip_every: usize,
    /// `heartbeats × agents` payloads, generated once.
    payloads: Vec<(f64, f64, f64)>,
}

impl Workload for WireHeartbeat {
    const NAME: &'static str = "wire-heartbeat";
    const OP: &'static str = "net.heartbeat";

    fn setup(seed: u64, smoke: bool, notes: &mut SetupNotes) -> Self {
        let (n, heartbeats, flip_every) = if smoke {
            (48, 5, 100)
        } else {
            (1000, 20, 10_000)
        };
        let mut fleet = register_fleet(n, seed, notes);
        let payloads = (0..heartbeats)
            .flat_map(|epoch| (0..n).map(move |agent| telemetry_payload(seed, agent, epoch)))
            .collect::<Vec<_>>();
        let (server, client) = &mut fleet.agents[0];
        black_box(heartbeat(client, *server, 0, payloads[0]));
        WireHeartbeat {
            fleet,
            seed,
            heartbeats,
            flip_every,
            payloads,
        }
    }

    fn round(&mut self, rec: &mut Recorder) {
        let n = self.fleet.agents.len();
        let mut directive = DIRECTIVES[1];
        for (i, &payload) in self.payloads.iter().enumerate() {
            if i % self.flip_every == 0 {
                directive = DIRECTIVES[(i / self.flip_every) % 2];
                self.fleet.daemon.set_cap_factor(directive);
            }
            let (server, client) = &mut self.fleet.agents[i % n];
            let spanned = i % SPAN_EVERY == 0;
            if spanned {
                rec.tr.begin("net.heartbeat_span", i as u64);
            }
            let (ms, ack) = heartbeat(client, *server, (i / n) as u64, payload);
            if spanned {
                rec.tr.end();
            }
            rec.sample(Self::OP, ms);
            rec.check(ack == Some(directive), || {
                format!("heartbeat {i}: ack {ack:?}, directive in force {directive}")
            });
            // What went out and what came back for it.
            rec.fold_f64(payload.0);
            rec.fold_f64(ack.unwrap_or(f64::NAN));
        }
    }

    fn probes(&mut self, rec: &mut Recorder) {
        // Client-side codec cost on the same frames the loop sends.
        let ack = encode_frame(&Message::TelemetryAck { cap_factor: 0.8 }.to_value())
            .expect("ack encodes");
        let (mut telemetry_bytes, mut buffer) = (0usize, FrameBuffer::new());
        for (i, &(power_w, slack, be_throughput)) in
            self.payloads.iter().take(CODEC_REPS).enumerate()
        {
            let message = Message::Telemetry {
                server: i,
                epoch: 0,
                t_s: 0.0,
                power_w,
                slack,
                be_throughput,
            };
            rec.tr.begin("json.encode", i as u64);
            let frame = encode_frame(&message.to_value()).expect("telemetry encodes");
            rec.tr.end();
            telemetry_bytes += frame.len();
            rec.tr.begin("json.decode", i as u64);
            buffer.extend(&ack);
            let decoded = match buffer.next() {
                Ok(Some(Decoded::Frame(value))) => Message::from_value(&value).ok(),
                _ => None,
            };
            rec.tr.end();
            black_box(decoded);
        }
        let frames = self.payloads.len().min(CODEC_REPS);
        rec.sample(
            "net.telemetry_frame_bytes",
            (telemetry_bytes / frames) as f64,
        );
        rec.sample("net.ack_frame_bytes", ack.len() as f64);
        let welcome = Message::Welcome {
            server: 0,
            degraded: false,
            run: Box::new(self.fleet.run.clone()),
        };
        rec.sample(
            "net.welcome_bytes",
            encode_frame(&welcome.to_value()).map_or(0, |f| f.len()) as f64,
        );

        // The same loop against a small daemon, split into the write and
        // the blocked read: what the fleet's size adds, and how much of a
        // round trip is waiting.
        let run = RunSpec::scale(SMALL_FLEET, self.seed);
        let daemon = spawn_daemon(&run);
        let mut streams: Vec<_> = (0..SMALL_FLEET)
            .map(|i| {
                let mut retry = RetryPolicy::reconnect(self.seed ^ i as u64);
                let mut stream = connect_with_retry(daemon.local_addr(), &mut retry, IO_TIMEOUT)
                    .expect("loopback connect");
                let register = Message::Register {
                    agent: format!("probe-{i}"),
                    class: None,
                };
                write_frame(&mut stream, &register.to_value()).expect("register sent");
                let welcome = read_frame(&mut stream).expect("welcome read");
                match Message::from_value(&welcome) {
                    Ok(Message::Welcome { server, .. }) => (server, stream),
                    other => panic!("expected welcome, got {other:?}"),
                }
            })
            .collect();
        let (mut waited_ms, mut total_ms) = (0.0, 0.0);
        for (i, &(power_w, slack, be_throughput)) in self.payloads.iter().enumerate() {
            let (server, stream) = &mut streams[i % SMALL_FLEET];
            let telemetry = Message::Telemetry {
                server: *server,
                epoch: (i / SMALL_FLEET) as u64,
                t_s: 0.0,
                power_w,
                slack,
                be_throughput,
            };
            let start = Instant::now();
            write_frame(stream, &telemetry.to_value()).expect("telemetry sent");
            let sent = Instant::now();
            let reply = read_frame(stream).expect("ack read");
            let read_ms = ms_since(sent);
            black_box(Message::from_value(&reply).is_ok());
            let rtt_ms = ms_since(start);
            rec.sample("net.rtt_small_fleet", rtt_ms);
            waited_ms += read_ms;
            total_ms += rtt_ms;
        }
        rec.sample("net.client_wait_frac", waited_ms / total_ms.max(1e-12));
    }

    fn verify(&mut self, rec: &mut Recorder) {
        for (server, client) in &mut self.fleet.agents {
            let complete = Message::Complete {
                server: *server,
                metrics: Box::new(synthetic_metrics(*server, self.seed, self.heartbeats)),
            };
            let reply = client.call(&complete);
            rec.check(matches!(reply, Ok(Message::CompleteAck)), || {
                format!("slot {server}: completion not acknowledged ({reply:?})")
            });
        }
        let done = self.fleet.daemon.wait_done(IO_TIMEOUT);
        let reference = scale_reference(&self.fleet.run, self.heartbeats);
        rec.check(
            done && self.fleet.daemon.result() == Some(reference),
            || "assembled wire result differs from scale_reference".to_string(),
        );
    }

    fn report(&self, m: &Measured, out: &mut Sink) {
        out.put_q("connects_per_s", m.setup.median("connects_per_s"));
        out.put_q("heartbeats_per_s", m.rate(Self::OP));
        out.put_us("heartbeat_rtt_us_p50", m.q(Self::OP, 0.5));
        out.put_us("net.register_us_p50", m.setup.median("net.register_ms"));
        out.put_us("net.rtt_us_p99", m.q(Self::OP, 0.99));
        out.put_us("net.rtt_us_p999", m.q(Self::OP, 0.999));
        out.put_us(
            "net.rtt_us_p50_small_fleet",
            m.q("net.rtt_small_fleet", 0.5),
        );
        out.put_q("net.client_wait_frac", m.q("net.client_wait_frac", 0.5));
        out.put_us("json.encode_us_p50", m.q("json.encode", 0.5));
        out.put_us("json.decode_us_p50", m.q("json.decode", 0.5));
        for name in [
            "net.telemetry_frame_bytes",
            "net.ack_frame_bytes",
            "net.welcome_bytes",
        ] {
            out.put_q(name, m.q(name, 0.5));
        }
    }
}
