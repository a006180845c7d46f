//! Reactor scale baseline: what one clusterd event loop sustains.
//!
//! Three figures of merit per fleet size, landed in
//! `BENCH_net.json` next to the crate's other standing baselines:
//!
//! - **connections/s** — a cold fleet registering: paced connect storm
//!   until every agent holds a welcome (the welcome carries the full
//!   `RunSpec`, so this is also a serialization-throughput number);
//! - **heartbeat RTT p50/p99** — closed-loop telemetry echo, the
//!   round-trip a heartbeat sees under full request pressure;
//! - **broadcast fan-out** — a `cap_factor` directive flipped once the
//!   whole fleet is registered; the time until the *last* agent
//!   observes it through its telemetry ack at a 1 s heartbeat cadence.
//!
//! The CI gate ([`smoke`]) is the `demo-net --agents 1000` run driven by
//! the workflow (wall-clock budget, timing-independent parity); this
//! module's own smoke keeps a small fleet end-to-end and asserts the
//! parity contract, never wall-clock.

use std::time::{Duration, Instant};

use pocolo::net::swarm::{run_swarm, scale_reference, SwarmConfig};
use pocolo::net::{ClusterConfig, Clusterd, RunSpec};

/// Fleet sizes the standard report sweeps.
pub const REACTOR_FLEETS: [usize; 3] = [500, 2000, 5000];

/// Heartbeats per agent in the closed-loop RTT phase.
pub const RTT_HEARTBEATS: u64 = 10;

/// Heartbeats per agent in the paced fan-out phase.
pub const FANOUT_HEARTBEATS: u64 = 10;

/// Heartbeat cadence of the fan-out phase.
pub const FANOUT_CADENCE: Duration = Duration::from_secs(1);

/// One `BENCH_net.json` row.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Fleet size (agents = slots = connections).
    pub agents: u64,
    /// Register storm wall-clock, seconds (connect → last welcome).
    pub connect_wall_s: f64,
    /// Accepted-and-welcomed connections per second.
    pub connections_per_s: f64,
    /// Closed-loop telemetry round-trips per second.
    pub rpc_per_s: f64,
    /// Median heartbeat round-trip, microseconds.
    pub rtt_p50_us: u64,
    /// 99th-percentile heartbeat round-trip, microseconds.
    pub rtt_p99_us: u64,
    /// Directive broadcast fan-out: seconds from `set_cap_factor` to the
    /// last agent observing it at a 1 s heartbeat cadence.
    pub fanout_s: f64,
    /// Agents that observed the directive (must be the whole fleet).
    pub fanout_observers: u64,
}

pocolo_json::impl_to_json!(BenchRow {
    agents,
    connect_wall_s,
    connections_per_s,
    rpc_per_s,
    rtt_p50_us,
    rtt_p99_us,
    fanout_s,
    fanout_observers,
});

/// The standing baseline written to `BENCH_net.json`.
#[derive(Debug, Clone)]
pub struct NetScaleReport {
    /// Heartbeats per agent in the closed-loop phase.
    pub rtt_heartbeats: u64,
    /// Fan-out phase cadence, seconds.
    pub fanout_cadence_s: f64,
    /// One row per fleet size.
    pub rows: Vec<BenchRow>,
}

pocolo_json::impl_to_json!(NetScaleReport {
    rtt_heartbeats,
    fanout_cadence_s,
    rows
});

fn spawn_daemon(n: usize, seed: u64) -> Clusterd {
    Clusterd::spawn(ClusterConfig::new(
        "127.0.0.1:0".parse().expect("loopback literal"),
        // Generous lease: the bench measures the transport, not expiry.
        Duration::from_secs(60),
        RunSpec::scale(n, seed),
    ))
    .expect("clusterd spawn")
}

/// Phase A: closed-loop heartbeats. Returns (connect wall, rpc/s, RTT
/// samples).
fn rtt_phase(n: usize) -> (Duration, f64, Vec<u64>) {
    let seed = 0x5CA1E;
    let clusterd = spawn_daemon(n, seed);
    let mut swarm = SwarmConfig::new(clusterd.local_addr(), n, RTT_HEARTBEATS, seed);
    swarm.deadline = Duration::from_secs(600);
    let report = run_swarm(&swarm).expect("closed-loop swarm pass");
    assert!(
        clusterd.wait_done(Duration::from_secs(60)),
        "daemon assembled all metrics"
    );
    let wire = clusterd.result().expect("full results");
    assert_eq!(
        wire,
        scale_reference(&RunSpec::scale(n, seed), RTT_HEARTBEATS),
        "scale run diverged from the timing-independent reference"
    );
    let heartbeat_wall = report
        .total_wall
        .saturating_sub(report.connect_wall)
        .max(Duration::from_millis(1));
    let rpc_per_s = report.rtts_us.len() as f64 / heartbeat_wall.as_secs_f64();
    (report.connect_wall, rpc_per_s, report.rtts_us)
}

/// Phase B: paced heartbeats; flip the budget directive once the whole
/// fleet is registered, measure time-to-last-observation.
fn fanout_phase(n: usize) -> (f64, u64) {
    let seed = 0xFA_007;
    let clusterd = spawn_daemon(n, seed);
    let mut swarm = SwarmConfig::new(clusterd.local_addr(), n, FANOUT_HEARTBEATS, seed);
    swarm.heartbeat_every = FANOUT_CADENCE;
    swarm.deadline = Duration::from_secs(600);

    // The directive flips from a helper thread the moment every agent
    // is connected: the connection registry hitting the fleet size.
    let (report, set_at) = std::thread::scope(|scope| {
        let probe = &clusterd;
        let handle = scope.spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(300);
            while probe.open_connections() != n {
                assert!(Instant::now() < deadline, "fleet never fully registered");
                std::thread::sleep(Duration::from_millis(2));
            }
            let set_at = Instant::now();
            probe.set_cap_factor(0.8);
            set_at
        });
        let report = run_swarm(&swarm).expect("paced swarm pass");
        (report, handle.join().expect("cap-setter thread"))
    });

    let observed: Vec<Instant> = report
        .agents
        .iter()
        .filter(|a| a.cap_seen == 0.8)
        .filter_map(|a| a.cap_changed_at)
        .collect();
    let last = observed
        .iter()
        .max()
        .copied()
        .expect("at least one agent observed the directive");
    drop(clusterd);
    (
        last.saturating_duration_since(set_at).as_secs_f64(),
        observed.len() as u64,
    )
}

/// Measures one fleet size: both phases.
pub fn run_case(n: usize) -> BenchRow {
    let (connect_wall, rpc_per_s, mut rtts) = rtt_phase(n);
    let (fanout_s, fanout_observers) = fanout_phase(n);
    rtts.sort_unstable();
    let q = |p: f64| rtts[((rtts.len() - 1) as f64 * p).round() as usize];
    BenchRow {
        agents: n as u64,
        connect_wall_s: connect_wall.as_secs_f64(),
        connections_per_s: n as f64 / connect_wall.as_secs_f64().max(1e-9),
        rpc_per_s,
        rtt_p50_us: q(0.50),
        rtt_p99_us: q(0.99),
        fanout_s,
        fanout_observers,
    }
}

/// Runs the standard sweep (500/2000/5000 agents) and returns the
/// baseline report.
pub fn run_standard() -> NetScaleReport {
    let mut rows = Vec::new();
    for &n in &REACTOR_FLEETS {
        println!("net_scale: {n} agents...");
        let row = run_case(n);
        println!(
            "  connect {:>7.2}s ({:>6.0} conn/s), rpc {:>7.0}/s, \
             rtt p50 {:>7} us p99 {:>8} us, fanout {:>6.3}s ({}/{} observed)",
            row.connect_wall_s,
            row.connections_per_s,
            row.rpc_per_s,
            row.rtt_p50_us,
            row.rtt_p99_us,
            row.fanout_s,
            row.fanout_observers,
            n,
        );
        rows.push(row);
    }
    NetScaleReport {
        rtt_heartbeats: RTT_HEARTBEATS,
        fanout_cadence_s: FANOUT_CADENCE.as_secs_f64(),
        rows,
    }
}

/// A timing-independent end-to-end pass at a small fleet: the parity
/// contract, suitable for `cargo test`.
///
/// # Panics
///
/// Panics when the assembled result diverges from the reference.
pub fn smoke() {
    let seed = 0x00E7;
    let n = 48;
    let clusterd = spawn_daemon(n, seed);
    let swarm = SwarmConfig::new(clusterd.local_addr(), n, 3, seed);
    run_swarm(&swarm).expect("smoke swarm pass");
    assert!(clusterd.wait_done(Duration::from_secs(60)));
    assert_eq!(
        clusterd.result().expect("full results"),
        scale_reference(&RunSpec::scale(n, seed), 3),
        "smoke fleet diverged from the reference"
    );
    println!("net-scale smoke: PASS");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_gate_passes() {
        smoke();
    }
}
