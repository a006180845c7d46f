//! Connection-churn soak: 200 swarm agents against one reactor event
//! loop, a quarter of them killed mid-run. The daemon must expire every
//! orphaned lease, hand the slots back degraded on rejoin, finish with
//! metrics bit-identical to the timing-independent replay reference,
//! and hold no connection state afterwards (no fd leak).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use pocolo_net::swarm::{run_swarm, scale_reference, SwarmConfig};
use pocolo_net::{ClusterConfig, Clusterd, RunSpec, SlotState};

const N: usize = 200;
const HEARTBEATS: u64 = 6;
const SEED: u64 = 11;

fn wait_until(what: &str, deadline: Duration, mut ready: impl FnMut() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(
            start.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn two_hundred_agents_survive_a_kill_and_rejoin_storm() {
    let run = RunSpec::scale(N, SEED);
    let clusterd = Clusterd::spawn(ClusterConfig::new(
        "127.0.0.1:0".parse().unwrap(),
        Duration::from_millis(200),
        run.clone(),
    ))
    .unwrap();
    let addr = clusterd.local_addr();

    // First pass: every fourth agent abandons its slot after two
    // heartbeats; the rest run to completion.
    let mut first_pass = SwarmConfig::new(addr, N, HEARTBEATS, SEED);
    first_pass.heartbeat_every = Duration::from_millis(25);
    first_pass.kill = (0..N).filter(|i| i % 4 == 0).collect();
    first_pass.kill_after_epochs = 2;
    let first = run_swarm(&first_pass).unwrap();

    let killed: Vec<usize> = first
        .agents
        .iter()
        .enumerate()
        .filter(|(_, a)| !a.completed)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(killed.len(), N / 4, "exactly the kill set was killed");
    assert!(killed.iter().all(|i| first_pass.kill.contains(i)));
    let killed_slots: HashSet<usize> = killed.iter().map(|&i| first.agents[i].server).collect();
    assert_eq!(killed_slots.len(), N / 4, "killed slots are distinct");

    // Lease takeover: every orphaned slot flips to Degraded once its
    // lease runs out — driven by the reactor's deadline heap, no reaper
    // thread to thank.
    wait_until("orphaned leases to expire", Duration::from_secs(30), || {
        let states = clusterd.slot_states();
        killed_slots
            .iter()
            .all(|&s| matches!(states[s], SlotState::Degraded { .. }))
    });

    // No fd leak between passes: completed agents hung up after their
    // ack, killed agents hung up mid-run; the registry of open
    // connections must drain back to the baseline of zero.
    wait_until(
        "first-pass connections to drain",
        Duration::from_secs(30),
        || clusterd.open_connections() == 0,
    );

    // Rejoin under the same identities: the daemon hands back the same
    // slot, flagged degraded, and the replacement re-runs it fully.
    let mut rejoin_pass = SwarmConfig::new(addr, 0, HEARTBEATS, SEED);
    rejoin_pass.identities = killed.iter().map(|&i| format!("agent-{i}")).collect();
    let second = run_swarm(&rejoin_pass).unwrap();
    for (&orig_idx, outcome) in killed.iter().zip(&second.agents) {
        assert!(outcome.completed, "rejoined agent {orig_idx} completed");
        assert!(outcome.degraded, "rejoined agent {orig_idx} saw degraded");
        assert_eq!(
            outcome.server, first.agents[orig_idx].server,
            "agent {orig_idx} reclaimed its own slot"
        );
    }

    // Final metrics match the replayed reference bit-for-bit: a rejoined
    // slot completes with the same deterministic metrics it would have
    // delivered uninterrupted, so the cluster-level result is exactly
    // the clean-run reference.
    assert!(clusterd.wait_done(Duration::from_secs(30)));
    let wire = clusterd.result().expect("all slots delivered metrics");
    assert_eq!(
        wire,
        scale_reference(&run, HEARTBEATS),
        "assembled result diverged from the replayed reference"
    );

    assert_eq!(
        clusterd.reregistrations(),
        N / 4,
        "every kill produced exactly one re-registration"
    );
    let degraded_history: HashSet<usize> = clusterd.degraded_history().into_iter().collect();
    assert_eq!(degraded_history, killed_slots);

    // And after the rejoin wave, the connection registry is back to
    // baseline again.
    wait_until(
        "second-pass connections to drain",
        Duration::from_secs(30),
        || clusterd.open_connections() == 0,
    );
}
