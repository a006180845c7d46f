//! End-to-end replication over real sockets: a leader serves its
//! committed log on the pocolo-net reactor, followers catch up with
//! `FedPull`, the leader dies, and the promoted follower serves the
//! *same* log — late arrivals reach the identical state either way.

use std::net::SocketAddr;

use pocolo_core::federation::{FederationDecision, MigrationIntent};
use pocolo_federation::net::sync_state;
use pocolo_federation::{serve_log, FedState, ReplicaSet};

fn any_port() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn decision(tick: u64, movers: &[(usize, usize, usize)]) -> FederationDecision {
    FederationDecision {
        tick,
        budget_w: vec![150.0, 250.0, 90.0],
        migrations: movers
            .iter()
            .map(|&(app, from, to)| MigrationIntent {
                app,
                from,
                to,
                gain: 0.25,
            })
            .collect(),
    }
}

#[test]
fn followers_catch_up_and_survive_leader_failover() {
    // A leader group commits three epochs' worth of decisions.
    let mut set = ReplicaSet::new(3, vec![0, 0, 1, 2], 3);
    set.commit(decision(0, &[]));
    set.commit(decision(10, &[(0, 0, 1)]));
    set.commit(decision(20, &[(3, 2, 0)]));
    let leader_state = set.leader_state().clone();

    // The leader serves its log from its initial snapshot (version 0,
    // everything at home).
    let base = FedState::new(vec![0, 0, 1, 2], 3).snapshot();
    let mut leader_srv = serve_log(any_port(), base.clone(), set.log().to_vec()).unwrap();
    let leader_addr = leader_srv.local_addr();

    // A fresh follower pulls everything and lands on the leader state.
    let follower = sync_state(leader_addr, "follower-1", None).unwrap();
    assert_eq!(follower, leader_state);

    // An incremental pull from a half-caught-up state only applies the
    // suffix and converges too.
    let mut partial = FedState::new(vec![0, 0, 1, 2], 3);
    partial.apply(&set.log()[0]);
    let caught_up = sync_state(leader_addr, "follower-2", Some(partial)).unwrap();
    assert_eq!(caught_up, leader_state);

    // Leader dies; the epoch-deadline backstop promotes follower rank 1,
    // which serves the identical replicated log on a fresh socket.
    leader_srv.shutdown();
    set.kill(0, 25);
    let promoted = set.ensure_leader(30).expect("promotion");
    assert_eq!(promoted, 1);
    // The promoted leader keeps committing past the crash.
    set.commit(decision(30, &[(1, 0, 2)]));
    let promoted_state = set.leader_state().clone();
    let mut promoted_srv = serve_log(any_port(), base, set.log().to_vec()).unwrap();
    let promoted_addr = promoted_srv.local_addr();

    // The old follower re-syncs against the new leader incrementally; a
    // brand-new replica full-syncs. Both land on the promoted state.
    let resynced = sync_state(promoted_addr, "follower-1", Some(follower)).unwrap();
    let fresh = sync_state(promoted_addr, "follower-3", None).unwrap();
    assert_eq!(resynced, promoted_state);
    assert_eq!(fresh, promoted_state);
    assert_eq!(resynced.version, 4);

    promoted_srv.shutdown();
}

#[test]
fn compacted_logs_resync_stale_followers_from_the_snapshot() {
    let mut set = ReplicaSet::new(2, vec![0, 1], 2);
    set.commit(decision(0, &[]));
    set.commit(decision(10, &[(0, 0, 1)]));
    set.commit(decision(20, &[(1, 1, 0)]));
    let leader_state = set.leader_state().clone();

    // Compact: snapshot after entry 2, keep only the suffix.
    let mut compacted_at = FedState::new(vec![0, 1], 2);
    compacted_at.apply(&set.log()[0]);
    compacted_at.apply(&set.log()[1]);
    let mut srv = serve_log(any_port(), compacted_at.snapshot(), set.log()[2..].to_vec()).unwrap();

    // A follower stuck at version 1 predates the compaction point: it
    // must be resynced through the snapshot, not a (gone) entry 2.
    let mut stale = FedState::new(vec![0, 1], 2);
    stale.apply(&set.log()[0]);
    let synced = sync_state(srv.local_addr(), "stale", Some(stale)).unwrap();
    assert_eq!(synced, leader_state);

    srv.shutdown();
}
