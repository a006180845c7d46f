//! Leader–follower replication of federation state.
//!
//! The replicated object is deliberately small: the decision log.
//! Because the controller is pure ([`crate::RegionController`]), any
//! replica that applies the same committed [`FedLogEntry`] stream to the
//! same initial state arrives at the same [`FedState`], and a promoted
//! follower continues the exact decision stream the dead leader would
//! have produced — the property the CI leader-kill gate replays
//! bit-for-bit.
//!
//! Commit is synchronous: the leader applies an entry to every live
//! replica before acting on it (the harness models the region-scale
//! deployment, where an epoch is seconds and replicas are three boxes
//! on a LAN). Leases run on the same virtual clock as the harness:
//! followers expect a leader heartbeat every tick and promote the
//! lowest-ranked live follower once the lease goes stale.
//! [`LEASE_TTL`] `<` [`DECIDE_PERIOD`](crate::controller::DECIDE_PERIOD)
//! (checked at compile time) guarantees failover completes between
//! decision epochs, so a crash never skips or doubles a decision.
//!
//! The wire-facing half (serving a log over TCP, catching a fresh
//! follower up from a snapshot) lives in [`crate::net`].

use std::collections::BTreeMap;

use pocolo_core::federation::{FedLogEntry, FedSnapshot, MigrationRecord};

use crate::controller::{DRAIN_TICKS, LEASE_TTL};

/// The replicated federation state: everything a promoted leader needs
/// to keep deciding. Evolves only through [`FedState::apply`].
#[derive(Debug, Clone, PartialEq)]
pub struct FedState {
    /// Last applied log version (0 = nothing applied).
    pub version: u64,
    /// Tick of the last applied decision.
    pub tick: u64,
    /// Region each application is resident in.
    pub app_region: Vec<usize>,
    /// Current per-region budget split, watts.
    pub budget_w: Vec<f64>,
    /// In-flight migrations: app → (destination, first serving tick).
    pub migrating: BTreeMap<usize, (usize, u64)>,
}

impl FedState {
    /// The initial state: every app in its home region, budgets unset.
    pub fn new(app_region: Vec<usize>, n_regions: usize) -> Self {
        FedState {
            version: 0,
            tick: 0,
            app_region,
            budget_w: vec![0.0; n_regions],
            migrating: BTreeMap::new(),
        }
    }

    /// Applies one committed log entry. Migrations take effect
    /// immediately in placement terms (the app belongs to its
    /// destination) but the app serves nothing until `until_tick` —
    /// the [`DRAIN_TICKS`] drain/warm-start downtime.
    ///
    /// # Panics
    ///
    /// Panics on a version gap: entries must apply in order.
    pub fn apply(&mut self, entry: &FedLogEntry) {
        assert_eq!(
            entry.version,
            self.version + 1,
            "log entry {} applied over state version {}",
            entry.version,
            self.version
        );
        let d = &entry.decision;
        self.version = entry.version;
        self.tick = d.tick;
        self.budget_w = d.budget_w.clone();
        for m in &d.migrations {
            self.app_region[m.app] = m.to;
            self.migrating.insert(m.app, (m.to, d.tick + DRAIN_TICKS));
        }
        // Completed migrations leave the in-flight set.
        self.migrating.retain(|_, &mut (_, until)| until > d.tick);
    }

    /// True when `app` is still draining/warming at `tick`.
    pub fn is_migrating(&self, app: usize, tick: u64) -> bool {
        self.migrating
            .get(&app)
            .is_some_and(|&(_, until)| until > tick)
    }

    /// Snapshot for log compaction / follower catch-up.
    pub fn snapshot(&self) -> FedSnapshot {
        FedSnapshot {
            version: self.version,
            tick: self.tick,
            app_region: self.app_region.clone(),
            budget_w: self.budget_w.clone(),
            migrating: self
                .migrating
                .iter()
                .map(|(&app, &(to, until_tick))| MigrationRecord {
                    app,
                    to,
                    until_tick,
                })
                .collect(),
        }
    }

    /// Restores a state from a compaction snapshot.
    pub fn from_snapshot(s: &FedSnapshot) -> Self {
        FedState {
            version: s.version,
            tick: s.tick,
            app_region: s.app_region.clone(),
            budget_w: s.budget_w.clone(),
            migrating: s
                .migrating
                .iter()
                .map(|m| (m.app, (m.to, m.until_tick)))
                .collect(),
        }
    }
}

/// One federation replica's control-plane role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Appends to the log and drives decisions.
    Leader,
    /// Applies committed entries; promotable.
    Follower,
    /// Crashed; never comes back within a run.
    Dead,
}

/// One replica of the federation control plane.
#[derive(Debug, Clone)]
pub struct Replica {
    /// Stable rank; promotion prefers the lowest live rank.
    pub rank: usize,
    /// Current role.
    pub role: Role,
    /// The replica's applied state.
    pub state: FedState,
    /// Virtual tick of the last leader heartbeat this replica saw.
    pub last_heartbeat: u64,
}

/// The replica group plus the committed log. Rank 0 boots as leader.
#[derive(Debug, Clone)]
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    /// The committed log (kept whole here; compaction is a wire-layer
    /// concern — see [`crate::net`]).
    log: Vec<FedLogEntry>,
    /// `(tick, promoted_rank)` promotion history.
    promotions: Vec<(u64, usize)>,
}

impl ReplicaSet {
    /// A fresh group of `n_replicas` replicas over the given initial
    /// placement; rank 0 leads.
    ///
    /// # Panics
    ///
    /// Panics when `n_replicas` is zero.
    pub fn new(n_replicas: usize, app_region: Vec<usize>, n_regions: usize) -> Self {
        assert!(n_replicas > 0, "a replica set needs at least one replica");
        let replicas = (0..n_replicas)
            .map(|rank| Replica {
                rank,
                role: if rank == 0 {
                    Role::Leader
                } else {
                    Role::Follower
                },
                state: FedState::new(app_region.clone(), n_regions),
                last_heartbeat: 0,
            })
            .collect();
        ReplicaSet {
            replicas,
            log: Vec::new(),
            promotions: Vec::new(),
        }
    }

    /// The current leader's rank, if any replica leads.
    pub fn leader(&self) -> Option<usize> {
        self.replicas
            .iter()
            .find(|r| r.role == Role::Leader)
            .map(|r| r.rank)
    }

    /// The current leader's applied state.
    ///
    /// # Panics
    ///
    /// Panics when every replica is dead.
    pub fn leader_state(&self) -> &FedState {
        let rank = self.leader().expect("no live leader");
        &self.replicas[rank].state
    }

    /// The committed log, ascending by version.
    pub fn log(&self) -> &[FedLogEntry] {
        &self.log
    }

    /// Promotion history as `(tick, promoted_rank)`.
    pub fn promotions(&self) -> &[(u64, usize)] {
        &self.promotions
    }

    /// Kills a replica at `tick` (fault injection). Killing the leader
    /// leaves the group leaderless until a lease expires in
    /// [`ReplicaSet::tick`].
    pub fn kill(&mut self, rank: usize, _tick: u64) {
        if let Some(r) = self.replicas.get_mut(rank) {
            r.role = Role::Dead;
        }
    }

    /// Advances the virtual clock one tick: a live leader heartbeats
    /// every follower; without one, followers whose lease went stale
    /// elect the lowest live rank. Synchronous commit means every live
    /// replica is equally caught up, so lowest-rank is also
    /// most-caught-up.
    pub fn tick(&mut self, now: u64) {
        if self.leader().is_some() {
            for r in &mut self.replicas {
                if r.role == Role::Follower {
                    r.last_heartbeat = now;
                }
            }
            return;
        }
        let stale = self
            .replicas
            .iter()
            .filter(|r| r.role == Role::Follower)
            .all(|r| now.saturating_sub(r.last_heartbeat) > LEASE_TTL);
        if !stale {
            return;
        }
        if let Some(next) = self.replicas.iter().position(|r| r.role == Role::Follower) {
            self.replicas[next].role = Role::Leader;
            self.promotions.push((now, next));
        }
    }

    /// Epoch-deadline election backstop: if the group is leaderless when
    /// a decision is due, promote the lowest live rank immediately
    /// instead of waiting out the rest of the lease. Synchronous commit
    /// means any follower is fully caught up, so promoting at the
    /// deadline is always safe — and it keeps the decision stream
    /// gapless regardless of where in the epoch the leader died, which
    /// is what the kill-vs-reference bit-identity gate relies on.
    pub fn ensure_leader(&mut self, now: u64) -> Option<usize> {
        if self.leader().is_none() {
            if let Some(next) = self.replicas.iter().position(|r| r.role == Role::Follower) {
                self.replicas[next].role = Role::Leader;
                self.promotions.push((now, next));
            }
        }
        self.leader()
    }

    /// Commits a decision: appends it to the log at the next version and
    /// applies it synchronously to every live replica. Returns the
    /// committed version.
    ///
    /// # Panics
    ///
    /// Panics when no replica leads (callers decide only while a leader
    /// holds the lease).
    pub fn commit(&mut self, decision: pocolo_core::federation::FederationDecision) -> u64 {
        assert!(self.leader().is_some(), "commit without a leader");
        let entry = FedLogEntry {
            version: self.log.len() as u64 + 1,
            decision,
        };
        for r in &mut self.replicas {
            if r.role != Role::Dead {
                r.state.apply(&entry);
            }
        }
        let version = entry.version;
        self.log.push(entry);
        version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::federation::{FederationDecision, MigrationIntent};

    fn decision(tick: u64, movers: &[(usize, usize, usize)]) -> FederationDecision {
        FederationDecision {
            tick,
            budget_w: vec![100.0, 200.0],
            migrations: movers
                .iter()
                .map(|&(app, from, to)| MigrationIntent {
                    app,
                    from,
                    to,
                    gain: 0.5,
                })
                .collect(),
        }
    }

    #[test]
    fn state_applies_migrations_with_drain_downtime() {
        let mut s = FedState::new(vec![0, 0, 1], 2);
        s.apply(&FedLogEntry {
            version: 1,
            decision: decision(10, &[(0, 0, 1)]),
        });
        assert_eq!(s.app_region, vec![1, 0, 1]);
        assert!(s.is_migrating(0, 10));
        assert!(s.is_migrating(0, 11));
        assert!(!s.is_migrating(0, 12), "drain is over");
        assert!(!s.is_migrating(1, 10));
    }

    #[test]
    fn snapshot_round_trips_state() {
        let mut s = FedState::new(vec![0, 1], 2);
        s.apply(&FedLogEntry {
            version: 1,
            decision: decision(5, &[(1, 1, 0)]),
        });
        assert_eq!(FedState::from_snapshot(&s.snapshot()), s);
    }

    #[test]
    #[should_panic(expected = "applied over state version")]
    fn version_gaps_are_rejected() {
        let mut s = FedState::new(vec![0], 1);
        s.apply(&FedLogEntry {
            version: 3,
            decision: decision(1, &[]),
        });
    }

    #[test]
    fn leader_kill_promotes_the_lowest_live_follower_after_the_lease() {
        let mut set = ReplicaSet::new(3, vec![0, 1], 2);
        assert_eq!(set.leader(), Some(0));
        set.commit(decision(0, &[]));
        for t in 1..=4 {
            set.tick(t);
        }
        set.kill(0, 5);
        assert_eq!(set.leader(), None);
        // Lease is 3 ticks: promotion happens once heartbeats are stale.
        set.tick(6);
        set.tick(7);
        assert_eq!(set.leader(), None, "lease not yet expired");
        set.tick(8);
        assert_eq!(set.leader(), Some(1));
        assert_eq!(set.promotions(), &[(8, 1)]);
        // The promoted leader holds the committed state and can keep
        // committing where the dead leader stopped.
        assert_eq!(set.leader_state().version, 1);
        assert_eq!(set.commit(decision(10, &[])), 2);
    }

    #[test]
    fn synchronous_commit_keeps_all_live_replicas_identical() {
        let mut set = ReplicaSet::new(3, vec![0, 0, 1, 1], 2);
        set.commit(decision(0, &[(0, 0, 1)]));
        set.commit(decision(10, &[(2, 1, 0)]));
        let states: Vec<&FedState> = set.replicas.iter().map(|r| &r.state).collect();
        assert_eq!(states[0], states[1]);
        assert_eq!(states[1], states[2]);
        assert_eq!(set.log().len(), 2);
    }
}
