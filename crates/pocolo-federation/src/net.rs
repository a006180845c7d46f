//! Serving the replicated federation log over the pocolo-net wire.
//!
//! A leader (or any caught-up replica) runs a [`FedLogHandler`] on the
//! shared reactor; followers issue `FedPull { follower, from_version }`
//! and get back `FedEntries` — either the log suffix past their applied
//! version, or, when their version predates the server's compaction
//! snapshot, the snapshot plus everything after it. Applying the reply
//! through [`FedState`] is all a follower needs to reach the leader's
//! exact state, which is what makes promotion seamless: the promoted
//! replica serves the same log the dead leader did.

use std::net::SocketAddr;
use std::time::Duration;

use pocolo_core::federation::{FedLogEntry, FedSnapshot};
use pocolo_faults::RetryPolicy;
use pocolo_net::reactor::Ctx;
use pocolo_net::{ConnId, EventHandler, Message, NetError, ReactorServer, Reply, RpcClient};

use crate::replicate::FedState;

/// Reactor handler that serves one replica's snapshot + log.
#[derive(Debug)]
pub struct FedLogHandler {
    /// Compaction snapshot the served log starts from (version 0 and an
    /// empty state for an uncompacted log).
    snapshot: FedSnapshot,
    /// Entries with versions strictly above the snapshot's, ascending.
    entries: Vec<FedLogEntry>,
}

impl FedLogHandler {
    /// A handler serving `entries` on top of `snapshot`.
    ///
    /// # Panics
    ///
    /// Panics when the entries do not continue the snapshot contiguously.
    pub fn new(snapshot: FedSnapshot, entries: Vec<FedLogEntry>) -> Self {
        let mut expect = snapshot.version;
        for e in &entries {
            expect += 1;
            assert_eq!(e.version, expect, "log entry out of sequence");
        }
        FedLogHandler { snapshot, entries }
    }

    /// The highest version this handler can serve.
    pub fn leader_version(&self) -> u64 {
        self.entries
            .last()
            .map_or(self.snapshot.version, |e| e.version)
    }
}

impl EventHandler for FedLogHandler {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, request: Message) -> Reply {
        match request {
            Message::FedPull {
                follower: _,
                from_version,
            } => {
                if from_version < self.snapshot.version || from_version == 0 {
                    // Too far behind the compaction point — or a fresh
                    // follower with no state at all: full resync. (A
                    // version-0 puller that does hold the initial state
                    // re-applies an identical snapshot; harmless.)
                    Reply::msg(&Message::FedEntries {
                        leader_version: self.leader_version(),
                        snapshot: Some(Box::new(self.snapshot.clone())),
                        entries: self.entries.clone(),
                    })
                } else {
                    let suffix: Vec<FedLogEntry> = self
                        .entries
                        .iter()
                        .filter(|e| e.version > from_version)
                        .cloned()
                        .collect();
                    Reply::msg(&Message::FedEntries {
                        leader_version: self.leader_version(),
                        snapshot: None,
                        entries: suffix,
                    })
                }
            }
            Message::Shutdown => Reply::msg(&Message::ShutdownAck).then_shutdown(),
            other => Reply::error(&NetError::Protocol(format!(
                "fed-log server got unexpected {}",
                other.type_name()
            ))),
        }
    }
}

/// Spawns a reactor serving the given snapshot + log on `listen`.
pub fn serve_log(
    listen: SocketAddr,
    snapshot: FedSnapshot,
    entries: Vec<FedLogEntry>,
) -> Result<ReactorServer, NetError> {
    ReactorServer::spawn(listen, FedLogHandler::new(snapshot, entries))
}

/// One follower pull: returns the leader's version plus the resync
/// payload (`snapshot` only when `from_version` predated compaction).
pub fn pull_log(
    addr: SocketAddr,
    follower: &str,
    from_version: u64,
) -> Result<(u64, Option<FedSnapshot>, Vec<FedLogEntry>), NetError> {
    let mut retry = RetryPolicy::new(0.001, 1.0, 0.001, 5, 0.0, 1);
    let mut client = RpcClient::connect(addr, &mut retry, Duration::from_secs(2))?;
    match client.call(&Message::FedPull {
        follower: follower.to_string(),
        from_version,
    })? {
        Message::FedEntries {
            leader_version,
            snapshot,
            entries,
        } => Ok((leader_version, snapshot.map(|b| *b), entries)),
        other => Err(NetError::Protocol(format!(
            "fed pull expected fed_entries, got {}",
            other.type_name()
        ))),
    }
}

/// Pulls from `addr` and folds the reply into `state`, returning the
/// caught-up state. Pass `None` for a fresh follower with no history.
pub fn sync_state(
    addr: SocketAddr,
    follower: &str,
    state: Option<FedState>,
) -> Result<FedState, NetError> {
    let from_version = state.as_ref().map_or(0, |s| s.version);
    let (leader_version, snapshot, entries) = pull_log(addr, follower, from_version)?;
    let mut state = match (snapshot, state) {
        (Some(s), _) => FedState::from_snapshot(&s),
        (None, Some(s)) => s,
        (None, None) => {
            // Servers always snapshot version-0 pulls; a bare entry
            // suffix for a fresh follower is a protocol violation.
            return Err(NetError::Protocol(format!(
                "fresh follower {follower} got entries without a snapshot"
            )));
        }
    };
    for e in &entries {
        if e.version > state.version {
            state.apply(e);
        }
    }
    if state.version != leader_version {
        return Err(NetError::Protocol(format!(
            "follower {follower} synced to version {} but leader is at {leader_version}",
            state.version
        )));
    }
    Ok(state)
}
