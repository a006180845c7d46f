//! The POColo cluster daemon: slot registry, heartbeat leases, placement
//! push, and result aggregation.
//!
//! The daemon is the passive side of the protocol: it solves the
//! placement once (via [`RunSpec::plan`]), hands each registering agent
//! a slot plus the full run spec, renews a slot's lease on every
//! telemetry frame, and aggregates the final metrics. A slot whose agent
//! goes silent flips to *degraded*, and the next registration of that
//! slot (same agent identity restarted, or a fresh one) is told to run
//! the blind incremental-control fallback — the same degradation path
//! the in-process resilience layer takes when telemetry cannot be
//! trusted.
//!
//! One event loop multiplexes every connection ([`crate::reactor`]).
//! Lease expiry rides the loop's deadline heap (one lazy re-check chain per
//! live lease, no scanning reaper thread), telemetry acks for the current
//! `cap_factor` are encoded once and fanned out as cached bytes, the
//! welcome frame splices a cached run-spec serialization instead of
//! re-encoding ~100 KiB per registration, and a slot whose connection is
//! dropped for slow consumption is degraded on the spot.
//!
//! Completion is edge-triggered: [`Clusterd::wait_done`] blocks on a
//! condvar the final `Complete` notifies — no sleep-polling.

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pocolo_json::ToJson;
use pocolo_sim::experiment::ExperimentResult;
use pocolo_sim::{Policy, ServerMetrics};

use crate::error::NetError;
use crate::frame::encode_frame_str;
use crate::reactor::{ConnId, Ctx, DisconnectReason, EventHandler, ReactorServer, Reply};
use crate::wire::{Message, RunSpec, PROTOCOL_VERSION};

/// Lease/registry state of one server slot.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotState {
    /// No agent has claimed this slot yet.
    Vacant,
    /// An agent holds the slot and its lease is current.
    Live {
        /// The owning agent's identity.
        agent: String,
    },
    /// The lease expired (or the owner re-registered after dying, or its
    /// connection was cut for slow consumption): the slot must be re-run
    /// under the degraded fallback controller.
    Degraded {
        /// The previous owner, if any.
        agent: Option<String>,
    },
    /// Final metrics have been delivered.
    Done,
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    last_seen: Instant,
    /// Count of times this slot was handed out after a failure.
    reregistrations: usize,
    /// The slot passed through Degraded at least once.
    was_degraded: bool,
    /// A lease-expiry timer chain is pending on the reactor's timers.
    lease_timer_armed: bool,
    metrics: Option<ServerMetrics>,
}

/// What a lease-expiry timer firing observed.
enum LeaseCheck {
    /// The lease was overdue; the slot is now degraded.
    Expired,
    /// The lease is current; check again after this long.
    RecheckIn(Duration),
    /// The slot is no longer live; the timer chain ends.
    Settled,
}

#[derive(Debug)]
struct Registry {
    slots: Vec<Slot>,
    /// Live budget directive broadcast on every telemetry ack.
    cap_factor: f64,
    /// agent identity → owned slot, for O(1) idempotent re-registration.
    /// An agent owns at most one slot: its Live slot, or the Degraded
    /// slot it may reclaim. Entries die when the slot completes or is
    /// handed to a different agent.
    owners: HashMap<String, usize>,
    /// Vacant slot indices (BTreeSet: lowest-first hand-out is O(log n)).
    vacant: BTreeSet<usize>,
    /// Degraded slot indices, handed out once vacants are exhausted.
    degraded: BTreeSet<usize>,
    done_count: usize,
}

impl Registry {
    fn new(n: usize) -> Registry {
        Registry {
            slots: (0..n)
                .map(|_| Slot {
                    state: SlotState::Vacant,
                    last_seen: Instant::now(),
                    reregistrations: 0,
                    was_degraded: false,
                    lease_timer_armed: false,
                    metrics: None,
                })
                .collect(),
            cap_factor: 1.0,
            owners: HashMap::new(),
            vacant: (0..n).collect(),
            degraded: BTreeSet::new(),
            done_count: 0,
        }
    }

    fn count(&self, f: impl Fn(&SlotState) -> bool) -> usize {
        self.slots.iter().filter(|s| f(&s.state)).count()
    }

    /// Flips a live slot to degraded, maintaining the index sets. The
    /// previous owner keeps its claim (a restarted agent reclaims the
    /// slot); `was_degraded` is recorded for the harness.
    fn degrade(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        if let SlotState::Live { agent } = &slot.state {
            slot.was_degraded = true;
            slot.state = SlotState::Degraded {
                agent: Some(agent.clone()),
            };
            self.degraded.insert(idx);
        }
    }

    /// Assigns a slot to `agent`: their previous slot if they ever held
    /// one (idempotent re-registration), else the lowest slot that is
    /// vacant or degraded. Returns `(server, degraded)`.
    fn assign(&mut self, agent: &str) -> Option<(usize, bool)> {
        let (idx, rejoin) = match self.owners.get(agent) {
            // A re-register of a live or degraded slot means the agent
            // died and restarted: the partial run is unobservable, so the
            // slot re-runs under the degraded fallback.
            Some(&idx) => (idx, true),
            None => match self.vacant.pop_first() {
                Some(idx) => (idx, false),
                None => {
                    let idx = self.degraded.pop_first()?;
                    // The slot changes hands: the previous owner loses
                    // its reclaim.
                    if let SlotState::Degraded { agent: Some(prev) } = &self.slots[idx].state {
                        self.owners.remove(prev);
                    }
                    (idx, true)
                }
            },
        };
        // The owned path may hand back a slot still sitting in the
        // degraded set (rejoin after lease expiry).
        self.degraded.remove(&idx);
        let slot = &mut self.slots[idx];
        if rejoin {
            slot.reregistrations += 1;
            slot.was_degraded = true;
        }
        slot.state = SlotState::Live {
            agent: agent.to_string(),
        };
        slot.last_seen = Instant::now();
        self.owners.insert(agent.to_string(), idx);
        Some((idx, rejoin))
    }

    fn renew(&mut self, server: usize) -> Result<(), NetError> {
        let slot = self
            .slots
            .get_mut(server)
            .ok_or_else(|| NetError::Protocol(format!("no slot {server}")))?;
        if matches!(slot.state, SlotState::Live { .. }) {
            slot.last_seen = Instant::now();
        }
        Ok(())
    }

    /// Records final metrics; returns true when every slot is now done.
    /// A slot nobody registered for has no run to report: completing it
    /// is a protocol error, not a shortcut to `Done`.
    fn complete(&mut self, server: usize, metrics: ServerMetrics) -> Result<bool, NetError> {
        let slot = self
            .slots
            .get_mut(server)
            .ok_or_else(|| NetError::Protocol(format!("no slot {server}")))?;
        if matches!(slot.state, SlotState::Vacant) {
            return Err(NetError::Protocol(format!(
                "slot {server} was never registered"
            )));
        }
        if !matches!(slot.state, SlotState::Done) {
            self.done_count += 1;
        }
        if let SlotState::Live { agent } | SlotState::Degraded { agent: Some(agent) } = &slot.state
        {
            // A completed agent that later re-registers starts fresh.
            let agent = agent.clone();
            self.owners.remove(&agent);
        }
        slot.metrics = Some(metrics);
        slot.state = SlotState::Done;
        self.degraded.remove(&server);
        Ok(self.done_count == self.slots.len())
    }

    /// One lazy lease check for the reactor's timers: degrade when
    /// overdue, otherwise report how long until the lease *could* expire.
    fn check_lease(&mut self, idx: usize, ttl: Duration, now: Instant) -> LeaseCheck {
        let Some(slot) = self.slots.get_mut(idx) else {
            return LeaseCheck::Settled;
        };
        if !matches!(slot.state, SlotState::Live { .. }) {
            slot.lease_timer_armed = false;
            return LeaseCheck::Settled;
        }
        let age = now.saturating_duration_since(slot.last_seen);
        if age > ttl {
            slot.lease_timer_armed = false;
            self.degrade(idx);
            LeaseCheck::Expired
        } else {
            LeaseCheck::RecheckIn(ttl - age)
        }
    }
}

/// Registry plus the completion signal: `Complete` handlers notify,
/// [`Clusterd::wait_done`] blocks — no polling.
#[derive(Debug)]
struct RegistryShared {
    inner: Mutex<Registry>,
    done_cv: Condvar,
}

impl RegistryShared {
    fn new(n: usize) -> RegistryShared {
        RegistryShared {
            inner: Mutex::new(Registry::new(n)),
            done_cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.inner.lock().expect("registry lock")
    }

    fn complete(&self, server: usize, metrics: ServerMetrics) -> Result<(), NetError> {
        let all_done = self.lock().complete(server, metrics)?;
        if all_done {
            self.done_cv.notify_all();
        }
        Ok(())
    }
}

/// Cluster daemon configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Address to listen on (port 0 for ephemeral).
    pub listen: SocketAddr,
    /// Heartbeat lease TTL: a slot silent for longer flips to degraded.
    pub lease_ttl: Duration,
    /// The run pushed to every registering agent.
    pub run: RunSpec,
}

impl ClusterConfig {
    /// A daemon under the reactor's outbound queue cap (1 MiB): a peer
    /// that stops draining replies is disconnected and its slot degraded.
    pub fn new(listen: SocketAddr, lease_ttl: Duration, run: RunSpec) -> ClusterConfig {
        ClusterConfig {
            listen,
            lease_ttl,
            run,
        }
    }
}

/// A running cluster daemon.
#[derive(Debug)]
pub struct Clusterd {
    server: ReactorServer,
    registry: Arc<RegistryShared>,
    run: RunSpec,
}

/// Pre-serialized welcome frames: the run spec dominates the payload
/// (~100 KiB at 5k slots) and is identical for every agent, so it is
/// serialized once and the per-agent `server`/`degraded` fields are
/// spliced around it. The splice is byte-identical to the generic
/// encoder — `welcome_splice_is_byte_identical` pins that, and the wire
/// parity gates would catch any drift end-to-end.
#[derive(Debug)]
struct WelcomeCache {
    /// `,"run":<run json>}` — everything after the `degraded` field.
    run_tail: String,
}

impl WelcomeCache {
    fn new(run: &RunSpec) -> WelcomeCache {
        let mut run_tail = String::from(",\"run\":");
        run_tail.push_str(&run.to_json().to_compact_string());
        run_tail.push('}');
        WelcomeCache { run_tail }
    }

    fn body(&self, server: usize, degraded: bool) -> String {
        format!(
            "{{\"v\":{PROTOCOL_VERSION},\"type\":\"welcome\",\"server\":{server},\"degraded\":{degraded}{}",
            self.run_tail
        )
    }

    fn frame(&self, server: usize, degraded: bool) -> Result<Vec<u8>, NetError> {
        encode_frame_str(&self.body(server, degraded))
    }
}

/// The reactor-side request handler. Runs on the event-loop thread; the
/// registry mutex is shared with the public [`Clusterd`] accessors.
struct ReactorClusterHandler {
    registry: Arc<RegistryShared>,
    welcome: WelcomeCache,
    lease_ttl: Duration,
    /// Extra slack added to lease re-check timers so a timer never fires
    /// a hair before the deadline it is checking.
    lease_slack: Duration,
    /// connection → slot, so a slow-consumer disconnect can degrade the
    /// right slot. Maintained from register/telemetry traffic.
    conn_slot: HashMap<ConnId, usize>,
    /// Cached encoded `TelemetryAck` for the current cap factor: the
    /// coalesced broadcast path. One encode per cap change, shared bytes
    /// for every ack fanned out in a wakeup.
    ack_bits: u64,
    ack_frame: Vec<u8>,
}

impl ReactorClusterHandler {
    fn new(registry: Arc<RegistryShared>, run: &RunSpec, lease_ttl: Duration) -> Self {
        let mut handler = ReactorClusterHandler {
            registry,
            welcome: WelcomeCache::new(run),
            lease_ttl,
            lease_slack: Duration::from_millis(2),
            conn_slot: HashMap::new(),
            ack_bits: 0,
            ack_frame: Vec::new(),
        };
        handler.refresh_ack(1.0);
        handler
    }

    fn refresh_ack(&mut self, cap_factor: f64) {
        self.ack_bits = cap_factor.to_bits();
        self.ack_frame = Reply::msg(&Message::TelemetryAck { cap_factor }).into_frame();
    }

    fn arm_lease_timer(&self, ctx: &mut Ctx<'_>, reg: &mut Registry, slot: usize) {
        if let Some(s) = reg.slots.get_mut(slot) {
            if !s.lease_timer_armed {
                s.lease_timer_armed = true;
                ctx.schedule(self.lease_ttl + self.lease_slack, slot as u64);
            }
        }
    }
}

impl EventHandler for ReactorClusterHandler {
    fn handle(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, request: Message) -> Reply {
        match request {
            Message::Register { agent, .. } => {
                let mut reg = self.registry.lock();
                let Some((server, degraded)) = reg.assign(&agent) else {
                    return Reply::error(&NetError::Protocol("no free slot to assign".into()));
                };
                self.arm_lease_timer(ctx, &mut reg, server);
                drop(reg);
                self.conn_slot.insert(conn, server);
                match self.welcome.frame(server, degraded) {
                    Ok(frame) => Reply::raw(frame),
                    Err(e) => Reply::error(&e),
                }
            }
            Message::Telemetry { server, .. } => {
                let mut reg = self.registry.lock();
                if let Err(e) = reg.renew(server) {
                    return Reply::error(&e);
                }
                let cap_factor = reg.cap_factor;
                drop(reg);
                self.conn_slot.insert(conn, server);
                if cap_factor.to_bits() != self.ack_bits {
                    self.refresh_ack(cap_factor);
                }
                Reply::raw(self.ack_frame.clone())
            }
            Message::Complete { server, metrics } => {
                match self.registry.complete(server, *metrics) {
                    Ok(()) => Reply::msg(&Message::CompleteAck),
                    Err(e) => Reply::error(&e),
                }
            }
            Message::Status => {
                let reg = self.registry.lock();
                Reply::msg(&Message::StatusReport {
                    expected: reg.slots.len(),
                    live: reg.count(|s| matches!(s, SlotState::Live { .. })),
                    degraded: reg.count(|s| matches!(s, SlotState::Degraded { .. })),
                    done: reg.count(|s| matches!(s, SlotState::Done)),
                })
            }
            Message::Shutdown => Reply::msg(&Message::ShutdownAck).then_shutdown(),
            other => Reply::error(&NetError::Protocol(format!(
                "cluster daemon cannot handle {:?} requests",
                other.type_name()
            ))),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: u64) {
        let slot = key as usize;
        let mut reg = self.registry.lock();
        match reg.check_lease(slot, self.lease_ttl, ctx.now()) {
            LeaseCheck::RecheckIn(remaining) => {
                ctx.schedule(remaining + self.lease_slack, key);
            }
            LeaseCheck::Expired | LeaseCheck::Settled => {}
        }
    }

    fn on_disconnect(&mut self, _ctx: &mut Ctx<'_>, conn: ConnId, reason: DisconnectReason) {
        if let Some(slot) = self.conn_slot.remove(&conn) {
            if reason == DisconnectReason::SlowConsumer {
                // Backpressure verdict: the agent cannot keep up with its
                // own acks. Treat it like a dead agent — degrade now
                // rather than waiting out the lease.
                self.registry.lock().degrade(slot);
            }
        }
    }
}

impl Clusterd {
    /// Binds and starts serving.
    pub fn spawn(config: ClusterConfig) -> Result<Clusterd, NetError> {
        let registry = Arc::new(RegistryShared::new(config.run.n_servers()));
        let handler =
            ReactorClusterHandler::new(Arc::clone(&registry), &config.run, config.lease_ttl);
        Ok(Clusterd {
            server: ReactorServer::spawn(config.listen, handler)?,
            registry,
            run: config.run,
        })
    }

    /// The daemon's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Connections currently registered with the reactor loop. The churn
    /// soak test uses this to assert closed connections are actually
    /// released.
    pub fn open_connections(&self) -> usize {
        self.server.open_connections()
    }

    /// Sets the live budget directive broadcast on telemetry acks; every
    /// agent applies it to its slot from its next ack on.
    ///
    /// # Panics
    ///
    /// Panics if `cap_factor` is outside `(0, 1]`, the range agents accept.
    pub fn set_cap_factor(&self, cap_factor: f64) {
        assert!(
            cap_factor > 0.0 && cap_factor <= 1.0,
            "cap factor must be in (0, 1], got {cap_factor}"
        );
        self.registry.lock().cap_factor = cap_factor;
    }

    /// Slot states, for harnesses and status displays.
    pub fn slot_states(&self) -> Vec<SlotState> {
        let reg = self.registry.lock();
        reg.slots.iter().map(|s| s.state.clone()).collect()
    }

    /// Slots that passed through the degraded state at least once.
    pub fn degraded_history(&self) -> Vec<usize> {
        let reg = self.registry.lock();
        reg.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.was_degraded)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total failure re-registrations across all slots.
    pub fn reregistrations(&self) -> usize {
        let reg = self.registry.lock();
        reg.slots.iter().map(|s| s.reregistrations).sum()
    }

    /// Blocks until every slot is done or the deadline passes. Wakes on
    /// the completion condvar the final `Complete` notifies — the wait
    /// itself costs nothing while agents run.
    pub fn wait_done(&self, deadline: Duration) -> bool {
        let start = Instant::now();
        let mut reg = self.registry.lock();
        loop {
            if reg.done_count == reg.slots.len() {
                return true;
            }
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return false;
            }
            let (guard, _timeout) = self
                .registry
                .done_cv
                .wait_timeout(reg, deadline - elapsed)
                .expect("registry lock");
            reg = guard;
        }
    }

    /// Assembles the experiment result from delivered metrics, in the
    /// same shape the in-process engine returns. `None` until every slot
    /// is done.
    pub fn result(&self) -> Option<ExperimentResult> {
        let reg = self.registry.lock();
        let metrics: Option<Vec<ServerMetrics>> =
            reg.slots.iter().map(|s| s.metrics.clone()).collect();
        ExperimentResult::from_metrics(self.run.policy, &self.run.lc, &self.run.placement, metrics?)
    }

    /// The policy this daemon is evaluating.
    pub fn policy(&self) -> Policy {
        self.run.policy
    }

    /// Stops the event loop and joins it.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry4() -> Registry {
        Registry::new(4)
    }

    #[test]
    fn registration_fills_slots_in_order() {
        let mut reg = registry4();
        assert_eq!(reg.assign("a"), Some((0, false)));
        assert_eq!(reg.assign("b"), Some((1, false)));
        assert_eq!(reg.assign("c"), Some((2, false)));
        assert_eq!(reg.assign("d"), Some((3, false)));
        assert_eq!(reg.assign("e"), None, "cluster is full");
    }

    #[test]
    fn reregistration_is_idempotent_and_degrades() {
        let mut reg = registry4();
        assert_eq!(reg.assign("a"), Some((0, false)));
        // The same identity re-registering means the agent restarted: it
        // keeps its slot but must run degraded.
        assert_eq!(reg.assign("a"), Some((0, true)));
        assert_eq!(reg.slots[0].reregistrations, 1);
        assert!(reg.slots[0].was_degraded);
        // Other agents are unaffected.
        assert_eq!(reg.assign("b"), Some((1, false)));
    }

    #[test]
    fn lease_expiry_flips_live_to_degraded_and_hands_the_slot_on() {
        let mut reg = registry4();
        reg.assign("a");
        reg.slots[0].last_seen = Instant::now() - Duration::from_secs(60);
        let expired = reg.check_lease(0, Duration::from_millis(50), Instant::now());
        assert!(matches!(expired, LeaseCheck::Expired));
        assert!(matches!(
            reg.slots[0].state,
            SlotState::Degraded { agent: Some(ref a) } if a == "a"
        ));
        // Vacant slots go first.
        assert_eq!(reg.assign("b"), Some((1, false)));
        reg.assign("c");
        reg.assign("d");
        // Cluster otherwise full: the degraded slot is handed out.
        assert_eq!(reg.assign("e"), Some((0, true)));
        // ... and the evicted owner has lost its claim: a fresh "a" has
        // nowhere to go in a full cluster.
        assert_eq!(reg.assign("a"), None);
    }

    #[test]
    fn renew_keeps_a_lease_alive() {
        let mut reg = registry4();
        reg.assign("a");
        reg.slots[0].last_seen = Instant::now() - Duration::from_millis(40);
        reg.renew(0).unwrap();
        let check = reg.check_lease(0, Duration::from_millis(50), Instant::now());
        assert!(matches!(check, LeaseCheck::RecheckIn(_)));
        assert!(matches!(reg.slots[0].state, SlotState::Live { .. }));
        assert!(reg.renew(9).is_err(), "unknown slot is a typed error");
    }

    #[test]
    fn done_slots_are_never_reaped_or_reassigned() {
        let mut reg = registry4();
        reg.assign("a");
        reg.complete(0, ServerMetrics::new(pocolo_core::Watts(100.0)))
            .unwrap();
        reg.slots[0].last_seen = Instant::now() - Duration::from_secs(60);
        let check = reg.check_lease(0, Duration::from_millis(1), Instant::now());
        assert!(matches!(check, LeaseCheck::Settled));
        assert!(matches!(reg.slots[0].state, SlotState::Done));
        reg.assign("b");
        reg.assign("c");
        reg.assign("d");
        assert_eq!(reg.assign("e"), None, "done slot is not handed out");
    }

    #[test]
    fn completed_agent_reregisters_as_a_fresh_agent() {
        let mut reg = registry4();
        reg.assign("a");
        reg.complete(0, ServerMetrics::new(pocolo_core::Watts(100.0)))
            .unwrap();
        // "a" finished slot 0; a new registration under the same identity
        // is a new arrival, not a reclaim of the done slot.
        assert_eq!(reg.assign("a"), Some((1, false)));
    }

    #[test]
    fn check_lease_is_lazy_and_only_fires_when_overdue() {
        let mut reg = registry4();
        reg.assign("a");
        let now = Instant::now();
        let ttl = Duration::from_millis(100);
        match reg.check_lease(0, ttl, now) {
            LeaseCheck::RecheckIn(d) => assert!(d <= ttl),
            _ => panic!("fresh lease must reschedule"),
        }
        reg.slots[0].last_seen = now - Duration::from_millis(200);
        assert!(matches!(reg.check_lease(0, ttl, now), LeaseCheck::Expired));
        assert!(matches!(
            reg.slots[0].state,
            SlotState::Degraded { agent: Some(ref a) } if a == "a"
        ));
        // The chain ends once the slot is no longer live.
        assert!(matches!(reg.check_lease(0, ttl, now), LeaseCheck::Settled));
    }

    #[test]
    fn fast_path_sets_stay_consistent_under_churn() {
        let mut reg = Registry::new(8);
        for i in 0..8 {
            reg.assign(&format!("agent-{i}"));
        }
        // Expire half the fleet, complete a quarter, rejoin the rest.
        for i in [0usize, 2, 4, 6] {
            reg.slots[i].last_seen = Instant::now() - Duration::from_secs(60);
        }
        // Every slot's timer fires; only the overdue leases expire.
        let now = Instant::now();
        for i in 0..8 {
            let expired = matches!(
                reg.check_lease(i, Duration::from_secs(1), now),
                LeaseCheck::Expired
            );
            assert_eq!(expired, i % 2 == 0, "slot {i}");
        }
        assert_eq!(reg.degraded.len(), 4);
        reg.complete(1, ServerMetrics::new(pocolo_core::Watts(100.0)))
            .unwrap();
        reg.complete(3, ServerMetrics::new(pocolo_core::Watts(100.0)))
            .unwrap();
        assert_eq!(reg.done_count, 2);
        // Degraded owners reclaim their slots.
        assert_eq!(reg.assign("agent-0"), Some((0, true)));
        assert_eq!(reg.assign("agent-4"), Some((4, true)));
        assert_eq!(reg.degraded.len(), 2);
        // Everything still internally consistent: every Live slot's owner
        // maps back to it.
        for (i, slot) in reg.slots.iter().enumerate() {
            if let SlotState::Live { agent } = &slot.state {
                assert_eq!(reg.owners.get(agent), Some(&i), "owner map broken at {i}");
            }
        }
    }

    #[test]
    fn complete_for_an_unclaimed_slot_is_rejected_over_the_wire() {
        use crate::client::RpcClient;
        use pocolo_faults::RetryPolicy;

        let mut clusterd = Clusterd::spawn(ClusterConfig::new(
            "127.0.0.1:0".parse().unwrap(),
            Duration::from_secs(5),
            RunSpec::scale(2, 0xC0C0),
        ))
        .unwrap();
        let mut retry = RetryPolicy::reconnect(1);
        let mut client =
            RpcClient::connect(clusterd.local_addr(), &mut retry, Duration::from_secs(2)).unwrap();
        // A peer that never registered cannot mark a slot done.
        let forged = Message::Complete {
            server: 1,
            metrics: Box::new(ServerMetrics::new(pocolo_core::Watts(1.0))),
        };
        let err = client.call(&forged).unwrap_err();
        assert!(matches!(err, NetError::Remote(_)), "got {err}");
        assert_eq!(
            clusterd.slot_states(),
            [SlotState::Vacant, SlotState::Vacant]
        );
        assert!(!clusterd.wait_done(Duration::ZERO));
        // The connection survives the error, and a registered owner's
        // completion (and its idempotent re-send) is still accepted.
        let welcome = client
            .call(&Message::Register {
                agent: "a".into(),
                class: None,
            })
            .unwrap();
        let Message::Welcome { server, .. } = welcome else {
            panic!("expected welcome, got {welcome:?}");
        };
        let complete = Message::Complete {
            server,
            metrics: Box::new(ServerMetrics::new(pocolo_core::Watts(100.0))),
        };
        assert_eq!(client.call(&complete).unwrap(), Message::CompleteAck);
        assert_eq!(client.call(&complete).unwrap(), Message::CompleteAck);
        assert_eq!(clusterd.slot_states()[server], SlotState::Done);
        clusterd.shutdown();
    }

    #[test]
    fn welcome_splice_is_byte_identical_to_the_generic_encoder() {
        let run = RunSpec::scale(2, 0xC0C0);
        let cache = WelcomeCache::new(&run);
        for (server, degraded) in [(0, false), (1, true), (999_983, false), (5000, true)] {
            let generic = Message::Welcome {
                server,
                degraded,
                run: Box::new(run.clone()),
            }
            .to_value()
            .to_compact_string();
            assert_eq!(
                cache.body(server, degraded),
                generic,
                "splice diverged at server={server} degraded={degraded}"
            );
        }
    }
}
