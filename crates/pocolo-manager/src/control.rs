//! The control plane: what a server's management loop *decides*,
//! separated from what the hosting backend (the discrete-event sim, a
//! future real-host agent) *actuates*.
//!
//! A backend builds a [`ControlInput`] snapshot each manager epoch, asks
//! its [`ServerController`] to [`ServerController::decide`], and actuates
//! the returned [`ControlDecision`] — installing the primary resize via
//! [`crate::ServerManager::apply`], parking or re-admitting the
//! best-effort co-runner on a [`BeIntent`], and (optionally) appending
//! the carried [`DecisionRecord`] to a decision trace.
//!
//! There is one controller. It differs between the paper's manager and
//! the Heracles baseline in one rule only, fixed at construction: how
//! the primary is sized.
//!
//! - **Analytic** ([`ServerController::new`]) — the paper's Cobb-Douglas
//!   demand solve with latency feedback, plus the brownout power governor
//!   and the frozen-telemetry fallback once resilience is armed.
//! - **Incremental** ([`ServerController::incremental`]) — the
//!   power-oblivious Heracles-style baseline: grow a core and a way on
//!   low (or unknown) slack, trim on verified headroom, never consult the
//!   power model.
//!
//! Everything else — the co-runner guard, frozen-slack distrust, crash
//! recovery — is shared, and [`ServerController::arm_resilience`] arms it
//! whichever sizing rule is in force.
//!
//! This boundary is what makes the distributed runtime (`pocolo-net`)
//! possible without a second control implementation: a remote POM agent
//! is just another backend. It builds the same [`ControlInput`]
//! snapshots from its local simulation, runs the same controller, and
//! actuates the same [`ControlDecision`]s — only telemetry summaries
//! and final metrics cross the wire, never control policy. The
//! degraded-slot takeover after a lease expiry likewise reuses the
//! incremental sizing as the blind fallback, so the failure path
//! exercises a controller this module already unit-tests.

use pocolo_core::units::Watts;
use pocolo_faults::ReadmissionBackoff;

use crate::modes::{ControlMode, ModeMachine};
use crate::server_manager::ServerManager;

/// Consecutive distressed capper ticks the lowest-ranked co-runner is
/// tolerated for before eviction: half a second at the paper's 100 ms
/// capper, long enough to ride out one meter spike.
const EVICTION_PATIENCE_TICKS: usize = 5;

/// Extra patience per ascending cluster-wide value rank, so the
/// *lowest*-value co-runner is shed first.
const PATIENCE_PER_RANK_TICKS: usize = 5;

/// First re-admission wait after an eviction or a crash, seconds.
const BACKOFF_BASE_S: f64 = 4.0;

/// The wait doubles on every failed re-admission attempt...
const BACKOFF_FACTOR: f64 = 2.0;

/// ...up to about a minute.
const BACKOFF_MAX_S: f64 = 64.0;

/// Warm-up pause a re-admitted (or migrated-in) co-runner pays, seconds.
pub const READMIT_PAUSE_S: f64 = 2.0;

/// Everything a controller may consult for one decision — a pure
/// snapshot, so decisions are replayable and backends stay free of
/// control policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlInput {
    /// Absolute simulation/wall time, seconds.
    pub now_s: f64,
    /// The load the management plane *observes* (frozen under a
    /// telemetry dropout).
    pub observed_load_rps: f64,
    /// The p99 latency slack the management plane observes, if any.
    pub observed_slack: Option<f64>,
    /// Last power-meter reading, if any.
    pub measured_power: Option<Watts>,
    /// The effective cap right now (provisioned × brownout factor).
    pub effective_cap: Watts,
    /// True while a brownout holds the effective cap under provisioned.
    pub brownout: bool,
    /// True while the RAPL emergency ceiling is depressed.
    pub rapl_throttled: bool,
    /// True while the load/slack telemetry is frozen.
    pub telemetry_frozen: bool,
    /// True while a best-effort co-runner is placed.
    pub be_present: bool,
    /// The co-runner's estimated draw (fitted model at its current
    /// allocation and DVFS point).
    pub be_draw_estimate: Watts,
    /// The machine's full (cores, ways) capacity.
    pub max_counts: (u32, u32),
}

/// What happens to the primary's allocation this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimaryDirective {
    /// Leave the current partition in place (the plan failed; a manager
    /// is resilient, not fatal).
    Hold,
    /// Re-partition: this (cores, ways) primary, every spare resource to
    /// the secondary.
    Resize {
        /// Primary core count.
        cores: u32,
        /// Primary LLC way count.
        ways: u32,
    },
}

/// What happens to the best-effort co-runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BeIntent {
    /// Nothing.
    Hold,
    /// Evict and park the co-runner (re-admission backoff scheduled).
    Evict,
    /// Re-admit the parked co-runner, paying a warm-up pause.
    Readmit {
        /// Warm-up pause the re-admitted app pays, seconds.
        pause_s: f64,
    },
}

/// A structured trace of one control decision, emitted per manager epoch
/// (the CLI's `--decision-log` dumps these as JSON lines).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Decision time, seconds.
    pub now_s: f64,
    /// The control mode the decision was taken in.
    pub mode: ControlMode,
    /// Observed load, requests/s.
    pub load_rps: f64,
    /// Observed slack consumed by the decision (`None` when blind).
    pub slack: Option<f64>,
    /// Meter reading, watts.
    pub measured_w: Option<f64>,
    /// Effective cap, watts.
    pub effective_cap_w: f64,
    /// The governed watt budget handed to the planner, if any.
    pub budget_w: Option<f64>,
    /// Planned primary cores (`None` on a hold).
    pub cores: Option<u32>,
    /// Planned primary ways (`None` on a hold).
    pub ways: Option<u32>,
    /// Governor latch state after the decision.
    pub governor_armed: bool,
    /// Distress latch state after the decision.
    pub escalated: bool,
    /// True if the budget target ducked under the release band.
    pub ducked: bool,
}

/// One epoch's outcome: the mode, the primary directive, and the record.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecision {
    /// The control mode the decision was taken in.
    pub mode: ControlMode,
    /// What to do with the primary's allocation.
    pub primary: PrimaryDirective,
    /// Structured trace entry for this decision.
    pub record: DecisionRecord,
}

/// The best-effort co-runner guard: eviction patience and re-admission
/// backoff.
#[derive(Debug, Clone, PartialEq)]
struct BeGuard {
    patience_ticks: usize,
    backoff: ReadmissionBackoff,
    saturated_ticks: usize,
    readmit_at_s: Option<f64>,
}

impl BeGuard {
    /// A guard for a co-runner at cluster-wide value `rank` (0 = the
    /// lowest-value pairing, evicted first).
    fn new(rank: usize) -> Self {
        BeGuard {
            patience_ticks: EVICTION_PATIENCE_TICKS + PATIENCE_PER_RANK_TICKS * rank,
            backoff: ReadmissionBackoff::new(BACKOFF_BASE_S, BACKOFF_FACTOR, BACKOFF_MAX_S),
            saturated_ticks: 0,
            readmit_at_s: None,
        }
    }

    /// One capper-tick distress update: count consecutive distressed
    /// ticks, and once patience is exceeded with a co-runner present,
    /// order an eviction and schedule the re-admission attempt.
    fn distress_tick(&mut self, distressed: bool, be_present: bool, now_s: f64) -> BeIntent {
        if distressed {
            self.saturated_ticks += 1;
        } else {
            self.saturated_ticks = 0;
        }
        if !be_present {
            return BeIntent::Hold;
        }
        if self.saturated_ticks <= self.patience_ticks {
            return BeIntent::Hold;
        }
        self.saturated_ticks = 0;
        self.readmit_at_s = Some(now_s + self.backoff.next_delay());
        BeIntent::Evict
    }

    /// One manager-tick re-admission check: once the scheduled attempt
    /// is due, re-admit — unless the server is still distressed or
    /// faulted, in which case the wait doubles (exponential backoff).
    fn readmit_tick(&mut self, now_s: f64, fault_active: bool) -> BeIntent {
        let Some(at) = self.readmit_at_s else {
            return BeIntent::Hold;
        };
        if now_s < at {
            return BeIntent::Hold;
        }
        if self.saturated_ticks > 0 || fault_active {
            self.readmit_at_s = Some(now_s + self.backoff.next_delay());
            return BeIntent::Hold;
        }
        self.readmit_at_s = None;
        BeIntent::Readmit {
            pause_s: READMIT_PAUSE_S,
        }
    }

    /// A crash recovered with the co-runner parked: schedule its
    /// re-admission attempt after the current backoff.
    fn on_recover(&mut self, now_s: f64, be_parked: bool) {
        if be_parked {
            self.readmit_at_s = Some(now_s + self.backoff.next_delay());
        }
    }
}

/// A server's control policy: consumes [`ControlInput`] snapshots,
/// produces [`ControlDecision`]s, and owns every piece of mode state the
/// backend used to hand-arbitrate. See the [module docs](self) for the
/// two sizing rules.
#[derive(Debug, Clone)]
pub struct ServerController {
    manager: ServerManager,
    /// Heracles-style incremental sizing instead of the analytic solve.
    incremental: bool,
    modes: ModeMachine,
    /// The co-runner guard; present exactly when resilience is armed.
    guard: Option<BeGuard>,
}

impl ServerController {
    /// The paper's power-optimized controller around `manager`: analytic
    /// Cobb-Douglas demand with latency feedback. Resilience is off until
    /// [`ServerController::arm_resilience`].
    pub fn new(manager: ServerManager) -> Self {
        ServerController {
            manager,
            incremental: false,
            modes: ModeMachine::new(),
            guard: None,
        }
    }

    /// Switches to the Heracles-style incremental sizing: only the
    /// manager's feedback bounds and `last_counts` are consulted; its
    /// policy and fitted power model go unused, and power emergencies are
    /// left entirely to the reactive capper — the point of the baseline.
    /// Armed resilience is kept.
    #[must_use]
    pub fn incremental(mut self) -> Self {
        self.incremental = true;
        self
    }

    /// Arms the degraded-mode response for a co-runner at cluster-wide
    /// value `rank` (0 = lowest, evicted first): distrust of frozen
    /// telemetry, the eviction/re-admission guard, and — under analytic
    /// sizing — the brownout power governor.
    pub fn arm_resilience(&mut self, rank: usize) {
        self.guard = Some(BeGuard::new(rank));
    }

    /// True once [`ServerController::arm_resilience`] armed the guard.
    pub fn is_resilient(&self) -> bool {
        self.guard.is_some()
    }

    /// One manager epoch: decide what the primary should become.
    pub fn decide(&mut self, input: &ControlInput) -> ControlDecision {
        let resilient = self.is_resilient();
        // A resilient controller distrusts frozen slack; the naive one
        // consumes the stale reading.
        let blind = resilient && input.telemetry_frozen;
        let slack = if blind { None } else { input.observed_slack };
        let mut budget_w = None;
        let planned = if self.incremental || blind {
            // Blind, the analytic solve cannot be trusted either (it
            // consumes the frozen telemetry): protect the SLO with
            // incremental growth.
            Ok(self.manager.plan_incremental(input.max_counts, slack))
        } else {
            let budget = match resilient && input.brownout {
                true => self.brownout_budget(input),
                false => None,
            };
            budget_w = budget.map(|b| b.0);
            self.manager
                .plan(input.observed_load_rps, input.observed_slack, budget)
        };
        let mode = if resilient {
            self.modes.mode(input.brownout, input.telemetry_frozen)
        } else {
            ControlMode::Normal
        };
        let planned = planned.ok();
        let primary = match planned {
            Some((cores, ways)) => PrimaryDirective::Resize { cores, ways },
            None => PrimaryDirective::Hold,
        };
        let record = DecisionRecord {
            now_s: input.now_s,
            mode,
            load_rps: input.observed_load_rps,
            slack,
            measured_w: input.measured_power.map(|m| m.0),
            effective_cap_w: input.effective_cap.0,
            budget_w,
            cores: planned.map(|(c, _)| c),
            ways: planned.map(|(_, w)| w),
            governor_armed: self.modes.armed(),
            escalated: self.modes.escalated(),
            ducked: self.modes.ducked(),
        };
        ControlDecision {
            mode,
            primary,
            record,
        }
    }

    /// The brownout power governor: a measured overdraw arms it, and it
    /// returns the watt budget the primary is re-sized to — the
    /// Cobb-Douglas demand at a budget *calibrated by the observed
    /// model-to-meter ratio* — instead of growing it into the RAPL
    /// throttle. A frequency-floored full machine serves less than a
    /// budget-sized allocation at full clock. `None` while disarmed or
    /// without a meter reading: the plan is the plain analytic one.
    fn brownout_budget(&mut self, input: &ControlInput) -> Option<Watts> {
        let frac = self.modes.brownout_step(
            input.be_present,
            input.observed_slack,
            input.rapl_throttled,
            input.measured_power,
            input.effective_cap,
        );
        let target_total = input.effective_cap * frac;
        let m = input
            .measured_power
            .filter(|m| self.modes.armed() && m.0 > 0.0)?;
        let (c, w) = self.manager.last_counts().unwrap_or((1, 1));
        let modeled = self
            .manager
            .utility()
            .power_model()
            .power_of_amounts(&[c as f64, w as f64])
            .unwrap_or(target_total);
        // The meter reads the whole server; the budget governs only the
        // primary. The co-runner's fitted draw estimate is subtracted
        // from *both* the target and the reading, so estimate error
        // cancels in steady state instead of starving (or overfeeding)
        // the primary.
        let primary_budget = (target_total.0 - input.be_draw_estimate.0).max(1.0);
        let m_primary = (m.0 - input.be_draw_estimate.0).max(1.0);
        // The fitted model prices allocations at full utilization; the
        // meter reads the actual draw. Their ratio converts the watt
        // budget into model space, so the clamp neither starves (model
        // overestimates) nor overshoots (model underestimates).
        let ratio = (primary_budget / m_primary).clamp(0.5, 1.5);
        Some(Watts(modeled.0 * ratio))
    }

    /// One capper tick under distress accounting: should the co-runner
    /// be shed?
    pub fn distress_tick(&mut self, distressed: bool, be_present: bool, now_s: f64) -> BeIntent {
        match &mut self.guard {
            Some(guard) => guard.distress_tick(distressed, be_present, now_s),
            None => BeIntent::Hold,
        }
    }

    /// Should a parked co-runner come back this epoch?
    pub fn readmit_tick(&mut self, now_s: f64, fault_active: bool) -> BeIntent {
        match &mut self.guard {
            Some(guard) => guard.readmit_tick(now_s, fault_active),
            None => BeIntent::Hold,
        }
    }

    /// A crash recovered. A resilient controller schedules a backed-off
    /// re-admission and returns [`BeIntent::Hold`]; a naive one orders an
    /// immediate restart, whatever the post-crash conditions.
    pub fn on_recover(&mut self, now_s: f64, be_parked: bool) -> BeIntent {
        match &mut self.guard {
            Some(guard) => {
                guard.on_recover(now_s, be_parked);
                BeIntent::Hold
            }
            None => BeIntent::Readmit { pause_s: 0.0 },
        }
    }

    /// The brownout lifted: disarm the governor latches.
    pub fn on_brownout_lift(&mut self) {
        self.modes.disarm();
    }

    /// The wrapped per-server manager (fitted model + feedback state).
    pub fn manager(&self) -> &ServerManager {
        &self.manager
    }

    /// Mutable access to the wrapped manager (drift injection, refits,
    /// actuation).
    pub fn manager_mut(&mut self) -> &mut ServerManager {
        &mut self.manager
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATIENCE: usize = EVICTION_PATIENCE_TICKS;

    /// Distress ticks `0..PATIENCE` at `t0 + 0.1 i`, all tolerated.
    fn ride_out_patience(g: &mut BeGuard, t0: f64) {
        for i in 0..PATIENCE {
            let t = t0 + 0.1 * i as f64;
            assert_eq!(g.distress_tick(true, true, t), BeIntent::Hold);
        }
    }

    #[test]
    fn guard_evicts_past_patience_and_schedules_backoff() {
        let mut g = BeGuard::new(0);
        ride_out_patience(&mut g, 0.0);
        assert_eq!(g.distress_tick(true, true, 0.5), BeIntent::Evict);
        assert_eq!(g.readmit_at_s, Some(4.5));
        assert_eq!(g.saturated_ticks, 0, "eviction resets the counter");
    }

    #[test]
    fn guard_patience_grows_with_rank() {
        let mut g = BeGuard::new(2);
        for i in 0..PATIENCE + 2 * PATIENCE_PER_RANK_TICKS {
            assert_eq!(g.distress_tick(true, true, i as f64), BeIntent::Hold);
        }
        assert_eq!(g.distress_tick(true, true, 99.0), BeIntent::Evict);
    }

    #[test]
    fn guard_calm_tick_resets_patience() {
        let mut g = BeGuard::new(0);
        ride_out_patience(&mut g, 0.0);
        assert_eq!(g.distress_tick(false, true, 0.5), BeIntent::Hold);
        assert_eq!(g.saturated_ticks, 0);
        // The full patience is owed again.
        ride_out_patience(&mut g, 0.6);
        assert_eq!(g.distress_tick(true, true, 1.1), BeIntent::Evict);
    }

    #[test]
    fn guard_counts_distress_with_no_co_runner_but_never_evicts() {
        let mut g = BeGuard::new(0);
        for i in 0..10 {
            assert_eq!(g.distress_tick(true, false, i as f64), BeIntent::Hold);
        }
        assert!(g.readmit_at_s.is_none());
    }

    /// The backoff keeps doubling while the server is saturated or a
    /// fault is active, and re-admission pays [`READMIT_PAUSE_S`].
    #[test]
    fn guard_backoff_doubles_while_faulted_and_readmit_honors_pause() {
        let mut g = BeGuard::new(0);
        ride_out_patience(&mut g, 0.0);
        assert_eq!(g.distress_tick(true, true, 0.5), BeIntent::Evict);
        // First attempt at 4.5: fault still active — wait doubles to 8 s.
        assert_eq!(g.readmit_tick(4.5, true), BeIntent::Hold);
        assert_eq!(g.readmit_at_s, Some(4.5 + 8.0));
        // Second attempt: healthy but still saturated — doubles to 16 s.
        g.distress_tick(true, true, 12.0);
        assert_eq!(g.readmit_tick(12.5, false), BeIntent::Hold);
        assert_eq!(g.readmit_at_s, Some(12.5 + 16.0));
        // Not yet due: nothing happens, the schedule stands.
        assert_eq!(g.readmit_tick(20.0, false), BeIntent::Hold);
        assert_eq!(g.readmit_at_s, Some(28.5));
        // Due, calm, healthy: re-admitted with the warm-up pause.
        g.distress_tick(false, false, 28.0);
        assert_eq!(
            g.readmit_tick(28.5, false),
            BeIntent::Readmit {
                pause_s: READMIT_PAUSE_S
            }
        );
        assert!(g.readmit_at_s.is_none());
    }

    #[test]
    fn guard_recover_schedules_only_when_parked() {
        let mut g = BeGuard::new(0);
        g.on_recover(10.0, false);
        assert!(g.readmit_at_s.is_none());
        g.on_recover(10.0, true);
        assert_eq!(g.readmit_at_s, Some(14.0));
    }
}
