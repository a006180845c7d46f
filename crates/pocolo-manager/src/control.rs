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
//! Two controllers ship:
//!
//! - [`PocoloController`] — the paper's analytic demand solve with
//!   latency feedback, plus the brownout power governor and the
//!   frozen-telemetry fallback (armed by
//!   [`ServerController::arm_resilience`]).
//! - [`HeraclesController`] — a power-oblivious incremental-growth
//!   baseline: grow a core and a way on low (or unknown) slack, trim on
//!   verified headroom, never consult the power model.
//!
//! This boundary is what makes the distributed runtime (`pocolo-net`)
//! possible without a second control implementation: a remote POM agent
//! is just another backend. It builds the same [`ControlInput`]
//! snapshots from its local simulation, runs the same controller, and
//! actuates the same [`ControlDecision`]s — only telemetry summaries
//! and final metrics cross the wire, never control policy. The
//! degraded-slot takeover after a lease expiry likewise reuses
//! [`HeraclesController`] as the blind fallback, so the failure path
//! exercises a controller this module already unit-tests.

use std::fmt;

use pocolo_core::units::Watts;
use pocolo_faults::ReadmissionBackoff;

use crate::modes::{ControlMode, GovernorConfig, ModeMachine};
use crate::server_manager::ServerManager;

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

/// Degraded-mode tuning handed to [`ServerController::arm_resilience`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceParams {
    /// Brownout governor targets.
    pub governor: GovernorConfig,
    /// Consecutive distressed capper ticks tolerated before the
    /// co-runner is evicted (rank scaling already folded in).
    pub eviction_patience_ticks: usize,
    /// Exponential re-admission backoff schedule.
    pub backoff: ReadmissionBackoff,
    /// Warm-up pause a re-admitted co-runner pays, seconds.
    pub readmit_pause_s: f64,
}

/// The best-effort co-runner guard: eviction patience and re-admission
/// backoff, shared by every resilient controller.
#[derive(Debug, Clone, PartialEq)]
pub struct BeGuard {
    patience_ticks: usize,
    backoff: ReadmissionBackoff,
    readmit_pause_s: f64,
    saturated_ticks: usize,
    readmit_at_s: Option<f64>,
}

impl BeGuard {
    /// A guard with the given patience, backoff schedule, and warm-up
    /// pause.
    pub fn new(patience_ticks: usize, backoff: ReadmissionBackoff, readmit_pause_s: f64) -> Self {
        BeGuard {
            patience_ticks,
            backoff,
            readmit_pause_s,
            saturated_ticks: 0,
            readmit_at_s: None,
        }
    }

    /// One capper-tick distress update: count consecutive distressed
    /// ticks, and once patience is exceeded with a co-runner present,
    /// order an eviction and schedule the re-admission attempt.
    pub fn distress_tick(&mut self, distressed: bool, be_present: bool, now_s: f64) -> BeIntent {
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
    pub fn readmit_tick(&mut self, now_s: f64, fault_active: bool) -> BeIntent {
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
            pause_s: self.readmit_pause_s,
        }
    }

    /// A crash recovered with the co-runner parked: schedule its
    /// re-admission attempt after the current backoff.
    pub fn on_recover(&mut self, now_s: f64, be_parked: bool) {
        if be_parked {
            self.readmit_at_s = Some(now_s + self.backoff.next_delay());
        }
    }

    /// The scheduled re-admission attempt, if one is pending.
    pub fn readmit_at_s(&self) -> Option<f64> {
        self.readmit_at_s
    }

    /// Consecutive distressed ticks counted so far.
    pub fn saturated_ticks(&self) -> usize {
        self.saturated_ticks
    }
}

/// A server's control policy: consumes [`ControlInput`] snapshots,
/// produces [`ControlDecision`]s, and owns every piece of mode state the
/// backend used to hand-arbitrate.
pub trait ServerController: fmt::Debug + Send {
    /// One manager epoch: decide what the primary should become.
    fn decide(&mut self, input: &ControlInput) -> ControlDecision;

    /// One capper tick under distress accounting: should the co-runner
    /// be shed?
    fn distress_tick(&mut self, distressed: bool, be_present: bool, now_s: f64) -> BeIntent;

    /// Should a parked co-runner come back this epoch?
    fn readmit_tick(&mut self, now_s: f64, fault_active: bool) -> BeIntent;

    /// A crash recovered. Resilient controllers schedule a backed-off
    /// re-admission and return [`BeIntent::Hold`]; naive ones order an
    /// immediate restart.
    fn on_recover(&mut self, now_s: f64, be_parked: bool) -> BeIntent;

    /// The brownout lifted: disarm the governor latches.
    fn on_brownout_lift(&mut self);

    /// Arms the degraded-mode response (governor, frozen-telemetry
    /// fallback, eviction/re-admission guard).
    fn arm_resilience(&mut self, params: ResilienceParams);

    /// The wrapped per-server manager (fitted model + feedback state).
    fn manager(&self) -> &ServerManager;

    /// Mutable access to the wrapped manager (drift injection, refits,
    /// actuation).
    fn manager_mut(&mut self) -> &mut ServerManager;

    /// The mode of the last decision.
    fn mode(&self) -> ControlMode;
}

fn record_of(
    input: &ControlInput,
    mode: ControlMode,
    slack: Option<f64>,
    budget_w: Option<f64>,
    planned: Option<(u32, u32)>,
    modes: &ModeMachine,
) -> DecisionRecord {
    DecisionRecord {
        now_s: input.now_s,
        mode,
        load_rps: input.observed_load_rps,
        slack,
        measured_w: input.measured_power.map(|m| m.0),
        effective_cap_w: input.effective_cap.0,
        budget_w,
        cores: planned.map(|(c, _)| c),
        ways: planned.map(|(_, w)| w),
        governor_armed: modes.armed(),
        escalated: modes.escalated(),
        ducked: modes.ducked(),
    }
}

fn decision_of(
    input: &ControlInput,
    mode: ControlMode,
    slack: Option<f64>,
    budget_w: Option<f64>,
    planned: Option<(u32, u32)>,
    modes: &ModeMachine,
) -> ControlDecision {
    let primary = match planned {
        Some((cores, ways)) => PrimaryDirective::Resize { cores, ways },
        None => PrimaryDirective::Hold,
    };
    ControlDecision {
        mode,
        primary,
        record: record_of(input, mode, slack, budget_w, planned, modes),
    }
}

/// The paper's power-optimized controller: analytic Cobb-Douglas demand
/// with latency feedback, and — once resilience is armed — the brownout
/// power governor and the frozen-telemetry incremental fallback.
#[derive(Debug, Clone)]
pub struct PocoloController {
    manager: ServerManager,
    modes: ModeMachine,
    governor: Option<GovernorConfig>,
    guard: Option<BeGuard>,
    last_mode: ControlMode,
}

impl PocoloController {
    /// Wraps a manager. Resilience is off until
    /// [`ServerController::arm_resilience`].
    pub fn new(manager: ServerManager) -> Self {
        PocoloController {
            manager,
            modes: ModeMachine::new(),
            governor: None,
            guard: None,
            last_mode: ControlMode::Normal,
        }
    }

    /// The governor latch state (for tests and diagnostics).
    pub fn modes(&self) -> &ModeMachine {
        &self.modes
    }

    /// The co-runner guard, if resilience is armed.
    pub fn guard(&self) -> Option<&BeGuard> {
        self.guard.as_ref()
    }

    fn resilient(&self) -> bool {
        self.governor.is_some()
    }
}

impl ServerController for PocoloController {
    fn decide(&mut self, input: &ControlInput) -> ControlDecision {
        let mut budget_w = None;
        let mut slack = input.observed_slack;
        let planned = if self.resilient() && input.telemetry_frozen {
            // Degraded: telemetry cannot be trusted, so neither can the
            // analytic solve that consumes it. When blind, protect the
            // SLO with incremental growth.
            slack = None;
            Ok(self.manager.plan_incremental(input.max_counts, None))
        } else if let (Some(gov), true) = (self.governor, input.brownout) {
            // Brownout: a measured overdraw arms the power governor,
            // which re-sizes the primary to the Cobb-Douglas demand at a
            // budget *calibrated by the observed model-to-meter ratio* —
            // instead of growing it into the RAPL throttle. A
            // frequency-floored full machine serves less than a
            // budget-sized allocation at full clock.
            let frac = self.modes.brownout_step(
                &gov,
                input.be_present,
                input.observed_slack,
                input.rapl_throttled,
                input.measured_power,
                input.effective_cap,
            );
            let target_total = input.effective_cap * frac;
            match input.measured_power {
                Some(m) if self.modes.armed() && m.0 > 0.0 => {
                    let (c, w) = self.manager.last_counts().unwrap_or((1, 1));
                    let modeled = self
                        .manager
                        .utility()
                        .power_model()
                        .power_of_amounts(&[c as f64, w as f64])
                        .unwrap_or(target_total);
                    // The meter reads the whole server; the budget
                    // governs only the primary. The co-runner's fitted
                    // draw estimate is subtracted from *both* the target
                    // and the reading, so estimate error cancels in
                    // steady state instead of starving (or overfeeding)
                    // the primary.
                    let primary_budget = (target_total.0 - input.be_draw_estimate.0).max(1.0);
                    let m_primary = (m.0 - input.be_draw_estimate.0).max(1.0);
                    // The fitted model prices allocations at full
                    // utilization; the meter reads the actual draw.
                    // Their ratio converts the watt budget into model
                    // space, so the clamp neither starves (model
                    // overestimates) nor overshoots (model
                    // underestimates).
                    let ratio = (primary_budget / m_primary).clamp(0.5, 1.5);
                    let budget = Watts(modeled.0 * ratio);
                    budget_w = Some(budget.0);
                    self.manager.plan_budgeted(
                        input.observed_load_rps,
                        input.observed_slack,
                        budget,
                    )
                }
                _ => self
                    .manager
                    .plan_analytic(input.observed_load_rps, input.observed_slack),
            }
        } else {
            self.manager
                .plan_analytic(input.observed_load_rps, input.observed_slack)
        };
        let mode = if self.resilient() {
            self.modes.mode(input.brownout, input.telemetry_frozen)
        } else {
            ControlMode::Normal
        };
        self.last_mode = mode;
        decision_of(input, mode, slack, budget_w, planned.ok(), &self.modes)
    }

    fn distress_tick(&mut self, distressed: bool, be_present: bool, now_s: f64) -> BeIntent {
        match &mut self.guard {
            Some(guard) => guard.distress_tick(distressed, be_present, now_s),
            None => BeIntent::Hold,
        }
    }

    fn readmit_tick(&mut self, now_s: f64, fault_active: bool) -> BeIntent {
        match &mut self.guard {
            Some(guard) => guard.readmit_tick(now_s, fault_active),
            None => BeIntent::Hold,
        }
    }

    fn on_recover(&mut self, now_s: f64, be_parked: bool) -> BeIntent {
        match &mut self.guard {
            Some(guard) => {
                guard.on_recover(now_s, be_parked);
                BeIntent::Hold
            }
            // Naive path: the co-runner is restarted immediately,
            // whatever the post-crash conditions.
            None => BeIntent::Readmit { pause_s: 0.0 },
        }
    }

    fn on_brownout_lift(&mut self) {
        self.modes.disarm();
    }

    fn arm_resilience(&mut self, params: ResilienceParams) {
        self.governor = Some(params.governor);
        self.guard = Some(BeGuard::new(
            params.eviction_patience_ticks,
            params.backoff,
            params.readmit_pause_s,
        ));
    }

    fn manager(&self) -> &ServerManager {
        &self.manager
    }

    fn manager_mut(&mut self) -> &mut ServerManager {
        &mut self.manager
    }

    fn mode(&self) -> ControlMode {
        self.last_mode
    }
}

/// The Heracles-style incremental-growth baseline as a full controller:
/// grow a core and a way on low (or unknown) slack, trim one of each on
/// verified ample headroom, never consult the power model. Power
/// emergencies are left entirely to the reactive capper — the point of
/// the baseline.
#[derive(Debug, Clone)]
pub struct HeraclesController {
    manager: ServerManager,
    guard: Option<BeGuard>,
    resilient: bool,
    last_mode: ControlMode,
}

impl HeraclesController {
    /// Wraps a manager (only its feedback bounds and `last_counts` state
    /// are consulted; the policy and fitted power model are unused).
    pub fn new(manager: ServerManager) -> Self {
        HeraclesController {
            manager,
            guard: None,
            resilient: false,
            last_mode: ControlMode::Normal,
        }
    }
}

impl ServerController for HeraclesController {
    fn decide(&mut self, input: &ControlInput) -> ControlDecision {
        // A resilient Heracles distrusts frozen slack just like the
        // analytic controller; the naive one consumes the stale reading.
        let slack = if self.resilient && input.telemetry_frozen {
            None
        } else {
            input.observed_slack
        };
        let planned = self.manager.plan_incremental(input.max_counts, slack);
        let mode = if self.resilient && input.telemetry_frozen {
            ControlMode::Degraded
        } else {
            ControlMode::Normal
        };
        self.last_mode = mode;
        decision_of(input, mode, slack, None, Some(planned), &ModeMachine::new())
    }

    fn distress_tick(&mut self, distressed: bool, be_present: bool, now_s: f64) -> BeIntent {
        match &mut self.guard {
            Some(guard) => guard.distress_tick(distressed, be_present, now_s),
            None => BeIntent::Hold,
        }
    }

    fn readmit_tick(&mut self, now_s: f64, fault_active: bool) -> BeIntent {
        match &mut self.guard {
            Some(guard) => guard.readmit_tick(now_s, fault_active),
            None => BeIntent::Hold,
        }
    }

    fn on_recover(&mut self, now_s: f64, be_parked: bool) -> BeIntent {
        match &mut self.guard {
            Some(guard) => {
                guard.on_recover(now_s, be_parked);
                BeIntent::Hold
            }
            None => BeIntent::Readmit { pause_s: 0.0 },
        }
    }

    fn on_brownout_lift(&mut self) {}

    fn arm_resilience(&mut self, params: ResilienceParams) {
        // Power-oblivious: the governor targets are ignored; only the
        // eviction/re-admission guard and the frozen-slack distrust arm.
        self.resilient = true;
        self.guard = Some(BeGuard::new(
            params.eviction_patience_ticks,
            params.backoff,
            params.readmit_pause_s,
        ));
    }

    fn manager(&self) -> &ServerManager {
        &self.manager
    }

    fn manager_mut(&mut self) -> &mut ServerManager {
        &mut self.manager
    }

    fn mode(&self) -> ControlMode {
        self.last_mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> BeGuard {
        BeGuard::new(2, ReadmissionBackoff::new(4.0, 2.0, 64.0), 2.0)
    }

    #[test]
    fn guard_evicts_past_patience_and_schedules_backoff() {
        let mut g = guard();
        assert_eq!(g.distress_tick(true, true, 0.0), BeIntent::Hold);
        assert_eq!(g.distress_tick(true, true, 0.1), BeIntent::Hold);
        assert_eq!(g.distress_tick(true, true, 0.2), BeIntent::Evict);
        assert_eq!(g.readmit_at_s(), Some(0.2 + 4.0));
        assert_eq!(g.saturated_ticks(), 0, "eviction resets the counter");
    }

    #[test]
    fn guard_calm_tick_resets_patience() {
        let mut g = guard();
        g.distress_tick(true, true, 0.0);
        g.distress_tick(true, true, 0.1);
        assert_eq!(g.distress_tick(false, true, 0.2), BeIntent::Hold);
        assert_eq!(g.saturated_ticks(), 0);
        // The full patience is owed again.
        assert_eq!(g.distress_tick(true, true, 0.3), BeIntent::Hold);
        assert_eq!(g.distress_tick(true, true, 0.4), BeIntent::Hold);
        assert_eq!(g.distress_tick(true, true, 0.5), BeIntent::Evict);
    }

    #[test]
    fn guard_counts_distress_with_no_co_runner_but_never_evicts() {
        let mut g = guard();
        for i in 0..10 {
            assert_eq!(g.distress_tick(true, false, i as f64), BeIntent::Hold);
        }
        assert!(g.readmit_at_s().is_none());
    }

    /// The satellite regression: the backoff keeps doubling while the
    /// server is saturated or a fault is active, and re-admission pays
    /// `readmit_pause_s`.
    #[test]
    fn guard_backoff_doubles_while_faulted_and_readmit_honors_pause() {
        let mut g = guard();
        g.distress_tick(true, true, 0.0);
        g.distress_tick(true, true, 0.1);
        assert_eq!(g.distress_tick(true, true, 0.2), BeIntent::Evict);
        // First attempt at 4.2: fault still active — wait doubles to 8 s.
        assert_eq!(g.readmit_tick(4.2, true), BeIntent::Hold);
        assert_eq!(g.readmit_at_s(), Some(4.2 + 8.0));
        // Second attempt: healthy but still saturated — doubles to 16 s.
        g.distress_tick(true, true, 12.0);
        assert_eq!(g.readmit_tick(12.2, false), BeIntent::Hold);
        assert_eq!(g.readmit_at_s(), Some(12.2 + 16.0));
        // Not yet due: nothing happens, the schedule stands.
        assert_eq!(g.readmit_tick(20.0, false), BeIntent::Hold);
        assert_eq!(g.readmit_at_s(), Some(28.2));
        // Due, calm, healthy: re-admitted with the warm-up pause.
        g.distress_tick(false, false, 28.0);
        assert_eq!(
            g.readmit_tick(28.2, false),
            BeIntent::Readmit { pause_s: 2.0 }
        );
        assert!(g.readmit_at_s().is_none());
    }

    #[test]
    fn guard_recover_schedules_only_when_parked() {
        let mut g = guard();
        g.on_recover(10.0, false);
        assert!(g.readmit_at_s().is_none());
        g.on_recover(10.0, true);
        assert_eq!(g.readmit_at_s(), Some(14.0));
    }
}
