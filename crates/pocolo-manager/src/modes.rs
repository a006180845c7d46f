//! The explicit control-mode state machine behind the brownout power
//! governor (§6.6/§6.7 of DESIGN.md).
//!
//! The governor's behaviour is two independent *sticky latches* plus one
//! per-step flag:
//!
//! - **armed** — latched when the meter reads above the budget target
//!   during a brownout: the manager then sizes the primary inside the
//!   shrunk envelope instead of growing it into the RAPL throttle.
//!   Cleared only when the brownout lifts.
//! - **escalated** — latched when the governed primary is caught
//!   violating its SLO: the budget target escalates from the comfort
//!   fraction to just under the cap. Sticky until the brownout lifts, so
//!   the target doesn't oscillate around the violation boundary.
//! - **ducked** — per-step: while the RAPL ceiling is depressed the
//!   target is pulled below the capper's release band so the clock
//!   recovers first — capacity at full clock beats watts at a floored
//!   one.
//!
//! [`ControlMode`] is the externally-visible projection of those latches
//! (plus the frozen-telemetry fallback), reported on every
//! [`crate::control::DecisionRecord`]:
//!
//! ```text
//!              telemetry frozen
//!   Normal ────────────────────────▶ Degraded
//!     │ ▲                               │ thaw
//!     │ └───────── disarm ◀─────────────┘
//!     │       (brownout lifts)
//!     │ arm (measured > cap × frac)
//!     ▼
//!   Governed ──── escalate (slack < 0) ───▶ Distress
//!     ▲                                       │
//!     └────────────── disarm ◀────────────────┘
//! ```

use pocolo_core::units::Watts;

use crate::capper::RELEASE;

/// The externally-visible control regime of one server's manager loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMode {
    /// Healthy analytic control: track load, solve the demand function.
    Normal,
    /// Brownout with the power governor armed: the primary is sized to a
    /// meter-calibrated watt budget inside the shrunk envelope.
    Governed,
    /// The governed primary was caught violating its SLO: the budget
    /// target escalates to just under the cap (sticky until the brownout
    /// lifts).
    Distress,
    /// Telemetry is frozen: the analytic solve that consumes it can't be
    /// trusted, so the manager falls back to blind incremental growth.
    Degraded,
}

impl ControlMode {
    /// Lower-case display name (used in decision traces).
    pub fn name(&self) -> &'static str {
        match self {
            ControlMode::Normal => "normal",
            ControlMode::Governed => "governed",
            ControlMode::Distress => "distress",
            ControlMode::Degraded => "degraded",
        }
    }
}

/// Whole-server budget fraction of the effective cap the governor targets
/// while a BE co-runner is placed. Sits below the capper's release band
/// ([`RELEASE`]), or the emergency throttle never disarms while the
/// governor holds the server at its budget.
const COMFORT_FRAC: f64 = 0.88;

/// Budget fraction once the primary runs alone. Same release-band
/// constraint.
const COMFORT_FRAC_SOLO: f64 = 0.92;

/// Budget fraction once the primary is caught violating its SLO: spend
/// right up to the cap. Sits *above* the release band by design — a
/// violating primary trades the RAPL safety margin for capacity.
const DISTRESS_FRAC: f64 = 0.98;

/// How far below the release band the target ducks while the RAPL
/// ceiling is depressed.
const DUCK_MARGIN: f64 = 0.02;

const _: () = assert!(COMFORT_FRAC < RELEASE && COMFORT_FRAC_SOLO < RELEASE);
const _: () = assert!(DISTRESS_FRAC > RELEASE);

/// The governor's latch state, with every transition an explicit,
/// unit-testable edge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModeMachine {
    armed: bool,
    escalated: bool,
    ducked: bool,
}

impl ModeMachine {
    /// A machine with every latch clear.
    pub fn new() -> Self {
        ModeMachine::default()
    }

    /// True once the power governor has been armed this brownout.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// True once distress escalation has latched this brownout.
    pub fn escalated(&self) -> bool {
        self.escalated
    }

    /// True if the last [`ModeMachine::brownout_step`] pulled the target
    /// under the release band because the RAPL ceiling was depressed.
    pub fn ducked(&self) -> bool {
        self.ducked
    }

    /// One brownout control step: latch escalation on an observed SLO
    /// violation, pick the budget fraction, duck it under the release
    /// band while throttled, and arm the governor on a measured
    /// overdraw. Returns the whole-server target fraction of the
    /// effective cap.
    pub fn brownout_step(
        &mut self,
        be_present: bool,
        observed_slack: Option<f64>,
        throttled: bool,
        measured: Option<Watts>,
        effective_cap: Watts,
    ) -> f64 {
        // Escalate: a violating primary trades comfort margin for
        // capacity, sticky until the brownout lifts.
        if observed_slack.is_some_and(|s| s < 0.0) {
            self.escalated = true;
        }
        let mut frac = if self.escalated {
            DISTRESS_FRAC
        } else if be_present {
            COMFORT_FRAC
        } else {
            COMFORT_FRAC_SOLO
        };
        // Duck: an escalated target above the release band would pin a
        // dropped RAPL ceiling down forever. While throttled, stay below
        // the band so the clock recovers first.
        let duck_target = RELEASE - DUCK_MARGIN;
        self.ducked = throttled && frac > duck_target;
        if throttled {
            frac = frac.min(duck_target);
        }
        // Arm: a measured overdraw means the analytic plan is growing the
        // primary into the RAPL throttle — switch to budgeted sizing.
        if measured.is_some_and(|m| m > effective_cap * frac) {
            self.armed = true;
        }
        frac
    }

    /// The brownout lifted: both latches clear.
    pub fn disarm(&mut self) {
        self.armed = false;
        self.escalated = false;
        self.ducked = false;
    }

    /// The mode these latches project to, given the fault context.
    pub fn mode(&self, brownout: bool, telemetry_frozen: bool) -> ControlMode {
        if telemetry_frozen {
            ControlMode::Degraded
        } else if brownout && self.escalated {
            ControlMode::Distress
        } else if brownout && self.armed {
            ControlMode::Governed
        } else {
            ControlMode::Normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_edge_latches_on_measured_overdraw() {
        let mut m = ModeMachine::new();
        let cap = Watts(100.0);
        // Below the comfort target: stays disarmed.
        let frac = m.brownout_step(true, Some(0.3), false, Some(Watts(80.0)), cap);
        assert_eq!(frac, 0.88);
        assert!(!m.armed());
        assert_eq!(m.mode(true, false), ControlMode::Normal);
        // Over the target: arms, and stays armed on a later calm reading.
        m.brownout_step(true, Some(0.3), false, Some(Watts(90.0)), cap);
        assert!(m.armed());
        assert_eq!(m.mode(true, false), ControlMode::Governed);
        m.brownout_step(true, Some(0.3), false, Some(Watts(50.0)), cap);
        assert!(m.armed(), "armed is a latch, not a level");
    }

    #[test]
    fn solo_primary_gets_the_solo_target() {
        let mut m = ModeMachine::new();
        let frac = m.brownout_step(false, None, false, None, Watts(100.0));
        assert_eq!(frac, 0.92);
    }

    #[test]
    fn escalate_edge_latches_on_slo_violation() {
        let mut m = ModeMachine::new();
        let cap = Watts(100.0);
        let frac = m.brownout_step(true, Some(-0.1), false, Some(Watts(95.0)), cap);
        assert!(m.escalated());
        assert_eq!(frac, 0.98, "distress spends right up to the cap");
        assert_eq!(m.mode(true, false), ControlMode::Distress);
        // Sticky: recovered slack does not de-escalate.
        let frac = m.brownout_step(true, Some(0.5), false, Some(Watts(50.0)), cap);
        assert!(m.escalated());
        assert_eq!(frac, 0.98);
    }

    #[test]
    fn duck_edge_pulls_under_the_release_band_while_throttled() {
        let mut m = ModeMachine::new();
        let cap = Watts(100.0);
        m.brownout_step(true, Some(-0.1), false, Some(Watts(99.0)), cap);
        assert!(m.escalated() && m.armed());
        // RAPL ceiling depressed: the 0.98 distress target ducks to 0.92.
        let frac = m.brownout_step(true, Some(-0.1), true, Some(Watts(99.0)), cap);
        assert!((frac - 0.92).abs() < 1e-12);
        assert!(m.ducked());
        // Throttle released: the full distress target returns.
        let frac = m.brownout_step(true, Some(-0.1), false, Some(Watts(99.0)), cap);
        assert_eq!(frac, 0.98);
        assert!(!m.ducked());
    }

    #[test]
    fn duck_is_a_no_op_below_the_band() {
        let mut m = ModeMachine::new();
        // Comfort 0.88 already sits under release − margin = 0.92.
        let frac = m.brownout_step(true, Some(0.3), true, None, Watts(100.0));
        assert_eq!(frac, 0.88);
        assert!(!m.ducked());
    }

    #[test]
    fn disarm_edge_clears_both_latches() {
        let mut m = ModeMachine::new();
        let cap = Watts(100.0);
        m.brownout_step(true, Some(-0.1), false, Some(Watts(99.0)), cap);
        assert!(m.armed() && m.escalated());
        m.disarm();
        assert!(!m.armed() && !m.escalated() && !m.ducked());
        assert_eq!(m.mode(true, false), ControlMode::Normal);
    }

    #[test]
    fn frozen_telemetry_projects_degraded_over_everything() {
        let mut m = ModeMachine::new();
        m.brownout_step(true, Some(-0.1), false, Some(Watts(99.0)), Watts(100.0));
        assert_eq!(m.mode(true, true), ControlMode::Degraded);
        assert_eq!(m.mode(false, true), ControlMode::Degraded);
    }

    #[test]
    fn mode_names_are_stable() {
        assert_eq!(ControlMode::Normal.name(), "normal");
        assert_eq!(ControlMode::Governed.name(), "governed");
        assert_eq!(ControlMode::Distress.name(), "distress");
        assert_eq!(ControlMode::Degraded.name(), "degraded");
    }
}
