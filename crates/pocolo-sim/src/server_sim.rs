//! Simulation of a single colocated server: ground truth + control loops.

use pocolo_core::units::{Frequency, Watts};
use pocolo_core::utility::IndirectUtility;
use pocolo_core::CobbDouglas;
use pocolo_manager::capper::RELEASE;
use pocolo_manager::{
    BeIntent, CapAction, ControlInput, DecisionRecord, LcPolicy, PowerCapper, PrimaryDirective,
    ServerController, ServerManager,
};
use pocolo_simserver::power::{PowerDrawModel, PowerMeter};
use pocolo_simserver::{Reading, SimServer, TenantRole};
use pocolo_workloads::{BeModel, LcModel, LoadTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::faults::ServerFaultAction;
use crate::metrics::ServerMetrics;

/// One server under simulation: the ground-truth workload models, the
/// simulated hardware, and the two control loops — plus, optionally, the
/// fault physics (brownout caps, crashes, frozen telemetry, RAPL-style
/// emergency throttling) and the degraded-mode response on top.
#[derive(Debug)]
pub struct ServerSim {
    lc_truth: LcModel,
    be_truth: Option<BeModel>,
    server: SimServer,
    /// The control plane: decides; this backend actuates.
    controller: ServerController,
    meter: PowerMeter,
    power_model: PowerDrawModel,
    trace: LoadTrace,
    metrics: ServerMetrics,
    last_slack: Option<f64>,
    /// Last meter reading (what a real power governor would see).
    last_measured: Option<Watts>,
    current_load_rps: f64,
    /// Fitted BE utility for proactive (model-guided) secondary planning.
    be_fitted: Option<IndirectUtility>,
    /// Frequency ceiling planned for the secondary this epoch.
    freq_ceiling: Option<Frequency>,
    /// Remaining migration pause: the BE app produces no throughput while
    /// its state moves in (§I: "dynamically moving applications across
    /// servers incurs high overheads").
    pause_remaining_s: f64,
    /// RNG seed (meter + drift perturbations derive from it).
    seed: u64,
    /// Internal clock, advanced by manager and capper ticks.
    clock_s: f64,
    /// Effective-cap multiplier (1.0 = provisioned; brownouts set < 1).
    cap_factor: f64,
    /// True while the server is crashed.
    down: bool,
    /// What the management plane *observes* (freezable telemetry).
    obs_load: Reading,
    obs_slack: Reading,
    /// Fault physics armed: the capper enforces the *effective* cap and a
    /// RAPL-style emergency throttle may slow the primary under sustained
    /// overdraw.
    fault_physics: bool,
    /// Emergency DVFS ceiling on the primary (RAPL analogue).
    rapl_ceiling: Frequency,
    /// Forced-idle duty factor (RAPL's last resort once the frequency is
    /// floored and the server still overdraws): capacity and BE
    /// throughput scale with it, tail latency suffers accordingly.
    duty: f64,
    /// Evicted/crashed-out BE co-runner awaiting re-admission, with the
    /// migration pause it still owes (an app moved in while parked).
    parked_be: Option<(BeModel, Option<IndirectUtility>, f64)>,
    /// Set when a fault clears; resolved at the first healthy tick.
    recovery_pending_since: Option<f64>,
    /// Degraded-mode response armed on the controller.
    resilient: bool,
    /// Per-epoch decision trace, when enabled.
    decision_log: Option<Vec<DecisionRecord>>,
}

impl ServerSim {
    /// Assembles a server simulation.
    ///
    /// `lc_fitted` is the *fitted* model the manager plans with (fit it from
    /// profiles of `lc_truth`); `be_truth` is the co-runner's ground truth
    /// (or `None` for a solo primary).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        lc_truth: LcModel,
        lc_fitted: IndirectUtility,
        be_truth: Option<BeModel>,
        policy: LcPolicy,
        trace: LoadTrace,
        power_cap: Watts,
        meter_noise: f64,
        seed: u64,
    ) -> Self {
        let machine = lc_truth.machine().clone();
        let server = SimServer::new(machine.clone(), power_cap);
        let manager = ServerManager::new(lc_fitted, policy);
        let rapl_ceiling = machine.freq_max();
        ServerSim {
            power_model: PowerDrawModel::new(machine),
            lc_truth,
            be_truth,
            server,
            controller: ServerController::new(manager),
            meter: PowerMeter::new(meter_noise, seed),
            trace,
            metrics: ServerMetrics::new(power_cap),
            last_slack: None,
            last_measured: None,
            current_load_rps: 0.0,
            be_fitted: None,
            freq_ceiling: None,
            pause_remaining_s: 0.0,
            seed,
            clock_s: 0.0,
            cap_factor: 1.0,
            down: false,
            obs_load: Reading::default(),
            obs_slack: Reading::default(),
            fault_physics: false,
            rapl_ceiling,
            duty: 1.0,
            parked_be: None,
            recovery_pending_since: None,
            resilient: false,
            decision_log: None,
        }
    }

    /// Swaps the best-effort co-runner (a cluster-level migration, reached
    /// through [`ServerFaultAction::ReplaceBe`], or a re-admission). The
    /// new app pays `pause_s` seconds of zero throughput while it warms
    /// up; the secondary slot's DVFS/quota state resets.
    fn replace_be(
        &mut self,
        be_truth: Option<BeModel>,
        be_fitted: Option<IndirectUtility>,
        pause_s: f64,
    ) {
        self.be_truth = be_truth;
        self.be_fitted = be_fitted;
        self.pause_remaining_s = pause_s.max(0.0);
        self.server.evict(TenantRole::Secondary);
    }

    /// Seconds left of the current co-runner's migration pause.
    pub fn pause_remaining_s(&self) -> f64 {
        self.pause_remaining_s
    }

    /// Enables proactive, model-guided management of the secondary (the
    /// power-optimized policies): every manager epoch, the secondary's DVFS
    /// frequency is *planned* from the fitted models so its predicted draw
    /// fits the predicted power headroom — instead of running hot and being
    /// reactively throttled. The reactive capper stays as a backstop.
    #[must_use]
    pub fn with_proactive_be(mut self, be_fitted: IndirectUtility) -> Self {
        self.be_fitted = Some(be_fitted);
        self
    }

    /// Arms the fault physics: the capper enforces the *effective* cap
    /// (provisioned × brownout factor) and a RAPL-style emergency DVFS
    /// throttle slows the primary when the server stays over that cap
    /// with the secondary already floored. Without this, fault events
    /// still apply but the hardware behaves as if provisioning were
    /// always honest.
    #[must_use]
    pub fn with_fault_physics(mut self) -> Self {
        self.fault_physics = true;
        self
    }

    /// Arms the degraded-mode response: stale telemetry switches the
    /// manager to pure Heracles-style feedback, the proactive planner
    /// tracks the *effective* cap, and a co-runner that keeps the capper
    /// saturated is evicted (after a patience that grows with its
    /// cluster-wide value `rank`, so rank 0 is sacrificed first) with
    /// exponential re-admission backoff. Implies
    /// [`ServerSim::with_fault_physics`].
    #[must_use]
    pub fn with_resilience(mut self, rank: usize) -> Self {
        self.fault_physics = true;
        self.resilient = true;
        self.controller.arm_resilience(rank);
        self
    }

    /// Sizes the primary with the power-oblivious incremental-growth rule
    /// (the Heracles-style baseline) instead of the analytic solve.
    /// Commutes with [`ServerSim::with_resilience`].
    #[must_use]
    pub fn with_incremental_control(mut self) -> Self {
        self.controller = self.controller.incremental();
        self
    }

    /// Records every [`DecisionRecord`] the controller emits (the CLI's
    /// `--decision-log` source).
    #[must_use]
    pub fn with_decision_log(mut self) -> Self {
        self.decision_log = Some(Vec::new());
        self
    }

    /// The decision trace accumulated so far (empty unless
    /// [`ServerSim::with_decision_log`] was enabled).
    pub fn decision_records(&self) -> &[DecisionRecord] {
        self.decision_log.as_deref().unwrap_or(&[])
    }

    /// The ground-truth LC model.
    pub fn lc_truth(&self) -> &LcModel {
        &self.lc_truth
    }

    /// The co-runner's ground truth, if placed.
    pub fn be_truth(&self) -> Option<&BeModel> {
        self.be_truth.as_ref()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The underlying simulated server (for inspection in tests/benches).
    pub fn server(&self) -> &SimServer {
        &self.server
    }

    /// The effective power cap right now (provisioned × brownout factor).
    pub fn effective_cap(&self) -> Watts {
        self.server.power_cap() * self.cap_factor
    }

    /// True while any fault is active on this server (brownout window,
    /// crash downtime, or frozen telemetry).
    pub fn fault_active(&self) -> bool {
        self.cap_factor < 1.0 || self.down || self.obs_load.is_frozen(self.clock_s)
    }

    /// Applies one fault action at absolute time `now_s`.
    pub fn apply_fault(&mut self, action: &ServerFaultAction, now_s: f64) {
        self.clock_s = self.clock_s.max(now_s);
        match action {
            ServerFaultAction::SetCapFactor(factor) => {
                let lifted = *factor >= 1.0 && self.cap_factor < 1.0;
                if lifted {
                    // Brownout lifted: recovery clock starts, the power
                    // governor disarms.
                    self.recovery_pending_since = Some(now_s);
                    self.controller.on_brownout_lift();
                }
                self.cap_factor = factor.clamp(0.05, 1.0);
                // The degraded-mode response is event-driven: the moment
                // the brownout lifts it replans at the restored cap
                // instead of serving shrunken allocations until the next
                // periodic epoch. The naive path keeps polling.
                if lifted && self.resilient {
                    self.on_manager_tick(now_s);
                }
            }
            ServerFaultAction::Crash => {
                self.down = true;
                self.park_be();
                self.server.evict(TenantRole::Primary);
                self.server.evict(TenantRole::Secondary);
                self.freq_ceiling = None;
                self.last_slack = None;
                self.recovery_pending_since = None;
            }
            ServerFaultAction::Recover => {
                self.down = false;
                self.recovery_pending_since = Some(now_s);
                // A resilient controller schedules a backed-off
                // re-admission and holds; the naive one orders an
                // immediate restart.
                let intent = self.controller.on_recover(now_s, self.parked_be.is_some());
                self.readmit_be(intent);
            }
            ServerFaultAction::FreezeTelemetry { until_s } => {
                self.obs_load.freeze_until(*until_s);
                self.obs_slack.freeze_until(*until_s);
            }
            ServerFaultAction::Thaw => {
                self.obs_load.thaw();
                self.obs_slack.thaw();
                self.recovery_pending_since = Some(now_s);
            }
            ServerFaultAction::DriftModel { rel, salt } => {
                self.drift_model(*rel, *salt);
            }
            ServerFaultAction::ReplaceBe {
                be_truth,
                be_fitted,
                pause_s,
            } => {
                let (truth, fitted) = (be_truth.as_deref().cloned(), be_fitted.as_deref().cloned());
                match (&mut self.parked_be, truth) {
                    // Re-admission brings back whatever is parked, so an
                    // app migrated in meanwhile takes the parked one's
                    // place there (the old app now runs elsewhere): it
                    // inherits the backoff and pays its pause on arrival.
                    (Some(parked), Some(truth)) => *parked = (truth, fitted, pause_s.max(0.0)),
                    (Some(_), None) => self.parked_be = None,
                    (None, truth) => self.replace_be(truth, fitted, *pause_s),
                }
            }
        }
    }

    /// Parks the co-runner (crash or eviction) until it is re-admitted.
    fn park_be(&mut self) {
        if let Some(be) = self.be_truth.take() {
            self.parked_be = Some((be, self.be_fitted.take(), 0.0));
            self.metrics.record_eviction();
        }
    }

    /// Brings the parked co-runner back if the controller says so.
    fn readmit_be(&mut self, intent: BeIntent) {
        if let BeIntent::Readmit { pause_s } = intent {
            if let Some((truth, fitted, owed_s)) = self.parked_be.take() {
                self.replace_be(Some(truth), fitted, pause_s.max(owed_s));
            }
        }
    }

    /// Perturbs the manager's fitted performance α's by up to `rel`
    /// relatively — the workload drifted under the model. Deterministic in
    /// `(salt, server seed)`.
    fn drift_model(&mut self, rel: f64, salt: u64) {
        let utility = self.controller.manager().utility();
        let perf = utility.performance_model();
        let mut rng = StdRng::seed_from_u64(salt ^ self.seed.rotate_left(17));
        let alphas: Vec<f64> = perf
            .alphas()
            .iter()
            .map(|&a| {
                let jitter = rng.gen_range(-1.0f64..1.0);
                (a * (1.0 + rel * jitter)).max(1e-3)
            })
            .collect();
        let space = utility.space().clone();
        let power = utility.power_model().clone();
        if let Ok(drifted) = CobbDouglas::new(perf.alpha0(), alphas) {
            if let Ok(new_utility) = IndirectUtility::new(space, drifted, power) {
                self.controller.manager_mut().replace_utility(new_utility);
            }
        }
    }

    /// The manager tick (1 s in the paper): build the [`ControlInput`]
    /// snapshot, let the controller decide, actuate the decision. All
    /// mode arbitration (brownout governor, distress escalation,
    /// frozen-telemetry fallback) lives behind
    /// [`ServerController::decide`]; this backend only observes and
    /// actuates.
    pub fn on_manager_tick(&mut self, now_s: f64) {
        self.clock_s = now_s;
        if self.down {
            return;
        }
        let true_load = self.trace.load_at(now_s) * self.lc_truth.peak_load_rps();
        self.current_load_rps = true_load;
        self.obs_load.push(now_s, true_load);
        let stale = self.obs_load.is_frozen(now_s);
        let observed_load = self.obs_load.last().map(|(_, v)| v).unwrap_or(true_load);
        let observed_slack = if stale {
            self.obs_slack.last().map(|(_, v)| v)
        } else {
            self.last_slack
        };
        let machine = self.lc_truth.machine();
        let input = ControlInput {
            now_s,
            observed_load_rps: observed_load,
            observed_slack,
            measured_power: self.last_measured,
            effective_cap: self.effective_cap(),
            brownout: self.cap_factor < 1.0,
            rapl_throttled: self.rapl_ceiling < machine.freq_max(),
            telemetry_frozen: stale,
            be_present: self.be_truth.is_some(),
            be_draw_estimate: self.be_draw_estimate(),
            max_counts: (machine.cores(), machine.llc_ways()),
        };
        let decision = self.controller.decide(&input);
        // Managers are resilient: a failed apply leaves the previous
        // allocation in place rather than killing the simulation.
        if let PrimaryDirective::Resize { cores, ways } = decision.primary {
            let _ = self
                .controller
                .manager_mut()
                .apply(&mut self.server, cores, ways);
        }
        if let Some(log) = &mut self.decision_log {
            log.push(decision.record);
        }
        self.enforce_rapl_ceiling();
        self.plan_secondary_frequency();
        // A parked co-runner returns once its backoff expired with the
        // server calm and healthy.
        let intent = self.controller.readmit_tick(now_s, self.fault_active());
        self.readmit_be(intent);
    }

    /// Clamps the primary under the RAPL emergency ceiling (the manager
    /// reinstalls it at `f_max` every epoch).
    fn enforce_rapl_ceiling(&mut self) {
        if !self.fault_physics {
            return;
        }
        if let Some(primary) = self.server.allocation(TenantRole::Primary).copied() {
            if primary.frequency > self.rapl_ceiling {
                let _ = self
                    .server
                    .set_frequency(TenantRole::Primary, self.rapl_ceiling);
            }
        }
    }

    /// Model-guided secondary planning (see [`ServerSim::with_proactive_be`]).
    fn plan_secondary_frequency(&mut self) {
        self.freq_ceiling = None;
        let Some(sec) = self.server.allocation(TenantRole::Secondary).copied() else {
            return;
        };
        // A parked (evicted / crashed-out) co-runner leaves its slot
        // allocated but idle; any frequency beyond the floor is pure
        // waste heat charged against the cap. Checked before the fitted
        // model, which eviction parks along with the app.
        if self.be_truth.is_none() && self.parked_be.is_some() {
            let floor = self.lc_truth.machine().freq_min();
            if sec.frequency > floor {
                let _ = self.server.set_frequency(TenantRole::Secondary, floor);
            }
            self.freq_ceiling = Some(floor);
            return;
        }
        let Some(be_fit) = &self.be_fitted else {
            return;
        };
        let Some((c, w)) = self.controller.manager().last_counts() else {
            return;
        };
        // LC priority under an active brownout: while the primary is
        // violating its SLO, the co-runner gets nothing beyond the floor.
        // Freed watts must reach the primary — otherwise a shrinking
        // primary lowers its own predicted draw, the planner hands the
        // difference to the BE, and total draw never falls.
        if self.resilient && self.cap_factor < 1.0 && self.last_slack.is_some_and(|s| s < 0.0) {
            let floor = self.lc_truth.machine().freq_min();
            if sec.frequency > floor {
                let _ = self.server.set_frequency(TenantRole::Secondary, floor);
            }
            self.freq_ceiling = Some(floor);
            return;
        }
        let lc_pred = self
            .controller
            .manager()
            .utility()
            .power_model()
            .power_of_amounts(&[c as f64, w as f64])
            .unwrap_or(Watts::ZERO);
        // The resilient manager propagates the browned-out cap into the
        // plan; the naive one keeps planning against the provisioned cap
        // it was told at provisioning time.
        let cap = if self.resilient {
            self.effective_cap()
        } else {
            self.server.power_cap()
        };
        // Plan against a small guard band under the cap — the "reduces the
        // need to throttle by design" behaviour of §V-D.
        let headroom = (cap - lc_pred) * 0.88;
        let amounts = [sec.cores.count() as f64, sec.ways.count() as f64];
        let p_static = be_fit.power_model().p_static();
        let dynamic_at_fmax = match be_fit.power_model().power_of_amounts(&amounts) {
            Ok(p) => p - p_static,
            Err(_) => return,
        };
        // DVFS physics: dynamic power scales ~(f/f_max)^2.4.
        let machine = self.lc_truth.machine();
        let fmax = machine.freq_max();
        let mut planned = machine.freq_min();
        let mut f = fmax.0;
        while f >= machine.freq_min().0 - 1e-9 {
            let frac = (f / fmax.0).powf(2.4);
            if p_static + dynamic_at_fmax * frac <= headroom {
                planned = Frequency(f);
                break;
            }
            f -= 0.1;
        }
        // The plan is a *ceiling*: lower the secondary if it is above, but
        // never yank it up past what the reactive capper has settled on —
        // the capper's recovery path raises it as headroom allows.
        if sec.frequency > planned {
            let _ = self.server.set_frequency(TenantRole::Secondary, planned);
        }
        self.freq_ceiling = Some(planned);
    }

    /// The co-runner's draw as the management plane can estimate it: the
    /// fitted BE power model at the secondary's current allocation and
    /// DVFS point (the same DVFS scaling the proactive planner uses).
    fn be_draw_estimate(&self) -> Watts {
        if self.be_truth.is_none() {
            return Watts::ZERO;
        }
        let (Some(be_fit), Some(sec)) = (
            self.be_fitted.as_ref(),
            self.server.allocation(TenantRole::Secondary),
        ) else {
            return Watts::ZERO;
        };
        let amounts = [sec.cores.count() as f64, sec.ways.count() as f64];
        let Ok(at_fmax) = be_fit.power_model().power_of_amounts(&amounts) else {
            return Watts::ZERO;
        };
        let p_static = be_fit.power_model().p_static();
        let fmax = self.lc_truth.machine().freq_max();
        let frac = (sec.frequency.0 / fmax.0).powf(2.4);
        Watts(p_static.0 + (at_fmax.0 - p_static.0) * frac)
    }

    /// Instantaneous *true* server power from the ground-truth draws.
    pub fn true_power(&self) -> Watts {
        if self.down {
            return Watts::ZERO;
        }
        let lc_draw = self.server.allocation(TenantRole::Primary).map(|alloc| {
            self.lc_truth
                .power_draw(self.current_load_rps, alloc, &self.power_model)
        });
        let be_draw = match (
            self.be_truth.as_ref(),
            self.server.allocation(TenantRole::Secondary),
        ) {
            (Some(be), Some(alloc)) => Some(be.power_draw(alloc, &self.power_model)),
            _ => None,
        };
        let total = self
            .power_model
            .server_power(lc_draw.into_iter().chain(be_draw));
        if self.duty >= 1.0 {
            return total;
        }
        // Forced idle cuts the active draw toward the idle baseline.
        let idle = self.power_model.server_power([]);
        idle + (total - idle) * self.duty
    }

    /// Instantaneous normalized BE throughput (zero while a migration
    /// pause is in effect).
    pub fn be_throughput(&self) -> f64 {
        if self.pause_remaining_s > 0.0 {
            return 0.0;
        }
        match (
            self.be_truth.as_ref(),
            self.server.allocation(TenantRole::Secondary),
        ) {
            (Some(be), Some(alloc)) => be.throughput(alloc) * self.duty,
            _ => 0.0,
        }
    }

    /// Observed p99 latency slack of the primary right now. Forced-idle
    /// duty cycling inflates the effective load: a machine that is asleep
    /// a third of the time must absorb the same arrivals in the rest.
    pub fn lc_slack(&self) -> f64 {
        match self.server.allocation(TenantRole::Primary) {
            Some(alloc) => self
                .lc_truth
                .latency_slack(self.current_load_rps / self.duty, alloc),
            None => 1.0,
        }
    }

    /// The capper tick (100 ms in the paper): sample the meter, throttle or
    /// recover the secondary, and record metrics over `dt` seconds.
    pub fn on_capper_tick(&mut self, dt: f64) {
        self.clock_s += dt;
        self.pause_remaining_s = (self.pause_remaining_s - dt).max(0.0);
        if self.down {
            // Crashed: no draw, no service — the primary's SLO is by
            // definition violated while its replacement warms up elsewhere.
            self.metrics.record(dt, Watts::ZERO, 0.0, -1.0, false, true);
            return;
        }
        let true_power = self.true_power();
        let measured = self.meter.sample(true_power);
        self.last_measured = Some(measured);
        let eff_cap = self.effective_cap();
        let action = PowerCapper
            .step_with_cap(&mut self.server, measured, eff_cap)
            .unwrap_or(CapAction::None);
        // Under proactive planning the capper may not raise the secondary
        // past the planned frequency ceiling.
        if let (Some(ceiling), Some(sec)) = (
            self.freq_ceiling,
            self.server.allocation(TenantRole::Secondary).copied(),
        ) {
            if sec.frequency > ceiling {
                let _ = self.server.set_frequency(TenantRole::Secondary, ceiling);
            }
        }
        let over_cap_saturated = matches!(action, CapAction::Saturated) && measured > eff_cap;
        let slack = self.lc_slack();
        self.step_rapl(over_cap_saturated, measured, eff_cap);
        self.step_eviction(over_cap_saturated, slack);
        let throttled = matches!(
            action,
            CapAction::LoweredFrequency | CapAction::LoweredQuota | CapAction::Saturated
        );
        self.last_slack = Some(slack);
        self.obs_slack.push(self.clock_s, slack);
        let fault_active = self.fault_active();
        // Metrics record the *pre-action* power: that is what the server
        // actually drew over the elapsed interval (including any overshoot
        // the capper is only now correcting).
        self.metrics.record(
            dt,
            true_power,
            self.be_throughput(),
            slack,
            throttled,
            fault_active,
        );
        if let Some(since) = self.recovery_pending_since {
            let healthy = !fault_active && slack >= 0.0 && true_power <= eff_cap * 1.01;
            if healthy {
                self.metrics
                    .record_recovery((self.clock_s - since).max(0.0));
                self.recovery_pending_since = None;
            }
        }
    }

    /// RAPL-style emergency DVFS on the primary: with the secondary
    /// already floored and the server still over its effective cap, the
    /// hardware has no knob left but the primary's frequency. Recovers
    /// step-wise once draw falls under the release band.
    fn step_rapl(&mut self, over_cap_saturated: bool, measured: Watts, eff_cap: Watts) {
        if !self.fault_physics {
            return;
        }
        let machine = self.lc_truth.machine();
        if over_cap_saturated {
            if self.rapl_ceiling.0 <= machine.freq_min().0 + 1e-9 {
                // Frequency already floored and the server still overdraws:
                // the package force-idles (duty cycling) to honor its power
                // limit. A cap is a guarantee, not a suggestion — and this
                // last resort is what wrecks tail latency.
                self.duty = (self.duty - 0.1).max(0.25);
            }
            let lowered = Frequency((self.rapl_ceiling.0 - 0.1).max(machine.freq_min().0));
            self.rapl_ceiling = lowered;
            self.enforce_rapl_ceiling();
        } else if measured < eff_cap * RELEASE {
            self.duty = (self.duty + 0.1).min(1.0);
            if self.rapl_ceiling < machine.freq_max() {
                self.rapl_ceiling =
                    Frequency((self.rapl_ceiling.0 + 0.1).min(machine.freq_max().0));
                // The primary itself is only raised at the next manager
                // epoch (the manager reinstalls it at f_max and the
                // ceiling clamps).
            }
        }
    }

    /// Degraded-mode load shedding: a co-runner that keeps the capper
    /// saturated *over the effective cap* — or keeps the primary in
    /// sustained SLO violation while a fault is active — past its patience
    /// is evicted and parked under exponential re-admission backoff.
    /// Shedding the BE hands its whole power share back to the primary.
    fn step_eviction(&mut self, over_cap_saturated: bool, slack: f64) {
        // Under a brownout every watt is spoken for: a primary in
        // sustained violation reclaims even the floored co-runner's
        // static draw. (Outside a brownout, only capper saturation over
        // the cap counts — evicting would free watts nobody needs.)
        let distressed =
            over_cap_saturated || (self.cap_factor < 1.0 && slack < 0.0 && self.be_truth.is_some());
        let intent =
            self.controller
                .distress_tick(distressed, self.be_truth.is_some(), self.clock_s);
        if intent != BeIntent::Evict {
            return;
        }
        self.park_be();
        self.server.evict(TenantRole::Secondary);
        self.freq_ceiling = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::fit::{fit_indirect_utility, FitOptions};
    use pocolo_manager::LcPolicy;
    use pocolo_simserver::MachineSpec;
    use pocolo_workloads::profiler::{profile_lc, ProfilerConfig};
    use pocolo_workloads::{BeApp, LcApp};

    fn make_sim(lc: LcApp, be: Option<BeApp>, policy: LcPolicy, trace: LoadTrace) -> ServerSim {
        let machine = MachineSpec::xeon_e5_2650();
        let truth = LcModel::for_app(lc, machine.clone());
        let power = PowerDrawModel::new(machine.clone());
        let space = machine.resource_space();
        let samples = profile_lc(&truth, &power, &space, &ProfilerConfig::default());
        let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default())
            .unwrap()
            .utility;
        let cap = truth.provisioned_power();
        let be_truth = be.map(|b| BeModel::for_app(b, machine.clone()));
        ServerSim::new(truth, fitted, be_truth, policy, trace, cap, 0.01, 42)
    }

    fn run(sim: &mut ServerSim, seconds: usize) {
        run_from(sim, 0, seconds);
    }

    fn run_from(sim: &mut ServerSim, start_s: usize, seconds: usize) {
        for s in start_s..start_s + seconds {
            sim.on_manager_tick(s as f64);
            for _ in 0..10 {
                sim.on_capper_tick(0.1);
            }
        }
    }

    #[test]
    fn steady_load_keeps_slo_and_cap() {
        let mut sim = make_sim(
            LcApp::Xapian,
            Some(BeApp::Graph),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.5),
        );
        run(&mut sim, 30);
        let m = sim.metrics();
        assert!(
            m.lc_violation_frac < 0.2,
            "SLO violations {} should be transient",
            m.lc_violation_frac
        );
        // After settling, power stays at/below cap (small overshoot spikes
        // between capper reactions are expected).
        assert!(
            sim.true_power() <= m.power_cap * 1.02,
            "settled power {} vs cap {}",
            sim.true_power(),
            m.power_cap
        );
        assert!(m.be_throughput_avg > 0.05, "BE should make progress");
        assert_eq!(m.evictions, 0);
        assert_eq!(m.time_to_recover_s, 0.0);
    }

    #[test]
    fn load_sweep_varies_be_throughput() {
        let mut sim = make_sim(
            LcApp::Xapian,
            Some(BeApp::Rnn),
            LcPolicy::PowerOptimized,
            LoadTrace::paper_sweep(10.0),
        );
        // First level (10 % load).
        run(&mut sim, 10);
        let low_load_thpt = sim.be_throughput();
        // Run into the high-load levels.
        run_from(&mut sim, 10, 70);
        let high_load_thpt = sim.be_throughput();
        assert!(
            low_load_thpt > high_load_thpt,
            "BE throughput at 10% LC load ({low_load_thpt}) should exceed at 80% ({high_load_thpt})"
        );
    }

    #[test]
    fn solo_primary_has_zero_be_throughput() {
        let mut sim = make_sim(
            LcApp::Sphinx,
            None,
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.3),
        );
        run(&mut sim, 10);
        assert_eq!(sim.metrics().be_throughput_avg, 0.0);
        assert!(sim.true_power() > Watts(50.0));
    }

    #[test]
    fn capper_reacts_to_overdraw() {
        let mut sim = make_sim(
            LcApp::ImgDnn, // tightest cap: 133 W
            Some(BeApp::Pbzip),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.3),
        );
        run(&mut sim, 20);
        let m = sim.metrics();
        assert!(
            m.capping_frac > 0.0,
            "a power-hungry BE app beside img-dnn must get throttled"
        );
        // The secondary should have been slowed down.
        let sec = sim.server().allocation(TenantRole::Secondary).unwrap();
        assert!(sec.frequency < sim.lc_truth().machine().freq_max());
    }

    #[test]
    fn power_never_exceeds_cap_after_settling() {
        let mut sim = make_sim(
            LcApp::TpcC,
            Some(BeApp::Graph),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.4),
        );
        run(&mut sim, 20);
        // Post-settling, sampled power obeys the cap within meter noise.
        for _ in 0..50 {
            sim.on_capper_tick(0.1);
            assert!(
                sim.true_power() <= sim.metrics().power_cap * 1.03,
                "{} exceeds cap {}",
                sim.true_power(),
                sim.metrics().power_cap
            );
        }
    }

    #[test]
    fn brownout_shrinks_the_effective_cap() {
        let mut sim = make_sim(
            LcApp::Xapian,
            Some(BeApp::Graph),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.5),
        )
        .with_fault_physics();
        run(&mut sim, 5);
        let provisioned = sim.server().power_cap();
        sim.apply_fault(&ServerFaultAction::SetCapFactor(0.6), 5.0);
        assert!(sim.fault_active());
        assert!((sim.effective_cap().0 - provisioned.0 * 0.6).abs() < 1e-9);
        run_from(&mut sim, 5, 15);
        // Sustained draw must have been squeezed toward the shrunk cap.
        assert!(
            sim.true_power() <= provisioned * 0.8,
            "brownout left draw at {}",
            sim.true_power()
        );
        sim.apply_fault(&ServerFaultAction::SetCapFactor(1.0), 20.0);
        assert!(!sim.fault_active());
    }

    #[test]
    fn crash_kills_power_and_violates_slo_until_recovery() {
        let mut sim = make_sim(
            LcApp::Sphinx,
            Some(BeApp::Graph),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.4),
        )
        .with_fault_physics();
        run(&mut sim, 5);
        sim.apply_fault(&ServerFaultAction::Crash, 5.0);
        assert!(sim.down);
        assert_eq!(sim.true_power(), Watts::ZERO);
        assert_eq!(sim.metrics().evictions, 1);
        let fault_time_before = sim.metrics().fault_time_s();
        run_from(&mut sim, 5, 3);
        assert!(sim.metrics().fault_time_s() > fault_time_before + 2.9);
        sim.apply_fault(&ServerFaultAction::Recover, 8.0);
        assert!(!sim.down);
        run_from(&mut sim, 8, 6);
        // Naive path restores the co-runner immediately on recovery.
        assert!(sim.be_truth().is_some());
        assert!(sim.true_power() > Watts(40.0));
        assert!(sim.metrics().time_to_recover_s > 0.0);
    }

    #[test]
    fn frozen_telemetry_is_consumed_by_the_naive_manager() {
        let mut sim = make_sim(
            LcApp::Xapian,
            Some(BeApp::Graph),
            LcPolicy::PowerOptimized,
            // Load jumps after the freeze starts.
            LoadTrace::Steps(vec![(10.0, 0.2), (990.0, 0.9)]),
        )
        .with_fault_physics();
        run(&mut sim, 9);
        sim.apply_fault(&ServerFaultAction::FreezeTelemetry { until_s: 25.0 }, 9.0);
        assert!(sim.fault_active());
        run_from(&mut sim, 9, 10);
        // The manager kept sizing for the frozen 20 % reading while true
        // load ran at 90 % — slack must have collapsed.
        assert!(
            sim.metrics().slo_violation_frac_during_fault > 0.2,
            "stale telemetry should hurt, got {}",
            sim.metrics().slo_violation_frac_during_fault
        );
        sim.apply_fault(&ServerFaultAction::Thaw, 19.0);
        assert!(!sim.fault_active());
    }

    #[test]
    fn resilient_manager_grows_through_a_dropout() {
        let make = || {
            make_sim(
                LcApp::Xapian,
                Some(BeApp::Graph),
                LcPolicy::PowerOptimized,
                LoadTrace::Steps(vec![(10.0, 0.2), (990.0, 0.9)]),
            )
        };
        let mut naive = make().with_fault_physics();
        let mut resilient = make().with_resilience(0);
        for sim in [&mut naive, &mut resilient] {
            run(sim, 9);
            sim.apply_fault(&ServerFaultAction::FreezeTelemetry { until_s: 25.0 }, 9.0);
            run_from(sim, 9, 10);
        }
        assert!(
            resilient.metrics().slo_violation_frac_during_fault
                < naive.metrics().slo_violation_frac_during_fault,
            "degraded mode {} should beat stale analytic control {}",
            resilient.metrics().slo_violation_frac_during_fault,
            naive.metrics().slo_violation_frac_during_fault
        );
    }

    /// The builder order must not matter. Through PR 24,
    /// `with_incremental_control` after `with_resilience` swapped in a
    /// fresh, unarmed controller: the server still claimed resilience but
    /// never evicted, backed off, or distrusted frozen slack again.
    #[test]
    fn incremental_control_and_resilience_commute() {
        let make = || {
            make_sim(
                LcApp::Sphinx,
                Some(BeApp::Graph),
                LcPolicy::PowerOptimized,
                LoadTrace::Constant(0.4),
            )
            .with_decision_log()
        };
        let mut sims = [
            make().with_incremental_control().with_resilience(0),
            make().with_resilience(0).with_incremental_control(),
        ];
        for sim in &mut sims {
            run(sim, 5);
            sim.apply_fault(&ServerFaultAction::Crash, 5.0);
            run_from(sim, 5, 3);
            sim.apply_fault(&ServerFaultAction::Recover, 8.0);
            run_from(sim, 8, 2);
            sim.apply_fault(&ServerFaultAction::FreezeTelemetry { until_s: 30.0 }, 10.0);
            run_from(sim, 10, 8);
            sim.apply_fault(&ServerFaultAction::Thaw, 18.0);
            run_from(sim, 18, 10);
        }
        let [a, b] = &sims;
        let degraded = |s: &ServerSim| {
            s.decision_records()
                .iter()
                .any(|r| r.mode == pocolo_manager::ControlMode::Degraded)
        };
        assert!(degraded(a), "an armed controller distrusts frozen slack");
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.decision_records(), b.decision_records());
    }

    #[test]
    fn model_drift_perturbs_the_fitted_alphas_deterministically() {
        let mut sim = make_sim(
            LcApp::TpcC,
            Some(BeApp::Graph),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.4),
        );
        let before = sim
            .controller
            .manager()
            .utility()
            .performance_model()
            .alphas()
            .to_vec();
        sim.apply_fault(&ServerFaultAction::DriftModel { rel: 0.3, salt: 7 }, 1.0);
        let after = sim
            .controller
            .manager()
            .utility()
            .performance_model()
            .alphas()
            .to_vec();
        assert_ne!(before, after);
        for (b, a) in before.iter().zip(&after) {
            assert!(
                (a / b - 1.0).abs() <= 0.3 + 1e-9,
                "drift {b} -> {a} too big"
            );
        }
        // Same salt + seed on a fresh sim drifts identically.
        let mut sim2 = make_sim(
            LcApp::TpcC,
            Some(BeApp::Graph),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.4),
        );
        sim2.apply_fault(&ServerFaultAction::DriftModel { rel: 0.3, salt: 7 }, 1.0);
        assert_eq!(
            after,
            sim2.controller
                .manager()
                .utility()
                .performance_model()
                .alphas()
                .to_vec()
        );
    }

    #[test]
    fn sustained_saturation_evicts_the_co_runner_with_backoff() {
        // img-dnn + pbzip under a deep brownout: the floored secondary
        // still draws too much, so resilience must shed it.
        let mut sim = make_sim(
            LcApp::ImgDnn,
            Some(BeApp::Pbzip),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.5),
        )
        .with_resilience(0);
        run(&mut sim, 5);
        sim.apply_fault(&ServerFaultAction::SetCapFactor(0.5), 5.0);
        run_from(&mut sim, 5, 10);
        assert!(
            sim.metrics().evictions >= 1,
            "deep brownout should evict the BE app"
        );
        assert!(sim.be_truth().is_none(), "co-runner is parked");
        assert_eq!(sim.be_throughput(), 0.0);
        // Brownout ends; after the backoff the co-runner returns.
        sim.apply_fault(&ServerFaultAction::SetCapFactor(1.0), 15.0);
        run_from(&mut sim, 15, 70);
        assert!(
            sim.be_truth().is_some(),
            "co-runner should be re-admitted after backoff"
        );
    }

    #[test]
    fn replace_be_fault_action_swaps_the_co_runner() {
        let machine = MachineSpec::xeon_e5_2650();
        let mut sim = make_sim(
            LcApp::Xapian,
            Some(BeApp::Graph),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.3),
        );
        run(&mut sim, 3);
        sim.apply_fault(
            &ServerFaultAction::ReplaceBe {
                be_truth: Some(Box::new(BeModel::for_app(BeApp::Rnn, machine))),
                be_fitted: None,
                pause_s: 2.0,
            },
            3.0,
        );
        assert!(sim.pause_remaining_s() > 0.0);
        assert_eq!(sim.be_throughput(), 0.0);
        run_from(&mut sim, 3, 4);
        assert!(sim.be_throughput() > 0.0, "new co-runner warmed up");
    }

    fn migrate_in(app: BeApp, pause_s: f64) -> ServerFaultAction {
        ServerFaultAction::ReplaceBe {
            be_truth: Some(Box::new(BeModel::for_app(app, MachineSpec::xeon_e5_2650()))),
            be_fitted: None,
            pause_s,
        }
    }

    #[test]
    fn an_app_migrated_onto_a_crashed_server_is_what_recovery_brings_back() {
        for resilient in [false, true] {
            let sim = make_sim(
                LcApp::Sphinx,
                Some(BeApp::Graph),
                LcPolicy::PowerOptimized,
                LoadTrace::Constant(0.4),
            );
            let mut sim = match resilient {
                true => sim.with_resilience(0),
                false => sim.with_fault_physics(),
            };
            run(&mut sim, 5);
            sim.apply_fault(&ServerFaultAction::Crash, 5.0);
            sim.apply_fault(&migrate_in(BeApp::Rnn, 4.0), 6.0);
            assert!(sim.be_truth().is_none(), "nothing runs on a crashed server");
            sim.apply_fault(&ServerFaultAction::Recover, 8.0);
            if !resilient {
                // The naive restart is immediate, but the migrated app
                // still owes the pause it never got to pay.
                assert!(sim.pause_remaining_s() > 3.9);
            }
            // The resilient controller re-admits after its backoff.
            run_from(&mut sim, 8, 70);
            let back = sim.be_truth().map(BeModel::app);
            assert_eq!(back, Some(BeApp::Rnn), "resilient={resilient}");
            assert!(sim.be_throughput() > 0.0);
        }
    }

    #[test]
    fn an_app_migrated_onto_an_evicted_slot_is_what_readmission_brings_back() {
        // Same deep brownout as the eviction test above.
        let mut sim = make_sim(
            LcApp::ImgDnn,
            Some(BeApp::Pbzip),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.5),
        )
        .with_resilience(0);
        run(&mut sim, 5);
        sim.apply_fault(&ServerFaultAction::SetCapFactor(0.5), 5.0);
        run_from(&mut sim, 5, 10);
        assert!(sim.be_truth().is_none(), "co-runner is parked");
        sim.apply_fault(&migrate_in(BeApp::Lstm, 0.0), 15.0);
        assert!(
            sim.be_truth().is_none(),
            "the newcomer waits out the backoff"
        );
        sim.apply_fault(&ServerFaultAction::SetCapFactor(1.0), 15.0);
        run_from(&mut sim, 15, 70);
        assert_eq!(sim.be_truth().map(BeModel::app), Some(BeApp::Lstm));

        // Emptying a parked slot leaves nothing to re-admit.
        let mut sim = make_sim(
            LcApp::Sphinx,
            Some(BeApp::Graph),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.4),
        )
        .with_fault_physics();
        sim.apply_fault(&ServerFaultAction::Crash, 1.0);
        let vacate = ServerFaultAction::ReplaceBe {
            be_truth: None,
            be_fitted: None,
            pause_s: 0.0,
        };
        sim.apply_fault(&vacate, 2.0);
        sim.apply_fault(&ServerFaultAction::Recover, 3.0);
        assert!(sim.be_truth().is_none());
    }
}
