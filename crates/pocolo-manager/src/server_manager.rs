//! The per-server control loop (§IV-C).
//!
//! Every control window (1 s in the paper) the manager:
//!
//! 1. reads the primary's current load and observed p99 latency slack,
//! 2. adjusts a multiplicative sizing **margin** by feedback — grow when
//!    slack dips under 10 %, shrink when there is ample headroom (this
//!    absorbs model misfit and load noise),
//! 3. asks its [`LcPolicy`] for the primary's (cores, ways),
//! 4. re-partitions the server: primary first, every spare resource to the
//!    best-effort secondary (whose DVFS/quota state the capper owns and is
//!    preserved across re-partitions).

use pocolo_core::error::CoreError;
use pocolo_core::units::{Frequency, Watts};
use pocolo_core::utility::IndirectUtility;
use pocolo_simserver::{SimError, SimServer, TenantRole};

use crate::partition::partition;
use crate::policy::LcPolicy;

/// Grow the sizing margin when observed slack falls below this — the
/// paper's 10 % latency slack.
const MIN_SLACK: f64 = 0.10;

/// Shrink the margin (and trim the incremental baseline) when observed
/// slack exceeds this: verified ample headroom.
const HIGH_SLACK: f64 = 0.50;

/// Initial sizing margin (target = load × margin): the 10 % slack again.
const INITIAL_MARGIN: f64 = 1.10;

/// Multiplier applied to the margin on low slack: grow fast...
const MARGIN_UP: f64 = 1.12;

/// ...and shrink slowly on ample slack.
const MARGIN_DOWN: f64 = 0.985;

/// Margin floor: never plan for less than 2 % over the observed load.
const MARGIN_MIN: f64 = 1.02;

/// Margin ceiling: feedback never asks for more than 1.8× the load.
const MARGIN_MAX: f64 = 1.8;

/// The per-server manager: fitted model + policy + feedback state.
#[derive(Debug, Clone)]
pub struct ServerManager {
    utility: IndirectUtility,
    policy: LcPolicy,
    margin: f64,
    last_counts: Option<(u32, u32)>,
}

impl ServerManager {
    /// Creates a manager from the primary's *fitted* indirect utility and
    /// an allocation policy.
    pub fn new(utility: IndirectUtility, policy: LcPolicy) -> Self {
        ServerManager {
            utility,
            policy,
            margin: INITIAL_MARGIN,
            last_counts: None,
        }
    }

    /// The fitted model the manager plans with.
    pub fn utility(&self) -> &IndirectUtility {
        &self.utility
    }

    /// Current feedback margin (target = load × margin).
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// The primary counts chosen on the last step.
    pub fn last_counts(&self) -> Option<(u32, u32)> {
        self.last_counts
    }

    /// Updates the feedback margin from `observed_slack` (if any) and
    /// sizes the primary for `load_rps`, without touching a server.
    /// Controllers plan; backends [`ServerManager::apply`].
    ///
    /// Under a power emergency (brownout) the controller passes a watt
    /// `budget`: if the sized allocation's modeled draw exceeds it, the
    /// plan falls back to the Cobb-Douglas *demand at budget* — the best
    /// allocation the shrunk envelope can buy at full frequency. Growing
    /// cores past the budget only trips the RAPL emergency throttle, and
    /// a frequency-floored machine serves less than a budget-sized one.
    ///
    /// The margin update happens *before* the allocation can fail, so a
    /// failed plan still consumes the slack observation.
    ///
    /// # Errors
    ///
    /// Returns the [`CoreError`] of a failed allocation or power
    /// evaluation.
    pub fn plan(
        &mut self,
        load_rps: f64,
        observed_slack: Option<f64>,
        budget: Option<Watts>,
    ) -> Result<(u32, u32), CoreError> {
        self.update_margin(observed_slack);
        let target = load_rps * self.margin;
        let (mut c, mut w) = self.policy.allocate(&self.utility, target)?;
        let Some(budget) = budget else {
            return Ok((c, w));
        };
        let draw = self
            .utility
            .power_model()
            .power_of_amounts(&[c as f64, w as f64])?;
        if draw > budget {
            match self.utility.demand_integral(budget) {
                Ok(alloc) => {
                    c = (alloc.amount(0).round() as u32).max(1);
                    w = (alloc.amount(1).round() as u32).max(1);
                }
                // Budget below even the static floor: minimal footprint.
                Err(_) => {
                    c = 1;
                    w = 1;
                }
            }
        }
        Ok((c, w))
    }

    fn update_margin(&mut self, observed_slack: Option<f64>) {
        if let Some(slack) = observed_slack {
            if slack < MIN_SLACK {
                self.margin *= MARGIN_UP;
            } else if slack > HIGH_SLACK {
                self.margin *= MARGIN_DOWN;
            }
            self.margin = self.margin.clamp(MARGIN_MIN, MARGIN_MAX);
        }
    }

    /// Pure Heracles-style incremental latency feedback, with no analytic
    /// model in the loop: the entirety of the baseline's policy, and the
    /// degraded-mode fallback when telemetry is stale. Grows the primary
    /// by one core and one way on low (or *unknown*) slack and trims one
    /// of each only on verified ample headroom — when blind, protect the
    /// SLO. Infallible: no model is consulted.
    pub fn plan_incremental(
        &self,
        max_counts: (u32, u32),
        observed_slack: Option<f64>,
    ) -> (u32, u32) {
        let (max_c, max_w) = max_counts;
        let (mut c, mut w) = self.last_counts.unwrap_or((max_c, max_w));
        match observed_slack {
            Some(s) if s > HIGH_SLACK => {
                c = c.saturating_sub(1).max(1);
                w = w.saturating_sub(1).max(1);
            }
            Some(s) if s >= MIN_SLACK => {}
            // Low slack — or no reading at all. Grow conservatively.
            _ => {
                c = (c + 1).min(max_c);
                w = (w + 1).min(max_w);
            }
        }
        (c, w)
    }

    /// Replaces the manager's fitted model mid-run (model drift injection
    /// or a re-fit), keeping the feedback state.
    pub fn replace_utility(&mut self, utility: IndirectUtility) {
        self.utility = utility;
    }

    /// Installs a `(c, w)` primary and gives every spare resource to the
    /// secondary, preserving the capper's DVFS/quota state on it. A
    /// secondary with no prior allocation starts at `fresh` (DVFS point,
    /// CPU quota), the backend's planned point for it, and is not created
    /// at all when `fresh` is `None`. This is the actuation half of
    /// [`ServerManager::plan`]: backends call it with the counts a
    /// [`crate::control::ControlDecision`] carries.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of a rejected knob setting; `last_counts`
    /// is only updated on success.
    pub fn apply(
        &mut self,
        server: &mut SimServer,
        c: u32,
        w: u32,
        fresh: Option<(Frequency, f64)>,
    ) -> Result<(u32, u32), SimError> {
        // Preserve the capper's state on the secondary.
        let point = server
            .allocation(TenantRole::Secondary)
            .map(|s| (s.frequency, s.cpu_quota))
            .or(fresh);

        let machine = server.machine();
        let fmax = machine.freq_max();
        let (primary, secondary) = partition(machine, c, w, fmax, fmax);

        // Evict the secondary first so a growing primary never collides.
        server.evict(TenantRole::Secondary);
        server.install(TenantRole::Primary, primary)?;
        if let (Some(mut sec), Some((frequency, quota))) = (secondary, point) {
            sec.frequency = frequency;
            sec.cpu_quota = quota;
            server.install(TenantRole::Secondary, sec)?;
        }
        self.last_counts = Some((c, w));
        Ok((c, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use pocolo_simserver::power::PowerDrawModel;
    use pocolo_simserver::MachineSpec;
    use pocolo_workloads::profiler::{profile_lc, ProfilerConfig};
    use pocolo_workloads::{LcApp, LcModel};

    fn fitted(app: LcApp) -> (LcModel, IndirectUtility) {
        let machine = MachineSpec::xeon_e5_2650();
        let truth = LcModel::for_app(app, machine.clone());
        let power = PowerDrawModel::new(machine.clone());
        let space = machine.resource_space();
        let samples = profile_lc(&truth, &power, &space, &ProfilerConfig::default());
        let fit = pocolo_core::fit::fit_indirect_utility(
            &space,
            &samples,
            &pocolo_core::fit::FitOptions::default(),
        )
        .unwrap();
        (truth, fit.utility)
    }

    /// A fresh secondary's point: full clock, full quota.
    fn unplanned(server: &SimServer) -> Option<(Frequency, f64)> {
        Some((server.machine().freq_max(), 1.0))
    }

    /// One analytic epoch, planned and applied — the path the product runs.
    fn analytic(mgr: &mut ServerManager, server: &mut SimServer, load: f64, slack: Option<f64>) {
        let (c, w) = mgr.plan(load, slack, None).unwrap();
        mgr.apply(server, c, w, unplanned(server)).unwrap();
    }

    /// One incremental epoch, planned and applied.
    fn incremental(mgr: &mut ServerManager, server: &mut SimServer, slack: Option<f64>) {
        let machine = server.machine();
        let (c, w) = mgr.plan_incremental((machine.cores(), machine.llc_ways()), slack);
        mgr.apply(server, c, w, unplanned(server)).unwrap();
    }

    fn run_loop(
        app: LcApp,
        policy: LcPolicy,
        load_frac: f64,
        steps: usize,
    ) -> (LcModel, SimServer, ServerManager) {
        let (truth, utility) = fitted(app);
        let mut server = SimServer::new(truth.machine().clone(), truth.provisioned_power());
        let mut mgr = ServerManager::new(utility, policy);
        let load = load_frac * truth.peak_load_rps();
        let mut slack = None;
        for _ in 0..steps {
            analytic(&mut mgr, &mut server, load, slack);
            let alloc = *server.allocation(TenantRole::Primary).unwrap();
            slack = Some(truth.latency_slack(load, &alloc));
        }
        (truth, server, mgr)
    }

    #[test]
    fn converges_to_slo_with_slack_across_loads_and_apps() {
        for app in [LcApp::Xapian, LcApp::Sphinx, LcApp::ImgDnn, LcApp::TpcC] {
            for load_frac in [0.1, 0.3, 0.5, 0.7, 0.9] {
                let (truth, server, _) = run_loop(app, LcPolicy::PowerOptimized, load_frac, 12);
                let alloc = server.allocation(TenantRole::Primary).unwrap();
                let load = load_frac * truth.peak_load_rps();
                let slack = truth.latency_slack(load, alloc);
                assert!(
                    slack >= 0.0,
                    "{app} at {load_frac}: SLO violated, slack {slack} with {alloc}"
                );
            }
        }
    }

    #[test]
    fn low_load_leaves_spare_resources() {
        let (_, server, _) = run_loop(LcApp::Xapian, LcPolicy::PowerOptimized, 0.1, 12);
        let sec = server.allocation(TenantRole::Secondary).unwrap();
        assert!(
            sec.cores.count() >= 8,
            "10% load should leave most cores spare, got {}",
            sec.cores.count()
        );
    }

    #[test]
    fn high_load_reclaims_resources() {
        let (_, server_low, _) = run_loop(LcApp::Xapian, LcPolicy::PowerOptimized, 0.2, 12);
        let (_, server_high, _) = run_loop(LcApp::Xapian, LcPolicy::PowerOptimized, 0.9, 12);
        let low = server_low.allocation(TenantRole::Primary).unwrap();
        let high = server_high.allocation(TenantRole::Primary).unwrap();
        assert!(high.cores.count() > low.cores.count());
    }

    #[test]
    fn margin_grows_on_low_slack() {
        let (truth, utility) = fitted(LcApp::Sphinx);
        let mut server = SimServer::new(truth.machine().clone(), truth.provisioned_power());
        let mut mgr = ServerManager::new(utility, LcPolicy::PowerOptimized);
        let m0 = mgr.margin();
        analytic(&mut mgr, &mut server, 5.0, Some(0.02));
        assert!(mgr.margin() > m0);
        // And shrinks on ample slack.
        let m1 = mgr.margin();
        analytic(&mut mgr, &mut server, 5.0, Some(0.9));
        assert!(mgr.margin() < m1);
    }

    #[test]
    fn pom_draws_less_power_than_random_heracles() {
        let power = PowerDrawModel::new(MachineSpec::xeon_e5_2650());
        let mut pom_total = 0.0;
        let mut rnd_total = 0.0;
        for load_frac in [0.2, 0.4, 0.6, 0.8] {
            let (truth, server, _) =
                run_loop(LcApp::Sphinx, LcPolicy::PowerOptimized, load_frac, 12);
            let alloc = server.allocation(TenantRole::Primary).unwrap();
            pom_total += truth
                .power_draw(load_frac * truth.peak_load_rps(), alloc, &power)
                .0;
            let (truth, server, _) =
                run_loop(LcApp::Sphinx, LcPolicy::heracles_random(5), load_frac, 12);
            let alloc = server.allocation(TenantRole::Primary).unwrap();
            rnd_total += truth
                .power_draw(load_frac * truth.peak_load_rps(), alloc, &power)
                .0;
        }
        assert!(
            pom_total < rnd_total,
            "POM total {pom_total} should be below random Heracles {rnd_total}"
        );
    }

    #[test]
    fn secondary_capper_state_survives_repartition() {
        let (truth, utility) = fitted(LcApp::Xapian);
        let mut server = SimServer::new(truth.machine().clone(), truth.provisioned_power());
        let mut mgr = ServerManager::new(utility, LcPolicy::PowerOptimized);
        analytic(&mut mgr, &mut server, 0.2 * truth.peak_load_rps(), None);
        // The capper throttles the secondary...
        server
            .set_frequency(TenantRole::Secondary, Frequency(1.5))
            .unwrap();
        server.set_quota(TenantRole::Secondary, 0.6).unwrap();
        // ...and a re-partition keeps that state.
        analytic(
            &mut mgr,
            &mut server,
            0.3 * truth.peak_load_rps(),
            Some(0.4),
        );
        let sec = server.allocation(TenantRole::Secondary).unwrap();
        assert_eq!(sec.frequency, Frequency(1.5));
        assert!((sec.cpu_quota - 0.6).abs() < 1e-9);
    }

    #[test]
    fn a_fresh_secondary_starts_at_the_backends_point_or_waits() {
        let (truth, utility) = fitted(LcApp::Xapian);
        let mut server = SimServer::new(truth.machine().clone(), truth.provisioned_power());
        let mut mgr = ServerManager::new(utility, LcPolicy::PowerOptimized);
        let (c, w) = mgr.plan(0.2 * truth.peak_load_rps(), None, None).unwrap();
        mgr.apply(&mut server, c, w, None).unwrap();
        assert!(server.allocation(TenantRole::Secondary).is_none());
        assert!(server.allocation(TenantRole::Primary).is_some());
        mgr.apply(&mut server, c, w, Some((Frequency(1.4), 0.3)))
            .unwrap();
        let sec = server.allocation(TenantRole::Secondary).unwrap();
        assert_eq!((sec.frequency, sec.cpu_quota), (Frequency(1.4), 0.3));
        // Once installed, the point is the capper's, whatever the backend
        // plans next.
        mgr.apply(&mut server, c, w, Some((Frequency(2.2), 1.0)))
            .unwrap();
        let sec = server.allocation(TenantRole::Secondary).unwrap();
        assert_eq!((sec.frequency, sec.cpu_quota), (Frequency(1.4), 0.3));
    }

    #[test]
    fn incremental_plan_grows_when_blind() {
        // No slack reading at all: the incremental loop must grow the
        // primary toward the full machine, one core/way per epoch.
        let (truth, utility) = fitted(LcApp::Xapian);
        let machine = truth.machine().clone();
        let mut server = SimServer::new(machine.clone(), truth.provisioned_power());
        let mut mgr = ServerManager::new(utility, LcPolicy::PowerOptimized);
        // Start from a small analytic allocation...
        analytic(&mut mgr, &mut server, 0.1 * truth.peak_load_rps(), None);
        let (c0, w0) = mgr.last_counts().unwrap();
        // ...then go blind for enough epochs to reach the full machine.
        for _ in 0..(machine.cores() + machine.llc_ways()) {
            incremental(&mut mgr, &mut server, None);
        }
        let (c, w) = mgr.last_counts().unwrap();
        assert!(c > c0 && w > w0);
        assert_eq!((c, w), (machine.cores(), machine.llc_ways()));
    }

    #[test]
    fn incremental_plan_trims_on_verified_headroom_and_holds_in_band() {
        let (truth, utility) = fitted(LcApp::Sphinx);
        let mut server = SimServer::new(truth.machine().clone(), truth.provisioned_power());
        let mut mgr = ServerManager::new(utility, LcPolicy::PowerOptimized);
        incremental(&mut mgr, &mut server, None); // full machine
        let (c0, w0) = mgr.last_counts().unwrap();
        incremental(&mut mgr, &mut server, Some(0.9)); // ample slack
        let (c1, w1) = mgr.last_counts().unwrap();
        assert_eq!((c1, w1), (c0 - 1, w0 - 1));
        incremental(&mut mgr, &mut server, Some(0.3)); // in band: hold
        assert_eq!(mgr.last_counts().unwrap(), (c1, w1));
        incremental(&mut mgr, &mut server, Some(0.01)); // low: grow
        assert_eq!(mgr.last_counts().unwrap(), (c1 + 1, w1 + 1));
    }

    #[test]
    fn incremental_plan_never_starves_the_primary() {
        let (truth, utility) = fitted(LcApp::TpcC);
        let mut server = SimServer::new(truth.machine().clone(), truth.provisioned_power());
        let mut mgr = ServerManager::new(utility, LcPolicy::PowerOptimized);
        analytic(&mut mgr, &mut server, 0.1 * truth.peak_load_rps(), None);
        for _ in 0..64 {
            incremental(&mut mgr, &mut server, Some(0.99));
        }
        let (c, w) = mgr.last_counts().unwrap();
        assert_eq!((c, w), (1, 1));
        assert!(server.allocation(TenantRole::Primary).is_some());
    }

    #[test]
    fn incremental_plan_preserves_secondary_capper_state() {
        let (truth, utility) = fitted(LcApp::Xapian);
        let mut server = SimServer::new(truth.machine().clone(), truth.provisioned_power());
        let mut mgr = ServerManager::new(utility, LcPolicy::PowerOptimized);
        analytic(&mut mgr, &mut server, 0.2 * truth.peak_load_rps(), None);
        server
            .set_frequency(TenantRole::Secondary, Frequency(1.4))
            .unwrap();
        server.set_quota(TenantRole::Secondary, 0.5).unwrap();
        incremental(&mut mgr, &mut server, None);
        let sec = server.allocation(TenantRole::Secondary).unwrap();
        assert_eq!(sec.frequency, Frequency(1.4));
        assert!((sec.cpu_quota - 0.5).abs() < 1e-9);
    }

    #[test]
    fn replace_utility_swaps_the_model() {
        let (_, utility) = fitted(LcApp::Xapian);
        let (_, other) = fitted(LcApp::Sphinx);
        let mut mgr = ServerManager::new(utility, LcPolicy::PowerOptimized);
        let before = mgr.utility().performance_model().alphas().to_vec();
        mgr.replace_utility(other);
        assert_ne!(mgr.utility().performance_model().alphas(), &before[..]);
    }

    #[test]
    fn last_counts_reported() {
        let (_, _, mgr) = run_loop(LcApp::TpcC, LcPolicy::PowerOptimized, 0.5, 3);
        let (c, w) = mgr.last_counts().unwrap();
        assert!(c >= 1 && w >= 1);
    }
}
