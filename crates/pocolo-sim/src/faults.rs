//! Glue between [`pocolo_faults`] plans and the simulator: the cluster
//! plan is *compiled* into per-server action timelines before the run
//! starts, so fault handling stays a pure per-server projection and a run
//! is bit-identical at any worker count.

use pocolo_core::utility::IndirectUtility;
use pocolo_faults::{FaultKind, FaultPlan};
use pocolo_workloads::BeModel;

/// A fault action targeted at one server.
#[derive(Debug, Clone)]
pub enum ServerFaultAction {
    /// Scale the server's effective power cap by this factor (1.0 = the
    /// provisioned cap; a brownout sets it below, recovery back to 1.0).
    SetCapFactor(f64),
    /// The server goes dark: the primary migrates away, the BE co-runner
    /// is evicted, power drops to zero.
    Crash,
    /// The server rejoins the cluster.
    Recover,
    /// The management plane's load/p99 telemetry freezes until the given
    /// absolute time.
    FreezeTelemetry {
        /// Absolute end of the dropout, seconds.
        until_s: f64,
    },
    /// Telemetry thaws immediately.
    Thaw,
    /// The manager's fitted performance α's are perturbed by up to `rel`
    /// relatively, seeded by `salt` (mixed with the server index).
    DriftModel {
        /// Maximum relative perturbation.
        rel: f64,
        /// Deterministic RNG salt.
        salt: u64,
    },
    /// The best-effort co-runner is swapped (a budget-shrink replan
    /// migration); the incoming app pays a warm-up pause.
    ReplaceBe {
        /// New co-runner ground truth, or `None` to leave the slot empty.
        be_truth: Option<Box<BeModel>>,
        /// Fitted utility for proactive planning of the new co-runner.
        be_fitted: Option<Box<IndirectUtility>>,
        /// Warm-up pause, seconds.
        pause_s: f64,
    },
}

/// A timestamped action on one server's timeline.
#[derive(Debug, Clone)]
pub struct ServerFaultEvent {
    /// When the action fires, seconds from simulation start.
    pub at_s: f64,
    /// What happens to this server.
    pub action: ServerFaultAction,
}

/// Per-server fault timelines, compiled from a cluster-wide [`FaultPlan`].
#[derive(Debug, Clone, Default)]
pub struct FaultTimeline {
    per_server: Vec<Vec<ServerFaultEvent>>,
}

impl FaultTimeline {
    /// An empty timeline for `n_servers` servers.
    pub fn empty(n_servers: usize) -> Self {
        FaultTimeline {
            per_server: vec![Vec::new(); n_servers],
        }
    }

    /// Projects a cluster-wide plan onto per-server action lists.
    /// Cluster-wide events (brownouts, cluster telemetry dropouts,
    /// cluster drift) fan out to every server; targeted events land on
    /// their server only. Events out of `0..n_servers` range are dropped.
    ///
    /// Each brownout cap factor is pushed through
    /// `factor_of(server, requested)` before landing on a server's
    /// timeline — the hook heterogeneous fleets use to model per-SKU
    /// power physics (a DVFS-stepped class holds the largest P-state at
    /// or below the request, an accelerator-like class snaps to its
    /// power-plane steps); `|_, f| f` is the homogeneous,
    /// continuous-power fleet. The mapping must return a factor in
    /// `(0, requested]` and must be the identity at `1.0` so brownout
    /// lifts restore every class fully; `pocolo_core::fleet::PowerCurve`
    /// guarantees both.
    pub fn compile_with_curves(
        plan: &FaultPlan,
        n_servers: usize,
        factor_of: impl Fn(usize, f64) -> f64,
    ) -> Self {
        let mut timeline = FaultTimeline::empty(n_servers);
        for event in plan.events() {
            match &event.kind {
                FaultKind::BrownoutStart { cap_factor } => {
                    timeline.push_all(event.at_s, |s| {
                        ServerFaultAction::SetCapFactor(factor_of(s, *cap_factor))
                    });
                }
                FaultKind::BrownoutEnd => {
                    timeline.push_all(event.at_s, |s| {
                        ServerFaultAction::SetCapFactor(factor_of(s, 1.0))
                    });
                }
                FaultKind::ServerCrash { server } => {
                    timeline.push(*server, event.at_s, ServerFaultAction::Crash);
                }
                FaultKind::ServerRecover { server } => {
                    timeline.push(*server, event.at_s, ServerFaultAction::Recover);
                }
                FaultKind::TelemetryFreezeStart { server, until_s } => {
                    let until_s = *until_s;
                    match server {
                        Some(s) => timeline.push(
                            *s,
                            event.at_s,
                            ServerFaultAction::FreezeTelemetry { until_s },
                        ),
                        None => timeline.push_all(event.at_s, |_| {
                            ServerFaultAction::FreezeTelemetry { until_s }
                        }),
                    }
                }
                FaultKind::TelemetryFreezeEnd { server } => match server {
                    Some(s) => timeline.push(*s, event.at_s, ServerFaultAction::Thaw),
                    None => timeline.push_all(event.at_s, |_| ServerFaultAction::Thaw),
                },
                FaultKind::ModelDrift { server, rel, salt } => {
                    let (rel, salt) = (*rel, *salt);
                    match server {
                        Some(s) => timeline.push(
                            *s,
                            event.at_s,
                            ServerFaultAction::DriftModel { rel, salt },
                        ),
                        None => timeline
                            .push_all(event.at_s, |_| ServerFaultAction::DriftModel { rel, salt }),
                    }
                }
            }
        }
        timeline
    }

    /// Inserts an action into one server's timeline, after every action
    /// at or before `at_s`: the list stays in time order, coincident
    /// actions in insertion order (a stable sort's order).
    pub fn push(&mut self, server: usize, at_s: f64, action: ServerFaultAction) {
        if let Some(events) = self.per_server.get_mut(server) {
            let at = events.partition_point(|e| e.at_s.total_cmp(&at_s).is_le());
            events.insert(at, ServerFaultEvent { at_s, action });
        }
    }

    fn push_all(&mut self, at_s: f64, mut make: impl FnMut(usize) -> ServerFaultAction) {
        for server in 0..self.per_server.len() {
            self.push(server, at_s, make(server));
        }
    }

    /// The action list for one server, in time order.
    pub fn server_events(&self, server: usize) -> &[ServerFaultEvent] {
        self.per_server
            .get(server)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of servers the timeline covers.
    pub fn n_servers(&self) -> usize {
        self.per_server.len()
    }

    /// True if no server has any scheduled action.
    pub fn is_empty(&self) -> bool {
        self.per_server.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brownout_fans_out_to_every_server() {
        let plan = FaultPlan::new(1).with_brownout(10.0, 5.0, 0.6);
        let t = FaultTimeline::compile_with_curves(&plan, 3, |_, f| f);
        assert_eq!(t.n_servers(), 3);
        for s in 0..3 {
            let events = t.server_events(s);
            assert_eq!(events.len(), 2);
            assert!(
                matches!(events[0].action, ServerFaultAction::SetCapFactor(f) if (f - 0.6).abs() < 1e-12)
            );
            assert!(
                matches!(events[1].action, ServerFaultAction::SetCapFactor(f) if (f - 1.0).abs() < 1e-12)
            );
        }
    }

    #[test]
    fn curve_aware_compile_derates_each_server_through_its_own_mapping() {
        let plan = FaultPlan::new(1).with_brownout(10.0, 5.0, 0.6);
        // Server 0 continuous, server 1 snaps down to coarse half-steps —
        // the stand-in for a stepped power-plane SKU.
        let t = FaultTimeline::compile_with_curves(&plan, 2, |s, f| {
            if s == 0 {
                f
            } else {
                (f * 2.0).floor() / 2.0
            }
        });
        let f0 = match t.server_events(0)[0].action {
            ServerFaultAction::SetCapFactor(f) => f,
            _ => panic!("expected cap factor"),
        };
        let f1 = match t.server_events(1)[0].action {
            ServerFaultAction::SetCapFactor(f) => f,
            _ => panic!("expected cap factor"),
        };
        assert_eq!(f0, 0.6);
        assert_eq!(f1, 0.5, "stepped server holds the state below the request");
        // Brownout end restores both fully (mapping is identity at 1.0).
        assert!(
            matches!(t.server_events(1)[1].action, ServerFaultAction::SetCapFactor(f) if f == 1.0)
        );
    }

    #[test]
    fn crash_targets_one_server() {
        let plan = FaultPlan::new(1).with_crash(2, 10.0, 5.0);
        let t = FaultTimeline::compile_with_curves(&plan, 4, |_, f| f);
        assert!(t.server_events(0).is_empty());
        assert!(t.server_events(1).is_empty());
        assert!(t.server_events(3).is_empty());
        let events = t.server_events(2);
        assert!(matches!(events[0].action, ServerFaultAction::Crash));
        assert!(matches!(events[1].action, ServerFaultAction::Recover));
    }

    #[test]
    fn out_of_range_crash_is_dropped() {
        let plan = FaultPlan::new(1).with_crash(9, 10.0, 5.0);
        let t = FaultTimeline::compile_with_curves(&plan, 2, |_, f| f);
        assert!(t.is_empty());
    }

    #[test]
    fn dropout_freeze_carries_absolute_deadline() {
        let plan = FaultPlan::new(1).with_telemetry_dropout(Some(1), 10.0, 7.0);
        let t = FaultTimeline::compile_with_curves(&plan, 2, |_, f| f);
        let events = t.server_events(1);
        assert!(
            matches!(events[0].action, ServerFaultAction::FreezeTelemetry { until_s } if (until_s - 17.0).abs() < 1e-12)
        );
        assert!(matches!(events[1].action, ServerFaultAction::Thaw));
        assert!(t.server_events(0).is_empty());
    }

    #[test]
    fn pushed_events_stay_time_ordered() {
        let mut t = FaultTimeline::empty(1);
        t.push(0, 5.0, ServerFaultAction::Crash);
        t.push(0, 1.0, ServerFaultAction::SetCapFactor(0.5));
        let times: Vec<f64> = t.server_events(0).iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![1.0, 5.0]);
    }

    #[test]
    fn out_of_order_pushes_with_ties_land_where_a_stable_sort_puts_them() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        // A coarse grid, so most times repeat; -0.0 sorts before 0.0.
        let grid = |k| if k == 0 { -0.0 } else { f64::from(k) * 0.5 };
        let mut pushed: Vec<(f64, u64)> =
            (0..300).map(|s| (grid(rng.gen_range(0..12)), s)).collect();
        let mut t = FaultTimeline::empty(1);
        for &(at_s, salt) in &pushed {
            t.push(0, at_s, ServerFaultAction::DriftModel { rel: 0.0, salt });
        }
        pushed.sort_by(|a, b| a.0.total_cmp(&b.0));
        let key = |e: &ServerFaultEvent| match e.action {
            ServerFaultAction::DriftModel { salt, .. } => (e.at_s.to_bits(), salt),
            _ => unreachable!("only drift actions were pushed"),
        };
        let got: Vec<_> = t.server_events(0).iter().map(key).collect();
        let want: Vec<_> = pushed
            .iter()
            .map(|&(at_s, s)| (at_s.to_bits(), s))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_timeline_reports_empty() {
        let t = FaultTimeline::empty(4);
        assert!(t.is_empty());
        assert!(t.server_events(99).is_empty());
    }
}
