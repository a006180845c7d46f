//! The one server loop — a resumable [`Projection`] per server, of which
//! [`run_server_projection`] is the run-to-the-end case — and its one
//! fan-out over a set of servers ([`ClusterSim`]), open or closed loop.

use std::sync::Arc;

use crate::engine::Engine;
use crate::faults::{FaultTimeline, ServerFaultAction, ServerFaultEvent};
use crate::metrics::{ClusterSummary, ServerMetrics};
use crate::parallel::{self, Parallelism};
use crate::server_sim::ServerSim;

/// A set of colocated servers, each advanced through its own event queue.
#[derive(Debug)]
pub struct ClusterSim {
    servers: Vec<ServerSim>,
    manager_period_s: f64,
    capper_period_s: f64,
    faults: Arc<FaultTimeline>,
}

impl ClusterSim {
    /// Builds a cluster simulation over pre-assembled server sims.
    ///
    /// # Panics
    ///
    /// Panics on an empty server list or non-positive periods.
    pub fn new(servers: Vec<ServerSim>, manager_period_s: f64, capper_period_s: f64) -> Self {
        assert!(!servers.is_empty(), "cluster needs at least one server");
        assert!(
            manager_period_s > 0.0 && capper_period_s > 0.0,
            "control periods must be positive"
        );
        ClusterSim {
            servers,
            manager_period_s,
            capper_period_s,
            faults: Arc::default(),
        }
    }

    /// Installs a pre-compiled fault timeline (shared, so a plan played
    /// many times hands every play the same one). Every action is a
    /// static, per-server event, so no server ever observes another.
    #[must_use]
    pub fn with_faults(mut self, faults: impl Into<Arc<FaultTimeline>>) -> Self {
        self.faults = faults.into();
        self
    }

    /// Runs the simulation open loop for `duration_s` simulated seconds:
    /// [`ClusterSim::run_closed_loop`] with no barrier, so one
    /// uninterrupted [`Projection::advance`] per server.
    pub fn run(&mut self, duration_s: f64, parallelism: Parallelism) {
        self.run_closed_loop(duration_s, parallelism, &[], |_, _| Vec::new());
    }

    /// Runs the simulation for `duration_s` simulated seconds under a
    /// cluster controller that acts at each of the `barriers` (seconds
    /// from the start). For every barrier `t` in turn: each server's
    /// [`Projection`] advances to `t`, fanned out across up to
    /// `parallelism` worker threads; `controller(t, servers)` may read
    /// anything of the servers (index-aligned with [`ClusterSim::new`]'s
    /// list; every event before `t` has run on all of them, none at `t`);
    /// each `(slot, action)` it returns is applied with
    /// [`ServerSim::apply_fault`] at `t`, in order, *before* any event at
    /// `t` — the manager tick scheduled at `t` already decides on it.
    /// After the last barrier every server runs on to the end.
    ///
    /// Servers touch only their own state between barriers and the
    /// controller runs on the calling thread, so the result is
    /// bit-identical at any worker count, and a controller that returns
    /// nothing changes no bit of an open-loop run, whatever the barriers.
    ///
    /// # Panics
    ///
    /// Panics if `barriers` is not finite and strictly increasing, or if
    /// the controller names a slot out of range.
    pub fn run_closed_loop(
        &mut self,
        duration_s: f64,
        parallelism: Parallelism,
        barriers: &[f64],
        mut controller: impl FnMut(f64, &[ServerSim]) -> Vec<(usize, ServerFaultAction)>,
    ) {
        assert!(
            barriers.iter().all(|t| t.is_finite()) && barriers.windows(2).all(|w| w[0] < w[1]),
            "barriers must be finite and strictly increasing"
        );
        let faults = &self.faults;
        let mut projections: Vec<Projection> = (0..self.servers.len())
            .map(|idx| {
                Projection::new(
                    faults.server_events(idx),
                    self.manager_period_s,
                    self.capper_period_s,
                    duration_s,
                )
            })
            .collect();
        for &until_s in barriers.iter().chain(&[f64::INFINITY]) {
            let slots = std::mem::take(&mut self.servers)
                .into_iter()
                .zip(projections);
            (self.servers, projections) = parallel::map(
                parallelism,
                slots.collect(),
                |(mut server, mut projection)| {
                    projection.advance(&mut server, until_s, |_, _| true);
                    (server, projection)
                },
            )
            .into_iter()
            .unzip();
            if until_s.is_finite() {
                for (slot, action) in controller(until_s, &self.servers) {
                    self.servers[slot].apply_fault(&action, until_s);
                }
            }
        }
    }

    /// The servers, in the order [`ClusterSim::new`] took them.
    pub fn servers(&self) -> &[ServerSim] {
        &self.servers
    }

    /// Per-server metrics snapshots.
    pub fn metrics(&self) -> Vec<ServerMetrics> {
        self.servers.iter().map(|s| s.metrics().clone()).collect()
    }

    /// Aggregated cluster summary.
    pub fn summary(&self) -> ClusterSummary {
        ClusterSummary::aggregate(&self.metrics()).expect("cluster is non-empty")
    }
}

#[derive(Debug)]
enum Tick {
    Manager,
    Capper,
    Fault(usize),
}

/// One server's run as a value that can stop and resume: its event queue
/// (the 1 s manager tick, the 100 ms capper tick, the pre-compiled fault
/// actions), the periods and the end time. The server is passed to every
/// [`Projection::advance`], so between two steps a caller may read it or
/// apply further actions to it.
///
/// One queue per server is sufficient because servers share no state:
/// cluster-wide faults (brownouts, replan migrations) are compiled into
/// per-server actions before the run starts, and a cluster controller
/// acts only at a barrier every server has stopped at, so no event on
/// one server can be ordered against an event on another.
#[derive(Debug)]
pub struct Projection<'a> {
    engine: Engine<Tick>,
    faults: &'a [ServerFaultEvent],
    manager_period_s: f64,
    capper_period_s: f64,
    duration_s: f64,
}

impl<'a> Projection<'a> {
    /// A run of `duration_s` simulated seconds, not yet started.
    pub fn new(
        faults: &'a [ServerFaultEvent],
        manager_period_s: f64,
        capper_period_s: f64,
        duration_s: f64,
    ) -> Self {
        let mut engine = Engine::new();
        engine.schedule_at_seconds(0.0, Tick::Manager);
        engine.schedule_at_seconds(capper_period_s, Tick::Capper);
        // Fault actions are init-scheduled, so at a coincident timestamp they
        // pop before the dynamically-rescheduled ticks.
        for (i, ev) in faults.iter().enumerate() {
            engine.schedule_at_seconds(ev.at_s, Tick::Fault(i));
        }
        Projection {
            engine,
            faults,
            manager_period_s,
            capper_period_s,
            duration_s,
        }
    }

    /// Runs `server` through every pending event strictly before
    /// `until_s` (rounded to the engine's microsecond grid, like the
    /// event times themselves) and not past the run's end, calling
    /// `on_epoch(now_s, server)` after every manager tick; events at
    /// `until_s` stay queued for the next step. `f64::INFINITY` runs to
    /// the end. Returning `false` from the hook abandons the run: the
    /// step returns at once with whatever state has accumulated.
    pub fn advance(
        &mut self,
        server: &mut ServerSim,
        until_s: f64,
        mut on_epoch: impl FnMut(f64, &mut ServerSim) -> bool,
    ) {
        let until_s = (until_s * 1e6).round() / 1e6;
        while let Some(peek) = self.engine.peek_time_seconds() {
            if peek >= until_s || peek > self.duration_s + 1e-9 {
                break;
            }
            let entry = self.engine.pop().expect("peeked event exists");
            let now = self.engine.now_seconds();
            match entry.event {
                Tick::Manager => {
                    server.on_manager_tick(now);
                    self.engine
                        .schedule_in(self.manager_period_s, Tick::Manager);
                    if !on_epoch(now, server) {
                        return;
                    }
                }
                Tick::Capper => {
                    server.on_capper_tick(self.capper_period_s);
                    self.engine.schedule_in(self.capper_period_s, Tick::Capper);
                }
                Tick::Fault(i) => {
                    server.apply_fault(&self.faults[i].action, now);
                }
            }
        }
    }
}

/// Advances a single server through its whole run — a [`Projection`]
/// started and advanced to the end — with `on_epoch(now_s, server)`
/// invoked after every manager tick. That hook is the natural
/// control-epoch cadence for a remote agent: telemetry goes out (and
/// directives come back) between manager decisions, and because this is
/// the only loop there is, a wire-driven slot replays the in-process
/// engine bit-identically. Returning `false` from the hook abandons the
/// projection (an agent dying mid-run); the engine stops with whatever
/// state has accumulated.
pub fn run_server_projection(
    server: &mut ServerSim,
    faults: &[ServerFaultEvent],
    manager_period_s: f64,
    capper_period_s: f64,
    duration_s: f64,
    on_epoch: impl FnMut(f64, &mut ServerSim) -> bool,
) {
    Projection::new(faults, manager_period_s, capper_period_s, duration_s).advance(
        server,
        f64::INFINITY,
        on_epoch,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::fit::{fit_indirect_utility, FitOptions};
    use pocolo_manager::LcPolicy;
    use pocolo_simserver::power::PowerDrawModel;
    use pocolo_simserver::MachineSpec;
    use pocolo_workloads::profiler::{profile_lc, ProfilerConfig};
    use pocolo_workloads::{BeApp, BeModel, LcApp, LcModel, LoadTrace};

    fn server(lc: LcApp, be: BeApp) -> ServerSim {
        let machine = MachineSpec::xeon_e5_2650();
        let truth = LcModel::for_app(lc, machine.clone());
        let power = PowerDrawModel::new(machine.clone());
        let space = machine.resource_space();
        let samples = profile_lc(&truth, &power, &space, &ProfilerConfig::default());
        let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default())
            .unwrap()
            .utility;
        let cap = truth.provisioned_power();
        ServerSim::new(
            truth,
            fitted,
            Some(BeModel::for_app(be, machine)),
            LcPolicy::PowerOptimized,
            LoadTrace::Constant(0.4),
            cap,
            0.01,
            7,
        )
    }

    #[test]
    fn runs_all_servers_for_the_duration() {
        let mut cluster = ClusterSim::new(
            vec![
                server(LcApp::Xapian, BeApp::Rnn),
                server(LcApp::Sphinx, BeApp::Graph),
            ],
            1.0,
            0.1,
        );
        cluster.run(10.0, Parallelism::Serial);
        for m in cluster.metrics() {
            assert!(
                (m.duration_s - 10.0).abs() < 0.2,
                "covered {}",
                m.duration_s
            );
            assert!(m.samples >= 99);
        }
        let s = cluster.summary();
        assert!(s.avg_be_throughput > 0.0);
        assert!(s.avg_power_utilization > 0.3 && s.avg_power_utilization <= 1.05);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_panics() {
        let _ = ClusterSim::new(vec![], 1.0, 0.1);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let build = || {
            ClusterSim::new(
                vec![
                    server(LcApp::Xapian, BeApp::Rnn),
                    server(LcApp::Sphinx, BeApp::Graph),
                    server(LcApp::TpcC, BeApp::Lstm),
                    server(LcApp::ImgDnn, BeApp::Pbzip),
                ],
                1.0,
                0.1,
            )
        };
        let mut serial = build();
        serial.run(8.0, Parallelism::Serial);
        let mut fanned = build();
        fanned.run(8.0, Parallelism::Fixed(4));
        assert_eq!(serial.metrics(), fanned.metrics());
        let mut auto = build();
        auto.run(8.0, Parallelism::Auto);
        assert_eq!(serial.metrics(), auto.metrics());
    }

    #[test]
    fn faulted_parallel_run_is_bit_identical_to_serial() {
        use pocolo_faults::FaultPlan;
        let plan = FaultPlan::new(3)
            .with_brownout(2.0, 3.0, 0.6)
            .with_crash(1, 3.0, 2.0)
            .with_telemetry_dropout(Some(0), 1.0, 4.0)
            .with_model_drift(None, 4.0, 0.2);
        let build = |resilient: bool| {
            let servers: Vec<ServerSim> = vec![
                server(LcApp::Xapian, BeApp::Rnn),
                server(LcApp::Sphinx, BeApp::Graph),
                server(LcApp::TpcC, BeApp::Lstm),
                server(LcApp::ImgDnn, BeApp::Pbzip),
            ]
            .into_iter()
            .enumerate()
            .map(|(rank, s)| {
                if resilient {
                    s.with_resilience(rank)
                } else {
                    s.with_fault_physics()
                }
            })
            .collect();
            ClusterSim::new(servers, 1.0, 0.1)
                .with_faults(crate::faults::FaultTimeline::compile(&plan, 4))
        };
        for resilient in [false, true] {
            let mut serial = build(resilient);
            serial.run(8.0, Parallelism::Serial);
            let mut fanned = build(resilient);
            fanned.run(8.0, Parallelism::Fixed(4));
            assert_eq!(
                serial.metrics(),
                fanned.metrics(),
                "resilient={resilient} fan-out diverged from serial"
            );
            assert!(
                serial.metrics().iter().any(|m| m.fault_time_s() > 0.0),
                "faults should have been active"
            );
        }
    }

    #[test]
    fn a_barrier_action_lands_before_the_manager_tick_at_the_barrier() {
        let sim = server(LcApp::Xapian, BeApp::Graph)
            .with_fault_physics()
            .with_decision_log();
        let cap = sim.effective_cap().0;
        let mut cluster = ClusterSim::new(vec![sim], 1.0, 0.1);
        cluster.run_closed_loop(6.0, Parallelism::Serial, &[3.0], |t, servers| {
            // Everything before the barrier has run, nothing at it.
            assert_eq!(t, 3.0);
            assert_eq!(servers[0].decision_records().len(), 3);
            assert_eq!(servers[0].metrics().samples, 29);
            vec![(0, ServerFaultAction::SetCapFactor(0.6))]
        });
        let caps: Vec<(f64, f64)> = cluster.servers()[0]
            .decision_records()
            .iter()
            .map(|r| (r.now_s, r.effective_cap_w))
            .collect();
        assert_eq!(caps.len(), 7);
        for (now_s, cap_w) in caps {
            let expected = if now_s < 3.0 { cap } else { cap * 0.6 };
            assert_eq!(cap_w, expected, "manager tick at {now_s}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_barriers_panic() {
        let mut cluster = ClusterSim::new(vec![server(LcApp::TpcC, BeApp::Lstm)], 1.0, 0.1);
        cluster.run_closed_loop(5.0, Parallelism::Serial, &[2.0, 2.0], |_, _| Vec::new());
    }

    #[test]
    fn deterministic_given_same_seeds() {
        let mut a = ClusterSim::new(vec![server(LcApp::TpcC, BeApp::Lstm)], 1.0, 0.1);
        let mut b = ClusterSim::new(vec![server(LcApp::TpcC, BeApp::Lstm)], 1.0, 0.1);
        a.run(5.0, Parallelism::Serial);
        b.run(5.0, Parallelism::Serial);
        assert_eq!(a.metrics(), b.metrics());
    }
}
