//! The one server loop ([`run_server_projection`]) and its fan-out over
//! a hand-assembled set of servers ([`ClusterSim`]).

use crate::engine::Engine;
use crate::faults::{FaultTimeline, ServerFaultEvent};
use crate::metrics::{ClusterSummary, ServerMetrics};
use crate::parallel::{self, Parallelism};
use crate::server_sim::ServerSim;

/// A set of colocated servers, each advanced through its own event queue.
#[derive(Debug)]
pub struct ClusterSim {
    servers: Vec<ServerSim>,
    manager_period_s: f64,
    capper_period_s: f64,
    faults: FaultTimeline,
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
            faults: FaultTimeline::default(),
        }
    }

    /// Installs a pre-compiled fault timeline. Every action is a static,
    /// per-server event, so no server ever observes another.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultTimeline) -> Self {
        self.faults = faults;
        self
    }

    /// Runs the simulation for `duration_s` simulated seconds, one
    /// [`run_server_projection`] per server, fanned out across up to
    /// `parallelism` worker threads. Events only ever touch their own
    /// server, so the result is bit-identical at any worker count.
    pub fn run(&mut self, duration_s: f64, parallelism: Parallelism) {
        let (manager_period_s, capper_period_s) = (self.manager_period_s, self.capper_period_s);
        let faults = &self.faults;
        let indexed = std::mem::take(&mut self.servers).into_iter().enumerate();
        self.servers = parallel::map(parallelism, indexed.collect(), |(idx, mut server)| {
            run_server_projection(
                &mut server,
                faults.server_events(idx),
                manager_period_s,
                capper_period_s,
                duration_s,
                |_, _| true,
            );
            server
        });
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

/// Advances a single server through its own event queue: its 1 s manager
/// tick, its 100 ms capper tick and its pre-compiled fault actions, with
/// `on_epoch(now_s, server)` invoked after every manager tick. That hook
/// is the natural control-epoch cadence for a remote agent: telemetry
/// goes out (and directives come back) between manager decisions, and
/// because this is the only loop there is, a wire-driven slot replays the
/// in-process engine bit-identically. Returning `false` from the hook
/// abandons the projection (an agent dying mid-run); the engine stops
/// with whatever state has accumulated.
///
/// One queue per server is sufficient because servers share no state:
/// cluster-wide faults (brownouts, replan migrations) are compiled into
/// per-server actions before the run starts, so no event on one server
/// can be ordered against an event on another.
pub fn run_server_projection(
    server: &mut ServerSim,
    faults: &[ServerFaultEvent],
    manager_period_s: f64,
    capper_period_s: f64,
    duration_s: f64,
    mut on_epoch: impl FnMut(f64, &mut ServerSim) -> bool,
) {
    enum Tick {
        Manager,
        Capper,
        Fault(usize),
    }
    let mut engine: Engine<Tick> = Engine::new();
    engine.schedule_at_seconds(0.0, Tick::Manager);
    engine.schedule_at_seconds(capper_period_s, Tick::Capper);
    // Fault actions are init-scheduled, so at a coincident timestamp they
    // pop before the dynamically-rescheduled ticks.
    for (i, ev) in faults.iter().enumerate() {
        engine.schedule_at_seconds(ev.at_s, Tick::Fault(i));
    }
    while let Some(peek) = engine.peek_time_seconds() {
        if peek > duration_s + 1e-9 {
            break;
        }
        let entry = engine.pop().expect("peeked event exists");
        let now = engine.now_seconds();
        match entry.event {
            Tick::Manager => {
                server.on_manager_tick(now);
                engine.schedule_in(manager_period_s, Tick::Manager);
                if !on_epoch(now, server) {
                    return;
                }
            }
            Tick::Capper => {
                server.on_capper_tick(capper_period_s);
                engine.schedule_in(capper_period_s, Tick::Capper);
            }
            Tick::Fault(i) => {
                server.apply_fault(&faults[i].action, now);
            }
        }
    }
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
                    s.with_resilience(crate::faults::ResilienceConfig::default(), rank)
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
    fn deterministic_given_same_seeds() {
        let mut a = ClusterSim::new(vec![server(LcApp::TpcC, BeApp::Lstm)], 1.0, 0.1);
        let mut b = ClusterSim::new(vec![server(LcApp::TpcC, BeApp::Lstm)], 1.0, 0.1);
        a.run(5.0, Parallelism::Serial);
        b.run(5.0, Parallelism::Serial);
        assert_eq!(a.metrics(), b.metrics());
    }
}
