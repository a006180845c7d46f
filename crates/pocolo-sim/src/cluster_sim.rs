//! The one server loop — a resumable [`Projection`] per server over the
//! paper's two fixed control periods and the server's fault slice — and
//! its one fan-out over a set of servers ([`run_closed_loop`]), open or
//! closed loop.

use crate::faults::{FaultTimeline, ServerFaultAction, ServerFaultEvent};
use crate::parallel::{self, Parallelism};
use crate::server_sim::ServerSim;

/// The server manager's control period: the paper's POM "tracks LC load
/// and p99 latency slack every 1 s" (§IV-C).
pub const MANAGER_PERIOD_S: f64 = 1.0;

/// The power capper's control period: the paper's POM "enforces the
/// provisioned power cap every 100 ms" (§IV-C).
pub const CAPPER_PERIOD_S: f64 = 0.1;

/// What fires at one instant of a server's run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tick {
    /// The server-manager epoch, every [`MANAGER_PERIOD_S`] from 0.
    Manager,
    /// The power-capper step, every [`CAPPER_PERIOD_S`] from one period.
    Capper,
    /// The action at this index of the server's fault slice.
    Fault(usize),
}

// Ties at one µs resolve in the order the event queue this merge replaced
// inserted them: the first manager (at 0) and capper (at one period) ticks
// went in before the faults, the faults in slice order, and each later
// tick when its predecessor fired — the manager's ~0.9 s before the
// capper's, so a rescheduled manager tick precedes a coincident capper one.
const FIRST_TICK: u8 = 0;
const FAULT: u8 = 1;
const NEXT_MANAGER: u8 = 2;
const NEXT_CAPPER: u8 = 3;

/// The tick `period_s` after one at `t_us`, in seconds and rounded to the
/// µs — the arithmetic the replaced queue used, so every tick lands on
/// the µs it always did.
fn step(t_us: u64, period_s: f64) -> u64 {
    ((t_us as f64 / 1e6 + period_s) * 1e6).round() as u64
}

fn fault_us(at_s: f64) -> u64 {
    assert!(
        at_s.is_finite() && at_s >= 0.0,
        "event time must be a non-negative number"
    );
    (at_s * 1e6).round() as u64
}

/// One server's event schedule as a pure value: an endless iterator of
/// `(t_us, Tick)` merging three nondecreasing cursors in integer µs — the
/// next manager tick, the next capper tick, and the next entry of the
/// fault slice.
#[derive(Debug, Clone)]
pub(crate) struct Schedule<'a> {
    faults: &'a [ServerFaultEvent],
    next_fault: usize,
    /// `(µs, tie rank)` of the pending manager tick, capper tick and
    /// fault (at `u64::MAX` once the slice is spent).
    manager: (u64, u8),
    capper: (u64, u8),
    fault: (u64, u8),
}

impl<'a> Schedule<'a> {
    /// The schedule of a run over `faults`, not yet started.
    ///
    /// # Panics
    ///
    /// Panics if a fault time is negative or not finite, or if the slice
    /// is not in time order (a [`FaultTimeline`]'s always is).
    pub(crate) fn new(faults: &'a [ServerFaultEvent]) -> Self {
        assert!(
            faults.iter().map(|ev| fault_us(ev.at_s)).is_sorted(),
            "fault events must be in time order"
        );
        Schedule {
            faults,
            next_fault: 0,
            manager: (0, FIRST_TICK),
            capper: (step(0, CAPPER_PERIOD_S), FIRST_TICK),
            fault: Self::fault_key(faults, 0),
        }
    }

    fn fault_key(faults: &[ServerFaultEvent], i: usize) -> (u64, u8) {
        (
            faults.get(i).map_or(u64::MAX, |ev| fault_us(ev.at_s)),
            FAULT,
        )
    }

    /// The next event, without consuming it.
    pub(crate) fn peek(&self) -> (u64, Tick) {
        if self.fault < self.manager.min(self.capper) {
            (self.fault.0, Tick::Fault(self.next_fault))
        } else if self.manager < self.capper {
            (self.manager.0, Tick::Manager)
        } else {
            (self.capper.0, Tick::Capper)
        }
    }
}

impl Iterator for Schedule<'_> {
    type Item = (u64, Tick);

    fn next(&mut self) -> Option<(u64, Tick)> {
        let (t_us, tick) = self.peek();
        match tick {
            Tick::Manager => self.manager = (step(t_us, MANAGER_PERIOD_S), NEXT_MANAGER),
            Tick::Capper => self.capper = (step(t_us, CAPPER_PERIOD_S), NEXT_CAPPER),
            Tick::Fault(_) => {
                self.next_fault += 1;
                self.fault = Self::fault_key(self.faults, self.next_fault);
            }
        }
        Some((t_us, tick))
    }
}

/// One server's run as a value that can stop and resume: its schedule —
/// the 1 s manager tick, the 100 ms capper tick and the fault actions,
/// merged in µs — and the end time. The server is passed to every
/// [`Projection::advance`], so between two steps a caller may read it or
/// apply further actions to it.
///
/// One schedule per server is sufficient because servers share no state:
/// cluster-wide faults (brownouts, replan migrations) are compiled into
/// per-server actions before the run starts, and a cluster controller
/// acts only at a barrier every server has stopped at, so no event on
/// one server can be ordered against an event on another.
#[derive(Debug, Clone)]
pub struct Projection<'a> {
    schedule: Schedule<'a>,
    duration_s: f64,
}

impl<'a> Projection<'a> {
    /// A run of `duration_s` simulated seconds over `faults`, not yet
    /// started.
    ///
    /// # Panics
    ///
    /// Panics if a fault time is negative or not finite, or if `faults`
    /// is not in time order (a [`FaultTimeline`]'s always is).
    pub fn new(faults: &'a [ServerFaultEvent], duration_s: f64) -> Self {
        Projection {
            schedule: Schedule::new(faults),
            duration_s,
        }
    }

    /// Runs `server` through every pending event strictly before
    /// `until_s` (rounded to the µs, like the event times themselves) and
    /// not past the run's end, calling `on_epoch(now_s, server)` after
    /// every manager tick; events at `until_s` stay pending for the next
    /// step. `f64::INFINITY` runs to the end. Returning `false` from the
    /// hook abandons the run: the step returns at once with whatever
    /// state has accumulated.
    pub fn advance(
        &mut self,
        server: &mut ServerSim,
        until_s: f64,
        mut on_epoch: impl FnMut(f64, &mut ServerSim) -> bool,
    ) {
        let faults = self.schedule.faults;
        self.run_until(until_s, |t_us, tick| {
            let now = t_us as f64 / 1e6;
            match tick {
                Tick::Manager => {
                    server.on_manager_tick(now);
                    return on_epoch(now, server);
                }
                Tick::Capper => server.on_capper_tick(CAPPER_PERIOD_S),
                Tick::Fault(i) => server.apply_fault(&faults[i].action, now),
            }
            true
        });
    }

    /// [`Projection::advance`]'s bounds over the bare schedule: `fire`
    /// gets every event in range until it returns `false`.
    fn run_until(&mut self, until_s: f64, mut fire: impl FnMut(u64, Tick) -> bool) {
        let until_s = (until_s * 1e6).round() / 1e6;
        loop {
            let (t_us, tick) = self.schedule.peek();
            let now = t_us as f64 / 1e6;
            if now >= until_s || now > self.duration_s + 1e-9 {
                return;
            }
            self.schedule.next();
            if !fire(t_us, tick) {
                return;
            }
        }
    }
}

/// Runs `servers` for `duration_s` simulated seconds over their slots of
/// `faults` under a cluster controller that acts at each of the
/// `barriers` (seconds from the start), and returns them in the order
/// given. For every barrier `t` in turn: each server's [`Projection`]
/// advances to `t`, fanned out across up to `parallelism` worker threads;
/// `controller(t, servers)` may read anything of the servers (every event
/// before `t` has run on all of them, none at `t`); each `(slot, action)`
/// it returns is applied with [`ServerSim::apply_fault`] at `t`, in
/// order, *before* any event at `t`, so the faults and the manager tick
/// at `t` already see it. After the last barrier every server runs on to
/// the end; with no barrier that is the open-loop run.
///
/// Servers touch only their own state between barriers and the
/// controller runs on the calling thread, so the result is bit-identical
/// at any worker count, and a controller that returns nothing changes no
/// bit of an open-loop run, whatever the barriers.
///
/// # Panics
///
/// Panics on an empty server list, if `barriers` is not finite and
/// strictly increasing, or if the controller names a slot out of range.
pub fn run_closed_loop(
    mut servers: Vec<ServerSim>,
    faults: &FaultTimeline,
    duration_s: f64,
    parallelism: Parallelism,
    barriers: &[f64],
    mut controller: impl FnMut(f64, &[ServerSim]) -> Vec<(usize, ServerFaultAction)>,
) -> Vec<ServerSim> {
    assert!(!servers.is_empty(), "cluster needs at least one server");
    assert!(
        barriers.iter().all(|t| t.is_finite()) && barriers.windows(2).all(|w| w[0] < w[1]),
        "barriers must be finite and strictly increasing"
    );
    let mut projections: Vec<Projection> = (0..servers.len())
        .map(|idx| Projection::new(faults.server_events(idx), duration_s))
        .collect();
    for &until_s in barriers.iter().chain(&[f64::INFINITY]) {
        let slots = servers.into_iter().zip(projections).collect();
        (servers, projections) =
            parallel::map(parallelism, slots, |(mut server, mut projection)| {
                projection.advance(&mut server, until_s, |_, _| true);
                (server, projection)
            })
            .into_iter()
            .unzip();
        if until_s.is_finite() {
            for (slot, action) in controller(until_s, &servers) {
                servers[slot].apply_fault(&action, until_s);
            }
        }
    }
    servers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ClusterSummary, ServerMetrics};
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

    fn four() -> Vec<ServerSim> {
        vec![
            server(LcApp::Xapian, BeApp::Rnn),
            server(LcApp::Sphinx, BeApp::Graph),
            server(LcApp::TpcC, BeApp::Lstm),
            server(LcApp::ImgDnn, BeApp::Pbzip),
        ]
    }

    fn metrics(servers: &[ServerSim]) -> Vec<ServerMetrics> {
        servers.iter().map(|s| s.metrics().clone()).collect()
    }

    /// The open-loop run: no barrier.
    fn run(
        servers: Vec<ServerSim>,
        faults: &FaultTimeline,
        end_s: f64,
        p: Parallelism,
    ) -> Vec<ServerMetrics> {
        metrics(&run_closed_loop(servers, faults, end_s, p, &[], |_, _| {
            Vec::new()
        }))
    }

    #[test]
    fn runs_all_servers_for_the_duration() {
        let mut pair = four();
        pair.truncate(2);
        let metrics = run(pair, &FaultTimeline::default(), 10.0, Parallelism::Serial);
        for m in &metrics {
            assert!((m.duration_s - 10.0).abs() < 0.2, "{}", m.duration_s);
            assert!(m.samples >= 99);
        }
        let s = ClusterSummary::aggregate(&metrics).unwrap();
        assert!(s.avg_be_throughput > 0.0);
        assert!(s.avg_power_utilization > 0.3 && s.avg_power_utilization <= 1.05);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_panics() {
        run(vec![], &FaultTimeline::default(), 1.0, Parallelism::Serial);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let at = |p| run(four(), &FaultTimeline::default(), 8.0, p);
        let serial = at(Parallelism::Serial);
        assert_eq!(serial, at(Parallelism::Fixed(4)));
        assert_eq!(serial, at(Parallelism::Auto));
    }

    #[test]
    fn faulted_parallel_run_is_bit_identical_to_serial() {
        use pocolo_faults::FaultPlan;
        let plan = FaultPlan::new(3)
            .with_brownout(2.0, 3.0, 0.6)
            .with_crash(1, 3.0, 2.0)
            .with_telemetry_dropout(Some(0), 1.0, 4.0)
            .with_model_drift(None, 4.0, 0.2);
        let faults = FaultTimeline::compile_with_curves(&plan, 4, |_, f| f);
        let at = |resilient: bool, p| {
            let servers = four()
                .into_iter()
                .enumerate()
                .map(|(rank, s)| match resilient {
                    true => s.with_resilience(rank),
                    false => s,
                });
            run(servers.collect(), &faults, 8.0, p)
        };
        for resilient in [false, true] {
            let serial = at(resilient, Parallelism::Serial);
            assert_eq!(
                serial,
                at(resilient, Parallelism::Fixed(4)),
                "resilient={resilient} fan-out diverged from serial"
            );
            assert!(
                serial.iter().any(|m| m.fault_time_s() > 0.0),
                "faults should have been active"
            );
        }
    }

    fn logged() -> ServerSim {
        server(LcApp::Xapian, BeApp::Graph).with_decision_log()
    }

    /// A serial 6 s run of one server over `faults` with one barrier.
    fn closed(
        sim: ServerSim,
        faults: &FaultTimeline,
        barriers: &[f64],
        controller: impl FnMut(f64, &[ServerSim]) -> Vec<(usize, ServerFaultAction)>,
    ) -> ServerSim {
        let mut servers = run_closed_loop(
            vec![sim],
            faults,
            6.0,
            Parallelism::Serial,
            barriers,
            controller,
        );
        servers.remove(0)
    }

    #[test]
    fn a_barrier_action_lands_before_the_manager_tick_at_the_barrier() {
        let cap = logged().effective_cap().0;
        let sim = closed(logged(), &FaultTimeline::default(), &[3.0], |t, s| {
            // Everything before the barrier has run, nothing at it.
            assert_eq!(t, 3.0);
            assert_eq!(s[0].decision_records().len(), 3);
            assert_eq!(s[0].metrics().samples, 29);
            vec![(0, ServerFaultAction::SetCapFactor(0.6))]
        });
        let records = sim.decision_records();
        assert_eq!(records.len(), 7);
        for r in records {
            let expected = if r.now_s < 3.0 { cap } else { cap * 0.6 };
            assert_eq!(r.effective_cap_w, expected, "manager tick at {}", r.now_s);
        }
    }

    #[test]
    fn at_a_coincident_barrier_the_action_then_the_fault_then_the_manager_then_the_capper() {
        // The barrier, a fault, the manager tick and the 30th capper tick
        // all fall at 3 s.
        let mut faults = FaultTimeline::empty(1);
        faults.push(0, 3.0, ServerFaultAction::SetCapFactor(0.8));
        let (cap, action) = (
            logged().effective_cap().0,
            ServerFaultAction::SetCapFactor(0.6),
        );
        let closed = closed(logged(), &faults, &[3.0], |_, s| {
            // Nothing at the barrier has run: not the fault, no tick.
            let s = &s[0];
            assert_eq!((s.decision_records().len(), s.metrics().samples), (3, 29));
            vec![(0, action.clone())]
        });
        // The same run stepped by hand, observed right after each manager
        // tick: at 3 s the manager decided on the fault's cap, which
        // overrode the action, before the capper tick at 3 s ran.
        let (mut sim, mut epochs) = (logged(), Vec::new());
        let mut projection = Projection::new(faults.server_events(0), 6.0);
        projection.advance(&mut sim, 3.0, |_, _| true);
        sim.apply_fault(&action, 3.0);
        projection.advance(&mut sim, f64::INFINITY, |now_s, s| {
            let cap_w = s.decision_records().last().unwrap().effective_cap_w;
            epochs.push((now_s, s.metrics().samples, cap_w));
            true
        });
        assert_eq!(epochs[0], (3.0, 29, cap * 0.8));
        assert_eq!(sim.metrics(), closed.metrics());
        assert_eq!(sim.decision_records(), closed.decision_records());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_barriers_panic() {
        let sim = server(LcApp::TpcC, BeApp::Lstm);
        closed(sim, &FaultTimeline::default(), &[2.0, 2.0], |_, _| {
            Vec::new()
        });
    }

    #[test]
    fn deterministic_given_same_seeds() {
        let one = || vec![server(LcApp::TpcC, BeApp::Lstm)];
        let at = || run(one(), &FaultTimeline::default(), 5.0, Parallelism::Serial);
        assert_eq!(at(), at());
    }
}

/// The schedule against the event queue it replaced.
#[cfg(test)]
mod order_tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The replaced engine's queue: `(time_us, seq)` keys, `seq` counting
    /// up on every insert, the payload beside the key.
    #[derive(Default)]
    struct Queue {
        heap: BinaryHeap<Reverse<(u64, usize)>>,
        ticks: Vec<Tick>,
    }

    impl Queue {
        fn schedule_at(&mut self, t_s: f64, tick: Tick) {
            assert!(t_s.is_finite() && t_s >= 0.0);
            let key = ((t_s * 1e6).round() as u64, self.ticks.len());
            self.heap.push(Reverse(key));
            self.ticks.push(tick);
        }
    }

    /// `Projection` as it drove that queue: both ticks and every fault
    /// scheduled up front, each tick rescheduled one period on as it
    /// pops, stopped at every barrier and at the end.
    fn queue_oracle(faults: &[ServerFaultEvent], end_s: f64, barriers: &[f64]) -> Vec<(u64, Tick)> {
        let mut queue = Queue::default();
        queue.schedule_at(0.0, Tick::Manager);
        queue.schedule_at(CAPPER_PERIOD_S, Tick::Capper);
        for (i, ev) in faults.iter().enumerate() {
            queue.schedule_at(ev.at_s, Tick::Fault(i));
        }
        let mut fired = Vec::new();
        for &until_s in barriers.iter().chain(&[f64::INFINITY]) {
            let until_s = (until_s * 1e6).round() / 1e6;
            while let Some(&Reverse((t_us, seq))) = queue.heap.peek() {
                let now = t_us as f64 / 1e6;
                if now >= until_s || now > end_s + 1e-9 {
                    break;
                }
                queue.heap.pop();
                let tick = queue.ticks[seq];
                match tick {
                    Tick::Manager => queue.schedule_at(now + MANAGER_PERIOD_S, tick),
                    Tick::Capper => queue.schedule_at(now + CAPPER_PERIOD_S, tick),
                    Tick::Fault(_) => {}
                }
                fired.push((t_us, tick));
            }
        }
        fired
    }

    fn merged(faults: &[ServerFaultEvent], end_s: f64, barriers: &[f64]) -> Vec<(u64, Tick)> {
        let (mut projection, mut fired) = (Projection::new(faults, end_s), Vec::new());
        for &until_s in barriers.iter().chain(&[f64::INFINITY]) {
            projection.run_until(until_s, |t_us, tick| {
                fired.push((t_us, tick));
                true
            });
        }
        fired
    }

    /// A fault slice built the way plans build one: pushed in draw order.
    fn slice(times: &[f64]) -> FaultTimeline {
        let mut timeline = FaultTimeline::empty(1);
        for &at_s in times {
            timeline.push(0, at_s, ServerFaultAction::Thaw);
        }
        timeline
    }

    #[test]
    fn ties_go_first_ticks_then_faults_then_manager_then_capper() {
        let timeline = slice(&[1.0, 0.1, 0.0]);
        let at = |t: u64| -> Vec<Tick> {
            let schedule = Schedule::new(timeline.server_events(0));
            let at_t = schedule.skip_while(|e| e.0 < t).take_while(|e| e.0 == t);
            at_t.map(|e| e.1).collect()
        };
        assert_eq!(at(0), [Tick::Manager, Tick::Fault(0)]);
        assert_eq!(at(100_000), [Tick::Capper, Tick::Fault(1)]);
        assert_eq!(at(1_000_000), [Tick::Fault(2), Tick::Manager, Tick::Capper]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn a_nan_fault_time_panics() {
        let action = ServerFaultAction::Thaw;
        let at_s = f64::NAN;
        let _ = Schedule::new(&[ServerFaultEvent { at_s, action }]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Faults on a 50 ms grid (so on manager and capper ticks), at
        /// exactly 0 and 0.1 s, and pairs under 0.5 µs apart that round
        /// to one µs or straddle two; barriers on and off the grid; ends
        /// on ticks and between them.
        #[test]
        fn the_merge_fires_what_the_queue_fired(
            grid in vec(0u32..=100, 0..12),
            pairs in vec((0u32..=100, 1u32..=6), 0..4),
            edges in (any::<bool>(), any::<bool>()),
            barrier_grid in vec((0u32..=110, 0usize..4), 0..5),
            end in (0u32..=100, 0usize..3),
        ) {
            let mut times: Vec<f64> = grid.iter().map(|&k| f64::from(k) * 0.05).collect();
            for &(k, d) in &pairs {
                let at_s = f64::from(k) * 0.05;
                times.extend([at_s, at_s + f64::from(d) * 1e-7]);
            }
            times.extend(edges.0.then_some(0.0).into_iter().chain(edges.1.then_some(0.1)));
            let timeline = slice(&times);
            let mut barriers: Vec<f64> = barrier_grid
                .iter()
                .map(|&(k, off)| f64::from(k) * 0.05 + [0.0, 0.02, 3e-7, 1e-6][off])
                .collect();
            barriers.sort_by(f64::total_cmp);
            barriers.dedup();
            let end_s = f64::from(end.0) * 0.05 + [0.0, 0.03, 5e-10][end.1];
            let faults = timeline.server_events(0);
            prop_assert_eq!(merged(faults, end_s, &barriers), queue_oracle(faults, end_s, &barriers));
        }
    }
}
