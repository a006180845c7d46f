//! `control-path` — ROADMAP's "one number".
//!
//! The benchmark drives control ticks through the layers in order and
//! times each stage: generate (`TrafficGen::tick`, the load source,
//! *excluded* from tick latency) → queue step (`slot_counts`, demand,
//! `Mm1Queue::step_batch` per slot) → online fit (`OnlineFitter::ingest`
//! per slot) → incremental repair against a standing fleet-scale
//! `PlacementPlan` (a repair window every third tick carries a scheduled
//! single-column fault or restore, or `replan_after_refit` for the slot
//! whose refit drifted furthest since the last window) → wire
//! round (every registered `RpcClient` sends `Telemetry`, gets
//! `TelemetryAck`) → actuate (each `ServerSim` applies `SetCapFactor` when
//! its ack changed, then one `on_manager_tick` and ten `on_capper_tick`s,
//! as `run_agent` does). Closed loop: the next tick starts when the last
//! completes. A tick over the paper's 1 s manager period fails.

use std::collections::VecDeque;
use std::time::Instant;

use super::fleet::{check_optimal, fitted_bases, manager, EPS};
use super::wire_heartbeat::{heartbeat, register_fleet, Registered};
use super::{ms_since, MIX_SEED};
use crate::api::{
    BeApp, ClusterManager, FitOptions, FittedCluster, IndirectUtility, LcModel, LoadTrace,
    MachineSpec, MatrixDelta, MixKind, Mm1Queue, OnlineFitter, Parallelism, PlacementPlan, Policy,
    PowerDrawModel, ProfileSample, ProfilerConfig, ServerFaultAction, ServerSim, SlotSpec, Solver,
    TenantAllocation, TrafficGen, TrafficMix, Watts,
};
use crate::gen::schedule::{slot_columns, tick_schedule, Repair, TickPlan};
use crate::gen::sub_seed;
use crate::proc::nproc;
use crate::record::Recorder;
use crate::run::{Measured, SetupNotes, Sink, Workload};

/// Simulated seconds per control tick: the paper's manager period, which
/// is also the deadline a tick must meet.
const TICK_S: f64 = 1.0;

/// Capper ticks per manager tick (100 ms cap enforcement).
const CAPPER_TICKS: usize = 10;

/// Open-loop request rate per simulated user.
const RPS_PER_USER: f64 = 10.0;

/// Preference-vector drift past which a refit earns a placement repair
/// (the traffic engine's threshold).
const REPLAN_DRIFT: f64 = 0.05;

/// Online samples are admitted down to this latency slack (the traffic
/// engine's floor).
const ONLINE_SLACK_FLOOR: f64 = -2.0;

/// Allocation offsets rotated per `(tick + slot)` so a fitter's window
/// spans more than one allocation.
const EXPLORE: [(i64, i64); 4] = [(0, 0), (1, -2), (-1, 2), (-1, -2)];

/// Every this-many-th server gets per-call spans in the traced phase.
const SPAN_EVERY: usize = 32;

/// Sizes of one scale.
#[derive(Debug, Clone, Copy)]
struct Scale {
    servers: usize,
    be_apps: usize,
    slots: usize,
    users: u64,
    ticks: usize,
}

/// One live server: its queue, its online model, its agent-side backend.
#[derive(Debug)]
struct Slot {
    truth: LcModel,
    utility: IndirectUtility,
    fitter: OnlineFitter,
    queue: Mm1Queue,
    sim: ServerSim,
    /// Directive the server last applied.
    cap_factor: f64,
}

/// The workload's state: everything a round restarts from.
#[derive(Debug)]
pub struct ControlPath {
    scale: Scale,
    seed: u64,
    fitted: FittedCluster,
    power: PowerDrawModel,
    mgr: ClusterManager,
    plan: PlacementPlan,
    /// Plan column of each live server.
    cols: Vec<usize>,
    gen: TrafficGen,
    /// Generated requests → model-scale arrivals.
    arrivals_per_request: f64,
    wire: Registered,
    schedule: Vec<TickPlan>,
}

impl ControlPath {
    fn machine(&self) -> &MachineSpec {
        self.fitted.machine()
    }

    /// The live servers in their set-up state.
    fn fresh_slots(&self) -> Vec<Slot> {
        let machine = self.machine();
        let full = TenantAllocation::from_counts(machine, machine.cores(), machine.llc_ways());
        let options = FitOptions {
            min_latency_slack: ONLINE_SLACK_FLOOR,
            ..FitOptions::default()
        };
        let apps = self.fitted.lc().len();
        (0..self.scale.slots)
            .map(|i| {
                let (_, truth, utility) = &self.fitted.lc()[i % apps];
                let seed = sub_seed(self.seed, 0x510 + i as u64);
                let sim = SlotSpec {
                    server: i % apps,
                    policy: Policy::Pocolo {
                        solver: Solver::Hungarian,
                    },
                    be: BeApp::ALL[i % BeApp::ALL.len()],
                    rank: i,
                    trace: LoadTrace::paper_sweep(self.scale.ticks as f64 * TICK_S / 9.0),
                    meter_noise: 0.01,
                    seed,
                    faulted: true,
                    resilience: true,
                    record_decisions: false,
                }
                .build(&self.fitted);
                Slot {
                    truth: truth.clone(),
                    utility: utility.clone(),
                    fitter: OnlineFitter::new(machine.resource_space(), options.clone(), 24, 3),
                    queue: Mm1Queue::new(truth.capacity_rps(&full), seed),
                    sim,
                    cap_factor: 1.0,
                }
            })
            .collect()
    }

    /// The state a round starts from.
    fn fresh_round(&self) -> Round {
        Round {
            mgr: self.mgr.clone(),
            plan: self.plan.clone(),
            slots: self.fresh_slots(),
            out: VecDeque::new(),
            directive: 1.0,
            most_drifted: None,
        }
    }

    /// Queue step for one slot: allocate what the current model demands
    /// within the budget, serve the tick's arrivals, and hand back the
    /// telemetry sample the online fitter learns from.
    fn queue_step(
        &self,
        slot: &mut Slot,
        i: usize,
        tick: usize,
        requests: u64,
    ) -> (usize, ProfileSample) {
        let machine = self.machine();
        let t = tick as f64 * TICK_S;
        let load_rps = requests as f64 * self.arrivals_per_request / TICK_S;
        let budget = Watts(
            (slot.truth.provisioned_power().0 * slot.cap_factor)
                .max(slot.utility.min_feasible_power().0),
        );
        let (cores, ways) = match slot.utility.demand_integral(budget) {
            Ok(a) => (a.amount(0).round() as i64, a.amount(1).round() as i64),
            Err(_) => (1, 1),
        };
        let (dc, dw) = EXPLORE[(tick + i) % EXPLORE.len()];
        let cores = (cores + dc).clamp(1, i64::from(machine.cores())) as u32;
        let ways = (ways + dw).clamp(1, i64::from(machine.llc_ways())) as u32;
        let alloc = TenantAllocation::from_counts(machine, cores, ways);

        // Flash-crowd traffic is cache-hungrier: the truth drifts away
        // from the offline fit, which is what the fitter must track.
        let ways_frac = f64::from(ways) / f64::from(machine.llc_ways());
        let drift = self.gen.mix().drift_at(t);
        let capacity = (slot.truth.capacity_rps(&alloc) * ways_frac.powf(drift)).max(1e-6);
        slot.queue.set_service_rate(capacity);
        let arrivals = (load_rps * TICK_S).round() as usize;
        let stats = slot.queue.step_batch(arrivals, TICK_S);

        let measured = if stats.utilization > 1e-6 && stats.utilization < 0.999 {
            load_rps / stats.utilization
        } else {
            capacity
        };
        let slo_ms = slot.truth.slo_p99_ms();
        let sample = ProfileSample::latency_critical(
            machine
                .resource_space()
                .allocation(vec![f64::from(cores), f64::from(ways)])
                .expect("clamped counts are in-space"),
            slot.truth.rho_slo() * measured,
            slot.truth.power_draw(load_rps, &alloc, &self.power),
            (slo_ms - stats.p99 * 1e3) / slo_ms,
        );
        (arrivals, sample)
    }
}

/// The mutable state of one round.
struct Round {
    mgr: ClusterManager,
    plan: PlacementPlan,
    slots: Vec<Slot>,
    /// Faulted columns, oldest first, with the values they held.
    out: VecDeque<(usize, Vec<f64>)>,
    /// Directive the daemon currently acks with.
    directive: f64,
    /// The slot whose refit drifted furthest since the last repair
    /// window, with its drift.
    most_drifted: Option<(usize, f64)>,
}

/// The repair a window found to do.
enum Due {
    /// Fault the assigned column this pick selects.
    Fault(u64),
    /// Return this column with the values it held.
    Restore(usize, Vec<f64>),
    /// Adopt this slot's refitted model.
    Refit(usize),
}

impl Round {
    /// Applies one repair to the standing plan; the migration intents it
    /// produced, or `None` when the product refused.
    fn repair(&mut self, due: Due, cols: &[usize]) -> Option<usize> {
        let intents = match due {
            Due::Fault(pick) => {
                let pairs = &self.plan.assignment().pairs;
                let victim = pairs[(pick % pairs.len() as u64) as usize].1;
                self.out
                    .push_back((victim, self.plan.matrix().col_iter(victim).collect()));
                self.mgr.replan_after_faults(&mut self.plan, &[victim])
            }
            Due::Restore(col, values) => self
                .plan
                .apply_delta(&MatrixDelta::new().set_column(col, values)),
            // A column that is out of the fleet has nothing to re-estimate.
            Due::Refit(slot) if self.plan.matrix().is_col_disabled(cols[slot]) => Ok(Vec::new()),
            Due::Refit(slot) => {
                let (utility, cap) = (
                    self.slots[slot].utility.clone(),
                    self.slots[slot].cap_factor,
                );
                self.mgr
                    .replan_after_refit(&mut self.plan, cols[slot], utility, cap)
            }
        };
        intents.ok().map(|i| i.len())
    }
}

impl ControlPath {
    /// One control tick; returns its latency in milliseconds.
    fn tick(&mut self, round: &mut Round, tick: usize, rec: &mut Recorder) -> f64 {
        let id = tick as u64;
        let plan_of_tick = self.schedule[tick];
        let t = tick as f64 * TICK_S;

        // The load source runs before the tick clock starts.
        rec.tr.begin("traffic.generate", id);
        let batch = self.gen.tick(id, nproc(), Parallelism::Auto);
        rec.tr.end();
        rec.count("traffic.requests", batch.len() as f64);

        let started = rec.start(Self::OP, id);

        rec.tr.begin("workloads.queue_step", id);
        let counts = batch.slot_counts(round.slots.len());
        let mut samples = Vec::with_capacity(round.slots.len());
        for (i, slot) in round.slots.iter_mut().enumerate() {
            let (arrivals, sample) = self.queue_step(slot, i, tick, counts[i]);
            rec.count("workloads.queue_arrivals", arrivals as f64);
            samples.push(sample);
        }
        rec.tr.end();

        rec.tr.begin("core.online_fit", id);
        for (i, (slot, sample)) in round.slots.iter_mut().zip(samples).enumerate() {
            let Some(fresh) = slot.fitter.ingest(sample).map(|m| m.utility.clone()) else {
                continue;
            };
            slot.utility = fresh;
            rec.count("core.refits", 1.0);
            let drift = slot.fitter.last_drift().unwrap_or(0.0);
            if drift > REPLAN_DRIFT {
                rec.count("core.refits_adopted", 1.0);
                if round.most_drifted.is_none_or(|(_, worst)| drift > worst) {
                    round.most_drifted = Some((i, drift));
                }
            }
        }
        rec.tr.end();

        let due = match plan_of_tick.repair {
            Some(Repair::Fault) => Some(Due::Fault(plan_of_tick.pick)),
            Some(Repair::Restore) => round
                .out
                .pop_front()
                .map(|(col, values)| Due::Restore(col, values)),
            Some(Repair::Refit) => round.most_drifted.take().map(|(slot, _)| Due::Refit(slot)),
            None => None,
        };
        if let Some(due) = due {
            let replan = rec.start("cluster.replan_10k", id);
            let intents = round.repair(due, &self.cols);
            rec.stop("cluster.replan_10k", replan);
            let certified = round.plan.solution().certified;
            rec.check(intents.is_some() && certified, || {
                format!("tick {tick}: repair failed or uncertified (intents {intents:?})")
            });
            rec.count("cluster.replans", 1.0);
            rec.count("cluster.migrations_total", intents.unwrap_or(0) as f64);
            rec.count(
                "cluster.dirty_rows",
                round.plan.solution().stats.dirty_rows as f64,
            );
        }

        rec.tr.begin("net.wire_round", id);
        if plan_of_tick.cap_factor != round.directive {
            round.directive = plan_of_tick.cap_factor;
            self.wire.daemon.set_cap_factor(round.directive);
        }
        let mut acks = Vec::with_capacity(round.slots.len());
        for (i, ((server, client), slot)) in
            self.wire.agents.iter_mut().zip(&round.slots).enumerate()
        {
            let payload = (
                slot.sim.true_power().0,
                slot.sim.lc_slack(),
                slot.sim.be_throughput(),
            );
            let (ms, ack) = heartbeat(client, *server, id, payload);
            if i % SPAN_EVERY == 0 {
                rec.sample("net.rtt", ms);
            }
            rec.check(ack == Some(round.directive), || {
                format!(
                    "tick {tick} slot {i}: ack {ack:?}, directive {}",
                    round.directive
                )
            });
            acks.push(ack.unwrap_or(round.directive));
        }
        rec.tr.end();

        rec.tr.begin("manager.actuate", id);
        let mut power_sum = 0.0;
        for (i, (slot, ack)) in round.slots.iter_mut().zip(acks).enumerate() {
            if ack != slot.cap_factor {
                slot.sim
                    .apply_fault(&ServerFaultAction::SetCapFactor(ack), t);
                slot.cap_factor = ack;
            }
            let spanned = i % SPAN_EVERY == 0;
            if spanned {
                rec.tr.begin("manager.epoch", id);
            }
            slot.sim.on_manager_tick(t);
            if spanned {
                rec.tr.end();
            }
            for _ in 0..CAPPER_TICKS {
                if spanned {
                    rec.tr.begin("manager.capper_tick", id);
                }
                slot.sim.on_capper_tick(TICK_S / CAPPER_TICKS as f64);
                if spanned {
                    rec.tr.end();
                }
            }
            power_sum += slot.sim.true_power().0;
        }
        rec.tr.end();

        let ms = rec.stop(Self::OP, started);
        rec.check(ms <= TICK_S * 1e3, || {
            format!("tick {tick} took {ms:.1} ms, over the {TICK_S} s manager period")
        });
        rec.fold_f64(round.plan.assignment().total);
        rec.fold_f64(power_sum);
        ms
    }
}

impl Workload for ControlPath {
    const NAME: &'static str = "control-path";
    const OP: &'static str = "control.tick";

    fn setup(seed: u64, smoke: bool, notes: &mut SetupNotes) -> Self {
        let scale = if smoke {
            Scale {
                servers: 400,
                be_apps: 40,
                slots: 16,
                users: 5_000,
                ticks: 9,
            }
        } else {
            Scale {
                servers: 10_000,
                be_apps: 500,
                slots: 256,
                users: 100_000,
                ticks: 15,
            }
        };
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let mgr = manager(scale.servers, scale.be_apps, &fitted_bases());
        let start = Instant::now();
        let plan = mgr
            .plan_sparse(EPS)
            .expect("the generated fleet is placeable");
        notes.note("cluster.cold_plan_10k_ms", ms_since(start));
        notes.note("cluster.plan_value", plan.assignment().total);

        let apps = fitted.lc().len();
        let peaks: Vec<f64> = (0..scale.slots)
            .map(|i| fitted.lc()[i % apps].1.peak_load_rps())
            .collect();
        let duration_s = scale.ticks as f64 * TICK_S;
        let mix = TrafficMix::plan(MixKind::FlashCrowd, MIX_SEED, duration_s);
        let gen = TrafficGen::new(
            mix,
            sub_seed(seed, 3),
            scale.users,
            RPS_PER_USER,
            TICK_S,
            &peaks,
        );
        let arrivals_per_request =
            peaks.iter().sum::<f64>() / (scale.users as f64 * RPS_PER_USER * TICK_S);

        let mut w = ControlPath {
            scale,
            seed,
            power: PowerDrawModel::new(fitted.machine().clone()),
            fitted,
            mgr,
            plan,
            cols: slot_columns(sub_seed(seed, 4), scale.servers, scale.slots),
            gen,
            arrivals_per_request,
            wire: register_fleet(scale.slots, seed, notes),
            schedule: tick_schedule(sub_seed(seed, 5), scale.ticks),
        };
        // Warm-up: one untimed tick on fresh state.
        let mut round = w.fresh_round();
        w.tick(&mut round, 0, &mut Recorder::new(false));
        w
    }

    fn round(&mut self, rec: &mut Recorder) {
        let mut round = self.fresh_round();
        for tick in 0..self.scale.ticks {
            self.tick(&mut round, tick, rec);
        }
        check_optimal(&round.plan, rec, "end of a round");
    }

    fn verify(&mut self, rec: &mut Recorder) {
        check_optimal(&self.plan, rec, "cold plan");
    }

    fn report(&self, m: &Measured, out: &mut Sink) {
        out.put_q("tick_ms_p50", m.q(Self::OP, 0.5));
        out.put_q("tick_ms_p90", m.q(Self::OP, 0.9));
        out.put_q(
            "cluster.cold_plan_10k_ms",
            m.setup.median("cluster.cold_plan_10k_ms"),
        );
        out.put("cluster.plan_value", m.setup.median("cluster.plan_value").0);
        out.put_q("connects_per_s", m.setup.median("connects_per_s"));
        out.put_us("net.register_us_p50", m.setup.median("net.register_ms"));
        for (name, series) in [
            ("traffic.generate_ms_p50", "traffic.generate"),
            ("workloads.queue_step_ms_p50", "workloads.queue_step"),
            ("core.online_fit_ms_p50", "core.online_fit"),
            ("cluster.replan_10k_ms_p50", "cluster.replan_10k"),
            ("net.wire_round_ms_p50", "net.wire_round"),
            ("manager.actuate_ms_p50", "manager.actuate"),
        ] {
            out.put_q(name, m.q(series, 0.5));
        }
        out.put_us("heartbeat_rtt_us_p50", m.q("net.rtt", 0.5));
        out.put_us("net.rtt_us_p99", m.q("net.rtt", 0.99));
        out.put_us("manager.epoch_us_p50", m.q("manager.epoch", 0.5));
        out.put_us(
            "manager.capper_tick_us_p50",
            m.q("manager.capper_tick", 0.5),
        );
        if let Some(traced) = &m.traced {
            out.put_q("control.tick_self_ms_p50", traced.self_q(Self::OP, 0.5));
        }
        for name in [
            "traffic.requests",
            "workloads.queue_arrivals",
            "core.refits",
            "core.refits_adopted",
            "cluster.replans",
            "cluster.migrations_total",
            "cluster.dirty_rows",
        ] {
            out.put(name, m.counted(name));
        }
        out.put(
            "core.fit_useful_ratio",
            m.counted("core.refits_adopted") / m.counted("core.refits").max(1.0),
        );
    }
}
