//! The closed loop: synthesized traffic drives per-slot queues, measured
//! telemetry refits utility models online, and drifted models trigger
//! incremental replans.
//!
//! Each simulated tick the engine
//!
//! 1. generates the tick through the sharded [`TrafficGen`] and reads
//!    its summary — no request is stored — folding every tick digest into
//!    the run digest (the bit-identity witness the CI shard gate diffs),
//! 2. maps the summary's per-slot counts to arrival rates and steps each LC
//!    slot's [`Mm1Queue`] — the M/M/1 tail plus a carried fluid backlog,
//!    O(1) a tick — under the allocation its *current* utility model
//!    demands within the (possibly browned-out) power budget,
//! 3. feeds the measured capacity / power / latency-slack triple into the
//!    slot's [`OnlineFitter`], and
//! 4. when a refit drifts far enough, adopts the fresh model and repairs
//!    the BE placement through
//!    [`ClusterManager::replan_after_refit`] — the PR 6 incremental path,
//!    not a from-scratch solve.
//!
//! With `online_fit` off the fitters still run (so the baseline pays the
//! same ingestion cost) but their models are never adopted: that is the
//! frozen-offline-fit baseline the acceptance test compares against.

use std::time::Instant;

use pocolo_cluster::placement::{ClusterManager, PlacementPlan};
use pocolo_core::digest::{fnv1a_word, FNV_OFFSET};
use pocolo_core::fit::{FitOptions, OnlineFitter, ProfileSample};
use pocolo_core::units::Watts;
use pocolo_core::utility::IndirectUtility;
use pocolo_faults::{FaultKind, FaultSpec, Scenario};
use pocolo_sim::experiment::FittedCluster;
use pocolo_sim::parallel::Parallelism;
use pocolo_sim::{FaultTimeline, ServerFaultAction, ServerFaultEvent};
use pocolo_simserver::power::PowerDrawModel;
use pocolo_simserver::TenantAllocation;
use pocolo_workloads::profiler::ProfilerConfig;
use pocolo_workloads::reqsim::Mm1Queue;
use pocolo_workloads::LcModel;

use crate::mix::{TrafficMix, TrafficSpec};
use crate::shard::TrafficGen;

/// Admit online samples down to this latency slack. The offline profiler
/// discards anything under +10 % slack as measured-too-close-to-SLO
/// (see [`FitOptions::default`]); the online loop inverts that logic —
/// overload ticks are exactly the evidence a stale model needs — but
/// still drops the absurd tail where the queue has effectively diverged.
const ONLINE_SLACK_FLOOR: f64 = -2.0;

/// Preference-vector total-variation drift beyond which an adopted refit
/// also triggers an incremental placement repair.
const REPLAN_DRIFT: f64 = 0.05;

/// Exploration offsets rotated per `(tick + slot)` so the online window
/// spans more than one allocation (a single-point window is singular and
/// would never refit successfully).
const EXPLORE: [(i64, i64); 4] = [(0, 0), (1, -2), (-1, 2), (-1, -2)];

/// Configuration for one traffic-engine run.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Which mix to synthesize, with an optional mix-specific seed.
    pub spec: TrafficSpec,
    /// Simulated user population (each contributes `rps_per_user`).
    pub users: u64,
    /// Open-loop request rate per user, requests per second.
    pub rps_per_user: f64,
    /// Number of simulated ticks.
    pub ticks: u64,
    /// Simulated seconds per tick.
    pub tick_s: f64,
    /// Generator shards; the request stream is bit-identical for any value.
    pub shards: usize,
    /// Thread fan-out for shard generation.
    pub parallelism: Parallelism,
    /// Adopt refitted models and replan on drift. Off = frozen baseline.
    pub online_fit: bool,
    /// Optional fault scenario overlaid on the run.
    pub faults: Option<FaultSpec>,
    /// Run seed; also the mix seed unless `spec` carries its own.
    pub seed: u64,
}

impl TrafficConfig {
    /// Defaults sized for the demo: one million users for ten ticks.
    pub fn new(spec: TrafficSpec) -> Self {
        TrafficConfig {
            spec,
            users: 1_000_000,
            rps_per_user: 10.0,
            ticks: 10,
            tick_s: 1.0,
            shards: 1,
            parallelism: Parallelism::Auto,
            online_fit: false,
            faults: None,
            seed: 42,
        }
    }
}

/// Per-slot outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotReport {
    /// LC application name.
    pub app: String,
    /// Requests routed to this slot over the whole run.
    pub requests: u64,
    /// Requests that arrived during SLO-violating ticks.
    pub violations: u64,
    /// Worst per-tick p99 latency observed, milliseconds.
    pub worst_p99_ms: f64,
    /// Cores held at the end of the run.
    pub cores: u32,
    /// LLC ways held at the end of the run.
    pub ways: u32,
}

pocolo_json::impl_to_json!(SlotReport {
    app,
    requests,
    violations,
    worst_p99_ms,
    cores,
    ways,
});

/// Outcome of [`run_traffic`]. Every serialized field is deterministic in
/// the config; wall-clock figures stay out of the JSON so the CI shard
/// gate can diff reports byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Mix name.
    pub mix: String,
    /// Shard count the ticks were generated with — an execution
    /// detail like parallelism, so not serialized (the report must be
    /// byte-identical at any shard count).
    pub shards: usize,
    /// Ticks simulated.
    pub ticks: u64,
    /// Simulated users.
    pub users: u64,
    /// Total requests generated.
    pub requests: u64,
    /// The run's request-stream witness, 16 hex digits: FNV-1a over each
    /// tick's sequence digest (`TickSummary::digest`, a function of every
    /// field of every request in order) — identical across shard counts
    /// and parallelism settings.
    pub digest: String,
    /// Whether refitted models were adopted.
    pub online_fit: bool,
    /// Fault scenario overlaid, if any.
    pub faults: Option<String>,
    /// Request-weighted fraction of traffic landing in SLO-violating
    /// ticks.
    pub slo_violation_frac: f64,
    /// Successful online refits across all slots.
    pub refits: u64,
    /// Placement repairs triggered by model drift.
    pub replans: u64,
    /// BE migration intents those repairs emitted.
    pub migrations: u64,
    /// Per-slot outcomes, index-aligned with the LC fleet.
    pub slots: Vec<SlotReport>,
    /// Wall-clock seconds spent in `TrafficGen::tick` — drawing the
    /// requests and folding them into counts and digest, which is one
    /// loop (not serialized).
    pub gen_seconds: f64,
}

pocolo_json::impl_to_json!(TrafficReport {
    mix,
    ticks,
    users,
    requests,
    digest,
    online_fit,
    faults,
    slo_violation_frac,
    refits,
    replans,
    migrations,
    slots,
});

/// One LC slot's mutable loop state.
struct SlotState {
    /// What the run reports for the slot, accumulated in place.
    report: SlotReport,
    truth: LcModel,
    utility: IndirectUtility,
    fitter: OnlineFitter,
    queue: Mm1Queue,
    /// Brownout factor on the provisioned cap, 1.0 outside brownouts.
    cap_factor: f64,
    fault_drift: f64,
    /// This slot's fault-timeline actions applied so far.
    faults_applied: usize,
}

/// Runs the traffic engine end to end.
///
/// # Panics
///
/// Panics if the cluster placement cannot be constructed (the four-app
/// fleet in-tree always can), the config is degenerate (zero shards), or
/// the fault scenario injects a fault the loop does not model
/// ([`unmodelled_faults`]).
pub fn run_traffic(config: &TrafficConfig) -> TrafficReport {
    assert!(config.shards > 0, "shard count must be positive");
    if let Some(fs) = &config.faults {
        let dropped = unmodelled_faults(fs.scenario);
        assert!(dropped.is_empty(), "run_traffic does not model {dropped:?}");
    }
    let fitted = FittedCluster::fit(&ProfilerConfig::default());
    let machine = fitted.machine().clone();
    let power = PowerDrawModel::new(machine.clone());
    let space = machine.resource_space();
    let duration_s = config.ticks as f64 * config.tick_s;

    let mix_seed = config.spec.seed.unwrap_or(config.seed);
    let mix = TrafficMix::plan(config.spec.kind, mix_seed, duration_s);
    let peaks: Vec<f64> = fitted
        .lc()
        .iter()
        .map(|(_, truth, _)| truth.peak_load_rps())
        .collect();
    let gen = TrafficGen::new(
        mix,
        config.seed,
        config.users,
        config.rps_per_user,
        config.tick_s,
        &peaks,
    );

    let mut mgr = ClusterManager::new(fitted.be_profiles(), fitted.server_profiles());
    let mut plan = mgr.plan_sparse(1e-3).expect("in-tree fleet is placeable");

    // The simulator's per-slot fault timeline, on a continuous-power fleet.
    let n = peaks.len();
    let timeline = config.faults.map_or(FaultTimeline::empty(n), |fs| {
        let plan = fs
            .scenario
            .plan(fs.seed.unwrap_or(config.seed), duration_s, n);
        FaultTimeline::compile_with_curves(&plan, n, |_, f| f)
    });

    let options = FitOptions {
        min_latency_slack: ONLINE_SLACK_FLOOR,
        ..FitOptions::default()
    };
    let mut slots: Vec<SlotState> = fitted
        .lc()
        .iter()
        .map(|(app, truth, utility)| {
            let full = TenantAllocation::from_counts(&machine, machine.cores(), machine.llc_ways());
            SlotState {
                report: SlotReport {
                    app: app.name().to_string(),
                    requests: 0,
                    violations: 0,
                    worst_p99_ms: 0.0,
                    cores: machine.cores(),
                    ways: machine.llc_ways(),
                },
                truth: truth.clone(),
                utility: utility.clone(),
                fitter: OnlineFitter::new(space.clone(), options.clone(), 24, 3),
                queue: Mm1Queue::new(truth.capacity_rps(&full), 0),
                cap_factor: 1.0,
                fault_drift: 0.0,
                faults_applied: 0,
            }
        })
        .collect();

    // `requests per count unit` → rps at model scale: the slot weights are
    // proportional to the peak loads, so one tick's worth of baseline
    // traffic maps to `multiplier × peak` rps per slot.
    let total_peak: f64 = peaks.iter().sum();
    let scale = total_peak / (config.users as f64 * config.rps_per_user * config.tick_s);

    let mut digest = FNV_OFFSET;
    let mut total_requests = 0u64;
    let mut violating_requests = 0u64;
    let (mut refits, mut replans, mut migrations) = (0u64, 0u64, 0u64);
    let mut gen_seconds = 0.0f64;

    for tick in 0..config.ticks {
        let t = tick as f64 * config.tick_s;
        let started = Instant::now();
        let summary = gen.tick(tick, config.shards, config.parallelism);
        gen_seconds += started.elapsed().as_secs_f64();
        digest = fnv1a_word(digest, summary.digest());
        total_requests += summary.len() as u64;
        let counts = summary.slot_counts(slots.len());

        for (i, slot) in slots.iter_mut().enumerate() {
            slot.apply_faults(timeline.server_events(i), t);
            let cap_factor = slot.cap_factor;
            let count = counts[i];
            slot.report.requests += count;
            let load_rps = count as f64 * scale / config.tick_s;

            // Allocate what the current model demands within the budget.
            let budget = Watts(
                (slot.truth.provisioned_power().0 * cap_factor)
                    .max(slot.utility.min_feasible_power().0),
            );
            let (mut cores, mut ways) = match slot.utility.demand_integral(budget) {
                Ok(a) => (a.amount(0).round() as i64, a.amount(1).round() as i64),
                Err(_) => (1, 1),
            };
            let (dc, dw) = EXPLORE[((tick + i as u64) % 4) as usize];
            cores = (cores + dc).clamp(1, i64::from(machine.cores()));
            ways = (ways + dw).clamp(1, i64::from(machine.llc_ways()));
            let alloc = TenantAllocation::from_counts(&machine, cores as u32, ways as u32);
            slot.report.cores = cores as u32;
            slot.report.ways = ways as u32;

            // Ground truth under drift: flash-crowd traffic is
            // cache-hungrier, so effective capacity gains a ways^drift
            // factor the offline fit never saw.
            let drift = gen.mix().drift_at(t) + slot.fault_drift;
            let ways_frac = f64::from(alloc.ways.count()) / f64::from(machine.llc_ways());
            let cap_eff = (slot.truth.capacity_rps(&alloc) * ways_frac.powf(drift)).max(1e-6);
            slot.queue.set_service_rate(cap_eff);

            let arrivals = (load_rps * config.tick_s).round() as usize;
            let stats = slot.queue.step_batch(arrivals, config.tick_s);
            let p99_ms = stats.p99 * 1e3;
            let slo_ms = slot.truth.slo_p99_ms();
            slot.report.worst_p99_ms = slot.report.worst_p99_ms.max(p99_ms);
            if p99_ms > slo_ms {
                slot.report.violations += count;
                violating_requests += count;
            }

            // Telemetry → online fitter: measured capacity backed out of
            // utilization when the tick carried signal, the drifted truth
            // otherwise.
            let cap_meas = if stats.utilization > 1e-6 && stats.utilization < 0.999 {
                load_rps / stats.utilization
            } else {
                cap_eff
            };
            let sample = ProfileSample::latency_critical(
                space
                    .allocation(vec![cores as f64, ways as f64])
                    .expect("clamped counts are in-space"),
                slot.truth.rho_slo() * cap_meas,
                slot.truth.power_draw(load_rps, &alloc, &power),
                (slo_ms - p99_ms) / slo_ms,
            );
            if slot.fitter.ingest(sample).is_some() {
                refits += 1;
                let drifted = slot.fitter.last_drift().unwrap_or(0.0);
                if config.online_fit {
                    let fresh = slot
                        .fitter
                        .model()
                        .expect("ingest returned a model")
                        .utility
                        .clone();
                    slot.utility = fresh.clone();
                    if drifted > REPLAN_DRIFT {
                        let intents = replan(&mut mgr, &mut plan, i, fresh, cap_factor);
                        replans += 1;
                        migrations += intents as u64;
                    }
                }
            }
        }
    }

    TrafficReport {
        mix: config.spec.kind.name().to_string(),
        shards: config.shards,
        ticks: config.ticks,
        users: config.users,
        requests: total_requests,
        digest: format!("{digest:016x}"),
        online_fit: config.online_fit,
        faults: config.faults.as_ref().map(|f| f.to_string()),
        slo_violation_frac: if total_requests == 0 {
            0.0
        } else {
            violating_requests as f64 / total_requests as f64
        },
        refits,
        replans,
        migrations,
        slots: slots.into_iter().map(|s| s.report).collect(),
        gen_seconds,
    }
}

/// The faults of `scenario` the loop cannot play, by name, in the order
/// they first fire; empty when it injects only what the loop interprets
/// from the simulator's per-slot fault timeline: brownouts and model
/// drift.
/// The loop has no server to take down and no telemetry path to freeze,
/// so a crash or a dropout would be dropped without a word. Which kinds a
/// scenario injects does not depend on its seed, duration or fleet size.
pub fn unmodelled_faults(scenario: Scenario) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for e in scenario.plan(0, 1.0, 1).events() {
        let name = match e.kind {
            FaultKind::BrownoutStart { .. }
            | FaultKind::BrownoutEnd
            | FaultKind::ModelDrift { .. } => continue,
            FaultKind::ServerCrash { .. } | FaultKind::ServerRecover { .. } => "server crashes",
            FaultKind::TelemetryFreezeStart { .. } | FaultKind::TelemetryFreezeEnd { .. } => {
                "telemetry dropouts"
            }
        };
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

impl SlotState {
    /// Applies this slot's timeline actions up to time `t`, in order: a
    /// brownout step sets the cap factor, a drift adds to the model drift.
    fn apply_faults(&mut self, events: &[ServerFaultEvent], t: f64) {
        for event in &events[self.faults_applied..] {
            if event.at_s > t {
                break;
            }
            match event.action {
                ServerFaultAction::SetCapFactor(factor) => self.cap_factor = factor,
                ServerFaultAction::DriftModel { rel, .. } => self.fault_drift += rel,
                ref other => unreachable!("{other:?} is refused by unmodelled_faults"),
            }
            self.faults_applied += 1;
        }
    }
}

/// Repairs the placement around one refitted column; a repair that fails
/// (e.g. transiently infeasible under the shrunk caps) keeps the incumbent
/// rather than aborting the run.
fn replan(
    mgr: &mut ClusterManager,
    plan: &mut PlacementPlan,
    col: usize,
    utility: IndirectUtility,
    cap_factor: f64,
) -> usize {
    mgr.replan_after_refit(plan, col, utility, cap_factor)
        .map(|intents| intents.len())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "run_traffic does not model")]
    fn a_crash_is_refused_not_dropped() {
        let mut config = TrafficConfig::new("steady".parse().unwrap());
        config.faults = Some("crash:3".parse().unwrap());
        run_traffic(&config);
    }
}
