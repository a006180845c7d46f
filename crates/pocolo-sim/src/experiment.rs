//! End-to-end policy experiments: the §V-D comparison of Random, POM and
//! POColo over the uniform 10–90 % load sweep (Figs. 12 and 13).
//!
//! Every run — homogeneous or fleet, in-process or over the wire, one
//! sweep or one load level, open or closed loop — is a [`RunPlan`]
//! compiled once and played through [`Projection`]'s resumable step.

use std::cell::OnceCell;

use pocolo_cluster::{
    migration_diff, Assignment, ClusterManager, PerfMatrix, ServerProfile, Solver,
};
use pocolo_core::fit::{fit_indirect_utility, FitOptions};
use pocolo_core::fleet::PowerCurve;
use pocolo_core::utility::IndirectUtility;
use pocolo_faults::{eviction_order, FaultKind, FaultSpec};
use pocolo_manager::control::READMIT_PAUSE_S;
use pocolo_manager::LcPolicy;
use pocolo_simserver::power::PowerDrawModel;
use pocolo_simserver::MachineSpec;
use pocolo_workloads::profiler::{profile_be, profile_lc, ProfilerConfig};
use pocolo_workloads::{BeApp, BeModel, LcApp, LcModel, LoadTrace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cluster_sim::{run_closed_loop, Projection};
use crate::faults::{FaultTimeline, ServerFaultAction};
use crate::metrics::{ClusterSummary, ServerMetrics};
use crate::parallel::{self, Parallelism};
use crate::server_sim::ServerSim;

/// The policies of §V-D, plus the incremental-growth baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Random placement + power-oblivious (Heracles-style) server
    /// management. The paper's baseline.
    Random {
        /// Seed for both the placement permutation and the server policy.
        seed: u64,
    },
    /// Random placement + incremental-growth server control (the
    /// [`pocolo_manager::ServerController::incremental`] sizing): grow a
    /// core and a way on low slack, trim on verified headroom, never
    /// consult a model.
    Heracles {
        /// Seed for the placement permutation.
        seed: u64,
    },
    /// Random placement + **P**ower **O**ptimized **M**anagement on the
    /// server.
    Pom {
        /// Seed for the placement permutation.
        seed: u64,
    },
    /// Power-optimized placement *and* server management — full Pocolo.
    Pocolo {
        /// Assignment solver (the paper uses an LP solver).
        solver: Solver,
    },
}

impl Policy {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Random { .. } => "Random",
            Policy::Heracles { .. } => "Heracles",
            Policy::Pom { .. } => "POM",
            Policy::Pocolo { .. } => "POColo",
        }
    }
}

/// The wire form: `{"kind": "random", "seed": 7}`, or
/// `{"kind": "pocolo", "solver": "hungarian"}` in the solver's CLI grammar.
impl pocolo_json::ToJson for Policy {
    fn to_json(&self) -> pocolo_json::Value {
        match *self {
            Policy::Random { seed } => pocolo_json::json!({"kind": "random", "seed": seed}),
            Policy::Heracles { seed } => pocolo_json::json!({"kind": "heracles", "seed": seed}),
            Policy::Pom { seed } => pocolo_json::json!({"kind": "pom", "seed": seed}),
            Policy::Pocolo { solver } => {
                pocolo_json::json!({"kind": "pocolo", "solver": solver.to_string()})
            }
        }
    }
}

impl pocolo_json::FromJson for Policy {
    fn from_json(v: &pocolo_json::Value) -> Result<Self, pocolo_json::JsonError> {
        use pocolo_json::JsonError;
        let seed = || v.field("seed");
        match v.field::<String>("kind")?.as_str() {
            "random" => Ok(Policy::Random { seed: seed()? }),
            "heracles" => Ok(Policy::Heracles { seed: seed()? }),
            "pom" => Ok(Policy::Pom { seed: seed()? }),
            "pocolo" => {
                let solver = v.field::<String>("solver")?.parse();
                let solver = solver.map_err(|e| JsonError::new(e).within("solver"))?;
                Ok(Policy::Pocolo { solver })
            }
            other => Err(JsonError::new(format!("unknown policy kind {other:?}")).within("kind")),
        }
    }
}

/// Relative power-meter noise every experiment slot reads its power
/// through: ±1 %, uniform — the error band of the testbed's socket power
/// meters (§V-A; DESIGN §2 substitutes `PowerMeter` for them).
pub const METER_NOISE: f64 = 0.01;

/// Experiment configuration: what a run varies. The control periods are
/// the paper's ([`crate::MANAGER_PERIOD_S`], [`crate::CAPPER_PERIOD_S`]),
/// the meter noise is [`METER_NOISE`], and models are fitted under the
/// default profiler.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Seconds spent at each of the nine load levels.
    pub dwell_s: f64,
    /// Base RNG seed (meters, and a fault schedule whose spec names none).
    pub seed: u64,
    /// Worker-thread budget for sweep cells and per-server runs. Results
    /// are bit-identical across settings; only wall-clock time changes.
    pub parallelism: Parallelism,
    /// Fault scenario to inject, if any. The schedule is seeded from the
    /// spec's own seed (or [`ExperimentConfig::seed`] when absent), so the
    /// whole faulted run replays bit-identically.
    pub faults: Option<FaultSpec>,
    /// Arms the degraded-mode response (blind-feedback fallback, BE
    /// eviction with backoff, budget-shrink re-placement) whenever faults
    /// are injected. With `false` the faults still *happen* but the stack
    /// responds naively.
    pub resilience: bool,
}

impl ExperimentConfig {
    /// Total duration of the nine-level paper sweep this config drives.
    pub fn sweep_duration_s(&self) -> f64 {
        9.0 * self.dwell_s
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            dwell_s: 20.0,
            seed: 0xC0C0,
            parallelism: Parallelism::default(),
            faults: None,
            resilience: true,
        }
    }
}

/// One server's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PairResult {
    /// The primary LC application.
    pub lc: String,
    /// The best-effort co-runner placed on this server.
    pub be: String,
    /// Accumulated metrics.
    pub metrics: ServerMetrics,
}

/// Outcome of one policy experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Policy display name.
    pub policy: String,
    /// Per-server pairings and metrics, in [`LcApp::ALL`] order.
    pub pairs: Vec<PairResult>,
    /// Cluster aggregation.
    pub summary: ClusterSummary,
}

impl ExperimentResult {
    /// Labels each server's metrics with its pairing and aggregates the
    /// cluster summary — the one constructor behind the in-process
    /// engine, the cluster daemon and the scale reference. `None` for an
    /// empty cluster.
    pub fn from_metrics(
        policy: Policy,
        lc: &[impl AsRef<str>],
        placement: &[BeApp],
        metrics: Vec<ServerMetrics>,
    ) -> Option<Self> {
        let summary = ClusterSummary::aggregate(&metrics)?;
        let pairs = metrics
            .into_iter()
            .enumerate()
            .map(|(i, metrics)| PairResult {
                lc: lc[i].as_ref().to_string(),
                be: placement[i].name().to_string(),
                metrics,
            })
            .collect();
        Some(ExperimentResult {
            policy: policy.name().to_string(),
            pairs,
            summary,
        })
    }
}

pocolo_json::impl_to_json!(PairResult { lc, be, metrics });
pocolo_json::impl_to_json!(ExperimentResult {
    policy,
    pairs,
    summary
});

/// Fitted models for every application, reused across policies.
#[derive(Debug, Clone)]
pub struct FittedCluster {
    machine: MachineSpec,
    lc: Vec<(LcApp, LcModel, IndirectUtility)>,
    be: Vec<(BeApp, BeModel, IndirectUtility)>,
}

impl FittedCluster {
    /// Profiles and fits all eight applications on the paper's Xeon
    /// E5-2650 testbed machine.
    pub fn fit(profiler: &ProfilerConfig) -> Self {
        Self::fit_on(profiler, MachineSpec::xeon_e5_2650())
    }

    /// Profiles and fits all eight applications on an arbitrary machine —
    /// the per-SKU entry point heterogeneous fleets use (one fit per
    /// server class, see `crate::fleet::FittedFleet`).
    pub fn fit_on(profiler: &ProfilerConfig, machine: MachineSpec) -> Self {
        let power = PowerDrawModel::new(machine.clone());
        let space = machine.resource_space();
        let lc = LcApp::ALL
            .iter()
            .map(|&app| {
                let truth = LcModel::for_app(app, machine.clone());
                let samples = profile_lc(&truth, &power, &space, profiler);
                let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default())
                    .expect("LC profile grid is well-conditioned")
                    .utility;
                (app, truth, fitted)
            })
            .collect();
        let be = BeApp::ALL
            .iter()
            .map(|&app| {
                let truth = BeModel::for_app(app, machine.clone());
                let samples = profile_be(&truth, &power, &space, profiler);
                let fitted = fit_indirect_utility(&space, &samples, &FitOptions::default())
                    .expect("BE profile grid is well-conditioned")
                    .utility;
                (app, truth, fitted)
            })
            .collect();
        FittedCluster { machine, lc, be }
    }

    /// The machine spec.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Fitted LC entries `(app, ground truth, fitted utility)`.
    pub fn lc(&self) -> &[(LcApp, LcModel, IndirectUtility)] {
        &self.lc
    }

    /// Fitted BE entries.
    pub fn be(&self) -> &[(BeApp, BeModel, IndirectUtility)] {
        &self.be
    }

    /// Cluster-manager server profiles from the fitted LC models.
    pub fn server_profiles(&self) -> Vec<ServerProfile> {
        self.lc
            .iter()
            .map(|(app, truth, fitted)| ServerProfile {
                label: app.name().to_string(),
                utility: fitted.clone(),
                power_cap: truth.provisioned_power(),
                peak_load: truth.peak_load_rps(),
            })
            .collect()
    }

    /// Fitted BE utilities labelled for the cluster manager.
    pub fn be_profiles(&self) -> Vec<(String, IndirectUtility)> {
        self.be
            .iter()
            .map(|(app, _, fitted)| (app.name().to_string(), fitted.clone()))
            .collect()
    }

    /// What a [`RunPlan`] over this cluster compiles from: this one fit on
    /// every slot, an unkeyed manager, and hardware that holds any
    /// requested cap factor exactly.
    pub fn plan_inputs(&self) -> PlanInputs<'_> {
        let n = self.lc.len();
        PlanInputs {
            fits: vec![self; n],
            manager: ClusterManager::new(self.be_profiles(), self.server_profiles()),
            curves: vec![&PowerCurve::Linear; n],
            replan_sees_curves: true,
            matrix: OnceCell::new(),
        }
    }

    /// Decides the placement for a policy: which BE app runs on each LC
    /// server (index-aligned with [`FittedCluster::lc`]).
    pub fn placement(&self, policy: Policy) -> Vec<BeApp> {
        self.plan_inputs().place(policy)
    }
}

/// What a [`RunPlan`] is compiled from, and the planning steps over it.
/// The paper's homogeneous testbed ([`FittedCluster::plan_inputs`]) is
/// the one-class case of a fleet
/// (`crate::fleet::FittedFleet::plan_inputs`), not a second pipeline.
#[derive(Debug, Clone)]
pub struct PlanInputs<'a> {
    /// The fit governing each server slot (its class's).
    pub(crate) fits: Vec<&'a FittedCluster>,
    /// The cluster manager that places and replans.
    pub(crate) manager: ClusterManager,
    /// Each slot's power curve: the cap factor its hardware actually
    /// holds under a requested brownout. The physics always obey it.
    pub(crate) curves: Vec<&'a PowerCurve>,
    /// Whether brownout replans derate each slot through its curve, or
    /// assume the raw requested factor (a SKU-blind manager).
    pub(crate) replan_sees_curves: bool,
    /// The manager's performance matrix. Placement, eviction ranks and
    /// the replan incumbent all read it, so it is built at most once —
    /// and not at all for a clean run under a random-placement policy.
    pub(crate) matrix: OnceCell<PerfMatrix>,
}

/// Relative improvement below which a brownout replan keeps the incumbent
/// placement: migrations cost a warm-up pause each, so a marginally
/// better plan is not worth the thrash.
const REPLAN_HYSTERESIS: f64 = 0.05;

/// A placement as performance-matrix `(BE row, server column)` pairs.
pub(crate) fn placement_pairs(placement: &[BeApp]) -> Vec<(usize, usize)> {
    let row = |be| BeApp::ALL.iter().position(|&a| a == be);
    placement
        .iter()
        .enumerate()
        .map(|(server, &be)| (row(be).expect("every BE app is a matrix row"), server))
        .collect()
}

impl PlanInputs<'_> {
    fn matrix(&self) -> &PerfMatrix {
        self.matrix.get_or_init(|| {
            self.manager
                .performance_matrix()
                .expect("fitted models are well-formed")
        })
    }

    fn place(&self, policy: Policy) -> Vec<BeApp> {
        match policy {
            Policy::Random { seed } | Policy::Heracles { seed } | Policy::Pom { seed } => {
                let mut order = BeApp::ALL.to_vec();
                order.shuffle(&mut StdRng::seed_from_u64(seed));
                order
            }
            Policy::Pocolo { solver } => {
                let assignment = pocolo_cluster::assign::solve(self.matrix(), solver)
                    .expect("the placement is solvable");
                let mut out = vec![BeApp::Lstm; self.fits.len()];
                for (row, col) in assignment.pairs {
                    out[col] = BeApp::ALL[row];
                }
                out
            }
        }
    }

    /// Compiles the per-server fault timeline and the cluster-wide
    /// eviction ranks (each co-runner ranked by its matrix value
    /// ascending, so the *lowest*-value pairing is shed first). With
    /// `resilience` armed, every brownout in the plan is also re-solved
    /// on the shrunk budget (with hysteresis) and the resulting
    /// migrations are scheduled as [`ServerFaultAction::ReplaceBe`]
    /// actions at the brownout start — computed *up front* from the
    /// fitted models, so the faulted run stays a static per-server event
    /// schedule.
    fn faults(
        &self,
        placement: &[BeApp],
        spec: &FaultSpec,
        base_seed: u64,
        duration_s: f64,
        resilience: bool,
    ) -> (FaultTimeline, Vec<usize>) {
        let (curves, n) = (&self.curves, placement.len());
        let plan = spec
            .scenario
            .plan(spec.seed.unwrap_or(base_seed), duration_s, n);
        let mut timeline =
            FaultTimeline::compile_with_curves(&plan, n, |s, f| curves[s].effective_cap_factor(f));
        let pairs = placement_pairs(placement);
        let values: Vec<f64> = pairs
            .iter()
            .map(|&(row, server)| self.matrix().value(row, server))
            .collect();
        let mut ranks = vec![0; n];
        for (rank, &server) in eviction_order(&values).iter().enumerate() {
            ranks[server] = rank;
        }
        if resilience {
            let incumbent = Assignment::new(pairs.clone(), self.matrix().assignment_value(&pairs));
            for event in plan.events() {
                let FaultKind::BrownoutStart { cap_factor } = &event.kind else {
                    continue;
                };
                let factors: Vec<f64> = curves
                    .iter()
                    .map(|curve| match self.replan_sees_curves {
                        true => curve.effective_cap_factor(*cap_factor),
                        false => *cap_factor,
                    })
                    .collect();
                let Ok(replan) = self.manager.replan_under_budget(
                    &factors,
                    &incumbent,
                    REPLAN_HYSTERESIS,
                    Solver::Hungarian,
                ) else {
                    continue;
                };
                for (row, server) in migration_diff(&incumbent, &replan) {
                    // The migrating co-runner's models come from the
                    // *slot's* fit: the server knows its own machine even
                    // when the cluster plan was blind.
                    let (_, truth, fit) = &self.fits[server].be[row];
                    timeline.push(
                        server,
                        event.at_s,
                        ServerFaultAction::ReplaceBe {
                            be_truth: Some(Box::new(truth.clone())),
                            be_fitted: Some(Box::new(fit.clone())),
                            pause_s: READMIT_PAUSE_S,
                        },
                    );
                }
            }
        }
        (timeline, ranks)
    }
}

/// Compiles the per-server fault timeline and eviction ranks for a run
/// over a given placement: the plan drawn from the spec's seed (falling
/// back to `base_seed`), plus — when `resilience` is armed — the up-front
/// brownout replan migrations. Deterministic in its arguments, so the
/// in-process engine and a remote agent that compiles its own copy agree
/// event-for-event.
pub fn compile_fault_plan(
    spec: &FaultSpec,
    base_seed: u64,
    duration_s: f64,
    fitted: &FittedCluster,
    placement: &[BeApp],
    resilience: bool,
) -> (FaultTimeline, Vec<usize>) {
    fitted
        .plan_inputs()
        .faults(placement, spec, base_seed, duration_s, resilience)
}

/// One run, compiled once and played any number of times: the placement,
/// the eviction ranks and the per-server fault timeline for a (policy,
/// config, duration). None of them depends on the load trace, so a sweep
/// compiles one plan per policy and plays it per load level; every play
/// rebuilds its servers from [`SlotSpec`]s, so no state carries over.
#[derive(Debug, Clone)]
pub struct RunPlan<'a> {
    policy: Policy,
    config: ExperimentConfig,
    duration_s: f64,
    fits: Vec<&'a FittedCluster>,
    placement: Vec<BeApp>,
    ranks: Vec<usize>,
    timeline: FaultTimeline,
}

impl<'a> RunPlan<'a> {
    /// Solves the policy's placement, then compiles the fault schedule
    /// `config` asks for over `duration_s` simulated seconds.
    pub fn compile(
        inputs: PlanInputs<'a>,
        policy: Policy,
        config: &ExperimentConfig,
        duration_s: f64,
    ) -> Self {
        let placement = inputs.place(policy);
        Self::with_placement(inputs, policy, placement, config, duration_s)
    }

    /// Like [`RunPlan::compile`] over a placement solved elsewhere — how
    /// a wire agent rebuilds the plan its cluster daemon shipped.
    pub fn with_placement(
        inputs: PlanInputs<'a>,
        policy: Policy,
        placement: Vec<BeApp>,
        config: &ExperimentConfig,
        duration_s: f64,
    ) -> Self {
        let n = placement.len();
        let (timeline, ranks) = match &config.faults {
            Some(spec) => {
                inputs.faults(&placement, spec, config.seed, duration_s, config.resilience)
            }
            None => (FaultTimeline::empty(n), vec![0; n]),
        };
        RunPlan {
            policy,
            config: config.clone(),
            duration_s,
            fits: inputs.fits,
            placement,
            ranks,
            timeline,
        }
    }

    /// The BE co-runner placed on each slot.
    pub fn placement(&self) -> &[BeApp] {
        &self.placement
    }

    /// Cluster-wide eviction rank of each slot's pairing (all zero on a
    /// clean run, where nothing consults them).
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Builds the server `spec` describes from its slot's fit and drives
    /// it through that slot's fault events for the plan's duration (one
    /// [`Projection`] advanced to the end), calling `on_epoch(now_s,
    /// server)` after every manager tick — a wire agent's telemetry
    /// cadence; returning `false` abandons the run (an agent dying
    /// mid-run). The wire agent and the degraded re-run go through here.
    pub fn run_slot(
        &self,
        spec: &SlotSpec,
        on_epoch: impl FnMut(f64, &mut ServerSim) -> bool,
    ) -> ServerSim {
        let mut sim = spec.build(self.fits[spec.server]);
        Projection::new(self.timeline.server_events(spec.server), self.duration_s).advance(
            &mut sim,
            f64::INFINITY,
            on_epoch,
        );
        sim
    }

    /// Plays the plan open loop against one load trace, one worker per
    /// slot up to `parallelism`, and returns the result plus — when
    /// `record_decisions` is set — every server's [`DecisionTrace`] (the
    /// CLI's `--decision-log` source; recording does not change a bit of
    /// the result). This is [`RunPlan::play_closed_loop`] with no barrier:
    /// one uninterrupted advance per slot. Servers never observe each
    /// other (faults are precompiled per slot), so the result is
    /// bit-identical at any worker count.
    pub fn play(
        &self,
        trace: &LoadTrace,
        parallelism: Parallelism,
        record_decisions: bool,
    ) -> (ExperimentResult, Vec<DecisionTrace>) {
        let traces = vec![trace.clone(); self.placement.len()];
        self.play_closed_loop(traces, parallelism, record_decisions, &[], |_, _| {
            Vec::new()
        })
    }

    /// Plays the plan with slot `i` driven by `traces[i]`, under a
    /// cluster `controller` that acts at each of the `barriers`: the
    /// closed loop of [`run_closed_loop`], which states what the
    /// controller may read and when its actions land. The result labels
    /// every slot with the co-runner the plan placed there, whatever the
    /// controller moved in later.
    ///
    /// # Panics
    ///
    /// Panics unless there is one trace per slot; see also
    /// [`run_closed_loop`].
    pub fn play_closed_loop(
        &self,
        traces: Vec<LoadTrace>,
        parallelism: Parallelism,
        record_decisions: bool,
        barriers: &[f64],
        controller: impl FnMut(f64, &[ServerSim]) -> Vec<(usize, ServerFaultAction)>,
    ) -> (ExperimentResult, Vec<DecisionTrace>) {
        let n = self.placement.len();
        assert_eq!(traces.len(), n, "one load trace per slot");
        let sims = traces
            .into_iter()
            .enumerate()
            .map(|(server, trace)| {
                let spec = SlotSpec {
                    server,
                    policy: self.policy,
                    be: self.placement[server],
                    rank: self.ranks[server],
                    trace,
                    meter_noise: METER_NOISE,
                    seed: self.config.seed,
                    faulted: self.config.faults.is_some(),
                    resilience: self.config.resilience,
                    record_decisions,
                };
                spec.build(self.fits[server])
            })
            .collect();
        let sims = run_closed_loop(
            sims,
            &self.timeline,
            self.duration_s,
            parallelism,
            barriers,
            controller,
        );
        let lc: Vec<&str> = (0..n).map(|s| self.fits[s].lc[s].0.name()).collect();
        let traces = sims
            .iter()
            .enumerate()
            .filter(|_| record_decisions)
            .map(|(s, sim)| DecisionTrace {
                server: s,
                lc: lc[s].to_string(),
                be: self.placement[s].name().to_string(),
                records: sim.decision_records().to_vec(),
            })
            .collect();
        let metrics = sims.iter().map(|s| s.metrics().clone()).collect();
        let result = ExperimentResult::from_metrics(self.policy, &lc, &self.placement, metrics)
            .expect("a plan has at least one slot");
        (result, traces)
    }
}

/// Runs one policy through the full load sweep and returns its results.
pub fn run_experiment(policy: Policy, config: &ExperimentConfig) -> ExperimentResult {
    let fitted = FittedCluster::fit(&ProfilerConfig::default());
    run_experiment_with(policy, config, &fitted)
}

/// Like [`run_experiment`] but reuses pre-fitted models (so policy
/// comparisons share identical fits).
pub fn run_experiment_with(
    policy: Policy,
    config: &ExperimentConfig,
    fitted: &FittedCluster,
) -> ExperimentResult {
    let duration_s = config.sweep_duration_s();
    let plan = RunPlan::compile(fitted.plan_inputs(), policy, config, duration_s);
    let trace = LoadTrace::paper_sweep(config.dwell_s);
    plan.play(&trace, config.parallelism, false).0
}

/// Runs a policy at each load level separately (constant-load runs of
/// `config.dwell_s` each), returning `(level, summary)` pairs — the
/// per-level detail behind the paper's averaged Fig. 12/13 bars.
pub fn run_level_sweep(
    policy: Policy,
    config: &ExperimentConfig,
    fitted: &FittedCluster,
    levels: &[f64],
) -> Vec<(f64, ClusterSummary)> {
    run_policy_sweeps(&[policy], config, fitted, levels)
        .pop()
        .expect("one policy in, one sweep out")
}

/// Runs every (policy, load level) cell of a sweep, fanning the
/// independent cells out across `config.parallelism` worker threads, and
/// returns one `(level, summary)` list per policy in input order.
///
/// One [`RunPlan`] is compiled per policy and played at every level.
/// Each play is a self-contained seeded simulation, so the output is
/// bit-identical to a serial run; within a cell the cluster itself runs
/// serially to avoid oversubscribing the worker pool.
pub fn run_policy_sweeps(
    policies: &[Policy],
    config: &ExperimentConfig,
    fitted: &FittedCluster,
    levels: &[f64],
) -> Vec<Vec<(f64, ClusterSummary)>> {
    let plans: Vec<RunPlan> = policies
        .iter()
        .map(|&policy| RunPlan::compile(fitted.plan_inputs(), policy, config, config.dwell_s))
        .collect();
    let cells: Vec<(usize, f64)> = (0..plans.len())
        .flat_map(|p| levels.iter().map(move |&level| (p, level)))
        .collect();
    let results = parallel::map(config.parallelism, cells, |(p, level)| {
        let (result, _) = plans[p].play(&LoadTrace::Constant(level), Parallelism::Serial, false);
        (p, level, result.summary)
    });
    let mut sweeps: Vec<Vec<(f64, ClusterSummary)>> = vec![Vec::new(); policies.len()];
    for (p, level, summary) in results {
        sweeps[p].push((level, summary));
    }
    sweeps
}

/// Everything one server slot needs to rebuild its [`ServerSim`]
/// bit-identically on either side of a process boundary. The in-process
/// engine and the wire-path agent both construct their backends through
/// this spec, so the two paths cannot drift.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSpec {
    /// Server index (in [`LcApp::ALL`] order).
    pub server: usize,
    /// The policy governing controller choice and proactive BE planning.
    pub policy: Policy,
    /// The best-effort co-runner placed on this server.
    pub be: BeApp,
    /// Cluster-wide eviction rank of this pairing (ascending
    /// performance-matrix value; only consulted when resilience is armed).
    pub rank: usize,
    /// Load trace driving the primary.
    pub trace: LoadTrace,
    /// Relative power-meter noise.
    pub meter_noise: f64,
    /// Base experiment seed; the slot derives its own RNG stream from it.
    pub seed: u64,
    /// Whether faults are injected this run (arms the fault physics even
    /// when the resilient response is disabled).
    pub faulted: bool,
    /// Whether the degraded-mode response is armed.
    pub resilience: bool,
    /// Record per-epoch controller decisions for tracing.
    pub record_decisions: bool,
}

impl SlotSpec {
    /// Builds the server backend this spec describes from locally-fitted
    /// models.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range for the fitted cluster.
    pub fn build(&self, fitted: &FittedCluster) -> ServerSim {
        assert!(
            self.server < fitted.lc.len(),
            "slot {} out of range for a {}-server cluster",
            self.server,
            fitted.lc.len()
        );
        let (_, truth, fit) = &fitted.lc[self.server];
        let i = self.server;
        let be_truth = fitted
            .be
            .iter()
            .find(|(a, _, _)| *a == self.be)
            .map(|(_, t, _)| t.clone());
        let lc_policy = match self.policy {
            // Power-oblivious baseline: a feasible indifference-curve
            // point chosen without regard to power, re-drawn every
            // control epoch.
            Policy::Random { seed } => LcPolicy::heracles_random(seed ^ (i as u64)),
            // The incremental controller never consults the policy.
            Policy::Heracles { .. } | Policy::Pom { .. } | Policy::Pocolo { .. } => {
                LcPolicy::PowerOptimized
            }
        };
        let be_fitted = fitted
            .be
            .iter()
            .find(|(a, _, _)| *a == self.be)
            .map(|(_, _, f)| f.clone());
        let sim = ServerSim::new(
            truth.clone(),
            fit.clone(),
            be_truth,
            lc_policy,
            self.trace.clone(),
            truth.provisioned_power(),
            self.meter_noise,
            self.seed ^ ((i as u64) << 8),
        );
        let sim = match (self.policy, be_fitted) {
            // Power-optimized policies plan the secondary proactively
            // with the fitted model; the baselines are purely reactive.
            (Policy::Pom { .. } | Policy::Pocolo { .. }, Some(bf)) => sim.with_proactive_be(bf),
            _ => sim,
        };
        let sim = match self.policy {
            Policy::Heracles { .. } => sim.with_incremental_control(),
            _ => sim,
        };
        let sim = if !self.faulted {
            sim
        } else if self.resilience {
            sim.with_resilience(self.rank)
        } else {
            sim.with_fault_physics()
        };
        if self.record_decisions {
            sim.with_decision_log()
        } else {
            sim
        }
    }
}

/// One server's decision trace from a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTrace {
    /// Server index (in [`LcApp::ALL`] order).
    pub server: usize,
    /// The primary LC application.
    pub lc: String,
    /// The best-effort co-runner placed on this server.
    pub be: String,
    /// Per-epoch decision records, in tick order.
    pub records: Vec<pocolo_manager::DecisionRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            dwell_s: 6.0,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn experiment_result_json_is_pinned() {
        use pocolo_json::ToJson;
        let mut idle = ServerMetrics::new(pocolo_core::units::Watts(90.0));
        idle.record(1.0, pocolo_core::units::Watts(60.0), 0.0, 0.1, false, false);
        let policy = Policy::Pom { seed: 5 };
        let result = ExperimentResult::from_metrics(policy, &["tpcc"], &[BeApp::Pbzip], vec![idle]);
        let result = result.unwrap();
        // No BE throughput at all: ∞ energy per unit is written as null.
        let json = result.to_json();
        assert_eq!(
            json.to_compact_string(),
            r#"{"policy":"POM","pairs":[{"lc":"tpcc","be":"pbzip","metrics":{"duration_s":1,"energy":60,"peak_power":60,"power_cap":90,"be_throughput_avg":0,"lc_violation_frac":0,"capping_frac":0,"samples":1,"time_to_recover_s":0,"slo_violation_frac_during_fault":0,"evictions":0,"be_integral":0,"violation_time":0,"capping_events":0,"fault_time":0,"fault_violation_time":0}}],"summary":{"avg_be_throughput":0,"avg_power_utilization":0.6666666666666666,"total_energy":60,"energy_per_throughput":null,"worst_violation_frac":0,"avg_capping_frac":0,"time_to_recover_s":0,"slo_violation_frac_during_fault":0,"evictions":0}}"#
        );
    }

    #[test]
    fn placement_policies_are_valid_permutations() {
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        for policy in [
            Policy::Random { seed: 3 },
            Policy::Pom { seed: 3 },
            Policy::Pocolo {
                solver: Solver::Hungarian,
            },
        ] {
            let p = fitted.placement(policy);
            let mut names: Vec<&str> = p.iter().map(|a| a.name()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 4, "{policy:?} must place each BE app once");
        }
    }

    #[test]
    fn pocolo_placement_matches_cluster_manager_pairings() {
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let p = fitted.placement(Policy::Pocolo {
            solver: Solver::Hungarian,
        });
        // lc order: img-dnn, sphinx, xapian, tpcc.
        assert_eq!(p[0], BeApp::Lstm);
        assert_eq!(p[1], BeApp::Graph);
    }

    #[test]
    fn policy_ordering_matches_paper() {
        // The headline §V-D result: POColo > POM > Random on BE throughput,
        // and Random draws the most power.
        let config = quick_config();
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let random = run_experiment_with(Policy::Random { seed: 1 }, &config, &fitted);
        let pom = run_experiment_with(Policy::Pom { seed: 1 }, &config, &fitted);
        let pocolo = run_experiment_with(
            Policy::Pocolo {
                solver: Solver::Hungarian,
            },
            &config,
            &fitted,
        );
        assert!(
            pom.summary.avg_be_throughput > random.summary.avg_be_throughput,
            "POM {} should beat Random {}",
            pom.summary.avg_be_throughput,
            random.summary.avg_be_throughput
        );
        assert!(
            pocolo.summary.avg_be_throughput > pom.summary.avg_be_throughput * 0.99,
            "POColo {} should be at least POM {}",
            pocolo.summary.avg_be_throughput,
            pom.summary.avg_be_throughput
        );
        assert!(
            random.summary.avg_power_utilization > pom.summary.avg_power_utilization,
            "Random util {} should exceed POM {}",
            random.summary.avg_power_utilization,
            pom.summary.avg_power_utilization
        );
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        // The tentpole determinism guarantee: the worker-thread fan-out
        // must not change a single bit of any result, for any policy.
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let levels = [0.2, 0.5, 0.8];
        for policy in [
            Policy::Random { seed: 11 },
            Policy::Pom { seed: 11 },
            Policy::Pocolo {
                solver: Solver::Hungarian,
            },
        ] {
            let serial_cfg = ExperimentConfig {
                dwell_s: 4.0,
                parallelism: Parallelism::Serial,
                ..ExperimentConfig::default()
            };
            let parallel_cfg = ExperimentConfig {
                parallelism: Parallelism::Fixed(4),
                ..serial_cfg.clone()
            };
            let serial = run_level_sweep(policy, &serial_cfg, &fitted, &levels);
            let fanned = run_level_sweep(policy, &parallel_cfg, &fitted, &levels);
            assert_eq!(serial, fanned, "{policy:?} sweep diverged under Fixed(4)");

            let serial_full = run_experiment_with(policy, &serial_cfg, &fitted);
            let fanned_full = run_experiment_with(policy, &parallel_cfg, &fitted);
            assert_eq!(
                serial_full, fanned_full,
                "{policy:?} experiment diverged under Fixed(4)"
            );
        }
    }

    #[test]
    fn policy_sweeps_cover_the_cross_product() {
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let config = ExperimentConfig {
            dwell_s: 3.0,
            ..ExperimentConfig::default()
        };
        let policies = [Policy::Random { seed: 2 }, Policy::Pom { seed: 2 }];
        let levels = [0.3, 0.7];
        let sweeps = run_policy_sweeps(&policies, &config, &fitted, &levels);
        assert_eq!(sweeps.len(), 2);
        for (sweep, policy) in sweeps.iter().zip(&policies) {
            let got: Vec<f64> = sweep.iter().map(|(l, _)| *l).collect();
            assert_eq!(got, levels, "{policy:?} levels out of order");
            // Each cell matches an independent single-policy run.
            let solo = run_level_sweep(*policy, &config, &fitted, &levels);
            assert_eq!(*sweep, solo);
        }
    }

    #[test]
    fn faulted_experiment_is_bit_identical_across_parallelism() {
        use pocolo_faults::Scenario;
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        for scenario in Scenario::ALL {
            for resilience in [false, true] {
                let serial_cfg = ExperimentConfig {
                    dwell_s: 3.0,
                    parallelism: Parallelism::Serial,
                    faults: Some(FaultSpec {
                        scenario,
                        seed: Some(5),
                    }),
                    resilience,
                    ..ExperimentConfig::default()
                };
                let parallel_cfg = ExperimentConfig {
                    parallelism: Parallelism::Fixed(4),
                    ..serial_cfg.clone()
                };
                let policy = Policy::Pocolo {
                    solver: Solver::Hungarian,
                };
                let serial = run_experiment_with(policy, &serial_cfg, &fitted);
                let fanned = run_experiment_with(policy, &parallel_cfg, &fitted);
                assert_eq!(
                    serial, fanned,
                    "{scenario:?} resilience={resilience} diverged under Fixed(4)"
                );
            }
        }
    }

    #[test]
    fn fault_seed_controls_the_schedule() {
        use pocolo_faults::Scenario;
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let cfg = |seed: u64| ExperimentConfig {
            dwell_s: 3.0,
            faults: Some(FaultSpec {
                scenario: Scenario::Chaos,
                seed: Some(seed),
            }),
            ..ExperimentConfig::default()
        };
        let policy = Policy::Pocolo {
            solver: Solver::Hungarian,
        };
        let a = run_experiment_with(policy, &cfg(1), &fitted);
        let b = run_experiment_with(policy, &cfg(1), &fitted);
        assert_eq!(a, b, "same fault seed must replay bit-identically");
        let c = run_experiment_with(policy, &cfg(2), &fitted);
        assert_ne!(
            a.summary, c.summary,
            "a different fault seed should draw a different schedule"
        );
    }

    #[test]
    fn results_are_reproducible() {
        let config = quick_config();
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let a = run_experiment_with(Policy::Pom { seed: 9 }, &config, &fitted);
        let b = run_experiment_with(Policy::Pom { seed: 9 }, &config, &fitted);
        assert_eq!(a, b);
    }

    #[test]
    fn slo_is_respected_under_all_policies() {
        let config = quick_config();
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        for policy in [
            Policy::Random { seed: 2 },
            Policy::Pom { seed: 2 },
            Policy::Pocolo { solver: Solver::Lp },
        ] {
            let r = run_experiment_with(policy, &config, &fitted);
            assert!(
                r.summary.worst_violation_frac < 0.25,
                "{}: violations {} should be transient (load-step edges)",
                r.policy,
                r.summary.worst_violation_frac
            );
        }
    }

    // The compile budget: what a plan may spend on model inversions,
    // counted on this thread around the compile step only (the managers'
    // own ticks invert too, so plays are measured separately).
    use pocolo_core::utility::min_power_solves_on_thread as solves;
    use pocolo_faults::Scenario;

    const POCOLO: Policy = Policy::Pocolo {
        solver: Solver::Hungarian,
    };

    fn chaos_config(dwell_s: f64) -> ExperimentConfig {
        ExperimentConfig {
            dwell_s,
            parallelism: Parallelism::Serial,
            faults: Some(FaultSpec {
                scenario: Scenario::Chaos,
                seed: Some(7),
            }),
            ..ExperimentConfig::default()
        }
    }

    /// Inversions one performance-matrix build costs.
    fn matrix_build_solves(fitted: &FittedCluster) -> u64 {
        let before = solves();
        let manager = fitted.plan_inputs().manager;
        manager.performance_matrix().unwrap();
        solves() - before
    }

    fn compile_solves(fitted: &FittedCluster, policy: Policy, config: &ExperimentConfig) -> u64 {
        let (before, duration_s) = (solves(), config.sweep_duration_s());
        let _ = RunPlan::compile(fitted.plan_inputs(), policy, config, duration_s);
        solves() - before
    }

    #[test]
    fn a_clean_plan_costs_at_most_one_matrix_build() {
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let build = matrix_build_solves(&fitted);
        assert!(build > 0);
        let clean = ExperimentConfig::default();
        assert_eq!(compile_solves(&fitted, POCOLO, &clean), build);
        assert_eq!(compile_solves(&fitted, Policy::Pom { seed: 1 }, &clean), 0);
    }

    #[test]
    fn a_faulted_plan_costs_one_matrix_build_plus_one_per_brownout_replan() {
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let build = matrix_build_solves(&fitted);
        let config = chaos_config(6.0);
        let replans = Scenario::Chaos
            .plan(7, config.sweep_duration_s(), 4)
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::BrownoutStart { .. }))
            .count() as u64;
        assert!(replans > 0, "chaos:7 must brown out");
        for policy in [POCOLO, Policy::Random { seed: 1 }] {
            let solves = compile_solves(&fitted, policy, &config);
            assert_eq!(solves, (1 + replans) * build, "{policy:?}");
        }
        let naive = ExperimentConfig {
            resilience: false,
            ..config
        };
        assert_eq!(compile_solves(&fitted, POCOLO, &naive), build);
    }

    #[test]
    fn a_policy_sweep_compiles_one_plan_per_policy() {
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let config = chaos_config(2.0);
        let policies = [POCOLO, Policy::Pom { seed: 3 }];
        let levels: Vec<f64> = (1..=9).map(|i| f64::from(i) / 10.0).collect();
        let mut budget = 0;
        for policy in policies {
            let before = solves();
            let plan = RunPlan::compile(fitted.plan_inputs(), policy, &config, config.dwell_s);
            for &level in &levels {
                plan.play(&LoadTrace::Constant(level), Parallelism::Serial, false);
            }
            budget += solves() - before;
        }
        let before = solves();
        run_policy_sweeps(&policies, &config, &fitted, &levels);
        assert_eq!(solves() - before, budget);
    }

    #[test]
    fn a_silent_controller_leaves_every_result_bit_equal_to_play() {
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let clean = ExperimentConfig {
            dwell_s: 2.0,
            ..ExperimentConfig::default()
        };
        let naive = ExperimentConfig {
            resilience: false,
            ..chaos_config(2.0)
        };
        let cases = [
            (Policy::Random { seed: 5 }, clean.clone()),
            (Policy::Heracles { seed: 5 }, clean.clone()),
            (Policy::Pom { seed: 5 }, clean.clone()),
            (POCOLO, clean),
            (POCOLO, chaos_config(2.0)),
            (POCOLO, naive),
        ];
        // Before the first event, on manager ticks, off the tick grid, at
        // the very end.
        let seven = [0.0, 1.0, 2.25, 5.0, 9.95, 17.0, 18.0];
        let trace = LoadTrace::paper_sweep(2.0);
        for (policy, config) in cases {
            let plan = RunPlan::compile(fitted.plan_inputs(), policy, &config, 18.0);
            let open = plan.play(&trace, Parallelism::Serial, false);
            let faulted = open.0.pairs.iter().any(|p| p.metrics.fault_time_s() > 0.0);
            assert_eq!(faulted, config.faults.is_some());
            for parallelism in [Parallelism::Serial, Parallelism::Fixed(4)] {
                for barriers in [&[9.0][..], &seven] {
                    let mut calls = 0;
                    let closed = plan.play_closed_loop(
                        vec![trace.clone(); 4],
                        parallelism,
                        false,
                        barriers,
                        |_, servers| {
                            calls += 1;
                            assert_eq!(servers.len(), 4);
                            Vec::new()
                        },
                    );
                    assert_eq!(calls, barriers.len());
                    assert_eq!(
                        open, closed,
                        "{policy:?} faults={:?} resilience={} {parallelism:?} {barriers:?}",
                        config.faults, config.resilience
                    );
                }
            }
        }
    }

    /// The controller paths no CLI gate pins — the Heracles branch clean,
    /// resilient and naive under chaos, the POM governor under a brownout,
    /// and POColo under chaos — at dwell 2: every summary field by
    /// `to_bits()`, and an FNV-1a over every decision record (`Debug`
    /// prints each `f64` in its shortest round-trip form, so the digest
    /// is bit-exact). Captured on the tree before the two controllers and
    /// their tuning structs were merged (PR 25).
    #[test]
    fn controller_paths_match_their_pre_merge_goldens() {
        use pocolo_core::digest::{fnv1a, FNV_OFFSET};
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let clean = ExperimentConfig {
            dwell_s: 2.0,
            parallelism: Parallelism::Serial,
            ..ExperimentConfig::default()
        };
        let faulted = |spec: &str, resilience| ExperimentConfig {
            faults: Some(spec.parse().unwrap()),
            resilience,
            ..clean.clone()
        };
        let heracles = Policy::Heracles { seed: 1 };
        #[rustfmt::skip]
        let cases: [(Policy, ExperimentConfig, [u64; 8], usize, u64); 5] = [
            (heracles, clean.clone(), [
                0x3fde637bef08f458, 0x3feb36ae886bf9bc, 0x40c1e6ad8325819b, 0x40b2d9adee6f2eaa,
                0x3fd8e38e38e38e36, 0x3f99999999999999, 0, 0,
            ], 0, 0x324b1ef83634ccab),
            (heracles, faulted("chaos:7", true), [
                0x3fd6edf3db3c3b86, 0x3fe818c2855d9203, 0x40c00bf74680d84f, 0x40b66500d17cb093,
                0x3fe16c16c16c16bc, 0x3fb16c16c16c16c2, 0x4006666666666668, 0x3fe2aaaaaaaaaab0,
            ], 1, 0x3bd1be84ff87c164),
            (heracles, faulted("chaos:7", false), [
                0x3fdc38bcee7f9166, 0x3fe90fc951d0f460, 0x40c09c40f36f44f9, 0x40b2d58dc06bd506,
                0x3fe13e93e93e93e4, 0x3fb3333333333334, 0x4006666666666668, 0x3fe2aaaaaaaaaab0,
            ], 1, 0xa4b6302f5fe32cd4),
            (Policy::Pom { seed: 1 }, faulted("brownout:1", true), [
                0x3fcd86ec1dfc1d0c, 0x3fe7825e5b9f73a2, 0x40beef35db31fdfe, 0x40c0c33b4447b5d1,
                0x3fd4444444444445, 0x3fbddddddddddddd, 0x3fb9999999999980, 0x3fe955555555555a,
            ], 4, 0xec1f9562a20b8131),
            (POCOLO, faulted("chaos:7", true), [
                0x3fd1c78ca3c38e0c, 0x3fe78044cc94ae24, 0x40bf2f6b18665eef, 0x40bc1062796dad70,
                0x3fd0b60b60b60b64, 0x3fabbbbbbbbbbbbc, 0x3fb9999999999980, 0x3fdbda12f684bdb0,
            ], 4, 0x546691017ba4fee8),
        ];
        for (policy, config, bits, evictions, digest) in cases {
            let duration_s = config.sweep_duration_s();
            let plan = RunPlan::compile(fitted.plan_inputs(), policy, &config, duration_s);
            let trace = LoadTrace::paper_sweep(config.dwell_s);
            let (result, traces) = plan.play(&trace, Parallelism::Serial, true);
            let case = format!("{policy:?} {:?} {}", config.faults, config.resilience);
            let s = &result.summary;
            let got = [
                s.avg_be_throughput,
                s.avg_power_utilization,
                s.total_energy.0,
                s.energy_per_throughput,
                s.worst_violation_frac,
                s.avg_capping_frac,
                s.time_to_recover_s,
                s.slo_violation_frac_during_fault,
            ];
            assert_eq!(got.map(f64::to_bits), bits, "{case}");
            assert_eq!(s.evictions, evictions, "{case}");
            let records: Vec<_> = traces.iter().map(|t| &t.records).collect();
            let got = fnv1a(FNV_OFFSET, format!("{records:?}").as_bytes());
            assert_eq!(got, digest, "{case}");
        }
    }

    #[test]
    fn a_replayed_plan_equals_a_from_scratch_run() {
        // Plan reuse must not leak timeline or rank state between plays:
        // the last cell of a sweep equals the same cell assembled from
        // the public building blocks, with nothing shared.
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let config = chaos_config(4.0);
        let levels = [0.3, 0.6, 0.9];
        let sweep = run_level_sweep(POCOLO, &config, &fitted, &levels);

        let placement = fitted.placement(POCOLO);
        let spec = config.faults.as_ref().unwrap();
        let (timeline, ranks) =
            compile_fault_plan(spec, config.seed, config.dwell_s, &fitted, &placement, true);
        let metrics: Vec<ServerMetrics> = (0..placement.len())
            .map(|server| {
                let mut sim = SlotSpec {
                    server,
                    policy: POCOLO,
                    be: placement[server],
                    rank: ranks[server],
                    trace: LoadTrace::Constant(0.9),
                    meter_noise: METER_NOISE,
                    seed: config.seed,
                    faulted: true,
                    resilience: true,
                    record_decisions: false,
                }
                .build(&fitted);
                Projection::new(timeline.server_events(server), config.dwell_s).advance(
                    &mut sim,
                    f64::INFINITY,
                    |_, _| true,
                );
                sim.metrics().clone()
            })
            .collect();
        assert!(metrics.iter().any(|m| m.fault_time_s() > 0.0));
        assert_eq!(sweep[2].1, ClusterSummary::aggregate(&metrics).unwrap());
    }
}

#[cfg(test)]
mod level_sweep_tests {
    use super::*;

    #[test]
    fn level_sweep_shapes() {
        let config = ExperimentConfig {
            dwell_s: 5.0,
            ..ExperimentConfig::default()
        };
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        let levels = [0.1, 0.5, 0.9];
        let sweep = run_level_sweep(
            Policy::Pocolo {
                solver: Solver::Hungarian,
            },
            &config,
            &fitted,
            &levels,
        );
        assert_eq!(sweep.len(), 3);
        // BE throughput falls as the primaries' load rises.
        assert!(
            sweep[0].1.avg_be_throughput > sweep[2].1.avg_be_throughput,
            "10% load {} should beat 90% load {}",
            sweep[0].1.avg_be_throughput,
            sweep[2].1.avg_be_throughput
        );
        for (level, summary) in &sweep {
            assert!(
                summary.worst_violation_frac < 0.3,
                "level {level}: violations {}",
                summary.worst_violation_frac
            );
        }
    }
}
