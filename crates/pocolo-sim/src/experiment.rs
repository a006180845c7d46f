//! End-to-end policy experiments: the §V-D comparison of Random, POM and
//! POColo over the uniform 10–90 % load sweep (Figs. 12 and 13).

use pocolo_cluster::{
    migration_diff, Assignment, ClusterManager, PerfMatrixBuilder, ServerProfile, Solver,
};
use pocolo_core::fit::{fit_indirect_utility, FitOptions};
use pocolo_core::utility::IndirectUtility;
use pocolo_faults::{eviction_order, FaultKind, FaultSpec};
use pocolo_manager::LcPolicy;
use pocolo_simserver::power::PowerDrawModel;
use pocolo_simserver::MachineSpec;
use pocolo_workloads::profiler::{profile_be, profile_lc, ProfilerConfig};
use pocolo_workloads::{BeApp, BeModel, LcApp, LcModel, LoadTrace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cluster_sim::ClusterSim;
use crate::faults::{FaultTimeline, ResilienceConfig, ServerFaultAction};
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
    /// [`pocolo_manager::HeraclesController`]): grow a core and a way on
    /// low slack, trim on verified headroom, never consult a model.
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

/// Experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Seconds spent at each of the nine load levels.
    pub dwell_s: f64,
    /// Server-manager control period (paper: 1 s).
    pub manager_period_s: f64,
    /// Power-capper control period (paper: 100 ms).
    pub capper_period_s: f64,
    /// Relative power-meter noise.
    pub meter_noise: f64,
    /// Base RNG seed (profiling noise, meters).
    pub seed: u64,
    /// Profiler settings used when fitting models.
    pub profiler: ProfilerConfig,
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
            manager_period_s: 1.0,
            capper_period_s: 0.1,
            meter_noise: 0.01,
            seed: 0xC0C0,
            profiler: ProfilerConfig::default(),
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

pocolo_json::impl_to_json!(PairResult { lc, be, metrics });
pocolo_json::impl_to_json!(ExperimentResult {
    policy,
    pairs,
    summary
});

impl pocolo_json::FromJson for PairResult {
    fn from_json(v: &pocolo_json::Value) -> Option<Self> {
        Some(PairResult {
            lc: v["lc"].as_str()?.to_string(),
            be: v["be"].as_str()?.to_string(),
            metrics: ServerMetrics::from_json(&v["metrics"])?,
        })
    }
}

impl pocolo_json::FromJson for ExperimentResult {
    fn from_json(v: &pocolo_json::Value) -> Option<Self> {
        Some(ExperimentResult {
            policy: v["policy"].as_str()?.to_string(),
            pairs: Vec::from_json(&v["pairs"])?,
            summary: ClusterSummary::from_json(&v["summary"])?,
        })
    }
}

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

    /// Decides the placement for a policy: which BE app runs on each LC
    /// server (index-aligned with [`FittedCluster::lc`]).
    pub fn placement(&self, policy: Policy) -> Vec<BeApp> {
        match policy {
            Policy::Random { seed } | Policy::Heracles { seed } | Policy::Pom { seed } => {
                let mut order: Vec<BeApp> = self.be.iter().map(|(a, _, _)| *a).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                order.shuffle(&mut rng);
                order
            }
            Policy::Pocolo { solver } => {
                let matrix = PerfMatrixBuilder::new()
                    .build(&self.be_profiles(), &self.server_profiles())
                    .expect("fitted models are well-formed");
                let assignment =
                    pocolo_cluster::assign::solve(&matrix, solver).expect("4x4 is solvable");
                let mut out = vec![BeApp::Lstm; self.lc.len()];
                for (row, col) in assignment.pairs {
                    out[col] = self.be[row].0;
                }
                out
            }
        }
    }
}

/// Runs one policy through the full load sweep and returns its results.
pub fn run_experiment(policy: Policy, config: &ExperimentConfig) -> ExperimentResult {
    let fitted = FittedCluster::fit(&config.profiler);
    run_experiment_with(policy, config, &fitted)
}

/// Like [`run_experiment`] but reuses pre-fitted models (so policy
/// comparisons share identical fits).
pub fn run_experiment_with(
    policy: Policy,
    config: &ExperimentConfig,
    fitted: &FittedCluster,
) -> ExperimentResult {
    run_with_trace(
        policy,
        config,
        fitted,
        LoadTrace::paper_sweep(config.dwell_s),
        9.0 * config.dwell_s,
        config.parallelism,
    )
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
/// Each cell is a self-contained seeded simulation, so the output is
/// bit-identical to a serial run; within a cell the cluster itself runs
/// serially to avoid oversubscribing the worker pool.
pub fn run_policy_sweeps(
    policies: &[Policy],
    config: &ExperimentConfig,
    fitted: &FittedCluster,
    levels: &[f64],
) -> Vec<Vec<(f64, ClusterSummary)>> {
    let cells: Vec<(usize, Policy, f64)> = policies
        .iter()
        .enumerate()
        .flat_map(|(p, &policy)| levels.iter().map(move |&level| (p, policy, level)))
        .collect();
    let results = parallel::map(config.parallelism, cells, |(p, policy, level)| {
        let result = run_with_trace(
            policy,
            config,
            fitted,
            LoadTrace::Constant(level),
            config.dwell_s,
            Parallelism::Serial,
        );
        (p, level, result.summary)
    });
    let mut sweeps: Vec<Vec<(f64, ClusterSummary)>> = vec![Vec::new(); policies.len()];
    for (p, level, summary) in results {
        sweeps[p].push((level, summary));
    }
    sweeps
}

/// Cluster-wide eviction ranks for the current placement: each server's
/// co-runner is ranked by its performance-matrix value ascending, so the
/// *lowest*-value pairing is shed first under pressure.
pub fn eviction_ranks(fitted: &FittedCluster, placement: &[BeApp]) -> Vec<usize> {
    let matrix =
        match PerfMatrixBuilder::new().build(&fitted.be_profiles(), &fitted.server_profiles()) {
            Ok(m) => m,
            Err(_) => return vec![0; placement.len()],
        };
    let values: Vec<f64> = placement
        .iter()
        .enumerate()
        .map(|(server, be_app)| {
            fitted
                .be
                .iter()
                .position(|(a, _, _)| a == be_app)
                .map(|row| matrix.value(row, server))
                .unwrap_or(f64::NEG_INFINITY)
        })
        .collect();
    let order = eviction_order(&values);
    let mut ranks = vec![0; placement.len()];
    for (rank, &server) in order.iter().enumerate() {
        ranks[server] = rank;
    }
    ranks
}

/// For every brownout in the plan, re-solves the placement on the shrunk
/// budget (with hysteresis) and schedules the resulting migrations as
/// [`ServerFaultAction::ReplaceBe`] actions at the brownout start. The
/// replan is computed *up front* from the fitted models, so the faulted
/// run stays a static per-server event schedule.
///
/// `slot_factor(server, requested)` is the cap factor the replan assumes
/// slot `server` holds under a `requested` brownout; `slot_fit(server)`
/// is the fit a co-runner migrating onto that slot is modelled with.
pub(crate) fn schedule_brownout_migrations<'a>(
    timeline: &mut FaultTimeline,
    plan: &pocolo_faults::FaultPlan,
    manager: &ClusterManager,
    incumbent: &Assignment,
    slot_factor: impl Fn(usize, f64) -> f64,
    slot_fit: impl Fn(usize) -> &'a FittedCluster,
) {
    let cfg = ResilienceConfig::default();
    let n = manager.servers().len();
    for event in plan.events() {
        let FaultKind::BrownoutStart { cap_factor } = &event.kind else {
            continue;
        };
        let factors: Vec<f64> = (0..n).map(|s| slot_factor(s, *cap_factor)).collect();
        let Ok(replan) = manager.replan_under_budget(
            &factors,
            incumbent,
            cfg.replan_hysteresis,
            Solver::Hungarian,
        ) else {
            continue;
        };
        for (row, server) in migration_diff(incumbent, &replan) {
            let (_, truth, fit) = &slot_fit(server).be[row];
            timeline.push(
                server,
                event.at_s,
                ServerFaultAction::ReplaceBe {
                    be_truth: Some(Box::new(truth.clone())),
                    be_fitted: Some(Box::new(fit.clone())),
                    pause_s: cfg.readmit_pause_s,
                },
            );
        }
    }
}

/// Compiles the per-server fault timeline and eviction ranks for a run:
/// the plan drawn from the spec's seed (falling back to `base_seed`),
/// plus — when `resilience` is armed — the up-front brownout replan
/// migrations. Deterministic in its arguments, so the in-process engine
/// and a remote agent that compiles its own copy agree event-for-event.
pub fn compile_fault_plan(
    spec: &FaultSpec,
    base_seed: u64,
    duration_s: f64,
    fitted: &FittedCluster,
    placement: &[BeApp],
    resilience: bool,
) -> (FaultTimeline, Vec<usize>) {
    let n = placement.len();
    let fault_seed = spec.seed.unwrap_or(base_seed);
    let plan = spec.scenario.plan(fault_seed, duration_s, n);
    let mut timeline = FaultTimeline::compile(&plan, n);
    let ranks = eviction_ranks(fitted, placement);
    if resilience {
        let manager = ClusterManager::new(fitted.be_profiles(), fitted.server_profiles());
        if let Ok(matrix) = manager.performance_matrix() {
            let pairs: Vec<(usize, usize)> = placement
                .iter()
                .enumerate()
                .filter_map(|(server, be_app)| {
                    fitted
                        .be
                        .iter()
                        .position(|(a, _, _)| a == be_app)
                        .map(|row| (row, server))
                })
                .collect();
            let incumbent = Assignment::new(pairs.clone(), matrix.assignment_value(&pairs));
            schedule_brownout_migrations(
                &mut timeline,
                &plan,
                &manager,
                &incumbent,
                |_, requested| requested,
                |_| fitted,
            );
        }
    }
    (timeline, ranks)
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
        // The controller swap must precede resilience arming, which
        // configures whichever controller is installed.
        let sim = match self.policy {
            Policy::Heracles { .. } => sim.with_incremental_control(),
            _ => sim,
        };
        let sim = if !self.faulted {
            sim
        } else if self.resilience {
            sim.with_resilience(ResilienceConfig::default(), self.rank)
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

/// Like [`run_experiment_with`], but records every controller decision
/// and returns the per-server [`DecisionTrace`]s alongside the result
/// (the CLI's `--decision-log` source). The result itself is
/// bit-identical to the untraced run.
pub fn run_experiment_traced(
    policy: Policy,
    config: &ExperimentConfig,
    fitted: &FittedCluster,
) -> (ExperimentResult, Vec<DecisionTrace>) {
    run_with_trace_recorded(
        policy,
        config,
        fitted,
        LoadTrace::paper_sweep(config.dwell_s),
        9.0 * config.dwell_s,
        config.parallelism,
        true,
    )
}

fn run_with_trace(
    policy: Policy,
    config: &ExperimentConfig,
    fitted: &FittedCluster,
    trace: LoadTrace,
    duration_s: f64,
    parallelism: Parallelism,
) -> ExperimentResult {
    run_with_trace_recorded(
        policy,
        config,
        fitted,
        trace,
        duration_s,
        parallelism,
        false,
    )
    .0
}

/// Shared engine tail: wires compiled server backends and a fault
/// timeline into a [`ClusterSim`] and runs it to completion. Both the
/// homogeneous experiment path and the heterogeneous fleet path
/// (`crate::fleet`) end here, so the two cannot drift.
pub(crate) fn run_cluster(
    servers: Vec<ServerSim>,
    timeline: FaultTimeline,
    manager_period_s: f64,
    capper_period_s: f64,
    duration_s: f64,
    parallelism: Parallelism,
) -> ClusterSim {
    let mut cluster =
        ClusterSim::new(servers, manager_period_s, capper_period_s).with_faults(timeline);
    cluster.run_with(duration_s, parallelism);
    cluster
}

#[allow(clippy::too_many_arguments)]
fn run_with_trace_recorded(
    policy: Policy,
    config: &ExperimentConfig,
    fitted: &FittedCluster,
    trace: LoadTrace,
    duration_s: f64,
    parallelism: Parallelism,
    record_decisions: bool,
) -> (ExperimentResult, Vec<DecisionTrace>) {
    let placement = fitted.placement(policy);
    let n = fitted.lc.len();
    let (timeline, ranks) = match &config.faults {
        Some(spec) => compile_fault_plan(
            spec,
            config.seed,
            duration_s,
            fitted,
            &placement,
            config.resilience,
        ),
        None => (FaultTimeline::empty(n), vec![0; n]),
    };
    let servers: Vec<ServerSim> = (0..n)
        .map(|i| {
            SlotSpec {
                server: i,
                policy,
                be: placement[i],
                rank: ranks[i],
                trace: trace.clone(),
                meter_noise: config.meter_noise,
                seed: config.seed,
                faulted: config.faults.is_some(),
                resilience: config.resilience,
                record_decisions,
            }
            .build(fitted)
        })
        .collect();
    let cluster = run_cluster(
        servers,
        timeline,
        config.manager_period_s,
        config.capper_period_s,
        duration_s,
        parallelism,
    );

    let pairs = fitted
        .lc
        .iter()
        .zip(cluster.metrics())
        .enumerate()
        .map(|(i, ((app, _, _), metrics))| PairResult {
            lc: app.name().to_string(),
            be: placement[i].name().to_string(),
            metrics,
        })
        .collect();
    let traces = if record_decisions {
        cluster
            .servers()
            .iter()
            .enumerate()
            .map(|(i, sim)| DecisionTrace {
                server: i,
                lc: fitted.lc[i].0.name().to_string(),
                be: placement[i].name().to_string(),
                records: sim.decision_records().to_vec(),
            })
            .collect()
    } else {
        Vec::new()
    };
    let result = ExperimentResult {
        policy: policy.name().to_string(),
        pairs,
        summary: cluster.summary(),
    };
    (result, traces)
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
        let fitted = FittedCluster::fit(&config.profiler);
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
        let fitted = FittedCluster::fit(&config.profiler);
        let a = run_experiment_with(Policy::Pom { seed: 9 }, &config, &fitted);
        let b = run_experiment_with(Policy::Pom { seed: 9 }, &config, &fitted);
        assert_eq!(a, b);
    }

    #[test]
    fn slo_is_respected_under_all_policies() {
        let config = quick_config();
        let fitted = FittedCluster::fit(&config.profiler);
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
}

#[cfg(test)]
mod calibration {
    use super::*;

    #[test]
    #[ignore = "calibration report"]
    fn print_policy_comparison() {
        let config = ExperimentConfig {
            dwell_s: 10.0,
            ..ExperimentConfig::default()
        };
        let fitted = FittedCluster::fit(&config.profiler);
        for policy in [
            Policy::Random { seed: 1 },
            Policy::Pom { seed: 1 },
            Policy::Pocolo {
                solver: pocolo_cluster::Solver::Hungarian,
            },
        ] {
            let r = run_experiment_with(policy, &config, &fitted);
            println!(
                "{:8} thpt={:.4} util={:.4} energy={:.0} e/thpt={:.0} cap%={:.3} viol={:.3}",
                r.policy,
                r.summary.avg_be_throughput,
                r.summary.avg_power_utilization,
                r.summary.total_energy.0,
                r.summary.energy_per_throughput,
                r.summary.avg_capping_frac,
                r.summary.worst_violation_frac,
            );
            for p in &r.pairs {
                println!(
                    "    {:8} + {:6} thpt={:.4} util={:.4} cap%={:.3}",
                    p.lc,
                    p.be,
                    p.metrics.be_throughput_avg,
                    p.metrics.power_utilization(),
                    p.metrics.capping_frac
                );
            }
        }
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
        let fitted = FittedCluster::fit(&config.profiler);
        let levels = [0.1, 0.5, 0.9];
        let sweep = run_level_sweep(
            Policy::Pocolo {
                solver: pocolo_cluster::Solver::Hungarian,
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
