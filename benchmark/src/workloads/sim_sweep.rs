//! `sim-sweep` — the paper's own evaluation pipeline.
//!
//! Each op is one `run_policy_sweeps` call: Pocolo / POM / Heracles /
//! Random × nine load levels at the paper's 20 s dwell, `Parallelism::Auto`,
//! under a fault scenario rotating none → brownout → crash → chaos with a
//! per-repetition seed. `pocolo-sim`, `pocolo-manager` and
//! `pocolo-simserver` do nearly all the work; `pocolo-net` and fleet-scale
//! `pocolo-cluster` do none.

use std::hint::black_box;
use std::time::Instant;

use super::ms_since;
use crate::api::{
    compile_fault_plan, run_experiment_with, run_policy_sweeps, ClusterSummary, ExperimentConfig,
    FaultSpec, FittedCluster, Parallelism, Policy, ProfilerConfig, Scenario, Solver,
};
use crate::gen::schedule::{sweep_cases, SweepCase, SweepFaults};
use crate::record::Recorder;
use crate::run::{Measured, SetupNotes, Sink, Workload};

/// A controller is allowed one capper tick to react, during which power
/// may sit this far above the cap.
const CAP_REACTION_BAND: f64 = 1.15;

/// Repetitions of the 4×4 placement and fault-plan probes.
const PROBE_REPS: usize = 50;

/// The workload's state: fitted models and the round's sweep cases.
#[derive(Debug)]
pub struct SimSweep {
    fitted: FittedCluster,
    cases: Vec<SweepCase>,
    levels: Vec<f64>,
    dwell_s: f64,
}

fn policies(seed: u64) -> [Policy; 4] {
    [
        Policy::Pocolo {
            solver: Solver::Hungarian,
        },
        Policy::Pom { seed },
        Policy::Heracles { seed },
        Policy::Random { seed },
    ]
}

fn fault_spec(faults: SweepFaults) -> Option<FaultSpec> {
    let scenario = match faults {
        SweepFaults::None => return None,
        SweepFaults::Brownout => Scenario::Brownout,
        SweepFaults::Crash => Scenario::Crash,
        SweepFaults::Chaos => Scenario::Chaos,
    };
    Some(FaultSpec {
        scenario,
        seed: None,
    })
}

/// The summary's fields in a fixed order, for digests and comparisons.
fn summary_bits(s: &ClusterSummary) -> [u64; 9] {
    [
        s.avg_be_throughput.to_bits(),
        s.avg_power_utilization.to_bits(),
        s.total_energy.0.to_bits(),
        s.energy_per_throughput.to_bits(),
        s.worst_violation_frac.to_bits(),
        s.avg_capping_frac.to_bits(),
        s.time_to_recover_s.to_bits(),
        s.slo_violation_frac_during_fault.to_bits(),
        s.evictions as u64,
    ]
}

impl SimSweep {
    fn config(&self, case: &SweepCase, parallelism: Parallelism) -> ExperimentConfig {
        ExperimentConfig {
            dwell_s: self.dwell_s,
            seed: case.seed,
            parallelism,
            faults: fault_spec(case.faults),
            ..ExperimentConfig::default()
        }
    }

    fn sweep(&self, case: &SweepCase, parallelism: Parallelism) -> Vec<Vec<(f64, ClusterSummary)>> {
        run_policy_sweeps(
            &policies(case.seed),
            &self.config(case, parallelism),
            &self.fitted,
            &self.levels,
        )
    }

    /// Simulated server-seconds one sweep covers.
    fn server_seconds_per_sweep(&self) -> f64 {
        (policies(0).len() * self.levels.len() * self.fitted.lc().len()) as f64 * self.dwell_s
    }
}

impl Workload for SimSweep {
    const NAME: &'static str = "sim-sweep";
    const OP: &'static str = "sim.sweep";

    fn setup(seed: u64, smoke: bool, notes: &mut SetupNotes) -> Self {
        let start = Instant::now();
        let fitted = FittedCluster::fit(&ProfilerConfig::default());
        notes.note("core.fit_cluster_ms", ms_since(start));
        let (reps, levels, dwell_s) = if smoke {
            (4, vec![0.3, 0.6, 0.9], 3.0)
        } else {
            (8, (1..=9).map(|i| f64::from(i) / 10.0).collect(), 20.0)
        };
        let w = SimSweep {
            fitted,
            cases: sweep_cases(seed, reps),
            levels,
            dwell_s,
        };
        black_box(w.sweep(&w.cases[0], Parallelism::Auto));
        w
    }

    fn round(&mut self, rec: &mut Recorder) {
        let (mut be_sum, mut violation_sum, mut cells) = (0.0, 0.0, 0usize);
        for (i, case) in self.cases.iter().enumerate() {
            let started = rec.start(Self::OP, i as u64);
            let sweeps = self.sweep(case, Parallelism::Auto);
            rec.stop(Self::OP, started);
            for (p, cells_of_policy) in sweeps.iter().enumerate() {
                for (_, s) in cells_of_policy {
                    let finite = [
                        s.avg_be_throughput,
                        s.avg_power_utilization,
                        s.total_energy.0,
                        s.worst_violation_frac,
                    ]
                    .iter()
                    .all(|v| v.is_finite());
                    rec.check(finite, || {
                        format!("sweep {i} policy {p}: non-finite summary {s:?}")
                    });
                    summary_bits(s).iter().for_each(|&b| rec.fold(b));
                    if p == 0 {
                        be_sum += s.avg_be_throughput;
                        violation_sum += s.worst_violation_frac;
                        cells += 1;
                    }
                }
            }
            rec.count("sim.cells", (sweeps.len() * self.levels.len()) as f64);
        }
        rec.count("be_throughput", be_sum / cells as f64);
        rec.count("slo_violation_frac", violation_sum / cells as f64);
    }

    fn probes(&mut self, rec: &mut Recorder) {
        for (i, case) in self.cases.iter().enumerate() {
            rec.tr.begin("sim.serial_sweep", i as u64);
            black_box(self.sweep(case, Parallelism::Serial));
            rec.tr.end();
        }
        let pocolo = policies(0)[0];
        let placement = self.fitted.placement(pocolo);
        let spec = fault_spec(SweepFaults::Chaos).expect("chaos is a scenario");
        for i in 0..PROBE_REPS {
            rec.tr.begin("cluster.place_lp", i as u64);
            black_box(self.fitted.placement(Policy::Pocolo { solver: Solver::Lp }));
            rec.tr.end();
            rec.tr.begin("faults.compile_plan", i as u64);
            black_box(compile_fault_plan(
                &spec,
                self.cases[0].seed ^ i as u64,
                9.0 * self.dwell_s,
                &self.fitted,
                &placement,
                true,
            ));
            rec.tr.end();
        }
    }

    fn verify(&mut self, rec: &mut Recorder) {
        // Bit-identity across parallelism, on a clean and a faulted case.
        for case in self.cases.iter().take(2) {
            let auto = self.sweep(case, Parallelism::Auto);
            let serial = self.sweep(case, Parallelism::Serial);
            let same =
                auto.iter()
                    .flatten()
                    .zip(serial.iter().flatten())
                    .all(|((la, a), (ls, s))| {
                        la.to_bits() == ls.to_bits() && summary_bits(a) == summary_bits(s)
                    });
            rec.check(same, || {
                format!("serial and Auto sweeps differ for {case:?}")
            });
        }
        // The cap holds under the power-optimized policies.
        let clean = self.config(&self.cases[0], Parallelism::Auto);
        for policy in &policies(self.cases[0].seed)[..2] {
            let result = run_experiment_with(*policy, &clean, &self.fitted);
            for pair in &result.pairs {
                let (peak, cap) = (pair.metrics.peak_power.0, pair.metrics.power_cap.0);
                rec.check(peak <= cap * CAP_REACTION_BAND, || {
                    format!(
                        "{} on {}: peak {peak:.1} W past {CAP_REACTION_BAND} x cap {cap:.1} W",
                        result.policy, pair.lc
                    )
                });
            }
        }
    }

    fn report(&self, m: &Measured, out: &mut Sink) {
        let (sweeps_per_s, n) = m.rate(Self::OP);
        out.put_q(
            "sim_server_s_per_s",
            (sweeps_per_s * self.server_seconds_per_sweep(), n),
        );
        out.put("be_throughput", m.counted("be_throughput"));
        out.put("slo_violation_frac", m.counted("slo_violation_frac"));
        out.put_q("sim.sweep_ms_p50", m.q(Self::OP, 0.5));
        out.put("sim.cells", m.counted("sim.cells"));
        let serial = m.q("sim.serial_sweep", 0.5);
        out.put_q("sim.serial_sweep_ms_p50", serial);
        // Same cases, so the ratio of mean sweep times is the speed-up.
        let auto_mean = m.sum(Self::OP) / m.q(Self::OP, 0.5).1.max(1) as f64;
        let serial_mean = m.sum("sim.serial_sweep") / serial.1.max(1) as f64;
        out.put("sim.parallel_speedup", serial_mean / auto_mean.max(1e-12));
        out.put_us(
            "faults.compile_plan_us_p50",
            m.q("faults.compile_plan", 0.5),
        );
        out.put_us("cluster.place_lp_us_p50", m.q("cluster.place_lp", 0.5));
        out.put_q("core.fit_cluster_ms", m.setup.median("core.fit_cluster_ms"));
    }
}
