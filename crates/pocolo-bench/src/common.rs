//! Shared setup and formatting helpers for the figure generators.

use pocolo::prelude::*;
use pocolo_simserver::power::PowerDrawModel;

/// Everything a figure generator typically needs: the machine, its power
/// model, the resource space, ground truths and fitted models.
#[derive(Debug)]
pub struct Bench {
    /// The Table-I machine.
    pub machine: MachineSpec,
    /// Ground-truth power simulation.
    pub power: PowerDrawModel,
    /// The machine's direct-resource space.
    pub space: pocolo_core::ResourceSpace,
    /// Profiled-and-fitted models for all eight applications.
    pub fitted: FittedCluster,
}

impl Bench {
    /// Profiles and fits everything with the default profiler settings.
    pub fn new() -> Self {
        let machine = MachineSpec::xeon_e5_2650();
        Bench {
            power: PowerDrawModel::new(machine.clone()),
            space: machine.resource_space(),
            fitted: FittedCluster::fit(&ProfilerConfig::default()),
            machine,
        }
    }

    /// Ground truth for one LC app.
    pub fn lc_truth(&self, app: LcApp) -> &LcModel {
        &self
            .fitted
            .lc()
            .iter()
            .find(|(a, _, _)| *a == app)
            .expect("all LC apps fitted")
            .1
    }

    /// Fitted utility for one LC app.
    pub fn lc_fitted(&self, app: LcApp) -> &IndirectUtility {
        &self
            .fitted
            .lc()
            .iter()
            .find(|(a, _, _)| *a == app)
            .expect("all LC apps fitted")
            .2
    }

    /// Ground truth for one BE app.
    pub fn be_truth(&self, app: BeApp) -> &BeModel {
        &self
            .fitted
            .be()
            .iter()
            .find(|(a, _, _)| *a == app)
            .expect("all BE apps fitted")
            .1
    }

    /// Fitted utility for one BE app.
    pub fn be_fitted(&self, app: BeApp) -> &IndirectUtility {
        &self
            .fitted
            .be()
            .iter()
            .find(|(a, _, _)| *a == app)
            .expect("all BE apps fitted")
            .2
    }

    /// An allocation of the first `c` cores and `w` ways at frequency `f`.
    pub fn alloc(&self, c: u32, w: u32, f: f64) -> TenantAllocation {
        TenantAllocation::new(
            CoreSet::first_n(c),
            WayMask::first_n(w),
            pocolo_core::Frequency(f),
        )
    }
}

impl Default for Bench {
    fn default() -> Self {
        Bench::new()
    }
}

/// Prints a titled section header.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Prints one table row: a label plus formatted columns.
pub fn row(label: &str, cols: &[String]) {
    print!("{label:>14}");
    for c in cols {
        print!(" {c:>10}");
    }
    println!();
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}
