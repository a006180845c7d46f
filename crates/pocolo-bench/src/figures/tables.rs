//! Tables I and II: platform and application characteristics.

use pocolo::prelude::*;

use crate::common::{row, section, Bench};

/// Table I: the server configuration.
pub fn table1() {
    section("Table I — server configuration");
    let m = MachineSpec::xeon_e5_2650();
    // The platform text the models never read is the paper's, verbatim.
    row("processor", &["Intel Xeon E5-2650".to_string()]);
    row("cores", &[m.cores().to_string()]);
    row(
        "frequency",
        &[format!("{} to {}", m.freq_min(), m.freq_max())],
    );
    row("llc", &[format!("30M, {} ways", m.llc_ways())]);
    row("memory", &["256GB DDR4".to_string()]);
    row(
        "power",
        &[format!(
            "idle {:.0}, active {:.0}",
            m.idle_watts().0,
            m.peak_watts().0
        )],
    );
}

/// Table II data: per-LC-app characteristics.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// `(app, peak_load_rps, p99_slo_ms, peak_power_watts)`.
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Table II: latency-critical application characteristics.
pub fn table2(bench: &Bench) -> Table2 {
    section("Table II — latency-critical applications");
    let mut rows = Vec::new();
    row(
        "app",
        &[
            "peak load/s".into(),
            "p99 SLO ms".into(),
            "peak power W".into(),
        ],
    );
    for app in LcApp::ALL {
        let m = bench.lc_truth(app);
        let peak_power = m.provisioned_power();
        row(
            app.name(),
            &[
                format!("{:.0}", m.peak_load_rps()),
                format!("{:.2}", m.slo_p99_ms()),
                format!("{:.0}", peak_power.0),
            ],
        );
        rows.push((
            app.name().to_string(),
            m.peak_load_rps(),
            m.slo_p99_ms(),
            peak_power.0,
        ));
    }
    Table2 { rows }
}

/// Fig. 7: the four-stage system architecture, annotated with the concrete
/// types implementing each stage (the paper's figure is a schematic; this
/// renders the same pipeline with this repository's entry points).
pub fn fig07() {
    section("Fig 7 — system architecture (stage -> implementation)");
    println!(
        "\
  I.   Fit indirect utility models on profiled data
         profile_lc/profile_be -> pocolo_core::fit::fit_indirect_utility
         (log-space OLS + 10% latency-slack guard)
           |
  II.  Estimate the BE x LC performance matrix
         pocolo_cluster::PerfMatrixBuilder
         (least-power expansion path -> spare box + headroom -> BE demand)
           |
  III. Solve the placement
         pocolo_cluster::assign::{{hungarian, simplex LP, max-min fair}}
           |
  IV.  Manage each server power-efficiently
         pocolo_manager::ServerManager   (1 s: analytic demand + feedback)
         pocolo_manager::PowerCapper     (100 ms: DVFS -> CPU quota)"
    );
}
