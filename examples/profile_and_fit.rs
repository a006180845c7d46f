//! The modelling pipeline in isolation: sweep allocations on the simulated
//! server, watch the indifference-curve geometry emerge, and inspect how
//! the slack filter protects the fit.
//!
//! ```text
//! cargo run --release -p pocolo --example profile_and_fit
//! ```

use pocolo::cluster::ExpansionPath;
use pocolo::prelude::*;
use pocolo_core::curves::indifference_curve;
use pocolo_core::fit::{fit_indirect_utility, FitOptions};
use pocolo_simserver::power::PowerDrawModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineSpec::xeon_e5_2650();
    let power = PowerDrawModel::new(machine.clone());
    let space = machine.resource_space();
    let truth = LcModel::for_app(LcApp::Sphinx, machine.clone());

    // Profile at several operating points, including one past saturation —
    // the kind of polluted sample real telemetry contains.
    let cfg = ProfilerConfig {
        operating_points: vec![0.6, 0.8, 1.0, 1.05],
        ..ProfilerConfig::default()
    };
    let samples = pocolo_workloads::profiler::profile_lc(&truth, &power, &space, &cfg);
    println!("{} raw samples (incl. saturated ones)", samples.len());

    // Fit once with the paper's 10% slack guard, once without.
    let guarded = fit_indirect_utility(&space, &samples, &FitOptions::default())?;
    let unguarded = fit_indirect_utility(
        &space,
        &samples,
        &FitOptions {
            min_latency_slack: -10.0,
            ..FitOptions::default()
        },
    )?;
    println!(
        "guarded fit:   {} samples, perf R² {:.3}",
        guarded.samples_used, guarded.performance_r2
    );
    println!(
        "unguarded fit: {} samples, perf R² {:.3}",
        unguarded.samples_used, unguarded.performance_r2
    );

    // Trace an indifference curve at 50% load and its least-power point.
    let peak = truth.peak_load_rps();
    let base = space.min_allocation();
    let curve = indifference_curve(
        guarded.utility.performance_model(),
        &base,
        0,
        1,
        0.5 * peak,
        10,
    )?;
    println!("\niso-load curve @50%: (cores, ways) pairs");
    for (c, w) in &curve {
        println!(
            "  ({c:5.2}, {w:5.2})  power {}",
            guarded.utility.power_model().power_of_amounts(&[*c, *w])?
        );
    }

    // The expansion path the cluster manager prices co-runners along: the
    // primary's integral least-power allocation per load, and the spare
    // box and headroom it leaves under the provisioned cap.
    let server = ServerProfile {
        label: LcApp::Sphinx.name().to_string(),
        utility: guarded.utility,
        power_cap: truth.provisioned_power(),
        peak_load: peak,
    };
    let levels: Vec<f64> = (1..=9).map(|i| 0.1 * i as f64).collect();
    let path = ExpansionPath::compute(&server, &levels)?;
    println!("\nleast-power expansion path (primary -> spare box):");
    for level in levels {
        let load = level * 100.0;
        match path.steps().iter().find(|s| s.level == level) {
            Some(s) => println!(
                "  load {load:3.0}% -> {} @ {}; spare {} cores, {} ways, {}",
                s.lc_alloc,
                server.power_cap - s.headroom,
                s.sub_space.descriptor(0).max(),
                s.sub_space.descriptor(1).max(),
                s.headroom
            ),
            None => println!("  load {load:3.0}% -> dropped"),
        }
    }
    Ok(())
}
