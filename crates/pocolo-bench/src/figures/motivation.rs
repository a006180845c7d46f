//! Figures 1–4: the motivation experiments (§I–§II).

use pocolo::prelude::*;
use pocolo_manager::PowerCapper;
use pocolo_simserver::SimServer;

use crate::common::{f3, pct, row, section, Bench};

/// Fig. 1 data: one diurnal day of a web-search server with a naive
/// co-runner — resource utilization stays under the solo peak while power
/// overshoots the provisioned capacity.
#[derive(Debug, Clone)]
pub struct Fig01 {
    /// `(hour, lc_load_frac, cpu_util_frac, power_watts)` samples.
    pub hourly: Vec<(u32, f64, f64, f64)>,
    /// The provisioned (solo-peak) power capacity.
    pub provisioned: f64,
    /// Hours in which colocated power exceeded the provisioned capacity.
    pub overshoot_hours: usize,
}

/// Fig. 1: harvesting spare resources naively overshoots the power budget.
pub fn fig01(bench: &Bench) -> Fig01 {
    section("Fig 1 — diurnal colocation: utilization fits, power overshoots");
    let lc = bench.lc_truth(LcApp::Xapian);
    let be = bench.be_truth(BeApp::Rnn);
    let provisioned = lc.provisioned_power();
    let trace = LoadTrace::diurnal(0.15, 0.95, 24.0 * 3600.0);
    let mut hourly = Vec::new();
    let mut overshoot_hours = 0;
    row(
        "hour",
        &[
            "load".into(),
            "cpu util".into(),
            "power W".into(),
            "cap W".into(),
        ],
    );
    for hour in 0..24u32 {
        let load = trace.load_at(hour as f64 * 3600.0);
        // The LC app sizes itself power-efficiently for the load; the BE
        // co-runner takes everything left, uncapped (the naive setup).
        let target = load * lc.peak_load_rps();
        let budget = bench
            .lc_fitted(LcApp::Xapian)
            .min_power_for(target * 1.1)
            .unwrap_or_else(|_| bench.lc_fitted(LcApp::Xapian).max_power());
        let lc_alloc_cont = bench
            .lc_fitted(LcApp::Xapian)
            .demand_integral(budget)
            .expect("budget is feasible");
        let (c, w) = (
            lc_alloc_cont.amount(0).round() as u32,
            lc_alloc_cont.amount(1).round() as u32,
        );
        let (lc_alloc, be_alloc) = pocolo_manager::partition(
            &bench.machine,
            c,
            w,
            bench.machine.freq_max(),
            bench.machine.freq_max(),
        );
        let mut draws = vec![lc.power_draw(target, &lc_alloc, &bench.power)];
        let mut cpu = lc_alloc.cores.count() as f64 * lc.utilization(target, &lc_alloc).min(1.0);
        if let Some(ba) = be_alloc {
            draws.push(be.power_draw(&ba, &bench.power));
            cpu += ba.cores.count() as f64;
        }
        let power = bench.power.server_power(draws);
        let cpu_util = cpu / bench.machine.cores() as f64;
        if power > provisioned {
            overshoot_hours += 1;
        }
        row(
            &format!("{hour:02}:00"),
            &[pct(load), pct(cpu_util), f3(power.0), f3(provisioned.0)],
        );
        hourly.push((hour, load, cpu_util, power.0));
    }
    println!("overshoot in {overshoot_hours}/24 hours (provisioned {provisioned})");
    Fig01 {
        hourly,
        provisioned: provisioned.0,
        overshoot_hours,
    }
}

/// Fig. 2 data: server power with each BE app beside 10 %-load xapian.
#[derive(Debug, Clone)]
pub struct Fig02 {
    /// `(be_app, server_power_watts)`.
    pub rows: Vec<(String, f64)>,
    /// xapian's provisioned capacity (Table II).
    pub provisioned: f64,
    /// The solo (no co-runner) baseline power.
    pub solo: f64,
}

/// Fig. 2: uncapped colocation pushes the server past its provisioned power.
pub fn fig02(bench: &Bench) -> Fig02 {
    section("Fig 2 — power draw beside xapian @10% load (uncapped)");
    let lc = bench.lc_truth(LcApp::Xapian);
    let load = 0.1 * lc.peak_load_rps();
    // xapian at 10 % load needs ~1 core / 2 ways (§II-C).
    let lc_alloc = bench.alloc(1, 2, 2.2);
    let lc_draw = lc.power_draw(load, &lc_alloc, &bench.power);
    let solo = bench.power.server_power([lc_draw]);
    let provisioned = lc.provisioned_power();
    let spare = TenantAllocation::new(
        CoreSet::range(1, 11),
        WayMask::range(2, 18),
        bench.machine.freq_max(),
    );
    let mut rows = Vec::new();
    row("co-runner", &["power W".into(), "vs cap".into()]);
    row("(solo)", &[f3(solo.0), pct(solo / provisioned - 1.0)]);
    for app in BeApp::ALL {
        let be = bench.be_truth(app);
        let total = bench
            .power
            .server_power([lc_draw, be.power_draw(&spare, &bench.power)]);
        row(app.name(), &[f3(total.0), pct(total / provisioned - 1.0)]);
        rows.push((app.name().to_string(), total.0));
    }
    println!("provisioned capacity: {provisioned}");
    Fig02 {
        rows,
        provisioned: provisioned.0,
        solo: solo.0,
    }
}

/// Fig. 3 data: BE throughput with and without the 70 W budget.
#[derive(Debug, Clone)]
pub struct Fig03 {
    /// `(be_app, uncapped_throughput, capped_throughput, drop_frac)`.
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Fig. 3: identical resources, different throughput once power is capped.
pub fn fig03(bench: &Bench) -> Fig03 {
    section("Fig 3 — BE throughput on 11c/18w, free vs 70 W budget");
    let budget = Watts(70.0);
    let mut rows = Vec::new();
    row("be app", &["free".into(), "capped".into(), "drop".into()]);
    for app in BeApp::ALL {
        let be = bench.be_truth(app);
        let spare = TenantAllocation::new(
            CoreSet::range(1, 11),
            WayMask::range(2, 18),
            bench.machine.freq_max(),
        );
        let uncapped = be.throughput(&spare);
        // Drive the capper against the BE's own (apportioned) draw until it
        // settles within the budget.
        let mut server = SimServer::new(bench.machine.clone(), budget);
        server
            .install(TenantRole::Secondary, spare)
            .expect("spare allocation is valid");
        let capper = PowerCapper;
        for _ in 0..100 {
            let alloc = *server
                .allocation(TenantRole::Secondary)
                .expect("installed above");
            let draw = be.power_draw(&alloc, &bench.power);
            capper
                .step_with_cap(&mut server, draw, budget)
                .expect("capper steps are in-range");
        }
        let settled = *server
            .allocation(TenantRole::Secondary)
            .expect("still installed");
        let capped = be.throughput(&settled);
        let drop = 1.0 - capped / uncapped;
        row(app.name(), &[f3(uncapped), f3(capped), pct(drop)]);
        rows.push((app.name().to_string(), uncapped, capped, drop));
    }
    Fig03 { rows }
}

/// Fig. 4 data: throughput of two BE candidates across the LC load range.
#[derive(Debug, Clone)]
pub struct Fig04 {
    /// `(load_frac, lstm_throughput, rnn_throughput)`.
    pub levels: Vec<(f64, f64, f64)>,
}

/// Fig. 4: the whole load spectrum matters — RNN beats LSTM beside xapian
/// at every load even though both look fine at 10 %.
pub fn fig04(bench: &Bench) -> Fig04 {
    section("Fig 4 — lstm vs rnn beside xapian across the load range");
    let mut levels = Vec::new();
    row("load", &["lstm".into(), "rnn".into()]);
    for level in 1..=9 {
        let load = level as f64 / 10.0;
        let mut thpt = [0.0f64; 2];
        for (slot, be_app) in [BeApp::Lstm, BeApp::Rnn].into_iter().enumerate() {
            let mut sim = pocolo_sim::ServerSim::new(
                bench.lc_truth(LcApp::Xapian).clone(),
                bench.lc_fitted(LcApp::Xapian).clone(),
                Some(bench.be_truth(be_app).clone()),
                LcPolicy::PowerOptimized,
                LoadTrace::Constant(load),
                bench.lc_truth(LcApp::Xapian).provisioned_power(),
                0.0,
                11,
            );
            // Settle: a few manager epochs with capper ticks between.
            for s in 0..12 {
                sim.on_manager_tick(s as f64);
                for _ in 0..10 {
                    sim.on_capper_tick(0.1);
                }
            }
            thpt[slot] = sim.be_throughput();
        }
        row(&pct(load), &[f3(thpt[0]), f3(thpt[1])]);
        levels.push((load, thpt[0], thpt[1]));
    }
    Fig04 { levels }
}
