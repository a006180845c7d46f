//! Figures 5, 6, 8 and 9–11: the analytical characterization (§III, §V-C).

use pocolo::prelude::*;
use pocolo_cluster::{ExpansionPath, ExpansionStep};
use pocolo_core::curves::indifference_curve;
use pocolo_core::fit::{fit_indirect_utility, FitOptions};
use pocolo_workloads::profiler::{profile_be, profile_lc};

use crate::common::{f1, f3, row, section, Bench};

/// The sphinx load levels Figs. 5 and 6 draw.
const LEVELS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

/// Prints sphinx's least-power expansion path over [`LEVELS`], exactly
/// as the cluster manager prices co-runners along it (§IV-B): under
/// `header`, one row of `cols(step, cap)` per level, or `dropped` where the
/// path drops the level (the primary needs the whole machine, or leaves no
/// spare box). Returns the printed rows as `(load_frac, a, b, c)`.
fn sphinx_path_rows(
    bench: &Bench,
    header: [&str; 3],
    cols: impl Fn(&ExpansionStep, Watts) -> [f64; 3],
) -> Vec<(f64, f64, f64, f64)> {
    let server = bench
        .fitted
        .server_profiles()
        .into_iter()
        .find(|s| s.label == LcApp::Sphinx.name())
        .expect("sphinx is fitted");
    let path = ExpansionPath::compute(&server, &LEVELS).expect("levels are non-empty");
    row("load", &header.map(String::from));
    let mut rows = Vec::new();
    for level in LEVELS {
        let label = format!("{:.0}%", level * 100.0);
        match path.steps().iter().find(|s| s.level == level) {
            Some(step) => {
                let [a, b, c] = cols(step, server.power_cap);
                row(&label, &[f1(a), f1(b), f1(c)]);
                rows.push((level, a, b, c));
            }
            None => row(&label, &["dropped".into()]),
        }
    }
    rows
}

/// Fig. 5 data: sphinx indifference curves plus the least-power path.
#[derive(Debug, Clone)]
pub struct Fig05 {
    /// Per load level: `(load_frac, Vec<(cores, ways)>)` iso-load curves.
    pub curves: Vec<(f64, Vec<(f64, f64)>)>,
    /// The primary's allocation per kept level: `(load_frac, cores, ways,
    /// watts)`.
    pub path: Vec<(f64, f64, f64, f64)>,
}

/// Fig. 5: indifference curves and the power-efficient expansion path.
pub fn fig05(bench: &Bench) -> Fig05 {
    section("Fig 5 — sphinx indifference curves + least-power path");
    let utility = bench.lc_fitted(LcApp::Sphinx);
    let peak = bench.lc_truth(LcApp::Sphinx).peak_load_rps();
    let base = utility.space().min_allocation();
    let mut curves = Vec::new();
    for level in LEVELS {
        let target = level * peak;
        let curve = indifference_curve(utility.performance_model(), &base, 0, 1, target, 12)
            .expect("sphinx curve is well-defined");
        println!(
            "iso-load {:.0}%: {}",
            level * 100.0,
            curve
                .iter()
                .map(|(c, w)| format!("({c:.1},{w:.1})"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        curves.push((level, curve));
    }
    let path = sphinx_path_rows(bench, ["cores", "ways", "power W"], |step, cap| {
        let alloc = &step.lc_alloc;
        [alloc.amount(0), alloc.amount(1), (cap - step.headroom).0]
    });
    Fig05 { curves, path }
}

/// Fig. 6 data: spare capacity along sphinx's expansion path.
#[derive(Debug, Clone)]
pub struct Fig06 {
    /// Per kept level: `(load_frac, spare_cores, spare_ways,
    /// headroom_watts)`.
    pub spare: Vec<(f64, f64, f64, f64)>,
}

/// Fig. 6: the Edgeworth box — the spare box the co-runner is priced in
/// at each load.
pub fn fig06(bench: &Bench) -> Fig06 {
    section("Fig 6 — Edgeworth box: spare capacity for the co-runner (sphinx)");
    let spare = sphinx_path_rows(bench, ["spare c", "spare w", "headroom W"], |step, _| {
        let box_max = |j| step.sub_space.descriptor(j).max();
        [box_max(0), box_max(1), step.headroom.0]
    });
    Fig06 { spare }
}

/// Fig. 8 data: goodness of fit per app.
#[derive(Debug, Clone)]
pub struct Fig08 {
    /// `(app, perf_r2, power_r2)` for all eight applications.
    pub rows: Vec<(String, f64, f64)>,
}

/// Fig. 8: R² of the Cobb-Douglas fits (paper band: 0.8–0.95 perf,
/// 0.8–0.98 power).
pub fn fig08(bench: &Bench) -> Fig08 {
    section("Fig 8 — goodness of fit (R²)");
    let cfg = ProfilerConfig::default();
    let opts = FitOptions::default();
    let mut rows = Vec::new();
    row("app", &["perf R²".into(), "power R²".into()]);
    for app in LcApp::ALL {
        let samples = profile_lc(bench.lc_truth(app), &bench.power, &bench.space, &cfg);
        let fit = fit_indirect_utility(&bench.space, &samples, &opts).expect("grid fits");
        row(app.name(), &[f3(fit.performance_r2), f3(fit.power_r2)]);
        rows.push((app.name().to_string(), fit.performance_r2, fit.power_r2));
    }
    for app in BeApp::ALL {
        let samples = profile_be(bench.be_truth(app), &bench.power, &bench.space, &cfg);
        let fit = fit_indirect_utility(&bench.space, &samples, &opts).expect("grid fits");
        row(app.name(), &[f3(fit.performance_r2), f3(fit.power_r2)]);
        rows.push((app.name().to_string(), fit.performance_r2, fit.power_r2));
    }
    Fig08 { rows }
}

/// Figs. 9–11 data: direct utilities, power needs and indirect utilities.
#[derive(Debug, Clone)]
pub struct Fig0911 {
    /// `(app, direct_cores_share, p_cores, p_ways, indirect_cores_share)`.
    pub rows: Vec<(String, f64, f64, f64, f64)>,
}

/// Figs. 9–11: why placement changes once power is taken into account.
pub fn fig09_11(bench: &Bench) -> Fig0911 {
    section("Figs 9-11 — direct utilities, power needs, indirect utilities");
    let mut rows = Vec::new();
    row(
        "app",
        &[
            "α_c share".into(),
            "p_c W".into(),
            "p_w W".into(),
            "α/p c-share".into(),
        ],
    );
    let mut push = |name: &str, u: &IndirectUtility| {
        let direct = u.direct_preference_vector();
        let indirect = u.preference_vector();
        let p = u.power_model().p_dynamic();
        row(
            name,
            &[
                f3(direct.weight(0)),
                f3(p[0]),
                f3(p[1]),
                f3(indirect.weight(0)),
            ],
        );
        rows.push((
            name.to_string(),
            direct.weight(0),
            p[0],
            p[1],
            indirect.weight(0),
        ));
    };
    for app in LcApp::ALL {
        push(app.name(), bench.lc_fitted(app));
    }
    for app in BeApp::ALL {
        push(app.name(), bench.be_fitted(app));
    }
    Fig0911 { rows }
}
