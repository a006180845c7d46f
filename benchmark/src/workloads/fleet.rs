//! Fleet construction shared by `fleet-replan` and `control-path`: real
//! fitted models in, a `ClusterManager` over a generated fleet out.

use crate::api::{
    ClusterManager, FittedCluster, FleetSpec, MachineSpec, PlacementPlan, ProfilerConfig,
};
use crate::gen::fleet::{fleet_inputs, FleetBases};
use crate::record::Recorder;

/// Auction ε of every plan the benchmark solves (the product's default).
pub const EPS: f64 = 1e-3;

/// Seed of the fleet itself. Repair cost depends on a fleet's geometry by
/// some ±20 %, so the run seed must not decide *which* fleet is measured:
/// the fleet is a fixed input and the run seed drives everything that
/// happens to it (faults, restores, refits, schedules, traffic).
pub const FLEET_SEED: u64 = 0xF1EE7;

/// Fits the `mixed3` fleet's three SKUs and returns the twelve
/// (SKU, LC app) server bases and the four fitted BE utilities.
pub fn fitted_bases() -> FleetBases {
    let spec = FleetSpec::preset("mixed3").expect("mixed3 is a catalog preset");
    let fits: Vec<FittedCluster> = spec
        .entries()
        .iter()
        .map(|(class, _)| {
            FittedCluster::fit_on(&ProfilerConfig::default(), MachineSpec::from_class(class))
        })
        .collect();
    FleetBases {
        servers: fits
            .iter()
            .flat_map(FittedCluster::server_profiles)
            .collect(),
        be: fits[0].be_profiles().into_iter().map(|(_, u)| u).collect(),
    }
}

/// A manager over the generated `n_servers` × `n_be` fleet.
pub fn manager(n_servers: usize, n_be: usize, bases: &FleetBases) -> ClusterManager {
    let inputs = fleet_inputs(FLEET_SEED, n_servers, n_be, bases);
    ClusterManager::new(inputs.be_apps, inputs.servers).with_profile_keys(inputs.profile_keys)
}

/// Float slack on the `ε · rows` gap bound.
const GAP_TOLERANCE: f64 = 1e-9;

/// Checks that `plan` is certified and its dual gap, recomputed here from
/// the prices, is within `ε · rows`.
pub fn check_optimal(plan: &PlacementPlan, rec: &mut Recorder, what: &str) {
    let gap = dual_gap(plan);
    let bound = EPS * plan.matrix().rows() as f64 + GAP_TOLERANCE;
    let certified = plan.solution().certified;
    rec.check(certified && gap <= bound, || {
        format!("{what}: certified {certified}, dual gap {gap} against eps x rows = {bound}")
    });
}

/// The certified dual gap of `plan`: the dual bound `Σ_i max_j (a_ij −
/// p_j) + Σ_j p_j` over enabled columns, minus the placement's value. An
/// ε-optimal auction outcome keeps it within `ε · rows`.
fn dual_gap(plan: &PlacementPlan) -> f64 {
    let (matrix, prices) = (plan.matrix(), plan.prices());
    let enabled: Vec<usize> = (0..matrix.cols())
        .filter(|&j| !matrix.is_col_disabled(j))
        .collect();
    let price_sum: f64 = enabled.iter().map(|&j| prices[j]).sum();
    let profit_sum: f64 = (0..matrix.rows())
        .map(|i| {
            let row = matrix.row(i);
            enabled
                .iter()
                .map(|&j| row[j] - prices[j])
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .sum();
    price_sum + profit_sum - plan.assignment().total
}
