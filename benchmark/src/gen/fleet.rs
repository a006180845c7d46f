//! Fleet profiles: servers drawn from real fitted (SKU, LC app) bases with
//! quantised cap jitter, and best-effort rows perturbed from the fitted
//! BE utilities.

use rand::prelude::*;

use crate::api::{CobbDouglas, IndirectUtility, PowerModel, ServerProfile};

/// Cap jitter is quantised into this many buckets, so servers that share
/// a base and a bucket share one expansion path (`with_profile_keys`).
pub const CAP_BUCKETS: usize = 16;

/// Relative spread of the per-server cap jitter: caps land in
/// `[1 - CAP_JITTER, 1 + CAP_JITTER]` of the base's provisioned power.
const CAP_JITTER: f64 = 0.1;

/// Relative perturbation of a BE row's model parameters.
const BE_SPREAD: f64 = 0.15;

/// The fitted models a fleet is generated from.
#[derive(Debug, Clone)]
pub struct FleetBases {
    /// One profile per (SKU, LC app) pair.
    pub servers: Vec<ServerProfile>,
    /// The fitted best-effort utilities.
    pub be: Vec<IndirectUtility>,
}

/// Generated inputs for a `ClusterManager`.
#[derive(Debug, Clone)]
pub struct FleetInputs {
    /// Best-effort rows.
    pub be_apps: Vec<(String, IndirectUtility)>,
    /// Server columns.
    pub servers: Vec<ServerProfile>,
    /// Expansion-path cache key per column.
    pub profile_keys: Vec<usize>,
}

/// `utility` with every model parameter scaled by `1 + rel·u`, `u` uniform
/// in `[-1, 1)` — a refit that moved a little, or a sibling application.
pub fn perturbed(utility: &IndirectUtility, rng: &mut StdRng, rel: f64) -> IndirectUtility {
    let mut scale = |x: f64| x * (1.0 + rel * rng.gen_range(-1.0..1.0));
    let perf = utility.performance_model();
    let alpha0 = scale(perf.alpha0());
    let alphas = perf.alphas().iter().map(|&a| scale(a)).collect();
    let power = utility.power_model();
    let p_dynamic = power.p_dynamic().iter().map(|&p| scale(p)).collect();
    IndirectUtility::new(
        utility.space().clone(),
        CobbDouglas::new(alpha0, alphas).expect("scaled exponents stay positive"),
        PowerModel::new(power.p_static(), p_dynamic).expect("scaled costs stay positive"),
    )
    .expect("dimensions are the base model's")
}

/// A fleet of `n_servers` columns and `n_be` rows, deterministic in `seed`.
pub fn fleet_inputs(seed: u64, n_servers: usize, n_be: usize, bases: &FleetBases) -> FleetInputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut servers = Vec::with_capacity(n_servers);
    let mut profile_keys = Vec::with_capacity(n_servers);
    for j in 0..n_servers {
        let base = rng.gen_range(0..bases.servers.len());
        let bucket = rng.gen_range(0..CAP_BUCKETS);
        let jitter = 1.0 - CAP_JITTER + 2.0 * CAP_JITTER * bucket as f64 / (CAP_BUCKETS - 1) as f64;
        let mut profile = bases.servers[base].clone();
        profile.label = format!("s{j}");
        profile.power_cap = profile.power_cap * jitter;
        servers.push(profile);
        profile_keys.push(base * CAP_BUCKETS + bucket);
    }
    let be_apps = (0..n_be)
        .map(|i| {
            let base = &bases.be[i % bases.be.len()];
            (format!("be{i}"), perturbed(base, &mut rng, BE_SPREAD))
        })
        .collect();
    FleetInputs {
        be_apps,
        servers,
        profile_keys,
    }
}
