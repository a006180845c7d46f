//! Spatial sharing of the spare box among several best-effort apps — the
//! paper's §V-G open problem ("spatial sharing would entail further
//! partitioning of direct resources and power, which we intend to explore
//! as future work").
//!
//! The natural extension of the economics framework: partition the spare
//! cores/ways among k secondaries **in proportion to their indirect
//! preference vectors**, so each app receives more of the resource it
//! converts to performance-per-watt best, and split the power headroom by
//! weight. A planning helper compares the resulting total against temporal
//! (time-sliced) sharing.

use pocolo_core::error::CoreError;
use pocolo_core::preference::PreferenceVector;
use pocolo_core::resources::{ResourceDescriptor, ResourceSpace};
use pocolo_core::units::{Frequency, Watts};
use pocolo_core::utility::IndirectUtility;
use pocolo_simserver::{CoreSet, MachineSpec, TenantAllocation, WayMask};

/// Splits `total` whole units among claimants proportional to `weights`,
/// guaranteeing each claimant at least one unit when `total >= weights.len()`
/// (largest-remainder apportionment).
fn apportion(total: u32, weights: &[f64]) -> Vec<u32> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let sum: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    let quota: Vec<f64> = if sum > 0.0 {
        weights
            .iter()
            .map(|w| total as f64 * w.max(0.0) / sum)
            .collect()
    } else {
        vec![total as f64 / n as f64; n]
    };
    let mut floor: Vec<u32> = quota.iter().map(|q| q.floor() as u32).collect();
    // Guarantee one unit each where possible.
    if total as usize >= n {
        for f in floor.iter_mut() {
            if *f == 0 {
                *f = 1;
            }
        }
    }
    // Largest remainder on whatever is left (or trim overshoot from the
    // largest holders).
    let mut assigned: u32 = floor.iter().sum();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ra = quota[a] - quota[a].floor();
        let rb = quota[b] - quota[b].floor();
        rb.partial_cmp(&ra).expect("finite remainders")
    });
    let mut idx = 0;
    while assigned < total {
        floor[order[idx % n]] += 1;
        assigned += 1;
        idx += 1;
    }
    let mut order_desc: Vec<usize> = (0..n).collect();
    order_desc.sort_by(|&a, &b| floor[b].cmp(&floor[a]));
    let mut i = 0;
    while assigned > total {
        let j = order_desc[i % n];
        if (floor[j] > 1 || (total as usize) < n) && floor[j] > 0 {
            floor[j] -= 1;
            assigned -= 1;
        }
        i += 1;
    }
    floor
}

/// Partitions the spare box (everything the primary does not hold) among
/// `k` secondaries in proportion to their preference vectors: app `i`'s
/// share of spare cores follows its cores-preference weight, and likewise
/// for ways. Returns one disjoint [`TenantAllocation`] per app, laid out
/// contiguously after the primary's block, or an empty vector when there is
/// no spare capacity to split.
///
/// # Panics
///
/// Panics if any preference vector is not two-dimensional.
pub fn split_spare(
    machine: &MachineSpec,
    lc_cores: u32,
    lc_ways: u32,
    frequency: Frequency,
    preferences: &[PreferenceVector],
) -> Vec<TenantAllocation> {
    let k = preferences.len();
    let spare_c = machine.cores().saturating_sub(lc_cores);
    let spare_w = machine.llc_ways().saturating_sub(lc_ways);
    if k == 0 || spare_c < k as u32 || spare_w < k as u32 {
        return Vec::new(); // not enough for every app to hold >= 1 of each
    }
    for p in preferences {
        assert_eq!(p.len(), 2, "two-resource preference vectors expected");
    }
    let core_weights: Vec<f64> = preferences.iter().map(|p| p.weight(0)).collect();
    let way_weights: Vec<f64> = preferences.iter().map(|p| p.weight(1)).collect();
    let cores = apportion(spare_c, &core_weights);
    let ways = apportion(spare_w, &way_weights);

    let mut out = Vec::with_capacity(k);
    let mut c_start = lc_cores;
    let mut w_start = lc_ways;
    for i in 0..k {
        out.push(TenantAllocation::new(
            CoreSet::range(c_start, cores[i]),
            WayMask::range(w_start, ways[i]),
            machine.clamp_frequency(frequency),
        ));
        c_start += cores[i];
        w_start += ways[i];
    }
    out
}

/// Splits the power headroom among the secondaries proportional to
/// `weights` (e.g. priorities, or uniform).
pub fn split_headroom(headroom: Watts, weights: &[f64]) -> Vec<Watts> {
    let sum: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    if weights.is_empty() {
        return Vec::new();
    }
    if sum <= 0.0 {
        return vec![headroom / weights.len() as f64; weights.len()];
    }
    weights
        .iter()
        .map(|w| headroom * (w.max(0.0) / sum))
        .collect()
}

/// Expected total throughput when `apps` **time-share** the spare box
/// (each runs alone for an equal slice with the whole box and headroom).
///
/// # Errors
///
/// Propagates model-evaluation errors.
pub fn temporal_sharing_total(
    apps: &[IndirectUtility],
    spare_c: u32,
    spare_w: u32,
    headroom: Watts,
) -> Result<f64, CoreError> {
    let mut total = 0.0;
    for app in apps {
        total += best_value_in_box(app, spare_c, spare_w, headroom)?;
    }
    Ok(total / apps.len().max(1) as f64)
}

/// Expected total throughput when `apps` **spatially share**: the box is
/// split by preference, the headroom by equal weight, and all run
/// concurrently.
///
/// # Errors
///
/// Propagates model-evaluation errors.
pub fn spatial_sharing_total(
    machine: &MachineSpec,
    apps: &[IndirectUtility],
    lc_cores: u32,
    lc_ways: u32,
    headroom: Watts,
) -> Result<f64, CoreError> {
    let prefs: Vec<PreferenceVector> = apps.iter().map(|a| a.preference_vector()).collect();
    let allocations = split_spare(machine, lc_cores, lc_ways, machine.freq_max(), &prefs);
    if allocations.is_empty() {
        return Ok(0.0);
    }
    let budgets = split_headroom(headroom, &vec![1.0; apps.len()]);
    let mut total = 0.0;
    for ((app, alloc), budget) in apps.iter().zip(&allocations).zip(budgets) {
        total += best_value_in_box(app, alloc.cores.count(), alloc.ways.count(), budget)?;
    }
    Ok(total)
}

/// Best achievable performance inside a (cores, ways) box under a budget.
fn best_value_in_box(
    app: &IndirectUtility,
    cores: u32,
    ways: u32,
    budget: Watts,
) -> Result<f64, CoreError> {
    if cores == 0 || ways == 0 {
        return Ok(0.0);
    }
    let sub = ResourceSpace::builder()
        .resource(ResourceDescriptor::integral("cores", 1.0, cores as f64))
        .resource(ResourceDescriptor::integral("llc_ways", 1.0, ways as f64))
        .build()?;
    match app.value_in(&sub, budget) {
        Err(CoreError::InfeasibleBudget { .. }) => Ok(0.0),
        value => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::utility::{CobbDouglas, PowerModel};

    fn machine() -> MachineSpec {
        MachineSpec::xeon_e5_2650()
    }

    fn utility(ac: f64, aw: f64, pc: f64, pw: f64) -> IndirectUtility {
        IndirectUtility::new(
            machine().resource_space(),
            CobbDouglas::new(0.2, vec![ac, aw]).unwrap(),
            PowerModel::new(Watts(6.0), vec![pc, pw]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn apportion_respects_totals_and_minimums() {
        assert_eq!(apportion(10, &[0.8, 0.2]), vec![8, 2]);
        assert_eq!(apportion(10, &[1.0, 0.0]), vec![9, 1]); // min 1 each
        assert_eq!(apportion(3, &[0.5, 0.5, 0.0]), vec![1, 1, 1]);
        let parts = apportion(20, &[0.45, 0.35, 0.20]);
        assert_eq!(parts.iter().sum::<u32>(), 20);
        assert!(parts.iter().all(|&p| p >= 1));
        assert_eq!(apportion(7, &[]), Vec::<u32>::new());
    }

    #[test]
    fn apportion_uniform_when_weights_zero() {
        assert_eq!(apportion(6, &[0.0, 0.0, 0.0]), vec![2, 2, 2]);
    }

    #[test]
    fn split_is_disjoint_and_exhaustive() {
        let m = machine();
        let prefs = vec![
            PreferenceVector::from_raw(vec![0.8, 0.2]),
            PreferenceVector::from_raw(vec![0.1, 0.9]),
        ];
        let parts = split_spare(&m, 4, 8, Frequency(2.2), &prefs);
        assert_eq!(parts.len(), 2);
        assert!(parts[0].is_disjoint_from(&parts[1]));
        assert_eq!(parts[0].cores.count() + parts[1].cores.count(), 8);
        assert_eq!(parts[0].ways.count() + parts[1].ways.count(), 12);
        for p in &parts {
            assert!(p.validate(&m).is_ok());
        }
        // Preference-proportional: the core-hungry app got most cores; the
        // ways-hungry app most ways.
        assert!(parts[0].cores.count() > parts[1].cores.count());
        assert!(parts[1].ways.count() > parts[0].ways.count());
    }

    #[test]
    fn no_split_when_spare_too_small() {
        let m = machine();
        let prefs = vec![
            PreferenceVector::from_raw(vec![0.5, 0.5]),
            PreferenceVector::from_raw(vec![0.5, 0.5]),
            PreferenceVector::from_raw(vec![0.5, 0.5]),
        ];
        // Only 2 spare cores for 3 apps.
        assert!(split_spare(&m, 10, 8, Frequency(2.2), &prefs).is_empty());
        assert!(split_spare(&m, 1, 1, Frequency(2.2), &[]).is_empty());
    }

    #[test]
    fn headroom_split_proportional() {
        let parts = split_headroom(Watts(60.0), &[2.0, 1.0]);
        assert_eq!(parts, vec![Watts(40.0), Watts(20.0)]);
        let uniform = split_headroom(Watts(60.0), &[0.0, 0.0]);
        assert_eq!(uniform, vec![Watts(30.0), Watts(30.0)]);
        assert!(split_headroom(Watts(60.0), &[]).is_empty());
    }

    #[test]
    fn spatial_beats_temporal_for_complementary_apps() {
        // Core-hungry + ways-hungry: the split lets each take what it
        // needs full-time; time-slicing wastes half of each one's
        // preferred resource.
        let m = machine();
        let core_hungry = utility(0.7, 0.05, 6.0, 1.5);
        let ways_hungry = utility(0.05, 0.7, 6.0, 1.5);
        let apps = vec![core_hungry, ways_hungry];
        let spatial = spatial_sharing_total(&m, &apps, 2, 4, Watts(80.0)).unwrap();
        let temporal = temporal_sharing_total(&apps, 10, 16, Watts(80.0)).unwrap();
        assert!(
            spatial > temporal,
            "spatial {spatial} should beat temporal {temporal} for complements"
        );
    }

    #[test]
    fn complementary_pairs_gain_more_from_spatial_sharing() {
        let m = machine();
        let core_hungry = utility(0.7, 0.05, 6.0, 1.5);
        let ways_hungry = utility(0.05, 0.7, 6.0, 1.5);
        let core_hungry2 = utility(0.65, 0.08, 6.0, 1.5);
        let gain = |apps: &[IndirectUtility]| {
            let s = spatial_sharing_total(&m, apps, 2, 4, Watts(80.0)).unwrap();
            let t = temporal_sharing_total(apps, 10, 16, Watts(80.0)).unwrap();
            s / t
        };
        let complementary = gain(&[core_hungry.clone(), ways_hungry]);
        let similar = gain(&[core_hungry, core_hungry2]);
        assert!(
            complementary > similar,
            "complementary gain {complementary} should exceed similar-pair gain {similar}"
        );
    }

    #[test]
    fn three_way_split_works() {
        let m = machine();
        let prefs = vec![
            PreferenceVector::from_raw(vec![0.6, 0.4]),
            PreferenceVector::from_raw(vec![0.3, 0.7]),
            PreferenceVector::from_raw(vec![0.5, 0.5]),
        ];
        let parts = split_spare(&m, 3, 5, Frequency(2.2), &prefs);
        assert_eq!(parts.len(), 3);
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(parts[i].is_disjoint_from(&parts[j]));
            }
        }
        let total_c: u32 = parts.iter().map(|p| p.cores.count()).sum();
        let total_w: u32 = parts.iter().map(|p| p.ways.count()).sum();
        assert_eq!(total_c, 9);
        assert_eq!(total_w, 15);
    }
}
