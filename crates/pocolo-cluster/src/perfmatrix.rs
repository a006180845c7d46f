//! Building the BE×LC performance matrix from fitted models (§IV-B).
//!
//! For each (best-effort app, LC server) pair the builder walks the
//! primary's least-power expansion path over its load range; at each load
//! it computes the spare cores/ways and the power headroom under the
//! server's provisioned cap, then evaluates the BE app's fitted indirect
//! utility *inside that box*. The matrix entry is the average across loads
//! — so placements favour apps that benefit across the primary's **entire
//! load spectrum**, not one operating point (the Fig. 4 insight).

use std::collections::HashMap;

use pocolo_core::error::CoreError;
use pocolo_core::resources::{Allocation, ResourceDescriptor, ResourceSpace};
use pocolo_core::units::Watts;
use pocolo_core::utility::IndirectUtility;

use crate::error::ClusterError;
use crate::matrix::{MatrixDelta, PerfMatrix};

/// A latency-critical server as the cluster manager sees it: the fitted
/// model of its primary app, its provisioned power cap, and the primary's
/// peak load.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerProfile {
    /// Label (the primary app's name).
    pub label: String,
    /// Fitted indirect utility of the primary (performance = max
    /// sustainable load; power model includes the platform idle power).
    pub utility: IndirectUtility,
    /// Provisioned (right-sized) server power capacity.
    pub power_cap: Watts,
    /// The primary's peak load in its own units (requests/s).
    pub peak_load: f64,
}

/// One BE-independent slice of a server's least-power expansion path: what
/// the primary takes at one load level, and what that leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionStep {
    /// Load level as a fraction of the primary's peak.
    pub level: f64,
    /// The continuous least power for this level: the budget the primary's
    /// integral allocation is rounded down from. That allocation can serve
    /// less than the level.
    pub budget: Watts,
    /// The primary's hardware (integral) demand at that budget.
    pub lc_alloc: Allocation,
    /// Power headroom left under the server's provisioned cap.
    pub headroom: Watts,
    /// The spare-resource box a colocated BE app may occupy.
    pub sub_space: ResourceSpace,
}

/// A server's least-power expansion path over a set of load levels, with
/// everything that does **not** depend on the BE app computed once.
///
/// Building the path performs one `min_power_for` inversion plus one
/// integral demand solve per load level and builds the spare box;
/// evaluating a BE candidate against it costs one closed-form demand solve
/// inside each cached box and builds nothing. The matrix builder computes
/// one path per server and reuses it across every BE row, turning O(B·S·L)
/// inversions into O(S·L).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionPath {
    /// Number of load levels the path was computed over, including
    /// infeasible ones (the averaging divisor).
    levels: usize,
    /// The feasible steps only; levels where the primary needs the whole
    /// machine — or leaves no spare box — are dropped and contribute zero.
    steps: Vec<ExpansionStep>,
}

impl ExpansionPath {
    /// Walks `server`'s expansion path over `load_levels` (fractions of the
    /// primary's peak).
    ///
    /// # Errors
    ///
    /// Rejects an empty level list; propagates unexpected model errors.
    /// Infeasibility at individual levels is folded into dropped steps, not
    /// errors.
    pub fn compute(server: &ServerProfile, load_levels: &[f64]) -> Result<Self, ClusterError> {
        Self::walk(
            &server.utility,
            server.power_cap,
            server.peak_load,
            load_levels,
        )
    }

    /// [`ExpansionPath::compute`] over the three things a path depends on,
    /// so a caller holding a scaled cap need not clone a whole profile.
    fn walk(
        utility: &IndirectUtility,
        power_cap: Watts,
        peak_load: f64,
        load_levels: &[f64],
    ) -> Result<Self, ClusterError> {
        if load_levels.is_empty() {
            return Err(ClusterError::InvalidMatrix("no load levels".into()));
        }
        let space = utility.space();
        let k = space.len();
        let mut steps = Vec::with_capacity(load_levels.len());
        for &level in load_levels {
            let target = level * peak_load;
            let budget = match utility.min_power_for(target) {
                Ok(p) => p,
                Err(CoreError::UnreachableTarget { .. }) => {
                    // Primary needs everything; BE gets nothing at this load.
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            let lc_alloc = utility.demand_integral(budget)?;
            let lc_power = utility.power_model().power_of(&lc_alloc);
            let headroom = power_cap - lc_power;
            // Spare per dimension; whole units for integral resources.
            let spare: Vec<f64> = (0..k)
                .map(|j| {
                    let d = space.descriptor(j);
                    let raw = d.max() - lc_alloc.amount(j);
                    if d.is_integral() {
                        raw.floor()
                    } else {
                        raw
                    }
                })
                .collect();
            if spare.iter().any(|&v| v < 1.0) || headroom <= Watts::ZERO {
                continue;
            }
            let mut builder = ResourceSpace::builder();
            for (j, &v) in spare.iter().enumerate() {
                let d = space.descriptor(j);
                builder = builder.resource(if d.is_integral() {
                    ResourceDescriptor::integral(d.name(), 1.0, v)
                } else {
                    ResourceDescriptor::continuous(d.name(), 1.0, v)
                });
            }
            steps.push(ExpansionStep {
                level,
                budget,
                lc_alloc,
                headroom,
                sub_space: builder.build()?,
            });
        }
        Ok(ExpansionPath {
            levels: load_levels.len(),
            steps,
        })
    }

    /// The feasible steps of the path, in load-level order.
    pub fn steps(&self) -> &[ExpansionStep] {
        &self.steps
    }
}

/// Estimated average throughput of a BE app (fitted utility `be`) along a
/// precomputed expansion path.
///
/// Levels the path dropped as infeasible contribute a zero (the BE app
/// would be evicted); so do steps whose headroom cannot cover the BE's
/// minimum allocation.
///
/// # Errors
///
/// Propagates unexpected model errors (dimension mismatches etc.);
/// infeasibility is folded into zeros, not errors.
pub fn estimate_on_path(be: &IndirectUtility, path: &ExpansionPath) -> Result<f64, ClusterError> {
    let mut total = 0.0;
    for step in &path.steps {
        match be.value_in(&step.sub_space, step.headroom) {
            Ok(value) => total += value,
            Err(CoreError::InfeasibleBudget { .. }) => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(total / path.levels as f64)
}

/// Estimated average throughput of a BE app placed on `server`, averaged
/// over `load_levels` (fractions of the primary's peak).
///
/// One-shot convenience over [`ExpansionPath::compute`] +
/// [`estimate_on_path`]; callers scoring several BE apps against the same
/// server should compute the path once and reuse it, as
/// [`PerfMatrixBuilder::build`] does.
///
/// # Errors
///
/// Same conditions as [`ExpansionPath::compute`] and [`estimate_on_path`].
pub fn estimate_pair_throughput(
    be: &IndirectUtility,
    server: &ServerProfile,
    load_levels: &[f64],
) -> Result<f64, ClusterError> {
    estimate_on_path(be, &ExpansionPath::compute(server, load_levels)?)
}

/// Builds [`PerfMatrix`]es from fitted models over a configurable load
/// range.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMatrixBuilder {
    load_levels: Vec<f64>,
}

impl Default for PerfMatrixBuilder {
    /// The paper's uniform 10–90 % range in steps of 10 (§V-D).
    fn default() -> Self {
        PerfMatrixBuilder {
            load_levels: (1..=9).map(|i| i as f64 / 10.0).collect(),
        }
    }
}

impl PerfMatrixBuilder {
    /// Builder with the paper's default load range.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the load levels (fractions of each primary's peak).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    #[must_use]
    pub fn with_load_levels(mut self, levels: Vec<f64>) -> Self {
        assert!(!levels.is_empty(), "need at least one load level");
        self.load_levels = levels;
        self
    }

    /// The configured load levels.
    pub fn load_levels(&self) -> &[f64] {
        &self.load_levels
    }

    /// Builds the matrix: rows = best-effort apps, cols = servers, one
    /// expansion path per server at its provisioned cap.
    ///
    /// # Errors
    ///
    /// Propagates estimation errors; see [`estimate_pair_throughput`].
    pub fn build(
        &self,
        be_apps: &[(String, IndirectUtility)],
        servers: &[ServerProfile],
    ) -> Result<PerfMatrix, ClusterError> {
        let keys: Vec<usize> = (0..servers.len()).collect();
        self.build_keyed(be_apps, servers, &keys, |_| 1.0)
    }

    /// [`PerfMatrixBuilder::build`] through the cap-scaled class estimator
    /// (see [`PerfMatrixBuilder::rebuild_columns_keyed`]): column `col`'s
    /// cap reads as `power_cap * cap_factor(col)`, and columns sharing
    /// both a key and a factor share one expansion path and one estimate
    /// per BE row, so a heterogeneous fleet costs O(classes × levels)
    /// inversions and O(classes × apps) estimates instead of
    /// O(servers × ·). Equal keys assert that the profiles are
    /// interchangeable (same fitted utility, cap and peak: the same (SKU,
    /// primary-app) class); each class's first column is the one computed,
    /// and its values are copied bit for bit to the rest.
    ///
    /// # Errors
    ///
    /// Rejects a key list whose length differs from `servers`; otherwise
    /// as [`PerfMatrixBuilder::build`].
    pub(crate) fn build_keyed(
        &self,
        be_apps: &[(String, IndirectUtility)],
        servers: &[ServerProfile],
        keys: &[usize],
        cap_factor: impl Fn(usize) -> f64,
    ) -> Result<PerfMatrix, ClusterError> {
        if be_apps.is_empty() || servers.is_empty() {
            return Err(ClusterError::InvalidMatrix(
                "need at least one app and one server".into(),
            ));
        }
        check_keys(keys, servers)?;
        let mut values = vec![vec![0.0; servers.len()]; be_apps.len()];
        self.estimate_by_class(
            be_apps,
            servers,
            keys,
            cap_factor,
            0..servers.len(),
            |col, column| {
                for (row, &v) in values.iter_mut().zip(column) {
                    row[col] = v;
                }
            },
        )?;
        PerfMatrix::new(
            be_apps.iter().map(|(l, _)| l.clone()).collect(),
            servers.iter().map(|s| s.label.clone()).collect(),
            values,
        )
    }

    /// Re-estimates only the given columns of `current` against (possibly
    /// updated) server profiles and returns the [`MatrixDelta`] between the
    /// old and freshly-estimated values — the input to the incremental
    /// replan path. Expansion paths are recomputed for the listed columns
    /// only, so a single-server cap de-rate costs one path, not a full
    /// matrix rebuild.
    ///
    /// The crate's keyed, cap-scaled rebuild (`rebuild_columns_keyed`,
    /// which the replans go through) with every column carrying a distinct
    /// key at its provisioned cap: one expansion path per listed column.
    ///
    /// Columns currently disabled in `current` (faulted-out servers) are
    /// skipped: rebuilding must not silently re-admit them. Unchanged
    /// columns produce no edit.
    ///
    /// # Errors
    ///
    /// Rejects shape mismatches between `current`, `be_apps` and
    /// `servers`, and out-of-range columns; propagates estimation
    /// failures.
    pub fn rebuild_columns(
        &self,
        be_apps: &[(String, IndirectUtility)],
        servers: &[ServerProfile],
        cols: &[usize],
        current: &PerfMatrix,
    ) -> Result<MatrixDelta, ClusterError> {
        let keys: Vec<usize> = (0..servers.len()).collect();
        self.rebuild_columns_keyed(be_apps, servers, &keys, |_| 1.0, cols, current)
    }

    /// The one keyed, cap-scaled column rebuild every replan goes
    /// through: column `col`'s cap reads as `power_cap * cap_factor(col)`
    /// (no profile is cloned), and among the listed columns those sharing
    /// a key *and* a factor share one expansion path and one estimated
    /// column, computed at the class's first listed enabled column. A
    /// fleet-wide cap change costs O(classes × levels) inversions, not
    /// O(servers × levels). Disabled columns are skipped and unchanged
    /// ones produce no edit, as in [`PerfMatrixBuilder::rebuild_columns`].
    ///
    /// # Errors
    ///
    /// As [`PerfMatrixBuilder::rebuild_columns`], and rejects a key list
    /// whose length differs from `servers`.
    pub(crate) fn rebuild_columns_keyed(
        &self,
        be_apps: &[(String, IndirectUtility)],
        servers: &[ServerProfile],
        keys: &[usize],
        cap_factor: impl Fn(usize) -> f64,
        cols: &[usize],
        current: &PerfMatrix,
    ) -> Result<MatrixDelta, ClusterError> {
        if servers.len() != current.cols() || be_apps.len() != current.rows() {
            return Err(ClusterError::InvalidMatrix(format!(
                "rebuild over {}x{} inputs against a {}x{} matrix",
                be_apps.len(),
                servers.len(),
                current.rows(),
                current.cols()
            )));
        }
        check_keys(keys, servers)?;
        if let Some(&col) = cols.iter().find(|&&col| col >= current.cols()) {
            return Err(ClusterError::InvalidMatrix(format!(
                "rebuild column {col} out of range ({} cols)",
                current.cols()
            )));
        }
        let mut changed: Vec<(usize, Vec<f64>)> = Vec::new();
        self.estimate_by_class(
            be_apps,
            servers,
            keys,
            cap_factor,
            cols.iter()
                .copied()
                .filter(|&col| !current.is_col_disabled(col)),
            |col, column| {
                if current.col_iter(col).zip(column).any(|(a, &b)| a != b) {
                    changed.push((col, column.to_vec()));
                }
            },
        )?;
        // Classes come out in first-seen order; the delta keeps its edits
        // sorted, so feed it ascending columns (each insert is an append).
        changed.sort_unstable_by_key(|&(col, _)| col);
        Ok(changed
            .into_iter()
            .fold(MatrixDelta::new(), |delta, (col, column)| {
                delta.set_column(col, column)
            }))
    }

    /// Estimates the listed columns class by class. A *class* is the
    /// columns sharing a key and a cap factor (compared bit for bit): two
    /// columns with one key are interchangeable profiles, and stay so only
    /// under one factor. Each class's expansion path — the min_power_for
    /// inversions and integral demand solves at `power_cap * factor` — is
    /// BE-independent, so it and the column of per-BE estimates on it are
    /// computed exactly once, at the class's first listed column, and
    /// handed to `emit(col, column)` for every listed column of the class.
    /// One class column is alive at a time; nothing outlives the call.
    fn estimate_by_class(
        &self,
        be_apps: &[(String, IndirectUtility)],
        servers: &[ServerProfile],
        keys: &[usize],
        cap_factor: impl Fn(usize) -> f64,
        cols: impl Iterator<Item = usize>,
        mut emit: impl FnMut(usize, &[f64]),
    ) -> Result<(), ClusterError> {
        let mut class_of: HashMap<(usize, u64), usize> = HashMap::new();
        let mut classes: Vec<(f64, Vec<usize>)> = Vec::new();
        for col in cols {
            let factor = cap_factor(col);
            let class = *class_of
                .entry((keys[col], factor.to_bits()))
                .or_insert_with(|| {
                    classes.push((factor, Vec::new()));
                    classes.len() - 1
                });
            classes[class].1.push(col);
        }
        let mut column = Vec::with_capacity(be_apps.len());
        for (factor, members) in &classes {
            let server = &servers[members[0]];
            let path = ExpansionPath::walk(
                &server.utility,
                server.power_cap * *factor,
                server.peak_load,
                &self.load_levels,
            )?;
            column.clear();
            for (_, be) in be_apps {
                column.push(estimate_on_path(be, &path)?);
            }
            for &col in members {
                emit(col, &column);
            }
        }
        Ok(())
    }
}

fn check_keys(keys: &[usize], servers: &[ServerProfile]) -> Result<(), ClusterError> {
    if keys.len() != servers.len() {
        return Err(ClusterError::InvalidMatrix(format!(
            "{} class keys for {} servers",
            keys.len(),
            servers.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::fit::{fit_indirect_utility, FitOptions};
    use pocolo_simserver::power::PowerDrawModel;
    use pocolo_simserver::MachineSpec;
    use pocolo_workloads::profiler::{profile_be, profile_lc, ProfilerConfig};
    use pocolo_workloads::{BeApp, BeModel, LcApp, LcModel};
    use proptest::prelude::*;
    use rand::prelude::*;

    fn fitted_cluster() -> (Vec<(String, IndirectUtility)>, Vec<ServerProfile>) {
        let machine = MachineSpec::xeon_e5_2650();
        let power = PowerDrawModel::new(machine.clone());
        let space = machine.resource_space();
        let cfg = ProfilerConfig::default();
        let servers = LcApp::ALL
            .iter()
            .map(|&app| {
                let truth = LcModel::for_app(app, machine.clone());
                let samples = profile_lc(&truth, &power, &space, &cfg);
                let fit = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();
                ServerProfile {
                    label: app.name().to_string(),
                    utility: fit.utility,
                    power_cap: truth.provisioned_power(),
                    peak_load: truth.peak_load_rps(),
                }
            })
            .collect();
        let bes = BeApp::ALL
            .iter()
            .map(|&app| {
                let truth = BeModel::for_app(app, machine.clone());
                let samples = profile_be(&truth, &power, &space, &cfg);
                let fit = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();
                (app.name().to_string(), fit.utility)
            })
            .collect();
        (bes, servers)
    }

    #[test]
    fn matrix_has_sane_shape_and_values() {
        let (bes, servers) = fitted_cluster();
        let m = PerfMatrixBuilder::new().build(&bes, &servers).unwrap();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 4);
        for r in 0..4 {
            for c in 0..4 {
                let v = m.value(r, c);
                assert!(v.is_finite() && v >= 0.0);
                assert!(v < 1.5, "normalized throughput estimate should be < 1.5");
            }
        }
    }

    #[test]
    fn estimates_decrease_with_narrower_headroom() {
        let (bes, servers) = fitted_cluster();
        let be = &bes[2].1; // graph
        let mut tight = servers[1].clone(); // sphinx
        let loose = tight.clone();
        tight.power_cap -= Watts(30.0);
        let levels = [0.3, 0.5, 0.7];
        let v_loose = estimate_pair_throughput(be, &loose, &levels).unwrap();
        let v_tight = estimate_pair_throughput(be, &tight, &levels).unwrap();
        assert!(
            v_tight < v_loose,
            "tighter cap must shrink the estimate: {v_tight} !< {v_loose}"
        );
    }

    #[test]
    fn high_loads_leave_less_for_be() {
        let (bes, servers) = fitted_cluster();
        let be = &bes[0].1;
        let low = estimate_pair_throughput(be, &servers[2], &[0.1]).unwrap();
        let high = estimate_pair_throughput(be, &servers[2], &[0.9]).unwrap();
        assert!(high < low);
        // A level past the primary's reach is dropped but still counts in
        // the divisor.
        let past = ExpansionPath::compute(&servers[2], &[0.1, 10.0]).unwrap();
        assert_eq!(past.steps().len(), 1);
        assert_eq!(estimate_on_path(be, &past).unwrap(), low / 2.0);
    }

    #[test]
    fn build_computes_each_expansion_path_exactly_once() {
        use pocolo_core::utility::min_power_solves_on_thread;
        let (bes, servers) = fitted_cluster();
        let levels = PerfMatrixBuilder::new().load_levels().len();
        let before = min_power_solves_on_thread();
        PerfMatrixBuilder::new().build(&bes, &servers).unwrap();
        let solves = min_power_solves_on_thread() - before;
        // One inversion per (server, level) — NOT per (BE, server, level):
        // the B BE rows ride on the cached paths.
        assert_eq!(solves, (servers.len() * levels) as u64);
    }

    #[test]
    fn cached_path_matches_one_shot_estimate() {
        let (bes, servers) = fitted_cluster();
        let levels = [0.2, 0.5, 0.8];
        let path = ExpansionPath::compute(&servers[1], &levels).unwrap();
        assert_eq!(path.levels, 3);
        for (_, be) in &bes {
            let cached = estimate_on_path(be, &path).unwrap();
            let one_shot = estimate_pair_throughput(be, &servers[1], &levels).unwrap();
            assert_eq!(cached, one_shot);
        }
        let sphinx = &servers[1];
        let space = sphinx.utility.space();
        for step in path.steps() {
            assert!(step.headroom > Watts::ZERO);
            assert!(step.budget <= sphinx.power_cap);
            assert!(step.sub_space.len() == space.len());
            assert!(step.lc_alloc.amounts().iter().all(|&a| a > 0.0));
            // The spare box is the floored complement of the primary's
            // allocation; the headroom is the cap minus its modeled draw.
            for j in 0..space.len() {
                let spare = space.descriptor(j).max() - step.lc_alloc.amount(j);
                assert_eq!(step.sub_space.descriptor(j).max(), spare.floor());
            }
            let draw = sphinx.utility.power_model().power_of(&step.lc_alloc);
            assert_eq!(step.headroom, sphinx.power_cap - draw);
        }
        // The power along the path never falls.
        for pair in path.steps().windows(2) {
            assert!(pair[1].budget >= pair[0].budget);
            assert!(pair[1].headroom <= pair[0].headroom);
        }
        // Cache-hungry sphinx leaves proportionally more cores than ways.
        let mid = path.steps().iter().find(|s| s.level == 0.5).unwrap();
        let share = |j: usize| mid.sub_space.descriptor(j).max() / space.descriptor(j).max();
        assert!(share(0) > share(1), "{mid:?}");
    }

    #[test]
    fn rebuild_columns_finds_exactly_the_derated_column() {
        use pocolo_core::utility::min_power_solves_on_thread;
        let (bes, servers) = fitted_cluster();
        let builder = PerfMatrixBuilder::new();
        let m = builder.build(&bes, &servers).unwrap();
        let mut derated = servers.clone();
        derated[1].power_cap -= Watts(30.0);
        // Even when asked to check every column, only the de-rated one
        // produces an edit.
        let delta = builder
            .rebuild_columns(&bes, &derated, &[0, 1, 2, 3], &m)
            .unwrap();
        assert_eq!(delta.dirty_cols().collect::<Vec<_>>(), vec![1]);
        // Patching the old matrix reproduces a from-scratch rebuild.
        let fresh = builder.build(&bes, &derated).unwrap();
        assert_eq!(m.patched(&delta).unwrap(), fresh);
        // Rebuilding one column pays one expansion path, not four.
        let levels = builder.load_levels().len() as u64;
        let before = min_power_solves_on_thread();
        builder.rebuild_columns(&bes, &derated, &[1], &m).unwrap();
        assert_eq!(min_power_solves_on_thread() - before, levels);
        // Disabled columns are skipped, never re-admitted.
        let faulted = m
            .patched(&crate::matrix::MatrixDelta::new().disable_column(1))
            .unwrap();
        let skip = builder
            .rebuild_columns(&bes, &derated, &[1], &faulted)
            .unwrap();
        assert!(skip.is_empty());
        // Shape mismatches are rejected.
        assert!(builder
            .rebuild_columns(&bes, &derated[..2], &[0], &m)
            .is_err());
        assert!(builder.rebuild_columns(&bes, &derated, &[9], &m).is_err());
    }

    #[test]
    fn build_keyed_shares_paths_across_equal_keys() {
        use pocolo_core::utility::min_power_solves_on_thread;
        let (bes, servers) = fitted_cluster();
        let builder = PerfMatrixBuilder::new();
        // A fleet twice the size, but every (class, primary) pair appears
        // twice: columns 0..4 and 4..8 are interchangeable.
        let doubled: Vec<ServerProfile> = servers.iter().chain(servers.iter()).cloned().collect();
        let keys = [0usize, 1, 2, 3, 0, 1, 2, 3];
        let levels = builder.load_levels().len();
        let before = min_power_solves_on_thread();
        let keyed = builder.build_keyed(&bes, &doubled, &keys, |_| 1.0).unwrap();
        let solves = min_power_solves_on_thread() - before;
        // One inversion per (class, level) — NOT per (server, level): the
        // duplicated columns ride on the cached class paths.
        assert_eq!(solves, (4 * levels) as u64);
        // The cached values are bit-identical to an unkeyed build that
        // pays the full per-server cost.
        let dense = builder.build(&bes, &doubled).unwrap();
        assert_eq!(keyed, dense);
        // And columns sharing a key carry bit-identical values.
        for r in 0..keyed.rows() {
            for c in 0..4 {
                assert_eq!(keyed.value(r, c).to_bits(), keyed.value(r, c + 4).to_bits());
            }
        }
    }

    #[test]
    fn build_keyed_rejects_key_shape_mismatch() {
        let (bes, servers) = fitted_cluster();
        let err = PerfMatrixBuilder::new()
            .build_keyed(&bes, &servers, &[0, 1], |_| 1.0)
            .unwrap_err();
        assert!(format!("{err}").contains("class keys"));
    }

    /// A synthetic Cobb-Douglas utility: profiling real workloads is too
    /// slow for a property loop, and the estimator only sees fitted
    /// `IndirectUtility` values either way.
    fn synthetic_utility(a0: f64, ac: f64, aw: f64) -> IndirectUtility {
        use pocolo_core::fleet::ServerClass;
        use pocolo_core::utility::{CobbDouglas, PowerModel};
        let perf = CobbDouglas::new(a0, vec![ac, aw]).unwrap();
        let power = PowerModel::new(Watts(40.0), vec![6.0, 1.5]).unwrap();
        IndirectUtility::new(ServerClass::xeon_e5_2650().resource_space(), perf, power).unwrap()
    }

    /// `n_classes` distinct profiles, each repeated 1–3 times in shuffled
    /// column order, with the class index as the key.
    fn classed_fleet(n_classes: usize, rng: &mut StdRng) -> (Vec<ServerProfile>, Vec<usize>) {
        let mut keys: Vec<usize> = (0..n_classes)
            .flat_map(|k| std::iter::repeat_n(k, rng.gen_range(1..=3)))
            .collect();
        keys.shuffle(rng);
        let servers = keys
            .iter()
            .enumerate()
            .map(|(j, &k)| {
                let utility = synthetic_utility(80.0 + k as f64, 0.35 + 0.07 * k as f64, 0.2);
                ServerProfile {
                    label: format!("lc{j}"),
                    peak_load: utility.value(utility.max_power()).unwrap(),
                    utility,
                    power_cap: Watts(120.0),
                }
            })
            .collect();
        (servers, keys)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The keyed, cap-scaled rebuild is the unkeyed rebuild over
        /// hand-derated profiles, edit for edit and bit for bit: over
        /// fleets with repeated classes, with columns disabled (the first
        /// listed one among them, so some class's representative is not
        /// its first listed column) and a shuffled strict subset of columns
        /// listed, under one factor and under per-column factors that
        /// split shared classes. The dense budget replan prices the same
        /// per-column factors through the same estimator.
        #[test]
        fn keyed_rebuild_is_the_unkeyed_rebuild(
            n_classes in 1usize..=4,
            n_bes in 1usize..=3,
            factor in 0.6f64..1.0,
            seed in any::<u64>(),
        ) {
            use crate::assign::Solver;
            use crate::matrix::ColumnEdit;
            use crate::ClusterManager;
            use pocolo_core::utility::min_power_solves_on_thread;

            let mut rng = StdRng::seed_from_u64(seed);
            let (servers, keys) = classed_fleet(n_classes, &mut rng);
            let bes: Vec<(String, IndirectUtility)> = (0..n_bes)
                .map(|i| (format!("be{i}"), synthetic_utility(50.0, 0.3 + 0.05 * i as f64, 0.25)))
                .collect();
            let builder = PerfMatrixBuilder::new();
            let built = builder.build_keyed(&bes, &servers, &keys, |_| 1.0).unwrap();
            let n = servers.len();
            let mut cols: Vec<usize> = (0..n).collect();
            cols.shuffle(&mut rng);
            if n > 1 {
                cols.truncate(rng.gen_range(1..n));
            }
            let mut disable = MatrixDelta::new().disable_column(cols[0]);
            for col in 0..n {
                if rng.gen_bool(0.2) {
                    disable = disable.disable_column(col);
                }
            }
            let current = built.patched(&disable).unwrap();
            let split: Vec<f64> = (0..n)
                .map(|_| if rng.gen_bool(0.5) { factor } else { factor * 0.9 })
                .collect();
            for factors in [vec![factor; n], split] {
                let derated: Vec<ServerProfile> = servers
                    .iter()
                    .zip(&factors)
                    .map(|(s, &f)| ServerProfile { power_cap: s.power_cap * f, ..s.clone() })
                    .collect();
                let unkeyed = builder.rebuild_columns(&bes, &derated, &cols, &current).unwrap();
                let before = min_power_solves_on_thread();
                let keyed = builder
                    .rebuild_columns_keyed(&bes, &servers, &keys, |c| factors[c], &cols, &current)
                    .unwrap();
                let solves = min_power_solves_on_thread() - before;
                prop_assert_eq!(&keyed, &unkeyed);
                for ((kc, ke), (uc, ue)) in keyed.edits().iter().zip(unkeyed.edits()) {
                    prop_assert_eq!(kc, uc);
                    match (ke, ue) {
                        (ColumnEdit::Set(k), ColumnEdit::Set(u)) => {
                            for (a, b) in k.iter().zip(u) {
                                prop_assert_eq!(a.to_bits(), b.to_bits());
                            }
                        }
                        other => prop_assert!(false, "a rebuild only sets columns: {other:?}"),
                    }
                }
                prop_assert!(keyed.dirty_cols().all(|c| cols.contains(&c) && !current.is_col_disabled(c)));
                // One path per (key, factor) class with an enabled listed
                // column.
                let mut live: Vec<(usize, u64)> = cols
                    .iter()
                    .filter(|&&c| !current.is_col_disabled(c))
                    .map(|&c| (keys[c], factors[c].to_bits()))
                    .collect();
                live.sort_unstable();
                live.dedup();
                prop_assert_eq!(solves, (live.len() * builder.load_levels().len()) as u64);

                if n >= n_bes {
                    let mgr = ClusterManager::new(bes.clone(), servers.clone())
                        .with_profile_keys(keys.clone());
                    let incumbent = mgr.place(Solver::Random { seed }).unwrap();
                    let kept = mgr.replan_under_budget(&factors, &incumbent, 1e6).unwrap();
                    let want = builder
                        .build(&bes, &derated)
                        .unwrap()
                        .assignment_value(&incumbent.pairs);
                    prop_assert_eq!(&kept.pairs, &incumbent.pairs);
                    prop_assert_eq!(kept.total.to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_inputs_rejected() {
        let (bes, servers) = fitted_cluster();
        assert!(PerfMatrixBuilder::new().build(&[], &servers).is_err());
        assert!(PerfMatrixBuilder::new().build(&bes, &[]).is_err());
        assert!(estimate_pair_throughput(&bes[0].1, &servers[0], &[]).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one load level")]
    fn empty_levels_panics() {
        let _ = PerfMatrixBuilder::new().with_load_levels(vec![]);
    }
}

#[cfg(test)]
mod k3_tests {
    use super::*;
    use pocolo_core::fit::{fit_indirect_utility, FitOptions};
    use pocolo_workloads::membw::{three_resource_space, ThreeResourceApp};

    #[test]
    fn estimates_work_at_three_resources() {
        // A three-resource "primary" (the analytics mix scaled up) and a
        // three-resource BE candidate: the matrix machinery must handle
        // k = 3 spaces without assuming cores/ways.
        let space = three_resource_space();
        let primary = ThreeResourceApp::analytics_mix();
        let be = ThreeResourceApp::compute_kernel();
        let fit = |app: &ThreeResourceApp| {
            fit_indirect_utility(&space, &app.profile(0.02, 5), &FitOptions::default())
                .unwrap()
                .utility
        };
        let primary_fit = fit(&primary);
        let be_fit = fit(&be);
        let peak = primary_fit
            .value(primary_fit.max_power())
            .expect("max power is feasible");
        let server = ServerProfile {
            label: "analytics".into(),
            utility: primary_fit,
            power_cap: Watts(120.0),
            peak_load: peak,
        };
        let levels = [0.2, 0.5, 0.8];
        let v = estimate_pair_throughput(&be_fit, &server, &levels).unwrap();
        assert!(v.is_finite() && v > 0.0, "estimate {v}");
        // Tighter cap -> smaller estimate, as at k = 2.
        let mut tight = server.clone();
        tight.power_cap = Watts(90.0);
        let v_tight = estimate_pair_throughput(&be_fit, &tight, &levels).unwrap();
        assert!(v_tight < v);
    }
}
