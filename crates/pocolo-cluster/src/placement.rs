//! The cluster manager: performance matrix + assignment solver (Fig. 7,
//! stages II–III).

use pocolo_core::utility::IndirectUtility;

use crate::assign::auction::{self, AuctionConfig, AuctionSolution};
use crate::assign::sparse::SparseCandidates;
use crate::assign::{self, Assignment, Solver};
use crate::error::ClusterError;
use crate::matrix::{MatrixDelta, PerfMatrix};
use crate::perfmatrix::{PerfMatrixBuilder, ServerProfile};

/// The `(be, server)` pairs of `new` that are not already in `old` — the
/// migrations a replan implies. Both pair lists are sorted by row
/// ([`Assignment::new`] guarantees it), so this is a linear merge, not the
/// O(n²) `contains` scan it replaces.
pub fn migration_diff(old: &Assignment, new: &Assignment) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    for &(row, col) in &new.pairs {
        while i < old.pairs.len() && old.pairs[i].0 < row {
            i += 1;
        }
        if i < old.pairs.len() && old.pairs[i] == (row, col) {
            continue;
        }
        out.push((row, col));
    }
    out
}

/// A solved sparse placement plus everything needed to repair it
/// incrementally: the matrix it was solved on, the candidate lists, and
/// the auction's dual prices. Produced by [`ClusterManager::plan_sparse`];
/// replans mutate it in place through [`PlacementPlan::apply_delta`].
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    matrix: PerfMatrix,
    cands: SparseCandidates,
    solution: AuctionSolution,
    eps: f64,
}

impl PlacementPlan {
    /// The current placement.
    pub fn assignment(&self) -> &Assignment {
        &self.solution.assignment
    }

    /// The matrix the current placement was solved on.
    pub fn matrix(&self) -> &PerfMatrix {
        &self.matrix
    }

    /// The full auction solution (prices, certification, op counters).
    pub fn solution(&self) -> &AuctionSolution {
        &self.solution
    }

    /// The auction's dual column prices — the state
    /// [`PlacementPlan::apply_delta`] re-bids dirtied rows from.
    pub fn prices(&self) -> &[f64] {
        &self.solution.prices
    }

    /// Repairs the plan after a matrix change, re-bidding only the rows
    /// the delta dirties (warm-started from the previous prices). Returns
    /// the migration intents: pairs of the new placement not already in
    /// the old one.
    ///
    /// The plan's matrix and candidate lists are patched in place — the
    /// whole delta is validated first, and only the dirtied columns are
    /// saved — so a repair never copies the fleet-sized matrix or lists.
    ///
    /// # Errors
    ///
    /// Propagates patching and solver failures; on error the plan's
    /// matrix and solution are unchanged (a failed solve puts the saved
    /// columns back). So are its lists, except after
    /// [`ClusterError::Infeasible`], the one solver error found after the
    /// lists were patched (see [`auction::solve_incremental`]; no test or
    /// benchmark run reaches it): then they are rebuilt from the restored
    /// matrix at their previous width, without their splices.
    pub fn apply_delta(
        &mut self,
        delta: &MatrixDelta,
    ) -> Result<Vec<(usize, usize)>, ClusterError> {
        let undo = self.matrix.patch(delta)?;
        let cfg = AuctionConfig::with_eps(self.eps);
        let k = self.cands.k();
        let solved =
            auction::solve_incremental(&self.matrix, &mut self.cands, &self.solution, delta, &cfg);
        match solved {
            Ok(next) => {
                let intents = migration_diff(&self.solution.assignment, &next.assignment);
                self.solution = next;
                Ok(intents)
            }
            Err(e) => {
                self.matrix.unpatch(undo);
                if e == ClusterError::Infeasible {
                    self.cands = SparseCandidates::build(&self.matrix, k);
                }
                Err(e)
            }
        }
    }
}

/// Cluster-level placement engine.
///
/// Owns the fitted models of every best-effort candidate and every
/// latency-critical server; produces the performance matrix and solves the
/// placement.
#[derive(Debug, Clone)]
pub struct ClusterManager {
    be_apps: Vec<(String, IndirectUtility)>,
    servers: Vec<ServerProfile>,
    builder: PerfMatrixBuilder,
    /// Expansion-path cache keys per server column: columns sharing a key
    /// share one path and one estimate per BE row. One key per column
    /// (the legacy homogeneous path) unless
    /// [`ClusterManager::with_profile_keys`] says otherwise.
    profile_keys: Vec<usize>,
}

impl ClusterManager {
    /// Creates a manager over fitted BE apps and LC server profiles, using
    /// the paper's default 10–90 % load range for estimation.
    pub fn new(be_apps: Vec<(String, IndirectUtility)>, servers: Vec<ServerProfile>) -> Self {
        ClusterManager {
            be_apps,
            profile_keys: (0..servers.len()).collect(),
            servers,
            builder: PerfMatrixBuilder::new(),
        }
    }

    /// Overrides the load levels used for matrix estimation.
    #[must_use]
    pub fn with_load_levels(mut self, levels: Vec<f64>) -> Self {
        self.builder = self.builder.with_load_levels(levels);
        self
    }

    /// Sets expansion-path cache keys (one per server column): columns
    /// sharing a key are interchangeable profiles — the same (SKU,
    /// primary-app) class — and share one expansion path and one estimate
    /// per BE row ([`PerfMatrixBuilder::build_keyed`]).
    ///
    /// # Panics
    ///
    /// Panics if the key list doesn't cover every server.
    #[must_use]
    pub fn with_profile_keys(mut self, keys: Vec<usize>) -> Self {
        assert_eq!(keys.len(), self.servers.len(), "one cache key per server");
        self.profile_keys = keys;
        self
    }

    /// The smallest profile key no column other than `col` holds. The
    /// other `n - 1` columns cannot cover all of `0..n`, so one is free.
    fn unused_profile_key(&self, col: usize) -> usize {
        let mut used = vec![false; self.profile_keys.len()];
        for (j, &key) in self.profile_keys.iter().enumerate() {
            if j != col && key < used.len() {
                used[key] = true;
            }
        }
        used.iter()
            .position(|&u| !u)
            .expect("n - 1 keys cannot cover n values")
    }

    /// The best-effort candidates (label, fitted utility).
    pub fn be_apps(&self) -> &[(String, IndirectUtility)] {
        &self.be_apps
    }

    /// The LC server profiles.
    pub fn servers(&self) -> &[ServerProfile] {
        &self.servers
    }

    /// Builds the BE×LC performance matrix.
    ///
    /// # Errors
    ///
    /// Propagates estimation failures.
    pub fn performance_matrix(&self) -> Result<PerfMatrix, ClusterError> {
        self.builder
            .build_keyed(&self.be_apps, &self.servers, &self.profile_keys)
    }

    /// Builds the matrix and solves the placement with `solver`.
    ///
    /// # Errors
    ///
    /// Propagates matrix and solver failures.
    pub fn place(&self, solver: Solver) -> Result<Assignment, ClusterError> {
        let matrix = self.performance_matrix()?;
        assign::solve(&matrix, solver)
    }

    /// Re-solves the placement under a shrunk power budget (a brownout or
    /// infrastructure de-rating): each server's cap is scaled by its *own*
    /// factor — the brownout request pushed through each SKU's power
    /// curve, so a step-function class that must shed a whole power plane
    /// replans at the factor it actually holds, not the one the
    /// infrastructure asked for (a homogeneous fleet passes one factor
    /// repeated). The matrix is rebuilt and a fresh assignment is solved
    /// exactly, with [`Solver::Hungarian`] — but the `incumbent` placement
    /// is kept unless the new one beats it by more than `hysteresis`
    /// (relative, on the *shrunk* matrix). The
    /// hysteresis is what keeps the cluster from thrashing migrations over
    /// marginal gains while the budget flaps.
    ///
    /// Returns the chosen assignment (its `total` is always measured on
    /// the shrunk matrix, for either choice); [`migration_diff`] against
    /// the incumbent gives the migrations it implies.
    ///
    /// # Errors
    ///
    /// Propagates matrix and solver failures.
    ///
    /// # Panics
    ///
    /// Panics if `cap_factors` doesn't cover every server, any factor is
    /// outside `(0, 1]`, or `hysteresis` is negative.
    pub fn replan_under_budget(
        &self,
        cap_factors: &[f64],
        incumbent: &Assignment,
        hysteresis: f64,
    ) -> Result<Assignment, ClusterError> {
        assert_eq!(
            cap_factors.len(),
            self.servers.len(),
            "one cap factor per server"
        );
        for &f in cap_factors {
            assert!(f > 0.0 && f <= 1.0, "cap factor must be in (0, 1], got {f}");
        }
        assert!(
            hysteresis >= 0.0 && hysteresis.is_finite(),
            "hysteresis must be non-negative, got {hysteresis}"
        );
        let shrunk: Vec<ServerProfile> = self
            .servers
            .iter()
            .zip(cap_factors)
            .map(|(s, &f)| ServerProfile {
                label: s.label.clone(),
                utility: s.utility.clone(),
                power_cap: s.power_cap * f,
                peak_load: s.peak_load,
            })
            .collect();
        // Per-server factors can split a cache class: two columns that
        // shared a key stay interchangeable only if they also share a
        // factor, so re-key on (base key, factor bits).
        let mut seen: Vec<((usize, u64), usize)> = Vec::new();
        let keys: Vec<usize> = cap_factors
            .iter()
            .enumerate()
            .map(|(j, f)| {
                let pair = (self.profile_keys[j], f.to_bits());
                match seen.iter().find(|(p, _)| *p == pair) {
                    Some(&(_, key)) => key,
                    None => {
                        let key = seen.len();
                        seen.push((pair, key));
                        key
                    }
                }
            })
            .collect();
        let matrix = self.builder.build_keyed(&self.be_apps, &shrunk, &keys)?;
        let fresh = assign::solve(&matrix, Solver::Hungarian)?;
        let incumbent_total = matrix.assignment_value(&incumbent.pairs);
        if fresh.total > incumbent_total * (1.0 + hysteresis) {
            Ok(fresh)
        } else {
            Ok(Assignment::new(incumbent.pairs.clone(), incumbent_total))
        }
    }

    /// Solves the placement through the sparse auction path and returns a
    /// [`PlacementPlan`] that later replans can repair incrementally
    /// instead of re-solving from scratch.
    ///
    /// # Errors
    ///
    /// Propagates matrix and solver failures.
    pub fn plan_sparse(&self, eps: f64) -> Result<PlacementPlan, ClusterError> {
        let matrix = self.performance_matrix()?;
        let k = SparseCandidates::default_k(matrix.cols());
        let mut cands = SparseCandidates::build(&matrix, k);
        let cfg = AuctionConfig::with_eps(eps);
        let solution = auction::solve_with_candidates(&matrix, &mut cands, &cfg)?;
        Ok(PlacementPlan {
            matrix,
            cands,
            solution,
            eps,
        })
    }

    /// Repairs `plan` after per-server faults: the given columns leave the
    /// fleet, their BE tenants are re-bid onto the survivors, every other
    /// pair stays put unless the eviction cascade moves it. Returns the
    /// migration intents.
    ///
    /// # Errors
    ///
    /// Propagates patching and solver failures ([`ClusterError::TooManyApps`]
    /// when the survivors cannot host every BE app).
    pub fn replan_after_faults(
        &self,
        plan: &mut PlacementPlan,
        faulted_cols: &[usize],
    ) -> Result<Vec<(usize, usize)>, ClusterError> {
        let mut delta = MatrixDelta::new();
        for &col in faulted_cols {
            delta = delta.disable_column(col);
        }
        plan.apply_delta(&delta)
    }

    /// Incremental counterpart of [`ClusterManager::replan_under_budget`]:
    /// re-estimates the enabled columns once per profile class (via
    /// [`PerfMatrixBuilder::rebuild_columns_keyed`] over the manager's
    /// profile keys, caps scaled by `cap_factor`), keeps the edits for the
    /// columns the cap change actually dirties, and repairs the plan's
    /// assignment from its previous prices. The same hysteresis rule
    /// applies: if the repaired placement does not beat the incumbent by
    /// more than `hysteresis` on the patched matrix, the incumbent pairs
    /// are kept and no migrations are emitted.
    ///
    /// # Errors
    ///
    /// Propagates estimation and solver failures.
    ///
    /// # Panics
    ///
    /// Panics if `cap_factor` is outside `(0, 1]` or `hysteresis` is
    /// negative.
    pub fn replan_under_budget_incremental(
        &self,
        plan: &mut PlacementPlan,
        cap_factor: f64,
        hysteresis: f64,
    ) -> Result<Vec<(usize, usize)>, ClusterError> {
        assert!(
            cap_factor > 0.0 && cap_factor <= 1.0,
            "cap factor must be in (0, 1], got {cap_factor}"
        );
        assert!(
            hysteresis >= 0.0 && hysteresis.is_finite(),
            "hysteresis must be non-negative, got {hysteresis}"
        );
        let all_cols: Vec<usize> = (0..plan.matrix.cols()).collect();
        let delta = self.builder.rebuild_columns_scaled(
            &self.be_apps,
            &self.servers,
            &self.profile_keys,
            cap_factor,
            &all_cols,
            &plan.matrix,
        )?;
        let incumbent = plan.solution.assignment.clone();
        let intents = plan.apply_delta(&delta)?;
        let incumbent_total = plan.matrix.assignment_value(&incumbent.pairs);
        if plan.solution.assignment.total > incumbent_total * (1.0 + hysteresis) {
            Ok(intents)
        } else {
            // Hysteresis keeps the incumbent; the repaired prices stay as
            // warm-start state for the next replan.
            plan.solution.assignment = Assignment::new(incumbent.pairs, incumbent_total);
            Ok(Vec::new())
        }
    }

    /// Adopts a freshly refitted utility model for server `col` and
    /// repairs the plan around it. This is the online-refit hook used by
    /// `pocolo-traffic`: when an [`OnlineFitter`] drifts far enough from
    /// the model a column was planned with, the stale column — and only
    /// that column — is re-estimated under the current power budget
    /// (`cap_factor` of each server's provisioned cap, `1.0` outside a
    /// brownout) and the assignment is repaired from its previous prices.
    /// The refitted column leaves its profile class (it gets a cache key no
    /// other column holds), so later keyed builds estimate it on its own.
    ///
    /// Returns the migration intents the repair produced (often empty:
    /// a refit that confirms the incumbent moves nothing).
    ///
    /// [`OnlineFitter`]: pocolo_core::fit::OnlineFitter
    ///
    /// # Errors
    ///
    /// Propagates estimation and solver failures.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or `cap_factor` is outside
    /// `(0, 1]`.
    pub fn replan_after_refit(
        &mut self,
        plan: &mut PlacementPlan,
        col: usize,
        utility: IndirectUtility,
        cap_factor: f64,
    ) -> Result<Vec<(usize, usize)>, ClusterError> {
        assert!(
            col < self.servers.len(),
            "column {col} out of range for {} servers",
            self.servers.len()
        );
        assert!(
            cap_factor > 0.0 && cap_factor <= 1.0,
            "cap factor must be in (0, 1], got {cap_factor}"
        );
        self.servers[col].utility = utility;
        self.profile_keys[col] = self.unused_profile_key(col);
        let delta = self.builder.rebuild_columns_scaled(
            &self.be_apps,
            &self.servers,
            &self.profile_keys,
            cap_factor,
            &[col],
            &plan.matrix,
        )?;
        plan.apply_delta(&delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::fit::{fit_indirect_utility, FitOptions};
    use pocolo_simserver::power::PowerDrawModel;
    use pocolo_simserver::MachineSpec;
    use pocolo_workloads::profiler::{profile_be, profile_lc, ProfilerConfig};
    use pocolo_workloads::{BeApp, BeModel, LcApp, LcModel};

    fn manager() -> ClusterManager {
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
        ClusterManager::new(bes, servers)
    }

    #[test]
    fn pocolo_reproduces_paper_pairings() {
        // §V-E: "Pocolo chooses to assign Graph to sphinx server ...
        // LSTM is matched to img-dnn, whereas RNN/Pbzip are matched to
        // Xapian or TPCC".
        let mgr = manager();
        let assignment = mgr.place(Solver::Hungarian).unwrap();
        let matrix = mgr.performance_matrix().unwrap();
        let col_of = |name: &str| matrix.col_labels().iter().position(|l| l == name).unwrap();
        let row_of = |name: &str| matrix.row_labels().iter().position(|l| l == name).unwrap();
        assert_eq!(
            assignment.server_for(row_of("graph")),
            Some(col_of("sphinx")),
            "graph should pair with sphinx\n{matrix}"
        );
        assert_eq!(
            assignment.server_for(row_of("lstm")),
            Some(col_of("img-dnn")),
            "lstm should pair with img-dnn\n{matrix}"
        );
        // rnn and pbzip land on xapian/tpcc in either order.
        let rnn = assignment.server_for(row_of("rnn")).unwrap();
        let pbzip = assignment.server_for(row_of("pbzip")).unwrap();
        let xt = [col_of("xapian"), col_of("tpcc")];
        assert!(xt.contains(&rnn) && xt.contains(&pbzip) && rnn != pbzip);
    }

    #[test]
    fn lp_and_hungarian_agree() {
        let mgr = manager();
        let h = mgr.place(Solver::Hungarian).unwrap();
        let l = mgr.place(Solver::Lp).unwrap();
        let e = mgr.place(Solver::Exhaustive).unwrap();
        assert!((h.total - e.total).abs() < 1e-9);
        assert!((l.total - e.total).abs() < 1e-9);
    }

    #[test]
    fn optimal_beats_random_on_average() {
        let mgr = manager();
        let opt = mgr.place(Solver::Hungarian).unwrap();
        let mut rand_total = 0.0;
        let n = 24;
        for seed in 0..n {
            rand_total += mgr.place(Solver::Random { seed }).unwrap().total;
        }
        let avg = rand_total / n as f64;
        assert!(
            opt.total > avg * 1.02,
            "optimal {} should beat random average {avg}",
            opt.total
        );
    }

    #[test]
    fn replan_full_budget_matches_place() {
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        let replan = mgr.replan_under_budget(&[1.0; 4], &incumbent, 0.0).unwrap();
        assert_eq!(replan.pairs, incumbent.pairs);
        assert!((replan.total - incumbent.total).abs() < 1e-9);
    }

    #[test]
    fn replan_high_hysteresis_keeps_incumbent() {
        // Start from a deliberately bad incumbent; with huge hysteresis
        // even a much better fresh solve must not displace it.
        let mgr = manager();
        let bad = mgr.place(Solver::Random { seed: 3 }).unwrap();
        let kept = mgr.replan_under_budget(&[0.7; 4], &bad, 1e6).unwrap();
        assert_eq!(kept.pairs, bad.pairs);
        // With zero hysteresis the fresh optimum wins (or ties).
        let fresh = mgr.replan_under_budget(&[0.7; 4], &bad, 0.0).unwrap();
        assert!(fresh.total >= kept.total);
    }

    #[test]
    fn replan_totals_are_on_the_shrunk_matrix() {
        // Shrinking every cap weakly shrinks matrix entries, so the
        // replan's total must not exceed the full-budget optimum.
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        let shrunk = mgr
            .replan_under_budget(&[0.6; 4], &incumbent, 0.05)
            .unwrap();
        assert!(
            shrunk.total <= incumbent.total + 1e-9,
            "shrunk-budget total {} exceeds full-budget {}",
            shrunk.total,
            incumbent.total
        );
    }

    #[test]
    fn migration_intents_are_the_non_incumbent_replan_pairs() {
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        let intents = |factor: f64, from: &Assignment, hysteresis: f64| {
            let replan = mgr
                .replan_under_budget(&[factor; 4], from, hysteresis)
                .unwrap();
            (migration_diff(from, &replan), replan)
        };
        // Keeping the incumbent (full budget, or huge hysteresis) means
        // no migrations.
        assert!(intents(1.0, &incumbent, 0.0).0.is_empty());
        assert!(intents(0.6, &incumbent, 1e6).0.is_empty());
        // From a bad incumbent at zero hysteresis, the intents are
        // exactly the fresh pairs not already placed.
        let bad = mgr.place(Solver::Random { seed: 3 }).unwrap();
        let (moved, replan) = intents(0.6, &bad, 0.0);
        let expected: Vec<_> = replan
            .pairs
            .iter()
            .filter(|p| !bad.pairs.contains(p))
            .copied()
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(moved, expected);
    }

    #[test]
    fn migration_diff_matches_contains_filter() {
        let old = Assignment::new(vec![(0, 3), (1, 1), (2, 0), (4, 2)], 1.0);
        let new = Assignment::new(vec![(0, 3), (1, 2), (3, 1), (4, 0)], 1.0);
        let expected: Vec<_> = new
            .pairs
            .iter()
            .filter(|p| !old.pairs.contains(p))
            .copied()
            .collect();
        assert_eq!(migration_diff(&old, &new), expected);
        assert!(migration_diff(&old, &old).is_empty());
    }

    #[test]
    fn sparse_plan_matches_exact_placement() {
        let mgr = manager();
        let exact = mgr.place(Solver::Hungarian).unwrap();
        let plan = mgr.plan_sparse(1e-3).unwrap();
        assert!(plan.solution().certified);
        assert!(
            plan.assignment().total >= exact.total - 1e-3 * 4.0 - 1e-9,
            "sparse {} vs exact {}",
            plan.assignment().total,
            exact.total
        );
    }

    #[test]
    fn fault_replan_evicts_only_whats_needed() {
        let mgr = manager();
        let plan = mgr.plan_sparse(1e-3).unwrap();
        let faulted = plan.assignment().server_for(0).unwrap();
        // 4 BE apps on 3 surviving servers is infeasible — and must say so.
        let err = mgr.replan_after_faults(&mut plan.clone(), &[faulted]);
        assert!(matches!(err, Err(ClusterError::TooManyApps { .. })));
        // Drop a BE row first, then the fault is repairable.
        let mut small = ClusterManager::new(mgr.be_apps()[..3].to_vec(), mgr.servers().to_vec());
        small.builder = mgr.builder.clone();
        let mut plan3 = small.plan_sparse(1e-3).unwrap();
        let victim_col = plan3.assignment().server_for(0).unwrap();
        let intents = small
            .replan_after_faults(&mut plan3, &[victim_col])
            .unwrap();
        assert!(plan3.matrix().is_col_disabled(victim_col));
        assert!(plan3
            .assignment()
            .pairs
            .iter()
            .all(|&(_, c)| c != victim_col));
        // Row 0 had to move, so it appears in the intents.
        assert!(intents.iter().any(|&(r, _)| r == 0), "intents: {intents:?}");
        // The repair touched only the dirtied rows.
        assert!(plan3.solution().stats.dirty_rows <= 3);
    }

    #[test]
    fn incremental_budget_replan_agrees_with_dense_path() {
        let mgr = manager();
        let mut plan = mgr.plan_sparse(1e-3).unwrap();
        let incumbent = plan.assignment().clone();
        // Full budget: nothing dirties, nothing migrates.
        let none = mgr
            .replan_under_budget_incremental(&mut plan, 1.0, 0.0)
            .unwrap();
        assert!(none.is_empty());
        assert_eq!(plan.assignment().pairs, incumbent.pairs);
        // Shrunk budget, zero hysteresis: totals match the dense replan
        // within the auction tolerance.
        let dense = mgr.replan_under_budget(&[0.6; 4], &incumbent, 0.0).unwrap();
        let intents = mgr
            .replan_under_budget_incremental(&mut plan, 0.6, 0.0)
            .unwrap();
        assert!(
            plan.assignment().total >= dense.total - 2.0 * 1e-3 * 4.0 - 1e-9,
            "incremental {} vs dense {}",
            plan.assignment().total,
            dense.total
        );
        assert_eq!(
            intents,
            migration_diff(&incumbent, plan.assignment()),
            "intents are the pair diff"
        );
        // Huge hysteresis keeps the (shrunk-matrix) incumbent: no intents.
        let mut plan2 = mgr.plan_sparse(1e-3).unwrap();
        let kept_pairs = plan2.assignment().pairs.clone();
        let kept = mgr
            .replan_under_budget_incremental(&mut plan2, 0.6, 1e6)
            .unwrap();
        assert!(kept.is_empty());
        assert_eq!(plan2.assignment().pairs, kept_pairs);
    }

    #[test]
    fn refit_replan_swaps_one_column_and_repairs() {
        let mut mgr = manager();
        let mut plan = mgr.plan_sparse(1e-3).unwrap();
        let incumbent = plan.assignment().clone();
        // Re-adopting the same model changes no estimates, so the repair
        // must keep the incumbent and move nothing.
        let same = mgr.servers()[1].utility.clone();
        let none = mgr.replan_after_refit(&mut plan, 1, same, 1.0).unwrap();
        assert!(none.is_empty(), "unchanged model migrated: {none:?}");
        assert_eq!(plan.assignment().pairs, incumbent.pairs);
        // A genuinely different model (another server's fit) dirties only
        // that column; intents, if any, are the pair diff.
        let other = mgr.servers()[2].utility.clone();
        let intents = mgr.replan_after_refit(&mut plan, 1, other, 0.7).unwrap();
        assert_eq!(intents, migration_diff(&incumbent, plan.assignment()));
        assert!(plan.solution().stats.dirty_rows <= mgr.be_apps().len());
    }

    /// Everything `apply_delta` may touch, down to the bits.
    fn fingerprint(plan: &PlacementPlan) -> (PerfMatrix, u64, AuctionSolution, Vec<u64>, String) {
        (
            plan.matrix.clone(),
            plan.matrix.max_value().to_bits(),
            plan.solution.clone(),
            plan.prices().iter().map(|p| p.to_bits()).collect(),
            format!("{:?}", plan.cands),
        )
    }

    #[test]
    fn failed_apply_delta_leaves_the_plan_untouched() {
        let mgr = manager();
        let rows = mgr.be_apps().len();
        // A full 4×4 plan (mask still unallocated) and a 3×4 plan that
        // already lost a column (mask allocated, one spare gone).
        let full = mgr.plan_sparse(1e-3).unwrap();
        let small = ClusterManager::new(mgr.be_apps()[..3].to_vec(), mgr.servers().to_vec());
        let mut faulted = small.plan_sparse(1e-3).unwrap();
        let first = faulted.assignment().server_for(0).unwrap();
        small.replan_after_faults(&mut faulted, &[first]).unwrap();
        let second = faulted.assignment().server_for(0).unwrap();
        let third = faulted.assignment().server_for(1).unwrap();

        let victim = full.assignment().server_for(0).unwrap();
        let other = (victim + 1) % 4;
        let cases: Vec<(&PlacementPlan, MatrixDelta)> = vec![
            // More faults than the rows can spare: the solve fails after
            // the patch went in, so the saved columns must come back.
            (&full, MatrixDelta::new().disable_column(victim)),
            (
                &full,
                MatrixDelta::new()
                    .set_column(other, vec![0.25; rows])
                    .disable_column(victim),
            ),
            (&faulted, MatrixDelta::new().disable_column(second)),
            // Re-enabling the lost column while two more leave.
            (
                &faulted,
                MatrixDelta::new()
                    .set_column(first, vec![0.5; 3])
                    .disable_column(second)
                    .disable_column(third),
            ),
            // Deltas the validation rejects before anything is written.
            (&full, MatrixDelta::new().set_column(victim, vec![0.5])),
            (
                &full,
                MatrixDelta::new()
                    .set_column(other, vec![0.25; rows])
                    .set_column(victim, vec![0.5, f64::NAN, 0.5, 0.5]),
            ),
            (&full, MatrixDelta::new().disable_column(99)),
            (&faulted, MatrixDelta::new().set_column(99, vec![0.5; 3])),
        ];
        for (i, (plan, delta)) in cases.iter().enumerate() {
            let mut plan = (*plan).clone();
            let before = fingerprint(&plan);
            let err = plan.apply_delta(delta);
            assert!(err.is_err(), "case {i} must fail, got {err:?}");
            if i < 4 {
                assert!(
                    matches!(err, Err(ClusterError::TooManyApps { .. })),
                    "case {i}"
                );
            }
            assert!(fingerprint(&plan) == before, "case {i} changed the plan");
        }
    }

    #[test]
    fn a_refit_splits_its_column_out_of_its_class() {
        let base = manager();
        let doubled: Vec<ServerProfile> = base
            .servers()
            .iter()
            .chain(base.servers())
            .cloned()
            .collect();
        let mut mgr = ClusterManager::new(base.be_apps().to_vec(), doubled)
            .with_profile_keys(vec![0, 1, 2, 3, 0, 1, 2, 3]);
        let mut plan = mgr.plan_sparse(1e-3).unwrap();
        // Column 5 (class 1, not its representative) adopts another
        // server's model; the keyed cache must stop copying column 1 over
        // it, and column 1 must not inherit the refit either.
        let other = mgr.servers()[2].utility.clone();
        mgr.replan_after_refit(&mut plan, 5, other, 1.0).unwrap();
        assert_eq!(&mgr.performance_matrix().unwrap(), plan.matrix());
        // Refit a class's *first* column too: its twin keeps the old model.
        let other = mgr.servers()[3].utility.clone();
        mgr.replan_after_refit(&mut plan, 0, other, 1.0).unwrap();
        assert_eq!(&mgr.performance_matrix().unwrap(), plan.matrix());
        assert_ne!(
            plan.matrix().col_iter(0).collect::<Vec<_>>(),
            plan.matrix().col_iter(4).collect::<Vec<_>>()
        );
        // A budget step after the refits equals the unkeyed rebuild,
        // bit for bit.
        mgr.replan_under_budget_incremental(&mut plan, 0.7, 0.0)
            .unwrap();
        let shrunk: Vec<ServerProfile> = mgr
            .servers()
            .iter()
            .map(|s| ServerProfile {
                power_cap: s.power_cap * 0.7,
                ..s.clone()
            })
            .collect();
        let unkeyed = mgr.builder.build(mgr.be_apps(), &shrunk).unwrap();
        for r in 0..unkeyed.rows() {
            for c in 0..unkeyed.cols() {
                assert_eq!(
                    plan.matrix().value(r, c).to_bits(),
                    unkeyed.value(r, c).to_bits(),
                    "entry ({r}, {c})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn refit_replan_rejects_bad_column() {
        let mut mgr = manager();
        let mut plan = mgr.plan_sparse(1e-3).unwrap();
        let u = mgr.servers()[0].utility.clone();
        let _ = mgr.replan_after_refit(&mut plan, 99, u, 1.0);
    }

    #[test]
    #[should_panic(expected = "cap factor must be in (0, 1]")]
    fn replan_rejects_bad_factor() {
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        let _ = mgr.replan_under_budget(&[0.0; 4], &incumbent, 0.0);
    }

    #[test]
    fn profile_keys_reproduce_the_unkeyed_matrix() {
        // Distinct keys (the homogeneous degenerate case) must be
        // bit-identical to the legacy build.
        let mgr = manager();
        let legacy = mgr.performance_matrix().unwrap();
        let n = mgr.servers().len();
        let keyed_mgr = mgr.clone().with_profile_keys((0..n).collect());
        let keyed = keyed_mgr.performance_matrix().unwrap();
        assert_eq!(keyed, legacy);
        let a = mgr.place(Solver::Hungarian).unwrap();
        let b = keyed_mgr.place(Solver::Hungarian).unwrap();
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.total.to_bits(), b.total.to_bits());
    }

    #[test]
    fn replan_tracks_per_server_factors() {
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        // All factors 1.0 == no change, keeps the incumbent.
        let same = mgr.replan_under_budget(&[1.0; 4], &incumbent, 0.0).unwrap();
        assert_eq!(same.pairs, incumbent.pairs);
        // A uniform vector is the homogeneous brownout; pinned to the bits
        // the scalar-factor entry point returned before PR 14 folded it
        // into this one.
        let uniform = mgr.replan_under_budget(&[0.7; 4], &incumbent, 0.0).unwrap();
        assert_eq!(uniform.pairs, [(0, 2), (1, 0), (2, 1), (3, 3)]);
        // PR 24 moved the pin from 0x3ff3_c10f_9d4f_501b: the matrix cells
        // are continuous functions of a demand solve, and the closed form
        // lands on the budget line where the bisection stopped 1e-13 short
        // of it. The assignment did not move; the total did, in the 14th
        // digit.
        assert_eq!(uniform.total.to_bits(), 0x3ff3_c10f_9d4f_50a7);
        let before_pr24 = f64::from_bits(0x3ff3_c10f_9d4f_501b);
        assert!((uniform.total - before_pr24).abs() <= 1e-12 * before_pr24);
        // Non-uniform factors are a genuinely different instance: the
        // deep-derated server's column shrinks more than the others'.
        let uneven = mgr
            .replan_under_budget(&[0.95, 0.5, 0.95, 0.95], &incumbent, 0.0)
            .unwrap();
        assert!(uneven.total <= incumbent.total + 1e-9);
        assert_ne!(uneven.total.to_bits(), uniform.total.to_bits());
    }

    #[test]
    #[should_panic(expected = "one cap factor per server")]
    fn classed_replan_rejects_short_factor_list() {
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        let _ = mgr.replan_under_budget(&[0.9], &incumbent, 0.0);
    }

    #[test]
    fn custom_load_levels() {
        let mgr = manager().with_load_levels(vec![0.5]);
        let m = mgr.performance_matrix().unwrap();
        assert_eq!(m.rows(), 4);
        assert_eq!(mgr.be_apps().len(), 4);
        assert_eq!(mgr.servers().len(), 4);
    }
}
