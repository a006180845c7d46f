//! Property tests for the class-keyed PerfMatrix cache: a homogeneous
//! `FleetSpec` (the legacy degenerate case) must reproduce the unkeyed
//! builder's matrix bit-for-bit, and duplicating columns under shared
//! keys must equal the dense build on the duplicated inputs. The same
//! holds one level up: a keyed column rebuild returns the unkeyed
//! rebuild's `MatrixDelta`, a budget step on a keyed fleet pays one
//! expansion path per class, and a `PlacementPlan`'s in-place repairs do
//! exactly the work of the public building blocks — and keep doing so
//! over any interleaving of fault, restore, refit and budget steps.
//!
//! Profiling real workloads is too slow for a proptest loop, so the
//! utilities here are synthetic Cobb-Douglas models drawn from the
//! generator — the matrix machinery only sees fitted `IndirectUtility`
//! values either way.

use pocolo_cluster::assign::auction::{self, AuctionConfig, DEFAULT_EPS};
use pocolo_cluster::assign::sparse::SparseCandidates;
use pocolo_cluster::assign::Assignment;
use pocolo_cluster::matrix::{ColumnEdit, MatrixDelta};
use pocolo_cluster::perfmatrix::{PerfMatrixBuilder, ServerProfile};
use pocolo_cluster::{ClusterManager, PlacementPlan};
use pocolo_core::fleet::{FleetSpec, ServerClass};
use pocolo_core::units::Watts;
use pocolo_core::utility::{min_power_solves_on_thread, CobbDouglas, IndirectUtility, PowerModel};
use proptest::prelude::*;
use rand::prelude::*;

fn synthetic_utility(space_class: &ServerClass, a0: f64, ac: f64, aw: f64) -> IndirectUtility {
    let perf = CobbDouglas::new(a0, vec![ac, aw]).expect("valid exponents");
    let power = PowerModel::new(Watts(40.0), vec![6.0, 1.5]).expect("valid power model");
    IndirectUtility::new(space_class.resource_space(), perf, power).expect("valid utility")
}

fn synthetic_server(class: &ServerClass, idx: usize, ac: f64, aw: f64) -> ServerProfile {
    let utility = synthetic_utility(class, 80.0 + idx as f64, ac, aw);
    let peak = utility
        .value(utility.max_power())
        .expect("max power is feasible");
    ServerProfile {
        label: format!("lc{idx}"),
        utility,
        power_cap: Watts(120.0),
        peak_load: peak,
    }
}

/// A fleet of `n_classes` distinct profiles, each repeated 1–3 times in
/// shuffled column order, with the class index as the cache key.
fn classed_fleet(n_classes: usize, rng: &mut StdRng) -> (Vec<ServerProfile>, Vec<usize>) {
    let class = ServerClass::xeon_e5_2650();
    let mut keys: Vec<usize> = (0..n_classes)
        .flat_map(|k| std::iter::repeat_n(k, rng.gen_range(1..=3)))
        .collect();
    keys.shuffle(rng);
    let servers = keys
        .iter()
        .enumerate()
        .map(|(j, &k)| {
            let mut s = synthetic_server(&class, k, 0.35 + 0.07 * k as f64, 0.2);
            s.label = format!("lc{j}");
            s
        })
        .collect();
    (servers, keys)
}

fn synthetic_bes(n: usize) -> Vec<(String, IndirectUtility)> {
    let class = ServerClass::xeon_e5_2650();
    (0..n)
        .map(|i| {
            let u = synthetic_utility(&class, 50.0, 0.3 + 0.05 * i as f64, 0.25);
            (format!("be{i}"), u)
        })
        .collect()
}

/// The fleet with every provisioned cap scaled by `factor`.
fn derated(servers: &[ServerProfile], factor: f64) -> Vec<ServerProfile> {
    servers
        .iter()
        .map(|s| ServerProfile {
            power_cap: s.power_cap * factor,
            ..s.clone()
        })
        .collect()
}

/// One budget step on a keyed fleet walks one expansion path per class,
/// not one per server.
#[test]
fn budget_step_pays_one_path_per_class() {
    let mut rng = StdRng::seed_from_u64(7);
    let (servers, keys) = classed_fleet(3, &mut rng);
    assert!(servers.len() > 3, "seed 7 repeats at least one class");
    let mgr = ClusterManager::new(synthetic_bes(2), servers).with_profile_keys(keys);
    let mut plan = mgr.plan_sparse(1e-3).unwrap();
    let levels = PerfMatrixBuilder::new().load_levels().len() as u64;
    let before = min_power_solves_on_thread();
    mgr.replan_under_budget_incremental(&mut plan, 0.8, 0.0)
        .unwrap();
    assert_eq!(min_power_solves_on_thread() - before, 3 * levels);
}

/// What a `PlacementPlan` repair does in place — patch the dirtied
/// columns, re-bid, certify — against the public building blocks on the
/// same inputs: `PerfMatrix::patched` + `auction::solve_incremental`, with
/// the budget step's delta from the *unkeyed* `rebuild_columns` over
/// cloned, de-rated profiles. A fault repair and a class-keyed budget step
/// must each leave the blocks' matrix, price bits and every `AuctionStats`
/// counter, and the blocks' pairs unless the budget step's hysteresis rule
/// keeps the incumbent (at seed 7 the repair wins with 4 BE apps and the
/// incumbent is kept with 8).
#[test]
fn in_place_plan_repairs_match_their_building_blocks() {
    for n_bes in [4, 8] {
        let mut rng = StdRng::seed_from_u64(7);
        let (servers, keys) = classed_fleet(8, &mut rng);
        assert!(servers.len() > 8, "seed 7 repeats at least one class");
        let mgr = ClusterManager::new(synthetic_bes(n_bes), servers).with_profile_keys(keys);
        let cfg = AuctionConfig::with_eps(DEFAULT_EPS);
        let mut plan = mgr.plan_sparse(DEFAULT_EPS).unwrap();

        // The blocks stand up their own candidates and reference solve,
        // the way `plan_sparse` does.
        let mut matrix = plan.matrix().clone();
        let mut cands =
            SparseCandidates::build(&matrix, SparseCandidates::default_k(matrix.cols()));
        let mut standing = auction::solve_with_candidates(&matrix, &mut cands, &cfg).unwrap();
        // `incumbent` is the placement a zero-hysteresis budget step keeps
        // when the repair does not beat it on the patched matrix.
        let mut step = |plan: &PlacementPlan,
                        delta: &MatrixDelta,
                        incumbent: Option<&Assignment>| {
            let what = format!("{n_bes} BE apps, {} dirty columns", delta.len());
            matrix = matrix.patched(delta).unwrap();
            standing =
                auction::solve_incremental(&matrix, &mut cands, &standing, delta, &cfg).unwrap();
            let kept = incumbent
                .map(|inc| Assignment::new(inc.pairs.clone(), matrix.assignment_value(&inc.pairs)))
                .filter(|inc| standing.assignment.total <= inc.total);
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(plan.matrix(), &matrix, "{what}: matrix");
            assert_eq!(
                plan.assignment(),
                kept.as_ref().unwrap_or(&standing.assignment),
                "{what}: pairs"
            );
            assert_eq!(
                bits(plan.prices()),
                bits(&standing.prices),
                "{what}: prices"
            );
            assert_eq!(plan.solution().stats, standing.stats, "{what}: stats");
            assert!(standing.stats.dirty_rows >= 1, "{what}: re-bids a row");
        };

        let victim = plan.assignment().pairs[0].1;
        mgr.replan_after_faults(&mut plan, &[victim]).unwrap();
        step(&plan, &MatrixDelta::new().disable_column(victim), None);

        let incumbent = plan.assignment().clone();
        let all_cols: Vec<usize> = (0..plan.matrix().cols()).collect();
        let shrunk = derated(mgr.servers(), 0.8);
        let derate = PerfMatrixBuilder::new()
            .rebuild_columns(mgr.be_apps(), &shrunk, &all_cols, plan.matrix())
            .unwrap();
        assert!(derate.len() > 1, "the budget step dirties the fleet");
        mgr.replan_under_budget_incremental(&mut plan, 0.8, 0.0)
            .unwrap();
        step(&plan, &derate, Some(&incumbent));
    }
}

/// What a plan must keep true after any step of the state machine below:
/// every enabled column bit-equal to a from-scratch build over the
/// manager's current servers at the current cap factor, every BE app
/// placed once on distinct enabled columns, the solution certified.
fn check_plan(
    mgr: &ClusterManager,
    plan: &PlacementPlan,
    factor: f64,
    what: &str,
) -> Result<(), TestCaseError> {
    let fresh = PerfMatrixBuilder::new()
        .build(mgr.be_apps(), &derated(mgr.servers(), factor))
        .unwrap();
    let m = plan.matrix();
    for col in (0..m.cols()).filter(|&c| !m.is_col_disabled(c)) {
        for row in 0..m.rows() {
            let (got, want) = (m.value(row, col), fresh.value(row, col));
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}: ({row}, {col}) {got} vs {want}"
            );
        }
    }
    let pairs = &plan.assignment().pairs;
    let rows: Vec<usize> = pairs.iter().map(|&(r, _)| r).collect();
    prop_assert_eq!(rows, (0..m.rows()).collect::<Vec<_>>(), "{what}: rows");
    let mut cols: Vec<usize> = pairs.iter().map(|&(_, c)| c).collect();
    cols.sort_unstable();
    cols.dedup();
    prop_assert_eq!(cols.len(), pairs.len(), "{what}: a server hosts two apps");
    prop_assert!(
        cols.iter().all(|&c| !m.is_col_disabled(c)),
        "{what}: on a faulted server"
    );
    prop_assert!(plan.solution().certified, "{what}: uncertified");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A state machine over `ClusterManager` + `PlacementPlan`: twelve
    /// single-column faults, restores (`apply_delta(set_column)`), refits
    /// and fleet-wide budget steps at random, [`check_plan`] after each.
    /// This would have caught PR 15's stale `profile_keys` bug: a refitted
    /// column kept its class key, so the next budget step estimated the
    /// class once and copied one column over the other, and the plan
    /// quietly stopped matching the models the manager held.
    #[test]
    fn interleaved_repairs_keep_the_plan_equal_to_a_fresh_build(
        n_classes in 2usize..=4,
        n_bes in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (servers, keys) = classed_fleet(n_classes, &mut rng);
        prop_assume!(servers.len() > n_bes);
        let mut mgr = ClusterManager::new(synthetic_bes(n_bes), servers).with_profile_keys(keys);
        let mut plan = mgr.plan_sparse(DEFAULT_EPS).unwrap();
        let mut factor = 1.0;
        check_plan(&mgr, &plan, factor, "initial plan")?;
        for step in 0..12 {
            let m = plan.matrix();
            let (enabled, faulted): (Vec<usize>, Vec<usize>) =
                (0..m.cols()).partition(|&c| !m.is_col_disabled(c));
            let what = match rng.gen_range(0..4) {
                0 if enabled.len() > n_bes => {
                    let col = *enabled.choose(&mut rng).unwrap();
                    mgr.replan_after_faults(&mut plan, &[col]).unwrap();
                    format!("step {step}: fault {col}")
                }
                1 if !faulted.is_empty() => {
                    let col = *faulted.choose(&mut rng).unwrap();
                    let server = derated(&mgr.servers()[col..=col], factor);
                    let built = PerfMatrixBuilder::new().build(mgr.be_apps(), &server).unwrap();
                    let restore = MatrixDelta::new().set_column(col, built.col_iter(0).collect());
                    plan.apply_delta(&restore).unwrap();
                    format!("step {step}: restore {col}")
                }
                2 => {
                    let col = rng.gen_range(0..m.cols());
                    let class = ServerClass::xeon_e5_2650();
                    let (ac, aw) = (rng.gen_range(0.3..0.6), rng.gen_range(0.1..0.3));
                    let refit = synthetic_utility(&class, rng.gen_range(70.0..90.0), ac, aw);
                    mgr.replan_after_refit(&mut plan, col, refit, factor).unwrap();
                    format!("step {step}: refit {col}")
                }
                _ => {
                    factor = *[1.0, 0.9, 0.8, 0.7].choose(&mut rng).unwrap();
                    mgr.replan_under_budget_incremental(&mut plan, factor, 0.05).unwrap();
                    format!("step {step}: budget {factor}")
                }
            };
            check_plan(&mgr, &plan, factor, &what)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A keyed column rebuild is the unkeyed one, edit for edit and bit
    /// for bit: over fleets with repeated classes, under a cap change,
    /// with columns disabled (the first listed one among them, so some
    /// class's representative is not its first listed column) and a
    /// shuffled strict subset of columns listed.
    #[test]
    fn keyed_rebuild_is_the_unkeyed_rebuild(
        n_classes in 1usize..=4,
        n_bes in 1usize..=3,
        factor in 0.6f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (servers, keys) = classed_fleet(n_classes, &mut rng);
        let bes = synthetic_bes(n_bes);
        let builder = PerfMatrixBuilder::new();
        let built = builder.build_keyed(&bes, &servers, &keys).unwrap();
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
        let derated = derated(&servers, factor);
        let unkeyed = builder.rebuild_columns(&bes, &derated, &cols, &current).unwrap();
        let before = min_power_solves_on_thread();
        let keyed = builder
            .rebuild_columns_keyed(&bes, &derated, &keys, &cols, &current)
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
        // One path per class with an enabled listed column.
        let mut live: Vec<usize> = cols
            .iter()
            .filter(|&&c| !current.is_col_disabled(c))
            .map(|&c| keys[c])
            .collect();
        live.sort_unstable();
        live.dedup();
        prop_assert_eq!(solves, (live.len() * builder.load_levels().len()) as u64);
    }

    /// A homogeneous fleet's keyed build is bit-for-bit the legacy build:
    /// with one class, every (class, primary) key is distinct, so the
    /// cache degenerates to exactly the per-server path computation.
    #[test]
    fn homogeneous_fleet_reproduces_legacy_matrix(
        n_servers in 1usize..=6,
        n_bes in 1usize..=4,
        seed in any::<u64>(),
        ac in 0.3f64..0.7,
        aw in 0.1f64..0.4,
    ) {
        let class = ServerClass::xeon_e5_2650();
        let spec = FleetSpec::homogeneous(class.clone());
        let assignment = spec.assign(n_servers, seed);
        prop_assert!(assignment.iter().all(|&c| c == 0));
        let servers: Vec<ServerProfile> = (0..n_servers)
            .map(|i| synthetic_server(&class, i, ac + 0.01 * i as f64, aw))
            .collect();
        let bes: Vec<(String, IndirectUtility)> = (0..n_bes)
            .map(|i| (format!("be{i}"), synthetic_utility(&class, 50.0, aw + 0.02 * i as f64, ac)))
            .collect();
        // Key layout used by the fleet pipeline: class * n + server slot.
        let keys: Vec<usize> = assignment
            .iter()
            .enumerate()
            .map(|(s, &c)| c * n_servers + s)
            .collect();
        let builder = PerfMatrixBuilder::new();
        let legacy = builder.build(&bes, &servers).unwrap();
        let keyed = builder.build_keyed(&bes, &servers, &keys).unwrap();
        prop_assert_eq!(&keyed, &legacy);
        for r in 0..legacy.rows() {
            for c in 0..legacy.cols() {
                prop_assert_eq!(keyed.value(r, c).to_bits(), legacy.value(r, c).to_bits());
            }
        }
    }

    /// Columns duplicated under a shared key match the dense build on the
    /// duplicated server list — the cache only skips work, never changes
    /// values.
    #[test]
    fn shared_keys_match_dense_build(
        n_classes in 1usize..=3,
        copies in 2usize..=4,
        ac in 0.3f64..0.7,
    ) {
        let class = ServerClass::xeon_e5_2650();
        let base: Vec<ServerProfile> = (0..n_classes)
            .map(|i| synthetic_server(&class, i, ac, 0.2 + 0.05 * i as f64))
            .collect();
        let mut servers = Vec::new();
        let mut keys = Vec::new();
        for rep in 0..copies {
            for (i, s) in base.iter().enumerate() {
                let mut s = s.clone();
                s.label = format!("lc{i}r{rep}");
                servers.push(s);
                keys.push(i);
            }
        }
        let bes = vec![("be0".to_string(), synthetic_utility(&class, 50.0, 0.5, 0.3))];
        let builder = PerfMatrixBuilder::new();
        let keyed = builder.build_keyed(&bes, &servers, &keys).unwrap();
        let dense = builder.build(&bes, &servers).unwrap();
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                prop_assert_eq!(keyed.value(r, c).to_bits(), dense.value(r, c).to_bits());
            }
        }
    }
}
