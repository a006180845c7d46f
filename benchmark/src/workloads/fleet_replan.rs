//! `fleet-replan` — `ClusterManager` at fleet scale.
//!
//! A standing sparse plan over a generated fleet takes seeded streams of
//! single-column *repairs* (40 % `replan_after_faults`, 30 % restores via
//! `PlacementPlan::apply_delta(set_column)`, 30 % `replan_after_refit`)
//! and three fleet-wide *brownout steps*
//! (`replan_under_budget_incremental` 1.0 → 0.8 → 0.6 → 1.0). Only
//! `pocolo-cluster` works, in two different ways: one column re-bid versus
//! every column rebuilt, so a gain for one that costs the other shows.
//!
//! A round is several *segments*, each its own stream replayed from the
//! pristine plan. What a repair costs depends on what the plan has been
//! through (candidate lists that widened stay widened), so one long
//! stream makes a whole run as slow or as fast as its first unlucky op;
//! independent segments average that out across seeds. The budget cycle
//! is a segment of its own for the same reason: what a fleet-wide re-plan
//! costs (8 → 10–13 MB, ±20 % time) depends on the repairs before it, and
//! it is three quarters of a round's wall.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use rand::prelude::*;

use super::fleet::{check_optimal, fitted_bases, manager, EPS};
use super::ms_since;
use crate::api::{
    migration_diff, solve_incremental, solve_with_candidates, AuctionConfig, ClusterManager,
    MatrixDelta, PerfMatrixBuilder, PlacementPlan, ServerProfile, SparseCandidates,
};
use crate::gen::deltas::{brownout_cycle, repair_stream, RepairOp};
use crate::gen::fleet::perturbed;
use crate::gen::sub_seed;
use crate::record::Recorder;
use crate::run::{Measured, SetupNotes, Sink, Workload};

/// How far a refit moves a server's model parameters.
const REFIT_SPREAD: f64 = 0.05;

/// Single-column decomposition probes.
const PROBE_REPS: usize = 10;

/// The workload's state: the pristine manager and cold plan every round
/// restarts from, and the round's op stream.
#[derive(Debug)]
pub struct FleetReplan {
    mgr: ClusterManager,
    plan: PlacementPlan,
    /// One op stream per segment; the last is the budget cycle.
    segments: Vec<Vec<RepairOp>>,
    seed: u64,
}

/// The mutable state of one segment.
struct Segment<'a> {
    mgr: ClusterManager,
    plan: PlacementPlan,
    /// Faulted columns, oldest first, with the values they held.
    out: VecDeque<(usize, Vec<f64>)>,
    cap_factor: f64,
    rec: &'a mut Recorder,
}

impl Segment<'_> {
    /// Runs one single-column repair, timed, and books what it did.
    fn repair<E: std::fmt::Debug>(
        &mut self,
        kind: &'static str,
        op: u64,
        run: impl FnOnce(&mut ClusterManager, &mut PlacementPlan) -> Result<Vec<(usize, usize)>, E>,
    ) {
        self.rec.tr.begin(kind, op);
        let started = Instant::now();
        let intents = run(&mut self.mgr, &mut self.plan);
        let ms = ms_since(started);
        self.rec.tr.end();
        self.rec.sample(kind, ms);
        self.rec.sample(FleetReplan::OP, ms);
        let certified = self.plan.solution().certified;
        self.rec.check(intents.is_ok() && certified, || {
            format!("{kind}: failed or uncertified ({intents:?}, certified {certified})")
        });
        let intents = intents.map_or(0, |i| i.len());
        self.rec.count("repairs", 1.0);
        self.rec.count("repair_migrations", intents as f64);
        self.book_solution(intents, certified);
    }

    /// Books the work counters of the plan's latest solution.
    fn book_solution(&mut self, intents: usize, certified: bool) {
        let stats = self.plan.solution().stats;
        let total = self.plan.assignment().total;
        let rec = &mut *self.rec;
        rec.count("solves", 1.0);
        rec.count("certified", f64::from(u8::from(certified)));
        rec.count("cluster.migrations_total", intents as f64);
        rec.count("cluster.auction_bids", stats.bids as f64);
        rec.count("cluster.auction_bid_edges", stats.bid_edges as f64);
        rec.count("cluster.auction_cert_edges", stats.cert_edges as f64);
        rec.count("cluster.auction_phases", f64::from(stats.phases));
        rec.count(
            "cluster.auction_widen_rounds",
            f64::from(stats.widen_rounds),
        );
        rec.count("cluster.dirty_rows", stats.dirty_rows as f64);
        rec.fold(intents as u64);
        rec.fold_f64(total);
    }

    fn fault(&mut self, pick: u64, op: u64) {
        let pairs = &self.plan.assignment().pairs;
        let victim = pairs[(pick % pairs.len() as u64) as usize].1;
        self.out
            .push_back((victim, self.plan.matrix().col_iter(victim).collect()));
        self.repair("cluster.repair_fault", op, |mgr, plan| {
            mgr.replan_after_faults(plan, &[victim])
        });
    }

    fn restore(&mut self, col: usize, values: Vec<f64>, op: u64) {
        let delta = MatrixDelta::new().set_column(col, values);
        self.repair("cluster.repair_restore", op, |_, plan| {
            plan.apply_delta(&delta)
        });
    }

    fn refit(&mut self, pick: u64, model_seed: u64, op: u64) {
        let cols = self.plan.matrix().cols();
        let mut col = (pick % cols as u64) as usize;
        while self.plan.matrix().is_col_disabled(col) {
            col = (col + 1) % cols;
        }
        let mut rng = StdRng::seed_from_u64(model_seed);
        let utility = perturbed(&self.mgr.servers()[col].utility, &mut rng, REFIT_SPREAD);
        let cap_factor = self.cap_factor;
        self.repair("cluster.repair_refit", op, |mgr, plan| {
            mgr.replan_after_refit(plan, col, utility, cap_factor)
        });
    }

    fn brownout(&mut self, cap_factor: f64, op: u64) {
        self.cap_factor = cap_factor;
        let started = self.rec.start("cluster.brownout_replan", op);
        let intents = self
            .mgr
            .replan_under_budget_incremental(&mut self.plan, cap_factor, 0.0);
        self.rec.stop("cluster.brownout_replan", started);
        let certified = self.plan.solution().certified;
        self.rec.check(intents.is_ok() && certified, || {
            format!("brownout step to {cap_factor}: failed or uncertified ({intents:?})")
        });
        self.book_solution(intents.map_or(0, |i| i.len()), certified);
    }
}

impl Workload for FleetReplan {
    const NAME: &'static str = "fleet-replan";
    const OP: &'static str = "cluster.repair";

    fn setup(seed: u64, smoke: bool, notes: &mut SetupNotes) -> Self {
        let (n_servers, n_be, segments, repairs) = if smoke {
            (160, 16, 2, 20)
        } else {
            (1000, 100, 16, 50)
        };
        let mgr = manager(n_servers, n_be, &fitted_bases());
        let start = Instant::now();
        let plan = mgr
            .plan_sparse(EPS)
            .expect("the generated fleet is placeable");
        notes.note("cluster.cold_plan_ms", ms_since(start));
        notes.note("cluster.plan_value", plan.assignment().total);
        // Warm-up: one untimed fault repair on cloned state.
        let mut scratch = plan.clone();
        let victim = scratch.assignment().pairs[0].1;
        black_box(mgr.replan_after_faults(&mut scratch, &[victim]).is_ok());
        FleetReplan {
            mgr,
            plan,
            segments: (0..segments)
                .map(|k| repair_stream(sub_seed(seed, k as u64), repairs))
                .chain([brownout_cycle()])
                .collect(),
            seed,
        }
    }

    fn round(&mut self, rec: &mut Recorder) {
        for (k, ops) in self.segments.iter().enumerate() {
            let mut segment = Segment {
                mgr: self.mgr.clone(),
                plan: self.plan.clone(),
                out: VecDeque::new(),
                cap_factor: 1.0,
                rec,
            };
            for (i, op) in ops.iter().enumerate() {
                let id = (k << 16 | i) as u64;
                match *op {
                    RepairOp::Fault { pick } => segment.fault(pick, id),
                    RepairOp::Restore => match segment.out.pop_front() {
                        Some((col, values)) => segment.restore(col, values, id),
                        // Nothing is out: the op becomes a fault.
                        None => segment.fault(sub_seed(self.seed, id), id),
                    },
                    RepairOp::Refit { pick, model_seed } => segment.refit(pick, model_seed, id),
                    RepairOp::Brownout { cap_factor } => segment.brownout(cap_factor, id),
                }
            }
            let plan = segment.plan;
            check_optimal(&plan, rec, "end of a segment");
        }
    }

    fn probes(&mut self, rec: &mut Recorder) {
        let (mgr, plan) = (&self.mgr, &self.plan);
        let builder = PerfMatrixBuilder::new();
        let cfg = AuctionConfig::with_eps(EPS);
        rec.tr.begin("cluster.matrix_build", 0);
        black_box(mgr.performance_matrix().is_ok());
        rec.tr.end();
        // `PlacementPlan` keeps its candidate lists private, so the probes
        // stand up their own, the way `plan_sparse` does.
        let cols = plan.matrix().cols();
        let mut cands = SparseCandidates::build(plan.matrix(), SparseCandidates::default_k(cols));
        let standing = solve_with_candidates(plan.matrix(), &mut cands, &cfg)
            .expect("the cold plan solved on this matrix");

        // One faulted column, stage by stage, through the building blocks
        // `apply_delta` composes.
        for (i, &(_, victim)) in standing
            .assignment
            .pairs
            .iter()
            .take(PROBE_REPS)
            .enumerate()
        {
            let op = i as u64;
            rec.tr.begin("cluster.rebuild_columns", op);
            black_box(
                builder
                    .rebuild_columns(mgr.be_apps(), mgr.servers(), &[victim], plan.matrix())
                    .is_ok(),
            );
            rec.tr.end();
            let delta = MatrixDelta::new().disable_column(victim);
            rec.tr.begin("cluster.matrix_patch", op);
            let patched = plan.matrix().patched(&delta).expect("victim is in range");
            rec.tr.end();
            rec.tr.begin("cluster.cands_clone", op);
            let mut scratch = cands.clone();
            rec.tr.end();
            rec.tr.begin("cluster.auction_incremental", op);
            let next = solve_incremental(&patched, &mut scratch, &standing, &delta, &cfg)
                .expect("one fault leaves the fleet placeable");
            rec.tr.end();
            rec.tr.begin("cluster.migration_diff", op);
            black_box(migration_diff(&standing.assignment, &next.assignment));
            rec.tr.end();
        }

        // One brownout step split into its rebuild and its solve.
        let shrunk: Vec<ServerProfile> = mgr
            .servers()
            .iter()
            .map(|s| ServerProfile {
                power_cap: s.power_cap * 0.8,
                ..s.clone()
            })
            .collect();
        let all_cols: Vec<usize> = (0..cols).collect();
        rec.tr.begin("cluster.brownout_rebuild", 0);
        let delta = builder
            .rebuild_columns(mgr.be_apps(), &shrunk, &all_cols, plan.matrix())
            .expect("shrunk caps stay feasible");
        rec.tr.end();
        rec.tr.begin("cluster.brownout_solve", 0);
        let patched = plan
            .matrix()
            .patched(&delta)
            .expect("rebuilt columns are in range");
        let mut scratch = cands.clone();
        black_box(solve_incremental(&patched, &mut scratch, &standing, &delta, &cfg).is_ok());
        rec.tr.end();
    }

    fn verify(&mut self, rec: &mut Recorder) {
        check_optimal(&self.plan, rec, "cold plan");
    }

    fn report(&self, m: &Measured, out: &mut Sink) {
        out.put_q("repair_ms_p50", m.q(Self::OP, 0.5));
        out.put_q("repair_ms_p95", m.q(Self::OP, 0.95));
        out.put_q(
            "brownout_replan_ms_p50",
            m.q("cluster.brownout_replan", 0.5),
        );
        out.put(
            "migrations_per_repair",
            m.counted("repair_migrations") / m.counted("repairs").max(1.0),
        );
        out.put_q(
            "cluster.cold_plan_ms",
            m.setup.median("cluster.cold_plan_ms"),
        );
        out.put("cluster.plan_value", m.setup.median("cluster.plan_value").0);
        for (name, series) in [
            ("cluster.repair_fault_ms_p50", "cluster.repair_fault"),
            ("cluster.repair_restore_ms_p50", "cluster.repair_restore"),
            ("cluster.repair_refit_ms_p50", "cluster.repair_refit"),
            ("cluster.matrix_build_ms", "cluster.matrix_build"),
            ("cluster.rebuild_columns_ms_p50", "cluster.rebuild_columns"),
            ("cluster.matrix_patch_ms_p50", "cluster.matrix_patch"),
            ("cluster.cands_clone_ms_p50", "cluster.cands_clone"),
            (
                "cluster.auction_incremental_ms_p50",
                "cluster.auction_incremental",
            ),
            ("cluster.migration_diff_ms_p50", "cluster.migration_diff"),
            ("cluster.brownout_rebuild_ms", "cluster.brownout_rebuild"),
            ("cluster.brownout_solve_ms", "cluster.brownout_solve"),
        ] {
            out.put_q(name, m.q(series, 0.5));
        }
        for name in [
            "cluster.auction_bids",
            "cluster.auction_bid_edges",
            "cluster.auction_cert_edges",
            "cluster.auction_phases",
            "cluster.auction_widen_rounds",
            "cluster.dirty_rows",
            "cluster.migrations_total",
        ] {
            out.put(name, m.counted(name));
        }
        out.put("cluster.replans", m.counted("solves"));
        out.put(
            "cluster.certified_ratio",
            m.counted("certified") / m.counted("solves").max(1.0),
        );
    }
}
