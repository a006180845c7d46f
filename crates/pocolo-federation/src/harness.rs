//! The seeded multi-region federation harness.
//!
//! One [`FederationScenario`] describes a whole federated deployment —
//! N regions with their own grid feeds, power-price walks, and slot
//! fleets; applications with per-region utility rates; a replicated
//! control plane; and an optional regional fault timeline — and
//! [`FederationScenario::run`] plays it to a [`FederationReport`].
//!
//! Determinism is the contract everything else hangs off:
//!
//! - The world (grids, prices, rates, slot quality) is generated up
//!   front from a single seeded rng, so every run variant sees the same
//!   planet.
//! - Per-tick region physics fan out through
//!   [`pocolo_sim::parallel::map`], which is slot-indexed — the report
//!   is bit-identical at any `--parallelism`.
//! - Decisions come off the replicated leader state (see
//!   [`crate::replicate`]), so killing the leader mid-run changes the
//!   promotion history and nothing else.
//!
//! Intra-region placement is exact: when a migration changes a region's
//! resident set, the region re-solves its at most 8 × 8 app × slot
//! matrix with the Hungarian method ([`pocolo_cluster::Solver::Hungarian`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pocolo_cluster::{assign, PerfMatrix, Solver};
use pocolo_core::check::{Check, Expect};
use pocolo_core::digest::{fnv1a, FNV_OFFSET};
use pocolo_core::federation::{AppStatus, FederationInput, RegionStatus};
use pocolo_faults::{RegionFaultKind, RegionFaultPlan, RegionFaultSpec};
use pocolo_json::{json, ToJson, Value};
use pocolo_sim::parallel::{self, Parallelism};

use crate::controller::{RegionController, DECIDE_PERIOD};
use crate::replicate::{FedState, ReplicaSet};

/// Applications homed per region at t=0.
const APPS_PER_REGION: usize = 6;

/// Virtual ticks a run plays.
pub const TICKS: u64 = 240;

/// Federation power contract as a fraction of the summed grid feeds
/// (< 1.0: the whole point is that power is scarce).
const CONTRACTED_FRAC: f64 = 0.72;

/// Control-plane replicas (rank 0 boots leader).
pub const REPLICAS: usize = 3;

/// A fully pinned multi-region run description.
#[derive(Debug, Clone)]
pub struct FederationScenario {
    /// Number of regions (each one clusterd's domain).
    pub regions: usize,
    /// World seed: grids, prices, rates, slot quality.
    pub seed: u64,
    /// Optional regional fault timeline.
    pub faults: Option<RegionFaultSpec>,
    /// Act on `LeaderCrash` events (off = the uninterrupted reference
    /// run for the failover bit-identity gate).
    pub kill_leader: bool,
    /// Run the federation controller; off = the region-isolated
    /// baseline (static per-region budget, no migrations).
    pub federated: bool,
    /// Worker fan-out for per-tick region physics.
    pub parallelism: Parallelism,
}

impl FederationScenario {
    /// The pinned scenario the CLI demo and CI gates run: [`TICKS`]
    /// ticks of `regions` regions and [`REPLICAS`] replicas.
    pub fn pinned(regions: usize, seed: u64) -> Self {
        FederationScenario {
            regions,
            seed,
            faults: None,
            kill_leader: false,
            federated: true,
            parallelism: Parallelism::Serial,
        }
    }

    /// The regional fault timeline the scenario plays.
    pub fn fault_plan(&self) -> RegionFaultPlan {
        match self.faults {
            Some(spec) => spec.scenario.plan(
                spec.seed.unwrap_or(self.seed),
                TICKS,
                self.regions,
                REPLICAS,
            ),
            None => RegionFaultPlan::empty(self.seed),
        }
    }

    /// Plays the scenario to completion.
    ///
    /// # Panics
    ///
    /// Panics on zero regions or an internal invariant break; never on
    /// any fault timeline.
    pub fn run(&self) -> FederationReport {
        assert!(self.regions >= 1, "need at least one region");
        let world = World::generate(self);
        let n_apps = world.app_home.len();
        let plan = self.fault_plan();
        let mut set = ReplicaSet::new(REPLICAS, world.app_home.clone(), self.regions);
        // The harness's own applied mirror of the committed log — used
        // for physics so a leaderless gap between epochs still serves
        // from the last committed state.
        let mut state = FedState::new(world.app_home.clone(), self.regions);

        let mut cap_now = vec![1.0f64; self.regions];
        let mut placers: Vec<RegionPlacer> = (0..self.regions).map(RegionPlacer::new).collect();
        let mut utility = 0.0f64;
        let mut slo_violation = 0.0f64;
        let mut cap_violations = 0u64;
        let mut migrations = 0u64;
        let mut decision_log: Vec<String> = Vec::new();

        for t in 0..TICKS {
            // 1. Faults strike.
            for ev in plan.at(t) {
                match ev.kind {
                    RegionFaultKind::RegionBrownoutStart { region, cap_factor } => {
                        cap_now[region] = cap_factor;
                    }
                    RegionFaultKind::RegionBrownoutEnd { region } => {
                        cap_now[region] = 1.0;
                    }
                    RegionFaultKind::LeaderCrash { replica } => {
                        if self.kill_leader {
                            set.kill(replica, t);
                        }
                    }
                }
            }
            // 2. Control-plane clock: heartbeats or lease-expiry promotion.
            set.tick(t);
            // 3. Decide on epoch boundaries (federated runs only).
            if self.federated && t % DECIDE_PERIOD == 0 {
                let leader = set
                    .ensure_leader(t)
                    .expect("every replica dead: nothing left to decide");
                let _ = leader;
                let input = build_input(self, &world, set.leader_state(), &cap_now, t);
                let decision = RegionController.decide(&input);
                migrations += decision.migrations.len() as u64;
                set.commit(decision);
                let entry = set.log().last().expect("just committed");
                state.apply(entry);
                debug_assert_eq!(&state, set.leader_state(), "mirror diverged from leader");
                decision_log.push(entry.to_json().to_compact_string());
            }
            // 4. Region physics, fanned out slot-indexed (bit-identical
            //    at any worker count).
            let budgets: Vec<f64> = (0..self.regions)
                .map(|r| {
                    let grid = world.grid_w[r] * cap_now[r];
                    if self.federated {
                        state.budget_w[r].min(grid)
                    } else {
                        (world.contracted_w() / self.regions as f64).min(grid)
                    }
                })
                .collect();
            let mut serving: Vec<Vec<usize>> = vec![Vec::new(); self.regions];
            let mut migrating_now = vec![0u64; self.regions];
            for a in 0..n_apps {
                let r = state.app_region[a];
                if state.is_migrating(a, t) {
                    migrating_now[r] += 1;
                } else {
                    serving[r].push(a);
                }
            }
            let items: Vec<(usize, RegionPlacer, Vec<usize>)> = placers
                .drain(..)
                .enumerate()
                .map(|(r, p)| (r, p, std::mem::take(&mut serving[r])))
                .collect();
            let stepped = parallel::map(self.parallelism, items, |(r, mut placer, apps)| {
                let m = step_region(&world, budgets[r], &apps, &mut placer);
                (placer, m)
            });
            for (r, (placer, m)) in stepped.into_iter().enumerate() {
                placers.push(placer);
                utility += m.utility;
                slo_violation += m.slo_violation + migrating_now[r] as f64;
                if m.power_used > budgets[r] + 1e-6 {
                    cap_violations += 1;
                }
            }
        }

        let digest = decision_log.iter().fold(FNV_OFFSET, |h, line| {
            fnv1a(fnv1a(h, line.as_bytes()), b"\n")
        });
        FederationReport {
            federated: self.federated,
            regions: self.regions,
            apps: n_apps,
            ticks: TICKS,
            seed: self.seed,
            utility,
            slo_violation_frac: slo_violation / (n_apps as f64 * TICKS as f64),
            cap_violations,
            migrations,
            promotions: set.promotions().to_vec(),
            final_version: state.version,
            decision_digest: format!("{digest:016x}"),
            decision_log,
        }
    }
}

/// What one run produced; everything a CI gate compares is here.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationReport {
    /// Whether the federation controller ran (vs the isolated baseline).
    pub federated: bool,
    /// Region count.
    pub regions: usize,
    /// Application count.
    pub apps: usize,
    /// Ticks played.
    pub ticks: u64,
    /// World seed.
    pub seed: u64,
    /// Summed served utility over the run.
    pub utility: f64,
    /// Unserved demand fraction: mean over app-ticks of (1 − served),
    /// counting a migrating app-tick as fully unserved.
    pub slo_violation_frac: f64,
    /// Ticks on which any region drew past its budget (must be 0).
    pub cap_violations: u64,
    /// Migration intents committed over the run.
    pub migrations: u64,
    /// `(tick, promoted_rank)` leader promotions.
    pub promotions: Vec<(u64, usize)>,
    /// Last committed log version.
    pub final_version: u64,
    /// FNV-1a over the JSONL decision log, hex.
    pub decision_digest: String,
    /// The committed decision log, one compact-JSON entry per line.
    pub decision_log: Vec<String>,
}

impl FederationReport {
    /// The report as JSON (decision log elided — it ships as JSONL via
    /// `--decision-log`, the digest here pins it).
    pub fn to_json(&self) -> Value {
        json!({
            "federated": self.federated,
            "regions": (self.regions as u64),
            "apps": (self.apps as u64),
            "ticks": self.ticks,
            "seed": self.seed,
            "utility": self.utility,
            "slo_violation_frac": self.slo_violation_frac,
            "cap_violations": self.cap_violations,
            "migrations": self.migrations,
            "promotions": Value::Array(
                self.promotions
                    .iter()
                    .map(|&(tick, rank)| json!({"tick": tick, "rank": (rank as u64)}))
                    .collect()
            ),
            "final_version": self.final_version,
            "decision_digest": (self.decision_digest.clone()),
        })
    }
}

/// The `demo-federation` verification: the federated run with the
/// leader killed at every crash its fault plan schedules, its
/// uninterrupted reference, and the region-isolated baseline, all over
/// the same world and fault timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationDemo {
    /// Federated, leader killed.
    pub federated: FederationReport,
    /// Federated, leader crashes ignored.
    pub reference: FederationReport,
    /// Region-isolated: each region pinned to its static share of the
    /// contract.
    pub isolated: FederationReport,
    /// Leader crashes the fault plan scheduled.
    pub leader_crashes: usize,
}

impl FederationDemo {
    /// Runs the three scenarios of `regions` regions over world `seed`
    /// under `faults`.
    pub fn run(
        regions: usize,
        seed: u64,
        faults: RegionFaultSpec,
        parallelism: Parallelism,
    ) -> FederationDemo {
        let mut federated = FederationScenario::pinned(regions, seed);
        federated.faults = Some(faults);
        federated.parallelism = parallelism;
        federated.kill_leader = true;
        let mut reference = federated.clone();
        reference.kill_leader = false;
        let mut isolated = federated.clone();
        isolated.federated = false;
        FederationDemo {
            leader_crashes: federated.fault_plan().leader_crashes().len(),
            federated: federated.run(),
            reference: reference.run(),
            isolated: isolated.run(),
        }
    }

    /// The demo's promises: no cap breached on either side, federation
    /// beats isolation on utility and on SLO violations, a leader crash
    /// promotes a follower, and the leader-kill run is bit-identical to
    /// the uninterrupted reference.
    pub fn checks(&self) -> Vec<Check> {
        let (fed, reference, iso) = (&self.federated, &self.reference, &self.isolated);
        let mut checks = vec![
            Check::new(
                "cap violations (federated + isolated)",
                (fed.cap_violations + iso.cap_violations) as f64,
                Expect::AtMost(0.0),
            ),
            Check::new("federated utility", fed.utility, Expect::Above(iso.utility)),
            Check::new(
                "federated SLO violation fraction",
                fed.slo_violation_frac,
                Expect::Below(iso.slo_violation_frac),
            ),
        ];
        if self.leader_crashes > 0 {
            checks.push(Check::new(
                "promotions after the leader crash",
                fed.promotions.len() as f64,
                Expect::Above(0.0),
            ));
        }
        checks.push(Check::holds(
            "leader-kill run equals the uninterrupted reference",
            fed.decision_digest == reference.decision_digest
                && fed.decision_log == reference.decision_log
                && fed.utility.to_bits() == reference.utility.to_bits()
                && fed.final_version == reference.final_version,
        ));
        checks
    }
}

/// The generated planet: fixed for a seed before any policy runs.
struct World {
    grid_w: Vec<f64>,
    slots: usize,
    slotq: Vec<Vec<f64>>,
    prices: Vec<Vec<f64>>,
    app_home: Vec<usize>,
    app_power: Vec<f64>,
    app_rates: Vec<Vec<f64>>,
}

impl World {
    fn generate(sc: &FederationScenario) -> World {
        let mut rng = StdRng::seed_from_u64(sc.seed);
        // Two spare slots per region: migration headroom without making
        // destinations free.
        let slots = APPS_PER_REGION + 2;
        let mut grid_w = Vec::with_capacity(sc.regions);
        let mut slotq = Vec::with_capacity(sc.regions);
        let mut prices = Vec::with_capacity(sc.regions);
        for _ in 0..sc.regions {
            grid_w.push(slots as f64 * 120.0 * rng.gen_range(0.9..1.1));
            slotq.push((0..slots).map(|_| rng.gen_range(0.85..1.15)).collect());
            // A bounded random walk: power prices drift per tick.
            let mut p: f64 = rng.gen_range(0.8..1.2);
            let mut walk = Vec::with_capacity(TICKS as usize + 1);
            for _ in 0..=TICKS {
                walk.push(p);
                let step: f64 = rng.gen_range(-0.05..0.05);
                p = (p + step).clamp(0.5, 2.0);
            }
            prices.push(walk);
        }
        let n_apps = sc.regions * APPS_PER_REGION;
        let mut app_home = Vec::with_capacity(n_apps);
        let mut app_power = Vec::with_capacity(n_apps);
        let mut app_rates = Vec::with_capacity(n_apps);
        for a in 0..n_apps {
            app_home.push(a % sc.regions);
            app_power.push(rng.gen_range(70.0..110.0));
            let base = rng.gen_range(0.8..1.6);
            app_rates.push(
                (0..sc.regions)
                    .map(|_| base * rng.gen_range(0.75..1.25))
                    .collect(),
            );
        }
        World {
            grid_w,
            slots,
            slotq,
            prices,
            app_home,
            app_power,
            app_rates,
        }
    }

    fn contracted_w(&self) -> f64 {
        CONTRACTED_FRAC * self.grid_w.iter().sum::<f64>()
    }
}

/// Per-region placement cache: resident set and each resident's served
/// value on its assigned slot.
struct RegionPlacer {
    region: usize,
    resident: Vec<usize>,
    /// `(app, value)` aligned with `resident`.
    values: Vec<(usize, f64)>,
}

impl RegionPlacer {
    fn new(region: usize) -> Self {
        RegionPlacer {
            region,
            resident: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Re-solves placement, exactly, iff the serving set changed.
    fn place(&mut self, world: &World, apps: &[usize]) {
        if apps == self.resident.as_slice() {
            return;
        }
        self.resident = apps.to_vec();
        if apps.is_empty() {
            self.values.clear();
            return;
        }
        let matrix = self.matrix(world, apps);
        let placement =
            assign::solve(&matrix, Solver::Hungarian).expect("harness placement is feasible");
        self.values = placement
            .pairs
            .iter()
            .map(|&(row, col)| (apps[row], matrix.value(row, col)))
            .collect();
    }

    /// The region's app × slot matrix: each app's rate here times each
    /// slot's quality.
    fn matrix(&self, world: &World, apps: &[usize]) -> PerfMatrix {
        let r = self.region;
        let values: Vec<Vec<f64>> = apps
            .iter()
            .map(|&a| {
                (0..world.slots)
                    .map(|s| world.app_rates[a][r] * world.slotq[r][s])
                    .collect()
            })
            .collect();
        PerfMatrix::new(
            apps.iter().map(|a| format!("app-{a}")).collect(),
            (0..world.slots).map(|s| format!("slot-{s}")).collect(),
            values,
        )
        .expect("harness matrices are well-formed")
    }
}

/// One region-tick's physics outcome.
struct RegionMetrics {
    utility: f64,
    slo_violation: f64,
    power_used: f64,
}

/// Places the serving set, then greedily powers apps by marginal
/// value-per-watt until the budget runs out: full service, then one
/// fractional app, then zero.
fn step_region(
    world: &World,
    budget_w: f64,
    apps: &[usize],
    placer: &mut RegionPlacer,
) -> RegionMetrics {
    placer.place(world, apps);
    let mut order: Vec<(usize, f64)> = placer.values.clone();
    order.sort_by(|a, b| {
        let da = a.1 / world.app_power[a.0];
        let db = b.1 / world.app_power[b.0];
        db.total_cmp(&da).then(a.0.cmp(&b.0))
    });
    let mut left = budget_w;
    let mut utility = 0.0;
    let mut slo_violation = 0.0;
    let mut power_used = 0.0;
    for (app, value) in order {
        let power = world.app_power[app];
        let frac = if left >= power {
            1.0
        } else if left > 0.0 {
            left / power
        } else {
            0.0
        };
        left -= power * frac;
        power_used += power * frac;
        utility += value * frac;
        slo_violation += 1.0 - frac;
    }
    RegionMetrics {
        utility,
        slo_violation,
        power_used,
    }
}

/// Builds the controller's telemetry snapshot from the replicated state
/// plus the world at tick `t`.
fn build_input(
    sc: &FederationScenario,
    world: &World,
    state: &FedState,
    cap_now: &[f64],
    t: u64,
) -> FederationInput {
    let mut resident_power = vec![0.0f64; sc.regions];
    let apps: Vec<AppStatus> = (0..world.app_home.len())
        .map(|a| {
            let region = state.app_region[a];
            let migrating = state.is_migrating(a, t);
            if !migrating {
                resident_power[region] += world.app_power[a];
            }
            AppStatus {
                app: a,
                region,
                power_w: world.app_power[a],
                rates: world.app_rates[a].clone(),
                migrating,
            }
        })
        .collect();
    let regions: Vec<RegionStatus> = (0..sc.regions)
        .map(|r| RegionStatus {
            region: r,
            power_price: world.prices[r][t as usize],
            cap_factor: cap_now[r],
            grid_w: world.grid_w[r],
            slots: world.slots,
            resident_power_w: resident_power[r],
        })
        .collect();
    FederationInput {
        tick: t,
        contracted_w: world.contracted_w(),
        regions,
        apps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::check::failures;
    use pocolo_faults::RegionScenario;

    fn brownout(scenario: &mut FederationScenario) {
        scenario.faults = Some(RegionFaultSpec {
            scenario: RegionScenario::RegionBrownout,
            seed: Some(7),
        });
    }

    #[test]
    fn region_placement_is_exact() {
        // The harness's own region matrices (rate × slot quality, 8 slots)
        // with 1 to 8 resident apps drawn from a seeded world.
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(45);
        let mut placed = 0;
        for seed in 0..100 {
            let world = World::generate(&FederationScenario::pinned(2, seed));
            assert_eq!(world.slots, 8);
            for region in 0..2 {
                let mut apps: Vec<usize> = (0..world.app_home.len()).collect();
                apps.shuffle(&mut rng);
                apps.truncate(rng.gen_range(1..=world.slots));
                apps.sort_unstable();
                let mut placer = RegionPlacer::new(region);
                placer.place(&world, &apps);
                let matrix = placer.matrix(&world, &apps);
                // The placer keeps each app's value; its slot is the one
                // column holding exactly that value.
                let pairs: Vec<(usize, usize)> = placer
                    .values
                    .iter()
                    .enumerate()
                    .map(|(row, &(app, value))| {
                        assert_eq!(app, apps[row]);
                        let slots: Vec<usize> = (0..world.slots)
                            .filter(|&s| matrix.value(row, s).to_bits() == value.to_bits())
                            .collect();
                        assert_eq!(slots.len(), 1, "slot qualities are distinct");
                        (row, slots[0])
                    })
                    .collect();
                let exact = assign::solve(&matrix, Solver::Exhaustive).unwrap();
                assert_eq!(
                    pairs, exact.pairs,
                    "world {seed}, region {region}: {matrix}"
                );
                placed += 1;
            }
        }
        assert_eq!(placed, 200);
    }

    #[test]
    fn runs_are_reproducible() {
        let sc = FederationScenario::pinned(3, 42);
        let a = sc.run();
        let b = sc.run();
        assert_eq!(a, b);
        assert_eq!(a.utility.to_bits(), b.utility.to_bits());
    }

    #[test]
    fn federated_beats_isolated_under_a_brownout() {
        let faults = RegionFaultSpec {
            scenario: RegionScenario::RegionBrownout,
            seed: Some(7),
        };
        let demo = FederationDemo::run(3, 42, faults, Parallelism::Serial);
        assert_eq!(failures(&demo.checks()), Vec::<String>::new());
        assert!(demo.federated.migrations > 0, "no failover happened");
    }

    #[test]
    fn parallelism_does_not_change_the_report() {
        let mut serial = FederationScenario::pinned(4, 9);
        brownout(&mut serial);
        let mut four = serial.clone();
        four.parallelism = Parallelism::Fixed(4);
        let (a, b) = (serial.run(), four.run());
        assert_eq!(a, b);
    }

    #[test]
    fn leader_kill_is_invisible_outside_the_promotion_history() {
        let faults = RegionFaultSpec {
            scenario: RegionScenario::RegionChaos,
            seed: Some(5),
        };
        let demo = FederationDemo::run(3, 5, faults, Parallelism::Serial);
        assert_eq!(failures(&demo.checks()), Vec::<String>::new());
        assert!(demo.reference.promotions.is_empty());

        // Each promise fails on its own perturbation of the real report.
        let failed = |edit: &dyn Fn(&mut FederationDemo)| {
            let mut perturbed = demo.clone();
            edit(&mut perturbed);
            failures(&perturbed.checks())
        };
        assert_eq!(
            failed(&|d| d.isolated.cap_violations = 1),
            ["cap violations (federated + isolated) = 1, expected at most 0"]
        );
        let (utility, slo) = (demo.federated.utility, demo.federated.slo_violation_frac);
        let line = format!("federated utility = {utility}, expected above {utility}");
        assert_eq!(failed(&|d| d.isolated.utility = utility), [line]);
        let line = format!("federated SLO violation fraction = {slo}, expected below {slo}");
        assert_eq!(failed(&|d| d.isolated.slo_violation_frac = slo), [line]);
        assert_eq!(
            failed(&|d| d.federated.promotions.clear()),
            ["promotions after the leader crash = 0, expected above 0"]
        );
        assert_eq!(
            failed(&|d| d.reference.decision_digest = "0".repeat(16)),
            ["leader-kill run equals the uninterrupted reference: does not hold"]
        );
    }

    #[test]
    fn report_json_carries_the_gate_fields() {
        let report = FederationScenario::pinned(2, 1).run();
        let v = report.to_json();
        for key in [
            "utility",
            "slo_violation_frac",
            "cap_violations",
            "migrations",
            "decision_digest",
            "final_version",
        ] {
            assert!(v.get(key).is_some(), "report JSON lost {key}");
        }
    }
}
