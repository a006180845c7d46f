//! The pure federation decision layer.
//!
//! [`RegionController`] is the federation-tier analogue of the PR 3
//! `ServerController` split: a pure function from a
//! [`FederationInput`] telemetry snapshot to a [`FederationDecision`] —
//! no clocks, no I/O, no hidden state — so decisions replay
//! bit-identically from the replicated log and any replica that holds
//! the same state derives the same decision stream.
//!
//! Two coupled choices are made per epoch:
//!
//! 1. **Budget splits** (the CloudPowerCap move): the federation's
//!    contracted power `C` is less than the summed regional grid feeds,
//!    and fixing `C/R` per region strands power the moment one region
//!    browns out. The controller grants each region what its resident
//!    applications draw (capped by the derated grid feed), cheapest
//!    power first, then spreads the remainder as headroom.
//! 2. **Migration intents** (the interference/need-aware scoring): an
//!    application's per-tick score in a region is its utility rate
//!    there, discounted by the region's expected throttle and the
//!    region's power price. An application moves when the best
//!    alternative region beats its current score by more than the
//!    migration hysteresis — migration costs real downtime, so small
//!    gains must not thrash.

use pocolo_core::federation::{FederationDecision, FederationInput, MigrationIntent};

// The federation's values are pinned: they are part of the
// deterministic contract the CI gates replay.

/// Ticks between federation decisions.
pub const DECIDE_PERIOD: u64 = 10;

/// Migration downtime: drain + warm-start, in ticks.
pub const DRAIN_TICKS: u64 = 2;

/// Minimum per-tick score gain before a migration is worth its downtime.
const HYSTERESIS: f64 = 0.02;

/// Migrations started per decision, at most (WAN bandwidth and
/// operator-sanity bound).
const MAX_MIGRATIONS: usize = 4;

/// Converts a region's power price into utility units: the score penalty
/// is `PRICE_WEIGHT * price * power_w`.
const PRICE_WEIGHT: f64 = 0.002;

/// Virtual-tick lease on the leader; a follower promotes itself when the
/// leader has been silent this long.
pub const LEASE_TTL: u64 = 3;

// Failover never skips a decision epoch: a silent leader's lease expires
// before the next decision is due.
const _: () = assert!(LEASE_TTL < DECIDE_PERIOD);

/// The pure federation controller: decides, never actuates.
#[derive(Debug, Clone, Default)]
pub struct RegionController;

impl RegionController {
    /// One federation decision from one telemetry snapshot. Pure and
    /// deterministic: identical inputs yield bit-identical decisions.
    pub fn decide(&self, input: &FederationInput) -> FederationDecision {
        let budget_w = self.split_budget(input);
        let migrations = self.score_migrations(input, &budget_w);
        FederationDecision {
            tick: input.tick,
            budget_w,
            migrations,
        }
    }

    /// Splits the contracted power across regions: need first (cheapest
    /// power first), then headroom, never exceeding a region's derated
    /// grid feed and never exceeding the contract in total.
    fn split_budget(&self, input: &FederationInput) -> Vec<f64> {
        let n = input.regions.len();
        let available: Vec<f64> = input.regions.iter().map(|r| r.available_w()).collect();
        let need: Vec<f64> = input
            .regions
            .iter()
            .map(|r| r.resident_power_w.min(r.available_w()))
            .collect();
        // Price-ascending grant order; ties break by region id so the
        // order (and therefore the split) is total.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            input.regions[a]
                .power_price
                .total_cmp(&input.regions[b].power_price)
                .then(a.cmp(&b))
        });
        let mut split = vec![0.0; n];
        let mut left = input.contracted_w;
        for &r in &order {
            let grant = need[r].min(left);
            split[r] = grant;
            left -= grant;
        }
        // Remaining contract becomes growth headroom, still cheapest
        // first and still grid-capped.
        if left > 0.0 {
            for &r in &order {
                let grant = (available[r] - split[r]).max(0.0).min(left);
                split[r] += grant;
                left -= grant;
                if left <= 0.0 {
                    break;
                }
            }
        }
        split
    }

    /// Expected fraction of demand a region can actually serve under a
    /// candidate split — the throttle a prospective migrant would share.
    fn supply_frac(need_w: f64, budget_w: f64) -> f64 {
        if need_w <= 0.0 {
            1.0
        } else {
            (budget_w / need_w).min(1.0)
        }
    }

    /// An application's per-tick score in a region: throttled utility
    /// rate minus the energy bill.
    fn score(&self, input: &FederationInput, app: usize, region: usize, frac: f64) -> f64 {
        let a = &input.apps[app];
        a.rates[region] * frac - PRICE_WEIGHT * input.regions[region].power_price * a.power_w
    }

    /// Scored, hysteresis-gated migration intents, best gain first.
    fn score_migrations(&self, input: &FederationInput, split: &[f64]) -> Vec<MigrationIntent> {
        let n = input.regions.len();
        // Serving demand and slot occupancy per region under the new
        // split (in-flight migrants occupy a destination slot but draw
        // nothing yet).
        let mut need = vec![0.0; n];
        let mut occupied = vec![0usize; n];
        for a in &input.apps {
            occupied[a.region] += 1;
            if !a.migrating {
                need[a.region] += a.power_w;
            }
        }
        let mut candidates: Vec<MigrationIntent> = Vec::new();
        for a in &input.apps {
            if a.migrating {
                continue;
            }
            let cur = a.region;
            let cur_score = self.score(input, a.app, cur, Self::supply_frac(need[cur], split[cur]));
            let mut best: Option<MigrationIntent> = None;
            for to in 0..n {
                if to == cur || occupied[to] >= input.regions[to].slots {
                    continue;
                }
                // The candidate region would also power this app: judge
                // it by the throttle *after* arrival.
                let frac = Self::supply_frac(need[to] + a.power_w, split[to]);
                let gain = self.score(input, a.app, to, frac) - cur_score - HYSTERESIS;
                if gain <= 0.0 {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some(b) => gain > b.gain || (gain == b.gain && to < b.to),
                };
                if better {
                    best = Some(MigrationIntent {
                        app: a.app,
                        from: cur,
                        to,
                        gain,
                    });
                }
            }
            if let Some(intent) = best {
                candidates.push(intent);
            }
        }
        // Highest gain first; ties break by app id. Commit greedily,
        // re-checking destination slots as earlier intents consume them.
        candidates.sort_by(|x, y| y.gain.total_cmp(&x.gain).then(x.app.cmp(&y.app)));
        let mut picked = Vec::new();
        for intent in candidates {
            if picked.len() >= MAX_MIGRATIONS {
                break;
            }
            if occupied[intent.to] >= input.regions[intent.to].slots {
                continue;
            }
            occupied[intent.to] += 1;
            occupied[intent.from] -= 1;
            picked.push(intent);
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::federation::{AppStatus, RegionStatus};

    fn region(
        id: usize,
        price: f64,
        cap: f64,
        grid: f64,
        slots: usize,
        resident: f64,
    ) -> RegionStatus {
        RegionStatus {
            region: id,
            power_price: price,
            cap_factor: cap,
            grid_w: grid,
            slots,
            resident_power_w: resident,
        }
    }

    fn app(id: usize, region: usize, power: f64, rates: Vec<f64>) -> AppStatus {
        AppStatus {
            app: id,
            region,
            power_w: power,
            rates,
            migrating: false,
        }
    }

    #[test]
    fn split_covers_need_cheapest_first_and_respects_the_grid() {
        let input = FederationInput {
            tick: 0,
            contracted_w: 500.0,
            regions: vec![
                region(0, 1.5, 1.0, 400.0, 4, 300.0),
                region(1, 0.8, 1.0, 400.0, 4, 300.0),
            ],
            apps: Vec::new(),
        };
        let d = RegionController.decide(&input);
        // Cheap region 1 is granted its full need; expensive region 0
        // gets what's left of the contract.
        assert_eq!(d.budget_w, vec![200.0, 300.0]);
        assert!(d.budget_w.iter().sum::<f64>() <= 500.0 + 1e-9);
    }

    #[test]
    fn brownout_caps_the_split_at_the_derated_feed() {
        let input = FederationInput {
            tick: 0,
            contracted_w: 600.0,
            regions: vec![
                region(0, 1.0, 0.5, 400.0, 4, 350.0), // browned out: 200 W available
                region(1, 1.0, 1.0, 400.0, 4, 300.0),
            ],
            apps: Vec::new(),
        };
        let d = RegionController.decide(&input);
        assert!(d.budget_w[0] <= 200.0 + 1e-9, "split exceeds derated grid");
        // The stranded contract flows to the healthy region instead.
        assert!(d.budget_w[1] > 300.0);
    }

    #[test]
    fn migration_prefers_the_region_with_headroom_and_respects_slots() {
        // Region 0 browned out hard: resident app is throttled to 25 %.
        let input = FederationInput {
            tick: 10,
            contracted_w: 400.0,
            regions: vec![
                region(0, 1.0, 0.25, 100.0, 2, 100.0),
                region(1, 1.0, 1.0, 400.0, 2, 0.0),
                region(2, 1.0, 1.0, 400.0, 1, 100.0),
            ],
            apps: vec![
                app(0, 0, 100.0, vec![1.0, 1.0, 1.0]),
                app(1, 2, 100.0, vec![1.0, 1.0, 1.0]),
            ],
        };
        let d = RegionController.decide(&input);
        assert_eq!(d.migrations.len(), 1);
        let m = &d.migrations[0];
        assert_eq!((m.app, m.from, m.to), (0, 0, 1), "gain {}", m.gain);
        // Region 2 is full (1 slot, 1 resident): never a destination.
    }

    #[test]
    fn hysteresis_suppresses_marginal_moves() {
        // Two equally priced regions, both with the power to serve the
        // app in full: the move gains exactly the rate difference, so the
        // hysteresis bar alone decides it.
        let input = |rate_elsewhere: f64| FederationInput {
            tick: 0,
            contracted_w: 400.0,
            regions: vec![
                region(0, 1.0, 1.0, 200.0, 2, 80.0),
                region(1, 1.0, 1.0, 200.0, 2, 0.0),
            ],
            apps: vec![app(0, 0, 80.0, vec![1.0, rate_elsewhere])],
        };
        let under = RegionController.decide(&input(1.0 + 0.75 * HYSTERESIS));
        assert!(under.migrations.is_empty(), "{:?}", under.migrations);
        let over = RegionController
            .decide(&input(1.0 + 1.25 * HYSTERESIS))
            .migrations;
        assert_eq!(over.len(), 1);
        assert_eq!((over[0].app, over[0].from, over[0].to), (0, 0, 1));
        assert!((over[0].gain - 0.25 * HYSTERESIS).abs() < 1e-12);
    }

    #[test]
    fn decisions_are_bit_identical_across_calls() {
        let input = FederationInput {
            tick: 30,
            contracted_w: 777.0,
            regions: vec![
                region(0, 1.1, 0.6, 300.0, 3, 250.0),
                region(1, 0.9, 1.0, 300.0, 3, 100.0),
                region(2, 1.3, 1.0, 300.0, 3, 180.0),
            ],
            apps: vec![
                app(0, 0, 90.0, vec![1.0, 1.1, 0.9]),
                app(1, 0, 80.0, vec![1.2, 0.8, 1.0]),
                app(2, 1, 100.0, vec![0.9, 1.0, 1.1]),
                app(3, 2, 95.0, vec![1.0, 1.0, 1.0]),
            ],
        };
        let a = RegionController.decide(&input);
        let b = RegionController.decide(&input);
        assert_eq!(a, b);
        for (x, y) in a.budget_w.iter().zip(&b.budget_w) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
