//! Multi-region fault scenarios for the federation tier.
//!
//! Regional faults live in *tick* time (the federation harness runs a
//! discrete virtual clock, unlike the per-server simulator's continuous
//! seconds) and strike whole regions or the federation control plane
//! itself, not individual servers:
//!
//! - **Regional brownout** — one region's grid feed is derated for a
//!   window, stranding its contracted power unless the federation
//!   reassigns budget and migrates applications out.
//! - **Leader crash** — the federation leader replica dies mid-run and a
//!   follower must be promoted off the replicated log.
//!
//! [`RegionScenario::plan`] is fully determined by
//! `(scenario, seed, ticks, n_regions, n_replicas)`, mirroring
//! [`Scenario::plan`](crate::Scenario::plan), and
//! [`RegionFaultSpec`] parses the CLI's
//! `--faults region-brownout[:seed]` syntax.

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named, seed-parameterized multi-region scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionScenario {
    /// One region browns out mid-run; cross-region failover is the
    /// expected response.
    RegionBrownout,
    /// The full federation chaos drill: two staggered regional
    /// brownouts *and* a leader crash while the first is in effect.
    RegionChaos,
}

impl RegionScenario {
    /// All named region scenarios, in display order.
    pub const ALL: [RegionScenario; 2] =
        [RegionScenario::RegionBrownout, RegionScenario::RegionChaos];

    /// The scenario's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            RegionScenario::RegionBrownout => "region-brownout",
            RegionScenario::RegionChaos => "region-chaos",
        }
    }

    /// Generates the scenario's fault timeline for a `ticks`-tick run
    /// over `n_regions` regions with `n_replicas` federation replicas.
    /// Deterministic in all inputs.
    ///
    /// # Panics
    ///
    /// Panics when there are fewer than two regions (nowhere to fail
    /// over to), fewer than two replicas (nobody to promote), or the
    /// run is too short to fit a brownout window.
    pub fn plan(
        self,
        seed: u64,
        ticks: u64,
        n_regions: usize,
        n_replicas: usize,
    ) -> RegionFaultPlan {
        assert!(n_regions >= 2, "regional faults need at least two regions");
        assert!(n_replicas >= 2, "leader faults need at least two replicas");
        assert!(ticks >= 40, "a region scenario needs at least 40 ticks");
        let tag = match self {
            RegionScenario::RegionBrownout => 0xF0u64,
            RegionScenario::RegionChaos => 0xFCu64,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ (tag << 56));
        let mut events = Vec::new();
        let brownout = |rng: &mut StdRng, lo_frac: f64, events: &mut Vec<RegionFaultEvent>| {
            let region = rng.gen_range(0..n_regions);
            let cap_factor = rng.gen_range(0.25..0.45);
            let start = (lo_frac * ticks as f64) as u64;
            let duration = rng.gen_range(ticks / 5..ticks / 3);
            events.push(RegionFaultEvent {
                tick: start,
                kind: RegionFaultKind::RegionBrownoutStart { region, cap_factor },
            });
            events.push(RegionFaultEvent {
                tick: (start + duration).min(ticks - 1),
                kind: RegionFaultKind::RegionBrownoutEnd { region },
            });
            start
        };
        match self {
            RegionScenario::RegionBrownout => {
                brownout(&mut rng, 0.25, &mut events);
            }
            RegionScenario::RegionChaos => {
                let first = brownout(&mut rng, 0.15, &mut events);
                brownout(&mut rng, 0.55, &mut events);
                // The leader dies shortly after the first brownout
                // lands — the control plane fails exactly when it is
                // most needed. Replica 0 boots as leader, so it is the
                // victim.
                events.push(RegionFaultEvent {
                    tick: first + ticks / 20 + 1,
                    kind: RegionFaultKind::LeaderCrash { replica: 0 },
                });
            }
        }
        events.sort_by_key(|e| e.tick);
        RegionFaultPlan { seed, events }
    }
}

impl fmt::Display for RegionScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RegionScenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        RegionScenario::ALL
            .iter()
            .copied()
            .find(|sc| sc.name() == s)
            .ok_or_else(|| {
                format!("unknown region scenario {s:?} (expected region-brownout | region-chaos)")
            })
    }
}

/// A parsed federation `--faults` value: a region scenario plus an
/// optional explicit seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionFaultSpec {
    /// The named scenario.
    pub scenario: RegionScenario,
    /// Explicit fault seed, if the user pinned one with `:seed`.
    pub seed: Option<u64>,
}

impl FromStr for RegionFaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (scenario, seed) = crate::parse_seeded(s, "fault")?;
        Ok(RegionFaultSpec { scenario, seed })
    }
}

impl fmt::Display for RegionFaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::fmt_seeded(f, self.scenario, self.seed)
    }
}

/// What goes wrong at a region-fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegionFaultKind {
    /// `region`'s grid feed derates to `cap_factor` of its provisioned
    /// power.
    RegionBrownoutStart {
        /// The browned-out region.
        region: usize,
        /// Fraction of the provisioned feed still delivered.
        cap_factor: f64,
    },
    /// `region`'s grid feed recovers to full power.
    RegionBrownoutEnd {
        /// The recovering region.
        region: usize,
    },
    /// Federation replica `replica` dies; if it is the leader, a
    /// follower must be promoted once the lease expires.
    LeaderCrash {
        /// The dying replica's rank.
        replica: usize,
    },
}

/// One timestamped regional fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionFaultEvent {
    /// Virtual tick the fault strikes at.
    pub tick: u64,
    /// What happens.
    pub kind: RegionFaultKind,
}

/// A deterministic multi-region fault timeline, ascending by tick.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionFaultPlan {
    seed: u64,
    events: Vec<RegionFaultEvent>,
}

impl RegionFaultPlan {
    /// An empty plan (the no-fault baseline).
    pub fn empty(seed: u64) -> Self {
        RegionFaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// The seed the plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The timeline, ascending by tick.
    pub fn events(&self) -> &[RegionFaultEvent] {
        &self.events
    }

    /// Events striking exactly at `tick`.
    pub fn at(&self, tick: u64) -> impl Iterator<Item = &RegionFaultEvent> {
        self.events.iter().filter(move |e| e.tick == tick)
    }

    /// Ticks at which the (initial) leader replica is killed.
    pub fn leader_crashes(&self) -> Vec<(u64, usize)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                RegionFaultKind::LeaderCrash { replica } => Some((e.tick, replica)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for s in ["region-brownout", "region-brownout:9", "region-chaos:3"] {
            let spec: RegionFaultSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
        }
        assert!("meteor".parse::<RegionFaultSpec>().is_err());
        assert_eq!(
            "region-brownout:xyz"
                .parse::<RegionFaultSpec>()
                .unwrap_err(),
            "bad fault seed \"xyz\": invalid digit found in string"
        );
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        for sc in RegionScenario::ALL {
            let a = sc.plan(11, 240, 4, 3);
            let b = sc.plan(11, 240, 4, 3);
            assert_eq!(a, b, "{sc} not reproducible");
            let c = sc.plan(12, 240, 4, 3);
            assert_ne!(a, c, "{sc} ignores its seed");
        }
    }

    #[test]
    fn brownout_events_are_well_formed() {
        let plan = RegionScenario::RegionBrownout.plan(7, 240, 4, 3);
        assert_eq!(plan.events().len(), 2);
        let (start, end) = (plan.events()[0], plan.events()[1]);
        let RegionFaultKind::RegionBrownoutStart { region, cap_factor } = start.kind else {
            panic!("expected brownout start, got {:?}", start.kind);
        };
        assert!(region < 4);
        assert!((0.25..0.45).contains(&cap_factor));
        assert!(matches!(
            end.kind,
            RegionFaultKind::RegionBrownoutEnd { region: r } if r == region
        ));
        assert!(start.tick < end.tick);
        assert!(end.tick < 240);
    }

    #[test]
    fn chaos_includes_a_leader_crash_during_the_first_brownout() {
        let plan = RegionScenario::RegionChaos.plan(3, 240, 4, 3);
        let crashes = plan.leader_crashes();
        assert_eq!(crashes.len(), 1);
        let first_start = plan
            .events()
            .iter()
            .find(|e| matches!(e.kind, RegionFaultKind::RegionBrownoutStart { .. }))
            .unwrap()
            .tick;
        assert!(crashes[0].0 > first_start);
    }

    #[test]
    #[should_panic(expected = "at least two regions")]
    fn plan_rejects_single_region() {
        let _ = RegionScenario::RegionBrownout.plan(1, 240, 1, 3);
    }
}
