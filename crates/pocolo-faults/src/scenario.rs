//! Named fault scenarios and the CLI `--faults <scenario>[:seed]` syntax.

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::FaultPlan;

/// A named, seed-parameterized fault scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// A single mid-run cluster-wide brownout window.
    Brownout,
    /// One randomly chosen server crashes mid-run and later recovers.
    Crash,
    /// Everything at once: brownout, a crash, a cluster-wide telemetry
    /// dropout, and model drift.
    Chaos,
    /// Traffic surprise and power fault simultaneously: a mid-run
    /// brownout window timed to overlap a flash-crowd peak (the
    /// `pocolo-traffic` flashcrowd mix ramps around 30 % of the run),
    /// with model drift as the crowd's request profile shifts.
    Surge,
}

impl Scenario {
    /// All named scenarios, in display order.
    pub const ALL: [Scenario; 4] = [
        Scenario::Brownout,
        Scenario::Crash,
        Scenario::Chaos,
        Scenario::Surge,
    ];

    /// The scenario's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Brownout => "brownout",
            Scenario::Crash => "crash",
            Scenario::Chaos => "chaos",
            Scenario::Surge => "surge",
        }
    }

    /// Generates the scenario's fault plan for a run of `duration_s`
    /// seconds over `n_servers` servers. Fully determined by the inputs:
    /// the same `(scenario, seed, duration, n)` always yields the same
    /// plan.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not positive and finite, or `n_servers`
    /// is zero.
    pub fn plan(self, seed: u64, duration_s: f64, n_servers: usize) -> FaultPlan {
        assert!(
            duration_s.is_finite() && duration_s > 0.0,
            "scenario duration must be positive, got {duration_s}"
        );
        assert!(n_servers > 0, "scenario needs at least one server");
        // Mix the scenario into the stream so `brownout:1` and `crash:1`
        // draw different randomness.
        let tag = match self {
            Scenario::Brownout => 0xB0u64,
            Scenario::Crash => 0xC4,
            Scenario::Chaos => 0xCA,
            Scenario::Surge => 0x5E,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ (tag << 56));
        let d = duration_s;
        match self {
            Scenario::Brownout => {
                let factor = rng.gen_range(0.55..0.72);
                FaultPlan::new(seed).with_brownout(0.25 * d, 0.40 * d, factor)
            }
            Scenario::Crash => {
                let victim = rng.gen_range(0..n_servers);
                FaultPlan::new(seed).with_crash(victim, 0.30 * d, 0.25 * d)
            }
            Scenario::Chaos => {
                let factor = rng.gen_range(0.60..0.78);
                let victim = rng.gen_range(0..n_servers);
                let drift = rng.gen_range(0.10..0.25);
                FaultPlan::new(seed)
                    .with_brownout(0.15 * d, 0.25 * d, factor)
                    .with_crash(victim, 0.45 * d, 0.15 * d)
                    .with_telemetry_dropout(None, 0.65 * d, 0.20 * d)
                    .with_model_drift(None, 0.50 * d, drift)
            }
            Scenario::Surge => {
                // The window sits over the flashcrowd mix's ramp+hold
                // (~30-70 % of the run), so the power shortfall lands
                // while demand is at its peak.
                let factor = rng.gen_range(0.58..0.72);
                let drift = rng.gen_range(0.15..0.30);
                FaultPlan::new(seed)
                    .with_brownout(0.32 * d, 0.38 * d, factor)
                    .with_model_drift(None, 0.32 * d, drift)
            }
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Scenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scenario::ALL
            .iter()
            .copied()
            .find(|sc| sc.name() == s)
            .ok_or_else(|| {
                format!("unknown fault scenario {s:?} (expected brownout | crash | chaos | surge)")
            })
    }
}

/// A parsed `--faults` value: a scenario plus an optional explicit seed
/// (when absent, the experiment's own seed is used).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The named scenario.
    pub scenario: Scenario,
    /// Explicit fault seed, if the user pinned one with `:seed`.
    pub seed: Option<u64>,
}

impl FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (scenario, seed) = parse_seeded(s, "fault")?;
        Ok(FaultSpec { scenario, seed })
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_seeded(f, self.scenario, self.seed)
    }
}

/// Parses the `name[:seed]` grammar every named, seeded spec shares
/// (`--faults`, the federation's `--faults`, `--traffic`); a bad seed is
/// `bad <what> seed "x": …`.
pub fn parse_seeded<N>(s: &str, what: &str) -> Result<(N, Option<u64>), String>
where
    N: FromStr<Err = String>,
{
    match s.split_once(':') {
        None => Ok((s.parse()?, None)),
        Some((name, seed)) => {
            let name = name.parse()?;
            let seed = seed
                .parse()
                .map_err(|e| format!("bad {what} seed {seed:?}: {e}"))?;
            Ok((name, Some(seed)))
        }
    }
}

/// Writes `name[:seed]`, the inverse of [`parse_seeded`].
pub fn fmt_seeded(
    f: &mut fmt::Formatter<'_>,
    name: impl fmt::Display,
    seed: Option<u64>,
) -> fmt::Result {
    match seed {
        None => write!(f, "{name}"),
        Some(seed) => write!(f, "{name}:{seed}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;

    #[test]
    fn parse_roundtrip() {
        for s in ["brownout", "crash:12", "chaos:0"] {
            let spec: FaultSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
        }
        assert_eq!(
            "brownout".parse::<FaultSpec>().unwrap(),
            FaultSpec {
                scenario: Scenario::Brownout,
                seed: None
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("meteor".parse::<FaultSpec>().is_err());
        assert_eq!(
            "brownout:abc".parse::<FaultSpec>().unwrap_err(),
            "bad fault seed \"abc\": invalid digit found in string"
        );
        assert!("".parse::<FaultSpec>().is_err());
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        for sc in Scenario::ALL {
            let a = sc.plan(5, 120.0, 4);
            let b = sc.plan(5, 120.0, 4);
            assert_eq!(a, b, "{sc} not reproducible");
            let c = sc.plan(6, 120.0, 4);
            assert_ne!(a, c, "{sc} ignores its seed");
        }
    }

    #[test]
    fn scenarios_differ_under_same_seed() {
        let b = Scenario::Brownout.plan(1, 100.0, 4);
        let c = Scenario::Chaos.plan(1, 100.0, 4);
        assert_ne!(b, c);
    }

    #[test]
    fn brownout_plan_shape() {
        let plan = Scenario::Brownout.plan(1, 100.0, 4);
        assert_eq!(plan.events().len(), 2);
        match plan.events()[0].kind {
            FaultKind::BrownoutStart { cap_factor } => {
                assert!((0.55..0.72).contains(&cap_factor));
            }
            ref other => panic!("expected brownout start, got {other:?}"),
        }
        assert!(plan.events()[0].at_s < plan.events()[1].at_s);
        assert!(plan.events()[1].at_s < 100.0);
    }

    #[test]
    fn crash_victim_is_in_range() {
        for seed in 0..16 {
            let plan = Scenario::Crash.plan(seed, 80.0, 3);
            match plan.events()[0].kind {
                FaultKind::ServerCrash { server } => assert!(server < 3),
                ref other => panic!("expected crash, got {other:?}"),
            }
        }
    }

    #[test]
    fn chaos_has_all_fault_kinds() {
        let plan = Scenario::Chaos.plan(2, 200.0, 4);
        let has = |pred: fn(&FaultKind) -> bool| plan.events().iter().any(|e| pred(&e.kind));
        assert!(has(|k| matches!(k, FaultKind::BrownoutStart { .. })));
        assert!(has(|k| matches!(k, FaultKind::ServerCrash { .. })));
        assert!(has(|k| matches!(k, FaultKind::TelemetryFreezeStart { .. })));
        assert!(has(|k| matches!(k, FaultKind::ModelDrift { .. })));
    }

    #[test]
    fn surge_overlaps_brownout_with_drift() {
        let plan = Scenario::Surge.plan(7, 100.0, 4);
        let has = |pred: fn(&FaultKind) -> bool| plan.events().iter().any(|e| pred(&e.kind));
        assert!(has(|k| matches!(k, FaultKind::BrownoutStart { .. })));
        assert!(has(|k| matches!(k, FaultKind::BrownoutEnd)));
        assert!(has(|k| matches!(k, FaultKind::ModelDrift { .. })));
        assert!(!has(|k| matches!(k, FaultKind::ServerCrash { .. })));
        // The brownout window covers the flash-crowd hold: starts in
        // [0.32, 0.33) of the run and stretches well past the midpoint.
        let start = plan.events()[0].at_s;
        assert!((31.0..34.0).contains(&start), "start {start}");
        let end = plan
            .events()
            .iter()
            .find(|e| matches!(e.kind, FaultKind::BrownoutEnd))
            .unwrap()
            .at_s;
        assert!(end > 60.0, "end {end}");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn plan_rejects_empty_cluster() {
        let _ = Scenario::Crash.plan(1, 10.0, 0);
    }
}
