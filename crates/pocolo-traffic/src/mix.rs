//! Composable traffic mixes and the CLI `--traffic <mix>[:seed]` syntax.
//!
//! A [`TrafficMix`] layers three signals the generator samples per tick:
//!
//! - a **baseline** [`LoadTrace`] (diurnal curve, constant plateau) giving
//!   the cluster-wide demand fraction of peak;
//! - zero or more **flash crowds** — trapezoid envelopes (ramp, hold,
//!   decay) multiplying demand, optionally pinned to one region;
//! - **regional skew** — a rotating population imbalance across
//!   [`REGIONS`] regions that flash crowds sharpen further.
//!
//! Like [`pocolo_faults::Scenario`], a mix is pure in its `(kind, seed,
//! duration)` inputs, so `flashcrowd:7` names one exact workload forever.

use std::fmt;
use std::str::FromStr;

use pocolo_workloads::LoadTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of user regions the generator draws from.
pub const REGIONS: usize = 4;

/// How much a fully ramped flash crowd shifts the hot slots'
/// cache-hungriness (the model-drift coupling: flash-crowd requests touch
/// colder data, so capacity becomes more LLC-way sensitive).
const FLASH_DRIFT: f64 = 0.45;

/// A named, seed-parameterized traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// A constant plateau — the calibration baseline.
    Steady,
    /// A day/night sine over the run with mild regional skew.
    Diurnal,
    /// A steady baseline broken by one large regional flash crowd.
    FlashCrowd,
    /// A diurnal baseline with strong rotating regional skew and a small
    /// roaming flash.
    Regional,
}

impl MixKind {
    /// All named mixes, in display order.
    pub const ALL: [MixKind; 4] = [
        MixKind::Steady,
        MixKind::Diurnal,
        MixKind::FlashCrowd,
        MixKind::Regional,
    ];

    /// The mix's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            MixKind::Steady => "steady",
            MixKind::Diurnal => "diurnal",
            MixKind::FlashCrowd => "flashcrowd",
            MixKind::Regional => "regional",
        }
    }
}

impl fmt::Display for MixKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for MixKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        MixKind::ALL
            .iter()
            .copied()
            .find(|m| m.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown traffic mix {s:?} (expected steady | diurnal | flashcrowd | regional)"
                )
            })
    }
}

/// A parsed `--traffic` value: a mix plus an optional explicit seed (when
/// absent, the experiment's own seed is used) — same grammar as
/// [`pocolo_faults::FaultSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficSpec {
    /// The named mix.
    pub kind: MixKind,
    /// Explicit mix seed, if the user pinned one with `:seed`.
    pub seed: Option<u64>,
}

impl FromStr for TrafficSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, seed) = pocolo_faults::parse_seeded(s, "traffic")?;
        Ok(TrafficSpec { kind, seed })
    }
}

impl fmt::Display for TrafficSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        pocolo_faults::fmt_seeded(f, self.kind, self.seed)
    }
}

/// One flash crowd: a trapezoid demand envelope, optionally pinned to a
/// region.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCrowd {
    /// Ramp start, seconds.
    pub start_s: f64,
    /// Ramp-up duration, seconds.
    pub ramp_s: f64,
    /// Hold duration at full strength, seconds.
    pub hold_s: f64,
    /// Decay duration back to baseline, seconds.
    pub decay_s: f64,
    /// Demand multiplier at full strength (`1.6` = 60 % extra load).
    pub mult: f64,
    /// Region the crowd concentrates in, if any.
    pub region: Option<usize>,
}

impl FlashCrowd {
    /// Envelope strength in `[0, 1]` at time `t`: 0 outside the crowd,
    /// 1 during the hold, linear on the ramp and decay.
    pub fn envelope(&self, t: f64) -> f64 {
        let dt = t - self.start_s;
        if dt <= 0.0 {
            0.0
        } else if dt < self.ramp_s {
            dt / self.ramp_s
        } else if dt < self.ramp_s + self.hold_s {
            1.0
        } else {
            let into_decay = dt - self.ramp_s - self.hold_s;
            (1.0 - into_decay / self.decay_s).max(0.0)
        }
    }
}

/// A planned traffic mix: baseline trace + flash crowds + regional skew.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMix {
    kind: MixKind,
    baseline: LoadTrace,
    flashes: Vec<FlashCrowd>,
    /// Strength of the rotating regional imbalance in `[0, 1)`.
    skew: f64,
    /// Rotation period of the regional imbalance, seconds.
    skew_period_s: f64,
}

impl TrafficMix {
    /// Generates the mix for a run of `duration_s` seconds. Fully
    /// determined by the inputs: the same `(kind, seed, duration)` always
    /// yields the same mix.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not positive and finite.
    pub fn plan(kind: MixKind, seed: u64, duration_s: f64) -> Self {
        assert!(
            duration_s.is_finite() && duration_s > 0.0,
            "mix duration must be positive, got {duration_s}"
        );
        // Mix the kind into the stream so `steady:1` and `flashcrowd:1`
        // draw different randomness (same trick as fault scenarios).
        let tag = match kind {
            MixKind::Steady => 0x57u64,
            MixKind::Diurnal => 0xD1,
            MixKind::FlashCrowd => 0xF1,
            MixKind::Regional => 0x4E,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ (tag << 56));
        let d = duration_s;
        match kind {
            MixKind::Steady => TrafficMix {
                kind,
                baseline: LoadTrace::Constant(rng.gen_range(0.55..0.70)),
                flashes: Vec::new(),
                skew: 0.0,
                skew_period_s: d,
            },
            MixKind::Diurnal => TrafficMix {
                kind,
                baseline: LoadTrace::diurnal(
                    rng.gen_range(0.15..0.30),
                    rng.gen_range(0.80..0.95),
                    d,
                ),
                flashes: Vec::new(),
                skew: 0.15,
                skew_period_s: d,
            },
            MixKind::FlashCrowd => {
                let base = rng.gen_range(0.45..0.55);
                let flash = FlashCrowd {
                    start_s: rng.gen_range(0.28..0.36) * d,
                    ramp_s: 0.08 * d,
                    hold_s: rng.gen_range(0.30..0.38) * d,
                    decay_s: 0.10 * d,
                    mult: rng.gen_range(1.5..1.8),
                    region: Some(rng.gen_range(0..REGIONS)),
                };
                TrafficMix {
                    kind,
                    baseline: LoadTrace::Constant(base),
                    flashes: vec![flash],
                    skew: 0.25,
                    skew_period_s: d,
                }
            }
            MixKind::Regional => {
                let flash = FlashCrowd {
                    start_s: rng.gen_range(0.40..0.55) * d,
                    ramp_s: 0.05 * d,
                    hold_s: 0.15 * d,
                    decay_s: 0.05 * d,
                    mult: rng.gen_range(1.2..1.4),
                    region: Some(rng.gen_range(0..REGIONS)),
                };
                TrafficMix {
                    kind,
                    baseline: LoadTrace::diurnal(0.30, 0.70, d),
                    flashes: vec![flash],
                    skew: 0.55,
                    skew_period_s: d / 2.0,
                }
            }
        }
    }

    /// The mix's kind.
    pub fn kind(&self) -> MixKind {
        self.kind
    }

    /// The planned flash crowds.
    pub fn flashes(&self) -> &[FlashCrowd] {
        &self.flashes
    }

    /// Cluster-wide demand multiplier at time `t`, as a fraction of the
    /// per-user peak rate: baseline load times the stacked flash-crowd
    /// boosts. `1.0` means every user requests at the configured peak
    /// per-user rate.
    pub fn rate_multiplier_at(&self, t: f64) -> f64 {
        let mut m = self.baseline.load_at(t);
        for f in &self.flashes {
            m *= 1.0 + f.envelope(t) * (f.mult - 1.0);
        }
        m
    }

    /// Normalized region weights at time `t`: a rotating sine imbalance of
    /// strength `skew`, sharpened by any region-pinned flash crowd.
    pub fn region_weights_at(&self, t: f64) -> [f64; REGIONS] {
        let mut w = [0.0f64; REGIONS];
        let phase = t / self.skew_period_s * std::f64::consts::TAU;
        for (r, wr) in w.iter_mut().enumerate() {
            let offset = r as f64 / REGIONS as f64 * std::f64::consts::TAU;
            *wr = 1.0 + self.skew * (phase + offset).sin();
        }
        for f in &self.flashes {
            if let Some(r) = f.region {
                // The crowd's extra demand comes from its home region.
                w[r] *= 1.0 + f.envelope(t) * (f.mult - 1.0) * 2.0;
            }
        }
        let total: f64 = w.iter().sum();
        for wr in &mut w {
            *wr /= total;
        }
        w
    }

    /// How far the hot slots' capacity sensitivity has shifted toward LLC
    /// ways at time `t`, in `[0, FLASH_DRIFT]`: flash-crowd requests touch
    /// cold data, so a crowded slot's effective capacity gains an extra
    /// `ways_fraction^drift` factor the offline fit never saw.
    pub fn drift_at(&self, t: f64) -> f64 {
        let peak = self
            .flashes
            .iter()
            .map(|f| f.envelope(t))
            .fold(0.0f64, f64::max);
        peak * FLASH_DRIFT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for s in ["steady", "diurnal:3", "flashcrowd:7", "regional:0"] {
            let spec: TrafficSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("tsunami".parse::<TrafficSpec>().is_err());
        assert_eq!(
            "steady:abc".parse::<TrafficSpec>().unwrap_err(),
            "bad traffic seed \"abc\": invalid digit found in string"
        );
        assert!("".parse::<TrafficSpec>().is_err());
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        for kind in MixKind::ALL {
            let a = TrafficMix::plan(kind, 5, 60.0);
            let b = TrafficMix::plan(kind, 5, 60.0);
            assert_eq!(a, b, "{kind} not reproducible");
        }
        let a = TrafficMix::plan(MixKind::FlashCrowd, 5, 60.0);
        let c = TrafficMix::plan(MixKind::FlashCrowd, 6, 60.0);
        assert_ne!(a, c, "flashcrowd ignores its seed");
    }

    #[test]
    fn kinds_differ_under_same_seed() {
        let s = TrafficMix::plan(MixKind::Steady, 1, 60.0);
        let f = TrafficMix::plan(MixKind::FlashCrowd, 1, 60.0);
        assert_ne!(s, f);
    }

    #[test]
    fn flash_envelope_shape() {
        let f = FlashCrowd {
            start_s: 10.0,
            ramp_s: 4.0,
            hold_s: 6.0,
            decay_s: 5.0,
            mult: 1.6,
            region: None,
        };
        assert_eq!(f.envelope(0.0), 0.0);
        assert_eq!(f.envelope(10.0), 0.0);
        assert!((f.envelope(12.0) - 0.5).abs() < 1e-12);
        assert_eq!(f.envelope(15.0), 1.0);
        assert_eq!(f.envelope(19.0), 1.0);
        assert!((f.envelope(22.5) - 0.5).abs() < 1e-12);
        assert_eq!(f.envelope(30.0), 0.0);
    }

    #[test]
    fn flashcrowd_raises_demand_mid_run() {
        let mix = TrafficMix::plan(MixKind::FlashCrowd, 7, 100.0);
        let quiet = mix.rate_multiplier_at(1.0);
        let peak: f64 = (0..100)
            .map(|t| mix.rate_multiplier_at(t as f64))
            .fold(0.0, f64::max);
        assert!(
            peak > quiet * 1.4,
            "flash peak {peak} should tower over quiet {quiet}"
        );
        // And the drift signal is active exactly when the crowd is.
        assert_eq!(mix.drift_at(1.0), 0.0);
        let drift_peak: f64 = (0..100).map(|t| mix.drift_at(t as f64)).fold(0.0, f64::max);
        assert!(drift_peak > 0.3, "drift peak {drift_peak}");
    }

    #[test]
    fn region_weights_are_a_distribution() {
        for kind in MixKind::ALL {
            let mix = TrafficMix::plan(kind, 3, 80.0);
            for t in [0.0, 17.0, 40.0, 79.0] {
                let w = mix.region_weights_at(t);
                let sum: f64 = w.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "{kind} at {t}: sum {sum}");
                assert!(w.iter().all(|&x| x > 0.0), "{kind} at {t}: {w:?}");
            }
        }
    }

    #[test]
    fn regional_flash_concentrates_in_its_region() {
        let mix = TrafficMix::plan(MixKind::FlashCrowd, 7, 100.0);
        let home = mix.flashes()[0].region.unwrap();
        let t_hold = mix.flashes()[0].start_s + mix.flashes()[0].ramp_s + 1.0;
        let w = mix.region_weights_at(t_hold);
        let max = w.iter().cloned().fold(0.0, f64::max);
        assert_eq!(w[home], max, "crowd region is the hottest: {w:?}");
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn plan_rejects_bad_duration() {
        let _ = TrafficMix::plan(MixKind::Steady, 1, 0.0);
    }
}
