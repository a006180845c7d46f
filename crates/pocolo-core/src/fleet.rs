//! Heterogeneous fleet catalog: per-SKU server classes, pluggable power
//! curves, and seeded mixed-fleet composition.
//!
//! Everything above this module — matrix building, placement, simulation,
//! fault physics — is defined per *server*; this module supplies the
//! per-SKU facts those layers consume: geometry (cores, LLC ways),
//! frequency range, idle/peak watts, and how the SKU's power delivery
//! responds when a brownout asks it to shed load ([`PowerCurve`]).
//!
//! A [`FleetSpec`] composes classes into a fleet and deterministically
//! assigns a class to every server slot from a seed, so mixed-fleet
//! experiments replay bit-identically. A fleet of one class degenerates to
//! the legacy single-SKU behavior exactly: the xeon preset reproduces the
//! paper's Table I machine, and its [`PowerCurve::Linear`] curve is the
//! identity on cap factors.

use std::fmt;
use std::str::FromStr;

use crate::digest::{splitmix64, SPLITMIX64_GAMMA};
use crate::resources::{ResourceDescriptor, ResourceSpace};
use crate::units::{Frequency, Watts};

/// How a SKU's power delivery quantizes a requested cap reduction.
///
/// During a brownout the infrastructure asks every server to run at a
/// fraction `f ∈ (0, 1]` of its provisioned cap. Real hardware cannot
/// always hold an arbitrary fraction: DVFS exposes discrete P-states, and
/// accelerator-like parts gate whole power planes. The curve maps the
/// *requested* factor to the *effective* factor the SKU actually holds.
///
/// Invariants, relied on throughout the stack:
///
/// - `effective_cap_factor(f) <= f` — the cap stays a hard guarantee (a
///   SKU may derate deeper than asked, never shallower);
/// - `effective_cap_factor(1.0) == 1.0` — no derate outside a brownout,
///   so a single-class fleet replays legacy runs bit-identically;
/// - monotone non-decreasing in `f`.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerCurve {
    /// Continuous additive power: the SKU holds any requested fraction
    /// exactly (the legacy model — the identity map).
    Linear,
    /// Cubic DVFS: the SKU exposes `levels` discrete frequency states
    /// between `floor_frac` and 1.0 of max frequency, and power scales as
    /// frequency cubed. The effective factor is the largest state power
    /// at or below the request; requests below the floor state fall back
    /// to duty-cycling at the requested factor.
    CubicDvfs {
        /// Lowest P-state frequency as a fraction of max, in `(0, 1)`.
        floor_frac: f64,
        /// Number of discrete P-states, at least 2.
        levels: usize,
    },
    /// Accelerator-like step function: the SKU can only hold the listed
    /// power fractions (ascending, ending at 1.0 — whole power planes
    /// gate on and off). The effective factor is the largest state at or
    /// below the request; below the lowest state it duty-cycles at the
    /// requested factor.
    Stepped {
        /// Holdable power fractions, ascending, each in `(0, 1]`, last
        /// exactly 1.0.
        states: Vec<f64>,
    },
}

impl PowerCurve {
    /// Short display name of the curve family.
    pub fn name(&self) -> &'static str {
        match self {
            PowerCurve::Linear => "linear",
            PowerCurve::CubicDvfs { .. } => "cubic",
            PowerCurve::Stepped { .. } => "stepped",
        }
    }

    /// Validates the curve's parameters; the error is a one-line message.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            PowerCurve::Linear => Ok(()),
            PowerCurve::CubicDvfs { floor_frac, levels } => {
                if !(*floor_frac > 0.0 && *floor_frac < 1.0) {
                    return Err(format!(
                        "cubic curve floor fraction must be in (0, 1), got {floor_frac}"
                    ));
                }
                if *levels < 2 {
                    return Err(format!(
                        "cubic curve needs at least 2 P-states, got {levels}"
                    ));
                }
                Ok(())
            }
            PowerCurve::Stepped { states } => {
                if states.is_empty() {
                    return Err("stepped curve has no states".to_string());
                }
                if states.windows(2).any(|w| w[0] >= w[1]) {
                    return Err("stepped curve states must be strictly ascending".to_string());
                }
                if states.iter().any(|&s| !(s > 0.0 && s <= 1.0)) {
                    return Err("stepped curve states must lie in (0, 1]".to_string());
                }
                if (states[states.len() - 1] - 1.0).abs() > 1e-12 {
                    return Err("stepped curve must end at 1.0 (full power)".to_string());
                }
                Ok(())
            }
        }
    }

    /// Maps a requested cap factor to the factor this SKU actually holds.
    /// Always `<= f`, and exactly `f` when `f == 1.0` (see the type-level
    /// invariants).
    pub fn effective_cap_factor(&self, f: f64) -> f64 {
        debug_assert!(f > 0.0 && f <= 1.0, "cap factor must be in (0, 1], got {f}");
        match self {
            PowerCurve::Linear => f,
            PowerCurve::CubicDvfs { floor_frac, levels } => {
                // State i holds frequency fraction φᵢ and power fraction φᵢ³.
                let n = *levels;
                let mut best = None;
                for i in (0..n).rev() {
                    let phi = floor_frac + (1.0 - floor_frac) * i as f64 / (n - 1) as f64;
                    let p = phi * phi * phi;
                    if p <= f {
                        best = Some(p);
                        break;
                    }
                }
                // Below the floor state the SKU duty-cycles: it can hold
                // the request on average, so no quantization applies.
                best.unwrap_or(f).min(f)
            }
            PowerCurve::Stepped { states } => states
                .iter()
                .rev()
                .find(|&&s| s <= f)
                .copied()
                .unwrap_or(f)
                .min(f),
        }
    }
}

impl fmt::Display for PowerCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One SKU: the static facts the whole stack needs about a server class.
///
/// It is also the simulated machine: `pocolo_simserver::MachineSpec` is
/// this type, so the power model, the knobs and the profiler read the
/// same geometry, frequency range and watts the fleet layers plan with.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerClass {
    name: String,
    cores: u32,
    llc_ways: u32,
    freq_min: Frequency,
    freq_max: Frequency,
    idle_w: Watts,
    peak_w: Watts,
    curve: PowerCurve,
}

impl ServerClass {
    /// Builds and validates a class. Errors are one-line messages naming
    /// the offending field (the CLI surfaces them verbatim).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        cores: u32,
        llc_ways: u32,
        freq_min: Frequency,
        freq_max: Frequency,
        idle_w: Watts,
        peak_w: Watts,
        curve: PowerCurve,
    ) -> Result<Self, String> {
        let name = name.into();
        if name.is_empty() {
            return Err("server class has an empty name".to_string());
        }
        // The profiler's grid steps cores by 1 from 1 and ways by 2 from 2:
        // fewer than 2 cores or 4 ways leaves one value on an axis and the
        // fit singular. The ceilings bound the simulated CPU and way masks.
        if !(2..=64).contains(&cores) {
            return Err(format!(
                "server class {name:?} has {cores} cores (need 2..=64)"
            ));
        }
        if !(4..=32).contains(&llc_ways) {
            return Err(format!(
                "server class {name:?} has {llc_ways} LLC ways (need 4..=32)"
            ));
        }
        if !freq_min.0.is_finite()
            || !freq_max.0.is_finite()
            || freq_min.0 <= 0.0
            || freq_min > freq_max
        {
            return Err(format!(
                "server class {name:?} frequency range [{}, {}] is invalid",
                freq_min.0, freq_max.0
            ));
        }
        if !idle_w.is_valid() || !peak_w.is_valid() || idle_w > peak_w || peak_w.0 <= 0.0 {
            return Err(format!(
                "server class {name:?} power range [{}, {}] is invalid",
                idle_w.0, peak_w.0
            ));
        }
        curve
            .validate()
            .map_err(|e| format!("server class {name:?}: {e}"))?;
        Ok(ServerClass {
            name,
            cores,
            llc_ways,
            freq_min,
            freq_max,
            idle_w,
            peak_w,
            curve,
        })
    }

    /// The paper's Table I machine as a class: 12 cores, 20 ways,
    /// 1.2–2.2 GHz, 50/135 W, continuous power. A fleet of only this
    /// class reproduces every legacy run bit-identically.
    pub fn xeon_e5_2650() -> Self {
        ServerClass::new(
            "xeon",
            12,
            20,
            Frequency(1.2),
            Frequency(2.2),
            Watts(50.0),
            Watts(135.0),
            PowerCurve::Linear,
        )
        .expect("preset is valid")
    }

    /// A dense high-frequency SKU with cubic DVFS: 16 cores, 16 ways,
    /// 1.6–3.0 GHz, 60/180 W, 8 P-states down to half frequency.
    pub fn turbo() -> Self {
        ServerClass::new(
            "turbo",
            16,
            16,
            Frequency(1.6),
            Frequency(3.0),
            Watts(60.0),
            Watts(180.0),
            PowerCurve::CubicDvfs {
                floor_frac: 0.5,
                levels: 8,
            },
        )
        .expect("preset is valid")
    }

    /// An accelerator-like SKU whose power planes gate in steps: 8 fat
    /// cores, 24 ways, 1.0–1.8 GHz, 45/150 W, holdable only at quarter
    /// fractions of its cap.
    pub fn stepcell() -> Self {
        ServerClass::new(
            "stepcell",
            8,
            24,
            Frequency(1.0),
            Frequency(1.8),
            Watts(45.0),
            Watts(150.0),
            PowerCurve::Stepped {
                states: vec![0.25, 0.5, 0.75, 1.0],
            },
        )
        .expect("preset is valid")
    }

    /// Names of the cataloged classes, in display order.
    pub const CATALOG: [&'static str; 3] = ["xeon", "turbo", "stepcell"];

    /// Looks a cataloged class up by name.
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "xeon" => Some(Self::xeon_e5_2650()),
            "turbo" => Some(Self::turbo()),
            "stepcell" => Some(Self::stepcell()),
            _ => None,
        }
    }

    /// A copy of `class`. Kept only because the benchmark builds its
    /// per-class machines as `MachineSpec::from_class(class)`.
    pub fn from_class(class: &ServerClass) -> Self {
        class.clone()
    }

    /// A copy of this class with overridden geometry (the `name/cores/ways`
    /// spec syntax); power and frequency carry over. The derived class is
    /// re-validated, so a zero-core override errors like any other
    /// malformed class.
    pub fn with_geometry(&self, cores: u32, llc_ways: u32) -> Result<Self, String> {
        ServerClass::new(
            format!("{}/{}/{}", self.name, cores, llc_ways),
            cores,
            llc_ways,
            self.freq_min,
            self.freq_max,
            self.idle_w,
            self.peak_w,
            self.curve.clone(),
        )
    }

    /// The class name (also the spec token that parses back to it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical core count.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// LLC ways available to partitioning.
    pub fn llc_ways(&self) -> u32 {
        self.llc_ways
    }

    /// Minimum DVFS frequency.
    pub fn freq_min(&self) -> Frequency {
        self.freq_min
    }

    /// Maximum DVFS frequency.
    pub fn freq_max(&self) -> Frequency {
        self.freq_max
    }

    /// Idle (all cores parked) power draw.
    pub fn idle_watts(&self) -> Watts {
        self.idle_w
    }

    /// Peak (all resources busy at max frequency) power draw.
    pub fn peak_watts(&self) -> Watts {
        self.peak_w
    }

    /// The SKU's cap-response curve.
    pub fn curve(&self) -> &PowerCurve {
        &self.curve
    }

    /// The direct-resource space this class exposes to the economics
    /// framework: `cores ∈ [1, n]`, `llc_ways ∈ [1, w]`.
    pub fn resource_space(&self) -> ResourceSpace {
        ResourceSpace::builder()
            .resource(ResourceDescriptor::integral(
                "cores",
                1.0,
                self.cores as f64,
            ))
            .resource(ResourceDescriptor::integral(
                "llc_ways",
                1.0,
                self.llc_ways as f64,
            ))
            .build()
            .expect("class geometry validated at construction")
    }

    /// Clamps a frequency into the class's DVFS range.
    pub fn clamp_frequency(&self, f: Frequency) -> Frequency {
        Frequency(f.0.clamp(self.freq_min.0, self.freq_max.0))
    }
}

/// A weighted mix of server classes, independent of fleet size.
///
/// The spec is declarative — "2 parts xeon, 1 part turbo" — and
/// [`FleetSpec::assign`] projects it onto any number of server slots
/// deterministically: largest-remainder apportionment of the weights,
/// then a seeded shuffle so class runs don't correlate with slot index.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    entries: Vec<(ServerClass, usize)>,
}

impl FleetSpec {
    /// Builds a fleet from `(class, weight)` entries. Errors (one-line)
    /// on an empty list, a zero weight, or duplicate class names.
    pub fn new(entries: Vec<(ServerClass, usize)>) -> Result<Self, String> {
        if entries.is_empty() {
            return Err("empty fleet spec (need at least one server class)".to_string());
        }
        for (class, weight) in &entries {
            if *weight == 0 {
                return Err(format!(
                    "server class {:?} has zero weight in fleet spec",
                    class.name()
                ));
            }
        }
        for i in 1..entries.len() {
            if entries[..i]
                .iter()
                .any(|(c, _)| c.name() == entries[i].0.name())
            {
                return Err(format!(
                    "server class {:?} appears twice in fleet spec",
                    entries[i].0.name()
                ));
            }
        }
        Ok(FleetSpec { entries })
    }

    /// A fleet of exactly one class.
    pub fn homogeneous(class: ServerClass) -> Self {
        FleetSpec {
            entries: vec![(class, 1)],
        }
    }

    /// Looks a named fleet preset up: every cataloged class name is a
    /// homogeneous preset, and `mixed3` is the seeded three-SKU mix
    /// (xeon + turbo + stepcell, equal weights).
    pub fn preset(name: &str) -> Option<Self> {
        if name == "mixed3" {
            return Some(FleetSpec {
                entries: vec![
                    (ServerClass::xeon_e5_2650(), 1),
                    (ServerClass::turbo(), 1),
                    (ServerClass::stepcell(), 1),
                ],
            });
        }
        ServerClass::named(name).map(FleetSpec::homogeneous)
    }

    /// Number of distinct classes in the fleet.
    pub fn n_classes(&self) -> usize {
        self.entries.len()
    }

    /// The class at `idx` (the class index [`FleetSpec::assign`] emits).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn class(&self, idx: usize) -> &ServerClass {
        &self.entries[idx].0
    }

    /// The `(class, weight)` entries, in spec order.
    pub fn entries(&self) -> &[(ServerClass, usize)] {
        &self.entries
    }

    /// Assigns a class index to each of `n_slots` server slots:
    /// largest-remainder apportionment of the weights, then a
    /// SplitMix64-seeded Fisher–Yates shuffle. Pure in `(self, n_slots,
    /// seed)`, so fleet runs replay bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `n_slots` is zero.
    pub fn assign(&self, n_slots: usize, seed: u64) -> Vec<usize> {
        assert!(n_slots > 0, "fleet needs at least one server slot");
        if self.entries.len() == 1 {
            return vec![0; n_slots];
        }
        let total: usize = self.entries.iter().map(|(_, w)| w).sum();
        // Largest-remainder apportionment: floors first, then one extra
        // slot per largest fractional share (ties broken by entry order).
        let mut counts: Vec<usize> = Vec::with_capacity(self.entries.len());
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(self.entries.len());
        let mut used = 0usize;
        for (i, (_, w)) in self.entries.iter().enumerate() {
            let exact = n_slots as f64 * *w as f64 / total as f64;
            let floor = exact.floor() as usize;
            counts.push(floor);
            used += floor;
            fracs.push((i, exact - floor as f64));
        }
        fracs.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite shares")
                .then(a.0.cmp(&b.0))
        });
        for &(i, _) in fracs.iter().take(n_slots - used) {
            counts[i] += 1;
        }
        let mut slots: Vec<usize> = Vec::with_capacity(n_slots);
        for (i, &c) in counts.iter().enumerate() {
            slots.extend(std::iter::repeat_n(i, c));
        }
        // Seeded Fisher–Yates so class runs don't correlate with slot index.
        let mut state = seed ^ 0xF1EE_7000_0000_0000;
        for i in (1..slots.len()).rev() {
            let j = (splitmix64(state) % (i as u64 + 1)) as usize;
            state = state.wrapping_add(SPLITMIX64_GAMMA);
            slots.swap(i, j);
        }
        slots
    }
}

impl fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (class, weight)) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            if *weight == 1 {
                write!(f, "{}", class.name())?;
            } else {
                write!(f, "{}*{}", class.name(), weight)?;
            }
        }
        Ok(())
    }
}

impl FromStr for FleetSpec {
    type Err = String;

    /// Parses `preset` or `term[+term...]` where `term` is
    /// `class[/cores/ways][*weight]` and `class` is a catalog name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err("empty fleet spec (need at least one server class)".to_string());
        }
        if let Some(preset) = FleetSpec::preset(s) {
            return Ok(preset);
        }
        let mut entries = Vec::new();
        for term in s.split('+') {
            if term.is_empty() {
                return Err(format!("empty term in fleet spec {s:?}"));
            }
            let (class_expr, weight) = match term.split_once('*') {
                None => (term, 1usize),
                Some((c, w)) => {
                    let weight: usize = w
                        .parse()
                        .map_err(|_| format!("bad class weight {w:?} in fleet spec"))?;
                    (c, weight)
                }
            };
            let class = match class_expr.split_once('/') {
                None => ServerClass::named(class_expr).ok_or_else(|| {
                    format!(
                        "unknown server class {class_expr:?} (expected {} or preset mixed3)",
                        ServerClass::CATALOG.join(" | ")
                    )
                })?,
                Some((name, geometry)) => {
                    let base = ServerClass::named(name).ok_or_else(|| {
                        format!(
                            "unknown server class {name:?} (expected {} or preset mixed3)",
                            ServerClass::CATALOG.join(" | ")
                        )
                    })?;
                    let (cores, ways) = geometry.split_once('/').ok_or_else(|| {
                        format!("bad geometry override {term:?} (expected class/cores/ways)")
                    })?;
                    let cores: u32 = cores
                        .parse()
                        .map_err(|_| format!("bad core count {cores:?} in fleet spec"))?;
                    let ways: u32 = ways
                        .parse()
                        .map_err(|_| format!("bad way count {ways:?} in fleet spec"))?;
                    base.with_geometry(cores, ways)?
                }
            };
            entries.push((class, weight));
        }
        FleetSpec::new(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_class_matches_table_one() {
        let c = ServerClass::xeon_e5_2650();
        assert_eq!(c.cores(), 12);
        assert_eq!(c.llc_ways(), 20);
        assert_eq!(c.freq_min(), Frequency(1.2));
        assert_eq!(c.freq_max(), Frequency(2.2));
        assert_eq!(c.idle_watts(), Watts(50.0));
        assert_eq!(c.peak_watts(), Watts(135.0));
        assert_eq!(c.curve(), &PowerCurve::Linear);
        let space = c.resource_space();
        assert_eq!(space.descriptor(0).max(), 12.0);
        assert_eq!(space.descriptor(1).max(), 20.0);
    }

    #[test]
    fn class_space_matches_legacy_fixture() {
        // A homogeneous xeon fleet must expose exactly the space every
        // legacy test and golden run was built on.
        let legacy = ResourceSpace::builder()
            .resource(ResourceDescriptor::integral("cores", 1.0, 12.0))
            .resource(ResourceDescriptor::integral("llc_ways", 1.0, 20.0))
            .build()
            .unwrap();
        assert_eq!(ServerClass::xeon_e5_2650().resource_space(), legacy);
        assert_eq!(ResourceSpace::cores_and_ways(), legacy);
    }

    #[test]
    fn class_validation_is_one_line() {
        for bad in [
            ServerClass::new(
                "z",
                0,
                8,
                Frequency(1.0),
                Frequency(2.0),
                Watts(10.0),
                Watts(50.0),
                PowerCurve::Linear,
            ),
            ServerClass::new(
                "z",
                4,
                0,
                Frequency(1.0),
                Frequency(2.0),
                Watts(10.0),
                Watts(50.0),
                PowerCurve::Linear,
            ),
            ServerClass::new(
                "z",
                4,
                8,
                Frequency(2.0),
                Frequency(1.0),
                Watts(10.0),
                Watts(50.0),
                PowerCurve::Linear,
            ),
            ServerClass::new(
                "z",
                4,
                8,
                Frequency(1.0),
                Frequency(2.0),
                Watts(60.0),
                Watts(50.0),
                PowerCurve::Linear,
            ),
            ServerClass::new(
                "z",
                4,
                8,
                Frequency(1.0),
                Frequency(2.0),
                Watts(10.0),
                Watts(50.0),
                PowerCurve::Stepped { states: vec![] },
            ),
        ] {
            let err = bad.unwrap_err();
            assert!(!err.contains('\n'), "multi-line error: {err}");
        }
        // Geometries the profile grid cannot fit name the field at fault.
        let xeon = ServerClass::xeon_e5_2650();
        for (cores, ways, field) in [
            (20, 3, "3 LLC ways"),
            (1, 20, "1 cores"),
            (12, 2, "2 LLC ways"),
        ] {
            let err = xeon.with_geometry(cores, ways).unwrap_err();
            let spec = format!("xeon/{cores}/{ways}");
            assert!(err.contains(&spec) && err.contains(field), "{err}");
            assert!(!err.contains('\n'), "multi-line error: {err}");
        }
        assert!(xeon.with_geometry(2, 4).is_ok());
        let zero = ServerClass::new(
            "dud",
            0,
            8,
            Frequency(1.0),
            Frequency(2.0),
            Watts(10.0),
            Watts(50.0),
            PowerCurve::Linear,
        )
        .unwrap_err();
        assert!(zero.contains("dud") && zero.contains("0 cores"), "{zero}");
    }

    #[test]
    fn clamp_frequency() {
        let m = ServerClass::xeon_e5_2650();
        assert_eq!(m.clamp_frequency(Frequency(3.0)), Frequency(2.2));
        assert_eq!(m.clamp_frequency(Frequency(0.5)), Frequency(1.2));
        assert_eq!(m.clamp_frequency(Frequency(1.8)), Frequency(1.8));
    }

    #[test]
    fn curves_never_exceed_the_request() {
        let curves = [
            PowerCurve::Linear,
            PowerCurve::CubicDvfs {
                floor_frac: 0.5,
                levels: 8,
            },
            PowerCurve::Stepped {
                states: vec![0.25, 0.5, 0.75, 1.0],
            },
        ];
        for curve in &curves {
            curve.validate().unwrap();
            for i in 1..=100 {
                let f = i as f64 / 100.0;
                let eff = curve.effective_cap_factor(f);
                assert!(eff <= f + 1e-15, "{curve}: eff {eff} > requested {f}");
                assert!(eff > 0.0, "{curve}: eff {eff} not positive at {f}");
            }
            // No derate at full power — the bit-identity invariant.
            assert_eq!(curve.effective_cap_factor(1.0), 1.0, "{curve}");
        }
    }

    #[test]
    fn curves_are_monotone() {
        let curves = [
            PowerCurve::CubicDvfs {
                floor_frac: 0.4,
                levels: 6,
            },
            PowerCurve::Stepped {
                states: vec![0.3, 0.6, 1.0],
            },
        ];
        for curve in &curves {
            let mut last = 0.0;
            for i in 1..=100 {
                let eff = curve.effective_cap_factor(i as f64 / 100.0);
                assert!(eff >= last - 1e-15, "{curve} not monotone at {i}");
                last = eff;
            }
        }
    }

    #[test]
    fn stepped_curve_derates_deeper_than_asked() {
        let c = PowerCurve::Stepped {
            states: vec![0.25, 0.5, 0.75, 1.0],
        };
        assert!((c.effective_cap_factor(0.65) - 0.5).abs() < 1e-12);
        assert!((c.effective_cap_factor(0.75) - 0.75).abs() < 1e-12);
        // Below the lowest state: duty-cycle at the request.
        assert!((c.effective_cap_factor(0.1) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn cubic_curve_quantizes_to_p_states() {
        let c = PowerCurve::CubicDvfs {
            floor_frac: 0.5,
            levels: 8,
        };
        // At a 0.65 request the chosen state power is strictly below it
        // (frequency quantization), but above the previous state.
        let eff = c.effective_cap_factor(0.65);
        assert!(eff < 0.65 && eff > 0.4, "eff {eff}");
        // Below the floor state's power (0.125), duty-cycling holds f.
        assert!((c.effective_cap_factor(0.1) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn invalid_curves_rejected() {
        assert!(PowerCurve::CubicDvfs {
            floor_frac: 0.0,
            levels: 4
        }
        .validate()
        .is_err());
        assert!(PowerCurve::CubicDvfs {
            floor_frac: 0.5,
            levels: 1
        }
        .validate()
        .is_err());
        assert!(PowerCurve::Stepped {
            states: vec![0.5, 0.25, 1.0]
        }
        .validate()
        .is_err());
        assert!(PowerCurve::Stepped {
            states: vec![0.25, 0.5]
        }
        .validate()
        .is_err());
    }

    #[test]
    fn fleet_spec_parse_roundtrip() {
        for s in ["xeon", "xeon*2+turbo", "xeon+turbo+stepcell", "stepcell*3"] {
            let spec: FleetSpec = s.parse().unwrap();
            if s == "xeon" {
                assert_eq!(spec.n_classes(), 1);
            }
            assert_eq!(spec.to_string(), s);
        }
        let mixed = FleetSpec::preset("mixed3").unwrap();
        assert_eq!(mixed.n_classes(), 3);
        assert_eq!("mixed3".parse::<FleetSpec>().unwrap(), mixed);
    }

    #[test]
    fn fleet_spec_errors_are_one_line_and_name_the_token() {
        let unknown = "xeon+warp9".parse::<FleetSpec>().unwrap_err();
        assert!(unknown.contains("warp9"), "{unknown}");
        assert!(!unknown.contains('\n'));
        let zero_core = "xeon/0/8".parse::<FleetSpec>().unwrap_err();
        assert!(zero_core.contains("0 cores"), "{zero_core}");
        assert!(!zero_core.contains('\n'));
        let empty = "".parse::<FleetSpec>().unwrap_err();
        assert!(empty.contains("empty fleet"), "{empty}");
        assert!(!empty.contains('\n'));
        let bad_weight = "xeon*zero".parse::<FleetSpec>().unwrap_err();
        assert!(bad_weight.contains("zero"), "{bad_weight}");
        assert!(!bad_weight.contains('\n'));
        let dup = "xeon+xeon".parse::<FleetSpec>().unwrap_err();
        assert!(dup.contains("twice"), "{dup}");
    }

    #[test]
    fn geometry_override_parses() {
        let spec: FleetSpec = "xeon/8/10*2+turbo".parse().unwrap();
        assert_eq!(spec.n_classes(), 2);
        assert_eq!(spec.class(0).cores(), 8);
        assert_eq!(spec.class(0).llc_ways(), 10);
        assert_eq!(spec.class(0).name(), "xeon/8/10");
        assert_eq!(spec.entries()[0].1, 2);
    }

    #[test]
    fn assignment_is_proportional_and_deterministic() {
        let spec: FleetSpec = "xeon*2+turbo+stepcell".parse().unwrap();
        let a = spec.assign(100, 7);
        let b = spec.assign(100, 7);
        assert_eq!(a, b, "same seed replays");
        let c = spec.assign(100, 8);
        assert_ne!(a, c, "different seed shuffles differently");
        let count = |v: &[usize], k: usize| v.iter().filter(|&&x| x == k).count();
        assert_eq!(count(&a, 0), 50);
        assert_eq!(count(&a, 1), 25);
        assert_eq!(count(&a, 2), 25);
        // Different seeds preserve the apportionment exactly.
        assert_eq!(count(&c, 0), 50);
    }

    #[test]
    fn homogeneous_assignment_is_all_zero() {
        let spec = FleetSpec::homogeneous(ServerClass::xeon_e5_2650());
        assert_eq!(spec.assign(4, 123), vec![0; 4]);
        assert_eq!(spec.assign(4, 999), vec![0; 4]);
    }

    #[test]
    fn small_fleet_apportionment_covers_every_slot() {
        let spec = FleetSpec::preset("mixed3").unwrap();
        for seed in 0..8 {
            let slots = spec.assign(4, seed);
            assert_eq!(slots.len(), 4);
            assert!(slots.iter().all(|&c| c < 3));
            // Equal thirds over 4 slots: one class gets 2, the others 1.
            let mut counts = [0usize; 3];
            for &c in &slots {
                counts[c] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), 4);
            assert!(counts.iter().all(|&n| n >= 1), "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one server slot")]
    fn assign_rejects_zero_slots() {
        let _ = FleetSpec::preset("mixed3").unwrap().assign(0, 1);
    }
}
