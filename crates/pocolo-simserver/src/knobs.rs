//! Resource-allocation knobs: the simulated equivalents of `taskset`,
//! Intel CAT, per-core DVFS and cgroup CPU quotas.

use std::fmt;

use pocolo_core::units::Frequency;

use crate::error::SimError;
use crate::machine::MachineSpec;

/// Which slot a tenant occupies on a server. The paper's platform hosts
/// exactly one latency-critical primary and at most one best-effort
/// secondary per server (§V-G).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantRole {
    /// The latency-critical application the cluster is provisioned for.
    Primary,
    /// The best-effort co-runner harvesting spare resources.
    Secondary,
}

impl TenantRole {
    /// Static name for error messages.
    pub fn as_str(self) -> &'static str {
        match self {
            TenantRole::Primary => "primary",
            TenantRole::Secondary => "secondary",
        }
    }
}

impl fmt::Display for TenantRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A set of physical cores, as a bitmask (simulated `taskset` cpuset).
///
/// ```
/// use pocolo_simserver::CoreSet;
/// let set = CoreSet::first_n(4);
/// assert_eq!(set.count(), 4);
/// assert!(set.contains(3));
/// assert!(!set.contains(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoreSet(u64);

impl CoreSet {
    /// The empty core set.
    pub const EMPTY: CoreSet = CoreSet(0);

    /// The set `{0, 1, …, n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn first_n(n: u32) -> Self {
        assert!(n <= 64, "core sets support at most 64 cores");
        if n == 64 {
            CoreSet(u64::MAX)
        } else {
            CoreSet((1u64 << n) - 1)
        }
    }

    /// The set `{start, …, start+len-1}`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past core 63.
    pub fn range(start: u32, len: u32) -> Self {
        assert!(start + len <= 64, "core range out of bounds");
        let mut s = CoreSet::EMPTY;
        for c in start..start + len {
            s = s.with(c);
        }
        s
    }

    /// Returns this set with core `c` added.
    ///
    /// # Panics
    ///
    /// Panics if `c >= 64`.
    #[must_use]
    pub fn with(self, c: u32) -> Self {
        assert!(c < 64, "core index out of bounds");
        CoreSet(self.0 | (1u64 << c))
    }

    /// Whether core `c` is in the set.
    pub fn contains(self, c: u32) -> bool {
        c < 64 && self.0 & (1u64 << c) != 0
    }

    /// Number of cores in the set.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no cores are in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if the two sets share any core.
    pub fn intersects(self, other: CoreSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Index of the highest core in the set, if non-empty.
    pub fn highest(self) -> Option<u32> {
        if self.is_empty() {
            None
        } else {
            Some(63 - self.0.leading_zeros())
        }
    }
}

impl fmt::Display for CoreSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cores[{:#x}]", self.0)
    }
}

/// A set of LLC ways, as a bitmask (simulated Intel CAT class-of-service).
///
/// Real CAT masks must be contiguous; we enforce the same restriction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WayMask(u32);

impl WayMask {
    /// The empty way mask.
    pub const EMPTY: WayMask = WayMask(0);

    /// Ways `{0, …, n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn first_n(n: u32) -> Self {
        assert!(n <= 32, "way masks support at most 32 ways");
        if n == 32 {
            WayMask(u32::MAX)
        } else {
            WayMask((1u32 << n) - 1)
        }
    }

    /// Ways `{start, …, start+len-1}` (contiguous, as CAT requires).
    ///
    /// # Panics
    ///
    /// Panics if the range extends past way 31.
    pub fn range(start: u32, len: u32) -> Self {
        assert!(start + len <= 32, "way range out of bounds");
        if len == 0 {
            return WayMask::EMPTY;
        }
        let block = if len == 32 {
            u32::MAX
        } else {
            (1u32 << len) - 1
        };
        WayMask(block << start)
    }

    /// Number of ways in the mask.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no ways are in the mask.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if the mask is a single contiguous run of bits (CAT rule).
    pub fn is_contiguous(self) -> bool {
        if self.0 == 0 {
            return true;
        }
        let shifted = self.0 >> self.0.trailing_zeros();
        (shifted & (shifted + 1)) == 0
    }

    /// True if the two masks share any way.
    pub fn intersects(self, other: WayMask) -> bool {
        self.0 & other.0 != 0
    }

    /// The raw bitmask.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Index of the highest way in the mask, if non-empty.
    pub fn highest(self) -> Option<u32> {
        if self.is_empty() {
            None
        } else {
            Some(31 - self.0.leading_zeros())
        }
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ways[{:#x}]", self.0)
    }
}

/// Everything a tenant is allocated on a server: its cores, LLC ways, the
/// DVFS frequency of its cores, and a CPU-time quota.
///
/// The quota models cgroup `cpu.cfs_quota_us / cpu.cfs_period_us`: `1.0`
/// means the tenant's cores run whenever it has work; `0.5` means they are
/// throttled to half time. The paper's power capper uses frequency first,
/// then quota (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantAllocation {
    /// Cores pinned to this tenant.
    pub cores: CoreSet,
    /// LLC ways reserved for this tenant.
    pub ways: WayMask,
    /// Operating frequency of the tenant's cores.
    pub frequency: Frequency,
    /// Fraction of CPU time the tenant's cores may run, in `(0, 1]`.
    pub cpu_quota: f64,
}

impl TenantAllocation {
    /// A full-speed allocation of the given cores and ways at `frequency`.
    pub fn new(cores: CoreSet, ways: WayMask, frequency: Frequency) -> Self {
        TenantAllocation {
            cores,
            ways,
            frequency,
            cpu_quota: 1.0,
        }
    }

    /// Convenience: the first `cores` cores and first `ways` ways of a
    /// machine at its maximum frequency — the shape the economics layer's
    /// (cores, ways) counts map onto.
    ///
    /// ```
    /// use pocolo_simserver::{MachineSpec, TenantAllocation};
    /// let machine = MachineSpec::xeon_e5_2650();
    /// let alloc = TenantAllocation::from_counts(&machine, 4, 10);
    /// assert_eq!(alloc.cores.count(), 4);
    /// assert_eq!(alloc.ways.count(), 10);
    /// assert_eq!(alloc.frequency, machine.freq_max());
    /// ```
    ///
    /// Counts are clamped into `[1, capacity]`.
    pub fn from_counts(machine: &MachineSpec, cores: u32, ways: u32) -> Self {
        TenantAllocation::new(
            CoreSet::first_n(cores.clamp(1, machine.cores())),
            WayMask::first_n(ways.clamp(1, machine.llc_ways())),
            machine.freq_max(),
        )
    }

    /// Validates the allocation against a machine.
    ///
    /// # Errors
    ///
    /// - [`SimError::InvalidKnob`] for an empty core set/way mask, a
    ///   non-contiguous way mask, or a quota outside `(0, 1]`.
    /// - [`SimError::OutOfRange`] if a core/way index or the frequency falls
    ///   outside the machine's hardware.
    pub fn validate(&self, machine: &MachineSpec) -> Result<(), SimError> {
        if self.cores.is_empty() {
            return Err(SimError::InvalidKnob("core set is empty".into()));
        }
        if self.ways.is_empty() {
            return Err(SimError::InvalidKnob("way mask is empty".into()));
        }
        if !self.ways.is_contiguous() {
            return Err(SimError::InvalidKnob(format!(
                "{} is not contiguous (CAT requires contiguous masks)",
                self.ways
            )));
        }
        if let Some(hi) = self.cores.highest() {
            if hi >= machine.cores() {
                return Err(SimError::OutOfRange(format!(
                    "core {hi} on a {}-core machine",
                    machine.cores()
                )));
            }
        }
        if let Some(hi) = self.ways.highest() {
            if hi >= machine.llc_ways() {
                return Err(SimError::OutOfRange(format!(
                    "way {hi} on a {}-way LLC",
                    machine.llc_ways()
                )));
            }
        }
        if self.frequency < machine.freq_min() - Frequency(1e-9)
            || self.frequency > machine.freq_max() + Frequency(1e-9)
        {
            return Err(SimError::OutOfRange(format!(
                "frequency {} outside [{}, {}]",
                self.frequency,
                machine.freq_min(),
                machine.freq_max()
            )));
        }
        if !(self.cpu_quota > 0.0 && self.cpu_quota <= 1.0) {
            return Err(SimError::InvalidKnob(format!(
                "cpu quota {} outside (0, 1]",
                self.cpu_quota
            )));
        }
        Ok(())
    }

    /// True if this allocation shares no core or way with `other`.
    pub fn is_disjoint_from(&self, other: &TenantAllocation) -> bool {
        !self.cores.intersects(other.cores) && !self.ways.intersects(other.ways)
    }
}

impl fmt::Display for TenantAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}c/{}w @ {} q={:.2}",
            self.cores.count(),
            self.ways.count(),
            self.frequency,
            self.cpu_quota
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_set_basics() {
        let s = CoreSet::first_n(4);
        assert_eq!(s.count(), 4);
        assert!(s.contains(0) && s.contains(3));
        assert!(!s.contains(4));
        assert!(!s.contains(99));
        assert_eq!(s.highest(), Some(3));
        assert!(CoreSet::EMPTY.is_empty());
        assert_eq!(CoreSet::EMPTY.highest(), None);
    }

    #[test]
    fn core_set_range_and_with() {
        let s = CoreSet::range(4, 3);
        assert_eq!(s.count(), 3);
        assert!(s.contains(4) && s.contains(6));
        assert!(!s.contains(3) && !s.contains(7));
        let t = s.with(10);
        assert_eq!(t.count(), 4);
        assert!(t.contains(10));
    }

    #[test]
    fn core_set_intersection() {
        let a = CoreSet::range(0, 4);
        let b = CoreSet::range(4, 4);
        let c = CoreSet::range(2, 4);
        assert!(!a.intersects(b));
        assert!(a.intersects(c));
        assert!(c.intersects(b));
    }

    #[test]
    fn core_set_full_64() {
        let s = CoreSet::first_n(64);
        assert_eq!(s.count(), 64);
        assert_eq!(s.highest(), Some(63));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn core_set_too_big_panics() {
        let _ = CoreSet::first_n(65);
    }

    #[test]
    fn way_mask_basics() {
        let m = WayMask::first_n(5);
        assert_eq!(m.count(), 5);
        assert!(m.is_contiguous());
        assert_eq!(m.highest(), Some(4));
        assert_eq!(WayMask::range(10, 0), WayMask::EMPTY);
        assert_eq!(WayMask::first_n(32).count(), 32);
        assert_eq!(WayMask::range(0, 32).count(), 32);
    }

    #[test]
    fn way_mask_contiguity() {
        assert!(WayMask::range(3, 4).is_contiguous());
        assert!(WayMask::EMPTY.is_contiguous());
        // Hand-construct a non-contiguous mask.
        let gap = WayMask(0b1010);
        assert!(!gap.is_contiguous());
    }

    #[test]
    fn way_mask_intersection() {
        assert!(!WayMask::range(0, 5).intersects(WayMask::range(5, 5)));
        assert!(WayMask::range(0, 6).intersects(WayMask::range(5, 5)));
    }

    #[test]
    fn allocation_validation_against_machine() {
        let m = MachineSpec::xeon_e5_2650();
        let ok = TenantAllocation::new(CoreSet::first_n(4), WayMask::first_n(5), Frequency(2.2));
        assert!(ok.validate(&m).is_ok());

        let empty_cores =
            TenantAllocation::new(CoreSet::EMPTY, WayMask::first_n(5), Frequency(2.2));
        assert!(matches!(
            empty_cores.validate(&m),
            Err(SimError::InvalidKnob(_))
        ));

        let too_many_cores =
            TenantAllocation::new(CoreSet::first_n(13), WayMask::first_n(5), Frequency(2.2));
        assert!(matches!(
            too_many_cores.validate(&m),
            Err(SimError::OutOfRange(_))
        ));

        let too_many_ways =
            TenantAllocation::new(CoreSet::first_n(4), WayMask::first_n(21), Frequency(2.2));
        assert!(matches!(
            too_many_ways.validate(&m),
            Err(SimError::OutOfRange(_))
        ));

        let bad_freq =
            TenantAllocation::new(CoreSet::first_n(4), WayMask::first_n(5), Frequency(3.0));
        assert!(matches!(
            bad_freq.validate(&m),
            Err(SimError::OutOfRange(_))
        ));

        let mut bad_quota =
            TenantAllocation::new(CoreSet::first_n(4), WayMask::first_n(5), Frequency(2.2));
        bad_quota.cpu_quota = 0.0;
        assert!(matches!(
            bad_quota.validate(&m),
            Err(SimError::InvalidKnob(_))
        ));
        bad_quota.cpu_quota = 1.5;
        assert!(bad_quota.validate(&m).is_err());
    }

    #[test]
    fn noncontiguous_ways_rejected() {
        let m = MachineSpec::xeon_e5_2650();
        let alloc = TenantAllocation::new(CoreSet::first_n(2), WayMask(0b101), Frequency(2.2));
        assert!(matches!(alloc.validate(&m), Err(SimError::InvalidKnob(_))));
    }

    #[test]
    fn from_counts_clamps() {
        let m = MachineSpec::xeon_e5_2650();
        let a = TenantAllocation::from_counts(&m, 0, 99);
        assert_eq!(a.cores.count(), 1);
        assert_eq!(a.ways.count(), 20);
        assert!(a.validate(&m).is_ok());
    }

    #[test]
    fn disjointness() {
        let a = TenantAllocation::new(CoreSet::range(0, 4), WayMask::range(0, 8), Frequency(2.2));
        let b = TenantAllocation::new(CoreSet::range(4, 8), WayMask::range(8, 12), Frequency(2.2));
        assert!(a.is_disjoint_from(&b));
        let c = TenantAllocation::new(CoreSet::range(3, 2), WayMask::range(8, 4), Frequency(2.2));
        assert!(!a.is_disjoint_from(&c));
    }

    #[test]
    fn display_formats() {
        let a = TenantAllocation::new(CoreSet::first_n(4), WayMask::first_n(5), Frequency(2.2));
        assert_eq!(format!("{a}"), "4c/5w @ 2.20 GHz q=1.00");
        assert_eq!(format!("{}", TenantRole::Primary), "primary");
        assert!(format!("{}", CoreSet::first_n(2)).contains("0x3"));
        assert!(format!("{}", WayMask::first_n(2)).contains("0x3"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Ranges have the length they claim and only the claimed members.
        #[test]
        fn core_range_identities(start in 0u32..60, len in 0u32..4) {
            prop_assume!(start + len <= 64);
            let s = CoreSet::range(start, len);
            prop_assert_eq!(s.count(), len);
            for c in 0..64 {
                prop_assert_eq!(s.contains(c), c >= start && c < start + len);
            }
            if len > 0 {
                prop_assert_eq!(s.highest(), Some(start + len - 1));
            } else {
                prop_assert_eq!(s.highest(), None);
            }
        }

        /// Way ranges are always contiguous and disjoint ranges never
        /// intersect.
        #[test]
        fn way_range_identities(a in 0u32..16, la in 1u32..8, gap in 0u32..4, lb in 1u32..8) {
            prop_assume!(a + la + gap + lb <= 32);
            let r1 = WayMask::range(a, la);
            let r2 = WayMask::range(a + la + gap, lb);
            prop_assert!(r1.is_contiguous());
            prop_assert!(r2.is_contiguous());
            prop_assert!(!r1.intersects(r2));
            prop_assert!(!r2.intersects(r1));
            // Adjacent-with-zero-gap masks are exactly the range a..a+la+lb.
            if gap == 0 {
                prop_assert_eq!(r1.bits() | r2.bits(), WayMask::range(a, la + lb).bits());
            }
        }
    }
}
