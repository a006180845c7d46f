//! Typed physical units used throughout the Pocolo crates.
//!
//! Newtypes keep watts, joules and gigahertz from being confused with each
//! other or with dimensionless quantities ([C-NEWTYPE]).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Electrical power in watts.
///
/// ```
/// use pocolo_core::units::Watts;
/// let headroom = Watts(132.0) - Watts(64.0);
/// assert_eq!(headroom, Watts(68.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

/// Energy in joules.
///
/// Produced by integrating [`Watts`] over time:
///
/// ```
/// use pocolo_core::units::Watts;
/// let energy = Watts(100.0) * 3.5; // 3.5 seconds at 100 W
/// assert_eq!(energy.0, 350.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

/// CPU core frequency in gigahertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Frequency(pub f64);

impl Watts {
    /// Zero watts.
    pub const ZERO: Watts = Watts(0.0);

    /// Returns the larger of two power values.
    #[must_use]
    pub fn max(self, other: Watts) -> Watts {
        Watts(self.0.max(other.0))
    }

    /// Returns the smaller of two power values.
    #[must_use]
    pub fn min(self, other: Watts) -> Watts {
        Watts(self.0.min(other.0))
    }

    /// Clamps this power into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(self, lo: Watts, hi: Watts) -> Watts {
        assert!(lo.0 <= hi.0, "clamp bounds inverted: {lo} > {hi}");
        Watts(self.0.clamp(lo.0, hi.0))
    }

    /// True if the value is a finite, non-negative number of watts.
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl Joules {
    /// Zero joules.
    pub const ZERO: Joules = Joules(0.0);
}

impl Frequency {
    /// Fraction of a maximum frequency, clamped to `[0, 1]`.
    pub fn fraction_of(self, max: Frequency) -> f64 {
        if max.0 <= 0.0 {
            0.0
        } else {
            (self.0 / max.0).clamp(0.0, 1.0)
        }
    }
}

macro_rules! impl_linear_unit {
    ($ty:ident, $unit:literal) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }
        impl Neg for $ty {
            type Output = $ty;
            fn neg(self) -> $ty {
                $ty(-self.0)
            }
        }
        impl Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }
        impl Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }
        impl Div for $ty {
            type Output = f64;
            fn div(self, rhs: $ty) -> f64 {
                self.0 / rhs.0
            }
        }
        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                $ty(iter.map(|v| v.0).sum())
            }
        }
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{:.2} {}", self.0, $unit)
                }
            }
        }
    };
}

impl_linear_unit!(Watts, "W");
impl_linear_unit!(Joules, "J");
impl_linear_unit!(Frequency, "GHz");

/// `Watts * seconds = Joules`.
impl Mul<f64> for &Watts {
    type Output = Joules;
    fn mul(self, seconds: f64) -> Joules {
        Joules(self.0 * seconds)
    }
}

impl Watts {
    /// Integrates this power over a duration in seconds, yielding energy.
    pub fn over_seconds(self, seconds: f64) -> Joules {
        Joules(self.0 * seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_arithmetic() {
        assert_eq!(Watts(3.0) + Watts(4.0), Watts(7.0));
        assert_eq!(Watts(10.0) - Watts(4.0), Watts(6.0));
        assert_eq!(Watts(10.0) * 0.5, Watts(5.0));
        assert_eq!(Watts(10.0) / 2.0, Watts(5.0));
        assert!((Watts(10.0) / Watts(4.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn watts_sum() {
        let total: Watts = [Watts(1.0), Watts(2.0), Watts(3.0)].into_iter().sum();
        assert_eq!(total, Watts(6.0));
    }

    #[test]
    fn watts_min_max_clamp() {
        assert_eq!(Watts(3.0).max(Watts(5.0)), Watts(5.0));
        assert_eq!(Watts(3.0).min(Watts(5.0)), Watts(3.0));
        assert_eq!(Watts(7.0).clamp(Watts(0.0), Watts(5.0)), Watts(5.0));
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn watts_clamp_inverted_panics() {
        let _ = Watts(1.0).clamp(Watts(5.0), Watts(0.0));
    }

    #[test]
    fn watts_validity() {
        assert!(Watts(0.0).is_valid());
        assert!(Watts(132.0).is_valid());
        assert!(!Watts(-1.0).is_valid());
        assert!(!Watts(f64::NAN).is_valid());
        assert!(!Watts(f64::INFINITY).is_valid());
    }

    #[test]
    fn energy_integration() {
        let e = Watts(100.0).over_seconds(36.0);
        assert_eq!(e, Joules(3600.0));
    }

    #[test]
    fn frequency_fraction() {
        assert!((Frequency(1.2).fraction_of(Frequency(2.4)) - 0.5).abs() < 1e-12);
        assert_eq!(Frequency(3.0).fraction_of(Frequency(2.2)), 1.0);
        assert_eq!(Frequency(1.0).fraction_of(Frequency(0.0)), 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Watts(132.456)), "132.46 W");
        assert_eq!(format!("{:.0}", Watts(132.456)), "132 W");
        assert_eq!(format!("{}", Frequency(2.2)), "2.20 GHz");
        assert_eq!(format!("{}", Joules(1.0)), "1.00 J");
    }

    #[test]
    fn negation() {
        assert_eq!(-Watts(5.0), Watts(-5.0));
    }

    #[test]
    fn assign_ops() {
        let mut w = Watts(1.0);
        w += Watts(2.0);
        w -= Watts(0.5);
        assert_eq!(w, Watts(2.5));
    }
}
