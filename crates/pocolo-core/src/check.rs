//! Verdict rows: each promise a verification report makes, stated once as
//! a [`Check`] beside the report that owns it. A report lists them in a
//! `checks()` method; whoever gates on them (the CLI's exit rule, a test)
//! asks [`failures`] which broke, and the failure line needs no
//! hand-written message.

use std::fmt;

/// The comparison a [`Check`]'s measured value must pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// `measured ≤ bound`.
    AtMost(f64),
    /// `measured < bound`.
    Below(f64),
    /// `measured > bound`.
    Above(f64),
    /// `measured == value`.
    Exactly(f64),
    /// Two whole results are equal: `measured` is 1 when they are and 0
    /// when they are not.
    Holds,
}

/// One promise of a report: what was measured, its value, and what the
/// value must be.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was measured, as it reads in a failure line.
    pub name: &'static str,
    /// The measured value.
    pub measured: f64,
    /// The comparison it must pass.
    pub expect: Expect,
}

impl Check {
    /// `measured` must pass `expect`.
    pub fn new(name: &'static str, measured: f64, expect: Expect) -> Check {
        Check {
            name,
            measured,
            expect,
        }
    }

    /// The equality `name` of two whole results must hold; `equal` says
    /// whether it does.
    pub fn holds(name: &'static str, equal: bool) -> Check {
        Check::new(name, f64::from(u8::from(equal)), Expect::Holds)
    }

    /// Whether the measured value passes. A NaN passes nothing.
    pub fn passed(&self) -> bool {
        let m = self.measured;
        match self.expect {
            Expect::AtMost(bound) => m <= bound,
            Expect::Below(bound) => m < bound,
            Expect::Above(bound) => m > bound,
            Expect::Exactly(value) => m == value,
            Expect::Holds => m == 1.0,
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, m) = (self.name, self.measured);
        match self.expect {
            Expect::AtMost(bound) => write!(f, "{name} = {m}, expected at most {bound}"),
            Expect::Below(bound) => write!(f, "{name} = {m}, expected below {bound}"),
            Expect::Above(bound) => write!(f, "{name} = {m}, expected above {bound}"),
            Expect::Exactly(value) => write!(f, "{name} = {m}, expected exactly {value}"),
            Expect::Holds if self.passed() => write!(f, "{name}: holds"),
            Expect::Holds => write!(f, "{name}: does not hold"),
        }
    }
}

/// The line of each check that failed, in order; empty when all passed.
pub fn failures(checks: &[Check]) -> Vec<String> {
    checks
        .iter()
        .filter(|c| !c.passed())
        .map(Check::to_string)
        .collect()
}
