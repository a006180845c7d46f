//! # pocolo-faults
//!
//! Seeded, deterministic fault injection for Pocolo clusters.
//!
//! The paper assumes the power infrastructure and telemetry are always
//! healthy, but Pocolo's zero-slack provisioning is exactly the regime
//! where brownouts, capper failures, stale telemetry and model drift hurt
//! most. This crate describes *what goes wrong and when* as pure data — a
//! [`FaultPlan`] of timestamped [`FaultEvent`]s — so the simulator can
//! replay the same misfortune bit-identically at any parallelism.
//!
//! Four fault kinds are supported:
//!
//! - **Brownout** — the cluster-wide provisioned power cap drops to a
//!   fraction of itself for a window (a feeder or UPS de-rating).
//! - **Server crash / recovery** — a server goes dark; its primary
//!   migrates away and the best-effort co-runner is evicted.
//! - **Telemetry dropout** — the management plane sees *frozen* load and
//!   p99 readings for a window (a stuck exporter, not a dead server).
//! - **Model drift** — the fitted Cobb-Douglas α's are perturbed mid-run
//!   (the workload changed under the model).
//!
//! Three named [`Scenario`]s (`brownout`, `crash`, `chaos`) generate
//! plans from a seed, and [`FaultSpec`] parses the CLI's
//! `--faults <scenario>[:seed]` syntax. [`ReadmissionBackoff`] and
//! [`eviction_order`] are the small deterministic building blocks the
//! degraded-mode response layers on top of.
//!
//! ```
//! use pocolo_faults::{FaultSpec, Scenario};
//! let spec: FaultSpec = "brownout:7".parse().unwrap();
//! assert_eq!(spec.scenario, Scenario::Brownout);
//! let plan = spec.scenario.plan(spec.seed.unwrap_or(1), 100.0, 4);
//! assert!(!plan.events().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backoff;
mod plan;
pub mod region;
mod scenario;

pub use backoff::{ReadmissionBackoff, RetryPolicy};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use region::{
    RegionFaultEvent, RegionFaultKind, RegionFaultPlan, RegionFaultSpec, RegionScenario,
};
pub use scenario::{fmt_seeded, parse_seeded, FaultSpec, Scenario};

/// Ascending-value eviction order: indices of `values` sorted so the
/// *lowest*-value entry comes first — the order in which best-effort apps
/// should be sacrificed when the cluster must shed load. Non-finite values
/// sort below every finite value (a BE app whose estimate is broken is the
/// first to go); ties break by index for determinism.
pub fn eviction_order(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| {
        let ka = if values[a].is_finite() {
            values[a]
        } else {
            f64::NEG_INFINITY
        };
        let kb = if values[b].is_finite() {
            values[b]
        } else {
            f64::NEG_INFINITY
        };
        ka.total_cmp(&kb).then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_order_is_ascending() {
        let order = eviction_order(&[3.0, 1.0, 2.0]);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn eviction_order_puts_non_finite_first() {
        let order = eviction_order(&[1.0, f64::NAN, 0.5, f64::INFINITY]);
        assert_eq!(order[0], 1);
        assert_eq!(order[1], 3);
        assert_eq!(&order[2..], &[2, 0]);
    }

    #[test]
    fn eviction_order_ties_break_by_index() {
        assert_eq!(eviction_order(&[1.0, 1.0, 1.0]), vec![0, 1, 2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `eviction_order` is always a permutation sorted ascending by
        /// value (non-finite treated as -inf).
        #[test]
        fn eviction_order_is_sorted_permutation(values in proptest::collection::vec(-1e6f64..1e6, 0..24)) {
            let order = eviction_order(&values);
            let mut seen = order.clone();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..values.len()).collect::<Vec<_>>());
            for w in order.windows(2) {
                prop_assert!(values[w[0]] <= values[w[1]]);
            }
        }

        /// Backoff delays are monotonically non-decreasing and clamped at
        /// the configured maximum; reset returns to the base delay.
        #[test]
        fn backoff_is_monotone_and_clamped(
            base in 0.5f64..10.0,
            factor in 1.0f64..4.0,
            max_mult in 1.0f64..50.0,
            draws in 1usize..20,
        ) {
            let max = base * max_mult;
            let mut b = ReadmissionBackoff::new(base, factor, max);
            let mut last = 0.0f64;
            for _ in 0..draws {
                let d = b.next_delay();
                prop_assert!(d >= last, "delay {d} regressed below {last}");
                prop_assert!(d <= max + 1e-9, "delay {d} exceeds max {max}");
                last = d;
            }
            b.reset();
            prop_assert_eq!(b.peek(), base);
        }
    }
}
