//! The op streams of `fleet-replan`: seeded single-column repairs, and
//! the fleet-wide budget cycle.

use rand::prelude::*;

/// One op of the stream. Picks are raw draws; the workload reduces them
/// modulo whatever population is live when the op runs.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairOp {
    /// An assigned server fails; its tenant is re-bid.
    Fault {
        /// Selects the victim among the assigned columns.
        pick: u64,
    },
    /// The longest-failed server returns (a fault when none is out).
    Restore,
    /// A server's model was refitted; its column is re-estimated.
    Refit {
        /// Selects the column among the enabled ones.
        pick: u64,
        /// Seeds the refit's parameter perturbation.
        model_seed: u64,
    },
    /// The fleet-wide budget moves to this cap factor.
    Brownout {
        /// New cap factor in `(0, 1]`.
        cap_factor: f64,
    },
}

/// The budget cycle: the fleet-wide cap factor steps down twice and back.
pub const BROWNOUT_STEPS: [f64; 3] = [0.8, 0.6, 1.0];

/// `repairs` single-column ops — 40 % faults, 30 % restores, 30 % refits,
/// exactly, in seeded order, so no seed runs a costlier mix than another.
pub fn repair_stream(seed: u64, repairs: usize) -> Vec<RepairOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (faults, restores) = (repairs * 4 / 10, repairs * 3 / 10);
    let mut ops: Vec<RepairOp> = (0..repairs)
        .map(|i| {
            if i < faults {
                RepairOp::Fault {
                    pick: rng.next_u64(),
                }
            } else if i < faults + restores {
                RepairOp::Restore
            } else {
                RepairOp::Refit {
                    pick: rng.next_u64(),
                    model_seed: rng.next_u64(),
                }
            }
        })
        .collect();
    ops.shuffle(&mut rng);
    ops
}

/// The budget cycle as a stream of its own.
pub fn brownout_cycle() -> Vec<RepairOp> {
    BROWNOUT_STEPS
        .iter()
        .map(|&cap_factor| RepairOp::Brownout { cap_factor })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_with_an_exact_mix() {
        let a = repair_stream(3, 200);
        assert_eq!(a, repair_stream(3, 200));
        assert_ne!(a, repair_stream(4, 200));
        let faults = a
            .iter()
            .filter(|op| matches!(op, RepairOp::Fault { .. }))
            .count();
        let restores = a.iter().filter(|op| **op == RepairOp::Restore).count();
        assert_eq!((a.len(), faults, restores), (200, 80, 60));
        assert_eq!(brownout_cycle().len(), BROWNOUT_STEPS.len());
    }
}
