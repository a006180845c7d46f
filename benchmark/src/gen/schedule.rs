//! Schedules: which fault scenario each sweep repetition runs under, and
//! what happens on which tick of `control-path`.

use rand::prelude::*;

use super::sub_seed;

/// Fault scenario of one sweep repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFaults {
    /// A clean run.
    None,
    /// A mid-run brownout window.
    Brownout,
    /// One server crashes and recovers.
    Crash,
    /// Brownout, crash, telemetry dropout and model drift together.
    Chaos,
}

/// One `run_policy_sweeps` call: its seed and fault scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCase {
    /// Experiment seed of this repetition.
    pub seed: u64,
    /// Scenario, rotating none → brownout → crash → chaos.
    pub faults: SweepFaults,
}

/// `reps` sweep repetitions with per-repetition seeds.
pub fn sweep_cases(seed: u64, reps: usize) -> Vec<SweepCase> {
    const ROTATION: [SweepFaults; 4] = [
        SweepFaults::None,
        SweepFaults::Brownout,
        SweepFaults::Crash,
        SweepFaults::Chaos,
    ];
    (0..reps)
        .map(|i| SweepCase {
            seed: sub_seed(seed, 0x5EE9 + i as u64),
            faults: ROTATION[i % ROTATION.len()],
        })
        .collect()
}

/// The placement repair a tick's window is reserved for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// An assigned server fails.
    Fault,
    /// The longest-failed server returns.
    Restore,
    /// The most-drifted refitted model since the last window is adopted.
    Refit,
}

/// What the control plane is asked to do on one tick beyond its steady
/// work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickPlan {
    /// The repair this tick's window carries, on window ticks.
    pub repair: Option<Repair>,
    /// Selects the faulted column among the assigned ones.
    pub pick: u64,
    /// Budget directive in force during the tick.
    pub cap_factor: f64,
}

/// A placement-repair window opens every `REPAIR_EVERY`-th tick, so two
/// ticks in three are steady and the median tick is a steady one.
const REPAIR_EVERY: usize = 3;

/// The tick schedule of one `control-path` round: a repair window every
/// third tick (fault, refit, restore, refit, …) and one seeded brownout
/// window covering a fifth of the round.
pub fn tick_schedule(seed: u64, ticks: usize) -> Vec<TickPlan> {
    const WINDOWS: [Repair; 4] = [Repair::Fault, Repair::Refit, Repair::Restore, Repair::Refit];
    let mut rng = StdRng::seed_from_u64(seed);
    let brownout = (ticks / 5).max(1);
    let start = rng.gen_range(1..(ticks - brownout).max(2));
    (0..ticks)
        .map(|t| TickPlan {
            repair: (t % REPAIR_EVERY == 0).then(|| WINDOWS[(t / REPAIR_EVERY) % WINDOWS.len()]),
            pick: rng.next_u64(),
            cap_factor: if (start..start + brownout).contains(&t) {
                0.8
            } else {
                1.0
            },
        })
        .collect()
}

/// The distinct plan columns the `n_slots` live servers occupy.
pub fn slot_columns(seed: u64, n_servers: usize, n_slots: usize) -> Vec<usize> {
    let mut cols: Vec<usize> = (0..n_servers).collect();
    cols.shuffle(&mut StdRng::seed_from_u64(seed));
    cols.truncate(n_slots);
    cols
}

/// A heartbeat's payload: `(power_w, slack, be_throughput)`, seeded per
/// `(agent, epoch)` so frames differ in their digits, as real ones do.
pub fn telemetry_payload(seed: u64, agent: usize, epoch: u64) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed ^ epoch, agent as u64));
    (
        rng.gen_range(60.0..95.0),
        rng.gen_range(-0.25..0.75),
        rng.gen_range(0.0..1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_cases_rotate_scenarios_with_distinct_seeds() {
        let cases = sweep_cases(1, 8);
        assert_eq!(cases[0].faults, SweepFaults::None);
        assert_eq!(cases[5].faults, SweepFaults::Brownout);
        assert_ne!(cases[0].seed, cases[4].seed);
        assert_ne!(cases, sweep_cases(2, 8));
    }

    #[test]
    fn tick_schedule_has_one_brownout_window_and_a_repair_every_third_tick() {
        let plan = tick_schedule(9, 30);
        assert_eq!(plan, tick_schedule(9, 30));
        assert_eq!(plan.iter().filter(|t| t.cap_factor < 1.0).count(), 6);
        let repairs: Vec<Repair> = plan.iter().filter_map(|t| t.repair).collect();
        assert_eq!(repairs.len(), 10);
        assert_eq!(
            repairs[..4],
            [Repair::Fault, Repair::Refit, Repair::Restore, Repair::Refit]
        );
        assert_eq!(plan[0].cap_factor, 1.0);
    }
}
