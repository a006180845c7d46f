//! The five workloads. Names are fixed; later issues cite them.

pub mod control_path;
pub mod fleet;
pub mod fleet_replan;
pub mod sim_sweep;
pub mod traffic_loop;
pub mod wire_heartbeat;

use std::time::Instant;

use crate::run::{run, Options, Outcome, Workload};

/// Seed of the flash-crowd mix's shape. When and how hard the crowd hits
/// sets how many requests a run synthesizes (±9 % across mix seeds), so
/// the shape is a fixed input; the run seed drives the request streams,
/// the faults and the refits.
pub(crate) const MIX_SEED: u64 = 0xC0FFEE;

/// Milliseconds since `start`.
pub(crate) fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run_named(name: &str, opts: &Options) -> Option<Outcome> {
    Some(match name {
        sim_sweep::SimSweep::NAME => run::<sim_sweep::SimSweep>(opts),
        traffic_loop::TrafficLoop::NAME => run::<traffic_loop::TrafficLoop>(opts),
        fleet_replan::FleetReplan::NAME => run::<fleet_replan::FleetReplan>(opts),
        wire_heartbeat::WireHeartbeat::NAME => run::<wire_heartbeat::WireHeartbeat>(opts),
        control_path::ControlPath::NAME => run::<control_path::ControlPath>(opts),
        _ => return None,
    })
}
