//! # pocolo-simserver
//!
//! A simulated power-constrained server, standing in for the Xeon E5-2650
//! testbed of the Pocolo paper (IISWC 2020, Table I).
//!
//! The real prototype relied on four hardware facilities; this crate
//! reproduces each as a software substrate with the same interface
//! semantics:
//!
//! | Hardware facility | Simulated equivalent |
//! |---|---|
//! | `taskset` core pinning | [`knobs::CoreSet`] bitmask allocations |
//! | Intel CAT LLC way partitioning | [`knobs::WayMask`] bitmask allocations |
//! | `cpupowerutils` per-core DVFS | [`knobs::TenantAllocation::frequency`] |
//! | cgroup CPU-time throttling | [`knobs::TenantAllocation::cpu_quota`] |
//! | Socket/DRAM power meter | [`power::PowerMeter`] with sampling noise |
//!
//! A [`server::SimServer`] hosts up to two tenants (the primary
//! latency-critical application and one best-effort co-runner, as in the
//! paper) and validates that their core and way allocations never overlap —
//! the isolation property the real system gets from `taskset` + CAT.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod knobs;
pub mod machine;
pub mod power;
pub mod server;
pub mod telemetry;

pub use error::SimError;
pub use knobs::{CoreSet, TenantAllocation, TenantRole, WayMask};
pub use machine::MachineSpec;
pub use power::{PowerDrawModel, PowerMeter};
pub use server::SimServer;
pub use telemetry::{TimeSeries, WindowStats};
