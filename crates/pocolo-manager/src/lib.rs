//! # pocolo-manager
//!
//! Server-level resource management (§IV-C of the Pocolo paper):
//!
//! - [`policy::LcPolicy`] — how the primary's (cores, ways) allocation is
//!   chosen for a target load: the paper's **power-optimized** analytic
//!   Cobb-Douglas demand (POM), or a **Heracles-style** power-oblivious
//!   baseline that picks any feasible point on the indifference curve.
//! - [`server_manager::ServerManager`] — the 1-second control loop that
//!   watches load and p99 slack, re-sizes the primary, hands the remainder
//!   to the best-effort tenant, and fine-tunes with latency feedback.
//! - [`capper::PowerCapper`] — the 100 ms loop that throttles the
//!   *secondary* tenant (per-core DVFS first, then CPU-time quota) to keep
//!   the server inside its provisioned power capacity.
//! - [`control::ServerController`] — the control plane: one controller
//!   turning [`control::ControlInput`] snapshots into
//!   [`control::ControlDecision`]s, analytic or (the Heracles baseline)
//!   incremental sizing, with the brownout/degraded mode arbitration made
//!   explicit in [`modes::ModeMachine`]. Backends (the discrete-event sim,
//!   a future real-host agent) actuate decisions; they no longer make them.
//!
//! Every tuning value of these loops is a documented constant in the
//! module that reads it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod capper;
pub mod control;
pub mod modes;
pub mod partition;
pub mod policy;
pub mod server_manager;
pub mod spatial;

pub use capper::{CapAction, PowerCapper};
pub use control::{
    BeIntent, ControlDecision, ControlInput, DecisionRecord, PrimaryDirective, ServerController,
};
pub use modes::{ControlMode, ModeMachine};
pub use partition::partition;
pub use policy::LcPolicy;
pub use server_manager::ServerManager;
