//! # pocolo-manager
//!
//! Server-level resource management (§IV-C of the Pocolo paper):
//!
//! - [`policy::LcPolicy`] — how the primary's (cores, ways) allocation is
//!   chosen for a target load: the paper's **power-optimized** analytic
//!   Cobb-Douglas demand (POM), or **Heracles-style** power-oblivious
//!   baselines that pick any feasible point on the indifference curve.
//! - [`server_manager::ServerManager`] — the 1-second control loop that
//!   watches load and p99 slack, re-sizes the primary, hands the remainder
//!   to the best-effort tenant, and fine-tunes with latency feedback.
//! - [`capper::PowerCapper`] — the 100 ms loop that throttles the
//!   *secondary* tenant (per-core DVFS first, then CPU-time quota) to keep
//!   the server inside its provisioned power capacity.
//! - [`control::ServerController`] — the control plane: a trait turning
//!   [`control::ControlInput`] snapshots into [`control::ControlDecision`]s,
//!   with the brownout/degraded mode arbitration made explicit in
//!   [`modes::ModeMachine`]. Backends (the discrete-event sim, a future
//!   real-host agent) actuate decisions; they no longer make them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod capper;
pub mod control;
pub mod modes;
pub mod partition;
pub mod policy;
pub mod queue;
pub mod server_manager;
pub mod spatial;

pub use capper::{CapAction, PowerCapper};
pub use control::{
    BeGuard, BeIntent, ControlDecision, ControlInput, DecisionRecord, HeraclesController,
    PocoloController, PrimaryDirective, ResilienceParams, ServerController,
};
pub use modes::{ControlMode, GovernorConfig, ModeMachine};
pub use partition::partition;
pub use policy::LcPolicy;
pub use queue::{BeJob, BeQueue, QueueDiscipline};
pub use server_manager::{ManagerConfig, ServerManager};
