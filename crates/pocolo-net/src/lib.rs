//! # pocolo-net — the distributed runtime
//!
//! Runs the control plane across real process boundaries: a per-server
//! POM **agent** ([`run_agent`]) and the cluster-level POColo **daemon**
//! ([`Clusterd`]) speak a length-prefixed, versioned JSON wire protocol
//! ([`wire`]) over TCP: agents use blocking `std::net` sockets, the
//! daemon serves them all from one readiness-polling event loop
//! ([`reactor`]).
//!
//! The division of labour mirrors the paper: the cluster daemon solves
//! the placement once and owns the slot registry, heartbeat leases, and
//! the cluster-wide budget directive; each agent wraps the same
//! `ServerController` + `ServerManager` backend the in-process engine
//! drives (via [`pocolo_sim::SlotSpec`]) and advances it through the
//! same per-server event loop, behind the same slot runner
//! ([`pocolo_sim::RunPlan::run_slot`], one [`pocolo_sim::Projection`]
//! advanced to the end). Because both sides fit
//! identical models from the same deterministic profiler defaults and
//! replay identical seeded fault timelines, a wire-driven run reproduces
//! the in-process engine's placement decisions and epoch-level metrics
//! bit-for-bit — the loopback harness ([`run_demo`]) asserts exactly
//! that, and falls back to the degraded (blind incremental) controller
//! when an agent dies and its lease expires.
//!
//! Robustness is first-class: connect/read/write deadlines on every
//! socket, bounded exponential retry with seeded jitter
//! ([`pocolo_faults::RetryPolicy`]), a frame-size cap enforced before
//! allocation, typed errors for every malformed byte ([`NetError`]), and
//! idempotent re-registration so a restarted agent reclaims its slot.

#![warn(missing_docs)]

mod agent;
mod client;
mod cluster;
mod demo;
mod error;
pub mod frame;
pub mod reactor;
pub mod swarm;
pub mod timer;
pub mod wire;

pub use agent::{default_fit, run_agent, AgentConfig, AgentReport};
pub use client::{connect_with_retry, RpcClient};
pub use cluster::{ClusterConfig, Clusterd, SlotState};
pub use demo::{
    run_demo, run_demo_scale, DemoConfig, DemoReport, ScaleConfig, ScaleReport, SCALE_DEADLINE,
};
pub use error::NetError;
pub use frame::FrameBuffer;
pub use reactor::{ConnId, DisconnectReason, EventHandler, ReactorServer, Reply};
pub use swarm::{run_swarm, scale_reference, AgentOutcome, SwarmConfig, SwarmReport};
pub use timer::Timers;
pub use wire::{Message, RunSpec, MAX_FRAME_BYTES, PROTOCOL_VERSION};
