//! # pocolo-federation — geo-federated multi-region control plane
//!
//! A federation tier above N per-region clusterds. Each region runs its
//! own power-capped cluster (pocolo-net `Clusterd` + pocolo-cluster
//! placement); the federation moves whole best-effort applications
//! *between* regions when power prices shift, a region browns out, or
//! demand moves — and splits the federation's contracted power across
//! regions every decision epoch.
//!
//! The tier keeps the repo's decide/actuate split:
//!
//! - [`RegionController`] ([`controller`]) is pure: telemetry snapshot
//!   in, scored migration intents + budget splits out.
//! - [`ReplicaSet`] ([`replicate`]) commits each decision synchronously
//!   to a leader–follower group; a follower promotes itself on lease
//!   expiry and resumes the identical decision stream.
//! - [`net`] serves the replicated log over the pocolo-net reactor wire
//!   protocol (`FedPull` → `FedEntries`) so fresh followers catch up
//!   from a snapshot plus a log suffix.
//! - [`FederationScenario`] ([`harness`]) is the seeded multi-region
//!   world: regional brownouts, leader crashes, exact (Hungarian)
//!   intra-region placement, and bit-identical reports at any
//!   parallelism. [`FederationDemo`] plays it three ways (leader
//!   killed, uninterrupted, region-isolated) and states the demo's
//!   promises as checks.

pub mod controller;
pub mod harness;
pub mod net;
pub mod replicate;

pub use controller::RegionController;
pub use harness::{FederationDemo, FederationReport, FederationScenario};
pub use net::{pull_log, serve_log, FedLogHandler};
pub use replicate::{FedState, Replica, ReplicaSet, Role};
