//! # pocolo-sim
//!
//! Discrete-event simulation of a Pocolo cluster: four latency-critical
//! servers (img-dnn, sphinx, xapian, tpcc), each hosting one best-effort
//! co-runner, driven through the paper's uniform 10–90 % load sweep.
//!
//! The simulation wires together every layer built in the sibling crates:
//!
//! - ground-truth workload models ([`pocolo_workloads`]) stand in for the
//!   real applications;
//! - the simulated server ([`pocolo_simserver`]) enforces isolation and
//!   meters power;
//! - the server manager and power capper ([`pocolo_manager`]) run their
//!   1 s / 100 ms control loops as scheduled events;
//! - the cluster manager ([`pocolo_cluster`]) decides placement.
//!
//! Three end-to-end policies reproduce the paper's §V-D comparison:
//! **Random** (random placement + power-oblivious Heracles-style server
//! control), **POM** (random placement + power-optimized server control),
//! and **POColo** (power-optimized placement *and* server control).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster_sim;
pub mod engine;
pub mod experiment;
pub mod faults;
pub mod fleet;
pub mod metrics;
pub mod parallel;
pub mod rebalance;
pub mod server_sim;

pub use cluster_sim::{run_server_projection, ClusterSim, Projection};
pub use engine::{Engine, EventEntry};
pub use experiment::{
    compile_fault_plan, run_experiment, DecisionTrace, ExperimentConfig, ExperimentResult,
    FittedCluster, PlanInputs, Policy, RunPlan, SlotSpec,
};
pub use faults::{FaultTimeline, ServerFaultAction, ServerFaultEvent};
pub use fleet::{
    compare_fleet_policies, run_fleet_policy, FittedFleet, FleetComparison, FleetRunResult,
    DEMO_FAULT_SEED, DEMO_FLEET_SEED,
};
pub use metrics::{ClusterSummary, ServerMetrics};
pub use parallel::Parallelism;
pub use rebalance::{run_rebalancing, RebalanceConfig, RebalanceResult};
pub use server_sim::ServerSim;
