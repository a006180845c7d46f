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
//!   1 s / 100 ms control loops ([`MANAGER_PERIOD_S`],
//!   [`CAPPER_PERIOD_S`]), merged with each server's fault actions into
//!   one µs-ordered schedule per server ([`Projection`]);
//! - the cluster manager ([`pocolo_cluster`]) decides placement.
//!
//! Three end-to-end policies reproduce the paper's §V-D comparison:
//! **Random** (random placement + power-oblivious Heracles-style server
//! control), **POM** (random placement + power-optimized server control),
//! and **POColo** (power-optimized placement *and* server control).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster_sim;
pub mod experiment;
pub mod faults;
pub mod fleet;
pub mod metrics;
pub mod parallel;
pub mod rebalance;
pub mod server_sim;

pub use cluster_sim::{run_closed_loop, Projection, CAPPER_PERIOD_S, MANAGER_PERIOD_S};
pub use experiment::{
    compile_fault_plan, run_experiment, DecisionTrace, ExperimentConfig, ExperimentResult,
    FittedCluster, PlanInputs, Policy, RunPlan, SlotSpec, METER_NOISE,
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
