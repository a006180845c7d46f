//! # Pocolo — Power Optimized Colocation
//!
//! Facade crate re-exporting the full Pocolo stack, a reproduction of
//! *"Pocolo: Power Optimized Colocation in Power Constrained Environments"*
//! (IISWC 2020).
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | Economics framework | [`core`] | Cobb-Douglas indirect utility, demand solver, preference vectors, model fitting, indifference curves, per-SKU server-class catalog with pluggable power curves |
//! | Server substrate | [`simserver`] | Simulated Xeon E5-2650: core/way/DVFS/quota knobs, power model, noisy meter, telemetry |
//! | Workload models | [`workloads`] | Ground-truth LC apps (img-dnn, sphinx, xapian, tpcc) and BE apps (lstm, rnn, graph, pbzip), load traces, profiler |
//! | Server management | [`manager`] | Control plane (one `ServerController`: POM analytic or Heracles-style incremental sizing, `ControlMode` state machine), 100 ms power capper |
//! | Cluster placement | [`cluster`] | Performance matrix priced along each primary's least-power expansion path (class-keyed cache), Hungarian / simplex-LP / exhaustive / random / auction solvers |
//! | Fault injection | [`faults`] | Seeded fault plans (brownouts, crashes, telemetry dropouts, model drift), eviction ordering, re-admission backoff |
//! | Simulation | [`sim`] | Discrete-event cluster simulation, policy experiments, degraded-mode resilience, heterogeneous-fleet SKU-aware vs SKU-blind comparison |
//! | Traffic engine | [`traffic`] | Sharded million-user request synthesis (bit-identical at any shard count), composable mixes, online utility refit loop |
//! | Distributed runtime | [`net`] | Length-prefixed JSON wire protocol over TCP, POM agent + POColo cluster daemons, heartbeat leases, loopback parity harness |
//! | Geo-federation | [`federation`] | Multi-region control plane: pure region controller, leader–follower replicated decision log, brownout failover harness |
//! | Cost analysis | [`tco`] | Hamilton-style amortized monthly TCO |
//!
//! # Quickstart
//!
//! ```
//! use pocolo::prelude::*;
//!
//! // Profile and fit every application, then ask the cluster manager for
//! // the power-optimized placement.
//! let fitted = FittedCluster::fit(&ProfilerConfig::default());
//! let placement = fitted.placement(Policy::Pocolo { solver: Solver::Hungarian });
//! assert_eq!(placement.len(), 4);
//! ```

#![warn(missing_docs)]

pub use pocolo_cluster as cluster;
pub use pocolo_core as core;
pub use pocolo_faults as faults;
pub use pocolo_federation as federation;
pub use pocolo_manager as manager;
pub use pocolo_net as net;
pub use pocolo_sim as sim;
pub use pocolo_simserver as simserver;
pub use pocolo_tco as tco;
pub use pocolo_traffic as traffic;
pub use pocolo_workloads as workloads;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use pocolo_cluster::{
        Assignment, ClusterManager, PerfMatrix, PerfMatrixBuilder, ServerProfile, Solver,
    };
    pub use pocolo_core::fit::{check_convexity, ConvexityReport, OnlineFitter};
    pub use pocolo_core::fleet::{FleetSpec, PowerCurve, ServerClass};
    pub use pocolo_core::{
        Allocation, CobbDouglas, CoreError, Frequency, IndirectUtility, Joules, PowerModel,
        PreferenceVector, ResourceDescriptor, ResourceSpace, Watts,
    };
    pub use pocolo_faults::{
        eviction_order, FaultEvent, FaultKind, FaultPlan, FaultSpec, ReadmissionBackoff,
        RegionFaultKind, RegionFaultPlan, RegionFaultSpec, RegionScenario,
        Scenario as FaultScenario,
    };
    pub use pocolo_federation::{
        FederationDemo, FederationReport, FederationScenario, RegionController,
    };
    pub use pocolo_manager::{
        BeIntent, CapAction, ControlDecision, ControlInput, ControlMode, DecisionRecord, LcPolicy,
        ModeMachine, PowerCapper, PrimaryDirective, ServerController, ServerManager,
    };
    pub use pocolo_sim::experiment::{
        run_experiment, run_experiment_with, run_level_sweep, run_policy_sweeps, DecisionTrace,
        ExperimentConfig, ExperimentResult, FittedCluster, Policy, RunPlan,
    };
    pub use pocolo_sim::fleet::{
        compare_fleet_policies, run_fleet_policy, FittedFleet, FleetComparison, FleetRunResult,
        DEMO_FAULT_SEED, DEMO_FLEET_SEED,
    };
    pub use pocolo_sim::rebalance::{run_rebalancing, RebalanceConfig, RebalanceResult};
    pub use pocolo_sim::{
        ClusterSummary, FaultTimeline, Parallelism, ServerFaultAction, ServerMetrics, ServerSim,
    };
    pub use pocolo_simserver::{
        CoreSet, MachineSpec, SimServer, TenantAllocation, TenantRole, WayMask,
    };
    pub use pocolo_tco::{MonthlyCost, Scenario, TcoModel};
    pub use pocolo_traffic::{
        run_traffic, MixKind, TickSummary, TrafficConfig, TrafficGen, TrafficMix, TrafficReport,
        TrafficSpec,
    };
    pub use pocolo_workloads::profiler::{profile_be, profile_lc, ProfilerConfig};
    pub use pocolo_workloads::{AppId, BeApp, BeModel, LcApp, LcModel, LoadTrace};
}
