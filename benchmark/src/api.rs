//! The product surface the benchmark measures — the only file that names
//! product symbols. A refactor that moves or removes one of these entry
//! points must keep a re-export here or arrive with a `benchmark` issue;
//! `README.md` lists the same surface with the workload that calls it.

// pocolo-core: fitted models and the online refit loop.
pub use pocolo::core::fit::{FitOptions, OnlineFitter, ProfileSample};
pub use pocolo::core::fleet::FleetSpec;
pub use pocolo::core::{CobbDouglas, IndirectUtility, PowerModel, Watts};

// pocolo-simserver / pocolo-workloads: ground truth the fits and queues run on.
pub use pocolo::simserver::{MachineSpec, PowerDrawModel, TenantAllocation};
pub use pocolo::workloads::profiler::ProfilerConfig;
pub use pocolo::workloads::reqsim::Mm1Queue;
pub use pocolo::workloads::{BeApp, LcModel, LoadTrace};

// pocolo-cluster: placement, incremental repair and its building blocks.
pub use pocolo::cluster::assign::auction::{
    solve_incremental, solve_with_candidates, AuctionConfig,
};
pub use pocolo::cluster::{
    migration_diff, ClusterManager, MatrixDelta, PerfMatrix, PerfMatrixBuilder, PlacementPlan,
    ServerProfile, Solver, SparseCandidates,
};

// pocolo-faults: named fault scenarios.
pub use pocolo::faults::{FaultSpec, RetryPolicy, Scenario};

// pocolo-sim (with pocolo-manager behind `ServerSim`): the evaluation pipeline.
pub use pocolo::sim::experiment::{
    compile_fault_plan, run_experiment_with, run_policy_sweeps, ExperimentConfig, FittedCluster,
    Policy, SlotSpec,
};
pub use pocolo::sim::{ClusterSummary, Parallelism, ServerFaultAction, ServerSim};

// pocolo-traffic: request synthesis and the in-product closed loop.
pub use pocolo::traffic::{
    run_traffic, MixKind, TrafficConfig, TrafficGen, TrafficMix, TrafficReport, TrafficSpec,
};

// pocolo-net (+ pocolo-json behind it): daemon, client, wire codec.
pub use pocolo::net::frame::{encode_frame, Decoded};
pub use pocolo::net::swarm::{scale_reference, synthetic_metrics};
pub use pocolo::net::wire::{read_frame, write_frame};
pub use pocolo::net::{
    connect_with_retry, ClusterConfig, Clusterd, FrameBuffer, Message, RpcClient, RunSpec,
};
