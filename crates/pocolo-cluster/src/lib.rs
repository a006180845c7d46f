//! # pocolo-cluster
//!
//! Cluster-level placement for Pocolo (§IV-B): match each best-effort
//! application to a latency-critical server so that total cluster
//! throughput is maximized across the primaries' whole load range.
//!
//! The pipeline:
//!
//! 1. [`perfmatrix`] builds the BE×LC **performance matrix**: for every
//!    (best-effort app, LC server) pair it walks the primary's least-power
//!    expansion path over the load range, derives the spare resources and
//!    power headroom at each load, and evaluates the BE app's fitted
//!    indirect utility inside that box.
//! 2. [`assign`] solves the assignment: an exact **Hungarian** algorithm, a
//!    from-scratch two-phase **simplex LP** (the paper uses an LP solver),
//!    **exhaustive** permutation search (the Fig. 14 oracle), **random**
//!    placement (the baseline), and the sparse **auction** path
//!    ([`assign::auction`] + [`assign::sparse`]) that scales cold solves
//!    and incremental repairs to 10k-server fleets.
//! 3. [`placement::ClusterManager`] glues the two together;
//!    [`placement::PlacementPlan`] carries the warm state (candidate
//!    lists, dual prices) that lets steady-state replans touch only the
//!    dirtied rows and columns of the matrix ([`matrix::MatrixDelta`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assign;
pub mod error;
pub mod matrix;
pub mod perfmatrix;
pub mod placement;

pub use assign::auction::{AuctionConfig, AuctionSolution, AuctionStats};
pub use assign::sparse::SparseCandidates;
pub use assign::{Assignment, Solver};
pub use error::ClusterError;
pub use matrix::{ColumnEdit, MatrixDelta, PerfMatrix};
pub use perfmatrix::{
    estimate_on_path, estimate_pair_throughput, ExpansionPath, ExpansionStep, PerfMatrixBuilder,
    ServerProfile,
};
pub use placement::{migration_diff, ClusterManager, PlacementPlan};
