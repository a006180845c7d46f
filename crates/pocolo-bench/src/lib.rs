//! # pocolo-bench
//!
//! The generators that regenerate **every table and figure** of the
//! Pocolo paper's evaluation (§V), plus the ablations. Each generator is a
//! library function returning structured data (so integration tests can
//! assert on shapes) and printing the same rows/series the paper reports.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p pocolo-bench --bin run_all_figures   # every table and figure
//! cargo run --release -p pocolo-bench --bin fig12_policy_throughput   # one figure
//! ```
//!
//! See `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record produced from these generators. Speed is measured elsewhere: the
//! standalone `benchmark/` package (`BENCHMARK.json`).

#![warn(missing_docs)]

pub mod common;
pub mod figures;
