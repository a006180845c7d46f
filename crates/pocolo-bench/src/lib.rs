//! # pocolo-bench
//!
//! The generators that regenerate **every table and figure** of the
//! Pocolo paper's evaluation (§V), plus the ablations. Each generator is a
//! library function returning structured data (so integration tests can
//! assert on shapes) and printing the same rows/series the paper reports.
//!
//! The crate ships no binary. The `pocolo` CLI prints everything, in paper
//! order, through [`figures::run_all`]:
//!
//! ```text
//! cargo run --release -p pocolo-cli -- figures
//! ```
//!
//! That run is one line of the repository's `GOLDENS.txt`, so a change that
//! moves any printed number fails `cargo test`. See `EXPERIMENTS.md` at the
//! repository root for the paper-vs-measured record produced from these
//! generators. Speed is measured elsewhere: the standalone `benchmark/`
//! package (`BENCHMARK.json`).

#![warn(missing_docs)]

pub mod common;
pub mod figures;
