//! The repo's benchmark: five named workloads over the whole control
//! path, measured from outside.
//!
//! Layers are timed by calling their public functions; nothing inside the
//! product is instrumented. Every product symbol the benchmark touches is
//! named in [`api`] and nowhere else, so a refactor that breaks the
//! benchmark breaks exactly one file. `README.md` defines every workload
//! and metric.

#![deny(warnings)]

pub mod api;
pub mod cli;
pub mod gen;
pub mod metrics;
pub mod proc;
pub mod record;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
