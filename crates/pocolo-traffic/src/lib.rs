//! # pocolo-traffic — sharded million-user request engine
//!
//! The level sweep in `pocolo-sim` asks "what if load were X?" at a
//! handful of fixed points. This crate asks the production question
//! instead: synthesize the requests of a million-user population tick by
//! tick — diurnal baselines, flash crowds, regional skew — push them
//! through the fleet's LC slots, and let the *measured* telemetry refit
//! the utility models that placement decisions hang off.
//!
//! Three layers:
//!
//! - [`mix`] — composable traffic shapes ([`TrafficMix`]): diurnal
//!   baselines reusing `pocolo-workloads`' load traces, trapezoidal
//!   flash crowds, rotating regional skew.
//! - [`shard`] + [`batch`] — the deterministic generator
//!   ([`TrafficGen`]): 64 logical RNG streams seeded purely by
//!   `(seed, stream, tick)` and dealt round-robin to shards.
//!   [`TrafficGen::tick`] folds every request into a [`TickSummary`]
//!   (count, per-slot counts, a combinable sequence digest) while it is
//!   drawn and stores none. The summary is bit-identical at any shard
//!   count and any [`Parallelism`](pocolo_sim::parallel::Parallelism) —
//!   the same contract `pocolo_sim::parallel` gives experiments.
//! - [`engine`] — the closed loop ([`run_traffic`]): per-slot request
//!   counts step `Mm1Queue`s (a closed-form M/M/1 tick with a carried
//!   backlog; nothing is drawn per request), their p99/utilization feeds
//!   each slot's `OnlineFitter`, and drifted refits repair the BE
//!   placement through the incremental `ClusterManager` path.
//!
//! ```
//! use pocolo_sim::parallel::Parallelism;
//! use pocolo_traffic::{MixKind, TrafficGen, TrafficMix};
//!
//! let mix = TrafficMix::plan(MixKind::FlashCrowd, 7, 10.0);
//! let gen = TrafficGen::new(mix, 42, 50_000, 10.0, 1.0, &[3500.0, 10.0]);
//! let one = gen.tick(3, 1, Parallelism::Serial);
//! let eight = gen.tick(3, 8, Parallelism::Auto);
//! assert_eq!(one, eight); // bit-identical at any shard count
//! assert_eq!(one.digest(), gen.tick(3, 5, Parallelism::Fixed(2)).digest());
//! // The summary is the counts and digest of requests it never stored.
//! assert_eq!(one.slot_counts(2).iter().sum::<u64>(), one.len() as u64);
//! ```

pub mod batch;
pub mod engine;
pub mod mix;
pub mod shard;

pub use batch::TickSummary;
pub use engine::{run_traffic, unmodelled_faults, SlotReport, TrafficConfig, TrafficReport};
pub use mix::{FlashCrowd, MixKind, TrafficMix, TrafficSpec, REGIONS};
pub use shard::{TrafficGen, LOGICAL_STREAMS};
