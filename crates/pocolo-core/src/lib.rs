//! # pocolo-core
//!
//! Economics-based framework for reasoning about resource demand in
//! power-constrained servers, reproducing the analytical core of
//! *"Pocolo: Power Optimized Colocation in Power Constrained Environments"*
//! (IISWC 2020).
//!
//! The central abstraction is the **Cobb-Douglas indirect utility function**:
//! application performance is modelled as
//!
//! ```text
//! Performance = α₀ · ∏ⱼ rⱼ^αⱼ    subject to    P_static + Σⱼ rⱼ·pⱼ ≤ Power
//! ```
//!
//! where `rⱼ` are allocations of *direct* resources (cores, LLC ways, …) and
//! power is the *indirect* resource consumed as a consequence of consuming
//! the direct ones. From this model the crate derives:
//!
//! - the analytic **demand function** — the power-optimal allocation for any
//!   budget in `O(k)` ([`IndirectUtility::demand`]);
//! - the **preference vector** `(αⱼ/pⱼ)` ranking resources by
//!   performance-per-watt ([`IndirectUtility::preference_vector`]);
//! - **indifference curves** and least-power **expansion paths**
//!   ([`curves::indifference`]);
//! - the **Edgeworth box** analysis of spare capacity for a co-runner
//!   ([`curves::edgeworth`]);
//! - **model fitting** from profiled samples via log-space least squares
//!   ([`fit`]).
//!
//! It also holds the workspace's determinism witnesses ([`digest`]): the
//! product's one FNV-1a and the combinable sequence digest the traffic
//! generator folds while it generates. Every verification report states
//! its promises as [`check::Check`] rows.
//!
//! # Example
//!
//! ```
//! use pocolo_core::resources::{ResourceSpace, ResourceDescriptor};
//! use pocolo_core::utility::{CobbDouglas, PowerModel, IndirectUtility};
//! use pocolo_core::units::Watts;
//!
//! # fn main() -> Result<(), pocolo_core::CoreError> {
//! // A server with 12 cores and 20 LLC ways.
//! let space = ResourceSpace::builder()
//!     .resource(ResourceDescriptor::integral("cores", 1.0, 12.0))
//!     .resource(ResourceDescriptor::integral("llc_ways", 1.0, 20.0))
//!     .build()?;
//!
//! // Performance ~ 100 · c^0.6 · w^0.4 ; power = 50 + 6c + 1.5w.
//! let perf = CobbDouglas::new(100.0, vec![0.6, 0.4])?;
//! let power = PowerModel::new(Watts(50.0), vec![6.0, 1.5])?;
//! let utility = IndirectUtility::new(space, perf, power)?;
//!
//! // Power-optimal allocation under a 110 W budget.
//! let demand = utility.demand(Watts(110.0))?;
//! assert!(utility.power_model().power_of(&demand).0 <= 110.0 + 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod curves;
pub mod digest;
pub mod error;
pub mod federation;
pub mod fit;
pub mod fleet;
mod json;
pub mod preference;
pub mod resources;
pub mod units;
pub mod utility;

pub use error::CoreError;
pub use fleet::{FleetSpec, PowerCurve, ServerClass};
pub use preference::PreferenceVector;
pub use resources::{Allocation, ResourceDescriptor, ResourceSpace};
pub use units::{Frequency, Joules, Watts};
pub use utility::{CobbDouglas, IndirectUtility, PowerModel};
