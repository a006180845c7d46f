//! Utility functions: Cobb-Douglas performance models, linear power models,
//! and the indirect utility that combines them under a power budget.

mod cobb_douglas;
mod indirect;
mod power;

pub use cobb_douglas::CobbDouglas;
pub use indirect::{min_power_solves_on_thread, IndirectUtility};
pub use power::PowerModel;
