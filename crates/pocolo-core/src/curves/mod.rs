//! Geometric analyses from consumer theory: indifference curves (Fig. 5).

mod indifference;

pub use indifference::indifference_curve;
