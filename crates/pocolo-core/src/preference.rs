//! Resource preference vectors and complementarity scoring.
//!
//! The paper's placement insight (§III): co-locate applications whose
//! *indirect* preference vectors `(αⱼ/pⱼ)` are **complementary** — they
//! derive performance-per-watt from different resources, so neither starves
//! the other under a shared power cap.

use std::fmt;

/// A normalized resource-preference vector: non-negative weights summing
/// to 1, one per direct resource.
///
/// ```
/// use pocolo_core::PreferenceVector;
/// let sphinx = PreferenceVector::from_raw(vec![0.2, 0.8]);
/// let graph  = PreferenceVector::from_raw(vec![0.8, 0.2]);
/// let lstm   = PreferenceVector::from_raw(vec![0.13, 0.87]);
/// // Graph complements sphinx better than LSTM does.
/// assert!(sphinx.complementarity(&graph) > sphinx.complementarity(&lstm));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PreferenceVector {
    weights: Vec<f64>,
}

impl PreferenceVector {
    /// Normalizes raw (non-negative) scores into a preference vector.
    ///
    /// Negative or non-finite entries are treated as zero. If every entry is
    /// zero the result is uniform (total indifference).
    pub fn from_raw(raw: Vec<f64>) -> Self {
        assert!(!raw.is_empty(), "preference vector needs >= 1 dimension");
        let cleaned: Vec<f64> = raw
            .into_iter()
            .map(|v| if v.is_finite() && v > 0.0 { v } else { 0.0 })
            .collect();
        let total: f64 = cleaned.iter().sum();
        let weights = if total > 0.0 {
            cleaned.into_iter().map(|v| v / total).collect()
        } else {
            let n = cleaned.len();
            vec![1.0 / n as f64; n]
        };
        PreferenceVector { weights }
    }

    /// The normalized weights (sum to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Weight of resource `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn weight(&self, j: usize) -> f64 {
        self.weights[j]
    }

    /// Number of resource dimensions.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Always false for constructed vectors.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Complementarity with another preference vector in `[0, 1]`:
    /// the total-variation distance `½ Σ |aⱼ − bⱼ|`.
    ///
    /// `1` means the two applications want entirely different resources
    /// (perfect co-runners under a power cap); `0` means identical
    /// preferences (maximal power contention).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn complementarity(&self, other: &PreferenceVector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "preference vectors must have equal dimensionality"
        );
        0.5 * self
            .weights
            .iter()
            .zip(&other.weights)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }
}

impl fmt::Display for PreferenceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, w) in self.weights.iter().enumerate() {
            if i > 0 {
                write!(f, ":")?;
            }
            write!(f, "{w:.2}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        let pv = PreferenceVector::from_raw(vec![2.0, 6.0]);
        assert!((pv.weight(0) - 0.25).abs() < 1e-12);
        assert!((pv.weight(1) - 0.75).abs() < 1e-12);
        assert!((pv.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_become_uniform() {
        let pv = PreferenceVector::from_raw(vec![0.0, 0.0]);
        assert_eq!(pv.weights(), &[0.5, 0.5]);
        let pv = PreferenceVector::from_raw(vec![f64::NAN, -3.0, 0.0]);
        assert!((pv.weight(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn negative_entries_dropped() {
        let pv = PreferenceVector::from_raw(vec![-1.0, 1.0]);
        assert_eq!(pv.weights(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = ">= 1 dimension")]
    fn empty_raw_panics() {
        let _ = PreferenceVector::from_raw(vec![]);
    }

    #[test]
    fn complementarity_bounds() {
        let a = PreferenceVector::from_raw(vec![1.0, 0.0]);
        let b = PreferenceVector::from_raw(vec![0.0, 1.0]);
        assert!((a.complementarity(&b) - 1.0).abs() < 1e-12);
        assert!((a.complementarity(&a) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn complementarity_is_symmetric() {
        let a = PreferenceVector::from_raw(vec![0.3, 0.7]);
        let b = PreferenceVector::from_raw(vec![0.6, 0.4]);
        assert!((a.complementarity(&b) - b.complementarity(&a)).abs() < 1e-12);
    }

    #[test]
    fn paper_example_sphinx_pairs_with_graph() {
        // §III: sphinx α/p = 0.28:0.72; LSTM 0.13:0.87; Graph 0.8:0.2.
        let sphinx = PreferenceVector::from_raw(vec![0.28, 0.72]);
        let lstm = PreferenceVector::from_raw(vec![0.13, 0.87]);
        let graph = PreferenceVector::from_raw(vec![0.8, 0.2]);
        assert!(sphinx.complementarity(&graph) > sphinx.complementarity(&lstm));
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn mismatched_lengths_panic() {
        let a = PreferenceVector::from_raw(vec![1.0]);
        let b = PreferenceVector::from_raw(vec![0.5, 0.5]);
        let _ = a.complementarity(&b);
    }

    #[test]
    fn display_format() {
        let pv = PreferenceVector::from_raw(vec![0.2, 0.8]);
        assert_eq!(format!("{pv}"), "(0.20:0.80)");
    }
}
