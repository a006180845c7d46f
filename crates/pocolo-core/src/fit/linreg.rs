//! Ordinary least squares on small dense systems.
//!
//! The paper fits two regressions per application (a log-linear performance
//! model and a linear power model) over at most a handful of predictors, so
//! a normal-equations solver with Gaussian elimination is exact and fast.

use crate::error::CoreError;

/// Result of an ordinary-least-squares fit `y ≈ β₀ + Σⱼ βⱼ·xⱼ`.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFit {
    /// Intercept `β₀`.
    pub intercept: f64,
    /// Slope coefficients `βⱼ`, one per predictor.
    pub coefficients: Vec<f64>,
    /// Coefficient of determination on the training data, in `(-∞, 1]`.
    pub r_squared: f64,
    /// Number of samples used.
    pub n_samples: usize,
}

/// Fits `y ≈ β₀ + Σ βⱼ xⱼ` by ordinary least squares.
///
/// # Errors
///
/// - [`CoreError::InsufficientSamples`] if there are fewer rows than
///   `p + 1` unknowns.
/// - [`CoreError::DimensionMismatch`] if rows have inconsistent widths or
///   `xs.len() != ys.len()`.
/// - [`CoreError::SingularSystem`] if the normal equations are singular
///   (e.g. a predictor never varies).
/// - [`CoreError::InvalidParameter`] if any value is non-finite.
#[allow(clippy::needless_range_loop)] // index-heavy numeric kernel
pub fn ols(xs: &[Vec<f64>], ys: &[f64]) -> Result<OlsFit, CoreError> {
    if xs.len() != ys.len() {
        return Err(CoreError::DimensionMismatch {
            expected: xs.len(),
            actual: ys.len(),
        });
    }
    let n = xs.len();
    let p = xs.first().map_or(0, Vec::len);
    if n < p + 1 {
        return Err(CoreError::InsufficientSamples {
            needed: p + 1,
            available: n,
        });
    }
    for row in xs {
        if row.len() != p {
            return Err(CoreError::DimensionMismatch {
                expected: p,
                actual: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(CoreError::InvalidParameter(
                "non-finite predictor value".into(),
            ));
        }
    }
    if ys.iter().any(|v| !v.is_finite()) {
        return Err(CoreError::InvalidParameter(
            "non-finite response value".into(),
        ));
    }

    // Build the normal equations (XᵀX) β = Xᵀy with an intercept column.
    let dim = p + 1;
    let mut xtx = vec![vec![0.0; dim]; dim];
    let mut xty = vec![0.0; dim];
    for (row, &y) in xs.iter().zip(ys) {
        // Augmented row: [1, x₁, …, x_p].
        let aug = |i: usize| if i == 0 { 1.0 } else { row[i - 1] };
        for i in 0..dim {
            xty[i] += aug(i) * y;
            for j in 0..dim {
                xtx[i][j] += aug(i) * aug(j);
            }
        }
    }

    let beta = solve_linear_system(&mut xtx, &mut xty)?;

    // R² on the training set.
    let mean_y = ys.iter().sum::<f64>() / n as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (row, &y) in xs.iter().zip(ys) {
        let pred = beta[0]
            + row
                .iter()
                .zip(&beta[1..])
                .map(|(&x, &b)| x * b)
                .sum::<f64>();
        ss_res += (y - pred).powi(2);
        ss_tot += (y - mean_y).powi(2);
    }
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else if ss_res < 1e-12 {
        1.0
    } else {
        0.0
    };

    Ok(OlsFit {
        intercept: beta[0],
        coefficients: beta[1..].to_vec(),
        r_squared,
        n_samples: n,
    })
}

/// Solves `A·x = b` in place by Gaussian elimination with partial pivoting.
///
/// # Errors
///
/// Returns [`CoreError::SingularSystem`] when the pivot falls below
/// a small tolerance relative to the matrix scale.
#[allow(clippy::needless_range_loop)] // index-heavy numeric kernel
pub fn solve_linear_system(a: &mut [Vec<f64>], b: &mut [f64]) -> Result<Vec<f64>, CoreError> {
    let n = b.len();
    assert_eq!(a.len(), n, "matrix and vector size mismatch");
    let scale = a
        .iter()
        .flat_map(|row| row.iter())
        .map(|v| v.abs())
        .fold(0.0, f64::max)
        .max(1.0);
    let tol = 1e-12 * scale;

    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite entries")
            })
            .expect("non-empty range");
        if a[pivot_row][col].abs() < tol {
            return Err(CoreError::SingularSystem);
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);

        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit_on_noiseless_data() {
        // y = 2 + 3x₁ - 0.5x₂
        let xs: Vec<Vec<f64>> = vec![
            vec![1.0, 1.0],
            vec![2.0, 1.0],
            vec![1.0, 3.0],
            vec![4.0, 2.0],
            vec![3.0, 5.0],
        ];
        let ys: Vec<f64> = xs.iter().map(|r| 2.0 + 3.0 * r[0] - 0.5 * r[1]).collect();
        let fit = ols(&xs, &ys).unwrap();
        assert!((fit.intercept - 2.0).abs() < 1e-9);
        assert!((fit.coefficients[0] - 3.0).abs() < 1e-9);
        assert!((fit.coefficients[1] + 0.5).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert_eq!(fit.n_samples, 5);
    }

    #[test]
    fn r_squared_degrades_with_noise() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let clean: Vec<f64> = xs.iter().map(|r| 1.0 + 2.0 * r[0]).collect();
        // Deterministic "noise".
        let noisy: Vec<f64> = clean
            .iter()
            .enumerate()
            .map(|(i, &y)| y + if i % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let clean_fit = ols(&xs, &clean).unwrap();
        let noisy_fit = ols(&xs, &noisy).unwrap();
        assert!(clean_fit.r_squared > noisy_fit.r_squared);
        assert!(noisy_fit.r_squared > 0.9); // slope still dominates
    }

    #[test]
    fn insufficient_samples() {
        let xs = vec![vec![1.0, 2.0]];
        let ys = vec![3.0];
        assert!(matches!(
            ols(&xs, &ys),
            Err(CoreError::InsufficientSamples { .. })
        ));
    }

    #[test]
    fn singular_when_predictor_constant() {
        let xs = vec![vec![2.0], vec![2.0], vec![2.0]];
        let ys = vec![1.0, 2.0, 3.0];
        assert!(matches!(ols(&xs, &ys), Err(CoreError::SingularSystem)));
    }

    #[test]
    fn ragged_rows_rejected() {
        let xs = vec![vec![1.0], vec![2.0, 3.0], vec![4.0]];
        let ys = vec![1.0, 2.0, 3.0];
        assert!(matches!(
            ols(&xs, &ys),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        let xs = vec![vec![1.0], vec![2.0]];
        let ys = vec![1.0];
        assert!(matches!(
            ols(&xs, &ys),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let xs = vec![vec![1.0], vec![f64::NAN], vec![2.0]];
        let ys = vec![1.0, 2.0, 3.0];
        assert!(ols(&xs, &ys).is_err());
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![1.0, f64::INFINITY, 3.0];
        assert!(ols(&xs, &ys).is_err());
    }

    #[test]
    fn constant_response_perfect_fit() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![5.0, 5.0, 5.0];
        let fit = ols(&xs, &ys).unwrap();
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert!(fit.coefficients[0].abs() < 1e-9);
    }

    #[test]
    fn solve_linear_system_3x3() {
        let mut a = vec![
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ];
        let mut b = vec![8.0, -11.0, -3.0];
        let x = solve_linear_system(&mut a, &mut b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((x[2] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn solve_singular_system_errors() {
        let mut a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let mut b = vec![1.0, 2.0];
        assert!(matches!(
            solve_linear_system(&mut a, &mut b),
            Err(CoreError::SingularSystem)
        ));
    }
}
