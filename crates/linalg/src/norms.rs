//! Norms, residuals and simple iterative kernels shared by the solvers.
//!
//! These free functions sit on top of [`DMatrix`],
//! [`CsrMatrix`] and [`DVector`] and are
//! used by the steady-state solvers of `mapqn-markov` and by the accuracy
//! checks in the test-suites.

use crate::dense::DMatrix;
use crate::sparse::CsrMatrix;
use crate::vector::DVector;
use crate::{LinalgError, Result};

/// Residual `‖x^T A‖_inf` of a left null-vector candidate `x` for the matrix
/// `A` (used to check stationary distributions of generators: `π Q ≈ 0`).
///
/// # Errors
/// Propagates dimension mismatches from the underlying product.
pub fn left_residual_dense(a: &DMatrix, x: &DVector) -> Result<f64> {
    Ok(a.vecmat(x)?.norm_inf())
}

/// Residual `‖x^T A‖_inf` for a sparse matrix.
///
/// # Errors
/// Propagates dimension mismatches from the underlying product.
pub fn left_residual_sparse(a: &CsrMatrix, x: &DVector) -> Result<f64> {
    Ok(a.vecmat(x)?.norm_inf())
}

/// Estimates the spectral radius of a square matrix via power iteration on
/// the right (returns the dominant eigenvalue magnitude). Intended for small
/// dense matrices such as MAP embedded-correlation matrices.
///
/// # Errors
/// * [`LinalgError::NotSquare`] if `a` is not square.
/// * [`LinalgError::NoConvergence`] when the Rayleigh-quotient estimate does
///   not stabilize.
pub fn spectral_radius_dense(a: &DMatrix, tol: f64, max_iter: usize) -> Result<f64> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { dims: a.shape() });
    }
    let n = a.nrows();
    if n == 0 {
        return Err(LinalgError::InvalidArgument(
            "spectral radius of empty matrix",
        ));
    }
    // Start from a deterministic, non-degenerate vector.
    let mut x: DVector = (0..n).map(|i| 1.0 + (i as f64) * 0.01).collect();
    let norm = x.norm2();
    x.scale(1.0 / norm);
    let mut lambda_prev = 0.0;
    let mut lambda = 0.0;
    for it in 1..=max_iter {
        let mut y = a.matvec(&x)?;
        let norm = y.norm2();
        if norm == 0.0 {
            // The vector was mapped to zero: spectral radius is zero
            // (nilpotent action on the start vector).
            return Ok(0.0);
        }
        lambda = norm;
        y.scale(1.0 / norm);
        x = y;
        if it > 1 && (lambda - lambda_prev).abs() <= tol * lambda.max(1.0) {
            return Ok(lambda);
        }
        lambda_prev = lambda;
    }
    Err(LinalgError::NoConvergence {
        iterations: max_iter,
        residual: (lambda - lambda_prev).abs(),
    })
}

/// One Gauss–Seidel sweep for the left system `x^T A = b^T`, updating `x` in
/// place. The caller is responsible for iterating to convergence; the sweep
/// returns the largest update made so that callers can implement their own
/// stopping rules.
///
/// The sweep requires the diagonal entries of `A` to be non-zero.
///
/// # Errors
/// * [`LinalgError::DimensionMismatch`] for inconsistent shapes.
/// * [`LinalgError::Singular`] if a zero diagonal entry is encountered.
pub fn gauss_seidel_left_sweep(
    a_transpose: &CsrMatrix,
    b: &DVector,
    x: &mut DVector,
) -> Result<f64> {
    // We receive A^T so that each unknown's equation is a row scan, which is
    // the natural access pattern for CSR storage.
    let n = a_transpose.nrows();
    if a_transpose.ncols() != n {
        return Err(LinalgError::NotSquare {
            dims: (a_transpose.nrows(), a_transpose.ncols()),
        });
    }
    if x.len() != n || b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "gauss_seidel_left_sweep",
            left: (n, n),
            right: (x.len(), 1),
        });
    }
    let mut max_update = 0.0_f64;
    for i in 0..n {
        let mut sum = b[i];
        let mut diag = 0.0;
        for (j, v) in a_transpose.row_iter(i) {
            if j == i {
                diag = v;
            } else {
                sum -= v * x[j];
            }
        }
        if diag == 0.0 {
            return Err(LinalgError::Singular { pivot: i });
        }
        let new_xi = sum / diag;
        max_update = max_update.max((new_xi - x[i]).abs());
        x[i] = new_xi;
    }
    Ok(max_update)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn spectral_radius_of_diagonal_matrix() {
        let a = DMatrix::from_diagonal(&[0.3, -0.8, 0.5]);
        let r = spectral_radius_dense(&a, 1e-12, 10_000).unwrap();
        assert!(approx_eq(r, 0.8, 1e-8));
    }

    #[test]
    fn spectral_radius_of_stochastic_matrix_is_one() {
        let p = DMatrix::from_row_slice(2, 2, &[0.6, 0.4, 0.3, 0.7]);
        let r = spectral_radius_dense(&p, 1e-12, 10_000).unwrap();
        assert!(approx_eq(r, 1.0, 1e-8));
    }

    #[test]
    fn spectral_radius_rejects_non_square() {
        assert!(spectral_radius_dense(&DMatrix::zeros(2, 3), 1e-10, 10).is_err());
    }

    #[test]
    fn spectral_radius_of_zero_matrix_is_zero() {
        let a = DMatrix::zeros(3, 3);
        let r = spectral_radius_dense(&a, 1e-12, 100).unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn gauss_seidel_solves_diagonally_dominant_system() {
        // A = [4 1; 2 5], solve x^T A = b^T with b = (6, 7).
        // Solution: x^T = b^T A^{-1}.
        let a = DMatrix::from_row_slice(2, 2, &[4.0, 1.0, 2.0, 5.0]);
        let at = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 4.0), (0, 1, 2.0), (1, 0, 1.0), (1, 1, 5.0)],
        )
        .unwrap();
        let b = DVector::from_vec(vec![6.0, 7.0]);
        let mut x = DVector::zeros(2);
        for _ in 0..100 {
            let upd = gauss_seidel_left_sweep(&at, &b, &mut x).unwrap();
            if upd < 1e-14 {
                break;
            }
        }
        // Verify x^T A = b^T.
        let xa = a.vecmat(&x).unwrap();
        assert!(xa.max_abs_diff(&b).unwrap() < 1e-10);
    }

    #[test]
    fn gauss_seidel_detects_zero_diagonal() {
        let at = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let b = DVector::zeros(2);
        let mut x = DVector::zeros(2);
        assert!(matches!(
            gauss_seidel_left_sweep(&at, &b, &mut x),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn residual_helpers_agree_between_dense_and_sparse() {
        let q_dense = DMatrix::from_row_slice(2, 2, &[-1.0, 1.0, 2.0, -2.0]);
        let q_sparse = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, -1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, -2.0)],
        )
        .unwrap();
        // Stationary distribution of this generator is (2/3, 1/3).
        let pi = DVector::from_vec(vec![2.0 / 3.0, 1.0 / 3.0]);
        let rd = left_residual_dense(&q_dense, &pi).unwrap();
        let rs = left_residual_sparse(&q_sparse, &pi).unwrap();
        assert!(rd < 1e-12);
        assert!(rs < 1e-12);
    }
}
