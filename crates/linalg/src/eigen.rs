//! Symmetric eigensolver (cyclic Jacobi).
//!
//! The batch PCA baseline diagonalizes the sample covariance matrix, and
//! eigensystem merges can go through a small `2p × 2p` Gram eigenproblem.
//! Cyclic Jacobi is simple, unconditionally stable for symmetric matrices,
//! and plenty fast at the sizes we use (`d ≤ ~2000` for baselines, `≤ 64`
//! for merges).

use crate::mat::Mat;
use crate::vecops;
use crate::{LinalgError, Result};

/// Eigendecomposition `A = V · diag(λ) · Vᵀ` of a symmetric matrix, with
/// eigenvalues sorted in descending order.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, in the same order as `values`.
    pub vectors: Mat,
}

impl SymEigen {
    /// Reconstructs `V · diag(λ) · Vᵀ`.
    pub fn reconstruct(&self) -> Mat {
        let mut vl = self.vectors.clone();
        for (j, &l) in self.values.iter().enumerate() {
            vecops::scale(vl.col_mut(j), l);
        }
        vl.matmul(&self.vectors.transpose())
            .expect("square shapes agree")
    }

    /// The top-`k` eigenpairs as `(values, d×k vector matrix)`.
    pub fn top_k(&self, k: usize) -> (Vec<f64>, Mat) {
        let k = k.min(self.values.len());
        (self.values[..k].to_vec(), self.vectors.columns_range(0, k))
    }
}

const MAX_SWEEPS: usize = 100;

/// Computes the eigendecomposition of a symmetric matrix by cyclic Jacobi.
///
/// The input is required to be square and (numerically) symmetric: the
/// routine symmetrizes internally with `(A + Aᵀ)/2`, so tiny asymmetries
/// from accumulation are tolerated.
pub fn sym_eigen(a: &Mat) -> Result<SymEigen> {
    let (m, n) = a.shape();
    if m != n {
        return Err(LinalgError::ShapeMismatch {
            expected: "square matrix".to_string(),
            got: (m, n),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    if n == 0 {
        return Ok(SymEigen {
            values: Vec::new(),
            vectors: Mat::zeros(0, 0),
        });
    }

    // Symmetrize.
    let mut w = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            w[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
        }
    }
    let mut v = Mat::identity(n);
    let scale = w.max_abs().max(f64::MIN_POSITIVE);
    let tol = 1e-14 * scale;

    let mut sweeps = 0;
    loop {
        // Largest off-diagonal magnitude this sweep.
        let mut off = 0.0_f64;
        for p in 0..n - 1 {
            for q in (p + 1)..n {
                let apq = w[(p, q)];
                off = off.max(apq.abs());
                if apq.abs() <= tol {
                    continue;
                }
                let app = w[(p, p)];
                let aqq = w[(q, q)];
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;

                // Update rows/cols p and q of W (classical Jacobi update).
                for k in 0..n {
                    let wkp = w[(k, p)];
                    let wkq = w[(k, q)];
                    w[(k, p)] = c * wkp - s * wkq;
                    w[(k, q)] = s * wkp + c * wkq;
                }
                for k in 0..n {
                    let wpk = w[(p, k)];
                    let wqk = w[(q, k)];
                    w[(p, k)] = c * wpk - s * wqk;
                    w[(q, k)] = s * wpk + c * wqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
        if n == 1 || off <= tol {
            break;
        }
        sweeps += 1;
        if sweeps >= MAX_SWEEPS {
            return Err(LinalgError::NoConvergence {
                routine: "sym_eigen",
                sweeps,
            });
        }
    }

    // Sort by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| w[(i, i)]).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).expect("finite eigenvalues"));

    let mut values = Vec::with_capacity(n);
    let mut vectors = Mat::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        values.push(diag[src]);
        vectors.col_mut(dst).copy_from_slice(v.col(src));
    }
    Ok(SymEigen { values, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fill_standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_symmetric(n: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = Mat::zeros(n, n);
        fill_standard_normal(&mut rng, b.as_mut_slice());
        let bt = b.transpose();
        let mut s = b;
        crate::vecops::axpy(1.0, bt.as_slice(), s.as_mut_slice());
        s.scale_mut(0.5);
        s
    }

    #[test]
    fn eigen_reconstructs() {
        let a = random_symmetric(12, 31);
        let e = sym_eigen(&a).unwrap();
        assert!(e.reconstruct().sub(&a).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = random_symmetric(9, 32);
        let e = sym_eigen(&a).unwrap();
        let g = e.vectors.gram();
        let i = Mat::identity(9);
        assert!(g.sub(&i).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn diagonal_matrix_exact() {
        let mut a = Mat::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 5.0;
        a[(2, 2)] = 3.0;
        let e = sym_eigen(&a).unwrap();
        assert_eq!(e.values.len(), 3);
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn values_sorted_descending() {
        let a = random_symmetric(15, 33);
        let e = sym_eigen(&a).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = random_symmetric(10, 34);
        let e = sym_eigen(&a).unwrap();
        let tr: f64 = (0..10).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((tr - sum).abs() < 1e-9);
    }

    #[test]
    fn psd_matrix_has_nonnegative_eigenvalues() {
        // Gram matrices are PSD.
        let mut rng = StdRng::seed_from_u64(35);
        let mut b = Mat::zeros(20, 6);
        fill_standard_normal(&mut rng, b.as_mut_slice());
        let g = b.gram();
        let e = sym_eigen(&g).unwrap();
        assert!(e.values.iter().all(|&v| v > -1e-10));
    }

    #[test]
    fn top_k_truncates() {
        let a = random_symmetric(8, 36);
        let e = sym_eigen(&a).unwrap();
        let (vals, vecs) = e.top_k(3);
        assert_eq!(vals.len(), 3);
        assert_eq!(vecs.shape(), (8, 3));
        assert_eq!(vals[0], e.values[0]);
    }

    #[test]
    fn one_by_one() {
        let mut a = Mat::zeros(1, 1);
        a[(0, 0)] = 7.5;
        let e = sym_eigen(&a).unwrap();
        assert_eq!(e.values, vec![7.5]);
    }

    #[test]
    fn non_square_rejected() {
        assert!(sym_eigen(&Mat::zeros(2, 3)).is_err());
    }

    #[test]
    fn agrees_with_svd_on_psd() {
        let mut rng = StdRng::seed_from_u64(37);
        let mut b = Mat::zeros(16, 5);
        fill_standard_normal(&mut rng, b.as_mut_slice());
        let g = b.gram();
        let e = sym_eigen(&g).unwrap();
        let svd = crate::svd::thin_svd(&b).unwrap();
        for k in 0..5 {
            let want = svd.s[k] * svd.s[k];
            assert!((e.values[k] - want).abs() < 1e-8 * want.max(1.0), "k={k}");
        }
    }
}
