//! Block subspace (orthogonal) iteration for dominant eigenpairs.
//!
//! The cyclic-Jacobi eigensolver in [`crate::eigen`] is exact but `O(d³)`
//! per sweep — fine at merge sizes, wasteful when a batch baseline needs
//! only the top `p ≪ d` eigenpairs of a `d × d` covariance at spectral
//! dimensions (`d` up to a few thousand). Subspace iteration costs
//! `O(d²·p)` per step and converges geometrically at rate
//! `λ_{p+1}/λ_p` — fast for the strongly low-rank covariances this system
//! lives on.

use crate::mat::Mat;
use crate::qr::orthonormalize;
use crate::{eigen, gemm, LinalgError, Result};

/// Result of a subspace iteration run.
#[derive(Debug, Clone)]
pub struct TopK {
    /// Eigenvalue estimates, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvector estimates (`d × k`).
    pub vectors: Mat,
    /// Iterations performed.
    pub iterations: usize,
    /// Final subspace change (Frobenius norm of the projected difference);
    /// small means converged.
    pub residual: f64,
}

/// Computes the top-`k` eigenpairs of a symmetric matrix by block power
/// iteration with Rayleigh–Ritz extraction.
///
/// `tol` bounds the per-iteration subspace change at convergence;
/// `max_iters` caps the work. Returns [`LinalgError::NoConvergence`] only
/// if the iteration diverges into non-finite values — a slowly-converging
/// (clustered-spectrum) problem returns the best estimate with its
/// `residual` for the caller to judge.
pub fn top_k_symmetric(a: &Mat, k: usize, tol: f64, max_iters: usize) -> Result<TopK> {
    let (m, n) = a.shape();
    if m != n {
        return Err(LinalgError::ShapeMismatch {
            expected: "square".into(),
            got: (m, n),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    let k = k.min(n);
    if k == 0 {
        return Ok(TopK {
            values: vec![],
            vectors: Mat::zeros(n, 0),
            iterations: 0,
            residual: 0.0,
        });
    }

    // Deterministic full-rank start: alternating-sign ramp columns beat
    // coordinate axes (which can be orthogonal to the dominant space).
    let mut q = Mat::from_fn(n, k, |i, j| {
        let x = (i + 1) as f64 / n as f64;
        (1.0 + x).powi(j as i32 + 1) * if (i + j) % 2 == 0 { 1.0 } else { -1.0 }
    });
    q = orthonormalize(&q)?;

    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    for it in 0..max_iters {
        iterations = it + 1;
        let z = gemm::gemm(a, &q)?;
        if !z.is_finite() {
            return Err(LinalgError::NoConvergence {
                routine: "top_k_symmetric",
                sweeps: it,
            });
        }
        let q_next = orthonormalize(&z)?;
        // Subspace change: || Q_next - Q (Qᵀ Q_next) ||_F
        let overlap = gemm::gemm(&q.transpose(), &q_next)?;
        let projected = gemm::gemm(&q, &overlap)?;
        residual = q_next.sub(&projected)?.fro_norm();
        q = q_next;
        if residual < tol {
            break;
        }
    }

    // Rayleigh–Ritz: diagonalize the small projected matrix for eigenvalue
    // estimates and to rotate Q into eigenvector approximations.
    let aq = gemm::gemm(a, &q)?;
    let small = gemm::gemm(&q.transpose(), &aq)?;
    let ritz = eigen::sym_eigen(&small)?;
    let vectors = gemm::gemm(&q, &ritz.vectors)?;
    Ok(TopK {
        values: ritz.values,
        vectors,
        iterations,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fill_standard_normal;
    use crate::vecops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Symmetric matrix with a planted spectrum.
    fn planted(n: usize, spectrum: &[f64], seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut raw = Mat::zeros(n, spectrum.len());
        fill_standard_normal(&mut rng, raw.as_mut_slice());
        let q = orthonormalize(&raw).unwrap();
        let mut a = Mat::zeros(n, n);
        for (j, &lam) in spectrum.iter().enumerate() {
            for c in 0..n {
                vecops::axpy(lam * q.col(j)[c], q.col(j), a.col_mut(c));
            }
        }
        a
    }

    #[test]
    fn recovers_planted_spectrum() {
        let spectrum = [10.0, 6.0, 3.0, 1.0];
        let a = planted(60, &spectrum, 1);
        let r = top_k_symmetric(&a, 3, 1e-10, 500).unwrap();
        for (got, want) in r.values.iter().zip(&spectrum) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        // Vectors are eigenvectors: ||A v − λ v|| small.
        for j in 0..3 {
            let av = a.matvec(r.vectors.col(j)).unwrap();
            let mut diff = av.clone();
            vecops::axpy(-r.values[j], r.vectors.col(j), &mut diff);
            assert!(vecops::norm(&diff) < 1e-5, "j={j}: {}", vecops::norm(&diff));
        }
    }

    #[test]
    fn agrees_with_jacobi_on_modest_size() {
        let a = planted(40, &[5.0, 4.0, 2.5, 1.0, 0.5], 2);
        let full = eigen::sym_eigen(&a).unwrap();
        let iter = top_k_symmetric(&a, 4, 1e-12, 1000).unwrap();
        for j in 0..4 {
            assert!(
                (full.values[j] - iter.values[j]).abs() < 1e-7,
                "λ{j}: {} vs {}",
                full.values[j],
                iter.values[j]
            );
        }
    }

    #[test]
    fn k_zero_and_oversized_k() {
        let a = planted(10, &[3.0, 1.0], 3);
        let r0 = top_k_symmetric(&a, 0, 1e-8, 10).unwrap();
        assert!(r0.values.is_empty());
        let rbig = top_k_symmetric(&a, 25, 1e-8, 200).unwrap();
        assert_eq!(rbig.values.len(), 10);
    }

    #[test]
    fn converges_fast_on_separated_spectrum() {
        let a = planted(100, &[100.0, 1.0], 4);
        let r = top_k_symmetric(&a, 1, 1e-10, 500).unwrap();
        assert!(r.iterations < 30, "took {} iterations", r.iterations);
        assert!((r.values[0] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn clustered_spectrum_reports_residual() {
        // λ2 ≈ λ3: the 2-dim dominant subspace converges, the individual
        // vectors inside the cluster may not; residual is the caller's
        // signal.
        let a = planted(50, &[5.0, 2.0, 1.999], 5);
        let r = top_k_symmetric(&a, 2, 1e-14, 40).unwrap();
        assert!((r.values[0] - 5.0).abs() < 1e-5);
        assert!(r.residual.is_finite());
    }

    #[test]
    fn non_square_rejected() {
        assert!(top_k_symmetric(&Mat::zeros(3, 4), 2, 1e-8, 10).is_err());
    }
}
