//! Small symmetric positive-definite solves (Cholesky).
//!
//! Gap filling projects an incomplete spectrum onto the eigenbasis restricted
//! to the observed bins, which requires solving a tiny (`p × p`) SPD system
//! `(Eᵀ M E) c = Eᵀ M y` per gappy observation. A dense Cholesky with a
//! diagonal jitter fallback is exactly right at this size.

use crate::mat::Mat;
use crate::{LinalgError, Result};

/// Factorizes `a` into the caller-owned lower-triangular Cholesky factor
/// `L` (`A = L Lᵀ`).
fn factor_into(a: &Mat, l: &mut Mat) -> Result<()> {
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
    // Retry with growing jitter: rank-deficient masked Gram matrices
    // occur when a spectrum's observed bins can't distinguish two
    // eigenvectors, and regularized solves are the standard remedy.
    let scale = a.max_abs().max(f64::MIN_POSITIVE);
    let mut jitter = 0.0;
    for attempt in 0..6 {
        if try_factor_into(a, jitter, l) {
            return Ok(());
        }
        jitter = scale * 1e-12 * 10f64.powi(attempt);
    }
    Err(LinalgError::NoConvergence {
        routine: "cholesky",
        sweeps: 6,
    })
}

fn try_factor_into(a: &Mat, jitter: f64, l: &mut Mat) -> bool {
    let n = a.rows();
    l.reset_zeroed(n, n);
    for j in 0..n {
        let mut d = a[(j, j)] + jitter;
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return false;
        }
        let djj = d.sqrt();
        l[(j, j)] = djj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / djj;
        }
    }
    true
}

/// In-place forward (`L z = b`) then backward (`Lᵀ x = z`) substitution.
///
/// Both passes are column-oriented so the inner loops run down contiguous
/// column tails of `L` and ride the dispatched `axpy`/`dot` kernels: the
/// forward pass scatters each solved entry into the remaining rows, the
/// backward pass gathers `Lᵀ`'s row `i` as the tail of column `i`.
fn solve_in_place(l: &Mat, z: &mut [f64]) {
    let n = l.rows();
    for k in 0..n {
        z[k] /= l[(k, k)];
        let zk = z[k];
        crate::vecops::axpy(-zk, &l.col(k)[k + 1..], &mut z[k + 1..]);
    }
    for i in (0..n).rev() {
        let tail = crate::vecops::dot(&l.col(i)[i + 1..], &z[i + 1..]);
        z[i] = (z[i] - tail) / l[(i, i)];
    }
}

/// Reusable buffers for [`spd_solve_into`].
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    /// Solution vector, valid after a successful call.
    pub x: Vec<f64>,
    l: Mat,
}

/// SPD solve into a workspace: `ws.x = A⁻¹ b` with no allocation once the
/// buffers have grown to size.
///
/// Fails with [`LinalgError::ShapeMismatch`] on a right-hand side of the
/// wrong length, [`LinalgError::NotFinite`] on non-finite input and
/// [`LinalgError::NoConvergence`] if the matrix is not positive definite
/// even after a small diagonal jitter.
pub fn spd_solve_into(a: &Mat, b: &[f64], ws: &mut SolveWorkspace) -> Result<()> {
    if b.len() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            expected: format!("rhs of length {}", a.rows()),
            got: (b.len(), 1),
        });
    }
    factor_into(a, &mut ws.l)?;
    ws.x.clear();
    ws.x.extend_from_slice(b);
    solve_in_place(&ws.l, &mut ws.x);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fill_standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_spd(n: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = Mat::zeros(n + 3, n);
        fill_standard_normal(&mut rng, b.as_mut_slice());
        b.gram()
    }

    #[test]
    fn solve_round_trip() {
        let a = random_spd(6, 41);
        let x_true = vec![1.0, -2.0, 0.5, 3.0, -1.0, 0.25];
        let b = a.matvec(&x_true).unwrap();
        let mut ws = SolveWorkspace::default();
        spd_solve_into(&a, &b, &mut ws).unwrap();
        for (got, want) in ws.x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let i = Mat::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut ws = SolveWorkspace::default();
        spd_solve_into(&i, &b, &mut ws).unwrap();
        assert_eq!(ws.x, b);
    }

    #[test]
    fn near_singular_uses_jitter() {
        // Rank-1 outer product plus epsilon: classic near-singular SPD.
        let mut a = Mat::zeros(3, 3);
        a.as_mut_slice().fill(1.0); // 1·1ᵀ
        for i in 0..3 {
            a[(i, i)] += 1e-15;
        }
        let mut ws = SolveWorkspace::default();
        let x = spd_solve_into(&a, &[1.0, 1.0, 1.0], &mut ws);
        assert!(x.is_ok());
        assert!(ws.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn indefinite_rejected() {
        let mut a = Mat::identity(2);
        a[(1, 1)] = -5.0;
        let mut ws = SolveWorkspace::default();
        assert!(spd_solve_into(&a, &[1.0, 1.0], &mut ws).is_err());
    }

    #[test]
    fn solve_into_matches_one_shot_across_sizes() {
        let mut ws = SolveWorkspace::default();
        for (n, seed) in [(6usize, 41u64), (3, 42), (8, 43)] {
            let a = random_spd(n, seed);
            let b: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
            spd_solve_into(&a, &b, &mut ws).unwrap();
            let mut fresh = SolveWorkspace::default();
            spd_solve_into(&a, &b, &mut fresh).unwrap();
            assert_eq!(ws.x, fresh.x, "n={n}");
        }
    }

    #[test]
    fn solve_into_wrong_rhs_length() {
        let mut ws = SolveWorkspace::default();
        assert!(spd_solve_into(&Mat::identity(3), &[1.0], &mut ws).is_err());
    }
}
