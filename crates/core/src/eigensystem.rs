//! The truncated eigensystem state `{µ, E_p, Λ_p, σ², u, v, q}`.
//!
//! This is the object the paper's stateful InfoSphere operator stores as
//! class members and the one exchanged between PCA engines during
//! synchronization. It bundles the truncated eigenbasis with the running
//! sums that drive the γ-recursions (eq. 12–14), because the merge step
//! (eq. 15–16) needs those sums to weight the participants.

use crate::{PcaError, Result};
use spca_linalg::{vecops, Mat};

/// A truncated eigensystem estimate over a `d`-dimensional stream.
#[derive(Debug, Clone)]
pub struct EigenSystem {
    /// Location estimate µ (weighted mean), length `d`.
    pub mean: Vec<f64>,
    /// Eigenbasis `E` (`d × k`, column-orthonormal), descending eigenvalues.
    pub basis: Mat,
    /// Eigenvalues Λ (length `k`, descending, non-negative).
    pub values: Vec<f64>,
    /// Robust residual scale σ² (M-scale of residuals, eq. 5).
    pub sigma2: f64,
    /// Decayed running count Σ 1 (paper's `u`, eq. 14).
    pub sum_u: f64,
    /// Decayed running weight Σ w (paper's `v`, eq. 12).
    pub sum_v: f64,
    /// Decayed running weighted residual Σ w·r² (paper's `q`, eq. 13).
    pub sum_q: f64,
    /// Total observations folded into this estimate (undecayed counter).
    pub n_obs: u64,
}

impl EigenSystem {
    /// An empty (zero) eigensystem of dimension `d` with `k` components.
    pub fn zeros(d: usize, k: usize) -> Self {
        EigenSystem {
            mean: vec![0.0; d],
            basis: Mat::zeros(d, k),
            values: vec![0.0; k],
            sigma2: 0.0,
            sum_u: 0.0,
            sum_v: 0.0,
            sum_q: 0.0,
            n_obs: 0,
        }
    }

    /// Stream dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of tracked components `k`.
    pub fn n_components(&self) -> usize {
        self.values.len()
    }

    /// The `k`-th eigenvector as a slice.
    pub fn eigenvector(&self, k: usize) -> &[f64] {
        self.basis.col(k)
    }

    /// Centers `x` against the current mean: `y = x − µ`.
    pub fn center(&self, x: &[f64]) -> Vec<f64> {
        vecops::sub(x, &self.mean)
    }

    /// Centers `x` into a caller-owned buffer (no allocation once `y` has
    /// capacity `d`).
    pub fn center_into(&self, x: &[f64], y: &mut Vec<f64>) {
        assert_eq!(x.len(), self.dim(), "center_into: dimension mismatch");
        y.clear();
        y.extend(x.iter().zip(&self.mean).map(|(xi, mi)| xi - mi));
    }

    /// Projection coefficients `c = Eᵀ y` of a centered vector.
    pub fn project(&self, y: &[f64]) -> Vec<f64> {
        self.basis
            .tr_matvec(y)
            .expect("dimension checked by caller")
    }

    /// Reconstruction `E c` from projection coefficients.
    pub fn reconstruct_centered(&self, coeffs: &[f64]) -> Vec<f64> {
        self.basis
            .matvec(coeffs)
            .expect("coefficient length matches basis")
    }

    /// Full reconstruction `µ + E Eᵀ (x − µ)` of an observation.
    pub fn reconstruct(&self, x: &[f64]) -> Vec<f64> {
        let y = self.center(x);
        let c = self.project(&y);
        let mut rec = self.reconstruct_centered(&c);
        for (r, m) in rec.iter_mut().zip(&self.mean) {
            *r += m;
        }
        rec
    }

    /// Residual vector `r = (I − E Eᵀ)(x − µ)` (paper eq. 4).
    pub fn residual(&self, x: &[f64]) -> Vec<f64> {
        let y = self.center(x);
        let c = self.project(&y);
        let rec = self.reconstruct_centered(&c);
        vecops::sub(&y, &rec)
    }

    /// Squared residual norm `r²` of an observation.
    pub fn residual_sq(&self, x: &[f64]) -> f64 {
        vecops::norm_sq(&self.residual(x))
    }

    /// Squared residual using only the top `p` of the tracked components
    /// (used when extra gap-correction components are carried).
    pub fn residual_sq_truncated(&self, x: &[f64], p: usize) -> f64 {
        let y = self.center(x);
        self.residual_sq_truncated_centered(&y, p)
    }

    /// [`residual_sq_truncated`](Self::residual_sq_truncated) on an
    /// already-centered vector — the allocation-free form the streaming
    /// hot path uses.
    pub fn residual_sq_truncated_centered(&self, y: &[f64], p: usize) -> f64 {
        let p = p.min(self.n_components());
        let mut r2 = vecops::norm_sq(y);
        for k in 0..p {
            let c = vecops::dot(self.basis.col(k), y);
            r2 -= c * c;
        }
        r2.max(0.0)
    }

    /// Fraction of total tracked variance captured by the top `p`
    /// components.
    pub fn variance_captured(&self, p: usize) -> f64 {
        let total: f64 = self.values.iter().sum::<f64>() + self.sigma2;
        if total <= 0.0 {
            return 0.0;
        }
        self.values.iter().take(p).sum::<f64>() / total
    }

    /// Makes `self` an exact copy of `src`, reusing existing allocations
    /// whenever capacity suffices. After the first call at a given
    /// `(d, k)`, subsequent calls perform no heap allocation — this is the
    /// snapshot-copy primitive of the epoch-versioned serving store.
    pub fn copy_from(&mut self, src: &EigenSystem) {
        self.mean.clear();
        self.mean.extend_from_slice(&src.mean);
        self.basis.copy_from(&src.basis);
        self.values.clear();
        self.values.extend_from_slice(&src.values);
        self.sigma2 = src.sigma2;
        self.sum_u = src.sum_u;
        self.sum_v = src.sum_v;
        self.sum_q = src.sum_q;
        self.n_obs = src.n_obs;
    }

    /// Truncates to the top `p` components (no-op if already ≤ p).
    pub fn truncated(&self, p: usize) -> EigenSystem {
        if p >= self.n_components() {
            return self.clone();
        }
        EigenSystem {
            mean: self.mean.clone(),
            basis: self.basis.columns_range(0, p),
            values: self.values[..p].to_vec(),
            sigma2: self.sigma2,
            sum_u: self.sum_u,
            sum_v: self.sum_v,
            sum_q: self.sum_q,
            n_obs: self.n_obs,
        }
    }

    /// Validates internal invariants: shapes agree, eigenvalues descending
    /// and non-negative, basis near-orthonormal, sums non-negative, all
    /// finite. Returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<()> {
        let d = self.dim();
        let k = self.n_components();
        if self.basis.shape() != (d, k) {
            return Err(PcaError::IncompatibleMerge(format!(
                "basis shape {:?} != ({d}, {k})",
                self.basis.shape()
            )));
        }
        if !vecops::all_finite(&self.mean) || !self.basis.is_finite() {
            return Err(PcaError::NotFinite);
        }
        if !(self.sigma2.is_finite() && self.sigma2 >= 0.0) {
            return Err(PcaError::NotFinite);
        }
        for w in self.values.windows(2) {
            // NaN must also fail the ordering check, hence partial_cmp.
            let cmp = w[0].partial_cmp(&(w[1] - 1e-9));
            if matches!(cmp, Some(std::cmp::Ordering::Less) | None) {
                return Err(PcaError::IncompatibleMerge(format!(
                    "eigenvalues not descending: {} < {}",
                    w[0], w[1]
                )));
            }
        }
        if self.values.iter().any(|&v| v < -1e-9 || !v.is_finite()) {
            return Err(PcaError::IncompatibleMerge(
                "negative/non-finite eigenvalue".into(),
            ));
        }
        if self.sum_u < 0.0 || self.sum_v < 0.0 || self.sum_q < 0.0 {
            return Err(PcaError::IncompatibleMerge("negative running sum".into()));
        }
        // Orthonormality within a loose streaming tolerance.
        let g = self.basis.gram();
        for i in 0..k {
            for j in 0..k {
                let want = if i == j { 1.0 } else { 0.0 };
                if (g[(i, j)] - want).abs() > 1e-6 {
                    return Err(PcaError::IncompatibleMerge(format!(
                        "basis not orthonormal at ({i},{j}): {}",
                        g[(i, j)]
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An eigensystem with an axis-aligned basis for hand-checkable math.
    fn axis_system() -> EigenSystem {
        let mut e = EigenSystem::zeros(4, 2);
        e.basis[(0, 0)] = 1.0;
        e.basis[(1, 1)] = 1.0;
        e.values = vec![4.0, 1.0];
        e.sigma2 = 0.5;
        e.mean = vec![1.0, 1.0, 1.0, 1.0];
        e.sum_u = 10.0;
        e.sum_v = 9.0;
        e.sum_q = 4.0;
        e
    }

    #[test]
    fn residual_removes_in_plane_part() {
        let e = axis_system();
        // x - mean = (2, 3, 4, 5); plane covers first two coords.
        let x = vec![3.0, 4.0, 5.0, 6.0];
        let r = e.residual(&x);
        assert!((r[0]).abs() < 1e-12);
        assert!((r[1]).abs() < 1e-12);
        assert!((r[2] - 4.0).abs() < 1e-12);
        assert!((r[3] - 5.0).abs() < 1e-12);
        assert!((e.residual_sq(&x) - 41.0).abs() < 1e-9);
    }

    #[test]
    fn reconstruct_is_projection_plus_mean() {
        let e = axis_system();
        let x = vec![3.0, 4.0, 5.0, 6.0];
        let rec = e.reconstruct(&x);
        assert_eq!(rec, vec![3.0, 4.0, 1.0, 1.0]);
    }

    #[test]
    fn residual_sq_truncated_matches_full_at_k() {
        let e = axis_system();
        let x = vec![0.5, -1.0, 2.0, 0.0];
        assert!((e.residual_sq_truncated(&x, 2) - e.residual_sq(&x)).abs() < 1e-9);
        // Truncating to p=1 moves the second component's energy into the
        // residual.
        let y = e.center(&x);
        let c1 = y[1];
        assert!((e.residual_sq_truncated(&x, 1) - (e.residual_sq(&x) + c1 * c1)).abs() < 1e-9);
    }

    #[test]
    fn variance_captured_fraction() {
        let e = axis_system();
        // total = 4 + 1 + 0.5; top-1 = 4
        assert!((e.variance_captured(1) - 4.0 / 5.5).abs() < 1e-12);
        assert!((e.variance_captured(2) - 5.0 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn truncated_keeps_top() {
        let e = axis_system();
        let t = e.truncated(1);
        assert_eq!(t.n_components(), 1);
        assert_eq!(t.values, vec![4.0]);
        assert_eq!(t.basis.col(0), e.basis.col(0));
    }

    #[test]
    fn invariants_pass_for_valid_system() {
        axis_system().check_invariants().unwrap();
    }

    #[test]
    fn invariants_catch_unsorted_values() {
        let mut e = axis_system();
        e.values = vec![1.0, 4.0];
        assert!(e.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_non_orthonormal_basis() {
        let mut e = axis_system();
        e.basis[(0, 1)] = 1.0; // now columns overlap
        assert!(e.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_nan() {
        let mut e = axis_system();
        e.mean[0] = f64::NAN;
        assert_eq!(e.check_invariants().unwrap_err(), PcaError::NotFinite);
    }
}
