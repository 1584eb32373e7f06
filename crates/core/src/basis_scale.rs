//! Streaming robust eigenvalues along fixed basis vectors (§II-B).
//!
//! "It is worth noting that robust 'eigenvalues' can be computed for any
//! basis vectors in a consistent way, which enables a meaningful comparison
//! of the performance of various bases. To derive a robust measure of the
//! scatter of the data along a given eigenspectrum e, one can project the
//! data on it, and formally solve the same equation as in eq.(5) but with
//! the residuals replaced with the projected values."
//!
//! [`BasisScaleTracker`] runs one M-scale recursion (the σ² update of
//! eq. 11/14) per basis vector, incrementally — so two candidate bases can
//! be scored against the *live stream* without buffering it.

use crate::config::{PcaConfig, DELTA};
use crate::rho::Rho;
use crate::{PcaError, Result};
use spca_linalg::{vecops, Mat};
use std::sync::Arc;

/// Incremental robust scale (M-scale) of a scalar stream: the σ² recursion
/// of eq. (11) with γ₃ from the decayed count (eq. 14).
#[derive(Debug, Clone)]
pub struct RobustScale {
    sigma2: f64,
    sum_u: f64,
    alpha: f64,
    n: u64,
}

impl RobustScale {
    /// A scale tracker with forgetting factor `alpha` and breakdown
    /// [`DELTA`].
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        RobustScale {
            sigma2: 0.0,
            sum_u: 0.0,
            alpha,
            n: 0,
        }
    }

    /// Feeds one squared value `r²`.
    pub fn update(&mut self, r2: f64, rho: &dyn Rho) {
        let u_new = self.alpha * self.sum_u + 1.0;
        let gamma3 = self.alpha * self.sum_u / u_new;
        // Before any scale exists, seed with the raw value (the fixed-point
        // iteration forgets the seed geometrically anyway).
        let sigma = if self.sigma2 > 0.0 {
            self.sigma2
        } else {
            r2.max(f64::MIN_POSITIVE)
        };
        let t = r2 / sigma;
        let w_star = rho.scale_weight(t);
        self.sigma2 = gamma3 * self.sigma2 + (1.0 - gamma3) * w_star * r2 / DELTA;
        self.sum_u = u_new;
        self.n += 1;
    }

    /// The current scale estimate σ².
    pub fn sigma2(&self) -> f64 {
        self.sigma2
    }

    /// Observations consumed.
    pub fn n_obs(&self) -> u64 {
        self.n
    }
}

/// Tracks robust eigenvalues of a data stream along a *fixed* orthonormal
/// basis, plus a robust location along the way.
pub struct BasisScaleTracker {
    basis: Mat,
    mean: Vec<f64>,
    mean_v: f64,
    scales: Vec<RobustScale>,
    rho: Arc<dyn Rho>,
    alpha: f64,
}

impl BasisScaleTracker {
    /// A tracker over the columns of `basis`, configured like a PCA run
    /// (α and ρ are taken from `cfg`).
    pub fn new(basis: Mat, cfg: &PcaConfig) -> Self {
        let k = basis.cols();
        let d = basis.rows();
        BasisScaleTracker {
            basis,
            mean: vec![0.0; d],
            mean_v: 0.0,
            scales: (0..k).map(|_| RobustScale::new(cfg.alpha)).collect(),
            rho: cfg.rho.build(),
            alpha: cfg.alpha,
        }
    }

    /// Feeds one observation.
    pub fn update(&mut self, x: &[f64]) -> Result<()> {
        if x.len() != self.basis.rows() {
            return Err(PcaError::DimensionMismatch {
                expected: self.basis.rows(),
                got: x.len(),
            });
        }
        if !vecops::all_finite(x) {
            return Err(PcaError::NotFinite);
        }
        // Simple robust-ish location: the classic decayed mean (adequate —
        // the scales dominate the comparison and the paper's equation uses
        // the PCA location anyway when available).
        let v_new = self.alpha * self.mean_v + 1.0;
        let gamma = self.alpha * self.mean_v / v_new;
        for (m, &xi) in self.mean.iter_mut().zip(x) {
            *m = gamma * *m + (1.0 - gamma) * xi;
        }
        self.mean_v = v_new;

        let y = vecops::sub(x, &self.mean);
        for (k, scale) in self.scales.iter_mut().enumerate() {
            let proj = vecops::dot(self.basis.col(k), &y);
            scale.update(proj * proj, self.rho.as_ref());
        }
        Ok(())
    }

    /// Robust eigenvalue estimates, one per basis column.
    pub fn robust_eigenvalues(&self) -> Vec<f64> {
        self.scales.iter().map(|s| s.sigma2()).collect()
    }

    /// Total robust variance captured by the basis — the score for
    /// comparing candidate bases on the same stream.
    pub fn captured(&self) -> f64 {
        self.robust_eigenvalues().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rho::{Bisquare, Classical};
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use spca_linalg::rng::standard_normal;

    const D: usize = 10;

    fn axes(which: &[usize]) -> Mat {
        let mut m = Mat::zeros(D, which.len());
        for (j, &ax) in which.iter().enumerate() {
            m[(ax, j)] = 1.0;
        }
        m
    }

    fn sample(rng: &mut StdRng) -> Vec<f64> {
        let mut x = vec![0.0; D];
        x[0] = 4.0 * standard_normal(rng);
        x[1] = 2.0 * standard_normal(rng);
        for v in x.iter_mut() {
            *v += 0.01 * standard_normal(rng);
        }
        x
    }

    #[test]
    fn classical_rho_recovers_projection_variance() {
        // With ρ(t)=t and δ=0.5, the recursion estimates E[r²]/δ = 2·Var.
        let cfg = PcaConfig::new(D, 2)
            .with_memory(2000)
            .with_rho(crate::RhoKind::Classical);
        let mut tr = BasisScaleTracker::new(axes(&[0, 1]), &cfg);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..6000 {
            tr.update(&sample(&mut rng)).unwrap();
        }
        let lam = tr.robust_eigenvalues();
        assert!((lam[0] - 32.0).abs() < 4.0, "λ0 = {} (want ≈ 2·16)", lam[0]);
        assert!((lam[1] - 8.0).abs() < 1.5, "λ1 = {} (want ≈ 2·4)", lam[1]);
    }

    #[test]
    fn good_basis_captures_more_than_bad() {
        let cfg = PcaConfig::new(D, 2).with_memory(1000);
        let mut good = BasisScaleTracker::new(axes(&[0, 1]), &cfg);
        let mut bad = BasisScaleTracker::new(axes(&[7, 8]), &cfg);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..3000 {
            let x = sample(&mut rng);
            good.update(&x).unwrap();
            bad.update(&x).unwrap();
        }
        assert!(
            good.captured() > 100.0 * bad.captured(),
            "good {} vs bad {}",
            good.captured(),
            bad.captured()
        );
    }

    #[test]
    fn robust_scale_ignores_contamination() {
        // 10% gross spikes in the projections barely move the bisquare
        // scale but blow up the classical one.
        let mut robust = RobustScale::new(0.999);
        let mut classic = RobustScale::new(0.999);
        let bi = Bisquare::default();
        let cl = Classical;
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..5000 {
            let base: f64 = standard_normal(&mut rng);
            let r2 = if i % 10 == 0 { 1e6 } else { base * base };
            robust.update(r2, &bi);
            classic.update(r2, &cl);
        }
        assert!(
            robust.sigma2() < 50.0,
            "robust exploded: {}",
            robust.sigma2()
        );
        assert!(
            classic.sigma2() > 1e4,
            "classical should absorb spikes: {}",
            classic.sigma2()
        );
    }

    #[test]
    fn agrees_with_batch_fixed_point() {
        // Streaming M-scale with long memory ≈ batch fixed point on the
        // same values.
        let mut rng = StdRng::seed_from_u64(4);
        let r2: Vec<f64> = (0..8000)
            .map(|_| {
                let v: f64 = standard_normal(&mut rng);
                if rng.gen::<f64>() < 0.05 {
                    400.0
                } else {
                    v * v
                }
            })
            .collect();
        let bi = Bisquare::default();
        let batch = crate::robust::mscale_fixed_point(&r2, &bi, 100);
        let mut streaming = RobustScale::new(1.0 - 1.0 / 2000.0);
        for &v in &r2 {
            streaming.update(v, &bi);
        }
        let rel = (streaming.sigma2() - batch).abs() / batch;
        assert!(
            rel < 0.3,
            "streaming {} vs batch {batch}",
            streaming.sigma2()
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let cfg = PcaConfig::new(D, 2);
        let mut tr = BasisScaleTracker::new(axes(&[0]), &cfg);
        assert!(tr.update(&[1.0, 2.0]).is_err());
    }
}
