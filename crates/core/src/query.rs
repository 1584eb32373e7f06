//! Read-path queries against a pinned eigensystem snapshot.
//!
//! The serving layer answers project / reconstruct / outlier-score /
//! top-k-similarity queries at high QPS while the streaming update runs
//! at full ingest rate, so the per-request math must not allocate: every
//! query runs through a caller-owned [`QueryWorkspace`] whose buffers are
//! grown once and reused for the lifetime of a serving thread.
//!
//! Semantics match the streaming update path exactly: projections use the
//! top `p` reported components of a (possibly `p + q`-component) tracked
//! eigensystem, and the outlier score reproduces the scale-collapse guard
//! of the robust step (`σ²` clamped to `1e-12·λ₀` before forming
//! `t = r²/σ²`), so a served score is the
//! [`UpdateOutcome`](crate::UpdateOutcome) the estimator would have
//! produced for the same observation against the same state: bit-identical
//! when the row meets a folded basis, and to rounding (a few ulps of
//! `‖x − µ‖²`) mid-tail, where the update reads `E = B·M` unmaterialised
//! (DESIGN §5).

use crate::classic::residual_from;
use crate::eigensystem::EigenSystem;
use crate::{PcaError, Result};
use spca_linalg::{kernels, vecops};

/// Outlier diagnostics for a queried observation, mirroring the fields of
/// [`UpdateOutcome`](crate::UpdateOutcome) that do not depend on the
/// ρ-function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierScore {
    /// Squared residual `r²` against the top `p` components.
    pub residual_sq: f64,
    /// Scale-normalized squared residual `t = r²/σ²` (σ² guarded against
    /// collapse exactly as in the robust step).
    pub scaled_residual: f64,
}

/// One ranked component from a top-k-similarity query: which eigenvector,
/// its projection coefficient, and the cosine similarity between the
/// centered observation and that eigenvector direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityHit {
    /// Component index (0-based, descending eigenvalue order).
    pub component: usize,
    /// Projection coefficient `c_j = e_jᵀ (x − µ)`.
    pub coefficient: f64,
    /// Cosine similarity `c_j / ‖x − µ‖` in `[-1, 1]` (0 if `x = µ`).
    pub cosine: f64,
}

/// Reusable scratch for the query read path. Buffers grow on first use at
/// a given dimension and are reused thereafter; in steady state no query
/// method allocates.
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    centered: Vec<f64>,
    coeffs: Vec<f64>,
    recon: Vec<f64>,
    hits: Vec<SimilarityHit>,
}

impl QueryWorkspace {
    /// A workspace with empty buffers (grown on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn check_dim(eig: &EigenSystem, x: &[f64]) -> Result<()> {
        if x.len() != eig.dim() {
            return Err(PcaError::DimensionMismatch {
                expected: eig.dim(),
                got: x.len(),
            });
        }
        if !vecops::all_finite(x) {
            return Err(PcaError::NotFinite);
        }
        Ok(())
    }

    /// Centers `x` and fills `self.coeffs` with the top-`p` projection
    /// coefficients.
    fn project_truncated(&mut self, eig: &EigenSystem, p: usize, x: &[f64]) -> Result<()> {
        Self::check_dim(eig, x)?;
        let p = p.min(eig.n_components());
        eig.center_into(x, &mut self.centered);
        self.coeffs.clear();
        self.coeffs
            .extend((0..p).map(|j| vecops::dot(eig.basis.col(j), &self.centered)));
        Ok(())
    }

    /// Projection coefficients `c = E_pᵀ (x − µ)` onto the top `p`
    /// components.
    pub fn project(&mut self, eig: &EigenSystem, p: usize, x: &[f64]) -> Result<&[f64]> {
        self.project_truncated(eig, p, x)?;
        Ok(&self.coeffs)
    }

    /// Full reconstruction `µ + E_p E_pᵀ (x − µ)` of an observation from
    /// its top-`p` projection.
    pub fn reconstruct(&mut self, eig: &EigenSystem, p: usize, x: &[f64]) -> Result<&[f64]> {
        self.project_truncated(eig, p, x)?;
        self.recon.clear();
        self.recon.extend_from_slice(&eig.mean);
        for (j, &c) in self.coeffs.iter().enumerate() {
            vecops::axpy(c, eig.basis.col(j), &mut self.recon);
        }
        Ok(&self.recon)
    }

    /// Outlier score of an observation against the top `p` components,
    /// using the same residual and σ²-guard as the robust streaming step.
    pub fn outlier_score(
        &mut self,
        eig: &EigenSystem,
        p: usize,
        x: &[f64],
    ) -> Result<OutlierScore> {
        Self::check_dim(eig, x)?;
        let p = p.min(eig.n_components());
        eig.center_into(x, &mut self.centered);
        // `‖y‖²` and `c` in one `gemv_t` sweep, as the update's projection
        // forms them over `B`: at a fold, where `E` is `B`, the two agree
        // to the bit.
        self.coeffs.clear();
        self.coeffs.resize(p, 0.0);
        let y_norm_sq = kernels::gemv_t(
            &eig.basis.as_slice()[..eig.dim() * p],
            None,
            &mut self.centered,
            Some(&mut self.coeffs),
        );
        let residual_sq = residual_from(y_norm_sq, &self.coeffs);
        // Scale-collapse guard mirrored from `robust_step_with_residual`.
        let var_scale: f64 = eig.values.first().copied().unwrap_or(0.0).max(1e-300);
        let sigma2 = eig.sigma2.max(1e-12 * var_scale);
        Ok(OutlierScore {
            residual_sq,
            scaled_residual: residual_sq / sigma2,
        })
    }

    /// The `k` components most similar to the observation, ranked by
    /// `|c_j|` descending (ties broken by component index), with cosine
    /// similarities against the centered observation.
    pub fn top_k_similarity(
        &mut self,
        eig: &EigenSystem,
        p: usize,
        x: &[f64],
        k: usize,
    ) -> Result<&[SimilarityHit]> {
        self.project_truncated(eig, p, x)?;
        let norm = vecops::norm(&self.centered);
        let inv = if norm > 0.0 { 1.0 / norm } else { 0.0 };
        self.hits.clear();
        self.hits
            .extend(self.coeffs.iter().enumerate().map(|(j, &c)| SimilarityHit {
                component: j,
                coefficient: c,
                cosine: c * inv,
            }));
        self.hits.sort_unstable_by(|a, b| {
            b.coefficient
                .abs()
                .partial_cmp(&a.coefficient.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.component.cmp(&b.component))
        });
        self.hits.truncate(k.min(self.hits.len()));
        Ok(&self.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PcaConfig;
    use crate::robust::RobustPca;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spca_linalg::rng::standard_normal_vec;

    const D: usize = 16;
    const P: usize = 3;

    /// A row of the fitted model: two strong directions and small noise.
    fn draw(rng: &mut StdRng) -> Vec<f64> {
        let mut x = vec![0.0; D];
        let c = standard_normal_vec(rng, 2);
        x[0] = 3.0 * c[0];
        x[1] = 1.5 * c[1];
        for xi in x.iter_mut() {
            *xi += 0.01 * spca_linalg::rng::standard_normal(rng);
        }
        x
    }

    fn fitted() -> RobustPca {
        let mut pca = RobustPca::new(PcaConfig::new(D, P));
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            pca.update(&draw(&mut rng)).unwrap();
        }
        assert!(pca.is_initialized());
        pca
    }

    #[test]
    fn project_matches_naive() {
        let mut pca = fitted();
        let eig = pca.full_eigensystem().unwrap();
        let x: Vec<f64> = (0..D).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut ws = QueryWorkspace::new();
        let got = ws.project(eig, P, &x).unwrap().to_vec();
        let y = eig.center(&x);
        let naive: Vec<f64> = (0..P)
            .map(|j| spca_linalg::vecops::dot(eig.basis.col(j), &y))
            .collect();
        assert_eq!(got, naive);
    }

    #[test]
    fn reconstruct_matches_naive() {
        let mut pca = fitted();
        let eig = pca.full_eigensystem().unwrap();
        let x: Vec<f64> = (0..D).map(|i| (i as f64 * 0.61).cos()).collect();
        let mut ws = QueryWorkspace::new();
        let got = ws.reconstruct(eig, P, &x).unwrap().to_vec();
        // Naive: µ + Σⱼ cⱼ eⱼ over the top P components.
        let y = eig.center(&x);
        let mut want = eig.mean.clone();
        for j in 0..P {
            let c = spca_linalg::vecops::dot(eig.basis.col(j), &y);
            for (w, e) in want.iter_mut().zip(eig.basis.col(j)) {
                *w += c * e;
            }
        }
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
    }

    #[test]
    fn outlier_score_matches_update_outcome() {
        // The score served for an observation is the outcome the estimator
        // reports when consuming it: to the bit when the row meets the
        // basis at a fold (`n_obs` = 200, folded before the row), and to
        // rounding mid-tail (`n_obs` = 203), where the update forms `r²`
        // from `E = B·M` unmaterialised and the query from the materialised
        // `E` (DESIGN §5): within 64·ε·‖x − µ‖², the size of the
        // cancellation in `‖y‖² − Σ c²` at these widths. The row has a part
        // inside the basis, so the two roundings differ mid-tail.
        let mut rng = StdRng::seed_from_u64(12);
        let mut spike = draw(&mut rng);
        spike[0] += 30.0;
        spike[7] += 50.0;
        for extra_rows in [0, 3] {
            let mut pca = fitted();
            for _ in 0..extra_rows {
                pca.update(&draw(&mut rng)).unwrap();
            }
            let eig = pca.full_eigensystem().unwrap().clone();
            let at_fold = eig.n_obs.is_multiple_of(crate::classic::FOLD_EVERY);
            assert_eq!(at_fold, extra_rows == 0);
            let mut ws = QueryWorkspace::new();
            let score = ws.outlier_score(&eig, P, &spike).unwrap();
            let outcome = pca.update(&spike).unwrap();
            assert!(score.scaled_residual > 10.0, "spike should score high");
            if at_fold {
                assert_eq!(score.residual_sq, outcome.residual_sq);
                assert_eq!(score.scaled_residual, outcome.scaled_residual);
                continue;
            }
            let y_sq = vecops::norm_sq(&eig.center(&spike));
            let tol = 64.0 * f64::EPSILON * y_sq;
            let (q, u) = (score.residual_sq, outcome.residual_sq);
            assert!((q - u).abs() <= tol, "r² {q} vs {u}, tolerance {tol}");
            let sigma2 = score.residual_sq / score.scaled_residual;
            let (q, u) = (score.scaled_residual, outcome.scaled_residual);
            assert!((q - u).abs() <= tol / sigma2, "t {q} vs {u}");
        }
    }

    #[test]
    fn served_score_is_the_update_outcome_at_every_fold() {
        // The bit-identity at a fold holds by construction, not for one
        // lucky state: forty fitted models, each meeting a spike right
        // after a fold. Forming `‖y‖² − Σ c²` with other sums missed by an
        // ulp on 17 of these 40 (18 on the scalar kernels).
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pca = RobustPca::new(PcaConfig::new(D, P));
            for _ in 0..200 {
                pca.update(&draw(&mut rng)).unwrap();
            }
            let mut spike = draw(&mut rng);
            spike[0] += 30.0;
            spike[7] += 50.0;
            let eig = pca.full_eigensystem().unwrap().clone();
            assert!(eig.n_obs.is_multiple_of(crate::classic::FOLD_EVERY));
            let score = QueryWorkspace::new()
                .outlier_score(&eig, P, &spike)
                .unwrap();
            let outcome = pca.update(&spike).unwrap();
            assert_eq!(
                score.residual_sq.to_bits(),
                outcome.residual_sq.to_bits(),
                "seed {seed}"
            );
            assert_eq!(
                score.scaled_residual.to_bits(),
                outcome.scaled_residual.to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn top_k_ranked_by_abs_coefficient() {
        let mut pca = fitted();
        let eig = pca.full_eigensystem().unwrap();
        let x: Vec<f64> = (0..D).map(|i| (i as f64 * 0.23).sin() * 2.0).collect();
        let mut ws = QueryWorkspace::new();
        let hits = ws.top_k_similarity(eig, P, &x, 2).unwrap().to_vec();
        assert_eq!(hits.len(), 2);
        assert!(hits[0].coefficient.abs() >= hits[1].coefficient.abs());
        for h in &hits {
            assert!(h.cosine.abs() <= 1.0 + 1e-12);
            let y = eig.center(&x);
            let c = spca_linalg::vecops::dot(eig.basis.col(h.component), &y);
            assert_eq!(h.coefficient, c);
        }
        // k larger than p clamps.
        assert_eq!(ws.top_k_similarity(eig, P, &x, 99).unwrap().len(), P);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut pca = fitted();
        let eig = pca.full_eigensystem().unwrap();
        let mut ws = QueryWorkspace::new();
        assert!(ws.project(eig, P, &[1.0, 2.0]).is_err());
        assert!(ws.outlier_score(eig, P, &[f64::NAN; D]).is_err());
    }

    #[test]
    fn copy_from_is_exact_and_reuses_buffers() {
        let mut pca = fitted();
        let src = pca.full_eigensystem().unwrap();
        let mut dst = EigenSystem::zeros(D, src.n_components());
        dst.copy_from(src);
        assert_eq!(dst.mean, src.mean);
        assert_eq!(dst.values, src.values);
        assert_eq!(dst.basis.as_slice(), src.basis.as_slice());
        assert_eq!(dst.n_obs, src.n_obs);
        assert_eq!(dst.sigma2, src.sigma2);
        // Second copy at the same shape must not grow capacity.
        let cap = dst.mean.capacity();
        dst.copy_from(src);
        assert_eq!(dst.mean.capacity(), cap);
    }
}
