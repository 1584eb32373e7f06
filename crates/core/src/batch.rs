//! Offline baselines: classical batch PCA and iterative robust batch PCA.
//!
//! The streaming estimators approximate these; the test-suite and the
//! experiment harness use them as ground truth. The robust batch variant is
//! the Maronna (2005) alternating scheme the paper cites: iterate
//! {residuals → M-scale → weights → weighted mean/covariance → eigensystem}
//! to a fixed point. The streaming estimators' warm-up (`init_from_batch`)
//! is the classical one on the first `init_size` rows.

use crate::classic::decayed_count;
use crate::config::PcaConfig;
use crate::eigensystem::EigenSystem;
use crate::rho::Rho;
use crate::robust::mscale_fixed_point;
use crate::{PcaError, Result};
use spca_linalg::{eigen, gemm, svd, thin_qr, vecops, Mat};

/// Classical batch PCA: exact eigensystem of the sample covariance,
/// truncated to `p` components. Running sums are seeded as if the batch had
/// streamed through with α = 1.
pub fn batch_pca(data: &[Vec<f64>], p: usize) -> Result<EigenSystem> {
    let n = data.len();
    if n == 0 {
        return Err(PcaError::IncompatibleMerge("empty batch".into()));
    }
    let d = data[0].len();
    for x in data {
        if x.len() != d {
            return Err(PcaError::DimensionMismatch {
                expected: d,
                got: x.len(),
            });
        }
        if !vecops::all_finite(x) {
            return Err(PcaError::NotFinite);
        }
    }
    let mut mean = vec![0.0; d];
    for x in data {
        vecops::axpy(1.0, x, &mut mean);
    }
    vecops::scale(&mut mean, 1.0 / n as f64);

    let (basis, values) = covariance_eigensystem(data, &mean, None, p)?;

    let mut eig = EigenSystem {
        mean,
        basis,
        values,
        sigma2: 0.0,
        sum_u: n as f64,
        sum_v: n as f64,
        sum_q: 0.0,
        n_obs: n as u64,
    };
    let mean_r2 = data
        .iter()
        .map(|x| eig.residual_sq_truncated(x, p))
        .sum::<f64>()
        / n as f64;
    eig.sigma2 = mean_r2;
    eig.sum_q = n as f64 * mean_r2;
    Ok(eig)
}

/// Spherical (spatial-sign) PCA: the eigensystem of the covariance of the
/// unit-normalized, median-centered observations. Every point's influence
/// is bounded by construction, so the estimate survives heavy
/// contamination — the standard robust *initializer* for Maronna's M-scale
/// iteration, which otherwise has contaminated fixed points.
pub fn spherical_pca(data: &[Vec<f64>], p: usize) -> Result<EigenSystem> {
    let n = data.len();
    if n == 0 {
        return Err(PcaError::IncompatibleMerge("empty batch".into()));
    }
    let d = data[0].len();
    // Coordinate-wise median center.
    let mut center = vec![0.0; d];
    let mut scratch: Vec<f64> = Vec::with_capacity(n);
    for i in 0..d {
        scratch.clear();
        for x in data {
            if x.len() != d {
                return Err(PcaError::DimensionMismatch {
                    expected: d,
                    got: x.len(),
                });
            }
            scratch.push(x[i]);
        }
        scratch.sort_by(|a, b| a.partial_cmp(b).expect("finite data"));
        center[i] = if n % 2 == 1 {
            scratch[n / 2]
        } else {
            0.5 * (scratch[n / 2 - 1] + scratch[n / 2])
        };
    }
    // Spatial signs.
    let signs: Vec<Vec<f64>> = data
        .iter()
        .map(|x| {
            let mut s = vecops::sub(x, &center);
            vecops::normalize(&mut s);
            s
        })
        .collect();
    let zero = vec![0.0; d];
    let (basis, values) = covariance_eigensystem(&signs, &zero, None, p)?;
    let mut eig = EigenSystem {
        mean: center,
        basis,
        values,
        sigma2: 0.0,
        sum_u: n as f64,
        sum_v: n as f64,
        sum_q: 0.0,
        n_obs: n as u64,
    };
    let mean_r2 = data
        .iter()
        .map(|x| eig.residual_sq_truncated(x, p))
        .sum::<f64>()
        / n as f64;
    eig.sigma2 = mean_r2;
    eig.sum_q = n as f64 * mean_r2;
    Ok(eig)
}

/// Iterative robust batch PCA (Maronna-style M-scale PCA), initialized from
/// [`spherical_pca`] so the iteration starts in the basin of the
/// uncontaminated fixed point.
///
/// When the batch has fewer rows than dimensions (`n < d`, a warm-up
/// batch), the rows are factored once, `X = QR`, and the iterations run on
/// the `n`-dimensional columns of `R`: weighted mean, covariance
/// eigensystem, residuals, M-scale and subspace distance are all invariant
/// under the rotation `Q`, so this is the same iteration at `O(n³)` instead
/// of `O(dn²)` per step, and one product maps the basis and mean back. The
/// spherical start's coordinate-wise median is not rotation-invariant, so
/// it, and the first weights it yields, stay in the original coordinates.
///
/// Returns the converged eigensystem and the number of iterations taken.
pub fn batch_robust_pca(
    data: &[Vec<f64>],
    p: usize,
    rho: &dyn Rho,
    max_iters: usize,
) -> Result<(EigenSystem, usize)> {
    let n = data.len();
    if n == 0 {
        return Err(PcaError::IncompatibleMerge("empty batch".into()));
    }
    let start = spherical_pca(data, p)?;
    let d = start.dim();
    let mut r2: Vec<f64> = data
        .iter()
        .map(|x| start.residual_sq_truncated(x, p))
        .collect();
    let mut sigma2 = mscale_fixed_point(&r2, rho, 50);

    // The coordinates the iterations run in: the columns of R, or the rows.
    let q = (d > n && p < n)
        .then(|| thin_qr(&Mat::from_fn(d, n, |i, j| data[j][i])))
        .transpose()?;
    let r_cols: Vec<Vec<f64>>;
    let coords: &[Vec<f64>] = match &q {
        Some(f) => {
            r_cols = (0..n).map(|j| f.r.col(j).to_vec()).collect();
            &r_cols
        }
        None => data,
    };

    // The current fit in `coords`, once an iteration has produced one.
    let mut fit: Option<EigenSystem> = None;
    let mut iters = 0;
    for it in 0..max_iters {
        iters = it + 1;
        // Weights from the current fit.
        let sig = sigma2.max(1e-300);
        let w: Vec<f64> = r2.iter().map(|&r| rho.weight(r / sig)).collect();
        let wsum: f64 = w.iter().sum();
        if wsum <= 0.0 {
            // Everything rejected — degenerate contamination; bail with the
            // current estimate rather than dividing by zero.
            break;
        }

        // Weighted mean (eq. 6).
        let dc = coords[0].len();
        let mut mean = vec![0.0; dc];
        for (x, &wi) in coords.iter().zip(&w) {
            vecops::axpy(wi, x, &mut mean);
        }
        vecops::scale(&mut mean, 1.0 / wsum);

        // Weighted covariance eigensystem (eq. 7 up to the σ² prefactor,
        // which only rescales eigenvalues, not eigenvectors).
        let (basis, values) = covariance_eigensystem(coords, &mean, Some(&w), p)?;
        let mut next = EigenSystem::zeros(dc, p);
        (next.mean, next.basis, next.values) = (mean, basis, values);

        // New scale.
        r2 = coords
            .iter()
            .map(|x| next.residual_sq_truncated(x, p))
            .collect();
        let sigma2_new = mscale_fixed_point(&r2, rho, 50);

        let basis_drift = match (&fit, &q) {
            (Some(prev), _) => crate::metrics::subspace_distance(&prev.basis, &next.basis)?,
            (None, Some(f)) => {
                crate::metrics::subspace_distance(&start.basis, &gemm::gemm(&f.q, &next.basis)?)?
            }
            (None, None) => crate::metrics::subspace_distance(&start.basis, &next.basis)?,
        };
        let scale_drift = if sigma2 > 0.0 {
            ((sigma2_new - sigma2) / sigma2).abs()
        } else {
            1.0
        };
        sigma2 = sigma2_new;
        fit = Some(next);
        if basis_drift < 1e-8 && scale_drift < 1e-10 {
            break;
        }
    }
    let mut eig = match (fit, &q) {
        (None, _) => start,
        (Some(fit), None) => fit,
        (Some(fit), Some(f)) => {
            let mut eig = EigenSystem::zeros(d, p);
            eig.basis = gemm::gemm(&f.q, &fit.basis)?;
            eig.mean = f.q.matvec(&fit.mean)?;
            eig.values = fit.values;
            eig
        }
    };
    eig.sigma2 = sigma2;
    // Seed running sums consistently with the final weights.
    let sig = sigma2.max(1e-300);
    let w: Vec<f64> = r2.iter().map(|&r| rho.weight(r / sig)).collect();
    eig.sum_u = decayed_count(1.0, n);
    eig.sum_v = w.iter().sum();
    eig.sum_q = w.iter().zip(&r2).map(|(wi, ri)| wi * ri).sum();
    eig.n_obs = n as u64;
    Ok((eig, iters))
}

/// Top-`p` eigensystem of the (optionally weighted) sample covariance.
///
/// Chooses between the Gram trick (n ≤ d: SVD of the `n`-column centered
/// data matrix) and the explicit `d × d` covariance eigensolve (n > d),
/// both exact.
fn covariance_eigensystem(
    data: &[Vec<f64>],
    mean: &[f64],
    weights: Option<&[f64]>,
    p: usize,
) -> Result<(Mat, Vec<f64>)> {
    let n = data.len();
    let d = mean.len();
    let wsum: f64 = match weights {
        Some(w) => w.iter().sum(),
        None => n as f64,
    };
    // Weighted centered columns: C = Y Yᵀ / wsum.
    let mut y = Mat::zeros(d, n);
    for (j, x) in data.iter().enumerate() {
        let wj = weights.map_or(1.0, |w| w[j]);
        let s = (wj / wsum).max(0.0).sqrt();
        let col = y.col_mut(j);
        for ((o, &xi), &mi) in col.iter_mut().zip(x).zip(mean) {
            *o = s * (xi - mi);
        }
    }
    if d >= n {
        // Thin SVD of Y.
        let f = svd::thin_svd(&y)?;
        let k = p.min(f.s.len());
        let mut basis = Mat::zeros(d, p);
        let mut values = vec![0.0; p];
        for (j, val) in values.iter_mut().enumerate().take(k) {
            basis.col_mut(j).copy_from_slice(f.u.col(j));
            *val = f.s[j] * f.s[j];
        }
        fill_orthonormal_tail(&mut basis, k);
        Ok((basis, values))
    } else {
        // Explicit covariance + symmetric eigensolve.
        top_eigenpairs(&gemm::syrk(&y), p)
    }
}

/// The top `p` eigenpairs of the symmetric `d × d` covariance `cov`, the
/// basis completed to `p` orthonormal columns and the values clamped at 0.
fn top_eigenpairs(cov: &Mat, p: usize) -> Result<(Mat, Vec<f64>)> {
    let d = cov.rows();
    // Full Jacobi is O(d³) per sweep; for large covariances with few
    // requested components, block subspace iteration gets the same
    // eigenpairs in O(d²p) per step.
    let (vals, vecs) = if d > 128 && 8 * p < d {
        let r = spca_linalg::subspace::top_k_symmetric(cov, p, 1e-11, 400)?;
        (r.values, r.vectors)
    } else {
        let e = eigen::sym_eigen(cov)?;
        e.top_k(p)
    };
    let mut values = vals;
    values.resize(p, 0.0);
    let mut basis = Mat::zeros(d, p);
    for j in 0..vecs.cols() {
        basis.col_mut(j).copy_from_slice(vecs.col(j));
    }
    fill_orthonormal_tail(&mut basis, vecs.cols());
    Ok((basis, values.into_iter().map(|v| v.max(0.0)).collect()))
}

/// Initializes an eigensystem from a warm-up batch with plain batch PCA.
pub(crate) fn init_from_batch(cfg: &PcaConfig, batch: &[Vec<f64>]) -> Result<EigenSystem> {
    let n = batch.len();
    assert!(n > 0, "warm-up batch must be non-empty");
    let d = cfg.dim;
    let k = cfg.p_total().min(n.saturating_sub(1)).max(1);

    let mut mean = vec![0.0; d];
    for x in batch {
        vecops::axpy(1.0, x, &mut mean);
    }
    vecops::scale(&mut mean, 1.0 / n as f64);

    // Thin SVD of the centered data matrix (columns = observations) gives
    // the eigensystem of the sample covariance directly.
    let mut data = Mat::zeros(d, n);
    for (j, x) in batch.iter().enumerate() {
        let col = data.col_mut(j);
        for ((o, &xi), &mi) in col.iter_mut().zip(x).zip(&mean) {
            *o = xi - mi;
        }
    }
    // thin_svd requires rows >= cols; warm-up batches are small (n << d) in
    // the intended regime, but guard the other case by Gram eigensolve.
    let (basis, values) = if d >= n {
        let f = svd::thin_svd(&data)?;
        let mut basis = Mat::zeros(d, cfg.p_total());
        let mut values = vec![0.0; cfg.p_total()];
        for (j, val) in values.iter_mut().enumerate().take(k.min(f.s.len())) {
            basis.col_mut(j).copy_from_slice(f.u.col(j));
            *val = f.s[j] * f.s[j] / n as f64;
        }
        fill_orthonormal_tail(&mut basis, k);
        (basis, values)
    } else {
        let f = svd::thin_svd(&data.transpose())?;
        // data = (V S Uᵀ)ᵀ = U S Vᵀ with roles swapped: left vectors of
        // dataᵀ are right vectors of data.
        let mut basis = Mat::zeros(d, cfg.p_total());
        let mut values = vec![0.0; cfg.p_total()];
        for (j, val) in values.iter_mut().enumerate().take(k.min(f.s.len()).min(d)) {
            basis.col_mut(j).copy_from_slice(f.v.col(j));
            *val = f.s[j] * f.s[j] / n as f64;
        }
        fill_orthonormal_tail(&mut basis, k);
        (basis, values)
    };

    // Decayed count of the warm-up batch: Σ_{i=0}^{n-1} α^i.
    let u0 = decayed_count(cfg.alpha, n);

    let mut eig = EigenSystem {
        mean,
        basis,
        values,
        sigma2: 0.0,
        sum_u: u0,
        sum_v: u0,
        sum_q: 0.0,
        n_obs: n as u64,
    };
    // Mean residual over the batch seeds σ² (the robust path re-solves the
    // M-scale on top of this).
    let mean_r2 = batch
        .iter()
        .map(|x| eig.residual_sq_truncated(x, cfg.p))
        .sum::<f64>()
        / n as f64;
    eig.sigma2 = mean_r2;
    eig.sum_q = u0 * mean_r2;
    Ok(eig)
}

/// Completes columns `[k, basis.cols())` with arbitrary orthonormal
/// directions so the tracked basis always has full column rank, even when
/// the data rank is below the requested component count.
pub(crate) fn fill_orthonormal_tail(basis: &mut Mat, k: usize) {
    let (d, total) = basis.shape();
    let mut axis = 0;
    for j in k..total {
        'search: while axis < d {
            let mut cand = vec![0.0; d];
            cand[axis] = 1.0;
            axis += 1;
            for other in 0..j {
                let proj = vecops::dot(&cand, basis.col(other));
                vecops::axpy(-proj, basis.col(other), &mut cand);
            }
            if vecops::normalize(&mut cand) > 1e-6 {
                basis.col_mut(j).copy_from_slice(&cand);
                break 'search;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rho::Bisquare;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use spca_linalg::rng::standard_normal_vec;

    const D: usize = 10;

    fn planted(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                let c = standard_normal_vec(rng, 2);
                let mut x = vec![0.0; D];
                x[0] = 3.0 * c[0];
                x[1] = 1.5 * c[1];
                for xi in x.iter_mut() {
                    *xi += 0.02 * spca_linalg::rng::standard_normal(rng);
                }
                x
            })
            .collect()
    }

    #[test]
    fn batch_pca_finds_planted_axes() {
        let mut rng = StdRng::seed_from_u64(30);
        let data = planted(&mut rng, 800);
        let e = batch_pca(&data, 2).unwrap();
        assert!(e.basis[(0, 0)].abs() > 0.99);
        assert!(e.basis[(1, 1)].abs() > 0.99);
        assert!((e.values[0] - 9.0).abs() < 1.0, "λ1={}", e.values[0]);
        assert!((e.values[1] - 2.25).abs() < 0.4, "λ2={}", e.values[1]);
    }

    #[test]
    fn gram_trick_and_covariance_paths_agree() {
        let mut rng = StdRng::seed_from_u64(31);
        let data = planted(&mut rng, 60); // n > d → covariance path
        let small = &data[..8]; // n < d → Gram path
        let e1 = batch_pca(small, 2).unwrap();
        // Re-run the same data through the covariance branch by faking a
        // smaller d? Instead, just check both paths on their natural data
        // satisfy the residual identity: total variance = Σλ + mean r².
        for (e, set) in [
            (e1, small.to_vec()),
            (batch_pca(&data, 2).unwrap(), data.clone()),
        ] {
            let n = set.len() as f64;
            let total_var: f64 = set
                .iter()
                .map(|x| {
                    let y = e.center(x);
                    vecops::norm_sq(&y)
                })
                .sum::<f64>()
                / n;
            let explained: f64 = e.values.iter().sum();
            let resid: f64 = set
                .iter()
                .map(|x| e.residual_sq_truncated(x, 2))
                .sum::<f64>()
                / n;
            assert!(
                (total_var - explained - resid).abs() < 1e-6 * total_var.max(1.0),
                "variance bookkeeping: {total_var} vs {explained}+{resid}"
            );
        }
    }

    #[test]
    fn covariance_path_matches_the_full_product() {
        // The covariance as a general product of Y with its transpose, as
        // it was formed before the one-triangle product, through the same
        // eigensolve: the values agree to rounding and the subspaces to
        // the sine of their largest principal angle. d = 61 leaves five
        // rows outside the kernel's 8-row tiles; d = 200 takes the
        // subspace-iteration solver.
        let mut rng = StdRng::seed_from_u64(35);
        for (d, n, p) in [(61usize, 300usize, 5usize), (200, 400, 4)] {
            let mut mix = Mat::zeros(d, d);
            spca_linalg::rng::fill_standard_normal(&mut rng, mix.as_mut_slice());
            let data: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    // Scales 1, 1/2, 1/3, …: distinct eigenvalues.
                    let c: Vec<f64> = (0..d)
                        .map(|i| spca_linalg::rng::standard_normal(&mut rng) / (i + 1) as f64)
                        .collect();
                    mix.matvec(&c).unwrap()
                })
                .collect();
            let got = batch_pca(&data, p).unwrap();

            let mut y = Mat::zeros(d, n);
            let s = (1.0 / n as f64).sqrt();
            for (j, x) in data.iter().enumerate() {
                for ((o, &xi), &mi) in y.col_mut(j).iter_mut().zip(x).zip(&got.mean) {
                    *o = s * (xi - mi);
                }
            }
            let full = gemm::gemm(&y, &y.transpose()).unwrap();
            let (basis, values) = top_eigenpairs(&full, p).unwrap();

            for (a, b) in got.values.iter().zip(&values) {
                assert!((a - b).abs() <= 1e-12 * b.abs(), "d={d}: value {a} vs {b}");
            }
            // sin θ_max = ‖B − A·AᵀB‖₂ for orthonormal A and B; the
            // residual's norm keeps its precision where 1 − cos² does not.
            let atb = gemm::gemm(&got.basis.transpose(), &basis).unwrap();
            let resid = basis.sub(&gemm::gemm(&got.basis, &atb).unwrap()).unwrap();
            let sin = svd::thin_svd(&resid).unwrap().s[0];
            assert!(sin <= 1e-10, "d={d}: principal-angle sine {sin}");
        }
    }

    #[test]
    fn robust_batch_resists_contamination() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut data = planted(&mut rng, 500);
        // 15% gross outliers along axis 7.
        for _ in 0..75 {
            let mut x = vec![0.0; D];
            x[7] = 60.0 + 10.0 * rng.gen::<f64>();
            data.push(x);
        }
        let classic = batch_pca(&data, 2).unwrap();
        let (robust, iters) = batch_robust_pca(&data, 2, &Bisquare::default(), 50).unwrap();
        assert!(iters >= 1);
        let plane = |e: &EigenSystem| {
            let c = e.basis.col(0);
            c[0] * c[0] + c[1] * c[1]
        };
        assert!(
            plane(&robust) > 0.98,
            "robust plane energy {}",
            plane(&robust)
        );
        assert!(
            plane(&classic) < 0.5,
            "classic should be captured: {}",
            plane(&classic)
        );
    }

    #[test]
    fn robust_equals_classic_on_clean_data() {
        let mut rng = StdRng::seed_from_u64(33);
        let data = planted(&mut rng, 400);
        let classic = batch_pca(&data, 2).unwrap();
        let (robust, _) = batch_robust_pca(&data, 2, &Bisquare::default(), 50).unwrap();
        let dist = crate::metrics::subspace_distance(&classic.basis, &robust.basis).unwrap();
        assert!(dist < 0.02, "clean-data disagreement {dist}");
    }

    #[test]
    fn wide_batch_iterates_in_its_qr_coordinates_exactly() {
        // n < d: the iterations run on R's columns. The same iterations in
        // the original coordinates, written out here, agree to rounding.
        let (d, n, p) = (60usize, 20usize, 3usize);
        let mut rng = StdRng::seed_from_u64(34);
        let mut planted = Mat::zeros(d, p);
        spca_linalg::rng::fill_standard_normal(&mut rng, planted.as_mut_slice());
        let mut data: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let c = standard_normal_vec(&mut rng, p);
                let mut x = planted.matvec(&c).unwrap();
                vecops::axpy(0.1, &standard_normal_vec(&mut rng, d), &mut x);
                x
            })
            .collect();
        data[3][7] += 40.0; // one gross outlier
        let rho = Bisquare::default();
        let iters = 6;
        let (got, got_iters) = batch_robust_pca(&data, p, &rho, iters).unwrap();

        let mut eig = spherical_pca(&data, p).unwrap();
        let r2 = |e: &EigenSystem| -> Vec<f64> {
            data.iter().map(|x| e.residual_sq_truncated(x, p)).collect()
        };
        let mut sigma2 = mscale_fixed_point(&r2(&eig), &rho, 50);
        for _ in 0..iters {
            let w: Vec<f64> = r2(&eig).iter().map(|&r| rho.weight(r / sigma2)).collect();
            let wsum: f64 = w.iter().sum();
            let mut mean = vec![0.0; d];
            for (x, &wi) in data.iter().zip(&w) {
                vecops::axpy(wi / wsum, x, &mut mean);
            }
            let (basis, values) = covariance_eigensystem(&data, &mean, Some(&w), p).unwrap();
            (eig.mean, eig.basis, eig.values) = (mean, basis, values);
            sigma2 = mscale_fixed_point(&r2(&eig), &rho, 50);
        }
        assert_eq!(got_iters, iters);
        let scale = eig.values[0];
        for (a, b) in got.values.iter().zip(&eig.values) {
            assert!((a - b).abs() <= 1e-9 * scale, "value {a} vs {b}");
        }
        for (a, b) in got.mean.iter().zip(&eig.mean) {
            assert!((a - b).abs() <= 1e-9, "mean {a} vs {b}");
        }
        assert!((got.sigma2 - sigma2).abs() <= 1e-9 * sigma2);
        let dist = crate::metrics::subspace_distance(&got.basis, &eig.basis).unwrap();
        assert!(dist < 1e-7, "subspace distance {dist}");
        got.check_invariants().unwrap();
    }

    #[test]
    fn empty_batch_rejected() {
        assert!(batch_pca(&[], 2).is_err());
        assert!(batch_robust_pca(&[], 2, &Bisquare::default(), 10).is_err());
    }

    #[test]
    fn ragged_batch_rejected() {
        let data = vec![vec![0.0; 4], vec![0.0; 5]];
        assert!(matches!(
            batch_pca(&data, 1),
            Err(PcaError::DimensionMismatch { .. })
        ));
    }
}
