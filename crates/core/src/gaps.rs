//! Missing-data handling (§II-D).
//!
//! Spectra arrive with gaps — masked pixels, and redshift-dependent
//! wavelength coverage. Following Connolly & Szalay (1999) as extended by
//! the paper, each incomplete vector is *patched* by an unbiased
//! reconstruction from the current eigenbasis before entering the streaming
//! update. Patching removes the residual in the missing bins, which would
//! bias the robust weights toward gappy spectra; the fix (paper §II-D, last
//! paragraph) is to solve for `p + q` components and estimate the missing
//! bins' residual from the difference between the `p`- and `(p+q)`-term
//! reconstructions.

use crate::eigensystem::EigenSystem;
use crate::{PcaError, Result};
use spca_linalg::solve::{spd_solve_into, SolveWorkspace};
use spca_linalg::{vecops, Mat};

/// Reusable buffers for [`fill_gaps_into`].
#[derive(Debug, Clone, Default)]
pub struct GapWorkspace {
    /// The gap-filled observation, valid after a successful call: missing
    /// bins replaced by the eigenbasis reconstruction `µ + E c` evaluated
    /// at those bins.
    pub filled: Vec<f64>,
    /// Indices of the missing bins, ascending — the one scan of the mask.
    miss: Vec<usize>,
    /// `M(x − µ)`: the centered observation with missing bins zeroed, later
    /// overwritten by its own residual.
    y: Vec<f64>,
    /// Column scratch of the Gram builds: the missing rows of `E` gathered
    /// contiguously, or one basis column with its missing bins zeroed.
    cols: Vec<f64>,
    g: Mat,
    b: Vec<f64>,
    solve: SolveWorkspace,
}

impl GapWorkspace {
    /// Records the missing bins of `mask` and returns their count; all else
    /// works from this list, so the mask is read once per observation.
    pub(crate) fn scan(&mut self, mask: &[bool]) -> usize {
        self.miss.clear();
        self.miss
            .extend(mask.iter().enumerate().filter(|(_, &m)| !m).map(|(i, _)| i));
        self.miss.len()
    }
}

/// Patches the missing entries of `x` using the eigensystem's top `p + q`
/// components into `ws.filled` and returns the bias-corrected squared
/// residual for the robust weighting: the observed-bin residual plus the
/// higher-order estimate of the missing-bin residual. No allocation
/// happens once the buffers have grown to size.
///
/// `mask[i] == true` marks an observed bin.
pub fn fill_gaps_into(
    eig: &EigenSystem,
    x: &[f64],
    mask: &[bool],
    p: usize,
    q: usize,
    ws: &mut GapWorkspace,
) -> Result<f64> {
    let d = eig.dim();
    if x.len() != d || mask.len() != d {
        return Err(PcaError::DimensionMismatch {
            expected: d,
            got: x.len(),
        });
    }
    if ws.scan(mask) == d {
        return Err(PcaError::AllMissing);
    }
    fill_scanned(eig, x, p, q, ws)
}

/// [`fill_gaps_into`] after [`GapWorkspace::scan`]: `x` has the
/// eigensystem's dimension and at least one bin is observed. Every
/// `d`-length step runs down a contiguous basis column with the dispatched
/// kernels; only the missing bins are touched one at a time.
pub(crate) fn fill_scanned(
    eig: &EigenSystem,
    x: &[f64],
    p: usize,
    q: usize,
    ws: &mut GapWorkspace,
) -> Result<f64> {
    let k = (p + q).min(eig.n_components());
    let p = p.min(k);

    ws.filled.clear();
    ws.filled.extend_from_slice(x);
    eig.center_into(x, &mut ws.y);
    for &i in &ws.miss {
        ws.y[i] = 0.0; // whatever x holds there (often NaN) carries no information
    }

    // Solve the masked least squares (Eᵀ M E) c = Eᵀ M y over the top-k
    // basis, where M zeroes the missing bins.
    masked_coefficients_into(eig, k, ws)?;
    let GapWorkspace {
        filled,
        miss,
        y,
        solve,
        ..
    } = ws;
    let coeffs = &solve.x;

    // y ← M(x−µ) − E_p c: the p-term residual at the observed bins, minus
    // the p-term reconstruction at the missing ones.
    for (j, &c) in coeffs.iter().enumerate().take(p) {
        vecops::axpy(-c, eig.basis.col(j), y);
    }
    // Missing bins: fill with the k-term reconstruction; their unknown
    // residual is approximated by the spread between the two truncations
    // (§II-D), i.e. the terms p..k alone.
    let mut r2_miss = 0.0;
    for &i in miss.iter() {
        let tail: f64 = (p..k).map(|j| coeffs[j] * eig.basis.col(j)[i]).sum();
        filled[i] = eig.mean[i] - y[i] + tail;
        r2_miss += tail * tail;
        y[i] = 0.0;
    }
    Ok(vecops::norm_sq(y) + r2_miss)
}

/// Builds the Gram matrix and right-hand side for `ws.miss` and the masked
/// centered observation `ws.y`; the coefficients land in `ws.solve.x`.
///
/// The Gram build exploits the orthonormality of the eigenbasis: with
/// `M` zeroing the missing bins, `EᵀME = EᵀE − E_missᵀE_miss =
/// I_k − E_missᵀE_miss`, so when fewer than half the bins are missing the
/// `k × k` Gram is assembled from the `m` *missing* rows in O(m·k²)
/// instead of scanning all `d` observed rows. Gappy astronomical spectra
/// are overwhelmingly in that regime (a few masked pixels out of
/// thousands of bins). The observed-row build remains for heavily-masked
/// inputs, where it is the cheaper of the two.
fn masked_coefficients_into(eig: &EigenSystem, k: usize, ws: &mut GapWorkspace) -> Result<()> {
    let GapWorkspace {
        miss,
        y,
        cols,
        g,
        b,
        solve,
        ..
    } = ws;
    let k = k.min(eig.n_components());
    if k == 0 {
        solve.x.clear();
        return Ok(());
    }
    if 2 * miss.len() < eig.dim() {
        masked_gram_from_missing(eig, miss, k, g, cols);
    } else {
        masked_gram_observed(eig, miss, k, g, cols);
    }
    // b = EᵀM(x−µ): the zeroed bins of y drop out of each column dot.
    b.clear();
    b.extend((0..k).map(|a| vecops::dot(eig.basis.col(a), y)));
    spd_solve_into(g, b, solve)?;
    Ok(())
}

/// Builds `G = EᵀME` (`k × k`) over the observed bins: each column is
/// copied with its missing bins zeroed, then dotted against the columns
/// from itself onwards — O(d·k²) in dispatched length-`d` dots.
fn masked_gram_observed(
    eig: &EigenSystem,
    miss: &[usize],
    k: usize,
    g: &mut Mat,
    col: &mut Vec<f64>,
) {
    g.reset_zeroed(k, k);
    for a in 0..k {
        col.clear();
        col.extend_from_slice(eig.basis.col(a));
        for &i in miss {
            col[i] = 0.0;
        }
        for c in a..k {
            let v = vecops::dot(col, eig.basis.col(c));
            g[(a, c)] = v;
            g[(c, a)] = v;
        }
    }
}

/// Builds `G = I_k − E_missᵀE_miss` from the missing rows only — O(m·k²):
/// the `m` missing entries of every column are gathered into contiguous
/// runs of `rows`, and the Gram is their pairwise dots.
///
/// Valid because the eigenbasis columns are orthonormal (`EᵀE = I_k`),
/// which the streaming update maintains by construction (it only ever
/// rotates `[E | r̂]` by an orthogonal core factor).
fn masked_gram_from_missing(
    eig: &EigenSystem,
    miss: &[usize],
    k: usize,
    g: &mut Mat,
    rows: &mut Vec<f64>,
) {
    g.reset_identity(k);
    let m = miss.len();
    rows.clear();
    for a in 0..k {
        let col = eig.basis.col(a);
        rows.extend(miss.iter().map(|&i| col[i]));
    }
    for a in 0..k {
        for c in a..k {
            let v = vecops::dot(&rows[a * m..(a + 1) * m], &rows[c * m..(c + 1) * m]);
            g[(a, c)] -= v;
            g[(c, a)] = g[(a, c)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eigensystem spanning axes 0 and 1 of R⁵ with mean (1,..,1).
    fn system() -> EigenSystem {
        let mut e = EigenSystem::zeros(5, 3);
        e.basis[(0, 0)] = 1.0;
        e.basis[(1, 1)] = 1.0;
        e.basis[(2, 2)] = 1.0; // extra (q) component on axis 2
        e.values = vec![4.0, 2.0, 0.5];
        e.mean = vec![1.0; 5];
        e.sigma2 = 0.1;
        e
    }

    #[test]
    fn complete_mask_reproduces_plain_residual() {
        let e = system();
        let x = vec![3.0, 2.0, 1.5, 1.2, 0.8];
        let mask = vec![true; 5];
        let mut gf = GapWorkspace::default();
        let r2 = fill_gaps_into(&e, &x, &mask, 2, 1, &mut gf).unwrap();
        assert_eq!(gf.filled, x);
        assert!((r2 - e.residual_sq_truncated(&x, 2)).abs() < 1e-12);
    }

    #[test]
    fn missing_bin_filled_from_basis() {
        let e = system();
        // True point: mean + 2·e0 + 1·e1 → (3, 2, 1, 1, 1). Hide bin 0.
        let x = vec![999.0, 2.0, 1.0, 1.0, 1.0];
        let mask = vec![false, true, true, true, true];
        let mut gf = GapWorkspace::default();
        let r2 = fill_gaps_into(&e, &x, &mask, 2, 1, &mut gf).unwrap();
        // Bin 0 can only be explained by e0, whose coefficient is
        // unconstrained by the observed bins → least squares sets it to 0,
        // so the fill equals the mean.
        assert!((gf.filled[0] - 1.0).abs() < 1e-9, "filled {:?}", gf.filled);
        // Observed bins exactly on the model → zero residual.
        assert!(r2 < 1e-12, "r² = {}", r2);
    }

    #[test]
    fn fill_recovers_in_plane_point() {
        let e = system();
        // Point with correlated structure: e1 coefficient visible in bin 1.
        let x = vec![1.0, 4.0, 1.0, 1.0, 1.0]; // mean + 3·e1
        let mask = vec![true, false, true, true, true];
        // Hide bin 1: coefficient of e1 is unconstrained → fill = mean.
        let mut gf = GapWorkspace::default();
        fill_gaps_into(&e, &x, &mask, 2, 1, &mut gf).unwrap();
        assert!((gf.filled[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn higher_order_residual_counts_missing_energy() {
        let e = system();
        // Observed bins carry energy on the extra axis-2 component: the
        // p=2 reconstruction misses it, the k=3 one captures it.
        let x = vec![1.0, 1.0, 3.0, 1.0, 999.0];
        let mask = vec![true, true, true, true, false];
        let mut gf = GapWorkspace::default();
        let r2 = fill_gaps_into(&e, &x, &mask, 2, 1, &mut gf).unwrap();
        // Observed residual w.r.t. p=2: bin 2 deviates by 2.
        assert!((r2 - 4.0).abs() < 1e-9, "r² = {}", r2);
        // Missing bin 4 is off-basis entirely: filled with the k-term
        // reconstruction = mean there.
        assert!((gf.filled[4] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_missing_is_error() {
        let e = system();
        let x = vec![0.0; 5];
        assert_eq!(
            fill_gaps_into(&e, &x, &[false; 5], 2, 1, &mut GapWorkspace::default()).unwrap_err(),
            PcaError::AllMissing
        );
    }

    #[test]
    fn masked_coefficients_match_projection_when_complete() {
        let e = system();
        let x = vec![2.5, 0.5, 1.0, 1.0, 1.0];
        let mask = vec![true; 5];
        let c = masked_coefficients(&e, &x, &mask, 2);
        let y = e.center(&x);
        let proj = e.project(&y);
        assert!((c[0] - proj[0]).abs() < 1e-9);
        assert!((c[1] - proj[1]).abs() < 1e-9);
    }

    /// Least-squares coefficients of `x − µ` on the top-`k` eigenvectors
    /// restricted to the observed bins.
    fn masked_coefficients(e: &EigenSystem, x: &[f64], mask: &[bool], k: usize) -> Vec<f64> {
        let mut ws = GapWorkspace::default();
        ws.scan(mask);
        e.center_into(x, &mut ws.y);
        for &i in &ws.miss {
            ws.y[i] = 0.0;
        }
        masked_coefficients_into(e, k, &mut ws).unwrap();
        ws.solve.x
    }

    /// Reference Gram `G = EᵀME`, one observed bin at a time — the
    /// construction both production builds are checked against.
    fn masked_gram_dense(eig: &EigenSystem, mask: &[bool], k: usize, g: &mut Mat) {
        g.reset_zeroed(k, k);
        for (i, _) in mask.iter().enumerate().filter(|(_, &m)| m) {
            for a in 0..k {
                for c in 0..k {
                    g[(a, c)] += eig.basis[(i, a)] * eig.basis[(i, c)];
                }
            }
        }
    }

    /// A d×k eigensystem with a random (QR-orthonormalized) basis.
    fn random_orthonormal_system(d: usize, k: usize, seed: u64) -> EigenSystem {
        use spca_linalg::qr::orthonormalize;
        use spca_linalg::rng::fill_standard_normal;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let mut m = Mat::zeros(d, k);
        fill_standard_normal(&mut rng, m.as_mut_slice());
        let mut e = EigenSystem::zeros(d, k);
        e.basis = orthonormalize(&m).unwrap();
        e.values = (0..k).map(|j| (k - j) as f64).collect();
        e.mean = (0..d).map(|i| (i % 7) as f64 * 0.1).collect();
        e.sigma2 = 0.1;
        e
    }

    #[test]
    fn both_gram_builds_match_dense_on_orthonormal_basis() {
        // The O(m·k²) missing-row construction and the column-wise
        // observed-bin build must both agree (up to rounding) with the
        // bin-by-bin reference whenever the basis is orthonormal — over
        // sparse, clustered, heavy and empty masks.
        let (d, k) = (60usize, 5usize);
        let e = random_orthonormal_system(d, k, 7);
        for (name, missing) in [
            ("none", vec![]),
            ("one", vec![3usize]),
            ("sparse", vec![0, 9, 17, 41, 59]),
            ("clustered", (20..35).collect::<Vec<_>>()),
            ("heavy", (0..60).filter(|i| i % 4 != 0).collect::<Vec<_>>()),
        ] {
            let mut mask = vec![true; d];
            for &i in &missing {
                mask[i] = false;
            }
            let mut dense = Mat::default();
            masked_gram_dense(&e, &mask, k, &mut dense);
            let (mut fast, mut observed) = (Mat::default(), Mat::default());
            let mut scratch = Vec::new();
            masked_gram_from_missing(&e, &missing, k, &mut fast, &mut scratch);
            masked_gram_observed(&e, &missing, k, &mut observed, &mut scratch);
            for (which, got) in [("from_missing", &fast), ("observed", &observed)] {
                let diff = got.sub(&dense).unwrap().max_abs();
                assert!(diff < 1e-12, "{name}/{which}: max diff {diff}");
            }
        }
    }

    #[test]
    fn fast_path_coefficients_match_dense_construction() {
        // On a lightly-masked spectrum the production path takes the
        // missing-row Gram; solving the same system with the dense
        // observed-row Gram must give the same coefficients.
        let (d, k) = (50usize, 4usize);
        let e = random_orthonormal_system(d, k, 11);
        let x: Vec<f64> = (0..d).map(|i| (i as f64 * 0.3).sin() + 1.0).collect();
        let mut mask = vec![true; d];
        for i in [2usize, 13, 27, 44] {
            mask[i] = false;
        }
        // Production path (m = 4 < d/2 → fast Gram).
        let fast = masked_coefficients(&e, &x, &mask, k);
        // Reference: dense Gram + identical rhs, solved the same way.
        let mut g = Mat::default();
        masked_gram_dense(&e, &mask, k, &mut g);
        let mut b = vec![0.0; k];
        for i in 0..d {
            if mask[i] {
                let yi = x[i] - e.mean[i];
                for (a, ba) in b.iter_mut().enumerate() {
                    *ba += e.basis[(i, a)] * yi;
                }
            }
        }
        let mut dense = SolveWorkspace::default();
        spd_solve_into(&g, &b, &mut dense).unwrap();
        for (f, r) in fast.iter().zip(&dense.x) {
            assert!((f - r).abs() < 1e-10 * (1.0 + r.abs()), "{f} vs {r}");
        }
    }

    #[test]
    fn dimension_mismatch_detected() {
        let e = system();
        assert!(matches!(
            fill_gaps_into(
                &e,
                &[0.0; 4],
                &[true; 4],
                2,
                1,
                &mut GapWorkspace::default()
            ),
            Err(PcaError::DimensionMismatch { .. })
        ));
    }
}
