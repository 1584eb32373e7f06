//! One-sided Jacobi singular value decomposition.
//!
//! The eigensystem algebra factors tall, very thin matrices — the merge
//! step's `R^{d×2p}` (eq. 16), the warm-up batch, the batch baselines.
//! One-sided Jacobi suits them: it works directly on columns (contiguous in
//! our layout), converges in a handful of sweeps for nearly-orthogonal
//! inputs — which these are, their leading columns coming from orthonormal
//! eigenbases — and it delivers high relative accuracy on the small
//! singular values that decide where the eigenspectrum is truncated. The
//! per-tuple `(p+1) × (p+1)` core is not factored here: its Gram matrix is
//! diagonal plus rank one, which [`crate::secular`] solves directly.

use crate::mat::Mat;
use crate::qr::{thin_qr_into, QrWorkspace};
use crate::{kernels, vecops};
use crate::{LinalgError, Result};

/// Thin SVD `A = U · diag(s) · Vᵀ` with `U` `m × n` column-orthonormal,
/// `s` non-negative and sorted descending, `V` `n × n` orthogonal.
#[derive(Debug, Clone)]
pub struct ThinSvd {
    /// Left singular vectors (`m × n`).
    pub u: Mat,
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Right singular vectors (`n × n`).
    pub v: Mat,
}

impl ThinSvd {
    /// Reconstructs `U · diag(s) · Vᵀ`.
    pub fn reconstruct(&self) -> Mat {
        let mut us = self.u.clone();
        for (j, &sj) in self.s.iter().enumerate() {
            vecops::scale(us.col_mut(j), sj);
        }
        us.matmul(&self.v.transpose())
            .expect("shapes agree by construction")
    }

    /// Numerical rank at relative tolerance `rtol` (relative to `s[0]`).
    pub fn rank(&self, rtol: f64) -> usize {
        let cutoff = self.s.first().copied().unwrap_or(0.0) * rtol;
        self.s.iter().take_while(|&&sv| sv > cutoff).count()
    }
}

/// Maximum number of Jacobi sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 60;

/// Relative off-diagonal tolerance for declaring a column pair orthogonal.
const TOL: f64 = 5e-13;

/// Reusable buffers for [`thin_svd_into`].
///
/// A caller that factors same-shaped matrices repeatedly holds one of
/// these, and the SVD then runs with zero heap allocations once the
/// buffers have grown to size. The output fields are public; the scratch
/// fields are internal.
#[derive(Debug, Clone, Default)]
pub struct SvdWorkspace {
    /// Left singular vectors (`m × n`), valid after a successful call.
    pub u: Mat,
    /// Singular values, descending, valid after a successful call.
    pub s: Vec<f64>,
    /// Right singular vectors (`n × n`), valid after a successful call.
    pub v: Mat,
    work: Mat,
    vwork: Mat,
    norms2: Vec<f64>,
    order: Vec<usize>,
    cand: Vec<f64>,
    qr: QrWorkspace,
}

/// Computes the thin SVD of `a` (requires `rows ≥ cols`).
///
/// Zero columns are tolerated (they yield zero singular values with
/// arbitrary-but-orthonormal left vectors filled from the identity
/// completion).
pub fn thin_svd(a: &Mat) -> Result<ThinSvd> {
    let mut ws = SvdWorkspace::default();
    thin_svd_into(a, &mut ws)?;
    Ok(ThinSvd {
        u: ws.u,
        s: ws.s,
        v: ws.v,
    })
}

/// Computes the thin SVD of `a` into the workspace (semantics of
/// [`thin_svd`], which is a thin wrapper over this).
///
/// Results land in `ws.u`, `ws.s`, `ws.v`; on error their contents are
/// unspecified. The result is bitwise identical to a fresh workspace: the
/// column-norm² cache only ever holds values that a plain `norm_sq` on the
/// same column data would return, so reuse cannot drift.
pub fn thin_svd_into(a: &Mat, ws: &mut SvdWorkspace) -> Result<()> {
    let (m, n) = a.shape();
    if m < n {
        return Err(LinalgError::ShapeMismatch {
            expected: "rows >= cols for thin SVD".to_string(),
            got: (m, n),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    if n == 0 {
        ws.u.reset_zeroed(m, 0);
        ws.s.clear();
        ws.v.reset_zeroed(0, 0);
        return Ok(());
    }

    // A tall input is factored `A = QR` first and the sweeps run on the
    // `n × n` triangle: each sweep then costs `O(n³)` instead of `O(mn²)`,
    // and `U = Q·U_R`. The singular values and `V` are those of `R`.
    if m >= 2 * n {
        let mut qr = std::mem::take(&mut ws.qr);
        thin_qr_into(a, &mut qr)?;
        jacobi_into(&qr.r, m, ws)?;
        ws.work.reset_zeroed(m, n);
        kernels::gemm_block(
            m,
            n,
            n,
            qr.q.as_slice(),
            ws.u.as_slice(),
            ws.work.as_mut_slice(),
        );
        std::mem::swap(&mut ws.u, &mut ws.work);
        ws.qr = qr;
        return Ok(());
    }
    jacobi_into(a, m, ws)
}

/// One-sided Jacobi on the columns of `a` into `ws.u`, `ws.s`, `ws.v`;
/// `rows` is the height of the matrix `a` stands for (its own, or the
/// input's when `a` is its triangular factor), which sets the noise floor.
fn jacobi_into(a: &Mat, rows: usize, ws: &mut SvdWorkspace) -> Result<()> {
    let (m, n) = a.shape();
    // Destructure for disjoint borrows: `work`/`vwork` are rotated in the
    // sweep loop while `u`/`s`/`v` receive the sorted, normalized output.
    let SvdWorkspace {
        u: su,
        s,
        v: sv,
        work: u,
        vwork: v,
        norms2,
        order,
        cand,
        ..
    } = ws;
    u.copy_from(a);
    v.reset_identity(n);

    // Column-norm² cache. An entry is refreshed with `norm_sq` whenever its
    // column is rotated, so every read sees exactly what recomputing from
    // the column would give; only the p·q cross terms need fresh dots.
    norms2.clear();
    norms2.extend((0..n).map(|j| vecops::norm_sq(u.col(j))));

    let mut converged = false;
    let mut sweeps = 0;
    while sweeps < MAX_SWEEPS {
        sweeps += 1;
        // Columns whose norm is below numerical rank (relative to the
        // largest column) contribute singular values ≤ eps·‖A‖ and must be
        // excluded from rotations: rotating two noise columns against each
        // other never converges because their inner products are pure
        // rounding error.
        let max_nrm2 = norms2.iter().fold(0.0_f64, |acc, &x| acc.max(x));
        let negligible = max_nrm2 * (f64::EPSILON * f64::EPSILON);
        if max_nrm2 == 0.0 {
            converged = true;
            break;
        }
        let mut off = 0.0_f64;
        for p in 0..n - 1 {
            for q in (p + 1)..n {
                let (app, aqq) = (norms2[p], norms2[q]);
                if app <= negligible || aqq <= negligible {
                    continue;
                }
                let apq = vecops::dot(u.col(p), u.col(q));
                // The product overflows for column norms above ~1e77 and
                // underflows below ~1e-77; only then take the roots first,
                // so every in-range bit stays that of `√(app·aqq)`.
                let prod = app * aqq;
                let denom = if prod.is_normal() {
                    prod.sqrt()
                } else {
                    app.sqrt() * aqq.sqrt()
                };
                let rel = apq.abs() / denom;
                off = off.max(rel);
                if rel <= TOL {
                    continue;
                }
                // Jacobi rotation that zeroes the (p,q) Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s_rot = c * t;
                rotate_cols(u, p, q, c, s_rot);
                rotate_cols(v, p, q, c, s_rot);
                norms2[p] = vecops::norm_sq(u.col(p));
                norms2[q] = vecops::norm_sq(u.col(q));
            }
        }
        if off <= TOL {
            converged = true;
            break;
        }
    }
    if !converged {
        // One-sided Jacobi stalls only on pathological inputs; the state is
        // still usable (columns are orthogonal to ~sqrt(eps)), but callers
        // should know.
        return Err(LinalgError::NoConvergence {
            routine: "thin_svd",
            sweeps,
        });
    }

    // Singular values are the column norms; normalize U. Columns below
    // numerical rank are pure rounding noise: normalizing them would yield
    // unit vectors with O(1) overlap against the true singular vectors, so
    // they are zeroed here and re-completed orthonormally below. Sorting on
    // norms² gives the same order as sorting on norms (sqrt is monotone).
    order.clear();
    order.extend(0..n);
    let max_nrm2 = norms2.iter().fold(0.0_f64, |acc, &x| acc.max(x));
    let noise_floor = max_nrm2.sqrt() * f64::EPSILON * (rows as f64).sqrt();
    order.sort_by(|&i, &j| norms2[j].partial_cmp(&norms2[i]).expect("finite norms"));

    su.reset_zeroed(m, n);
    sv.reset_zeroed(n, n);
    s.clear();
    for (dst, &src) in order.iter().enumerate() {
        let nrm = norms2[src].sqrt();
        if nrm > noise_floor {
            s.push(nrm);
            let inv = 1.0 / nrm;
            for (o, &i) in su.col_mut(dst).iter_mut().zip(u.col(src)) {
                *o = i * inv;
            }
        } else {
            s.push(0.0);
        }
        sv.col_mut(dst).copy_from_slice(v.col(src));
    }

    // Complete zero columns of U with unit vectors orthogonal to the rest so
    // U stays column-orthonormal even for rank-deficient input.
    complete_zero_columns(su, s, cand);

    Ok(())
}

/// Applies the rotation `[c -s; s c]` to columns `(p, q)` of `m` via the
/// dispatched plane-rotation kernel.
#[inline]
fn rotate_cols(m: &mut Mat, p: usize, q: usize, c: f64, s: f64) {
    let (cp, cq) = m.two_cols_mut(p, q);
    crate::kernels::rotate2(cp, cq, c, s);
}

/// Replaces zero columns of `u` (those with `s[j] == 0`) by unit vectors
/// orthonormal to all existing columns, via Gram–Schmidt against the basis.
/// `cand` is caller-owned scratch for the trial vector.
fn complete_zero_columns(u: &mut Mat, s: &[f64], cand: &mut Vec<f64>) {
    let (m, n) = u.shape();
    for j in 0..n {
        if s[j] > 0.0 {
            continue;
        }
        // Try coordinate axes until one survives projection.
        'axes: for axis in 0..m {
            cand.clear();
            cand.resize(m, 0.0);
            cand[axis] = 1.0;
            for k in 0..n {
                if k == j || (s.get(k).copied().unwrap_or(0.0) == 0.0 && k > j) {
                    continue;
                }
                let proj = vecops::dot(cand, u.col(k));
                vecops::axpy(-proj, u.col(k), cand);
            }
            if vecops::normalize(cand) > 1e-8 {
                u.col_mut(j).copy_from_slice(cand);
                break 'axes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fill_standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Mat::zeros(rows, cols);
        fill_standard_normal(&mut rng, m.as_mut_slice());
        m
    }

    fn assert_orthonormal_cols(q: &Mat, tol: f64) {
        let g = q.gram();
        for i in 0..q.cols() {
            for j in 0..q.cols() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - want).abs() < tol, "G[{i},{j}]={}", g[(i, j)]);
            }
        }
    }

    #[test]
    fn svd_reconstructs_random_tall() {
        let a = random(40, 6, 21);
        let svd = thin_svd(&a).unwrap();
        assert!(svd.reconstruct().sub(&a).unwrap().max_abs() < 1e-9);
        assert_orthonormal_cols(&svd.u, 1e-10);
        assert_orthonormal_cols(&svd.v, 1e-10);
    }

    #[test]
    fn column_norms_far_from_one_neither_overflow_nor_underflow() {
        // Square (Jacobi on A itself) and tall (Jacobi on R of A = QR).
        for (rows, cols) in [(6, 6), (40, 6)] {
            let a = random(rows, cols, 23);
            let unit = thin_svd(&a).unwrap();
            for exp in [498, -498] {
                let f = 2.0f64.powi(exp);
                let mut scaled = a.clone();
                scaled.as_mut_slice().iter_mut().for_each(|v| *v *= f);
                let svd = thin_svd(&scaled).unwrap();
                for (s, u) in svd.s.iter().zip(&unit.s) {
                    assert!(
                        (s / f - u).abs() <= 1e-12 * unit.s[0],
                        "2^{exp}: {s} vs {u}"
                    );
                }
                assert_orthonormal_cols(&svd.u, 1e-10);
                assert_orthonormal_cols(&svd.v, 1e-10);
            }
        }
    }

    #[test]
    fn singular_values_sorted_nonnegative() {
        let a = random(25, 8, 22);
        let svd = thin_svd(&a).unwrap();
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn known_diagonal_case() {
        // A = diag(3, 2) padded: singular values are exactly 3 and 2.
        let mut a = Mat::zeros(4, 2);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 2.0;
        let svd = thin_svd(&a).unwrap();
        assert!((svd.s[0] - 3.0).abs() < 1e-12);
        assert!((svd.s[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rank_deficient_input() {
        // Second column is 2x the first: rank 1.
        let mut a = Mat::zeros(5, 2);
        for i in 0..5 {
            a[(i, 0)] = (i + 1) as f64;
            a[(i, 1)] = 2.0 * (i + 1) as f64;
        }
        let svd = thin_svd(&a).unwrap();
        assert!(svd.s[1] < 1e-10 * svd.s[0]);
        assert_eq!(svd.rank(1e-8), 1);
        assert_orthonormal_cols(&svd.u, 1e-8);
        assert!(svd.reconstruct().sub(&a).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn zero_matrix() {
        let a = Mat::zeros(6, 3);
        let svd = thin_svd(&a).unwrap();
        assert!(svd.s.iter().all(|&x| x == 0.0));
        assert_orthonormal_cols(&svd.u, 1e-12);
    }

    #[test]
    fn single_column() {
        let mut a = Mat::zeros(3, 1);
        a[(0, 0)] = 3.0;
        a[(1, 0)] = 4.0;
        let svd = thin_svd(&a).unwrap();
        assert!((svd.s[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn wide_rejected() {
        assert!(thin_svd(&Mat::zeros(2, 4)).is_err());
    }

    #[test]
    fn singular_values_match_frobenius_norm() {
        let a = random(30, 5, 23);
        let svd = thin_svd(&a).unwrap();
        // sum of squared singular values == squared Frobenius norm
        let ss: f64 = svd.s.iter().map(|x| x * x).sum();
        let fro2 = a.fro_norm().powi(2);
        assert!((ss - fro2).abs() < 1e-8 * fro2);
    }

    #[test]
    fn empty_matrix() {
        let svd = thin_svd(&Mat::zeros(5, 0)).unwrap();
        assert!(svd.s.is_empty());
    }

    #[test]
    fn workspace_reuse_across_shapes_matches_fresh() {
        // One workspace driven through growing, shrinking and degenerate
        // shapes must agree exactly with a fresh decomposition each time.
        let mut ws = SvdWorkspace::default();
        for (rows, cols, seed) in [
            (12usize, 4usize, 31u64),
            (30, 7, 32),
            (5, 2, 33),
            (8, 0, 34),
            (20, 20, 35),
        ] {
            let a = random(rows, cols, seed);
            thin_svd_into(&a, &mut ws).unwrap();
            let fresh = thin_svd(&a).unwrap();
            assert_eq!(ws.s, fresh.s, "{rows}x{cols}");
            assert_eq!(ws.u, fresh.u, "{rows}x{cols}");
            assert_eq!(ws.v, fresh.v, "{rows}x{cols}");
        }
    }

    #[test]
    fn workspace_reuse_after_rank_deficient() {
        let mut ws = SvdWorkspace::default();
        // Rank-deficient first (exercises the zero-column completion and its
        // cand scratch), full-rank second.
        let mut a = Mat::zeros(5, 2);
        for i in 0..5 {
            a[(i, 0)] = (i + 1) as f64;
            a[(i, 1)] = 2.0 * (i + 1) as f64;
        }
        thin_svd_into(&a, &mut ws).unwrap();
        let b = random(6, 3, 36);
        thin_svd_into(&b, &mut ws).unwrap();
        let fresh = thin_svd(&b).unwrap();
        assert_eq!(ws.s, fresh.s);
        assert_eq!(ws.u, fresh.u);
    }
}
