//! Blocked matrix multiply.
//!
//! The batch-PCA baselines form `d × d` covariance matrices from sample
//! blocks; that is the only place a large product appears, and it is the
//! symmetric `Y·Yᵀ`, so [`syrk`] computes one triangle and mirrors it. The
//! inner block computation lives in the runtime-dispatched
//! [`crate::kernels`] layer — a register-blocked 8×4 AVX2+FMA micro-kernel
//! with B-panel packing where the CPU supports it, the original `j-k-i`
//! axpy loop (column-major friendly: the innermost loop runs down a
//! contiguous output column) otherwise. Both run on the calling thread.

use crate::kernels;
use crate::mat::Mat;
use crate::{LinalgError, Result};

/// Serial blocked GEMM: `a * b`.
pub fn gemm(a: &Mat, b: &Mat) -> Result<Mat> {
    check(a, b)?;
    let mut out = Mat::zeros(a.rows(), b.cols());
    kernels::gemm_block(
        a.rows(),
        a.cols(),
        b.cols(),
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
    );
    Ok(out)
}

/// The symmetric product `a · aᵀ` (`rows × rows`): its lower triangle on
/// the dispatched kernel, half a general product's work, mirrored into
/// the upper, so the result is exactly symmetric.
pub fn syrk(a: &Mat) -> Mat {
    let m = a.rows();
    let mut out = Mat::zeros(m, m);
    let s = out.as_mut_slice();
    kernels::syrk_lower(m, a.cols(), a.as_slice(), s);
    for j in 0..m {
        for i in j + 1..m {
            // (j, i) ← (i, j), column-major.
            s[i * m + j] = s[j * m + i];
        }
    }
    out
}

fn check(a: &Mat, b: &Mat) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            expected: format!("inner dims equal ({} cols vs {} rows)", a.cols(), b.rows()),
            got: b.shape(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fill_standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    fn random(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Mat::zeros(rows, cols);
        fill_standard_normal(&mut rng, m.as_mut_slice());
        m
    }

    #[test]
    fn gemm_matches_naive() {
        let a = random(7, 5, 1);
        let b = random(5, 9, 2);
        let got = gemm(&a, &b).unwrap();
        let want = naive(&a, &b);
        assert!(got.sub(&want).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = random(6, 6, 5);
        let i = Mat::identity(6);
        let prod = gemm(&a, &i).unwrap();
        assert!(prod.sub(&a).unwrap().max_abs() < 1e-14);
    }

    #[test]
    fn gemm_shape_mismatch() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(4, 2);
        assert!(gemm(&a, &b).is_err());
    }

    #[test]
    fn syrk_is_the_product_with_the_transpose_and_exactly_symmetric() {
        // Rows straddling the 8-row tile and the 4-column strip. The
        // kernel's lower triangle is checked on each backend this CPU has;
        // the forced-scalar job runs the dispatched product on the scalar
        // one too.
        let mut backends = vec![kernels::Backend::Scalar];
        if kernels::Backend::Avx2Fma.available() {
            backends.push(kernels::Backend::Avx2Fma);
        }
        let close = |g: f64, w: f64| (g - w).abs() <= 1e-12 * w.abs().max(1.0);
        for m in [1, 7, 8, 9, 61] {
            for k in [1, 5, 300] {
                let a = random(m, k, (100 * m + k) as u64);
                let want = naive(&a, &a.transpose());
                let got = syrk(&a);
                for j in 0..m {
                    for i in 0..m {
                        let (g, w) = (got[(i, j)], want[(i, j)]);
                        assert!(close(g, w), "{m}x{k} ({i}, {j}): {g} vs {w}");
                        assert_eq!(g.to_bits(), got[(j, i)].to_bits(), "{m}x{k} ({i}, {j})");
                    }
                }
                for &be in &backends {
                    let mut lower = vec![0.0; m * m];
                    kernels::syrk_lower_on(be, m, k, a.as_slice(), &mut lower);
                    for j in 0..m {
                        for i in j..m {
                            let (g, w) = (lower[j * m + i], want[(i, j)]);
                            assert!(close(g, w), "{be:?} {m}x{k} ({i}, {j}): {g} vs {w}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ata_matches_explicit() {
        let a = random(10, 4, 6);
        let want = gemm(&a.transpose(), &a).unwrap();
        let got = a.gram();
        assert!(got.sub(&want).unwrap().max_abs() < 1e-12);
    }
}
