//! Blocked and multi-threaded general matrix multiply.
//!
//! The batch-PCA baselines form `d × d` covariance matrices from sample
//! blocks; that is the only place a large GEMM appears. The inner block
//! computation lives in the runtime-dispatched [`crate::kernels`] layer —
//! a register-blocked 8×4 AVX2+FMA micro-kernel with B-panel packing where
//! the CPU supports it, the original `j-k-i` axpy loop (column-major
//! friendly: the innermost loop runs down a contiguous output column)
//! otherwise — composed here with column-parallelism via `std` scoped
//! threads.

use crate::kernels;
use crate::mat::Mat;
use crate::{LinalgError, Result};
use std::sync::OnceLock;

/// Serial blocked GEMM: `a * b`.
pub fn gemm(a: &Mat, b: &Mat) -> Result<Mat> {
    check(a, b)?;
    let mut out = Mat::zeros(a.rows(), b.cols());
    gemm_into_cols(a, b, out.as_mut_slice(), 0, b.cols());
    Ok(out)
}

/// Minimum `m·n·k` flop count before [`par_gemm`] spawns worker threads.
///
/// Below this, thread spawn and join overhead (tens of microseconds)
/// exceeds the multiply itself, so the serial kernel wins. 2^18 ≈ 262k
/// multiply-adds is roughly the crossover on commodity cores.
pub const PAR_GEMM_MIN_WORK: usize = 1 << 18;

/// Multi-threaded GEMM: `a * b` with output columns partitioned over
/// `threads` workers. Falls back to the serial kernel for outputs smaller
/// than [`PAR_GEMM_MIN_WORK`], where thread spawn overhead would dominate.
/// Passing `threads == 0` uses the machine's available parallelism.
pub fn par_gemm(a: &Mat, b: &Mat, threads: usize) -> Result<Mat> {
    check(a, b)?;
    let (m, n) = (a.rows(), b.cols());
    let work = m * n * a.cols();
    let threads = if threads == 0 {
        machine_parallelism()
    } else {
        threads
    };
    let threads = threads.min(n.max(1));
    if threads == 1 || work < PAR_GEMM_MIN_WORK {
        return gemm(a, b);
    }
    let mut out = Mat::zeros(m, n);
    // Split the output buffer into per-thread contiguous column bands. Each
    // band is an independent &mut, so the scope below is data-race free by
    // construction.
    let cols_per = n.div_ceil(threads);
    let bands: Vec<(usize, &mut [f64])> = {
        let mut rest = out.as_mut_slice();
        let mut bands = Vec::new();
        let mut c0 = 0;
        while c0 < n {
            let width = cols_per.min(n - c0);
            let (band, tail) = rest.split_at_mut(width * m);
            bands.push((c0, band));
            rest = tail;
            c0 += width;
        }
        bands
    };
    // A worker's panic propagates out of the scope.
    std::thread::scope(|s| {
        for (c0, band) in bands {
            let width = band.len() / m;
            s.spawn(move || gemm_into_cols(a, b, band, c0, width));
        }
    });
    Ok(out)
}

/// Cached `available_parallelism`: the OS query costs a syscall — ask
/// once, reuse forever.
fn machine_parallelism() -> usize {
    static PAR: OnceLock<usize> = OnceLock::new();
    *PAR.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Computes columns `[c0, c0+width)` of `a*b` into `band` (column-major,
/// `a.rows() * width` long) via the dispatched kernel block.
fn gemm_into_cols(a: &Mat, b: &Mat, band: &mut [f64], c0: usize, width: usize) {
    let k = a.cols();
    let bpan = &b.as_slice()[c0 * k..(c0 + width) * k];
    kernels::gemm_block(a.rows(), k, width, a.as_slice(), bpan, band);
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
    fn par_gemm_matches_serial() {
        let a = random(64, 96, 3);
        let b = random(96, 80, 4);
        let serial = gemm(&a, &b).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = par_gemm(&a, &b, threads).unwrap();
            assert!(
                par.sub(&serial).unwrap().max_abs() < 1e-10,
                "threads={threads}"
            );
        }
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
    fn par_gemm_zero_threads_uses_available_parallelism() {
        let a = random(64, 96, 7);
        let b = random(96, 80, 8);
        let serial = gemm(&a, &b).unwrap();
        let par = par_gemm(&a, &b, 0).unwrap();
        assert!(par.sub(&serial).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn par_gemm_cutoff_boundary() {
        // Shapes straddling PAR_GEMM_MIN_WORK: just below stays serial, just
        // above goes parallel; both must agree with the serial kernel.
        let k = 64;
        let m = 64;
        let n_below = (PAR_GEMM_MIN_WORK / (m * k)).saturating_sub(1); // work < cutoff
        let n_above = PAR_GEMM_MIN_WORK / (m * k); // work == cutoff
        assert!(m * n_below * k < PAR_GEMM_MIN_WORK);
        assert!(m * n_above * k >= PAR_GEMM_MIN_WORK);
        for n in [n_below, n_above] {
            let a = random(m, k, 9);
            let b = random(k, n, 10);
            let serial = gemm(&a, &b).unwrap();
            let par = par_gemm(&a, &b, 4).unwrap();
            assert!(par.sub(&serial).unwrap().max_abs() < 1e-10, "n={n}");
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
