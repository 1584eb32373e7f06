//! AVX2 + FMA kernels (x86-64 only).
//!
//! Every function here carries `#[target_feature(enable = "avx2,fma")]`
//! and is `unsafe` to call: the dispatcher guarantees runtime feature
//! detection has succeeded before any of them run. Loads and stores are
//! unaligned (`loadu`/`storeu`) — `Vec<f64>` gives 16-byte alignment at
//! best, and on every AVX2-era core unaligned 256-bit access to
//! cache-resident data costs the same as aligned.
//!
//! Determinism: each kernel fixes its lane count, unroll factor and
//! reduction order, so a given input produces bit-identical output on
//! every run. Results differ from the scalar backend in the last bits
//! because FMA contracts `a*b + c` into a single rounding and the
//! reductions sum in 4-lane stripes.

use std::arch::x86_64::*;

/// Sums the four lanes of `v` in a fixed order: `(l0 + l1) + (l2 + l3)`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum(v: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(v); // lanes 0,1
    let hi = _mm256_extractf128_pd(v, 1); // lanes 2,3
    let lo_sum = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)); // l0 + l1
    let hi_sum = _mm_add_sd(hi, _mm_unpackhi_pd(hi, hi)); // l2 + l3
    _mm_cvtsd_f64(_mm_add_sd(lo_sum, hi_sum))
}

/// Dot product: 16 elements per iteration across four independent FMA
/// accumulators (two FMA ports × ~4-cycle latency needs ≥8 in flight).
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut acc2 = _mm256_setzero_pd();
    let mut acc3 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 16 <= n {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_loadu_pd(ap.add(i + 4)),
            _mm256_loadu_pd(bp.add(i + 4)),
            acc1,
        );
        acc2 = _mm256_fmadd_pd(
            _mm256_loadu_pd(ap.add(i + 8)),
            _mm256_loadu_pd(bp.add(i + 8)),
            acc2,
        );
        acc3 = _mm256_fmadd_pd(
            _mm256_loadu_pd(ap.add(i + 12)),
            _mm256_loadu_pd(bp.add(i + 12)),
            acc3,
        );
        i += 16;
    }
    while i + 4 <= n {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
        i += 4;
    }
    let acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
    let mut s = hsum(acc);
    while i < n {
        s += *ap.add(i) * *bp.add(i);
        i += 1;
    }
    s
}

/// `y += alpha * x`, 8 elements per iteration.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len();
    let av = _mm256_set1_pd(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
        let y1 = _mm256_fmadd_pd(
            av,
            _mm256_loadu_pd(xp.add(i + 4)),
            _mm256_loadu_pd(yp.add(i + 4)),
        );
        _mm256_storeu_pd(yp.add(i), y0);
        _mm256_storeu_pd(yp.add(i + 4), y1);
        i += 8;
    }
    while i + 4 <= n {
        let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
        _mm256_storeu_pd(yp.add(i), y0);
        i += 4;
    }
    while i < n {
        *yp.add(i) += alpha * *xp.add(i);
        i += 1;
    }
}

/// In-place scalar multiply, 8 elements per iteration.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn scale(a: &mut [f64], s: f64) {
    let n = a.len();
    let sv = _mm256_set1_pd(s);
    let ap = a.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        _mm256_storeu_pd(ap.add(i), _mm256_mul_pd(sv, _mm256_loadu_pd(ap.add(i))));
        _mm256_storeu_pd(
            ap.add(i + 4),
            _mm256_mul_pd(sv, _mm256_loadu_pd(ap.add(i + 4))),
        );
        i += 8;
    }
    while i + 4 <= n {
        _mm256_storeu_pd(ap.add(i), _mm256_mul_pd(sv, _mm256_loadu_pd(ap.add(i))));
        i += 4;
    }
    while i < n {
        *ap.add(i) *= s;
        i += 1;
    }
}

/// Plane rotation `[x; y] ← [c·x − s·y; s·x + c·y]` — the Jacobi sweep
/// inner loop, fused so both columns stream through registers once.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn rotate2(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    let n = x.len();
    let cv = _mm256_set1_pd(c);
    let sv = _mm256_set1_pd(s);
    let (xp, yp) = (x.as_mut_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i + 4 <= n {
        let xv = _mm256_loadu_pd(xp.add(i));
        let yv = _mm256_loadu_pd(yp.add(i));
        // c·x − s·y with one rounding in the multiply-subtract.
        let nx = _mm256_fmsub_pd(cv, xv, _mm256_mul_pd(sv, yv));
        let ny = _mm256_fmadd_pd(sv, xv, _mm256_mul_pd(cv, yv));
        _mm256_storeu_pd(xp.add(i), nx);
        _mm256_storeu_pd(yp.add(i), ny);
        i += 4;
    }
    while i < n {
        let xv = *xp.add(i);
        let yv = *yp.add(i);
        *xp.add(i) = c * xv - s * yv;
        *yp.add(i) = s * xv + c * yv;
        i += 1;
    }
}

/// GEMM block `out += A · B` via a register-blocked 8×4 micro-kernel.
///
/// The B panel is packed column-quad-interleaved into `pack` (reused
/// across calls by the dispatcher's per-thread buffer): entry
/// `pack[4·l + jj]` is `B[l, j0 + jj]`, so the micro-kernel's inner loop
/// reads four consecutive doubles per `l` — one cache line feeds four
/// broadcasts. A needs no packing: an 8-row stripe of one A column is
/// already contiguous in the column-major layout.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gemm_block(
    m: usize,
    k: usize,
    width: usize,
    a: &[f64],
    bpan: &[f64],
    out: &mut [f64],
    pack: &mut Vec<f64>,
) {
    pack.clear();
    pack.resize(4 * k, 0.0);
    let ap = a.as_ptr();
    let mut j0 = 0;
    while j0 + 4 <= width {
        // Pack the 4-column B strip.
        for l in 0..k {
            for jj in 0..4 {
                *pack.get_unchecked_mut(4 * l + jj) = *bpan.get_unchecked((j0 + jj) * k + l);
            }
        }
        let pb = pack.as_ptr();
        let mut i0 = 0;
        while i0 + 8 <= m {
            micro_8x4(m, k, ap.add(i0), pb, out.as_mut_ptr().add(j0 * m + i0));
            i0 += 8;
        }
        // Remainder rows of this strip: scalar per-column accumulation.
        if i0 < m {
            for jj in 0..4 {
                let col = out.as_mut_ptr().add((j0 + jj) * m);
                for l in 0..k {
                    let b = *pb.add(4 * l + jj);
                    if b != 0.0 {
                        for i in i0..m {
                            *col.add(i) += b * *ap.add(l * m + i);
                        }
                    }
                }
            }
        }
        j0 += 4;
    }
    // Remainder columns: one vectorized axpy chain per column.
    for j in j0..width {
        let col = std::slice::from_raw_parts_mut(out.as_mut_ptr().add(j * m), m);
        for l in 0..k {
            let b = *bpan.get_unchecked(j * k + l);
            if b != 0.0 {
                axpy(b, std::slice::from_raw_parts(ap.add(l * m), m), col);
            }
        }
    }
}

/// 8×4 register tile: 8 accumulator registers (two 4-lane halves × four
/// output columns) stay resident across the whole k loop; each iteration
/// issues 2 A loads, 4 B broadcasts and 8 FMAs.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_8x4(m: usize, k: usize, a: *const f64, pb: *const f64, c: *mut f64) {
    let mut c00 = _mm256_loadu_pd(c);
    let mut c01 = _mm256_loadu_pd(c.add(4));
    let mut c10 = _mm256_loadu_pd(c.add(m));
    let mut c11 = _mm256_loadu_pd(c.add(m + 4));
    let mut c20 = _mm256_loadu_pd(c.add(2 * m));
    let mut c21 = _mm256_loadu_pd(c.add(2 * m + 4));
    let mut c30 = _mm256_loadu_pd(c.add(3 * m));
    let mut c31 = _mm256_loadu_pd(c.add(3 * m + 4));
    for l in 0..k {
        let a0 = _mm256_loadu_pd(a.add(l * m));
        let a1 = _mm256_loadu_pd(a.add(l * m + 4));
        let b0 = _mm256_set1_pd(*pb.add(4 * l));
        let b1 = _mm256_set1_pd(*pb.add(4 * l + 1));
        let b2 = _mm256_set1_pd(*pb.add(4 * l + 2));
        let b3 = _mm256_set1_pd(*pb.add(4 * l + 3));
        c00 = _mm256_fmadd_pd(a0, b0, c00);
        c01 = _mm256_fmadd_pd(a1, b0, c01);
        c10 = _mm256_fmadd_pd(a0, b1, c10);
        c11 = _mm256_fmadd_pd(a1, b1, c11);
        c20 = _mm256_fmadd_pd(a0, b2, c20);
        c21 = _mm256_fmadd_pd(a1, b2, c21);
        c30 = _mm256_fmadd_pd(a0, b3, c30);
        c31 = _mm256_fmadd_pd(a1, b3, c31);
    }
    _mm256_storeu_pd(c, c00);
    _mm256_storeu_pd(c.add(4), c01);
    _mm256_storeu_pd(c.add(m), c10);
    _mm256_storeu_pd(c.add(m + 4), c11);
    _mm256_storeu_pd(c.add(2 * m), c20);
    _mm256_storeu_pd(c.add(2 * m + 4), c21);
    _mm256_storeu_pd(c.add(3 * m), c30);
    _mm256_storeu_pd(c.add(3 * m + 4), c31);
}

/// In-place basis rotation `E ← [E | r] · coef` over 8-row panels.
///
/// `coef` is `(k+1) × k` column-major (row `k` weights `r`). It is packed
/// once per call into 4-column strips (`pack[4·l + jj]` within a strip, the
/// [`gemm_block`] layout, zero-padded past column `k`); each panel of 8
/// rows is then copied aside with `r` as its last column — which is what
/// makes overwriting `E` in place safe — and rebuilt strip by strip with
/// the 8×4 register tile. The `d mod 8` tail rows run the same sums one row
/// at a time.
///
/// # Safety
///
/// AVX2 and FMA must be available, and the slices must have the lengths the
/// shapes imply (`e`: `d·k`, `coef`: `(k+1)·k`, `r`: `d`) — the panel loop
/// indexes them through raw pointers.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn panel_update(
    d: usize,
    k: usize,
    e: &mut [f64],
    coef: &[f64],
    r: &[f64],
    scratch: &mut Vec<f64>,
) {
    let kp = k + 1;
    let strips = k.div_ceil(4);
    scratch.clear();
    scratch.resize(strips * 4 * kp + 8 * kp, 0.0);
    let (pack, saved) = scratch.split_at_mut(strips * 4 * kp);
    for (j, cj) in coef.chunks_exact(kp).enumerate() {
        let strip = &mut pack[(j / 4) * 4 * kp..];
        for (l, &c) in cj.iter().enumerate() {
            strip[4 * l + j % 4] = c;
        }
    }
    let (ep, rp, sp) = (e.as_mut_ptr(), r.as_ptr(), saved.as_mut_ptr());
    let mut i0 = 0;
    while i0 + 8 <= d {
        for l in 0..kp {
            let src = if l < k {
                ep.add(l * d + i0) as *const f64
            } else {
                rp.add(i0)
            };
            std::ptr::copy_nonoverlapping(src, sp.add(8 * l), 8);
        }
        for s in 0..strips {
            let pb = pack.as_ptr().add(s * 4 * kp);
            let mut acc = [_mm256_setzero_pd(); 8];
            for l in 0..kp {
                let a0 = _mm256_loadu_pd(sp.add(8 * l));
                let a1 = _mm256_loadu_pd(sp.add(8 * l + 4));
                for jj in 0..4 {
                    let b = _mm256_set1_pd(*pb.add(4 * l + jj));
                    acc[2 * jj] = _mm256_fmadd_pd(a0, b, acc[2 * jj]);
                    acc[2 * jj + 1] = _mm256_fmadd_pd(a1, b, acc[2 * jj + 1]);
                }
            }
            for jj in 0..4.min(k - 4 * s) {
                let out = ep.add((4 * s + jj) * d + i0);
                _mm256_storeu_pd(out, acc[2 * jj]);
                _mm256_storeu_pd(out.add(4), acc[2 * jj + 1]);
            }
        }
        i0 += 8;
    }
    for i in i0..d {
        for (l, s) in saved[..kp].iter_mut().enumerate() {
            *s = if l < k { e[l * d + i] } else { r[i] };
        }
        for (j, cj) in coef.chunks_exact(kp).enumerate() {
            e[j * d + i] = cj.iter().zip(&*saved).map(|(c, s)| c * s).sum();
        }
    }
}
