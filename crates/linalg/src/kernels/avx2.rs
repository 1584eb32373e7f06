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
    let mut j0 = 0;
    while j0 < width {
        let w = (width - j0).min(4);
        // Pack the B strip, zeros past its real columns.
        for l in 0..k {
            for jj in 0..4 {
                *pack.get_unchecked_mut(4 * l + jj) = if jj < w {
                    *bpan.get_unchecked((j0 + jj) * k + l)
                } else {
                    0.0
                };
            }
        }
        strip(
            m,
            k,
            w,
            0,
            a.as_ptr(),
            pack.as_ptr(),
            out.as_mut_ptr().add(j0 * m),
        );
        j0 += w;
    }
}

/// The lower triangle of `A·Aᵀ` accumulated into the `m × m` `out`: the
/// [`gemm_block`] strips with `B = Aᵀ`, each run from its diagonal down.
/// Column `j` of `Aᵀ` is row `j` of A, so a strip packs four adjacent
/// entries of every A column and no transposed copy is made. The tiles on
/// the diagonal also accumulate a few entries above it. The columns of A
/// are taken [`SYRK_KC`] at a time.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn syrk_lower(m: usize, k: usize, a: &[f64], out: &mut [f64], pack: &mut Vec<f64>) {
    let kc_max = SYRK_KC.min(k);
    pack.clear();
    pack.resize(4 * kc_max, 0.0);
    let mut l0 = 0;
    while l0 < k {
        let kc = (k - l0).min(kc_max);
        let ap = a.as_ptr().add(l0 * m);
        let mut j0 = 0;
        while j0 < m {
            let w = (m - j0).min(4);
            for l in 0..kc {
                for jj in 0..4 {
                    *pack.get_unchecked_mut(4 * l + jj) = if jj < w {
                        *ap.add(l * m + j0 + jj)
                    } else {
                        0.0
                    };
                }
            }
            strip(
                m,
                kc,
                w,
                j0,
                ap,
                pack.as_ptr(),
                out.as_mut_ptr().add(j0 * m),
            );
            j0 += w;
        }
        l0 += kc;
    }
}

/// Columns of A per [`syrk_lower`] pass: the `m × 128` slice the strips
/// sweep (0.5 MB at m = 500) stays in cache, where a sweep of the whole of
/// A streams it from memory once per strip (3× the time at 500 × 4,000). The
/// micro-kernel accumulates into C, so the passes sum in the same order as
/// one pass over all of k, to the bit.
const SYRK_KC: usize = 128;

/// Rows `[row0, m)` of one output strip of `w ≤ 4` columns at `c` (`m`
/// apart): `C += A · B` for the packed B strip `pb` (`4k` long, zeros past
/// column `w`). Full 8-row tiles run in the micro-kernel; a strip of fewer
/// than four columns runs in the same register tile, into a copy of the
/// output tile holding its real columns. The last `< 8` rows accumulate
/// per column in scalar code.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn strip(
    m: usize,
    k: usize,
    w: usize,
    row0: usize,
    ap: *const f64,
    pb: *const f64,
    c: *mut f64,
) {
    let mut i0 = row0;
    while i0 + 8 <= m {
        let ct = c.add(i0);
        if w == 4 {
            micro_8x4(m, m, k, ap.add(i0), pb, ct);
        } else {
            let mut tile = [0.0f64; 32];
            for jj in 0..w {
                std::ptr::copy_nonoverlapping(ct.add(jj * m), tile.as_mut_ptr().add(8 * jj), 8);
            }
            micro_8x4(m, 8, k, ap.add(i0), pb, tile.as_mut_ptr());
            for jj in 0..w {
                std::ptr::copy_nonoverlapping(tile.as_ptr().add(8 * jj), ct.add(jj * m), 8);
            }
        }
        i0 += 8;
    }
    if i0 < m {
        for jj in 0..w {
            let col = c.add(jj * m);
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
}

/// 8×4 register tile: 8 accumulator registers (two 4-lane halves × four
/// output columns) stay resident across the whole k loop; each iteration
/// issues 2 A loads, 4 B broadcasts and 8 FMAs. A's columns are `lda`
/// apart, C's `ldc`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_8x4(lda: usize, ldc: usize, k: usize, a: *const f64, pb: *const f64, c: *mut f64) {
    let mut c00 = _mm256_loadu_pd(c);
    let mut c01 = _mm256_loadu_pd(c.add(4));
    let mut c10 = _mm256_loadu_pd(c.add(ldc));
    let mut c11 = _mm256_loadu_pd(c.add(ldc + 4));
    let mut c20 = _mm256_loadu_pd(c.add(2 * ldc));
    let mut c21 = _mm256_loadu_pd(c.add(2 * ldc + 4));
    let mut c30 = _mm256_loadu_pd(c.add(3 * ldc));
    let mut c31 = _mm256_loadu_pd(c.add(3 * ldc + 4));
    for l in 0..k {
        let a0 = _mm256_loadu_pd(a.add(l * lda));
        let a1 = _mm256_loadu_pd(a.add(l * lda + 4));
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
    _mm256_storeu_pd(c.add(ldc), c10);
    _mm256_storeu_pd(c.add(ldc + 4), c11);
    _mm256_storeu_pd(c.add(2 * ldc), c20);
    _mm256_storeu_pd(c.add(2 * ldc + 4), c21);
    _mm256_storeu_pd(c.add(3 * ldc), c30);
    _mm256_storeu_pd(c.add(3 * ldc + 4), c31);
}

/// The transposed product `Xᵀ·y` of a column-major `d × n` block, fused
/// with the pre-update `y ← y − X·sub` and the norm `yᵀy`: one sweep over
/// the rows, 16 at a time. A row block of `y` is held in four registers,
/// updated against every column, stored, squared into the norm's four
/// accumulators and multiplied into each column's four-lane partial sum
/// (kept in `acc`, `4n` zeros on entry); the `d mod 4` tail rows run the
/// same sums one row at a time.
///
/// # Safety
///
/// AVX2 and FMA must be available, `x` must hold `d·n` values, `y` `d`,
/// `acc` `4n`, and `sub` and `out` (when given) `n` — the row loop indexes
/// them through raw pointers.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gemv_t(
    d: usize,
    n: usize,
    x: &[f64],
    sub: Option<&[f64]>,
    y: &mut [f64],
    mut out: Option<&mut [f64]>,
    acc: &mut [f64],
) -> f64 {
    let (xp, yp, ap) = (x.as_ptr(), y.as_mut_ptr(), acc.as_mut_ptr());
    let mut nrm = [_mm256_setzero_pd(); 4];
    let mut i = 0;
    while i + 16 <= d {
        let mut yv = [
            _mm256_loadu_pd(yp.add(i)),
            _mm256_loadu_pd(yp.add(i + 4)),
            _mm256_loadu_pd(yp.add(i + 8)),
            _mm256_loadu_pd(yp.add(i + 12)),
        ];
        if let Some(sub) = sub {
            for (c, &s) in sub.iter().enumerate() {
                let (col, sv) = (xp.add(c * d + i), _mm256_set1_pd(s));
                for (l, v) in yv.iter_mut().enumerate() {
                    *v = _mm256_fnmadd_pd(_mm256_loadu_pd(col.add(4 * l)), sv, *v);
                }
            }
            for (l, v) in yv.iter().enumerate() {
                _mm256_storeu_pd(yp.add(i + 4 * l), *v);
            }
        }
        for (a, v) in nrm.iter_mut().zip(&yv) {
            *a = _mm256_fmadd_pd(*v, *v, *a);
        }
        if out.is_some() {
            for c in 0..n {
                let col = xp.add(c * d + i);
                let mut p = _mm256_mul_pd(_mm256_loadu_pd(col), yv[0]);
                p = _mm256_fmadd_pd(_mm256_loadu_pd(col.add(4)), yv[1], p);
                p = _mm256_fmadd_pd(_mm256_loadu_pd(col.add(8)), yv[2], p);
                p = _mm256_fmadd_pd(_mm256_loadu_pd(col.add(12)), yv[3], p);
                _mm256_storeu_pd(
                    ap.add(4 * c),
                    _mm256_add_pd(_mm256_loadu_pd(ap.add(4 * c)), p),
                );
            }
        }
        i += 16;
    }
    while i + 4 <= d {
        let mut v = _mm256_loadu_pd(yp.add(i));
        if let Some(sub) = sub {
            for (c, &s) in sub.iter().enumerate() {
                v = _mm256_fnmadd_pd(_mm256_loadu_pd(xp.add(c * d + i)), _mm256_set1_pd(s), v);
            }
            _mm256_storeu_pd(yp.add(i), v);
        }
        nrm[0] = _mm256_fmadd_pd(v, v, nrm[0]);
        if out.is_some() {
            for c in 0..n {
                let p = _mm256_mul_pd(_mm256_loadu_pd(xp.add(c * d + i)), v);
                _mm256_storeu_pd(
                    ap.add(4 * c),
                    _mm256_add_pd(_mm256_loadu_pd(ap.add(4 * c)), p),
                );
            }
        }
        i += 4;
    }
    let mut norm = hsum(_mm256_add_pd(
        _mm256_add_pd(nrm[0], nrm[1]),
        _mm256_add_pd(nrm[2], nrm[3]),
    ));
    if let Some(out) = out.as_deref_mut() {
        for (c, o) in out.iter_mut().enumerate() {
            *o = hsum(_mm256_loadu_pd(ap.add(4 * c)));
        }
    }
    for r in i..d {
        let mut v = *yp.add(r);
        if let Some(sub) = sub {
            for (c, &s) in sub.iter().enumerate() {
                v -= s * *xp.add(c * d + r);
            }
            *yp.add(r) = v;
        }
        norm += v * v;
        if let Some(out) = out.as_deref_mut() {
            for (c, o) in out.iter_mut().enumerate() {
                *o += *xp.add(c * d + r) * v;
            }
        }
    }
    norm
}
