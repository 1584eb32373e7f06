//! Portable scalar kernels — the pre-dispatch implementations, verbatim.
//!
//! These are written so LLVM can auto-vectorize them at the target
//! baseline (SSE2 on x86-64): straight-line iteration, independent
//! accumulators, no bounds checks in the hot path after the dispatcher's
//! length assert. They are the reference semantics for the SIMD backends
//! and the only path on CPUs without AVX2+FMA (or under
//! `SPCA_FORCE_SCALAR`).

/// Dot product (lengths already checked by the dispatcher).
///
/// Unrolled four-wide with independent accumulators: a naive loop is a
/// serial floating-point dependency chain (one fused multiply-add per
/// ~4-cycle latency), while four partial sums keep the FPU pipeline full.
/// The combine order `(s0+s1)+(s2+s3)` is fixed so results are
/// deterministic run-to-run.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (x, y) in (&mut ca).zip(&mut cb) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

/// `y += alpha * x` (lengths already checked by the dispatcher).
///
/// Unrolled four-wide to match [`dot`]; each lane is independent, so this
/// mostly helps LLVM pick wider vector stores.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    for (yc, xc) in (&mut cy).zip(&mut cx) {
        yc[0] += alpha * xc[0];
        yc[1] += alpha * xc[1];
        yc[2] += alpha * xc[2];
        yc[3] += alpha * xc[3];
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += alpha * xi;
    }
}

/// In-place scalar multiply.
#[inline]
pub fn scale(a: &mut [f64], s: f64) {
    for v in a {
        *v *= s;
    }
}

/// Plane rotation `[x; y] ← [c·x − s·y; s·x + c·y]`, element-wise — the
/// body of the Jacobi column rotation.
#[inline]
pub fn rotate2(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (a, b) in x.iter_mut().zip(y.iter_mut()) {
        let xv = *a;
        let yv = *b;
        *a = c * xv - s * yv;
        *b = s * xv + c * yv;
    }
}

/// GEMM block `out += A · B` (column-major, shapes checked by the
/// dispatcher): the original `j-k` loop — the innermost operation is an
/// axpy down a contiguous output column, with zero B entries skipped.
pub fn gemm_block(m: usize, k: usize, _width: usize, a: &[f64], bpan: &[f64], out: &mut [f64]) {
    for (bj, out_col) in bpan.chunks_exact(k).zip(out.chunks_exact_mut(m)) {
        for (l, &blj) in bj.iter().enumerate() {
            if blj != 0.0 {
                axpy(blj, &a[l * m..(l + 1) * m], out_col);
            }
        }
    }
}

/// The lower triangle of `A·Aᵀ` accumulated into `out` (column-major,
/// shapes checked by the dispatcher): [`gemm_block`]'s loop with
/// `B = Aᵀ`, each output column from its diagonal down.
pub fn syrk_lower(m: usize, a: &[f64], out: &mut [f64]) {
    for (j, out_col) in out.chunks_exact_mut(m).enumerate() {
        for a_col in a.chunks_exact(m) {
            let alj = a_col[j];
            if alj != 0.0 {
                axpy(alj, &a_col[j..], &mut out_col[j..]);
            }
        }
    }
}

/// The transposed product `Xᵀ·y` with its optional pre-update (shapes
/// checked by the dispatcher): `y ← y − X·sub` as one axpy per column, then
/// one dot per column into `out`, then `yᵀy`.
pub fn gemv_t(
    d: usize,
    x: &[f64],
    sub: Option<&[f64]>,
    y: &mut [f64],
    out: Option<&mut [f64]>,
) -> f64 {
    if let Some(sub) = sub {
        for (&s, col) in sub.iter().zip(x.chunks_exact(d)) {
            axpy(-s, col, y);
        }
    }
    if let Some(out) = out {
        for (o, col) in out.iter_mut().zip(x.chunks_exact(d)) {
            *o = dot(col, y);
        }
    }
    dot(y, y)
}
