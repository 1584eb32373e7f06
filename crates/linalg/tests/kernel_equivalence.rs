//! Property-based equivalence between the scalar and SIMD kernel backends.
//!
//! The dispatched AVX2+FMA kernels may differ from the portable scalar code
//! in the last bits (4-lane stripe reductions, fused multiply-add), but the
//! two paths must agree to high relative accuracy on *every* input shape the
//! callers can produce: odd lengths that leave vector-width remainders,
//! unaligned slice offsets (`Vec` data is 8-byte aligned, AVX2 lanes want
//! 32), subnormal magnitudes and signed zeros. Each path must also be
//! bit-deterministic run-to-run — the fault-tolerance layer's snapshot
//! rehydration tests rely on within-process replays being exact.
//!
//! On hosts without AVX2 the backend list collapses to `[Scalar]` and these
//! properties degenerate to self-consistency, which keeps the suite green on
//! any target while still being a real cross-backend check on x86-64 CI.

use proptest::prelude::*;
use spca_linalg::kernels::{self, Backend};

/// Backends available on this host: scalar always, AVX2+FMA when detected.
fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if Backend::Avx2Fma.available() {
        v.push(Backend::Avx2Fma);
    }
    v
}

/// Vector strategy mixing ordinary magnitudes with the adversarial values:
/// exact zeros of both signs and subnormal-range magnitudes (`x · 1e-310`).
fn tricky_vec(len: core::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((-100.0f64..100.0, 0u8..10), len).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(x, sel)| match sel {
                0 => 0.0,
                1 => -0.0,
                2 => x * 1e-310,
                3 => -x * 1e-310,
                _ => x,
            })
            .collect()
    })
}

/// Paired equal-length tricky vectors plus an unaligned starting offset.
fn paired_vecs() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, usize)> {
    (1usize..128, 0usize..4).prop_flat_map(|(n, off)| {
        (
            tricky_vec((n + off)..(n + off + 1)),
            tricky_vec((n + off)..(n + off + 1)),
            (off..off + 1),
        )
    })
}

fn rel_tol(magnitude: f64) -> f64 {
    1e-12 * (1.0 + magnitude)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dot_backends_agree((a, b, off) in paired_vecs()) {
        let (a, b) = (&a[off..], &b[off..]);
        let magnitude: f64 = a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum();
        let want = kernels::dot_on(Backend::Scalar, a, b);
        for be in backends() {
            let got = kernels::dot_on(be, a, b);
            prop_assert!(
                (got - want).abs() <= rel_tol(magnitude),
                "{be:?} n={} off={off}: {got} vs {want}", a.len()
            );
        }
    }

    #[test]
    fn axpy_backends_agree((x, y, off) in paired_vecs(), alpha in -10.0f64..10.0) {
        let x = &x[off..];
        for be in backends() {
            let mut want = y[off..].to_vec();
            let mut got = y[off..].to_vec();
            kernels::axpy_on(Backend::Scalar, alpha, x, &mut want);
            kernels::axpy_on(be, alpha, x, &mut got);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(
                    (g - w).abs() <= rel_tol(w.abs() + (alpha * x[i]).abs()),
                    "{be:?} i={i}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn gemm_backends_agree(
        (m, k, width) in (1usize..24, 0usize..12, 1usize..10),
        seed_a in tricky_vec(1..2),
        seed_b in tricky_vec(1..2),
    ) {
        // Deterministically expand the seeds so the panels hit odd shapes
        // straddling the 8×4 tile with tricky entries sprinkled through.
        let a: Vec<f64> = (0..m * k)
            .map(|i| seed_a[0] + (i as f64 * 0.73).sin())
            .collect();
        let bpan: Vec<f64> = (0..k * width)
            .map(|i| if i % 7 == 3 { 0.0 } else { seed_b[0] + (i as f64 * 1.19).cos() })
            .collect();
        let bound = a.iter().fold(0.0f64, |s, v| s.max(v.abs()))
            * bpan.iter().fold(0.0f64, |s, v| s.max(v.abs()))
            * k as f64;
        let mut want = vec![0.0; m * width];
        kernels::gemm_block_on(Backend::Scalar, m, k, width, &a, &bpan, &mut want);
        for be in backends() {
            let mut got = vec![0.0; m * width];
            kernels::gemm_block_on(be, m, k, width, &a, &bpan, &mut got);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!(
                    (g - w).abs() <= rel_tol(bound),
                    "{be:?} {m}x{k}x{width}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn gemv_t_backends_agree(
        (d, n) in (1usize..70, 0usize..24),
        seed_x in tricky_vec(1..2),
        seed_s in tricky_vec(1..2),
        off in 0usize..4,
    ) {
        // Row counts straddling the 16-row block and the 4-row vector,
        // column counts up to a basis plus a full deferred tail, tricky
        // entries sprinkled through the block, unaligned starts.
        let x: Vec<f64> = (0..off + d * n)
            .map(|i| if i % 11 == 5 { seed_x[0] } else { (i as f64 * 0.73).sin() })
            .collect();
        let x = &x[off..];
        let y0: Vec<f64> = (0..d).map(|i| (i as f64 * 0.41).cos()).collect();
        let sub: Vec<f64> = (0..n)
            .map(|i| if i % 7 == 3 { 0.0 } else { seed_s[0] * 0.01 + (i as f64 * 1.19).cos() })
            .collect();
        // Magnitudes of the updated y, of each Xᵀy sum and of yᵀy.
        let xmax = x.iter().fold(1.0f64, |s, v| s.max(v.abs()));
        let ymax = 1.0 + xmax * sub.iter().map(|v| v.abs()).sum::<f64>();
        let bound = d as f64 * ymax * (xmax + ymax);
        let mut y_want = y0.clone();
        let mut out_want = vec![0.0; n];
        let norm_want = kernels::gemv_t_on(
            Backend::Scalar, x, Some(&sub), &mut y_want, Some(&mut out_want),
        );
        for be in backends() {
            let mut y = y0.clone();
            let mut out = vec![0.0; n];
            let norm = kernels::gemv_t_on(be, x, Some(&sub), &mut y, Some(&mut out));
            prop_assert!((norm - norm_want).abs() <= rel_tol(bound), "{be:?} {d}x{n}: {norm} vs {norm_want}");
            for (g, w) in y.iter().zip(&y_want).chain(out.iter().zip(&out_want)) {
                prop_assert!((g - w).abs() <= rel_tol(bound), "{be:?} {d}x{n}: {g} vs {w}");
            }
            // Projection alone, and norm alone, are the same sums.
            let mut y1 = y0.clone();
            let mut plain = vec![0.0; n];
            kernels::gemv_t_on(be, x, None, &mut y1, Some(&mut plain));
            let mut y2 = y0.clone();
            let norm_only = kernels::gemv_t_on(be, x, None, &mut y2, None);
            let norm_scalar = kernels::norm_sq_on(Backend::Scalar, &y0);
            prop_assert!((norm_only - norm_scalar).abs() <= rel_tol(bound));
            for (c, p) in plain.iter().enumerate() {
                let want = kernels::dot_on(Backend::Scalar, &x[c * d..(c + 1) * d], &y0);
                prop_assert!((p - want).abs() <= rel_tol(bound), "{be:?} {d}x{n}: {p} vs {want}");
            }
            // Same backend, same input: bit-identical.
            let mut again = y0.clone();
            let mut out_again = vec![0.0; n];
            let norm_again = kernels::gemv_t_on(be, x, Some(&sub), &mut again, Some(&mut out_again));
            prop_assert_eq!(norm.to_bits(), norm_again.to_bits());
            for (u, v) in y.iter().zip(&again).chain(out.iter().zip(&out_again)) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn each_backend_bit_deterministic((a, b, off) in paired_vecs()) {
        let (a, b) = (&a[off..], &b[off..]);
        for be in backends() {
            let first = kernels::dot_on(be, a, b);
            prop_assert_eq!(kernels::dot_on(be, a, b).to_bits(), first.to_bits());

            let mut y1 = b.to_vec();
            let mut y2 = b.to_vec();
            kernels::axpy_on(be, 1.5, a, &mut y1);
            kernels::axpy_on(be, 1.5, a, &mut y2);
            for (u, v) in y1.iter().zip(&y2) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn gemm_bit_deterministic((m, k, width) in (1usize..20, 1usize..10, 1usize..8)) {
        let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.31).sin()).collect();
        let bpan: Vec<f64> = (0..k * width).map(|i| (i as f64 * 0.17).cos()).collect();
        for be in backends() {
            let mut r1 = vec![0.0; m * width];
            let mut r2 = vec![0.0; m * width];
            kernels::gemm_block_on(be, m, k, width, &a, &bpan, &mut r1);
            kernels::gemm_block_on(be, m, k, width, &a, &bpan, &mut r2);
            for (u, v) in r1.iter().zip(&r2) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }
}
