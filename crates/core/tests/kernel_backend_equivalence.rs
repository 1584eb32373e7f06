//! End-to-end backend equivalence: a full streaming run under the scalar
//! kernels must produce the same eigensystem as the dispatched (SIMD)
//! kernels to 1e-10.
//!
//! This is the acceptance check for the hardware-aware kernel layer: FMA
//! contraction and lane-striped reductions may perturb individual flops in
//! the last bit, but after hundreds of rank-one updates, merges and Jacobi
//! sweeps the *engine-level* results must still agree far below any
//! physically meaningful tolerance.
//!
//! Kept as a single `#[test]` in its own integration-test binary because it
//! flips the process-wide backend override; sharing a binary with parallel
//! tests would race on it.

use spca_core::{EigenSystem, PcaConfig, RhoKind, RobustPca};
use spca_linalg::kernels::{self, Backend};

/// Deterministic synthetic stream: six planted modes with well-separated
/// amplitudes in 32 dims plus a tiny broadband term. The amplitude ladder
/// matters: the engine tracks `p + q = 6` components, and near-degenerate
/// eigenvalues would make the trailing eigenvectors ill-conditioned —
/// last-bit kernel differences would then get amplified to O(1) through the
/// robust reweighting, which is a property of degenerate spectra, not of
/// the kernels under test.
fn stream(n: usize, d: usize) -> Vec<Vec<f64>> {
    let amps = [4.0, 2.5, 1.6, 1.0, 0.6, 0.35];
    let spatial = [0.2, 0.45, 0.9, 1.3, 1.7, 2.1];
    let temporal = [1.9, 1.1, 0.7, 2.3, 0.53, 1.41];
    (0..n)
        .map(|t| {
            let tf = t as f64;
            (0..d)
                .map(|i| {
                    let fi = i as f64;
                    let mut v = 1e-3 * ((1.37 * tf + 0.77 * fi).sin());
                    for m in 0..6 {
                        v += amps[m]
                            * (spatial[m] * fi + m as f64).sin()
                            * (temporal[m] * tf + 0.1 * m as f64).sin();
                    }
                    v
                })
                .collect()
        })
        .collect()
}

fn run_stream(data: &[Vec<f64>]) -> EigenSystem {
    let d = data[0].len();
    // Classical ρ, not the default bisquare: the bisquare's smoothly-descending
    // weight has nonzero derivative everywhere the M-scale puts the bulk of
    // the data, so it amplifies *any* last-bit perturbation (a compiler
    // upgrade as much as an FMA) into ~1e-9 trajectory noise — that is a
    // property of redescending weights, not of the kernels. The classical
    // weight is constant, so kernel-level rounding is all that can
    // separate the runs and the 1e-10 contract is meaningful.
    let cfg = PcaConfig::new(d, 4)
        .with_init_size(24)
        .with_extra(2)
        .with_memory(200)
        .with_rho(RhoKind::Classical);
    let mut pca = RobustPca::new(cfg);
    for x in data {
        pca.update(x).unwrap();
    }
    assert!(pca.is_initialized());
    pca.full_eigensystem().unwrap().clone()
}

#[test]
fn scalar_and_dispatched_eigensystems_agree() {
    // d = 32 is whole 8-row panels of the basis write-back kernel; d = 37
    // adds its one-row-at-a-time tail (k = 6 always leaves a half strip).
    for d in [32, 37] {
        assert_backends_agree(&stream(400, d));
    }
}

fn assert_backends_agree(data: &[Vec<f64>]) {
    kernels::set_backend_override(Some(Backend::Scalar));
    let scalar = run_stream(data);

    // Dispatched path: explicit AVX2 when the CPU has it, otherwise this
    // degenerates to scalar-vs-scalar (still a valid determinism check).
    if Backend::Avx2Fma.available() {
        kernels::set_backend_override(Some(Backend::Avx2Fma));
    } else {
        kernels::set_backend_override(None);
    }
    let dispatched = run_stream(data);
    kernels::set_backend_override(None);

    let tol = 1e-10;
    assert_eq!(scalar.n_obs, dispatched.n_obs);
    for (a, b) in scalar.mean.iter().zip(&dispatched.mean) {
        assert!((a - b).abs() < tol * (1.0 + b.abs()), "mean: {a} vs {b}");
    }
    for (a, b) in scalar.values.iter().zip(&dispatched.values) {
        assert!((a - b).abs() < tol * (1.0 + b.abs()), "value: {a} vs {b}");
    }
    // Eigenvectors are sign-ambiguous in principle; align each pair of
    // columns before the element-wise comparison.
    for j in 0..scalar.basis.cols() {
        let (ca, cb) = (scalar.basis.col(j), dispatched.basis.col(j));
        let sign = if spca_linalg::vecops::dot(ca, cb) < 0.0 {
            -1.0
        } else {
            1.0
        };
        for (a, b) in ca.iter().zip(cb) {
            assert!(
                (a - sign * b).abs() < tol,
                "basis col {j}: {a} vs {}",
                sign * b
            );
        }
    }
    let s2 = (scalar.sigma2 - dispatched.sigma2).abs();
    assert!(s2 < tol * (1.0 + dispatched.sigma2.abs()), "sigma2: {s2}");
}
