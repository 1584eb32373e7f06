//! Property-based tests for the linear-algebra kernels.
//!
//! Strategy: generate random matrices with bounded entries and assert the
//! algebraic identities every decomposition must satisfy, at tolerances
//! scaled to the input magnitude.

use proptest::prelude::*;
use spca_linalg::{eigen, qr, svd, Mat, QrWorkspace, SvdWorkspace};

/// Strategy producing a (rows, cols, entries) triple with rows >= cols.
fn tall_matrix() -> impl Strategy<Value = Mat> {
    (1usize..12, 1usize..6).prop_flat_map(|(extra, cols)| {
        let rows = cols + extra;
        proptest::collection::vec(-100.0f64..100.0, rows * cols)
            .prop_map(move |data| Mat::from_col_major(rows, cols, data))
    })
}

fn square_matrix() -> impl Strategy<Value = Mat> {
    (1usize..9).prop_flat_map(|n| {
        proptest::collection::vec(-50.0f64..50.0, n * n)
            .prop_map(move |data| Mat::from_col_major(n, n, data))
    })
}

/// Strategy producing thin matrices of *any* admissible shape — including
/// zero columns — and, half the time, exactly rank-deficient ones (column 1
/// overwritten with a copy of column 0). These are the shapes the workspace
/// equivalence laws must hold on.
fn any_thin_matrix() -> impl Strategy<Value = Mat> {
    (0usize..5, 0usize..10, any::<bool>()).prop_flat_map(|(cols, extra, degenerate)| {
        let rows = cols + extra;
        proptest::collection::vec(-100.0f64..100.0, rows * cols).prop_map(move |data| {
            let mut m = Mat::from_col_major(rows, cols, data);
            if degenerate && cols >= 2 {
                let c0 = m.col(0).to_vec();
                m.col_mut(1).copy_from_slice(&c0);
            }
            m
        })
    })
}

fn tol_for(m: &Mat) -> f64 {
    1e-8 * (1.0 + m.max_abs()) * (m.rows() + m.cols()) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qr_reconstructs(a in tall_matrix()) {
        let f = qr::thin_qr(&a).unwrap();
        let back = f.q.matmul(&f.r).unwrap();
        prop_assert!(back.sub(&a).unwrap().max_abs() < tol_for(&a));
    }

    #[test]
    fn qr_q_orthonormal(a in tall_matrix()) {
        let f = qr::thin_qr(&a).unwrap();
        let g = f.q.gram();
        let eye = Mat::identity(a.cols());
        // Rank-deficient random draws are measure-zero but numerically
        // possible; Gram must still be close to a projector's diagonal.
        prop_assert!(g.sub(&eye).unwrap().max_abs() < 1e-6);
    }

    #[test]
    fn svd_reconstructs(a in tall_matrix()) {
        let f = svd::thin_svd(&a).unwrap();
        prop_assert!(f.reconstruct().sub(&a).unwrap().max_abs() < tol_for(&a));
    }

    #[test]
    fn svd_values_sorted_and_nonnegative(a in tall_matrix()) {
        let f = svd::thin_svd(&a).unwrap();
        for w in f.s.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        prop_assert!(f.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn svd_frobenius_identity(a in tall_matrix()) {
        let f = svd::thin_svd(&a).unwrap();
        let ss: f64 = f.s.iter().map(|x| x * x).sum();
        let fro2 = a.fro_norm().powi(2);
        prop_assert!((ss - fro2).abs() <= 1e-9 * (1.0 + fro2));
    }

    #[test]
    fn sym_eigen_reconstructs(b in square_matrix()) {
        // Symmetrize the draw.
        let bt = b.transpose();
        let mut s = b.clone();
        spca_linalg::vecops::axpy(1.0, bt.as_slice(), s.as_mut_slice());
        s.scale_mut(0.5);
        let e = eigen::sym_eigen(&s).unwrap();
        prop_assert!(e.reconstruct().sub(&s).unwrap().max_abs() < tol_for(&s));
    }

    #[test]
    fn eigen_trace_identity(b in square_matrix()) {
        let bt = b.transpose();
        let mut s = b.clone();
        spca_linalg::vecops::axpy(1.0, bt.as_slice(), s.as_mut_slice());
        s.scale_mut(0.5);
        let e = eigen::sym_eigen(&s).unwrap();
        let tr: f64 = (0..s.rows()).map(|i| s[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((tr - sum).abs() < tol_for(&s));
    }

    #[test]
    fn matmul_associative_with_vector(a in tall_matrix(), x in proptest::collection::vec(-10.0f64..10.0, 1..6)) {
        // (A x) computed directly equals A * (x as matrix) columnwise.
        prop_assume!(x.len() == a.cols());
        let y = a.matvec(&x).unwrap();
        let xm = Mat::from_col_major(x.len(), 1, x.clone());
        let ym = a.matmul(&xm).unwrap();
        for i in 0..y.len() {
            prop_assert!((y[i] - ym[(i, 0)]).abs() < 1e-9 * (1.0 + y[i].abs()));
        }
    }

    #[test]
    fn transpose_respects_matmul(a in tall_matrix()) {
        // (AᵀA)ᵀ == AᵀA
        let g = a.gram();
        let gt = g.transpose();
        prop_assert!(g.sub(&gt).unwrap().max_abs() < 1e-10 * (1.0 + g.max_abs()));
    }

    #[test]
    fn svd_into_matches_allocating_svd(ms in proptest::collection::vec(any_thin_matrix(), 1..5)) {
        // One workspace reused across a random sequence of shapes (growing,
        // shrinking, empty, rank-deficient) must reproduce the allocating
        // path exactly — stale scratch from a previous decomposition must
        // never leak into the next result.
        let mut ws = SvdWorkspace::default();
        for a in &ms {
            let fresh = svd::thin_svd(a).unwrap();
            svd::thin_svd_into(a, &mut ws).unwrap();
            prop_assert_eq!(&ws.s, &fresh.s);
            prop_assert_eq!(&ws.u, &fresh.u);
            prop_assert_eq!(&ws.v, &fresh.v);
        }
    }

    #[test]
    fn qr_into_matches_allocating_qr(ms in proptest::collection::vec(any_thin_matrix(), 1..5)) {
        let mut ws = QrWorkspace::default();
        for a in &ms {
            let fresh = qr::thin_qr(a).unwrap();
            qr::thin_qr_into(a, &mut ws).unwrap();
            prop_assert_eq!(&ws.q, &fresh.q);
            prop_assert_eq!(&ws.r, &fresh.r);
        }
    }
}
