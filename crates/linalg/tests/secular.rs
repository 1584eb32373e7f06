//! The diagonal-plus-rank-one eigensolver against the dense Jacobi
//! eigensolver of the explicit matrix `diag(δ) + zzᵀ`, on every deflation
//! case: `z = 0`, a single zero `z_j`, equal poles (several zero `δ` beside
//! a trailing zero pole), poles 1e-14 apart, `n = 1`, and `δ` spanning
//! 1e-30 to 1.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spca_linalg::rng::standard_normal_vec;
use spca_linalg::{rank_one_eigen, sym_eigen, Mat, SecularWorkspace};

/// The shapes the generator draws from.
#[derive(Debug, Clone, Copy)]
enum Case {
    Generic,
    ZeroZ,
    OneZeroZ,
    ZeroPoles,
    ClosePoles,
    Single,
    WideRange,
}

const CASES: [Case; 7] = [
    Case::Generic,
    Case::ZeroZ,
    Case::OneZeroZ,
    Case::ZeroPoles,
    Case::ClosePoles,
    Case::Single,
    Case::WideRange,
];

/// One problem `(δ, z)` of the given shape; `δ` descending like the
/// streaming core's `[g·λ, 0]`, except where the case says otherwise.
fn problem(case: Case, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let n = match case {
        Case::Single => 1,
        _ => rng.gen_range(2..=14usize),
    };
    let mut d: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    d.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let mut z = standard_normal_vec(rng, n);
    for v in &mut z {
        *v *= rng.gen_range(0.01..1.0);
    }
    match case {
        Case::Generic | Case::Single => {}
        Case::ZeroZ => z.fill(0.0),
        Case::OneZeroZ => z[rng.gen_range(0..n)] = 0.0,
        Case::ZeroPoles => {
            let zeros = rng.gen_range(1..=n);
            d[n - zeros..].fill(0.0);
            if rng.gen_bool(0.5) {
                z[n - 1] = 0.0;
            }
        }
        Case::ClosePoles => {
            for j in 1..n {
                if rng.gen_bool(0.5) {
                    d[j] = d[j - 1] - 1e-14;
                }
            }
        }
        Case::WideRange => {
            for v in &mut d {
                *v = 10f64.powf(rng.gen_range(-30.0..0.0));
            }
            d.sort_by(|a, b| b.partial_cmp(a).unwrap());
        }
    }
    (d, z)
}

fn explicit(d: &[f64], z: &[f64]) -> Mat {
    let n = d.len();
    Mat::from_fn(n, n, |i, j| z[i] * z[j] + if i == j { d[i] } else { 0.0 })
}

fn check(d: &[f64], z: &[f64], ws: &mut SecularWorkspace) -> Result<(), TestCaseError> {
    let n = d.len();
    rank_one_eigen(d, z, ws).unwrap();
    let a = explicit(d, z);
    let norm = a.fro_norm().max(f64::MIN_POSITIVE);
    let tol = 20.0 * n as f64 * f64::EPSILON * norm;
    let (vals, v) = (&ws.values, &ws.vectors);

    for w in vals.windows(2) {
        prop_assert!(w[0] >= w[1], "values not descending: {vals:?}");
    }
    let gram = v.gram();
    for i in 0..n {
        for j in 0..n {
            let want = if i == j { 1.0 } else { 0.0 };
            let err = (gram[(i, j)] - want).abs();
            prop_assert!(err <= 1e-13, "|VᵀV − I|[{i},{j}] = {err:e}");
        }
    }
    let av = a.matmul(v).unwrap();
    for j in 0..n {
        for i in 0..n {
            let r = (av[(i, j)] - vals[j] * v[(i, j)]).abs();
            prop_assert!(r <= tol, "residual {r:e} > {tol:e} at ({i},{j})");
        }
    }
    let reference = sym_eigen(&a).unwrap();
    for (got, want) in vals.iter().zip(&reference.values) {
        prop_assert!((got - want).abs() <= tol, "value {got} vs {want}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn matches_dense_eigensolver(seed in any::<u64>(), pick in 0..CASES.len()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (d, z) = problem(CASES[pick], &mut rng);
        let mut ws = SecularWorkspace::default();
        check(&d, &z, &mut ws)?;
        // A workspace sized by a larger problem gives the same answer.
        let (big_d, big_z) = problem(Case::Generic, &mut rng);
        let mut reused = SecularWorkspace::default();
        rank_one_eigen(&big_d, &big_z, &mut reused).unwrap();
        rank_one_eigen(&d, &z, &mut reused).unwrap();
        prop_assert_eq!(&reused.values, &ws.values);
        prop_assert_eq!(&reused.vectors, &ws.vectors);
    }

    /// Scaling the problem by a power of two scales the values and leaves
    /// the vectors alone, out to the edges of the exponent range.
    #[test]
    fn scale_invariant(seed in any::<u64>(), pick in 0..CASES.len(), exp in -400i32..=498) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (d, z) = problem(CASES[pick], &mut rng);
        let f = 2f64.powi(exp);
        let mut unit = SecularWorkspace::default();
        rank_one_eigen(&d, &z, &mut unit).unwrap();
        let mut scaled = SecularWorkspace::default();
        let sd: Vec<f64> = d.iter().map(|v| v * f * f).collect();
        let sz: Vec<f64> = z.iter().map(|v| v * f).collect();
        rank_one_eigen(&sd, &sz, &mut scaled).unwrap();
        for (a, b) in unit.values.iter().zip(&scaled.values) {
            prop_assert_eq!(*a, b / f / f);
        }
        prop_assert_eq!(&unit.vectors, &scaled.vectors);
    }
}

/// A coordinate with `z_j = 0` whose pole ties another deflated one never
/// ranks above it: the streaming update appends such a coordinate (a new
/// observation inside the tracked span) and must never pick it.
#[test]
fn a_zero_z_coordinate_never_ranks_above_a_tie() {
    let mut ws = SecularWorkspace::default();
    rank_one_eigen(&[2.0, 0.0, 0.0, 0.0], &[1.0, 0.0, 0.0, 0.0], &mut ws).unwrap();
    assert_eq!(ws.values[1..], [0.0, 0.0, 0.0]);
    for j in 1..4 {
        assert_eq!(
            ws.vectors.col(j)[j],
            1.0,
            "column {j}: {:?}",
            ws.vectors.col(j)
        );
    }
    // Negative zero ties positive zero.
    rank_one_eigen(&[1.0, -0.0, 0.0], &[0.5, 0.0, 0.0], &mut ws).unwrap();
    assert_eq!(ws.vectors.col(1)[1], 1.0);
    assert_eq!(ws.vectors.col(2)[2], 1.0);
}

#[test]
fn closed_forms() {
    let mut ws = SecularWorkspace::default();
    rank_one_eigen(&[], &[], &mut ws).unwrap();
    assert!(ws.values.is_empty());
    rank_one_eigen(&[3.0], &[2.0], &mut ws).unwrap();
    assert_eq!(ws.values, [7.0]);
    assert_eq!(ws.vectors.col(0)[0].abs(), 1.0);
    // diag(0, 0) + [1, 1][1, 1]ᵀ has eigenvalues 2 and 0.
    rank_one_eigen(&[0.0, 0.0], &[1.0, 1.0], &mut ws).unwrap();
    assert!((ws.values[0] - 2.0).abs() < 1e-15 && ws.values[1].abs() < 1e-15);
    assert!(rank_one_eigen(&[f64::NAN], &[1.0], &mut ws).is_err());
    assert!(rank_one_eigen(&[1.0, 2.0], &[1.0], &mut ws).is_err());
}
