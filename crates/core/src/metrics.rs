//! Convergence and agreement diagnostics.
//!
//! The figures of the paper are all statements about convergence (Fig. 1,
//! 4, 5) or agreement between independently-evolving estimates (the sync
//! criterion of §II-C). These metrics quantify both: the largest principal
//! angle between subspaces and the smoothness measure the paper invokes for
//! Fig. 5 ("the smoothness of these curves is a sign of robustness as PCA
//! has no notion of where the pixels are relative to each other").

use crate::Result;
use spca_linalg::{gemm, svd, Mat};

/// Distance between the column spans of orthonormal `a` and `b` (same row
/// count): `sin` of the largest principal angle, in `[0, 1]`, zero iff the
/// narrower span lies in the wider one. Computed as `‖B − A(AᵀB)‖₂` with
/// `B` the narrower basis, the part of `B` outside `span(A)`, so it
/// resolves distances down to rounding (`sqrt(1 − cos²)` of the cosines
/// cannot read below ~1e-8).
pub fn subspace_distance(a: &Mat, b: &Mat) -> Result<f64> {
    let (a, b) = if a.cols() < b.cols() { (b, a) } else { (a, b) };
    let outside = b.sub(&gemm::gemm(a, &gemm::gemm(&a.transpose(), b)?)?)?;
    let s = svd::thin_svd(&outside)?.s;
    Ok(s.first().map_or(0.0, |&s| s.min(1.0)))
}

/// Second-difference roughness of a curve: `Σ (x[i+1] − 2x[i] + x[i−1])²`,
/// normalized by the curve's variance. Physical eigenspectra are smooth;
/// noise-dominated ones are rough. Used to quantify the Fig. 4 → Fig. 5
/// improvement.
pub fn roughness(curve: &[f64]) -> f64 {
    if curve.len() < 3 {
        return 0.0;
    }
    let mean = curve.iter().sum::<f64>() / curve.len() as f64;
    let var = curve.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / curve.len() as f64;
    if var <= 0.0 {
        return 0.0;
    }
    let mut s = 0.0;
    for w in curve.windows(3) {
        let d2 = w[2] - 2.0 * w[1] + w[0];
        s += d2 * d2;
    }
    s / (var * (curve.len() - 2) as f64)
}

/// A convergence trace: records a scalar diagnostic every `stride`
/// observations, for plotting eigenvalue histories (Fig. 1).
#[derive(Debug, Clone)]
pub struct Trace {
    stride: u64,
    next: u64,
    /// `(n_obs, values)` samples.
    pub samples: Vec<(u64, Vec<f64>)>,
}

impl Trace {
    /// A trace sampling every `stride` observations (`stride ≥ 1`).
    pub fn new(stride: u64) -> Self {
        assert!(stride >= 1);
        Trace {
            stride,
            next: 0,
            samples: Vec::new(),
        }
    }

    /// Offers the current observation count and a lazily-computed value
    /// vector; records it if the stride boundary has been reached.
    pub fn offer(&mut self, n_obs: u64, values: impl FnOnce() -> Vec<f64>) {
        if n_obs >= self.next {
            self.samples.push((n_obs, values()));
            self.next = n_obs + self.stride;
        }
    }

    /// The recorded series for component `k` as `(n_obs, value)` pairs.
    pub fn series(&self, k: usize) -> Vec<(u64, f64)> {
        self.samples
            .iter()
            .filter_map(|(n, vals)| vals.get(k).map(|&v| (*n, v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axes(d: usize, which: &[usize]) -> Mat {
        let mut m = Mat::zeros(d, which.len());
        for (j, &ax) in which.iter().enumerate() {
            m[(ax, j)] = 1.0;
        }
        m
    }

    #[test]
    fn identical_subspaces_have_zero_distance() {
        let a = axes(6, &[0, 1]);
        assert!(subspace_distance(&a, &a).unwrap() < 1e-12);
    }

    #[test]
    fn orthogonal_subspaces_have_distance_one() {
        let a = axes(6, &[0, 1]);
        let b = axes(6, &[2, 3]);
        assert!((subspace_distance(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_invariance() {
        // Span{e0, e1} expressed in a rotated basis is the same subspace.
        let a = axes(4, &[0, 1]);
        let mut b = Mat::zeros(4, 2);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        b[(0, 0)] = s;
        b[(1, 0)] = s;
        b[(0, 1)] = s;
        b[(1, 1)] = -s;
        assert!(subspace_distance(&a, &b).unwrap() < 1e-12);
    }

    #[test]
    fn partial_overlap_distance() {
        let a = axes(6, &[0, 1]);
        let b = axes(6, &[0, 2]);
        // One shared direction, one orthogonal → max angle 90°.
        assert!((subspace_distance(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    /// An orthonormal `d × k` basis and a unit vector orthogonal to it.
    fn basis_and_normal(d: usize, k: usize, seed: u64) -> (Mat, Vec<f64>) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut g = Mat::zeros(d, k + 1);
        spca_linalg::rng::fill_standard_normal(&mut StdRng::seed_from_u64(seed), g.as_mut_slice());
        let q = spca_linalg::qr::orthonormalize(&g).unwrap();
        (q.columns_range(0, k), q.col(k).to_vec())
    }

    #[test]
    fn resolves_distances_far_below_the_cosine_floor() {
        let (a, normal) = basis_and_normal(500, 6, 11);
        assert!(subspace_distance(&a, &a).unwrap() < 1e-12);
        let theta = 1e-9_f64;
        let mut b = a.clone();
        for (x, n) in b.col_mut(3).iter_mut().zip(&normal) {
            *x = theta.cos() * *x + theta.sin() * n;
        }
        for d in [subspace_distance(&a, &b), subspace_distance(&b, &a)] {
            let d = d.unwrap();
            assert!((d - theta).abs() < 1e-3 * theta, "read {d:e} for {theta:e}");
        }
        // The narrower basis is measured against the wider one.
        let narrow = b.columns_range(0, 3);
        assert!(subspace_distance(&a, &narrow).unwrap() < 1e-12);
        assert!((subspace_distance(&narrow, &b.columns_range(3, 6)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smooth_curve_less_rough_than_noise() {
        let smooth: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut noisy = smooth.clone();
        for (i, v) in noisy.iter_mut().enumerate() {
            *v += if i % 2 == 0 { 0.3 } else { -0.3 };
        }
        assert!(roughness(&smooth) < 0.1 * roughness(&noisy));
    }

    #[test]
    fn roughness_degenerate_inputs() {
        assert_eq!(roughness(&[]), 0.0);
        assert_eq!(roughness(&[1.0, 2.0]), 0.0);
        assert_eq!(roughness(&[5.0; 10]), 0.0);
    }

    #[test]
    fn trace_strides() {
        let mut t = Trace::new(10);
        for n in 0..35 {
            t.offer(n, || vec![n as f64]);
        }
        let s = t.series(0);
        assert_eq!(s.len(), 4); // n = 0, 10, 20, 30
        assert_eq!(s[1], (10, 10.0));
    }
}
