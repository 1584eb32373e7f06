//! Gaussian performance workloads with planted structure.
//!
//! §III-D: "We used gaussian random data artificially enriched with
//! additional signals to test the performance of the Streaming PCA
//! engine." This module reproduces that workload — isotropic Gaussian
//! noise plus a planted low-rank signal subspace — with the ground-truth
//! basis exposed so accuracy can be verified alongside throughput.

use rand::Rng;
use spca_linalg::rng::{fill_standard_normal, standard_normal_vec};
use spca_linalg::{qr, vecops, Mat};

/// A planted `rank`-dimensional signal subspace inside `R^dim` with
/// isotropic noise.
#[derive(Debug, Clone)]
pub struct PlantedSubspace {
    /// Orthonormal signal basis (`dim × rank`).
    basis: Mat,
    /// Signal standard deviations per component (descending).
    signal_sigmas: Vec<f64>,
    /// Isotropic noise standard deviation.
    noise_sigma: f64,
}

impl PlantedSubspace {
    /// Plants a random `rank`-dimensional subspace in `dim` dimensions with
    /// component σ decaying geometrically from 4.0 by 0.8, plus isotropic
    /// noise `noise_sigma`. Deterministic given the (dim, rank) pair.
    pub fn new(dim: usize, rank: usize, noise_sigma: f64) -> Self {
        assert!(rank >= 1 && dim > rank);
        // Deterministic pseudo-random basis from a fixed-seed generator so
        // workloads are reproducible across processes without threading a
        // seed through every constructor.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x5eed ^ (dim as u64) << 16 ^ rank as u64);
        let mut raw = Mat::zeros(dim, rank);
        fill_standard_normal(&mut rng, raw.as_mut_slice());
        let basis = qr::orthonormalize(&raw).expect("random matrix is full rank");
        let signal_sigmas = (0..rank).map(|k| 4.0 * 0.8f64.powi(k as i32)).collect();
        PlantedSubspace {
            basis,
            signal_sigmas,
            noise_sigma,
        }
    }

    /// Ambient dimensionality.
    pub fn dim(&self) -> usize {
        self.basis.rows()
    }

    /// Signal rank.
    pub fn rank(&self) -> usize {
        self.basis.cols()
    }

    /// The ground-truth signal basis.
    pub fn basis(&self) -> &Mat {
        &self.basis
    }

    /// Ground-truth eigenvalues of the population covariance restricted to
    /// the signal subspace: σ_k² + noise².
    pub fn true_eigenvalues(&self) -> Vec<f64> {
        self.signal_sigmas
            .iter()
            .map(|s| s * s + self.noise_sigma * self.noise_sigma)
            .collect()
    }

    /// Draws one observation.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let coeffs: Vec<f64> = self
            .signal_sigmas
            .iter()
            .map(|&s| s * spca_linalg::rng::standard_normal(rng))
            .collect();
        let mut x = self
            .basis
            .matvec(&coeffs)
            .expect("coeff length matches basis");
        if self.noise_sigma > 0.0 {
            let noise = standard_normal_vec(rng, x.len());
            vecops::axpy(self.noise_sigma, &noise, &mut x);
        }
        x
    }

    /// Draws a batch of observations.
    pub fn sample_batch<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spca_core::batch::batch_pca;
    use spca_core::metrics::subspace_distance;

    #[test]
    fn samples_have_right_dimension() {
        let w = PlantedSubspace::new(50, 3, 0.1);
        let mut rng = StdRng::seed_from_u64(80);
        assert_eq!(w.sample(&mut rng).len(), 50);
        assert_eq!(w.dim(), 50);
        assert_eq!(w.rank(), 3);
    }

    #[test]
    fn batch_pca_recovers_planted_basis() {
        let w = PlantedSubspace::new(30, 3, 0.05);
        let mut rng = StdRng::seed_from_u64(81);
        let data = w.sample_batch(&mut rng, 2000);
        let eig = batch_pca(&data, 3).unwrap();
        let dist = subspace_distance(&eig.basis, w.basis()).unwrap();
        assert!(dist < 0.1, "recovered basis distance {dist}");
        let truth = w.true_eigenvalues();
        for (k, (&ev, &tv)) in eig.values.iter().zip(&truth).enumerate().take(3) {
            let rel = (ev - tv).abs() / tv;
            assert!(rel < 0.2, "λ{k}: {ev} vs {tv}");
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let a = PlantedSubspace::new(20, 2, 0.1);
        let b = PlantedSubspace::new(20, 2, 0.1);
        assert!(a.basis().sub(b.basis()).unwrap().max_abs() < 1e-15);
    }

    #[test]
    fn different_shapes_give_different_bases() {
        let a = PlantedSubspace::new(20, 2, 0.1);
        let b = PlantedSubspace::new(20, 3, 0.1);
        // Compare the first columns: overwhelmingly unlikely to coincide.
        let d: f64 = a
            .basis()
            .col(0)
            .iter()
            .zip(b.basis().col(0))
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(d > 1e-6);
    }

    #[test]
    fn noise_free_samples_live_in_subspace() {
        let w = PlantedSubspace::new(15, 2, 0.0);
        let mut rng = StdRng::seed_from_u64(82);
        for _ in 0..50 {
            let x = w.sample(&mut rng);
            // Project out the basis: residual must vanish.
            let coeffs = w.basis().tr_matvec(&x).unwrap();
            let rec = w.basis().matvec(&coeffs).unwrap();
            let r = vecops::sub(&x, &rec);
            assert!(vecops::norm(&r) < 1e-10);
        }
    }
}
