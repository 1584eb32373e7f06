//! Gaussian sampling helpers.
//!
//! The allowed dependency set includes `rand` but not `rand_distr`, so the
//! standard-normal sampler (polar Box–Muller) lives here. Workload
//! generators across the workspace use these helpers for reproducible,
//! seeded noise.

use rand::Rng;

/// Draws one standard-normal sample using the polar Box–Muller method.
///
/// The method draws pairs; the spare is intentionally discarded to keep the
/// API stateless (the cost is negligible next to the PCA update itself).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Fills a slice with i.i.d. standard normals.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    for v in out {
        *v = standard_normal(rng);
    }
}

/// Returns a fresh vector of `n` i.i.d. standard normals.
pub fn standard_normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    let mut v = vec![0.0; n];
    fill_standard_normal(rng, &mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_are_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let samples = standard_normal_vec(&mut rng, n);
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let a = standard_normal_vec(&mut StdRng::seed_from_u64(1), 16);
        let b = standard_normal_vec(&mut StdRng::seed_from_u64(1), 16);
        assert_eq!(a, b);
    }

    #[test]
    fn all_samples_finite() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(standard_normal_vec(&mut rng, 10_000)
            .iter()
            .all(|v| v.is_finite()));
    }
}
