//! Property tests for the synthetic-data substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_spectra::gaps::SnippetGaps;
use spca_spectra::normalize::unit_norm_masked;
use spca_spectra::outliers::OutlierInjector;
use spca_spectra::{GalaxyGenerator, GalaxyParams, PlantedSubspace, WavelengthGrid};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Grids are monotone increasing and pixel lookup round-trips.
    #[test]
    fn grid_roundtrip(n in 10usize..2000) {
        let g = WavelengthGrid::sdss_like(n);
        let l = g.lambdas();
        prop_assert!(l.windows(2).all(|w| w[1] > w[0]));
        for i in [0, n / 3, n - 1] {
            prop_assert_eq!(g.pixel_of(g.lambda(i)), Some(i));
        }
    }

    /// Galaxy model spectra are finite, non-negative, and scale linearly
    /// with brightness.
    #[test]
    fn galaxy_model_properties(age in 0.0f64..1.0, emission in 0.0f64..1.0, bright in 0.1f64..3.0) {
        let gen = GalaxyGenerator::new(120, 0.2);
        let p = GalaxyParams { age, emission, agn: 0.0, brightness: bright, z: 0.0 };
        let f = gen.model(&p);
        prop_assert!(f.iter().all(|v| v.is_finite() && *v >= 0.0));
        let p2 = GalaxyParams { brightness: 2.0 * bright, ..p };
        let f2 = gen.model(&p2);
        for (a, b) in f.iter().zip(&f2) {
            prop_assert!((2.0 * a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    /// Masked normalization is brightness-invariant and idempotent-ish.
    #[test]
    fn masked_norm_brightness_invariant(
        base in proptest::collection::vec(0.01f64..10.0, 8..64),
        scale in 0.1f64..50.0,
        mask_seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let mask: Vec<bool> = {
            use rand::Rng;
            let mut m: Vec<bool> = (0..base.len()).map(|_| rng.gen::<f64>() > 0.3).collect();
            if m.iter().all(|&b| !b) {
                m[0] = true;
            }
            m
        };
        let mut a = base.clone();
        let mut b: Vec<f64> = base.iter().map(|v| scale * v).collect();
        unit_norm_masked(&mut a, &mask);
        unit_norm_masked(&mut b, &mask);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
        // Re-normalizing is a no-op.
        let before = a.clone();
        unit_norm_masked(&mut a, &mask);
        for (x, y) in a.iter().zip(&before) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    /// Snippet masks never blank everything and only remove pixels.
    #[test]
    fn snippet_masks_bounded(runs in 0.0f64..5.0, lo in 1usize..5, extra in 0usize..10, d in 20usize..200, seed in 0u64..500) {
        let g = SnippetGaps::new(runs, lo, lo + extra);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = g.mask(&mut rng, d);
        prop_assert_eq!(m.len(), d);
        prop_assert!(m.iter().any(|&b| b), "entire spectrum blanked");
    }

    /// The planted-subspace workload's samples decompose exactly into
    /// signal (in-basis) + noise with the configured magnitude statistics.
    #[test]
    fn planted_samples_have_bounded_off_subspace_energy(seed in 0u64..500) {
        let w = PlantedSubspace::new(24, 3, 0.01);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = w.sample(&mut rng);
        let coeffs = w.basis().tr_matvec(&x).unwrap();
        let rec = w.basis().matvec(&coeffs).unwrap();
        let resid: f64 = x.iter().zip(&rec).map(|(a, b)| (a - b) * (a - b)).sum();
        // Off-subspace energy is pure noise: ~ σ²·(d−k) with heavy slack.
        prop_assert!(resid < 0.01 * 24.0, "residual energy {resid}");
    }

    /// Outlier injection at rate 0 and 1 behaves exactly.
    #[test]
    fn injector_rate_extremes(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let never = OutlierInjector::new(0.0);
        let always = OutlierInjector::new(1.0);
        let mut x = vec![1.0; 30];
        prop_assert!(!never.maybe_contaminate(&mut rng, &mut x));
        prop_assert_eq!(&x, &vec![1.0; 30]);
        prop_assert!(always.maybe_contaminate(&mut rng, &mut x));
    }
}
