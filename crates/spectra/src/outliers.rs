//! Contamination process (the Fig. 1 workload).
//!
//! Real survey streams are littered with measurement failures; the paper's
//! robust estimator exists to survive them. [`OutlierInjector`] plants
//! cosmic-ray hits in a clean stream at a configurable rate.

use rand::Rng;

/// Amplitude of a cosmic-ray hit relative to unit-scale data.
const AMPLITUDE: f64 = 50.0;

/// Cosmic-ray injector: a contaminated observation gets a huge spike in a
/// handful of adjacent pixels.
#[derive(Debug, Clone)]
pub struct OutlierInjector {
    /// Probability that a given observation is contaminated.
    rate: f64,
}

impl OutlierInjector {
    /// An injector contaminating each observation with probability `rate`.
    pub fn new(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        OutlierInjector { rate }
    }

    /// Possibly contaminates `x` in place; returns whether it did.
    pub fn maybe_contaminate<R: Rng + ?Sized>(&self, rng: &mut R, x: &mut [f64]) -> bool {
        if rng.gen::<f64>() >= self.rate {
            return false;
        }
        self.contaminate(rng, x);
        true
    }

    /// Plants one cosmic-ray hit in `x`.
    fn contaminate<R: Rng + ?Sized>(&self, rng: &mut R, x: &mut [f64]) {
        let d = x.len();
        let center = rng.gen_range(0..d);
        let width = rng.gen_range(1..=3.min(d));
        let lo = center.saturating_sub(width);
        let hi = (center + width).min(d);
        for xi in &mut x[lo..hi] {
            *xi += AMPLITUDE * (1.0 + rng.gen::<f64>());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rate_zero_never_contaminates() {
        let inj = OutlierInjector::new(0.0);
        let mut rng = StdRng::seed_from_u64(60);
        let mut x = vec![0.0; 50];
        for _ in 0..200 {
            assert!(!inj.maybe_contaminate(&mut rng, &mut x));
        }
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rate_one_always_contaminates() {
        let inj = OutlierInjector::new(1.0);
        let mut rng = StdRng::seed_from_u64(61);
        let mut hits = 0;
        for _ in 0..50 {
            let mut x = vec![0.0; 50];
            if inj.maybe_contaminate(&mut rng, &mut x) {
                hits += 1;
                assert!(x.iter().any(|&v| v != 0.0));
            }
        }
        assert_eq!(hits, 50);
    }

    #[test]
    fn cosmic_ray_is_localized() {
        let inj = OutlierInjector::new(1.0);
        let mut rng = StdRng::seed_from_u64(62);
        let mut x = vec![0.0; 100];
        inj.contaminate(&mut rng, &mut x);
        let touched = x.iter().filter(|&&v| v != 0.0).count();
        assert!((1..=6).contains(&touched), "{touched} pixels hit");
        assert!(x.iter().cloned().fold(0.0_f64, f64::max) > 40.0);
    }

    #[test]
    fn statistical_rate_matches() {
        let inj = OutlierInjector::new(0.1);
        let mut rng = StdRng::seed_from_u64(64);
        let mut hits = 0;
        let n = 5000;
        for _ in 0..n {
            let mut x = vec![0.0; 10];
            if inj.maybe_contaminate(&mut rng, &mut x) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_rate_rejected() {
        let _ = OutlierInjector::new(1.5);
    }
}
