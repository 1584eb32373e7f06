//! Spectrum normalization (§II-D).
//!
//! PCA presumes the Euclidean metric measures similarity; a galaxy twice as
//! bright must not be "far" from itself. Every spectrum is therefore
//! normalized before entering the stream. With gaps this is subtle — the
//! norm over observed pixels is biased low — so the masked variant
//! normalizes relative to the coverage-weighted norm.

use spca_linalg::vecops;

/// Normalizes a gappy spectrum so that its *density* (norm² per observed
/// pixel) matches what a complete unit-norm spectrum of the same length
/// would have. Returns the applied scale factor (1.0 if nothing observed).
pub fn unit_norm_masked(flux: &mut [f64], mask: &[bool]) -> f64 {
    assert_eq!(flux.len(), mask.len());
    let d = flux.len();
    let n_obs = mask.iter().filter(|&&m| m).count();
    if n_obs == 0 {
        return 1.0;
    }
    let norm2_obs: f64 = flux
        .iter()
        .zip(mask)
        .filter(|(_, &m)| m)
        .map(|(f, _)| f * f)
        .sum();
    if norm2_obs <= 0.0 {
        return 1.0;
    }
    // Target: norm²_obs == n_obs/d after scaling, so a complete spectrum
    // would come out exactly unit norm.
    let target = n_obs as f64 / d as f64;
    let scale = (target / norm2_obs).sqrt();
    vecops::scale(flux, scale);
    scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_norm_is_brightness_invariant() {
        // Two spectra identical up to brightness must normalize to the same
        // vector, even with gaps.
        let base = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mask = vec![true, true, false, true, true, false];
        let mut a = base.clone();
        let mut b: Vec<f64> = base.iter().map(|v| 3.7 * v).collect();
        unit_norm_masked(&mut a, &mask);
        unit_norm_masked(&mut b, &mask);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn masked_norm_complete_equals_unit_norm() {
        let mut a = vec![1.0, -2.0, 2.0];
        let mut b = a.clone();
        vecops::normalize(&mut a);
        unit_norm_masked(&mut b, &[true, true, true]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn masked_norm_density_matches() {
        // After masked normalization, norm² over observed pixels should be
        // n_obs/d.
        let mut f = vec![2.0, 5.0, 1.0, 7.0];
        let mask = vec![true, false, true, true];
        unit_norm_masked(&mut f, &mask);
        let n2: f64 = f
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| m)
            .map(|(v, _)| v * v)
            .sum();
        assert!((n2 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_untouched() {
        let mut z = vec![0.0; 4];
        assert_eq!(unit_norm_masked(&mut z, &[true; 4]), 1.0);
        let mut f = vec![1.0, 2.0];
        assert_eq!(unit_norm_masked(&mut f, &[false, false]), 1.0);
        assert_eq!(f, vec![1.0, 2.0]);
    }
}
