//! The low-rank galaxy manifold generator.
//!
//! Each synthetic galaxy is driven by a handful of latent parameters —
//! stellar age, emission-line strength, AGN contribution, velocity offset,
//! brightness, redshift — so the population of spectra lives near a
//! low-dimensional manifold embedded in pixel space. This reproduces the
//! property the paper leans on for Fig. 4–5: "the inherently low-rank
//! galaxy manifold … means the galaxies are redundant in good
//! approximation", and it gives the test-suite ground truth the real
//! survey cannot.

use crate::contaminants::{self, ContaminantKind};
use crate::continuum::continuum_curve;
use crate::lines::{add_line, ABSORPTION_LINES, EMISSION_LINES};
use crate::normalize::unit_norm_masked;
use crate::wavelength::WavelengthGrid;
use rand::Rng;
use spca_linalg::rng::standard_normal;

/// Latent parameters of one synthetic galaxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GalaxyParams {
    /// Stellar population age proxy, 0 = star-forming … 1 = passive.
    pub age: f64,
    /// Emission-line strength (suppressed for passive galaxies).
    pub emission: f64,
    /// AGN-like boost of the high-ionization lines.
    pub agn: f64,
    /// Overall brightness multiplier.
    pub brightness: f64,
    /// Redshift.
    pub z: f64,
}

/// A generated spectrum with its ground truth.
#[derive(Debug, Clone)]
pub struct Spectrum {
    /// Flux per pixel on the generator's rest-frame grid.
    pub flux: Vec<f64>,
    /// Observed-bin mask (`true` = observed). All-true unless a gap model
    /// was applied.
    pub mask: Vec<bool>,
    /// The latent parameters that produced it.
    pub params: GalaxyParams,
}

/// One CSV-ready observation: unit-normalized flux and its observed-bin mask.
pub type MaskedRow = (Vec<f64>, Vec<bool>);

/// Configuration and machinery for galaxy spectrum generation.
#[derive(Debug, Clone)]
pub struct GalaxyGenerator {
    grid: WavelengthGrid,
    lambdas: Vec<f64>,
    /// Per-pixel Gaussian noise σ.
    pub noise_sigma: f64,
    /// Maximum redshift drawn.
    pub z_max: f64,
    /// Fraction of passive (red) galaxies in the population.
    pub passive_fraction: f64,
}

impl GalaxyGenerator {
    /// A generator on a rest-frame grid of `n_pixels` covering redshifts up
    /// to `z_max`, with default SDSS-ish noise.
    pub fn new(n_pixels: usize, z_max: f64) -> Self {
        let grid = WavelengthGrid::rest_frame(n_pixels, z_max);
        let lambdas = grid.lambdas();
        GalaxyGenerator {
            grid,
            lambdas,
            noise_sigma: 0.02,
            z_max,
            passive_fraction: 0.4,
        }
    }

    /// The rest-frame grid used.
    pub fn grid(&self) -> &WavelengthGrid {
        &self.grid
    }

    /// Pixel count per spectrum.
    pub fn dim(&self) -> usize {
        self.lambdas.len()
    }

    /// Draws latent parameters from the population model.
    pub fn draw_params<R: Rng + ?Sized>(&self, rng: &mut R) -> GalaxyParams {
        let passive = rng.gen::<f64>() < self.passive_fraction;
        let age = if passive {
            0.7 + 0.3 * rng.gen::<f64>()
        } else {
            0.4 * rng.gen::<f64>()
        };
        // Emission anti-correlates with age.
        let emission = (1.0 - age) * (0.3 + 0.7 * rng.gen::<f64>());
        let agn = if rng.gen::<f64>() < 0.1 {
            rng.gen::<f64>()
        } else {
            0.0
        };
        let brightness = (0.5 + rng.gen::<f64>()).powi(2);
        let z = self.z_max * rng.gen::<f64>();
        GalaxyParams {
            age,
            emission,
            agn,
            brightness,
            z,
        }
    }

    /// Deterministic noiseless spectrum for given parameters.
    pub fn model(&self, p: &GalaxyParams) -> Vec<f64> {
        let mut flux = continuum_curve(&self.lambdas, p.age);
        // Emission lines, suppressed by age; AGN boosts [OIII] and the
        // Balmer lines. Strong star-formers show Hα at several times the
        // continuum (equivalent widths of tens to hundreds of Å), which is
        // what makes the emission pattern a principal component of the
        // population.
        for line in EMISSION_LINES {
            let boost = if line.name.starts_with("[OIII]") || line.name.starts_with("H") {
                1.0 + 2.0 * p.agn
            } else {
                1.0
            };
            add_line(&mut flux, &self.lambdas, line, 3.0 * p.emission * boost);
        }
        // Absorption features grow with age.
        for line in ABSORPTION_LINES {
            add_line(&mut flux, &self.lambdas, line, -0.35 * p.age);
        }
        for f in flux.iter_mut() {
            *f = (*f).max(0.0) * p.brightness;
        }
        flux
    }

    /// Draws one complete (ungapped) noisy spectrum.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Spectrum {
        let params = self.draw_params(rng);
        let mut flux = self.model(&params);
        for f in flux.iter_mut() {
            *f += self.noise_sigma * params.brightness * standard_normal(rng);
        }
        let mask = vec![true; flux.len()];
        Spectrum { flux, mask, params }
    }

    /// Draws a spectrum with the redshift-dependent coverage gap applied:
    /// pixels outside the observed window `[3800, 9200] Å / (1+z)` are
    /// masked (§II-D's systematic gap class).
    pub fn sample_with_coverage<R: Rng + ?Sized>(&self, rng: &mut R) -> Spectrum {
        let mut s = self.sample(rng);
        let (lo, hi) = self.grid.coverage_at_redshift(s.params.z, 3800.0, 9200.0);
        for (i, m) in s.mask.iter_mut().enumerate() {
            *m = i >= lo && i < hi;
        }
        s
    }

    /// Draws a contaminated survey extract of `n` unit-normalized rows,
    /// ready for [`crate::io::write_csv_masked`]: each row is, with
    /// probability `contamination`, a quasar, star or sky residual
    /// (fully observed), otherwise a galaxy with its coverage gap.
    /// Returns the rows and the number of contaminants among them.
    pub fn survey_extract<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        contamination: f64,
    ) -> (Vec<MaskedRow>, usize) {
        let mut contaminated = 0;
        let rows = (0..n).map(|_| {
            let (mut flux, mask) = if rng.gen::<f64>() < contamination {
                contaminated += 1;
                let kind = match rng.gen_range(0..3) {
                    0 => ContaminantKind::Quasar,
                    1 => ContaminantKind::Star,
                    _ => ContaminantKind::Sky,
                };
                let flux = contaminants::draw(rng, &self.grid, kind);
                (flux, vec![true; self.dim()])
            } else {
                let s = self.sample_with_coverage(rng);
                (s.flux, s.mask)
            };
            unit_norm_masked(&mut flux, &mask);
            (flux, mask)
        });
        let rows = rows.collect();
        (rows, contaminated)
    }
}

impl Spectrum {
    /// Number of observed pixels.
    pub fn n_observed(&self) -> usize {
        self.mask.iter().filter(|&&m| m).count()
    }

    /// True if every pixel is observed.
    pub fn is_complete(&self) -> bool {
        self.mask.iter().all(|&m| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spca_core::batch::batch_pca;

    #[test]
    fn spectra_have_configured_dimension() {
        let g = GalaxyGenerator::new(300, 0.3);
        let mut rng = StdRng::seed_from_u64(50);
        let s = g.sample(&mut rng);
        assert_eq!(s.flux.len(), 300);
        assert!(s.is_complete());
    }

    #[test]
    fn model_is_deterministic() {
        let g = GalaxyGenerator::new(200, 0.3);
        let p = GalaxyParams {
            age: 0.5,
            emission: 0.3,
            agn: 0.0,
            brightness: 1.0,
            z: 0.1,
        };
        assert_eq!(g.model(&p), g.model(&p));
    }

    #[test]
    fn emission_galaxy_shows_halpha() {
        let g = GalaxyGenerator::new(1000, 0.3);
        let p_em = GalaxyParams {
            age: 0.0,
            emission: 1.0,
            agn: 0.0,
            brightness: 1.0,
            z: 0.0,
        };
        let p_pass = GalaxyParams {
            age: 1.0,
            emission: 0.0,
            agn: 0.0,
            brightness: 1.0,
            z: 0.0,
        };
        let em = g.model(&p_em);
        let pass = g.model(&p_pass);
        let ha_pix = g.grid().pixel_of(6562.8).unwrap();
        let side_pix = g.grid().pixel_of(6400.0).unwrap();
        // Emission galaxy: Hα well above local continuum.
        assert!(
            em[ha_pix] > 1.5 * em[side_pix],
            "Hα {} vs side {}",
            em[ha_pix],
            em[side_pix]
        );
        // Passive: no emission bump (absorption makes it at/below).
        assert!(pass[ha_pix] <= 1.05 * pass[side_pix]);
    }

    #[test]
    fn brightness_scales_flux() {
        let g = GalaxyGenerator::new(200, 0.3);
        let p1 = GalaxyParams {
            age: 0.5,
            emission: 0.2,
            agn: 0.0,
            brightness: 1.0,
            z: 0.0,
        };
        let p2 = GalaxyParams {
            brightness: 2.0,
            ..p1
        };
        let f1 = g.model(&p1);
        let f2 = g.model(&p2);
        for (a, b) in f1.iter().zip(&f2) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn population_is_low_rank() {
        // The paper's premise: a few components capture almost all variance.
        let g = GalaxyGenerator::new(150, 0.0); // no redshift smearing
        let mut rng = StdRng::seed_from_u64(51);
        let data: Vec<Vec<f64>> = (0..400)
            .map(|_| {
                let mut s = g.sample(&mut rng);
                // Normalize brightness so rank reflects shape variance.
                let norm = spca_linalg::vecops::norm(&s.flux);
                spca_linalg::vecops::scale(&mut s.flux, 1.0 / norm);
                s.flux
            })
            .collect();
        let eig = batch_pca(&data, 8).unwrap();
        let explained: f64 = eig.values.iter().sum();
        let total: f64 = explained + eig.sigma2;
        assert!(
            explained / total > 0.9,
            "manifold not low-rank: top-8 explain {}",
            explained / total
        );
    }

    #[test]
    fn coverage_mask_correlates_with_redshift() {
        let g = GalaxyGenerator::new(400, 0.4);
        let mut rng = StdRng::seed_from_u64(52);
        let mut lo_z_cov = Vec::new();
        let mut hi_z_cov = Vec::new();
        for _ in 0..200 {
            let s = g.sample_with_coverage(&mut rng);
            if s.params.z < 0.1 {
                lo_z_cov.push(s.n_observed());
            } else if s.params.z > 0.3 {
                hi_z_cov.push(s.n_observed());
            }
        }
        assert!(!lo_z_cov.is_empty() && !hi_z_cov.is_empty());
        // Coverage windows at different z cover *different* pixels but the
        // windows never cover the whole rest grid.
        assert!(lo_z_cov.iter().all(|&n| n < 400));
        assert!(hi_z_cov.iter().all(|&n| n < 400));
    }

    #[test]
    fn draw_params_within_bounds() {
        let g = GalaxyGenerator::new(100, 0.35);
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..500 {
            let p = g.draw_params(&mut rng);
            assert!((0.0..=1.0).contains(&p.age));
            assert!(p.emission >= 0.0 && p.emission <= 1.0);
            assert!(p.z >= 0.0 && p.z <= 0.35);
            assert!(p.brightness > 0.0);
        }
    }
}
