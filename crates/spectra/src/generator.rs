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
use crate::continuum::{passive, star_forming};
use crate::lines::{gaussian_profile, Line, ABSORPTION_LINES, EMISSION_LINES};
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

/// One catalog line's Gaussian profile on a grid: the values over the
/// contiguous run of pixels [`crate::lines::add_line`] touches (its ±5σ
/// window), starting at pixel `start`.
#[derive(Debug, Clone)]
struct LineWindow {
    start: usize,
    profile: Vec<f64>,
}

impl LineWindow {
    fn new(lambdas: &[f64], line: &Line) -> Self {
        // The same window test as `add_line`; the grid is increasing, so
        // the pixels inside form one run.
        let lo = line.lambda - 5.0 * line.width;
        let hi = line.lambda + 5.0 * line.width;
        let inside = |l: f64| l >= lo && l <= hi;
        let start = lambdas
            .iter()
            .position(|&l| inside(l))
            .unwrap_or(lambdas.len());
        let profile: Vec<f64> = lambdas[start..]
            .iter()
            .take_while(|&&l| inside(l))
            .map(|&l| gaussian_profile(l, line.lambda, line.width))
            .collect();
        debug_assert_eq!(
            profile.len(),
            lambdas.iter().filter(|&&l| inside(l)).count()
        );
        LineWindow { start, profile }
    }

    /// `flux += amplitude · profile` over the window: `add_line`'s sum.
    fn add(&self, flux: &mut [f64], amplitude: f64) {
        let window = &mut flux[self.start..self.start + self.profile.len()];
        for (f, &g) in window.iter_mut().zip(&self.profile) {
            *f += amplitude * g;
        }
    }
}

/// Configuration and machinery for galaxy spectrum generation.
///
/// Everything that depends only on the grid — both continuum templates and
/// every line's profile — is evaluated once here, so [`Self::model`] is a
/// blend and a few short sums. It performs the same floating-point
/// operations on the same operands as evaluating `continuum` and
/// `add_line` per pixel, so every spectrum is bit-identical to that.
#[derive(Debug, Clone)]
pub struct GalaxyGenerator {
    grid: WavelengthGrid,
    /// `star_forming(λ)` per pixel.
    blue: Vec<f64>,
    /// `passive(λ)` per pixel.
    red: Vec<f64>,
    /// [`EMISSION_LINES`]' windows, in catalog order.
    emission: Vec<LineWindow>,
    /// [`ABSORPTION_LINES`]' windows, in catalog order.
    absorption: Vec<LineWindow>,
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
        let windows = |lines: &[Line]| lines.iter().map(|l| LineWindow::new(&lambdas, l)).collect();
        GalaxyGenerator {
            blue: lambdas.iter().map(|&l| star_forming(l)).collect(),
            red: lambdas.iter().map(|&l| passive(l)).collect(),
            emission: windows(EMISSION_LINES),
            absorption: windows(ABSORPTION_LINES),
            grid,
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
        self.blue.len()
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
        // `continuum(λ, age)` on the stored templates.
        let a = p.age.clamp(0.0, 1.0);
        let mut flux: Vec<f64> = self
            .blue
            .iter()
            .zip(&self.red)
            .map(|(&b, &r)| (1.0 - a) * b + a * r)
            .collect();
        // Emission lines, suppressed by age; AGN boosts [OIII] and the
        // Balmer lines. Strong star-formers show Hα at several times the
        // continuum (equivalent widths of tens to hundreds of Å), which is
        // what makes the emission pattern a principal component of the
        // population.
        for (line, window) in EMISSION_LINES.iter().zip(&self.emission) {
            let boost = if line.name.starts_with("[OIII]") || line.name.starts_with("H") {
                1.0 + 2.0 * p.agn
            } else {
                1.0
            };
            window.add(&mut flux, 3.0 * p.emission * boost);
        }
        // Absorption features grow with age.
        for window in &self.absorption {
            window.add(&mut flux, -0.35 * p.age);
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

    /// The spectrum `model` computed per pixel from the templates and the
    /// line catalog, as the generator did before it stored them.
    fn per_pixel_model(g: &GalaxyGenerator, p: &GalaxyParams) -> Vec<f64> {
        use crate::continuum::continuum_curve;
        use crate::lines::add_line;
        let lambdas = g.grid().lambdas();
        let mut flux = continuum_curve(&lambdas, p.age);
        for line in EMISSION_LINES {
            let boost = if line.name.starts_with("[OIII]") || line.name.starts_with("H") {
                1.0 + 2.0 * p.agn
            } else {
                1.0
            };
            add_line(&mut flux, &lambdas, line, 3.0 * p.emission * boost);
        }
        for line in ABSORPTION_LINES {
            add_line(&mut flux, &lambdas, line, -0.35 * p.age);
        }
        for f in flux.iter_mut() {
            *f = (*f).max(0.0) * p.brightness;
        }
        flux
    }

    #[test]
    fn model_matches_the_per_pixel_oracle_to_the_bit() {
        // At (300, 0.02) the grid starts at 3,725 Å, inside [OII]3727's
        // window, which is cut short there; (7, 0.3) has pixels 18 % apart
        // in λ and no window holds one.
        let grids = [
            (500, 0.2),
            (150, 0.0),
            (1000, 0.3),
            (2000, 0.4),
            (300, 0.02),
            (7, 0.3),
        ];
        for (n, z_max) in grids {
            let g = GalaxyGenerator::new(n, z_max);
            if (n, z_max) == (300, 0.02) {
                assert_eq!(g.emission[0].start, 0);
                assert!(!g.emission[0].profile.is_empty());
            }
            if n == 7 {
                let mut windows = g.emission.iter().chain(&g.absorption);
                assert!(windows.all(|w| w.profile.is_empty()));
            }
            let mut rng = StdRng::seed_from_u64(54 + n as u64);
            let mut params: Vec<GalaxyParams> = (0..200).map(|_| g.draw_params(&mut rng)).collect();
            // Ages the population never draws: the blend clamps them, the
            // absorption depth does not.
            for age in [-0.5, 1.5] {
                params.push(GalaxyParams {
                    age,
                    emission: 0.7,
                    agn: 0.4,
                    brightness: 1.3,
                    z: 0.0,
                });
            }
            for p in &params {
                let want = per_pixel_model(&g, p);
                let got = g.model(p);
                assert_eq!(got.len(), n);
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "grid ({n}, {z_max}) pixel {i}: {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_draws_keep_their_bits() {
        // Recorded from the per-pixel generator: a seeded corpus does not
        // move by one bit.
        let g = GalaxyGenerator::new(500, 0.2);
        let ha = g.grid().pixel_of(6562.8).unwrap();
        assert_eq!(ha, 342);
        let mut rng = StdRng::seed_from_u64(44);
        let s = g.sample_with_coverage(&mut rng);
        for (i, bits) in [
            (0, 0x3fd1b8be54dfdc69u64),
            (137, 0x3fe6643a40bafd9b),
            (250, 0x3feae44334c12b4b),
            (ha, 0x3ff0d0d5dbb59093),
            (499, 0x3ff391ccfdc6ff5e),
        ] {
            assert_eq!(s.flux[i].to_bits(), bits, "sample pixel {i}");
        }
        let (rows, contaminated) = g.survey_extract(&mut rng, 40, 0.1);
        assert_eq!(contaminated, 2);
        for (r, i, bits) in [
            (0, 250, 0x3fa6a530eb4806e5u64),
            (17, ha, 0x3fb05746099f2a65),
            (39, 137, 0x3fa308e5e9f680dd),
        ] {
            assert_eq!(rows[r].0[i].to_bits(), bits, "extract row {r} pixel {i}");
        }
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
