//! Astrophysical contaminants: the things a galaxy-spectrum stream is
//! actually polluted with.
//!
//! The paper's robust estimator exists because survey pipelines
//! misclassify objects: quasars, stars and sky-subtraction failures end up
//! in the galaxy stream. Unlike the synthetic spike outliers of
//! [`crate::outliers`], these contaminants are *structured* — smooth
//! spectra with their own features — which is a harder test of robustness
//! than raw spikes: they are only outliers relative to the galaxy
//! manifold, not relative to a noise model.

use crate::lines::{add_line, gaussian_profile, Line};
use crate::wavelength::WavelengthGrid;
use rand::Rng;
use spca_linalg::rng::standard_normal;

/// Broad quasar emission lines in the optical window (rest frame).
const QUASAR_LINES: &[Line] = &[
    Line {
        name: "MgII2798",
        lambda: 2798.0,
        width: 40.0,
        emission: true,
    },
    Line {
        name: "Hgamma_b",
        lambda: 4340.5,
        width: 35.0,
        emission: true,
    },
    Line {
        name: "Hbeta_b",
        lambda: 4861.3,
        width: 40.0,
        emission: true,
    },
    Line {
        name: "Halpha_b",
        lambda: 6562.8,
        width: 50.0,
        emission: true,
    },
];

/// A quasar spectrum: blue power-law continuum with broad emission lines,
/// redshifted into the observed grid.
pub fn quasar<R: Rng + ?Sized>(rng: &mut R, grid: &WavelengthGrid, z: f64) -> Vec<f64> {
    let lambdas = grid.lambdas();
    let mut flux: Vec<f64> = lambdas
        .iter()
        .map(|&l| {
            let rest = l / (1.0 + z);
            (rest / 4000.0).powf(-0.7)
        })
        .collect();
    // Broad lines at observed positions: shift the catalog by (1+z) by
    // evaluating the profile at rest wavelength.
    for line in QUASAR_LINES {
        let strength = 1.5 + rng.gen::<f64>();
        for (f, &l) in flux.iter_mut().zip(&lambdas) {
            let rest = l / (1.0 + z);
            *f += strength * gaussian_profile(rest, line.lambda, line.width);
        }
    }
    for f in flux.iter_mut() {
        *f += 0.03 * standard_normal(rng);
        *f = f.max(0.0);
    }
    flux
}

/// A stellar spectrum: Planck-like continuum for an effective temperature
/// plus hydrogen absorption (A/F stars) or molecular-band dips (M stars).
pub fn star<R: Rng + ?Sized>(rng: &mut R, grid: &WavelengthGrid, teff: f64) -> Vec<f64> {
    let lambdas = grid.lambdas();
    // Planck shape in wavelength, normalized near 5500 Å.
    let planck = |l_angstrom: f64| -> f64 {
        let l = l_angstrom * 1e-10;
        let hc_over_k = 0.0143877; // m·K
        let x = hc_over_k / (l * teff);
        1.0 / (l.powi(5) * (x.exp() - 1.0))
    };
    let norm = planck(5500.0);
    let mut flux: Vec<f64> = lambdas.iter().map(|&l| planck(l) / norm).collect();
    if teff > 6500.0 {
        // Balmer absorption for hot stars.
        for &center in &[6562.8, 4861.3, 4340.5, 4101.7] {
            let line = Line {
                name: "balmer",
                lambda: center,
                width: 12.0,
                emission: false,
            };
            add_line(&mut flux, &lambdas, &line, -0.4);
        }
    } else if teff < 4000.0 {
        // TiO band heads for cool stars: broad saw-tooth dips.
        for &(start, depth) in &[(5167.0, 0.3), (5448.0, 0.25), (6158.0, 0.35), (7053.0, 0.4)] {
            for (f, &l) in flux.iter_mut().zip(&lambdas) {
                if l >= start && l < start + 250.0 {
                    let t = (l - start) / 250.0;
                    *f *= 1.0 - depth * (1.0 - t);
                }
            }
        }
    }
    for f in flux.iter_mut() {
        *f += 0.02 * standard_normal(rng);
        *f = f.max(0.0);
    }
    flux
}

/// A sky-subtraction failure: the object flux is overwhelmed by the OH
/// airglow forest (narrow emission spikes crowding the red end).
pub fn sky_residual<R: Rng + ?Sized>(rng: &mut R, grid: &WavelengthGrid) -> Vec<f64> {
    let lambdas = grid.lambdas();
    let mut flux = vec![0.0; lambdas.len()];
    // OH lines roughly every 15–40 Å redward of ~6800 Å.
    let mut l = 6800.0 + 30.0 * rng.gen::<f64>();
    let max_l = lambdas.last().copied().unwrap_or(9200.0);
    while l < max_l {
        let strength = 2.0 + 6.0 * rng.gen::<f64>();
        let line = Line {
            name: "OH",
            lambda: l,
            width: 2.5,
            emission: true,
        };
        add_line(&mut flux, &lambdas, &line, strength);
        l += 15.0 + 25.0 * rng.gen::<f64>();
    }
    for f in flux.iter_mut() {
        *f += 0.05 * standard_normal(rng);
    }
    flux
}

/// Kinds of structured contaminants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContaminantKind {
    /// Misclassified quasar.
    Quasar,
    /// Misclassified star (hot or cool, drawn at random).
    Star,
    /// Sky-subtraction failure.
    Sky,
}

/// Draws one contaminant spectrum of the given kind on `grid`.
pub fn draw<R: Rng + ?Sized>(
    rng: &mut R,
    grid: &WavelengthGrid,
    kind: ContaminantKind,
) -> Vec<f64> {
    match kind {
        ContaminantKind::Quasar => {
            let z = 0.5 + 1.5 * rng.gen::<f64>();
            quasar(rng, grid, z)
        }
        ContaminantKind::Star => {
            let teff = if rng.gen::<bool>() {
                7000.0 + 3000.0 * rng.gen::<f64>()
            } else {
                3000.0 + 900.0 * rng.gen::<f64>()
            };
            star(rng, grid, teff)
        }
        ContaminantKind::Sky => sky_residual(rng, grid),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid() -> WavelengthGrid {
        WavelengthGrid::sdss_like(800)
    }

    #[test]
    fn quasar_has_broad_halpha() {
        let g = grid();
        let mut rng = StdRng::seed_from_u64(1);
        let z = 0.2;
        let q = quasar(&mut rng, &g, z);
        let peak_pix = g.pixel_of(6562.8 * (1.0 + z)).unwrap();
        let side_pix = g.pixel_of(6100.0 * (1.0 + z)).unwrap();
        assert!(
            q[peak_pix] > q[side_pix] + 0.5,
            "{} vs {}",
            q[peak_pix],
            q[side_pix]
        );
    }

    #[test]
    fn hot_star_is_blue_cool_star_is_red() {
        let g = grid();
        let mut rng = StdRng::seed_from_u64(2);
        let hot = star(&mut rng, &g, 9000.0);
        let cool = star(&mut rng, &g, 3300.0);
        let blue = g.pixel_of(4200.0).unwrap();
        let red = g.pixel_of(8500.0).unwrap();
        assert!(hot[blue] > hot[red], "hot star should rise to the blue");
        assert!(cool[red] > cool[blue], "cool star should rise to the red");
    }

    #[test]
    fn sky_residual_lives_in_the_red() {
        let g = grid();
        let mut rng = StdRng::seed_from_u64(3);
        let s = sky_residual(&mut rng, &g);
        let blue_energy: f64 = s
            .iter()
            .zip(g.lambdas())
            .filter(|(_, l)| *l < 6000.0)
            .map(|(v, _)| v * v)
            .sum();
        let red_energy: f64 = s
            .iter()
            .zip(g.lambdas())
            .filter(|(_, l)| *l > 7000.0)
            .map(|(v, _)| v * v)
            .sum();
        assert!(
            red_energy > 20.0 * blue_energy,
            "red {red_energy} blue {blue_energy}"
        );
    }

    #[test]
    fn all_kinds_are_finite_and_nonempty() {
        let g = grid();
        let mut rng = StdRng::seed_from_u64(4);
        for kind in [
            ContaminantKind::Quasar,
            ContaminantKind::Star,
            ContaminantKind::Sky,
        ] {
            let s = draw(&mut rng, &g, kind);
            assert_eq!(s.len(), 800);
            assert!(s.iter().all(|v| v.is_finite()), "{kind:?}");
            assert!(s.iter().any(|&v| v != 0.0), "{kind:?}");
        }
    }

    #[test]
    fn robust_pca_rejects_structured_contaminants() {
        // The harder version of Fig. 1: contaminants are smooth spectra,
        // not spikes. The robust engine must still flag most of them once
        // converged on the galaxy manifold.
        use crate::generator::GalaxyGenerator;
        use spca_core::{PcaConfig, RobustPca};
        use spca_linalg::vecops;

        let gal = GalaxyGenerator::new(300, 0.25);
        let g = gal.grid().clone();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = PcaConfig::new(300, 4).with_memory(3000).with_init_size(60);
        let mut pca = RobustPca::new(cfg);
        // Converge on clean galaxies.
        for _ in 0..3000 {
            let mut s = gal.sample(&mut rng);
            vecops::normalize(&mut s.flux);
            pca.update(&s.flux).unwrap();
        }
        // Now a contaminated tail.
        let mut flagged = 0;
        let mut total = 0;
        for i in 0..300 {
            let kind = match i % 3 {
                0 => ContaminantKind::Quasar,
                1 => ContaminantKind::Star,
                _ => ContaminantKind::Sky,
            };
            let mut x = draw(&mut rng, &g, kind);
            vecops::normalize(&mut x);
            let out = pca.update(&x).unwrap();
            total += 1;
            if out.outlier {
                flagged += 1;
            }
        }
        assert!(
            flagged * 10 >= total * 7,
            "only {flagged}/{total} structured contaminants flagged"
        );
    }
}
