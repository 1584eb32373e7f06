#![warn(missing_docs)]
//! Synthetic SDSS-like galaxy spectra and performance workloads.
//!
//! The paper evaluates on two kinds of data, neither of which we can ship:
//! real SDSS galaxy spectra (Fig. 4–5) and "gaussian random data
//! artificially enriched with additional signals" (Fig. 6–7, §III-D). This
//! crate builds controlled synthetic equivalents of both:
//!
//! * [`generator`] — galaxy spectra drawn from a deliberately **low-rank
//!   manifold** (continuum families + emission/absorption lines driven by a
//!   handful of latent parameters), on an SDSS-style log-wavelength grid,
//!   redshifted, noised, and flux-normalized. The low intrinsic rank is the
//!   property the paper credits for fast convergence ("the galaxies are
//!   redundant in good approximation").
//! * [`outliers`] — the contamination process: cosmic-ray spikes at a
//!   configurable rate (Fig. 1's workload).
//! * [`gaps`] — missing-data masks: random snippets and redshift-correlated
//!   wavelength-coverage gaps (§II-D's two gap classes).
//! * [`synthetic`] — planted-subspace Gaussian streams for the performance
//!   experiments, with ground truth available for accuracy checks.
//! * [`io`] — CSV tuple reading/writing matching the stream engine's file
//!   source/sink formats.

// The row kernel of `spca-streams`, compiled from the same source: the two
// crates share no dependency, and a new edge between them would rewrite the
// lock file the pipeline benchmark tracks (DESIGN.md, "Text ingest").
#[allow(dead_code)] // `parse_field` serves the query server, not this crate
#[path = "../../streams/src/csv.rs"]
mod csv;

pub mod contaminants;
pub mod continuum;
pub mod gaps;
pub mod generator;
pub mod io;
pub mod lines;
pub mod normalize;
pub mod outliers;
pub mod synthetic;
pub mod wavelength;

pub use generator::{GalaxyGenerator, GalaxyParams, Spectrum};
pub use synthetic::PlantedSubspace;
pub use wavelength::WavelengthGrid;
