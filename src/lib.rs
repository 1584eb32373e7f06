//! # astro-stream-pca
//!
//! Umbrella crate for the reproduction of *"Incremental and Parallel
//! Analytics on Astrophysical Data Streams"* (Mishin, Budavári, Szalay,
//! Ahmad — SC 2012): robust, incremental principal components analysis over
//! parallel data streams, with data-driven synchronization, on an
//! InfoSphere-Streams-like dataflow engine built from scratch in Rust.
//!
//! The workspace is organized bottom-up (see `DESIGN.md`):
//!
//! * [`linalg`] — dense matrix kernels (QR, Jacobi SVD, symmetric eigen).
//! * [`core`] — the paper's algorithm: robust incremental PCA, eigensystem
//!   merging, gap handling, batch baselines.
//! * [`spectra`] — synthetic SDSS-like galaxy spectra, outliers, gaps, and
//!   Gaussian performance workloads.
//! * [`streams`] — the dataflow engine: tuples, operators, threaded split,
//!   control ports, fusion, metrics.
//! * [`cluster`] — a calibrated discrete-event simulator of the paper's
//!   10-node / 1 GbE cluster for the scaling experiments.
//! * [`engine`] — the full parallel streaming-PCA application (paper Fig. 2)
//!   with ring / broadcast / group synchronization.
//!
//! ## Quickstart
//!
//! ```
//! use astro_stream_pca::core::{RobustPca, PcaConfig};
//! use astro_stream_pca::spectra::synthetic::PlantedSubspace;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let workload = PlantedSubspace::new(32, 3, 0.05);
//! let mut pca = RobustPca::new(PcaConfig::new(32, 3));
//! for _ in 0..500 {
//!     pca.update(&workload.sample(&mut rng));
//! }
//! let eig = pca.eigensystem();
//! assert_eq!(eig.n_components(), 3);
//! ```

pub use spca_cluster as cluster;
pub use spca_core as core;
pub use spca_engine as engine;
pub use spca_linalg as linalg;
pub use spca_spectra as spectra;
pub use spca_streams as streams;
