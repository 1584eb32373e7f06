#![warn(missing_docs)]
//! Robust incremental principal components analysis for data streams.
//!
//! This crate implements the core contribution of *"Incremental and Parallel
//! Analytics on Astrophysical Data Streams"* (SC 2012):
//!
//! * [`ClassicIncrementalPca`] — the classical incremental eigensystem update
//!   via the low-rank factor of paper eq. 1–3, whose `(k+1)×(k+1)` core is
//!   solved as a diagonal-plus-rank-one eigenproblem.
//! * [`RobustPca`] — the statistically robust streaming estimator: M-scale of
//!   the residuals (eq. 5), per-observation weights, weighted recursions for
//!   mean / covariance / scale (eq. 9–11) driven by running sums `u, v, q`
//!   and forgetting factor `α` (eq. 12–14), and outlier flagging.
//! * [`mod@merge`] — combining independently-estimated eigensystems at
//!   synchronization points (eq. 15–16).
//! * [`gaps`] — handling missing entries via eigenbasis reconstruction with
//!   the higher-order (`p+q`) residual correction of §II-D.
//! * [`batch`] — offline baselines: classical batch PCA and the iterative
//!   Maronna-style robust batch PCA the streaming method approximates.
//! * [`metrics`] — subspace distances (principal angles) and convergence
//!   diagnostics used by the experiment harness.
//!
//! The crate is deliberately independent of any streaming machinery: it is a
//! pure state-machine library (`update(&mut self, x)`), which is what lets
//! the dataflow engine in `spca-streams` wrap it as a stateful operator
//! exactly the way the paper wraps its C++ operator in InfoSphere.
//!
//! ```
//! use spca_core::{PcaConfig, RobustPca};
//!
//! // Track 2 components of a 8-dimensional stream, forgetting over ~500
//! // observations.
//! let mut pca = RobustPca::new(PcaConfig::new(8, 2).with_memory(500));
//! for i in 0..200u32 {
//!     // A noisy rank-1 stream along the first axis.
//!     let c = (i as f64 * 0.37).sin() * 3.0;
//!     let x: Vec<f64> = (0..8).map(|j| if j == 0 { c } else { 1e-3 * (i + j as u32) as f64 }).collect();
//!     let outcome = pca.update(&x).unwrap();
//!     assert!(!outcome.outlier || !outcome.initialized);
//! }
//! let eig = pca.eigensystem();
//! assert_eq!(eig.n_components(), 2);
//! assert!(eig.basis[(0, 0)].abs() > 0.99); // found the planted axis
//! ```

pub mod basis_scale;
pub mod batch;
pub mod classic;
pub mod config;
pub mod eigensystem;
pub mod gaps;
pub mod merge;
pub mod metrics;
pub mod query;
pub mod rho;
pub mod robust;

pub use basis_scale::{BasisScaleTracker, RobustScale};
pub use classic::{ClassicIncrementalPca, UpdateWorkspace};
pub use config::{PcaConfig, RhoKind};
pub use eigensystem::EigenSystem;
pub use merge::{merge, merge_all, merge_tree};
pub use query::{OutlierScore, QueryWorkspace, SimilarityHit};
pub use robust::{DeferredTail, RobustPca, UpdateOutcome};

/// Errors from streaming-PCA state updates.
#[derive(Debug, Clone, PartialEq)]
pub enum PcaError {
    /// An observation's length does not match the configured dimension.
    DimensionMismatch {
        /// Configured dimensionality.
        expected: usize,
        /// Observed vector length.
        got: usize,
    },
    /// The observation contains NaN / infinite entries.
    NotFinite,
    /// Linear-algebra kernel failure (propagated).
    Linalg(spca_linalg::LinalgError),
    /// Attempted to merge eigensystems with incompatible shapes.
    IncompatibleMerge(String),
    /// Masked update where every bin is missing.
    AllMissing,
}

impl std::fmt::Display for PcaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcaError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            PcaError::NotFinite => write!(f, "observation contains non-finite values"),
            PcaError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            PcaError::IncompatibleMerge(msg) => write!(f, "incompatible merge: {msg}"),
            PcaError::AllMissing => write!(f, "masked observation has no observed bins"),
        }
    }
}

impl std::error::Error for PcaError {}

impl From<spca_linalg::LinalgError> for PcaError {
    fn from(e: spca_linalg::LinalgError) -> Self {
        PcaError::Linalg(e)
    }
}

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, PcaError>;
