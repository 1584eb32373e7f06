#![warn(missing_docs)]
//! Dense linear-algebra kernels for streaming PCA.
//!
//! This crate is the substitute for the Eigen C++ library used by the paper's
//! InfoSphere operators. It provides exactly the kernels the robust
//! incremental PCA algorithm needs:
//!
//! * [`Mat`] — a dense, column-major, `f64` matrix with the usual arithmetic,
//!   built for tall-thin shapes (`d × p` eigenbases and merge factors).
//! * [`qr`] — Householder thin QR, used to re-orthonormalize eigenbases.
//! * [`svd`] — one-sided Jacobi SVD, exact and fast for thin matrices: the
//!   merge, the warm-up and the batch baselines.
//! * [`secular`] — all eigenpairs of a diagonal plus rank-one matrix by its
//!   secular equation: the `(p+1)×(p+1)` core of the per-tuple eigensystem
//!   update (paper eq. 1–3).
//! * [`eigen`] — a symmetric Jacobi eigensolver for the small dense
//!   eigenproblems arising in batch baselines and eigensystem merges.
//! * [`gemm`] — blocked matrix multiply, and the one-triangle symmetric
//!   product `A·Aᵀ` for the batch covariance baselines.
//! * [`rng`] — Gaussian sampling helpers (Box–Muller) so that workload
//!   generators do not need `rand_distr`.
//! * [`kernels`] — the hardware-aware kernel layer underneath all of the
//!   above: runtime-dispatched AVX2+FMA implementations of `dot`, `axpy`,
//!   `scale`, `norm_sq`, the Jacobi plane rotation, the GEMM inner block
//!   (and its lower-triangle `A·Aᵀ` form) and the fused transposed product
//!   `Xᵀ·y` of the streaming projection, with the portable unrolled scalar
//!   code as fallback (pin it with `SPCA_FORCE_SCALAR=1`).
//!
//! All routines are pure Rust, allocation-conscious, and tested against
//! algebraic identities (orthogonality, reconstruction) with both unit and
//! property-based tests.
//!
//! ```
//! use spca_linalg::{thin_svd, Mat};
//!
//! let a = Mat::from_fn(6, 2, |r, c| (r * 2 + c) as f64);
//! let f = thin_svd(&a).unwrap();
//! // Reconstruction: U diag(s) Vᵀ == A.
//! assert!(f.reconstruct().sub(&a).unwrap().max_abs() < 1e-10);
//! assert!(f.s[0] >= f.s[1]);
//! ```

pub mod eigen;
pub mod gemm;
pub mod kernels;
pub mod mat;
pub mod qr;
pub mod rng;
pub mod secular;
pub mod solve;
pub mod subspace;
pub mod svd;
pub mod vecops;

pub use eigen::{sym_eigen, SymEigen};
pub use mat::Mat;
pub use qr::{thin_qr, thin_qr_into, QrWorkspace, ThinQr};
pub use secular::{rank_one_eigen, SecularWorkspace};
pub use svd::{thin_svd, thin_svd_into, SvdWorkspace, ThinSvd};

/// Errors produced by decomposition routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible with the requested operation.
    ShapeMismatch {
        /// Human-readable description of the expected shape relation.
        expected: String,
        /// The offending shape, `(rows, cols)`.
        got: (usize, usize),
    },
    /// An iterative routine failed to converge within its sweep budget.
    NoConvergence {
        /// Name of the routine that failed.
        routine: &'static str,
        /// Number of sweeps performed before giving up.
        sweeps: usize,
    },
    /// The input contained NaN or infinite entries.
    NotFinite,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "shape mismatch: expected {expected}, got {}x{}",
                    got.0, got.1
                )
            }
            LinalgError::NoConvergence { routine, sweeps } => {
                write!(f, "{routine} failed to converge after {sweeps} sweeps")
            }
            LinalgError::NotFinite => write!(f, "input contains non-finite values"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
