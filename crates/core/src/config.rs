//! Configuration for the streaming PCA estimators.

use crate::rho::{Bisquare, Classical, Rho, Welsch};
use std::sync::Arc;

/// Which ρ-function drives the robust weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RhoKind {
    /// Tukey bisquare with rejection point `c²` (the paper's / Maronna's
    /// choice). `Bisquare(9.0)` rejects beyond 3σ.
    Bisquare(f64),
    /// Welsch (exponential) redescender with scale `c²` — smooth weights,
    /// never exactly zero.
    Welsch(f64),
    /// Classical `ρ(t) = t` — disables robustness (classic PCA oracle).
    Classical,
}

impl RhoKind {
    /// Instantiates the ρ-function object.
    pub fn build(self) -> Arc<dyn Rho> {
        match self {
            RhoKind::Bisquare(c2) => Arc::new(Bisquare::new(c2)),
            RhoKind::Welsch(c2) => Arc::new(Welsch::new(c2)),
            RhoKind::Classical => Arc::new(Classical),
        }
    }
}

/// M-scale breakdown parameter `δ` of eq. (5): Maronna's maximal-breakdown
/// choice, the one value the paper uses.
pub const DELTA: f64 = 0.5;

/// Fixed-point iterations of eq. (8) when solving the M-scale on the
/// warm-up batch.
pub(crate) const INIT_SCALE_ITERS: usize = 30;

/// Configuration shared by the classic and robust streaming estimators.
///
/// Mirrors the knobs the paper varies: the eigensystem size `p`, extra
/// components `q` for the gappy-residual correction, the forgetting factor
/// `α = 1 − 1/N` (§II-B), the ρ-function, and the warm-up size used to
/// initialize the eigensystem (§III-C: "first our implementation
/// accumulates a given number of incoming vectors and initializes the
/// eigensystem"). The breakdown `δ` is [`DELTA`].
#[derive(Debug, Clone)]
pub struct PcaConfig {
    /// Dimensionality `d` of incoming vectors.
    pub dim: usize,
    /// Number of principal components `p` to maintain.
    pub p: usize,
    /// Extra components `q` kept beyond `p` for the missing-data residual
    /// correction (§II-D). The eigensystem internally tracks `p + q`
    /// components but reports `p`.
    pub q_extra: usize,
    /// Forgetting factor `α ∈ (0, 1]`. `1.0` = infinite memory (classic).
    /// The paper sets `α = 1 − 1/N` with `N` the effective sample size.
    pub alpha: f64,
    /// ρ-function used for robust weights.
    pub rho: RhoKind,
    /// Number of warm-up observations buffered before the eigensystem is
    /// initialized with a small batch PCA.
    pub init_size: usize,
}

impl PcaConfig {
    /// Creates a config with the paper-ish defaults for a `dim`-dimensional
    /// stream tracking `p` components: `α` for `N = 5000` (the paper's
    /// performance-test setting), bisquare ρ with 3σ rejection, warm-up of
    /// `max(2p+2, 20)` vectors, `q = 2` spare components.
    pub fn new(dim: usize, p: usize) -> Self {
        assert!(p >= 1, "need at least one component");
        assert!(dim > p, "dimension must exceed component count");
        PcaConfig {
            dim,
            p,
            q_extra: 2,
            alpha: 1.0 - 1.0 / 5000.0,
            rho: RhoKind::Bisquare(9.0),
            init_size: (2 * p + 2).max(20),
        }
    }

    /// Sets the forgetting factor directly. Panics outside `(0, 1]`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        self.alpha = alpha;
        self
    }

    /// Sets `α = 1 − 1/N` from an effective sample size `N` (the paper's
    /// parametrization; also the unit the sync gate is expressed in).
    pub fn with_memory(mut self, n_effective: usize) -> Self {
        assert!(n_effective >= 1);
        self.alpha = 1.0 - 1.0 / n_effective as f64;
        self
    }

    /// Effective sample size `N = 1/(1−α)` (∞ for α = 1).
    pub fn effective_memory(&self) -> f64 {
        if self.alpha >= 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 - self.alpha)
        }
    }

    /// Sets the ρ-function.
    pub fn with_rho(mut self, rho: RhoKind) -> Self {
        self.rho = rho;
        self
    }

    /// Sets the warm-up batch size (at least `p + 1`).
    pub fn with_init_size(mut self, n: usize) -> Self {
        assert!(n > self.p, "warm-up must exceed component count");
        self.init_size = n;
        self
    }

    /// Sets the number of spare components kept for gap handling.
    pub fn with_extra(mut self, q: usize) -> Self {
        self.q_extra = q;
        self
    }

    /// Total number of components tracked internally (`p + q`).
    pub fn p_total(&self) -> usize {
        self.p + self.q_extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PcaConfig::new(100, 5);
        assert_eq!(c.dim, 100);
        assert_eq!(c.p, 5);
        assert!(c.alpha < 1.0 && c.alpha > 0.99);
        assert_eq!(c.p_total(), 7);
        assert!(c.init_size >= 12);
    }

    #[test]
    fn memory_round_trip() {
        let c = PcaConfig::new(50, 3).with_memory(5000);
        assert!((c.effective_memory() - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn alpha_one_means_infinite_memory() {
        let c = PcaConfig::new(50, 3).with_alpha(1.0);
        assert!(c.effective_memory().is_infinite());
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn bad_alpha_rejected() {
        let _ = PcaConfig::new(50, 3).with_alpha(0.0);
    }

    #[test]
    #[should_panic(expected = "dimension must exceed")]
    fn degenerate_dim_rejected() {
        let _ = PcaConfig::new(3, 3);
    }

    #[test]
    fn rho_kinds_build() {
        assert!(RhoKind::Bisquare(9.0).build().weight(0.0) > 0.0);
        assert!(RhoKind::Welsch(9.0).build().weight(0.0) > 0.0);
        assert_eq!(RhoKind::Classical.build().weight(1e9), 1.0);
    }
}
