//! Classical incremental PCA (paper eq. 1–3).
//!
//! Maintains the truncated eigensystem of the covariance matrix through the
//! low-rank identity
//!
//! ```text
//! C ≈ γ E Λ Eᵀ + (1−γ) y yᵀ = A Aᵀ,   A = [ e_k √(γ λ_k) | y √(1−γ) ]
//! ```
//!
//! so each arriving vector costs one projection onto `E`, one eigensolve of
//! a `(k+1) × (k+1)` diagonal-plus-rank-one core and one `d × (k+1) × k`
//! product instead of an `O(d²)` covariance update. This is the non-robust
//! baseline whose failure under contamination Fig. 1 (left) demonstrates.

use crate::batch::init_from_batch;
use crate::config::PcaConfig;
use crate::eigensystem::EigenSystem;
use crate::gaps::GapWorkspace;
use crate::{PcaError, Result};
use spca_linalg::secular::{self, SecularWorkspace};
use spca_linalg::{kernels, vecops, Mat};

/// Reusable scratch for the per-tuple streaming update.
///
/// Owned by [`ClassicIncrementalPca`] and [`crate::RobustPca`]: after the
/// first few updates every buffer has reached its steady-state size and an
/// update performs no heap allocation at all — the property the
/// allocation-counting test in `tests/alloc_count.rs` pins down.
#[derive(Debug, Clone, Default)]
pub struct UpdateWorkspace {
    pub(crate) step: StepScratch,
    pub(crate) gaps: GapWorkspace,
}

/// The scratch needed by one algebraic update step: the centered vector
/// (`d`) and, sized by `k` alone, the projection coefficients (then `z`),
/// the core's poles and eigenpairs, and the panel kernel's row buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepScratch {
    pub(crate) y: Vec<f64>,
    c: Vec<f64>,
    poles: Vec<f64>,
    core: SecularWorkspace,
    panel: Vec<f64>,
}

/// Classical streaming PCA with exponential forgetting.
#[derive(Debug, Clone)]
pub struct ClassicIncrementalPca {
    cfg: PcaConfig,
    state: State,
    ws: UpdateWorkspace,
}

#[derive(Debug, Clone)]
enum State {
    /// Buffering the warm-up batch.
    WarmUp(Vec<Vec<f64>>),
    /// Streaming with an initialized eigensystem.
    Running(EigenSystem),
}

impl ClassicIncrementalPca {
    /// Creates an estimator in warm-up state.
    pub fn new(cfg: PcaConfig) -> Self {
        ClassicIncrementalPca {
            cfg,
            state: State::WarmUp(Vec::new()),
            ws: UpdateWorkspace::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PcaConfig {
        &self.cfg
    }

    /// True once the warm-up batch has been consumed.
    pub fn is_initialized(&self) -> bool {
        matches!(self.state, State::Running(_))
    }

    /// Total observations consumed (including warm-up).
    pub fn n_obs(&self) -> u64 {
        match &self.state {
            State::WarmUp(buf) => buf.len() as u64,
            State::Running(e) => e.n_obs,
        }
    }

    /// Processes one observation. Returns the squared residual relative to
    /// the pre-update eigensystem (0.0 during warm-up).
    pub fn update(&mut self, x: &[f64]) -> Result<f64> {
        validate(&self.cfg, x)?;
        let ClassicIncrementalPca { cfg, state, ws } = self;
        match state {
            State::WarmUp(buf) => {
                buf.push(x.to_vec());
                if buf.len() >= cfg.init_size {
                    let batch = std::mem::take(buf);
                    *state = State::Running(init_from_batch(cfg, &batch)?);
                }
                Ok(0.0)
            }
            State::Running(eig) => {
                eig.center_into(x, &mut ws.step.y);
                let r2 = eig.residual_sq_truncated_centered(&ws.step.y, cfg.p);
                classic_step(eig, x, cfg.alpha, &mut ws.step)?;
                eig.n_obs += 1;
                Ok(r2)
            }
        }
    }

    /// The current eigensystem truncated to the reported `p` components.
    ///
    /// Panics if called before initialization; check
    /// [`is_initialized`](Self::is_initialized) when the stream may still be
    /// in warm-up.
    pub fn eigensystem(&self) -> EigenSystem {
        match &self.state {
            State::WarmUp(_) => panic!("eigensystem requested before warm-up completed"),
            State::Running(e) => e.truncated(self.cfg.p),
        }
    }

    /// The full internally-tracked eigensystem (`p + q` components).
    pub fn full_eigensystem(&self) -> Option<&EigenSystem> {
        match &self.state {
            State::WarmUp(_) => None,
            State::Running(e) => Some(e),
        }
    }

    /// Replaces the internal eigensystem (used by the synchronization layer
    /// after a merge). The replacement must match dim and component count.
    pub fn install_eigensystem(&mut self, eig: EigenSystem) -> Result<()> {
        if eig.dim() != self.cfg.dim || eig.n_components() != self.cfg.p_total() {
            return Err(PcaError::IncompatibleMerge(format!(
                "install: got dim {} k {}, want dim {} k {}",
                eig.dim(),
                eig.n_components(),
                self.cfg.dim,
                self.cfg.p_total()
            )));
        }
        self.state = State::Running(eig);
        Ok(())
    }
}

pub(crate) fn validate(cfg: &PcaConfig, x: &[f64]) -> Result<()> {
    if x.len() != cfg.dim {
        return Err(PcaError::DimensionMismatch {
            expected: cfg.dim,
            got: x.len(),
        });
    }
    if !vecops::all_finite(x) {
        return Err(PcaError::NotFinite);
    }
    Ok(())
}

/// One classical incremental step on an initialized eigensystem: updates
/// mean, then eigensystem via the `A = [E√(γΛ) | y√(1−γ)]` factor.
pub(crate) fn classic_step(
    eig: &mut EigenSystem,
    x: &[f64],
    alpha: f64,
    scratch: &mut StepScratch,
) -> Result<()> {
    // γ from the decayed observation count (eq. 14 analogue): with every
    // weight equal to one, u, v and q all share this recursion.
    let u_new = alpha * eig.sum_u + 1.0;
    let gamma = alpha * eig.sum_u / u_new;
    eig.sum_u = u_new;
    eig.sum_v = u_new;

    // Mean recursion (eq. 9 with w ≡ 1).
    for (m, &xi) in eig.mean.iter_mut().zip(x) {
        *m = gamma * *m + (1.0 - gamma) * xi;
    }

    eig.center_into(x, &mut scratch.y);
    low_rank_update(eig, gamma, 1.0 - gamma, scratch)?;
    eig.sum_q = u_new; // classical: w·r² sums degenerate to the count
    Ok(())
}

/// Updates between Gram–Schmidt repairs of the basis. A rotation by θ with
/// θ² below machine epsilon rounds to `cos θ = 1`, so every write-back
/// grows `EᵀE − I` by a one-signed ~1e-15 (measured, d = 64 to 1000) that
/// never averages out; a repair every 1024 holds it near 1e-12 for 0.1 %
/// of the update cost. Keyed on `eig.n_obs` — checkpointed state — so a
/// recovered or re-batched run repairs at the same tuples.
const REPAIR_EVERY: u64 = 1024;

/// Modified Gram–Schmidt over the columns of `basis`, in place.
fn reorthonormalize(basis: &mut Mat) {
    for j in 0..basis.cols() {
        for i in 0..j {
            let (ci, cj) = basis.two_cols_mut(i, j);
            let overlap = vecops::dot(ci, cj);
            vecops::axpy(-overlap, ci, cj);
        }
        vecops::normalize(basis.col_mut(j));
    }
}

/// The algebraic step on its own: `EΛEᵀ` becomes the best rank-k
/// approximation of `g_hist·EΛEᵀ + g_new·yyᵀ` for a centered `y`. Mean,
/// scale and running sums are the caller's; the estimators share the code.
pub fn rank_one_update(
    eig: &mut EigenSystem,
    y: &[f64],
    g_hist: f64,
    g_new: f64,
    ws: &mut UpdateWorkspace,
) -> Result<()> {
    if y.len() != eig.dim() {
        return Err(PcaError::DimensionMismatch {
            expected: eig.dim(),
            got: y.len(),
        });
    }
    ws.step.y.clear();
    ws.step.y.extend_from_slice(y);
    low_rank_update(eig, g_hist, g_new, &mut ws.step)
}

/// Shared rank-one update of the centered observation in `scratch.y`
/// (consumed): `{E, Λ}` become the top-k eigenpairs of `AAᵀ`,
/// `A = [e_j·√(g_hist·λ_j) | y·√g_new]`, without ever forming `A`.
///
/// `E` is orthonormal, so with `c = Eᵀy`, `r = y − Ec`, `ρ = ‖r‖` the
/// factor is `A = [E | r/ρ]·K` for the `(k+1) × (k+1)` core
///
/// ```text
/// K = [ diag √(g_hist·λ)   √g_new·c ]
///     [        0           √g_new·ρ ]
/// ```
///
/// and `KKᵀ = diag(g_hist·λ, 0) + zzᵀ` with `z = √g_new·[c; ρ]`, a
/// diagonal plus rank-one matrix whose eigenpairs `U′, S²` the secular
/// solver gives in `O(k²)`: `Λ ← S²[:k]`, `E ← [E | r/ρ]·U′[:, :k]`. The
/// only `d`-length work is the projection and the in-place panel product.
pub(crate) fn low_rank_update(
    eig: &mut EigenSystem,
    g_hist: f64,
    g_new: f64,
    scratch: &mut StepScratch,
) -> Result<()> {
    let (d, k) = (eig.dim(), eig.n_components());
    let StepScratch {
        y,
        c,
        poles,
        core,
        panel,
    } = scratch;
    if eig.n_obs.is_multiple_of(REPAIR_EVERY) {
        reorthonormalize(&mut eig.basis);
    }

    // Outside ‖y‖ ∈ [1e-75, 1e75] the squares of a rounding-level residual
    // underflow (or ‖y‖² overflows): bring such a y to unit largest entry.
    let mut y_scale = 1.0;
    if !(1e-150..=1e150).contains(&vecops::norm_sq(y)) {
        let largest = vecops::max_abs(y);
        if largest >= f64::MIN_POSITIVE {
            vecops::scale(y, 1.0 / largest);
            y_scale = largest;
        }
    }

    // Gram–Schmidt against E, twice: the second pass removes what rounding
    // and any drift of EᵀE from I left of `r` along `E`.
    c.clear();
    c.resize(k, 0.0);
    let mut rho = [0.0; 2];
    for rho_pass in &mut rho {
        for (j, cj) in c.iter_mut().enumerate() {
            let col = eig.basis.col(j);
            let dc = vecops::dot(col, y);
            vecops::axpy(-dc, col, y);
            *cj += dc;
        }
        *rho_pass = vecops::norm(y);
    }
    // If the second pass removed most of what the first left, `r` was
    // rounding noise: y lies in span(E) and adds no direction.
    let rho = if rho[1] > 0.5 * rho[0] {
        vecops::scale(y, 1.0 / rho[1]);
        rho[1]
    } else {
        y.fill(0.0);
        0.0
    };

    // The appended pole is last, so a zero ρ (y in span(E)) ties the
    // zero eigenvalues without ever ranking above them.
    poles.clear();
    poles.extend(eig.values.iter().map(|&l| (g_hist * l).max(0.0)));
    poles.push(0.0);
    c.push(rho);
    vecops::scale(c, g_new.max(0.0).sqrt() * y_scale);
    secular::rank_one_eigen(poles, c, core)?;
    eig.values.copy_from_slice(&core.values[..k]);
    let coef = &core.vectors.as_slice()[..(k + 1) * k];
    kernels::panel_update(d, k, eig.basis.as_mut_slice(), coef, y, panel);
    Ok(())
}

/// Geometric series Σ_{i=0}^{n-1} α^i.
pub(crate) fn decayed_count(alpha: f64, n: usize) -> f64 {
    if (alpha - 1.0).abs() < 1e-15 {
        n as f64
    } else {
        (1.0 - alpha.powi(n as i32)) / (1.0 - alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PcaConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spca_linalg::rng::standard_normal_vec;

    /// Stream from a planted 2D subspace in 10 dims plus tiny noise.
    fn planted_stream(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = 10;
        (0..n)
            .map(|_| {
                let c = standard_normal_vec(&mut rng, 2);
                let noise = standard_normal_vec(&mut rng, d);
                let mut x = vec![0.0; d];
                x[0] = 3.0 * c[0];
                x[1] = 1.5 * c[1];
                for (xi, ni) in x.iter_mut().zip(&noise) {
                    *xi += 0.01 * ni;
                }
                x
            })
            .collect()
    }

    fn cfg() -> PcaConfig {
        PcaConfig::new(10, 2)
            .with_alpha(1.0)
            .with_extra(0)
            .with_init_size(20)
    }

    #[test]
    fn warm_up_then_running() {
        let mut pca = ClassicIncrementalPca::new(cfg());
        for (i, x) in planted_stream(19, 1).iter().enumerate() {
            pca.update(x).unwrap();
            assert!(!pca.is_initialized(), "i={i}");
        }
        pca.update(&planted_stream(1, 2)[0]).unwrap();
        assert!(pca.is_initialized());
        assert_eq!(pca.n_obs(), 20);
    }

    #[test]
    fn recovers_planted_subspace() {
        let mut pca = ClassicIncrementalPca::new(cfg());
        for x in planted_stream(2000, 3) {
            pca.update(&x).unwrap();
        }
        let eig = pca.eigensystem();
        eig.check_invariants().unwrap();
        // Top eigenvector should align with axis 0 (variance 9), second
        // with axis 1 (variance 2.25).
        assert!(
            eig.basis[(0, 0)].abs() > 0.99,
            "e1 = {:?}",
            eig.basis.col(0)
        );
        assert!(
            eig.basis[(1, 1)].abs() > 0.99,
            "e2 = {:?}",
            eig.basis.col(1)
        );
        assert!((eig.values[0] - 9.0).abs() < 1.5, "λ1 = {}", eig.values[0]);
        assert!((eig.values[1] - 2.25).abs() < 0.6, "λ2 = {}", eig.values[1]);
    }

    #[test]
    fn residuals_shrink_as_model_converges() {
        let mut pca = ClassicIncrementalPca::new(cfg());
        let stream = planted_stream(1000, 4);
        let mut early = 0.0;
        let mut late = 0.0;
        for (i, x) in stream.iter().enumerate() {
            let r2 = pca.update(x).unwrap();
            if (20..120).contains(&i) {
                early += r2;
            }
            if i >= 900 {
                late += r2;
            }
        }
        assert!(
            late / 100.0 <= early / 100.0 + 1e-6,
            "early {early} late {late}"
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut pca = ClassicIncrementalPca::new(cfg());
        assert!(matches!(
            pca.update(&[1.0, 2.0]),
            Err(PcaError::DimensionMismatch {
                expected: 10,
                got: 2
            })
        ));
    }

    #[test]
    fn nan_rejected() {
        let mut pca = ClassicIncrementalPca::new(cfg());
        let mut x = vec![0.0; 10];
        x[3] = f64::NAN;
        assert_eq!(pca.update(&x).unwrap_err(), PcaError::NotFinite);
    }

    #[test]
    fn decayed_count_limits() {
        assert_eq!(decayed_count(1.0, 7), 7.0);
        // Σ α^i → 1/(1-α): the paper's footnote "u rapidly converges to
        // 1/(1−α)".
        let alpha = 0.99;
        assert!((decayed_count(alpha, 10_000) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn mean_tracks_stream_mean() {
        let mut pca = ClassicIncrementalPca::new(cfg());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1500 {
            let mut x = standard_normal_vec(&mut rng, 10);
            x[0] += 5.0;
            pca.update(&x).unwrap();
        }
        let eig = pca.eigensystem();
        assert!((eig.mean[0] - 5.0).abs() < 0.2, "mean {:?}", eig.mean[0]);
        assert!(eig.mean[1].abs() < 0.2);
    }

    #[test]
    fn forgetting_tracks_subspace_drift() {
        // With a short memory the estimator must follow a subspace that
        // rotates from axis 0 to axis 2 halfway through.
        let cfg = PcaConfig::new(10, 1)
            .with_memory(200)
            .with_extra(0)
            .with_init_size(20);
        let mut pca = ClassicIncrementalPca::new(cfg);
        let mut rng = StdRng::seed_from_u64(6);
        for phase in 0..2 {
            for _ in 0..2000 {
                let c: f64 = spca_linalg::rng::standard_normal(&mut rng);
                let mut x = vec![0.0; 10];
                x[if phase == 0 { 0 } else { 2 }] = 4.0 * c;
                for xi in x.iter_mut() {
                    *xi += 0.01 * spca_linalg::rng::standard_normal(&mut rng);
                }
                pca.update(&x).unwrap();
            }
        }
        let eig = pca.eigensystem();
        assert!(
            eig.basis[(2, 0)].abs() > 0.95,
            "should have rotated: {:?}",
            eig.basis.col(0)
        );
    }

    #[test]
    fn install_eigensystem_validates_shape() {
        let mut pca = ClassicIncrementalPca::new(cfg());
        let wrong = EigenSystem::zeros(9, 2);
        assert!(pca.install_eigensystem(wrong).is_err());
        let right = EigenSystem::zeros(10, 2);
        assert!(pca.install_eigensystem(right).is_ok());
        assert!(pca.is_initialized());
    }
}
