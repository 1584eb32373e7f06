//! Robust streaming PCA — the paper's central algorithm (§II).
//!
//! Each observation is weighted by how well the current eigensystem explains
//! it: the squared residual `r²` is compared against the running M-scale
//! `σ²` (eq. 5), the bounded ρ-function turns `t = r²/σ²` into a weight
//! `w = W(t)` and a scale weight `w* = W*(t)`, and three decayed running
//! sums drive the recursions (eq. 9–14):
//!
//! ```text
//! v = α·v + w        γ₁ = α·v_prev / v     µ  = γ₁ µ  + (1−γ₁) x
//! q = α·q + w·r²     γ₂ = α·q_prev / q     C  = γ₂ C  + (1−γ₂) σ² y yᵀ / r²
//! u = α·u + 1        γ₃ = α·u_prev / u     σ² = γ₃ σ² + (1−γ₃) w*·r²/δ
//! ```
//!
//! A hard-rejected observation (`w = 0`) leaves µ and C untouched — the
//! update degenerates to pure decay — which is exactly why the robust
//! estimator in Fig. 1 (right) never "rainbows": outliers cannot capture
//! the top eigenvector because they never enter the covariance.

use crate::batch::init_from_batch;
use crate::classic::{
    decayed_count, low_rank_update, repair_if_due, validate, DeferredBasis, StepScratch,
    UpdateWorkspace, FOLD_EVERY,
};
use crate::config::{PcaConfig, DELTA, INIT_SCALE_ITERS};
use crate::eigensystem::EigenSystem;
use crate::gaps::fill_scanned;
use crate::rho::Rho;
use crate::{PcaError, Result};
use std::sync::Arc;

/// Per-observation diagnostics returned by [`RobustPca::update`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateOutcome {
    /// Squared residual `r²` against the pre-update eigensystem.
    pub residual_sq: f64,
    /// Scale-normalized squared residual `t = r²/σ²`.
    pub scaled_residual: f64,
    /// Robust weight `w = W(t)` the observation received.
    pub weight: f64,
    /// True if the observation was flagged as an outlier: the ρ-function
    /// rejected it outright (`w == 0`).
    pub outlier: bool,
    /// True once the eigensystem is initialized (false during warm-up,
    /// when the other fields are zero).
    pub initialized: bool,
}

impl UpdateOutcome {
    fn warmup() -> Self {
        UpdateOutcome {
            residual_sq: 0.0,
            scaled_residual: 0.0,
            weight: 0.0,
            outlier: false,
            initialized: false,
        }
    }
}

/// The robust streaming PCA estimator.
pub struct RobustPca {
    cfg: PcaConfig,
    rho: Arc<dyn Rho>,
    state: State,
    ws: UpdateWorkspace,
}

enum State {
    WarmUp(Vec<Vec<f64>>),
    Running(Box<Tracked>),
}

/// The running estimate with its basis deferred: `eig` holds µ, Λ, σ², the
/// sums and `n_obs` as of the last row, but `E₀`, the basis at the last
/// fold, in place of `E = B·M` (DESIGN §5).
///
/// The basis folds (`E₀ ← B·M`) only at points the row sequence alone
/// decides: a row whose `n_obs` is a multiple of [`FOLD_EVERY`], a masked
/// row (its gap fill reads `E`), and an installed eigensystem. A reader
/// never folds: it gets `B·M` in `view`, a buffer of the estimator's own,
/// so when it runs can never change a later bit.
#[derive(Debug, Clone)]
struct Tracked {
    eig: EigenSystem,
    basis: DeferredBasis,
    view: Option<EigenSystem>,
}

impl Tracked {
    fn new(eig: EigenSystem) -> Self {
        let mut basis = DeferredBasis::default();
        basis.reset(&eig.basis);
        Tracked {
            eig,
            basis,
            view: None,
        }
    }

    /// Folds the pending tail into `eig.basis`, and repairs it when due.
    fn fold(&mut self) {
        self.basis.fold_into(&mut self.eig.basis);
        if repair_if_due(&mut self.eig) {
            self.basis.reset(&self.eig.basis);
        }
    }

    /// The current eigensystem: `eig` itself while `E = E₀`, else `B·M`
    /// written into the view buffer (allocated at the first such read).
    fn current(&mut self) -> &EigenSystem {
        if !self.basis.is_pending() {
            return &self.eig;
        }
        let Tracked { eig, basis, view } = self;
        let view = view.get_or_insert_with(|| EigenSystem::zeros(eig.dim(), eig.n_components()));
        view.mean.copy_from_slice(&eig.mean);
        view.values.copy_from_slice(&eig.values);
        view.sigma2 = eig.sigma2;
        view.sum_u = eig.sum_u;
        view.sum_v = eig.sum_v;
        view.sum_q = eig.sum_q;
        view.n_obs = eig.n_obs;
        basis.materialize(&mut view.basis);
        view
    }
}

impl std::fmt::Debug for RobustPca {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let phase = match &self.state {
            State::WarmUp(b) => format!("warm-up ({}/{})", b.len(), self.cfg.init_size),
            State::Running(t) => format!("running (n={})", t.eig.n_obs),
        };
        write!(
            f,
            "RobustPca(d={}, p={}, {phase})",
            self.cfg.dim, self.cfg.p
        )
    }
}

impl Clone for RobustPca {
    fn clone(&self) -> Self {
        RobustPca {
            cfg: self.cfg.clone(),
            rho: Arc::clone(&self.rho),
            state: match &self.state {
                State::WarmUp(b) => State::WarmUp(b.clone()),
                State::Running(t) => State::Running(t.clone()),
            },
            // Scratch is not part of the estimate; a clone starts with
            // fresh buffers and regrows them on its first update.
            ws: UpdateWorkspace::default(),
        }
    }
}

impl RobustPca {
    /// Creates an estimator in warm-up state.
    pub fn new(cfg: PcaConfig) -> Self {
        let rho = cfg.rho.build();
        RobustPca {
            cfg,
            rho,
            state: State::WarmUp(Vec::new()),
            ws: UpdateWorkspace::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PcaConfig {
        &self.cfg
    }

    /// Returns the estimator to its initial warm-up state while keeping the
    /// grown workspace buffers, so a pooled worker (e.g. a backfill worker
    /// iterating over partitions) re-enters the allocation-free steady
    /// state without re-growing scratch on every partition.
    pub fn reset(&mut self) {
        self.state = State::WarmUp(Vec::new());
    }

    /// True once the warm-up batch has been consumed.
    pub fn is_initialized(&self) -> bool {
        matches!(self.state, State::Running(_))
    }

    /// Total observations consumed (including warm-up).
    pub fn n_obs(&self) -> u64 {
        match &self.state {
            State::WarmUp(buf) => buf.len() as u64,
            State::Running(t) => t.eig.n_obs,
        }
    }

    /// Processes one complete observation.
    pub fn update(&mut self, x: &[f64]) -> Result<UpdateOutcome> {
        validate(&self.cfg, x)?;
        let RobustPca {
            cfg,
            rho,
            state,
            ws,
        } = self;
        match state {
            State::WarmUp(buf) => {
                buf.push(x.to_vec());
                if buf.len() >= cfg.init_size {
                    let batch = std::mem::take(buf);
                    let eig = robust_init(cfg, &batch, rho.as_ref())?;
                    *state = State::Running(Box::new(Tracked::new(eig)));
                }
                Ok(UpdateOutcome::warmup())
            }
            State::Running(t) => {
                // The second test keeps the slot inside `B` whatever tail
                // a restore installed.
                if t.eig.n_obs.is_multiple_of(FOLD_EVERY)
                    || t.basis.pending_columns() == FOLD_EVERY as usize
                {
                    t.fold();
                }
                t.basis.center(x, &t.eig.mean);
                let y_norm_sq = t.basis.project(&mut ws.step);
                let r2 = t.basis.residual_sq(y_norm_sq, cfg.p, &mut ws.step);
                robust_step(t, x, r2, y_norm_sq, cfg, rho.as_ref(), &mut ws.step)
            }
        }
    }

    /// Processes an observation with missing entries. `mask[i] == true`
    /// means bin `i` was observed. Gaps are filled from the current
    /// eigenbasis (§II-D) and the residual is bias-corrected using the
    /// extra `q` components before weighting. A missing bin may hold any
    /// value; a non-finite observed one is [`PcaError::NotFinite`] and
    /// leaves the estimate as it was.
    ///
    /// During warm-up, masked observations are gap-filled against nothing —
    /// they are buffered with missing bins set to the running buffer mean
    /// (crude, but warm-up batches are small and the stream immediately
    /// refines the estimate).
    pub fn update_masked(&mut self, x: &[f64], mask: &[bool]) -> Result<UpdateOutcome> {
        if x.len() != self.cfg.dim || mask.len() != self.cfg.dim {
            return Err(PcaError::DimensionMismatch {
                expected: self.cfg.dim,
                got: x.len(),
            });
        }
        // The one scan of the mask: everything below works from the list
        // of missing bins it leaves in the workspace.
        let n_miss = self.ws.gaps.scan(mask);
        if n_miss == mask.len() {
            return Err(PcaError::AllMissing);
        }
        if n_miss == 0 {
            return self.update(x);
        }
        let RobustPca {
            cfg,
            rho,
            state,
            ws,
        } = self;
        let t = match state {
            State::Running(t) => t,
            State::WarmUp(_) => {
                // Fill gaps with the mean over the observed bins so the
                // warm-up covariance is not poisoned by zeros.
                let observed = x.iter().zip(mask).filter(|(_, &m)| m).map(|(v, _)| *v);
                let obs_mean = observed.sum::<f64>() / (mask.len() - n_miss) as f64;
                let filled: Vec<f64> = x
                    .iter()
                    .zip(mask)
                    .map(|(&v, &m)| if m { v } else { obs_mean })
                    .collect();
                return self.update(&filled);
            }
        };
        let UpdateWorkspace { step, gaps, .. } = ws;
        t.fold();
        let residual_sq = fill_scanned(&t.eig, x, cfg.p, cfg.q_extra, gaps)?;
        // A missing bin may hold anything, but a non-finite observed one
        // stays non-finite in its own residual term, so the sum says so
        // without another pass over the row — and before the step below,
        // the first thing to write to the eigensystem.
        if !residual_sq.is_finite() {
            return Err(PcaError::NotFinite);
        }
        let filled = &gaps.filled;
        t.basis.center(filled, &t.eig.mean);
        let y_norm_sq = t.basis.project(step);
        robust_step(t, filled, residual_sq, y_norm_sq, cfg, rho.as_ref(), step)
    }

    /// The eigensystem truncated to the reported `p` components.
    ///
    /// Panics before initialization; check [`is_initialized`](Self::is_initialized).
    /// Like every reader it takes `&mut self` for the view buffer, and
    /// leaves the estimate exactly as it was.
    pub fn eigensystem(&mut self) -> EigenSystem {
        match &mut self.state {
            State::WarmUp(_) => panic!("eigensystem requested before warm-up completed"),
            State::Running(t) => t.current().truncated(self.cfg.p),
        }
    }

    /// The full internally-tracked eigensystem (`p + q` components), if
    /// initialized: `E = B·M` materialised into a buffer the estimator
    /// owns, allocation-free after the first read. Reading never folds the
    /// deferred basis, so it never changes a later bit of the estimate.
    pub fn full_eigensystem(&mut self) -> Option<&EigenSystem> {
        match &mut self.state {
            State::WarmUp(_) => None,
            State::Running(t) => Some(t.current()),
        }
    }

    /// The running state as the update holds it, for a checkpoint that
    /// must resume the same arithmetic: the eigensystem with `E₀`, the basis
    /// at the last fold, in place of `E`, and the deferred tail since that
    /// fold — `None` while `E = E₀`. `None` during warm-up.
    pub fn deferred_state(&self) -> Option<(&EigenSystem, Option<DeferredTail<'_>>)> {
        match &self.state {
            State::WarmUp(_) => None,
            State::Running(t) => {
                let tail = t.basis.is_pending().then(|| DeferredTail {
                    residuals: t.basis.residuals(),
                    mixing: t.basis.mixing(),
                });
                Some((&t.eig, tail))
            }
        }
    }

    /// Replaces the internal state (synchronization installs merged
    /// eigensystems through this). The basis is folded: `E₀` is `eig.basis`.
    pub fn install_eigensystem(&mut self, eig: EigenSystem) -> Result<()> {
        self.install_deferred(eig, None)
    }

    /// Resumes a state taken by [`deferred_state`](Self::deferred_state):
    /// `eig` with `E₀` as its basis, and the tail, if one was pending.
    pub fn install_deferred(
        &mut self,
        eig: EigenSystem,
        tail: Option<DeferredTail<'_>>,
    ) -> Result<()> {
        if eig.dim() != self.cfg.dim || eig.n_components() != self.cfg.p_total() {
            return Err(PcaError::IncompatibleMerge(format!(
                "install: got dim {} k {}, want dim {} k {}",
                eig.dim(),
                eig.n_components(),
                self.cfg.dim,
                self.cfg.p_total()
            )));
        }
        eig.check_invariants()?;
        let tail = tail
            .map(|t| {
                let j = DeferredBasis::check_tail(
                    eig.dim(),
                    eig.n_components(),
                    t.residuals,
                    t.mixing,
                )?;
                Ok::<_, PcaError>((j, t))
            })
            .transpose()?;
        let mut t = match std::mem::replace(&mut self.state, State::WarmUp(Vec::new())) {
            // Keep the grown buffers of a running estimator.
            State::Running(mut t) => {
                t.basis.reset(&eig.basis);
                t.eig = eig;
                t
            }
            State::WarmUp(_) => Box::new(Tracked::new(eig)),
        };
        if let Some((j, tail)) = tail {
            t.basis.resume(j, tail.residuals, tail.mixing);
        }
        self.state = State::Running(t);
        Ok(())
    }
}

/// The deferred tail of a running basis (see [`RobustPca::deferred_state`]).
#[derive(Debug, Clone, Copy)]
pub struct DeferredTail<'a> {
    /// The `j` unit residual columns appended since the last fold,
    /// `d × j` column-major.
    pub residuals: &'a [f64],
    /// `M`, `(k + j) × k` column-major: `E = [E₀ | residuals]·M`.
    pub mixing: &'a [f64],
}

/// Solves the M-scale equation (eq. 5) on a batch of squared residuals via
/// the fixed-point form of eq. (8): `σ² ← (1/Nδ) Σ w*(r²/σ²)·r²`.
pub(crate) fn mscale_fixed_point(r2: &[f64], rho: &dyn Rho, iters: usize) -> f64 {
    if r2.is_empty() {
        return 0.0;
    }
    let mean_r2 = r2.iter().sum::<f64>() / r2.len() as f64;
    if mean_r2 <= 0.0 {
        return 0.0;
    }
    let mut sigma2 = mean_r2;
    for _ in 0..iters {
        let n = r2.len() as f64;
        let s: f64 = r2.iter().map(|&v| rho.scale_weight(v / sigma2) * v).sum();
        let next = s / (n * DELTA);
        if next <= 0.0 {
            break;
        }
        if ((next - sigma2) / sigma2).abs() < 1e-12 {
            sigma2 = next;
            break;
        }
        sigma2 = next;
    }
    sigma2
}

/// Initializes the streaming state from the warm-up batch.
///
/// The classical SVD initializer is vulnerable to outliers *in the warm-up
/// batch itself*: a single spike plants a bogus eigenvector whose decay
/// takes ~N further observations (the "initial transients" §II-B fights
/// with α < 1). A robust batch fit (spherical-PCA start + a few Maronna
/// iterations) removes the transient at its source; if it fails for any
/// degenerate reason, the classical initializer is the fallback.
fn robust_init(cfg: &PcaConfig, batch: &[Vec<f64>], rho: &dyn Rho) -> Result<EigenSystem> {
    let mut eig = init_from_batch(cfg, batch)?;
    if batch.len() > cfg.p_total() + 2 {
        if let Ok((robust, _)) = crate::batch::batch_robust_pca(batch, cfg.p_total(), rho, 15) {
            if robust.check_invariants().is_ok() {
                eig.mean = robust.mean;
                eig.basis = robust.basis;
                eig.values = robust.values;
            }
        }
    }
    solve_mscale(&mut eig, batch, cfg, rho);
    Ok(eig)
}

/// Re-solves σ² on the warm-up batch and seeds the robust running sums.
fn solve_mscale(eig: &mut EigenSystem, batch: &[Vec<f64>], cfg: &PcaConfig, rho: &dyn Rho) {
    let r2: Vec<f64> = batch
        .iter()
        .map(|x| eig.residual_sq_truncated(x, cfg.p))
        .collect();
    let sigma2 = mscale_fixed_point(&r2, rho, INIT_SCALE_ITERS);
    eig.sigma2 = sigma2;
    let u0 = decayed_count(cfg.alpha, batch.len());
    let (mut wsum, mut wr2sum) = (0.0, 0.0);
    for &r in &r2 {
        let t = if sigma2 > 0.0 { r / sigma2 } else { 0.0 };
        let w = rho.weight(t);
        wsum += w;
        wr2sum += w * r;
    }
    // Scale the decayed count by the batch-average weight so the running
    // sums start on the same footing the recursions would have produced.
    let n = batch.len() as f64;
    eig.sum_u = u0;
    eig.sum_v = u0 * (wsum / n).max(f64::MIN_POSITIVE);
    eig.sum_q = u0 * (wr2sum / n);
}

/// One robust streaming step. `x` is centred in the slot of `t.basis` and
/// projected by its first sweep (`‖y‖² = y_norm_sq`); `r2` is its squared
/// residual against the top `p` components, or, on the gap-filled path,
/// the bias-corrected one.
fn robust_step(
    t: &mut Tracked,
    x: &[f64],
    r2: f64,
    y_norm_sq: f64,
    cfg: &PcaConfig,
    rho: &dyn Rho,
    step: &mut StepScratch,
) -> Result<UpdateOutcome> {
    let alpha = cfg.alpha;
    let eig = &mut t.eig;

    // Guard against scale collapse: if σ² underflows relative to the
    // tracked variance, treat the residual as nominal rather than dividing
    // by ~0 and rejecting everything forever.
    let var_scale: f64 = eig.values.first().copied().unwrap_or(0.0).max(1e-300);
    let sigma2 = eig.sigma2.max(1e-12 * var_scale);
    let t_scaled = r2 / sigma2;
    let w = rho.weight(t_scaled);
    let w_star = rho.scale_weight(t_scaled);

    // --- eq. 12 / 9: weighted mean ---
    // x − µ_new = γ₁(x − µ_old): the centred row in the slot stands for
    // the post-update one the paper's recursion order prescribes, scaled
    // by γ₁ through the covariance weight below.
    let mut gamma1 = 1.0;
    let v_new = alpha * eig.sum_v + w;
    if v_new > 0.0 {
        gamma1 = alpha * eig.sum_v / v_new;
        for (m, &xi) in eig.mean.iter_mut().zip(x) {
            *m = gamma1 * *m + (1.0 - gamma1) * xi;
        }
        eig.sum_v = v_new;
    }

    // --- eq. 14 / 11: M-scale ---
    let u_new = alpha * eig.sum_u + 1.0;
    let gamma3 = alpha * eig.sum_u / u_new;
    eig.sigma2 = gamma3 * eig.sigma2 + (1.0 - gamma3) * w_star * r2 / DELTA;
    eig.sum_u = u_new;

    // --- eq. 13 / 10: weighted covariance via the low-rank update ---
    let wr2 = w * r2;
    let q_new = alpha * eig.sum_q + wr2;
    if wr2 > 0.0 && q_new > 0.0 {
        let gamma2 = alpha * eig.sum_q / q_new;
        // New-data column coefficient: (1−γ₂)·σ²/r² multiplying y yᵀ.
        let coeff = (1.0 - gamma2) * eig.sigma2 / r2;
        let g_new = coeff * gamma1 * gamma1;
        low_rank_update(
            &mut t.basis,
            &mut eig.values,
            gamma2,
            g_new,
            y_norm_sq,
            step,
        )?;
        eig.sum_q = q_new;
    } else {
        // Hard-rejected observation: covariance only decays through γ₂ = 1,
        // i.e. stays put; the running sum still decays.
        eig.sum_q *= alpha;
    }

    eig.n_obs += 1;
    Ok(UpdateOutcome {
        residual_sq: r2,
        scaled_residual: t_scaled,
        weight: w,
        outlier: w == 0.0,
        initialized: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RhoKind;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use spca_linalg::rng::standard_normal_vec;

    const D: usize = 12;

    fn planted(rng: &mut StdRng) -> Vec<f64> {
        let c = standard_normal_vec(rng, 2);
        let mut x = vec![0.0; D];
        x[0] = 4.0 * c[0];
        x[1] = 2.0 * c[1];
        for xi in x.iter_mut() {
            *xi += 0.05 * spca_linalg::rng::standard_normal(rng);
        }
        x
    }

    fn spike_outlier(rng: &mut StdRng) -> Vec<f64> {
        // Gross outlier far off the plane.
        let mut x = vec![0.0; D];
        let axis = rng.gen_range(2..D);
        x[axis] = 80.0 + 20.0 * rng.gen::<f64>();
        x
    }

    fn cfg() -> PcaConfig {
        PcaConfig::new(D, 2)
            .with_memory(500)
            .with_extra(0)
            .with_init_size(30)
    }

    #[test]
    fn clean_stream_recovers_subspace() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut pca = RobustPca::new(cfg());
        for _ in 0..3000 {
            pca.update(&planted(&mut rng)).unwrap();
        }
        let eig = pca.eigensystem();
        eig.check_invariants().unwrap();
        assert!(eig.basis[(0, 0)].abs() > 0.98, "{:?}", eig.basis.col(0));
        assert!(eig.basis[(1, 1)].abs() > 0.98, "{:?}", eig.basis.col(1));
    }

    #[test]
    fn outliers_are_flagged_and_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut pca = RobustPca::new(cfg());
        // Converge first.
        for _ in 0..1500 {
            pca.update(&planted(&mut rng)).unwrap();
        }
        let before = pca.eigensystem();
        let mut flagged = 0;
        for i in 0..200 {
            let x = if i % 10 == 0 {
                spike_outlier(&mut rng)
            } else {
                planted(&mut rng)
            };
            let out = pca.update(&x).unwrap();
            if i % 10 == 0 {
                assert!(
                    out.scaled_residual > 9.0,
                    "outlier not extreme? t={}",
                    out.scaled_residual
                );
                if out.outlier {
                    flagged += 1;
                }
            }
        }
        assert!(flagged >= 18, "only {flagged}/20 outliers flagged");
        // Basis should not have moved toward the spike axes.
        let after = pca.eigensystem();
        let drift = crate::metrics::subspace_distance(&before.basis, &after.basis).unwrap();
        assert!(drift < 0.05, "robust basis drifted {drift}");
    }

    #[test]
    fn classical_rho_is_captured_by_outliers_but_robust_is_not() {
        // The Fig. 1 contrast in miniature.
        let run = |rho: RhoKind| {
            let mut rng = StdRng::seed_from_u64(12);
            let mut pca = RobustPca::new(cfg().with_rho(rho));
            for i in 0..2500 {
                let x = if i % 12 == 0 && i > 200 {
                    spike_outlier(&mut rng)
                } else {
                    planted(&mut rng)
                };
                pca.update(&x).unwrap();
            }
            pca.eigensystem()
        };
        let robust = run(RhoKind::Bisquare(9.0));
        let classic = run(RhoKind::Classical);
        // Energy of the top eigenvector on the true plane (coords 0,1):
        let plane_energy = |e: &EigenSystem| {
            let c = e.basis.col(0);
            c[0] * c[0] + c[1] * c[1]
        };
        assert!(
            plane_energy(&robust) > 0.95,
            "robust lost the plane: {}",
            plane_energy(&robust)
        );
        assert!(
            plane_energy(&classic) < plane_energy(&robust),
            "classic {} should be worse than robust {}",
            plane_energy(&classic),
            plane_energy(&robust)
        );
    }

    #[test]
    fn sigma2_tracks_noise_level() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut pca = RobustPca::new(cfg());
        for _ in 0..4000 {
            pca.update(&planted(&mut rng)).unwrap();
        }
        let eig = pca.eigensystem();
        // Residual noise is 0.05² per off-plane axis; with δ=0.5 the
        // M-scale consistently over-counts Gaussian tails, so just check the
        // order of magnitude.
        let noise_floor = 0.05 * 0.05 * (D - 2) as f64;
        assert!(
            eig.sigma2 > 0.1 * noise_floor && eig.sigma2 < 10.0 * noise_floor,
            "sigma2 {} vs noise floor {noise_floor}",
            eig.sigma2
        );
    }

    #[test]
    fn mscale_fixed_point_gaussian_batch() {
        // For the classical rho the fixed point is mean(r²)/δ.
        let r2: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = mscale_fixed_point(&r2, &crate::rho::Classical, 50);
        let mean = 50.5;
        assert!((s - mean / DELTA).abs() < 1e-9, "{s}");
    }

    #[test]
    fn mscale_ignores_gross_contamination() {
        // 20% gross outliers should barely move the bisquare M-scale.
        let mut r2: Vec<f64> = vec![1.0; 80];
        r2.extend(vec![1e6; 20]);
        let clean = mscale_fixed_point(&vec![1.0; 80], &crate::rho::Bisquare::default(), 100);
        let dirty = mscale_fixed_point(&r2, &crate::rho::Bisquare::default(), 100);
        assert!(dirty < 4.0 * clean, "clean {clean} dirty {dirty}");
    }

    #[test]
    fn update_outcome_warmup_phase() {
        let mut pca = RobustPca::new(cfg());
        let out = pca.update(&[0.0; D]).unwrap();
        assert!(!out.initialized);
        assert!(!out.outlier);
    }

    #[test]
    fn masked_update_converges() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut pca = RobustPca::new(cfg().with_extra(2));
        for _ in 0..2500 {
            let x = planted(&mut rng);
            // Drop a random 25% of bins.
            let mask: Vec<bool> = (0..D).map(|_| rng.gen::<f64>() > 0.25).collect();
            if mask.iter().any(|&m| m) {
                pca.update_masked(&x, &mask).unwrap();
            }
        }
        let eig = pca.eigensystem();
        eig.check_invariants().unwrap();
        // Gap-filling distorts the within-plane anisotropy, so the top two
        // eigenvectors may rotate inside the plane; the invariant is that
        // the *plane* (axes 0, 1) is recovered.
        let plane_energy: f64 = (0..2)
            .map(|j| {
                let c = eig.basis.col(j);
                c[0] * c[0] + c[1] * c[1]
            })
            .sum();
        assert!(
            plane_energy > 1.8,
            "plane lost under gaps: energy {plane_energy}"
        );
        assert!(eig.values[0] >= eig.values[1]);
    }

    #[test]
    fn all_missing_rejected() {
        let mut pca = RobustPca::new(cfg());
        let mask = vec![false; D];
        assert_eq!(
            pca.update_masked(&[0.0; D], &mask).unwrap_err(),
            PcaError::AllMissing
        );
    }

    #[test]
    fn masked_update_rejects_a_non_finite_observed_bin_and_keeps_its_state() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut pca = RobustPca::new(cfg());
        let mut mask = vec![true; D];
        mask[3] = false;
        let mut bad = planted(&mut rng);
        bad[5] = f64::NAN;
        let mut gap = planted(&mut rng);
        gap[3] = f64::NAN;

        // Warm-up: the buffer does not take the row.
        pca.update_masked(&gap, &mask).unwrap();
        assert_eq!(
            pca.update_masked(&bad, &mask).unwrap_err(),
            PcaError::NotFinite
        );
        assert_eq!(pca.n_obs(), 1);

        while !pca.is_initialized() {
            pca.update(&planted(&mut rng)).unwrap();
        }
        let bits = |pca: &mut RobustPca| {
            let e = pca.full_eigensystem().unwrap();
            let sums = [e.sigma2, e.sum_u, e.sum_v, e.sum_q, e.n_obs as f64];
            let all = [&e.mean[..], e.basis.as_slice(), &e.values[..], &sums[..]].concat();
            all.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        };
        let before = bits(&mut pca);
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            bad[5] = poison;
            assert_eq!(
                pca.update_masked(&bad, &mask).unwrap_err(),
                PcaError::NotFinite
            );
            assert_eq!(bits(&mut pca), before, "{poison}");
        }

        // A missing bin may hold anything.
        pca.update_masked(&gap, &mask).unwrap();
        pca.full_eigensystem().unwrap().check_invariants().unwrap();
    }

    #[test]
    fn sums_follow_paper_footnote() {
        // "the sequence u rapidly converges to 1/(1−α)"
        let mut rng = StdRng::seed_from_u64(15);
        let n_mem = 200;
        let mut pca = RobustPca::new(
            PcaConfig::new(D, 2)
                .with_memory(n_mem)
                .with_extra(0)
                .with_init_size(30),
        );
        for _ in 0..4000 {
            pca.update(&planted(&mut rng)).unwrap();
        }
        let eig = pca.full_eigensystem().unwrap();
        assert!(
            (eig.sum_u - n_mem as f64).abs() < 1.0,
            "u = {} should approach N = {n_mem}",
            eig.sum_u
        );
    }
}
