//! Classical incremental PCA (paper eq. 1–3), and the rank-one update
//! both estimators run on every tuple.
//!
//! The update maintains the truncated eigensystem of the covariance matrix
//! through the low-rank identity
//!
//! ```text
//! C ≈ γ E Λ Eᵀ + (1−γ) y yᵀ = A Aᵀ,   A = [ e_k √(γ λ_k) | y √(1−γ) ]
//! ```
//!
//! so each arriving vector costs a projection, one eigensolve of a
//! `(k+1) × (k+1)` diagonal-plus-rank-one core and a small product, instead
//! of an `O(d²)` covariance update. The basis is kept as `E = B·M` between
//! folds ([`DeferredBasis`]), so the `d`-length work of a row is three
//! sweeps over `B` and the `d × k` write-back happens once per fold. The
//! classical estimator here is the eq. 1–3 recursion on its own, which
//! tests compare against batch PCA and against [`crate::RobustPca`] under
//! the classical ρ; Fig. 1's non-robust baseline is the latter
//! ([`crate::RhoKind::Classical`]).

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
    /// The basis of a one-row update that folds at once: the classical
    /// estimator and [`rank_one_update`].
    once: DeferredBasis,
}

/// The scratch of one update step, sized by `k + j` alone: the first and
/// second projection coefficients, `Mᵀβ` (then `z`), the coefficient-space
/// residual, the core's poles and eigenpairs, and the extended `M`.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepScratch {
    beta: Vec<f64>,
    beta2: Vec<f64>,
    c: Vec<f64>,
    a: Vec<f64>,
    poles: Vec<f64>,
    core: SecularWorkspace,
    m_ext: Vec<f64>,
}

/// Rows between folds of a [`DeferredBasis`]: the update folds at the first
/// row whose `n_obs` is a multiple of this. Keyed on `n_obs`, like
/// [`REPAIR_EVERY`], so a recovered or re-batched run folds at the same
/// tuples; at most this many residual columns are ever pending.
pub(crate) const FOLD_EVERY: u64 = 8;

/// An eigenbasis kept as `E = B·M`: `B = [E₀ | r̂₁ … r̂_j]` is the basis at
/// the last fold followed by one unit residual per row updated since, all
/// orthonormal, stored contiguously with room for [`FOLD_EVERY`] residuals;
/// `M` is the `(k+j) × k` matrix with orthonormal columns that mixes them.
/// A row's residual is centred straight into the next free column of `B`
/// (the slot), so appending it costs nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeferredBasis {
    d: usize,
    k: usize,
    /// `d × (k + FOLD_EVERY)`, column-major; columns `k + j ..` are free.
    b: Vec<f64>,
    /// `(k + j) × k`, column-major.
    m: Vec<f64>,
    j: usize,
    /// False while `M = I` and `j = 0`, i.e. while `E = E₀`.
    pending: bool,
    /// `M − [I; 0]`, scratch of the product that materialises `E`.
    m_less_i: Vec<f64>,
}

impl DeferredBasis {
    /// Restarts from `E₀ = basis` with `M = I`, reusing the buffers.
    pub(crate) fn reset(&mut self, basis: &Mat) {
        let (d, k) = basis.shape();
        (self.d, self.k, self.j, self.pending) = (d, k, 0, false);
        self.b.resize(d * (k + FOLD_EVERY as usize), 0.0);
        self.b[..d * k].copy_from_slice(basis.as_slice());
        self.m.clear();
        self.m.resize(k * k, 0.0);
        for i in 0..k {
            self.m[i * k + i] = 1.0;
        }
    }

    /// Residual columns appended since the last fold.
    pub(crate) fn pending_columns(&self) -> usize {
        self.j
    }

    /// True unless `E = E₀`.
    pub(crate) fn is_pending(&self) -> bool {
        self.pending
    }

    /// The `j` residual columns, `d × j` column-major.
    pub(crate) fn residuals(&self) -> &[f64] {
        &self.b[self.d * self.k..self.d * (self.k + self.j)]
    }

    /// `M`, `(k + j) × k` column-major.
    pub(crate) fn mixing(&self) -> &[f64] {
        &self.m
    }

    /// Checks that a tail taken by [`residuals`](Self::residuals) and
    /// [`mixing`](Self::mixing) fits a `d × k` basis, and returns its `j`.
    pub(crate) fn check_tail(d: usize, k: usize, residuals: &[f64], m: &[f64]) -> Result<usize> {
        let j = residuals.len().checked_div(d).unwrap_or(0);
        if residuals.len() != d * j || j > FOLD_EVERY as usize || m.len() != (k + j) * k {
            return Err(PcaError::IncompatibleMerge(format!(
                "deferred tail of {} residual values and {} mixing values does not fit d {d} k {k}",
                residuals.len(),
                m.len()
            )));
        }
        if !vecops::all_finite(residuals) || !vecops::all_finite(m) {
            return Err(PcaError::NotFinite);
        }
        Ok(j)
    }

    /// Resumes a tail that passed [`check_tail`](Self::check_tail) on top
    /// of [`reset`](Self::reset)'s `E₀`.
    pub(crate) fn resume(&mut self, j: usize, residuals: &[f64], m: &[f64]) {
        let (d, k) = (self.d, self.k);
        self.b[d * k..d * (k + j)].copy_from_slice(residuals);
        self.m.clear();
        self.m.extend_from_slice(m);
        (self.j, self.pending) = (j, true);
    }

    /// The slot: the column after `B`, where a row's centred `y` goes.
    pub(crate) fn slot_mut(&mut self) -> &mut [f64] {
        let at = self.d * (self.k + self.j);
        &mut self.b[at..at + self.d]
    }

    /// Writes `x − mean` into the slot.
    pub(crate) fn center(&mut self, x: &[f64], mean: &[f64]) {
        for ((o, &xi), &mi) in self.slot_mut().iter_mut().zip(x).zip(mean) {
            *o = xi - mi;
        }
    }

    /// The first sweep: `β = Bᵀy` into `step` for the `y` in the slot, and
    /// `‖y‖²` returned.
    pub(crate) fn project(&mut self, step: &mut StepScratch) -> f64 {
        let n = self.k + self.j;
        let (bx, rest) = self.b.split_at_mut(self.d * n);
        step.beta.clear();
        step.beta.resize(n, 0.0);
        kernels::gemv_t(bx, None, &mut rest[..self.d], Some(&mut step.beta))
    }

    /// The squared residual of the projected `y` against the top `p`
    /// columns of `E`: [`residual_from`] `‖y‖²` and `c = (Mᵀβ)_{<p}`.
    pub(crate) fn residual_sq(&self, y_norm_sq: f64, p: usize, step: &mut StepScratch) -> f64 {
        let (n, p) = (self.k + self.j, p.min(self.k));
        step.c.clear();
        step.c.resize(p, 0.0);
        kernels::gemv_t(&self.m[..n * p], None, &mut step.beta, Some(&mut step.c));
        residual_from(y_norm_sq, &step.c)
    }

    /// `E = B·M` into `out` (`d × k`), leaving the state as it is; `out`
    /// already holds `E₀` when `holds_e0`. It is computed as
    /// `E₀ + B·(M − [I; 0])`, one product accumulated onto `E₀`, so the
    /// fold, which starts from the `E₀` it replaces, and a reader get the
    /// same bits.
    fn materialize_onto(&mut self, out: &mut Mat, holds_e0: bool) {
        let (d, k, n) = (self.d, self.k, self.k + self.j);
        if !holds_e0 {
            out.reset_zeroed(d, k);
            out.as_mut_slice().copy_from_slice(&self.b[..d * k]);
        }
        self.m_less_i.clear();
        self.m_less_i.extend_from_slice(&self.m);
        for i in 0..k {
            self.m_less_i[i * n + i] -= 1.0;
        }
        kernels::gemm_block(
            d,
            n,
            k,
            &self.b[..d * n],
            &self.m_less_i,
            out.as_mut_slice(),
        );
    }

    /// `E = B·M` into `out` (`d × k`), leaving the state as it is.
    pub(crate) fn materialize(&mut self, out: &mut Mat) {
        self.materialize_onto(out, false);
    }

    /// The fold: `E₀ ← B·M` into `basis`, which holds `E₀`, and
    /// `B = [E₀]`, `M = I`. With nothing pending it is left alone.
    pub(crate) fn fold_into(&mut self, basis: &mut Mat) {
        if self.pending {
            self.materialize_onto(basis, true);
            self.reset(basis);
        }
    }
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
                let r2 = classic_step(eig, x, cfg, ws)?;
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

/// One classical incremental step on an initialized eigensystem: the
/// squared residual against the top `p` components, then the mean and the
/// eigensystem via the `A = [E√(γΛ) | y√(1−γ)]` factor. Returns the residual.
fn classic_step(
    eig: &mut EigenSystem,
    x: &[f64],
    cfg: &PcaConfig,
    ws: &mut UpdateWorkspace,
) -> Result<f64> {
    let UpdateWorkspace { step, once, .. } = ws;
    repair_if_due(eig);
    once.reset(&eig.basis);
    once.center(x, &eig.mean);
    let y_norm_sq = once.project(step);
    let r2 = once.residual_sq(y_norm_sq, cfg.p, step);

    // γ from the decayed observation count (eq. 14 analogue): with every
    // weight equal to one, u, v and q all share this recursion.
    let u_new = cfg.alpha * eig.sum_u + 1.0;
    let gamma = cfg.alpha * eig.sum_u / u_new;
    eig.sum_u = u_new;
    eig.sum_v = u_new;

    // Mean recursion (eq. 9 with w ≡ 1); x − µ_new = γ(x − µ_old), so the
    // centred row in the slot stands, scaled by γ through the weight.
    for (m, &xi) in eig.mean.iter_mut().zip(x) {
        *m = gamma * *m + (1.0 - gamma) * xi;
    }
    low_rank_update(
        once,
        &mut eig.values,
        gamma,
        (1.0 - gamma) * gamma * gamma,
        y_norm_sq,
        step,
    )?;
    once.fold_into(&mut eig.basis);
    eig.sum_q = u_new; // classical: w·r² sums degenerate to the count
    Ok(r2)
}

/// Updates between Gram–Schmidt repairs of the basis. A rotation by θ with
/// θ² below machine epsilon rounds to `cos θ = 1`, so every write-back
/// grows `EᵀE − I` by a one-signed ~1e-15 (measured, d = 64 to 1000) that
/// never averages out; a repair every 1024 holds it near 1e-12 for 0.1 %
/// of the update cost. Keyed on `eig.n_obs` — checkpointed state — so a
/// recovered or re-batched run repairs at the same tuples. A multiple of
/// [`FOLD_EVERY`], so the deferred update repairs right after a fold.
pub(crate) const REPAIR_EVERY: u64 = 1024;

/// Repairs `eig.basis` when its `n_obs` is due (see [`REPAIR_EVERY`]);
/// true if it did.
pub(crate) fn repair_if_due(eig: &mut EigenSystem) -> bool {
    let due = eig.n_obs.is_multiple_of(REPAIR_EVERY);
    if due {
        reorthonormalize(&mut eig.basis);
    }
    due
}

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
/// The update folds at once, so `eig.basis` holds the new `E` on return.
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
    let UpdateWorkspace { step, once, .. } = ws;
    repair_if_due(eig);
    once.reset(&eig.basis);
    once.slot_mut().copy_from_slice(y);
    let y_norm_sq = once.project(step);
    low_rank_update(once, &mut eig.values, g_hist, g_new, y_norm_sq, step)?;
    once.fold_into(&mut eig.basis);
    Ok(())
}

/// The rank-one update of the centred row in `basis`'s slot, whose first
/// sweep ([`DeferredBasis::project`]) left `β = Bᵀy` in `step` and
/// `‖y‖² = y_norm_sq`: `{E, Λ}` become the top-k eigenpairs of `AAᵀ`,
/// `A = [e_j·√(g_hist·λ_j) | y·√g_new]`, without ever forming `A` or `E`.
///
/// Two more sweeps finish the Gram–Schmidt pass against `B`: `y −= Bβ`
/// fused with `β₂ = Bᵀy`, then `y −= Bβ₂` with `ρ = ‖y‖`. With the total
/// coefficients `β ← β + β₂`, `y = Bβ + ρ·r̂`, and against `E = B·M` its
/// coordinates are `c = Mᵀβ` and its residual is `B·a + ρ·r̂`,
/// `a = β − Mc`, of norm `ρ_E = √(‖a‖² + ρ²)`. So the factor is
/// `A = [E | (Ba + ρr̂)/ρ_E]·K` for the `(k+1) × (k+1)` core
///
/// ```text
/// K = [ diag √(g_hist·λ)   √g_new·c   ]
///     [        0           √g_new·ρ_E ]
/// ```
///
/// and `KKᵀ = diag(g_hist·λ, 0) + zzᵀ` with `z = √g_new·[c; ρ_E]`, a
/// diagonal plus rank-one matrix whose eigenpairs `U′, S²` the secular
/// solver gives in `O(k²)`: `Λ ← S²[:k]` and
/// `E ← [B | r̂]·[[M, a/ρ_E], [0, ρ/ρ_E]]·U′[:, :k]`, which is `r̂` appended
/// to `B` and a `(k+j+1) × (k+1) × k` product for the new `M`.
pub(crate) fn low_rank_update(
    basis: &mut DeferredBasis,
    values: &mut [f64],
    g_hist: f64,
    g_new: f64,
    y_norm_sq: f64,
    step: &mut StepScratch,
) -> Result<()> {
    let (d, k, n) = (basis.d, basis.k, basis.k + basis.j);
    let StepScratch {
        beta,
        beta2,
        c,
        a,
        poles,
        core,
        m_ext,
    } = step;
    let (bx, rest) = basis.b.split_at_mut(d * n);
    let y = &mut rest[..d];

    // Outside ‖y‖ ∈ [1e-75, 1e75] the squares of a rounding-level residual
    // underflow (or ‖y‖² overflows): bring such a y to unit largest entry,
    // and its coefficients with it.
    let mut y_scale = 1.0;
    if !(1e-150..=1e150).contains(&y_norm_sq) {
        let largest = vecops::max_abs(y);
        if largest >= f64::MIN_POSITIVE {
            vecops::scale(y, 1.0 / largest);
            y_scale = largest;
            kernels::gemv_t(bx, None, y, Some(beta));
        }
    }

    // Gram–Schmidt against B, twice: the second pass removes what rounding
    // left of `r` along B. If it removed most of what the first left, `r`
    // was rounding noise: y lies in span(B) and appends no column.
    beta2.clear();
    beta2.resize(n, 0.0);
    let rho1 = kernels::gemv_t(bx, Some(beta), y, Some(beta2)).sqrt();
    let rho2 = kernels::gemv_t(bx, Some(beta2), y, None).sqrt();
    for (b, b2) in beta.iter_mut().zip(beta2.iter()) {
        *b += b2;
    }
    let rho = if rho2 > 0.5 * rho1 {
        vecops::scale(y, 1.0 / rho2);
        rho2
    } else {
        0.0
    };

    // The same three sweeps in coefficient space, over the columns of M:
    // `c = Mᵀβ`, then `a = β − Mc` with the second pass's `δ = Mᵀa`, then
    // `a −= Mδ`. `a` is what of `Bβ` lies outside span(E), and noise if
    // the second pass removed most of it. With `M = I` (nothing pending)
    // `c` is `β` and `a` is zero.
    let m = &basis.m;
    c.clear();
    let mut a_norm = 0.0;
    if basis.pending {
        a.clear();
        a.extend_from_slice(beta);
        c.resize(k, 0.0);
        beta2.clear();
        beta2.resize(k, 0.0);
        kernels::gemv_t(m, None, a, Some(c));
        let a1 = kernels::gemv_t(m, Some(c), a, Some(beta2)).sqrt();
        a_norm = kernels::gemv_t(m, Some(beta2), a, None).sqrt();
        for (cj, dj) in c.iter_mut().zip(beta2.iter()) {
            *cj += dj;
        }
        if a_norm <= 0.5 * a1 {
            a_norm = 0.0;
        }
    } else {
        c.extend_from_slice(beta);
    }
    let rho_e = a_norm.hypot(rho);

    // The appended pole is last, so a zero ρ_E (y in span(E)) ties the
    // zero eigenvalues without ever ranking above them.
    poles.clear();
    poles.extend(values.iter().map(|&l| (g_hist * l).max(0.0)));
    poles.push(0.0);
    c.push(rho_e);
    vecops::scale(c, g_new.max(0.0).sqrt() * y_scale);
    secular::rank_one_eigen(poles, c, core)?;
    values.copy_from_slice(&core.values[..k]);

    // M ← [[M, a/ρ_E], [0, ρ/ρ_E]]·U′[:, :k]; the zero row and ρ/ρ_E only
    // when r̂ is appended. With `M = I` and `a = 0` that product is
    // `U′[:, :k]` itself, or its first k rows when nothing is appended.
    let append = usize::from(rho > 0.0);
    let rows = n + append;
    let u = &core.vectors.as_slice()[..(k + 1) * k];
    if basis.pending {
        m_ext.clear();
        m_ext.resize(rows * (k + 1), 0.0);
        for (dst, src) in m_ext.chunks_exact_mut(rows).zip(m.chunks_exact(n)) {
            dst[..n].copy_from_slice(src);
        }
        if rho_e > 0.0 {
            let ext = &mut m_ext[k * rows..];
            for (e, &ai) in ext.iter_mut().zip(a.iter()) {
                *e = if a_norm > 0.0 { ai / rho_e } else { 0.0 };
            }
            if append == 1 {
                ext[n] = rho / rho_e;
            }
        }
        basis.m.clear();
        basis.m.resize(rows * k, 0.0);
        kernels::gemm_block(rows, k + 1, k, m_ext, u, &mut basis.m);
    } else {
        basis.m.clear();
        for col in u.chunks_exact(k + 1) {
            basis.m.extend_from_slice(&col[..rows]);
        }
    }
    basis.j += append;
    basis.pending = true;
    Ok(())
}

/// The squared residual `‖y‖² − ‖c‖²` of `y` against orthonormal columns
/// on which its coefficients are `c`. The difference carries an error of a
/// few ulps of `‖y‖²`, so a result inside that is zero: a row in span(E)
/// is not a row with a rounding-sized residual, whose weight against a
/// zero M-scale would let it replace the covariance. The update and the
/// served outlier score both end here.
pub(crate) fn residual_from(y_norm_sq: f64, c: &[f64]) -> f64 {
    let r2 = (y_norm_sq - vecops::norm_sq(c)).max(0.0);
    if y_norm_sq.is_finite() && r2 <= (c.len() + 1) as f64 * f64::EPSILON * y_norm_sq {
        0.0
    } else {
        r2
    }
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
