//! Eigenpairs of a diagonal plus rank-one matrix, `diag(δ) + z zᵀ`.
//!
//! The streaming update (paper eq. 1–3) reduces every tuple to the
//! `(k+1) × (k+1)` core `K` with `KKᵀ = diag(g_hist·λ, 0) + z zᵀ`; this
//! module solves that structured eigenproblem directly (Bunch, Nielsen &
//! Sorensen 1978) in `O(n²)` instead of a dense Jacobi SVD:
//!
//! * **Deflation** (LAPACK `dlaed2`): a coordinate whose `z_j` is negligible
//!   is an eigenpair `(δ_j, e_j)` as it stands, and two poles closer than
//!   rounding are merged by a Givens rotation that moves all of their `z`
//!   onto one of them.
//! * **Roots** (`dlaed4`): each remaining eigenvalue is the root of the
//!   secular equation `1 + Σ z_j²/(δ_j − μ) = 0` in its pole interval, found
//!   by rational interpolation (a two-pole first guess, then the fixed-weight
//!   or "middle way" model) with the origin shifted to the nearer pole, so
//!   that every `δ_j − μ` is formed without cancellation, and bisection
//!   inside the shrinking bracket as the safeguard.
//! * **Vectors** (Gu & Eisenstat 1994): `z` is recomputed from the roots
//!   (`ẑ`) so that the computed eigenvalues are exact for a nearby problem;
//!   the eigenvectors `(diag(δ) − μ_i)⁻¹ ẑ` are then orthogonal to
//!   round-off however close the roots are.
//!
//! Once its buffers have grown, a call performs no heap allocation.

use crate::mat::Mat;
use crate::{LinalgError, Result};

/// Rational steps before the iteration falls back to pure bisection.
const RATIONAL_STEPS: usize = 30;

/// Total steps per root; bisection alone pins a root to the last bit in
/// ~60, so this is only reached if the convergence test never fires.
const MAX_STEPS: usize = 120;

/// Output and reusable scratch of [`rank_one_eigen`].
#[derive(Debug, Clone, Default)]
pub struct SecularWorkspace {
    /// Eigenvalues, descending, valid after a successful call.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors (`n × n`), column `j` belonging to
    /// `values[j]`, valid after a successful call.
    pub vectors: Mat,
    /// Poles and `z`, scaled, in ascending pole order.
    d: Vec<f64>,
    z: Vec<f64>,
    /// Original coordinate of each sorted position; later the output order.
    perm: Vec<usize>,
    /// Only once a deflating rotation has mixed two positions: column `p`
    /// is sorted position `p` in original coordinates.
    q: Mat,
    /// Kept (non-deflated) positions first, then the deflated ones.
    slots: Vec<usize>,
    /// Per output candidate: eigenvalue and tie-breaking coordinate.
    vals: Vec<f64>,
    ties: Vec<usize>,
    /// The kept poles and their `z_j²`, compacted.
    dk: Vec<f64>,
    z2: Vec<f64>,
    /// `K × K`, column `i` holding `d_j − μ_i` over the kept poles, and
    /// the reciprocals.
    delta: Vec<f64>,
    inv: Vec<f64>,
    zhat: Vec<f64>,
    roots: Vec<Root>,
}

/// All eigenpairs of `diag(d) + z zᵀ`, into `ws.values` (descending) and
/// `ws.vectors`.
///
/// Equal eigenvalues keep the order of their coordinates, so a coordinate
/// with `z_j = 0` never ranks above an earlier one of the same value.
pub fn rank_one_eigen(d: &[f64], z: &[f64], ws: &mut SecularWorkspace) -> Result<()> {
    let n = d.len();
    if z.len() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: format!("z of length {n}"),
            got: (z.len(), 1),
        });
    }
    if !d.iter().chain(z).all(|v| v.is_finite()) {
        return Err(LinalgError::NotFinite);
    }
    let SecularWorkspace {
        values,
        vectors,
        d: ds,
        z: zs,
        perm,
        q,
        slots,
        vals,
        ties,
        dk,
        z2,
        delta,
        inv,
        zhat,
        roots,
    } = ws;
    // Scale so that the largest √|d_j| or |z_j| is one: every square and
    // product below is then in range for any finite input.
    let s = d
        .iter()
        .map(|v| v.abs().sqrt())
        .chain(z.iter().map(|v| v.abs()))
        .fold(0.0_f64, f64::max);
    let s = if s > 0.0 { s } else { 1.0 };
    perm.clear();
    perm.extend(0..n);
    perm.sort_unstable_by(|&a, &b| by_value(d[a], d[b]).then(a.cmp(&b)));
    ds.clear();
    ds.extend(perm.iter().map(|&j| d[j] / s / s));
    zs.clear();
    zs.extend(perm.iter().map(|&j| z[j] / s));
    let rotated = deflate(ds, zs, perm, q, slots);
    let kept = slots.iter().take_while(|&&p| zs[p] != 0.0).count();

    // The secular equation of the kept poles. The roots iterate in
    // lockstep, one step each per sweep: each step is a chain of dependent
    // divisions and a square root, and independent roots overlap them.
    dk.clear();
    dk.extend(slots[..kept].iter().map(|&p| ds[p]));
    z2.clear();
    z2.extend(slots[..kept].iter().map(|&p| zs[p] * zs[p]));
    for m in [&mut *delta, &mut *inv] {
        m.clear();
        m.resize(kept * kept, 0.0);
    }
    roots.clear();
    roots.extend((0..kept).map(|i| Root::start(dk, z2, i)));
    while roots.iter().any(|r| !r.done) {
        let cols = delta.chunks_exact_mut(kept).zip(inv.chunks_exact_mut(kept));
        for (i, (root, (dcol, icol))) in roots.iter_mut().zip(cols).enumerate() {
            if !root.done {
                root.step(dk, z2, i, dcol, icol);
            }
        }
    }
    vals.clear();
    vals.extend(roots.iter().map(|r| dk[r.origin] + r.tau));

    // Gu–Eisenstat: ẑ_j² = Π_i (μ_i − d_j) / Π_{i≠j} (d_i − d_j), the
    // factors paired so that each ratio is O(1) and positive by interlacing.
    zhat.clear();
    for j in 0..kept {
        let mut prod = -delta[j * kept + j];
        for i in (0..kept).filter(|&i| i != j) {
            prod *= -delta[i * kept + j] / (dk[i] - dk[j]);
        }
        zhat.push(prod.sqrt().copysign(zs[slots[j]]));
    }

    // Candidate c < kept is root c, c ≥ kept deflated slot c; output in
    // descending value, ties to the lower original coordinate.
    ties.clear();
    ties.extend(slots.iter().map(|&p| perm[p]));
    vals.extend(slots[kept..].iter().map(|&p| ds[p]));
    perm.clear();
    perm.extend(0..n);
    perm.sort_unstable_by(|&a, &b| by_value(vals[b], vals[a]).then(ties[a].cmp(&ties[b])));
    values.clear();
    values.extend(perm.iter().map(|&c| vals[c] * s * s));
    vectors.reset_zeroed(n, n);
    for (out, &c) in perm.iter().enumerate() {
        // Without a rotation, sorted position p is the unit vector of its
        // original coordinate, ties[·]; with one, column p of q.
        let col = vectors.col_mut(out);
        if c >= kept {
            if rotated {
                col.copy_from_slice(q.col(slots[c]));
            } else {
                col[ties[c]] = 1.0;
            }
            continue;
        }
        // (diag(d) − μ_c)⁻¹ ẑ, normalised.
        let ic = &inv[c * kept..(c + 1) * kept];
        let norm2: f64 = zhat.iter().zip(ic).map(|(zh, r)| (zh * r) * (zh * r)).sum();
        let scale = 1.0 / norm2.sqrt();
        for (j, (&zh, &r)) in zhat.iter().zip(ic).enumerate() {
            let v = zh * r * scale;
            if rotated {
                for (o, &qv) in col.iter_mut().zip(q.col(slots[j])) {
                    *o += v * qv;
                }
            } else {
                col[ties[j]] = v;
            }
        }
    }
    Ok(())
}

/// Orders finite values, `-0.0` equal to `0.0`.
fn by_value(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

/// `dlaed2`: moves negligible `z_j` and near-equal poles out of the secular
/// equation, each change a perturbation below `8ε‖A‖`, setting their `z`
/// to zero. Fills `slots` with the kept positions (ascending) followed by
/// the deflated ones; returns whether a rotation built `q`.
fn deflate(
    d: &mut [f64],
    z: &mut [f64],
    perm: &[usize],
    q: &mut Mat,
    slots: &mut Vec<usize>,
) -> bool {
    let n = d.len();
    let znorm2: f64 = z.iter().map(|v| v * v).sum();
    let dmax = d.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let tol = 8.0 * f64::EPSILON * dmax.max(znorm2);
    let znorm = znorm2.sqrt();
    slots.clear();
    let mut rotated = false;
    for j in 0..n {
        if z[j].abs() * znorm <= tol {
            z[j] = 0.0;
            continue;
        }
        // Rotate (p, j) so that z_p vanishes if the off-diagonal that
        // leaves, (d_j − d_p)·c·s with c, s = (z_j, z_p)/τ, is negligible.
        if let Some(&p) = slots.last() {
            let tau2 = z[p] * z[p] + z[j] * z[j];
            if ((d[j] - d[p]) * z[j] * z[p]).abs() <= tol * tau2 {
                let tau = tau2.sqrt();
                let (c, s) = (z[j] / tau, z[p] / tau);
                if !rotated {
                    q.reset_zeroed(n, n);
                    for (col, &orig) in perm.iter().enumerate() {
                        q[(orig, col)] = 1.0;
                    }
                    rotated = true;
                }
                (d[p], d[j]) = (c * c * d[p] + s * s * d[j], s * s * d[p] + c * c * d[j]);
                (z[p], z[j]) = (0.0, tau);
                let (qp, qj) = q.two_cols_mut(p, j);
                for (a, b) in qp.iter_mut().zip(qj.iter_mut()) {
                    (*a, *b) = (c * *a - s * *b, s * *a + c * *b);
                }
                slots.pop();
            }
        }
        slots.push(j);
    }
    slots.extend((0..n).filter(|&j| z[j] == 0.0));
    rotated
}

/// `dlaed4`'s iteration for root `i` (ascending) of `1 + Σ z2_j/(d_j − μ)`,
/// `d` ascending and distinct, every `z2_j > 0`: `μ = d[origin] + tau`
/// with the origin at the pole nearer the root, so that every `d_j − μ`
/// is formed without cancellation, inside the bracket `[lower, upper]`.
#[derive(Debug, Clone, Copy)]
struct Root {
    origin: usize,
    lower: f64,
    upper: f64,
    tau: f64,
    /// Half the pole interval of an interior root.
    mid: f64,
    steps: usize,
    done: bool,
}

impl Root {
    /// An interior root starts at its interval's midpoint, measured from
    /// the left pole (its first step moves the origin to the right pole
    /// if f is negative there); the largest one at half its bound
    /// `d_max + Σ z2`.
    fn start(d: &[f64], z2: &[f64], i: usize) -> Root {
        let k = d.len();
        let (origin, upper, tau, mid) = if i + 1 < k {
            let mid = 0.5 * (d[i + 1] - d[i]);
            (i, mid, mid, mid)
        } else {
            let znorm2: f64 = z2.iter().sum();
            (k - 1, znorm2, 0.5 * znorm2, 0.0)
        };
        Root {
            origin,
            lower: 0.0,
            upper,
            tau,
            mid,
            steps: 0,
            done: false,
        }
    }

    /// Evaluates f at the current point, leaving `d_j − μ` in `delta` and
    /// its reciprocal in `inv`, and either stops there or takes one step.
    fn step(&mut self, d: &[f64], z2: &[f64], i: usize, delta: &mut [f64], inv: &mut [f64]) {
        let k = d.len();
        if k == 1 {
            (delta[0], inv[0], self.tau, self.done) = (-z2[0], -1.0 / z2[0], z2[0], true);
            return;
        }
        // f and its derivative split at the model's two poles (lo, lo + 1):
        // ψ over j ≤ lo, φ over j > lo.
        let interior = i + 1 < k;
        let lo = if interior { i } else { k - 2 };
        let (sigma, tau) = (d[self.origin], self.tau);
        let (mut psi, mut dpsi, mut phi, mut dphi, mut abs_sum) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for j in 0..k {
            let dl = (d[j] - sigma) - tau;
            let r = 1.0 / dl;
            let t = z2[j] * r;
            (delta[j], inv[j]) = (dl, r);
            abs_sum += t.abs();
            if j <= lo {
                psi += t;
                dpsi += t * r;
            } else {
                phi += t;
                dphi += t * r;
            }
        }
        let w = 1.0 + psi + phi;
        let dw = dpsi + dphi;
        let err_bound = f64::EPSILON * (8.0 * abs_sum + 2.0 + 3.0 * tau.abs() * dw);
        if w.abs() <= err_bound || self.steps == MAX_STEPS {
            self.done = true;
            return;
        }
        if interior && self.steps == 0 && w < 0.0 {
            // Past the midpoint: measure from the right pole. f, its slope
            // and the δ_j are those of the same point in either frame.
            (self.origin, self.upper, self.tau) = (i + 1, 0.0, -self.mid);
        }
        let tau = self.tau;
        if w < 0.0 {
            self.lower = tau;
        } else {
            self.upper = tau;
        }
        // The step η solves the model c + s/(δ_lo − η) + S/(δ_hi − η) = 0,
        // i.e. C·η² − A·η + B, inside the pole interval. An interior root's
        // first model keeps both poles' residues exact, the rest constant
        // (dlaed4's initial guess); later ones keep the origin's exact and
        // fit the other pole to f's remaining value and slope (Gragg's
        // fixed weight). The last root fits both to ψ and φ (middle way).
        let (dl, dh) = (delta[lo], delta[lo + 1]);
        let (s, big_s) = if interior && self.steps == 0 {
            (z2[lo], z2[lo + 1])
        } else if interior && self.origin == lo {
            (z2[lo], dh * dh * (dw - z2[lo] * inv[lo] * inv[lo]))
        } else if interior {
            let s_hi = z2[lo + 1];
            (dl * dl * (dw - s_hi * inv[lo + 1] * inv[lo + 1]), s_hi)
        } else {
            (dl * dl * dpsi, dh * dh * dphi)
        };
        let c = w - s / dl - big_s / dh;
        let a = (dl + dh) * c + s + big_s;
        let b = dl * dh * c + s * dh + big_s * dl;
        let mut eta = if interior {
            let disc = (a * a - 4.0 * b * c).abs().sqrt();
            if c == 0.0 {
                b / a
            } else if a <= 0.0 {
                (a - disc) / (2.0 * c)
            } else {
                2.0 * b / (a + disc)
            }
        } else {
            let c = c.abs();
            let disc = (a * a - 4.0 * b * c).abs().sqrt();
            if c == 0.0 {
                self.upper - tau
            } else if a >= 0.0 {
                (a + disc) / (2.0 * c)
            } else {
                2.0 * b / (a - disc)
            }
        };
        // A step against the sign of f is replaced by Newton's; one that
        // leaves the bracket, or any step after RATIONAL_STEPS, by bisection.
        if !eta.is_finite() || w * eta >= 0.0 {
            eta = -w / dw;
        }
        let mut next = tau + eta;
        if self.steps >= RATIONAL_STEPS || !(next > self.lower && next < self.upper) {
            next = 0.5 * (self.lower + self.upper);
        }
        if next == tau {
            self.done = true;
        } else {
            (self.tau, self.steps) = (next, self.steps + 1);
        }
    }
}
