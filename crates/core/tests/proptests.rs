//! Property-based tests for the streaming-PCA invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spca_core::batch::batch_pca;
use spca_core::classic::rank_one_update;
use spca_core::gaps::{fill_gaps_into, GapWorkspace};
use spca_core::merge::{merge, merge_all, merge_tree};
use spca_core::metrics::subspace_distance;
use spca_core::{
    ClassicIncrementalPca, EigenSystem, PcaConfig, RhoKind, RobustPca, UpdateWorkspace,
};
use spca_linalg::rng::{fill_standard_normal, standard_normal_vec};
use spca_linalg::{qr, svd, vecops, Mat};

/// A random *full-rank* eigensystem (`k = d`): orthonormal basis from a
/// product of random Givens rotations, well-separated descending
/// eigenvalues, random mean and running sums. Full rank matters: the merge
/// of eq. 15 is algebraically exact when nothing is truncated, which is
/// what makes tree-vs-fold agreement a 1e-10 statement instead of the
/// ~0.05 association tolerance of truncated merges.
fn random_full_rank_system(rng: &mut StdRng, d: usize) -> EigenSystem {
    let mut basis = Mat::zeros(d, d);
    for i in 0..d {
        basis.col_mut(i)[i] = 1.0;
    }
    for i in 0..d {
        for j in (i + 1)..d {
            let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let (s, c) = theta.sin_cos();
            // Row rotation in the (i, j) plane, applied across all columns.
            for col in 0..d {
                let cm = basis.col_mut(col);
                let (a, b) = (cm[i], cm[j]);
                cm[i] = c * a - s * b;
                cm[j] = s * a + c * b;
            }
        }
    }
    // Descending with guaranteed separation ≥ 0.7 (jitter < spacing).
    let values: Vec<f64> = (0..d)
        .map(|j| (d - j) as f64 + rng.gen_range(0.0..0.3))
        .collect();
    let n_obs = rng.gen_range(20..500u64);
    EigenSystem {
        mean: (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect(),
        basis,
        values,
        sigma2: rng.gen_range(0.01..1.0),
        sum_u: rng.gen_range(10.0..300.0),
        sum_v: rng.gen_range(10.0..300.0),
        sum_q: rng.gen_range(0.1..10.0),
        n_obs,
    }
}

/// `E diag(λ) Eᵀ` — the rotation-invariant content of (basis, values).
fn reconstruct(e: &EigenSystem) -> Mat {
    let d = e.dim();
    let mut scaled = Mat::zeros(d, e.n_components());
    for j in 0..e.n_components() {
        for (o, &b) in scaled.col_mut(j).iter_mut().zip(e.basis.col(j)) {
            *o = e.values[j] * b;
        }
    }
    spca_linalg::gemm::gemm(&scaled, &e.basis.transpose()).unwrap()
}

/// Largest entry of `|EᵀE − I|`.
fn orthonormality_error(basis: &Mat) -> f64 {
    let g = basis.gram();
    let mut worst = 0.0f64;
    for i in 0..g.rows() {
        for j in 0..g.cols() {
            let want = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((g[(i, j)] - want).abs());
        }
    }
    worst
}

/// The update `rank_one_update` must reproduce, computed the direct way:
/// thin SVD of the tall factor `A = [e_j·√(g_hist·λ_j) | y·√g_new]`,
/// truncated to its leading `k` left vectors and squared singular values.
fn tall_factor_oracle(eig: &EigenSystem, y: &[f64], g_hist: f64, g_new: f64) -> EigenSystem {
    let (d, k) = (eig.dim(), eig.n_components());
    let mut a = Mat::zeros(d, k + 1);
    for j in 0..k {
        a.col_mut(j).copy_from_slice(eig.basis.col(j));
        vecops::scale(a.col_mut(j), (g_hist * eig.values[j]).sqrt());
    }
    a.col_mut(k).copy_from_slice(y);
    vecops::scale(a.col_mut(k), g_new.sqrt());
    let f = svd::thin_svd(&a).unwrap();
    let mut out = eig.clone();
    out.basis = f.u.columns_range(0, k);
    out.values = f.s[..k].iter().map(|s| s * s).collect();
    out
}

/// One randomly drawn update problem, covering the shapes and degeneracies
/// the projected-core update has to survive: `d` from `k + 1` (so the new
/// direction exhausts the space) to 200, spectra with repeated and zero
/// eigenvalues, observations inside `span(E)` (exactly and to rounding),
/// the zero observation, and a zero weight on the new data.
fn random_update_problem(rng: &mut StdRng) -> (EigenSystem, Vec<f64>, f64, f64) {
    let k = rng.gen_range(1..=12usize);
    let d = if rng.gen_range(0..4) == 0 {
        k + 1
    } else {
        rng.gen_range(k + 1..=200)
    };
    let mut eig = EigenSystem::zeros(d, k);
    let axis_aligned = rng.gen_range(0..5) == 0;
    if axis_aligned {
        for j in 0..k {
            eig.basis[(j, j)] = 1.0;
        }
    } else {
        let mut raw = Mat::zeros(d, k);
        fill_standard_normal(rng, raw.as_mut_slice());
        eig.basis = qr::orthonormalize(&raw).unwrap();
    }
    // Descending spectrum; optionally flatten a run into a repeated value
    // and zero out the tail.
    let mut values: Vec<f64> = (0..k)
        .map(|j| 5.0 * 0.6f64.powi(j as i32) * rng.gen_range(0.8..1.0))
        .collect();
    if k >= 3 && rng.gen_range(0..3) == 0 {
        let at = rng.gen_range(0..k - 1);
        values[at + 1] = values[at];
    }
    if rng.gen_range(0..3) == 0 {
        let zeros = rng.gen_range(1..=k);
        values[k - zeros..].fill(0.0);
    }
    eig.values = values;

    let in_span: Vec<f64> = {
        let coeffs = standard_normal_vec(rng, k);
        eig.basis.matvec(&coeffs).unwrap()
    };
    let y = match rng.gen_range(0..6) {
        0 => vec![0.0; d],
        1 => in_span, // ρ = 0 exactly when the basis is axis-aligned
        _ => {
            let noise = standard_normal_vec(rng, d);
            let amp = [1e-9, 0.05, 1.0][rng.gen_range(0..3usize)];
            in_span
                .iter()
                .zip(&noise)
                .map(|(s, n)| s + amp * n)
                .collect()
        }
    };
    let g_hist = rng.gen_range(0.5..1.0);
    let g_new = if rng.gen_range(0..6) == 0 {
        0.0
    } else {
        rng.gen_range(0.001..0.5)
    };
    (eig, y, g_hist, g_new)
}

/// A stream living (mostly) on a planted low-rank subspace.
fn stream_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    // Latent coefficients for 60-200 observations in 6 dims, rank 2.
    proptest::collection::vec((-3.0f64..3.0, -3.0f64..3.0, -0.02f64..0.02), 60..200).prop_map(
        |coeffs| {
            coeffs
                .into_iter()
                .map(|(c1, c2, eps)| {
                    let mut x = vec![0.0; 6];
                    x[0] = 3.0 * c1;
                    x[1] = 1.5 * c2;
                    x[2] = eps;
                    x[3] = -eps;
                    x
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The eigensystem state never violates its structural invariants, no
    /// matter what (finite) data streams through.
    #[test]
    fn robust_invariants_always_hold(stream in stream_strategy()) {
        let cfg = PcaConfig::new(6, 2).with_init_size(10).with_extra(1).with_memory(100);
        let mut pca = RobustPca::new(cfg);
        for x in &stream {
            pca.update(x).unwrap();
        }
        if pca.is_initialized() {
            pca.full_eigensystem().unwrap().check_invariants().unwrap();
        }
    }

    /// Classic incremental with α = 1 converges toward the batch solution.
    #[test]
    fn incremental_tracks_batch(stream in stream_strategy()) {
        let cfg = PcaConfig::new(6, 2).with_alpha(1.0).with_extra(0).with_init_size(10);
        let mut inc = ClassicIncrementalPca::new(cfg);
        for x in &stream {
            inc.update(x).unwrap();
        }
        let batch = batch_pca(&stream, 2).unwrap();
        let e = inc.eigensystem();
        // Truncation during streaming discards residual directions, so the
        // agreement is approximate; the planted geometry keeps it tight.
        let dist = subspace_distance(&e.basis, &batch.basis).unwrap();
        prop_assert!(dist < 0.2, "distance {dist}");
    }

    /// Robust PCA with the classical ρ produces the same mean trajectory as
    /// classic incremental PCA (the recursions coincide for w ≡ 1).
    #[test]
    fn classical_rho_matches_classic_mean(stream in stream_strategy()) {
        let cfg = PcaConfig::new(6, 2)
            .with_alpha(0.995)
            .with_extra(0)
            .with_init_size(10)
            .with_rho(RhoKind::Classical);
        let mut robust = RobustPca::new(cfg.clone());
        let mut classic = ClassicIncrementalPca::new(cfg);
        for x in &stream {
            robust.update(x).unwrap();
            classic.update(x).unwrap();
        }
        if robust.is_initialized() && classic.is_initialized() {
            let er = robust.eigensystem();
            let ec = classic.eigensystem();
            for (a, b) in er.mean.iter().zip(&ec.mean) {
                prop_assert!((a - b).abs() < 1e-6, "means diverged: {a} vs {b}");
            }
        }
    }

    /// Merging a split stream approximates the unsplit batch eigensystem.
    #[test]
    fn merge_split_consistency(stream in stream_strategy()) {
        prop_assume!(stream.len() >= 80);
        let (a, b) = stream.split_at(stream.len() / 2);
        let ea = batch_pca(a, 2).unwrap();
        let eb = batch_pca(b, 2).unwrap();
        let whole = batch_pca(&stream, 2).unwrap();
        let merged = merge(&ea, &eb).unwrap();
        let dist = subspace_distance(&merged.basis, &whole.basis).unwrap();
        prop_assert!(dist < 0.35, "split/merge distance {dist}");
        // Eigenvalue mass is conserved to first order.
        let m: f64 = merged.values.iter().sum();
        let w: f64 = whole.values.iter().sum();
        prop_assert!((m - w).abs() < 0.5 * w.max(0.1), "mass {m} vs {w}");
    }

    /// Merge is commutative up to numerical noise.
    #[test]
    fn merge_commutes(stream in stream_strategy()) {
        prop_assume!(stream.len() >= 80);
        let (a, b) = stream.split_at(stream.len() / 2);
        let ea = batch_pca(a, 2).unwrap();
        let eb = batch_pca(b, 2).unwrap();
        let ab = merge(&ea, &eb).unwrap();
        let ba = merge(&eb, &ea).unwrap();
        let dist = subspace_distance(&ab.basis, &ba.basis).unwrap();
        prop_assert!(dist < 1e-4, "commutativity violated: {dist}");
        for (x, y) in ab.mean.iter().zip(&ba.mean) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        prop_assert!((ab.sum_v - ba.sum_v).abs() < 1e-9);
    }

    /// Outlier weights are monotone: a larger residual never gets a larger
    /// weight.
    #[test]
    fn weights_monotone_in_residual(scale in 1.0f64..100.0) {
        let rho = RhoKind::Bisquare(9.0).build();
        let mut prev = f64::INFINITY;
        for i in 0..100 {
            let t = scale * i as f64 / 100.0;
            let w = rho.weight(t);
            prop_assert!(w <= prev + 1e-12);
            prev = w;
        }
    }

    /// Gap filling with a complete mask is the identity, and its
    /// bias-corrected residual equals the plain truncated residual.
    #[test]
    fn gap_fill_identity_on_complete_mask(stream in stream_strategy()) {
        prop_assume!(stream.len() >= 60);
        let eig = batch_pca(&stream, 3).unwrap();
        let mask = vec![true; 6];
        let mut gf = GapWorkspace::default();
        for x in stream.iter().take(20) {
            let r2 = fill_gaps_into(&eig, x, &mask, 2, 1, &mut gf).unwrap();
            prop_assert_eq!(&gf.filled, x);
            let want = eig.residual_sq_truncated(x, 2);
            prop_assert!((r2 - want).abs() < 1e-9 * (1.0 + want));
        }
    }

    /// Gap filling never produces non-finite values, and observed bins are
    /// never modified, for any mask with at least one observed bin.
    #[test]
    fn gap_fill_preserves_observed_bins(stream in stream_strategy(), mask_bits in 1u8..63) {
        prop_assume!(stream.len() >= 60);
        let eig = batch_pca(&stream, 3).unwrap();
        let mask: Vec<bool> = (0..6).map(|i| mask_bits & (1 << i) != 0).collect();
        let mut gf = GapWorkspace::default();
        for x in stream.iter().take(10) {
            let r2 = fill_gaps_into(&eig, x, &mask, 2, 1, &mut gf).unwrap();
            prop_assert!(gf.filled.iter().all(|v| v.is_finite()));
            prop_assert!(r2.is_finite() && r2 >= 0.0);
            for i in 0..6 {
                if mask[i] {
                    prop_assert_eq!(gf.filled[i], x[i], "observed bin {} modified", i);
                }
            }
        }
    }

    /// Tree reduction and left fold are the *same algebra* when nothing is
    /// truncated: for full-rank eigensystems the merge of eq. 15 is exact,
    /// so any association order — and any shuffle of the partitions — must
    /// land on the same merged state to floating-point accuracy (1e-10),
    /// not the ~0.05 association tolerance truncated merges carry. This is
    /// the guarantee the partitioned backfill leans on when it tree-merges
    /// per-partition states in whatever order the store yields them.
    #[test]
    fn tree_merge_equals_left_fold_for_full_rank(seed in any::<u64>(), k in 2usize..16) {
        let mut rng = StdRng::seed_from_u64(seed);
        let systems: Vec<EigenSystem> =
            (0..k).map(|_| random_full_rank_system(&mut rng, 5)).collect();
        // Fisher–Yates shuffle (the vendored rand has no `seq` module).
        let mut shuffled = systems.clone();
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0..=i);
            shuffled.swap(i, j);
        }

        let fold = merge_all(&shuffled).unwrap();
        let tree = merge_tree(&shuffled).unwrap();

        // Subspace agreement. Both spans are full-rank, so the binding
        // 1e-10 statement is the eigenvalue-weighted one below; the raw
        // sin-of-largest-angle only carries a sqrt of the bases'
        // orthonormality roundoff (~1e-15 → ~1e-7) and is checked at that
        // floor.
        let dist = subspace_distance(&fold.basis, &tree.basis).unwrap();
        prop_assert!(dist < 1e-6, "subspace angle {dist}");
        let (rf, rt) = (reconstruct(&fold), reconstruct(&tree));
        let scale = fold.values[0].max(1.0);
        let dcov = rf.sub(&rt).unwrap().max_abs();
        prop_assert!(dcov <= 1e-10 * scale, "E Λ Eᵀ differs by {dcov}");

        // Eigenvalues, mean, scale: gap-independent 1e-10 agreement.
        for (a, b) in fold.values.iter().zip(&tree.values) {
            prop_assert!((a - b).abs() <= 1e-10 * (1.0 + a.abs()), "values {a} vs {b}");
        }
        for (a, b) in fold.mean.iter().zip(&tree.mean) {
            prop_assert!((a - b).abs() <= 1e-10, "mean {a} vs {b}");
        }
        prop_assert!((fold.sigma2 - tree.sigma2).abs() <= 1e-10 * (1.0 + fold.sigma2));

        // Running sums: plain additions, associative to roundoff.
        prop_assert!((fold.sum_u - tree.sum_u).abs() <= 1e-10 * fold.sum_u);
        prop_assert!((fold.sum_v - tree.sum_v).abs() <= 1e-10 * fold.sum_v);
        prop_assert!((fold.sum_q - tree.sum_q).abs() <= 1e-10 * fold.sum_q.max(1.0));
        prop_assert_eq!(fold.n_obs, tree.n_obs);
    }
}

proptest! {
    // Each case draws one shape/degeneracy combination, so this property
    // wants many more cases than the stream-driven ones above.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The projected-core update is the tall-factor SVD update: same
    /// `EΛEᵀ` (1e-9 relative Frobenius), same eigenvalues (1e-10 of the
    /// largest), orthonormal output — at unit scale and with the whole
    /// problem scaled by 2^±498 ≈ 1e±150 (a power of two, so the oracle of
    /// the scaled problem is exactly the scaled oracle).
    #[test]
    fn core_update_matches_tall_factor_svd(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (eig, y, g_hist, g_new) = random_update_problem(&mut rng);
        let want = tall_factor_oracle(&eig, &y, g_hist, g_new);
        let want_cov = reconstruct(&want);
        let top = want.values[0];
        let mut ws = UpdateWorkspace::default();
        for exp in [0i32, 498, -498] {
            let f = 2.0f64.powi(exp);
            let mut got = eig.clone();
            got.values.iter_mut().for_each(|v| *v *= f * f);
            let scaled_y: Vec<f64> = y.iter().map(|v| v * f).collect();
            rank_one_update(&mut got, &scaled_y, g_hist, g_new, &mut ws).unwrap();
            got.values.iter_mut().for_each(|v| *v /= f * f);

            got.check_invariants().unwrap();
            let ortho = orthonormality_error(&got.basis);
            prop_assert!(ortho <= 1e-12, "2^{exp}: |EᵀE − I| = {ortho}");
            for (a, b) in got.values.iter().zip(&want.values) {
                prop_assert!((a - b).abs() <= 1e-10 * top, "2^{exp}: eigenvalue {a} vs {b}");
            }
            let diff = reconstruct(&got).sub(&want_cov).unwrap().fro_norm();
            prop_assert!(
                diff <= 1e-9 * want_cov.fro_norm(),
                "2^{exp}: E Λ Eᵀ off by {diff} (‖·‖ = {})", want_cov.fro_norm()
            );
        }
    }
}

/// What the next row of a sequence is: a fresh draw, the previous row
/// again (its residual then lies in span(B) up to the rounding of the
/// mean update), a gross spike (weight zero), or a draw with a fifth of
/// its bins missing (the masked path, which folds first).
#[derive(Debug, Clone, Copy)]
enum RowKind {
    Fresh,
    Repeat,
    Spike,
    Masked,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The deferred basis is the same update, row by row: a sequence
    /// through `RobustPca` — crossing folds, repeating rows, rejecting
    /// spikes, folding at masked rows — matches the tall-factor oracle at
    /// every step, taken from the materialised state before the row with
    /// the weights the row's recursions gave (1e-9 in `EΛEᵀ`, 1e-10 in
    /// the values), at unit scale and with the data, warm-up included,
    /// scaled by 2^±498.
    #[test]
    fn robust_sequence_matches_tall_factor_oracle_step_by_step(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rng.gen_range(1..=4usize);
        let q = rng.gen_range(0..=2usize);
        let d = rng.gen_range(p + q + 4..=48usize);
        let mut planted = Mat::zeros(d, p + 1);
        fill_standard_normal(&mut rng, planted.as_mut_slice());
        let draw = |rng: &mut StdRng| -> Vec<f64> {
            let coeffs: Vec<f64> = (0..=p).map(|j| 3.0 / (j + 1) as f64 * rng.gen_range(-1.0..1.0)).collect();
            let mut x = planted.matvec(&coeffs).unwrap();
            vecops::axpy(0.05, &standard_normal_vec(rng, d), &mut x);
            x
        };
        let warm: Vec<Vec<f64>> = (0..3 * d).map(|_| draw(&mut rng)).collect();
        let mut rows: Vec<(RowKind, Vec<f64>, Vec<bool>)> = Vec::new();
        for _ in 0..40 {
            let kind = match rng.gen_range(0..8) {
                0 if !rows.is_empty() => RowKind::Repeat,
                1 => RowKind::Spike,
                2 => RowKind::Masked,
                _ => RowKind::Fresh,
            };
            let (x, mask) = match kind {
                RowKind::Repeat => {
                    let (_, x, mask) = rows.last().cloned().unwrap();
                    (x, mask)
                }
                RowKind::Spike => {
                    let mut x = draw(&mut rng);
                    x[rng.gen_range(0..d)] += 1e3;
                    (x, vec![true; d])
                }
                RowKind::Masked => {
                    let mut mask: Vec<bool> = (0..d).map(|_| rng.gen_range(0..5) != 0).collect();
                    mask[0] = true;
                    (draw(&mut rng), mask)
                }
                RowKind::Fresh => (draw(&mut rng), vec![true; d]),
            };
            rows.push((kind, x, mask));
        }
        let cfg = PcaConfig::new(d, p).with_extra(q).with_memory(200).with_init_size(2 * d);
        let alpha = cfg.alpha;
        let mut pending_seen = false;
        for exp in [0i32, 498, -498] {
            // The warm-up runs on the scaled rows too: the scale is the
            // batch initializer's to survive as well as the update's.
            let f = 2.0f64.powi(exp);
            let scaled = |x: &[f64]| x.iter().map(|v| v * f).collect::<Vec<f64>>();
            let mut pca = RobustPca::new(cfg.clone());
            for x in &warm {
                pca.update(&scaled(x)).unwrap();
            }
            for (i, (kind, x, mask)) in rows.iter().enumerate() {
                let x = scaled(x);
                let before = pca.full_eigensystem().unwrap().clone();
                pending_seen |= pca.deferred_state().unwrap().1.is_some();
                let (outcome, x_used) = if mask.iter().all(|&m| m) {
                    (pca.update(&x).unwrap(), x)
                } else {
                    let mut gf = GapWorkspace::default();
                    fill_gaps_into(&before, &x, mask, p, q, &mut gf).unwrap();
                    let filled = gf.filled;
                    (pca.update_masked(&x, mask).unwrap(), filled)
                };
                let after = pca.full_eigensystem().unwrap().clone();
                let r2 = outcome.residual_sq;
                if outcome.weight * r2 == 0.0 {
                    // Rejected: the eigensystem stays put, to the bit.
                    prop_assert!(after.basis == before.basis && after.values == before.values,
                        "row {i} ({kind:?}) was rejected but moved the eigensystem");
                    continue;
                }
                // The oracle of the scaled problem is the scaled oracle (f
                // is a power of two), so it runs at unit scale.
                let y: Vec<f64> = x_used.iter().zip(&after.mean).map(|(a, m)| (a - m) / f).collect();
                let g_hist = alpha * before.sum_q / after.sum_q;
                let g_new = (1.0 - g_hist) * after.sigma2 / r2;
                let (mut before, mut after) = (before, after);
                for e in [&mut before, &mut after] {
                    e.values.iter_mut().for_each(|v| *v /= f * f);
                }
                let want = tall_factor_oracle(&before, &y, g_hist, g_new);
                let want_cov = reconstruct(&want);
                let top = want.values[0];
                after.check_invariants().unwrap();
                let ortho = orthonormality_error(&after.basis);
                prop_assert!(ortho <= 1e-12, "2^{exp} row {i} ({kind:?}): |EᵀE − I| = {ortho}");
                for (a, b) in after.values.iter().zip(&want.values) {
                    prop_assert!((a - b).abs() <= 1e-10 * top,
                        "2^{exp} row {i} ({kind:?}): eigenvalue {a} vs {b}");
                }
                let diff = reconstruct(&after).sub(&want_cov).unwrap().fro_norm();
                prop_assert!(diff <= 1e-9 * want_cov.fro_norm(),
                    "2^{exp} row {i} ({kind:?}): E Λ Eᵀ off by {diff} (‖·‖ = {})", want_cov.fro_norm());
            }
        }
        prop_assert!(pending_seen, "no row ran on a deferred basis");
    }
}

/// Long-run drift: the basis is only ever rotated in place — never rebuilt
/// by a fresh factorization — so its orthonormality has to survive hundreds
/// of thousands of write-backs (the gap fill's `G = I − E_missᵀE_miss`
/// shortcut depends on it). Cycles a pool of planted-subspace draws through
/// `n` updates, checking the invariants throughout.
fn assert_no_drift(d: usize, n: usize, masked: bool) {
    let p = 4;
    let mut rng = StdRng::seed_from_u64(0xd21f7 + d as u64);
    let mut planted = Mat::zeros(d, p);
    fill_standard_normal(&mut rng, planted.as_mut_slice());
    let pool: Vec<Vec<f64>> = (0..1024)
        .map(|_| {
            let mut coeffs = standard_normal_vec(&mut rng, p);
            for (j, c) in coeffs.iter_mut().enumerate() {
                *c *= 3.0 / (j + 1) as f64;
            }
            let mut x = planted.matvec(&coeffs).unwrap();
            vecops::axpy(0.05, &standard_normal_vec(&mut rng, d), &mut x);
            x
        })
        .collect();
    let mut pca = RobustPca::new(PcaConfig::new(d, p).with_memory(500));
    let mut mask = vec![true; d];
    let mut worst = 0.0f64;
    for t in 0..n {
        let x = &pool[t % pool.len()];
        if masked {
            for (i, m) in mask.iter_mut().enumerate() {
                *m = (7 * i + t) % 6 != 1;
            }
            pca.update_masked(x, &mask).unwrap();
        } else {
            pca.update(x).unwrap();
        }
        if t % 500 == 499 {
            let eig = pca.full_eigensystem().unwrap();
            eig.check_invariants().unwrap();
            worst = worst.max(orthonormality_error(&eig.basis));
        }
    }
    assert!(worst <= 1e-9, "d = {d}: max |EᵀE − I| = {worst:e}");
}

#[test]
fn basis_stays_orthonormal_over_200k_updates() {
    assert_no_drift(64, 200_000, false);
}

#[test]
fn basis_stays_orthonormal_over_20k_masked_updates() {
    assert_no_drift(500, 20_000, true);
}
