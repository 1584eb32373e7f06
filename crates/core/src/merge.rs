//! Combining independently-estimated eigensystems (§II-C, eq. 15–16).
//!
//! When the stream is split across engines, each engine's eigensystem drifts
//! on its own substream; synchronization merges two (or more) systems into
//! one. The combined location is the `v`-weighted average of the means, and
//! the combined covariance is diagonalized through a low-rank factor
//!
//! ```text
//! A = [ E₁√(γ₁Λ₁) | E₂√(γ₂Λ₂) | √γ₁·(µ₁−µ) | √γ₂·(µ₂−µ) ]
//! ```
//!
//! whose two trailing columns are the exact mean-shift correction of
//! eq. (15); when the means agree they vanish and the factor reduces to the
//! paper's approximation (eq. 16). Running sums add, so merged systems keep
//! driving the γ-recursions consistently.

use crate::eigensystem::EigenSystem;
use crate::{PcaError, Result};
use spca_linalg::{svd, Mat};

/// Merges two eigensystems into a `k`-component combined estimate, where
/// `k = max(k₁, k₂)` components are retained.
pub fn merge(s1: &EigenSystem, s2: &EigenSystem) -> Result<EigenSystem> {
    if s1.dim() != s2.dim() {
        return Err(PcaError::IncompatibleMerge(format!(
            "cannot merge eigensystem of shape {}×{} with {}×{}: dimensions {} vs {} differ",
            s1.dim(),
            s1.n_components(),
            s2.dim(),
            s2.n_components(),
            s1.dim(),
            s2.dim()
        )));
    }
    let d = s1.dim();
    let k_out = s1.n_components().max(s2.n_components());

    // Degenerate participants (no data yet) pass the other side through.
    if s1.sum_v <= 0.0 && s1.n_obs == 0 {
        return Ok(pad_components(s2, k_out));
    }
    if s2.sum_v <= 0.0 && s2.n_obs == 0 {
        return Ok(pad_components(s1, k_out));
    }

    // γ weights from the robust running weight sums (paper: γ₁ = v₁/(v₁+v₂)).
    let v_total = s1.sum_v + s2.sum_v;
    let (g1, g2) = if v_total > 0.0 {
        (s1.sum_v / v_total, s2.sum_v / v_total)
    } else {
        (0.5, 0.5)
    };

    // Combined mean.
    let mean: Vec<f64> = s1
        .mean
        .iter()
        .zip(&s2.mean)
        .map(|(&m1, &m2)| g1 * m1 + g2 * m2)
        .collect();

    // Low-rank factor with mean-shift correction columns.
    let k1 = s1.n_components();
    let k2 = s2.n_components();
    let mut a = Mat::zeros(d, k1 + k2 + 2);
    for j in 0..k1 {
        let s = (g1 * s1.values[j]).max(0.0).sqrt();
        for (o, &e) in a.col_mut(j).iter_mut().zip(s1.basis.col(j)) {
            *o = s * e;
        }
    }
    for j in 0..k2 {
        let s = (g2 * s2.values[j]).max(0.0).sqrt();
        for (o, &e) in a.col_mut(k1 + j).iter_mut().zip(s2.basis.col(j)) {
            *o = s * e;
        }
    }
    {
        let sg1 = g1.sqrt();
        let col = a.col_mut(k1 + k2);
        for i in 0..d {
            col[i] = sg1 * (s1.mean[i] - mean[i]);
        }
    }
    {
        let sg2 = g2.sqrt();
        let col = a.col_mut(k1 + k2 + 1);
        for i in 0..d {
            col[i] = sg2 * (s2.mean[i] - mean[i]);
        }
    }

    // The factor is d×(k₁+k₂+2); when the combined component count exceeds
    // the dimension (full-rank merges, where nothing is truncated and the
    // combination is exact) the matrix is wide, and thin SVD wants rows ≥
    // cols — so factor the transpose instead: A = UΣVᵀ ⇔ Aᵀ = VΣUᵀ, and
    // the left singular vectors of A are the right ones of Aᵀ.
    let (left, s) = if a.rows() >= a.cols() {
        let f = svd::thin_svd(&a)?;
        (f.u, f.s)
    } else {
        let f = svd::thin_svd(&a.transpose())?;
        (f.v, f.s)
    };
    let mut basis = Mat::zeros(d, k_out);
    let mut values = vec![0.0; k_out];
    for (j, val) in values.iter_mut().enumerate().take(k_out.min(s.len())) {
        basis.col_mut(j).copy_from_slice(left.col(j));
        *val = s[j] * s[j];
    }

    // Scales combine v-weighted; running sums add (both engines' decayed
    // histories contribute to the merged estimate's memory).
    let sigma2 = g1 * s1.sigma2 + g2 * s2.sigma2;

    let merged = EigenSystem {
        mean,
        basis,
        values,
        sigma2,
        sum_u: s1.sum_u + s2.sum_u,
        sum_v: v_total,
        sum_q: s1.sum_q + s2.sum_q,
        n_obs: s1.n_obs + s2.n_obs,
    };
    merged.check_invariants()?;
    Ok(merged)
}

/// Merges many eigensystems left-to-right. Returns an error on an empty
/// input.
///
/// The left fold is the synchronization-path shape (one accumulator, peers
/// folded in as they arrive). For batch reductions over many partitions,
/// prefer [`merge_tree`]: same algebra, balanced γ-weighting.
pub fn merge_all<'a>(systems: impl IntoIterator<Item = &'a EigenSystem>) -> Result<EigenSystem> {
    let mut systems = systems.into_iter();
    let first = systems
        .next()
        .ok_or_else(|| PcaError::IncompatibleMerge("cannot merge zero systems".into()))?;
    systems.try_fold(first.clone(), |acc, s| merge(&acc, s))
}

/// Merges many eigensystems by pairwise tree reduction, on the calling
/// thread.
///
/// Each level merges adjacent pairs `(0,1), (2,3), …` — an odd trailing
/// element passes through to the next level — so every merge combines
/// subtrees of (nearly) equal observation mass, which keeps the γ weights
/// of eq. 15 balanced instead of letting a long-running accumulator
/// dominate every step. The pairing is fixed by index and no other thread
/// takes part, so the result is **bit-identical at any thread count**:
/// the same on every machine and in every process, whatever runs beside it.
///
/// Returns a [`PcaError`] on an empty input slice.
pub fn merge_tree(systems: &[EigenSystem]) -> Result<EigenSystem> {
    if systems.is_empty() {
        return Err(PcaError::IncompatibleMerge(
            "cannot merge zero systems".into(),
        ));
    }
    let mut level: Vec<EigenSystem> = systems.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            next.push(match pair {
                [a, b] => merge(a, b)?,
                _ => pair[0].clone(),
            });
        }
        level = next;
    }
    Ok(level.pop().expect("non-empty by construction"))
}

/// Pads (or truncates) an eigensystem to exactly `k` components, filling
/// new components with orthonormal completions and zero eigenvalues.
fn pad_components(e: &EigenSystem, k: usize) -> EigenSystem {
    use std::cmp::Ordering;
    match e.n_components().cmp(&k) {
        Ordering::Equal => e.clone(),
        Ordering::Greater => e.truncated(k),
        Ordering::Less => {
            let d = e.dim();
            let mut basis = Mat::zeros(d, k);
            let mut values = vec![0.0; k];
            for (j, &v) in e.values.iter().enumerate().take(e.n_components()) {
                basis.col_mut(j).copy_from_slice(e.basis.col(j));
                values[j] = v;
            }
            crate::batch::fill_orthonormal_tail(&mut basis, e.n_components());
            EigenSystem {
                basis,
                values,
                ..e.clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::batch_pca;
    use crate::metrics::subspace_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spca_linalg::rng::standard_normal_vec;

    const D: usize = 8;

    fn planted(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                let c = standard_normal_vec(rng, 2);
                let mut x = vec![0.0; D];
                x[0] = 3.0 * c[0] + 1.0; // non-zero mean on axis 0
                x[1] = 1.5 * c[1];
                for xi in x.iter_mut() {
                    *xi += 0.02 * spca_linalg::rng::standard_normal(rng);
                }
                x
            })
            .collect()
    }

    #[test]
    fn merge_of_two_halves_matches_whole() {
        let mut rng = StdRng::seed_from_u64(20);
        let a = planted(&mut rng, 400);
        let b = planted(&mut rng, 400);
        let whole: Vec<Vec<f64>> = a.iter().chain(&b).cloned().collect();

        let ea = batch_pca(&a, 2).unwrap();
        let eb = batch_pca(&b, 2).unwrap();
        let ew = batch_pca(&whole, 2).unwrap();

        let merged = merge(&ea, &eb).unwrap();
        let dist = subspace_distance(&merged.basis, &ew.basis).unwrap();
        assert!(dist < 0.05, "merged basis off by {dist}");
        for k in 0..2 {
            let rel = (merged.values[k] - ew.values[k]).abs() / ew.values[k];
            assert!(
                rel < 0.15,
                "λ{k}: merged {} vs whole {}",
                merged.values[k],
                ew.values[k]
            );
        }
        // Means agree.
        for i in 0..D {
            assert!((merged.mean[i] - ew.mean[i]).abs() < 0.05);
        }
    }

    #[test]
    fn merge_is_weighted_toward_heavier_side() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut heavy = batch_pca(&planted(&mut rng, 500), 2).unwrap();
        let mut light = heavy.clone();
        heavy.sum_v = 1000.0;
        light.sum_v = 1.0;
        // Move the light mean far away.
        light.mean = vec![10.0; D];
        let merged = merge(&heavy, &light).unwrap();
        // Mean must stay close to the heavy side.
        assert!(
            (merged.mean[2] - heavy.mean[2]).abs() < 0.1,
            "{:?}",
            &merged.mean[..3]
        );
    }

    #[test]
    fn mean_shift_columns_capture_between_group_variance() {
        // Two clusters on opposite ends of axis 3 with negligible internal
        // variance along it: the merged top eigenvector must pick up the
        // between-means direction.
        let mut rng = StdRng::seed_from_u64(22);
        let mut a = planted(&mut rng, 300);
        let mut b = planted(&mut rng, 300);
        for x in a.iter_mut() {
            x[3] += 20.0;
        }
        for x in b.iter_mut() {
            x[3] -= 20.0;
        }
        let ea = batch_pca(&a, 2).unwrap();
        let eb = batch_pca(&b, 2).unwrap();
        let merged = merge(&ea, &eb).unwrap();
        let top = merged.basis.col(0);
        assert!(
            top[3].abs() > 0.95,
            "between-group direction missed: {top:?}"
        );
    }

    #[test]
    fn running_sums_add() {
        let mut rng = StdRng::seed_from_u64(23);
        let ea = batch_pca(&planted(&mut rng, 100), 2).unwrap();
        let eb = batch_pca(&planted(&mut rng, 100), 2).unwrap();
        let merged = merge(&ea, &eb).unwrap();
        assert!((merged.sum_u - (ea.sum_u + eb.sum_u)).abs() < 1e-9);
        assert!((merged.sum_v - (ea.sum_v + eb.sum_v)).abs() < 1e-9);
        assert_eq!(merged.n_obs, ea.n_obs + eb.n_obs);
    }

    #[test]
    fn merge_with_empty_side_passes_through() {
        let mut rng = StdRng::seed_from_u64(24);
        let ea = batch_pca(&planted(&mut rng, 200), 2).unwrap();
        let empty = EigenSystem::zeros(D, 2);
        // Subspace distance is sin(max angle): orthonormality error ε in the
        // basis shows up as ~sqrt(ε), so "identical" means < 1e-4 here.
        let m = merge(&ea, &empty).unwrap();
        let dist = subspace_distance(&m.basis, &ea.basis).unwrap();
        assert!(dist < 1e-4, "dist {dist}");
        let m2 = merge(&empty, &ea).unwrap();
        assert!(subspace_distance(&m2.basis, &ea.basis).unwrap() < 1e-4);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = EigenSystem::zeros(4, 2);
        let b = EigenSystem::zeros(5, 2);
        assert!(merge(&a, &b).is_err());
    }

    #[test]
    fn merge_all_associates() {
        let mut rng = StdRng::seed_from_u64(25);
        let parts: Vec<EigenSystem> = (0..4)
            .map(|_| batch_pca(&planted(&mut rng, 200), 2).unwrap())
            .collect();
        let left = merge_all(&parts).unwrap();
        // Pairwise tree merge.
        let t1 = merge(&parts[0], &parts[1]).unwrap();
        let t2 = merge(&parts[2], &parts[3]).unwrap();
        let tree = merge(&t1, &t2).unwrap();
        let dist = subspace_distance(&left.basis, &tree.basis).unwrap();
        assert!(dist < 0.05, "association error {dist}");
    }

    #[test]
    fn merge_all_empty_is_error() {
        assert!(merge_all(&[]).is_err());
        assert!(merge_tree(&[]).is_err());
    }

    #[test]
    fn dimension_mismatch_error_names_both_shapes() {
        let a = EigenSystem::zeros(4, 2);
        let b = EigenSystem::zeros(5, 3);
        let err = merge(&a, &b).unwrap_err();
        let msg = format!("{err:?}");
        assert!(msg.contains("4×2"), "missing left shape: {msg}");
        assert!(msg.contains("5×3"), "missing right shape: {msg}");
    }

    #[test]
    fn tree_merge_matches_left_fold() {
        let mut rng = StdRng::seed_from_u64(27);
        for n in [1usize, 2, 3, 5, 8] {
            let parts: Vec<EigenSystem> = (0..n)
                .map(|_| batch_pca(&planted(&mut rng, 150), 2).unwrap())
                .collect();
            let fold = merge_all(&parts).unwrap();
            let tree = merge_tree(&parts).unwrap();
            let dist = subspace_distance(&fold.basis, &tree.basis).unwrap();
            assert!(dist < 0.05, "n={n}: association error {dist}");
            assert!((fold.sum_v - tree.sum_v).abs() < 1e-9 * fold.sum_v.max(1.0));
            assert_eq!(fold.n_obs, tree.n_obs);
        }
    }

    #[test]
    fn tree_merge_single_system_passes_through() {
        let mut rng = StdRng::seed_from_u64(29);
        let only = batch_pca(&planted(&mut rng, 100), 2).unwrap();
        let out = merge_tree(std::slice::from_ref(&only)).unwrap();
        assert_eq!(out.n_obs, only.n_obs);
        assert_eq!(out.basis.sub(&only.basis).unwrap().max_abs(), 0.0);
    }

    #[test]
    fn merged_system_passes_invariants() {
        let mut rng = StdRng::seed_from_u64(26);
        let ea = batch_pca(&planted(&mut rng, 150), 3).unwrap();
        let eb = batch_pca(&planted(&mut rng, 150), 3).unwrap();
        merge(&ea, &eb).unwrap().check_invariants().unwrap();
    }
}
