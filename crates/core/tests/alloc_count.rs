//! Proves the steady-state streaming update, complete or masked, is
//! allocation-free: at the core sizes the benchmark workloads run (5, 7
//! and 13), through the secular solver's deflation branches, and across a
//! fold of the deferred basis with its readers in between.
//!
//! The counting global allocator wraps the system allocator; after the
//! estimator has warmed up and its workspace buffers have grown to size,
//! a run of further updates must not touch the heap at all. This is the
//! guard that keeps the hot path from silently regressing to per-tuple
//! allocation.
//!
//! This file must contain exactly one `#[test]`: a sibling test running on
//! another thread would allocate concurrently and poison the counter.

use spca_alloc_count::{allocations, track, CountingAlloc};
use spca_core::classic::rank_one_update;
use spca_core::{EigenSystem, PcaConfig, RobustPca, UpdateWorkspace};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic pseudo-random stream without pulling rand into the
/// measured binary (the generator itself must not allocate either).
fn lcg_normal_ish(state: &mut u64) -> f64 {
    // Sum of uniforms → approximately Gaussian; plenty for exercising the
    // update path.
    let mut s = 0.0;
    for _ in 0..4 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s += (*state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    s * 2.0
}

/// `rows` observations of a `planted`-dimensional signal in `d` bins plus a
/// little noise, generated before any measured window.
fn planted_rows(d: usize, planted: usize, rows: usize, state: &mut u64) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|_| {
            let coeffs: Vec<f64> = (0..planted)
                .map(|j| 4.0 / (j + 1) as f64 * lcg_normal_ish(state))
                .collect();
            (0..d)
                .map(|i| coeffs.get(i).copied().unwrap_or(0.0) + 0.05 * lcg_normal_ish(state))
                .collect()
        })
        .collect()
}

/// Rows `mean + E·a` exactly inside the tracked span: their residual
/// against all `p + q` components is zero (`ρ = 0`, the appended core
/// coordinate deflates), while the small weight on the `q` extra
/// components keeps their residual against the reported `p` nonzero, so
/// each one is a full update. The affine span `mean + span(E)` is left
/// invariant by such updates, so rows drawn from one snapshot stay in it.
fn in_span_rows(eig: &EigenSystem, p: usize, rows: usize, state: &mut u64) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|_| {
            let mut x = eig.mean.clone();
            for j in 0..eig.n_components() {
                let a = if j < p { 2.0 } else { 0.1 } * lcg_normal_ish(state);
                for (xi, e) in x.iter_mut().zip(eig.basis.col(j)) {
                    *xi += a * e;
                }
            }
            x
        })
        .collect()
}

/// Runs `f` over `items` with the counter watching and returns how many
/// allocations it made.
fn count<T>(items: &[T], f: impl FnMut(&T)) -> usize {
    let before = allocations();
    items.iter().for_each(f);
    allocations() - before
}

#[test]
fn steady_state_update_performs_zero_allocations() {
    const D: usize = 64;
    const P: usize = 4;
    const WARM: usize = 300;
    const MEASURED: usize = 100;
    track(true);

    let mut pca = RobustPca::new(PcaConfig::new(D, P).with_memory(500).with_init_size(40));

    // Pre-generate every observation so data generation stays out of the
    // measured window.
    let mut state = 0x5eed_5eed_5eed_5eedu64;
    let data: Vec<Vec<f64>> = (0..WARM + MEASURED)
        .map(|_| {
            let c0 = 4.0 * lcg_normal_ish(&mut state);
            let c1 = 2.0 * lcg_normal_ish(&mut state);
            (0..D)
                .map(|j| {
                    let base = match j {
                        0 => c0,
                        1 => c1,
                        _ => 0.0,
                    };
                    base + 0.05 * lcg_normal_ish(&mut state)
                })
                .collect()
        })
        .collect();

    // Warm-up: initialization plus enough updates for every workspace
    // buffer to reach its steady-state capacity.
    for x in &data[..WARM] {
        pca.update(x).unwrap();
    }
    assert!(pca.is_initialized());

    let before = allocations();
    for x in &data[WARM..] {
        pca.update(x).unwrap();
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state RobustPca::update allocated {} times over {MEASURED} updates",
        after - before
    );

    // A window crossing a fold with residual columns pending (j > 0),
    // reading the materialised eigensystem after every row: the fold and
    // the readers stay off the heap once the first read has grown the view
    // buffer. Nine rows cross at least one fold (every eight rows), and the
    // first fold in them carries the tail j > 0 left by the row before.
    let pending = |pca: &RobustPca| {
        let (eig, tail) = pca.deferred_state().unwrap();
        tail.map_or(0, |t| t.residuals.len() / eig.dim())
    };
    let _ = pca.full_eigensystem();
    let mut next = data[WARM..].iter().cycle();
    while pending(&pca) == 0 {
        pca.update(next.next().unwrap()).unwrap();
    }
    let window: Vec<&Vec<f64>> = next.take(9).collect();
    let n = count(&window, |x| {
        pca.update(x).unwrap();
        assert!(pca.full_eigensystem().is_some());
    });
    assert_eq!(
        n, 0,
        "a window across a fold with j > 0 allocated {n} times"
    );

    // The gap-filling path has buffers of its own (missing-bin list, masked
    // residual, gathered rows); a mask of 9–10 missing bins sliding over the
    // spectrum grows them once, after which it must stay off the heap too.
    let mut mask = vec![true; D];
    let slide = |mask: &mut [bool], t: usize| {
        for (i, m) in mask.iter_mut().enumerate() {
            *m = !(i + t).is_multiple_of(7);
        }
    };
    for (t, x) in data[..MEASURED].iter().enumerate() {
        slide(&mut mask, t);
        pca.update_masked(x, &mask).unwrap();
    }
    let before = allocations();
    for (t, x) in data[WARM..].iter().enumerate() {
        slide(&mut mask, t);
        pca.update_masked(x, &mask).unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state RobustPca::update_masked allocated {} times over {MEASURED} updates",
        after - before
    );

    // Deflation, first kind: rows inside span(E) give the appended core
    // coordinate z = 0. Core size 5 (p = 2), the narrow workload's.
    let mut narrow = RobustPca::new(PcaConfig::new(D, 2).with_memory(500).with_init_size(40));
    for x in planted_rows(D, 2, WARM, &mut state) {
        narrow.update(&x).unwrap();
    }
    let snapshot = narrow.full_eigensystem().unwrap().clone();
    let inside = in_span_rows(&snapshot, 2, 2 * MEASURED, &mut state);
    for x in &inside[..MEASURED] {
        narrow.update(x).unwrap();
    }
    let n = count(&inside[MEASURED..], |x| {
        narrow.update(x).unwrap();
    });
    assert_eq!(n, 0, "in-span updates (core 5) allocated {n} times");

    // Deflation, second kind: a repeated eigenvalue and zero eigenvalues
    // beside the appended zero pole, so equal poles with nonzero z are
    // merged by rotation, with rows in and out of span(E). Each update
    // starts from the same template, copied in place.
    let mut template = pca.full_eigensystem().unwrap().clone();
    template.values = vec![4.0, 2.0, 2.0, 1.0, 0.0, 0.0];
    template.mean = vec![0.0; D];
    let mut rows = in_span_rows(&template, P, MEASURED, &mut state);
    rows.extend(data[WARM..].iter().cloned());
    let mut eig = template.clone();
    let mut ws = UpdateWorkspace::default();
    let mut step = |y: &Vec<f64>| {
        eig.values.copy_from_slice(&template.values);
        eig.basis
            .as_mut_slice()
            .copy_from_slice(template.basis.as_slice());
        rank_one_update(&mut eig, y, 0.99, 0.01, &mut ws).unwrap();
    };
    count(&rows, &mut step);
    let n = count(&rows, &mut step);
    assert_eq!(
        n, 0,
        "rotation-deflated updates (core 7) allocated {n} times"
    );

    // The wide workload's shape: d = 1000, p = 10, core size 13.
    const WIDE: usize = 1000;
    let mut wide = RobustPca::new(PcaConfig::new(WIDE, 10).with_memory(500));
    let wide_rows = planted_rows(WIDE, 10, 200, &mut state);
    for x in &wide_rows[..150] {
        wide.update(x).unwrap();
    }
    let n = count(&wide_rows[150..], |x| {
        wide.update(x).unwrap();
    });
    assert_eq!(n, 0, "wide updates (d = 1000, core 13) allocated {n} times");
}
