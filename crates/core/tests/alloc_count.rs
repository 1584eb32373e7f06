//! Proves the steady-state streaming update, complete or masked, is
//! allocation-free.
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
use spca_core::{PcaConfig, RobustPca};

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
}
