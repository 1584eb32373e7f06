//! Proves the backfill worker's steady-state feed loop is allocation-free.
//!
//! A `PartitionWorker` is built once per pool worker and reused across
//! every partition that worker drains; its estimator workspaces and row
//! parse buffers are allocated during warm-up and must then be reused —
//! per-row allocation in a corpus-sized backfill would dominate the run.
//! Same harness as `spca-core/tests/alloc_count.rs`: a counting global
//! allocator, warm up, then assert the hot loop never touches the heap.
//!
//! This file must contain exactly one `#[test]`: a sibling test running on
//! another thread would allocate concurrently and poison the counter.

use spca_alloc_count::{allocations, track, CountingAlloc};
use spca_core::PcaConfig;
use spca_engine::PartitionWorker;
use std::fmt::Write as _;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic pseudo-random stream without pulling rand into the
/// measured binary.
fn lcg_normal_ish(state: &mut u64) -> f64 {
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
fn backfill_worker_steady_state_performs_zero_allocations() {
    const D: usize = 24;
    const WARM_ROWS: usize = 200;
    const MEASURED_ROWS: usize = 400;
    track(true);

    // Pre-render the partition text: the corpus bytes exist before the
    // worker runs (the runner hands it a byte slice), so CSV formatting is
    // not part of the measured loop.
    let mut state = 0x5eed_f00d_u64;
    let mut corpus = String::new();
    for _ in 0..(WARM_ROWS + MEASURED_ROWS) {
        for j in 0..D {
            if j > 0 {
                corpus.push(',');
            }
            let v = lcg_normal_ish(&mut state);
            write!(corpus, "{v:.6}").unwrap();
        }
        corpus.push('\n');
    }

    let cfg = PcaConfig::new(D, 3).with_init_size(30).with_memory(500);
    let mut worker = PartitionWorker::new(cfg);

    // Simulate the pool's reuse pattern: a first partition warms every
    // buffer (estimator workspaces, parse buffers), then the worker is
    // reset for the next partition. The reset must keep the workspaces.
    let mut lines = corpus.lines();
    worker.begin();
    for line in lines.by_ref().take(WARM_ROWS) {
        worker.feed_line(line.as_bytes()).unwrap();
    }

    let before = allocations();
    for line in lines {
        worker.feed_line(line.as_bytes()).unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state backfill feed allocated {} times over {MEASURED_ROWS} rows",
        after - before
    );
}
