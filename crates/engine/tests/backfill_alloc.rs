//! Proves the backfill worker's steady-state feed loop is allocation-free.
//!
//! A `PartitionWorker` is built once per pool worker and reused across
//! every partition that worker drains; its estimator workspaces and row
//! parse buffers are allocated during warm-up and must then be reused —
//! per-row allocation in a corpus-sized backfill would dominate the run.
//! The rows come from a file through the worker's one read buffer, as in
//! a backfill.
//! Same harness as `spca-core/tests/alloc_count.rs`: a counting global
//! allocator, warm up, then assert the hot loop never touches the heap.
//!
//! This file must contain exactly one `#[test]`: a sibling test running on
//! another thread would allocate concurrently and poison the counter.

use spca_alloc_count::{allocations, track, CountingAlloc};
use spca_core::PcaConfig;
use spca_engine::{partition_csv_rows, PartitionWorker};
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

    // Render the corpus file: its rows reach the worker the way a
    // backfill's do, read through the worker's buffer from the partition's
    // byte range, so CSV formatting is not part of the measured loop.
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
    let dir = std::env::temp_dir().join(format!("spca_backfill_alloc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.csv");
    std::fs::write(&path, &corpus).unwrap();
    // Three partitions of 200 rows: the first warms up, two are measured.
    let parts = partition_csv_rows(&path, 3).unwrap();

    let cfg = PcaConfig::new(D, 3).with_init_size(30).with_memory(500);
    let mut worker = PartitionWorker::new(cfg);

    // Simulate the pool's reuse pattern: a first partition warms every
    // buffer (estimator workspaces, parse buffers, the read buffer), then
    // the worker reads on. Opening a slice's file must not allocate either.
    worker.begin();
    worker.feed_slice(&parts[0].payload).unwrap();

    let before = allocations();
    for part in &parts[1..] {
        let parsed = worker.feed_slice(&part.payload).unwrap();
        assert_eq!(parsed, part.content_hash);
    }
    let after = allocations();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        after - before,
        0,
        "steady-state backfill feed allocated {} times over {MEASURED_ROWS} rows",
        after - before
    );
}
