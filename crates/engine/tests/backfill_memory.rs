//! A backfill's heap does not grow with its corpus.
//!
//! Each worker reads its partition's byte range through one fixed buffer
//! and the partitioner streams the file the same way, so a corpus eight
//! times longer, of the same row shape and partition count, must reach the
//! same heap high-water mark to within less than one read buffer. A
//! whole-corpus copy in memory grows by the corpus size and fails here.
//!
//! This file must contain exactly one `#[test]`: the high-water mark is
//! per-process.

use spca_alloc_count::{live_bytes, peak_bytes, reset_peak, CountingAlloc};
use spca_core::PcaConfig;
use spca_engine::{backfill, partition_csv_rows, BackfillConfig, READ_BUFFER_BYTES};
use std::fmt::Write as _;
use std::path::Path;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const D: usize = 24;
const PARTS: usize = 4;

/// Writes `rows` rows of `D` fixed-width fields, so every corpus has the
/// same row shape whatever its length.
fn write_corpus(path: &Path, rows: usize) {
    let mut state = 0x0bad_cafe_u64;
    let mut text = String::new();
    for _ in 0..rows {
        for j in 0..D {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let v = if j < 3 { v * 8.0 / (j + 1) as f64 } else { v };
            write!(text, "{}{v:+.6}", if j > 0 { "," } else { "" }).unwrap();
        }
        text.push('\n');
    }
    std::fs::write(path, text).unwrap();
}

/// Heap bytes a cold backfill of `rows` rows held at its peak, above what
/// was live before it started.
fn backfill_peak(dir: &Path, rows: usize) -> usize {
    let csv = dir.join(format!("corpus-{rows}.csv"));
    write_corpus(&csv, rows);
    let cfg = BackfillConfig {
        pca: PcaConfig::new(D, 3).with_init_size(40).with_memory(1000),
        workers: 2,
        state_dir: dir.join(format!("store-{rows}")),
    };
    let base = live_bytes();
    reset_peak();
    let partitions = partition_csv_rows(&csv, PARTS).unwrap();
    let outcome = backfill(&cfg, &partitions).unwrap();
    let peak = peak_bytes() - base;
    assert_eq!(outcome.stats.computed, PARTS);
    assert_eq!(outcome.merged.n_obs, rows as u64);
    peak
}

#[test]
fn backfill_heap_does_not_grow_with_the_corpus() {
    const N: usize = 600;
    let dir = std::env::temp_dir().join(format!("spca_backfill_memory_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let small = backfill_peak(&dir, N);
    let large = backfill_peak(&dir, 8 * N);
    std::fs::remove_dir_all(&dir).ok();
    let corpus_growth = 7 * N * D * 10;
    assert!(
        large.abs_diff(small) < READ_BUFFER_BYTES,
        "heap high-water {small} B at {N} rows, {large} B at {} rows: the difference is \
         not under one read buffer ({READ_BUFFER_BYTES} B; the corpus grew by ~{corpus_growth} B)",
        8 * N
    );
}
