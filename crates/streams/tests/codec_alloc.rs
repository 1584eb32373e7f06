//! Proves the frame codec's hot path is allocation-free in steady state:
//! once the caller-owned encode buffer and decode `Frame` have grown to
//! the working-set size, a stretch of encode → decode round trips performs
//! zero heap allocations on the codec thread.
//!
//! Reading the frame back as `Tuple`s (`Frame::tuples`) is deliberately
//! outside the measured stretch — it hands out `Arc`-owned vectors; the
//! socket link hands the decoded frame itself to the consuming PE.
//!
//! Same thread-filtered counting-allocator pattern as
//! `crates/engine/tests/serving_alloc.rs`; this file must contain exactly
//! one `#[test]` because the tracked flag is file-global state.

use spca_alloc_count::{allocations, track, CountingAlloc};
use spca_streams::{decode_frame, encode_frame, DataTuple, Frame, Tuple};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DIM: usize = 1000;
const BATCH: usize = 64;

#[test]
fn steady_state_encode_decode_does_not_allocate() {
    // Build the input batch up front (allocates freely: Arcs, vectors).
    // Every 7th tuple carries a gap mask so the presence-bitmap path is
    // exercised inside the measured stretch.
    let tuples: Vec<Tuple> = (0..BATCH)
        .map(|i| {
            let values: Vec<f64> = (0..DIM).map(|j| ((i * DIM + j) as f64).sin()).collect();
            let d = if i % 7 == 0 {
                let mask: Vec<bool> = (0..DIM).map(|j| (i + j) % 5 != 0).collect();
                DataTuple::masked(i as u64, values, mask)
            } else {
                DataTuple::new(i as u64, values)
            };
            Tuple::Data(d)
        })
        .collect();

    let mut buf = Vec::new();
    let mut frame = Frame::default();

    track(true);

    // Warm-up: grow `buf` and the frame's column vectors to working size.
    for _ in 0..8 {
        encode_frame(&tuples, &mut buf).unwrap();
        let consumed = decode_frame(&buf, &mut frame).unwrap();
        assert_eq!(consumed, buf.len());
    }

    // Measured stretch: every round trip must reuse the grown buffers.
    let before = allocations();
    for _ in 0..200 {
        encode_frame(&tuples, &mut buf).unwrap();
        let consumed = decode_frame(&buf, &mut frame).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(frame.len(), BATCH);
    }
    let allocs = allocations() - before;
    track(false);

    assert_eq!(
        allocs, 0,
        "codec allocated {allocs} times during steady-state encode/decode \
         of {BATCH}-tuple frames at d={DIM}"
    );
}
