//! Pins what a steady-state `CsvFileSource::drive` takes from the heap:
//! the tuple it emits and nothing else. Per row that is the `values`
//! vector and its `Arc` box, presized from the previous row's width — no
//! growth reallocation — plus the `mask` vector and its box on rows that
//! have a gap, and only on those. The line buffer and the reader's buffer
//! are the source's own and were sized during warm-up.
//!
//! Same counting-allocator harness as `crates/engine/tests/backfill_alloc.rs`;
//! this file must contain exactly one `#[test]` (a sibling on another
//! thread would allocate concurrently and poison the counter).

use spca_alloc_count::{allocations, track, CountingAlloc};
use spca_streams::operator::testing::{with_sink, CaptureSink};
use spca_streams::ops::CsvFileSource;
use spca_streams::{Operator, SourceState};
use std::fmt::Write as _;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn csv_source_steady_state_allocates_the_tuple_and_nothing_else() {
    const D: usize = 300;
    const WARM_ROWS: usize = 20;
    const MEASURED_ROWS: usize = 200;
    track(true);

    // Every third row has a gap, somewhere past the first field; a comment
    // and a blank line sit inside the measured stretch. Values are signed
    // so that every line is as long as the longest one in the warm-up and
    // the source's own line buffer has no reason to grow later.
    let mut corpus = String::from("# flux\n");
    for r in 0..WARM_ROWS + MEASURED_ROWS {
        for j in 0..D {
            if j > 0 {
                corpus.push(',');
            }
            if r % 3 == 2 && j == 1 + r % (D - 1) {
                corpus.push_str("nan");
            } else {
                write!(corpus, "{:+.5}", ((r * D + j) as f64 * 0.37).sin()).unwrap();
            }
        }
        corpus.push_str(if r % 2 == 0 { "\n" } else { "\r\n" });
        if r == WARM_ROWS + 5 {
            corpus.push_str("\n# a comment mid-stream\n");
        }
    }
    let path = std::env::temp_dir().join(format!("spca_source_alloc_{}.csv", std::process::id()));
    std::fs::write(&path, corpus).unwrap();

    let mut src = CsvFileSource::new(&path);
    let mut sink = CaptureSink::new(1);
    sink.ports[0].reserve(WARM_ROWS + MEASURED_ROWS);
    let mut allocs = 0;
    with_sink(&mut sink, |ctx| {
        for _ in 0..WARM_ROWS {
            assert_eq!(src.drive(ctx), SourceState::Emitted);
        }
        let before = allocations();
        for _ in 0..MEASURED_ROWS {
            assert_eq!(src.drive(ctx), SourceState::Emitted);
        }
        allocs = allocations() - before;
        assert_eq!(src.drive(ctx), SourceState::Done);
    });
    std::fs::remove_file(&path).ok();

    let rows = sink.data_at(0);
    assert!(rows.iter().all(|t| t.values.len() == D));
    let gap_rows = rows[WARM_ROWS..]
        .iter()
        .filter(|t| t.mask.is_some())
        .count();
    assert_eq!(
        gap_rows,
        rows[WARM_ROWS..].iter().filter(|t| t.seq % 3 == 2).count()
    );
    assert!(gap_rows > MEASURED_ROWS / 4);
    assert_eq!(
        allocs,
        2 * MEASURED_ROWS + 2 * gap_rows,
        "expected a vector and an Arc box per row, twice that on the {gap_rows} gap rows"
    );
}
