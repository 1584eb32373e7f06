//! Pins what a steady-state line-source `drive` takes from the heap, on
//! every medium (file, TCP listener, chunked HTTP body): the tuple it emits
//! and nothing else. Per row that is the `values` vector and its `Arc` box,
//! presized from the previous row's width — no growth reallocation — plus
//! the `mask` vector and its box on rows that have a gap, and only on
//! those. The line buffer, the reader's buffer and the HTTP body's
//! chunk-size line are the source's own and were sized during warm-up.
//!
//! Same counting-allocator harness as `crates/engine/tests/backfill_alloc.rs`;
//! this file must contain exactly one `#[test]` (a sibling on another
//! thread would allocate concurrently and poison the counter).

mod feeds;

use feeds::{http_response, http_source, tcp_source, Framing};
use spca_alloc_count::{allocations, track, CountingAlloc};
use spca_streams::operator::testing::{with_sink, CaptureSink};
use spca_streams::ops::CsvFileSource;
use spca_streams::{Operator, SourceState};
use std::fmt::Write as _;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn line_source_steady_state_allocates_the_tuple_and_nothing_else() {
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
    std::fs::write(&path, &corpus).unwrap();
    // Chunks of a size unrelated to the rows', so the measured stretch
    // crosses a few hundred chunk boundaries at every position in a line.
    let cuts = (1000..corpus.len()).step_by(1000).collect();
    let chunked = http_response(corpus.as_bytes(), &Framing::Chunked(cuts));
    let media: Vec<(&str, Box<dyn Operator>)> = vec![
        ("file", Box::new(CsvFileSource::new(&path))),
        ("tcp", Box::new(tcp_source(corpus.clone().into_bytes()))),
        ("http chunked", Box::new(http_source(chunked))),
    ];

    for (name, mut src) in media {
        let mut sink = CaptureSink::new(1);
        sink.ports[0].reserve(WARM_ROWS + MEASURED_ROWS);
        let mut allocs = 0;
        with_sink(&mut sink, |ctx| {
            // A live feed may report `Idle` while its peer is still writing.
            let mut emit = |n: usize| {
                let mut got = 0;
                while got < n {
                    match src.drive(ctx) {
                        SourceState::Emitted => got += 1,
                        SourceState::Idle => assert_ne!(name, "file"),
                        SourceState::Done => panic!("{name}: ended early"),
                    }
                }
            };
            emit(WARM_ROWS);
            let before = allocations();
            emit(MEASURED_ROWS);
            allocs = allocations() - before;
            while src.drive(ctx) == SourceState::Idle {}
        });

        let rows = sink.data_at(0);
        assert_eq!(rows.len(), WARM_ROWS + MEASURED_ROWS, "{name}");
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
            "{name}: expected a vector and an Arc box per row, twice that on the {gap_rows} gap rows"
        );
    }
    std::fs::remove_file(&path).ok();
}
