//! Pins what a steady-state source `drive` into a cross-PE edge takes from
//! the heap, on every line-source medium (file, TCP listener, chunked HTTP
//! body) and for a generator: nothing per row. A line source parses each
//! line into its own row buffers, a generator's closure writes into the
//! source's, and the row is emitted borrowed; the edge copies it into the
//! columns of a pooled frame. The edge holds one frame
//! (`with_channel_capacity` of one batch), so it cycles through at most
//! four — one queued, one being filled, one being read, one on its way
//! back — whose columns grow, by doubling, to the most rows any of them
//! held. What is left is that growth and the channel's block of message
//! slots every 31 frames: under one allocation per frame the consumer
//! received in the stretch. (Frames
//! are as large as the consumer's pace lets them be, so the count is of
//! frames, not of rows.) The line buffer, the reader's buffer and the HTTP
//! body's chunk-size line are the source's own and were sized during
//! warm-up. (Before rows travelled in frames, each row cost its `values`
//! vector and that vector's `Arc` box, twice that on a gap row.)
//!
//! The source runs in a PE of its own, wrapped so that its thread is
//! tracked from the first measured `drive` to the one that emits the last
//! measured row; a second PE takes the rows off the edge. Same
//! counting-allocator harness as `crates/engine/tests/backfill_alloc.rs`;
//! this file must contain exactly one `#[test]` (a sibling on another
//! thread would allocate concurrently and poison the counter).

mod feeds;

use feeds::{http_response, http_source, tcp_source, Framing};
use spca_alloc_count::{allocations, track, CountingAlloc};
use spca_streams::ops::{CollectSink, CsvFileSource, GeneratorSource};
use spca_streams::{
    lock, Engine, GraphBuilder, OpContext, Operator, PortKind, Rows, SourceState,
    DEFAULT_BATCH_SIZE,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const D: usize = 64;
const WARM_ROWS: usize = 50 * DEFAULT_BATCH_SIZE;
const MEASURED_ROWS: usize = 500 * DEFAULT_BATCH_SIZE;

/// A source whose thread is tracked while it emits the measured rows.
struct Measured {
    inner: Box<dyn Operator>,
    emitted: usize,
    /// Allocation count when the measured stretch began.
    before: Option<usize>,
    allocs: Arc<AtomicUsize>,
    /// Open while the measured rows are emitted.
    window: Arc<AtomicBool>,
}

/// The consumer: collects the rows, and counts the frames it is handed
/// while the source's measured stretch is open.
struct Collect {
    inner: CollectSink,
    window: Arc<AtomicBool>,
    frames: Arc<AtomicUsize>,
}

impl Operator for Collect {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        if self.window.load(Ordering::SeqCst) {
            self.frames.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.process_rows(rows, ctx);
    }
}

impl Operator for Measured {
    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if self.emitted == WARM_ROWS && self.before.is_none() {
            self.window.store(true, Ordering::SeqCst);
            track(true);
            self.before = Some(allocations());
        }
        let state = self.inner.drive(ctx);
        if state == SourceState::Emitted {
            self.emitted += 1;
            if self.emitted == WARM_ROWS + MEASURED_ROWS {
                let before = self.before.expect("tracking since the warm-up ended");
                self.allocs.store(allocations() - before, Ordering::SeqCst);
                track(false);
                self.window.store(false, Ordering::SeqCst);
            }
        }
        state
    }
}

#[test]
fn line_source_steady_state_into_a_frame_edge_allocates_nothing_per_row() {
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
    // crosses many chunk boundaries at every position in a line.
    let cuts = (1000..corpus.len()).step_by(1000).collect();
    let chunked = http_response(corpus.as_bytes(), &Framing::Chunked(cuts));
    let media: Vec<(&str, Box<dyn Operator>)> = vec![
        ("file", Box::new(CsvFileSource::new(&path))),
        ("tcp", Box::new(tcp_source(corpus.clone().into_bytes()))),
        ("http chunked", Box::new(http_source(chunked))),
        // Rows of the same shape, the gap where the corpus has `nan` and
        // read back as the parser reads it.
        (
            "generator",
            Box::new(
                GeneratorSource::new(|seq, values, mask| {
                    let r = seq as usize;
                    values.extend((0..D).map(|j| ((r * D + j) as f64 * 0.37).sin()));
                    if r % 3 == 2 {
                        let gap = 1 + r % (D - 1);
                        values[gap] = 0.0;
                        mask.extend((0..D).map(|j| j != gap));
                    }
                    true
                })
                .with_max_tuples((WARM_ROWS + MEASURED_ROWS) as u64),
            ),
        ),
    ];

    for (name, inner) in media {
        let allocs = Arc::new(AtomicUsize::new(usize::MAX));
        let (window, frames) = (Arc::default(), Arc::new(AtomicUsize::new(0)));
        let mut g = GraphBuilder::new().with_channel_capacity(DEFAULT_BATCH_SIZE);
        let src = g.add_source(
            "source",
            Box::new(Measured {
                inner,
                emitted: 0,
                before: None,
                allocs: Arc::clone(&allocs),
                window: Arc::clone(&window),
            }),
        );
        let (inner, rows) = CollectSink::new();
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                inner,
                window,
                frames: Arc::clone(&frames),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        Engine::run(g);

        let rows = lock(&rows);
        assert_eq!(rows.len(), WARM_ROWS + MEASURED_ROWS, "{name}");
        assert!(rows.iter().all(|t| t.values.len() == D));
        let measured = &rows[WARM_ROWS..];
        let gap_rows = measured.iter().filter(|t| t.mask.is_some()).count();
        assert_eq!(gap_rows, measured.iter().filter(|t| t.seq % 3 == 2).count());
        assert!(gap_rows > MEASURED_ROWS / 4);
        let (allocs, frames) = (allocs.load(Ordering::SeqCst), frames.load(Ordering::SeqCst));
        assert!(
            allocs < frames,
            "{name}: {allocs} allocations over {MEASURED_ROWS} rows in {frames} frames \
             ({gap_rows} gap rows): expected none per row, under one per frame"
        );
    }
    std::fs::remove_file(&path).ok();
}
