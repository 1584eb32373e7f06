//! Pins the frame hops past the source at zero allocations per row,
//! amortised over a frame:
//!
//! * the split → engine hop of an unfused pipeline: the split takes runs of
//!   rows off its input frames and copies each row into the frame of the
//!   consumer it picks, and each consumer takes runs off those;
//! * a socket link's receive side: `netio`'s connection thread decodes each
//!   `DATA` frame and copies its columns into a pooled frame for the
//!   consuming PE (`recv_frame` → channel). The test thread plays the
//!   sending process, writing frames encoded up front.
//!
//! The work is spread over threads the test does not spawn, so each stretch
//! counts every thread of the process (`track_all`), switched on and off by
//! the consuming operators once the pipeline is warm. Every edge holds one
//! frame (`with_channel_capacity` of one batch), so it cycles through at
//! most four, whose columns grow, by doubling, to the most rows any of them
//! held; with each channel's block of message slots every 31 frames, what
//! may remain is under one allocation per frame the consumers were handed
//! in the stretch (frames are as large as the consumers' pace lets them
//! be, so the count is of frames, not of rows). Same counting-allocator
//! harness as `source_alloc.rs`; this file must contain exactly one
//! `#[test]`.

use spca_alloc_count::{allocations, track_all, CountingAlloc};
use spca_streams::ops::{CsvFileSource, Split, SplitStrategy};
use spca_streams::{
    encode_frame, ActiveSet, DataTuple, Engine, GraphBuilder, NetPartition, NetTransport,
    OpContext, Operator, PortKind, Punctuation, Rows, Tuple, DEFAULT_BATCH_SIZE, WIRE_VERSION,
};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const D: usize = 64;
const BATCH: u64 = DEFAULT_BATCH_SIZE as u64;
const WARM: u64 = 50 * BATCH;
const MEASURED: u64 = 500 * BATCH;
/// Rows in a stream: the warm-up, the measured stretch and a tail longer
/// than the edges can queue, so no PE exits inside the measured stretch.
const ROWS: u64 = WARM + MEASURED + 40 * BATCH;

/// Rows seen by the consumers of one stretch, and the process's
/// allocations and the frames handed to a consumer while their total was
/// in the measured stretch.
#[derive(Default)]
struct Meter {
    rows: AtomicU64,
    seq_sum: AtomicU64,
    before: AtomicUsize,
    allocs: AtomicUsize,
    open: AtomicBool,
    frames: AtomicUsize,
}

impl Meter {
    fn saw(&self, n: u64, seq_sum: u64) {
        self.seq_sum.fetch_add(seq_sum, Ordering::SeqCst);
        let total = self.rows.fetch_add(n, Ordering::SeqCst) + n;
        let crossed = |mark| total - n < mark && total >= mark;
        if crossed(WARM) {
            self.open.store(true, Ordering::SeqCst);
            self.before.store(allocations(), Ordering::SeqCst);
            track_all(true);
        }
        if crossed(WARM + MEASURED) {
            track_all(false);
            self.open.store(false, Ordering::SeqCst);
            let before = self.before.load(Ordering::SeqCst);
            self.allocs.store(allocations() - before, Ordering::SeqCst);
        }
    }

    /// Counts a frame handed to a consumer, if in the measured stretch.
    fn frame(&self) {
        if self.open.load(Ordering::SeqCst) {
            self.frames.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Asserts every row arrived once and the measured stretch allocated
    /// under once per frame.
    fn check(&self, what: &str) {
        assert_eq!(self.rows.load(Ordering::SeqCst), ROWS, "{what}");
        assert_eq!(self.seq_sum.load(Ordering::SeqCst), ROWS * (ROWS - 1) / 2);
        let allocs = self.allocs.load(Ordering::SeqCst);
        let frames = self.frames.load(Ordering::SeqCst);
        assert!(
            allocs < frames,
            "{what}: {allocs} allocations over {MEASURED} rows in {frames} frames: \
             expected none per row, under one per frame"
        );
    }
}

/// The split, counting the frames it is handed.
struct CountedSplit(Split, Arc<Meter>);

impl Operator for CountedSplit {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        self.1.frame();
        self.0.process_rows(rows, ctx);
    }
}

/// A consumer that only counts what it is given.
struct Count(Arc<Meter>);

impl Operator for Count {
    fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
        self.0.frame();
        let (n, seq_sum) = rows.fold((0, 0), |(n, sum), row| (n + 1, sum + row.seq));
        self.0.saw(n, seq_sum);
    }
}

/// Row `r` of the streams: signed values, so every line has one length.
fn values(r: u64) -> Vec<f64> {
    (0..D)
        .map(|j| ((r as usize * D + j) as f64 * 0.37).sin())
        .collect()
}

/// source → split → two counting consumers, each in a PE of its own.
fn split_to_engines(meter: &Arc<Meter>) {
    let mut corpus = String::new();
    for r in 0..ROWS {
        for (j, v) in values(r).iter().enumerate() {
            if j > 0 {
                corpus.push(',');
            }
            write!(corpus, "{v:+.5}").unwrap();
        }
        corpus.push('\n');
    }
    let path = std::env::temp_dir().join(format!("spca_frame_alloc_{}.csv", std::process::id()));
    std::fs::write(&path, corpus).unwrap();

    let mut g = GraphBuilder::new().with_channel_capacity(DEFAULT_BATCH_SIZE);
    let src = g.add_source("source", Box::new(CsvFileSource::new(&path)));
    let split = Split::new(SplitStrategy::Random, ActiveSet::new(2, 2));
    let split = g.add_op("split", Box::new(CountedSplit(split, Arc::clone(meter))));
    g.connect(src, 0, split, PortKind::Data);
    for e in 0..2 {
        let engine = g.add_op(format!("engine-{e}"), Box::new(Count(Arc::clone(meter))));
        g.connect(split, e, engine, PortKind::Data);
    }
    Engine::run(g);
    std::fs::remove_file(&path).ok();
}

/// A socket link into a counting consumer, fed by hand over the wire
/// protocol (`netio`'s module documentation) with frames encoded up front.
fn wire_to_engine(meter: &Arc<Meter>) {
    struct Elsewhere;
    impl Operator for Elsewhere {}
    let net = NetTransport::bind("127.0.0.1:0").expect("bind");
    let mut g = GraphBuilder::new().with_channel_capacity(DEFAULT_BATCH_SIZE);
    let src = g.add_source("source", Box::new(Elsewhere));
    let engine = g.add_op("engine", Box::new(Count(Arc::clone(meter))));
    g.connect(src, 0, engine, PortKind::Data);
    let running = Engine::start_in_partition(
        g,
        NetPartition {
            local_ops: HashSet::from(["engine".to_string()]),
            net: Arc::clone(&net),
            peers: HashMap::new(),
            rehydrate: false,
        },
    );

    let frames: Vec<Vec<u8>> = (0..ROWS)
        .collect::<Vec<_>>()
        .chunks(BATCH as usize)
        .map(|seqs| {
            let mut tuples: Vec<Tuple> = seqs
                .iter()
                .map(|&r| Tuple::Data(DataTuple::new(r, values(r))))
                .collect();
            if seqs.last() == Some(&(ROWS - 1)) {
                tuples.push(Tuple::Punct(Punctuation::EndOfStream));
            }
            let mut bytes = Vec::new();
            encode_frame(&tuples, &mut bytes).unwrap();
            bytes
        })
        .collect();

    let mut s = TcpStream::connect(net.local_addr()).expect("connect");
    let mut hello = b"SPCH".to_vec();
    hello.push(WIRE_VERSION);
    hello.extend_from_slice(&0u64.to_le_bytes()); // link id: edge 0
    s.write_all(&hello).unwrap();
    let mut resume = [0u8; 12];
    s.read_exact(&mut resume).unwrap();
    assert_eq!(&resume[..4], b"SPCR");
    let mut start = 0u64;
    for bytes in &frames {
        s.write_all(b"SPCD").unwrap();
        s.write_all(&start.to_le_bytes()).unwrap();
        s.write_all(bytes).unwrap();
        start += (BATCH).min(ROWS - start);
    }
    s.write_all(b"SPCG").unwrap();
    running.join();
}

#[test]
fn split_to_engine_and_wire_to_engine_allocate_nothing_per_row() {
    let meter = Arc::new(Meter::default());
    split_to_engines(&meter);
    meter.check("split → engine");

    let meter = Arc::new(Meter::default());
    wire_to_engine(&meter);
    meter.check("wire → engine");
}
