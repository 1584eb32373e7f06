//! A socket link's heap does not grow with its stream.
//!
//! A source streams into a sink over two loopback [`NetTransport`]s, the
//! way a distributed run does: a channel capacity past the stream's length
//! (so only the hold and the window can bound anything), and a consumer
//! that checkpoints, so the sender may forget a frame only once the
//! consumer's checkpoint covering it is committed (stable acks). Both sides
//! live in this process, so the counting allocator sees both. A stream
//! eight times longer, of the same row shape, must reach the same heap
//! high-water mark to within one sender window and one frame of encoded
//! rows: the producer is held at its channel's hold, the sender at its
//! window, the receiver at its inbound bound. The consumer is slower than
//! the link, so each of the three is reached. A backlog anywhere grows with
//! the stream and fails here.
//!
//! This file must contain exactly one `#[test]`: the high-water mark is
//! per-process.

use spca_alloc_count::{live_bytes, peak_bytes, reset_peak, CountingAlloc};
use spca_streams::netio::send_window;
use spca_streams::{
    encode_frame, DataTuple, Engine, GraphBuilder, NetPartition, NetTransport, OpContext, Operator,
    PortKind, Rows, SourceState, Tuple,
};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const D: usize = 32;
const BATCH: usize = 64;

/// `rows` rows of `D` values, as fast as the link takes them.
struct Rows32 {
    next: u64,
    rows: u64,
    values: Vec<f64>,
}

impl Operator for Rows32 {
    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if self.next == self.rows {
            return SourceState::Done;
        }
        for (j, v) in self.values.iter_mut().enumerate() {
            *v = ((self.next as usize * D + j) as f64 * 0.618).sin();
        }
        let t = DataTuple::new(self.next, self.values.clone());
        ctx.emit_row(0, t.row());
        self.next += 1;
        SourceState::Emitted
    }
}

/// Counts the rows it is handed and checks they come in order; keeps none.
/// It takes a millisecond per frame, so the source outruns it: without the
/// sender's window, the sender would keep shipping into the kernel's
/// loopback buffers and its retransmit queue would grow with the stream.
struct Count(Arc<AtomicU64>);

impl Operator for Count {
    fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
        for row in rows {
            let seen = self.0.fetch_add(1, Ordering::SeqCst);
            assert_eq!(row.seq, seen, "rows out of order");
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Heap bytes a `rows`-row stream held at its peak, above what was live
/// before it started.
fn link_peak(dir: &Path, rows: u64) -> usize {
    let seen = Arc::new(AtomicU64::new(0));
    let build = || {
        let mut g = GraphBuilder::new()
            .with_batch_size(BATCH)
            .with_channel_capacity(1 << 20);
        let src = g.add_source(
            "src",
            Box::new(Rows32 {
                next: 0,
                rows,
                values: vec![0.0; D],
            }),
        );
        let sink = g.add_op("sink", Box::new(Count(Arc::clone(&seen))));
        g.connect(src, 0, sink, PortKind::Data);
        g
    };
    let base = live_bytes();
    reset_peak();
    let net_a = NetTransport::bind("127.0.0.1:0").expect("bind a");
    let net_b = NetTransport::bind("127.0.0.1:0").expect("bind b");
    let consumer = NetPartition {
        local_ops: HashSet::from(["sink".to_string()]),
        net: Arc::clone(&net_b),
        peers: HashMap::new(),
        rehydrate: false,
    };
    let producer = NetPartition {
        local_ops: HashSet::from(["src".to_string()]),
        net: Arc::clone(&net_a),
        peers: HashMap::from([(0, net_b.local_addr())]),
        rehydrate: false,
    };
    let run_b = Engine::start_in_partition(
        build().with_checkpoint_dir(dir.join(format!("pe-{rows}"))),
        consumer,
    );
    let run_a = Engine::start_in_partition(build(), producer);
    run_a.join();
    run_b.join();
    drop((net_a, net_b));
    let peak = peak_bytes() - base;
    assert_eq!(seen.load(Ordering::SeqCst), rows);
    peak
}

#[test]
fn a_socket_links_heap_does_not_grow_with_the_stream() {
    const N: u64 = 6_000;
    let dir = std::env::temp_dir().join(format!("spca_net_memory_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let small = link_peak(&dir, N);
    let large = link_peak(&dir, 8 * N);
    std::fs::remove_dir_all(&dir).ok();

    let frame: Vec<Tuple> = (0..BATCH as u64)
        .map(|i| Tuple::Data(DataTuple::new(i, vec![0.5; D])))
        .collect();
    let mut encoded = Vec::new();
    encode_frame(&frame, &mut encoded).unwrap();
    let window = send_window(BATCH) as usize;
    let bound = (window / BATCH + 1) * encoded.len();
    assert!(
        large.abs_diff(small) < bound,
        "heap high-water {small} B at {N} rows, {large} B at {} rows: the difference is \
         not under one window and one frame ({window} + {BATCH} rows, {bound} B encoded)",
        8 * N
    );
}
