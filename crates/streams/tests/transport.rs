//! Transport-semantics tests for the batched cross-PE frame transport:
//! loss-free and order-preserving delivery, exact per-consumer counts,
//! batch-invariant link metrics, and immediate control-tuple flushing.

use spca_streams::ops::{Split, SplitStrategy};
use spca_streams::{
    lock, ActiveSet, ControlTuple, DataTuple, Engine, GraphBuilder, OpContext, Operator, PortKind,
    Rows, SourceState,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

struct CountSource {
    n: u64,
    next: u64,
}

impl Operator for CountSource {
    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if self.next >= self.n {
            return SourceState::Done;
        }
        ctx.emit_row(0, DataTuple::new(self.next, vec![self.next as f64]).row());
        self.next += 1;
        SourceState::Emitted
    }
}

struct Collect {
    seen: Arc<Mutex<Vec<u64>>>,
}

impl Operator for Collect {
    fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
        for row in rows {
            lock(&self.seen).push(row.seq);
        }
    }
}

struct Relay;

impl Operator for Relay {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            ctx.emit_row(0, row);
        }
    }
}

/// Runs `src → relay → sink` unfused and returns (delivered seqs, link
/// tuple counts, link byte counts).
fn run_pipeline(n: u64, batch: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut g = GraphBuilder::new().with_batch_size(batch);
    let src = g.add_source("src", Box::new(CountSource { n, next: 0 }));
    let relay = g.add_op("relay", Box::new(Relay));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = g.add_op(
        "sink",
        Box::new(Collect {
            seen: Arc::clone(&seen),
        }),
    );
    g.connect(src, 0, relay, PortKind::Data);
    g.connect(relay, 0, sink, PortKind::Data);
    let report = Engine::run(g);
    let tuples = report.links.iter().map(|l| l.tuples()).collect();
    let bytes = report.links.iter().map(|l| l.bytes()).collect();
    let delivered = lock(&seen).clone();
    (delivered, tuples, bytes)
}

#[test]
fn delivery_is_loss_free_and_ordered_at_every_batch_size() {
    for batch in [1, 8, 64] {
        let (seen, _, _) = run_pipeline(1000, batch);
        assert_eq!(seen.len(), 1000, "batch {batch}: lost tuples");
        assert!(
            seen.windows(2).all(|w| w[1] == w[0] + 1),
            "batch {batch}: order violated"
        );
    }
}

#[test]
fn link_metrics_are_batch_invariant() {
    // Frames must account per-tuple counts/bytes: the LinkReport of a
    // batched run is identical to the per-tuple (batch = 1) run.
    let (_, tuples_1, bytes_1) = run_pipeline(500, 1);
    for batch in [8, 64] {
        let (_, tuples_b, bytes_b) = run_pipeline(500, batch);
        assert_eq!(tuples_1, tuples_b, "tuple accounting differs at {batch}");
        assert_eq!(bytes_1, bytes_b, "byte accounting differs at {batch}");
    }
    // 500 data tuples + 1 EOS per link.
    assert_eq!(tuples_1, vec![501, 501]);
}

/// `src → split(RoundRobin) → n sinks`, capacity ample so the split never
/// sheds: every consumer must receive exactly `n_tuples / n` tuples, at
/// every batch size.
#[test]
fn round_robin_counts_are_exact_across_batch_sizes() {
    const N: u64 = 1200;
    const BRANCHES: usize = 4;
    for batch in [1, 8, 64] {
        let mut g = GraphBuilder::new()
            .with_batch_size(batch)
            .with_channel_capacity(N as usize);
        let src = g.add_source("src", Box::new(CountSource { n: N, next: 0 }));
        let split = g.add_op(
            "split",
            Box::new(Split::new(
                SplitStrategy::RoundRobin,
                ActiveSet::new(BRANCHES, BRANCHES),
            )),
        );
        g.connect(src, 0, split, PortKind::Data);
        let mut stores = Vec::new();
        for b in 0..BRANCHES {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let c = g.add_op(
                format!("pca-{b}"),
                Box::new(Collect {
                    seen: Arc::clone(&seen),
                }),
            );
            g.connect(split, b, c, PortKind::Data);
            stores.push(seen);
        }
        let report = Engine::run(g);
        for (b, store) in stores.iter().enumerate() {
            let snap = report.op(&format!("pca-{b}")).unwrap();
            assert_eq!(
                snap.tuples_in,
                N / BRANCHES as u64,
                "batch {batch}: pca-{b} count off"
            );
            // Per-consumer order: round-robin hands consumer b the seqs
            // b, b+4, b+8, ... in that order.
            let seen = lock(store).clone();
            assert!(
                seen.windows(2).all(|w| w[1] == w[0] + BRANCHES as u64),
                "batch {batch}: pca-{b} order violated"
            );
        }
        assert_eq!(report.tuples_in_matching("pca-"), N);
    }
}

/// The delivered multiset is identical whatever the batch size, for every
/// split strategy (Random may shed differently per run, but with ample
/// capacity nothing is ever dropped).
#[test]
fn delivered_multiset_is_batch_invariant() {
    const N: u64 = 600;
    for strategy in [SplitStrategy::Random, SplitStrategy::RoundRobin] {
        let mut reference: Option<Vec<u64>> = None;
        for batch in [1, 8, 64] {
            let mut g = GraphBuilder::new()
                .with_batch_size(batch)
                .with_channel_capacity(N as usize);
            let src = g.add_source("src", Box::new(CountSource { n: N, next: 0 }));
            let split = g.add_op(
                "split",
                Box::new(Split::new(strategy, ActiveSet::new(3, 3))),
            );
            g.connect(src, 0, split, PortKind::Data);
            let mut stores = Vec::new();
            for b in 0..3 {
                let seen = Arc::new(Mutex::new(Vec::new()));
                let c = g.add_op(
                    format!("sink{b}"),
                    Box::new(Collect {
                        seen: Arc::clone(&seen),
                    }),
                );
                g.connect(split, b, c, PortKind::Data);
                stores.push(seen);
            }
            Engine::run(g);
            let mut union: Vec<u64> = stores.iter().flat_map(|s| lock(s).clone()).collect();
            union.sort_unstable();
            match &reference {
                None => reference = Some(union),
                Some(r) => assert_eq!(
                    &union, r,
                    "{strategy:?}: delivered multiset differs at batch {batch}"
                ),
            }
        }
        assert_eq!(
            reference.unwrap(),
            (0..N).collect::<Vec<_>>(),
            "{strategy:?}: loss or duplication"
        );
    }
}

/// A control tuple emitted behind buffered data must flush immediately and
/// arrive in FIFO position — never stranded behind a pending data batch.
///
/// The source emits `N_DATA` data tuples and one control tuple, then idles
/// until the consumer acknowledges the control tuple. If control flushing
/// were broken the acknowledgement would never come and the run would hang
/// (the test harness timeout catches that); if control overtook data, the
/// consumer would see fewer than `N_DATA` data tuples first.
#[test]
fn control_tuple_is_not_stranded_behind_data_batch() {
    const N_DATA: u64 = 10;

    struct ScriptedSource {
        emitted: bool,
        ack: Arc<AtomicBool>,
    }
    impl Operator for ScriptedSource {
        fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
            if !self.emitted {
                self.emitted = true;
                for seq in 0..N_DATA {
                    ctx.emit_row(0, DataTuple::new(seq, vec![seq as f64]).row());
                }
                ctx.emit_control(0, ControlTuple::signal(7, 0));
                return SourceState::Emitted;
            }
            if self.ack.load(Ordering::SeqCst) {
                SourceState::Done
            } else {
                SourceState::Idle
            }
        }
    }

    struct AckingSink {
        n_data: Arc<Mutex<Vec<u64>>>,
        data_seen_at_control: Arc<Mutex<Option<usize>>>,
        ack: Arc<AtomicBool>,
    }
    impl Operator for AckingSink {
        fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
            for row in rows {
                lock(&self.n_data).push(row.seq);
            }
        }
        fn on_control(&mut self, c: ControlTuple, _ctx: &mut OpContext<'_>) {
            assert_eq!(c.kind, 7);
            *lock(&self.data_seen_at_control) = Some(lock(&self.n_data).len());
            self.ack.store(true, Ordering::SeqCst);
        }
    }

    // Batch far larger than the data burst: without the urgent-flush rule
    // everything would sit in the sender buffer until end-of-stream — and
    // end-of-stream never comes, because the source waits for the ack.
    let ack = Arc::new(AtomicBool::new(false));
    let n_data = Arc::new(Mutex::new(Vec::new()));
    let at_control = Arc::new(Mutex::new(None));
    let mut g = GraphBuilder::new().with_batch_size(1024);
    let src = g.add_source(
        "src",
        Box::new(ScriptedSource {
            emitted: false,
            ack: Arc::clone(&ack),
        }),
    );
    let sink = g.add_op(
        "sink",
        Box::new(AckingSink {
            n_data: Arc::clone(&n_data),
            data_seen_at_control: Arc::clone(&at_control),
            ack: Arc::clone(&ack),
        }),
    );
    g.connect(src, 0, sink, PortKind::Data);
    Engine::run(g);
    assert_eq!(lock(&n_data).len() as u64, N_DATA);
    assert_eq!(
        *lock(&at_control),
        Some(N_DATA as usize),
        "control tuple was reordered relative to the data ahead of it"
    );
}

/// End-of-stream flushes buffered data ahead of itself: nothing is lost
/// when a stream shorter than the batch size terminates.
#[test]
fn eos_flushes_partial_batch() {
    let (seen, tuples, _) = run_pipeline(5, 64);
    assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    // 5 data + EOS on each link.
    assert_eq!(tuples, vec![6, 6]);
}

/// A live source that goes idle has its buffered rows flushed downstream
/// while it keeps running (no EOS, no control tuple, a batch far from full):
/// the consumer's acknowledgement is what lets the source finish. A source
/// still waiting after 10 s gives up, and the test fails instead of hanging.
#[test]
fn a_live_idle_sources_buffered_rows_reach_the_consumer() {
    struct IdlingSource {
        sent: Option<std::time::Instant>,
        done: Arc<AtomicBool>,
        gave_up: Arc<AtomicBool>,
    }
    impl Operator for IdlingSource {
        fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
            let Some(sent) = self.sent else {
                self.sent = Some(std::time::Instant::now());
                for seq in 0..3 {
                    ctx.emit_row(0, DataTuple::new(seq, vec![]).row());
                }
                return SourceState::Emitted;
            };
            if self.done.load(Ordering::SeqCst) {
                SourceState::Done
            } else if sent.elapsed() > std::time::Duration::from_secs(10) {
                self.gave_up.store(true, Ordering::SeqCst);
                SourceState::Done
            } else {
                SourceState::Idle
            }
        }
    }
    struct AckSink {
        got: Arc<Mutex<Vec<u64>>>,
        done: Arc<AtomicBool>,
    }
    impl Operator for AckSink {
        fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
            for row in rows {
                let mut got = lock(&self.got);
                got.push(row.seq);
                if got.len() == 3 {
                    self.done.store(true, Ordering::SeqCst);
                }
            }
        }
    }
    let done = Arc::new(AtomicBool::new(false));
    let gave_up = Arc::new(AtomicBool::new(false));
    let got = Arc::new(Mutex::new(Vec::new()));
    let mut g = GraphBuilder::new().with_batch_size(1024);
    let src = g.add_source(
        "src",
        Box::new(IdlingSource {
            sent: None,
            done: Arc::clone(&done),
            gave_up: Arc::clone(&gave_up),
        }),
    );
    let sink = g.add_op(
        "sink",
        Box::new(AckSink {
            got: Arc::clone(&got),
            done: Arc::clone(&done),
        }),
    );
    g.connect(src, 0, sink, PortKind::Data);
    Engine::run(g);
    // Finishing flushes the rows too, so a source that gave up would still
    // have delivered them.
    assert!(
        !gave_up.load(Ordering::SeqCst),
        "the rows reached the consumer only with end-of-stream"
    );
    assert_eq!(lock(&got).clone(), vec![0, 1, 2]);
}

/// Control tuples keep FIFO position relative to data under heavy batched
/// traffic interleaving data and control on the same edge.
#[test]
fn interleaved_control_keeps_fifo_position() {
    struct Interleaved {
        next: u64,
    }
    impl Operator for Interleaved {
        fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
            if self.next >= 300 {
                return SourceState::Done;
            }
            ctx.emit_row(0, DataTuple::new(self.next, vec![]).row());
            if self.next % 50 == 49 {
                // Control tuple carrying the number of data tuples before it.
                ctx.emit_control(0, ControlTuple::signal(9, (self.next + 1) as u32));
            }
            self.next += 1;
            SourceState::Emitted
        }
    }
    #[derive(Default)]
    struct Watcher {
        n_data: u64,
        checked: Arc<Mutex<Vec<(u32, u64)>>>,
    }
    impl Operator for Watcher {
        fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
            for _ in rows {
                self.n_data += 1;
            }
        }
        fn on_control(&mut self, c: ControlTuple, _ctx: &mut OpContext<'_>) {
            lock(&self.checked).push((c.sender, self.n_data));
        }
    }
    for batch in [1, 8, 64] {
        let checked = Arc::new(Mutex::new(Vec::new()));
        let mut g = GraphBuilder::new().with_batch_size(batch);
        let src = g.add_source("src", Box::new(Interleaved { next: 0 }));
        let sink = g.add_op(
            "sink",
            Box::new(Watcher {
                n_data: 0,
                checked: Arc::clone(&checked),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        Engine::run(g);
        let got = lock(&checked).clone();
        assert_eq!(got.len(), 6, "batch {batch}");
        for (announced, seen) in got {
            assert_eq!(
                announced as u64, seen,
                "batch {batch}: control tuple out of FIFO position"
            );
        }
    }
}

/// Two PEs with no source trade one control tuple back and forth, so every
/// hop ends a wait. A wake-up lost between a PE's last empty sweep and its
/// wait costs up to that wait's 20 ms bound on every hop: seconds for the
/// whole exchange, where waits that end on the frame take well under one.
#[test]
fn ping_pong_between_waiting_pes_loses_no_wake_up() {
    const TRIPS: u64 = 500;

    /// Starts the exchange, then stays alive (in its own PE) until it ends.
    struct Kick {
        started: bool,
        done: Arc<AtomicBool>,
    }
    impl Operator for Kick {
        fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
            if !self.started {
                self.started = true;
                ctx.emit_row(0, DataTuple::new(0, vec![]).row());
                return SourceState::Emitted;
            }
            if self.done.load(Ordering::SeqCst) {
                SourceState::Done
            } else {
                SourceState::Idle
            }
        }
    }

    struct Ping {
        trips: u64,
        done: Arc<AtomicBool>,
    }
    impl Operator for Ping {
        fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
            for _ in rows {
                ctx.emit_control(0, ControlTuple::signal(1, 0));
            }
        }
        fn on_control(&mut self, c: ControlTuple, ctx: &mut OpContext<'_>) {
            self.trips += 1;
            if self.trips < TRIPS {
                ctx.emit_control(0, c);
            } else {
                self.done.store(true, Ordering::SeqCst);
            }
        }
    }

    struct Pong;
    impl Operator for Pong {
        fn on_control(&mut self, c: ControlTuple, ctx: &mut OpContext<'_>) {
            ctx.emit_control(0, c);
        }
    }

    let done = Arc::new(AtomicBool::new(false));
    let mut g = GraphBuilder::new();
    let kick = g.add_source(
        "kick",
        Box::new(Kick {
            started: false,
            done: Arc::clone(&done),
        }),
    );
    let ping = g.add_op(
        "ping",
        Box::new(Ping {
            trips: 0,
            done: Arc::clone(&done),
        }),
    );
    let pong = g.add_op("pong", Box::new(Pong));
    g.connect(kick, 0, ping, PortKind::Data);
    g.connect(ping, 0, pong, PortKind::Control);
    g.connect(pong, 0, ping, PortKind::Control);

    let started = std::time::Instant::now();
    let report = Engine::run(g);
    let took = started.elapsed();
    assert_eq!(report.op("ping").unwrap().control_in, TRIPS);
    assert_eq!(report.op("pong").unwrap().control_in, TRIPS);
    assert!(
        took < std::time::Duration::from_secs(2),
        "{TRIPS} round trips took {took:?}"
    );
}
