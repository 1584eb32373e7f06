//! Frame routing: how an entry reaches an operator.
//!
//! Cross-PE channels carry [`Frame`]s — pooled batches in columnar layout —
//! so one channel wake-up amortizes over up to
//! `GraphBuilder::with_batch_size` entries, and a row is copied into its
//! frame's columns once and never allocated. Each edge flushes adaptively
//! (threshold reached, downstream idle, scheduler about to block) and
//! *immediately* for control tuples and punctuation, so synchronization
//! latency is never batched away; see [`RemoteEdge`] for the exact policy.
//! The consuming PE hands each run of a frame's rows — off a channel or
//! off its local frame — to its operator's
//! [`process_rows`](crate::operator::Operator::process_rows) in one call, the one way a row enters an operator. Delivery order per edge
//! is unchanged from per-tuple transport (frames preserve FIFO), and link
//! metrics stay tuple-denominated.

use super::sched::{OpSlot, PeCore};
use super::supervise::{call, fire_faults, Call, PeKill};
use crate::graph::PortKind;
use crate::metrics::LinkCounters;
use crate::netio::LinkIn;
use crate::operator::EmitSink;
use crate::tuple::{ControlTuple, Frame, FrameRx, FrameTx, RowRef, TAG_CTRL, TAG_DATA};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::TryRecvError;
use std::sync::Arc;

/// Entries routed per live channel in one sweep of the scheduler loop.
/// Bounded so one hot channel cannot starve its siblings or a co-resident
/// source.
pub(super) const SWEEP_TUPLES: usize = 256;

/// Sender-side state of one cross-PE edge: entries accumulate in the
/// columns of `buf` and travel as one [`Frame`] per channel message.
///
/// A frame leaves when it reaches the configured batch size, or when the
/// entry is control/punctuation — sync signals and end-of-stream must never
/// wait behind a partial data batch (§III-C latency). The PE scheduler
/// also flushes every edge whenever it is about to idle or block, so no
/// entry is ever stranded in a frame.
pub(super) struct RemoteEdge {
    pub(super) tx: FrameTx,
    pub(super) counters: Arc<LinkCounters>,
    /// Flush threshold (entries per frame); 1 = legacy per-tuple transport.
    pub(super) batch: usize,
    pub(super) buf: Frame,
}

impl RemoteEdge {
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let frame = std::mem::replace(&mut self.buf, self.tx.buffer());
        let (n, bytes) = (frame.len() as u64, frame.wire_bytes());
        // Per-tuple accounting is preserved inside frames so LinkReport is
        // batch-invariant. A failed send means the consumer already
        // finished; the frame is intentionally dropped.
        if self.tx.send(frame) {
            self.counters.add_many(n, bytes);
        }
    }
}

/// Where an emission goes.
pub(super) enum Target {
    /// Same-PE operator: queued in the PE's local frame.
    Local { op: usize, port: PortKind },
    /// Cross-PE edge with frame batching.
    Remote(Box<RemoteEdge>),
}

/// A frame being routed, and where in it: the next entry, data row and
/// control tuple. Routing a frame through a cursor instead of wholesale
/// lets the scheduler interleave channels — a run of rows or one other
/// entry at a time — while still paying channel synchronization only once
/// per frame.
#[derive(Default)]
pub(super) struct Cursor {
    pub(super) frame: Frame,
    at: usize,
    /// A run of rows handed to `process_rows` advances this as the
    /// operator takes each one, so after a panic it tells the PE which row
    /// was in flight.
    pub(super) row: Cell<usize>,
    ctrl: usize,
}

impl Cursor {
    pub(super) fn is_spent(&self) -> bool {
        self.at >= self.frame.len()
    }

    /// Points the cursor at the start of `frame`; returns the old one.
    pub(super) fn reset(&mut self, frame: Frame) -> Frame {
        (self.at, self.ctrl) = (0, 0);
        self.row.set(0);
        std::mem::replace(&mut self.frame, frame)
    }

    /// The data rows from the cursor on, up to the next other entry and
    /// at most `max`.
    fn run_len(&self, max: usize) -> usize {
        self.frame.tags[self.at..]
            .iter()
            .take(max)
            .take_while(|&&tag| tag == TAG_DATA)
            .count()
    }

    /// Moves the cursor past the `n` data rows from row `first` on.
    fn consumed(&mut self, first: usize, n: usize) {
        self.at += n;
        self.row.set(first + n);
    }

    /// Takes the control tuple or end-of-stream at the cursor.
    fn take_other(&mut self) -> Option<ControlTuple> {
        self.at += 1;
        (self.frame.tags[self.at - 1] == TAG_CTRL).then(|| {
            self.ctrl += 1;
            self.frame.ctrls[self.ctrl - 1].clone()
        })
    }
}

/// Receive side of one cross-PE edge: its channel and where it leads.
pub(super) struct ChanMeta {
    pub(super) rx: FrameRx,
    pub(super) to_local: usize,
    pub(super) port: PortKind,
    /// Until end-of-stream arrives or the channel closes.
    pub(super) alive: bool,
    /// The current frame, recycled to the producer once spent.
    pub(super) cur: Cursor,
    /// Entries routed off this channel so far. For socket-backed channels
    /// this is the durable consumption watermark persisted as a
    /// `__netlink{id}` pseudo-part in the PE manifest.
    pub(super) routed: u64,
    /// The control tuples and punctuation among `routed`. No member's
    /// `tuples_in` counts them, so on a socket-backed channel they advance
    /// the checkpoint cadence themselves (see `durability`).
    pub(super) routed_other: u64,
    /// Socket-link bookkeeping when this channel's upstream runs in another
    /// process; `None` for ordinary in-process channels.
    pub(super) net: Option<NetIn>,
}

/// The `NetTransport` side of one socket-backed incoming channel.
pub(super) struct NetIn {
    /// Global edge index — the wire link id and the `__netlink{id}` key.
    pub(super) link_id: u64,
    /// The link's watermarks: preset from the manifest on rehydrate,
    /// advanced (which acknowledges to the sender) when a checkpoint that
    /// covers the routed entries commits.
    pub(super) link: Arc<LinkIn>,
}

impl ChanMeta {
    /// Points the cursor at an entry, taking the next frame off the
    /// channel once the current one is spent; `Disconnected` once the
    /// channel closed with the cursor spent.
    fn refill(&mut self) -> Result<(), TryRecvError> {
        if !self.cur.is_spent() {
            return Ok(());
        }
        let frame = self.rx.try_recv()?;
        self.rx.recycle(self.cur.reset(frame));
        // An empty frame (defensively) reads as nothing queued.
        if self.cur.is_spent() {
            return Err(TryRecvError::Empty);
        }
        Ok(())
    }
}

/// Entries emitted onto a PE's local edges, in emission order: the rows
/// copied into a frame, and each entry's consumer.
#[derive(Default)]
pub(super) struct LocalFrame {
    frame: Frame,
    to: Vec<(usize, PortKind)>,
}

/// What a PE routes rows from: its channels, and the local frame being
/// drained — in emission order, as a FIFO queue would: what is emitted
/// meanwhile goes to [`PeCore::queued`], which takes its place once it is
/// spent.
pub(super) struct Inbox {
    pub(super) metas: Vec<ChanMeta>,
    pub(super) local: Cursor,
    /// The consumer of each entry of `local`.
    pub(super) local_to: Vec<(usize, PortKind)>,
}

/// Where a cursor lives: channel `ci`, or the local frame.
#[derive(Clone, Copy)]
pub(super) enum Src {
    Chan(usize),
    Local,
}

/// Row `r` of `src`'s frame.
pub(super) type RowAt = (Src, usize);

impl Inbox {
    pub(super) fn cursor(&mut self, src: Src) -> &mut Cursor {
        match src {
            Src::Chan(ci) => &mut self.metas[ci].cur,
            Src::Local => &mut self.local,
        }
    }

    /// Moves `src`'s cursor past the `n` data rows from row `first` on.
    pub(super) fn consumed(&mut self, src: Src, first: usize, n: usize) {
        self.cursor(src).consumed(first, n);
        if let Src::Chan(ci) = src {
            self.metas[ci].routed += n as u64;
        }
    }
}

/// The per-PE sink: copies emissions into the PE's local frame or into
/// per-edge frame buffers (flushed adaptively; see [`RemoteEdge`]).
pub(super) struct PeSink<'a> {
    pub(super) out_ports: &'a mut [Vec<Target>],
    pub(super) queued: &'a mut LocalFrame,
    pub(super) stop: &'a AtomicBool,
}

impl PeSink<'_> {
    /// Appends one entry, by `push`, for every target of `port`: to the
    /// PE's local frame, or to a cross-PE edge's frame, which leaves at once
    /// when the entry is `urgent` (control tuples and punctuation) and
    /// otherwise at the batch size. An unwired port silently drops —
    /// mirrors InfoSphere streams with no subscribers — and so does a port
    /// past the highest wired one, which has no entry at all.
    fn fan_out(&mut self, port: usize, urgent: bool, mut push: impl FnMut(&mut Frame)) {
        let Some(targets) = self.out_ports.get_mut(port) else {
            return;
        };
        for target in targets.iter_mut() {
            match target {
                Target::Local { op, port } => {
                    push(&mut self.queued.frame);
                    self.queued.to.push((*op, *port));
                }
                Target::Remote(e) => {
                    push(&mut e.buf);
                    if urgent || e.buf.len() >= e.batch {
                        e.flush();
                    }
                }
            }
        }
    }
}

impl EmitSink for PeSink<'_> {
    fn emit_row(&mut self, port: usize, row: RowRef<'_>) {
        self.fan_out(port, false, |f| f.push_row(row));
    }

    fn emit_control(&mut self, port: usize, c: ControlTuple) {
        self.fan_out(port, true, |f| f.push_control(c.clone()));
    }

    fn try_emit_row(&mut self, port: usize, row: RowRef<'_>) -> bool {
        if self.out_ports.get(port).is_some_and(|t| would_block(t)) {
            return false;
        }
        self.emit_row(port, row);
        true
    }

    fn n_ports(&self) -> usize {
        self.out_ports.len()
    }

    fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// The all-or-nothing check behind the non-blocking emit: true when a row
/// sent to `targets` would wait. Local targets never do; a cross-PE edge
/// does when its channel is full and the row would fill its frame.
fn would_block(targets: &[Target]) -> bool {
    targets.iter().any(|target| match target {
        Target::Remote(e) => e.tx.is_full() && e.buf.len() + 1 >= e.batch,
        Target::Local { .. } => false,
    })
}

/// Flushes every buffered cross-PE edge of every operator on this PE.
/// Called whenever the scheduler is about to idle or block, so buffered
/// tuples are never stranded behind a sleeping PE.
pub(super) fn flush_all(slots: &mut [OpSlot]) {
    for target in slots
        .iter_mut()
        .flat_map(|s| s.out_ports.iter_mut().flatten())
    {
        if let Target::Remote(e) = target {
            e.flush();
        }
    }
}

/// End-of-stream on every out port of `idx` (local + remote), then the
/// channel senders are released so downstream PEs observe closure even if
/// they already stopped selecting the edge. Punctuation is urgent, so each
/// edge flushes any buffered data tuples ahead of its EOS.
pub(super) fn punctuate(pe: &mut PeCore, idx: usize) {
    let mut sink = PeSink {
        out_ports: &mut pe.slots[idx].out_ports,
        queued: &mut pe.queued,
        stop: &pe.stop,
    };
    for p in 0..sink.out_ports.len() {
        sink.fan_out(p, true, Frame::push_eos);
    }
    for p in pe.slots[idx].out_ports.iter_mut() {
        p.clear();
    }
}

/// Bounded, non-blocking sweep: round-robin passes over the live channels,
/// each routing what a channel holds next — a run of rows or one other
/// entry — until none has anything or one has routed [`SWEEP_TUPLES`]
/// entries. Interleaving at that grain keeps a per-tuple transport's
/// fairness to within a frame — fused control cycles rely on no channel
/// racing far ahead of its siblings — while channel synchronization is
/// still paid only once per frame. Returns true if anything was routed.
pub(super) fn sweep_channels(pe: &mut PeCore) -> bool {
    let mut progressed = false;
    let mut budget = SWEEP_TUPLES;
    while budget > 0 {
        let mut most = 0;
        for ci in 0..pe.inbox.metas.len() {
            if !pe.inbox.metas[ci].alive {
                continue;
            }
            match route_next(pe, Src::Chan(ci), budget) {
                Ok(n) => most = most.max(n),
                Err(TryRecvError::Empty) => continue,
                Err(TryRecvError::Disconnected) => on_disconnect(pe, ci),
            }
            drain_pending(pe);
        }
        if most == 0 {
            break;
        }
        progressed = true;
        budget -= most;
    }
    progressed
}

/// Routes what `src` holds next: a run of at most `max` data rows (in the
/// local frame, all bound for one consumer), a control tuple, or
/// end-of-stream. Returns the entries routed.
pub(super) fn route_next(pe: &mut PeCore, src: Src, max: usize) -> Result<usize, TryRecvError> {
    let inbox = &mut pe.inbox;
    let (to, port) = match src {
        Src::Chan(ci) => {
            let m = &mut inbox.metas[ci];
            m.refill()?;
            (m.to_local, m.port)
        }
        Src::Local => inbox.local_to[inbox.local.at],
    };
    let cur = inbox.cursor(src);
    let at = cur.at;
    if cur.frame.tags[at] == TAG_DATA {
        let n = cur.run_len(max);
        let n = match src {
            Src::Chan(_) => n,
            Src::Local => inbox.local_to[at..at + n]
                .iter()
                .take_while(|&&d| d == (to, port))
                .count(),
        };
        return Ok(route_rows(pe, src, to, port, n));
    }
    let ctrl = cur.take_other();
    if let Src::Chan(ci) = src {
        let m = &mut inbox.metas[ci];
        (m.routed, m.routed_other) = (m.routed + 1, m.routed_other + 1);
        if ctrl.is_none() {
            m.alive = false;
        }
    }
    match ctrl {
        Some(c) => control(pe, to, c),
        None => end_of_stream(pe, to, port),
    }
    Ok(1)
}

/// Routes up to `n` data rows of `src`, from its cursor on, to operator
/// `to` in one [`call`] of `process_rows`, and returns how many it routed.
/// An operator with faults armed gets a run of one: a poison fault due at
/// that row overwrites its values where it lies and a stall sleeps before
/// the call; an injected `panic@` or `kill-pe@` is raised after it
/// returned, so the row is fully processed and the fault window loses no
/// data. Rows for a finished operator, or on a control port (a wiring
/// error), are dropped.
fn route_rows(pe: &mut PeCore, src: Src, to: usize, port: PortKind, mut n: usize) -> usize {
    let first = pe.inbox.cursor(src).row.get();
    let slot = &mut pe.slots[to];
    if port != PortKind::Data || slot.finished {
        pe.inbox.consumed(src, first, n);
        return n;
    }
    let fired = fire_faults(slot);
    if fired.is_some() {
        n = 1;
    }
    let (poison, panic_due, kill_pe_due) = fired.unwrap_or_default();
    if let Some(fill) = poison {
        pe.inbox.cursor(src).frame.fill_row(first, fill);
    }
    call(pe, to, Call::Rows { src, first }, |op, ctx, inbox| {
        let c = inbox.cursor(src);
        op.process_rows(c.frame.rows(&c.row, first + n), ctx);
        if panic_due {
            // Blamed on the operator, whose state is whole.
            std::panic::panic_any(PeKill);
        }
    });
    pe.slots[to].counters.add_in(n as u64);
    pe.inbox.consumed(src, first, n);
    if kill_pe_due {
        // Raised outside any callback, so blamed on nobody: the whole PE
        // unwinds from a consistent between-rows state, which teardown
        // persists, so recovery loses nothing.
        std::panic::panic_any(PeKill);
    }
    n
}

/// Upstream dropped without punctuating (stop/panic path): the closure
/// reads as end-of-stream so this PE can still drain and exit.
fn on_disconnect(pe: &mut PeCore, ci: usize) {
    let m = &mut pe.inbox.metas[ci];
    m.alive = false;
    let (to, port) = (m.to_local, m.port);
    end_of_stream(pe, to, port);
}

/// End-of-stream on one of member `idx`'s inputs: once every data edge
/// (for a control-only consumer, every control edge) has closed, the
/// member finishes.
fn end_of_stream(pe: &mut PeCore, idx: usize, port: PortKind) {
    let s = &mut pe.slots[idx];
    if s.finished {
        return; // late punctuation for a finished operator
    }
    match port {
        PortKind::Data => s.eos_data += 1,
        PortKind::Control => s.eos_ctrl += 1,
    }
    let ready = if s.data_in_degree > 0 {
        s.eos_data >= s.data_in_degree
    } else {
        // Control-only consumer: wait for its control edges.
        s.eos_ctrl >= s.ctrl_in_degree
    };
    // Sources finish only through drive() or a stop.
    if ready && !s.is_source {
        finish_op(pe, idx);
    }
}

fn control(pe: &mut PeCore, idx: usize, c: ControlTuple) {
    if pe.slots[idx].finished {
        return; // late tuple for a finished operator
    }
    pe.slots[idx].counters.add_control();
    call(pe, idx, Call::Control, |op, ctx, _| op.on_control(c, ctx));
}

pub(super) fn finish_op(pe: &mut PeCore, idx: usize) {
    if pe.slots[idx].finished {
        return;
    }
    call(pe, idx, Call::Finish, |op, ctx, _| op.on_finish(ctx));
    pe.slots[idx].finished = true;
    punctuate(pe, idx);
}

/// Routes the local frame until it and the entries queued meanwhile are
/// spent, in emission order.
pub(super) fn drain_pending(pe: &mut PeCore) {
    loop {
        let inbox = &mut pe.inbox;
        if inbox.local.is_spent() {
            if pe.queued.frame.is_empty() {
                return;
            }
            let queued = std::mem::take(&mut pe.queued.frame);
            pe.queued.frame = inbox.local.reset(queued);
            pe.queued.frame.clear();
            std::mem::swap(&mut inbox.local_to, &mut pe.queued.to);
            pe.queued.to.clear();
        }
        let _ = route_next(pe, Src::Local, usize::MAX);
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::{Collect, CountSource};
    use crate::engine::Engine;
    use crate::graph::{GraphBuilder, PortKind};
    use crate::operator::{OpContext, Operator, SourceState};
    use crate::tuple::{ControlTuple, DataTuple, Rows};
    use crate::watched::lock;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    #[test]
    fn fan_out_duplicates_tuples() {
        let mut g = GraphBuilder::new();
        let seen_a = Arc::new(Mutex::new(Vec::new()));
        let seen_b = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 100, next: 0 }));
        let a = g.add_op(
            "a",
            Box::new(Collect {
                seen: Arc::clone(&seen_a),
            }),
        );
        let b = g.add_op(
            "b",
            Box::new(Collect {
                seen: Arc::clone(&seen_b),
            }),
        );
        g.connect(src, 0, a, PortKind::Data);
        g.connect(src, 0, b, PortKind::Data);
        Engine::run(g);
        assert_eq!(lock(&seen_a).len(), 100);
        assert_eq!(lock(&seen_b).len(), 100);
    }

    #[test]
    fn an_emit_past_the_highest_wired_port_drops() {
        // Port 0 is the only one wired, so the PE keeps no entry for port
        // 1 or 2: what is emitted there drops, as on an unsubscribed
        // stream, and kills nothing.
        struct Unwired(u64);
        impl Operator for Unwired {
            fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
                if self.0 == 100 {
                    return SourceState::Done;
                }
                let d = DataTuple::new(self.0, vec![0.0]);
                self.0 += 1;
                ctx.emit_row(1, d.row());
                assert!(ctx.try_emit_row(1, d.row()));
                ctx.emit_control(2, ControlTuple::new(0, 0, Arc::new(())));
                ctx.emit_row(0, d.row());
                SourceState::Emitted
            }
        }
        for fused in [false, true] {
            let mut g = GraphBuilder::new();
            let seen = Arc::new(Mutex::new(Vec::new()));
            let src = g.add_source("src", Box::new(Unwired(0)));
            let sink = g.add_op(
                "collect",
                Box::new(Collect {
                    seen: Arc::clone(&seen),
                }),
            );
            g.connect(src, 0, sink, PortKind::Data);
            if fused {
                g.fuse(&[src, sink]);
            }
            let report = Engine::run(g);
            assert_eq!(report.total_pe_restarts(), 0, "fused: {fused}");
            assert_eq!(report.total_restarts(), 0, "fused: {fused}");
            assert_eq!(*lock(&seen), (0..100).collect::<Vec<_>>(), "fused: {fused}");
        }
    }

    #[test]
    fn on_finish_emits_final_results() {
        struct Summer {
            total: f64,
        }
        impl Operator for Summer {
            fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
                self.total += rows.map(|row| row.values[0]).sum::<f64>();
            }
            fn on_finish(&mut self, ctx: &mut OpContext<'_>) {
                ctx.emit_row(0, DataTuple::new(0, vec![self.total]).row());
            }
        }
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 10, next: 0 }));
        let sum = g.add_op("sum", Box::new(Summer { total: 0.0 }));
        let out = g.add_op(
            "out",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sum, PortKind::Data);
        g.connect(sum, 0, out, PortKind::Data);
        Engine::run(g);
        // Final tuple seq 0 carrying sum 0+1+..+9 = 45 observed by `out`.
        assert_eq!(lock(&seen).len(), 1);
    }

    #[test]
    fn control_edges_do_not_gate_completion() {
        // A control-only cycle between two ops must not deadlock: data EOS
        // finishes both.
        struct Echo;
        impl Operator for Echo {
            fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
                for row in rows {
                    // Send a control ping to the peer on port 1.
                    ctx.emit_control(1, ControlTuple::signal(1, row.seq as u32));
                    ctx.emit_row(0, row);
                }
            }
        }
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 50, next: 0 }));
        let e1 = g.add_op("e1", Box::new(Echo));
        let e2 = g.add_op("e2", Box::new(Echo));
        let sink = g.add_op(
            "sink",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, e1, PortKind::Data);
        g.connect(src, 0, e2, PortKind::Data);
        g.connect(e1, 0, sink, PortKind::Data);
        g.connect(e2, 0, sink, PortKind::Data);
        // Control cycle. Fusing the echoes makes control delivery
        // deterministic (the PE's local frame drains before data EOS);
        // cross-PE control tuples racing EOS may legitimately be dropped.
        g.connect(e1, 1, e2, PortKind::Control);
        g.connect(e2, 1, e1, PortKind::Control);
        g.fuse(&[e1, e2]);
        let report = Engine::run(g);
        assert_eq!(lock(&seen).len(), 100);
        // Both echoes saw control traffic, and the cycle did not deadlock.
        assert!(report.op("e1").unwrap().control_in > 0);
        assert!(report.op("e2").unwrap().control_in > 0);
    }

    #[test]
    fn backpressure_does_not_lose_tuples() {
        let mut g = GraphBuilder::new().with_channel_capacity(2);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 500, next: 0 }));
        struct Slow;
        impl Operator for Slow {
            fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
                for row in rows {
                    std::thread::sleep(Duration::from_micros(20));
                    ctx.emit_row(0, row);
                }
            }
        }
        let slow = g.add_op("slow", Box::new(Slow));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, slow, PortKind::Data);
        g.connect(slow, 0, sink, PortKind::Data);
        Engine::run(g);
        assert_eq!(lock(&seen).len(), 500);
    }
}
