//! The threaded execution engine.
//!
//! One OS thread per processing element (PE): operators fused into a PE
//! hand tuples to each other through the PE's own local frame (the
//! analogue of InfoSphere passing "data by pointer as a variable in
//! memory": a row is copied once into the frame and read there in place),
//! while cross-PE edges are bounded `std::sync::mpsc` channels of frames
//! that provide backpressure and traffic accounting. A PE with nothing to do sleeps on
//! one wake-up that every producer into it rings (`tuple::Wake`). Sources
//! are driven cooperatively by their PE's thread; end-of-stream
//! punctuation flows edge-by-edge, so a PE (and the whole run) winds down
//! exactly when all upstream work is drained.
//!
//! ## Batched transport
//!
//! Cross-PE channels carry [`Frame`]s — pooled batches in columnar layout —
//! so one channel wake-up amortizes over up to
//! `GraphBuilder::with_batch_size` entries, and a row is copied into its
//! frame's columns once and never allocated. Each edge flushes adaptively
//! (threshold reached, downstream idle, scheduler about to block) and
//! *immediately* for control tuples and punctuation, so synchronization
//! latency is never batched away; see [`RemoteEdge`] for the exact policy.
//! The consuming PE hands each run of a frame's rows — off a channel or
//! off its local frame — to its operator's [`Operator::process_rows`] in
//! one call, the one way a row enters an operator. Delivery order per edge
//! is unchanged from per-tuple transport (frames preserve FIFO), and link
//! metrics stay tuple-denominated.
//!
//! ## Supervision
//!
//! One supervisor per PE, with InfoSphere's operator/PE split as its two
//! restart scopes. Every operator callback runs through one function,
//! [`call`], which names the running member and callback in
//! [`PeCore::in_call`]. The scheduler loop runs under one `catch_unwind`
//! ([`run_pe`]); the PE's channels, in-flight tuples and operators live
//! outside it (in [`PeRuntime`]), so a panic unwinds only the loop's stack,
//! and `in_call` decides what restarts:
//!
//! * **The operator**, for a panic in `process_rows` or `on_control`.
//!   When the loop re-enters, [`restart_op`] backs off, asks
//!   [`Operator::recover`] — the operator's consent to go on — restores a
//!   consenting one with a [`crate::checkpoint::Checkpoint`] facet from the
//!   PE's checkpoint, and re-feeds the row in flight once, as a run of
//!   one; the run's rows not yet taken are routed after it. One that
//!   declines is finished so its end-of-stream still propagates. Counted
//!   as [`Counter::Restarts`].
//! * **The PE**, for a panic in `drive`, `on_start` or `on_finish`, or
//!   outside any callback (an injected `kill-pe`). [`restart_pe`] restores
//!   every checkpointable member from the PE's checkpoint, cross-PE frame
//!   channels reconnect untouched (the local frames and edge buffers
//!   survive), and the loop re-enters; a member that panicked in a hook is
//!   finished first, without it. Counted as [`Counter::PeRestarts`] on
//!   every member.
//!
//! Both are bounded by the PE's one [`RestartPolicy`]. The checkpoint is
//! written periodically at the operators' cadence and, for an injected
//! fault (which strikes between tuples), once more at teardown, so
//! recovery round-trips consistent state through disk.
//!
//! Deterministic operator faults (panic/kill-pe/poison/stall) are injected
//! from the builder's [`crate::fault::FaultPlan`]; its storage and wire
//! faults go to the PE's VFS and the socket transport.
//!
//! ## Shutdown semantics
//!
//! * A source finishes only when its `drive` returns `Done`, or after
//!   [`RunningEngine::stop`] requests a cooperative stop; end-of-stream on
//!   its inputs does not finish it.
//! * An operator with data inputs finishes when end-of-stream has arrived
//!   on every data edge; control edges never gate completion (late control
//!   tuples are dropped), which keeps control-port cycles — like the PCA
//!   ring-synchronization mesh — deadlock-free.
//! * An operator with only control inputs finishes when those edges close.
//! * `on_finish` runs before the operator's own end-of-stream propagates,
//!   so terminal operators can emit final results.

use crate::checkpoint::{self, PeCheckpointer, WriteBehind};
use crate::fault::{FaultAction, FaultTarget, RestartPolicy};
use crate::graph::{GraphBuilder, PortKind};
use crate::metrics::{
    Counter, LinkCounters, LinkSnapshot, MetricsRegistry, OpCounters, OpSnapshot,
};
use crate::netio::{AckMode, LinkIn, NetTransport, INBOUND_FRAMES};
use crate::operator::{EmitSink, OpContext, Operator, SourceState};
use crate::tuple::{
    frame_channel, wake, ControlTuple, Frame, FrameRx, FrameTx, RowRef, TAG_CTRL, TAG_DATA,
};
use crate::watched::lock;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Entries routed per live channel in one sweep of the scheduler loop.
/// Bounded so one hot channel cannot starve its siblings or a co-resident
/// source.
const SWEEP_TUPLES: usize = 256;

/// One fault from the plan, armed against its trigger point. Each fault
/// fires at most once so a plan stays a finite, reproducible script.
struct InjectedFault {
    action: FaultAction,
    fired: bool,
}

impl InjectedFault {
    fn arm(actions: Vec<FaultAction>) -> Vec<InjectedFault> {
        actions
            .into_iter()
            .map(|action| InjectedFault {
                action,
                fired: false,
            })
            .collect()
    }
}

/// Sender-side state of one cross-PE edge: entries accumulate in the
/// columns of `buf` and travel as one [`Frame`] per channel message.
///
/// A frame leaves when it reaches the configured batch size, or when the
/// entry is control/punctuation — sync signals and end-of-stream must never
/// wait behind a partial data batch (§III-C latency). The PE scheduler
/// also flushes every edge whenever it is about to idle or block, so no
/// entry is ever stranded in a frame.
struct RemoteEdge {
    tx: FrameTx,
    counters: Arc<LinkCounters>,
    /// Flush threshold (entries per frame); 1 = legacy per-tuple transport.
    batch: usize,
    buf: Frame,
}

impl RemoteEdge {
    // Control tuples and punctuation go out at once.
    fn push_control(&mut self, c: ControlTuple) {
        self.buf.push_control(c);
        self.flush();
    }

    fn push_eos(&mut self) {
        self.buf.push_eos();
        self.flush();
    }

    fn push_row(&mut self, row: RowRef<'_>) {
        self.buf.push_row(row);
        if self.buf.len() >= self.batch {
            self.flush();
        }
    }

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
enum Target {
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
struct Cursor {
    frame: Frame,
    at: usize,
    /// A run of rows handed to `process_rows` advances this as the
    /// operator takes each one, so after a panic it tells the PE which row
    /// was in flight.
    row: Cell<usize>,
    ctrl: usize,
}

impl Cursor {
    fn is_spent(&self) -> bool {
        self.at >= self.frame.len()
    }

    /// Points the cursor at the start of `frame`; returns the old one.
    fn reset(&mut self, frame: Frame) -> Frame {
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
struct ChanMeta {
    rx: FrameRx,
    to_local: usize,
    port: PortKind,
    got_eos: bool,
    alive: bool,
    /// The current frame, recycled to the producer once spent.
    cur: Cursor,
    /// Entries routed off this channel so far. For socket-backed channels
    /// this is the durable consumption watermark persisted as a
    /// `__netlink{id}` pseudo-part in the PE manifest.
    routed: u64,
    /// The control tuples and punctuation among `routed`. No member's
    /// `tuples_in` counts them, so on a socket-backed channel they advance
    /// the checkpoint cadence themselves (see [`checkpoint_progress`]).
    routed_other: u64,
    /// Socket-link bookkeeping when this channel's upstream runs in another
    /// process; `None` for ordinary in-process channels.
    net: Option<NetIn>,
}

/// The [`NetTransport`] side of one socket-backed incoming channel.
struct NetIn {
    /// Global edge index — the wire link id and the `__netlink{id}` key.
    link_id: u64,
    /// The link's watermarks: preset from the manifest on rehydrate,
    /// advanced (which acknowledges to the sender) when a checkpoint that
    /// covers the routed entries commits.
    link: Arc<LinkIn>,
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
struct LocalFrame {
    frame: Frame,
    to: Vec<(usize, PortKind)>,
}

/// What a PE routes rows from: its channels, and the local frame being
/// drained — in emission order, as a FIFO queue would: what is emitted
/// meanwhile goes to [`PeCore::queued`], which takes its place once it is
/// spent.
struct Inbox {
    metas: Vec<ChanMeta>,
    local: Cursor,
    /// The consumer of each entry of `local`.
    local_to: Vec<(usize, PortKind)>,
}

/// Where a cursor lives: channel `ci`, or the local frame.
#[derive(Clone, Copy)]
enum Src {
    Chan(usize),
    Local,
}

/// Row `r` of `src`'s frame.
type RowAt = (Src, usize);

impl Inbox {
    fn cursor(&mut self, src: Src) -> &mut Cursor {
        match src {
            Src::Chan(ci) => &mut self.metas[ci].cur,
            Src::Local => &mut self.local,
        }
    }

    /// Moves `src`'s cursor past the `n` data rows from row `first` on.
    fn consumed(&mut self, src: Src, first: usize, n: usize) {
        self.cursor(src).consumed(first, n);
        if let Src::Chan(ci) = src {
            self.metas[ci].routed += n as u64;
        }
    }
}

struct OpSlot {
    name: String,
    op: Box<dyn Operator>,
    counters: Arc<OpCounters>,
    out_ports: Vec<Vec<Target>>,
    is_source: bool,
    data_in_degree: usize,
    ctrl_in_degree: usize,
    eos_data: usize,
    eos_ctrl: usize,
    finished: bool,
    /// Armed operator faults (panic/poison/stall); empty in normal runs.
    /// While one has not fired, the slot is fed runs of one row, so each
    /// fires at its row.
    faults: Vec<InjectedFault>,
    /// 1-based count of data rows delivered, for fault trigger points.
    fault_data_seen: u64,
    /// Operator restarts performed so far (compared against the PE's
    /// `policy.max_restarts`).
    restart_attempts: u64,
    /// Sequence number of the last redelivered tuple: a tuple whose retry
    /// panics again is a poison pill and is dropped, not redelivered
    /// forever.
    last_redelivered: Option<u64>,
}

impl OpSlot {
    /// True while an operator fault of the plan has yet to fire.
    fn faults_armed(&self) -> bool {
        self.faults.iter().any(|f| !f.fired)
    }
}

/// Panic payload of the injected faults (`panic@`, `kill-pe@`). Both fire
/// after `process_rows` returned, so the state they unwind from is whole
/// and worth persisting before the restore.
struct PeKill;

/// Which operator callback is running: what [`run_pe`] reads to pick the
/// restart scope when the PE unwinds.
enum Call {
    Start,
    Drive,
    /// A run of rows of `src` from row `first` on: its row cursor says
    /// which one is in flight.
    Rows {
        src: Src,
        first: usize,
    },
    /// Row `r` of `src` again, after a restart.
    Refeed {
        src: Src,
        r: usize,
    },
    Control,
    Finish,
}

/// Everything a PE owns that must survive a restart. The scheduler body
/// (`run_pe_once`) only *borrows* this, so when a panic unwinds the body,
/// channel endpoints (senders live in the slots' remote targets, receivers
/// in `core.inbox.metas`), partially consumed frame cursors, the local
/// frames, and the operators themselves all survive for the supervisor to
/// rebuild around.
struct PeRuntime {
    core: PeCore,
    /// Rung by every producer into this PE (see `tuple::Wake`): what the
    /// scheduler waits on when it has nothing to do.
    woken: Receiver<()>,
    /// Whole-PE restarts performed so far.
    pe_restarts: u64,
    /// The operator restart an unwind left for the re-entered loop to run
    /// (see [`restart_op`]): member, the row to re-feed, injected fault.
    owed_restart: Option<(usize, Option<RowAt>, bool)>,
    /// [`checkpoint_progress`] at the last periodic checkpoint.
    last_ckpt_total: u64,
    /// True once `on_start` hooks have run; a restarted PE must not re-run
    /// them (operators resume via `Checkpoint::restore`, not a fresh start).
    started: bool,
    /// Snapshot set recovered at startup (distributed rehydrate): operator
    /// state restored right after the `on_start` hooks of the first
    /// scheduler entry, so a respawned worker resumes where its manifest
    /// left off instead of reprocessing from scratch.
    rehydrate: Option<checkpoint::SnapshotSet>,
}

/// What every dispatch path of a PE works on, down to an operator restart
/// — which is why the PE's durability lives here: an operator restart
/// restores from the same checkpoint a PE restart does.
struct PeCore {
    slots: Vec<OpSlot>,
    inbox: Inbox,
    /// Emissions onto local edges while `inbox.local` drains. Both local
    /// frames are owned here — not in the scheduler body — so entries
    /// queued at the moment a PE dies are delivered, not lost.
    queued: LocalFrame,
    stop: Arc<AtomicBool>,
    /// This PE's index in the graph's PE list (manifest identity).
    pe_index: usize,
    /// Snapshot writer, when the graph has a checkpoint dir configured.
    checkpoint: Option<PeDurability>,
    /// Bounds operator and PE restarts alike.
    policy: RestartPolicy,
    /// The member whose callback is running, and which one; set by [`call`]
    /// for the duration, read by [`run_pe`] when the PE unwinds.
    in_call: Option<(usize, Call)>,
}

/// Traffic report for one cross-PE link.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Producing operator's name.
    pub from: String,
    /// Consuming operator's name.
    pub to: String,
    /// Transfer counters.
    pub snapshot: LinkSnapshot,
}

impl LinkReport {
    /// Tuples transferred.
    pub fn tuples(&self) -> u64 {
        self.snapshot.tuples
    }

    /// Bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.snapshot.bytes
    }
}

/// Final report of a finished run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-operator name + counters, in graph insertion order.
    pub ops: Vec<(String, OpSnapshot)>,
    /// Per-cross-PE-link traffic, in edge insertion order.
    pub links: Vec<LinkReport>,
    /// CPU time of each PE thread this process ran, in PE order.
    pub pe_cpu: Vec<PeCpu>,
}

/// The CPU time one PE thread used, read as it exited: how much of a core
/// its busy share really was (a PE waiting for room downstream is busy
/// but not on the CPU).
#[derive(Debug, Clone)]
pub struct PeCpu {
    /// The PE's member operators, in graph insertion order.
    pub members: Vec<String>,
    /// User plus system CPU seconds of the PE's thread, from
    /// `/proc/thread-self/stat`; `None` where that file does not exist.
    pub cpu_s: Option<f64>,
}

/// User plus system CPU seconds of the calling thread, from
/// `/proc/thread-self/stat`; `None` where that file does not exist.
fn thread_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The fields after the command name (which may hold spaces and
    // parentheses) start at the state, field 3; utime is field 14 and
    // stime field 15, both in clock ticks of `USER_HZ` — 100 on Linux.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

impl RunReport {
    /// Snapshot for the operator with the given name (first match).
    pub fn op(&self, name: &str) -> Option<&OpSnapshot> {
        self.ops.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Aggregate data tuples consumed by operators whose name starts with
    /// `prefix` — convenient for summing over parallel replicas.
    pub fn tuples_in_matching(&self, prefix: &str) -> u64 {
        self.ops
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, s)| s.tuples_in)
            .sum()
    }

    /// Total of the run-level counter `which` across all operators (a PE
    /// restart counts once per member operator that lived through it).
    pub fn total(&self, which: Counter) -> u64 {
        self.ops.iter().map(|(_, s)| s.get(which)).sum()
    }

    // The five wrappers below exist because the unedited `benchmark/`
    // calls them; they go in the next `[benchmark]` window (ROADMAP).

    /// `total(Counter::Restarts)`.
    pub fn total_restarts(&self) -> u64 {
        self.total(Counter::Restarts)
    }

    /// `total(Counter::PeRestarts)`.
    pub fn total_pe_restarts(&self) -> u64 {
        self.total(Counter::PeRestarts)
    }

    /// `total(Counter::Quarantined)`.
    pub fn total_quarantined(&self) -> u64 {
        self.total(Counter::Quarantined)
    }

    /// `total(Counter::SyncSkips)`.
    pub fn total_sync_skips(&self) -> u64 {
        self.total(Counter::SyncSkips)
    }

    /// `total(Counter::CheckpointSkips)`.
    pub fn total_checkpoint_skips(&self) -> u64 {
        self.total(Counter::CheckpointSkips)
    }
}

/// One process's share of a distributed run (see [`Engine::start_in_partition`]).
///
/// Every participating process builds the *identical* graph and names the
/// operators it owns; edges whose endpoints land in different processes are
/// carried by `net` as codec frames over TCP (keyed by the edge's global
/// index), edges between two foreign operators are skipped entirely, and
/// everything else is wired exactly as in a single-process run. Operator
/// fusion must respect the partition: two operators fused into one PE must
/// live in the same process.
pub struct NetPartition {
    /// Names of the operators this process runs. PE threads are spawned
    /// only for PEs whose members are all listed here.
    pub local_ops: HashSet<String>,
    /// The socket transport carrying boundary edges. Must be bound but not
    /// yet started; the engine registers its links and starts it.
    pub net: Arc<NetTransport>,
    /// Data-plane address of the peer process for each *outgoing* boundary
    /// edge, keyed by the edge's global index in graph insertion order.
    pub peers: HashMap<u64, SocketAddr>,
    /// Recover local PEs from their checkpoint manifests before running —
    /// the respawned-worker path. Requires a checkpoint dir on the builder.
    pub rehydrate: bool,
}

/// A running dataflow; obtain one via [`Engine::start`].
pub struct RunningEngine {
    /// Each PE thread with its member names; a thread returns its CPU time.
    handles: Vec<(Vec<String>, std::thread::JoinHandle<Option<f64>>)>,
    stop: Arc<AtomicBool>,
    metrics: MetricsRegistry,
    op_names: Vec<String>,
    link_endpoints: Vec<(String, String)>,
    started: Instant,
    /// Socket transport for distributed runs; shut down after the local PEs
    /// drain (senders first flush + await acks for every queued frame).
    net: Option<Arc<NetTransport>>,
}

impl RunningEngine {
    /// Requests a cooperative stop: sources wind down, the pipeline drains.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Live operator snapshots (name, counters).
    pub fn op_snapshots(&self) -> Vec<(String, OpSnapshot)> {
        self.op_names
            .iter()
            .cloned()
            .zip(self.metrics.op_snapshots())
            .collect()
    }

    /// Live snapshot of the operator with the given name.
    pub fn op_snapshot(&self, name: &str) -> Option<OpSnapshot> {
        self.op_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.metrics.op_snapshots()[i])
    }

    /// Wall-clock time since the run started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether every PE thread has exited (the pipeline has drained).
    /// Non-blocking; [`RunningEngine::join`] still collects the report.
    pub fn is_finished(&self) -> bool {
        self.handles.iter().all(|(_, h)| h.is_finished())
    }

    /// Waits for every PE thread and returns the final report.
    pub fn join(self) -> RunReport {
        let pe_cpu = self
            .handles
            .into_iter()
            .map(|(members, h)| PeCpu {
                members,
                cpu_s: h.join().expect("PE thread panicked"),
            })
            .collect();
        // Transport shutdown comes after the PEs drain: senders hold their
        // retransmit queues until the peer acknowledges every frame, so a
        // worker's results are on the coordinator's side of the wire before
        // this returns.
        if let Some(net) = &self.net {
            net.shutdown();
        }
        let links = self
            .link_endpoints
            .into_iter()
            .zip(self.metrics.link_snapshots())
            .map(|((from, to), snapshot)| LinkReport { from, to, snapshot })
            .collect();
        RunReport {
            elapsed: self.started.elapsed(),
            ops: self
                .op_names
                .into_iter()
                .zip(self.metrics.op_snapshots())
                .collect(),
            links,
            pe_cpu,
        }
    }
}

/// Engine entry points.
pub struct Engine;

impl Engine {
    /// Builds and launches the dataflow; returns a handle for live metrics
    /// and stopping.
    pub fn start(builder: GraphBuilder) -> RunningEngine {
        Engine::start_inner(builder, None)
    }

    /// Launches this process's share of a distributed dataflow.
    ///
    /// Every participating process builds the *identical* graph (same
    /// operators, same insertion order — edge indices are the wire link
    /// ids) and declares which operators it owns via the partition. PE
    /// threads are spawned only for local operators; edges crossing the
    /// process boundary travel as codec frames over the partition's
    /// [`NetTransport`] with exactly-once redelivery on reconnect.
    pub fn start_in_partition(builder: GraphBuilder, partition: NetPartition) -> RunningEngine {
        Engine::start_inner(builder, Some(partition))
    }

    fn start_inner(mut builder: GraphBuilder, partition: Option<NetPartition>) -> RunningEngine {
        let (op_pe, pes) = builder.resolve_pes();
        let n_ops = builder.ops.len();
        let mut metrics = MetricsRegistry::default();
        let counters: Vec<Arc<OpCounters>> = (0..n_ops).map(|_| metrics.register_op()).collect();

        // Per-op output port count (max wired port + 1).
        let mut n_ports = vec![0usize; n_ops];
        for e in &builder.edges {
            n_ports[e.from] = n_ports[e.from].max(e.out_port + 1);
        }

        // local index of each op inside its PE
        let mut local_idx = vec![0usize; n_ops];
        for ops in &pes {
            for (li, &g) in ops.iter().enumerate() {
                local_idx[g] = li;
            }
        }

        // Build slots per PE.
        let op_names: Vec<String> = builder.ops.iter().map(|o| o.name.clone()).collect();

        // Which operators run in this process. Without a partition: all.
        let is_local: Vec<bool> = match &partition {
            Some(p) => op_names.iter().map(|n| p.local_ops.contains(n)).collect(),
            None => vec![true; n_ops],
        };
        if let Some(p) = &partition {
            for name in &p.local_ops {
                assert!(
                    op_names.iter().any(|n| n == name),
                    "partition names unknown operator '{name}'"
                );
            }
            // Fusion exchanges tuples by pointer inside one address space; a
            // PE must therefore live wholly in one process.
            for ops in &pes {
                assert!(
                    ops.iter().all(|&g| is_local[g]) || ops.iter().all(|&g| !is_local[g]),
                    "partition splits a fused PE across processes: {:?}",
                    ops.iter()
                        .map(|&g| op_names[g].as_str())
                        .collect::<Vec<_>>()
                );
            }
        }

        // Resolve the fault plan against the graph now, so a typo in a
        // fault spec fails the run loudly instead of injecting nothing.
        let plan = builder.fault_plan.take().unwrap_or_default();
        let policy = builder.restart_policy;
        // Storage and wire faults name fault domains, not graph elements:
        // only operator targets resolve.
        for fault in &plan.faults {
            if let FaultTarget::Op(name) = &fault.target {
                assert!(
                    op_names.iter().any(|n| n == name),
                    "fault plan targets unknown operator '{name}'"
                );
            }
        }

        // The persistence backend: fault-injecting when the plan carries
        // io-* entries, otherwise the real filesystem.
        let vfs: Arc<dyn crate::vfs::Vfs> = match plan.io_spec() {
            Some(spec) => Arc::new(crate::vfs::FaultVfs::new(spec)),
            None => Arc::new(crate::vfs::RealVfs),
        };

        // A PE lists its members in insertion order, so pushing in that
        // order puts each operator at its local index.
        let mut slots_per_pe: Vec<Vec<OpSlot>> = pes.iter().map(|_| Vec::new()).collect();
        for (g, entry) in builder.ops.drain(..).enumerate() {
            slots_per_pe[op_pe[g]].push(OpSlot {
                faults: InjectedFault::arm(plan.op_faults(&entry.name)),
                name: entry.name,
                op: entry.op,
                counters: Arc::clone(&counters[g]),
                out_ports: (0..n_ports[g]).map(|_| Vec::new()).collect(),
                is_source: entry.is_source,
                data_in_degree: 0,
                ctrl_in_degree: 0,
                eos_data: 0,
                eos_ctrl: 0,
                finished: false,
                fault_data_seen: 0,
                restart_attempts: 0,
                last_redelivered: None,
            });
        }

        // Wire edges. A channel's bound counts tuples, at any batch size
        // and however full the scheduler's flushes leave its frames.
        let batch = builder.batch_size.max(1);
        let checkpoint_dir = builder.checkpoint_dir.take();
        let mut link_endpoints: Vec<(String, String)> = Vec::new();
        let (wakes, woken_per_pe): (Vec<_>, Vec<_>) = pes.iter().map(|_| wake()).unzip();
        let mut metas_per_pe: Vec<Vec<ChanMeta>> = (0..pes.len()).map(|_| Vec::new()).collect();
        for (eid, e) in builder.edges.iter().enumerate() {
            let from_pe = op_pe[e.from];
            let to_pe = op_pe[e.to];
            match (is_local[e.from], is_local[e.to]) {
                (true, true) if from_pe == to_pe => {
                    slots_per_pe[from_pe][local_idx[e.from]].out_ports[e.out_port].push(
                        Target::Local {
                            op: local_idx[e.to],
                            port: e.port,
                        },
                    );
                }
                (false, false) => {} // both ends foreign: the owner wires it
                (from_here, to_here) => {
                    // A frame channel either way; what differs is who holds
                    // its far end. Two PEs of this process hold one end
                    // each. Across a process boundary the socket transport
                    // holds the other: it encodes each outgoing frame once
                    // and retransmits it until the peer acknowledges, and
                    // decodes incoming frames into the channel so the
                    // consuming PE sees an ordinary frame channel. A PE
                    // consumer is rung on every frame; the transport's
                    // sender waits on the channel itself. A channel the
                    // transport feeds holds at most `INBOUND_FRAMES` full
                    // frames' worth of tuples: its receiver then stops
                    // reading, and the TCP window holds the sender.
                    let cap = if from_here {
                        builder.channel_capacity
                    } else {
                        builder.channel_capacity.min(INBOUND_FRAMES * batch)
                    };
                    let (tx, rx) = frame_channel(cap, to_here.then(|| wakes[to_pe].clone()));
                    let link = metrics.register_link();
                    link_endpoints.push((op_names[e.from].clone(), op_names[e.to].clone()));
                    let boundary = || partition.as_ref().expect("boundary edge implies partition");
                    let net = if from_here {
                        slots_per_pe[from_pe][local_idx[e.from]].out_ports[e.out_port].push(
                            Target::Remote(Box::new(RemoteEdge {
                                buf: tx.buffer(),
                                tx,
                                counters: link,
                                batch,
                            })),
                        );
                        None
                    } else {
                        // With a checkpoint dir the sender must hold every
                        // frame until its effects are durable here (acks
                        // advance at checkpoints); otherwise receipt is
                        // final. The receive side has no sender to count
                        // on, so `link` stays unused.
                        let ack = if checkpoint_dir.is_some() {
                            AckMode::Stable
                        } else {
                            AckMode::Receipt
                        };
                        Some(NetIn {
                            link_id: eid as u64,
                            link: boundary().net.add_incoming(eid as u64, tx, ack),
                        })
                    };
                    if to_here {
                        metas_per_pe[to_pe].push(ChanMeta {
                            rx,
                            to_local: local_idx[e.to],
                            port: e.port,
                            got_eos: false,
                            alive: true,
                            cur: Cursor::default(),
                            routed: 0,
                            routed_other: 0,
                            net,
                        });
                    } else {
                        let p = boundary();
                        let peer = *p.peers.get(&(eid as u64)).unwrap_or_else(|| {
                            panic!(
                                "no peer address for boundary edge {eid} ({} -> {})",
                                op_names[e.from], op_names[e.to]
                            )
                        });
                        p.net.add_outgoing(eid as u64, rx, peer);
                    }
                }
            }
            // In-degrees on the destination slot. Tracked for every edge —
            // a local consumer must count boundary edges (EOS arrives over
            // the wire as ordinary punctuation), and bumping a foreign slot
            // is harmless since its PE never runs here.
            let dst = &mut slots_per_pe[to_pe][local_idx[e.to]];
            match e.port {
                PortKind::Data => dst.data_in_degree += 1,
                PortKind::Control => dst.ctrl_in_degree += 1,
            }
        }

        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(pes.len());
        for (pe_index, ((slots, woken), metas)) in slots_per_pe
            .into_iter()
            .zip(woken_per_pe)
            .zip(metas_per_pe)
            .enumerate()
        {
            // Foreign PEs run in another process; their slots (and the
            // operator boxes inside) are simply dropped here.
            if !pes[pe_index].iter().all(|&g| is_local[g]) {
                continue;
            }
            let checkpoint = checkpoint_dir.as_ref().map(|dir| {
                let ckpt = PeCheckpointer::new_with_vfs(dir, pe_index, Arc::clone(&vfs))
                    .expect("create checkpoint directory");
                // Storage failures are PE-attributed to its first slot.
                PeDurability::new(ckpt, pe_index, Arc::clone(&slots[0].counters))
            });
            let mut core = PeCore {
                slots,
                inbox: Inbox {
                    metas,
                    local: Cursor::default(),
                    local_to: Vec::new(),
                },
                queued: LocalFrame::default(),
                stop: Arc::clone(&stop),
                pe_index,
                checkpoint,
                policy,
                in_call: None,
            };
            let rehydrate = if partition.as_ref().is_some_and(|p| p.rehydrate) {
                recover_for_rehydrate(&mut core)
            } else {
                None
            };
            let pe = PeRuntime {
                core,
                woken,
                pe_restarts: 0,
                owed_restart: None,
                last_ckpt_total: 0,
                started: false,
                rehydrate,
            };
            let members = pes[pe_index].iter().map(|&g| op_names[g].clone());
            let thread = std::thread::Builder::new()
                .name("spca-pe".to_string())
                .spawn(move || {
                    run_pe(pe);
                    thread_cpu_s()
                })
                .expect("spawn PE thread");
            handles.push((members.collect(), thread));
        }

        // Links and watermarks are all registered; open the wire. Wire
        // faults from the plan shim this process's outgoing sockets.
        let net = partition.map(|p| p.net);
        if let Some(net) = &net {
            if let Some(spec) = plan.wire_spec() {
                net.set_faults(spec);
            }
            net.start();
        }

        RunningEngine {
            handles,
            stop,
            metrics,
            op_names,
            link_endpoints,
            started: Instant::now(),
            net,
        }
    }

    /// Builds, runs to completion, and reports. Only meaningful for graphs
    /// whose sources terminate on their own.
    pub fn run(builder: GraphBuilder) -> RunReport {
        Engine::start(builder).join()
    }
}

/// The per-PE sink: copies emissions into the PE's local frame or into
/// per-edge frame buffers (flushed adaptively; see [`RemoteEdge`]).
struct PeSink<'a> {
    out_ports: &'a mut [Vec<Target>],
    queued: &'a mut LocalFrame,
    stop: &'a AtomicBool,
}

impl PeSink<'_> {
    /// Appends one entry for every target of `port`: `local` to the PE's
    /// local frame, `remote` to a cross-PE edge. An unwired port silently
    /// drops — mirrors InfoSphere streams with no subscribers — and so
    /// does a port past the highest wired one, which has no entry at all.
    fn fan_out(
        &mut self,
        port: usize,
        mut local: impl FnMut(&mut Frame),
        mut remote: impl FnMut(&mut RemoteEdge),
    ) {
        let Some(targets) = self.out_ports.get_mut(port) else {
            return;
        };
        for target in targets.iter_mut() {
            match target {
                Target::Local { op, port } => {
                    local(&mut self.queued.frame);
                    self.queued.to.push((*op, *port));
                }
                Target::Remote(edge) => remote(edge),
            }
        }
    }
}

impl EmitSink for PeSink<'_> {
    fn emit_row(&mut self, port: usize, row: RowRef<'_>) {
        self.fan_out(port, |f| f.push_row(row), |e| e.push_row(row));
    }

    fn emit_control(&mut self, port: usize, c: ControlTuple) {
        self.fan_out(
            port,
            |f| f.push_control(c.clone()),
            |e| e.push_control(c.clone()),
        );
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

    fn flush_downstream(&mut self) {
        flush_ports(self.out_ports);
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
fn flush_all(slots: &mut [OpSlot]) {
    for slot in slots.iter_mut() {
        flush_ports(&mut slot.out_ports);
    }
}

/// Flushes every buffered cross-PE edge on `ports`.
fn flush_ports(ports: &mut [Vec<Target>]) {
    for target in ports.iter_mut().flatten() {
        if let Target::Remote(e) = target {
            e.flush();
        }
    }
}

/// The one path into an operator: runs callback `what` of member `idx`
/// with a context wired to the PE's sink, timed into the op's busy counter.
/// The operator is borrowed in its slot, and `in_call` names it until the
/// callback returns, so a panic inside tells [`run_pe`] whose it was. The
/// callback also sees the PE's inbox, where a run of rows lives.
fn call<R>(
    pe: &mut PeCore,
    idx: usize,
    what: Call,
    f: impl FnOnce(&mut dyn Operator, &mut OpContext<'_>, &mut Inbox) -> R,
) -> R {
    pe.in_call = Some((idx, what));
    let slot = &mut pe.slots[idx];
    let mut sink = PeSink {
        out_ports: &mut slot.out_ports,
        queued: &mut pe.queued,
        stop: &pe.stop,
    };
    let ctx = &mut OpContext::new(&mut sink, &slot.counters);
    let t0 = Instant::now();
    let ret = f(&mut *slot.op, ctx, &mut pe.inbox);
    slot.counters.add_busy(t0.elapsed().as_nanos() as u64);
    pe.in_call = None;
    ret
}

/// PE thread entry: the supervisor. The scheduler body runs under the PE's
/// one `catch_unwind` while [`PeRuntime`] stays owned out here, so a panic
/// tears down only the *stack* of the scheduler. What was running picks the
/// scope: a panic in `process_rows` or `on_control` leaves an operator
/// restart owed to the re-entered loop; anything else restarts the PE.
fn run_pe(mut pe: PeRuntime) {
    while let Err(payload) =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_pe_once(&mut pe)))
    {
        let injected = payload.is::<PeKill>();
        let core = &mut pe.core;
        match core.in_call.take() {
            // A run of rows: the ones taken are consumed, the last of them
            // unprocessed and re-fed from where it lies — unless the panic
            // was the injected one, which fires after `process_rows`
            // returned, with the state whole. The rest stay queued behind
            // the cursor and are routed after the restart.
            Some((idx, Call::Rows { src, first })) => {
                let taken = core.inbox.cursor(src).row.get() - first;
                core.inbox.consumed(src, first, taken);
                core.slots[idx].counters.add_in(taken as u64);
                let retry = (taken > 0 && !injected).then_some((src, first + taken - 1));
                pe.owed_restart = Some((idx, retry, injected));
                continue;
            }
            // A re-fed row that panicked again: owed once more, to be
            // dropped as a poison pill.
            Some((idx, Call::Refeed { src, r })) => {
                pe.owed_restart = Some((idx, Some((src, r)), false));
                continue;
            }
            // Control tuples are never redelivered: sync commands are
            // periodic, and a missed one is the next skipped sync.
            Some((idx, Call::Control)) => {
                pe.owed_restart = Some((idx, None, false));
                continue;
            }
            Some((idx, Call::Drive)) => eprintln!(
                "[supervisor] source '{}' panicked in drive; escalating to a PE restart",
                core.slots[idx].name
            ),
            // A hook cannot be re-run; finish its operator without it so
            // its end-of-stream propagates while the rest of the PE comes
            // back.
            Some((idx, _)) => {
                eprintln!(
                    "[supervisor] operator '{}' panicked in a start or finish hook; finishing it",
                    core.slots[idx].name
                );
                core.slots[idx].finished = true;
                punctuate(core, idx);
            }
            None => {}
        }
        if !restart_pe(&mut pe, injected) {
            return;
        }
    }
}

/// One consistent snapshot set of a PE, captured between tuples, with the
/// socket-link watermarks it covers.
struct Capture {
    parts: checkpoint::SnapshotSet,
    /// `(link, routed)`: what each link may acknowledge once `parts` is
    /// committed.
    watermarks: Vec<(Arc<LinkIn>, u64)>,
}

/// Snapshots every live checkpointable operator in the PE (see
/// [`crate::checkpoint`]). `None` when the PE has nothing to persist.
fn capture_pe(slots: &mut [OpSlot], metas: &[ChanMeta]) -> Option<Capture> {
    let mut parts = Vec::new();
    for slot in slots.iter_mut() {
        if slot.finished {
            continue;
        }
        if let Some(cp) = slot.op.checkpoint() {
            parts.push((slot.name.clone(), cp.snapshot()));
        }
    }
    // Socket-link watermarks ride along as `__netlink{id}` pseudo-parts:
    // they are what lets a respawned process resume the wire exactly where
    // its durable state left off, so they are persisted even when no
    // operator in the PE is checkpointable right now.
    let mut watermarks = Vec::new();
    for m in metas {
        if let Some(net) = &m.net {
            parts.push((
                format!("__netlink{}", net.link_id),
                checkpoint::encode_kv(&[("routed", m.routed.to_string())]),
            ));
            watermarks.push((Arc::clone(&net.link), m.routed));
        }
    }
    (!parts.is_empty()).then_some(Capture { parts, watermarks })
}

/// A PE's durability, written behind its scheduler: the PE thread captures
/// (`capture_pe`), the writer thread runs [`PeCheckpointer::write`] and
/// only after the generation file's rename lets the links acknowledge — so
/// an `ACK` still means durable, while the fsyncs cost the engine nothing.
/// A failed write is never a panic: the previous generations stay
/// readable, the skip is counted, and each consecutive failure doubles the
/// checkpoint window (see [`PeDurability::window`]).
struct PeDurability {
    ckpt: Arc<Mutex<PeCheckpointer>>,
    writer: WriteBehind<Capture>,
    /// Consecutive failed writes; any success resets it.
    failures: Arc<AtomicU64>,
}

impl PeDurability {
    fn new(ckpt: PeCheckpointer, pe_index: usize, counters: Arc<OpCounters>) -> Self {
        let ckpt = Arc::new(Mutex::new(ckpt));
        let failures = Arc::new(AtomicU64::new(0));
        let writer = {
            let ckpt = Arc::clone(&ckpt);
            let failures = Arc::clone(&failures);
            WriteBehind::spawn(&format!("spca-ckpt-{pe_index}"), move |cap: Capture| {
                match lock(&ckpt).write(&cap.parts) {
                    Ok(()) => {
                        failures.store(0, Ordering::SeqCst);
                        // Only a *committed* set moves the watermarks — the
                        // sender must keep retransmitting anything the
                        // manifest does not yet cover.
                        for (link, routed) in cap.watermarks {
                            link.advance_stable(routed);
                        }
                    }
                    Err(e) => {
                        let n = failures.fetch_add(1, Ordering::SeqCst) + 1;
                        eprintln!(
                            "[supervisor] PE {pe_index} checkpoint skipped ({e}); \
                             backing off to a {}x window",
                            1u64 << n.min(6)
                        );
                        counters.add(Counter::CheckpointSkips, 1);
                        counters.add(Counter::IoFaults, 1);
                    }
                }
            })
        };
        PeDurability {
            ckpt,
            writer,
            failures,
        }
    }

    /// The periodic window for a cadence of `every`: doubled per
    /// consecutive failed write (capped at 64x), so a full disk is retried
    /// at a gentle rate instead of hammered every cadence.
    fn window(&self, every: u64) -> u64 {
        every << self.failures.load(Ordering::SeqCst).min(6)
    }

    /// Hands a capture to the writer and returns; a capture still waiting
    /// there is superseded.
    fn submit(&self, capture: Option<Capture>) {
        if let Some(capture) = capture {
            self.writer.submit(capture);
        }
    }

    /// Recovers the best snapshot set on disk. Reads the directory only
    /// with the writer idle, so it sees whole generations.
    fn recover(&self) -> checkpoint::PeRecovery {
        self.writer.flush();
        lock(&self.ckpt).recover()
    }
}

/// Teardown capture: persists the PE's in-memory state as it stands. Only
/// for a fault that struck *between* rows — an injected `kill-pe` or
/// `panic@`, both of which fire after `process_rows` returned — where that
/// state is consistent and the restore that follows ([`recover_set`]
/// flushes the writer first) round-trips it through disk, so the run stays
/// bit-identical to a fault-free one. If the write fails, recovery reads
/// the last durable generation instead.
fn submit_capture(pe: &mut PeCore) {
    if let Some(ckpt) = &pe.checkpoint {
        ckpt.submit(capture_pe(&mut pe.slots, &pe.inbox.metas));
    }
}

/// The PE's best durable generation, read behind its writer — what every
/// restart restores from: an operator's, the PE's, a respawned process's.
/// Degrading: a torn or bit-rotted generation file is quarantined aside and
/// the previous generation is used, never an error; that is reported and
/// counted here (PE-attributed to the first slot). `None` without a
/// checkpoint dir or a usable generation: the state in memory stands.
fn recover_set(pe: &PeCore) -> Option<checkpoint::SnapshotSet> {
    let recovery = pe.checkpoint.as_ref()?.recover();
    if recovery.quarantined > 0 || recovery.fell_back {
        eprintln!(
            "[supervisor] PE {} recovery degraded: {} file(s) quarantined, fell back to {}",
            pe.pe_index,
            recovery.quarantined,
            if recovery.set.is_some() {
                "an older generation"
            } else {
                "the state in memory"
            }
        );
        let counters = &pe.slots[0].counters;
        counters.add(Counter::QuarantinedSnapshots, recovery.quarantined);
        counters.add(Counter::IoFaults, recovery.quarantined.max(1));
    }
    recovery.set
}

/// Restores the PE's live members from a recovered set: all of them, or
/// `only` the one an operator-level restart is about. Parts naming no live
/// member (an operator finished since, a `__netlink` watermark) are
/// skipped; a blob its operator rejects leaves that operator as it is.
fn restore_members(slots: &mut [OpSlot], parts: &checkpoint::SnapshotSet, only: Option<usize>) {
    for (name, blob) in parts {
        let Some(i) = slots.iter().position(|s| &s.name == name && !s.finished) else {
            continue;
        };
        if only.is_some_and(|only| only != i) {
            continue;
        }
        if let Some(cp) = slots[i].op.checkpoint() {
            if let Err(e) = cp.restore(blob) {
                eprintln!(
                    "[supervisor] operator '{name}' failed to restore from the PE \
                     manifest ({e}); keeping its in-memory state"
                );
            }
        }
    }
}

/// Startup-time recovery for a respawned distributed worker: reads the
/// PE's manifest and presets the socket-link watermarks (`__netlink{id}`
/// parts) so the RESUME handshake asks each sender to skip what this PE
/// already consumed durably. The set is returned for [`restore_members`]
/// after the `on_start` hooks run.
fn recover_for_rehydrate(pe: &mut PeCore) -> Option<checkpoint::SnapshotSet> {
    let parts = recover_set(pe)?;
    for (name, blob) in &parts {
        let Some(Ok(link_id)) = name.strip_prefix("__netlink").map(str::parse::<u64>) else {
            continue;
        };
        let routed =
            match checkpoint::decode_kv(blob).and_then(|map| checkpoint::kv_u64(&map, "routed")) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!(
                        "[engine] PE {} netlink watermark {link_id} unreadable ({e}); \
                         the sender will replay that link from zero",
                        pe.pe_index
                    );
                    continue;
                }
            };
        for m in pe.inbox.metas.iter_mut() {
            if let Some(net) = m.net.as_ref().filter(|n| n.link_id == link_id) {
                net.link.preset(routed);
                m.routed = routed;
            }
        }
    }
    Some(parts)
}

/// The PE restart. Returns false when the restart budget is exhausted — the
/// PE is then wound down (EOS on every port) so the rest of the graph still
/// drains.
fn restart_pe(pe: &mut PeRuntime, clean: bool) -> bool {
    pe.pe_restarts += 1;
    let attempt = pe.pe_restarts;
    let pe = &mut pe.core;
    let (pe_index, policy) = (pe.pe_index, pe.policy);
    if attempt > policy.max_restarts {
        eprintln!(
            "[supervisor] PE {pe_index} exceeded {} restarts; winding it down",
            policy.max_restarts
        );
        for i in 0..pe.slots.len() {
            finish_op(pe, i);
        }
        drain_pending(pe);
        flush_all(&mut pe.slots);
        return false;
    }
    eprintln!(
        "[supervisor] PE {pe_index} died ({}); restarting (attempt {attempt})",
        if clean {
            "injected kill"
        } else {
            "escaped panic"
        }
    );
    std::thread::sleep(policy.backoff(attempt));

    // After an escaped panic the in-memory state is suspect, so recovery
    // reads the last *periodic* capture (loss bounded by the checkpoint
    // cadence); a clean kill persists its exact state first.
    if clean {
        submit_capture(pe);
    }
    if let Some(parts) = recover_set(pe) {
        restore_members(&mut pe.slots, &parts, None);
    }
    for s in pe.slots.iter() {
        s.counters.add(Counter::PeRestarts, 1);
    }
    true
}

/// End-of-stream on every out port of `idx` (local + remote), then the
/// channel senders are released so downstream PEs observe closure even if
/// they already stopped selecting the edge. Punctuation is urgent, so each
/// edge flushes any buffered data tuples ahead of its EOS.
fn punctuate(pe: &mut PeCore, idx: usize) {
    let mut sink = PeSink {
        out_ports: &mut pe.slots[idx].out_ports,
        queued: &mut pe.queued,
        stop: &pe.stop,
    };
    for p in 0..sink.out_ports.len() {
        sink.fan_out(p, Frame::push_eos, RemoteEdge::push_eos);
    }
    for p in pe.slots[idx].out_ports.iter_mut() {
        p.clear();
    }
}

/// One incarnation of the PE's scheduler loop; everything that must outlive
/// a panic is borrowed from [`PeRuntime`], nothing is owned here but index
/// scratch.
fn run_pe_once(pe: &mut PeRuntime) {
    let PeRuntime {
        core: pe,
        woken,
        owed_restart,
        last_ckpt_total,
        started,
        rehydrate,
        ..
    } = pe;

    // Periodic checkpoint cadence: the tightest cadence any member
    // operator asks for. A PE fed over the wire checkpoints at the default
    // cadence even when no member is checkpointable — its manifests carry
    // the netlink watermarks that let stable acks release the sender's
    // retransmit queue.
    let has_net = pe.inbox.metas.iter().any(|m| m.net.is_some());
    let cadence: Option<u64> = pe
        .slots
        .iter_mut()
        .filter(|s| !s.finished)
        .filter_map(|s| s.op.checkpoint())
        .map(|cp| cp.checkpoint_every().max(1))
        .min()
        .or(if has_net && pe.checkpoint.is_some() {
            Some(crate::checkpoint::DEFAULT_CHECKPOINT_EVERY)
        } else {
            None
        });

    if !*started {
        *started = true;
        for i in 0..pe.slots.len() {
            call(pe, i, Call::Start, |op, ctx, _| op.on_start(ctx));
        }
    }
    // Re-entry after a panic: the operator restart it left owed runs first,
    // then the tuples queued at the moment of death are delivered, before
    // any channel is touched. The steps below are each done once, so a
    // panic part-way through the first entry resumes where it stopped.
    if let Some((idx, retry, injected)) = owed_restart.take() {
        restart_op(pe, idx, retry, injected);
    }
    drain_pending(pe);

    // Distributed rehydrate: a respawned worker restores its operators
    // from the recovered manifest *after* their start hooks, mirroring
    // the restart_pe recovery order. Wire watermarks were preset before
    // the transport started accepting, so upstream replay begins
    // exactly where this state leaves off.
    if let Some(parts) = rehydrate.take() {
        restore_members(&mut pe.slots, &parts, None);
        drain_pending(pe);
    }

    // Operators with no inputs that aren't sources are trivially finished.
    for i in 0..pe.slots.len() {
        let s = &pe.slots[i];
        if !s.is_source && s.data_in_degree == 0 && s.ctrl_in_degree == 0 {
            finish_op(pe, i);
        }
    }
    drain_pending(pe);

    let source_idxs: Vec<usize> = (0..pe.slots.len())
        .filter(|&i| pe.slots[i].is_source)
        .collect();

    loop {
        let mut progressed = false;

        // 1. Drive live sources.
        for &i in &source_idxs {
            if pe.slots[i].finished {
                continue;
            }
            if pe.stop.load(Ordering::Relaxed) {
                finish_op(pe, i);
                drain_pending(pe);
                continue;
            }
            match call(pe, i, Call::Drive, |op, ctx, _| op.drive(ctx)) {
                SourceState::Emitted => progressed = true,
                SourceState::Idle => {}
                SourceState::Done => {
                    finish_op(pe, i);
                    progressed = true;
                }
            }
            drain_pending(pe);
        }

        let sources_alive = source_idxs.iter().any(|&i| !pe.slots[i].finished);

        // 2. Receive from cross-PE channels.
        if sources_alive {
            // Non-blocking frame sweep so sources keep producing.
            if sweep_channels(pe) {
                progressed = true;
            }
        } else {
            // No live sources: everything this PE will ever process now
            // arrives over its channels. Drain what is already buffered or
            // queued; only when that comes up empty, sleep until a producer
            // rings. Buffered output must be flushed before sleeping — a
            // stranded partial batch could be exactly what the upstream PE
            // is waiting for.
            flush_all(&mut pe.slots);
            if sweep_channels(pe) {
                progressed = true;
            } else if pe.inbox.metas.iter().any(|m| m.alive) {
                // A frame queued or a sender dropped since the sweep left
                // its ring behind, so this returns at once; on timeout,
                // fall through to the exit checks.
                let _ = woken.recv_timeout(Duration::from_millis(20));
            }
        }
        drain_pending(pe);

        // 3. Periodic checkpoint: once the PE has consumed a cadence worth
        //    of entries since the last snapshot set, capture a fresh
        //    consistent one and hand it to the writer. This sits between
        //    tuples (the local frames are drained), so the set is
        //    consistent by construction, and the engine pays for the
        //    capture only: the fsyncs run behind it.
        if let (Some(every), Some(ckpt)) = (cadence, pe.checkpoint.as_ref()) {
            let total = checkpoint_progress(&pe.slots, &pe.inbox.metas);
            if total.saturating_sub(*last_ckpt_total) >= ckpt.window(every) {
                *last_ckpt_total = total;
                ckpt.submit(capture_pe(&mut pe.slots, &pe.inbox.metas));
            }
        }

        // 4. Exit when everything is finished.
        if pe.slots.iter().all(|s| s.finished) {
            break;
        }
        // If nothing happened and no channel can ever deliver again, the
        // remaining unfinished ops can never finish through EOS (e.g. a
        // consumer fed only by a stopped peer that never wired EOS) —
        // finish them defensively rather than spinning forever.
        let channels_alive = pe.inbox.metas.iter().any(|c| c.alive);
        if !progressed && !sources_alive && !channels_alive {
            for i in 0..pe.slots.len() {
                if !pe.slots[i].finished {
                    finish_op(pe, i);
                }
            }
            drain_pending(pe);
        }
        if !progressed && sources_alive {
            // Idle sources: flush buffered output (nothing else will), then
            // yield briefly instead of spinning.
            flush_all(&mut pe.slots);
            std::thread::yield_now();
        }
    }

    // Terminal watermark flush: a PE fed over the wire persists its final
    // netlink watermarks so the stable acks cover everything it consumed —
    // without this, the peer's sender would hold its whole retransmit
    // queue at shutdown and exit with an unacked-tail warning. Flushed:
    // the peer's clean close is waiting for exactly this commit.
    if has_net {
        submit_capture(pe);
        if let Some(ckpt) = &pe.checkpoint {
            ckpt.writer.flush();
        }
    }
}

/// What the periodic-checkpoint cadence counts: every entry the PE's
/// members consumed, once. Data tuples show up in a member's `tuples_in`
/// however they arrived; control tuples and punctuation show up nowhere,
/// so the ones routed off socket-backed channels are added — a PE that
/// consumes only control traffic over the wire (a snapshot sink) must
/// still advance its link watermarks, or the senders' stable acks, and
/// their replay-queue pruning, stall until the terminal flush.
fn checkpoint_progress(slots: &[OpSlot], metas: &[ChanMeta]) -> u64 {
    let data: u64 = slots
        .iter()
        .map(|s| s.counters.tuples_in.load(Ordering::Relaxed))
        .sum();
    let wire_other: u64 = metas
        .iter()
        .filter(|m| m.net.is_some())
        .map(|m| m.routed_other)
        .sum();
    data + wire_other
}

/// Bounded, non-blocking sweep: round-robin passes over the live channels,
/// each routing what a channel holds next — a run of rows or one other
/// entry — until none has anything or one has routed [`SWEEP_TUPLES`]
/// entries. Interleaving at that grain keeps a per-tuple transport's
/// fairness to within a frame — fused control cycles rely on no channel
/// racing far ahead of its siblings — while channel synchronization is
/// still paid only once per frame. Returns true if anything was routed.
fn sweep_channels(pe: &mut PeCore) -> bool {
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
fn route_next(pe: &mut PeCore, src: Src, max: usize) -> Result<usize, TryRecvError> {
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
            (m.got_eos, m.alive) = (true, false);
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
    let (mut poison, mut panic_due, mut kill_pe_due) = (None, false, false);
    if slot.faults_armed() {
        n = 1;
        slot.fault_data_seen += 1;
        let seen = slot.fault_data_seen;
        for f in slot.faults.iter_mut().filter(|f| !f.fired) {
            match f.action {
                FaultAction::PoisonNan(n) if n == seen => poison = Some(f64::NAN),
                FaultAction::PoisonInf(n) if n == seen => poison = Some(f64::INFINITY),
                FaultAction::Stall { at, ms } if at == seen => {
                    std::thread::sleep(Duration::from_millis(ms))
                }
                FaultAction::PanicAfter(n) if n == seen => panic_due = true,
                FaultAction::KillPe(n) if n == seen => kill_pe_due = true,
                _ => continue,
            }
            f.fired = true;
        }
    }
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

fn on_disconnect(pe: &mut PeCore, ci: usize) {
    let m = &mut pe.inbox.metas[ci];
    m.alive = false;
    if !m.got_eos {
        // Upstream dropped without punctuating (stop/panic path): treat the
        // closure as end-of-stream so this PE can still drain and exit.
        m.got_eos = true;
        let (to, port) = (m.to_local, m.port);
        end_of_stream(pe, to, port);
    }
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

/// The operator restart, run by the re-entered loop: capped exponential
/// backoff, then a guarded `recover` call — the operator's consent to go
/// on. A consenting operator with durable state (a
/// [`Checkpoint`](crate::checkpoint::Checkpoint) facet, in a PE with a
/// checkpoint dir) is then restored from the PE manifest, the same copy a
/// PE restart reads: after a `clean` panic (the injected one, which left
/// its state whole) from a teardown capture of exactly that state, after a
/// real one from the last committed generation. It resumes, re-fed the
/// in-flight row once, as a run of one, from the frame it lies in (nothing
/// routes between the unwind and this); an operator that declines — or is
/// past its restart budget — is finished so end-of-stream still propagates
/// downstream.
fn restart_op(pe: &mut PeCore, idx: usize, retry: Option<RowAt>, clean: bool) {
    let attempt = pe.slots[idx].restart_attempts + 1;
    let policy = pe.policy;
    if attempt > policy.max_restarts {
        eprintln!(
            "[supervisor] operator '{}' exceeded {} restarts; finishing it",
            pe.slots[idx].name, policy.max_restarts
        );
        finish_op(pe, idx);
        return;
    }
    std::thread::sleep(policy.backoff(attempt));
    let durable = pe.checkpoint.is_some() && pe.slots[idx].op.checkpoint().is_some();
    // Before `recover`, which may reset the state it is asked about.
    if clean && durable {
        submit_capture(pe);
    }
    // recover() itself runs guarded: an operator that panics while
    // restoring is unrecoverable.
    let op = &mut pe.slots[idx].op;
    let recovered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op.recover(attempt)));
    match recovered {
        Ok(true) => {
            if durable {
                if let Some(parts) = recover_set(pe) {
                    restore_members(&mut pe.slots, &parts, Some(idx));
                }
            }
            pe.slots[idx].restart_attempts = attempt;
            pe.slots[idx].counters.add(Counter::Restarts, 1);
            // Redeliver the in-flight row exactly once: a row whose retry
            // panics again is a poison pill and is dropped.
            if let Some((src, r)) = retry {
                let seq = pe.inbox.cursor(src).frame.row(r).seq;
                if pe.slots[idx].last_redelivered != Some(seq) {
                    pe.slots[idx].last_redelivered = Some(seq);
                    call(pe, idx, Call::Refeed { src, r }, |op, ctx, inbox| {
                        let c = inbox.cursor(src);
                        op.process_rows(c.frame.rows(&Cell::new(r), r + 1), ctx)
                    });
                }
            }
        }
        _ => {
            eprintln!(
                "[supervisor] operator '{}' did not recover (attempt {attempt}); finishing it",
                pe.slots[idx].name
            );
            finish_op(pe, idx);
        }
    }
}

fn finish_op(pe: &mut PeCore, idx: usize) {
    if pe.slots[idx].finished {
        return;
    }
    call(pe, idx, Call::Finish, |op, ctx, _| op.on_finish(ctx));
    pe.slots[idx].finished = true;
    punctuate(pe, idx);
}

/// Routes the local frame until it and the entries queued meanwhile are
/// spent, in emission order.
fn drain_pending(pe: &mut PeCore) {
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
    use super::*;
    use crate::graph::{GraphBuilder, OpId};
    use crate::operator::{OpContext, Operator, SourceState};
    use crate::tuple::{DataTuple, Rows, Tuple};

    /// Source emitting `n` one-dimensional tuples then finishing.
    struct CountSource {
        n: u64,
        next: u64,
    }

    impl Operator for CountSource {
        fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
            if self.next >= self.n {
                return SourceState::Done;
            }
            let d = DataTuple::new(self.next, vec![self.next as f64]);
            self.next += 1;
            ctx.emit_row(0, d.row());
            SourceState::Emitted
        }
    }

    /// Terminal operator collecting sequence numbers.
    #[derive(Clone)]
    struct Collect {
        seen: Arc<Mutex<Vec<u64>>>,
    }

    impl Operator for Collect {
        fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
            lock(&self.seen).extend(rows.map(|row| row.seq));
        }
    }

    /// Pass-through doubling the value.
    struct Double;
    impl Operator for Double {
        fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
            for row in rows {
                let vals: Vec<f64> = row.values.iter().map(|v| v * 2.0).collect();
                ctx.emit_row(0, DataTuple::new(row.seq, vals).row());
            }
        }
    }

    fn pipeline(n: u64, fused: bool) -> (Vec<u64>, RunReport) {
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n, next: 0 }));
        let mid = g.add_op("double", Box::new(Double));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, mid, PortKind::Data);
        g.connect(mid, 0, sink, PortKind::Data);
        if fused {
            g.fuse(&[src, mid, sink]);
        }
        let report = Engine::run(g);
        let data = lock(&seen).clone();
        (data, report)
    }

    #[test]
    fn unfused_pipeline_delivers_everything_in_order() {
        let (seen, report) = pipeline(1000, false);
        assert_eq!(seen.len(), 1000);
        assert!(seen.windows(2).all(|w| w[1] == w[0] + 1), "order violated");
        assert_eq!(report.op("collect").unwrap().tuples_in, 1000);
        assert_eq!(report.op("src").unwrap().tuples_out, 1000);
        // Two cross-PE links carried traffic.
        assert_eq!(report.links.len(), 2);
        assert_eq!(report.links[0].tuples(), 1001); // + EOS
        assert_eq!(report.links[0].from, "src");
        assert_eq!(report.links[1].to, "collect");
    }

    #[test]
    fn fused_pipeline_has_no_links() {
        let (seen, report) = pipeline(500, true);
        assert_eq!(seen.len(), 500);
        assert!(report.links.is_empty());
        assert_eq!(report.op("double").unwrap().tuples_in, 500);
    }

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
    fn stop_terminates_infinite_source() {
        struct Forever(u64);
        impl Operator for Forever {
            fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
                self.0 += 1;
                ctx.emit_row(0, DataTuple::new(self.0, vec![0.0]).row());
                SourceState::Emitted
            }
        }
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("inf", Box::new(Forever(0)));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        let running = Engine::start(g);
        std::thread::sleep(Duration::from_millis(50));
        running.stop();
        let report = running.join();
        let n = lock(&seen).len() as u64;
        assert!(n > 0, "nothing flowed before stop");
        assert_eq!(report.op("collect").unwrap().tuples_in, n);
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

    #[test]
    fn each_pe_reports_its_members_and_the_cpu_its_thread_used() {
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 50_000, next: 0 }));
        let sink = g.add_op("collect", Box::new(Collect { seen }));
        g.connect(src, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        let members: Vec<&[String]> = report.pe_cpu.iter().map(|pe| &pe.members[..]).collect();
        assert_eq!(members, [["src"], ["collect"]]);
        let procfs = std::path::Path::new("/proc/thread-self/stat").exists();
        // CPU time is counted in 10 ms clock ticks.
        let wall = report.elapsed.as_secs_f64() + 0.01;
        for pe in &report.pe_cpu {
            assert_eq!(pe.cpu_s.is_some(), procfs, "{:?}", pe.members);
            let cpu = pe.cpu_s.unwrap_or(0.0);
            assert!(
                (0.0..=wall).contains(&cpu),
                "{:?}: {cpu} s of CPU in {wall} s",
                pe.members
            );
        }
    }

    #[test]
    fn cross_pe_link_accounts_bytes() {
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 10, next: 0 }));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        assert_eq!(report.links.len(), 1);
        // 10 data tuples (16 + 8 bytes each) + EOS (8).
        assert_eq!(report.links[0].bytes(), 10 * 24 + 8);
    }

    #[test]
    fn empty_graph_terminates() {
        let g = GraphBuilder::new();
        let report = Engine::run(g);
        assert!(report.ops.is_empty());
    }

    #[test]
    fn kill_pe_restarts_the_pe_without_losing_tuples() {
        // Kill the PE hosting `double` after its 50th tuple. The injected
        // kill fires between tuples, the PE rebuilds in place, and every
        // tuple still arrives exactly once, in order.
        let mut g = GraphBuilder::new()
            .with_fault_plan(crate::fault::FaultPlan::parse("kill-pe@double:50").unwrap());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 1000, next: 0 }));
        let mid = g.add_op("double", Box::new(Double));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, mid, PortKind::Data);
        g.connect(mid, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        let data = lock(&seen).clone();
        assert_eq!(data.len(), 1000, "kill-pe must not lose or duplicate");
        assert!(data.windows(2).all(|w| w[1] == w[0] + 1), "order violated");
        assert_eq!(report.op("double").unwrap().get(Counter::PeRestarts), 1);
        assert_eq!(report.op("src").unwrap().get(Counter::PeRestarts), 0);
        assert_eq!(report.total(Counter::PeRestarts), 1);
        // Operator-level restarts are a different counter and stay zero.
        assert_eq!(report.total(Counter::Restarts), 0);
    }

    #[test]
    fn kill_pe_in_fused_pe_counts_every_member() {
        let mut g = GraphBuilder::new()
            .with_fault_plan(crate::fault::FaultPlan::parse("kill-pe@double:10").unwrap());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 200, next: 0 }));
        let mid = g.add_op("double", Box::new(Double));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, mid, PortKind::Data);
        g.connect(mid, 0, sink, PortKind::Data);
        g.fuse(&[mid, sink]);
        let report = Engine::run(g);
        assert_eq!(lock(&seen).len(), 200);
        // Both fused members lived through the same PE restart.
        assert_eq!(report.op("double").unwrap().get(Counter::PeRestarts), 1);
        assert_eq!(report.op("collect").unwrap().get(Counter::PeRestarts), 1);
        assert_eq!(report.op("src").unwrap().get(Counter::PeRestarts), 0);
    }

    /// A source with a durable cursor: emits `0..n`, checkpointing `next`.
    /// On a dirty restart the cursor would rewind to the last snapshot; the
    /// `emitted` log records what actually went out.
    struct DurableSource {
        n: u64,
        next: u64,
        every: u64,
    }

    impl Operator for DurableSource {
        fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
            if self.next >= self.n {
                return SourceState::Done;
            }
            let d = DataTuple::new(self.next, vec![self.next as f64]);
            self.next += 1;
            ctx.emit_row(0, d.row());
            SourceState::Emitted
        }
        fn checkpoint(&mut self) -> Option<&mut dyn crate::checkpoint::Checkpoint> {
            Some(self)
        }
    }

    impl crate::checkpoint::Checkpoint for DurableSource {
        fn snapshot(&self) -> Vec<u8> {
            crate::checkpoint::encode_kv(&[("next", self.next.to_string())])
        }
        fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            let map = crate::checkpoint::decode_kv(bytes)?;
            self.next = crate::checkpoint::kv_u64(&map, "next")?;
            Ok(())
        }
        fn checkpoint_every(&self) -> u64 {
            self.every
        }
    }

    #[test]
    fn kill_pe_with_checkpoint_dir_round_trips_state_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "spca-engine-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Fault triggers count data tuples *delivered to* an operator, so
        // the kill targets `double` — fused with the source below, its PE
        // death tears the checkpointable source down with it.
        let mut g = GraphBuilder::new()
            .with_fault_plan(crate::fault::FaultPlan::parse("kill-pe@double:40").unwrap())
            .with_checkpoint_dir(&dir);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source(
            "src",
            Box::new(DurableSource {
                n: 500,
                next: 0,
                every: 25,
            }),
        );
        let mid = g.add_op("double", Box::new(Double));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, mid, PortKind::Data);
        g.connect(mid, 0, sink, PortKind::Data);
        // Fuse the source with `double` so killing the PE (triggered by
        // double's 40th tuple) also tears down the checkpointable source;
        // the clean kill persists `next` at teardown and restores it, so
        // the stream continues exactly where it left off.
        g.fuse(&[src, mid]);
        let report = Engine::run(g);
        let data = lock(&seen).clone();
        assert_eq!(data.len(), 500, "restored cursor must not skip or repeat");
        assert!(data.windows(2).all(|w| w[1] == w[0] + 1), "order violated");
        assert_eq!(report.op("src").unwrap().get(Counter::PeRestarts), 1);
        // The teardown generation is on disk, whole, and names the durable
        // source.
        let rec = crate::checkpoint::recover_pe_manifest(&dir, 0);
        assert_eq!((rec.quarantined, rec.fell_back), (0, false));
        let set = rec.set.expect("PE 0 wrote a generation");
        assert!(set.iter().any(|(name, _)| name == "src"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drive_panic_escalates_to_pe_restart_and_recovers_from_checkpoint() {
        // A source that panics in drive() once, at tuple 30. The PE-level
        // supervisor restores its cursor from the last periodic checkpoint
        // (cadence 10), so some tuples repeat but none are skipped.
        struct FlakySource {
            inner: DurableSource,
            panic_at: u64,
            panicked: bool,
        }
        impl Operator for FlakySource {
            fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
                if !self.panicked && self.inner.next == self.panic_at {
                    self.panicked = true;
                    panic!("flaky source");
                }
                self.inner.drive(ctx)
            }
            fn checkpoint(&mut self) -> Option<&mut dyn crate::checkpoint::Checkpoint> {
                Some(&mut self.inner)
            }
        }
        let dir = std::env::temp_dir().join(format!(
            "spca-engine-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = GraphBuilder::new().with_checkpoint_dir(&dir);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source(
            "src",
            Box::new(FlakySource {
                inner: DurableSource {
                    n: 100,
                    next: 0,
                    every: 10,
                },
                panic_at: 30,
                panicked: true,
            }),
        );
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        // First make sure the no-panic baseline works, then the panic run.
        let report = Engine::run(g);
        assert_eq!(lock(&seen).len(), 100);
        assert_eq!(report.total(Counter::PeRestarts), 0);

        let mut g = GraphBuilder::new().with_checkpoint_dir(&dir);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source(
            "src",
            Box::new(FlakySource {
                inner: DurableSource {
                    n: 100,
                    next: 0,
                    every: 10,
                },
                panic_at: 30,
                panicked: false,
            }),
        );
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        let data = lock(&seen).clone();
        assert_eq!(report.op("src").unwrap().get(Counter::PeRestarts), 1);
        // The cursor rewound to a checkpoint at or before tuple 30: every
        // value 0..100 is present (no loss), duplicates only inside the
        // rewind window.
        let mut uniq: Vec<u64> = data.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq, (0..100).collect::<Vec<u64>>(), "values lost");
        assert!(
            data.len() >= 100 && data.len() <= 100 + 30,
            "rewind window too large: {} tuples",
            data.len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pe_restart_budget_exhaustion_winds_the_pe_down() {
        // Every drive() call panics: the PE burns its restart budget and is
        // wound down; EOS still propagates so the run terminates.
        struct AlwaysPanics;
        impl Operator for AlwaysPanics {
            fn drive(&mut self, _ctx: &mut OpContext<'_>) -> SourceState {
                panic!("always");
            }
        }
        let mut g = GraphBuilder::new().with_restart_policy(crate::fault::RestartPolicy {
            max_restarts: 2,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("bad", Box::new(AlwaysPanics));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        assert!(lock(&seen).is_empty());
        assert_eq!(report.op("bad").unwrap().get(Counter::PeRestarts), 2);
    }

    /// A slot around `Swallow`, wired to nothing.
    fn lone_slot() -> OpSlot {
        OpSlot {
            name: "op".to_string(),
            op: Box::new(Swallow),
            counters: Arc::new(OpCounters::default()),
            out_ports: Vec::new(),
            is_source: false,
            data_in_degree: 1,
            ctrl_in_degree: 1,
            eos_data: 0,
            eos_ctrl: 0,
            finished: false,
            faults: Vec::new(),
            fault_data_seen: 0,
            restart_attempts: 0,
            last_redelivered: None,
        }
    }

    struct Swallow;
    impl Operator for Swallow {}

    /// A channel cursor feeding slot 0, socket-backed (stable acks) when
    /// `net` is given.
    fn cursor_into_slot_0(port: PortKind, net: Option<(&NetTransport, u64)>) -> ChanMeta {
        let (tx, rx) = frame_channel(1, None);
        let net = net.map(|(transport, link_id)| {
            let link = transport.add_incoming(link_id, tx, AckMode::Stable);
            NetIn { link_id, link }
        });
        ChanMeta {
            rx,
            to_local: 0,
            port,
            got_eos: false,
            alive: true,
            cur: Cursor::default(),
            routed: 0,
            routed_other: 0,
            net,
        }
    }

    /// Routes `tuples` off channel `ci` as if they had arrived in one frame.
    fn route_frame(pe: &mut PeCore, ci: usize, tuples: &[Tuple]) {
        pe.inbox.metas[ci].cur.reset(Frame::from_tuples(tuples));
        while !pe.inbox.metas[ci].cur.is_spent() {
            route_next(pe, Src::Chan(ci), SWEEP_TUPLES).unwrap();
        }
    }

    /// A PE of one `Swallow` slot fed by the given cursors.
    fn lone_pe(metas: Vec<ChanMeta>) -> PeCore {
        PeCore {
            slots: vec![lone_slot()],
            inbox: Inbox {
                metas,
                local: Cursor::default(),
                local_to: Vec::new(),
            },
            queued: LocalFrame::default(),
            stop: Arc::new(AtomicBool::new(false)),
            pe_index: 0,
            checkpoint: None,
            policy: RestartPolicy::default(),
            in_call: None,
        }
    }

    #[test]
    fn checkpoint_cadence_counts_each_delivered_entry_once() {
        let transport = NetTransport::bind("127.0.0.1:0").unwrap();
        let signal = || Tuple::Control(crate::tuple::ControlTuple::signal(7, 0));
        let datum = |seq| Tuple::Data(DataTuple::new(seq, vec![1.0]));

        // A data PE fed over a socket, with a little control traffic on a
        // second socket and a local channel beside them. Each wire tuple
        // used to count twice: once in the member's `tuples_in`, once in
        // the channel's `routed`.
        let mut pe = lone_pe(vec![
            cursor_into_slot_0(PortKind::Data, Some((&transport, 1))),
            cursor_into_slot_0(PortKind::Control, Some((&transport, 2))),
            cursor_into_slot_0(PortKind::Data, None),
        ]);
        for frame in (0..500).collect::<Vec<_>>().chunks(64) {
            route_frame(
                &mut pe,
                0,
                &frame.iter().map(|&s| datum(s)).collect::<Vec<_>>(),
            );
        }
        route_frame(&mut pe, 1, &[signal(), signal(), signal()]);
        route_frame(&mut pe, 2, &(500..520).map(datum).collect::<Vec<_>>());
        assert_eq!(pe.inbox.metas[0].routed, 500);
        assert_eq!(
            checkpoint_progress(&pe.slots, &pe.inbox.metas),
            523,
            "500 wire data + 3 wire control + 20 local data, each once"
        );

        // A PE that consumes nothing but control traffic over the wire
        // still advances — by exactly what it consumed — so its link
        // watermarks move before the terminal flush.
        let mut pe = lone_pe(vec![cursor_into_slot_0(
            PortKind::Control,
            Some((&transport, 3)),
        )]);
        route_frame(&mut pe, 0, &vec![signal(); 40]);
        assert_eq!(pe.slots[0].counters.snapshot().tuples_in, 0);
        assert_eq!(checkpoint_progress(&pe.slots, &pe.inbox.metas), 40);
        transport.shutdown();
    }

    #[test]
    fn a_failed_write_behind_leaves_the_watermark_and_counts_a_skip() {
        use crate::vfs::{FaultVfs, IoFaultSpec};
        let transport = NetTransport::bind("127.0.0.1:0").unwrap();
        let capture = |link: &Arc<LinkIn>, routed: u64| Capture {
            parts: vec![("op".to_string(), routed.to_string().into_bytes())],
            watermarks: vec![(Arc::clone(link), routed)],
        };
        let durability = |tag: &str, spec: IoFaultSpec| {
            let dir =
                std::env::temp_dir().join(format!("spca_engine_wb_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let ckpt =
                PeCheckpointer::new_with_vfs(&dir, 0, Arc::new(FaultVfs::new(spec))).unwrap();
            let counters = Arc::new(OpCounters::default());
            (
                PeDurability::new(ckpt, 0, Arc::clone(&counters)),
                counters,
                dir,
            )
        };

        // Every fsync fails: nothing commits, so nothing is acknowledged.
        let sick = cursor_into_slot_0(PortKind::Data, Some((&transport, 1)));
        let link = &sick.net.as_ref().unwrap().link;
        let (d, counters, dir) = durability(
            "sick",
            IoFaultSpec {
                fsync_err: true,
                ..IoFaultSpec::default()
            },
        );
        d.submit(Some(capture(link, 7)));
        d.writer.flush();
        assert_eq!(link.stable(), 0, "an uncommitted capture must not be acked");
        let seen = counters.snapshot();
        assert_eq!(seen.get(Counter::CheckpointSkips), 1);
        assert_eq!(seen.get(Counter::IoFaults), 1);
        assert_eq!(d.window(10), 20, "one failure doubles the window");
        assert!(d.recover().set.is_none());
        drop(d);
        std::fs::remove_dir_all(&dir).unwrap();

        // The same capture on a healthy disk: committed, then acked.
        let well = cursor_into_slot_0(PortKind::Data, Some((&transport, 2)));
        let link = &well.net.as_ref().unwrap().link;
        let (d, counters, dir) = durability("well", IoFaultSpec::default());
        d.submit(Some(capture(link, 7)));
        assert_eq!(
            d.recover().set.unwrap()[0].1,
            b"7".to_vec(),
            "recover reads only behind the writer"
        );
        assert_eq!(link.stable(), 7);
        assert_eq!(counters.snapshot().get(Counter::CheckpointSkips), 0);
        assert_eq!(d.window(10), 10);
        drop(d);
        std::fs::remove_dir_all(&dir).unwrap();
        transport.shutdown();
    }

    #[test]
    fn a_degraded_rehydrate_is_counted_like_a_degraded_restart() {
        // Two generations on disk, the newest torn: a respawned worker's
        // rehydrate falls back to the older one, and the damage shows in
        // the run's counters.
        let dir = std::env::temp_dir().join(format!("spca_engine_rehy_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ckpt = PeCheckpointer::new(&dir, 0).unwrap();
        for state in ["one", "two"] {
            ckpt.write(&[("op".to_string(), state.as_bytes().to_vec())])
                .unwrap();
        }
        let newest = dir.join("pe0-g2.ckpt");
        let whole = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &whole[..whole.len() / 2]).unwrap();

        let mut pe = lone_pe(Vec::new());
        let counters = Arc::clone(&pe.slots[0].counters);
        pe.checkpoint = Some(PeDurability::new(ckpt, 0, Arc::clone(&counters)));
        let parts = recover_for_rehydrate(&mut pe).expect("an older generation is whole");
        assert_eq!(parts, vec![("op".to_string(), b"one".to_vec())]);
        let seen = counters.snapshot();
        assert_eq!(seen.get(Counter::QuarantinedSnapshots), 1);
        assert_eq!(seen.get(Counter::IoFaults), 1);
        drop(pe);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_generation_sealed_by_the_fnv_codec_is_counted_and_the_pe_starts_fresh() {
        // The only generation on disk is whole but carries the magic of the
        // FNV-1a-sealed codec: it degrades like a torn one.
        let dir = std::env::temp_dir().join(format!("spca_engine_fnv_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old = b"spca-pe-generation-v1 305ba6a45be158d5\npe 0\ngen 1\npart 3 op\nend\none";
        std::fs::write(dir.join("pe0-g1.ckpt"), old).unwrap();
        let ckpt = PeCheckpointer::new(&dir, 0).unwrap();

        let mut pe = lone_pe(Vec::new());
        let counters = Arc::clone(&pe.slots[0].counters);
        pe.checkpoint = Some(PeDurability::new(ckpt, 0, Arc::clone(&counters)));
        assert!(
            recover_for_rehydrate(&mut pe).is_none(),
            "nothing to restore"
        );
        let seen = counters.snapshot();
        assert_eq!(seen.get(Counter::QuarantinedSnapshots), 1);
        assert_eq!(seen.get(Counter::IoFaults), 1);
        assert!(dir.join("pe0-g1.ckpt.corrupt-1").exists());
        drop(pe);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn isolated_non_source_terminates() {
        let mut g = GraphBuilder::new();
        struct Nop;
        impl Operator for Nop {}
        let _id: OpId = g.add_op("lonely", Box::new(Nop));
        let report = Engine::run(g);
        assert_eq!(report.ops.len(), 1);
    }
}
