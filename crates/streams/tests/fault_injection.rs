//! Integration tests of deterministic fault injection and supervised
//! operator restart: the fault plan reproduces the same failure at the
//! same tuple every run, the supervisor bounds data loss to the declared
//! fault window, and end-of-stream always propagates — a dead operator
//! never wedges the graph.

use spca_streams::metrics::Counter;
use spca_streams::ops::{CollectSink, GeneratorSource};
use spca_streams::{
    lock, Checkpoint, ControlTuple, DataTuple, Engine, FaultPlan, GraphBuilder, OpContext,
    Operator, PortKind, RestartPolicy, Rows, RunReport, SourceState,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn counting_source(n: u64) -> Box<dyn Operator> {
    Box::new(
        GeneratorSource::new(|seq, values, _| {
            values.push(seq as f64);
            true
        })
        .with_max_tuples(n),
    )
}

/// A restart policy with near-zero backoff so tests stay fast.
fn fast_policy(max_restarts: u64) -> RestartPolicy {
    RestartPolicy {
        max_restarts,
        backoff_base: Duration::from_micros(10),
        backoff_cap: Duration::from_millis(1),
    }
}

fn op_snapshot(report: &RunReport, name: &str) -> spca_streams::metrics::OpSnapshot {
    report
        .ops
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no op '{name}' in report"))
        .1
}

/// Forwards data tuples, panicking every `every`-th call *before* the
/// forward (so the in-flight tuple is unprocessed and must be redelivered).
/// State survives the unwind because the supervisor restarts the same
/// instance.
struct Flaky {
    every: u64,
    seen: u64,
    recoverable: bool,
}

impl Operator for Flaky {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            self.seen += 1;
            if self.every > 0 && self.seen.is_multiple_of(self.every) {
                panic!("flaky operator failing on call {}", self.seen);
            }
            ctx.emit_row(0, row);
        }
    }

    fn recover(&mut self, _attempt: u64) -> bool {
        self.recoverable
    }
}

/// Forwards data tuples; `recover` always succeeds (state is trivially
/// intact). Used to exercise plan-injected panics.
struct RecoveringForward;

impl Operator for RecoveringForward {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            ctx.emit_row(0, row);
        }
    }

    fn recover(&mut self, _attempt: u64) -> bool {
        true
    }
}

/// Forwards data tuples with the default (declining) `recover`.
struct Forward;

impl Operator for Forward {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            ctx.emit_row(0, row);
        }
    }
}

#[test]
fn supervised_restart_is_loss_bounded() {
    // 100 tuples through an operator that panics on every 10th call.
    // Each panicked tuple is redelivered after recovery, so the run is
    // loss-free: calls c satisfy c - c/10 = 100 → 111 calls, 11 panics.
    let mut g = GraphBuilder::new().with_restart_policy(fast_policy(32));
    let src = g.add_source("src", counting_source(100));
    let flaky = g.add_op(
        "flaky",
        Box::new(Flaky {
            every: 10,
            seen: 0,
            recoverable: true,
        }),
    );
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, flaky, PortKind::Data);
    g.connect(flaky, 0, out, PortKind::Data);
    let report = Engine::run(g);

    let collected = lock(&store);
    assert_eq!(collected.len(), 100, "no tuple may be lost to a restart");
    let mut seqs: Vec<u64> = collected.iter().map(|t| t.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..100).collect::<Vec<_>>(), "each seq exactly once");
    assert_eq!(op_snapshot(&report, "flaky").get(Counter::Restarts), 11);
    assert_eq!(report.total(Counter::Restarts), 11);
}

#[test]
fn unrecoverable_operator_finishes_and_eos_propagates() {
    // Default recover() declines: the first panic finishes the operator,
    // EOS reaches the sink, and the run terminates instead of wedging.
    let mut g = GraphBuilder::new().with_restart_policy(fast_policy(8));
    let src = g.add_source("src", counting_source(100));
    let flaky = g.add_op(
        "flaky",
        Box::new(Flaky {
            every: 10,
            seen: 0,
            recoverable: false,
        }),
    );
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, flaky, PortKind::Data);
    g.connect(flaky, 0, out, PortKind::Data);
    let report = Engine::run(g);

    assert_eq!(lock(&store).len(), 9, "nine forwards before the fatal call");
    assert_eq!(op_snapshot(&report, "flaky").get(Counter::Restarts), 0);
}

#[test]
fn restart_budget_caps_supervision() {
    // every = 3 with a budget of 2: panics on calls 3, 6 (restarted), 9
    // (budget exceeded → finished). Forwards = 9 calls - 3 panics = 6.
    let mut g = GraphBuilder::new().with_restart_policy(fast_policy(2));
    let src = g.add_source("src", counting_source(100));
    let flaky = g.add_op(
        "flaky",
        Box::new(Flaky {
            every: 3,
            seen: 0,
            recoverable: true,
        }),
    );
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, flaky, PortKind::Data);
    g.connect(flaky, 0, out, PortKind::Data);
    let report = Engine::run(g);

    assert_eq!(lock(&store).len(), 6);
    assert_eq!(op_snapshot(&report, "flaky").get(Counter::Restarts), 2);
}

#[test]
fn injected_panic_fires_after_the_tuple_is_processed() {
    // A plan-injected panic deliberately fires *after* process_rows() returns:
    // tuple 30 is already forwarded when the operator dies, so with a
    // declining recover() exactly 30 tuples arrive.
    let mut g = GraphBuilder::new()
        .with_restart_policy(fast_policy(8))
        .with_fault_plan(FaultPlan::parse("panic@fwd:30").unwrap());
    let src = g.add_source("src", counting_source(100));
    let fwd = g.add_op("fwd", Box::new(Forward));
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, fwd, PortKind::Data);
    g.connect(fwd, 0, out, PortKind::Data);
    let report = Engine::run(g);

    assert_eq!(lock(&store).len(), 30);
    assert_eq!(op_snapshot(&report, "fwd").get(Counter::Restarts), 0);
}

#[test]
fn injected_panic_with_recovery_loses_nothing() {
    let mut g = GraphBuilder::new()
        .with_restart_policy(fast_policy(8))
        .with_fault_plan(FaultPlan::parse("panic@fwd:30").unwrap());
    let src = g.add_source("src", counting_source(100));
    let fwd = g.add_op("fwd", Box::new(RecoveringForward));
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, fwd, PortKind::Data);
    g.connect(fwd, 0, out, PortKind::Data);
    let report = Engine::run(g);

    let collected = lock(&store);
    assert_eq!(collected.len(), 100);
    let mut seqs: Vec<u64> = collected.iter().map(|t| t.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    assert_eq!(op_snapshot(&report, "fwd").get(Counter::Restarts), 1);
}

/// Forwards data tuples but panics on seq `poison` every time it is fed;
/// `recover` always consents.
struct PoisonPill {
    poison: u64,
}

impl Operator for PoisonPill {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            assert_ne!(row.seq, self.poison, "poison pill");
            ctx.emit_row(0, row);
        }
    }

    fn recover(&mut self, _attempt: u64) -> bool {
        true
    }
}

#[test]
fn a_tuple_that_panics_on_redelivery_is_dropped_as_a_poison_pill() {
    // Seq 42 panics, is redelivered once after the first restart, panics
    // again, and is dropped after the second: every other tuple arrives,
    // and the PE itself never restarts.
    let mut g = GraphBuilder::new().with_restart_policy(fast_policy(8));
    let src = g.add_source("src", counting_source(100));
    let op = g.add_op("op", Box::new(PoisonPill { poison: 42 }));
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, op, PortKind::Data);
    g.connect(op, 0, out, PortKind::Data);
    let report = Engine::run(g);

    let mut seqs: Vec<u64> = lock(&store).iter().map(|t| t.seq).collect();
    seqs.sort_unstable();
    let expected: Vec<u64> = (0..100).filter(|&s| s != 42).collect();
    assert_eq!(seqs, expected);
    assert_eq!(op_snapshot(&report, "op").get(Counter::Restarts), 2);
    assert_eq!(report.total(Counter::PeRestarts), 0);
}

/// Forwards data tuples; panics in `on_start` or `on_finish`.
struct HookPanicker {
    in_start: bool,
}

impl Operator for HookPanicker {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            ctx.emit_row(0, row);
        }
    }

    fn on_start(&mut self, _ctx: &mut OpContext<'_>) {
        if self.in_start {
            panic!("start hook failure");
        }
    }

    fn on_finish(&mut self, _ctx: &mut OpContext<'_>) {
        if !self.in_start {
            panic!("finish hook failure");
        }
    }
}

/// Collects data sequence numbers and notes end-of-stream.
struct EosSink {
    seqs: Arc<std::sync::Mutex<Vec<u64>>>,
    ended: Arc<AtomicBool>,
}

impl Operator for EosSink {
    fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
        for row in rows {
            lock(&self.seqs).push(row.seq);
        }
    }

    fn on_finish(&mut self, _ctx: &mut OpContext<'_>) {
        self.ended.store(true, Ordering::SeqCst);
    }
}

/// Runs src → `op` (a [`HookPanicker`]) → sink over 100 tuples, with `op`
/// fused with the source or not; returns the report, what the sink got and
/// whether its end-of-stream arrived.
fn run_hook_panic(in_start: bool, fused: bool) -> (RunReport, Vec<u64>, bool) {
    let seqs = Arc::new(std::sync::Mutex::new(Vec::new()));
    let ended = Arc::new(AtomicBool::new(false));
    let mut g = GraphBuilder::new().with_restart_policy(fast_policy(8));
    let src = g.add_source("src", counting_source(100));
    let op = g.add_op("op", Box::new(HookPanicker { in_start }));
    let out = g.add_op(
        "sink",
        Box::new(EosSink {
            seqs: Arc::clone(&seqs),
            ended: Arc::clone(&ended),
        }),
    );
    g.connect(src, 0, op, PortKind::Data);
    g.connect(op, 0, out, PortKind::Data);
    if fused {
        g.fuse(&[src, op]);
    }
    let report = Engine::run(g);
    let got = lock(&seqs).clone();
    (report, got, ended.load(Ordering::SeqCst))
}

#[test]
fn a_start_hook_panic_restarts_the_pe_and_finishes_the_operator() {
    // The hook cannot be re-run: its operator is finished without it, so
    // nothing reaches the sink, and the run still terminates.
    for fused in [true, false] {
        let (report, got, ended) = run_hook_panic(true, fused);
        assert!(
            got.is_empty(),
            "fused={fused}: {} tuples got through",
            got.len()
        );
        assert!(ended, "fused={fused}: end-of-stream must still arrive");
        assert_eq!(op_snapshot(&report, "op").get(Counter::PeRestarts), 1);
        assert_eq!(report.total(Counter::Restarts), 0);
    }
}

#[test]
fn a_finish_hook_panic_restarts_the_pe_and_end_of_stream_still_arrives() {
    for fused in [true, false] {
        let (report, got, ended) = run_hook_panic(false, fused);
        assert_eq!(got, (0..100).collect::<Vec<_>>(), "fused={fused}");
        assert!(ended, "fused={fused}: end-of-stream must still arrive");
        assert_eq!(op_snapshot(&report, "op").get(Counter::PeRestarts), 1);
        assert_eq!(report.total(Counter::Restarts), 0);
    }
}

#[test]
fn stall_loses_nothing() {
    // A slow edge is a stalled consumer: the rows behind it arrive late
    // but in order.
    let mut g = GraphBuilder::new().with_fault_plan(FaultPlan::parse("stall@fwd:20:2").unwrap());
    let src = g.add_source("src", counting_source(100));
    let fwd = g.add_op("fwd", Box::new(Forward));
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, fwd, PortKind::Data);
    g.connect(fwd, 0, out, PortKind::Data);
    Engine::run(g);

    let collected = lock(&store);
    assert_eq!(collected.len(), 100, "a stall must not lose tuples");
    let seqs: Vec<u64> = collected.iter().map(|t| t.seq).collect();
    assert_eq!(seqs, (0..100).collect::<Vec<_>>(), "order preserved");
}

#[test]
fn poison_faults_rewrite_the_named_payloads() {
    let mut g = GraphBuilder::new()
        .with_fault_plan(FaultPlan::parse("poison-nan@fwd:5,poison-inf@fwd:7").unwrap());
    let src = g.add_source("src", counting_source(100));
    let fwd = g.add_op("fwd", Box::new(Forward));
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, fwd, PortKind::Data);
    g.connect(fwd, 0, out, PortKind::Data);
    Engine::run(g);

    let collected = lock(&store);
    assert_eq!(collected.len(), 100, "poisoning corrupts, never drops");
    for t in collected.iter() {
        match t.seq {
            4 => assert!(t.values.iter().all(|v| v.is_nan()), "5th tuple is NaN"),
            6 => assert!(
                t.values.iter().all(|v| *v == f64::INFINITY),
                "7th tuple is Inf"
            ),
            s => assert_eq!(t.values[0], s as f64, "others untouched"),
        }
    }
}

/// Emits a single control tuple, then finishes.
struct OneShotControl {
    sent: bool,
}

impl Operator for OneShotControl {
    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if self.sent {
            return SourceState::Done;
        }
        self.sent = true;
        ctx.emit_control(0, ControlTuple::new(7, 0, Arc::new(())));
        SourceState::Emitted
    }
}

/// Emits `n` counting tuples, holding the last one back until `gate` is
/// raised — so the stream's end-of-stream cannot overtake whatever raises it.
struct GatedSource {
    n: u64,
    next: u64,
    gate: Arc<AtomicBool>,
}

impl Operator for GatedSource {
    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if self.next == self.n {
            return SourceState::Done;
        }
        if self.next + 1 == self.n && !self.gate.load(Ordering::SeqCst) {
            return SourceState::Idle;
        }
        ctx.emit_row(0, DataTuple::new(self.next, vec![self.next as f64]).row());
        self.next += 1;
        SourceState::Emitted
    }
}

/// Forwards data; panics on every control tuple, raising `delivered`
/// first; recovery succeeds.
struct ControlPanicker {
    delivered: Arc<AtomicBool>,
}

impl Operator for ControlPanicker {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            ctx.emit_row(0, row);
        }
    }
    fn on_control(&mut self, _t: ControlTuple, _ctx: &mut OpContext<'_>) {
        self.delivered.store(true, Ordering::SeqCst);
        panic!("control handler failure");
    }
    fn recover(&mut self, _attempt: u64) -> bool {
        true
    }
}

#[test]
fn control_panic_recovers_without_redelivery() {
    // A panic in on_control restarts the operator but the control tuple is
    // NOT redelivered (a missed sync command is just a skipped sync): one
    // restart, every data tuple still arrives. A control tuple that arrives
    // after the data port's end-of-stream is dropped by design, so the data
    // stream stays open until the control tuple has been delivered.
    let delivered = Arc::new(AtomicBool::new(false));
    let mut g = GraphBuilder::new().with_restart_policy(fast_policy(8));
    let src = g.add_source(
        "src",
        Box::new(GatedSource {
            n: 10,
            next: 0,
            gate: Arc::clone(&delivered),
        }),
    );
    let ctrl = g.add_source("ctrl", Box::new(OneShotControl { sent: false }));
    let op = g.add_op("op", Box::new(ControlPanicker { delivered }));
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, op, PortKind::Data);
    g.connect(ctrl, 0, op, PortKind::Control);
    g.connect(op, 0, out, PortKind::Data);
    let report = Engine::run(g);

    assert_eq!(lock(&store).len(), 10);
    assert_eq!(op_snapshot(&report, "op").get(Counter::Restarts), 1);
}

#[test]
#[should_panic(expected = "fault plan targets unknown operator")]
fn unknown_op_target_panics_at_start() {
    let mut g = GraphBuilder::new().with_fault_plan(FaultPlan::parse("panic@nonesuch:1").unwrap());
    let src = g.add_source("src", counting_source(5));
    let (sink, _store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, out, PortKind::Data);
    Engine::run(g);
}

/// Forwards data tuples while keeping a durable tuple count; `restore`
/// additionally raises a flag so tests can prove the disk round-trip ran.
struct DurableCounter {
    seen: u64,
    restored: Arc<AtomicBool>,
}

impl Operator for DurableCounter {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            self.seen += 1;
            ctx.emit_row(0, row);
        }
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

impl Checkpoint for DurableCounter {
    fn snapshot(&self) -> Vec<u8> {
        spca_streams::checkpoint::encode_kv(&[("seen", self.seen.to_string())])
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let map = spca_streams::checkpoint::decode_kv(bytes)?;
        self.seen = spca_streams::checkpoint::kv_u64(&map, "seen")?;
        self.restored.store(true, Ordering::SeqCst);
        Ok(())
    }
}

#[test]
fn kill_pe_mid_graph_rehydrates_and_loses_nothing() {
    // src (PE 0) → [counter, fused fwd] (PE 1) → sink (PE 2): the killed PE
    // sits between two cross-PE frame channels. The clean kill tears down
    // both fused operators, writes a teardown manifest, and rehydrates the
    // checkpointable one from disk; the frame channels on either side must
    // neither lose nor duplicate in-flight tuples.
    let dir = std::env::temp_dir().join(format!("spca_killpe_it_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let restored = Arc::new(AtomicBool::new(false));
    let mut g = GraphBuilder::new()
        .with_restart_policy(fast_policy(8))
        .with_fault_plan(FaultPlan::parse("kill-pe@ctr:40").unwrap())
        .with_checkpoint_dir(&dir);
    let src = g.add_source("src", counting_source(100));
    let ctr = g.add_op(
        "ctr",
        Box::new(DurableCounter {
            seen: 0,
            restored: Arc::clone(&restored),
        }),
    );
    let fwd = g.add_op("fwd", Box::new(Forward));
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, ctr, PortKind::Data);
    g.connect(ctr, 0, fwd, PortKind::Data);
    g.connect(fwd, 0, out, PortKind::Data);
    g.fuse(&[ctr, fwd]);
    let report = Engine::run(g);

    let collected = lock(&store);
    assert_eq!(collected.len(), 100, "a PE restart must not lose tuples");
    let mut seqs: Vec<u64> = collected.iter().map(|t| t.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..100).collect::<Vec<_>>(), "each seq exactly once");
    assert!(
        restored.load(Ordering::SeqCst),
        "the counter must be rehydrated from the PE manifest"
    );
    // Only the killed PE's members count the restart; operator-level
    // supervision never fired.
    assert_eq!(op_snapshot(&report, "ctr").get(Counter::PeRestarts), 1);
    assert_eq!(op_snapshot(&report, "fwd").get(Counter::PeRestarts), 1);
    assert_eq!(op_snapshot(&report, "src").get(Counter::PeRestarts), 0);
    assert_eq!(op_snapshot(&report, "sink").get(Counter::PeRestarts), 0);
    assert_eq!(report.total(Counter::PeRestarts), 2);
    assert_eq!(report.total(Counter::Restarts), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_pe_without_checkpoint_dir_still_finishes_loss_free() {
    // With no checkpoint dir the supervisor cannot round-trip state through
    // disk, but a clean kill unwinds between tuples with the operator boxes
    // intact in memory — the rebuilt PE continues from that state and the
    // run still completes without loss.
    let mut g = GraphBuilder::new()
        .with_restart_policy(fast_policy(8))
        .with_fault_plan(FaultPlan::parse("kill-pe@fwd:25").unwrap());
    let src = g.add_source("src", counting_source(100));
    let fwd = g.add_op("fwd", Box::new(Forward));
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, fwd, PortKind::Data);
    g.connect(fwd, 0, out, PortKind::Data);
    let report = Engine::run(g);

    let collected = lock(&store);
    assert_eq!(collected.len(), 100);
    let mut seqs: Vec<u64> = collected.iter().map(|t| t.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..100).collect::<Vec<_>>());
    assert_eq!(op_snapshot(&report, "fwd").get(Counter::PeRestarts), 1);
}

/// Like [`DurableCounter`] but checkpointing every 10 tuples, so short
/// runs exercise many periodic checkpoint attempts.
struct EagerCounter {
    seen: u64,
    restored: Arc<AtomicBool>,
}

impl Operator for EagerCounter {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            self.seen += 1;
            ctx.emit_row(0, row);
        }
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

impl Checkpoint for EagerCounter {
    fn snapshot(&self) -> Vec<u8> {
        spca_streams::checkpoint::encode_kv(&[("seen", self.seen.to_string())])
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let map = spca_streams::checkpoint::decode_kv(bytes)?;
        self.seen = spca_streams::checkpoint::kv_u64(&map, "seen")?;
        self.restored.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn checkpoint_every(&self) -> u64 {
        10
    }
}

/// Builds src → ctr(EagerCounter) → sink with a checkpoint dir and the
/// given fault plan, runs it, and asserts the stream itself survived:
/// every tuple delivered (duplicates tolerated only if `exact` is
/// false), no operator-level restarts escaped the persistence layer.
fn run_disk_fault_matrix(
    tag: &str,
    plan: &str,
    n: u64,
    exact: bool,
) -> (RunReport, Arc<AtomicBool>) {
    let dir = std::env::temp_dir().join(format!("spca_diskfault_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let restored = Arc::new(AtomicBool::new(false));
    // Small batches so the periodic-checkpoint check runs often enough
    // for the backoff schedule to get several attempts within `n` tuples.
    let mut g = GraphBuilder::new()
        .with_restart_policy(fast_policy(8))
        .with_batch_size(8)
        .with_fault_plan(FaultPlan::parse(plan).unwrap())
        .with_checkpoint_dir(&dir);
    let src = g.add_source("src", counting_source(n));
    let ctr = g.add_op(
        "ctr",
        Box::new(EagerCounter {
            seen: 0,
            restored: Arc::clone(&restored),
        }),
    );
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, ctr, PortKind::Data);
    g.connect(ctr, 0, out, PortKind::Data);
    let report = Engine::run(g);

    let collected = lock(&store);
    let mut seqs: Vec<u64> = collected.iter().map(|t| t.seq).collect();
    seqs.sort_unstable();
    if exact {
        assert_eq!(
            seqs,
            (0..n).collect::<Vec<_>>(),
            "{tag}: each seq exactly once"
        );
    } else {
        seqs.dedup();
        assert_eq!(
            seqs,
            (0..n).collect::<Vec<_>>(),
            "{tag}: each seq at least once"
        );
    }
    assert_eq!(
        report.total(Counter::Restarts),
        0,
        "{tag}: a disk fault must never escalate into an operator panic"
    );
    std::fs::remove_dir_all(&dir).ok();
    (report, restored)
}

#[test]
fn enospc_skips_the_checkpoint_and_the_run_completes() {
    // The first PE-checkpoint write hits ENOSPC: that periodic checkpoint
    // is skipped (counted, window backed off) and later ones succeed —
    // the stream itself never notices.
    let (report, _) = run_disk_fault_matrix("enospc", "io-enospc@pe:1", 300, true);
    assert!(report.total(Counter::CheckpointSkips) >= 1);
    assert!(report.total(Counter::IoFaults) >= 1);
    assert_eq!(report.total(Counter::QuarantinedSnapshots), 0);
}

#[test]
fn fsync_failure_degrades_to_skips_never_a_panic() {
    // Every fsync fails, so every periodic checkpoint attempt fails. The
    // PE keeps running, backing its checkpoint window off each time, and
    // the run finishes loss-free with the failures visible as counters.
    let (report, _) = run_disk_fault_matrix("fsync", "io-fsync-err", 300, true);
    assert!(
        report.total(Counter::CheckpointSkips) >= 1,
        "every checkpoint attempt fails, so at least one skip: {report:?}"
    );
    assert_eq!(
        report.total(Counter::IoFaults),
        report.total(Counter::CheckpointSkips)
    );
}

#[test]
fn dead_device_mid_run_degrades_to_skips() {
    // The device dies a few operations in (io-crash): whatever checkpoint
    // was in flight fails, and so does every attempt after it. The run
    // still completes loss-free.
    let (report, _) = run_disk_fault_matrix("crash", "io-crash@op:4", 300, true);
    assert!(report.total(Counter::CheckpointSkips) >= 1);
    assert!(report.total(Counter::IoFaults) >= 1);
}

#[test]
fn kill_pe_with_torn_checkpoints_quarantines_and_still_delivers() {
    // Every PE-checkpoint write lands torn (half its bytes), then the PE
    // is killed: rehydration finds only damaged generations, quarantines
    // them to *.corrupt-N, and degrades to a restart without restored
    // state — the frame channels still deliver every tuple.
    let torn: Vec<String> = (1..=60).map(|w| format!("io-torn@pe:{w}")).collect();
    let plan = format!("kill-pe@ctr:40,{}", torn.join(","));
    let (report, restored) = run_disk_fault_matrix("torn", &plan, 100, false);
    assert!(
        report.total(Counter::QuarantinedSnapshots) >= 1,
        "torn manifests must be quarantined at recovery: {report:?}"
    );
    assert!(report.total(Counter::IoFaults) >= 1);
    assert!(report.total(Counter::PeRestarts) >= 1);
    assert!(
        !restored.load(Ordering::SeqCst),
        "nothing valid on disk: restore must not have run"
    );
}
