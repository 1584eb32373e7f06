//! Operator-level restart reads the PE checkpoint — the same durable copy a
//! PE restart and a respawned worker read. These tests drive a consenting,
//! checkpointable operator through the supervisor's panic path and pin
//! what it is restored from: the teardown capture after an injected panic,
//! the previous generation when that capture is damaged, the last periodic
//! generation after a real mid-`process_rows` panic.

use spca_streams::checkpoint::{decode_kv, encode_kv, kv_u64};
use spca_streams::metrics::Counter;
use spca_streams::ops::{CollectSink, GeneratorSource};
use spca_streams::{
    lock, Checkpoint, Engine, FaultPlan, GraphBuilder, OpContext, Operator, PortKind,
    RestartPolicy, Rows, RunReport,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// "No restore happened yet" in [`Probe::restored_seen`].
const NEVER: u64 = u64::MAX;

/// What the test can see of a [`Tally`] from outside the graph.
#[derive(Default)]
struct Probe {
    /// The operator's count when the run ended.
    seen: AtomicU64,
    /// The count the last `restore` installed.
    restored_seen: AtomicU64,
}

/// Forwards data tuples and counts them. The count is its durable state;
/// it consents to supervised restarts and, like the PCA operator, comes
/// out of `recover` reset — whatever it resumes with, the supervisor
/// restored.
struct Tally {
    seen: u64,
    every: u64,
    /// Panics once, inside `process_rows`, before counting this row.
    panic_on_call: Option<u64>,
    calls: u64,
    probe: Arc<Probe>,
}

impl Operator for Tally {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            self.calls += 1;
            if self.panic_on_call == Some(self.calls) {
                panic!("tally failing inside process_rows on call {}", self.calls);
            }
            self.seen += 1;
            ctx.emit_row(0, row);
        }
    }

    fn on_finish(&mut self, _ctx: &mut OpContext<'_>) {
        self.probe.seen.store(self.seen, Ordering::SeqCst);
    }

    fn recover(&mut self, _attempt: u64) -> bool {
        self.seen = 0;
        true
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

impl Checkpoint for Tally {
    fn snapshot(&self) -> Vec<u8> {
        encode_kv(&[("seen", self.seen.to_string())])
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.seen = kv_u64(&decode_kv(bytes)?, "seen")?;
        self.probe.restored_seen.store(self.seen, Ordering::SeqCst);
        Ok(())
    }

    fn checkpoint_every(&self) -> u64 {
        self.every
    }
}

struct Outcome {
    report: RunReport,
    probe: Arc<Probe>,
}

/// Runs `src → tally → sink` (three PEs; only the tally's ever writes a
/// checkpoint) over `n` tuples with a checkpoint dir and the given plan,
/// and checks the stream itself: every tuple delivered exactly once.
fn run(tag: &str, plan: &str, n: u64, every: u64, panic_on_call: Option<u64>) -> Outcome {
    let dir = std::env::temp_dir().join(format!("spca_oprestart_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let probe = Arc::new(Probe::default());
    probe.restored_seen.store(NEVER, Ordering::SeqCst);
    let mut g = GraphBuilder::new()
        .with_restart_policy(RestartPolicy {
            max_restarts: 8,
            backoff_base: Duration::from_micros(10),
            backoff_cap: Duration::from_millis(1),
        })
        .with_batch_size(8)
        .with_checkpoint_dir(&dir);
    if !plan.is_empty() {
        g = g.with_fault_plan(FaultPlan::parse(plan).unwrap());
    }
    let src = g.add_source(
        "src",
        Box::new(
            GeneratorSource::new(|seq, values, _| {
                values.push(seq as f64);
                true
            })
            .with_max_tuples(n),
        ),
    );
    let tally = g.add_op(
        "tally",
        Box::new(Tally {
            seen: 0,
            every,
            panic_on_call,
            calls: 0,
            probe: Arc::clone(&probe),
        }),
    );
    let (sink, store) = CollectSink::new();
    let out = g.add_op("sink", Box::new(sink));
    g.connect(src, 0, tally, PortKind::Data);
    g.connect(tally, 0, out, PortKind::Data);
    let report = Engine::run(g);

    let seqs: Vec<u64> = lock(&store).iter().map(|t| t.seq).collect();
    assert_eq!(seqs, (0..n).collect::<Vec<_>>(), "{tag}: each seq once");
    std::fs::remove_dir_all(&dir).ok();
    Outcome { report, probe }
}

/// A cadence no run here reaches: the only generations on disk are the
/// teardown captures, so the write indices of a plan are exact.
const NO_PERIODIC: u64 = 1_000_000;

#[test]
fn injected_panic_round_trips_the_exact_state_through_the_manifest() {
    // Off any cadence: the teardown capture, not a periodic one, is what
    // keeps the count whole.
    let o = run("clean", "panic@tally:205", 300, NO_PERIODIC, None);
    assert_eq!(o.report.op("tally").unwrap().get(Counter::Restarts), 1);
    assert_eq!(o.probe.restored_seen.load(Ordering::SeqCst), 205);
    assert_eq!(o.probe.seen.load(Ordering::SeqCst), 300);
    assert_eq!(o.report.total(Counter::IoFaults), 0);
}

#[test]
fn torn_teardown_capture_falls_back_to_the_previous_generation() {
    // A generation is one PE-checkpoint write. Generation 1 (write 1) is
    // the first panic's teardown capture; generation 2 (write 2) is the
    // second's, and lands torn. The restart quarantines it and restores
    // generation 1: 100 counted, then the 95 tuples after #205.
    let plan = "panic@tally:100,panic@tally:205,io-torn@pe:2";
    let o = run("torn", plan, 300, NO_PERIODIC, None);
    assert_eq!(o.report.op("tally").unwrap().get(Counter::Restarts), 2);
    assert_eq!(o.probe.restored_seen.load(Ordering::SeqCst), 100);
    assert_eq!(o.probe.seen.load(Ordering::SeqCst), 195);
    assert!(
        o.report.total(Counter::QuarantinedSnapshots) >= 1,
        "{:?}",
        o.report
    );
    assert!(o.report.total(Counter::IoFaults) >= 1);
}

#[test]
fn failing_fsync_leaves_nothing_to_restore_and_the_run_completes() {
    // No write ever commits: the teardown capture is a counted skip, the
    // restart finds no generation and the operator goes on from `recover`.
    let o = run(
        "fsync",
        "panic@tally:205,io-fsync-err",
        300,
        NO_PERIODIC,
        None,
    );
    assert_eq!(o.report.op("tally").unwrap().get(Counter::Restarts), 1);
    assert_eq!(o.probe.restored_seen.load(Ordering::SeqCst), NEVER);
    assert_eq!(o.probe.seen.load(Ordering::SeqCst), 95);
    assert!(o.report.total(Counter::CheckpointSkips) >= 1);
    assert!(o.report.total(Counter::IoFaults) >= 1);
}

#[test]
fn mid_process_panic_restores_the_last_periodic_generation_and_redelivers_once() {
    // A real panic inside `process_rows`: the state in memory is suspect, so no
    // teardown capture — the restart reads the last periodic generation
    // (which one depends on how the captures coalesced, but the first
    // sweep ends by tuple 256, so one exists before call 400) and loses
    // the count since. The in-flight tuple is re-fed once: `run` saw every
    // seq exactly once, #399 included.
    let (n, panic_call) = (600, 400);
    let o = run("midprocess", "", n, 10, Some(panic_call));
    assert_eq!(o.report.op("tally").unwrap().get(Counter::Restarts), 1);
    let restored = o.probe.restored_seen.load(Ordering::SeqCst);
    assert!(
        (10..panic_call).contains(&restored),
        "restored from a periodic generation, got {restored}"
    );
    assert_eq!(
        o.probe.seen.load(Ordering::SeqCst),
        restored + (n - (panic_call - 1))
    );
}
