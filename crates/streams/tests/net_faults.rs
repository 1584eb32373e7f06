//! Engine-level wire-fault tests: a two-partition run split across two
//! in-process [`NetTransport`]s, with faults injected through the fault
//! grammar (`FaultPlan::parse` → `wire_spec` → `set_faults` inside
//! `Engine::start_in_partition`) rather than by poking the transport
//! directly. Asserts exactly-once redelivery: the delivered stream is
//! bit-identical to the fault-free run even when the wire drops the
//! connection or lands a partial write mid-stream — or when the consuming
//! partition dies with a checkpoint captured but not committed.

use spca_streams::checkpoint::{decode_kv, kv_u64, recover_pe_manifest, Checkpoint};
use spca_streams::metrics::Counter;
use spca_streams::{
    lock, DataTuple, Engine, FaultPlan, GraphBuilder, NetPartition, NetTransport, OpContext,
    Operator, PortKind, Rows, SourceState,
};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

const N: u64 = 400;

/// Delivered tuples as `(seq, timestamp_ns, value bit patterns)`.
type SeenLog = Arc<Mutex<Vec<(u64, u64, Vec<u64>)>>>;

struct CountSource {
    next: u64,
    /// `(n, path)`: after `n` tuples, idle until `path` exists.
    hold: Option<(u64, PathBuf)>,
}

impl Operator for CountSource {
    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if self.next >= N {
            return SourceState::Done;
        }
        if let Some((at, path)) = &self.hold {
            if self.next == *at && !path.exists() {
                return SourceState::Idle;
            }
        }
        // Irregular payloads so a replayed-but-mutated tuple can't hide
        // behind a round value.
        let x = (self.next as f64 * 0.7311).sin() * 1e3;
        let mut t = DataTuple::new(self.next, vec![x, -x, x * 1e-9]);
        t.timestamp_ns = self.next * 13 + 5;
        ctx.emit_row(0, t.row());
        self.next += 1;
        SourceState::Emitted
    }
}

struct Collect {
    seen: SeenLog,
}

impl Operator for Collect {
    fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
        for row in rows {
            lock(&self.seen).push((
                row.seq,
                row.timestamp_ns,
                row.values.iter().map(|v| v.to_bits()).collect(),
            ));
        }
    }
}

/// Runs `src → sink` split across two transports on loopback — `src` in
/// partition A (whose outgoing wire carries `plan`'s faults), `sink` in
/// partition B — and returns the delivered tuples in arrival order.
fn run_two_partitions(plan: Option<&str>) -> Vec<(u64, u64, Vec<u64>)> {
    let seen = Arc::new(Mutex::new(Vec::new()));

    // Both partitions build the identical graph; partition membership
    // alone decides which PEs each side actually spawns.
    let build = |seen: &SeenLog| {
        let mut g = GraphBuilder::new().with_batch_size(16);
        let src = g.add_source(
            "src",
            Box::new(CountSource {
                next: 0,
                hold: None,
            }),
        );
        let sink = g.add_op(
            "sink",
            Box::new(Collect {
                seen: Arc::clone(seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        g
    };

    let net_a = NetTransport::bind("127.0.0.1:0").expect("bind a");
    let net_b = NetTransport::bind("127.0.0.1:0").expect("bind b");

    let mut g_a = build(&seen);
    if let Some(spec) = plan {
        g_a = g_a.with_fault_plan(FaultPlan::parse(spec).expect("parse plan"));
    }
    let part_a = NetPartition {
        local_ops: HashSet::from(["src".to_string()]),
        net: Arc::clone(&net_a),
        peers: HashMap::from([(0, net_b.local_addr())]),
        rehydrate: false,
    };
    let part_b = NetPartition {
        local_ops: HashSet::from(["sink".to_string()]),
        net: Arc::clone(&net_b),
        peers: HashMap::new(),
        rehydrate: false,
    };

    let run_b = Engine::start_in_partition(build(&seen), part_b);
    let run_a = Engine::start_in_partition(g_a, part_a);
    run_a.join();
    run_b.join();

    Arc::try_unwrap(seen)
        .expect("engines joined")
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Wire faults must be invisible in the delivered stream: same tuples,
/// same order, same bits — nothing lost, nothing duplicated, nothing
/// reordered by the reconnect/replay machinery.
#[test]
fn delivery_under_wire_faults_is_bit_identical() {
    let clean = run_two_partitions(None);
    assert_eq!(clean.len() as u64, N, "fault-free run lost tuples");
    for (i, (seq, _, _)) in clean.iter().enumerate() {
        assert_eq!(*seq, i as u64, "fault-free run out of order");
    }

    for plan in [
        "net-drop-conn@link:1",
        "net-partial-write@link:2",
        "net-drop-conn@link:1, net-partial-write@link:3",
    ] {
        let faulted = run_two_partitions(Some(plan));
        assert_eq!(
            faulted, clean,
            "{plan}: delivered stream differs from the fault-free run"
        );
    }
}

/// [`Collect`] with its log as checkpointable state, so a rehydrated sink
/// holds exactly the tuples its checkpoint covers.
struct DurableCollect(Collect);

impl Operator for DurableCollect {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        self.0.process_rows(rows, ctx);
    }
    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

impl Checkpoint for DurableCollect {
    fn snapshot(&self) -> Vec<u8> {
        let mut out = String::new();
        for (seq, stamp, bits) in lock(&self.0.seen).iter() {
            out.push_str(&format!("{seq} {stamp}"));
            for b in bits {
                out.push_str(&format!(" {b:x}"));
            }
            out.push('\n');
        }
        out.into_bytes()
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad sink log");
        let text = std::str::from_utf8(bytes).map_err(|_| bad())?;
        let mut log = Vec::new();
        for line in text.lines() {
            let mut it = line.split(' ');
            let mut dec = || {
                it.next()
                    .and_then(|t| t.parse::<u64>().ok())
                    .ok_or_else(bad)
            };
            let (seq, stamp) = (dec()?, dec()?);
            let bits = it
                .map(|t| u64::from_str_radix(t, 16).map_err(|_| bad()))
                .collect::<Result<_, _>>()?;
            log.push((seq, stamp, bits));
        }
        *lock(&self.0.seen) = log;
        Ok(())
    }

    fn checkpoint_every(&self) -> u64 {
        25
    }
}

/// Ack ⇒ durable, under write-behind. The consuming partition's disk dies
/// in the middle of its second generation's write — that capture, and
/// every later one, is taken but never committed — and then the partition
/// itself goes, with the whole stream consumed in memory. The sender may
/// have forgotten only what the one *committed* generation covers: a respawn
/// on the same address, rehydrated from the directory, must be replayed
/// everything after it and end up with the fault-free stream.
#[test]
fn consumer_lost_between_capture_and_commit_is_replayed_from_the_last_commit() {
    let clean = run_two_partitions(None);
    let dir = std::env::temp_dir().join(format!("spca_netfault_wb_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let build = |seen: &SeenLog| {
        let mut g = GraphBuilder::new().with_batch_size(16);
        // The stream pauses after 100 tuples until the consumer's first
        // generation is committed.
        let src = g.add_source(
            "src",
            Box::new(CountSource {
                next: 0,
                hold: Some((100, dir.join("pe1-g1.ckpt"))),
            }),
        );
        let sink = g.add_op(
            "sink",
            Box::new(DurableCollect(Collect {
                seen: Arc::clone(seen),
            })),
        );
        g.connect(src, 0, sink, PortKind::Data);
        g
    };
    let consumer = |net: &Arc<NetTransport>, rehydrate| NetPartition {
        local_ops: HashSet::from(["sink".to_string()]),
        net: Arc::clone(net),
        peers: HashMap::new(),
        rehydrate,
    };

    // First incarnation. A generation is one file, five disk operations
    // (create, write, fsync, rename, fsync_dir), so generation 1 is
    // operations 1-5 and operation 7 is generation 2's write — before its
    // rename, the commit: the generation the source waits for commits,
    // none after it. However the later captures coalesce, there is a
    // second write — at the latest the terminal capture, which is flushed.
    let net_b = NetTransport::bind("127.0.0.1:0").expect("bind b");
    let addr_b = net_b.local_addr();
    let lost: SeenLog = Arc::new(Mutex::new(Vec::new()));
    let doomed = build(&lost)
        .with_checkpoint_dir(&dir)
        .with_fault_plan(FaultPlan::parse("io-crash@op:7").expect("plan"));
    let run_b = Engine::start_in_partition(doomed, consumer(&net_b, false));

    let net_a = NetTransport::bind("127.0.0.1:0").expect("bind a");
    let unused: SeenLog = Arc::new(Mutex::new(Vec::new()));
    let producer = NetPartition {
        local_ops: HashSet::from(["src".to_string()]),
        net: Arc::clone(&net_a),
        peers: HashMap::from([(0, addr_b)]),
        rehydrate: false,
    };
    let run_a = Engine::start_in_partition(build(&unused), producer);

    // The sink sees the stream end and its partition drains: everything it
    // holds beyond the committed generation dies with it.
    let report = run_b.join();
    drop(net_b); // frees the address
    assert_eq!(lock(&lost).len() as u64, N);
    assert!(
        report.total(Counter::CheckpointSkips) >= 1,
        "the captures after the device died must have failed: {report:?}"
    );

    // What is on disk is the committed generation, short of the stream.
    let committed = recover_pe_manifest(&dir, 1)
        .set
        .expect("the first generation committed");
    let (_, mark) = committed
        .iter()
        .find(|(name, _)| name == "__netlink0")
        .expect("the link watermark is part of the set");
    let routed = kv_u64(&decode_kv(mark).unwrap(), "routed").unwrap();
    assert!(
        (25..=100).contains(&routed),
        "committed watermark {routed}: a cadence at least, at most what was sent by then"
    );

    // The respawn: same address, healthy disk, rehydrating.
    let net_b = NetTransport::bind(&addr_b.to_string()).expect("rebind b");
    let seen: SeenLog = Arc::new(Mutex::new(Vec::new()));
    let run_b = Engine::start_in_partition(
        build(&seen).with_checkpoint_dir(&dir),
        consumer(&net_b, true),
    );
    run_a.join();
    // A sender that was acknowledged something uncommitted has said its
    // goodbye by now and the respawn waits for data nobody holds: fail,
    // rather than hang, on that.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !run_b.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "the respawn is still waiting for a replay: {} of {N} tuples",
            lock(&seen).len()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    run_b.join();

    let delivered = lock(&seen).clone();
    assert_eq!(
        delivered, clean,
        "replay from the last committed generation must reproduce the fault-free stream"
    );
    std::fs::remove_dir_all(&dir).ok();
}
