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
//! This module wires the graph and owns the run. One module per decision
//! does the rest: `sched`, `route`, `supervise`, `durability` and `report`.
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

mod durability;
mod report;
mod route;
mod sched;
mod supervise;

pub use report::{LinkReport, PeCpu, RunReport};

use crate::fault::FaultTarget;
use crate::graph::{GraphBuilder, PortKind};
use crate::metrics::{MetricsRegistry, OpCounters, OpSnapshot};
use crate::netio::{AckMode, NetTransport, INBOUND_FRAMES};
use crate::tuple::{frame_channel, wake};
use route::{ChanMeta, Cursor, Inbox, LocalFrame, NetIn, RemoteEdge, Target};
use sched::{OpSlot, PeCore, PeRuntime};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
                faults: plan.op_faults(&entry.name).into_iter().map(Some).collect(),
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
                    // sender waits on the channel itself. A process of a
                    // distributed run holds `INBOUND_FRAMES` full frames'
                    // worth of tuples per channel (DESIGN §12, flow
                    // control). A channel the transport feeds is bounded
                    // there: its receiver then stops reading, and the TCP
                    // window holds the sender. Any other channel holds its
                    // producer there but reads full only at the capacity,
                    // so a split never sheds; held only on the way into a
                    // sender, the backlog moved to the channel in front.
                    let cap = builder.channel_capacity;
                    let wire = cap.min(INBOUND_FRAMES * batch);
                    let (cap, hold) = match (from_here, partition.is_some()) {
                        (false, _) => (wire, wire),
                        (true, true) => (cap, wire),
                        (true, false) => (cap, cap),
                    };
                    let (tx, rx) = frame_channel(cap, hold, to_here.then(|| wakes[to_pe].clone()));
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
                        p.net.add_outgoing(eid as u64, rx, peer, batch);
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
        let respawned = partition.as_ref().is_some_and(|p| p.rehydrate);
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
                checkpoint: None,
                policy,
                in_call: None,
            };
            durability::open(&mut core, checkpoint_dir.as_deref(), &vfs, respawned);
            let pe = PeRuntime {
                core,
                woken,
                pe_restarts: 0,
                owed_restart: None,
                started: false,
            };
            let members = pes[pe_index].iter().map(|&g| op_names[g].clone());
            let thread = std::thread::Builder::new()
                .name("spca-pe".to_string())
                .spawn(move || {
                    supervise::run_pe(pe);
                    report::thread_cpu_s()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{OpContext, Operator, SourceState};
    use crate::tuple::{DataTuple, Rows};
    use crate::watched::lock;
    use std::sync::Mutex;

    /// Source emitting `n` one-dimensional tuples then finishing.
    pub(super) struct CountSource {
        pub(super) n: u64,
        pub(super) next: u64,
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
    pub(super) struct Collect {
        pub(super) seen: Arc<Mutex<Vec<u64>>>,
    }

    impl Operator for Collect {
        fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
            lock(&self.seen).extend(rows.map(|row| row.seq));
        }
    }

    /// Pass-through doubling the value.
    pub(super) struct Double;
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

    /// A source with a durable cursor: emits `0..n`, checkpointing `next`.
    /// On a dirty restart the cursor would rewind to the last snapshot; the
    /// `emitted` log records what actually went out.
    pub(super) struct DurableSource {
        pub(super) n: u64,
        pub(super) next: u64,
        pub(super) every: u64,
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
    fn empty_graph_terminates() {
        let g = GraphBuilder::new();
        let report = Engine::run(g);
        assert!(report.ops.is_empty());
    }
}
