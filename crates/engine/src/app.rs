//! Application builder: assembles the paper's Fig. 2 analysis graph.
//!
//! `source → split → n × StreamingPca`, with the synchronization
//! controller wired straight to every engine's control port (it paces
//! itself at `sync_period`, where the paper puts SPL's throttle operator,
//! §III-B) and listening to every engine's monitor port, peer-state edges
//! forming the full mesh (the [`SyncStrategy`] picks a command's
//! receivers, not the edges), monitor ports collected into a
//! [`ResultsHub`], and an optional per-tuple outcome feed. There is
//! one wiring: a run that loses an engine, a run that rescales and a run
//! that does neither are the same graph. It has one source, the data: the
//! controller is ticked by the engine reports it listens to and finishes
//! when the last engine's monitor edge closes.
//!
//! Placement mirrors §III-D's two configurations: `fuse = true` puts every
//! operator in one processing element (the "single" rows of Fig. 6 —
//! in-memory tuple hand-off), while `fuse = false` gives each engine its
//! own PE behind a frame channel (the "distributed" rows; with
//! [`crate::distributed`] those PEs are other processes and the same edges
//! are sockets).

use crate::messages::{PeerState, KIND_SNAPSHOT};
use crate::pca_operator::StreamingPcaOp;
use crate::results::ResultsHub;
use crate::sync::{SyncController, SyncStrategy};
use spca_core::{PcaConfig, RobustPca};
use spca_streams::ops::{CallbackSink, CollectSink, Split, SplitStrategy};
use spca_streams::{ActiveSet, DataTuple, FaultPlan, GraphBuilder, Operator, PortKind};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of the parallel streaming-PCA application.
#[derive(Clone)]
pub struct AppConfig {
    /// Number of parallel PCA engines.
    pub n_engines: usize,
    /// PCA algorithm configuration (shared by every engine).
    pub pca: PcaConfig,
    /// Load-balancing strategy of the split.
    pub split: SplitStrategy,
    /// Synchronization topology.
    pub sync: SyncStrategy,
    /// Pacing of synchronization commands (paper: 0.5 s).
    pub sync_period: Duration,
    /// Emit an eigensystem snapshot every `n` processed tuples per engine
    /// (0 = final snapshot only).
    pub snapshot_every: u64,
    /// Collect the per-tuple outcome feed (`[seq, r², t, w, outlier]`).
    pub emit_outcomes: bool,
    /// Fuse everything into one PE (single-node configuration).
    pub fuse: bool,
    /// Cross-PE channel capacity in tuples. The default is 1024, or for
    /// wide observations what fits [`EDGE_BYTES`]: a full queue of
    /// d = 1000 rows would otherwise pin 8 MB per edge.
    pub channel_capacity: usize,
    /// Cross-PE transport batch size (tuples per frame); `1` disables
    /// batching. See [`GraphBuilder::with_batch_size`]. A frame closes at
    /// [`FRAME_BYTES`] if that comes first.
    pub batch_size: usize,
    /// Persist every engine snapshot under this directory (§III-C's
    /// periodic saves); `None` disables persistence.
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Warm-start every engine from this eigensystem (e.g. read back with
    /// [`crate::persist::read_snapshot`]); engines skip warm-up.
    pub warm_start: Option<spca_core::EigenSystem>,
    /// Data-driven sync gate: engines share state only when their basis
    /// has drifted at least this far (subspace distance) from the last
    /// peer state they received. `None` = share whenever the `1.5·N`
    /// observation gate passes.
    pub divergence_gate: Option<f64>,
    /// Deterministic fault plan threaded into the dataflow engine (see
    /// [`FaultPlan::parse`]); targets must use operator names — run user
    /// specs through [`normalize_fault_targets`] first so `engine1` means
    /// `pca-1`.
    pub faults: Option<FaultPlan>,
    /// When set, every PE keeps its snapshot manifest under `<dir>/pe` —
    /// the one durable copy of each stateful operator (source cursor,
    /// split, engines, sync controller). Every restart restores from it:
    /// a panicked engine (see [`StreamingPcaOp::with_recovery`]), a killed
    /// PE, a respawned worker process. PEs checkpoint every
    /// [`spca_streams::DEFAULT_CHECKPOINT_EVERY`] tuples.
    pub recovery_dir: Option<std::path::PathBuf>,
    /// An engine the sync controller has not heard from for this long
    /// counts as dead: skipped as a sender, dropped as a receiver (a ring
    /// re-closes around it), re-admitted at its next heartbeat.
    pub liveness_timeout: Duration,
    /// Engines heartbeat to the sync controller every `n` processed tuples.
    pub heartbeat_every: u64,
    /// Serving layer: when set, every engine publishes epoch-numbered
    /// eigensystem snapshots into this store (see
    /// [`StreamingPcaOp::with_epoch_store`]) so HTTP query handlers can
    /// read the live estimate without holding up the update path.
    pub epoch_store: Option<Arc<crate::epoch::EpochStore>>,
    /// Snapshot publication cadence in processed tuples per engine
    /// (0 = only on initialization, merges, and finish).
    pub publish_every: u64,
    /// Elastic autoscaling ceiling: when set, the builder provisions this
    /// many engines up front but only the first `n_engines` start active —
    /// the rest idle as standbys until an [`crate::autoscale`] supervisor
    /// admits them through the shared [`ActiveSet`]. The mesh port map
    /// does not depend on membership, so an admitted engine joins without
    /// rewiring.
    pub max_engines: Option<usize>,
}

/// What a default-capacity cross-PE queue may hold (DESIGN §6). 1 MiB is
/// 128 rows at d = 1000, milliseconds of engine work; counted in tuples
/// alone, resident memory swings by 8 MB per edge with whichever side of
/// the edge happens to be the bottleneck.
pub const EDGE_BYTES: usize = 1 << 20;

/// Largest transport frame: past 64 KiB the channel wake-up a frame
/// amortizes is noise, and a frame is the unit an edge fills and drains in.
pub const FRAME_BYTES: usize = 64 << 10;

/// Wire size of one complete `dim`-pixel observation (its share of
/// `Frame::wire_bytes`).
fn row_bytes(dim: usize) -> usize {
    16 + 8 * dim
}

impl AppConfig {
    /// Defaults mirroring the paper's performance setup: random split,
    /// ring sync at 0.5 s, distributed placement.
    pub fn new(n_engines: usize, pca: PcaConfig) -> Self {
        let channel_capacity =
            (EDGE_BYTES / row_bytes(pca.dim)).clamp(spca_streams::DEFAULT_BATCH_SIZE, 1024);
        AppConfig {
            n_engines,
            pca,
            split: SplitStrategy::Random,
            sync: SyncStrategy::Ring,
            sync_period: Duration::from_millis(500),
            snapshot_every: 0,
            emit_outcomes: false,
            fuse: false,
            channel_capacity,
            batch_size: spca_streams::DEFAULT_BATCH_SIZE,
            snapshot_dir: None,
            warm_start: None,
            divergence_gate: None,
            faults: None,
            recovery_dir: None,
            liveness_timeout: Duration::from_millis(100),
            heartbeat_every: crate::pca_operator::HEARTBEAT_EVERY,
            epoch_store: None,
            publish_every: 64,
            max_engines: None,
        }
    }
}

/// Rewrites user-facing fault targets (`engine<k>`) to the graph's
/// operator names (`pca-<k>`), leaving everything else — other operator
/// names like `split` — untouched.
pub fn normalize_fault_targets(plan: FaultPlan) -> FaultPlan {
    plan.rename_targets(|name| {
        if let Some(k) = name.strip_prefix("engine") {
            if k.parse::<u32>().is_ok() {
                return format!("pca-{k}");
            }
        }
        name.to_string()
    })
}

/// Handles into a built application.
pub struct AppHandles {
    /// Snapshot hub (latest per-engine eigensystems, merged estimate).
    pub hub: ResultsHub,
    /// Outcome feed storage, when `emit_outcomes` was set.
    pub outcomes: Option<Arc<Mutex<Vec<DataTuple>>>>,
    /// Live handles to each engine's PCA state (one per *provisioned*
    /// engine, standbys included).
    pub engine_states: Vec<Arc<Mutex<RobustPca>>>,
    /// Shared membership handle: an autoscaler flips it, the split and
    /// sync controller obey it. A fixed fleet is one nobody moves.
    pub active: Arc<ActiveSet>,
}

/// Builder for the complete application graph.
pub struct ParallelPcaApp;

impl ParallelPcaApp {
    /// Assembles the graph around the given data source. Returns the
    /// builder (run it with [`spca_streams::Engine`]) and the handles.
    pub fn build(cfg: &AppConfig, source: Box<dyn Operator>) -> (GraphBuilder, AppHandles) {
        Self::build_with_gate(cfg, source, None)
    }

    /// Like [`ParallelPcaApp::build`], with an explicit override of the
    /// engines' synchronization gate (observations required between state
    /// shares) — used by the gate ablation bench.
    pub fn build_with_gate(
        cfg: &AppConfig,
        source: Box<dyn Operator>,
        sync_gate: Option<u64>,
    ) -> (GraphBuilder, AppHandles) {
        assert!(cfg.n_engines >= 1, "need at least one engine");
        // The ceiling is provisioned up front; membership (which prefix
        // of the fleet is live) is the only thing that changes at runtime,
        // so the topology stays static while the fleet does not.
        let n = cfg.max_engines.unwrap_or(0).max(cfg.n_engines);
        let active = ActiveSet::new(cfg.n_engines, n);
        // A lone engine, or a fleet told not to synchronize, has nobody to
        // exchange state with: no controller, no peer ports, no heartbeats.
        let synced = n > 1 && !matches!(cfg.sync, SyncStrategy::None);
        let mut g = GraphBuilder::new()
            .with_channel_capacity(cfg.channel_capacity)
            .with_batch_size(
                cfg.batch_size
                    .min((FRAME_BYTES / row_bytes(cfg.pca.dim)).max(1)),
            );
        if let Some(ref plan) = cfg.faults {
            g = g.with_fault_plan(plan.clone());
        }
        if let Some(ref dir) = cfg.recovery_dir {
            g = g.with_checkpoint_dir(dir.join("pe"));
        }

        let src = g.add_source("source", source);
        let split_op = Split::new(cfg.split, Arc::clone(&active));
        let split = g.add_op("split", Box::new(split_op));
        g.connect(src, 0, split, PortKind::Data);

        // Engines. The peer-state ports are a full mesh whatever the sync
        // strategy: the controller decides receivers at command time
        // (survivors only), so every pair needs a port.
        let n_peers = if synced { n - 1 } else { 0 };
        let mut engine_ids = Vec::with_capacity(n);
        let mut engine_states = Vec::with_capacity(n);
        for i in 0..n {
            let mut op = StreamingPcaOp::new(i as u32, cfg.pca.clone(), n_peers)
                .with_snapshots_every(cfg.snapshot_every)
                .with_heartbeats_every(cfg.heartbeat_every);
            if cfg.recovery_dir.is_some() {
                op = op.with_recovery();
            }
            if let Some(gate) = sync_gate {
                op = op.with_sync_gate(gate);
            }
            if let Some(threshold) = cfg.divergence_gate {
                op = op.with_divergence_gate(threshold);
            }
            if let Some(ref store) = cfg.epoch_store {
                op = op.with_epoch_store(Arc::clone(store), cfg.publish_every);
            }
            if cfg.emit_outcomes {
                op = op.with_outcomes();
            }
            if let Some(ref warm) = cfg.warm_start {
                op = op
                    .with_initial_state(warm.clone())
                    .expect("warm-start state incompatible with PCA config");
            }
            engine_states.push(op.state_handle());
            let id = g.add_op(format!("pca-{i}"), Box::new(op));
            g.connect(split, i, id, PortKind::Data);
            engine_ids.push(id);
        }

        // Peer-state edges: engine i's ports reach every other engine's
        // control port in ascending engine order, self omitted.
        for i in 0..n {
            for port in 0..n_peers {
                let peer = if port < i { port } else { port + 1 };
                g.connect(engine_ids[i], port, engine_ids[peer], PortKind::Control);
            }
        }
        let (monitor_port, outcome_port) = (n_peers, n_peers + 1);

        // Synchronization controller, pacing itself at `sync_period`.
        if synced {
            let controller = SyncController::new(
                cfg.sync,
                Arc::clone(&active),
                cfg.sync_period,
                cfg.liveness_timeout,
            );
            let ctrl = g.add_op("sync-controller", Box::new(controller));
            for (i, &eng) in engine_ids.iter().enumerate() {
                g.connect(ctrl, i, eng, PortKind::Control);
                // The controller listens to every monitor port:
                // heartbeats and snapshots are liveness reports, and each
                // one ticks it.
                g.connect(eng, monitor_port, ctrl, PortKind::Control);
            }
        }

        // Monitor fan-in into the results hub.
        let hub = ResultsHub::new(n);
        let hub_for_sink = hub.clone();
        let monitor = g.add_op(
            "monitor",
            Box::new(CallbackSink::with_control(
                |_d: DataTuple| {},
                move |c: spca_streams::ControlTuple| {
                    if c.kind == KIND_SNAPSHOT {
                        if let Some(state) = c.payload_as::<PeerState>() {
                            hub_for_sink.record(state.clone());
                        }
                    }
                },
            )),
        );
        for &eng in &engine_ids {
            g.connect(eng, monitor_port, monitor, PortKind::Control);
        }

        // Optional snapshot persistence: a second consumer on each monitor
        // port.
        if let Some(ref dir) = cfg.snapshot_dir {
            let writer = g.add_op(
                "snapshot-writer",
                Box::new(crate::persist::SnapshotWriter::new(dir.clone())),
            );
            for &eng in &engine_ids {
                g.connect(eng, monitor_port, writer, PortKind::Control);
            }
        }

        // Optional outcome collection.
        let outcomes = if cfg.emit_outcomes {
            let (sink, store) = CollectSink::new();
            let out = g.add_op("outcomes", Box::new(sink));
            for &eng in &engine_ids {
                g.connect(eng, outcome_port, out, PortKind::Data);
            }
            Some(store)
        } else {
            None
        };

        if cfg.fuse {
            // Single-node configuration: everything in one PE, rows move
            // through its local frame.
            let all: Vec<_> = g.edge_list().iter().flat_map(|e| [e.0, e.2]).collect();
            g.fuse(&all);
        }

        (
            g,
            AppHandles {
                hub,
                outcomes,
                engine_states,
                active,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spca_core::metrics::subspace_distance;
    use spca_spectra::PlantedSubspace;
    use spca_streams::lock;
    use spca_streams::metrics::Counter;
    use spca_streams::ops::GeneratorSource;
    use spca_streams::Engine;

    const D: usize = 16;

    fn pca_cfg() -> PcaConfig {
        PcaConfig::new(D, 2)
            .with_memory(300)
            .with_init_size(20)
            .with_extra(0)
    }

    fn planted_source(n: u64, seed: u64) -> Box<dyn Operator> {
        let w = PlantedSubspace::new(D, 2, 0.05);
        let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(seed)));
        Box::new(
            GeneratorSource::new(move |_, values, _| {
                values.extend(w.sample(&mut *lock(&rng)));
                true
            })
            .with_max_tuples(n),
        )
    }

    #[test]
    fn topology_matches_fig2() {
        let cfg = AppConfig::new(4, pca_cfg());
        let (g, _h) = ParallelPcaApp::build(&cfg, planted_source(10, 0));
        // source → split edge, split → 4 engines, full-mesh peer edges
        // 4·3 = 12 (ring strategy, but mesh wiring), controller → 4
        // engines, 4 monitor edges, 4 monitor → controller liveness edges.
        // Total 1 + 4 + 12 + 4 + 4 + 4 = 29.
        assert_eq!(g.edge_list().len(), 1 + 4 + 12 + 4 + 4 + 4);
        // The split has data in-degree 1; every engine exactly 1.
        let names = g.op_names();
        assert!(names.contains(&"split"));
        assert!(names.contains(&"sync-controller"));
        assert!(names.contains(&"monitor"));
        assert_eq!(names.iter().filter(|n| n.starts_with("pca-")).count(), 4);
    }

    #[test]
    fn synced_graph_has_one_source_and_the_controller_only_listens() {
        let mut fused = AppConfig::new(2, pca_cfg());
        fused.fuse = true;
        let mut elastic = AppConfig::new(1, pca_cfg());
        elastic.max_engines = Some(3);
        for cfg in [AppConfig::new(4, pca_cfg()), fused, elastic] {
            let n = cfg.max_engines.unwrap_or(cfg.n_engines);
            let (g, _h) = ParallelPcaApp::build(&cfg, planted_source(10, 23));
            let edges = g.edge_list();
            // The scheduler drives what nothing feeds: only the data.
            let fed: Vec<&str> = edges.iter().map(|e| g.op_name(e.2)).collect();
            let unfed: Vec<&str> = g
                .op_names()
                .into_iter()
                .filter(|name| !fed.contains(name))
                .collect();
            assert_eq!(unfed, ["source"]);
            // `source` feeds the split on port 0 and nothing else.
            let from_source: Vec<_> = edges
                .iter()
                .filter(|e| g.op_name(e.0) == "source")
                .map(|e| (e.1, g.op_name(e.2), e.3))
                .collect();
            assert_eq!(from_source, [(0, "split", PortKind::Data)]);
            // The controller hears exactly the n monitor ports (port n − 1,
            // after the n − 1 peer ports).
            let into_ctrl: Vec<_> = edges
                .iter()
                .filter(|e| g.op_name(e.2) == "sync-controller")
                .map(|e| (g.op_name(e.0).to_string(), e.1, e.3))
                .collect();
            let monitors: Vec<_> = (0..n)
                .map(|i| (format!("pca-{i}"), n - 1, PortKind::Control))
                .collect();
            assert_eq!(into_ctrl, monitors);
        }
    }

    #[test]
    fn end_to_end_parallel_run_recovers_subspace() {
        let mut cfg = AppConfig::new(4, pca_cfg());
        cfg.sync_period = Duration::from_millis(20);
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(4000, 11));
        let report = Engine::run(g);
        // All tuples were consumed by some engine.
        assert_eq!(report.tuples_in_matching("pca-"), 4000);
        // Every engine reported a final snapshot.
        assert_eq!(h.hub.engines_reporting(), 4);
        assert_eq!(report.total(Counter::Restarts), 0);
        let merged = h.hub.merged_estimate().unwrap();
        // Ring merges mid-stream fold peer history into each engine, so
        // the merged count double-counts shared history: it is an upper
        // bound, while exact conservation is the tuples_in check above.
        assert!(merged.n_obs >= 4000);
        let truth = PlantedSubspace::new(D, 2, 0.05);
        let dist = subspace_distance(&merged.basis, truth.basis()).unwrap();
        assert!(dist < 0.25, "merged distance {dist}");
    }

    #[test]
    fn fused_single_node_run_works() {
        let mut cfg = AppConfig::new(3, pca_cfg());
        cfg.fuse = true;
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(1500, 12));
        let report = Engine::run(g);
        // Fused: no cross-PE links at all.
        assert!(report.links.is_empty(), "links: {:?}", report.links.len());
        assert_eq!(h.hub.engines_reporting(), 3);
    }

    #[test]
    fn outcome_feed_collects_rows() {
        let mut cfg = AppConfig::new(2, pca_cfg());
        cfg.emit_outcomes = true;
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(500, 13));
        Engine::run(g);
        let outcomes = h.outcomes.unwrap();
        let rows = lock(&outcomes);
        // Warm-up tuples don't produce outcomes; everything after does.
        assert!(rows.len() > 400, "only {} outcome rows", rows.len());
        assert!(rows.iter().all(|r| r.values.len() == 5));
    }

    #[test]
    fn single_engine_no_sync_edges() {
        let cfg = AppConfig::new(1, pca_cfg());
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(800, 14));
        // source→split, split→pca, pca→monitor.
        assert_eq!(g.edge_list().len(), 3);
        Engine::run(g);
        assert_eq!(h.hub.engines_reporting(), 1);
        let eig = h.hub.merged_estimate().unwrap();
        assert_eq!(eig.n_obs, 800);
    }

    #[test]
    fn unsynced_apps_have_no_controller_peer_edges_or_heartbeats() {
        let mut unsynced = AppConfig::new(3, pca_cfg());
        unsynced.sync = SyncStrategy::None;
        for cfg in [AppConfig::new(1, pca_cfg()), unsynced] {
            let n = cfg.n_engines;
            let (g, _h) = ParallelPcaApp::build(&cfg, planted_source(400, 22));
            assert!(!g.op_names().contains(&"sync-controller"));
            // source→split, split→engines, engines→monitor: nothing else.
            assert_eq!(g.edge_list().len(), 1 + n + n);
            let report = Engine::run(g);
            // 400 tuples are several heartbeat cadences; the monitor saw
            // only each engine's final snapshot.
            let (_, monitor) = report.ops.iter().find(|(op, _)| op == "monitor").unwrap();
            assert_eq!(monitor.control_in, n as u64);
        }
    }

    #[test]
    fn broadcast_topology_has_full_mesh() {
        // And so has every other strategy: it picks a command's
        // receivers, never the edges.
        for sync in [
            SyncStrategy::Broadcast,
            SyncStrategy::Ring,
            SyncStrategy::Groups(2),
        ] {
            let mut cfg = AppConfig::new(3, pca_cfg());
            cfg.sync = sync;
            let (g, _h) = ParallelPcaApp::build(&cfg, planted_source(10, 15));
            // Peer edges: 3 engines × 2 peers = 6.
            let n_ctrl_peer_edges = g
                .edge_list()
                .iter()
                .filter(|(from, _, to, kind)| {
                    *kind == PortKind::Control
                        && g.op_name(*from).starts_with("pca-")
                        && g.op_name(*to).starts_with("pca-")
                })
                .count();
            assert_eq!(n_ctrl_peer_edges, 6, "{sync:?}");
        }
    }

    #[test]
    fn elastic_topology_provisions_standbys_with_mesh_wiring() {
        let mut cfg = AppConfig::new(1, pca_cfg());
        cfg.max_engines = Some(3);
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(10, 20));
        // Provisioned fleet of 3, wired like any fleet of 3: source→split 1,
        // split→engines 3, full-mesh peer edges 3·2 = 6, controller→engines
        // 3, monitor edges 3, liveness edges 3: 1 + 3 + 6 + 3 + 3 + 3 = 19.
        assert_eq!(g.edge_list().len(), 1 + 3 + 6 + 3 + 3 + 3);
        assert_eq!(h.active.active(), 1, "only the initial prefix is live");
        assert_eq!(h.active.max(), 3);
        assert_eq!(h.engine_states.len(), 3, "standbys have state handles");
    }

    #[test]
    fn elastic_run_without_supervisor_keeps_standbys_idle() {
        let mut cfg = AppConfig::new(1, pca_cfg());
        cfg.max_engines = Some(3);
        cfg.sync_period = Duration::from_millis(5);
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(1200, 21));
        let report = Engine::run(g);
        // Nobody flipped the active set: all traffic lands on engine 0 and
        // the standbys never observe a tuple.
        assert_eq!(report.tuples_in_matching("pca-"), 1200);
        assert_eq!(lock(&h.engine_states[0]).n_obs(), 1200);
        assert_eq!(lock(&h.engine_states[1]).n_obs(), 0);
        assert_eq!(lock(&h.engine_states[2]).n_obs(), 0);
        assert_eq!(h.hub.engines_reporting(), 1, "standbys report nothing");
        assert_eq!(report.total(Counter::ScaleOuts), 0);
        assert_eq!(report.total(Counter::ScaleIns), 0);
    }

    #[test]
    fn live_state_handles_observe_progress() {
        // No sync: a merge adds the peer's `n_obs` to an engine's own, so
        // only unmerged states sum to the tuples the engines were fed.
        let mut cfg = AppConfig::new(2, pca_cfg());
        cfg.sync = SyncStrategy::None;
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(1000, 17));
        Engine::run(g);
        let total: u64 = h.engine_states.iter().map(|s| lock(s).n_obs()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn a_poisoned_state_lock_does_not_stop_the_run() {
        // A restarted operator, the elastic supervisor and the results
        // reader all take an engine's state lock after a panic may have
        // poisoned it; the run must go on as if nothing had happened.
        let run = |poison: bool| {
            let mut cfg = AppConfig::new(2, pca_cfg());
            cfg.sync = SyncStrategy::None;
            cfg.split = SplitStrategy::RoundRobin;
            let (g, h) = ParallelPcaApp::build(&cfg, planted_source(1000, 23));
            if poison {
                let state = Arc::clone(&h.engine_states[0]);
                let _ = std::thread::spawn(move || {
                    let _guard = lock(&state);
                    panic!("poison engine 0's state lock");
                })
                .join();
                assert!(h.engine_states[0].is_poisoned());
            }
            Engine::run(g);
            let mut st = lock(&h.engine_states[0]);
            let n_obs = st.n_obs();
            let eig = st.full_eigensystem().expect("engine 0 was fed");
            (n_obs, crate::persist::encode_snapshot(eig))
        };
        let (clean_n, clean_eig) = run(false);
        let (poisoned_n, poisoned_eig) = run(true);
        assert_eq!(clean_n, 500);
        assert_eq!(poisoned_n, clean_n);
        assert!(poisoned_eig == clean_eig, "eigensystems differ");
    }
}
