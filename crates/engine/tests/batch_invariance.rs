//! Regression tests: synchronization behaviour is invariant under the
//! cross-PE transport batch size. Batching changes how tuples travel
//! (frames vs. one-at-a-time), never what the application computes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::{EigenSystem, PcaConfig};
use spca_engine::messages::KIND_SNAPSHOT;
use spca_engine::{
    AppConfig, ParallelPcaApp, PeerState, StreamingPcaOp, SyncStrategy, KIND_PEER_STATE,
};
use spca_spectra::PlantedSubspace;
use spca_streams::{
    lock, ControlTuple, DataTuple, Engine, GraphBuilder, OpContext, Operator, PortKind, SourceState,
};
use std::sync::{Arc, Mutex};

const D: usize = 16;
const K: usize = 2;

fn pca_cfg() -> PcaConfig {
    PcaConfig::new(D, K)
        .with_memory(300)
        .with_init_size(20)
        .with_extra(0)
}

/// A deterministic, shape-valid peer eigensystem to inject mid-stream.
fn scripted_peer() -> PeerState {
    let mut eig = EigenSystem::zeros(D, K);
    eig.basis[(D - 1, 0)] = 1.0;
    eig.basis[(D - 2, 1)] = 1.0;
    eig.values = vec![1.0, 0.5];
    eig.sigma2 = 0.5;
    eig.sum_u = 10.0;
    eig.sum_v = 10.0;
    eig.sum_q = 1.0;
    eig.n_obs = 50;
    PeerState {
        engine: 7,
        eigensystem: eig,
        n_obs: 50,
        shares_sent: 0,
        merges_applied: 0,
    }
}

/// Emits a fixed list of observations and, right before observation
/// `inject_at`, one inline `KIND_PEER_STATE` control tuple — all on the
/// same output port, so FIFO ordering fixes exactly where in the stream
/// the merge happens, whatever the transport batch size.
struct ScriptedSource {
    samples: Vec<Vec<f64>>,
    inject_at: usize,
    next: usize,
}

impl Operator for ScriptedSource {
    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if self.next == self.inject_at {
            ctx.emit_control(
                0,
                ControlTuple::new(KIND_PEER_STATE, 7, Arc::new(scripted_peer())),
            );
        }
        if self.next >= self.samples.len() {
            return SourceState::Done;
        }
        ctx.emit_row(
            0,
            DataTuple::new(self.next as u64, self.samples[self.next].clone()).row(),
        );
        self.next += 1;
        SourceState::Emitted
    }
}

/// Captures the engine's final monitor snapshot.
struct SnapshotSink {
    store: Arc<Mutex<Vec<PeerState>>>,
}

impl Operator for SnapshotSink {
    fn on_control(&mut self, c: ControlTuple, _ctx: &mut OpContext<'_>) {
        if c.kind == KIND_SNAPSHOT {
            if let Some(st) = c.payload_as::<PeerState>() {
                lock(&self.store).push(st.clone());
            }
        }
    }
}

/// Runs `scripted source → pca (cross-PE) → monitor sink` at the given
/// batch size and returns (merges applied, final eigensystem).
fn run_scripted(batch: usize, samples: &[Vec<f64>]) -> (u64, EigenSystem) {
    let mut g = GraphBuilder::new().with_batch_size(batch);
    let src = g.add_source(
        "src",
        Box::new(ScriptedSource {
            samples: samples.to_vec(),
            inject_at: 600,
            next: 0,
        }),
    );
    let pca = g.add_op("pca-0", Box::new(StreamingPcaOp::new(0, pca_cfg(), 1)));
    let store = Arc::new(Mutex::new(Vec::new()));
    let mon = g.add_op(
        "monitor",
        Box::new(SnapshotSink {
            store: Arc::clone(&store),
        }),
    );
    g.connect(src, 0, pca, PortKind::Data);
    g.connect(pca, 1, mon, PortKind::Control);
    Engine::run(g);
    let snaps = lock(&store);
    let last = snaps.last().expect("final snapshot expected");
    (last.merges_applied, last.eigensystem.clone())
}

fn assert_eigensystems_identical(a: &EigenSystem, b: &EigenSystem, what: &str) {
    assert_eq!(a.mean, b.mean, "{what}: mean differs");
    assert_eq!(
        a.basis.as_slice(),
        b.basis.as_slice(),
        "{what}: basis differs"
    );
    assert_eq!(a.values, b.values, "{what}: eigenvalues differ");
    assert_eq!(a.sigma2, b.sigma2, "{what}: sigma2 differs");
    assert_eq!(a.sum_u, b.sum_u, "{what}: sum_u differs");
    assert_eq!(a.sum_v, b.sum_v, "{what}: sum_v differs");
    assert_eq!(a.sum_q, b.sum_q, "{what}: sum_q differs");
    assert_eq!(a.n_obs, b.n_obs, "{what}: n_obs differs");
}

/// The core regression: on a seeded stream with an inline peer-state merge,
/// batch size 1 and batch size 64 produce the same merge count and a
/// bit-identical final eigensystem. A transport that reordered control
/// tuples relative to data, or dropped/duplicated anything, would move the
/// merge point and change the floating-point trajectory.
#[test]
fn sync_merge_is_batch_invariant() {
    let w = PlantedSubspace::new(D, K, 0.05);
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let samples: Vec<Vec<f64>> = (0..900).map(|_| w.sample(&mut rng)).collect();

    let (merges_1, eig_1) = run_scripted(1, &samples);
    assert_eq!(merges_1, 1, "exactly one injected peer state");
    for batch in [8, 64] {
        let (merges_b, eig_b) = run_scripted(batch, &samples);
        assert_eq!(merges_b, 1, "batch {batch}: merge count differs");
        assert_eigensystems_identical(&eig_1, &eig_b, &format!("batch {batch}"));
    }
    eig_1.check_invariants().unwrap();
}

/// Full-application smoke test: a ring-synchronized parallel run completes
/// and delivers every observation to the PCA tier at every batch size, and
/// the merged estimate recovers the planted subspace.
#[test]
fn parallel_app_delivers_everything_at_every_batch_size() {
    const N: u64 = 2000;
    for batch in [1, 64] {
        let w = PlantedSubspace::new(D, K, 0.05);
        let mut rng = StdRng::seed_from_u64(21);
        let mut left = N;
        let source = spca_streams::ops::GeneratorSource::new(move |_seq, values, _| {
            if left == 0 {
                return false;
            }
            left -= 1;
            values.extend(w.sample(&mut rng));
            true
        });
        let mut cfg = AppConfig::new(2, pca_cfg());
        cfg.sync = SyncStrategy::Ring;
        cfg.sync_period = std::time::Duration::from_millis(5);
        cfg.batch_size = batch;
        let (g, h) = ParallelPcaApp::build_with_gate(&cfg, Box::new(source), Some(0));
        let report = Engine::run(g);
        assert_eq!(
            report.tuples_in_matching("pca-"),
            N,
            "batch {batch}: observations lost or duplicated"
        );
        let merged = h.hub.merged_estimate().expect("snapshots expected");
        let dist =
            spca_core::metrics::subspace_distance(&merged.basis, w_basis_ref().basis()).unwrap();
        assert!(dist < 0.25, "batch {batch}: distance {dist}");
    }
}

fn w_basis_ref() -> PlantedSubspace {
    PlantedSubspace::new(D, K, 0.05)
}
