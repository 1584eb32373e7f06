//! End-to-end fault-tolerance acceptance tests (the issue's bar):
//!
//! 1. A seeded 4-engine run with `panic@engine1:5000` must restart the
//!    engine from its recovery snapshot and finish with zero data-tuple
//!    loss outside the declared fault window, a final eigensystem within
//!    1e-6 subspace affinity of the fault-free run (here: bit-equal), and
//!    restart/quarantine/skipped-sync counts visible in the `RunReport`.
//! 2. A ring with one engine killed outright (no recovery directory) must
//!    still complete and converge: the controller re-closes the ring
//!    around the corpse. Nothing tells the app to expect the death.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::metrics::subspace_distance;
use spca_core::{EigenSystem, PcaConfig};
use spca_engine::{normalize_fault_targets, AppConfig, ParallelPcaApp, SyncStrategy};
use spca_spectra::PlantedSubspace;
use spca_streams::metrics::Counter;
use spca_streams::ops::{GeneratorSource, SplitStrategy};
use spca_streams::{
    lock, ControlTuple, DataTuple, Engine, FaultPlan, OpContext, Operator, RunReport, SourceState,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const D: usize = 16;
const N_TUPLES: u64 = 40_000;

/// Non-finite observations injected at the source. All chosen ≢ 1 (mod 4)
/// so under strict round-robin none lands on engine 1 — the engine whose
/// restart must rehydrate *exactly* the state its recovery snapshot froze
/// at tuple 5000.
const NAN_SEQS: [u64; 8] = [100, 202, 303, 1000, 2002, 5003, 30_000, 30_002];

fn pca_cfg() -> PcaConfig {
    PcaConfig::new(D, 2)
        .with_memory(300)
        .with_init_size(20)
        .with_extra(0)
}

/// A seeded planted-subspace stream with the NaN tuples of `NAN_SEQS`
/// swapped in. Identical across calls: both the clean and the faulted run
/// see bit-identical observations in the same order.
fn seeded_source(seed: u64) -> Box<dyn Operator> {
    let w = PlantedSubspace::new(D, 2, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(seed)));
    Box::new(
        GeneratorSource::new(move |seq, values, _| {
            let v = w.sample(&mut *lock(&rng));
            if NAN_SEQS.contains(&seq) {
                values.extend([f64::NAN; D]);
            } else {
                values.extend(v);
            }
            true
        })
        .with_max_tuples(N_TUPLES),
    )
}

fn tmp_dir(label: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("spca_ft_{}_{label}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn op_snapshot(report: &RunReport, name: &str) -> spca_streams::metrics::OpSnapshot {
    report
        .ops
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no op '{name}' in report"))
        .1
}

fn assert_eig_bits_equal(engine: usize, a: &EigenSystem, b: &EigenSystem) {
    assert_eq!(a.n_obs, b.n_obs, "engine {engine}: n_obs");
    assert_eq!(
        a.sigma2.to_bits(),
        b.sigma2.to_bits(),
        "engine {engine}: sigma2"
    );
    assert_eq!(
        a.sum_v.to_bits(),
        b.sum_v.to_bits(),
        "engine {engine}: sum_v"
    );
    for (x, y) in a.values.iter().zip(&b.values) {
        assert_eq!(x.to_bits(), y.to_bits(), "engine {engine}: eigenvalue");
    }
    for (x, y) in a.mean.iter().zip(&b.mean) {
        assert_eq!(x.to_bits(), y.to_bits(), "engine {engine}: mean");
    }
    assert_eq!(
        a.basis.sub(&b.basis).unwrap().max_abs(),
        0.0,
        "engine {engine}: basis"
    );
}

/// Deterministic app configuration for the bit-exactness test: strict
/// round-robin with a channel capacity no queue can ever fill (the split
/// sheds to the next port under backpressure, which would make routing —
/// and therefore per-engine state — timing-dependent), and the sync gate
/// forced shut so commands flow (and are counted as skips) without
/// state-changing merges.
fn deterministic_cfg(recovery: &Path) -> AppConfig {
    let mut cfg = AppConfig::new(4, pca_cfg());
    cfg.split = SplitStrategy::RoundRobin;
    cfg.sync = SyncStrategy::Ring;
    cfg.sync_period = Duration::from_millis(1);
    cfg.liveness_timeout = Duration::from_millis(200);
    cfg.heartbeat_every = 64;
    cfg.channel_capacity = 200_000;
    cfg.recovery_dir = Some(recovery.to_path_buf());
    cfg
}

struct RunOutcome {
    report: RunReport,
    eigs: Vec<EigenSystem>,
    merged: EigenSystem,
    reporting: usize,
}

fn run_once(faults: Option<&str>, dir: &Path) -> RunOutcome {
    let mut cfg = deterministic_cfg(dir);
    if let Some(spec) = faults {
        cfg.faults = Some(normalize_fault_targets(FaultPlan::parse(spec).unwrap()));
    }
    let (g, h) = ParallelPcaApp::build_with_gate(&cfg, seeded_source(77), Some(u64::MAX));
    let report = Engine::run(g);
    let eigs: Vec<EigenSystem> = h
        .engine_states
        .iter()
        .map(|s| lock(s).full_eigensystem().expect("initialized").clone())
        .collect();
    let merged = h.hub.merged_estimate().expect("merged estimate");
    let reporting = h.hub.engines_reporting();
    RunOutcome {
        report,
        eigs,
        merged,
        reporting,
    }
}

#[test]
fn panicked_engine_restarts_from_snapshot_and_matches_fault_free_run() {
    let clean_dir = tmp_dir("clean");
    let fault_dir = tmp_dir("faulted");

    let clean = run_once(None, &clean_dir);
    let faulted = run_once(Some("panic@engine1:5000"), &fault_dir);

    // (a) Zero data-tuple loss outside the declared fault window: the
    // injected panic fires after its tuple is fully processed, so both
    // runs deliver every tuple exactly once.
    assert_eq!(clean.report.tuples_in_matching("pca-"), N_TUPLES);
    assert_eq!(faulted.report.tuples_in_matching("pca-"), N_TUPLES);

    // (c) The counters are visible in the run report.
    assert_eq!(clean.report.total(Counter::Restarts), 0);
    assert_eq!(faulted.report.total(Counter::Restarts), 1);
    assert_eq!(
        op_snapshot(&faulted.report, "pca-1").get(Counter::Restarts),
        1
    );
    assert_eq!(
        clean.report.total(Counter::Quarantined),
        NAN_SEQS.len() as u64,
        "every injected NaN is quarantined, none reach the eigensystem"
    );
    assert_eq!(
        faulted.report.total(Counter::Quarantined),
        NAN_SEQS.len() as u64
    );
    assert!(
        clean.report.total(Counter::SyncSkips) > 0,
        "the forced-shut gate must count its skips"
    );
    assert!(faulted.report.total(Counter::SyncSkips) > 0);

    // (b) The restarted engine rehydrated from its recovery snapshot and
    // replayed to the same state: every engine — including pca-1, which
    // died at tuple 5000 and resumed from disk — is *bit-identical* to
    // the fault-free run, which puts the merged eigensystems well within
    // the 1e-6 subspace-affinity bar.
    assert_eq!(clean.reporting, 4);
    assert_eq!(faulted.reporting, 4);
    for (i, (a, b)) in clean.eigs.iter().zip(&faulted.eigs).enumerate() {
        assert_eig_bits_equal(i, a, b);
    }
    let dist = subspace_distance(&clean.merged.basis, &faulted.merged.basis).unwrap();
    assert!(dist < 1e-6, "merged subspace distance {dist}");

    std::fs::remove_dir_all(clean_dir).ok();
    std::fs::remove_dir_all(fault_dir).ok();
}

#[test]
fn killed_pe_rehydrates_from_its_manifest_and_matches_fault_free_run() {
    // The whole-PE variant of the restart bar: `kill-pe@engine1:5000`
    // (normalized to pca-1) tears down the entire processing element after
    // its 5000th delivered tuple — well past warm-up, so the teardown
    // manifest carries a full eigensystem. The supervisor rebuilds the PE,
    // reconnects its frame channels, and rehydrates every member from the
    // per-PE snapshot manifest under `<recovery>/pe`; the run must finish
    // bit-identical to the fault-free one.
    let clean_dir = tmp_dir("pe_clean");
    let fault_dir = tmp_dir("pe_faulted");

    let clean = run_once(None, &clean_dir);
    let faulted = run_once(Some("kill-pe@engine1:5000"), &fault_dir);

    // No tuple lost or duplicated across the PE teardown.
    assert_eq!(clean.report.tuples_in_matching("pca-"), N_TUPLES);
    assert_eq!(faulted.report.tuples_in_matching("pca-"), N_TUPLES);

    // The restart is counted at the PE level, not the operator level.
    assert_eq!(clean.report.total(Counter::PeRestarts), 0);
    assert!(faulted.report.total(Counter::PeRestarts) > 0);
    assert!(op_snapshot(&faulted.report, "pca-1").get(Counter::PeRestarts) >= 1);
    assert_eq!(
        op_snapshot(&faulted.report, "pca-1").get(Counter::Restarts),
        0,
        "a whole-PE kill must not also count an operator restart"
    );

    // Recovery wrote consistent per-PE generation files on disk.
    let generations = std::fs::read_dir(fault_dir.join("pe"))
        .expect("PE checkpoint directory exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
        .count();
    assert!(
        generations >= 1,
        "the killed PE left a checkpoint generation"
    );

    // Every engine — including the one whose PE died and was rehydrated
    // from the manifest — finishes bit-identical to the fault-free run.
    assert_eq!(clean.reporting, 4);
    assert_eq!(faulted.reporting, 4);
    for (i, (a, b)) in clean.eigs.iter().zip(&faulted.eigs).enumerate() {
        assert_eig_bits_equal(i, a, b);
    }
    let dist = subspace_distance(&clean.merged.basis, &faulted.merged.basis).unwrap();
    assert!(dist < 1e-6, "merged subspace distance {dist}");

    std::fs::remove_dir_all(clean_dir).ok();
    std::fs::remove_dir_all(fault_dir).ok();
}

#[test]
fn ring_survives_a_killed_engine_and_still_converges() {
    // No recovery directory: engine 1's recover() declines and the
    // supervisor finishes it — a true crash. The sync controller
    // must notice the silence, skip it as a sender, re-close the ring
    // around it, and let the survivors converge.
    let mut cfg = AppConfig::new(4, pca_cfg());
    cfg.split = SplitStrategy::RoundRobin;
    cfg.sync = SyncStrategy::Ring;
    cfg.sync_period = Duration::from_millis(1);
    cfg.liveness_timeout = Duration::from_millis(30);
    cfg.heartbeat_every = 16;
    cfg.channel_capacity = 200_000;
    cfg.faults = Some(normalize_fault_targets(
        FaultPlan::parse("panic@engine1:500").unwrap(),
    ));

    // Rate-limit the stream so the run outlives the liveness timeout by a
    // wide margin on any machine: ~160 ms wall clock, with the victim
    // dying ~8 ms in.
    let w = PlantedSubspace::new(D, 2, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(78)));
    let source = Box::new(
        GeneratorSource::new(move |_, values, _| {
            values.extend(w.sample(&mut *lock(&rng)));
            true
        })
        .with_max_tuples(N_TUPLES)
        .with_rate(250_000.0),
    );

    let (g, h) = ParallelPcaApp::build(&cfg, source);
    let report = Engine::run(g);

    // The run completed (no wedge) and even the corpse reported its
    // state-at-death through on_finish.
    assert_eq!(h.hub.engines_reporting(), 4);
    assert_eq!(
        op_snapshot(&report, "pca-1").get(Counter::Restarts),
        0,
        "without a recovery snapshot the engine must not restart"
    );
    // The survivors kept every tuple routed to them; only engine 1's
    // share after its death is lost (the declared fault window).
    let survivors: u64 = [0usize, 2, 3]
        .iter()
        .map(|i| op_snapshot(&report, &format!("pca-{i}")).tuples_in)
        .sum();
    assert_eq!(survivors, 3 * (N_TUPLES / 4));

    // The controller observed the death: dead-sender ticks were skipped
    // and counted.
    assert!(
        op_snapshot(&report, "sync-controller").get(Counter::SyncSkips) > 0,
        "controller must skip the dead engine"
    );

    // Three live engines with ring synchronization still converge to the
    // planted subspace.
    let merged = h.hub.merged_estimate().unwrap();
    let truth = PlantedSubspace::new(D, 2, 0.05);
    let dist = subspace_distance(&merged.basis, truth.basis()).unwrap();
    assert!(dist < 0.3, "merged distance {dist}");
}

/// The restart bar of the first test — every engine bit-identical to the
/// fault-free run, every tuple delivered, one operator restart on `pca-1`.
fn assert_restart_is_invisible(clean: &RunOutcome, faulted: &RunOutcome) {
    assert_eq!(faulted.report.tuples_in_matching("pca-"), N_TUPLES);
    assert_eq!(faulted.report.total(Counter::Restarts), 1);
    assert_eq!(
        op_snapshot(&faulted.report, "pca-1").get(Counter::Restarts),
        1
    );
    assert_eq!(faulted.reporting, 4);
    for (i, (a, b)) in clean.eigs.iter().zip(&faulted.eigs).enumerate() {
        assert_eig_bits_equal(i, a, b);
    }
}

#[test]
fn panic_off_the_checkpoint_cadence_is_still_bit_identical() {
    // 5003 is no multiple of the 512-tuple cadence: what keeps tuples
    // 5001-5003 in the restarted engine's state is the teardown capture
    // the supervisor commits before the restore, not a periodic one.
    let clean_dir = tmp_dir("offcadence_clean");
    let fault_dir = tmp_dir("offcadence_faulted");
    let clean = run_once(None, &clean_dir);
    let faulted = run_once(Some("panic@engine1:5003"), &fault_dir);
    assert_restart_is_invisible(&clean, &faulted);
    assert_eq!(faulted.report.total(Counter::IoFaults), 0);

    // One durable copy: the recovery directory holds the PE checkpoints
    // and nothing else.
    let entries: Vec<String> = std::fs::read_dir(&fault_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(entries, ["pe"]);

    std::fs::remove_dir_all(clean_dir).ok();
    std::fs::remove_dir_all(fault_dir).ok();
}

#[test]
fn panicked_engine_meets_a_sick_disk_and_the_run_still_completes() {
    // The operator restart reads through the same fault-injecting storage
    // as the PE checkpoints it restores from. Which PE's write the k-th
    // one is depends on timing, so both plans damage *every* generation
    // written before the panic: the engine finds nothing whole, restarts
    // from its configuration, and the damage is visible in the report.
    let torn: Vec<String> = (1..=400).map(|w| format!("io-torn@pe:{w}")).collect();
    let torn = format!("panic@engine1:5003,{}", torn.join(","));
    for (tag, plan) in [
        ("torn", torn.as_str()),
        ("fsync", "panic@engine1:5003,io-fsync-err"),
    ] {
        let dir = tmp_dir(tag);
        let faulted = run_once(Some(plan), &dir);
        assert_eq!(faulted.report.tuples_in_matching("pca-"), N_TUPLES, "{tag}");
        assert_eq!(
            op_snapshot(&faulted.report, "pca-1").get(Counter::Restarts),
            1,
            "{tag}"
        );
        assert_eq!(faulted.reporting, 4, "{tag}");
        assert!(faulted.report.total(Counter::IoFaults) >= 1, "{tag}");
        if tag == "torn" {
            assert!(faulted.report.total(Counter::QuarantinedSnapshots) >= 1);
        } else {
            assert!(faulted.report.total(Counter::CheckpointSkips) >= 1);
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Feeds a fused engine a seeded stream and, just before row `merge_at`,
/// one peer state on its control port — in-PE hand-off, so the merge lands
/// at the same place in every run.
struct ScriptedFeed {
    rows: Vec<Vec<f64>>,
    next: usize,
    merge_at: usize,
    peer: Option<spca_engine::PeerState>,
}

impl Operator for ScriptedFeed {
    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if self.next == self.merge_at {
            if let Some(peer) = self.peer.take() {
                ctx.emit_control(
                    1,
                    ControlTuple::new(spca_engine::KIND_PEER_STATE, peer.engine, Arc::new(peer)),
                );
                return SourceState::Emitted;
            }
        }
        let Some(row) = self.rows.get(self.next) else {
            return SourceState::Done;
        };
        ctx.emit_row(0, DataTuple::new(self.next as u64, row.clone()).row());
        self.next += 1;
        SourceState::Emitted
    }
}

/// `(n_obs, merges_applied)` of every snapshot the engine emitted, in order.
fn merged_then_maybe_panicked(faults: Option<&str>, dir: &Path) -> (Vec<(u64, u64)>, EigenSystem) {
    use spca_streams::ops::CallbackSink;
    use spca_streams::{GraphBuilder, PortKind};

    let w = PlantedSubspace::new(D, 2, 0.05);
    let mut rng = StdRng::seed_from_u64(91);
    let rows: Vec<Vec<f64>> = (0..3000).map(|_| w.sample(&mut rng)).collect();
    let mut peer_pca = spca_core::RobustPca::new(pca_cfg());
    for _ in 0..400 {
        peer_pca.update(&w.sample(&mut rng)).unwrap();
    }
    let peer = spca_engine::PeerState {
        engine: 1,
        eigensystem: peer_pca.full_eigensystem().unwrap().clone(),
        n_obs: 400,
        shares_sent: 1,
        merges_applied: 0,
    };

    let mut g = GraphBuilder::new().with_checkpoint_dir(dir.join("pe"));
    if let Some(spec) = faults {
        g = g.with_fault_plan(FaultPlan::parse(spec).unwrap());
    }
    let op = spca_engine::StreamingPcaOp::new(0, pca_cfg(), 0)
        .with_snapshots_every(250)
        .with_recovery();
    let state = op.state_handle();
    let src = g.add_source(
        "feed",
        Box::new(ScriptedFeed {
            rows,
            next: 0,
            merge_at: 700,
            peer: Some(peer),
        }),
    );
    let pca = g.add_op("pca-0", Box::new(op));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    let monitor = g.add_op(
        "monitor",
        Box::new(CallbackSink::with_control(
            |_d| {},
            move |c: ControlTuple| {
                if let Some(s) = c.payload_as::<spca_engine::PeerState>() {
                    lock(&log).push((s.n_obs, s.merges_applied));
                }
            },
        )),
    );
    g.connect(src, 0, pca, PortKind::Data);
    g.connect(src, 1, pca, PortKind::Control);
    g.connect(pca, 0, monitor, PortKind::Control);
    g.fuse(&[src, pca]);
    Engine::run(g);
    let eig = lock(&state).full_eigensystem().unwrap().clone();
    let seen = lock(&seen).clone();
    (seen, eig)
}

#[test]
fn restart_after_a_merge_keeps_every_cadence_in_phase() {
    // A merge adds the peer's observation count to the eigensystem's, so a
    // restart that set the engine's tuple count from the eigensystem (as
    // reading the recovery file did) resumed 400 tuples ahead of itself
    // and emitted every later periodic snapshot 150 tuples early. The
    // panic is on the cadence, where that was the only difference.
    let clean_dir = tmp_dir("merge_clean");
    let fault_dir = tmp_dir("merge_faulted");
    let (clean_log, clean_eig) = merged_then_maybe_panicked(None, &clean_dir);
    let (fault_log, fault_eig) = merged_then_maybe_panicked(Some("panic@pca-0:1024"), &fault_dir);
    assert!(
        clean_log.iter().any(|&(_, merges)| merges == 1),
        "the merge applied"
    );
    assert_eq!(
        clean_log.len(),
        3000 / 250 + 1,
        "periodic snapshots + the final one"
    );
    assert_eq!(clean_log, fault_log);
    assert_eig_bits_equal(0, &clean_eig, &fault_eig);
    std::fs::remove_dir_all(clean_dir).ok();
    std::fs::remove_dir_all(fault_dir).ok();
}
