//! Integration tests for the operational features: snapshot persistence
//! and warm start.

use astro_stream_pca::core::metrics::subspace_distance;
use astro_stream_pca::core::PcaConfig;
use astro_stream_pca::engine::{persist, AppConfig, ParallelPcaApp, SnapshotWriter, SyncStrategy};
use astro_stream_pca::spectra::PlantedSubspace;
use astro_stream_pca::streams::ops::GeneratorSource;
use astro_stream_pca::streams::Engine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_streams::lock;
use std::sync::{Arc, Mutex};

const D: usize = 24;
const RANK: usize = 2;

fn pca_cfg() -> PcaConfig {
    PcaConfig::new(D, RANK).with_memory(1000).with_init_size(30)
}

fn source(n: u64, seed: u64) -> Box<dyn astro_stream_pca::streams::Operator> {
    let w = PlantedSubspace::new(D, RANK, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(seed)));
    Box::new(
        GeneratorSource::new(move |_, values, _| {
            values.extend(w.sample(&mut *lock(&rng)));
            true
        })
        .with_max_tuples(n),
    )
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spca_it_{}_{name}", std::process::id()));
    p
}

#[test]
fn snapshots_persist_and_warm_start_resumes() {
    let dir = tmpdir("warm");
    // Phase 1: run, persisting snapshots.
    {
        let mut cfg = AppConfig::new(2, pca_cfg());
        cfg.snapshot_dir = Some(dir.clone());
        cfg.sync = SyncStrategy::None;
        let (g, _h) = ParallelPcaApp::build(&cfg, source(2000, 1));
        Engine::run(g);
    }
    let snap_path = SnapshotWriter::latest_path(&dir, 0);
    let restored = persist::read_snapshot(&snap_path).expect("snapshot written");
    assert!(restored.n_obs > 0);
    restored.check_invariants().unwrap();

    // Phase 2: warm-start a fresh application from engine 0's state.
    let mut cfg = AppConfig::new(2, pca_cfg());
    cfg.warm_start = Some(restored.clone());
    cfg.sync = SyncStrategy::None;
    let (g, h) = ParallelPcaApp::build(&cfg, source(500, 2));
    Engine::run(g);
    let merged = h.hub.merged_estimate().unwrap();
    // Warm-started engines carry the restored history forward.
    assert!(merged.n_obs >= restored.n_obs + 500);
    let truth = PlantedSubspace::new(D, RANK, 0.05);
    let dist = subspace_distance(&merged.truncated(RANK).basis, truth.basis()).unwrap();
    assert!(dist < 0.2, "warm-started estimate off: {dist}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn warm_start_skips_warmup_entirely() {
    // A warm-started engine must produce initialized outcomes from the
    // very first tuple (no warm-up buffering).
    let dir = tmpdir("skip");
    {
        let mut cfg = AppConfig::new(1, pca_cfg());
        cfg.snapshot_dir = Some(dir.clone());
        let (g, _h) = ParallelPcaApp::build(&cfg, source(1000, 3));
        Engine::run(g);
    }
    let restored = persist::read_snapshot(&SnapshotWriter::latest_path(&dir, 0)).unwrap();
    let mut cfg = AppConfig::new(1, pca_cfg());
    cfg.warm_start = Some(restored);
    cfg.emit_outcomes = true;
    let (g, h) = ParallelPcaApp::build(&cfg, source(100, 4));
    Engine::run(g);
    let outcomes = h.outcomes.unwrap();
    // Every tuple (not just post-warm-up ones) produced an outcome row.
    assert_eq!(lock(&outcomes).len(), 100);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn snapshot_files_are_human_readable() {
    let dir = tmpdir("readable");
    let mut cfg = AppConfig::new(1, pca_cfg());
    cfg.snapshot_dir = Some(dir.clone());
    let (g, _h) = ParallelPcaApp::build(&cfg, source(500, 6));
    Engine::run(g);
    let content = std::fs::read_to_string(SnapshotWriter::latest_path(&dir, 0)).expect("written");
    // The seal line, then the text it covers.
    assert!(content.starts_with("spca-eigensystem-v2 "));
    assert!(content.contains("\nspca-eigensystem-v1\n"));
    assert!(content.contains("values"));
    assert!(content.contains("mean"));
    std::fs::remove_dir_all(dir).ok();
}
