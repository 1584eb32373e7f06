//! The full parallel application (paper Fig. 2) on a live dataflow.
//!
//! Builds `source → threaded split → 6 streaming-PCA engines` with ring
//! synchronization (Fig. 3) on the from-scratch dataflow engine, runs it to
//! completion, and compares the merged parallel estimate against (a) the
//! ground-truth planted basis and (b) a single sequential engine fed the
//! same stream.
//!
//! Run with: `cargo run --release --example parallel_partition`

use astro_stream_pca::core::metrics::subspace_distance;
use astro_stream_pca::core::{PcaConfig, RobustPca};
use astro_stream_pca::engine::{AppConfig, ParallelPcaApp, SyncStrategy};
use astro_stream_pca::spectra::PlantedSubspace;
use astro_stream_pca::streams::ops::GeneratorSource;
use astro_stream_pca::streams::Engine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_streams::lock;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn main() {
    let dim = 64;
    let rank = 3;
    let n_engines = 6;
    let n_tuples: u64 = 30_000;
    let truth = PlantedSubspace::new(dim, rank, 0.05);

    let pca_cfg = PcaConfig::new(dim, rank)
        .with_memory(4000)
        .with_init_size(60);

    // --- Sequential reference: one engine sees the whole stream. ---
    let mut seq = RobustPca::new(pca_cfg.clone());
    {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..n_tuples {
            seq.update(&truth.sample(&mut rng)).expect("finite");
        }
    }
    let seq_eig = seq.eigensystem();
    let seq_dist = subspace_distance(&seq_eig.basis, truth.basis()).expect("shapes");

    // --- Parallel run on the dataflow engine. ---
    let mut cfg = AppConfig::new(n_engines, pca_cfg);
    cfg.sync = SyncStrategy::Ring;
    cfg.sync_period = Duration::from_millis(50);
    let w = truth.clone();
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(99)));
    let source = Box::new(
        GeneratorSource::new(move |_, values, _| {
            values.extend(w.sample(&mut *lock(&rng)));
            true
        })
        .with_max_tuples(n_tuples),
    );
    let (graph, handles) = ParallelPcaApp::build(&cfg, source);
    println!(
        "running {n_engines} engines over {n_tuples} tuples (dim {dim}, ring sync @ {:?}) ...",
        cfg.sync_period
    );
    let t0 = std::time::Instant::now();
    let report = Engine::run(graph);
    let elapsed = t0.elapsed();

    println!("\nper-engine tuple counts (random load balancing):");
    for (name, snap) in &report.ops {
        if name.starts_with("pca-") {
            println!("  {name}: {} tuples", snap.tuples_in);
        }
    }
    let total = report.tuples_in_matching("pca-");
    println!("  total: {total} (source produced {n_tuples})");

    let merged = handles.hub.merged_estimate().expect("all engines reported");
    let par_dist = subspace_distance(&merged.basis, truth.basis()).expect("shapes");

    println!("\nsubspace recovery error (sin of max principal angle):");
    println!("  sequential single engine : {seq_dist:.4}");
    println!("  merged {n_engines}-way parallel    : {par_dist:.4}");
    println!(
        "\nthroughput: {:.0} tuples/s across the dataflow ({} ms wall)",
        total as f64 / elapsed.as_secs_f64(),
        elapsed.as_millis()
    );

    assert_eq!(total, n_tuples, "tuples were lost in the dataflow");
    assert!(
        par_dist < 0.2,
        "parallel estimate failed to converge: {par_dist}"
    );
    println!("\nOK: parallel partitioned run matches the sequential estimate.");
}
