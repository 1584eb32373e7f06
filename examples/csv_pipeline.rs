//! File-based batch-over-stream workflow: CSV in → parallel robust PCA →
//! outlier report + eigensystem snapshot out.
//!
//! Mirrors the paper's file-fed deployment ("local regular text or binary
//! file with CSV formatted tuples … can feed the data", with intermediate
//! results "periodically saved to the disk"): a survey extract is staged
//! as CSV (here: synthesized gappy galaxy spectra with `nan` missing
//! bins plus structured contaminants), streamed through the Fig. 2
//! application, and the run leaves behind (a) a per-tuple outcome CSV,
//! (b) a restorable eigensystem snapshot per engine.
//!
//! Run with: `cargo run --release --example csv_pipeline`

use astro_stream_pca::core::PcaConfig;
use astro_stream_pca::engine::{persist, AppConfig, ParallelPcaApp, SnapshotWriter};
use astro_stream_pca::spectra::io;
use astro_stream_pca::spectra::GalaxyGenerator;
use astro_stream_pca::streams::ops::CsvFileSource;
use astro_stream_pca::streams::Engine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_streams::lock;

const N_PIXELS: usize = 200;
const N_SPECTRA: usize = 4000;
const CONTAMINATION: f64 = 0.04;

fn main() {
    let work = std::env::temp_dir().join(format!("spca_csv_pipeline_{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("workdir");
    let input_csv = work.join("survey_extract.csv");
    let snapshot_dir = work.join("snapshots");

    // --- Stage 1: synthesize the survey extract to disk. ---
    let gen = GalaxyGenerator::new(N_PIXELS, 0.2);
    let mut rng = StdRng::seed_from_u64(42);
    let (rows, n_contaminants) = gen.survey_extract(&mut rng, N_SPECTRA, CONTAMINATION);
    io::write_csv_masked(&input_csv, &rows).expect("write extract");
    println!(
        "staged {} spectra ({} contaminants) to {}",
        N_SPECTRA,
        n_contaminants,
        input_csv.display()
    );

    // --- Stage 2: stream the file through the parallel application. ---
    let pca = PcaConfig::new(N_PIXELS, 4)
        .with_memory(5000)
        .with_init_size(60)
        .with_extra(2);
    let mut cfg = AppConfig::new(3, pca);
    cfg.emit_outcomes = true;
    cfg.snapshot_dir = Some(snapshot_dir.clone());
    let source = Box::new(CsvFileSource::new(&input_csv));
    let (graph, handles) = ParallelPcaApp::build(&cfg, source);
    let report = Engine::run(graph);
    let consumed = report.tuples_in_matching("pca-");
    println!("streamed {consumed} tuples through 3 engines");

    // --- Stage 3: persist the outlier report; verify the snapshot. ---
    let outcomes = handles.outcomes.expect("outcome feed enabled");
    let rows: Vec<Vec<f64>> = lock(&outcomes)
        .iter()
        .map(|t| t.values.as_ref().clone())
        .collect();
    let flagged = rows.iter().filter(|r| r[4] > 0.5).count();
    let report_csv = work.join("outlier_report.csv");
    io::write_csv(&report_csv, &rows).expect("write report");
    println!(
        "outlier report: {} rows, {} flagged → {}",
        rows.len(),
        flagged,
        report_csv.display()
    );

    let snap = persist::read_snapshot(&SnapshotWriter::latest_path(&snapshot_dir, 0))
        .expect("snapshot readable");
    println!(
        "engine 0 snapshot: {} obs folded in, σ² = {:.3e}, λ = {:?}",
        snap.n_obs,
        snap.sigma2,
        snap.values
            .iter()
            .map(|v| (v * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );

    assert_eq!(consumed as usize, N_SPECTRA, "tuples lost in the pipeline");
    assert!(
        flagged as f64 >= 0.5 * n_contaminants as f64,
        "too few contaminants flagged: {flagged}/{n_contaminants}"
    );
    let merged = handles.hub.merged_estimate().expect("engines reported");
    assert!(merged.variance_captured(4) > 0.5);

    std::fs::remove_dir_all(&work).ok();
    println!("\nOK: file-fed parallel run produced outlier report + restorable snapshots.");
}
