//! Quickstart: robust incremental PCA on a synthetic stream.
//!
//! Streams 5 000 observations from a planted 3-dimensional subspace (with
//! 3% gross outliers mixed in), prints the recovered eigenvalues, the
//! subspace recovery error against ground truth, and the outlier-detection
//! tally.
//!
//! Run with: `cargo run --release --example quickstart`

use astro_stream_pca::core::metrics::subspace_distance;
use astro_stream_pca::core::{PcaConfig, RobustPca};
use astro_stream_pca::spectra::outliers::OutlierInjector;
use astro_stream_pca::spectra::PlantedSubspace;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let dim = 64;
    let rank = 3;
    let mut rng = StdRng::seed_from_u64(7);

    let workload = PlantedSubspace::new(dim, rank, 0.05);
    let injector = OutlierInjector::new(0.03);

    let cfg = PcaConfig::new(dim, rank)
        .with_memory(2000)
        .with_init_size(50);
    let mut pca = RobustPca::new(cfg);

    let (mut outliers_true, mut outliers_flagged, mut false_flags) = (0u64, 0u64, 0u64);
    for _ in 0..5000 {
        let mut x = workload.sample(&mut rng);
        let contaminated = injector.maybe_contaminate(&mut rng, &mut x);
        let outcome = pca.update(&x).expect("finite observation");
        if contaminated {
            outliers_true += 1;
            if outcome.outlier {
                outliers_flagged += 1;
            }
        } else if outcome.outlier {
            false_flags += 1;
        }
    }

    let eig = pca.eigensystem();
    println!(
        "processed {} observations in {} dimensions",
        pca.n_obs(),
        dim
    );
    println!("\nrecovered eigenvalues vs ground truth:");
    for (k, (est, truth)) in eig
        .values
        .iter()
        .zip(workload.true_eigenvalues())
        .enumerate()
    {
        println!("  λ{k}: {est:8.3}   (true {truth:8.3})");
    }
    let dist = subspace_distance(&eig.basis, workload.basis()).expect("shapes match");
    println!("\nsubspace recovery error (sin of max principal angle): {dist:.4}");
    println!("robust scale σ² = {:.5}", eig.sigma2);
    println!(
        "\noutliers: {outliers_flagged}/{outliers_true} injected spikes flagged, \
         {false_flags} false positives"
    );

    assert!(
        dist < 0.1,
        "robust PCA failed to recover the planted subspace"
    );
    println!("\nOK: planted subspace recovered despite contamination.");
}
