//! Classic vs robust PCA under contamination — the Fig. 1 contrast.
//!
//! Streams planted low-rank data with 8% gross outliers through both
//! estimators and prints the eigenvalue traces side by side: the classic
//! eigensystem is repeatedly captured by outliers (the paper's "rainbow
//! effect" — eigenvalues jump and the basis swings), while the robust
//! M-scale estimator stays locked on the true subspace and flags the
//! contaminated tuples.
//!
//! Run with: `cargo run --release --example outlier_flagging`

use astro_stream_pca::core::metrics::subspace_distance;
use astro_stream_pca::core::{PcaConfig, RhoKind, RobustPca};
use astro_stream_pca::spectra::outliers::OutlierInjector;
use astro_stream_pca::spectra::PlantedSubspace;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let dim = 50;
    let rank = 4;
    let n = 8000;
    let truth = PlantedSubspace::new(dim, rank, 0.05);
    let injector = OutlierInjector::new(0.08);

    let base = PcaConfig::new(dim, rank)
        .with_memory(1500)
        .with_init_size(60);
    let mut robust = RobustPca::new(base.clone().with_rho(RhoKind::Bisquare(9.0)));
    let mut classic = RobustPca::new(base.with_rho(RhoKind::Classical));

    let mut rng = StdRng::seed_from_u64(1);
    let mut flagged = 0u64;
    let mut injected = 0u64;

    println!(
        "{:>6} | {:^27} | {:^27}",
        "n", "classic eigenvalues", "robust eigenvalues"
    );
    for i in 0..n {
        let mut x = truth.sample(&mut rng);
        if injector.maybe_contaminate(&mut rng, &mut x) {
            injected += 1;
        }
        classic.update(&x).expect("finite");
        let out = robust.update(&x).expect("finite");
        if out.outlier {
            flagged += 1;
        }
        if (i + 1) % 1000 == 0 {
            let ce = classic.eigensystem();
            let re = robust.eigensystem();
            let fmt = |v: &[f64]| {
                v.iter()
                    .map(|x| format!("{x:6.1}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!("{:>6} | {} | {}", i + 1, fmt(&ce.values), fmt(&re.values));
        }
    }

    let ce = classic.eigensystem();
    let re = robust.eigensystem();
    let classic_dist = subspace_distance(&ce.basis, truth.basis()).expect("shapes");
    let robust_dist = subspace_distance(&re.basis, truth.basis()).expect("shapes");

    println!(
        "\ntrue eigenvalues: {:?}",
        truth
            .true_eigenvalues()
            .iter()
            .map(|v| (v * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!("subspace error — classic: {classic_dist:.3},  robust: {robust_dist:.3}");
    println!("outliers flagged by the robust engine: {flagged} (injected {injected})");

    assert!(robust_dist < 0.15, "robust should hold the subspace");
    assert!(
        classic_dist > 2.0 * robust_dist,
        "classic should be visibly captured by the contamination"
    );
    println!("\nOK: robust PCA ignored the contamination the classic estimator absorbed.");
}
