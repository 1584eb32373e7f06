//! Tracking time-dependent phenomena (§II-B / §II-C's motivation:
//! "keeping all elements is vital to learn the changes in the stream in a
//! timely manner").
//!
//! A spectral source drifts: the dominant variance direction rotates
//! slowly from one axis-pair to another (an instrument degrading, or a
//! survey moving between galaxy populations). Two kinds of tracker watch
//! the same stream:
//!
//! * α-damped robust PCA (the paper's forgetting factor),
//! * two [`BasisScaleTracker`]s scoring the *old* and *new* bases — the
//!   §II-B trick for "meaningful comparison of the performance of various
//!   bases" on a live stream.
//!
//! Run with: `cargo run --release --example drifting_stream`

use astro_stream_pca::core::metrics::subspace_distance;
use astro_stream_pca::core::{BasisScaleTracker, PcaConfig, RobustPca};
use astro_stream_pca::linalg::rng::standard_normal;
use astro_stream_pca::linalg::Mat;
use rand::rngs::StdRng;
use rand::SeedableRng;

const D: usize = 24;
const N: usize = 12_000;

/// The true basis at progress `f ∈ [0, 1]`: axes (0,1) rotating into (6,7).
fn true_basis(f: f64) -> Mat {
    let theta = f * std::f64::consts::FRAC_PI_2;
    let (c, s) = (theta.cos(), theta.sin());
    let mut m = Mat::zeros(D, 2);
    m[(0, 0)] = c;
    m[(6, 0)] = s;
    m[(1, 1)] = c;
    m[(7, 1)] = s;
    m
}

fn sample(rng: &mut StdRng, f: f64) -> Vec<f64> {
    let b = true_basis(f);
    let c1 = 4.0 * standard_normal(rng);
    let c2 = 2.0 * standard_normal(rng);
    let mut x: Vec<f64> = (0..D).map(|i| c1 * b[(i, 0)] + c2 * b[(i, 1)]).collect();
    for v in x.iter_mut() {
        *v += 0.02 * standard_normal(rng);
    }
    x
}

fn main() {
    let mut rng = StdRng::seed_from_u64(9);
    let cfg = PcaConfig::new(D, 2).with_init_size(40).with_extra(0);

    let mut damped = RobustPca::new(cfg.clone().with_memory(800));
    let mut score_old = BasisScaleTracker::new(true_basis(0.0), &cfg.clone().with_memory(800));
    let mut score_new = BasisScaleTracker::new(true_basis(1.0), &cfg.clone().with_memory(800));

    println!(
        "{:>7} | {:>12} | {:>12} {:>12}",
        "n", "damped err", "old-basis λΣ", "new-basis λΣ"
    );
    for i in 0..N {
        let f = i as f64 / N as f64;
        let x = sample(&mut rng, f);
        damped.update(&x).expect("finite");
        score_old.update(&x).expect("finite");
        score_new.update(&x).expect("finite");

        if (i + 1) % 2000 == 0 {
            let truth = true_basis(f);
            let de = subspace_distance(&damped.eigensystem().basis, &truth).expect("shapes");
            println!(
                "{:>7} | {:>12.4} | {:>12.2} {:>12.2}",
                i + 1,
                de,
                score_old.captured(),
                score_new.captured()
            );
        }
    }

    // The forgetting factor must end on the rotated basis.
    let final_truth = true_basis(1.0);
    let d_damped = subspace_distance(&damped.eigensystem().basis, &final_truth).expect("shapes");
    println!("\nfinal subspace error — damped: {d_damped:.4}");

    // And the live basis scores must have crossed: the old basis dominated
    // early, the new basis dominates at the end.
    let (old_score, new_score) = (score_old.captured(), score_new.captured());
    println!("robust variance captured — old basis: {old_score:.1}, new basis: {new_score:.1}");

    assert!(d_damped < 0.15, "damped tracker lost the drift: {d_damped}");
    assert!(
        new_score > 2.0 * old_score,
        "basis comparison failed to notice the drift: {old_score} vs {new_score}"
    );
    println!("\nOK: the forgetting factor tracked the drift; basis scoring detected it.");
}
