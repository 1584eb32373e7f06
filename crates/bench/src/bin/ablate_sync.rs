//! Ablation: the synchronization gate and strategy (§II-C).
//!
//! The paper gates state exchange on `obs_since_sync > 1.5·N` — "a good
//! compromise between the speed and consistency of eigensystems" — and
//! defaults to the ring of Fig. 3. This ablation quantifies both choices
//! on a drifting stream (where synchronization actually matters):
//!
//! * gate multiplier ∈ {0 (always share), 1.0, 1.5, 3.0, ∞ (never)};
//! * strategy ∈ {ring, broadcast, groups(2)};
//!
//! measuring (a) cross-engine consistency (max pairwise subspace distance
//! at end of run), (b) accuracy of the merged estimate vs the planted
//! basis, and (c) the number of state exchanges (network cost proxy).
//!
//! Output: `target/figures/ablate_sync.csv`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_bench::{print_table, write_csv};
use spca_core::metrics::subspace_distance;
use spca_core::PcaConfig;
use spca_engine::{AppConfig, ParallelPcaApp, SyncStrategy};
use spca_spectra::PlantedSubspace;
use spca_streams::lock;
use spca_streams::ops::GeneratorSource;
use spca_streams::Engine;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const DIM: usize = 48;
const RANK: usize = 3;
const N_ENGINES: usize = 4;
const N_TUPLES: u64 = 24_000;
const MEMORY: usize = 1000;

struct Outcome {
    consistency: f64,
    accuracy: f64,
    exchanges: u64,
}

fn run(strategy: SyncStrategy, gate_mult: Option<f64>) -> Outcome {
    run_with_divergence(strategy, gate_mult, None)
}

fn run_with_divergence(
    strategy: SyncStrategy,
    gate_mult: Option<f64>,
    divergence: Option<f64>,
) -> Outcome {
    let pca = PcaConfig::new(DIM, RANK)
        .with_memory(MEMORY)
        .with_init_size(40);
    let mut cfg = AppConfig::new(N_ENGINES, pca);
    cfg.sync = strategy;
    cfg.divergence_gate = divergence;
    cfg.sync_period = Duration::from_millis(5);
    let truth = PlantedSubspace::new(DIM, RANK, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(11)));
    let source = Box::new(
        GeneratorSource::new(move |_, values, _| {
            values.extend(truth.sample(&mut *lock(&rng)));
            true
        })
        .with_max_tuples(N_TUPLES),
    );
    let (g, h) = ParallelPcaApp::build_with_gate(
        &cfg,
        source,
        gate_mult.map(|m| (m * MEMORY as f64) as u64),
    );
    Engine::run(g);
    let truth = PlantedSubspace::new(DIM, RANK, 0.05);

    // Consistency: max pairwise subspace distance between engines' finals.
    let finals: Vec<_> = (0..N_ENGINES)
        .filter_map(|e| h.hub.engine_state(e))
        .map(|s| s.truncated(RANK))
        .collect();
    let mut consistency = 0.0_f64;
    for i in 0..finals.len() {
        for j in (i + 1)..finals.len() {
            let d = subspace_distance(&finals[i].basis, &finals[j].basis).expect("shapes");
            consistency = consistency.max(d);
        }
    }
    let merged = h.hub.merged_estimate().expect("engines reported");
    let accuracy = subspace_distance(&merged.truncated(RANK).basis, truth.basis()).expect("shapes");
    // Exchanges: actual eigensystem shares, as reported in the engines'
    // final snapshots (commands blocked by the gate don't count).
    let (exchanges, _merges) = h.hub.sync_totals();
    Outcome {
        consistency,
        accuracy,
        exchanges,
    }
}

fn main() {
    println!("Sync ablation: gate multiplier × strategy ({N_ENGINES} engines, N = {MEMORY})\n");

    let mut rows = Vec::new();
    println!("gate sweep (ring strategy):");
    for (label, mult) in [
        ("always (0)", Some(0.0)),
        ("1.0 N", Some(1.0)),
        ("1.5 N (paper)", Some(1.5)),
        ("3.0 N", Some(3.0)),
        ("never", None::<f64>),
    ] {
        let strategy = if mult.is_none() {
            SyncStrategy::None
        } else {
            SyncStrategy::Ring
        };
        let o = run(strategy, mult);
        println!(
            "  {label:<14} consistency {:.4}  accuracy {:.4}  control msgs {}",
            o.consistency, o.accuracy, o.exchanges
        );
        rows.push(vec![
            mult.unwrap_or(f64::INFINITY),
            o.consistency,
            o.accuracy,
            o.exchanges as f64,
        ]);
    }

    println!("\ndata-driven divergence gate (ring, 1.5·N):");
    for (code, div) in [(0.0, None), (0.02, Some(0.02)), (0.2, Some(0.2))] {
        let o = run_with_divergence(SyncStrategy::Ring, Some(1.5), div);
        println!(
            "  divergence {:>5}: consistency {:.4}  accuracy {:.4}  shares {}",
            code, o.consistency, o.accuracy, o.exchanges
        );
        rows.push(vec![
            100.0 + code,
            o.consistency,
            o.accuracy,
            o.exchanges as f64,
        ]);
    }

    println!("\nstrategy sweep (1.5·N gate):");
    for (code, strategy) in [
        (1.0, SyncStrategy::Ring),
        (2.0, SyncStrategy::Broadcast),
        (3.0, SyncStrategy::Groups(2)),
    ] {
        let o = run(strategy, Some(1.5));
        println!(
            "  {strategy:?}: consistency {:.4}  accuracy {:.4}  control msgs {}",
            o.consistency, o.accuracy, o.exchanges
        );
        rows.push(vec![-code, o.consistency, o.accuracy, o.exchanges as f64]);
    }

    let path = write_csv(
        "ablate_sync.csv",
        &[
            "gate_or_strategy",
            "consistency",
            "accuracy",
            "control_msgs",
        ],
        &rows,
    );
    println!("\nwrote {}", path.display());
    print_table(
        "sync ablation (negative first column = strategy sweep codes)",
        &["gate/strategy", "consistency", "accuracy", "ctl msgs"],
        &rows,
    );

    // The paper's claim: syncing beats never-syncing on consistency, and
    // the 1.5·N gate costs far fewer messages than always-share while
    // keeping consistency close.
    let never = &rows[4];
    let paper = &rows[2];
    let always = &rows[0];
    assert!(
        paper[1] <= never[1] + 0.05,
        "1.5N gate should be at least as consistent as never syncing"
    );
    assert!(
        paper[3] < always[3],
        "1.5N gate must exchange fewer messages than always-share"
    );
    println!(
        "\nshape check PASSED: the 1.5·N gate trades little consistency for far less traffic."
    );
}
