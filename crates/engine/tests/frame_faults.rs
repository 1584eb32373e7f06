//! Operator faults that strike inside a frame. Rows cross a PE boundary in
//! frames of 64 and an engine takes a frame's rows as one run; an engine
//! with a fault armed is fed one row at a time until it fires, so each
//! fault lands on its row. Here engine 1's 100th row is the 36th of the
//! second frame it receives, and each fault there must give the restart
//! and quarantine counts a per-tuple transport gave, consume every row
//! exactly once, and — but for the quarantined row — leave both engines
//! bit-identical to the fault-free run. Fused into one PE, the same rows
//! reach the engines through the PE's local frame, and each fault must do
//! the same there.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::{EigenSystem, PcaConfig};
use spca_engine::{normalize_fault_targets, AppConfig, ParallelPcaApp, SyncStrategy};
use spca_spectra::PlantedSubspace;
use spca_streams::metrics::Counter;
use spca_streams::ops::{GeneratorSource, SplitStrategy};
use spca_streams::{lock, Engine, FaultPlan, RunReport};
use std::sync::{Arc, Mutex};

const D: usize = 16;
const ROWS: u64 = 2_000;

fn run(fault: Option<&str>, fuse: bool) -> (RunReport, Vec<EigenSystem>) {
    let label = fault.map_or("clean".to_string(), |f| f.replace(['@', ':'], "-"));
    let dir = std::env::temp_dir().join(format!("spca_ff_{}_{label}_{fuse}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let pca = PcaConfig::new(D, 2)
        .with_memory(300)
        .with_init_size(20)
        .with_extra(0);
    let mut cfg = AppConfig::new(2, pca);
    // Strict round-robin into channels no queue can fill — a channel
    // counts frames, and a frame may hold a single row, so one frame per
    // row of the stream — so routing, and each engine's state, does not
    // depend on timing.
    cfg.split = SplitStrategy::RoundRobin;
    cfg.sync = SyncStrategy::None;
    cfg.batch_size = 64;
    cfg.channel_capacity = 64 * ROWS as usize;
    cfg.recovery_dir = Some(dir.clone());
    cfg.fuse = fuse;
    if let Some(spec) = fault {
        cfg.faults = Some(normalize_fault_targets(FaultPlan::parse(spec).unwrap()));
    }
    let w = PlantedSubspace::new(D, 2, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(31)));
    let source = GeneratorSource::new(move |_, values, _| {
        values.extend(w.sample(&mut *lock(&rng)));
        true
    })
    .with_max_tuples(ROWS);
    let (g, h) = ParallelPcaApp::build(&cfg, Box::new(source));
    let report = Engine::run(g);
    let eigs = h
        .engine_states
        .iter()
        .map(|s| lock(s).full_eigensystem().expect("initialized").clone())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    (report, eigs)
}

fn same_bits(a: &EigenSystem, b: &EigenSystem) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.n_obs == b.n_obs
        && a.sigma2.to_bits() == b.sigma2.to_bits()
        && bits(&a.values) == bits(&b.values)
        && bits(&a.mean) == bits(&b.mean)
        && a.basis.sub(&b.basis).unwrap().max_abs() == 0.0
}

#[test]
fn faults_inside_a_frame_keep_their_row_and_their_counts() {
    for fuse in [false, true] {
        check_faults(fuse);
    }
}

fn check_faults(fuse: bool) {
    let (clean, clean_eigs) = run(None, fuse);
    assert_eq!(clean.tuples_in_matching("pca-"), ROWS);
    // A PE restart counts once per member of the PE (DESIGN §7).
    let members = clean
        .pe_cpu
        .iter()
        .find(|pe| pe.members.iter().any(|m| m == "pca-1"))
        .expect("engine 1 runs in a PE")
        .members
        .len() as u64;

    // (fault, operator restarts, PE restarts, quarantined)
    for (fault, restarts, pe_restarts, quarantined) in [
        ("panic@engine1:100", 1, 0, 0),
        ("poison-nan@engine1:100", 0, 0, 1),
        ("stall@engine1:100:30", 0, 0, 0),
        ("kill-pe@engine1:100", 0, 1, 0),
    ] {
        let (report, eigs) = run(Some(fault), fuse);
        assert_eq!(
            (
                report.total(Counter::Restarts),
                report.total(Counter::PeRestarts),
                report.total(Counter::Quarantined),
            ),
            (restarts, pe_restarts * members, quarantined),
            "{fault} (fused: {fuse}): restarts, PE restarts, quarantined"
        );
        assert_eq!(
            report.tuples_in_matching("pca-"),
            ROWS,
            "{fault} (fused: {fuse}): every row consumed once"
        );
        for (e, (eig, clean)) in eigs.iter().zip(&clean_eigs).enumerate() {
            if quarantined > 0 && e == 1 {
                assert_eq!(
                    eig.n_obs + 1,
                    clean.n_obs,
                    "{fault} (fused: {fuse}): one row quarantined"
                );
            } else {
                assert!(
                    same_bits(eig, clean),
                    "{fault} (fused: {fuse}): engine {e} differs"
                );
            }
        }
    }
}
