//! A run over a slow stream must not cost a core: the sync controller is
//! ticked by the engines' reports, not polled by the scheduler, and a PE
//! with nothing to do sleeps until a producer rings it. This file holds
//! one test because it reads the CPU time of the whole process.
#![cfg(target_os = "linux")]

use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::PcaConfig;
use spca_engine::{AppConfig, ParallelPcaApp, SyncStrategy};
use spca_spectra::PlantedSubspace;
use spca_streams::lock;
use spca_streams::ops::GeneratorSource;
use spca_streams::Engine;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// User + system CPU time of this process: fields 14 and 15 of
/// `/proc/self/stat`, in clock ticks of 1/100 s (Linux's `USER_HZ`).
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2, the command name, may hold spaces: count from its ')'.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 2..];
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("tick count"))
        .sum();
    Duration::from_millis(ticks * 10)
}

/// Runs 2 unfused engines under `sync` over 250 rows at ~4 ms a row (~1 s
/// in all) and asserts the process used under a fifth of a core. The
/// stream, not the engines, sets the pace, so every thread of the run
/// spends it waiting: the engines' PEs on their channels, the split's on
/// the source. In a debug build on 2 cores a PE that polled its channels
/// every 100 µs read 23–29 %, and one that sleeps until rung 7–11 %.
fn assert_a_slow_stream_costs_no_core(sync: SyncStrategy) {
    const ROWS: u64 = 250;
    let pca = PcaConfig::new(16, 2)
        .with_memory(300)
        .with_init_size(20)
        .with_extra(0);
    let mut cfg = AppConfig::new(2, pca);
    cfg.sync = sync;
    cfg.sync_period = Duration::from_millis(20);

    let w = PlantedSubspace::new(16, 2, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(31)));
    let source = GeneratorSource::new(move |_, values, _| {
        std::thread::sleep(Duration::from_millis(4));
        values.extend(w.sample(&mut *lock(&rng)));
        true
    })
    .with_max_tuples(ROWS);
    let (g, h) = ParallelPcaApp::build(&cfg, Box::new(source));

    let (cpu_before, started) = (process_cpu(), Instant::now());
    let report = Engine::run(g);
    let (cpu, wall) = (process_cpu() - cpu_before, started.elapsed());

    assert_eq!(report.tuples_in_matching("pca-"), ROWS);
    assert_eq!(h.hub.engines_reporting(), 2);
    let share = cpu.as_secs_f64() / wall.as_secs_f64();
    assert!(
        share < 0.2,
        "{sync:?}: process CPU {cpu:?} over {wall:?} of wall ({:.0} %)",
        100.0 * share
    );
}

#[test]
fn a_slow_synced_stream_does_not_cost_a_core() {
    // The polled controller read ~115 % here.
    assert_a_slow_stream_costs_no_core(SyncStrategy::Ring);
    // No controller: what is left is the PEs' own waits.
    assert_a_slow_stream_costs_no_core(SyncStrategy::None);
}
