//! A synchronized run over a slow stream must not cost a core: the sync
//! controller is ticked by the engines' reports, not polled by the
//! scheduler. This file holds one test because it reads the CPU time of
//! the whole process.
#![cfg(target_os = "linux")]

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::PcaConfig;
use spca_engine::{AppConfig, ParallelPcaApp, SyncStrategy};
use spca_spectra::PlantedSubspace;
use spca_streams::ops::GeneratorSource;
use spca_streams::Engine;
use std::sync::Arc;
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

#[test]
fn a_slow_synced_stream_does_not_cost_a_core() {
    const ROWS: u64 = 250;
    let pca = PcaConfig::new(16, 2)
        .with_memory(300)
        .with_init_size(20)
        .with_extra(0);
    let mut cfg = AppConfig::new(2, pca);
    cfg.sync = SyncStrategy::Ring;
    cfg.sync_period = Duration::from_millis(20);

    // ~2 ms per row, ~0.5 s in all: the stream, not the engines, sets
    // the pace, so every thread of the run spends it waiting.
    let w = PlantedSubspace::new(16, 2, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(31)));
    let source = GeneratorSource::new(move |_| {
        std::thread::sleep(Duration::from_millis(2));
        Some((w.sample(&mut *rng.lock()), None))
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
        share < 0.5,
        "process CPU {cpu:?} over {wall:?} of wall ({:.0} %)",
        100.0 * share
    );
}
