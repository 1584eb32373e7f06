//! Engine-transport throughput grid: fused/unfused × 1/2/4 engines,
//! per-tuple transport (batch size 1) vs. the batched frame transport.
//!
//! This is the measurement behind the recorded `BENCH_engine.json`
//! artifact: the cross-PE batching optimization must hold its speedup on
//! the full application graph, not just in microbenchmarks. The workload
//! is deliberately transport-heavy (modest dimensionality, pre-generated
//! observations) so the number isolates what the transport change buys;
//! at paper-scale dimensions the PCA update dominates and batching is
//! simply neutral.
//!
//! Unfused cells hand tuples between PEs over the in-process frame
//! channel, so what a cell pays per message is the channel's own
//! synchronization and wake-up and nothing modeled on top. Fused cells
//! have no cross-PE transport and are unaffected; they are the control
//! rows.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_bench::json::{obj, record, Json};
use spca_bench::{cores, median, print_table, write_csv};
use spca_core::PcaConfig;
use spca_engine::{AppConfig, ParallelPcaApp, SyncStrategy};
use spca_spectra::PlantedSubspace;
use spca_streams::ops::GeneratorSource;
use spca_streams::{Engine, DEFAULT_BATCH_SIZE};
use std::sync::Arc;
use std::time::Instant;

const DIM: usize = 16;
const TUPLES: u64 = 20_000;
const RUNS: usize = 5;

fn run_once(
    samples: &Arc<Vec<Vec<f64>>>,
    n_engines: usize,
    fuse: bool,
    batch: usize,
) -> (f64, u64, u64) {
    let pca = PcaConfig::new(DIM, 2).with_memory(2000).with_init_size(20);
    let mut cfg = AppConfig::new(n_engines, pca);
    cfg.fuse = fuse;
    cfg.sync = SyncStrategy::None;
    cfg.batch_size = batch;
    let data = Arc::clone(samples);
    let cursor = Arc::new(Mutex::new(0usize));
    let source = Box::new(
        GeneratorSource::new(move |_| {
            let mut i = cursor.lock();
            let row = data[*i % data.len()].clone();
            *i += 1;
            Some((row, None))
        })
        .with_max_tuples(TUPLES),
    );
    let (g, _h) = ParallelPcaApp::build(&cfg, source);
    let t0 = Instant::now();
    let report = Engine::run(g);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(report.tuples_in_matching("pca-"), TUPLES);
    (
        TUPLES as f64 / dt,
        report.total_restarts(),
        report.total_pe_restarts(),
    )
}

fn measure(
    samples: &Arc<Vec<Vec<f64>>>,
    n_engines: usize,
    fuse: bool,
    batch: usize,
) -> (f64, u64, u64) {
    let mut restarts = 0;
    let mut pe_restarts = 0;
    let mut rates: Vec<f64> = (0..RUNS)
        .map(|_| {
            let (rate, r, pr) = run_once(samples, n_engines, fuse, batch);
            restarts += r;
            pe_restarts += pr;
            rate
        })
        .collect();
    (median(&mut rates), restarts, pe_restarts)
}

fn main() {
    // Pre-generate the stream so the generator cost is identical (and
    // negligible) in every cell.
    let w = PlantedSubspace::new(DIM, 2, 0.05);
    let mut rng = StdRng::seed_from_u64(42);
    let samples = Arc::new(
        (0..TUPLES as usize)
            .map(|_| w.sample(&mut rng))
            .collect::<Vec<_>>(),
    );

    let mut rows = Vec::new();
    let mut report_rows = Vec::new();
    let mut total_restarts = 0;
    let mut total_pe_restarts = 0;
    let mut unfused2 = (0.0, 0.0, 0.0);
    for fuse in [true, false] {
        for engines in [1usize, 2, 4] {
            let (batch1, r1, pr1) = measure(&samples, engines, fuse, 1);
            let (batched, rb, prb) = measure(&samples, engines, fuse, DEFAULT_BATCH_SIZE);
            total_restarts += r1 + rb;
            total_pe_restarts += pr1 + prb;
            let speedup = batched / batch1;
            if !fuse && engines == 2 {
                unfused2 = (speedup, batch1, batched);
            }
            rows.push(vec![
                if fuse { 1.0 } else { 0.0 },
                engines as f64,
                batch1,
                batched,
                speedup,
            ]);
            let config = format!("{}-{engines}", if fuse { "fused" } else { "unfused" });
            report_rows.push(obj([
                ("config", Json::Str(config)),
                ("fused", Json::Bool(fuse)),
                ("engines", Json::Num(engines as f64)),
                ("batch1_tuples_per_s", Json::Num(batch1)),
                ("batched_tuples_per_s", Json::Num(batched)),
                ("speedup", Json::Num(speedup)),
            ]));
        }
    }

    let header = [
        "fused",
        "engines",
        "batch1_tuples_per_s",
        "batched_tuples_per_s",
        "speedup",
    ];
    print_table("engine transport throughput", &header, &rows);
    let csv = write_csv("fig_engine.csv", &header, &rows);
    println!("\nwrote {}", csv.display());

    let benchmark = format!(
        "engine_throughput grid (d = {DIM}, {TUPLES} tuples, median of {RUNS} runs per cell)"
    );
    let cores = cores();
    let machine_note =
        format!("{cores}-core container, cargo run --release, same build for both columns");
    let target = "unfused 2-engine batched ≥ 1.5x over batch-size-1";
    let report = obj([
        ("benchmark", Json::Str(benchmark)),
        ("machine_note", Json::Str(machine_note)),
        ("tuples", Json::Num(TUPLES as f64)),
        ("dim", Json::Num(DIM as f64)),
        ("batch", Json::Num(DEFAULT_BATCH_SIZE as f64)),
        ("target", Json::Str(target.into())),
        ("restarts", Json::Num(total_restarts as f64)),
        ("pe_restarts", Json::Num(total_pe_restarts as f64)),
        ("results", Json::Arr(report_rows)),
    ]);
    let verdict = record("BENCH_engine.json", &report).expect("recording fails its own gates");
    println!("wrote BENCH_engine.json ({verdict})");

    let (speedup, batch1, batched) = unfused2;
    println!("unfused 2-engine speedup: {speedup:.2}x ({batch1:.0} → {batched:.0} tuples/s)");
}
