//! Elastic-rescale benchmark behind the recorded `BENCH_elastic.json`
//! artifact (`schema: elastic-v1`).
//!
//! One paced elastic run (1 engine active, 3 provisioned) with two
//! scripted rescales: a scale-out at roughly a quarter of the stream —
//! the joiner bootstrapped from the fleet's merged eigensystem in
//! checkpoint format — and a scale-in at roughly three quarters, where
//! the retiring engine drains and its state folds into the survivor.
//! Both migration latencies are measured around the `ElasticRuntime`
//! calls (bootstrap + membership flip; flip + drain + merge), excluding
//! stream time.
//!
//! A fixed-fleet reference run over the *same seeded observations*
//! provides the consistency figure: the subspace distance between the
//! two final merged eigensystems. Gates (the `elastic-v1` row of
//! `spca_bench::json::SCHEMAS`, run here by `record` and in CI by
//! `check_bench_json`): at least one rescale in each direction, zero
//! tuple loss, zero restarts of either kind, consistency within 0.25, and
//! rescale latencies under 1 s on hosts with ≥ 4 cores.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_bench::cores;
use spca_bench::json::{obj, record, Json};
use spca_core::metrics::subspace_distance;
use spca_core::{EigenSystem, PcaConfig};
use spca_engine::{AppConfig, ElasticRuntime, ParallelPcaApp, SyncStrategy};
use spca_spectra::PlantedSubspace;
use spca_streams::metrics::Counter;
use spca_streams::ops::GeneratorSource;
use spca_streams::{lock, Engine, Operator, RunReport};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DIM: usize = 32;
const N_TUPLES: u64 = 200_000;
const MAX_ENGINES: usize = 3;
/// Pacing keeps the stream alive long enough (~2 s) to script both
/// rescales against live traffic; values are seed-determined either way.
const RATE_PER_S: f64 = 100_000.0;

fn pca_cfg() -> PcaConfig {
    // extra = 0: the consistency figure compares the tracked subspace
    // directly; surplus noise directions would dominate the distance.
    PcaConfig::new(DIM, 2)
        .with_memory(500)
        .with_init_size(30)
        .with_extra(0)
}

fn seeded_source(rate: Option<f64>) -> Box<dyn Operator> {
    let w = PlantedSubspace::new(DIM, 2, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(42)));
    let mut src = GeneratorSource::new(move |_, values, _| {
        values.extend(w.sample(&mut *lock(&rng)));
        true
    })
    .with_max_tuples(N_TUPLES);
    if let Some(per_sec) = rate {
        src = src.with_rate(per_sec);
    }
    Box::new(src)
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

struct ElasticOutcome {
    report: RunReport,
    merged: EigenSystem,
    scale_out_latency: Duration,
    scale_in_latency: Duration,
    final_engines: usize,
}

fn elastic_run() -> ElasticOutcome {
    let mut cfg = AppConfig::new(1, pca_cfg());
    cfg.sync = SyncStrategy::Ring;
    cfg.sync_period = Duration::from_millis(5);
    cfg.heartbeat_every = 64;
    cfg.liveness_timeout = Duration::from_millis(500);
    cfg.channel_capacity = 8192;
    cfg.max_engines = Some(MAX_ENGINES);
    let (g, h) = ParallelPcaApp::build(&cfg, seeded_source(Some(RATE_PER_S)));
    let rt = ElasticRuntime::new(&h);
    let running = Engine::start(g);

    // Both rescale points gate on actual stream progress (the source's
    // live tuple counter — per-engine n_obs drifts upward with merges).
    let source_progress = |running: &spca_streams::RunningEngine| {
        running.op_snapshot("source").map_or(0, |s| s.tuples_out)
    };

    // Scale out at ~N/4.
    wait_for("the scale-out point", || {
        source_progress(&running) > N_TUPLES / 4
    });
    let t = Instant::now();
    rt.scale_out().expect("scale out");
    let scale_out_latency = t.elapsed();

    // Scale in at ~3N/4.
    wait_for("the scale-in point", || {
        source_progress(&running) > 3 * N_TUPLES / 4
    });
    let t = Instant::now();
    rt.scale_in().expect("scale in");
    let scale_in_latency = t.elapsed();

    let final_engines = rt.active();
    let report = running.join();
    let merged = rt.merged_active_eigensystem().expect("merged estimate");
    ElasticOutcome {
        report,
        merged,
        scale_out_latency,
        scale_in_latency,
        final_engines,
    }
}

fn reference_run() -> EigenSystem {
    let cfg = AppConfig::new(1, pca_cfg());
    let (g, h) = ParallelPcaApp::build(&cfg, seeded_source(None));
    Engine::run(g);
    let eig = lock(&h.engine_states[0])
        .full_eigensystem()
        .expect("reference initialized")
        .clone();
    eig
}

fn main() {
    let cores = cores();
    println!("elastic rescale benchmark: d = {DIM}, {N_TUPLES} tuples, {cores} cores");

    let outcome = elastic_run();
    let reference = reference_run();

    let fed = outcome.report.op("source").expect("source op").tuples_out;
    let processed = outcome.report.tuples_in_matching("pca-");
    let consistency = subspace_distance(&outcome.merged.basis, &reference.basis).unwrap();

    println!(
        "scale-out {:.1} ms, scale-in {:.1} ms, consistency {:.4}, {} -> {} tuples",
        outcome.scale_out_latency.as_secs_f64() * 1e3,
        outcome.scale_in_latency.as_secs_f64() * 1e3,
        consistency,
        fed,
        processed
    );

    let benchmark = "scripted scale-out at N/4 and scale-in at 3N/4 on a paced planted-subspace \
                     stream, vs a fixed-fleet reference over the same observations";
    let machine_note =
        format!("{cores}-core container, cargo run --release, same build for every column");
    let target = "zero tuple loss, fault-free, consistency <= 0.25, one rescale each direction";
    let count = |n: u64| Json::Num(n as f64);
    let ms = |d: Duration| Json::Num(d.as_secs_f64() * 1e3);
    let total = |which| count(outcome.report.total(which));
    let report = obj([
        ("schema", Json::Str("elastic-v1".into())),
        ("benchmark", Json::Str(benchmark.into())),
        ("machine_note", Json::Str(machine_note)),
        ("cores", Json::Num(cores as f64)),
        ("dim", Json::Num(DIM as f64)),
        ("tuples", count(N_TUPLES)),
        ("target", Json::Str(target.into())),
        ("restarts", total(Counter::Restarts)),
        ("pe_restarts", total(Counter::PeRestarts)),
        ("scale_outs", total(Counter::ScaleOuts)),
        ("scale_ins", total(Counter::ScaleIns)),
        ("tuple_loss", count(fed.saturating_sub(processed))),
        ("scale_out_latency_ms", ms(outcome.scale_out_latency)),
        ("scale_in_latency_ms", ms(outcome.scale_in_latency)),
        ("consistency", Json::Num(consistency)),
        ("max_engines", Json::Num(MAX_ENGINES as f64)),
        ("final_engines", Json::Num(outcome.final_engines as f64)),
    ]);
    let verdict = record("BENCH_elastic.json", &report).expect("recording fails its own gates");
    println!("wrote BENCH_elastic.json ({verdict})");
}
