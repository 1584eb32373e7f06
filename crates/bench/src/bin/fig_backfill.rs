//! Records `BENCH_backfill.json`: the partitioned-backfill performance
//! artifact.
//!
//! Three measurements over one synthetic corpus:
//!
//! 1. **Scaling sweep** — cold backfill wall time at 1/2/4/8 workers
//!    (fresh state store each run, median of `RUNS`).
//! 2. **Cold vs warm** — the same backfill against an empty store and
//!    against a fully-populated one; the warm run must be all cache hits.
//! 3. **Incrementality** — a by-file corpus gains one file; the re-run
//!    must recompute exactly that partition.
//!
//! `restarts`/`pe_restarts` are recorded as literal zeros: backfill runs
//! no streaming engine and no fault machinery, and the `backfill-v1` row
//! of `spca_bench::json::SCHEMAS` rejects anything else.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_bench::json::{obj, record, Json};
use spca_bench::{cores, median};
use spca_core::PcaConfig;
use spca_engine::{backfill, partition_csv_files, partition_csv_rows, BackfillConfig};
use spca_spectra::{io, PlantedSubspace};
use std::path::{Path, PathBuf};

const D: usize = 64;
const P: usize = 4;
const ROWS: usize = 6000;
const PARTS: usize = 8;
const RUNS: usize = 5;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Worker count the cold/warm comparison is recorded at.
const REF_WORKERS: usize = 4;

fn pca_cfg() -> PcaConfig {
    PcaConfig::new(D, P).with_memory(5000).with_init_size(30)
}

/// One backfill run; returns (wall seconds, cache hits, computed).
fn run(
    workers: usize,
    store: &Path,
    parts: &[spca_streams::Partition<spca_engine::CorpusSlice>],
) -> (f64, u64, u64) {
    let cfg = BackfillConfig {
        pca: pca_cfg(),
        workers,
        state_dir: store.to_path_buf(),
    };
    let outcome = backfill(&cfg, parts).expect("backfill");
    (
        outcome.stats.wall.as_secs_f64(),
        outcome.stats.cache_hits as u64,
        outcome.stats.computed as u64,
    )
}

fn fresh(dir: &Path) -> PathBuf {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    dir.to_path_buf()
}

fn main() {
    let cores = cores();
    let work = std::env::temp_dir().join(format!("spca-fig-backfill-{}", std::process::id()));
    fresh(&work);

    // One corpus for the row-partitioned measurements.
    let planted = PlantedSubspace::new(D, P, 0.05);
    let mut rng = StdRng::seed_from_u64(4242);
    let data = planted.sample_batch(&mut rng, ROWS);
    let csv = work.join("corpus.csv");
    io::write_csv(&csv, &data).unwrap();
    let partitions = partition_csv_rows(&csv, PARTS).unwrap();

    // 1. Cold scaling sweep: a fresh store every run, so every run
    //    computes all partitions.
    let mut walls = Vec::new();
    for &w in &WORKER_SWEEP {
        let mut samples = Vec::with_capacity(RUNS);
        for r in 0..RUNS {
            let store = fresh(&work.join(format!("store-w{w}-r{r}")));
            let (wall, hits, computed) = run(w, &store, &partitions);
            assert_eq!(hits, 0, "cold run must not hit");
            assert_eq!(computed, PARTS as u64);
            samples.push(wall);
        }
        let wall = median(&mut samples);
        eprintln!("workers {w}: cold median {wall:.3}s");
        walls.push((w, wall));
    }
    let wall_1 = walls.iter().find(|(w, _)| *w == 1).unwrap().1;
    let scaling: Vec<Json> = walls
        .iter()
        .map(|&(workers, wall_s)| {
            obj([
                ("workers", Json::Num(workers as f64)),
                ("wall_s", Json::Num(wall_s)),
                ("speedup", Json::Num(wall_1 / wall_s)),
            ])
        })
        .collect();

    // 2. Cold vs warm at the reference worker count: populate once, then
    //    the warm medians come from all-cache-hit re-runs.
    let store = fresh(&work.join("store-warm"));
    let mut cold_samples = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        fresh(&store);
        let (wall, _, _) = run(REF_WORKERS, &store, &partitions);
        cold_samples.push(wall);
    }
    let cold_wall_s = median(&mut cold_samples);
    let mut warm_samples = Vec::with_capacity(RUNS);
    let mut warm_cache_hits = 0;
    for _ in 0..RUNS {
        let (wall, hits, computed) = run(REF_WORKERS, &store, &partitions);
        assert_eq!(computed, 0, "warm run recomputed {computed} partitions");
        warm_cache_hits = hits;
        warm_samples.push(wall);
    }
    let warm_wall_s = median(&mut warm_samples);
    eprintln!(
        "cold {cold_wall_s:.3}s, warm {warm_wall_s:.5}s ({:.0}x)",
        cold_wall_s / warm_wall_s
    );

    // 3. Incrementality on a by-file corpus: 8 day files, then one more.
    let days = work.join("days");
    fresh(&days);
    let day_rows = ROWS / PARTS;
    let extra = planted.sample_batch(&mut rng, day_rows);
    for (i, chunk) in data.chunks(day_rows).enumerate() {
        io::write_csv(days.join(format!("day{i}.csv")), chunk).unwrap();
    }
    let day_files =
        |n: usize| -> Vec<PathBuf> { (0..n).map(|i| days.join(format!("day{i}.csv"))).collect() };
    let inc_store = fresh(&work.join("store-inc"));
    run(
        REF_WORKERS,
        &inc_store,
        &partition_csv_files(&day_files(PARTS)).unwrap(),
    );
    io::write_csv(days.join(format!("day{PARTS}.csv")), &extra).unwrap();
    let (_, inc_hits, inc_computed) = run(
        REF_WORKERS,
        &inc_store,
        &partition_csv_files(&day_files(PARTS + 1)).unwrap(),
    );
    eprintln!("incremental: +1 file -> {inc_computed} computed, {inc_hits} hits");

    let benchmark = format!(
        "partitioned backfill: {ROWS} rows x d={D}, {PARTS} row-range partitions; \
         cold scaling at 1/2/4/8 workers, cold-vs-warm store at {REF_WORKERS} workers, \
         +1-file incrementality; medians of {RUNS} runs"
    );
    let machine_note = format!(
        "single container vCPU ({cores} core(s) visible), cargo run --release; \
         the 2.5x scaling floor is waived below 4 cores — thread-level speedup \
         is unmeasurable without physical parallelism"
    );
    let target = ">=2.5x cold speedup at 4 workers (waived under 4 cores); warm store >=10x \
                  faster than cold; adding one partition recomputes exactly one";
    let report = obj([
        ("schema", Json::Str("backfill-v1".into())),
        ("benchmark", Json::Str(benchmark)),
        ("machine_note", Json::Str(machine_note)),
        ("cores", Json::Num(cores as f64)),
        ("partitions", Json::Num(PARTS as f64)),
        ("rows", Json::Num(ROWS as f64)),
        ("dim", Json::Num(D as f64)),
        ("target", Json::Str(target.into())),
        ("restarts", Json::Num(0.0)),
        ("pe_restarts", Json::Num(0.0)),
        ("scaling", Json::Arr(scaling)),
        ("cold_wall_s", Json::Num(cold_wall_s)),
        ("warm_wall_s", Json::Num(warm_wall_s)),
        ("warm_speedup", Json::Num(cold_wall_s / warm_wall_s)),
        ("warm_cache_hits", Json::Num(warm_cache_hits as f64)),
        ("incremental_added", Json::Num(1.0)),
        ("incremental_recomputed", Json::Num(inc_computed as f64)),
    ]);
    std::fs::remove_dir_all(&work).ok();
    let verdict = record("BENCH_backfill.json", &report).expect("recording fails its own gates");
    println!("wrote BENCH_backfill.json ({verdict})");
}
