//! Records `BENCH_serving.json`: the always-on eigensystem-serving
//! performance artifact (schema `serving-v1`).
//!
//! Two measurements over the same synthetic planted-subspace stream:
//!
//! 1. **Baseline ingest** — the parallel PCA app with serving disabled;
//!    median tuples/s over `RUNS` runs.
//! 2. **Ingest under serving load** — the same app publishing
//!    epoch-versioned snapshots, with the HTTP query server up and
//!    `CLIENTS` keep-alive clients hammering `/project` and `/score`
//!    for the whole run. Records sustained QPS, server-side `/project`
//!    latency quantiles (p50/p99/p999), and the ingest-throughput ratio
//!    against the baseline.
//!
//! The `serving-v1` row of `spca_bench::json::SCHEMAS` (run here by
//! `record`, in CI by `check_bench_json`) enforces a fault-free recording
//! (`restarts == pe_restarts == 0`), monotone latency quantiles, and an
//! ingest ratio ≥ 0.9 — waived below 4 cores, where the query clients
//! and the engines contend for the same cores and the ratio measures the
//! scheduler rather than the serving design.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_bench::json::{obj, record, Json};
use spca_bench::{cores, median};
use spca_core::PcaConfig;
use spca_engine::{
    endpoint_index, AppConfig, EigenQueryHandler, EpochStore, ParallelPcaApp, ServeShared,
    SyncStrategy,
};
use spca_spectra::PlantedSubspace;
use spca_streams::ops::http_server::{HttpServer, ServerConfig};
use spca_streams::ops::GeneratorSource;
use spca_streams::{Engine, Operator, RunReport};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 64;
const P: usize = 4;
const N_TUPLES: u64 = 200_000;
const ENGINES: usize = 2;
const RUNS: usize = 3;
const CLIENTS: usize = 3;

fn source() -> Box<dyn Operator> {
    let w = PlantedSubspace::new(DIM, P, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(99)));
    Box::new(
        GeneratorSource::new(move |_| Some((w.sample(&mut *rng.lock()), None)))
            .with_max_tuples(N_TUPLES),
    )
}

fn app_cfg(store: Option<Arc<EpochStore>>) -> AppConfig {
    let pca = PcaConfig::new(DIM, P).with_memory(5000).with_init_size(30);
    let mut cfg = AppConfig::new(ENGINES, pca);
    cfg.sync = SyncStrategy::Ring;
    cfg.sync_period = Duration::from_millis(100);
    cfg.epoch_store = store;
    cfg.publish_every = 64;
    cfg
}

fn ingest_tps(report: &RunReport) -> f64 {
    report.tuples_in_matching("pca-") as f64 / report.elapsed.as_secs_f64().max(1e-9)
}

/// One keep-alive query client: POSTs `body` to `path` in a loop,
/// counting successful (200) responses. Reconnects on any error.
fn client_loop(addr: SocketAddr, path: &str, body: &str, stop: &AtomicBool, ok: &AtomicU64) {
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut buf = vec![0u8; 0];
    'reconnect: while !stop.load(Ordering::Relaxed) {
        let Ok(mut conn) = TcpStream::connect(addr) else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        conn.set_nodelay(true).ok();
        while !stop.load(Ordering::Relaxed) {
            if conn.write_all(request.as_bytes()).is_err() {
                continue 'reconnect;
            }
            // Read one response: headers, then Content-Length body bytes.
            buf.clear();
            let (head_end, content_length) = loop {
                let mut chunk = [0u8; 4096];
                let n = match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => continue 'reconnect,
                    Ok(n) => n,
                };
                buf.extend_from_slice(&chunk[..n]);
                if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    let head = String::from_utf8_lossy(&buf[..pos]);
                    let len = head
                        .lines()
                        .find_map(|l| {
                            l.to_ascii_lowercase()
                                .strip_prefix("content-length:")
                                .map(str::trim)
                                .and_then(|v| v.parse::<usize>().ok())
                        })
                        .unwrap_or(0);
                    break (pos + 4, len);
                }
            };
            while buf.len() < head_end + content_length {
                let mut chunk = [0u8; 4096];
                match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => continue 'reconnect,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
            if buf.starts_with(b"HTTP/1.1 200") {
                ok.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

struct ServingRun {
    tps: f64,
    report: RunReport,
    requests: u64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

fn serving_run() -> ServingRun {
    let store = Arc::new(EpochStore::new());
    let shared = Arc::new(ServeShared::new(Arc::clone(&store)));
    let server = {
        let shared = Arc::clone(&shared);
        HttpServer::start("127.0.0.1:0", ServerConfig::default(), move |_| {
            EigenQueryHandler::new(Arc::clone(&shared))
        })
        .expect("bind bench server")
    };
    let addr = server.local_addr();

    let obs: String = (0..DIM)
        .map(|j| format!("{:.4}", (j as f64 * 0.31).cos()))
        .collect::<Vec<_>>()
        .join(",");
    let stop = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let (stop, ok, obs) = (Arc::clone(&stop), Arc::clone(&ok), obs.clone());
            std::thread::spawn(move || {
                let path = if i % 2 == 0 { "/project" } else { "/score" };
                client_loop(addr, path, &obs, &stop, &ok);
            })
        })
        .collect();

    let (g, _h) = ParallelPcaApp::build(&app_cfg(Some(store)), source());
    let report = Engine::run(g);
    // Snapshot the request count at drain: QPS is measured over the
    // ingest window, not over client shutdown.
    let requests = ok.load(Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().unwrap();
    }
    server.shutdown();

    let hist = shared.histogram(endpoint_index("project").unwrap());
    let q = |p: f64| hist.quantile_ns(p) as f64 / 1000.0;
    ServingRun {
        tps: ingest_tps(&report),
        qps: requests as f64 / report.elapsed.as_secs_f64().max(1e-9),
        requests,
        p50_us: q(0.5),
        p99_us: q(0.99),
        p999_us: q(0.999),
        report,
    }
}

fn main() {
    let cores = cores();

    let mut baseline_samples = Vec::with_capacity(RUNS);
    for r in 0..RUNS {
        let (g, _h) = ParallelPcaApp::build(&app_cfg(None), source());
        let tps = ingest_tps(&Engine::run(g));
        eprintln!("baseline run {r}: {tps:.0} tuples/s");
        baseline_samples.push(tps);
    }
    let baseline_tps = median(&mut baseline_samples);

    let mut runs: Vec<ServingRun> = (0..RUNS)
        .map(|r| {
            let run = serving_run();
            eprintln!(
                "serving run {r}: {:.0} tuples/s, {:.0} qps, p50 {:.0}us p99 {:.0}us",
                run.tps, run.qps, run.p50_us, run.p99_us
            );
            run
        })
        .collect();
    runs.sort_by(|a, b| a.tps.partial_cmp(&b.tps).unwrap());
    let run = &runs[runs.len() / 2];
    let ratio = run.tps / baseline_tps;
    eprintln!(
        "ingest ratio: {ratio:.3} ({:.0} / {baseline_tps:.0})",
        run.tps
    );

    let benchmark = format!(
        "always-on serving: {ENGINES}-engine ingest of {N_TUPLES} planted-subspace \
         tuples (d={DIM}, p={P}, publish every 64) vs the same run with {CLIENTS} \
         keep-alive clients hammering /project and /score; latency quantiles are \
         server-side /project times; medians of {RUNS} runs"
    );
    let machine_note = format!(
        "single container vCPU ({cores} core(s) visible), cargo run --release; \
         the 0.9 ingest-ratio floor is waived below 4 cores — clients and engines \
         contend for the same cores there"
    );
    let target = "serving costs ingest <=10% (ratio >= 0.9, waived under 4 cores); \
                  fault-free recording; monotone latency quantiles";
    let report = obj([
        ("schema", Json::Str("serving-v1".into())),
        ("benchmark", Json::Str(benchmark)),
        ("machine_note", Json::Str(machine_note)),
        ("cores", Json::Num(cores as f64)),
        ("dim", Json::Num(DIM as f64)),
        ("tuples", Json::Num(N_TUPLES as f64)),
        ("target", Json::Str(target.into())),
        ("restarts", Json::Num(run.report.total_restarts() as f64)),
        (
            "pe_restarts",
            Json::Num(run.report.total_pe_restarts() as f64),
        ),
        ("clients", Json::Num(CLIENTS as f64)),
        ("requests", Json::Num(run.requests as f64)),
        ("qps", Json::Num(run.qps)),
        ("p50_us", Json::Num(run.p50_us)),
        ("p99_us", Json::Num(run.p99_us)),
        ("p999_us", Json::Num(run.p999_us)),
        ("baseline_tuples_per_s", Json::Num(baseline_tps)),
        ("serving_tuples_per_s", Json::Num(run.tps)),
        ("ingest_ratio", Json::Num(ratio)),
    ]);
    let verdict = record("BENCH_serving.json", &report).expect("recording fails its own gates");
    println!("wrote BENCH_serving.json ({verdict})");
}
