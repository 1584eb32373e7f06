//! One measured pass of one workload, run in a fresh process so that
//! peak RSS, CPU time and allocator state belong to the pass alone.
//!
//! Each mode drives the same public API as the matching `spca`
//! subcommand (`run`, `serve`, `backfill`, `coordinator` + `worker`) and
//! hands back a flat `name → number` map: the end-to-end measurements,
//! the correctness evidence, and whatever per-layer counters the engine
//! itself returns (`RunReport`, `LinkReport`, `/metrics`,
//! `BackfillStats`, `CoordinatorReport`).

use crate::client::{self, ClientReport};
use crate::corpus;
use crate::host::{self, OwnedChild};
use crate::json::Json;
use crate::stats;
use crate::trace::{Recorder, SharedRecorder, SpanId};
use crate::workloads::{
    Mode, Workload, BACKFILL_PARTITIONS, BATCH, MEMORY, PUBLISH_EVERY, QUERY_RATE_PER_S,
};
use spca_core::metrics::subspace_distance;
use spca_core::{EigenSystem, PcaConfig};
use spca_engine::persist::{encode_snapshot, read_snapshot, SnapshotWriter};
use spca_engine::{
    backfill, partition_csv_rows, run_coordinator, AppConfig, BackfillConfig, DistSpec,
    EigenQueryHandler, EpochStore, FaultCounters, ParallelPcaApp, ServeShared,
};
use spca_streams::checkpoint::Checkpoint;
use spca_streams::ops::http_server::{HttpServer, ServerConfig};
use spca_streams::ops::CsvFileSource;
use spca_streams::{ControlTuple, DataTuple, Engine, OpContext, Operator, RunReport, SourceState};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Numbers = BTreeMap<String, f64>;

/// Everything a pass needs; all paths live under the harness's scratch
/// directory.
pub struct PassArgs {
    pub workload: &'static Workload,
    pub corpus: PathBuf,
    pub rows: usize,
    /// Reference basis written by set-up (`corpus::write_basis`).
    pub reference: PathBuf,
    /// An empty directory for state stores, snapshots and checkpoints.
    pub dir: PathBuf,
    /// Traced pass: write the spans here.
    pub spans: Option<PathBuf>,
    pub run_id: String,
}

/// Wall, CPU and peak-RSS of the measured interval.
struct Meter {
    t0: Instant,
    cpu0: f64,
}

impl Meter {
    fn start() -> Self {
        Meter {
            t0: Instant::now(),
            cpu0: host::process_cpu_s(),
        }
    }

    fn wall_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// `wall_s` is taken by the caller at the moment the result is
    /// available; CPU and RSS here may follow later (after `wait`).
    fn stop_into(&self, wall_s: f64, out: &mut Numbers) {
        out.insert("wall_s".into(), wall_s);
        out.insert("cpu_s".into(), host::process_cpu_s() - self.cpu0);
        out.insert("rss_mb".into(), host::peak_rss_mb());
    }
}

/// Fragments the fresh heap of a run process in a way fixed by `key`:
/// 256 blocks of up to 4 KiB, a random half of them freed again, the rest
/// leaked (never touched, so peak RSS moves by well under 1 MB).
///
/// Why: at d = 500 the robust update runs anywhere between 22 and 27 µs a
/// row depending on where malloc happens to put the estimator's buffers
/// (eigenvector columns are 4000 bytes apart, next to the 4 KiB aliasing
/// stride), and the allocation sequence — hence the placement — is a
/// deterministic function of the corpus and of the program. Left alone,
/// every pass draws the same lot, another seed or an unrelated one-line
/// change draws another, and ±8 % appears that is nobody's doing
/// (Mytkowicz et al., ASPLOS 2009; Curtsinger & Berger, ASPLOS 2013). A
/// different shuffle per pass spreads the passes of one invocation over
/// the lots. It reaches the main arena only — what is allocated while the
/// graph is built; PE threads allocate from their own arenas, whose
/// layout the first rows of the corpus decide, which is why `G` also
/// starts with a contaminant-free lead-in (`corpus::generate`).
pub fn shuffle_heap(key: u64) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(key);
    let blocks: Vec<Vec<u8>> = (0..256)
        .map(|_| Vec::with_capacity(16 * rng.gen_range(1usize..256)))
        .collect();
    for block in blocks {
        if rng.gen::<bool>() {
            std::mem::forget(std::hint::black_box(block));
        }
    }
}

fn pca_config(w: &Workload) -> PcaConfig {
    PcaConfig::new(w.kind.dim(), w.components)
        .with_memory(MEMORY)
        .with_extra(2)
}

/// The source operator with a span around every `drive`, for traced
/// passes. Everything else is forwarded untouched.
struct TracedSource {
    inner: CsvFileSource,
    rec: SharedRecorder,
    parent: SpanId,
}

impl Operator for TracedSource {
    fn process(&mut self, t: DataTuple, ctx: &mut OpContext<'_>) {
        self.inner.process(t, ctx);
    }
    fn on_control(&mut self, t: ControlTuple, ctx: &mut OpContext<'_>) {
        self.inner.on_control(t, ctx);
    }
    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        let id = {
            let mut rec = self.rec.lock().expect("recorder lock");
            rec.open("source.drive", Some(self.parent))
        };
        let state = self.inner.drive(ctx);
        self.rec.lock().expect("recorder lock").close(id);
        state
    }
    fn on_start(&mut self, ctx: &mut OpContext<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_finish(&mut self, ctx: &mut OpContext<'_>) {
        self.inner.on_finish(ctx);
    }
    fn recover(&mut self, attempt: u64) -> bool {
        self.inner.recover(attempt)
    }
    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        self.inner.checkpoint()
    }
}

fn pca_busy_ns(report: &RunReport) -> f64 {
    report
        .ops
        .iter()
        .filter(|(n, _)| n.starts_with("pca-"))
        .map(|(_, s)| s.busy_ns as f64)
        .sum()
}

/// Per-layer numbers the engine's own report carries.
fn harvest_report(report: &RunReport, w: &Workload, fused: bool, out: &mut Numbers) {
    let wall_ns = report.elapsed.as_nanos() as f64;
    let busy = |name: &str| report.op(name).map_or(0.0, |o| o.busy_ns as f64);
    let tuples = report.tuples_in_matching("pca-") as f64;
    let pca_busy = pca_busy_ns(report);
    out.insert(
        "streams.ops.source.busy_share".into(),
        busy("source") / wall_ns,
    );
    out.insert(
        "streams.ops.split.ns_per_tuple".into(),
        busy("split")
            / report
                .op("split")
                .map_or(1.0, |o| (o.tuples_in as f64).max(1.0)),
    );
    if fused {
        // One PE thread: whatever of the wall no operator accounts for is
        // the scheduler, the pending queue and thread start/stop.
        let all_busy: f64 = report.ops.iter().map(|(_, s)| s.busy_ns as f64).sum();
        out.insert(
            "streams.engine.overhead_ns_per_tuple".into(),
            (wall_ns - all_busy) / tuples.max(1.0),
        );
    }
    let (link_tuples, link_bytes) = report
        .links
        .iter()
        .filter(|l| l.from == "split")
        .fold((0u64, 0u64), |(t, b), l| (t + l.tuples(), b + l.bytes()));
    if link_tuples > 0 {
        out.insert(
            "streams.engine.link_bytes_per_tuple".into(),
            link_bytes as f64 / link_tuples as f64,
        );
    }
    out.insert(
        "streams.engine.pca_busy_share".into(),
        pca_busy / (wall_ns * w.engines as f64),
    );
    out.insert(
        "engine.pca_operator.ns_per_tuple".into(),
        pca_busy / tuples.max(1.0),
    );
    out.insert("engine.sync.skips".into(), report.total_sync_skips() as f64);
    out.insert(
        "streams.checkpoint.skips".into(),
        report.total_checkpoint_skips() as f64,
    );
}

/// `spca run` / `spca serve`.
fn run_stream(args: &PassArgs, fuse: bool, serve: bool) -> Result<(Numbers, EigenSystem), String> {
    let w = args.workload;
    let mut out = Numbers::new();
    let rec = args.spans.as_ref().map(|_| Recorder::shared(&args.run_id));
    let root = rec
        .as_ref()
        .map(|r| r.lock().expect("recorder lock").open("run", None));

    let mut cfg = AppConfig::new(w.engines, pca_config(w));
    cfg.batch_size = BATCH;
    cfg.fuse = fuse;

    // Serving: the epoch store, the HTTP server with one worker, and the
    // open-loop client, all up before ingest starts (as `spca serve`).
    let stop = Arc::new(AtomicBool::new(false));
    let mut serving = None;
    if serve {
        let store = Arc::new(EpochStore::new());
        cfg.epoch_store = Some(Arc::clone(&store));
        cfg.publish_every = PUBLISH_EVERY;
        let shared = Arc::new(ServeShared::new(store));
        let server_cfg = ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        };
        let factory_shared = Arc::clone(&shared);
        let server = HttpServer::start("127.0.0.1:0", server_cfg, move |_| {
            EigenQueryHandler::new(Arc::clone(&factory_shared))
        })
        .map_err(|e| format!("cannot start the query server: {e}"))?;
        shared.set_server_stats(server.stats());
        let bodies = query_bodies(&args.corpus, 256)?;
        let addr = server.local_addr();
        let client_stop = Arc::clone(&stop);
        let trace = rec.clone().zip(root);
        let client = std::thread::Builder::new()
            .name("loadgen".into())
            .spawn(move || client::run(addr, &bodies, QUERY_RATE_PER_S, &client_stop, trace))
            .map_err(|e| e.to_string())?;
        serving = Some((shared, server, client));
    }

    let meter = Meter::start();
    let csv = CsvFileSource::new(&args.corpus);
    let source: Box<dyn Operator> = match (&rec, root) {
        (Some(rec), Some(parent)) => Box::new(TracedSource {
            inner: csv,
            rec: Arc::clone(rec),
            parent,
        }),
        _ => Box::new(csv),
    };
    let (graph, handles) = ParallelPcaApp::build(&cfg, source);
    let report = match &serving {
        // As `spca serve`: mirror the live fault counters into `/metrics`
        // every 100 ms. The CLI also *waits* in 100 ms steps; the harness
        // watches for the drain every 5 ms so the wall is not quantised.
        Some((shared, _, _)) => {
            let running = Engine::start(graph);
            let mut ticks = 0u32;
            while !running.is_finished() {
                if ticks.is_multiple_of(20) {
                    shared.set_counters(FaultCounters::from_op_snapshots(&running.op_snapshots()));
                }
                ticks += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            let report = running.join();
            shared.set_counters(FaultCounters::from_report(&report));
            report
        }
        None => Engine::run(graph),
    };
    let merged = handles
        .hub
        .merged_estimate()
        .map_err(|e| format!("no merged estimate: {e}"))?;
    meter.stop_into(meter.wall_s(), &mut out);

    out.insert("consumed".into(), report.tuples_in_matching("pca-") as f64);
    out.insert(
        "restarts".into(),
        (report.total_restarts() + report.total_pe_restarts()) as f64,
    );
    out.insert("quarantined".into(), report.total_quarantined() as f64);
    harvest_report(&report, w, fuse, &mut out);
    out.insert(
        "engine.sync.merges".into(),
        handles.hub.sync_totals().1 as f64,
    );

    if let Some((_shared, server, client)) = serving {
        stop.store(true, Ordering::Relaxed);
        let served: ClientReport = client
            .join()
            .map_err(|_| "load generator panicked".to_string())?
            .map_err(|e| format!("load generator failed: {e}"))?;
        let stats = server.stats();
        server.shutdown();
        harvest_client(&served, &mut out);
        out.insert(
            "streams.http_server.shed".into(),
            (stats.shed.load(Ordering::Relaxed) + stats.rate_limited.load(Ordering::Relaxed))
                as f64,
        );
        // The load generator is not part of the system under test.
        *out.get_mut("cpu_s").expect("meter ran") -= served.cpu_s;
    }

    if let (Some(rec), Some(root), Some(path)) = (&rec, root, &args.spans) {
        let mut rec = rec.lock().expect("recorder lock");
        rec.close(root);
        rec.write_jsonl(path, false).map_err(|e| e.to_string())?;
    }
    Ok((out, merged))
}

/// Request bodies: the first `n` corpus rows, gaps sent as 0 (the query
/// endpoints take complete vectors).
fn query_bodies(corpus: &Path, n: usize) -> Result<Vec<String>, String> {
    let file = std::fs::File::open(corpus).map_err(|e| e.to_string())?;
    let bodies: Vec<String> = std::io::BufReader::new(file)
        .lines()
        .take(n)
        .map(|l| l.map(|l| l.replace("nan", "0")))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    if bodies.is_empty() {
        return Err("corpus has no rows to query with".into());
    }
    Ok(bodies)
}

fn harvest_client(c: &ClientReport, out: &mut Numbers) {
    out.insert("requests".into(), c.attempted as f64);
    out.insert("failed_requests".into(), c.failed as f64);
    out.insert("query_p50_us".into(), stats::quantile(&c.latency_us, 0.5));
    out.insert("query_p95_us".into(), stats::quantile(&c.latency_us, 0.95));
    out.insert(
        "loadgen.lateness_p95_us".into(),
        stats::quantile(&c.lateness_us, 0.95),
    );
    let scrape = |prefix: &str| client::scrape(&c.metrics_text, prefix).unwrap_or(0.0);
    out.insert(
        "engine.epoch.epochs_published".into(),
        scrape("spca_epoch "),
    );
    let handler_p50_us = scrape("spca_latency_ns{endpoint=\"project\",quantile=\"0.5\"} ") / 1000.0;
    out.insert("engine.serve.handler_p50_us".into(), handler_p50_us);
    out.insert(
        "streams.http_server.overhead_us".into(),
        stats::quantile(&c.latency_us, 0.5) - handler_p50_us,
    );
}

/// `spca backfill`, cold then warm.
fn run_backfill(args: &PassArgs) -> Result<(Numbers, EigenSystem), String> {
    let w = args.workload;
    let mut out = Numbers::new();
    let cfg = BackfillConfig {
        pca: pca_config(w),
        workers: w.engines,
        state_dir: args.dir.join("state"),
    };
    let io = |e: std::io::Error| e.to_string();

    let meter = Meter::start();
    let partitions = partition_csv_rows(&args.corpus, BACKFILL_PARTITIONS).map_err(io)?;
    let cold = backfill(&cfg, &partitions).map_err(io)?;
    meter.stop_into(meter.wall_s(), &mut out);

    let warm = backfill(&cfg, &partitions).map_err(io)?;
    let n = partitions.len();
    if cold.stats.computed != n || cold.stats.cache_hits != 0 {
        return Err(format!(
            "cold backfill served {} of {n} partitions from an empty store",
            cold.stats.cache_hits
        ));
    }
    if warm.stats.cache_hits != n {
        return Err(format!(
            "warm backfill had {}/{n} cache hits",
            warm.stats.cache_hits
        ));
    }
    if encode_snapshot(&warm.merged) != encode_snapshot(&cold.merged) {
        return Err("warm merged eigensystem differs from cold".into());
    }
    let consumed: u64 = cold.per_partition.iter().map(|e| e.n_obs).sum();
    out.insert("consumed".into(), consumed as f64);
    out.insert(
        "restarts".into(),
        (cold.stats.quarantined + warm.stats.quarantined) as f64,
    );
    out.insert(
        "streams.backfill.warm_wall_ms".into(),
        warm.stats.wall.as_secs_f64() * 1e3,
    );
    out.insert(
        "streams.backfill.cache_hits".into(),
        warm.stats.cache_hits as f64,
    );
    Ok((out, cold.merged))
}

/// A loopback port that was free a moment ago (the coordinator needs a
/// concrete control address before the worker is told where to dial).
fn free_port() -> std::io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}

/// Attempts at a control port before a taken one fails the pass.
const PORT_ATTEMPTS: usize = 5;

/// `spca coordinator` in this process plus one re-exec'd `spca worker`.
fn run_tcp(args: &PassArgs) -> Result<(Numbers, EigenSystem), String> {
    let w = args.workload;
    let mut out = Numbers::new();
    let io = |e: std::io::Error| e.to_string();
    let snapshots = args.dir.join("snapshots");
    let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    let spec = DistSpec {
        n_engines: w.engines,
        n_workers: 1,
        dim: w.kind.dim(),
        components: w.components,
        memory: MEMORY,
        batch: BATCH,
        capacity: 1 << 20,
        snapshot_every: 0,
        snapshots: snapshots.clone(),
        recovery: Some(args.dir.join("recovery")),
        coord_data: any,
        worker_data: Vec::new(),
    };
    let exe = std::env::current_exe().map_err(io)?;

    // `free_port` cannot hold the port for the coordinator, and now and
    // then the kernel hands it to another socket in between (one pass in
    // some 900). The coordinator then fails at its bind, before any tuple
    // has moved: start over, meter included, on another port.
    let mut attempt = 1;
    let (meter, worker, coord) = loop {
        let ctl = free_port().map_err(io)?;
        let meter = Meter::start();
        let worker = OwnedChild::spawn(
            Command::new(&exe)
                .args(["worker", "--coordinator", &ctl.to_string()])
                .args(["--index", "0", "--data", "127.0.0.1:0"])
                .stdout(Stdio::piped()),
        )
        .map_err(io)?;
        match run_coordinator(ctl, any, args.corpus.clone(), spec.clone()) {
            Ok(coord) => break (meter, worker, coord),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && attempt < PORT_ATTEMPTS => {
                eprintln!("{}: control port {ctl} was taken, trying another", w.name);
                attempt += 1;
                // Dropping `worker` here kills and reaps it.
            }
            Err(e) => return Err(format!("coordinator failed: {e}")),
        }
    };
    let snapshot = read_snapshot(&SnapshotWriter::latest_path(&snapshots, 0)).map_err(io)?;
    let wall_s = meter.wall_s();

    // The worker reports its own side: tuples its engine consumed, its
    // engine's busy time and its peak RSS. Its CPU arrives through `wait`.
    let (status, said) = worker.output().map_err(io)?;
    if !status.success() {
        return Err(format!("worker exited with {status}"));
    }
    let theirs = Json::last_line_numbers(&said).map_err(|e| format!("worker report: {e}"))?;
    let their = |k: &str| theirs.get(k).copied().unwrap_or(0.0);
    meter.stop_into(wall_s, &mut out);
    *out.get_mut("rss_mb").expect("meter ran") += their("rss_mb");

    let report = &coord.report;
    out.insert("consumed".into(), their("consumed"));
    out.insert(
        "restarts".into(),
        (report.total_restarts() + report.total_pe_restarts()) as f64
            + coord.respawns as f64
            + their("restarts"),
    );
    out.insert(
        "engine.distributed.restarts".into(),
        coord.respawns as f64 + their("restarts"),
    );
    harvest_report(report, w, false, &mut out);
    let wall_ns = report.elapsed.as_nanos() as f64;
    out.insert(
        "streams.engine.pca_busy_share".into(),
        their("pca_busy_ns") / wall_ns,
    );
    out.insert(
        "engine.pca_operator.ns_per_tuple".into(),
        their("pca_busy_ns") / their("consumed").max(1.0),
    );
    *out.entry("streams.checkpoint.skips".into()).or_insert(0.0) += their("checkpoint_skips");
    let wire: u64 = report
        .links
        .iter()
        .filter(|l| l.from == "split")
        .map(|l| l.bytes())
        .sum();
    out.insert("streams.netio.wire_bytes".into(), wire as f64);
    Ok((out, snapshot))
}

/// The body of `spca-benchmark worker …` (also what a coordinator respawn
/// would exec): run the partition, then report this process's side.
pub fn worker_main(coordinator: SocketAddr, index: usize, data: SocketAddr) -> Result<(), String> {
    let report = spca_engine::run_worker(coordinator, index, data)
        .map_err(|e| format!("worker {index} failed: {e}"))?;
    let mine = Json::obj([
        (
            "consumed",
            Json::Num(report.tuples_in_matching("pca-") as f64),
        ),
        ("pca_busy_ns", Json::Num(pca_busy_ns(&report))),
        (
            "restarts",
            Json::Num((report.total_restarts() + report.total_pe_restarts()) as f64),
        ),
        (
            "checkpoint_skips",
            Json::Num(report.total_checkpoint_skips() as f64),
        ),
        ("rss_mb", Json::Num(host::peak_rss_mb())),
    ]);
    println!("{mine}");
    Ok(())
}

/// Runs the pass and checks it: tuple conservation, no restarts, every
/// query answered 2xx with an epoch, and the final top-p subspace within
/// the workload's tolerance of the reference basis.
pub fn run(args: &PassArgs, check_subspace: bool) -> Result<Numbers, String> {
    let w = args.workload;
    let (mut out, eig) = match w.mode {
        Mode::Stream { fuse } => run_stream(args, fuse, false),
        Mode::Serve => run_stream(args, true, true),
        Mode::Backfill => run_backfill(args),
        Mode::Tcp => run_tcp(args),
    }?;

    let reference = corpus::read_basis(&args.reference).map_err(|e| e.to_string())?;
    let err = subspace_distance(&eig.truncated(w.components).basis, &reference)
        .map_err(|e| format!("subspace distance: {e}"))?;
    out.insert("core.robust.subspace_err".into(), err);
    out.insert("rows".into(), args.rows as f64);

    let get = |k: &str| out.get(k).copied().unwrap_or(0.0);
    let lost = args.rows as f64 - get("consumed") - get("quarantined");
    if lost != 0.0 {
        return Err(format!(
            "tuple conservation: {} rows in, {} consumed",
            args.rows,
            get("consumed")
        ));
    }
    if get("restarts") != 0.0 {
        return Err(format!("{} restarts or respawns", get("restarts")));
    }
    if get("failed_requests") != 0.0 {
        return Err(format!(
            "{} of {} queries failed",
            get("failed_requests"),
            get("requests")
        ));
    }
    // NaN must fail too.
    if check_subspace && (err.is_nan() || err > w.tolerance) {
        return Err(format!(
            "subspace error {err:.4} above tolerance {}",
            w.tolerance
        ));
    }
    Ok(out)
}
