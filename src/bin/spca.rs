//! `spca` — command-line front end for the streaming-PCA system.
//!
//! Seven subcommands, each one row of [`COMMANDS`]: `generate` (synthesize
//! a survey extract), `run` (stream a file, TCP listener or HTTP body
//! through the parallel robust-PCA application, and with `--serve` answer
//! queries on the live eigensystem), `coordinator` / `worker` (the same
//! graph spread over processes), `backfill` (a historical corpus,
//! partition by partition), `inspect` (a persisted eigensystem) and
//! `simulate` (the calibrated cluster simulator).
//!
//! A row lists the subcommand's flags: value kind, default, and whether
//! each is required, an alternative, or a dependent of another flag. It is
//! the allow-list `Opts::parse` checks, the source of every default a
//! handler reads, and what the `USAGE:` synopsis is generated from.

use astro_stream_pca::cluster::{ClusterSim, ClusterSpec, CostModel, Placement, SimConfig};
use astro_stream_pca::core::PcaConfig;
use astro_stream_pca::engine::{
    persist, AppConfig, DistSpec, EigenQueryHandler, ElasticRuntime, ElasticSupervisor, EpochStore,
    FaultCounters, ParallelPcaApp, ServeShared, SyncStrategy,
};
use astro_stream_pca::spectra::{io, GalaxyGenerator};
use astro_stream_pca::streams::ops::http_server::{HttpServer, ServerConfig};
use astro_stream_pca::streams::ops::{CsvFileSource, HttpSource, TcpSource};
use astro_stream_pca::streams::{
    csv, Engine, FaultPlan, GraphBuilder, Operator, RunReport, DEFAULT_BATCH_SIZE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_streams::lock;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// `println!` for a subcommand's output: a closed stdout (`spca … | head
/// -1`) ends the output quietly, and any other write error is the
/// command's error.
macro_rules! say {
    ($($arg:tt)*) => {
        say(format_args!($($arg)*))
    };
}

fn say(line: std::fmt::Arguments) -> Result<(), String> {
    match writeln!(std::io::stdout(), "{line}") {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(()),
    }
}

/// What a flag's value is read as; judged before the handler runs.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// An integer of at least 1.
    Count,
    Int,
    Real,
    /// A literal socket address: a hostname or typo'd port fails before I/O.
    Addr,
    /// Paths, URLs, fault plans and enumerations, left to the handler.
    Text,
}
use Kind::{Addr, Count, Int, Real, Text};

/// When a flag must, may, or may not be given.
#[derive(Clone, Copy, PartialEq)]
enum Need {
    Optional,
    Required,
    /// Only together with the named flag of the same row.
    With(&'static str),
}
use Need::{Required, With};

#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    /// Placeholder in the synopsis; an enumeration spells out `a|b|c`.
    value: &'static str,
    kind: Kind,
    /// What the handler reads when the flag is absent.
    default: Option<&'static str>,
    need: Need,
}

const fn addr(name: &'static str) -> Flag {
    flag(name, "IP:PORT", Addr)
}

const fn flag(name: &'static str, value: &'static str, kind: Kind) -> Flag {
    Flag {
        name,
        value,
        kind,
        default: None,
        need: Need::Optional,
    }
}

impl Flag {
    const fn default(self, default: &'static str) -> Flag {
        Flag {
            default: Some(default),
            ..self
        }
    }

    const fn need(self, need: Need) -> Flag {
        Flag { need, ..self }
    }

    /// `v` as the type a handler asks for — the one place a flag's text is
    /// judged, whether the user typed it or the table defaults it.
    fn parsed<T: FromStr>(&self, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| {
            let as_what = match self.kind {
                Addr => format!(" as {} (e.g. 127.0.0.1:8080)", self.value),
                _ => String::new(),
            };
            format!("--{}: cannot parse '{v}'{as_what}", self.name)
        })
    }

    /// Whether `v` reads as this flag's kind.
    fn accepts(&self, v: &str) -> Result<(), String> {
        match self.kind {
            Count if self.parsed::<u64>(v)? == 0 => {
                Err(format!("--{} must be at least 1", self.name))
            }
            Count | Int => self.parsed::<u64>(v).map(drop),
            Real => self.parsed::<f64>(v).map(drop),
            Addr => self.parsed::<SocketAddr>(v).map(drop),
            Text => Ok(()),
        }
    }

    /// The synopsis entry: bracketed unless required, showing the default
    /// where there is one (for an enumeration, the first of the
    /// alternatives), else the placeholder.
    fn synopsis(&self) -> String {
        let shown = match self.default {
            Some(default) if !self.value.contains('|') => default,
            _ => self.value,
        };
        match self.need {
            Required => format!("--{} {shown}", self.name),
            Need::Optional => format!("[--{} {shown}]", self.name),
            With(parent) => format!("[--{} {shown} with --{parent}]", self.name),
        }
    }
}

/// A subcommand: its name, its handler, and its row of flags.
type Command = (&'static str, fn(&Opts) -> Result<(), String>, Row);
type Row = &'static [Flag];

// Flags more than one row declares.
const COMPONENTS: Flag = flag("components", "P", Count).default("4");
const MEMORY: Flag = flag("memory", "N", Count).default("5000");
const SNAPSHOT_DIR: Flag = flag("snapshot-dir", "DIR", Text);

const GENERATE: Row = &[
    flag("out", "extract.csv", Text).need(Required),
    flag("n", "N", Int).default("5000"),
    flag("pixels", "N", Int).default("200"),
    flag("zmax", "Z", Real).default("0.2"),
    flag("contamination", "X", Real).default("0.05"),
    flag("seed", "N", Int).default("42"),
];
const RUN: Row = &[
    flag("input", "extract.csv", Text),
    flag("listen", "127.0.0.1:7070", Text),
    flag("url", "http://host/data.csv", Text),
    flag("dim", "D", Count),
    flag("engines", "N", Count).default("4"),
    COMPONENTS,
    MEMORY,
    flag("sync", "ring|broadcast|none", Text).default("ring"),
    flag("snapshots", "DIR", Text),
    flag("report", "outliers.csv", Text),
    flag("faults", "SPEC", Text),
    SNAPSHOT_DIR,
    flag("warm-start", "merged.snapshot", Text),
    addr("serve"),
    flag("serve-threads", "N", Count)
        .default("4")
        .need(With("serve")),
    flag("rate-limit", "QPS", Real).need(With("serve")),
    flag("serve-for", "SECS", Int)
        .default("0")
        .need(With("serve")),
    flag("elastic", "EPOCH_MS", Int),
    flag("max-engines", "N", Int).need(With("elastic")),
];
const COORDINATOR: Row = &[
    flag("input", "extract.csv", Text).need(Required),
    flag("snapshots", "DIR", Text).need(Required),
    flag("workers", "N", Int).default("2"),
    addr("listen"),
    addr("data").default("127.0.0.1:0"),
    flag("engines", "N", Count),
    COMPONENTS,
    MEMORY,
    flag("snapshot-every", "N", Int).default("0"),
    SNAPSHOT_DIR,
];
const WORKER: Row = &[
    addr("coordinator").need(Required),
    flag("index", "N", Int).need(Required),
    addr("data").need(Required),
];
const BACKFILL: Row = &[
    flag("input", "extract.csv|DIR", Text).need(Required),
    flag("partitions", "N", Count).default("8"),
    flag("workers", "N", Int).default("0"),
    flag("state-dir", "DIR", Text).default("spca-state"),
    COMPONENTS,
    MEMORY,
    flag("out", "merged.snapshot", Text),
];
const INSPECT: Row = &[flag("snapshot", "FILE", Text).need(Required)];
const SIMULATE: Row = &[
    flag("engines", "N", Int).default("20"),
    flag("dim", "D", Int).default("250"),
    flag("nodes", "N", Int).default("10"),
    flag("placement", "rr|single|grouped2", Text).default("rr"),
];

static COMMANDS: &[Command] = &[
    ("generate", cmd_generate, GENERATE),
    ("run", cmd_run, RUN),
    ("coordinator", cmd_coordinator, COORDINATOR),
    ("worker", cmd_worker, WORKER),
    ("backfill", cmd_backfill, BACKFILL),
    ("inspect", cmd_inspect, INSPECT),
    ("simulate", cmd_simulate, SIMULATE),
];

/// The help text: a synopsis generated from [`COMMANDS`], wrapped at 78
/// columns, over the hand-written notes.
fn usage() -> String {
    let mut out = "spca — robust streaming PCA over parallel data streams\n\nUSAGE:\n".to_string();
    for (name, _, row) in COMMANDS {
        let mut line = format!("  spca {name}");
        for token in row.iter().map(Flag::synopsis) {
            if line.len() + 1 + token.len() > 78 {
                out = out + &line + "\n";
                line = " ".repeat(15);
            }
            line = line + " " + &token;
        }
        out = out + &line + "\n";
    }
    out + NOTES
}

const NOTES: &str = "
Every flag is --key value; unknown flags are rejected. A bracketed value
is the default. run reads exactly one of --input, --listen, --url.

--faults injects deterministic failures: a comma-separated plan of
  panic@ENGINE:N, poison-nan@ENGINE:N, poison-inf@ENGINE:N,
  stall@ENGINE:N:MS, kill-pe@ENGINE:N (e.g. \"panic@engine1:5000\");
  N counts data tuples delivered to ENGINE, from 1. kill-pe tears down the
  whole processing element hosting the target operator; every operator in
  it is rebuilt and rehydrated from the PE's checkpoint. Pair with
  --snapshot-dir DIR so crashed engines and PEs are restored from their
  PE's latest checkpoint generation (one file, DIR/pe/pe<i>-g<G>.ckpt)
  instead of losing their state.

  Storage faults drill the persistence layer itself: io-enospc@pe:N
  (N-th PE checkpoint generation write fails with ENOSPC), io-torn@pe:N
  (N-th generation write lands half its bytes), io-fsync-err (every
  fsync fails), io-crash@op:K (the K-th storage operation and
  everything after it fails, simulating a dead device; a generation is
  five operations). The run degrades instead of dying: failed
  checkpoints are skipped with backoff, torn or rotted generations are
  quarantined to *.corrupt-N and recovery falls back to the previous
  one. Storage faults need --snapshot-dir: without it run writes no
  checkpoint for them to strike. Every absorbed fault shows up in the
  fault summary and /metrics (spca_io_faults, spca_quarantined_snapshots,
  spca_checkpoint_skips).

--elastic turns on live autoscaling: the fleet starts at --engines and a
  supervisor probes throughput and queue growth every EPOCH_MS, scaling
  out to at most --max-engines (default 2x --engines) under backlog and
  back in when capacity is wasted. A joining engine is bootstrapped from
  the fleet's merged eigensystem via the checkpoint format and held out
  of state sharing until its 1.5*N independence gate re-passes; a
  retiring engine is drained and its state folded into the survivors.
  Scale events land in the fault summary and /metrics (spca_scale_outs,
  spca_scale_ins).

--serve IP:PORT answers live eigensystem queries over HTTP while run
  ingests its stream: POST /project, /reconstruct, /score, /topk?k=K (CSV
  observation in, CSV out; X-Epoch names the snapshot answered against),
  GET /healthz and /metrics, on a pool of --serve-threads. Operators
  publish epoch-versioned snapshots into a shared store every 64
  updates; a query holds its lock for one reference-count increment, so
  queries never hold up ingest. --rate-limit enables a per-client token
  bucket; overload sheds with 429 + Retry-After. --serve-for keeps
  serving the final eigensystem SECS after the stream drains.

coordinator needs --listen unless --workers 0, which runs the same graph
  in-process (the bit-identity baseline; --listen/--data are then unused);
  --engines defaults to one per worker.

backfill shards a historical corpus by partition key (row ranges of a
  file, or one partition per file when --input is a directory), estimates
  every partition in parallel, persists each finished eigensystem in the
  --state-dir store keyed by partition id + content hash, and tree-merges
  the partition states into one corpus-wide eigensystem. Re-running over
  an unchanged corpus is pure cache hits; appending one partition
  recomputes exactly one. Pass the merged snapshot to `spca run
  --warm-start` to splice archive history into a live stream.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // The subcommand is resolved before its flags, so a typo'd one is
    // reported as that and not as an unknown flag.
    let result = match COMMANDS.iter().find(|(cmd, ..)| cmd == name) {
        _ if matches!(name.as_str(), "help" | "--help" | "-h") => say!("{}", usage()),
        None => Err(format!("unknown subcommand '{name}'\n\n{}", usage())),
        Some(&(cmd, run, row)) => Opts::parse(cmd, row, rest)
            .map_err(|e| format!("{e}\n\n{}", usage()))
            .and_then(|opts| opts.check().and_then(|()| run(&opts))),
    };
    if let Err(e) = &result {
        eprintln!("error: {e}");
    }
    ExitCode::from(result.is_err() as u8)
}

/// The `--key value` pairs given to one subcommand, read through its row.
struct Opts {
    cmd: &'static str,
    row: Row,
    given: HashMap<&'static str, String>,
}

impl Opts {
    fn parse(cmd: &'static str, row: Row, args: &[String]) -> Result<Self, String> {
        let mut given = HashMap::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let Some(key) = k.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{k}'"));
            };
            let Some(flag) = row.iter().find(|f| f.name == key) else {
                return Err(format!("unknown flag --{key} for '{cmd}'"));
            };
            let Some(v) = it.next() else {
                return Err(format!("flag --{key} is missing a value"));
            };
            if given.insert(flag.name, v.clone()).is_some() {
                return Err(format!("flag --{key} given more than once"));
            }
        }
        Ok(Opts { cmd, row, given })
    }

    /// Everything the row alone decides, before the handler does any work:
    /// required flags, dependents, and values of their kind.
    fn check(&self) -> Result<(), String> {
        for f in self.row {
            match (self.given.get(f.name), f.need) {
                (Some(_), With(parent)) if !self.given.contains_key(parent) => {
                    return Err(format!("--{} requires --{parent}", f.name));
                }
                (Some(v), _) => f.accepts(v)?,
                (None, Required) => return Err(missing(f.name)),
                (None, _) => {}
            }
        }
        Ok(())
    }

    /// `--key`'s entry in the row and its text: what was given, else the
    /// default. A handler asking for a flag its subcommand does not
    /// declare is a typo.
    fn entry(&self, key: &str) -> Option<(&'static Flag, &str)> {
        let flag = self.row.iter().find(|f| f.name == key);
        debug_assert!(flag.is_some(), "{} does not declare --{key}", self.cmd);
        let text = self.given.get(key).map(String::as_str).or(flag?.default)?;
        Some((flag?, text))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.entry(key).map(|(_, text)| text)
    }

    /// `--key` as a number, address or path; `None` if absent, undefaulted.
    fn opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.entry(key)
            .map(|(flag, text)| flag.parsed(text))
            .transpose()
    }

    fn value<T: FromStr>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?.ok_or_else(|| missing(key))
    }
}

fn missing(key: &str) -> String {
    format!("--{key} is required")
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let out: PathBuf = opts.value("out")?;
    let n: usize = opts.value("n")?;
    let gen = GalaxyGenerator::new(opts.value("pixels")?, opts.value("zmax")?);
    let mut rng = StdRng::seed_from_u64(opts.value("seed")?);
    let (rows, contaminated) = gen.survey_extract(&mut rng, n, opts.value("contamination")?);
    io::write_csv_masked(&out, &rows).map_err(|e| e.to_string())?;
    say!(
        "wrote {n} spectra ({contaminated} contaminants) to {}",
        out.display()
    )?;
    Ok(())
}

/// The width of the first data row in `corpus`: all any subcommand needs
/// of its input before streaming it.
fn input_dim(corpus: impl BufRead) -> Result<usize, String> {
    let (mut values, mut mask) = (Vec::new(), Vec::new());
    for line in corpus.split(b'\n') {
        let line = line.map_err(|e| e.to_string())?;
        if csv::parse_row(&line, &mut values, &mut mask) != csv::Row::Skip {
            return Ok(values.len());
        }
    }
    Err("input has no data rows".to_string())
}

/// The CPU seconds each PE thread used, by its members: what share of a
/// core a PE's busy time really was.
fn print_pe_cpu(report: &RunReport) -> Result<(), String> {
    let pes: Vec<String> = report
        .pe_cpu
        .iter()
        .map(|pe| {
            let cpu = pe.cpu_s.map_or("n/a".to_string(), |s| format!("{s:.2}"));
            format!("{} {cpu}", pe.members.join("+"))
        })
        .collect();
    say!("PE CPU seconds: {}", pes.join(", "))
}

fn file_dim(path: &Path) -> Result<usize, String> {
    if !path.exists() {
        return Err(format!("input file '{}' does not exist", path.display()));
    }
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    input_dim(std::io::BufReader::new(file))
}

/// The estimator configuration of `run`, `coordinator` and `backfill`:
/// `--components` (checked against the stream's `dim`) and `--memory`.
fn pca_config(opts: &Opts, dim: usize) -> Result<PcaConfig, String> {
    let components: usize = opts.value("components")?;
    if components + 2 >= dim {
        return Err(format!(
            "--components {components} too large for dimension {dim}"
        ));
    }
    Ok(PcaConfig::new(dim, components)
        .with_memory(opts.value("memory")?)
        .with_extra(2))
}

fn print_merged_eigenvalues(values: &[f64]) -> Result<(), String> {
    let rounded: Vec<f64> = values.iter().map(|v| (v * 1e4).round() / 1e4).collect();
    say!("merged eigenvalues: {rounded:?}")
}

/// What the run absorbed, if anything: the same line after `run`,
/// `coordinator` and `worker` (each reports the operators it hosted).
fn print_fault_summary(report: &RunReport) -> Result<(), String> {
    match FaultCounters::from_report(report).summary() {
        Some(line) => say!("{line}"),
        None => Ok(()),
    }
}

/// A distributed run's channel capacity, in tuples. Bit-identity between
/// runs needs the split to never shed to a different engine, so it sits far
/// above any realistic corpus (see the distributed module docs).
const DIST_CAPACITY: usize = 1 << 20;

fn cmd_coordinator(opts: &Opts) -> Result<(), String> {
    let input: PathBuf = opts.value("input")?;
    let workers: usize = opts.value("workers")?;
    let engines: usize = opts.opt("engines")?.unwrap_or(workers.max(1));
    if workers > 0 {
        // The spec travels to each worker as one whitespace-separated
        // line (`DistSpec::encode`), which cannot carry such a path.
        for key in ["snapshots", "snapshot-dir"] {
            let path = opts.get(key).unwrap_or_default();
            if path.contains(char::is_whitespace) {
                return Err(format!("--{key}: workers cannot take whitespace in a path"));
            }
        }
    }
    let pca = pca_config(opts, file_dim(&input)?)?;
    let spec = DistSpec {
        n_engines: engines,
        n_workers: workers.max(1),
        dim: pca.dim,
        components: pca.p,
        memory: opts.value("memory")?,
        batch: DEFAULT_BATCH_SIZE,
        capacity: DIST_CAPACITY,
        snapshot_every: opts.value("snapshot-every")?,
        snapshots: opts.value("snapshots")?,
        recovery: opts.opt("snapshot-dir")?,
        coord_data: SocketAddr::from(([127, 0, 0, 1], 0)),
        worker_data: Vec::new(),
    };
    // `--workers 0` is the in-process baseline: identical graph and
    // parameters, no sockets.
    let (what, report, placed) = if workers == 0 {
        let source = Box::new(CsvFileSource::new(&input));
        let report = astro_stream_pca::engine::run_local(&spec, source);
        ("local baseline", report, String::new())
    } else {
        let listen = opts.opt("listen")?.ok_or_else(|| missing("listen"))?;
        let data = opts.value("data")?;
        let out = astro_stream_pca::engine::run_coordinator(listen, data, input, spec.clone())
            .map_err(|e| format!("coordinator failed: {e}"))?;
        let placed = format!(" on {workers} workers ({} respawned)", out.respawns);
        ("distributed run", out.report, placed)
    };
    print_fault_summary(&report)?;
    say!(
        "{what} complete: {} observations across {engines} engines{placed}; snapshots in {}",
        report.op("split").map_or(0, |o| o.tuples_in),
        spec.snapshots.display()
    )?;
    Ok(())
}

fn cmd_worker(opts: &Opts) -> Result<(), String> {
    let (coordinator, data) = (opts.value("coordinator")?, opts.value("data")?);
    let index: usize = opts.value("index")?;
    let report = astro_stream_pca::engine::run_worker(coordinator, index, data)
        .map_err(|e| format!("worker {index} failed: {e}"))?;
    print_fault_summary(&report)?;
    say!("worker {index} finished")?;
    Ok(())
}

/// Runs the dataflow to completion. While it runs, live fault counters are
/// mirrored into `serving`'s `/metrics` (the last mirror is the finished
/// report's, so the endpoint and the fault summary agree) and the
/// `autoscaler` ticks: it probes rates and queues and rescales the live fleet.
/// A rescale line that cannot be written fails the run once it has joined.
fn supervise(
    graph: GraphBuilder,
    serving: Option<&ServeShared>,
    mut autoscaler: Option<&mut ElasticSupervisor>,
) -> Result<RunReport, String> {
    let running = Engine::start(graph);
    let mut said = Ok(());
    // The autoscaler measures rates, so it is polled on a finer grain than
    // the mirror needs; with neither there is nothing to do but join.
    let poll = Duration::from_millis(if autoscaler.is_some() { 20 } else { 100 });
    while (serving.is_some() || autoscaler.is_some()) && !running.is_finished() {
        if let Some(ev) = autoscaler.as_mut().and_then(|a| a.tick(&running)) {
            said = said.and(say!(
                "autoscaler: {:+} engines -> fleet of {} ({:.1} ms migration)",
                ev.action,
                ev.active_after,
                ev.latency.as_secs_f64() * 1e3
            ));
        }
        if let Some(shared) = serving {
            shared.set_counters(FaultCounters::from_op_snapshots(&running.op_snapshots()));
        }
        std::thread::sleep(poll);
    }
    let report = running.join();
    if let Some(shared) = serving {
        shared.set_counters(FaultCounters::from_report(&report));
    }
    said.map(|()| report)
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    // Validate the fault plan and serving flags before any I/O, so a bad
    // spec is reported even when the input is also wrong.
    let faults = opts
        .get("faults")
        .map(|spec| FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}")))
        .transpose()?;
    // A fault that could strike nothing this run does is refused: `run`
    // opens no socket link, and writes no checkpoint without a directory.
    if let Some(plan) = &faults {
        if plan.wire_spec().is_some() {
            return Err(
                "--faults: net-drop-conn@ and net-partial-write@ strike a socket \
                        link, and run opens none"
                    .to_string(),
            );
        }
        if plan.io_spec().is_some() && opts.get("snapshot-dir").is_none() {
            return Err(
                "--faults: io-* faults strike PE checkpoint writes, and run \
                        writes none without --snapshot-dir"
                    .to_string(),
            );
        }
    }
    let serve_addr: Option<SocketAddr> = opts.opt("serve")?;
    let threads: usize = opts.value("serve-threads")?;
    let rate_limit: Option<f64> = opts.opt("rate-limit")?;
    if rate_limit.is_some_and(|per_sec| !per_sec.is_finite() || per_sec <= 0.0) {
        return Err("--rate-limit must be a positive request rate".to_string());
    }
    let engines: usize = opts.value("engines")?;
    let elastic_ms: Option<u64> = opts.opt("elastic")?;
    let mut max_engines = engines.saturating_mul(2).max(2);
    if elastic_ms.is_some() {
        if elastic_ms == Some(0) {
            return Err("--elastic needs a monitoring epoch of at least 1 ms".to_string());
        }
        max_engines = opts.opt("max-engines")?.unwrap_or(max_engines);
        if max_engines < engines {
            return Err(format!(
                "--max-engines {max_engines} is below the starting fleet of {engines} engines"
            ));
        }
    }

    let source: Box<dyn Operator> = match (opts.get("input"), opts.get("listen"), opts.get("url")) {
        (Some(path), None, None) => Box::new(CsvFileSource::new(path)),
        (None, Some(addr), None) => {
            let src = TcpSource::listen(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            say!("listening on {}", src.local_addr().expect("bound"))?;
            Box::new(src)
        }
        (None, None, Some(url)) => Box::new(HttpSource::get(url)?),
        _ => return Err("exactly one of --input, --listen or --url is required".to_string()),
    };
    // The stream's width: probed from the file, `--dim` for a network stream.
    let dim: usize = match opts.get("input") {
        Some(path) => file_dim(Path::new(path))?,
        None => (opts.opt("dim")?).ok_or("--dim is required with --listen/--url")?,
    };
    let pca = pca_config(opts, dim)?;
    let (components, memory): (usize, usize) = (pca.p, opts.value("memory")?);

    let mut cfg = AppConfig::new(engines, pca);
    cfg.emit_outcomes = opts.get("report").is_some();
    cfg.sync = match opts.get("sync").unwrap_or_default() {
        "ring" => SyncStrategy::Ring,
        "broadcast" => SyncStrategy::Broadcast,
        "none" => SyncStrategy::None,
        other => return Err(format!("--sync: unknown strategy '{other}'")),
    };
    cfg.snapshot_dir = opts.get("snapshots").map(PathBuf::from);
    cfg.faults = faults.map(astro_stream_pca::engine::normalize_fault_targets);
    cfg.recovery_dir = opts.get("snapshot-dir").map(PathBuf::from);
    cfg.max_engines = elastic_ms.map(|_| max_engines);
    if let Some(path) = opts.get("warm-start") {
        let eig = persist::read_snapshot(Path::new(path))
            .map_err(|e| format!("--warm-start {path}: {e}"))?;
        if eig.dim() != dim {
            return Err(format!(
                "--warm-start snapshot has dimension {}, stream has {dim}",
                eig.dim()
            ));
        }
        say!(
            "warm-starting every engine from {path} (n_obs = {})",
            eig.n_obs
        )?;
        cfg.warm_start = Some(eig);
    }

    // The query server over the store the engines publish epochs into.
    let serving = match serve_addr {
        Some(addr) => {
            let store = Arc::new(EpochStore::new());
            cfg.epoch_store = Some(Arc::clone(&store));
            let shared = Arc::new(ServeShared::new(store));
            let server_cfg = ServerConfig {
                threads,
                rate_limit,
                ..ServerConfig::default()
            };
            let for_handlers = Arc::clone(&shared);
            let server = HttpServer::start(addr, server_cfg, move |_| {
                EigenQueryHandler::new(Arc::clone(&for_handlers))
            })
            .map_err(|e| format!("cannot bind query server on {addr}: {e}"))?;
            shared.set_server_stats(server.stats());
            say!("serving queries on http://{}", server.local_addr())?;
            Some((shared, server))
        }
        None => None,
    };

    let (graph, handles) = ParallelPcaApp::build(&cfg, source);
    let mut autoscaler = elastic_ms
        .map(|ms| ElasticSupervisor::new(ElasticRuntime::new(&handles), Duration::from_millis(ms)));
    say!("running {engines} engines (d = {dim}, p = {components}, N = {memory}) ...")?;
    if let Some(ms) = elastic_ms {
        say!("autoscaling between 1 and {max_engines} engines on a {ms} ms epoch")?;
    }
    let report = supervise(
        graph,
        serving.as_ref().map(|(shared, _)| shared.as_ref()),
        autoscaler.as_mut(),
    )?;

    let consumed = report.tuples_in_matching("pca-");
    say!(
        "processed {consumed} tuples in {:.2}s ({:.0} tuples/s)",
        report.elapsed.as_secs_f64(),
        consumed as f64 / report.elapsed.as_secs_f64().max(1e-9)
    )?;
    print_pe_cpu(&report)?;
    print_fault_summary(&report)?;
    if let Some(autoscaler) = &autoscaler {
        let (outs, ins) = autoscaler.event_counts();
        say!(
            "autoscaler summary: {} rescale events ({outs} out, {ins} in), \
             final fleet {} engines",
            autoscaler.events.len(),
            autoscaler.events.last().map_or(engines, |e| e.active_after)
        )?;
    }

    if let Some(path) = opts.get("report") {
        let outcomes = handles.outcomes.expect("enabled above");
        let rows: Vec<Vec<f64>> = lock(&outcomes)
            .iter()
            .map(|t| t.values.as_ref().clone())
            .collect();
        let flagged = rows.iter().filter(|r| r[4] > 0.5).count();
        io::write_csv(path, &rows).map_err(|e| e.to_string())?;
        say!(
            "outlier report: {flagged}/{} rows flagged → {path}",
            rows.len()
        )?;
    }
    match handles.hub.merged_estimate() {
        Ok(merged) => {
            print_merged_eigenvalues(&merged.values)?;
            say!(
                "variance captured by p components: {:.1}%",
                100.0 * merged.variance_captured(components)
            )?;
        }
        Err(e) => say!("no merged estimate: {e}")?,
    }
    if let Some((shared, server)) = serving {
        let serve_for: u64 = opts.value("serve-for")?;
        if serve_for > 0 {
            say!("serving the final eigensystem for {serve_for}s more")?;
            std::thread::sleep(Duration::from_secs(serve_for));
        }
        use std::sync::atomic::Ordering::Relaxed;
        let stats = server.stats();
        say!(
            "query server: {} epochs published, {} served, {} shed, {} rate-limited",
            shared.store().epoch(),
            stats.served.load(Relaxed),
            stats.shed.load(Relaxed),
            stats.rate_limited.load(Relaxed)
        )?;
        server.shutdown();
    }
    Ok(())
}

fn cmd_backfill(opts: &Opts) -> Result<(), String> {
    use astro_stream_pca::engine::{backfill, partition_csv_files, partition_csv_rows};

    let input: PathBuf = opts.value("input")?;
    if !input.exists() {
        return Err(format!("input '{}' does not exist", input.display()));
    }
    let partitions = if input.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&input)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().map(|x| x == "csv").unwrap_or(false))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no .csv files in '{}'", input.display()));
        }
        partition_csv_files(&files).map_err(|e| e.to_string())?
    } else {
        partition_csv_rows(&input, opts.value("partitions")?).map_err(|e| e.to_string())?
    };

    // Probe the first partition's rows for the dimension.
    let first = partitions[0].payload.open().map_err(|e| e.to_string())?;
    let pca = pca_config(opts, input_dim(std::io::BufReader::new(first))?)?;
    let components = pca.p;
    let cfg = astro_stream_pca::engine::BackfillConfig {
        pca,
        workers: opts.value("workers")?,
        state_dir: opts.value("state-dir")?,
    };
    let outcome = backfill(&cfg, &partitions).map_err(|e| e.to_string())?;
    let merged = &outcome.merged;
    // The snapshot is written first: a reader that closes stdout early
    // (`| head -1`) must not cost the file.
    if let Some(out) = opts.get("out") {
        persist::write_snapshot(Path::new(out), merged).map_err(|e| e.to_string())?;
    }
    say!(
        "backfill: {} partitions ({} cache hits, {} computed, {} quarantined) \
         on {} workers in {:.2}s",
        outcome.stats.partitions,
        outcome.stats.cache_hits,
        outcome.stats.computed,
        outcome.stats.quarantined,
        outcome.stats.workers,
        outcome.stats.wall.as_secs_f64()
    )?;
    say!(
        "merged eigensystem: d = {}, components = {}, n_obs = {}",
        merged.dim(),
        merged.n_components(),
        merged.n_obs
    )?;
    print_merged_eigenvalues(&merged.values[..components.min(merged.values.len())])?;
    if let Some(out) = opts.get("out") {
        say!("wrote merged snapshot to {out}")?;
    }
    Ok(())
}

fn cmd_inspect(opts: &Opts) -> Result<(), String> {
    let path: PathBuf = opts.value("snapshot")?;
    let eig = persist::read_snapshot(&path).map_err(|e| e.to_string())?;
    say!("snapshot: {}", path.display())?;
    say!("  dimension  : {}", eig.dim())?;
    say!("  components : {}", eig.n_components())?;
    say!("  n_obs      : {}", eig.n_obs)?;
    say!("  sigma^2    : {:.6e}", eig.sigma2)?;
    say!(
        "  sums       : u {:.3}  v {:.3}  q {:.3e}",
        eig.sum_u,
        eig.sum_v,
        eig.sum_q
    )?;
    say!("  eigenvalues:")?;
    for (k, v) in eig.values.iter().enumerate() {
        let frac = 100.0 * eig.variance_captured(k + 1);
        say!(
            "    λ{:<2} = {v:<12.6e} (cumulative variance {frac:.1}%)",
            k + 1
        )?;
    }
    Ok(())
}

fn cmd_simulate(opts: &Opts) -> Result<(), String> {
    let engines: usize = opts.value("engines")?;
    let dim: usize = opts.value("dim")?;
    let nodes: usize = opts.value("nodes")?;
    let spec = ClusterSpec {
        n_nodes: nodes,
        ..ClusterSpec::paper()
    };
    let placement = match opts.get("placement").unwrap_or_default() {
        "rr" => Placement::round_robin(engines, nodes),
        "single" => Placement::single_node(engines),
        "grouped2" => Placement::grouped(engines, 2, nodes),
        other => return Err(format!("--placement: unknown '{other}'")),
    };
    let cfg = SimConfig {
        dim,
        ..Default::default()
    };
    let report = ClusterSim::new(spec, CostModel::paper(), placement, cfg).run();
    say!("simulated {engines} engines on {nodes} nodes at d = {dim}:")?;
    say!(
        "  throughput : {:.0} tuples/s ({:.0}/thread)",
        report.throughput,
        report.per_thread()
    )?;
    say!(
        "  network    : {:.1} MB transferred",
        report.network_bytes / 1e6
    )?;
    say!("  syncs      : {}", report.syncs)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generated synopsis, one subcommand per entry, unwrapped.
    fn synopses() -> Vec<(&'static Command, String)> {
        let usage = usage();
        let synopsis = usage.split("\n\n").nth(1).expect("the USAGE: block");
        let flat = synopsis.split_whitespace().collect::<Vec<_>>().join(" ");
        let per_command: Vec<&str> = flat.split("spca ").skip(1).collect();
        assert_eq!(per_command.len(), COMMANDS.len());
        COMMANDS
            .iter()
            .zip(per_command)
            .map(|(cmd, text)| (cmd, format!("{text} ")))
            .collect()
    }

    #[test]
    fn usage_shows_every_flag_with_the_default_its_handler_reads() {
        let mut pairs = 0;
        for ((name, _, row), text) in synopses() {
            assert!(text.starts_with(&format!("{name} ")), "{name}: {text}");
            for f in row.iter() {
                pairs += 1;
                assert_eq!(
                    row.iter().filter(|other| other.name == f.name).count(),
                    1,
                    "{name} declares --{} twice",
                    f.name
                );
                // The synopsis shows the very string `Opts::entry` hands the
                // handler; for an enumeration, the first alternative.
                let shown = match f.default {
                    Some(default) if f.value.contains('|') => {
                        assert_eq!(f.value.split('|').next(), Some(default));
                        f.value
                    }
                    Some(default) => default,
                    None => f.value,
                };
                let entry = format!("--{} {shown}", f.name);
                assert!(
                    [" ", "]"]
                        .iter()
                        .any(|end| text.contains(&(entry.clone() + end))),
                    "{name}: no `{entry}` in `{text}`"
                );
                // A default is judged exactly as a typed value would be.
                if let Some(default) = f.default {
                    f.accepts(default)
                        .unwrap_or_else(|e| panic!("{name}: bad default: {e}"));
                    assert!(
                        f.need != Required,
                        "{name} --{}: required yet defaulted",
                        f.name
                    );
                }
                if let With(parent) = f.need {
                    assert!(
                        row.iter().any(|p| p.name == parent),
                        "{name} --{} depends on undeclared --{parent}",
                        f.name
                    );
                }
            }
        }
        assert_eq!((COMMANDS.len(), pairs), (7, 50), "the CLI surface changed");
    }

    #[test]
    fn absent_flags_read_as_the_table_default() {
        let &(cmd, _, row) = COMMANDS.iter().find(|(cmd, ..)| *cmd == "run").unwrap();
        let given = ["--input", "x.csv", "--engines", "7"].map(String::from);
        let opts = Opts::parse(cmd, row, &given).unwrap();
        opts.check().unwrap();
        assert_eq!(opts.value::<usize>("engines"), Ok(7));
        assert_eq!(opts.value::<usize>("memory"), Ok(5000));
        assert_eq!(opts.get("sync"), Some("ring"));
        assert_eq!(opts.opt::<usize>("dim"), Ok(None));
        assert_eq!(opts.get("report"), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "run does not declare --batch")]
    fn reading_a_flag_the_row_does_not_declare_is_caught() {
        let &(cmd, _, row) = COMMANDS.iter().find(|(cmd, ..)| *cmd == "run").unwrap();
        let _ = Opts::parse(cmd, row, &[]).unwrap().get("batch");
    }

    /// Every `spca <cmd> … --flag` in a README code block names a flag the
    /// table declares for that subcommand.
    #[test]
    fn readme_invocations_use_declared_flags() {
        let readme = include_str!("../../README.md").replace("\\\n", " ");
        let mut seen = 0;
        for line in readme.lines() {
            let Some((_, invocation)) = line.split_once("--bin spca -- ") else {
                continue;
            };
            let mut words = invocation.split_whitespace();
            let name = words.next().expect("a subcommand");
            let (_, _, row) = COMMANDS
                .iter()
                .find(|(cmd, ..)| *cmd == name)
                .unwrap_or_else(|| panic!("README runs unknown subcommand '{name}'"));
            for key in words.filter_map(|w| w.strip_prefix("--")) {
                assert!(
                    row.iter().any(|f| f.name == key),
                    "README passes --{key} to '{name}', which does not declare it"
                );
                seen += 1;
            }
        }
        assert!(
            seen >= 30,
            "only {seen} README flags found: did the format change?"
        );
    }
}
