//! The parent side: set-up, fresh-process passes, aggregation, and the
//! metric tables the driver and `results.json` are written from.

use crate::corpus::{self, Corpus, Kind};
use crate::host::OwnedChild;
use crate::json::Json;
use crate::pass::Numbers;
use crate::replay;
use crate::stats::{best, median};
use crate::trace::Recorder;
use crate::workloads::{Mode, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// How the passes of one invocation become the reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Time-derived metrics: the best pass (see [`best`] for why).
    Lowest,
    Highest,
    /// Sizes do not inflate under interference; the typical pass.
    Median,
}

impl Pick {
    pub fn of(self, values: &[f64]) -> f64 {
        match self {
            Pick::Lowest => best(values, true),
            Pick::Highest => best(values, false),
            Pick::Median => median(values),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Pick::Lowest => "lowest",
            Pick::Highest => "highest",
            Pick::Median => "median",
        }
    }

    pub fn parse(label: &str) -> Option<Pick> {
        [Pick::Lowest, Pick::Highest, Pick::Median]
            .into_iter()
            .find(|p| p.label() == label)
    }
}

/// End-to-end metrics, in `BENCHMARK.json` order: name, unit and pick.
/// Every workload reports every one of them from untraced passes.
pub const END_TO_END: [(&str, &str, Pick); 4] = [
    ("setup_s", "s", Pick::Lowest),
    ("ingest_tuples_per_s", "tuples/s", Pick::Highest),
    ("cpu_s_per_mtuple", "s/Mtuple", Pick::Lowest),
    ("peak_rss_mb", "MB", Pick::Median),
];

/// Per-layer metrics (`<crate>.<module>.<measure>`) with their units.
/// A metric whose layer is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("spectra.io.parse_ns_per_row", "ns"),
    ("spectra.io.parse_mb_per_s", "MB/s"),
    ("streams.ops.source.busy_share", "ratio"),
    ("streams.ops.split.ns_per_tuple", "ns"),
    ("streams.engine.overhead_ns_per_tuple", "ns"),
    ("streams.engine.link_bytes_per_tuple", "bytes"),
    ("streams.engine.pca_busy_share", "ratio"),
    ("streams.codec.encode_ns_per_tuple", "ns"),
    ("streams.codec.decode_ns_per_tuple", "ns"),
    ("streams.codec.bytes_per_tuple", "bytes"),
    ("streams.netio.wire_bytes", "bytes"),
    ("streams.netio.vs_fused_ratio", "ratio"),
    ("core.robust.update_ns_per_row", "ns"),
    ("core.robust.update_masked_ns_per_row", "ns"),
    ("core.gaps.masked_row_share", "ratio"),
    ("core.robust.outlier_share", "ratio"),
    ("core.robust.subspace_err", "sin"),
    ("linalg.svd.thin_ns_per_call", "ns"),
    ("engine.pca_operator.ns_per_tuple", "ns"),
    ("engine.pca_operator.wrapper_ns", "ns"),
    ("core.merge.ns_per_merge", "ns"),
    ("core.merge.tree_ms", "ms"),
    ("engine.sync.merges", "count"),
    ("engine.sync.skips", "count"),
    ("engine.persist.write_us", "us"),
    ("engine.persist.snapshot_bytes", "bytes"),
    ("streams.checkpoint.manifest_write_us", "us"),
    ("streams.checkpoint.skips", "count"),
    ("engine.epoch.publish_ns", "ns"),
    ("engine.epoch.pin_ns", "ns"),
    ("engine.epoch.epochs_published", "count"),
    ("core.query.project_ns", "ns"),
    ("core.query.score_ns", "ns"),
    ("engine.serve.handler_p50_us", "us"),
    ("streams.http_server.overhead_us", "us"),
    ("streams.http_server.shed", "count"),
    ("engine.serve.ingest_ratio", "ratio"),
    ("engine.backfill.partition_ns_per_row", "ns"),
    ("streams.backfill.store_put_us", "us"),
    ("streams.backfill.warm_wall_ms", "ms"),
    ("streams.backfill.cache_hits", "count"),
    ("engine.distributed.restarts", "count"),
    ("trace.fused1_reconcile_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
    // End-to-end in nature, but defined on one workload only (queries) or
    // expected to be exactly 0 (failures), which the driver's contract
    // for bounded metrics excludes — see README, "Metrics".
    ("query_p50_us", "us"),
    ("query_p95_us", "us"),
    ("loadgen.lateness_p95_us", "us"),
    ("query_samples", "count"),
    ("failed_share", "ratio"),
];

/// Environment variable carrying the key a pass process (and the worker
/// it starts) shuffles its heap with; see [`crate::pass::shuffle_heap`].
pub const HEAP_KEY_ENV: &str = "SPCA_BENCHMARK_HEAP_KEY";

/// Set-ups per invocation; `setup_s` is the fastest.
const SETUPS: usize = 3;
/// Rows the replay takes from each corpus family: all of `G` (its stage
/// times are reconciled against the fused run's wall), a prefix of the
/// others — enough for a stable mean, short enough for the time cap.
fn replay_rows(kind: Kind, rows: usize) -> usize {
    match kind {
        Kind::G => rows,
        Kind::W => rows.min(8_000),
        Kind::N => rows.min(100_000),
    }
}

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub scratch: PathBuf,
    /// Where traced runs write `trace-<workload>.jsonl`.
    pub out_dir: PathBuf,
}

/// What one invocation measured on one workload.
pub struct Outcome {
    pub corpus: Corpus,
    /// Tuples plus requests attempted over the measured passes.
    pub attempted: u64,
    /// Per end-to-end metric, one value per pass (per set-up for
    /// `setup_s`). Empty on a traced invocation.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// Per-layer metrics. Empty on an untraced invocation.
    pub per_layer: Numbers,
}

struct SetUp {
    corpus: Corpus,
    reference: PathBuf,
    dir: PathBuf,
}

/// Corpus generation + reference basis + scratch directory, from nothing:
/// corpora are never cached, so `setup_s` repeats.
fn set_up(w: &Workload, opts: &Options) -> Result<(SetUp, f64), String> {
    let io = |e: std::io::Error| format!("set-up of {}: {e}", w.name);
    let t0 = Instant::now();
    let dir = opts.scratch.join(w.name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(io)?;
    }
    std::fs::create_dir_all(&dir).map_err(io)?;
    let corpus = corpus::generate(
        w.kind,
        w.rows(opts.quick),
        opts.seed,
        &dir.join("corpus.csv"),
    )
    .map_err(io)?;
    let reference = dir.join("reference.basis");
    corpus::write_basis(&reference, &corpus::reference_basis(w.kind, opts.seed)).map_err(io)?;
    let setup = SetUp {
        corpus,
        reference,
        dir,
    };
    Ok((setup, t0.elapsed().as_secs_f64()))
}

/// Runs one pass of `w` in a fresh process and returns what it printed.
fn spawn_pass(
    w: &Workload,
    setup: &SetUp,
    opts: &Options,
    index: usize,
    spans: Option<&Path>,
) -> Result<Numbers, String> {
    let io = |e: std::io::Error| format!("{}: pass {index}: {e}", w.name);
    let dir = setup.dir.join(format!("pass-{index}"));
    std::fs::create_dir_all(&dir).map_err(io)?;
    let mut cmd = Command::new(std::env::current_exe().map_err(io)?);
    cmd.arg("pass")
        .args(["--workload", w.name])
        .arg("--corpus")
        .arg(&setup.corpus.path)
        .args(["--rows", &setup.corpus.rows.to_string()])
        .arg("--reference")
        .arg(&setup.reference)
        .arg("--dir")
        .arg(&dir)
        .args(["--run-id", &format!("{}-pass-{index}", w.name)])
        .env(
            HEAP_KEY_ENV,
            (opts.seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_string(),
        )
        .stdout(Stdio::piped());
    if let Some(spans) = spans {
        cmd.arg("--spans").arg(spans);
    }
    if opts.quick {
        cmd.arg("--quick");
    }
    let (status, said) = OwnedChild::spawn(&mut cmd)
        .and_then(OwnedChild::output)
        .map_err(io)?;
    std::fs::remove_dir_all(&dir).map_err(io)?;
    if !status.success() {
        return Err(format!("{}: pass {index} failed ({status})", w.name));
    }
    Json::last_line_numbers(&said).map_err(|e| format!("{}: pass {index}: {e}", w.name))
}

fn ingest_rate(pass: &Numbers) -> f64 {
    pass["rows"] / pass["wall_s"]
}

/// Untraced invocation: `SETUPS` set-ups, then fresh-process passes until
/// `seconds` of measuring have gone by.
pub fn measure(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..if opts.quick { 1 } else { SETUPS } {
        let (s, took) = set_up(w, opts)?;
        setup_s.push(took);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");

    let mut passes: Vec<Numbers> = Vec::new();
    let t0 = Instant::now();
    loop {
        passes.push(spawn_pass(w, &setup, opts, passes.len(), None)?);
        if opts.quick || t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let column = |f: &dyn Fn(&Numbers) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let mut end_to_end = BTreeMap::new();
    end_to_end.insert("setup_s".to_string(), setup_s);
    end_to_end.insert("ingest_tuples_per_s".to_string(), column(&ingest_rate));
    end_to_end.insert(
        "cpu_s_per_mtuple".to_string(),
        column(&|p| p["cpu_s"] / p["rows"] * 1e6),
    );
    end_to_end.insert("peak_rss_mb".to_string(), column(&|p| p["rss_mb"]));
    let attempted = passes
        .iter()
        .map(|p| p["rows"] + p.get("requests").copied().unwrap_or(0.0))
        .sum::<f64>() as u64;
    let outcome = Outcome {
        corpus: setup.corpus.clone(),
        attempted,
        end_to_end,
        per_layer: Numbers::new(),
    };
    std::fs::remove_dir_all(&setup.dir).map_err(|e| e.to_string())?;
    Ok(outcome)
}

/// Traced invocation: one set-up, rounds of an untraced and a traced pass
/// (plus a fused baseline pass where a ratio needs one) for half of
/// `seconds`, then the stage replay.
pub fn trace(w: &'static Workload, opts: &Options) -> Result<Outcome, String> {
    let (setup, _) = set_up(w, opts)?;
    let spans = opts.out_dir.join(format!("trace-{}.jsonl", w.name));

    // The other galaxy workloads are read against the single-threaded
    // fused run of the same corpus, measured in the same rounds.
    let fused = &WORKLOADS[0];
    debug_assert_eq!(fused.mode, Mode::Stream { fuse: true });
    let needs_base = w.kind == Kind::G && w.name != fused.name;

    let (mut plain, mut traced, mut base) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        let i = plain.len() + traced.len() + base.len();
        plain.push(spawn_pass(w, &setup, opts, i, None)?);
        traced.push(spawn_pass(w, &setup, opts, i + 1, Some(&spans))?);
        if needs_base {
            base.push(spawn_pass(fused, &setup, opts, i + 2, None)?);
        }
        if opts.quick || t0.elapsed().as_secs_f64() >= opts.seconds / 2.0 {
            break;
        }
    }
    // Walls and rates of a traced invocation are picked as the end-to-end
    // metrics are: the fastest pass.
    let fastest_wall = |passes: &[Numbers]| {
        best(
            &passes.iter().map(|p| p["wall_s"]).collect::<Vec<f64>>(),
            true,
        )
    };

    // Per-layer numbers the engine reports come from the traced passes.
    let mut layer = Numbers::new();
    for (name, _) in PER_LAYER {
        let seen: Vec<f64> = traced.iter().filter_map(|p| p.get(name).copied()).collect();
        layer.insert(name.to_string(), median(&seen));
    }
    let plain_wall = fastest_wall(&plain);
    layer.insert(
        "trace.overhead_share".into(),
        (fastest_wall(&traced) - plain_wall) / plain_wall,
    );
    let requests = traced
        .iter()
        .filter_map(|p| p.get("requests"))
        .fold(0.0, |n, r| n + r);
    layer.insert("query_samples".into(), requests);
    layer.insert("failed_share".into(), 0.0);

    let mut rec = Recorder::new(format!("{}-replay", w.name));
    let rows = replay_rows(w.kind, setup.corpus.rows);
    let (replayed, ingest_stage_ns) =
        replay::run(w, &setup.corpus.path, rows, &setup.dir, &mut rec)?;
    rec.write_jsonl(&spans, true).map_err(|e| e.to_string())?;
    layer.extend(replayed);

    // What surrounds the update inside the operator: lock, outcome and
    // snapshot emission, publish.
    let update_ns = {
        let share = layer["core.gaps.masked_row_share"];
        share * layer["core.robust.update_masked_ns_per_row"]
            + (1.0 - share) * layer["core.robust.update_ns_per_row"]
    };
    if layer["engine.pca_operator.ns_per_tuple"] > 0.0 {
        layer.insert(
            "engine.pca_operator.wrapper_ns".into(),
            layer["engine.pca_operator.ns_per_tuple"] - update_ns,
        );
    }

    if w.kind == Kind::G {
        let base_wall = if needs_base {
            fastest_wall(&base)
        } else {
            plain_wall
        };
        let rows = setup.corpus.rows as f64;
        let (rate, base_rate) = (rows / plain_wall, rows / base_wall);
        eprintln!(
            "{}: ingest {rate:.0} tuples/s against fused1-galaxy {base_rate:.0} tuples/s \
             on the same corpus",
            w.name
        );
        match w.mode {
            Mode::Serve => layer.insert("engine.serve.ingest_ratio".into(), rate / base_rate),
            Mode::Tcp => layer.insert("streams.netio.vs_fused_ratio".into(), rate / base_rate),
            _ => None,
        };
        layer.insert(
            "trace.fused1_reconcile_ratio".into(),
            ingest_stage_ns / 1e9 / base_wall,
        );
    }

    let outcome = Outcome {
        corpus: setup.corpus.clone(),
        attempted: (plain.len() + traced.len() + base.len()) as u64 * setup.corpus.rows as u64
            + requests as u64,
        end_to_end: BTreeMap::new(),
        per_layer: layer,
    };
    std::fs::remove_dir_all(&setup.dir).map_err(|e| e.to_string())?;
    Ok(outcome)
}

/// The driver's result line: `correct`, `attempted`, `failed`, `metrics`.
/// A run that failed a check never gets here, so `failed` is 0.
pub fn result_line(outcome: &Outcome) -> Json {
    let metric = |value: f64, unit: &str| {
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ])
    };
    let metrics =
        if outcome.per_layer.is_empty() {
            Json::obj(END_TO_END.iter().map(|(name, unit, pick)| {
                (*name, metric(pick.of(&outcome.end_to_end[*name]), unit))
            }))
        } else {
            Json::obj(PER_LAYER.iter().map(|(name, unit)| {
                (
                    *name,
                    metric(outcome.per_layer.get(*name).copied().unwrap_or(0.0), unit),
                )
            }))
        };
    Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(0.0)),
        ("metrics", metrics),
    ])
}

/// `results.json` entry of one workload: the corpus line, every pass's
/// end-to-end values (what `compare` reads) and the per-layer numbers.
pub fn results_entry(e2e: &Outcome, traced: Option<&Outcome>) -> Json {
    let c = &e2e.corpus;
    let mut fields = vec![
        (
            "corpus".to_string(),
            Json::obj([
                ("kind", Json::Str(c.kind.name().into())),
                ("rows", Json::Num(c.rows as f64)),
                ("bytes", Json::Num(c.bytes as f64)),
                ("d", Json::Num(c.kind.dim() as f64)),
                ("masked_row_share", Json::Num(c.masked_row_share())),
            ]),
        ),
        (
            "end_to_end".to_string(),
            Json::obj(END_TO_END.iter().map(|(name, _, pick)| {
                let passes = &e2e.end_to_end[*name];
                let entry = Json::obj([
                    ("pick", Json::Str(pick.label().into())),
                    ("value", Json::Num(pick.of(passes))),
                    (
                        "passes",
                        Json::Arr(passes.iter().map(|x| Json::Num(*x)).collect()),
                    ),
                ]);
                (*name, entry)
            })),
        ),
    ];
    if let Some(t) = traced {
        fields.push(("per_layer".to_string(), Json::from_number_map(&t.per_layer)));
    }
    Json::Obj(fields)
}
