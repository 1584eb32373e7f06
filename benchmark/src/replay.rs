//! Stage replay: the same corpus pushed, on one thread, through each
//! layer's public functions with a span around every call. This is how
//! layers get their own numbers without any tracing inside the program.
//!
//! Replay answers "what does this layer cost at this corpus's shape";
//! the pass's `RunReport` answers "how busy was it in the pipeline". The
//! harness sets the two side by side (`engine.pca_operator.wrapper_ns`,
//! `trace.fused1_reconcile_ratio`).

use crate::pass::Numbers;
use crate::trace::Recorder;
use crate::workloads::{Workload, BACKFILL_PARTITIONS, BATCH, MEMORY};
use spca_core::merge::{merge, merge_tree};
use spca_core::{EigenSystem, PcaConfig, QueryWorkspace, RobustPca};
use spca_engine::persist::{encode_snapshot, write_snapshot};
use spca_engine::{EpochStore, PartitionWorker};
use spca_linalg::svd::{thin_svd_into, SvdWorkspace};
use spca_linalg::Mat;
use spca_spectra::io::parse_csv_line;
use spca_streams::backfill::{content_hash, StateStore};
use spca_streams::checkpoint::PeCheckpointer;
use spca_streams::{decode_frame, encode_frame, ColumnarFrame, DataTuple, Tuple};
use std::hint::black_box;
use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;

/// Calls per cheap stage: enough for a stable mean, small next to the
/// parse and update stages.
const SMALL_REPS: usize = 2000;
/// Calls per stage that ends in an fsync.
const DURABLE_REPS: usize = 10;
/// Rows kept in memory for the stages after ingest (frames, queries).
const KEPT_ROWS: usize = 32 * BATCH;

type Row = (Vec<f64>, Vec<bool>);

/// Replays the first `rows` rows of `corpus`. Returns the layer numbers
/// and the duration in ns of the ingest stage (parse and update calls plus
/// the stage's self time) for the reconcile ratio.
pub fn run(
    w: &Workload,
    corpus: &Path,
    rows: usize,
    dir: &Path,
    rec: &mut Recorder,
) -> Result<(Numbers, f64), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut out = Numbers::new();
    let root = rec.open("replay", None);
    let cfg = PcaConfig::new(w.kind.dim(), w.components)
        .with_memory(MEMORY)
        .with_extra(2);

    // --- spectra::io + core::robust: every row parsed, then updated -------
    // Interleaved as in the pipeline, so the update reads the row while it
    // is still in cache. The stage's self time is the file read and the
    // loop around the calls.
    let stage_ingest = rec.open("replay.ingest", Some(root));
    let mut pca = RobustPca::new(cfg.clone());
    let mut kept: Vec<Row> = Vec::with_capacity(KEPT_ROWS);
    let mut partition_text = String::new();
    // Eight equally spaced states stand in for the backfill partitions
    // (same shapes, same merge cost).
    let mut states: Vec<EigenSystem> = Vec::with_capacity(BACKFILL_PARTITIONS);
    let stride = (rows / BACKFILL_PARTITIONS).max(1);
    let (mut seen, mut text_bytes) = (0usize, 0usize);
    let (mut outliers, mut scored) = (0u64, 0u64);
    let mut reader = std::io::BufReader::new(std::fs::File::open(corpus).map_err(io)?);
    let mut line = String::new();
    while seen < rows {
        line.clear();
        if reader.read_line(&mut line).map_err(io)? == 0 {
            break;
        }
        let id = rec.open("spectra.io.parse_csv_line", Some(stage_ingest));
        let row = parse_csv_line(&line);
        rec.close(id);
        let Some((values, mask)) = row else { continue };
        let outcome = if mask.iter().all(|&m| m) {
            let id = rec.open("core.robust.update", Some(stage_ingest));
            let o = pca.update(&values);
            rec.close(id);
            o
        } else {
            let id = rec.open("core.robust.update_masked", Some(stage_ingest));
            let o = pca.update_masked(&values, &mask);
            rec.close(id);
            o
        }
        .map_err(|e| format!("replay update: {e}"))?;
        if outcome.initialized {
            scored += 1;
            outliers += u64::from(outcome.outlier);
        }
        seen += 1;
        text_bytes += line.len();
        if seen <= rows / BACKFILL_PARTITIONS {
            partition_text.push_str(&line);
        }
        if seen % stride == 0 && states.len() < BACKFILL_PARTITIONS {
            states.push(
                pca.full_eigensystem()
                    .cloned()
                    .ok_or("corpus too small to replay")?,
            );
        }
        if kept.len() < KEPT_ROWS {
            kept.push((values, mask));
        }
    }
    rec.close(stage_ingest);
    if states.len() < BACKFILL_PARTITIONS || kept.len() < 2 * BATCH {
        return Err(format!("corpus too small to replay ({seen} rows)"));
    }
    let (_, parse_ns) = rec.total("spectra.io.parse_csv_line");
    out.insert(
        "spectra.io.parse_ns_per_row".into(),
        parse_ns as f64 / seen as f64,
    );
    out.insert(
        "spectra.io.parse_mb_per_s".into(),
        text_bytes as f64 / 1e6 / (parse_ns as f64 / 1e9),
    );
    let masked_rows = rec.total("core.robust.update_masked").0;
    out.insert(
        "core.robust.update_ns_per_row".into(),
        rec.mean_ns("core.robust.update"),
    );
    out.insert(
        "core.robust.update_masked_ns_per_row".into(),
        rec.mean_ns("core.robust.update_masked"),
    );
    out.insert(
        "core.gaps.masked_row_share".into(),
        masked_rows as f64 / seen as f64,
    );
    out.insert(
        "core.robust.outlier_share".into(),
        outliers as f64 / scored.max(1) as f64,
    );
    let ingest_ns = rec.duration_ns(stage_ingest) as f64;
    eprintln!(
        "{}: replayed {seen} rows in {:.1} ms: parse {:.1} ms, update {:.1} ms, \
         file read + loop (stage self time) {:.1} ms",
        w.name,
        ingest_ns / 1e6,
        parse_ns as f64 / 1e6,
        (rec.total("core.robust.update").1 + rec.total("core.robust.update_masked").1) as f64 / 1e6,
        rec.self_ns(stage_ingest) as f64 / 1e6,
    );
    let eig = states.last().expect("eight states").clone();

    // --- linalg::svd at the update's factor shape, d × (p + q + 1) -------
    let stage = rec.open("replay.svd", Some(root));
    let k = cfg.p_total() + 1;
    let factor = Mat::from_fn(cfg.dim, k, |r, c| kept[c].0[r]);
    let mut ws = SvdWorkspace::default();
    for _ in 0..SMALL_REPS / 10 {
        let id = rec.open("linalg.svd.thin_svd_into", Some(stage));
        thin_svd_into(black_box(&factor), &mut ws).map_err(|e| e.to_string())?;
        rec.close(id);
    }
    rec.close(stage);
    out.insert(
        "linalg.svd.thin_ns_per_call".into(),
        rec.mean_ns("linalg.svd.thin_svd_into"),
    );

    // --- core::merge ------------------------------------------------------
    let stage = rec.open("replay.merge", Some(root));
    let (a, b) = (&states[states.len() / 2 - 1], &eig);
    for _ in 0..DURABLE_REPS {
        let id = rec.open("core.merge.merge", Some(stage));
        black_box(merge(a, b).map_err(|e| e.to_string())?);
        rec.close(id);
        let id = rec.open("core.merge.merge_tree", Some(stage));
        black_box(merge_tree(&states).map_err(|e| e.to_string())?);
        rec.close(id);
    }
    rec.close(stage);
    out.insert(
        "core.merge.ns_per_merge".into(),
        rec.mean_ns("core.merge.merge"),
    );
    out.insert(
        "core.merge.tree_ms".into(),
        rec.mean_ns("core.merge.merge_tree") / 1e6,
    );

    // --- streams::codec on 64-tuple frames -------------------------------
    let stage = rec.open("replay.codec", Some(root));
    let frames: Vec<Vec<Tuple>> = kept
        .chunks_exact(BATCH)
        .take(32)
        .enumerate()
        .map(|(f, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, (values, mask))| {
                    let seq = (f * BATCH + i) as u64;
                    Tuple::Data(if mask.iter().all(|&m| m) {
                        DataTuple::new(seq, values.clone())
                    } else {
                        DataTuple::masked(seq, values.clone(), mask.clone())
                    })
                })
                .collect()
        })
        .collect();
    let mut wire = Vec::new();
    let mut cols = ColumnarFrame::default();
    let mut frame_bytes = 0usize;
    for _ in 0..8 {
        for frame in &frames {
            let id = rec.open("streams.codec.encode_frame", Some(stage));
            encode_frame(frame, &mut wire).map_err(|e| e.to_string())?;
            rec.close(id);
            frame_bytes = wire.len();
            let id = rec.open("streams.codec.decode_frame", Some(stage));
            decode_frame(&wire, &mut cols).map_err(|e| e.to_string())?;
            rec.close(id);
        }
    }
    rec.close(stage);
    out.insert(
        "streams.codec.encode_ns_per_tuple".into(),
        rec.mean_ns("streams.codec.encode_frame") / BATCH as f64,
    );
    out.insert(
        "streams.codec.decode_ns_per_tuple".into(),
        rec.mean_ns("streams.codec.decode_frame") / BATCH as f64,
    );
    out.insert(
        "streams.codec.bytes_per_tuple".into(),
        frame_bytes as f64 / BATCH as f64,
    );

    // --- engine::persist and streams::checkpoint (fsync included) --------
    let stage = rec.open("replay.persist", Some(root));
    let blob = encode_snapshot(&eig);
    let snapshot_path = dir.join("replay.snapshot");
    let mut checkpointer = PeCheckpointer::new(dir.join("replay-pe"), 0).map_err(io)?;
    let parts = [
        ("pca-0".to_string(), blob.clone()),
        ("source".to_string(), b"seq=1\n".to_vec()),
    ];
    for _ in 0..DURABLE_REPS {
        let id = rec.open("engine.persist.write_snapshot", Some(stage));
        write_snapshot(&snapshot_path, &eig).map_err(io)?;
        rec.close(id);
        let id = rec.open("streams.checkpoint.write", Some(stage));
        checkpointer.write(&parts).map_err(io)?;
        rec.close(id);
    }
    rec.close(stage);
    out.insert(
        "engine.persist.write_us".into(),
        rec.mean_ns("engine.persist.write_snapshot") / 1e3,
    );
    out.insert("engine.persist.snapshot_bytes".into(), blob.len() as f64);
    out.insert(
        "streams.checkpoint.manifest_write_us".into(),
        rec.mean_ns("streams.checkpoint.write") / 1e3,
    );

    // --- engine::epoch: the publish and pin paths -------------------------
    let stage = rec.open("replay.epoch", Some(root));
    let store = Arc::new(EpochStore::new());
    store.prewarm(8, cfg.dim, cfg.p_total());
    let mut reader = store.reader().ok_or("no epoch reader slot")?;
    for _ in 0..SMALL_REPS {
        let id = rec.open("engine.epoch.publish", Some(stage));
        let mut buf = store.checkout();
        buf.eig.copy_from(&eig);
        buf.p = cfg.p;
        store.publish(buf);
        rec.close(id);
        let id = rec.open("engine.epoch.pin", Some(stage));
        black_box(reader.pin().map(|s| s.epoch));
        rec.close(id);
    }
    rec.close(stage);
    out.insert(
        "engine.epoch.publish_ns".into(),
        rec.mean_ns("engine.epoch.publish"),
    );
    out.insert(
        "engine.epoch.pin_ns".into(),
        rec.mean_ns("engine.epoch.pin"),
    );

    // --- core::query -------------------------------------------------------
    let stage = rec.open("replay.query", Some(root));
    let mut qw = QueryWorkspace::new();
    for (values, _) in kept.iter().cycle().take(SMALL_REPS) {
        let id = rec.open("core.query.project", Some(stage));
        black_box(qw.project(&eig, cfg.p, values).map_err(|e| e.to_string())?);
        rec.close(id);
        let id = rec.open("core.query.outlier_score", Some(stage));
        black_box(
            qw.outlier_score(&eig, cfg.p, values)
                .map_err(|e| e.to_string())?,
        );
        rec.close(id);
    }
    rec.close(stage);
    out.insert(
        "core.query.project_ns".into(),
        rec.mean_ns("core.query.project"),
    );
    out.insert(
        "core.query.score_ns".into(),
        rec.mean_ns("core.query.outlier_score"),
    );

    // --- engine::backfill and the state store ------------------------------
    let stage = rec.open("replay.backfill", Some(root));
    let partition_rows = partition_text.lines().count();
    let mut worker = PartitionWorker::new(cfg.clone());
    let id = rec.open("engine.backfill.process", Some(stage));
    let state = worker.process(&partition_text).map_err(io)?;
    rec.close(id);
    let state_store = StateStore::open(dir.join("replay-state")).map_err(io)?;
    let state_blob = encode_snapshot(&state);
    let hash = content_hash(partition_text.as_bytes());
    for _ in 0..DURABLE_REPS {
        let id = rec.open("streams.backfill.store_put", Some(stage));
        state_store.store("replay", hash, &state_blob).map_err(io)?;
        rec.close(id);
    }
    rec.close(stage);
    out.insert(
        "engine.backfill.partition_ns_per_row".into(),
        rec.mean_ns("engine.backfill.process") / partition_rows.max(1) as f64,
    );
    out.insert(
        "streams.backfill.store_put_us".into(),
        rec.mean_ns("streams.backfill.store_put") / 1e3,
    );

    rec.close(root);
    Ok((out, ingest_ns))
}
