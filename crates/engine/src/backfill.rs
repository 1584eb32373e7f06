//! Parallel partitioned backfill of a historical spectrum corpus.
//!
//! The streaming application answers "what is the eigensystem *now*";
//! backfill answers "what was it over the whole archive" — without paying
//! for a monolithic sequential replay every time the question is asked.
//! Because the robust estimator's state is algebraically mergeable
//! (paper eq. 15–16), a corpus can be sharded by a partition key, each
//! shard estimated independently in parallel, and the per-shard
//! eigensystems combined by the core crate's tree reduction. Each shard's
//! finished state persists in a [`StateStore`] keyed by partition id and
//! content hash, so a re-run over an unchanged corpus computes nothing,
//! and appending one shard (yesterday's observations, a new plate) costs
//! exactly one shard — O(partition), never O(history).
//!
//! The division of labor with `spca_streams::backfill`: that module owns
//! the engine-agnostic machinery (partitions, store, worker pool); this
//! one wires it to spectra CSV corpora and the robust PCA estimator, and
//! merges the results into a single [`EigenSystem`] that can seed a live
//! streaming run via `AppConfig::warm_start`.
//!
//! Determinism: partition states are serialized with the exact-round-trip
//! snapshot codec ([`crate::persist::encode_snapshot`]), the merge always
//! consumes the *decoded store bytes* (even on a cold run), and the tree
//! reduction pairs partitions in a fixed order — so a warm run is
//! bit-identical to the cold run that populated its store, at any worker
//! count.

use crate::persist::{decode_snapshot, encode_snapshot};
use spca_core::{EigenSystem, PcaConfig, RobustPca};
use spca_streams::backfill::{run_partitions, BackfillStats, ContentHasher, Partition, StateStore};
use spca_streams::csv::{self, Row};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Bytes a backfill's reader reads from its file at a time. A worker holds
/// one such buffer, so it bounds a backfill's memory together with the
/// longest line, whatever the size of the corpus.
pub const READ_BUFFER_BYTES: usize = 64 * 1024;

/// A partition payload: a byte range of a corpus file, read when the
/// partition is parsed. Nothing of the corpus is held in memory between
/// partitioning and parsing.
#[derive(Debug, Clone)]
pub struct CorpusSlice {
    path: PathBuf,
    range: Range<u64>,
}

impl CorpusSlice {
    /// The slice's byte range in its file.
    pub fn range(&self) -> Range<u64> {
        self.range.clone()
    }

    /// The slice's bytes as a reader: its file, positioned at the start of
    /// the range and ending at its end (or at the file's, if it shrank).
    pub fn open(&self) -> io::Result<io::Take<File>> {
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(self.range.start))?;
        Ok(file.take(self.range.end - self.range.start))
    }
}

/// Reads the next line of `src` into `line`, its `\n` included (the last
/// line may lack one), so the lines concatenate to exactly the bytes read;
/// `false` at the end.
fn read_line(src: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<bool> {
    line.clear();
    Ok(src.read_until(b'\n', line)? > 0)
}

/// The whole of `path` as a slice.
fn whole_file(path: &Path) -> io::Result<CorpusSlice> {
    Ok(CorpusSlice {
        path: path.to_path_buf(),
        range: 0..std::fs::metadata(path)?.len(),
    })
}

/// Splits a CSV corpus into `parts` contiguous row-range partitions.
///
/// Boundaries land on line starts, and rows are counted over *data* lines
/// (blank and `#`-comment lines ride along with the preceding range), so
/// the partition ids — `rows-<first>-<last+1>` — are stable row
/// coordinates: re-partitioning an unchanged file yields identical ids
/// and content hashes, which is what makes the state store's cache hits
/// line up across runs.
///
/// The file is streamed twice through one [`READ_BUFFER_BYTES`] buffer:
/// once to count its data rows, once to find the partitions' first rows
/// and hash each range as it passes. Memory does not grow with the file.
pub fn partition_csv_rows(path: &Path, parts: usize) -> io::Result<Vec<Partition<CorpusSlice>>> {
    assert!(parts >= 1, "need at least one partition");
    let whole = whole_file(path)?;
    let mut line = Vec::new();

    let mut n_rows = 0usize;
    let mut src = BufReader::with_capacity(READ_BUFFER_BYTES, whole.open()?);
    while read_line(&mut src, &mut line)? {
        n_rows += usize::from(!csv::is_skip(&line));
    }
    if n_rows == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: corpus has no data rows", path.display()),
        ));
    }
    let parts = parts.min(n_rows);
    // Near-equal split: partition p covers rows [p*n/parts, (p+1)*n/parts).
    let first_row = |p: usize| p * n_rows / parts;

    let mut out: Vec<Partition<CorpusSlice>> = Vec::with_capacity(parts);
    let mut hasher = ContentHasher::new();
    let (mut offset, mut row) = (0u64, 0usize);
    fn close(out: &mut [Partition<CorpusSlice>], hasher: &ContentHasher, end: u64) {
        if let Some(part) = out.last_mut() {
            part.payload.range.end = end;
            part.content_hash = hasher.finish();
        }
    }
    // The first pass read to the end, so the buffer is empty: the file is
    // opened again under it.
    *src.get_mut() = whole.open()?;
    while read_line(&mut src, &mut line)? {
        if !csv::is_skip(&line) {
            let p = out.len();
            if p < parts && row == first_row(p) {
                close(&mut out, &hasher, offset);
                hasher = ContentHasher::new();
                out.push(Partition {
                    id: format!("rows-{:06}-{:06}", row, first_row(p + 1)),
                    content_hash: 0,
                    payload: CorpusSlice {
                        path: path.to_path_buf(),
                        range: offset..offset,
                    },
                });
            }
            row += 1;
        }
        if !out.is_empty() {
            hasher.update(&line);
        }
        offset += line.len() as u64;
    }
    if row != n_rows || offset != whole.range.end {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: file changed while it was partitioned", path.display()),
        ));
    }
    close(&mut out, &hasher, offset);
    Ok(out)
}

/// One partition per corpus file — the "by plate" / "by day" partition key
/// when the archive is already laid out as one file per observation batch.
/// The partition id is the file name.
pub fn partition_csv_files(paths: &[PathBuf]) -> io::Result<Vec<Partition<CorpusSlice>>> {
    let mut line = Vec::new();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let slice = whole_file(path)?;
        let id = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let mut hasher = ContentHasher::new();
        let mut src = BufReader::with_capacity(READ_BUFFER_BYTES, slice.open()?);
        while read_line(&mut src, &mut line)? {
            hasher.update(&line);
        }
        out.push(Partition {
            id,
            content_hash: hasher.finish(),
            payload: slice,
        });
    }
    Ok(out)
}

/// One CSV line into the estimator; blank and comment lines are skipped.
fn feed(
    pca: &mut RobustPca,
    values: &mut Vec<f64>,
    mask: &mut Vec<bool>,
    line: &[u8],
) -> io::Result<()> {
    let result = match csv::parse_row(line, values, mask) {
        Row::Skip => return Ok(()),
        Row::Dense => pca.update(values),
        Row::Masked => pca.update_masked(values, mask),
    };
    result
        .map(|_| ())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A reusable per-worker estimator: one [`RobustPca`] whose workspaces are
/// allocated once and reused across every partition the worker drains
/// ([`RobustPca::reset`] clears state but keeps the scratch buffers), plus
/// reusable row-parse buffers, one read buffer and one line buffer — so
/// the steady-state feed loop performs no heap allocation (guarded by
/// `tests/backfill_alloc.rs`).
pub struct PartitionWorker {
    pca: RobustPca,
    values: Vec<f64>,
    mask: Vec<bool>,
    /// Made with the first slice and kept: each later slice's file is
    /// swapped in under the same buffer.
    reader: Option<BufReader<io::Take<File>>>,
    line: Vec<u8>,
}

impl PartitionWorker {
    /// Builds a worker for `cfg`-shaped estimation.
    pub fn new(cfg: PcaConfig) -> Self {
        let dim = cfg.dim;
        PartitionWorker {
            pca: RobustPca::new(cfg),
            values: Vec::with_capacity(dim),
            mask: Vec::with_capacity(dim),
            reader: None,
            line: Vec::new(),
        }
    }

    /// Resets estimator state for the next partition (workspaces survive).
    pub fn begin(&mut self) {
        self.pca.reset();
    }

    /// Feeds one CSV line; blank and comment lines are skipped. Missing
    /// bins (`nan` / unparsable fields) go through the masked update.
    pub fn feed_line(&mut self, line: &[u8]) -> io::Result<()> {
        feed(&mut self.pca, &mut self.values, &mut self.mask, line)
    }

    /// Feeds every line of `slice`, read from its file through the
    /// worker's one buffer, and returns the
    /// [`content_hash`](spca_streams::content_hash) of the bytes it parsed.
    pub fn feed_slice(&mut self, slice: &CorpusSlice) -> io::Result<u64> {
        let file = slice.open()?;
        let mut reader = match self.reader.take() {
            Some(mut reader) => {
                // What a failed slice left unread is not this slice's.
                reader.consume(reader.buffer().len());
                *reader.get_mut() = file;
                reader
            }
            None => BufReader::with_capacity(READ_BUFFER_BYTES, file),
        };
        let parsed = self.feed_lines(&mut reader);
        self.reader = Some(reader);
        parsed
    }

    /// Feeds every line of `src` and returns the
    /// [`content_hash`](spca_streams::content_hash) of the bytes it read.
    fn feed_lines(&mut self, src: &mut impl BufRead) -> io::Result<u64> {
        let mut hasher = ContentHasher::new();
        while read_line(src, &mut self.line)? {
            hasher.update(&self.line);
            let row = self.line.strip_suffix(b"\n").unwrap_or(&self.line);
            feed(&mut self.pca, &mut self.values, &mut self.mask, row)?;
        }
        Ok(hasher.finish())
    }

    /// Runs one partition from its file: reset, feed every row, and return
    /// the full eigensystem. The bytes parsed must still hash to the
    /// partition's `content_hash`; if the file changed since it was
    /// partitioned, the partition fails with `InvalidData`, so no state is
    /// stored under a key its bytes no longer have.
    pub fn process_partition(&mut self, part: &Partition<CorpusSlice>) -> io::Result<EigenSystem> {
        self.begin();
        let parsed = self.feed_slice(&part.payload)?;
        if parsed != part.content_hash {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: bytes {:?} changed since partitioning (content hash {parsed:016x}, \
                     partitioned as {:016x})",
                    part.payload.path.display(),
                    part.payload.range,
                    part.content_hash
                ),
            ));
        }
        self.finish()
    }

    /// Runs one whole partition (CSV text or bytes): reset, feed every row,
    /// return the full (`p+q`-component) eigensystem — full so the merged
    /// result can later be installed into a live operator, which needs
    /// every tracked component.
    pub fn process(&mut self, corpus: impl AsRef<[u8]>) -> io::Result<EigenSystem> {
        self.begin();
        self.feed_lines(&mut corpus.as_ref())?;
        self.finish()
    }

    fn finish(&mut self) -> io::Result<EigenSystem> {
        self.pca.full_eigensystem().cloned().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "partition too small: estimator needs {} warm-up rows to initialize",
                    self.pca.config().init_size
                ),
            )
        })
    }
}

/// Configuration of a backfill run.
#[derive(Debug, Clone)]
pub struct BackfillConfig {
    /// Estimator configuration applied to every partition.
    pub pca: PcaConfig,
    /// Worker threads (`0` = one per available core).
    pub workers: usize,
    /// State-store directory.
    pub state_dir: PathBuf,
}

/// The result of a backfill run.
#[derive(Debug)]
pub struct BackfillOutcome {
    /// The tree-merged corpus-wide eigensystem.
    pub merged: EigenSystem,
    /// Per-partition eigensystems (input order), decoded from the store.
    pub per_partition: Vec<EigenSystem>,
    /// Cache-hit / compute accounting from the worker pool.
    pub stats: BackfillStats,
}

/// Runs the backfill: every partition's eigensystem comes either from the
/// state store (unchanged input) or from a fresh parallel estimate, and
/// the per-partition states tree-merge into one corpus-wide eigensystem.
///
/// The merge input is *always* the decoded store bytes — on a cold run
/// each worker's eigensystem round-trips through the snapshot codec before
/// merging. The codec is exact, so this costs nothing numerically, and it
/// makes cold and warm runs consume byte-identical inputs: the merged
/// result is bit-reproducible across cold/warm and across worker counts.
pub fn backfill(
    cfg: &BackfillConfig,
    partitions: &[Partition<CorpusSlice>],
) -> io::Result<BackfillOutcome> {
    if partitions.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "backfill needs at least one partition",
        ));
    }
    let store = StateStore::open(&cfg.state_dir)?;
    let pca_cfg = &cfg.pca;
    let (states, stats) = run_partitions(partitions, &store, cfg.workers, |_w| {
        let mut worker = PartitionWorker::new(pca_cfg.clone());
        move |p: &Partition<CorpusSlice>| -> io::Result<Vec<u8>> {
            let eig = worker.process_partition(p)?;
            Ok(encode_snapshot(&eig))
        }
    })?;
    let per_partition: Vec<EigenSystem> = states
        .iter()
        .map(|bytes| decode_snapshot(bytes))
        .collect::<io::Result<_>>()?;
    let merged = spca_core::merge_tree(&per_partition)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("merge failed: {e}")))?;
    Ok(BackfillOutcome {
        merged,
        per_partition,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slice that fails part-way leaves its unread bytes in the worker's
    /// buffer; the next slice read under that buffer parses only its own.
    #[test]
    fn a_slice_after_a_failed_one_reads_only_its_own_bytes() {
        let good: String = (0..40).map(|i| format!("{i}.5,1.0,-2.0\n")).collect();
        let text = format!("1.0,2.0,3.0\nnan,nan,nan\n{good}");
        let dir = std::env::temp_dir().join(format!("spca_backfill_swap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.csv");
        std::fs::write(&path, &text).unwrap();
        let end = text.len() as u64;
        let failing = CorpusSlice {
            path: path.clone(),
            range: 0..end,
        };
        let after = CorpusSlice {
            path,
            range: end - good.len() as u64..end,
        };

        let mut worker = PartitionWorker::new(PcaConfig::new(3, 1).with_init_size(10));
        worker.begin();
        let err = worker.feed_slice(&failing).unwrap_err();
        assert!(err.to_string().contains("no observed bins"), "{err}");
        worker.begin();
        let parsed = worker.feed_slice(&after);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(parsed.unwrap(), spca_streams::content_hash(good.as_bytes()));
    }
}
