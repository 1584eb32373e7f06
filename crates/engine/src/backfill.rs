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
use std::io::{self, BufRead, Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Bytes a [`LineReader`] reads from its file at a time. A worker holds one
/// such buffer, so it bounds a backfill's memory together with the longest
/// line, whatever the size of the corpus.
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

/// The one read loop of a backfill: a slice's lines, read through one
/// fixed buffer. A line that straddles two reads is assembled in `line`,
/// which grows to the longest such line and is then reused.
struct LineReader {
    buf: Box<[u8]>,
    line: Vec<u8>,
}

impl LineReader {
    fn new() -> Self {
        Self::with_buffer(READ_BUFFER_BYTES)
    }

    fn with_buffer(bytes: usize) -> Self {
        LineReader {
            buf: vec![0; bytes].into_boxed_slice(),
            line: Vec::new(),
        }
    }

    /// Calls `f` on every line of `slice` in order, each with its `\n`
    /// (the last without one when the slice does not end in a newline), so
    /// the lines concatenate to exactly the bytes read.
    fn for_each_line(
        &mut self,
        slice: &CorpusSlice,
        mut f: impl FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut src = slice.open()?;
        let LineReader { buf, line } = self;
        line.clear();
        loop {
            let n = match src.read(buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            // `skip_until` on a byte slice finds each newline with std's
            // word-at-a-time memchr.
            let mut rest = &buf[..n];
            while !rest.is_empty() {
                let start = rest;
                let len = rest.skip_until(b'\n')?;
                let piece = &start[..len];
                if piece[len - 1] != b'\n' {
                    line.extend_from_slice(piece);
                } else if line.is_empty() {
                    f(piece)?;
                } else {
                    line.extend_from_slice(piece);
                    f(line)?;
                    line.clear();
                }
            }
        }
        if !line.is_empty() {
            f(line)?;
            line.clear();
        }
        Ok(())
    }

    /// [`content_hash`](spca_streams::content_hash) of the slice's bytes.
    fn hash(&mut self, slice: &CorpusSlice) -> io::Result<u64> {
        let mut hasher = ContentHasher::new();
        self.for_each_line(slice, |line| {
            hasher.update(line);
            Ok(())
        })?;
        Ok(hasher.finish())
    }
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
    let mut reader = LineReader::new();

    let mut n_rows = 0usize;
    reader.for_each_line(&whole, |line| {
        n_rows += usize::from(!csv::is_skip(line));
        Ok(())
    })?;
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
    reader.for_each_line(&whole, |line| {
        if !csv::is_skip(line) {
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
            hasher.update(line);
        }
        offset += line.len() as u64;
        Ok(())
    })?;
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
    let mut reader = LineReader::new();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let slice = whole_file(path)?;
        let id = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        out.push(Partition {
            id,
            content_hash: reader.hash(&slice)?,
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
/// reusable row-parse buffers and one read buffer — so the steady-state
/// feed loop performs no heap allocation (guarded by
/// `tests/backfill_alloc.rs`).
pub struct PartitionWorker {
    pca: RobustPca,
    values: Vec<f64>,
    mask: Vec<bool>,
    reader: LineReader,
}

impl PartitionWorker {
    /// Builds a worker for `cfg`-shaped estimation.
    pub fn new(cfg: PcaConfig) -> Self {
        let dim = cfg.dim;
        PartitionWorker {
            pca: RobustPca::new(cfg),
            values: Vec::with_capacity(dim),
            mask: Vec::with_capacity(dim),
            reader: LineReader::new(),
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
        let PartitionWorker {
            pca,
            values,
            mask,
            reader,
        } = self;
        let mut hasher = ContentHasher::new();
        reader.for_each_line(slice, |line| {
            hasher.update(line);
            feed(pca, values, mask, line.strip_suffix(b"\n").unwrap_or(line))
        })?;
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
        for line in corpus.as_ref().split(|&b| b == b'\n') {
            self.feed_line(line)?;
        }
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
    let merged = spca_core::merge::merge_tree_threads(
        &per_partition,
        if cfg.workers == 0 { 1 } else { cfg.workers }.max(1),
    )
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

    proptest::proptest! {
        /// Through any buffer size, the lines a reader hands out are the
        /// file's lines: each ends at its newline and holds no other, and
        /// together they are every byte of the slice.
        #[test]
        fn lines_straddling_reads_come_out_whole(
            picks in proptest::collection::vec(0usize..3, 0..200),
            buffer in 1usize..12,
            cut in 0usize..200,
        ) {
            let bytes: Vec<u8> = picks.iter().map(|&i| b"ab\n"[i]).collect();
            let dir = std::env::temp_dir()
                .join(format!("spca_line_reader_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("lines");
            std::fs::write(&path, &bytes).unwrap();
            let start = cut.min(bytes.len()) as u64;
            let slice = CorpusSlice { path, range: start..bytes.len() as u64 };
            let mut pieces: Vec<Vec<u8>> = Vec::new();
            LineReader::with_buffer(buffer)
                .for_each_line(&slice, |line| {
                    pieces.push(line.to_vec());
                    Ok(())
                })
                .unwrap();
            std::fs::remove_dir_all(&dir).ok();

            let mut want = vec![Vec::new()];
            for &b in &bytes[start as usize..] {
                want.last_mut().unwrap().push(b);
                if b == b'\n' {
                    want.push(Vec::new());
                }
            }
            want.retain(|line| !line.is_empty());
            proptest::prop_assert_eq!(pieces, want);
        }
    }
}
