//! Eigensystem snapshots on disk.
//!
//! §III-C: "The intermediate calculation results are periodically saved to
//! the disk for future reference." The format is a self-describing text
//! (header line, running sums, eigenvalues, eigenvectors, mean), sealed in
//! a file under a content hash, that round-trips exactly through
//! [`write_snapshot`] / [`read_snapshot`], so an application can be
//! stopped and warm-started from its last state — and scientists can
//! inspect the file with nothing but a text editor.

use crate::messages::{PeerState, KIND_SNAPSHOT};
use spca_core::{DeferredTail, EigenSystem};
use spca_linalg::Mat;
use spca_streams::checkpoint::{read_sealed, seal, write_atomic_vfs};
use spca_streams::vfs::RealVfs;
use spca_streams::{ControlTuple, OpContext, Operator};
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &str = "spca-eigensystem-v1";
/// The magic of a snapshot file: the [`MAGIC`] text sealed as one part.
const SEALED: &str = "spca-eigensystem-v2";

/// Writes an eigensystem to `path`, crash-safely: the bytes go to a temp
/// file in the same directory, the temp file is fsynced, and only then is
/// it atomically renamed over `path` — so a crash mid-write can never
/// leave a truncated file where the last good snapshot was, and a crash
/// *after* the rename can never expose an empty or stale file the rename
/// outran in the page cache. The failure model covers both a crashing
/// process (the paper's operator restart story) and a crashing kernel:
/// without the fsync-before-rename, journaled filesystems may commit the
/// rename before the data blocks, which is exactly the window PE-level
/// recovery trusts. The containing directory is fsynced best-effort so the
/// rename itself is durable; directory fsync is not supported everywhere,
/// so its failure is ignored. The file is the [`encode_snapshot`] text
/// sealed by [`seal`], so [`read_snapshot`] rejects any damage to it.
pub fn write_snapshot(path: &Path, eig: &EigenSystem) -> std::io::Result<()> {
    let sealed = seal(SEALED, &[], &[("eigensystem", &encode_snapshot(eig))]);
    write_atomic_vfs(&RealVfs, path, &sealed)
}

/// Serializes an eigensystem in the snapshot text format, in memory. This
/// is the byte layer under [`write_snapshot`]; the PE-level `Checkpoint`
/// machinery stores the same bytes inside per-PE manifests, so an engine
/// state is readable with a text editor wherever it ends up.
pub fn encode_snapshot(eig: &EigenSystem) -> Vec<u8> {
    let mut w = Vec::new();
    // Writes to a Vec cannot fail.
    let _ = writeln!(w, "{MAGIC}");
    let _ = writeln!(w, "dim {} components {}", eig.dim(), eig.n_components());
    let _ = writeln!(
        w,
        "sums sigma2 {:e} u {:e} v {:e} q {:e} n_obs {}",
        eig.sigma2, eig.sum_u, eig.sum_v, eig.sum_q, eig.n_obs
    );
    let _ = write_row(&mut w, "values", &eig.values);
    for k in 0..eig.n_components() {
        let _ = write_row(&mut w, "vector", eig.basis.col(k));
    }
    let _ = write_row(&mut w, "mean", &eig.mean);
    w
}

/// Serializes the deferred tail of a running basis
/// ([`spca_core::RobustPca::deferred_state`]) in the snapshot's row format:
/// a `mixing` row holding `M` column-major, then one `residual` row per
/// pending column. A checkpoint writes it after the eigensystem whose basis
/// is `E₀`, so a restore resumes the update's arithmetic exactly.
pub fn encode_tail(tail: &DeferredTail<'_>, dim: usize) -> Vec<u8> {
    let mut w = Vec::new();
    let _ = write_row(&mut w, "mixing", tail.mixing);
    for col in tail.residuals.chunks_exact(dim.max(1)) {
        let _ = write_row(&mut w, "residual", col);
    }
    w
}

/// Parses [`encode_tail`]'s rows for a `dim`-dimensional basis into the
/// residual columns (column-major) and `M`; the caller checks the shapes.
pub fn decode_tail(bytes: &[u8], dim: usize) -> std::io::Result<(Vec<f64>, Vec<f64>)> {
    let text = std::str::from_utf8(bytes).map_err(|_| bad("deferred tail is not UTF-8"))?;
    if !text.ends_with('\n') {
        return Err(bad("truncated deferred tail"));
    }
    let mut lines = text.lines();
    let mixing = read_row(lines.next().unwrap_or(""), "mixing", None)?;
    let mut residuals = Vec::new();
    for line in lines {
        residuals.extend(read_row(line, "residual", Some(dim))?);
    }
    Ok((residuals, mixing))
}

fn write_row<W: Write>(w: &mut W, tag: &str, row: &[f64]) -> std::io::Result<()> {
    write!(w, "{tag}")?;
    for v in row {
        // `{:e}` round-trips f64 exactly through parse.
        write!(w, " {v:e}")?;
    }
    writeln!(w)
}

/// Parses a `tag v v …` row as [`write_row`] writes it, checking its
/// length when one is given.
fn read_row(line: &str, tag: &str, len: Option<usize>) -> std::io::Result<Vec<f64>> {
    let mut it = line.split_whitespace();
    if it.next() != Some(tag) {
        return Err(bad(format!("expected '{tag}' row")));
    }
    let vals: Result<Vec<f64>, _> = it.map(|s| s.parse::<f64>()).collect();
    let vals = vals.map_err(|_| bad(format!("bad number in {tag} row")))?;
    match len {
        Some(len) if vals.len() != len => {
            Err(bad(format!("{tag} row length {} != {len}", vals.len())))
        }
        _ => Ok(vals),
    }
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Reads an eigensystem previously written by [`write_snapshot`].
///
/// A file torn at any byte, or with any bit flipped, fails its seal and
/// yields a clean [`std::io::ErrorKind::InvalidData`] error, so a damaged
/// snapshot can never parse into a plausible-but-wrong eigensystem. So does
/// an unsealed file from a build before the seal, named as such.
pub fn read_snapshot(path: &Path) -> std::io::Result<EigenSystem> {
    let (_, parts) =
        read_sealed(&RealVfs, path, SEALED).map_err(|e| match std::fs::read(path) {
            Ok(old) if old.starts_with(MAGIC.as_bytes()) => bad(format!(
                "{path:?} is an unsealed version-1 snapshot; write it again with this build"
            )),
            _ => e,
        })?;
    match &parts[..] {
        [(name, text)] if name == "eigensystem" => decode_snapshot(text),
        _ => Err(bad(format!("{path:?} does not hold one eigensystem"))),
    }
}

/// Parses the snapshot text format from memory — the read-side counterpart
/// of [`encode_snapshot`]. Malformed or truncated text and a shape that
/// breaks the eigensystem's invariants are `InvalidData`; the writer
/// terminates every line (including the last), so text that does not end
/// in `\n` was cut off even when every token it kept still parses. A
/// flipped digit can still parse: the seal around a snapshot file, and the
/// checkpoint and wire checksums around the other copies, catch that.
pub fn decode_snapshot(bytes: &[u8]) -> std::io::Result<EigenSystem> {
    let text = std::str::from_utf8(bytes).map_err(|_| bad("snapshot is not UTF-8"))?;
    if !text.ends_with('\n') {
        return Err(bad("truncated snapshot"));
    }
    let mut lines = text.lines();
    let mut next = || {
        lines
            .next()
            .map(|l| l.to_string())
            .ok_or_else(|| bad("truncated snapshot"))
    };

    if next()? != MAGIC {
        return Err(bad("not an spca eigensystem snapshot"));
    }
    let shape_line = next()?;
    let parts: Vec<&str> = shape_line.split_whitespace().collect();
    if parts.len() != 4 || parts[0] != "dim" || parts[2] != "components" {
        return Err(bad("malformed shape line"));
    }
    let dim: usize = parts[1].parse().map_err(|_| bad("bad dim"))?;
    let k: usize = parts[3].parse().map_err(|_| bad("bad component count"))?;

    let sums_line = next()?;
    // "sums sigma2 <v> u <v> v <v> q <v> n_obs <v>" — 11 tokens.
    let sp: Vec<&str> = sums_line.split_whitespace().collect();
    if sp.len() != 11 || sp[0] != "sums" {
        return Err(bad("malformed sums line"));
    }
    let num = |s: &str| s.parse::<f64>().map_err(|_| bad("bad number in sums"));
    let sigma2 = num(sp[2])?;
    let sum_u = num(sp[4])?;
    let sum_v = num(sp[6])?;
    let sum_q = num(sp[8])?;
    let n_obs: u64 = sp[10].parse().map_err(|_| bad("bad n_obs"))?;

    let values = read_row(&next()?, "values", Some(k))?;
    let mut basis = Mat::zeros(dim, k);
    for j in 0..k {
        let col = read_row(&next()?, "vector", Some(dim))?;
        basis.col_mut(j).copy_from_slice(&col);
    }
    let mean = read_row(&next()?, "mean", Some(dim))?;

    let eig = EigenSystem {
        mean,
        basis,
        values,
        sigma2,
        sum_u,
        sum_v,
        sum_q,
        n_obs,
    };
    eig.check_invariants()
        .map_err(|e| bad(format!("snapshot violates invariants: {e}")))?;
    Ok(eig)
}

/// A control-port sink persisting every [`KIND_SNAPSHOT`] it receives:
/// `engine<k>_latest.snapshot` is overwritten each time, so the directory
/// always holds the freshest state per engine.
pub struct SnapshotWriter {
    dir: PathBuf,
    /// Snapshots written.
    pub written: u64,
}

impl SnapshotWriter {
    /// Writes snapshots under `dir` (created if missing).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SnapshotWriter {
            dir: dir.into(),
            written: 0,
        }
    }

    /// The latest-snapshot path for an engine.
    pub fn latest_path(dir: &Path, engine: u32) -> PathBuf {
        dir.join(format!("engine{engine}_latest.snapshot"))
    }
}

impl Operator for SnapshotWriter {
    fn on_control(&mut self, t: ControlTuple, _ctx: &mut OpContext<'_>) {
        if t.kind != KIND_SNAPSHOT {
            return;
        }
        let Some(state) = t.payload_as::<PeerState>() else {
            return;
        };
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            eprintln!("SnapshotWriter: cannot create {}: {e}", self.dir.display());
            return;
        }
        let path = Self::latest_path(&self.dir, state.engine);
        match write_snapshot(&path, &state.eigensystem) {
            Ok(()) => self.written += 1,
            Err(e) => eprintln!("SnapshotWriter: write failed for {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spca_core::batch::batch_pca;
    use spca_spectra::PlantedSubspace;

    fn sample_eig() -> EigenSystem {
        let w = PlantedSubspace::new(10, 3, 0.05);
        let mut rng = StdRng::seed_from_u64(1);
        let data = w.sample_batch(&mut rng, 120);
        batch_pca(&data, 3).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spca_persist_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let eig = sample_eig();
        let path = tmp("round.snapshot");
        write_snapshot(&path, &eig).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.dim(), eig.dim());
        assert_eq!(back.n_components(), eig.n_components());
        assert_eq!(back.n_obs, eig.n_obs);
        assert_eq!(back.sigma2.to_bits(), eig.sigma2.to_bits());
        assert_eq!(back.sum_v.to_bits(), eig.sum_v.to_bits());
        for (a, b) in back.mean.iter().zip(&eig.mean) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(back.basis.sub(&eig.basis).unwrap().max_abs() == 0.0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage.snapshot");
        std::fs::write(&path, "not a snapshot\n").unwrap();
        assert!(read_snapshot(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_truncation() {
        let eig = sample_eig();
        let path = tmp("trunc.snapshot");
        write_snapshot(&path, &eig).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        // Truncate at every possible line count: each must be a clean
        // `InvalidData` error, never a panic or a bogus eigensystem.
        let n_lines = content.lines().count();
        for keep in 0..n_lines {
            let cut: String = content
                .lines()
                .take(keep)
                .map(|l| format!("{l}\n"))
                .collect();
            std::fs::write(&path, cut).unwrap();
            let err = read_snapshot(&path).expect_err("truncated snapshot must not parse");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "keep={keep}: expected InvalidData, got {err}"
            );
        }
        std::fs::remove_file(path).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A valid snapshot truncated at *any* byte offset must come back
        /// as a clean `InvalidData` error — never a panic, never a
        /// plausible-but-wrong eigensystem. This covers torn writes at
        /// byte granularity, including a cut inside the final token of the
        /// last line (where every kept token still parses).
        #[test]
        fn truncation_at_any_byte_offset_is_invalid_data(frac in 0.0f64..1.0) {
            let eig = sample_eig();
            let path = tmp(&format!("bytetrunc_{:x}.snapshot", frac.to_bits()));
            write_snapshot(&path, &eig).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let cut = ((bytes.len() as f64) * frac) as usize;
            std::fs::write(&path, &bytes[..cut.min(bytes.len() - 1)]).unwrap();
            let err = read_snapshot(&path).expect_err("torn snapshot must not parse");
            std::fs::remove_file(&path).ok();
            proptest::prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn every_single_bit_flip_is_invalid_data() {
        // The seal covers every byte: a flipped digit of one float, which
        // still parses as text, is rejected like any other flip.
        let eig = sample_eig();
        let path = tmp("bitsweep.snapshot");
        write_snapshot(&path, &eig).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                std::fs::write(&path, &flipped).unwrap();
                let err = read_snapshot(&path).expect_err("a flipped snapshot must not parse");
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "bit {bit} of byte {at}: expected InvalidData, got {err}"
                );
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn an_unsealed_version_1_file_is_rejected_by_name() {
        let path = tmp("v1.snapshot");
        std::fs::write(&path, encode_snapshot(&sample_eig())).unwrap();
        let err = read_snapshot(&path).expect_err("a v1 snapshot must not parse");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsealed version-1"), "{err}");
    }

    #[test]
    fn byte_truncation_sweeps_every_offset() {
        // Exhaustive companion to the proptest: every prefix of a valid
        // snapshot is rejected with `InvalidData`.
        let eig = sample_eig();
        let path = tmp("bytesweep.snapshot");
        write_snapshot(&path, &eig).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = read_snapshot(&path).expect_err("torn snapshot must not parse");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "cut at byte {cut}/{}: expected InvalidData, got {err}",
                bytes.len()
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_is_atomic_and_leaves_no_temp_files() {
        let dir = tmp("atomicdir");
        std::fs::create_dir_all(&dir).unwrap();
        let eig = sample_eig();
        let path = dir.join("engine0_latest.snapshot");
        // Seed a good snapshot, then overwrite: the target must always be
        // complete, and no scratch files may remain.
        write_snapshot(&path, &eig).unwrap();
        write_snapshot(&path, &eig).unwrap();
        let entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            entries,
            vec!["engine0_latest.snapshot".to_string()],
            "temp files must not survive a successful write"
        );
        assert_eq!(read_snapshot(&path).unwrap().n_obs, eig.n_obs);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn rejects_corrupted_invariants() {
        let text = String::from_utf8(encode_snapshot(&sample_eig())).unwrap();
        // One eigenvalue too many: the row no longer matches the shape.
        let corrupted = text.replace("values", "values 999");
        let err = decode_snapshot(corrupted.as_bytes()).expect_err("bad shape must not parse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn writer_persists_snapshots() {
        use spca_streams::operator::testing::with_ctx;
        let dir = tmp("snapdir");
        let mut w = SnapshotWriter::new(&dir);
        let eig = sample_eig();
        let msg = PeerState {
            engine: 2,
            eigensystem: eig.clone(),
            n_obs: eig.n_obs,
            shares_sent: 0,
            merges_applied: 0,
        };
        with_ctx(0, |ctx| {
            w.on_control(
                ControlTuple::new(KIND_SNAPSHOT, 2, std::sync::Arc::new(msg)),
                ctx,
            );
        });
        assert_eq!(w.written, 1);
        let latest = SnapshotWriter::latest_path(&dir, 2);
        let back = read_snapshot(&latest).unwrap();
        assert_eq!(back.n_obs, eig.n_obs);
        std::fs::remove_dir_all(dir).ok();
    }
}
