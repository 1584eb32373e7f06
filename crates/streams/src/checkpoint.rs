//! Generic operator checkpointing and per-PE snapshot manifests.
//!
//! The paper's prototype leaned on InfoSphere Streams' managed runtime to
//! keep PEs alive across the cluster; our PE-level supervisor (see the
//! engine docs) reproduces that by tearing down and rebuilding a whole
//! processing element when its thread dies. Rebuilding is only correct if
//! *every* stateful operator in the PE can rejoin with consistent state —
//! not just the PCA engine with its bespoke snapshot file — so this module
//! defines the uniform [`Checkpoint`] contract plus the on-disk layout the
//! supervisor uses:
//!
//! * each checkpointable operator serializes to an opaque blob (text
//!   `key value` lines by convention — see [`encode_kv`]);
//! * all blobs of one PE are written together under a generation number
//!   along with a *per-generation* manifest (`pe{i}-g{g}.manifest`), then
//!   the per-PE **pointer manifest** (`pe{i}.manifest`) is atomically
//!   renamed into place naming exactly the files of that generation.
//!   Recovery trusts only blobs a manifest names — and only after their
//!   recorded length *and content hash* check out — so a crash or bit-flip
//!   mid-checkpoint can never mix operators from two different
//!   generations: the pointer manifest *is* the consistency point.
//! * the **last two generations** are retained (older ones are garbage
//!   collected after each successful write), so a manifest or blob that
//!   turns out to be torn or bit-rotted at recovery time degrades to the
//!   previous good generation instead of losing the PE's state. The bad
//!   file is quarantined aside as `<name>.corrupt-N` for post-mortems.
//!
//! Durability follows the same failure model as the engine crate's
//! eigensystem snapshots: blob and manifest scratch files are fsynced
//! before the rename and the directory is fsynced best-effort afterwards,
//! so a manifest never names a blob whose bytes could still be lost by a
//! crash. All disk traffic goes through a [`Vfs`], so the whole layer can
//! run against the fault-injecting backend (see [`crate::vfs`]) — the
//! crash-point harness enumerates every VFS operation in a write sequence
//! and proves recovery from a kill after each one.
//!
//! The fsyncs never run on the thread that owns the state: a PE *captures*
//! a consistent snapshot set between tuples and hands it to a
//! [`WriteBehind`], whose thread runs the write sequence above. Whatever
//! depends on the set being durable — the socket links' stable
//! watermarks — moves in that thread, after the commit.

use crate::backfill::content_hash;
use crate::vfs::{RealVfs, Vfs};
use crate::watched::Watched;
use std::any::Any;
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default cadence (data tuples between periodic PE checkpoints) for
/// operators that don't override [`Checkpoint::checkpoint_every`].
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 512;

/// Uniform snapshot/restore contract for stateful operators.
///
/// Implementors serialize *logical* state (cursors, counters, estimates) —
/// not transport state: channels, file handles and sockets are re-acquired
/// lazily after a restore. `restore` must leave the operator equivalent to
/// one that processed exactly the tuples reflected in the snapshot, so a
/// restarted PE neither loses nor double-counts work.
pub trait Checkpoint {
    /// Serializes the operator's logical state as a self-contained blob.
    fn snapshot(&self) -> Vec<u8>;

    /// Restores state from a blob produced by [`Checkpoint::snapshot`].
    /// A malformed blob is an `InvalidData` error, never a panic.
    fn restore(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Preferred cadence in data tuples between periodic PE checkpoints.
    /// The PE takes the *minimum* over its member operators.
    fn checkpoint_every(&self) -> u64 {
        DEFAULT_CHECKPOINT_EVERY
    }
}

/// Encodes `key value` lines — the shared text idiom for snapshot blobs.
pub fn encode_kv(pairs: &[(&str, String)]) -> Vec<u8> {
    let mut out = String::new();
    for (k, v) in pairs {
        out.push_str(k);
        out.push(' ');
        out.push_str(v);
        out.push('\n');
    }
    out.into_bytes()
}

/// Decodes `key value` lines produced by [`encode_kv`]. Duplicate keys and
/// non-UTF-8 bytes are `InvalidData`.
pub fn decode_kv(bytes: &[u8]) -> io::Result<BTreeMap<String, String>> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "snapshot blob is not UTF-8"))?;
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let (k, v) = line.split_once(' ').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("snapshot blob line '{line}' is not 'key value'"),
            )
        })?;
        if map.insert(k.to_string(), v.to_string()).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("snapshot blob repeats key '{k}'"),
            ));
        }
    }
    Ok(map)
}

/// Looks up `key` in a decoded blob and parses it as `u64`.
pub fn kv_u64(map: &BTreeMap<String, String>, key: &str) -> io::Result<u64> {
    kv_parse(map, key)
}

/// Looks up `key` in a decoded blob and parses it with `FromStr`.
pub fn kv_parse<T: std::str::FromStr>(map: &BTreeMap<String, String>, key: &str) -> io::Result<T> {
    let raw = map.get(key).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot blob missing key '{key}'"),
        )
    })?;
    raw.parse().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot blob key '{key}' has unparsable value '{raw}'"),
        )
    })
}

const MANIFEST_MAGIC: &str = "spca-pe-manifest-v2";

/// One consistent snapshot set: `(operator name, blob)` pairs in manifest
/// order.
pub type SnapshotSet = Vec<(String, Vec<u8>)>;

/// Stamps scratch-file names so concurrent writers (and debris from killed
/// processes) never collide on the same temp path.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp_path_for(path: &Path) -> PathBuf {
    let stamp = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}-{}", std::process::id(), stamp));
    PathBuf::from(tmp)
}

/// Writes `bytes` to `path` atomically and durably through `vfs`: scratch
/// file in the same directory, fsync, rename, best-effort directory fsync.
/// Shared by the PE checkpoint writer and the [`crate::backfill`] state
/// store — both trust that a named file is never torn. The sequence is
/// exactly five VFS operations — create, write, fsync, rename, fsync_dir —
/// which is what the crash-point harness enumerates. The directory fsync
/// is best-effort (not every filesystem supports it); every other failure
/// propagates after a best-effort scratch-file cleanup.
pub fn write_atomic_vfs(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path_for(path);
    let run = || -> io::Result<()> {
        vfs.create(&tmp)?;
        vfs.write(&tmp, bytes)?;
        vfs.fsync(&tmp)?;
        vfs.rename(&tmp, path)?;
        Ok(())
    };
    if let Err(e) = run() {
        // Cleanup through the same backend: a crashed device can't remove
        // its debris either — the startup sweep handles what's left.
        let _ = vfs.remove(&tmp);
        return Err(e);
    }
    if let Some(d) = path.parent() {
        let _ = vfs.fsync_dir(d);
    }
    Ok(())
}

/// Durability written behind its producer: `submit` hands a captured job to
/// a dedicated thread that runs `write` on it, so the producer never waits
/// for a disk.
///
/// The mailbox holds one job being written plus at most one pending, and a
/// new submission *replaces* a pending one: every job is a full snapshot,
/// so only the latest matters, memory stays bounded, and a disk slower
/// than the cadence coalesces captures instead of stalling the producer.
/// Anything that must not happen before the bytes are durable belongs at
/// the end of `write`. [`flush`](WriteBehind::flush) is the barrier for
/// readers of what `write` produces; dropping the handle writes a pending
/// job, then joins the thread.
///
/// A panic in `write` costs that job only: the writer thread lives on, and
/// the panic resumes on the producer's thread at its next `submit` or
/// `flush` — where a synchronous write would have raised it, and where the
/// producer's supervisor is.
pub struct WriteBehind<T> {
    mailbox: Arc<Watched<Mailbox<T>>>,
    thread: Option<JoinHandle<()>>,
}

struct Mailbox<T> {
    pending: Option<T>,
    writing: bool,
    closed: bool,
    /// What a panicking `write` raised, until the producer collects it.
    panic: Option<Box<dyn Any + Send>>,
}

impl<T: Send + 'static> WriteBehind<T> {
    /// Spawns the writer thread, named `name`.
    pub fn spawn(name: &str, mut write: impl FnMut(T) + Send + 'static) -> Self {
        let mailbox = Arc::new(Watched::new(Mailbox {
            pending: None,
            writing: false,
            closed: false,
            panic: None,
        }));
        let theirs = Arc::clone(&mailbox);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let mut slot = theirs.lock();
                loop {
                    if let Some(job) = slot.pending.take() {
                        slot.writing = true;
                        drop(slot);
                        let outcome = catch_unwind(AssertUnwindSafe(|| write(job)));
                        theirs.update(|slot| {
                            slot.writing = false;
                            if let Err(payload) = outcome {
                                slot.panic = Some(payload);
                            }
                        });
                        slot = theirs.lock();
                    } else if slot.closed {
                        return;
                    } else {
                        slot = theirs.wait(slot);
                    }
                }
            })
            .expect("spawn write-behind thread");
        WriteBehind {
            mailbox,
            thread: Some(thread),
        }
    }

    /// Queues `job`, replacing one that is still waiting for the writer.
    pub fn submit(&self, job: T) {
        let (superseded, panic) = self
            .mailbox
            .update(|slot| (slot.pending.replace(job), slot.panic.take()));
        drop(superseded); // freed outside the lock
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Returns once everything submitted so far has been written.
    pub fn flush(&self) {
        let mut slot = self.mailbox.lock();
        while slot.pending.is_some() || slot.writing {
            slot = self.mailbox.wait(slot);
        }
        let panic = slot.panic.take();
        drop(slot);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl<T> Drop for WriteBehind<T> {
    fn drop(&mut self) {
        self.mailbox.update(|slot| slot.closed = true);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// How many manifest generations a PE retains (current + fallback).
const RETAINED_GENERATIONS: u64 = 2;

/// One PE's checkpoint writer: owns the generation counter, keeps the last
/// [`RETAINED_GENERATIONS`] generations on disk, and garbage-collects
/// older ones once a new pointer manifest is durable.
#[derive(Debug)]
pub struct PeCheckpointer {
    dir: PathBuf,
    pe_index: usize,
    gen: u64,
    vfs: Arc<dyn Vfs>,
}

impl PeCheckpointer {
    /// Creates (or reopens) the checkpoint directory for one PE on the
    /// real filesystem.
    pub fn new(dir: impl Into<PathBuf>, pe_index: usize) -> io::Result<Self> {
        Self::new_with_vfs(dir, pe_index, Arc::new(RealVfs))
    }

    /// Creates (or reopens) the checkpoint directory for one PE against an
    /// explicit [`Vfs`]. Reopening sweeps this PE's stale scratch files
    /// (debris from a killed process) and resumes the generation counter
    /// past every generation already on disk, so a restarted PE never
    /// reuses a blob name from a previous incarnation.
    pub fn new_with_vfs(
        dir: impl Into<PathBuf>,
        pe_index: usize,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        sweep_scratch_files(vfs.as_ref(), &dir, pe_index);
        let gen = max_generation_on_disk(&dir, pe_index);
        Ok(PeCheckpointer {
            dir,
            pe_index,
            gen,
            vfs,
        })
    }

    /// The PE's pointer-manifest path: `pe{index}.manifest`.
    pub fn manifest_path(&self) -> PathBuf {
        manifest_path(&self.dir, self.pe_index)
    }

    /// Reads this PE's latest consistent snapshot set, possibly written by
    /// a previous incarnation of the PE. Strict: any structural problem is
    /// an error. See [`read_pe_manifest`].
    pub fn read(&self) -> io::Result<Option<SnapshotSet>> {
        read_pe_manifest(&self.dir, self.pe_index)
    }

    /// Recovers this PE's best available snapshot set, quarantining
    /// torn/corrupt files and falling back to the previous generation.
    /// See [`recover_pe_manifest`].
    pub fn recover(&self) -> PeRecovery {
        recover_pe_manifest_vfs(self.vfs.as_ref(), &self.dir, self.pe_index)
    }

    /// Writes one consistent snapshot set: every blob under a fresh
    /// generation, the per-generation manifest, then the pointer manifest
    /// naming exactly those files. Generations older than the previous one
    /// are garbage collected only after the new pointer is durable, so a
    /// crash at any byte offset — or a bad block discovered later — leaves
    /// a complete older set readable.
    pub fn write(&mut self, parts: &[(String, Vec<u8>)]) -> io::Result<()> {
        let gen = self.gen + 1;
        let mut manifest = format!("{MANIFEST_MAGIC}\npe {}\ngen {}\n", self.pe_index, gen);
        for (ordinal, (name, blob)) in parts.iter().enumerate() {
            let file = format!("pe{}-g{}-{}.ckpt", self.pe_index, gen, ordinal);
            write_atomic_vfs(self.vfs.as_ref(), &self.dir.join(&file), blob)?;
            manifest.push_str(&format!(
                "op {} {} {:016x} {}\n",
                file,
                blob.len(),
                content_hash(blob),
                name
            ));
        }
        manifest.push_str("end\n");
        let gen_manifest = gen_manifest_path(&self.dir, self.pe_index, gen);
        write_atomic_vfs(self.vfs.as_ref(), &gen_manifest, manifest.as_bytes())?;
        // Commit point: the pointer manifest lands atomically over the old
        // one. Only now does the new generation become the recovery target.
        write_atomic_vfs(
            self.vfs.as_ref(),
            &self.manifest_path(),
            manifest.as_bytes(),
        )?;
        self.gen = gen;
        self.gc_old_generations();
        Ok(())
    }

    /// Removes every file of generations older than the fallback one.
    /// Best-effort: GC failure never fails a checkpoint. Scanning the
    /// directory (rather than remembering file lists) also reaps orphans
    /// from generations whose write failed partway.
    fn gc_old_generations(&self) {
        let keep_from = self.gen.saturating_sub(RETAINED_GENERATIONS - 1);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(g) = generation_of(&name, self.pe_index) {
                if g < keep_from {
                    let _ = self.vfs.remove(&entry.path());
                }
            }
        }
    }
}

fn manifest_path(dir: &Path, pe_index: usize) -> PathBuf {
    dir.join(format!("pe{pe_index}.manifest"))
}

fn gen_manifest_path(dir: &Path, pe_index: usize, gen: u64) -> PathBuf {
    dir.join(format!("pe{pe_index}-g{gen}.manifest"))
}

/// Parses the generation number out of one of this PE's checkpoint file
/// names (`pe{i}-g{G}-{ord}.ckpt`, `pe{i}-g{G}.manifest`, or scratch
/// variants thereof). `None` for other PEs' files and the pointer.
fn generation_of(file_name: &str, pe_index: usize) -> Option<u64> {
    let rest = file_name.strip_prefix(&format!("pe{pe_index}-g"))?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// True for this PE's scratch files: `pe{i}…​.tmp-…` debris left by a
/// killed process mid-write.
fn is_scratch_of(file_name: &str, pe_index: usize) -> bool {
    (file_name.starts_with(&format!("pe{pe_index}-"))
        || file_name.starts_with(&format!("pe{pe_index}.")))
        && file_name.contains(".tmp")
}

fn sweep_scratch_files(vfs: &dyn Vfs, dir: &Path, pe_index: usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if is_scratch_of(&name, pe_index) {
            let _ = vfs.remove(&entry.path());
        }
    }
}

/// The highest generation any of this PE's non-scratch files mentions.
fn max_generation_on_disk(dir: &Path, pe_index: usize) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.contains(".tmp") {
                return None;
            }
            generation_of(&name, pe_index)
        })
        .max()
        .unwrap_or(0)
}

/// Why one manifest candidate could not be used: the offending file is the
/// quarantine target during recovery.
enum ManifestError {
    /// The manifest itself is structurally bad (or unreadable).
    Manifest(io::Error),
    /// The manifest names a blob that is missing, torn, or bit-rotted.
    Blob(PathBuf, io::Error),
}

impl ManifestError {
    fn into_io(self) -> io::Error {
        match self {
            ManifestError::Manifest(e) => e,
            ManifestError::Blob(_, e) => e,
        }
    }
}

/// Parses and fully verifies one manifest file: every named blob must
/// exist with exactly the recorded length and content hash.
/// `Ok(None)` when the manifest file does not exist.
fn try_read_manifest(
    vfs: &dyn Vfs,
    dir: &Path,
    path: &Path,
) -> Result<Option<SnapshotSet>, ManifestError> {
    let raw = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ManifestError::Manifest(e)),
    };
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let text = std::str::from_utf8(&raw)
        .map_err(|_| ManifestError::Manifest(bad(format!("manifest {path:?} is not UTF-8"))))?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(ManifestError::Manifest(bad(format!(
            "manifest {path:?} has a bad magic line"
        ))));
    }
    let mut parts = Vec::new();
    let mut ended = false;
    for line in lines {
        if line == "end" {
            ended = true;
            break;
        }
        if line.starts_with("pe ") || line.starts_with("gen ") {
            continue;
        }
        let rest = line.strip_prefix("op ").ok_or_else(|| {
            ManifestError::Manifest(bad(format!("manifest {path:?} has unknown line '{line}'")))
        })?;
        // `op <file> <len> <hash> <name>` — the name comes last because it
        // may contain spaces.
        let mut it = rest.splitn(4, ' ');
        let (file, len, hash, name) = match (it.next(), it.next(), it.next(), it.next()) {
            (Some(f), Some(l), Some(h), Some(n)) => (f, l, h, n),
            _ => {
                return Err(ManifestError::Manifest(bad(format!(
                    "manifest {path:?} has malformed entry '{line}'"
                ))))
            }
        };
        let len: usize = len.parse().map_err(|_| {
            ManifestError::Manifest(bad(format!("manifest {path:?} has bad length in '{line}'")))
        })?;
        let hash = u64::from_str_radix(hash, 16).map_err(|_| {
            ManifestError::Manifest(bad(format!("manifest {path:?} has bad hash in '{line}'")))
        })?;
        let blob_path = dir.join(file);
        let blob = vfs.read(&blob_path).map_err(|e| {
            ManifestError::Blob(
                blob_path.clone(),
                bad(format!(
                    "manifest {path:?} names unreadable blob {file}: {e}"
                )),
            )
        })?;
        if blob.len() != len {
            return Err(ManifestError::Blob(
                blob_path,
                bad(format!(
                    "blob {file} is {} bytes, manifest says {len} — torn checkpoint",
                    blob.len()
                )),
            ));
        }
        if content_hash(&blob) != hash {
            return Err(ManifestError::Blob(
                blob_path,
                bad(format!(
                    "blob {file} fails its content hash — bit-rotted checkpoint"
                )),
            ));
        }
        parts.push((name.to_string(), blob));
    }
    if !ended {
        return Err(ManifestError::Manifest(bad(format!(
            "manifest {path:?} is truncated (no 'end')"
        ))));
    }
    Ok(Some(parts))
}

/// Reads the latest consistent snapshot set for a PE: `(op name, blob)`
/// pairs in manifest order. `Ok(None)` when no manifest exists yet (the PE
/// never checkpointed); any structural problem — bad magic, truncated
/// manifest, missing blob, blob length or hash mismatch — is
/// `InvalidData`, so a strict read never rehydrates from a torn, rotted,
/// or mixed-generation set. For the degrading variant that falls back to
/// the previous generation, see [`recover_pe_manifest`].
pub fn read_pe_manifest(dir: &Path, pe_index: usize) -> io::Result<Option<SnapshotSet>> {
    match try_read_manifest(&RealVfs, dir, &manifest_path(dir, pe_index)) {
        Ok(set) => Ok(set),
        Err(e) => Err(e.into_io()),
    }
}

/// The outcome of degrading recovery: the best snapshot set found, plus
/// how much damage was encountered on the way.
#[derive(Debug, Default)]
pub struct PeRecovery {
    /// The recovered snapshot set, or `None` when no usable generation
    /// exists (the PE resumes with fresh in-memory state).
    pub set: Option<SnapshotSet>,
    /// Files quarantined aside as `<name>.corrupt-N` during recovery.
    pub quarantined: u64,
    /// True when the pointer manifest was unusable and recovery fell back
    /// to an older generation (or to nothing).
    pub fell_back: bool,
}

/// Degrading recovery on the real filesystem. See
/// [`recover_pe_manifest_vfs`].
pub fn recover_pe_manifest(dir: &Path, pe_index: usize) -> PeRecovery {
    recover_pe_manifest_vfs(&RealVfs, dir, pe_index)
}

/// Recovers the best available snapshot set for a PE, degrading gracefully:
///
/// 1. try the pointer manifest (`pe{i}.manifest`);
/// 2. on damage, quarantine the offending file (manifest or blob) aside as
///    `<name>.corrupt-N` and fall back to the per-generation manifests in
///    descending generation order;
/// 3. when every candidate is exhausted, report `set: None` — the caller
///    resumes with fresh state rather than erroring.
///
/// Never returns an error and never panics: storage damage degrades to an
/// older generation and a pair of counters ([`PeRecovery::quarantined`],
/// [`PeRecovery::fell_back`]) that the engine surfaces as
/// `quarantined_snapshots` / `io_faults` metrics.
pub fn recover_pe_manifest_vfs(vfs: &dyn Vfs, dir: &Path, pe_index: usize) -> PeRecovery {
    let mut recovery = PeRecovery::default();
    let mut candidates = vec![manifest_path(dir, pe_index)];
    let mut gens: Vec<u64> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                if name.contains(".tmp") || !name.ends_with(".manifest") {
                    return None;
                }
                generation_of(&name, pe_index)
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    gens.sort_unstable();
    gens.dedup();
    for g in gens.into_iter().rev() {
        candidates.push(gen_manifest_path(dir, pe_index, g));
    }
    let mut tried_any = false;
    for candidate in candidates {
        match try_read_manifest(vfs, dir, &candidate) {
            Ok(Some(set)) => {
                recovery.set = Some(set);
                recovery.fell_back = tried_any;
                return recovery;
            }
            Ok(None) => continue, // candidate doesn't exist — not damage
            Err(err) => {
                tried_any = true;
                let victim = match err {
                    ManifestError::Manifest(_) => candidate.clone(),
                    ManifestError::Blob(blob, _) => blob,
                };
                if quarantine_file(vfs, &victim) {
                    recovery.quarantined += 1;
                }
            }
        }
    }
    recovery.fell_back = tried_any;
    recovery
}

/// Renames `path` aside to the first free `<path>.corrupt-N`, preserving
/// the evidence without letting it shadow good generations. Returns false
/// when the rename fails (e.g. the file vanished, or the device is dead).
/// Shared with the backfill state store's quarantine path.
pub(crate) fn quarantine_file(vfs: &dyn Vfs, path: &Path) -> bool {
    for n in 1..=1000u32 {
        let mut target = path.as_os_str().to_owned();
        target.push(format!(".corrupt-{n}"));
        let target = PathBuf::from(target);
        if target.exists() {
            continue;
        }
        return vfs.rename(path, &target).is_ok();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "spca-ckpt-test-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn parts(tag: &str) -> SnapshotSet {
        vec![
            ("src".to_string(), format!("seq {tag}\n").into_bytes()),
            (
                "split op".to_string(),
                format!("next_rr {tag}\npicks {tag}\n").into_bytes(),
            ),
        ]
    }

    #[test]
    fn kv_round_trips() {
        let blob = encode_kv(&[("seq", "42".to_string()), ("next_rr", "3".to_string())]);
        let map = decode_kv(&blob).unwrap();
        assert_eq!(kv_u64(&map, "seq").unwrap(), 42);
        assert_eq!(kv_u64(&map, "next_rr").unwrap(), 3);
        assert!(kv_u64(&map, "missing").is_err());
        assert!(decode_kv(b"noseparator").is_err());
        assert!(decode_kv(b"a 1\na 2\n").is_err(), "duplicate keys rejected");
    }

    #[test]
    fn manifest_round_trips_and_retains_exactly_two_generations() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 3).unwrap();
        w.write(&parts("g1")).unwrap();
        assert_eq!(read_pe_manifest(&dir, 3).unwrap().unwrap(), parts("g1"));
        w.write(&parts("g2")).unwrap();
        assert_eq!(read_pe_manifest(&dir, 3).unwrap().unwrap(), parts("g2"));
        // Generation 1 is the fallback: still on disk after write 2…
        let has_gen = |g: u64| {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .any(|e| {
                    e.file_name()
                        .to_string_lossy()
                        .starts_with(&format!("pe3-g{g}"))
                })
        };
        assert!(has_gen(1), "previous generation must be retained");
        // …and garbage collected after write 3.
        w.write(&parts("g3")).unwrap();
        assert!(!has_gen(1), "generation 1 must be GCed after write 3");
        assert!(has_gen(2) && has_gen(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_none_not_error() {
        let dir = temp_dir();
        assert!(read_pe_manifest(&dir, 0).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_manifest_is_invalid_data() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 0).unwrap();
        w.write(&[("a".to_string(), b"x 1\n".to_vec())]).unwrap();
        let path = manifest_path(&dir, 0);
        let full = std::fs::read_to_string(&path).unwrap();
        for cut in 0..full.len().saturating_sub(4) {
            std::fs::write(&path, &full.as_bytes()[..cut]).unwrap();
            let err = read_pe_manifest(&dir, 0).expect_err("torn manifest must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blob_length_mismatch_is_invalid_data() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 1).unwrap();
        w.write(&[("a".to_string(), b"cursor 99\n".to_vec())])
            .unwrap();
        // Truncate the blob the manifest names.
        let blob = dir.join("pe1-g1-0.ckpt");
        std::fs::write(&blob, b"cursor").unwrap();
        let err = read_pe_manifest(&dir, 1).expect_err("length mismatch must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blob_hash_mismatch_is_invalid_data() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 1).unwrap();
        w.write(&[("a".to_string(), b"cursor 99\n".to_vec())])
            .unwrap();
        // Same length, one byte flipped: only the hash can catch it.
        std::fs::write(dir.join("pe1-g1-0.ckpt"), b"cursor 98\n").unwrap();
        let err = read_pe_manifest(&dir, 1).expect_err("bit-rot must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("hash"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_quarantines_a_rotted_blob_and_falls_back_a_generation() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 2).unwrap();
        w.write(&parts("g1")).unwrap();
        w.write(&parts("g2")).unwrap();
        // Rot a generation-2 blob: pointer and g2 manifest both point at it.
        std::fs::write(dir.join("pe2-g2-0.ckpt"), b"seq XX\n").unwrap();
        let rec = recover_pe_manifest(&dir, 2);
        assert_eq!(rec.set.unwrap(), parts("g1"), "must fall back to gen 1");
        assert!(rec.fell_back);
        assert_eq!(rec.quarantined, 1, "the rotted blob is quarantined once");
        assert!(
            dir.join("pe2-g2-0.ckpt.corrupt-1").exists(),
            "evidence preserved"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_quarantines_a_torn_pointer_and_reads_the_gen_manifest() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 4).unwrap();
        w.write(&parts("g1")).unwrap();
        let pointer = manifest_path(&dir, 4);
        let full = std::fs::read(&pointer).unwrap();
        std::fs::write(&pointer, &full[..full.len() / 2]).unwrap();
        let rec = recover_pe_manifest(&dir, 4);
        assert_eq!(
            rec.set.unwrap(),
            parts("g1"),
            "per-generation manifest rescues the set"
        );
        assert!(rec.fell_back);
        assert_eq!(rec.quarantined, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_with_everything_destroyed_degrades_to_none() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 5).unwrap();
        w.write(&parts("g1")).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            if entry.file_name().to_string_lossy().ends_with(".manifest") {
                std::fs::write(entry.path(), b"garbage").unwrap();
            } else {
                std::fs::write(entry.path(), b"rot").unwrap();
            }
        }
        let rec = recover_pe_manifest(&dir, 5);
        assert!(rec.set.is_none(), "nothing usable: degrade, don't error");
        assert!(rec.fell_back);
        assert!(rec.quarantined >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_sweeps_scratch_debris_and_resumes_the_generation_counter() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 0).unwrap();
        w.write(&parts("g1")).unwrap();
        w.write(&parts("g2")).unwrap();
        drop(w);
        // Simulate a process killed mid-write: scratch debris for this PE
        // and for a neighbour.
        std::fs::write(dir.join("pe0-g3-0.ckpt.tmp-99-7"), b"half").unwrap();
        std::fs::write(dir.join("pe0.manifest.tmp-99-8"), b"half").unwrap();
        std::fs::write(dir.join("pe1-g1-0.ckpt.tmp-99-9"), b"other pe").unwrap();
        let mut w2 = PeCheckpointer::new(&dir, 0).unwrap();
        assert!(
            !dir.join("pe0-g3-0.ckpt.tmp-99-7").exists()
                && !dir.join("pe0.manifest.tmp-99-8").exists(),
            "this PE's scratch debris must be swept"
        );
        assert!(
            dir.join("pe1-g1-0.ckpt.tmp-99-9").exists(),
            "another PE's scratch files are not ours to sweep"
        );
        // The resumed counter must not reuse generation 1 or 2 blob names.
        w2.write(&parts("g3")).unwrap();
        assert!(dir.join("pe0-g3-0.ckpt").exists(), "next write is gen 3");
        assert_eq!(read_pe_manifest(&dir, 0).unwrap().unwrap(), parts("g3"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A writer that checkpoints each job into `dir` but first reports in
    /// on `started` and waits for a token on `gate`, so a test decides when
    /// each write may proceed. Returns the handle and the write count.
    fn gated_writer(
        dir: &Path,
        started: std::sync::mpsc::Sender<()>,
        gate: std::sync::mpsc::Receiver<()>,
    ) -> (WriteBehind<SnapshotSet>, Arc<AtomicU64>) {
        let mut ckpt = PeCheckpointer::new(dir, 0).unwrap();
        let writes = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&writes);
        let wb = WriteBehind::spawn("test-writer", move |set: SnapshotSet| {
            started.send(()).unwrap();
            gate.recv().unwrap();
            ckpt.write(&set).unwrap();
            count.fetch_add(1, Ordering::SeqCst);
        });
        (wb, writes)
    }

    #[test]
    fn submits_behind_a_blocked_write_coalesce_to_the_latest() {
        let dir = temp_dir();
        let (started_tx, started) = std::sync::mpsc::channel();
        let (gate, gate_rx) = std::sync::mpsc::channel();
        let (wb, writes) = gated_writer(&dir, started_tx, gate_rx);
        wb.submit(parts("1"));
        started.recv().unwrap(); // write 1 is in flight, and held there
        for n in 2..=6 {
            wb.submit(parts(&n.to_string()));
        }
        gate.send(()).unwrap();
        gate.send(()).unwrap();
        // The barrier: covers the write in flight and the one pending.
        wb.flush();
        assert_eq!(
            writes.load(Ordering::SeqCst),
            2,
            "five captures behind a blocked write are one write"
        );
        assert_eq!(read_pe_manifest(&dir, 0).unwrap().unwrap(), parts("6"));
        wb.flush(); // idle: returns at once
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_writes_the_pending_job_and_leaves_no_thread() {
        let dir = temp_dir();
        let (started_tx, started) = std::sync::mpsc::channel();
        let (gate, gate_rx) = std::sync::mpsc::channel();
        let (wb, writes) = gated_writer(&dir, started_tx, gate_rx);
        // `started`'s sender lives in the writer's closure, so the channel
        // closing is the thread being gone.
        wb.submit(parts("1"));
        started.recv().unwrap();
        wb.submit(parts("2"));
        gate.send(()).unwrap();
        gate.send(()).unwrap();
        drop(wb);
        assert_eq!(writes.load(Ordering::SeqCst), 2);
        assert_eq!(read_pe_manifest(&dir, 0).unwrap().unwrap(), parts("2"));
        assert_eq!(started.try_recv(), Ok(()), "write 2 reported in");
        assert_eq!(
            started.try_recv(),
            Err(std::sync::mpsc::TryRecvError::Disconnected),
            "drop must have joined the writer thread"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_panicking_write_resumes_on_the_producer_and_the_writer_lives_on() {
        let written = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&written);
        let wb = WriteBehind::spawn("test-writer", move |job: u64| {
            assert_ne!(job, 13, "unlucky job");
            count.fetch_add(job, Ordering::SeqCst);
        });
        wb.submit(13);
        // The barrier neither hangs on the dead write nor swallows it.
        let raised = catch_unwind(AssertUnwindSafe(|| wb.flush())).unwrap_err();
        let msg = raised.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("unlucky job"), "{msg}");
        // Raised once; the same thread writes the next job.
        wb.flush();
        wb.submit(5);
        wb.flush();
        assert_eq!(written.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn no_temp_files_survive_a_write() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 2).unwrap();
        w.write(&[("a".to_string(), b"k 1\n".to_vec())]).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
