//! Generic operator checkpointing and per-PE checkpoint generations.
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
//! * all blobs of one PE are sealed into one **generation file**,
//!   `pe{i}-g{G}.ckpt`, written by one [`write_atomic_vfs`]: its rename is
//!   the commit point. One content hash covers every byte of the file
//!   (see `seal`), so recovery takes a generation whole or not at all —
//!   a crash or bit-flip mid-checkpoint can never mix operators from two
//!   different generations;
//! * the **last two generations** are retained (older ones are garbage
//!   collected after each successful write), so a generation that turns
//!   out to be torn or bit-rotted at recovery time degrades to the
//!   previous one instead of losing the PE's state. The bad file is
//!   quarantined aside as `<name>.corrupt-N` for post-mortems, and garbage
//!   collection never touches it.
//!
//! Durability follows the same failure model as the engine crate's
//! eigensystem snapshots: the scratch file is fsynced before the rename
//! and the directory is fsynced best-effort afterwards. All disk traffic
//! goes through a [`Vfs`], so the whole layer can run against the
//! fault-injecting backend (see [`crate::vfs`]) — the crash-point harness
//! enumerates every VFS operation in a write sequence and proves recovery
//! from a kill after each one.
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

/// One consistent snapshot set: `(operator name, blob)` pairs in the order
/// they were written.
pub type SnapshotSet = Vec<(String, Vec<u8>)>;

/// Seals `parts` under a `magic` word and `header` pairs into one
/// self-verifying record — the format of a PE checkpoint generation, of a
/// backfill state-store entry and of an eigensystem snapshot file:
///
/// ```text
/// <magic> <content_hash of every byte after this line, 16 hex digits>
/// <key> <value>         one line per header pair
/// part <len> <name>     one line per part, in order
/// end
/// <payload of part 0><payload of part 1>…
/// ```
///
/// The hash covers names, lengths and payloads alike, so a truncation or
/// one flipped byte anywhere fails [`read_sealed`].
pub fn seal(magic: &str, header: &[(&str, &str)], parts: &[(&str, &[u8])]) -> Vec<u8> {
    let mut out = format!("{magic} {:016x}\n", 0u64);
    let (sum_at, body_start) = (out.len() - 17, out.len());
    for (key, value) in header {
        out.push_str(&format!("{key} {value}\n"));
    }
    for (name, payload) in parts {
        out.push_str(&format!("part {} {name}\n", payload.len()));
    }
    out.push_str("end\n");
    let mut out = out.into_bytes();
    for (_, payload) in parts {
        out.extend_from_slice(payload);
    }
    let sum = format!("{:016x}", content_hash(&out[body_start..]));
    out[sum_at..sum_at + 16].copy_from_slice(sum.as_bytes());
    out
}

/// Reads and unseals a [`seal`]ed record: its header pairs and its parts.
/// Anything but a whole, untouched record under `magic` is `InvalidData`;
/// read errors (`NotFound` included) pass through.
pub fn read_sealed(
    vfs: &dyn Vfs,
    path: &Path,
    magic: &str,
) -> io::Result<(BTreeMap<String, String>, SnapshotSet)> {
    /// The UTF-8 line starting at `*at`, moving `*at` past its newline.
    fn next_line<'a>(bytes: &'a [u8], at: &mut usize) -> Option<&'a str> {
        let len = bytes[*at..].iter().position(|&b| b == b'\n')?;
        let line = std::str::from_utf8(&bytes[*at..*at + len]).ok();
        *at += len + 1;
        line
    }
    let bytes = vfs.read(path)?;
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?} {why}"));
    let mut at = 0;
    let sum = next_line(&bytes, &mut at)
        .and_then(|l| l.strip_prefix(magic)?.strip_prefix(' '))
        .ok_or_else(|| bad("has no valid seal line"))?;
    // Compared as the text `seal` writes: parsed, a digit whose case flipped
    // would read as the same number.
    if sum != format!("{:016x}", content_hash(&bytes[at..])) {
        return Err(bad("fails its content-hash checksum: torn or bit-rotted"));
    }
    let (mut header, mut lens) = (BTreeMap::new(), Vec::new());
    loop {
        let line = next_line(&bytes, &mut at).ok_or_else(|| bad("has no end line"))?;
        if line == "end" {
            break;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| bad("has a bad header"))?;
        if key != "part" {
            header.insert(key.to_string(), value.to_string());
            continue;
        }
        let (len, name) = value
            .split_once(' ')
            .and_then(|(len, name)| Some((len.parse::<usize>().ok()?, name)))
            .ok_or_else(|| bad("has a bad part line"))?;
        lens.push((len, name.to_string()));
    }
    let mut parts = Vec::with_capacity(lens.len());
    for (len, name) in lens {
        let payload = bytes[at..]
            .get(..len)
            .ok_or_else(|| bad("is shorter than its parts"))?;
        parts.push((name, payload.to_vec()));
        at += len;
    }
    if at != bytes.len() {
        return Err(bad("is longer than its parts"));
    }
    Ok((header, parts))
}

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
/// store, which both seal what they write. The sequence is
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

    /// True when nothing submitted waits for the writer or is being
    /// written.
    pub fn is_idle(&self) -> bool {
        let slot = self.mailbox.lock();
        slot.pending.is_none() && !slot.writing
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

/// How many generations a PE retains (current + fallback).
const RETAINED_GENERATIONS: u64 = 2;

/// The magic word of a sealed PE checkpoint generation.
const GEN_MAGIC: &str = "spca-pe-generation-v2";

/// One PE's checkpoint writer: owns the generation counter, keeps the last
/// [`RETAINED_GENERATIONS`] generations on disk, and garbage-collects
/// older ones once a new generation is durable.
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
    /// reuses a generation file name from a previous incarnation.
    pub fn new_with_vfs(
        dir: impl Into<PathBuf>,
        pe_index: usize,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let gen = generations_on_disk(&dir, pe_index)
            .last()
            .copied()
            .unwrap_or(0);
        for name in file_names(&dir) {
            if name.starts_with(&format!("pe{pe_index}-g")) && name.contains(".tmp") {
                let _ = vfs.remove(&dir.join(name));
            }
        }
        Ok(PeCheckpointer {
            dir,
            pe_index,
            gen,
            vfs,
        })
    }

    /// Recovers this PE's best available snapshot set, quarantining
    /// torn/corrupt generations and falling back to the previous one.
    /// See [`recover_pe_manifest`].
    pub fn recover(&self) -> PeRecovery {
        recover_pe_manifest_vfs(self.vfs.as_ref(), &self.dir, self.pe_index)
    }

    /// Writes one consistent snapshot set as the next generation: one
    /// sealed file, one [`write_atomic_vfs`] — five VFS operations and two
    /// fsyncs whatever the number of parts. Generations older than the
    /// previous one are garbage collected only after the new one is
    /// durable, so a crash at any byte offset — or a bad block discovered
    /// later — leaves a complete older set readable.
    pub fn write(&mut self, parts: &[(String, Vec<u8>)]) -> io::Result<()> {
        let gen = self.gen + 1;
        let (pe, g) = (self.pe_index.to_string(), gen.to_string());
        let parts: Vec<(&str, &[u8])> = parts.iter().map(|(n, b)| (n.as_str(), &b[..])).collect();
        let file = seal(GEN_MAGIC, &[("pe", &pe), ("gen", &g)], &parts);
        write_atomic_vfs(
            self.vfs.as_ref(),
            &generation_path(&self.dir, self.pe_index, gen),
            &file,
        )?;
        self.gen = gen;
        // Best-effort: GC failure never fails a checkpoint.
        let keep_from = gen.saturating_sub(RETAINED_GENERATIONS - 1);
        for old in generations_on_disk(&self.dir, self.pe_index) {
            if old < keep_from {
                let _ = self
                    .vfs
                    .remove(&generation_path(&self.dir, self.pe_index, old));
            }
        }
        Ok(())
    }
}

fn generation_path(dir: &Path, pe_index: usize, gen: u64) -> PathBuf {
    dir.join(format!("pe{pe_index}-g{gen}.ckpt"))
}

fn file_names(dir: &Path) -> impl Iterator<Item = String> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
}

/// This PE's committed generations on disk, ascending: the `G` of every
/// file named exactly `pe{i}-g{G}.ckpt`. Scratch files and quarantined
/// `….corrupt-N` evidence are not generations.
fn generations_on_disk(dir: &Path, pe_index: usize) -> Vec<u64> {
    let prefix = format!("pe{pe_index}-g");
    let mut gens: Vec<u64> = file_names(dir)
        .filter_map(|name| {
            name.strip_prefix(&prefix)?
                .strip_suffix(".ckpt")?
                .parse()
                .ok()
        })
        .collect();
    gens.sort_unstable();
    gens
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
    /// True when the newest generation was unusable and recovery fell
    /// back to an older one (or to nothing).
    pub fell_back: bool,
}

/// Degrading recovery on the real filesystem. See
/// [`recover_pe_manifest_vfs`].
pub fn recover_pe_manifest(dir: &Path, pe_index: usize) -> PeRecovery {
    recover_pe_manifest_vfs(&RealVfs, dir, pe_index)
}

/// Recovers the best available snapshot set for a PE, degrading gracefully:
/// this PE's generation files are tried newest first and the first one
/// that unseals (see `seal`) wins; each that fails before it is
/// quarantined aside as `<name>.corrupt-N`; when none is left the set is
/// `None` and the caller resumes with fresh state.
///
/// Never returns an error and never panics: storage damage degrades to an
/// older generation and a pair of counters ([`PeRecovery::quarantined`],
/// [`PeRecovery::fell_back`]) that the engine surfaces as
/// `quarantined_snapshots` / `io_faults` metrics.
pub fn recover_pe_manifest_vfs(vfs: &dyn Vfs, dir: &Path, pe_index: usize) -> PeRecovery {
    let mut recovery = PeRecovery::default();
    for gen in generations_on_disk(dir, pe_index).into_iter().rev() {
        let path = generation_path(dir, pe_index, gen);
        match read_sealed(vfs, &path, GEN_MAGIC) {
            Ok((_, set)) => {
                recovery.set = Some(set);
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(_) => {
                recovery.fell_back = true;
                if quarantine_file(vfs, &path) {
                    recovery.quarantined += 1;
                }
            }
        }
    }
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
    use proptest::test_runner::TestCaseError;
    use proptest::{prop_assert, prop_assert_eq};
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

    fn recovered(dir: &Path, pe: usize) -> SnapshotSet {
        let rec = recover_pe_manifest(dir, pe);
        assert_eq!((rec.quarantined, rec.fell_back), (0, false), "{dir:?}");
        rec.set.expect("a committed generation")
    }

    fn names_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = file_names(dir).collect();
        names.sort();
        names
    }

    #[test]
    fn generation_round_trips_and_retains_exactly_two_generations() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 3).unwrap();
        w.write(&parts("g1")).unwrap();
        assert_eq!(recovered(&dir, 3), parts("g1"));
        w.write(&parts("g2")).unwrap();
        assert_eq!(recovered(&dir, 3), parts("g2"));
        // Generation 1 is the fallback: still on disk after write 2…
        assert_eq!(names_in(&dir), ["pe3-g1.ckpt", "pe3-g2.ckpt"]);
        // …and garbage collected after write 3.
        w.write(&parts("g3")).unwrap();
        assert_eq!(names_in(&dir), ["pe3-g2.ckpt", "pe3-g3.ckpt"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_is_five_operations_whatever_the_number_of_parts() {
        use crate::vfs::FaultVfs;
        for k in [1, 3] {
            let dir = temp_dir();
            let vfs = Arc::new(FaultVfs::default());
            let mut w = PeCheckpointer::new_with_vfs(&dir, 0, vfs.clone()).unwrap();
            let set: SnapshotSet = (0..k)
                .map(|i| (format!("op {i}"), vec![i as u8; 100]))
                .collect();
            let mut ops = Vec::new();
            for _ in 0..4 {
                let before = vfs.ops_performed();
                w.write(&set).unwrap();
                ops.push(vfs.ops_performed() - before);
            }
            // Create, write, fsync, rename, fsync_dir; from the third write
            // on, one remove for the generation that falls out of the two.
            assert_eq!(ops, [5, 5, 6, 6], "{k} parts");
            assert_eq!(recovered(&dir, 0), set);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn missing_generation_is_none_not_damage() {
        let dir = temp_dir();
        let rec = recover_pe_manifest(&dir, 0);
        assert!(rec.set.is_none());
        assert_eq!((rec.quarantined, rec.fell_back), (0, false));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_generation_is_invalid_data() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 0).unwrap();
        w.write(&[("a".to_string(), b"x 1\n".to_vec())]).unwrap();
        let path = generation_path(&dir, 0, 1);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = read_sealed(&RealVfs, &path, GEN_MAGIC).expect_err("torn generation");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payload_length_mismatch_is_invalid_data() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 1).unwrap();
        w.write(&[("a".to_string(), b"cursor 99\n".to_vec())])
            .unwrap();
        // Drop the payload's last byte.
        let path = generation_path(&dir, 1, 1);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();
        let err = read_sealed(&RealVfs, &path, GEN_MAGIC).expect_err("length mismatch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payload_hash_mismatch_is_invalid_data() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 1).unwrap();
        w.write(&[("a".to_string(), b"cursor 99\n".to_vec())])
            .unwrap();
        // Same length, one payload byte changed: only the hash can catch it.
        let path = generation_path(&dir, 1, 1);
        let mut full = std::fs::read(&path).unwrap();
        let at = full.len() - 2;
        assert_eq!(full[at], b'9');
        full[at] = b'8';
        std::fs::write(&path, &full).unwrap();
        let err = read_sealed(&RealVfs, &path, GEN_MAGIC).expect_err("bit-rot");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("hash"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_quarantines_a_rotted_generation_and_falls_back() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 2).unwrap();
        w.write(&parts("g1")).unwrap();
        w.write(&parts("g2")).unwrap();
        let newest = generation_path(&dir, 2, 2);
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();
        let rec = recover_pe_manifest(&dir, 2);
        assert_eq!(rec.set.unwrap(), parts("g1"), "must fall back to gen 1");
        assert!(rec.fell_back);
        assert_eq!(
            rec.quarantined, 1,
            "the rotted generation is quarantined once"
        );
        assert!(
            dir.join("pe2-g2.ckpt.corrupt-1").exists(),
            "evidence preserved"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_quarantines_a_torn_generation_and_reads_the_previous_one() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 4).unwrap();
        w.write(&parts("g1")).unwrap();
        w.write(&parts("g2")).unwrap();
        let newest = generation_path(&dir, 4, 2);
        let full = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &full[..full.len() / 2]).unwrap();
        let rec = recover_pe_manifest(&dir, 4);
        assert_eq!(
            rec.set.unwrap(),
            parts("g1"),
            "generation 1 rescues the set"
        );
        assert!(rec.fell_back);
        assert_eq!(rec.quarantined, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_collection_keeps_quarantined_evidence() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 2).unwrap();
        w.write(&parts("g1")).unwrap();
        w.write(&parts("g2")).unwrap();
        std::fs::write(generation_path(&dir, 2, 2), b"rot").unwrap();
        assert_eq!(w.recover().quarantined, 1);
        // Two more commits: generations 1 and 2 fall out of the window.
        w.write(&parts("g3")).unwrap();
        w.write(&parts("g4")).unwrap();
        assert_eq!(
            names_in(&dir),
            ["pe2-g2.ckpt.corrupt-1", "pe2-g3.ckpt", "pe2-g4.ckpt"],
            "evidence kept for post-mortems"
        );
        // Nor is evidence a generation a reopened writer resumes past.
        std::fs::write(generation_path(&dir, 2, 4), b"rot").unwrap();
        assert_eq!(recover_pe_manifest(&dir, 2).set.unwrap(), parts("g3"));
        let mut w = PeCheckpointer::new(&dir, 2).unwrap();
        w.write(&parts("g4 again")).unwrap();
        assert_eq!(recovered(&dir, 2), parts("g4 again"));
        assert!(dir.join("pe2-g4.ckpt.corrupt-1").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_generation_sealed_by_the_fnv_codec_is_quarantined_not_read() {
        let dir = temp_dir();
        // Whole, and what the FNV-1a-sealed codec recovered; its magic is
        // not this codec's.
        let old = b"spca-pe-generation-v1 305ba6a45be158d5\npe 0\ngen 1\npart 3 op\nend\none";
        std::fs::write(generation_path(&dir, 0, 1), old).unwrap();
        let rec = recover_pe_manifest(&dir, 0);
        assert!(rec.set.is_none());
        assert_eq!((rec.quarantined, rec.fell_back), (1, true));
        assert!(dir.join("pe0-g1.ckpt.corrupt-1").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_with_everything_destroyed_degrades_to_none() {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 5).unwrap();
        w.write(&parts("g1")).unwrap();
        w.write(&parts("g2")).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            std::fs::write(entry.path(), b"rot").unwrap();
        }
        let rec = recover_pe_manifest(&dir, 5);
        assert!(rec.set.is_none(), "nothing usable: degrade, don't error");
        assert!(rec.fell_back);
        assert_eq!(rec.quarantined, 2);
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
        std::fs::write(dir.join("pe0-g3.ckpt.tmp-99-7"), b"half").unwrap();
        std::fs::write(dir.join("pe1-g1.ckpt.tmp-99-9"), b"other pe").unwrap();
        let mut w2 = PeCheckpointer::new(&dir, 0).unwrap();
        assert!(
            !dir.join("pe0-g3.ckpt.tmp-99-7").exists(),
            "this PE's scratch debris must be swept"
        );
        assert!(
            dir.join("pe1-g1.ckpt.tmp-99-9").exists(),
            "another PE's scratch files are not ours to sweep"
        );
        // The resumed counter must not reuse generation 1 or 2.
        w2.write(&parts("g3")).unwrap();
        assert!(dir.join("pe0-g3.ckpt").exists(), "next write is gen 3");
        assert_eq!(recovered(&dir, 0), parts("g3"));
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
        assert_eq!(recovered(&dir, 0), parts("6"));
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
        assert_eq!(recovered(&dir, 0), parts("2"));
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

    /// Two committed generations, then `damage` applied to the newest
    /// file: recovery must return exactly generation 1, having quarantined
    /// the newest — never a third set, never a panic.
    fn falls_back_past(damage: impl FnOnce(&mut Vec<u8>)) -> Result<(), TestCaseError> {
        let dir = temp_dir();
        let mut w = PeCheckpointer::new(&dir, 0).unwrap();
        w.write(&parts("g1")).unwrap();
        w.write(&parts("g2")).unwrap();
        let newest = generation_path(&dir, 0, 2);
        let mut bytes = std::fs::read(&newest).unwrap();
        damage(&mut bytes);
        std::fs::write(&newest, &bytes).unwrap();
        let rec = recover_pe_manifest(&dir, 0);
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert_eq!(rec.set, Some(parts("g1")));
        prop_assert_eq!(rec.quarantined, 1);
        prop_assert!(rec.fell_back);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The newest generation truncated at *any* byte offset.
        #[test]
        fn truncation_at_any_byte_offset_falls_back_a_generation(frac in 0.0f64..1.0) {
            falls_back_past(|bytes| {
                let cut = ((bytes.len() as f64) * frac) as usize;
                bytes.truncate(cut.min(bytes.len() - 1));
            })?;
        }

        /// One flipped bit at *any* byte offset of the newest generation:
        /// the seal covers every byte, names and lengths included.
        #[test]
        fn corruption_at_any_byte_offset_falls_back_a_generation(frac in 0.0f64..1.0) {
            falls_back_past(|bytes| {
                let at = (((bytes.len() as f64) * frac) as usize).min(bytes.len() - 1);
                bytes[at] ^= 0x01;
            })?;
        }
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
