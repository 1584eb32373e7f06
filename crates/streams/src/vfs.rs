//! Storage virtualization: a minimal VFS with a deterministic
//! fault-injecting backend.
//!
//! Every durable write in this workspace follows the same five-step
//! sequence — create a scratch file, write the bytes, fsync, rename over
//! the target, fsync the directory — and every one of those steps can
//! fail in the real world: `ENOSPC` on write, an error surfaced at fsync,
//! a short ("torn") write that only lands a prefix, or a crash that stops
//! the sequence between any two syscalls. The [`Vfs`] trait names those
//! steps so the persistence layer ([`crate::checkpoint`],
//! [`crate::backfill`], and the engine crate's snapshot files) can run
//! against either backend:
//!
//! * [`RealVfs`] — thin passthrough to `std::fs`;
//! * [`FaultVfs`] — wraps the real backend and injects faults from an
//!   [`IoFaultSpec`], deterministically: the *N*-th PE-checkpoint write
//!   fails with `ENOSPC` or lands only half its bytes; every fsync errors;
//!   or the *K*-th VFS operation (and everything after it) dies,
//!   simulating the device disappearing mid-sequence.
//!
//! Fault triggers are counted per [`FaultVfs`] instance. Operation order
//! is deterministic whenever a single thread drives the persistence path
//! (the common case in tests: one checkpointing PE); with several PEs
//! checkpointing concurrently the interleaving — and so the exact victim
//! of the *N*-th-write trigger — follows the thread schedule.
//!
//! Paths are classified into fault domains by their file names, which are
//! fixed by this workspace's formats: `pe*.ckpt` generation files belong
//! to the PE-checkpoint domain. Scratch-file suffixes (`.tmp-…`) are
//! stripped before classification so a fault aimed at a generation fires
//! on the scratch file that would become it — one PE-checkpoint write per
//! generation.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The persistence operations the storage layer is allowed to use.
///
/// All operations are whole-file and handle-free: `create` truncates,
/// `write` replaces the contents of an existing file, `fsync` makes a
/// file's bytes durable, `rename` atomically installs a file under its
/// final name, `fsync_dir` makes the rename itself durable. Keeping each
/// step a separate call is the point — a crash-point harness can count
/// them and kill a write sequence between any two.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Creates (or truncates) an empty file.
    fn create(&self, path: &Path) -> io::Result<()>;

    /// Writes `bytes` as the full contents of an existing file.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Flushes a file's bytes to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to` (same directory in practice).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Flushes a directory, making renames within it durable.
    /// Call sites treat failure as best-effort (not every filesystem
    /// supports directory fsync), but the operation still counts toward
    /// crash-point enumeration.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Reads a file's full contents.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// Passthrough backend over `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn create(&self, path: &Path) -> io::Result<()> {
        std::fs::File::create(path).map(|_| ())
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(0)?;
        f.write_all(bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// Which persistence path a file belongs to, for domain-scoped faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDomain {
    /// PE checkpoint generation files (`pe*-g*.ckpt`).
    PeCheckpoint,
    /// Anything else (eigensystem snapshots, backfill state files,
    /// quarantine files, …).
    Other,
}

/// Classifies a path into its fault domain by file name, after stripping
/// any `.tmp-…` scratch suffix.
pub fn domain_of(path: &Path) -> IoDomain {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let logical = match name.find(".tmp") {
        Some(i) => &name[..i],
        None => &name[..],
    };
    if logical.starts_with("pe") && logical.ends_with(".ckpt") {
        IoDomain::PeCheckpoint
    } else {
        IoDomain::Other
    }
}

/// Deterministic disk-fault schedule, usually built from a fault plan via
/// [`crate::fault::FaultPlan::io_spec`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IoFaultSpec {
    /// 1-based indices of PE-checkpoint-domain writes that fail `ENOSPC`.
    pub enospc_pe: Vec<u64>,
    /// 1-based indices of PE-checkpoint-domain writes that land torn
    /// (only a prefix of the bytes reaches the file; the call succeeds).
    pub torn_pe: Vec<u64>,
    /// Every fsync (file and directory) fails.
    pub fsync_err: bool,
    /// 1-based global VFS-operation index at which the device "dies":
    /// that operation and every later one fails.
    pub crash_at_op: Option<u64>,
}

impl IoFaultSpec {
    /// True when the spec injects nothing.
    pub fn is_empty(&self) -> bool {
        self == &IoFaultSpec::default()
    }
}

/// Fault-injecting backend: wraps [`RealVfs`] and applies an
/// [`IoFaultSpec`] with per-instance deterministic counters.
#[derive(Debug, Default)]
pub struct FaultVfs {
    inner: RealVfs,
    spec: IoFaultSpec,
    /// Global operation counter (all ops, all domains), 1-based.
    ops: AtomicU64,
    /// PE-checkpoint-domain write counter, 1-based.
    pe_writes: AtomicU64,
    /// Faults injected so far (errors returned plus silent torn writes).
    injected: AtomicU64,
}

/// The error a crashed device returns for every operation from the crash
/// point on.
fn crashed() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "simulated storage crash")
}

/// A simulated out-of-space error, matching the kernel's `ENOSPC`.
fn enospc() -> io::Error {
    io::Error::from_raw_os_error(28) // ENOSPC: "No space left on device"
}

impl FaultVfs {
    /// A fault-injecting VFS over the real filesystem.
    pub fn new(spec: IoFaultSpec) -> Self {
        FaultVfs {
            spec,
            ..Default::default()
        }
    }

    /// Total VFS operations performed (attempted) so far.
    pub fn ops_performed(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Faults injected so far, counting silent (torn) ones.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Counts one operation; errors if the device has crashed.
    fn op(&self) -> io::Result<u64> {
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(k) = self.spec.crash_at_op {
            if n >= k {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Err(crashed());
            }
        }
        Ok(n)
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<()> {
        self.op()?;
        self.inner.create(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.op()?;
        match domain_of(path) {
            IoDomain::PeCheckpoint => {
                let n = self.pe_writes.fetch_add(1, Ordering::Relaxed) + 1;
                if self.spec.enospc_pe.contains(&n) {
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    return Err(enospc());
                }
                if self.spec.torn_pe.contains(&n) {
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    // A torn write lands a prefix and *reports success* —
                    // the damage is only discoverable at read time.
                    return self.inner.write(path, &bytes[..bytes.len() / 2]);
                }
                self.inner.write(path, bytes)
            }
            IoDomain::Other => self.inner.write(path, bytes),
        }
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.op()?;
        if self.spec.fsync_err {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("simulated fsync failure"));
        }
        self.inner.fsync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.op()?;
        self.inner.rename(from, to)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.op()?;
        if self.spec.fsync_err {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("simulated fsync failure"));
        }
        self.inner.fsync_dir(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.op()?;
        self.inner.read(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.op()?;
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64 as TestCounter;

    static DIR_ID: TestCounter = TestCounter::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "spca-vfs-test-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn real_vfs_round_trips_the_write_sequence() {
        let dir = temp_dir();
        let v = RealVfs;
        let tmp = dir.join("a.state.tmp-1");
        let dst = dir.join("a.state");
        v.create(&tmp).unwrap();
        v.write(&tmp, b"hello").unwrap();
        v.fsync(&tmp).unwrap();
        v.rename(&tmp, &dst).unwrap();
        v.fsync_dir(&dir).unwrap();
        assert_eq!(v.read(&dst).unwrap(), b"hello");
        v.remove(&dst).unwrap();
        assert!(v.read(&dst).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn real_write_truncates_previous_contents() {
        let dir = temp_dir();
        let v = RealVfs;
        let p = dir.join("f");
        v.create(&p).unwrap();
        v.write(&p, b"a longer payload").unwrap();
        v.write(&p, b"short").unwrap();
        assert_eq!(v.read(&p).unwrap(), b"short");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn domains_classify_by_logical_file_name() {
        assert_eq!(
            domain_of(Path::new("/d/pe0-g3.ckpt")),
            IoDomain::PeCheckpoint
        );
        assert_eq!(
            domain_of(Path::new("/d/pe2-g4.ckpt.tmp-77-3")),
            IoDomain::PeCheckpoint,
            "scratch suffix is stripped before classification"
        );
        assert_eq!(
            domain_of(Path::new("/d/rows-0-100.state.tmp-9-1")),
            IoDomain::Other
        );
        assert_eq!(
            domain_of(Path::new("/d/engine0_latest.snapshot")),
            IoDomain::Other
        );
    }

    #[test]
    fn enospc_fires_on_the_nth_pe_write_only() {
        let dir = temp_dir();
        let v = FaultVfs::new(IoFaultSpec {
            enospc_pe: vec![2],
            ..Default::default()
        });
        let a = dir.join("pe0-g1.ckpt");
        let b = dir.join("pe0-g2.ckpt");
        v.create(&a).unwrap();
        v.write(&a, b"first").unwrap();
        v.create(&b).unwrap();
        let err = v.write(&b, b"second").unwrap_err();
        assert!(err.to_string().to_lowercase().contains("space"), "{err}");
        assert_eq!(v.faults_injected(), 1);
        // Writes outside the PE domain do not advance its counter.
        let s = dir.join("x.state");
        v.create(&s).unwrap();
        v.write(&s, b"store").unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_write_lands_a_prefix_and_reports_success() {
        let dir = temp_dir();
        let v = FaultVfs::new(IoFaultSpec {
            torn_pe: vec![1],
            ..Default::default()
        });
        let p = dir.join("pe1-g1.ckpt");
        v.create(&p).unwrap();
        v.write(&p, b"0123456789").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"01234");
        assert_eq!(v.faults_injected(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fsync_err_fails_every_fsync_but_nothing_else() {
        let dir = temp_dir();
        let v = FaultVfs::new(IoFaultSpec {
            fsync_err: true,
            ..Default::default()
        });
        let p = dir.join("f");
        v.create(&p).unwrap();
        v.write(&p, b"x").unwrap();
        assert!(v.fsync(&p).is_err());
        assert!(v.fsync_dir(&dir).is_err());
        assert_eq!(v.read(&p).unwrap(), b"x");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn crash_kills_the_kth_and_every_later_operation() {
        let dir = temp_dir();
        let v = FaultVfs::new(IoFaultSpec {
            crash_at_op: Some(3),
            ..Default::default()
        });
        let p = dir.join("f");
        v.create(&p).unwrap(); // op 1
        v.write(&p, b"x").unwrap(); // op 2
        assert!(v.fsync(&p).is_err()); // op 3: dead
        assert!(v.read(&p).is_err()); // still dead
        assert!(v.remove(&p).is_err()); // forever
        assert_eq!(v.ops_performed(), 5);
        std::fs::remove_dir_all(dir).ok();
    }
}
