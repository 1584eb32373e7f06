//! Partitioned backfill: a persistent state store plus a parallel
//! partition runner.
//!
//! The paper's merge step (eq. 15–16) makes the per-substream analytics
//! state *algebraically mergeable* — which is exactly the contract of an
//! incremental analyzer framework: shard a historical corpus by a
//! partition key, compute each partition's state independently, persist
//! it, and merge the persisted states without ever replaying history.
//! Adding a partition then costs O(partition), never O(history), and a
//! re-run over an unchanged corpus is pure cache hits.
//!
//! This module is the engine-agnostic half of that story:
//!
//! * [`Partition`] — a unit of backfill work: a stable id, a content hash
//!   of the partition's input bytes, and an opaque payload the caller's
//!   worker knows how to compute over;
//! * [`StateStore`] — a filesystem store of finished per-partition state
//!   blobs, keyed by partition id and invalidated by content hash. Writes
//!   go through the same fsync+atomic-rename plumbing as PE checkpoints
//!   ([`crate::checkpoint::write_atomic_vfs`]), so the store never serves a
//!   torn blob;
//! * [`run_partitions`] — a worker pool that drains the partition list,
//!   serving unchanged partitions from the store and dispatching the rest
//!   to per-worker compute closures.
//!
//! What a "state blob" means is up to the caller — the PCA application
//! stores serialized eigensystems and merges them with the core crate's
//! tree reduction, but nothing here knows that.

use crate::checkpoint::{quarantine_file, read_sealed, seal, write_atomic_vfs};
use crate::vfs::RealVfs;
use crate::watched::lock;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One unit of backfill work.
///
/// `id` must be stable across runs (it keys the state store); `content_hash`
/// must change whenever the partition's input bytes change (it invalidates
/// the store); `payload` carries whatever the compute closure needs to
/// produce the partition's state.
#[derive(Debug, Clone)]
pub struct Partition<T> {
    /// Stable partition key (e.g. `"rows-00000-02500"` or a file name).
    pub id: String,
    /// Hash of the partition's raw input bytes (see [`content_hash`]).
    pub content_hash: u64,
    /// Caller-defined input handle for the compute closure.
    pub payload: T,
}

/// XXH64 (seed 0) of the partition's input bytes — the store's
/// invalidation key, and the checksum of every sealed checkpoint file.
/// The one-shot form of [`ContentHasher`]: the same bits as feeding the
/// bytes to one in any number of pieces.
///
/// Four independent lanes each take one 8-byte word per 32-byte stripe, so
/// the loop runs at memory speed rather than a multiply per byte. Every
/// step that reads input is a bijection of the word it reads, so a change
/// confined to one such word (a flipped bit, a changed byte) always changes
/// its lane. Past the last whole stripe, and in inputs shorter than 32
/// bytes, the steps chain one after another and such a change always
/// changes the hash; only the merge of the four lanes leaves a 2⁻⁶⁴ chance
/// of a collision.
///
/// Not cryptographic, and deliberately so: the store defends against stale
/// results after an edit, not against an adversary forging collisions.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut hasher = ContentHasher::new();
    hasher.update(bytes);
    hasher.finish()
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// [`content_hash`] of a byte stream that arrives in pieces: a file read
/// through a fixed buffer, or a partition's lines one at a time. Holds the
/// four lanes, the unfinished stripe (< 32 bytes) and the length so far,
/// so hashing a stream costs no memory that grows with it.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    lanes: [u64; 4],
    stripe: [u8; 32],
    buffered: usize,
    len: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            stripe: [0; 32],
            buffered: 0,
            len: 0,
        }
    }
}

impl ContentHasher {
    /// The hasher of the empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `bytes` to the stream.
    pub fn update(&mut self, mut bytes: &[u8]) {
        fn stripe_round(v: &mut [u64; 4], stripe: &[u8]) {
            for (lane, w) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        self.len += bytes.len() as u64;
        if self.buffered > 0 {
            let take = (32 - self.buffered).min(bytes.len());
            self.stripe[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < 32 {
                return;
            }
            stripe_round(&mut self.lanes, &self.stripe);
            self.buffered = 0;
        }
        let mut v = self.lanes;
        let mut stripes = bytes.chunks_exact(32);
        for stripe in &mut stripes {
            stripe_round(&mut v, stripe);
        }
        self.lanes = v;
        let rest = stripes.remainder();
        self.stripe[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// The hash of every byte appended so far.
    pub fn finish(&self) -> u64 {
        fn merge(h: u64, lane: u64) -> u64 {
            (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
        }
        let mut h = if self.len >= 32 {
            let v = self.lanes;
            let h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            v.into_iter().fold(h, merge)
        } else {
            P5
        };
        h = h.wrapping_add(self.len);

        let mut tail = &self.stripe[..self.buffered];
        while tail.len() >= 8 {
            h = (h ^ round(0, word(tail)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let w = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            h = (h ^ u64::from(w).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ u64::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

const STATE_MAGIC: &str = "spca-partition-state-v3";

/// A filesystem store of finished per-partition state blobs.
///
/// One file per partition id, written atomically and sealed with the PE
/// checkpoint's codec ([`crate::checkpoint`]): its header records the id
/// and the content hash the state was computed from — so
/// [`StateStore::load`] returns a hit only when the partition's current
/// input still matches — and one checksum covers every byte, so bit-rot is
/// detectable. A torn or hand-edited file reads as a miss-with-error,
/// never as plausible state; the runner's
/// [`StateStore::load_or_quarantine`] degrades that error to
/// quarantine-and-recompute.
#[derive(Debug)]
pub struct StateStore {
    dir: PathBuf,
}

impl StateStore {
    /// Opens (creating if needed) a state store rooted at `dir`, on the
    /// real filesystem.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(StateStore { dir })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path for a partition id.
    pub fn path_for(&self, id: &str) -> PathBuf {
        // Percent-encode anything that is not filename-safe so arbitrary
        // partition keys (paths, dates, plate ids) cannot escape the dir.
        let mut name = String::with_capacity(id.len());
        for b in id.bytes() {
            match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => {
                    name.push(b as char)
                }
                other => name.push_str(&format!("%{other:02x}")),
            }
        }
        self.dir.join(format!("{name}.state"))
    }

    /// Loads the stored state for `id`, if present **and** computed from
    /// input bytes hashing to `want_hash`. A hash mismatch (the partition's
    /// input changed since the state was computed) is `Ok(None)` — a miss
    /// that the runner resolves by recomputing and overwriting. A file that
    /// does not unseal, or records another id, is an `InvalidData` error.
    pub fn load(&self, id: &str, want_hash: u64) -> io::Result<Option<Vec<u8>>> {
        let path = self.path_for(id);
        let (header, mut parts) = match read_sealed(&RealVfs, &path, STATE_MAGIC) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            sealed => sealed?,
        };
        let got_hash = header
            .get("hash")
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        match (header.get("id"), got_hash, parts.pop()) {
            (Some(got_id), Some(got_hash), Some((_, state)))
                if got_id == id && parts.is_empty() =>
            {
                Ok((got_hash == want_hash).then_some(state))
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("state file {path:?} does not hold one state of partition '{id}'"),
            )),
        }
    }

    /// Degrading [`StateStore::load`]: a structurally invalid file (torn,
    /// bit-rotted, wrong id — anything `InvalidData`) is quarantined aside
    /// as `<file>.corrupt-N` and reported as a miss plus a `true` flag, so
    /// the runner recomputes the partition instead of aborting the whole
    /// backfill. Non-structural I/O errors (permissions, dead device)
    /// still propagate.
    pub fn load_or_quarantine(
        &self,
        id: &str,
        want_hash: u64,
    ) -> io::Result<(Option<Vec<u8>>, bool)> {
        match self.load(id, want_hash) {
            Ok(hit) => Ok((hit, false)),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                quarantine_file(&RealVfs, &self.path_for(id));
                Ok((None, true))
            }
            Err(e) => Err(e),
        }
    }

    /// Atomically persists `state` for `id` as computed from input bytes
    /// hashing to `hash`. Overwrites any previous generation.
    pub fn store(&self, id: &str, hash: u64, state: &[u8]) -> io::Result<()> {
        let hash = format!("{hash:016x}");
        let file = seal(
            STATE_MAGIC,
            &[("id", id), ("hash", &hash)],
            &[("state", state)],
        );
        write_atomic_vfs(&RealVfs, &self.path_for(id), &file)
    }
}

/// How one partition's state was obtained by [`run_partitions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionSource {
    /// Served from the state store (input unchanged since last computed).
    CacheHit,
    /// Computed by a worker this run (and persisted for the next one).
    Computed,
}

/// Aggregate statistics of one [`run_partitions`] call.
#[derive(Debug, Clone)]
pub struct BackfillStats {
    /// Total partitions processed.
    pub partitions: usize,
    /// Partitions served from the store without running the worker.
    pub cache_hits: usize,
    /// Partitions computed (missing, or invalidated by a content change).
    pub computed: usize,
    /// Damaged state files quarantined aside (each also counts in
    /// `computed`: the partition was recomputed from scratch).
    pub quarantined: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-partition provenance, in input order.
    pub sources: Vec<PartitionSource>,
}

type ResultSlot = Mutex<Option<io::Result<(Vec<u8>, PartitionSource)>>>;

/// Runs the backfill worker pool: every partition's state is either served
/// from `store` (id present, content hash unchanged) or computed by a
/// worker closure and persisted.
///
/// `workers` caps the pool (`0` means one worker per available core);
/// `make_worker(w)` builds worker `w`'s compute closure once, so a worker
/// can own reusable scratch (estimator workspaces) across the partitions
/// it drains. Partitions are claimed from a shared cursor — work-stealing
/// granularity is one partition — and results land in input order, so the
/// output does not depend on scheduling.
///
/// The first error (store I/O or worker failure) aborts the run: workers
/// finish their current partition and stop claiming new ones.
pub fn run_partitions<T, W>(
    partitions: &[Partition<T>],
    store: &StateStore,
    workers: usize,
    make_worker: impl Fn(usize) -> W + Sync,
) -> io::Result<(Vec<Vec<u8>>, BackfillStats)>
where
    T: Sync,
    W: FnMut(&Partition<T>) -> io::Result<Vec<u8>> + Send,
{
    let t0 = Instant::now();
    let pool = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
    .min(partitions.len())
    .max(1);

    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let quarantined = AtomicUsize::new(0);
    let mut slots: Vec<ResultSlot> = Vec::new();
    slots.resize_with(partitions.len(), || Mutex::new(None));

    std::thread::scope(|scope| {
        for w in 0..pool {
            let cursor = &cursor;
            let failed = &failed;
            let quarantined = &quarantined;
            let slots = &slots;
            let make_worker = &make_worker;
            scope.spawn(move || {
                let mut job = make_worker(w);
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(part) = partitions.get(i) else {
                        break;
                    };
                    let result = process_one(part, store, &mut job, quarantined);
                    if result.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    *lock(&slots[i]) = Some(result);
                }
            });
        }
    });

    let mut states = Vec::with_capacity(partitions.len());
    let mut sources = Vec::with_capacity(partitions.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok((bytes, src))) => {
                states.push(bytes);
                sources.push(src);
            }
            Some(Err(e)) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("partition '{}': {e}", partitions[i].id),
                ))
            }
            // A worker saw the failure flag and stopped before claiming i.
            None => {
                return Err(io::Error::other(format!(
                    "partition '{}' was abandoned after an earlier failure",
                    partitions[i].id
                )))
            }
        }
    }
    let stats = BackfillStats {
        partitions: partitions.len(),
        cache_hits: sources
            .iter()
            .filter(|s| **s == PartitionSource::CacheHit)
            .count(),
        computed: sources
            .iter()
            .filter(|s| **s == PartitionSource::Computed)
            .count(),
        quarantined: quarantined.into_inner(),
        workers: pool,
        wall: t0.elapsed(),
        sources,
    };
    Ok((states, stats))
}

fn process_one<T>(
    part: &Partition<T>,
    store: &StateStore,
    job: &mut impl FnMut(&Partition<T>) -> io::Result<Vec<u8>>,
    quarantined: &AtomicUsize,
) -> io::Result<(Vec<u8>, PartitionSource)> {
    let (hit, was_quarantined) = store.load_or_quarantine(&part.id, part.content_hash)?;
    if was_quarantined {
        quarantined.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(bytes) = hit {
        return Ok((bytes, PartitionSource::CacheHit));
    }
    let bytes = job(part)?;
    store.store(&part.id, part.content_hash, &bytes)?;
    Ok((bytes, PartitionSource::Computed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn temp_store() -> (PathBuf, StateStore) {
        let d = std::env::temp_dir().join(format!(
            "spca-backfill-test-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let store = StateStore::open(&d).unwrap();
        (d, store)
    }

    fn parts(n: usize) -> Vec<Partition<Vec<u8>>> {
        (0..n)
            .map(|i| {
                let payload = vec![i as u8; 8];
                Partition {
                    id: format!("part-{i}"),
                    content_hash: content_hash(&payload),
                    payload,
                }
            })
            .collect()
    }

    #[test]
    fn store_round_trips_and_validates_hash() {
        let (dir, store) = temp_store();
        store.store("a", 0xdead, b"state-bytes").unwrap();
        assert_eq!(
            store.load("a", 0xdead).unwrap().as_deref(),
            Some(&b"state-bytes"[..])
        );
        // Content change → miss, not error.
        assert!(store.load("a", 0xbeef).unwrap().is_none());
        // Unknown id → miss.
        assert!(store.load("zzz", 0).unwrap().is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_state_file_is_invalid_data_never_a_hit() {
        let (dir, store) = temp_store();
        store.store("a", 1, b"0123456789").unwrap();
        let path = store.path_for("a");
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let got = store.load("a", 1);
            match got {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "cut at {cut}"),
                Ok(hit) => assert!(hit.is_none(), "cut at {cut} served a torn payload"),
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bit_rotted_payload_is_invalid_data() {
        let (dir, store) = temp_store();
        store.store("a", 1, b"0123456789").unwrap();
        let path = store.path_for("a");
        let mut full = std::fs::read(&path).unwrap();
        // Same length, one payload byte flipped: only the checksum sees it.
        let last = full.len() - 1;
        full[last] ^= 0x01;
        std::fs::write(&path, &full).unwrap();
        let err = store.load("a", 1).expect_err("bit-rot must not be a hit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn load_or_quarantine_moves_the_damage_aside() {
        let (dir, store) = temp_store();
        store.store("a", 1, b"0123456789").unwrap();
        let path = store.path_for("a");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let (hit, quarantined) = store.load_or_quarantine("a", 1).unwrap();
        assert!(hit.is_none() && quarantined);
        assert!(!path.exists(), "damaged file must be moved aside");
        let mut evidence = path.as_os_str().to_owned();
        evidence.push(".corrupt-1");
        assert!(PathBuf::from(evidence).exists(), "evidence preserved");
        // A clean store after the quarantine works again.
        store.store("a", 1, b"fresh").unwrap();
        let (hit, quarantined) = store.load_or_quarantine("a", 1).unwrap();
        assert_eq!(hit.as_deref(), Some(&b"fresh"[..]));
        assert!(!quarantined);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_state_file_in_the_old_layout_is_quarantined_and_recomputed_once() {
        let olds: [&[u8]; 2] = [
            b"spca-partition-state-v1\nid part-0\nhash 0\nlen 1\nsum 0\nx",
            // What the FNV-1a-sealed store wrote for this partition: whole,
            // and a hit there, but its magic is not this store's.
            b"spca-partition-state-v2 a3e8adbc20cbdd93\nid part-0\nhash a8c7f832281a39c5\n\
              part 8 state\nend\n\0\0\0\0\0\0\0\0",
        ];
        for old in olds {
            let (dir, store) = temp_store();
            let partitions = parts(1);
            std::fs::write(store.path_for("part-0"), old).unwrap();
            let err = store.load("part-0", 0).expect_err("old layout");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let compute = |_w: usize| {
                |p: &Partition<Vec<u8>>| -> io::Result<Vec<u8>> { Ok(p.payload.clone()) }
            };
            let (_, stats) = run_partitions(&partitions, &store, 1, compute).unwrap();
            assert_eq!((stats.quarantined, stats.computed), (1, 1));
            let (_, stats) = run_partitions(&partitions, &store, 1, compute).unwrap();
            assert_eq!((stats.quarantined, stats.cache_hits), (0, 1));
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn torn_state_file_recomputes_that_partition_instead_of_aborting() {
        let (dir, store) = temp_store();
        let partitions = parts(4);
        let compute =
            |_w: usize| |p: &Partition<Vec<u8>>| -> io::Result<Vec<u8>> { Ok(p.payload.clone()) };
        let (cold, _) = run_partitions(&partitions, &store, 2, compute).unwrap();
        // Tear partition 2's state file.
        let path = store.path_for("part-2");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (warm, stats) = run_partitions(&partitions, &store, 2, compute).unwrap();
        assert_eq!(warm, cold, "recomputed bytes must match");
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.computed, 1, "only the torn partition recomputes");
        assert_eq!(stats.cache_hits, 3);
        // The rewritten file serves clean on the next run.
        let (_, stats3) = run_partitions(&partitions, &store, 2, compute).unwrap();
        assert_eq!(stats3.cache_hits, 4);
        assert_eq!(stats3.quarantined, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A stored state file truncated at *any* byte offset must read as
        /// a clean `InvalidData` error or a miss — never a panic, never a
        /// plausible-but-wrong payload.
        #[test]
        fn truncation_at_any_byte_offset_never_serves_state(frac in 0.0f64..1.0) {
            let (dir, store) = temp_store();
            store.store("p", 42, b"payload-bytes-here").unwrap();
            let path = store.path_for("p");
            let full = std::fs::read(&path).unwrap();
            let cut = ((full.len() as f64) * frac) as usize;
            std::fs::write(&path, &full[..cut.min(full.len() - 1)]).unwrap();
            match store.load("p", 42) {
                Err(e) => proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                Ok(hit) => proptest::prop_assert!(hit.is_none()),
            }
            std::fs::remove_dir_all(dir).ok();
        }

        /// A single flipped byte at *any* offset must read as `InvalidData`
        /// or a miss — the payload checksum catches what the length cannot.
        #[test]
        fn corruption_at_any_byte_offset_never_serves_state(frac in 0.0f64..1.0) {
            let (dir, store) = temp_store();
            store.store("p", 42, b"payload-bytes-here").unwrap();
            let path = store.path_for("p");
            let mut full = std::fs::read(&path).unwrap();
            // Flip the low bit: unlike e.g. 0x20 (which only changes a hex
            // digit's case, still parsing to the same value), this always
            // changes what the byte means.
            let at = (((full.len() as f64) * frac) as usize).min(full.len() - 1);
            full[at] ^= 0x01;
            std::fs::write(&path, &full).unwrap();
            match store.load("p", 42) {
                Err(e) => proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                Ok(hit) => proptest::prop_assert!(hit.is_none()),
            }
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn ids_with_path_characters_stay_inside_the_store() {
        let (dir, store) = temp_store();
        let id = "../escape/attempt";
        store.store(id, 7, b"x").unwrap();
        assert_eq!(store.load(id, 7).unwrap().as_deref(), Some(&b"x"[..]));
        let path = store.path_for(id);
        assert!(
            path.starts_with(store.dir()),
            "encoded path {path:?} escaped the store"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cold_run_computes_everything_then_warm_run_hits() {
        let (dir, store) = temp_store();
        let partitions = parts(5);
        let compute = |_w: usize| {
            |p: &Partition<Vec<u8>>| -> io::Result<Vec<u8>> {
                Ok(p.payload.iter().map(|b| b ^ 0xff).collect())
            }
        };
        let (cold, stats) = run_partitions(&partitions, &store, 2, compute).unwrap();
        assert_eq!(stats.computed, 5);
        assert_eq!(stats.cache_hits, 0);
        let (warm, stats2) = run_partitions(&partitions, &store, 2, compute).unwrap();
        assert_eq!(stats2.computed, 0);
        assert_eq!(stats2.cache_hits, 5);
        assert_eq!(cold, warm, "warm bytes must be bit-identical");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn adding_one_partition_recomputes_exactly_one() {
        let (dir, store) = temp_store();
        let partitions = parts(4);
        let calls = AtomicUsize::new(0);
        let compute = |_w: usize| {
            |p: &Partition<Vec<u8>>| -> io::Result<Vec<u8>> {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(p.payload.clone())
            }
        };
        run_partitions(&partitions, &store, 2, compute).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        let grown = parts(5);
        let (_, stats) = run_partitions(&grown, &store, 2, compute).unwrap();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            5,
            "only the new partition runs"
        );
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.cache_hits, 4);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn content_change_invalidates_exactly_that_partition() {
        let (dir, store) = temp_store();
        let mut partitions = parts(4);
        let compute =
            |_w: usize| |p: &Partition<Vec<u8>>| -> io::Result<Vec<u8>> { Ok(p.payload.clone()) };
        run_partitions(&partitions, &store, 1, compute).unwrap();
        partitions[2].payload[0] ^= 1;
        partitions[2].content_hash = content_hash(&partitions[2].payload);
        let (states, stats) = run_partitions(&partitions, &store, 1, compute).unwrap();
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(states[2], partitions[2].payload);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn worker_error_aborts_with_partition_context() {
        let (dir, store) = temp_store();
        let partitions = parts(3);
        let compute = |_w: usize| {
            |p: &Partition<Vec<u8>>| -> io::Result<Vec<u8>> {
                if p.id == "part-1" {
                    Err(io::Error::other("boom"))
                } else {
                    Ok(p.payload.clone())
                }
            }
        };
        let err = run_partitions(&partitions, &store, 1, compute).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("part-1"),
            "error must name the partition: {msg}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn results_land_in_input_order_regardless_of_workers() {
        let (dir, store) = temp_store();
        let partitions = parts(9);
        let compute = |_w: usize| {
            |p: &Partition<Vec<u8>>| -> io::Result<Vec<u8>> { Ok(p.id.clone().into_bytes()) }
        };
        let (states, stats) = run_partitions(&partitions, &store, 4, compute).unwrap();
        assert!(stats.workers >= 1);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(s, format!("part-{i}").as_bytes());
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
    }

    #[test]
    fn content_hash_is_xxh64_with_seed_zero() {
        // Published XXH64 vectors; the last is 39 bytes, one whole stripe
        // and a tail of an 8-byte word, a 4-byte word and three bytes.
        assert_eq!(content_hash(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(content_hash(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(content_hash(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            content_hash(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    proptest::proptest! {
        /// A change inside one 8-byte word, in a stripe or in the tail,
        /// changes the hash.
        #[test]
        fn a_change_inside_one_word_changes_the_hash(
            bytes in proptest::collection::vec(proptest::strategy::any::<u8>(), 1..200),
            at in 0usize..200,
            flip in 1u64..=u64::MAX,
        ) {
            let mut changed = bytes.clone();
            let word = (at % bytes.len()) / 8 * 8;
            let end = (word + 8).min(changed.len());
            let flip = flip.to_le_bytes();
            for (b, f) in changed[word..end].iter_mut().zip(flip) {
                *b ^= f;
            }
            proptest::prop_assume!(changed != bytes);
            proptest::prop_assert_ne!(content_hash(&changed), content_hash(&bytes));
        }

        /// Any chunking of any input hashes to `content_hash` of the whole.
        #[test]
        fn any_chunking_hashes_to_the_whole(
            bytes in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut hasher = ContentHasher::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                hasher.update(&bytes[at..cut]);
                at = cut;
            }
            proptest::prop_assert_eq!(hasher.finish(), content_hash(&bytes));
        }
    }
}
