//! Epoch-versioned eigensystem snapshot store.
//!
//! The streaming update path publishes immutable, epoch-numbered
//! [`EigenSnapshot`]s; serving threads read the latest one. Snapshots
//! live in `Arc`s drawn from a pool, and three things hold:
//!
//! 1. **A reader never holds the store's lock across a query.**
//!    [`EpochReader::pin`] clones the current `Arc` under the lock — one
//!    reference-count increment — and the query runs on that clone with
//!    the lock released, so a publish waits for at most that increment.
//! 2. **Publishing never allocates.** [`EpochStore::prewarm`] fills the
//!    pool at build time with buffers sized for the eigensystem and with
//!    room for every buffer to come back; [`EpochStore::publish`] swaps
//!    the filled buffer in as current and pushes the previous one into
//!    that room.
//! 3. **A stalled reader costs one buffer.** A pooled buffer is free
//!    exactly when the pool holds its only reference, so a snapshot that
//!    is still pinned is skipped, not waited for. Only when every pooled
//!    buffer is pinned at once does [`EpochStore::try_checkout`] return
//!    `None`, and the publish is *shed* (readers keep the previous epoch)
//!    rather than allocating: stalled readers cost freshness, never the
//!    update path.

use spca_core::EigenSystem;
use spca_streams::lock;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many snapshot buffers each publishing operator should
/// [`EpochStore::prewarm`] into the pool. Steady state keeps two in use
/// (one current, one being filled); a publish is shed only when every
/// other one is a retired snapshot some reader still has pinned.
pub const PREWARM_PER_WRITER: usize = 8;

/// An immutable, epoch-numbered view of an engine's eigensystem.
#[derive(Debug)]
pub struct EigenSnapshot {
    /// Monotonically increasing publish sequence number (1-based).
    pub epoch: u64,
    /// The tracked eigensystem (all `p + q` components).
    pub eig: EigenSystem,
    /// Number of components queries should report (the configured `p`).
    pub p: usize,
}

/// A checked-out snapshot buffer: the only reference to its `Arc`, so it
/// dereferences mutably to the [`EigenSnapshot`] to fill. Hand it back
/// with [`EpochStore::publish`] or [`EpochStore::recycle`].
pub struct SnapshotBuf(Arc<EigenSnapshot>);

impl Deref for SnapshotBuf {
    type Target = EigenSnapshot;
    fn deref(&self) -> &EigenSnapshot {
        &self.0
    }
}

impl DerefMut for SnapshotBuf {
    fn deref_mut(&mut self) -> &mut EigenSnapshot {
        // `try_checkout` only wraps an `Arc` nothing else refers to, and
        // the wrapper neither clones it nor gives it away.
        Arc::get_mut(&mut self.0).expect("checked-out snapshot buffer is uniquely owned")
    }
}

#[derive(Default)]
struct Slots {
    /// Latest published snapshot (`None` until the first publish).
    current: Option<Arc<EigenSnapshot>>,
    /// Every buffer that is neither current nor checked out. One that a
    /// reader still has pinned sits here until the pin is dropped.
    pool: Vec<Arc<EigenSnapshot>>,
    /// Buffers created so far, wherever they are now: the room `pool`
    /// needs for all of them to come back.
    created: usize,
}

/// The snapshot store. See the module docs.
#[derive(Default)]
pub struct EpochStore {
    slots: Mutex<Slots>,
    /// Epoch of `current`, readable without the lock. Stored (`Release`)
    /// after the swap and loaded with `Acquire`, so `epoch() == n`
    /// implies a later pin observes at least epoch `n`.
    seq: AtomicU64,
}

impl EpochStore {
    /// An empty store (no snapshot published yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// The epoch of the latest published snapshot (0 = none yet).
    pub fn epoch(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Adds `n` snapshot buffers to the pool, each with eigensystem
    /// buffers sized for a `d × k` system so the first
    /// [`EigenSystem::copy_from`] into it reuses capacity, and room in the
    /// pool for all of them to be returned. Call once per publishing
    /// operator at build time: afterwards checkout, fill and publish
    /// perform no heap allocation, from the first publish on.
    pub fn prewarm(&self, n: usize, d: usize, k: usize) {
        let mut s = lock(&self.slots);
        // Some buffers are current or checked out right now and will be
        // pushed back, so room is kept for every one ever created.
        s.created += n;
        let room = s.created - s.pool.len();
        s.pool.reserve_exact(room);
        for _ in 0..n {
            s.pool.push(Arc::new(EigenSnapshot {
                epoch: 0,
                eig: EigenSystem::zeros(d, k),
                p: 0,
            }));
        }
    }

    /// Takes a free snapshot buffer to fill for the next publish (its
    /// `EigenSystem` buffers are reused by [`EigenSystem::copy_from`]),
    /// or `None` when readers hold every pooled buffer pinned: the update
    /// path then *skips* the publish. Never allocates.
    pub fn try_checkout(&self) -> Option<SnapshotBuf> {
        let mut s = lock(&self.slots);
        // Nothing can clone an `Arc` that only the pool refers to, so a
        // buffer found free here stays free until it is handed out.
        let free = s.pool.iter_mut().position(|b| Arc::get_mut(b).is_some())?;
        Some(SnapshotBuf(s.pool.swap_remove(free)))
    }

    /// Like [`EpochStore::try_checkout`], but adds a buffer to the pool
    /// when none is free instead of shedding. For offline use and tests;
    /// the streaming update path uses `try_checkout`.
    pub fn checkout(&self) -> SnapshotBuf {
        loop {
            if let Some(buf) = self.try_checkout() {
                return buf;
            }
            self.prewarm(1, 0, 0);
        }
    }

    /// Returns a checked-out buffer that will not be published to the pool.
    pub fn recycle(&self, snap: SnapshotBuf) {
        lock(&self.slots).pool.push(snap.0);
    }

    /// Publishes a filled buffer under the next epoch number, which it
    /// returns; the snapshot it replaces goes back to the pool.
    pub fn publish(&self, mut snap: SnapshotBuf) -> u64 {
        let mut s = lock(&self.slots);
        let epoch = self.seq.load(Ordering::Relaxed) + 1;
        snap.epoch = epoch;
        if let Some(old) = s.current.replace(snap.0) {
            s.pool.push(old);
        }
        self.seq.store(epoch, Ordering::Release);
        epoch
    }

    /// A reader handle for a serving thread. Always `Some`: the `Option`
    /// is what callers written against the bounded slot table expect.
    pub fn reader(self: &Arc<Self>) -> Option<EpochReader> {
        Some(EpochReader {
            store: Arc::clone(self),
        })
    }
}

/// A serving thread's handle on the store (and a share of it).
pub struct EpochReader {
    store: Arc<EpochStore>,
}

impl EpochReader {
    /// Pins the current snapshot for reading (`None` before the first
    /// publish), keeping its buffer out of circulation until dropped.
    pub fn pin(&mut self) -> Option<PinnedSnapshot> {
        lock(&self.store.slots).current.clone().map(PinnedSnapshot)
    }
}

/// A pinned snapshot. Dereferences to [`EigenSnapshot`]; the pin is
/// released on drop. Hold it only for the duration of one query — each
/// distinct snapshot held pinned is a buffer the writer cannot reuse.
pub struct PinnedSnapshot(Arc<EigenSnapshot>);

impl Deref for PinnedSnapshot {
    type Target = EigenSnapshot;
    fn deref(&self) -> &EigenSnapshot {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spca_core::{PcaConfig, RobustPca};

    fn small_eig(seed: u64) -> EigenSystem {
        let mut pca = RobustPca::new(PcaConfig::new(8, 2));
        for i in 0..40u64 {
            let t = (seed + i) as f64;
            let x: Vec<f64> = (0..8).map(|j| ((t * 0.7 + j as f64).sin()) * 2.0).collect();
            pca.update(&x).unwrap();
        }
        pca.full_eigensystem().unwrap().clone()
    }

    #[test]
    fn empty_store_reads_none() {
        let store = Arc::new(EpochStore::new());
        let mut r = store.reader().unwrap();
        assert!(r.pin().is_none());
        assert_eq!(store.epoch(), 0);
    }

    #[test]
    fn publish_and_read_roundtrip() {
        let store = Arc::new(EpochStore::new());
        let src = small_eig(3);
        let mut buf = store.checkout();
        buf.eig.copy_from(&src);
        buf.p = 2;
        assert_eq!(store.publish(buf), 1);
        assert_eq!(store.epoch(), 1);

        let mut r = store.reader().unwrap();
        let pinned = r.pin().unwrap();
        assert_eq!(pinned.epoch, 1);
        assert_eq!(pinned.p, 2);
        assert_eq!(pinned.eig.mean, src.mean);
        assert_eq!(pinned.eig.basis.as_slice(), src.basis.as_slice());
    }

    #[test]
    fn a_poisoned_store_still_publishes_and_pins() {
        // A thread that panics holding the store's lock must not take the
        // next publisher or the serving threads down with it.
        let store = Arc::new(EpochStore::new());
        let theirs = Arc::clone(&store);
        let _ = std::thread::spawn(move || {
            let _slots = lock(&theirs.slots);
            panic!("poison the store");
        })
        .join();
        assert!(store.slots.is_poisoned());
        let mut buf = store.checkout();
        buf.eig.copy_from(&small_eig(5));
        buf.p = 2;
        assert_eq!(store.publish(buf), 1);
        let mut r = store.reader().unwrap();
        assert_eq!(r.pin().unwrap().epoch, 1);
    }

    #[test]
    fn epochs_are_monotonic_and_latest_wins() {
        let store = Arc::new(EpochStore::new());
        for i in 0..10 {
            let mut buf = store.checkout();
            buf.eig.copy_from(&small_eig(i));
            buf.p = 2;
            let e = store.publish(buf);
            assert_eq!(e, i + 1);
        }
        let mut r = store.reader().unwrap();
        assert_eq!(r.pin().unwrap().epoch, 10);
    }

    #[test]
    fn free_list_recycles_retired_snapshots() {
        let store = Arc::new(EpochStore::new());
        // With no reader pinned, the snapshot a publish retires is free at
        // once: the second checkout is the last to add a buffer, and the
        // pool settles at the one retired buffer.
        for i in 0..20 {
            let mut buf = store.checkout();
            buf.eig.copy_from(&small_eig(i));
            buf.p = 2;
            store.publish(buf);
        }
        assert_eq!(
            lock(&store.slots).pool.len(),
            1,
            "retired buffers must not pile up"
        );
    }

    #[test]
    fn pinned_reader_does_not_block_publishes() {
        let store = Arc::new(EpochStore::new());
        let mut buf = store.checkout();
        buf.eig.copy_from(&small_eig(0));
        store.publish(buf);

        let mut r = store.reader().unwrap();
        let pinned = r.pin().unwrap();
        assert_eq!(pinned.epoch, 1);
        // Writer keeps publishing while the reader holds a pin; the
        // pinned snapshot's contents must stay intact throughout.
        let mean0 = pinned.eig.mean.clone();
        for i in 1..50 {
            let mut buf = store.checkout();
            buf.eig.copy_from(&small_eig(i));
            store.publish(buf);
        }
        assert_eq!(store.epoch(), 50);
        assert_eq!(pinned.epoch, 1);
        assert_eq!(pinned.eig.mean, mean0);
        drop(pinned);
        assert_eq!(r.pin().unwrap().epoch, 50);
    }

    #[test]
    fn exhausted_pool_sheds_instead_of_allocating() {
        let store = Arc::new(EpochStore::new());
        store.prewarm(3, 8, 4);

        // One pin held on each of three successive epochs: every buffer
        // the pool ever had is current or pinned, so the next publish is
        // shed instead of allocating.
        let pins: Vec<_> = (0..3)
            .map(|i| {
                let mut buf = store.try_checkout().expect("prewarmed buffer");
                buf.eig.copy_from(&small_eig(i));
                assert_eq!(store.publish(buf), i + 1);
                store.reader().unwrap().pin().unwrap()
            })
            .collect();
        assert!(store.try_checkout().is_none(), "pool must be bounded");
        let first = small_eig(0);
        assert_eq!(pins[0].epoch, 1, "the pinned snapshot stays intact");
        assert_eq!(pins[0].eig.mean, first.mean);
        assert_eq!(pins[0].eig.basis.as_slice(), first.basis.as_slice());

        // Dropping all but one pin frees the buffers they held: a single
        // stalled reader costs one buffer, not the ones retired after it.
        let stalled = pins.into_iter().next().unwrap();
        for i in 0..10 {
            let mut buf = store.try_checkout().expect("freed buffer");
            buf.eig.copy_from(&small_eig(100 + i));
            store.publish(buf);
        }
        assert_eq!(stalled.epoch, 1);
    }

    #[test]
    fn free_list_cap_scales_with_prewarmed_writers() {
        let store = Arc::new(EpochStore::new());
        // However many publishing operators share the store, every
        // prewarmed buffer survives a checkout/recycle round trip.
        let writers = 24;
        for _ in 0..writers {
            store.prewarm(PREWARM_PER_WRITER, 4, 2);
        }
        let total = writers * PREWARM_PER_WRITER;
        let boxes: Vec<_> = (0..total)
            .map(|_| store.try_checkout().expect("prewarmed box"))
            .collect();
        assert!(store.try_checkout().is_none(), "pool fully drained");
        // Room grows with the buffers created, not with the calls made.
        assert!(lock(&store.slots).pool.capacity() <= 2 * total);
        for b in boxes {
            store.recycle(b);
        }
        for i in 0..total {
            assert!(
                store.try_checkout().is_some(),
                "box {i}/{total} was shed by the free-list cap"
            );
        }
    }

    #[test]
    fn recycle_returns_unpublished_buffers_to_the_pool() {
        let store = Arc::new(EpochStore::new());
        store.prewarm(1, 8, 4);
        let buf = store.try_checkout().expect("prewarmed box");
        assert!(store.try_checkout().is_none(), "pool of 1 is drained");
        store.recycle(buf);
        assert!(
            store.try_checkout().is_some(),
            "recycled buffer must be available again"
        );
    }
}
