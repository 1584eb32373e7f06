#![warn(missing_docs)]
//! The counting global allocator behind the workspace's zero-allocation
//! guards.
//!
//! A guard installs [`CountingAlloc`] as its binary's `#[global_allocator]`,
//! warms its subject up, calls [`track`]`(true)` on the thread doing the
//! measured work and asserts that [`allocations`] does not move across it.
//! Only tracked threads count, so client, server, writer or harness
//! threads allocating next to the measured one do not disturb the number.
//! A guard over work spread across threads it does not spawn itself (a
//! pipeline's PE or transport threads) counts them all with [`track_all`]
//! instead. Still one `#[test]` per guard file: the counter is per-process.
//!
//! Beside the count, the allocator keeps the bytes live on the heap across
//! every thread and their high-water mark: a memory guard calls
//! [`reset_peak`], runs its subject and reads [`peak_bytes`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The system allocator, counting the calls tracked threads make to it.
pub struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

static ALL: AtomicBool = AtomicBool::new(false);

static LIVE: AtomicUsize = AtomicUsize::new(0);

static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // const-initialized TLS: reading it never allocates, so it is safe
    // to consult from inside the global allocator.
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

/// Starts (or stops) counting the calling thread's allocations.
pub fn track(on: bool) {
    TRACKED.with(|t| t.set(on));
}

/// Starts (or stops) counting the allocations of every thread of the
/// process, tracked or not.
pub fn track_all(on: bool) {
    ALL.store(on, Ordering::SeqCst);
}

/// `alloc`, `alloc_zeroed` and `realloc` calls made by tracked threads so
/// far.
pub fn allocations() -> usize {
    ALLOCS.load(Ordering::SeqCst)
}

/// Bytes allocated and not yet freed, by every thread of the process.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::SeqCst)
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::SeqCst)
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

fn count_if_tracked() {
    // try_with: TLS may be unavailable during thread teardown.
    if ALL.load(Ordering::Relaxed) || TRACKED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no memory the
// allocator hands out and never allocates itself. Live bytes move only
// when the system allocator succeeded.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_tracked();
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_tracked();
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_tracked();
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}
