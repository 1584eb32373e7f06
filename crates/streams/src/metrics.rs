//! Per-operator and per-link counters — the engine's "profiling tool".
//!
//! §III-D: "IBM InfoSphere Streams provides a set of tools for profiling
//! the application. The profiling tool measures the performance of each
//! component and the data channels traffic." These registries expose the
//! same signals: tuple counts in/out and busy time per operator, tuple and
//! byte counts per link, all lock-free (`AtomicU64` with relaxed ordering —
//! counters need atomicity, not ordering).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The run-level counters: what a run absorbed (faults, skipped steps) and
/// how its fleet moved. They are bumped only when something happens, so
/// they live in one array indexed by this enum and every surface —
/// [`crate::engine::RunReport::total`], the fault summary, `/metrics` — is a
/// loop over [`COUNTERS`]. Adding one is a variant here, its row there and
/// the increment site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Supervisor restarts of one operator after an isolated panic.
    Restarts,
    /// Whole-PE restarts, counted on every operator fused into the PE.
    PeRestarts,
    /// Tuples diverted to quarantine (non-finite payloads).
    Quarantined,
    /// Synchronization steps skipped (gate not passed / engine not alive).
    SyncSkips,
    /// Storage faults survived: failed checkpoint writes, damaged files
    /// found at recovery.
    IoFaults,
    /// Checkpoint generation files moved aside as `*.corrupt-N` at recovery.
    QuarantinedSnapshots,
    /// Periodic PE checkpoints skipped because the write failed (ENOSPC,
    /// fsync error, dead device) — the PE keeps running and backs off.
    CheckpointSkips,
    /// Elastic scale-out events (engines admitted into the active fleet).
    ScaleOuts,
    /// Elastic scale-in events (engines retired from the active fleet).
    ScaleIns,
}

impl Counter {
    /// Number of run-level counters (rows of [`COUNTERS`]).
    pub const COUNT: usize = COUNTERS.len();
}

/// The counter table, one `(which, key, label)` row per variant in enum
/// order — the order every surface prints them in. `/metrics` exposes
/// `spca_<key>`; `label` is what the fault summary calls it.
#[rustfmt::skip]
pub static COUNTERS: &[(Counter, &str, &str)] = &[
    (Counter::Restarts,             "restarts",              "operator restarts"),
    (Counter::PeRestarts,           "pe_restarts",           "PE restarts (operator-weighted)"),
    (Counter::Quarantined,          "quarantined",           "quarantined tuples"),
    (Counter::SyncSkips,            "sync_skips",            "skipped syncs"),
    (Counter::IoFaults,             "io_faults",             "storage faults absorbed"),
    (Counter::QuarantinedSnapshots, "quarantined_snapshots", "quarantined snapshots"),
    (Counter::CheckpointSkips,      "checkpoint_skips",      "skipped checkpoints"),
    (Counter::ScaleOuts,            "scale_outs",            "scale-outs"),
    (Counter::ScaleIns,             "scale_ins",             "scale-ins"),
];

/// Live counters for one operator. The four traffic counters are named
/// fields (bumped per tuple, read per operator by name); the run-level
/// ones are the [`Counter`] table.
#[derive(Debug, Default)]
pub struct OpCounters {
    /// Data tuples consumed.
    pub tuples_in: AtomicU64,
    /// Data tuples emitted.
    pub tuples_out: AtomicU64,
    /// Control tuples consumed.
    pub control_in: AtomicU64,
    /// Nanoseconds spent inside `process_rows`/`on_control`.
    pub busy_ns: AtomicU64,
    table: [AtomicU64; Counter::COUNT],
}

/// Live counters for one cross-PE link.
#[derive(Debug, Default)]
pub struct LinkCounters {
    /// Tuples transferred.
    pub tuples: AtomicU64,
    /// Estimated bytes transferred.
    pub bytes: AtomicU64,
}

/// Immutable snapshot of one operator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Data tuples consumed.
    pub tuples_in: u64,
    /// Data tuples emitted.
    pub tuples_out: u64,
    /// Control tuples consumed.
    pub control_in: u64,
    /// Nanoseconds of busy time.
    pub busy_ns: u64,
    table: [u64; Counter::COUNT],
}

impl OpSnapshot {
    /// This operator's count of `which`.
    pub fn get(&self, which: Counter) -> u64 {
        self.table[which as usize]
    }
}

/// Immutable snapshot of one link's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Tuples transferred.
    pub tuples: u64,
    /// Bytes transferred.
    pub bytes: u64,
}

impl OpCounters {
    /// Takes a consistent-enough snapshot (relaxed reads).
    pub fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            tuples_in: self.tuples_in.load(Ordering::Relaxed),
            tuples_out: self.tuples_out.load(Ordering::Relaxed),
            control_in: self.control_in.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            table: std::array::from_fn(|i| self.table[i].load(Ordering::Relaxed)),
        }
    }

    pub(crate) fn add_in(&self, n: u64) {
        self.tuples_in.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_out(&self) {
        self.tuples_out.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_control(&self) {
        self.control_in.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_busy(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds `n` to the run-level counter `which`.
    pub fn add(&self, which: Counter, n: u64) {
        self.table[which as usize].fetch_add(n, Ordering::Relaxed);
    }
}

impl LinkCounters {
    /// Takes a snapshot.
    pub fn snapshot(&self) -> LinkSnapshot {
        LinkSnapshot {
            tuples: self.tuples.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Accounts a whole frame at once while keeping the tuple as the
    /// accounting unit: `tuples` and `bytes` are the frame's per-tuple
    /// totals, so `LinkReport` figures are identical whether an edge ran
    /// batched or tuple-at-a-time.
    pub(crate) fn add_many(&self, tuples: u64, bytes: u64) {
        self.tuples.fetch_add(tuples, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Shared registry handed to every operator context; the engine builds one
/// per run and returns its snapshots in the [`crate::engine::RunReport`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    ops: Vec<Arc<OpCounters>>,
    links: Vec<Arc<LinkCounters>>,
}

impl MetricsRegistry {
    /// Registers counters for a new operator; returns its handle.
    pub fn register_op(&mut self) -> Arc<OpCounters> {
        let c = Arc::new(OpCounters::default());
        self.ops.push(Arc::clone(&c));
        c
    }

    /// Registers counters for a new link; returns its handle.
    pub fn register_link(&mut self) -> Arc<LinkCounters> {
        let c = Arc::new(LinkCounters::default());
        self.links.push(Arc::clone(&c));
        c
    }

    /// Snapshots every operator, in registration order.
    pub fn op_snapshots(&self) -> Vec<OpSnapshot> {
        self.ops.iter().map(|c| c.snapshot()).collect()
    }

    /// Snapshots every link, in registration order.
    pub fn link_snapshots(&self) -> Vec<LinkSnapshot> {
        self.links.iter().map(|c| c.snapshot()).collect()
    }
}

/// Number of buckets in a [`LatencyHistogram`]: powers of two from 1µs
/// (bucket 0: `< 2·2¹⁰ ns`) up past 1s, plus an overflow bucket.
pub const LATENCY_BUCKETS: usize = 22;

/// A fixed-bucket latency histogram with lock-free, allocation-free
/// recording — the serving layer's per-endpoint latency tracker.
///
/// Buckets are powers of two in nanoseconds starting at 2¹¹ ns (~2µs):
/// bucket `i` counts samples in `[2^(10+i), 2^(11+i))` ns, bucket 0 also
/// absorbs everything faster, and the last bucket absorbs everything
/// slower (> ~4s). Quantiles are read as the upper bound of the bucket
/// containing the requested rank — a ≤ 2× overestimate by construction,
/// which is adequate for tail-latency reporting and costs no memory or
/// locking on the hot path.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    fn bucket_of(ns: u64) -> usize {
        // floor(log2(ns)) - 10, clamped into range.
        let log2 = 63 - (ns | 1).leading_zeros() as usize;
        log2.saturating_sub(10).min(LATENCY_BUCKETS - 1)
    }

    /// Upper bound (ns) of bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        1u64 << (11 + i)
    }

    /// Records one sample. Lock-free, allocation-free.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds, as the upper bound
    /// of the bucket holding that rank. Returns 0 with no samples.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(LATENCY_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = OpCounters::default();
        c.add_in(1);
        c.add_in(1);
        c.add_out();
        c.add_control();
        c.add_busy(500);
        let s = c.snapshot();
        assert_eq!(s.tuples_in, 2);
        assert_eq!(s.tuples_out, 1);
        assert_eq!(s.control_in, 1);
        assert_eq!(s.busy_ns, 500);
    }

    #[test]
    fn counter_table_is_in_enum_order_with_well_formed_unique_keys() {
        for (i, &(which, key, label)) in COUNTERS.iter().enumerate() {
            assert_eq!(which as usize, i, "row '{key}' out of enum order");
            assert!(!key.is_empty() && !label.is_empty());
            assert!(
                key.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
                "key '{key}' is not [a-z_]+"
            );
            assert!(
                COUNTERS[..i].iter().all(|r| r.1 != key),
                "duplicate key '{key}'"
            );
        }
    }

    #[test]
    fn every_counter_round_trips_through_add_and_snapshot() {
        let c = OpCounters::default();
        for (i, &(which, ..)) in COUNTERS.iter().enumerate() {
            c.add(which, i as u64 + 1);
            c.add(which, 10);
        }
        let s = c.snapshot();
        for (i, &(which, key, _)) in COUNTERS.iter().enumerate() {
            assert_eq!(s.get(which), i as u64 + 11, "{key}");
        }
        assert_eq!(
            (s.tuples_in, s.tuples_out, s.control_in, s.busy_ns),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn link_counts_tuples_and_bytes() {
        let l = LinkCounters::default();
        l.add_many(1, 100);
        l.add_many(1, 50);
        let s = l.snapshot();
        assert_eq!(s.tuples, 2);
        assert_eq!(s.bytes, 150);
    }

    #[test]
    fn link_frame_accounting_matches_per_tuple() {
        let per_tuple = LinkCounters::default();
        per_tuple.add_many(1, 100);
        per_tuple.add_many(1, 50);
        per_tuple.add_many(1, 50);
        let framed = LinkCounters::default();
        framed.add_many(3, 200);
        assert_eq!(per_tuple.snapshot(), framed.snapshot());
    }

    #[test]
    fn registry_orders_snapshots() {
        let mut r = MetricsRegistry::default();
        let a = r.register_op();
        let _b = r.register_op();
        a.add_in(1);
        let snaps = r.op_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].tuples_in, 1);
        assert_eq!(snaps[1].tuples_in, 0);
    }

    #[test]
    fn counters_are_shared_across_clones() {
        let mut r = MetricsRegistry::default();
        let h = r.register_op();
        let h2 = Arc::clone(&h);
        std::thread::spawn(move || {
            for _ in 0..100 {
                h2.add_in(1);
            }
        })
        .join()
        .unwrap();
        assert_eq!(r.op_snapshots()[0].tuples_in, 100);
    }

    #[test]
    fn latency_histogram_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.99), 0);
        // 99 fast samples (~4µs) and one slow (~1ms).
        for _ in 0..99 {
            h.record_ns(4_000);
        }
        h.record_ns(1_000_000);
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        let p999 = h.quantile_ns(0.999);
        assert!((4_000..=8_192).contains(&p50), "p50 = {p50}");
        assert!(p99 <= 8_192, "p99 = {p99}");
        assert!(p999 >= 1_000_000, "p999 = {p999}");
        assert!(p50 <= p99 && p99 <= p999);
    }

    #[test]
    fn latency_histogram_bucket_edges() {
        let h = LatencyHistogram::default();
        h.record_ns(0); // clamps into bucket 0
        h.record_ns(u64::MAX); // clamps into the overflow bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ns(1.0) >= 1 << 31);
    }
}
