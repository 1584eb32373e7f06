//! The six fixed workloads. Names are cited by later issues — do not
//! rename. All use memory N = 5000, batch 64 and the CLI defaults
//! otherwise.

use crate::corpus::Kind;

/// Effective memory of the exponential forgetting (`--memory`).
pub const MEMORY: usize = 5000;
/// Cross-PE frame size (`--batch`).
pub const BATCH: usize = 64;
/// Snapshot publication cadence of the serving workload.
pub const PUBLISH_EVERY: u64 = 64;
/// Open-loop query rate of the serving workload.
pub const QUERY_RATE_PER_S: f64 = 1000.0;
/// `--partitions` of the backfill workload.
pub const BACKFILL_PARTITIONS: usize = 8;
/// `--quick` divides every corpus by this.
pub const QUICK_DIVISOR: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `spca run`: the in-process dataflow, fused into one PE or one PE
    /// per engine.
    Stream { fuse: bool },
    /// `spca serve`: fused ingest publishing into an `EpochStore` while an
    /// open-loop client queries the HTTP server.
    Serve,
    /// `spca backfill`: cold then warm over 8 row partitions.
    Backfill,
    /// `spca coordinator` + one re-exec'd `spca worker` over loopback TCP
    /// with a recovery directory.
    Tcp,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Corpus rows of a full run, sized so one pass takes 0.5–1.5 s on the
    /// 2-core recorder: an invocation then fits ten or more passes in its
    /// fifteen seconds, which is what lets the best pass dodge the host's
    /// interference bursts (README, "Noise" and "Sizing").
    pub rows: usize,
    pub components: usize,
    pub engines: usize,
    pub mode: Mode,
    /// Largest accepted `core.robust.subspace_err` (see README,
    /// "Correctness").
    pub tolerance: f64,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "fused1-galaxy",
        kind: Kind::G,
        rows: 16_000,
        components: 4,
        engines: 1,
        mode: Mode::Stream { fuse: true },
        tolerance: 0.8,
    },
    Workload {
        name: "unfused2-wide",
        kind: Kind::W,
        rows: 12_000,
        components: 10,
        engines: 2,
        mode: Mode::Stream { fuse: false },
        tolerance: 0.2,
    },
    Workload {
        name: "unfused2-narrow",
        kind: Kind::N,
        rows: 150_000,
        components: 2,
        engines: 2,
        mode: Mode::Stream { fuse: false },
        tolerance: 0.2,
    },
    Workload {
        name: "serve1-galaxy",
        kind: Kind::G,
        rows: 16_000,
        components: 4,
        engines: 1,
        mode: Mode::Serve,
        tolerance: 0.8,
    },
    Workload {
        name: "backfill2-galaxy",
        kind: Kind::G,
        rows: 16_000,
        components: 4,
        engines: 2,
        mode: Mode::Backfill,
        tolerance: 0.8,
    },
    Workload {
        name: "tcp2-galaxy",
        kind: Kind::G,
        // Half of the other `G` workloads: two processes and four busy
        // threads inflate twice as much as one thread under interference,
        // so this one needs twice the passes to find a quiet one. CPU per
        // tuple is the same at 8k, 16k and 32k rows.
        rows: 8_000,
        components: 4,
        engines: 1,
        mode: Mode::Tcp,
        tolerance: 0.8,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn rows(&self, quick: bool) -> usize {
        if quick {
            self.rows / QUICK_DIVISOR
        } else {
            self.rows
        }
    }
}
