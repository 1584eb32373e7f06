#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The parallel streaming-PCA application (paper Fig. 2).
//!
//! Wires the pieces into the paper's analysis graph:
//!
//! ```text
//!                    ┌──────────────► StreamingPca 0 ──► monitor
//!  source ──► split ─┼──────────────► StreamingPca 1 ──► monitor
//!                    └──────────────► StreamingPca n ──► monitor
//!        sync controller ─► (control ports)   paced at sync_period
//!        StreamingPca i ──(state)──► StreamingPca j   (ring/broadcast/…)
//! ```
//!
//! * [`pca_operator::StreamingPcaOp`] — the stateful operator holding the
//!   robust incremental eigensystem (the paper's custom C++ operator).
//! * [`sync`] — the synchronization controller and its strategies
//!   (circular/ring as in Fig. 3, broadcast, groups), its self-pacing,
//!   and the `1.5·N` independence gate.
//! * [`app`] — the application builder assembling the full graph, fused
//!   into one PE or one PE per operator.
//! * [`results`] — the in-flight results hub: latest per-engine
//!   eigensystems, merged global estimates, outlier feed.

pub mod app;
pub mod autoscale;
pub mod backfill;
pub mod distributed;
pub mod epoch;
pub mod messages;
pub mod pca_operator;
pub mod persist;
pub mod results;
pub mod serve;
pub mod sync;

pub use app::{normalize_fault_targets, AppConfig, AppHandles, ParallelPcaApp};
pub use autoscale::{ElasticRuntime, ElasticSupervisor, ScaleError, ScaleEvent};
pub use backfill::{
    backfill, partition_csv_files, partition_csv_rows, BackfillConfig, BackfillOutcome,
    CorpusSlice, PartitionWorker, READ_BUFFER_BYTES,
};
pub use distributed::{
    run_coordinator, run_local, run_worker, stub_source, CoordinatorReport, DistSpec,
};
pub use epoch::{EigenSnapshot, EpochReader, EpochStore, PinnedSnapshot};
pub use messages::{
    register_wire_codecs, Heartbeat, PeerState, SyncCommand, KIND_HEARTBEAT, KIND_PEER_STATE,
    KIND_SNAPSHOT, KIND_SYNC_COMMAND,
};
pub use pca_operator::StreamingPcaOp;
pub use persist::{read_snapshot, write_snapshot, SnapshotWriter};
pub use results::ResultsHub;
pub use serve::{EigenQueryHandler, FaultCounters, ServeShared};
pub use sync::{SyncController, SyncStrategy};
