#![warn(missing_docs)]
//! A from-scratch stream-processing engine modeled on IBM InfoSphere
//! Streams, the platform the paper builds on (§III).
//!
//! The paper uses a small, well-defined slice of InfoSphere:
//!
//! * **typed tuples** flowing through a dataflow graph of operators;
//! * **stateful custom operators** (their C++ streaming-PCA operator);
//! * a **multithreaded split** that load-balances a stream across parallel
//!   engines without blocking on any one target;
//! * **control ports** carrying synchronization signals (the paper paces
//!   them with SPL's throttle operator; here their sender paces itself);
//! * **operator fusion** — operators placed together exchange tuples by
//!   pointer in memory, while cross-PE edges pay queueing (and, on a real
//!   cluster, network) costs;
//! * per-operator **profiling** of tuple rates and channel traffic.
//!
//! This crate implements exactly that slice: a [`graph::GraphBuilder`] wires
//! [`operator::Operator`]s into processing elements (PEs), the
//! [`engine::Engine`] runs one thread per PE with bounded `std::sync::mpsc`
//! channels on cross-PE edges and direct in-memory dispatch inside a PE, and
//! [`metrics`] exposes the counters the paper's profiler would show.
//!
//! The engine is deliberately generic — nothing in here knows about PCA —
//! mirroring the paper's remark that "replaceable application components
//! and flexible data flow management make it easy enough to include
//! different partial sum analytics algorithms beyond streaming PCA".
//!
//! ```
//! use spca_streams::ops::{CollectSink, GeneratorSource};
//! use spca_streams::{Engine, GraphBuilder, PortKind};
//!
//! let mut g = GraphBuilder::new();
//! let src = g.add_source(
//!     "gen",
//!     Box::new(
//!         GeneratorSource::new(|seq, values, _| {
//!             values.push(seq as f64);
//!             true
//!         })
//!         .with_max_tuples(10),
//!     ),
//! );
//! let (sink, store) = CollectSink::new();
//! let out = g.add_op("collect", Box::new(sink));
//! g.connect(src, 0, out, PortKind::Data);
//! let report = Engine::run(g);
//! assert_eq!(report.op("collect").unwrap().tuples_in, 10);
//! assert_eq!(spca_streams::lock(&store).len(), 10);
//! ```

pub mod backfill;
pub mod checkpoint;
pub mod codec;
pub mod csv;
pub mod engine;
pub mod fault;
pub mod graph;
pub mod membership;
pub mod metrics;
pub mod netio;
pub mod operator;
pub mod ops;
pub mod tuple;
pub mod vfs;
pub mod watched;

pub use backfill::{
    content_hash, run_partitions, BackfillStats, Partition, PartitionSource, StateStore,
};
pub use checkpoint::{Checkpoint, DEFAULT_CHECKPOINT_EVERY};
pub use codec::{decode_frame, encode_frame, register_control_codec, CodecError, ColumnarFrame};
pub use engine::{Engine, LinkReport, NetPartition, RunReport, RunningEngine};
pub use fault::{Fault, FaultAction, FaultPlan, FaultTarget, RestartPolicy, StorageDomain};
pub use graph::{GraphBuilder, OpId, PortKind, DEFAULT_BATCH_SIZE};
pub use membership::ActiveSet;
pub use netio::{AckMode, LinkIn, NetTransport, WireFaultSpec, WIRE_VERSION};
pub use operator::{OpContext, Operator, SourceState};
pub use tuple::{ControlTuple, DataTuple, Frame, Punctuation, RowRef, Rows, Tuple};
pub use vfs::{FaultVfs, IoFaultSpec, RealVfs, Vfs};
pub use watched::{lock, Watched};
