//! The stateful streaming-PCA operator (§III-A's custom C++ operator).
//!
//! "The stateful Streaming PCA operator stores the eigenvalues and
//! eigenvectors (the eigensystem) as well as other state variables as
//! class members. Upon receiving a new input tuple, its internal states
//! are continuously updated by computationally inexpensive algebraic
//! operations."
//!
//! Port layout (configured by the application builder):
//!
//! * output ports `0 .. n_peer_ports` — peer-state ports: on a sync
//!   command the operator sends its eigensystem out of the commanded
//!   subset of these.
//! * output port `n_peer_ports` — monitor port: periodic eigensystem
//!   snapshots (the paper's "intermediate calculation results are
//!   periodically saved to the disk") plus the final state on finish.
//! * output port `n_peer_ports + 1` — outcome port (optional feed of
//!   per-tuple `[seq, r², t, w, outlier]` rows, the in-flight results /
//!   outlier flags the introduction motivates; "often the goal is to flag
//!   outliers for further processing", §II-C).
//!
//! The operator state is guarded by a `std` mutex, taken through
//! [`spca_streams::lock`], as the paper guards its operator with an
//! InfoSphere mutex — the engine never calls one operator concurrently,
//! but the lock documents and enforces the invariant cheaply, and lets
//! diagnostics peek at live state.

use crate::messages::{
    Heartbeat, PeerState, SyncCommand, KIND_HEARTBEAT, KIND_PEER_STATE, KIND_SNAPSHOT,
    KIND_SYNC_COMMAND,
};
use crate::persist;
use spca_core::{merge, DeferredTail, PcaConfig, RobustPca};
use spca_streams::checkpoint::{decode_kv, encode_kv, kv_u64, Checkpoint};
use spca_streams::metrics::Counter;
use spca_streams::{lock, ControlTuple, OpContext, Operator, RowRef, Rows};
use std::sync::{Arc, Mutex};

/// Default heartbeat cadence in processed tuples (see
/// [`StreamingPcaOp::with_heartbeats_every`]): at 64 a heartbeat costs
/// one control tuple per transport batch of data.
pub const HEARTBEAT_EVERY: u64 = 64;

/// The streaming PCA operator.
pub struct StreamingPcaOp {
    /// Engine index within the application (used in message provenance).
    pub engine_id: u32,
    state: Arc<Mutex<RobustPca>>,
    n_peer_ports: usize,
    snapshot_every: u64,
    emit_outcomes: bool,
    /// Observations processed since the last synchronization share or
    /// merge — the paper's independence gate counter.
    obs_since_sync: u64,
    /// Gate threshold: share only when `obs_since_sync > 1.5 · N`.
    sync_gate: u64,
    /// Optional data-driven gate: share only when the subspace distance to
    /// the most recently received peer state exceeds this (None = always).
    divergence_gate: Option<f64>,
    /// Basis of the last peer state received, for the divergence check.
    last_peer: Option<spca_core::EigenSystem>,
    processed: u64,
    outliers_flagged: u64,
    dropped: u64,
    /// Non-finite observations rejected at the operator boundary. NaN/Inf
    /// payloads would otherwise contaminate the running sums irreversibly
    /// (a single NaN poisons every covariance estimate it touches), so
    /// they carry zero weight in the eigensystem and are only counted.
    quarantined: u64,
    merges_applied: u64,
    shares_sent: u64,
    /// Consent to a supervised restart (see [`Operator::recover`]). The
    /// PE checkpoints the operator at [`spca_streams::DEFAULT_CHECKPOINT_EVERY`]
    /// either way.
    recovery: bool,
    /// An engine with peers has a sync controller listening for it: a
    /// [`KIND_HEARTBEAT`] goes out on the monitor port at the first
    /// processed tuple and every `heartbeat_every` thereafter, feeding the
    /// controller's liveness tracker. An engine without peer ports has
    /// nobody to tell and sends none.
    heartbeat_every: u64,
    /// Serving-layer publication target: when set, the operator publishes
    /// an immutable snapshot of its eigensystem into the epoch store
    /// every `publish_every` processed tuples, after every merge, and at
    /// finish. The copy reuses recycled snapshot buffers, so steady-state
    /// publishing keeps the update path allocation-free.
    epoch_store: Option<Arc<crate::epoch::EpochStore>>,
    publish_every: u64,
    /// True once the first post-warm-up snapshot has been published, so
    /// serving opens as soon as the estimator initializes instead of at
    /// the next cadence boundary.
    published_once: bool,
}

impl StreamingPcaOp {
    /// Creates an engine with the given PCA configuration and `n_peer_ports`
    /// state outputs. The sync gate follows the paper: `1.5 · N` where
    /// `N = 1/(1−α)` (falls back to `u64::MAX` for α = 1, i.e. never
    /// independent, so never gated *open*... which would disable sync; for
    /// α = 1 the gate is instead pinned to `1.5 · init_size`).
    pub fn new(engine_id: u32, cfg: PcaConfig, n_peer_ports: usize) -> Self {
        // `ceil`, not truncation: the gate is compared with strict `>`, so
        // a truncated `(1.5 * mem) as u64` would let an engine share one
        // observation before `obs_since_sync > 1.5·N` actually holds
        // whenever 1.5·N is fractional (e.g. N = 3 → gate 4, shared at 5
        // observations instead of the required ⌈4.5⌉ = 5 → shared at 6).
        let mem = cfg.effective_memory();
        let sync_gate = if mem.is_finite() {
            (1.5 * mem).ceil() as u64
        } else {
            (1.5 * cfg.init_size as f64).ceil() as u64
        };
        StreamingPcaOp {
            engine_id,
            state: Arc::new(Mutex::new(RobustPca::new(cfg))),
            n_peer_ports,
            snapshot_every: 0,
            emit_outcomes: false,
            obs_since_sync: 0,
            sync_gate,
            divergence_gate: None,
            last_peer: None,
            processed: 0,
            outliers_flagged: 0,
            dropped: 0,
            quarantined: 0,
            merges_applied: 0,
            shares_sent: 0,
            recovery: false,
            heartbeat_every: HEARTBEAT_EVERY,
            epoch_store: None,
            publish_every: 0,
            published_once: false,
        }
    }

    /// Emits an eigensystem snapshot on the monitor port every `n` tuples
    /// (0 = only the final snapshot).
    pub fn with_snapshots_every(mut self, n: u64) -> Self {
        self.snapshot_every = n;
        self
    }

    /// Enables crash recovery: the operator consents to supervised
    /// restarts. The operator itself writes nothing — its state is one
    /// blob of the PE's snapshot manifest (the [`Checkpoint`] facet below),
    /// which needs a checkpoint dir on the graph; every restart restores
    /// from there.
    pub fn with_recovery(mut self) -> Self {
        self.recovery = true;
        self
    }

    /// Sets the liveness heartbeat cadence: one at the first processed
    /// tuple and one every `n` thereafter.
    pub fn with_heartbeats_every(mut self, n: u64) -> Self {
        assert!(n > 0, "heartbeat cadence must be positive");
        self.heartbeat_every = n;
        self
    }

    /// Enables the per-tuple outcome feed on the outcome port.
    pub fn with_outcomes(mut self) -> Self {
        self.emit_outcomes = true;
        self
    }

    /// Overrides the sync gate (tests / ablations).
    pub fn with_sync_gate(mut self, gate: u64) -> Self {
        self.sync_gate = gate;
        self
    }

    /// Enables the data-driven synchronization check (§I's "data-driven
    /// synchronization", §II-C's "the nodes verify every time that the
    /// eigensystems are statistically independent"): on a sync command,
    /// the engine shares only if its basis has drifted more than
    /// `threshold` (subspace distance) from the last peer state it saw.
    /// Engines that have never heard from a peer always share.
    pub fn with_divergence_gate(mut self, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold));
        self.divergence_gate = Some(threshold);
        self
    }

    /// Publishes epoch-numbered eigensystem snapshots into `store` every
    /// `every` processed tuples (plus after every merge and at finish),
    /// making the live eigensystem queryable by the serving layer. A
    /// cadence of 0 publishes only on initialization, merges, and finish.
    /// Prewarms the store's snapshot pool here (build time, off the
    /// update thread) so steady-state publishing never allocates and
    /// pool exhaustion sheds a publish instead of allocating.
    pub fn with_epoch_store(mut self, store: Arc<crate::epoch::EpochStore>, every: u64) -> Self {
        let (d, k) = {
            let st = lock(&self.state);
            let c = st.config();
            (c.dim, c.p_total())
        };
        store.prewarm(crate::epoch::PREWARM_PER_WRITER, d, k);
        self.epoch_store = Some(store);
        self.publish_every = every;
        self
    }

    /// Copies the current eigensystem into a recycled snapshot buffer and
    /// publishes it — allocation-free unconditionally: the pool is
    /// prewarmed, and if stalled readers have drained it the publish is
    /// shed (readers keep the previous epoch) rather than allocating on
    /// the update thread. The state lock covers only the copy; the
    /// pointer swap happens after release, so readers and the publish
    /// itself never touch the update hot path.
    fn publish_epoch(&mut self) {
        let Some(store) = &self.epoch_store else {
            return;
        };
        let Some(mut buf) = store.try_checkout() else {
            return; // pool drained by stalled readers: shed this publish
        };
        let filled = {
            let mut st = lock(&self.state);
            let p = st.config().p;
            match st.full_eigensystem() {
                Some(eig) => {
                    buf.eig.copy_from(eig);
                    buf.p = p;
                    true
                }
                None => false, // warm-up: nothing to serve yet
            }
        };
        if filled {
            store.publish(buf);
            self.published_once = true;
        } else {
            store.recycle(buf);
        }
    }

    /// Warm-starts the engine from a previously persisted eigensystem:
    /// the warm-up phase is skipped and streaming resumes from the given
    /// state. Fails if the state's shape does not match the configuration.
    pub fn with_initial_state(self, eig: spca_core::EigenSystem) -> spca_core::Result<Self> {
        lock(&self.state).install_eigensystem(eig)?;
        Ok(self)
    }

    /// Shared handle to the live PCA state (diagnostics).
    pub fn state_handle(&self) -> Arc<Mutex<RobustPca>> {
        Arc::clone(&self.state)
    }

    fn monitor_port(&self) -> usize {
        self.n_peer_ports
    }

    fn outcome_port(&self) -> usize {
        self.n_peer_ports + 1
    }

    fn snapshot(&self, ctx: &mut OpContext<'_>) {
        // The lock covers only the state read: clone the eigensystem (and
        // observation count) under it, then assemble the message and send
        // with the lock released, so a slow or blocking downstream port can
        // never stall the per-tuple update path of a concurrent reader.
        let (eigensystem, n_obs) = {
            let mut st = lock(&self.state);
            let n_obs = st.n_obs();
            match st.full_eigensystem() {
                Some(eig) => (eig.clone(), n_obs),
                None => return,
            }
        };
        let msg = PeerState {
            engine: self.engine_id,
            eigensystem,
            n_obs,
            shares_sent: self.shares_sent,
            merges_applied: self.merges_applied,
        };
        ctx.emit_control(
            self.monitor_port(),
            ControlTuple::new(KIND_SNAPSHOT, self.engine_id, Arc::new(msg)),
        );
    }

    fn heartbeat(&self, ctx: &mut OpContext<'_>) {
        let msg = Heartbeat {
            engine: self.engine_id,
            n_obs: self.processed,
        };
        ctx.emit_control(
            self.monitor_port(),
            ControlTuple::new(KIND_HEARTBEAT, self.engine_id, Arc::new(msg)),
        );
    }
}

impl StreamingPcaOp {
    /// The per-observation update, over a borrowed row: what
    /// `process_rows` does to each row of a frame.
    fn process_row(&mut self, tuple: RowRef<'_>, ctx: &mut OpContext<'_>) {
        // Dead-letter boundary: a NaN or Inf would poison the running sums
        // irreversibly, so non-finite observations never reach the state —
        // they are counted and contribute zero weight to the eigensystem.
        if !tuple.all_finite() {
            self.quarantined += 1;
            ctx.count(Counter::Quarantined);
            if self.quarantined <= 5 || self.quarantined.is_multiple_of(1000) {
                eprintln!(
                    "engine {}: quarantined non-finite tuple {} ({} so far)",
                    self.engine_id, tuple.seq, self.quarantined
                );
            }
            return;
        }
        let outcome = {
            let mut st = lock(&self.state);
            match tuple.mask {
                Some(mask) => st.update_masked(tuple.values, mask),
                None => st.update(tuple.values),
            }
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                // Malformed observations are data-quality events, not engine
                // failures: count and continue, like any production stream
                // processor. Log the first few and then once per thousand,
                // so a persistently dirty feed cannot flood stderr.
                self.dropped += 1;
                if self.dropped <= 5 || self.dropped.is_multiple_of(1000) {
                    eprintln!(
                        "engine {}: dropped tuple {} ({} dropped so far): {e}",
                        self.engine_id, tuple.seq, self.dropped
                    );
                }
                return;
            }
        };
        self.processed += 1;
        self.obs_since_sync += 1;
        if outcome.outlier {
            self.outliers_flagged += 1;
        }
        if self.emit_outcomes && outcome.initialized {
            let values = [
                tuple.seq as f64,
                outcome.residual_sq,
                outcome.scaled_residual,
                outcome.weight,
                if outcome.outlier { 1.0 } else { 0.0 },
            ];
            let row = RowRef {
                seq: tuple.seq,
                timestamp_ns: 0,
                values: &values,
                mask: None,
            };
            ctx.emit_row(self.outcome_port(), row);
        }
        if self.epoch_store.is_some()
            && outcome.initialized
            && (!self.published_once
                || (self.publish_every > 0 && self.processed.is_multiple_of(self.publish_every)))
        {
            self.publish_epoch();
        }
        if self.snapshot_every > 0 && self.processed.is_multiple_of(self.snapshot_every) {
            self.snapshot(ctx);
        }
        if self.n_peer_ports > 0
            && (self.processed == 1 || self.processed.is_multiple_of(self.heartbeat_every))
        {
            self.heartbeat(ctx);
        }
    }
}

impl Operator for StreamingPcaOp {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            self.process_row(row, ctx);
        }
    }

    fn on_control(&mut self, tuple: ControlTuple, ctx: &mut OpContext<'_>) {
        match tuple.kind {
            KIND_SYNC_COMMAND => {
                // Independence gate (§II-C): share only when enough new
                // observations have accumulated since the last exchange.
                // Counted as a sync skip: after a supervised restart the
                // gate holds the engine out of the exchange protocol until
                // it has re-earned statistical independence, and the skip
                // count is how the run report makes that visible.
                if self.obs_since_sync <= self.sync_gate {
                    ctx.count(Counter::SyncSkips);
                    return;
                }
                let Some(cmd) = tuple.payload_as::<SyncCommand>() else {
                    return;
                };
                // Lock scope: the divergence check and the eigensystem
                // clone only. Message assembly and the port sends happen
                // after release (sends can block on backpressure; holding
                // the state lock there would couple downstream congestion
                // to the update hot path).
                let (eigensystem, n_obs) = {
                    let mut st = lock(&self.state);
                    let n_obs = st.n_obs();
                    let Some(own) = st.full_eigensystem() else {
                        return;
                    };
                    // Data-driven gate: skip the exchange when this engine's
                    // estimate still agrees with what its peers last
                    // reported — nothing informative to send.
                    if let (Some(threshold), Some(peer)) = (self.divergence_gate, &self.last_peer) {
                        match spca_core::metrics::subspace_distance(&own.basis, &peer.basis) {
                            Ok(d) if d <= threshold => return,
                            _ => {}
                        }
                    }
                    (own.clone(), n_obs)
                };
                let payload: Arc<PeerState> = Arc::new(PeerState {
                    engine: self.engine_id,
                    eigensystem,
                    n_obs,
                    shares_sent: self.shares_sent,
                    merges_applied: self.merges_applied,
                });
                for &port in &cmd.share_ports {
                    if port < self.n_peer_ports {
                        ctx.emit_control(
                            port,
                            ControlTuple::new(
                                KIND_PEER_STATE,
                                self.engine_id,
                                Arc::clone(&payload) as Arc<_>,
                            ),
                        );
                        self.shares_sent += 1;
                    }
                }
                self.obs_since_sync = 0;
            }
            KIND_PEER_STATE => {
                let Some(peer) = tuple.payload_as::<PeerState>() else {
                    return;
                };
                self.last_peer = Some(peer.eigensystem.clone());
                let mut st = lock(&self.state);
                let merged = match st.full_eigensystem() {
                    Some(own) => merge(own, &peer.eigensystem),
                    // Not initialized yet: adopt the peer's state outright.
                    None => Ok(peer.eigensystem.clone()),
                };
                let merged_ok = match merged.and_then(|m| st.install_eigensystem(m)) {
                    Ok(()) => {
                        self.merges_applied += 1;
                        // A merge resets the independence clock too.
                        self.obs_since_sync = 0;
                        true
                    }
                    Err(e) => {
                        eprintln!(
                            "engine {}: rejected peer state from {}: {e}",
                            self.engine_id, peer.engine
                        );
                        false
                    }
                };
                drop(st);
                // A merge changes the served estimate discontinuously, so
                // the serving layer gets the new state immediately.
                if merged_ok {
                    self.publish_epoch();
                }
            }
            _ => {}
        }
    }

    fn on_finish(&mut self, ctx: &mut OpContext<'_>) {
        self.snapshot(ctx);
        self.publish_epoch();
    }

    /// Supervised-restart hook. Without recovery the operator declines the
    /// restart (returns `false`) and the supervisor finishes it — losing
    /// state silently would be worse than dying visibly. With it the
    /// operator consents and resets to its configuration: the supervisor
    /// then overlays the engine's blob from the PE manifest (state and
    /// counters together, see [`Checkpoint::restore`] below), and when no
    /// generation holds one yet — a crash before the first cadence tick —
    /// the engine restarts fresh.
    fn recover(&mut self, attempt: u64) -> bool {
        if !self.recovery {
            return false;
        }
        {
            let mut st = lock(&self.state);
            *st = RobustPca::new(st.config().clone());
        }
        self.processed = 0;
        // The restart re-enters the exchange protocol from scratch: the
        // independence gate must pass again before the engine shares, and
        // any remembered peer state predates the crash.
        self.obs_since_sync = 0;
        self.last_peer = None;
        eprintln!("engine {}: restart #{attempt}", self.engine_id);
        true
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

/// Marker line separating the counter header from the embedded eigensystem
/// (absent while the operator is still warming up).
const EIG_MARKER: &[u8] = b"eigensystem\n";

/// Marker line after the eigensystem when the estimator's basis has a
/// deferred tail: the eigensystem then carries `E₀`, and the tail's rows
/// ([`persist::encode_tail`]) follow.
const TAIL_MARKER: &[u8] = b"deferred\n";

/// Universal-checkpoint facet: the counters as a key-value header, followed
/// by the eigensystem in the same self-describing text format as the
/// on-disk snapshots ([`persist::encode_snapshot`]), so a PE-manifest blob
/// is inspectable with a text editor exactly like a standalone snapshot.
/// The eigensystem is the estimator's own state, not a materialised `E`:
/// its basis is `E₀`, the basis at the last fold, and the deferred tail
/// since then (the residual columns and `M`) follows, so a restore resumes
/// the same arithmetic bit for bit. With nothing pending the blob is the
/// header and the eigensystem alone. `last_peer` is deliberately not
/// captured: like a supervised restart, a restored engine forgets
/// pre-crash peer gossip and re-earns it.
impl Checkpoint for StreamingPcaOp {
    fn snapshot(&self) -> Vec<u8> {
        let mut out = encode_kv(&[
            ("processed", self.processed.to_string()),
            ("obs_since_sync", self.obs_since_sync.to_string()),
            ("outliers_flagged", self.outliers_flagged.to_string()),
            ("dropped", self.dropped.to_string()),
            ("quarantined", self.quarantined.to_string()),
            ("merges_applied", self.merges_applied.to_string()),
            ("shares_sent", self.shares_sent.to_string()),
        ]);
        // The lock covers the copy; encoding happens after release.
        let state = {
            let st = lock(&self.state);
            st.deferred_state().map(|(eig, tail)| {
                let tail = tail.map(|t| (t.residuals.to_vec(), t.mixing.to_vec()));
                (eig.clone(), tail)
            })
        };
        if let Some((eig, tail)) = state {
            out.extend_from_slice(EIG_MARKER);
            out.extend_from_slice(&persist::encode_snapshot(&eig));
            if let Some((residuals, mixing)) = tail {
                let tail = DeferredTail {
                    residuals: &residuals,
                    mixing: &mixing,
                };
                out.extend_from_slice(TAIL_MARKER);
                out.extend_from_slice(&persist::encode_tail(&tail, eig.dim()));
            }
        }
        out
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        // Split at the marker lines: kv header, eigensystem, deferred tail.
        let split = |bytes: &'_ [u8], marker: &[u8]| -> Option<(usize, usize)> {
            if bytes.starts_with(marker) {
                return Some((0, marker.len()));
            }
            let pat = [b"\n", marker].concat();
            let pos = bytes.windows(pat.len()).position(|w| w == pat)?;
            Some((pos + 1, pos + pat.len()))
        };
        let (head, eig_bytes) = match split(bytes, EIG_MARKER) {
            Some((end, start)) => (&bytes[..end], Some(&bytes[start..])),
            None => (bytes, None),
        };
        let kv = decode_kv(head)?;
        let cfg = lock(&self.state).config().clone();
        let mut fresh = RobustPca::new(cfg);
        if let Some(eig_bytes) = eig_bytes {
            let (eig_bytes, tail_bytes) = match split(eig_bytes, TAIL_MARKER) {
                Some((end, start)) => (&eig_bytes[..end], Some(&eig_bytes[start..])),
                None => (eig_bytes, None),
            };
            let eig = persist::decode_snapshot(eig_bytes)?;
            let tail = tail_bytes
                .map(|t| persist::decode_tail(t, eig.dim()))
                .transpose()?;
            let tail = tail
                .as_ref()
                .map(|(residuals, mixing)| DeferredTail { residuals, mixing });
            fresh
                .install_deferred(eig, tail)
                .map_err(|e| bad(&format!("checkpoint does not fit the configuration: {e}")))?;
        }
        self.processed = kv_u64(&kv, "processed")?;
        self.obs_since_sync = kv_u64(&kv, "obs_since_sync")?;
        self.outliers_flagged = kv_u64(&kv, "outliers_flagged")?;
        self.dropped = kv_u64(&kv, "dropped")?;
        self.quarantined = kv_u64(&kv, "quarantined")?;
        self.merges_applied = kv_u64(&kv, "merges_applied")?;
        self.shares_sent = kv_u64(&kv, "shares_sent")?;
        self.last_peer = None;
        *lock(&self.state) = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spca_spectra::PlantedSubspace;
    use spca_streams::operator::testing::{feed_tuple, with_ctx, with_sink, CaptureSink};
    use spca_streams::{DataTuple, Tuple};
    use std::sync::TryLockError;

    const D: usize = 16;

    fn cfg() -> PcaConfig {
        PcaConfig::new(D, 2)
            .with_memory(200)
            .with_init_size(20)
            .with_extra(0)
    }

    fn feed(op: &mut StreamingPcaOp, n: usize, seed: u64) -> u64 {
        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(seed);
        with_ctx(op.n_peer_ports + 2, |ctx| {
            for seq in 0..n {
                feed_tuple(op, DataTuple::new(seq as u64, w.sample(&mut rng)), ctx);
            }
        });
        op.processed
    }

    #[test]
    fn operator_learns_subspace() {
        let mut op = StreamingPcaOp::new(0, cfg(), 1);
        feed(&mut op, 1000, 1);
        let st = op.state_handle();
        let mut guard = lock(&st);
        assert!(guard.is_initialized());
        let eig = guard.eigensystem();
        let dist = spca_core::metrics::subspace_distance(
            &eig.basis,
            PlantedSubspace::new(D, 2, 0.05).basis(),
        )
        .unwrap();
        assert!(dist < 0.2, "distance {dist}");
    }

    #[test]
    fn sync_command_gated_until_enough_observations() {
        let mut op = StreamingPcaOp::new(0, cfg(), 1); // gate = 1.5·200 = 300
        feed(&mut op, 100, 2);
        let sink = with_ctx(3, |ctx| {
            op.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
        });
        assert!(
            sink.ports[0].is_empty(),
            "gate should have blocked the share"
        );
        assert_eq!(op.shares_sent, 0);
    }

    #[test]
    fn sync_gate_boundary_rounds_up_never_down() {
        // `with_memory(N)` stores α = 1 − 1/N; recovering N = 1/(1−α) in
        // floats can land a hair *below* the integer (e.g. 4999.999…), so a
        // truncating cast would yield gate 1.5·N − 1 and the strict `>`
        // comparison would admit a share one observation early. `ceil`
        // pins the gate at ≥ 1.5·N for every memory value.
        for mem in [3usize, 7, 200, 5000, 9999] {
            let c = PcaConfig::new(D, 2).with_memory(mem).with_init_size(20);
            let op = StreamingPcaOp::new(0, c, 1);
            let exact = 1.5 * mem as f64;
            assert!(
                (op.sync_gate as f64) >= exact - 1e-6,
                "memory {mem}: gate {} fell below 1.5·N = {exact}",
                op.sync_gate
            );
            assert!(
                (op.sync_gate as f64) <= exact + 1.0,
                "memory {mem}: gate {} overshot 1.5·N = {exact} by > 1",
                op.sync_gate
            );
        }
        // Fractional boundary pinned exactly: N = 3 → 1.5·N = 4.5 → gate 5.
        let op = StreamingPcaOp::new(0, PcaConfig::new(D, 2).with_memory(3), 1);
        assert_eq!(op.sync_gate, 5, "⌈4.5⌉ = 5, truncation would give 4");
        // Exact-integer boundary unchanged: N = 200 → gate 300, and a share
        // at obs_since_sync = 300 is still blocked (strict `>`).
        let mut op = StreamingPcaOp::new(0, cfg(), 1);
        assert_eq!(op.sync_gate, 300);
        feed(&mut op, 300, 21);
        op.obs_since_sync = 300;
        let sink = with_ctx(3, |ctx| {
            op.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
        });
        assert!(sink.ports[0].is_empty(), "obs == gate must stay gated");
        assert_eq!(op.shares_sent, 0);
    }

    #[test]
    fn sync_command_shares_after_gate_passes() {
        let mut op = StreamingPcaOp::new(0, cfg(), 2);
        feed(&mut op, 400, 3); // beyond the 300 gate
        let sink = with_ctx(4, |ctx| {
            op.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![1],
                    }),
                ),
                ctx,
            );
        });
        assert!(sink.ports[0].is_empty());
        assert_eq!(sink.ports[1].len(), 1);
        match &sink.ports[1][0] {
            Tuple::Control(c) => {
                assert_eq!(c.kind, KIND_PEER_STATE);
                let st = c.payload_as::<PeerState>().unwrap();
                assert_eq!(st.engine, 0);
                assert_eq!(st.eigensystem.dim(), D);
            }
            other => panic!("expected control tuple, got {other:?}"),
        }
        assert_eq!(op.obs_since_sync, 0, "share resets the gate clock");
    }

    #[test]
    fn peer_state_merges_into_local() {
        let mut a = StreamingPcaOp::new(0, cfg(), 1);
        let mut b = StreamingPcaOp::new(1, cfg(), 1);
        feed(&mut a, 500, 4);
        feed(&mut b, 500, 5);
        let sb = b.state_handle();
        let peer = PeerState {
            engine: 1,
            eigensystem: lock(&sb).full_eigensystem().unwrap().clone(),
            n_obs: 500,
            shares_sent: 0,
            merges_applied: 0,
        };
        let n_before = lock(&a.state_handle()).full_eigensystem().unwrap().n_obs;
        with_ctx(3, |ctx| {
            a.on_control(ControlTuple::new(KIND_PEER_STATE, 1, Arc::new(peer)), ctx);
        });
        assert_eq!(a.merges_applied, 1);
        let after = lock(&a.state_handle()).full_eigensystem().unwrap().clone();
        assert_eq!(after.n_obs, n_before + 500, "merge sums observation counts");
        after.check_invariants().unwrap();
    }

    #[test]
    fn outcome_feed_reports_outliers() {
        let mut op = StreamingPcaOp::new(0, cfg(), 0).with_outcomes();
        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(6);
        let sink = with_ctx(2, |ctx| {
            for seq in 0..300u64 {
                feed_tuple(&mut op, DataTuple::new(seq, w.sample(&mut rng)), ctx);
            }
            // A gross outlier.
            let mut spike = vec![0.0; D];
            spike[7] = 500.0;
            feed_tuple(&mut op, DataTuple::new(300, spike), ctx);
        });
        let outcomes = sink.data_at(1);
        assert!(!outcomes.is_empty());
        let last = outcomes.last().unwrap();
        assert_eq!(last.seq, 300);
        assert_eq!(
            last.values[4], 1.0,
            "outlier flag expected: {:?}",
            last.values
        );
        assert!(op.outliers_flagged >= 1);
    }

    #[test]
    fn final_snapshot_on_finish() {
        let mut op = StreamingPcaOp::new(2, cfg(), 0);
        feed(&mut op, 100, 7);
        let sink = with_ctx(2, |ctx| op.on_finish(ctx));
        assert_eq!(sink.ports[0].len(), 1);
        match &sink.ports[0][0] {
            Tuple::Control(c) => assert_eq!(c.kind, KIND_SNAPSHOT),
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn divergence_gate_suppresses_redundant_shares() {
        // Engine whose state matches its peer's must not share; an engine
        // that drifted must.
        let mut a = StreamingPcaOp::new(0, cfg(), 1).with_divergence_gate(0.2);
        feed(&mut a, 800, 30); // past the 1.5N gate of 300
                               // Tell it about a peer that has the SAME state (itself).
        let own = lock(&a.state_handle()).full_eigensystem().unwrap().clone();
        let same_peer = PeerState {
            engine: 1,
            eigensystem: own,
            n_obs: 800,
            shares_sent: 0,
            merges_applied: 0,
        };
        with_ctx(3, |ctx| {
            a.on_control(
                ControlTuple::new(KIND_PEER_STATE, 1, Arc::new(same_peer)),
                ctx,
            );
        });
        // Accumulate past the obs gate again (the merge reset it).
        feed(&mut a, 400, 31);
        let sink = with_ctx(3, |ctx| {
            a.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
        });
        assert!(
            sink.ports[0].is_empty(),
            "share should be suppressed when agreeing with the peer"
        );

        // Now hand it a peer living on a different subspace: divergence
        // check must open the gate. (Merging rotates our state toward the
        // peer, so inject the peer as `last_peer` via a fresh op and feed
        // it data from a different plane.)
        let mut b = StreamingPcaOp::new(2, cfg(), 1).with_divergence_gate(0.2);
        feed(&mut b, 800, 32);
        let mut off_basis = spca_core::EigenSystem::zeros(D, 2);
        off_basis.basis[(D - 1, 0)] = 1.0;
        off_basis.basis[(D - 2, 1)] = 1.0;
        off_basis.values = vec![1.0, 0.5];
        off_basis.sum_v = 1e-9; // negligible weight: merge barely moves us
        let far_peer = PeerState {
            engine: 3,
            eigensystem: off_basis,
            n_obs: 1,
            shares_sent: 0,
            merges_applied: 0,
        };
        with_ctx(3, |ctx| {
            b.on_control(
                ControlTuple::new(KIND_PEER_STATE, 3, Arc::new(far_peer)),
                ctx,
            );
        });
        feed(&mut b, 400, 33);
        let sink = with_ctx(3, |ctx| {
            b.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
        });
        assert_eq!(sink.ports[0].len(), 1, "divergent engine must share");
    }

    #[test]
    fn state_lock_never_held_across_port_sends() {
        // Port sends can block on downstream backpressure; the operator
        // must have released its state mutex by then or a congested output
        // would stall every reader of the live state. The capture sink's
        // emit hook checks the mutex at the exact moment of each send,
        // across all emitting paths: outcome feed, periodic snapshot,
        // sync-command share, and the final snapshot.
        let mut op = StreamingPcaOp::new(0, cfg(), 1)
            .with_outcomes()
            .with_snapshots_every(50)
            .with_sync_gate(0);
        let handle = op.state_handle();
        let mut sink = CaptureSink::new(op.n_peer_ports + 2);
        let watched = Arc::clone(&handle);
        sink.on_emit = Some(Box::new(move |port, _| {
            assert!(
                !matches!(watched.try_lock(), Err(TryLockError::WouldBlock)),
                "state mutex held during send on port {port}"
            );
        }));
        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(8);
        with_sink(&mut sink, |ctx| {
            for seq in 0..400u64 {
                feed_tuple(&mut op, DataTuple::new(seq, w.sample(&mut rng)), ctx);
            }
            op.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
            op.on_finish(ctx);
        });
        // Every path must actually have emitted, or the hook proved nothing.
        assert!(!sink.ports[0].is_empty(), "peer share expected");
        assert!(
            sink.ports[1].len() >= 2,
            "periodic + final snapshots expected"
        );
        assert!(!sink.ports[2].is_empty(), "outcome feed expected");
    }

    #[test]
    fn malformed_tuple_dropped_not_fatal() {
        let mut op = StreamingPcaOp::new(0, cfg(), 0);
        with_ctx(2, |ctx| {
            feed_tuple(&mut op, DataTuple::new(0, vec![1.0; 3]), ctx); // wrong dim
        });
        assert_eq!(op.processed, 0);
    }

    fn assert_eig_bits_equal(a: &spca_core::EigenSystem, b: &spca_core::EigenSystem) {
        assert_eq!(a.n_obs, b.n_obs);
        assert_eq!(a.sigma2.to_bits(), b.sigma2.to_bits());
        assert_eq!(a.sum_u.to_bits(), b.sum_u.to_bits());
        assert_eq!(a.sum_v.to_bits(), b.sum_v.to_bits());
        assert_eq!(a.sum_q.to_bits(), b.sum_q.to_bits());
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.mean.iter().zip(&b.mean) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.basis.sub(&b.basis).unwrap().max_abs(), 0.0);
    }

    #[test]
    fn nan_tuples_quarantined_and_eigensystem_bit_identical() {
        // The regression the dead-letter boundary exists for: a stream
        // with NaN/Inf tuples interleaved must yield the *bit-identical*
        // eigensystem of the clean stream — zero weight, not "almost no"
        // weight.
        use spca_streams::metrics::OpCounters;
        use spca_streams::operator::testing::with_sink_counters;

        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut clean = StreamingPcaOp::new(0, cfg(), 0);
        let mut dirty = StreamingPcaOp::new(0, cfg(), 0);

        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<Vec<f64>> = (0..600).map(|_| w.sample(&mut rng)).collect();

        with_ctx(2, |ctx| {
            for (seq, s) in samples.iter().enumerate() {
                feed_tuple(&mut clean, DataTuple::new(seq as u64, s.clone()), ctx);
            }
        });

        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(2);
        with_sink_counters(&mut sink, &counters, |ctx| {
            for (seq, s) in samples.iter().enumerate() {
                feed_tuple(&mut dirty, DataTuple::new(seq as u64, s.clone()), ctx);
                if seq % 100 == 7 {
                    let mut bad = vec![0.0; D];
                    bad[seq % D] = if seq % 200 == 7 {
                        f64::NAN
                    } else {
                        f64::INFINITY
                    };
                    feed_tuple(&mut dirty, DataTuple::new(10_000 + seq as u64, bad), ctx);
                }
            }
        });

        assert_eq!(dirty.quarantined, 6);
        assert_eq!(counters.snapshot().get(Counter::Quarantined), 6);
        assert_eq!(dirty.processed, clean.processed);
        let a = clean.state_handle();
        let b = dirty.state_handle();
        let (mut ga, mut gb) = (lock(&a), lock(&b));
        assert_eig_bits_equal(
            ga.full_eigensystem().unwrap(),
            gb.full_eigensystem().unwrap(),
        );
    }

    #[test]
    fn gated_sync_command_counts_a_skip() {
        use spca_streams::metrics::OpCounters;
        use spca_streams::operator::testing::with_sink_counters;
        let mut op = StreamingPcaOp::new(0, cfg(), 1); // gate = 300
        feed(&mut op, 100, 12);
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(3);
        with_sink_counters(&mut sink, &counters, |ctx| {
            op.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
        });
        assert!(sink.ports[0].is_empty());
        assert_eq!(counters.snapshot().get(Counter::SyncSkips), 1);
    }

    #[test]
    fn heartbeats_on_monitor_port() {
        let mut op = StreamingPcaOp::new(3, cfg(), 1).with_heartbeats_every(50);
        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(13);
        let sink = with_ctx(3, |ctx| {
            for seq in 0..120u64 {
                feed_tuple(&mut op, DataTuple::new(seq, w.sample(&mut rng)), ctx);
            }
        });
        // Beats at processed 1, 50 and 100.
        let beats: Vec<_> = sink.ports[1]
            .iter()
            .filter_map(|t| match t {
                Tuple::Control(c) if c.kind == KIND_HEARTBEAT => {
                    Some(*c.payload_as::<Heartbeat>().unwrap())
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            beats,
            vec![
                Heartbeat {
                    engine: 3,
                    n_obs: 1
                },
                Heartbeat {
                    engine: 3,
                    n_obs: 50
                },
                Heartbeat {
                    engine: 3,
                    n_obs: 100
                },
            ]
        );
    }

    #[test]
    fn recover_without_snapshot_restarts_fresh() {
        // What `recover` itself does: consent and reset. Any state comes
        // back through `restore`, from the supervisor.
        let mut op = StreamingPcaOp::new(6, cfg(), 0).with_recovery();
        feed(&mut op, 80, 16);
        op.obs_since_sync = 37;
        assert!(op.recover(1));
        assert_eq!(op.processed, 0);
        assert_eq!(op.obs_since_sync, 0);
        assert!(op.last_peer.is_none());
        assert!(!lock(&op.state_handle()).is_initialized());
    }

    #[test]
    fn universal_checkpoint_round_trips_state_and_counters_bit_exactly() {
        let mut op = StreamingPcaOp::new(4, cfg(), 1);
        feed(&mut op, 500, 18);
        op.obs_since_sync = 123;
        op.shares_sent = 2;
        let before = lock(&op.state_handle()).full_eigensystem().unwrap().clone();
        let bytes = Checkpoint::snapshot(&op);

        let mut fresh = StreamingPcaOp::new(4, cfg(), 1);
        fresh.restore(&bytes).unwrap();
        assert_eq!(fresh.processed, 500);
        assert_eq!(fresh.obs_since_sync, 123);
        assert_eq!(fresh.shares_sent, 2);
        assert!(fresh.last_peer.is_none());
        let after = lock(&fresh.state_handle())
            .full_eigensystem()
            .unwrap()
            .clone();
        assert_eig_bits_equal(&before, &after);
    }

    /// Feeds `rows` one tuple at a time (sequence numbers from `first`),
    /// calling `after` on the operator after each.
    fn feed_each(
        op: &mut StreamingPcaOp,
        rows: &[Vec<f64>],
        first: usize,
        mut after: impl FnMut(&mut StreamingPcaOp),
    ) {
        for (i, x) in rows.iter().enumerate() {
            with_ctx(op.n_peer_ports + 2, |ctx| {
                feed_tuple(op, DataTuple::new((first + i) as u64, x.clone()), ctx);
            });
            after(op);
        }
    }

    fn planted_rows(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| w.sample(&mut rng)).collect()
    }

    /// Residual columns pending in the estimator's deferred basis.
    fn pending_columns(op: &StreamingPcaOp) -> usize {
        let handle = op.state_handle();
        let st = lock(&handle);
        let (eig, tail) = st.deferred_state().expect("initialized");
        tail.map_or(0, |t| t.residuals.len() / eig.dim())
    }

    #[test]
    fn readers_never_change_a_later_bit() {
        // Every reader — the full eigensystem, the truncated one, the
        // checkpoint — after every row of one run, none in the other: the
        // two end bit-identical, blob for blob.
        let rows = planted_rows(300, 41);
        let mut quiet = StreamingPcaOp::new(0, cfg(), 1);
        feed_each(&mut quiet, &rows, 0, |_| {});
        let mut read = StreamingPcaOp::new(0, cfg(), 1);
        feed_each(&mut read, &rows, 0, |op| {
            let st = op.state_handle();
            let mut st = lock(&st);
            if st.is_initialized() {
                let _ = st.full_eigensystem();
                let _ = st.eigensystem();
            }
            drop(st);
            let _ = Checkpoint::snapshot(op);
        });
        assert_eq!(Checkpoint::snapshot(&quiet), Checkpoint::snapshot(&read));
        assert_eig_bits_equal(
            lock(&quiet.state_handle()).full_eigensystem().unwrap(),
            lock(&read.state_handle()).full_eigensystem().unwrap(),
        );
    }

    #[test]
    fn checkpoint_with_a_deferred_tail_resumes_bit_for_bit() {
        let rows = planted_rows(400, 42);
        let mut whole = StreamingPcaOp::new(0, cfg(), 1);
        feed_each(&mut whole, &rows, 0, |_| {});

        // Cut where residual columns are pending (j > 0).
        let mut first = StreamingPcaOp::new(0, cfg(), 1);
        let mut cut = 100;
        feed_each(&mut first, &rows[..cut], 0, |_| {});
        while pending_columns(&first) == 0 {
            feed_each(&mut first, &rows[cut..cut + 1], cut, |_| {});
            cut += 1;
        }
        let bytes = Checkpoint::snapshot(&first);
        let pat = [b"\n", TAIL_MARKER].concat();
        assert!(
            bytes.windows(pat.len()).any(|w| w == pat),
            "no deferred tail in the blob"
        );

        // A tail missing a residual row does not fit its M: refused.
        let last_row = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap();
        let mut torn = StreamingPcaOp::new(0, cfg(), 1);
        let err = torn.restore(&bytes[..last_row + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        let mut resumed = StreamingPcaOp::new(0, cfg(), 1);
        resumed.restore(&bytes).unwrap();
        assert_eq!(Checkpoint::snapshot(&resumed), bytes);
        feed_each(&mut resumed, &rows[cut..], cut, |_| {});
        assert_eq!(Checkpoint::snapshot(&resumed), Checkpoint::snapshot(&whole));
        assert_eig_bits_equal(
            lock(&resumed.state_handle()).full_eigensystem().unwrap(),
            lock(&whole.state_handle()).full_eigensystem().unwrap(),
        );
    }

    #[test]
    fn folded_checkpoint_is_the_header_and_the_eigensystem_alone() {
        // With E = E₀ (j = 0, M = I) the blob has no tail: the counters,
        // the marker and the snapshot text of the materialised state.
        let mut op = StreamingPcaOp::new(0, cfg(), 1);
        feed(&mut op, 300, 43);
        let eig = lock(&op.state_handle()).full_eigensystem().unwrap().clone();
        lock(&op.state_handle())
            .install_eigensystem(eig.clone())
            .unwrap();
        let mut want = encode_kv(&[
            ("processed", "300".to_string()),
            ("obs_since_sync", op.obs_since_sync.to_string()),
            ("outliers_flagged", op.outliers_flagged.to_string()),
            ("dropped", "0".to_string()),
            ("quarantined", "0".to_string()),
            ("merges_applied", "0".to_string()),
            ("shares_sent", "0".to_string()),
        ]);
        want.extend_from_slice(EIG_MARKER);
        want.extend_from_slice(&persist::encode_snapshot(&eig));
        assert_eq!(Checkpoint::snapshot(&op), want);
    }

    #[test]
    fn warmup_checkpoint_carries_counters_but_no_eigensystem() {
        let mut op = StreamingPcaOp::new(4, cfg(), 0);
        feed(&mut op, 5, 19); // still inside the init-20 warm-up
        let bytes = Checkpoint::snapshot(&op);
        let mut fresh = StreamingPcaOp::new(4, cfg(), 0);
        fresh.restore(&bytes).unwrap();
        assert_eq!(fresh.processed, 5);
        assert!(!lock(&fresh.state_handle()).is_initialized());
    }

    #[test]
    fn a_pe_holding_an_engine_with_recovery_checkpoints_every_default_cadence() {
        use spca_streams::checkpoint::recover_pe_manifest;
        use spca_streams::ops::CallbackSink;
        use spca_streams::{Engine, GraphBuilder, OpContext, PortKind, SourceState};

        // Not checkpointable, so the engine alone sets its PE's cadence;
        // one-row frames, so the PE looks at it after every row.
        struct Rows {
            left: u64,
            w: PlantedSubspace,
            rng: StdRng,
        }
        impl Operator for Rows {
            fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
                if self.left == 0 {
                    return SourceState::Done;
                }
                self.left -= 1;
                let x = self.w.sample(&mut self.rng);
                ctx.emit_row(0, DataTuple::new(self.left, x).row());
                SourceState::Emitted
            }
        }

        let every = spca_streams::DEFAULT_CHECKPOINT_EVERY;
        let dir = std::env::temp_dir().join(format!("spca-pca-cadence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = GraphBuilder::new()
            .with_checkpoint_dir(&dir)
            .with_batch_size(1);
        let src = g.add_source(
            "rows",
            Box::new(Rows {
                left: 3 * every + every / 2,
                w: PlantedSubspace::new(D, 2, 0.05),
                rng: StdRng::seed_from_u64(23),
            }),
        );
        let pca = g.add_op(
            "pca-0",
            Box::new(StreamingPcaOp::new(0, cfg(), 0).with_recovery()),
        );
        let monitor = g.add_op(
            "monitor",
            Box::new(CallbackSink::with_control(|_| {}, |_| {})),
        );
        g.connect(src, 0, pca, PortKind::Data);
        g.connect(pca, 0, monitor, PortKind::Control);
        g.fuse(&[src, pca]);
        Engine::run(g);

        // The last generation is the third cadence tick; the half cadence
        // after it is in no generation.
        let set = recover_pe_manifest(&dir, 0).set.expect("a generation");
        let (_, blob) = set
            .iter()
            .find(|(name, _)| name == "pca-0")
            .expect("the engine's blob");
        let mut restored = StreamingPcaOp::new(0, cfg(), 0);
        restored.restore(blob).unwrap();
        assert_eq!(restored.processed, 3 * every);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_without_recovery_dir_declines() {
        let mut op = StreamingPcaOp::new(7, cfg(), 0);
        feed(&mut op, 50, 17);
        assert!(
            !op.recover(1),
            "no recovery cadence: decline and be finished"
        );
    }
}
