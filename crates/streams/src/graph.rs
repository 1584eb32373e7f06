//! Dataflow graph construction: operators, edges, fusion, placement.
//!
//! Fusion follows the paper's optimization story (§III-A/§III-D): operators
//! fused into one processing element (PE) exchange tuples "by pointer as a
//! variable in memory instead of using a network", while cross-PE edges go
//! through bounded queues with traffic accounting (and an optional modeled
//! link latency, for single-machine demonstrations of distributed
//! behaviour). Placement assigns PEs to logical cluster nodes — on a real
//! deployment that drives process placement; here it labels metrics and
//! feeds the cluster simulator.

use crate::fault::{FaultPlan, RestartPolicy};
use crate::operator::Operator;

/// Identifies an operator within a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub(crate) usize);

/// Which input port of the target an edge feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortKind {
    /// The primary data port.
    Data,
    /// The control port.
    Control,
}

/// Transport characteristics of an edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkKind {
    /// Same-node queue hand-off.
    Local,
    /// Cross-node link: traffic is accounted and, if `model_delay_us > 0`,
    /// each channel message blocks the sender for that many microseconds —
    /// a deliberately simple stand-in for the fixed per-message
    /// syscall/framing/wakeup cost of a real link (the cluster simulator's
    /// per-message send/receive terms are the calibrated version). With the
    /// frame transport a message carries a whole batch, so batching
    /// amortizes this overhead exactly as it would on the wire; at batch
    /// size 1 it degenerates to the legacy per-tuple charge.
    Network {
        /// Per-message sender-side overhead in microseconds.
        model_delay_us: u64,
    },
}

pub(crate) struct OpEntry {
    pub name: String,
    pub op: Box<dyn Operator>,
    pub is_source: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Edge {
    pub from: usize,
    pub out_port: usize,
    pub to: usize,
    pub port: PortKind,
    pub kind: LinkKind,
}

/// Builder for a dataflow graph.
#[derive(Default)]
pub struct GraphBuilder {
    pub(crate) ops: Vec<OpEntry>,
    pub(crate) edges: Vec<Edge>,
    /// Union-find parent for fusion groups.
    fuse_parent: Vec<usize>,
    pub(crate) placements: Vec<Option<usize>>,
    pub(crate) channel_capacity: usize,
    pub(crate) batch_size: usize,
    pub(crate) inter_node_delay_us: u64,
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) restart_policy: RestartPolicy,
    pub(crate) checkpoint_dir: Option<std::path::PathBuf>,
    pub(crate) vfs: Option<std::sync::Arc<dyn crate::vfs::Vfs>>,
}

/// Default cross-PE transport batch size (tuples per frame).
pub const DEFAULT_BATCH_SIZE: usize = 64;

impl GraphBuilder {
    /// An empty graph with the default cross-PE channel capacity (1024)
    /// and transport batch size ([`DEFAULT_BATCH_SIZE`]).
    pub fn new() -> Self {
        GraphBuilder {
            channel_capacity: 1024,
            batch_size: DEFAULT_BATCH_SIZE,
            ..Default::default()
        }
    }

    /// Sets the bounded capacity of cross-PE channels (backpressure depth).
    pub fn with_channel_capacity(mut self, cap: usize) -> Self {
        assert!(cap >= 1);
        self.channel_capacity = cap;
        self
    }

    /// Sets the cross-PE transport batch size: the maximum number of tuples
    /// accumulated into one frame before a flush is forced. `1` disables
    /// batching (every tuple travels in its own frame — the legacy
    /// per-tuple transport, kept for ablation). Flushes also happen
    /// adaptively before the threshold; see the engine docs.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "batch size must be at least 1");
        self.batch_size = batch;
        self
    }

    /// The configured cross-PE transport batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Installs a deterministic [`FaultPlan`]. Targets are resolved against
    /// operator/edge names when the engine starts; an unresolvable target
    /// is a build-time panic, not a silently inert fault.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the supervisor's [`RestartPolicy`] for panicking operators
    /// (default: 8 restarts, 1 ms backoff base, 100 ms cap). The same
    /// policy bounds whole-PE restarts.
    pub fn with_restart_policy(mut self, policy: RestartPolicy) -> Self {
        self.restart_policy = policy;
        self
    }

    /// Enables periodic per-PE checkpointing into `dir`: every PE hosting
    /// at least one [`Checkpoint`](crate::checkpoint::Checkpoint)-able
    /// operator writes a consistent snapshot set (blobs + manifest) at the
    /// operators' cadence, and a restarted PE rehydrates from the latest
    /// manifest. Without a checkpoint dir, whole-PE restarts still work but
    /// recover purely from the surviving in-memory operator state.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Routes every persistence-layer disk operation (PE checkpoints) of
    /// this run through an explicit [`Vfs`](crate::vfs::Vfs) backend.
    /// Overrides the backend the engine would otherwise pick (the real
    /// filesystem, or a fault-injecting one when the fault plan carries
    /// `io-*` entries) — the crash-point harness uses this to count and
    /// kill individual disk operations.
    pub fn with_vfs(mut self, vfs: std::sync::Arc<dyn crate::vfs::Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// Adds a non-source operator.
    pub fn add_op(&mut self, name: impl Into<String>, op: Box<dyn Operator>) -> OpId {
        self.push(name.into(), op, false)
    }

    /// Adds a source operator (the engine drives it).
    pub fn add_source(&mut self, name: impl Into<String>, op: Box<dyn Operator>) -> OpId {
        self.push(name.into(), op, true)
    }

    fn push(&mut self, name: String, op: Box<dyn Operator>, is_source: bool) -> OpId {
        let id = self.ops.len();
        self.ops.push(OpEntry {
            name,
            op,
            is_source,
        });
        self.fuse_parent.push(id);
        self.placements.push(None);
        OpId(id)
    }

    /// Connects `from`'s output `out_port` to `to`'s `port` over a local
    /// link.
    pub fn connect(&mut self, from: OpId, out_port: usize, to: OpId, port: PortKind) {
        self.connect_kind(from, out_port, to, port, LinkKind::Local);
    }

    /// Connects with an explicit link kind.
    pub fn connect_kind(
        &mut self,
        from: OpId,
        out_port: usize,
        to: OpId,
        port: PortKind,
        kind: LinkKind,
    ) {
        assert!(
            from.0 < self.ops.len() && to.0 < self.ops.len(),
            "unknown operator id"
        );
        self.edges.push(Edge {
            from: from.0,
            out_port,
            to: to.0,
            port,
            kind,
        });
    }

    /// Fuses the given operators into one PE (transitive: fusing {a,b} then
    /// {b,c} puts all three together). Fused edges dispatch in memory.
    pub fn fuse(&mut self, ops: &[OpId]) {
        for w in ops.windows(2) {
            let (a, b) = (self.find(w[0].0), self.find(w[1].0));
            if a != b {
                self.fuse_parent[a] = b;
            }
        }
    }

    /// Assigns an operator (and thus its whole fusion group at build time)
    /// to a logical cluster node. Edges between operators placed on
    /// *different* nodes are automatically upgraded from `Local` to
    /// `Network` at build time (see
    /// [`with_inter_node_delay`](Self::with_inter_node_delay)), mirroring
    /// how InfoSphere placement decides which streams cross the wire.
    pub fn place(&mut self, op: OpId, node: usize) {
        self.placements[op.0] = Some(node);
    }

    /// Sets the modeled per-tuple delay applied to edges that cross nodes
    /// because of [`place`](Self::place) assignments (default: 0 µs —
    /// traffic accounting only).
    pub fn with_inter_node_delay(mut self, delay_us: u64) -> Self {
        self.inter_node_delay_us = delay_us;
        self
    }

    /// The node an operator was placed on, if any.
    pub fn placement_of(&self, op: OpId) -> Option<usize> {
        self.placements[op.0]
    }

    /// Applies placement-derived link kinds: any `Local` edge whose
    /// endpoints sit on different nodes becomes `Network`. Called by the
    /// engine at build time; idempotent.
    pub(crate) fn apply_placements(&mut self) {
        let delay = self.inter_node_delay_us;
        for e in &mut self.edges {
            if e.kind != LinkKind::Local {
                continue;
            }
            if let (Some(a), Some(b)) = (self.placements[e.from], self.placements[e.to]) {
                if a != b {
                    e.kind = LinkKind::Network {
                        model_delay_us: delay,
                    };
                }
            }
        }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.fuse_parent[i] != i {
            self.fuse_parent[i] = self.fuse_parent[self.fuse_parent[i]];
            i = self.fuse_parent[i];
        }
        i
    }

    /// Resolves fusion groups: returns for each operator its PE index, and
    /// the list of PEs (each a list of operator indices in insertion
    /// order).
    pub(crate) fn resolve_pes(&mut self) -> (Vec<usize>, Vec<Vec<usize>>) {
        let n = self.ops.len();
        let mut root_to_pe = std::collections::HashMap::new();
        let mut op_pe = vec![0usize; n];
        let mut pes: Vec<Vec<usize>> = Vec::new();
        for (i, slot) in op_pe.iter_mut().enumerate() {
            let root = self.find(i);
            let pe = *root_to_pe.entry(root).or_insert_with(|| {
                pes.push(Vec::new());
                pes.len() - 1
            });
            *slot = pe;
            pes[pe].push(i);
        }
        (op_pe, pes)
    }

    /// Number of operators added so far.
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// The display name of an operator.
    pub fn op_name(&self, id: OpId) -> &str {
        &self.ops[id.0].name
    }

    /// All operator names in insertion order.
    pub fn op_names(&self) -> Vec<&str> {
        self.ops.iter().map(|o| o.name.as_str()).collect()
    }

    /// In-degree of the data port of `to` (used for end-of-stream
    /// bookkeeping and topology assertions in tests).
    pub fn data_in_degree(&self, to: OpId) -> usize {
        self.edges
            .iter()
            .filter(|e| e.to == to.0 && e.port == PortKind::Data)
            .count()
    }

    /// All edges as `(from, out_port, to, port_kind)` tuples, for topology
    /// assertions.
    pub fn edge_list(&self) -> Vec<(OpId, usize, OpId, PortKind)> {
        self.edges
            .iter()
            .map(|e| (OpId(e.from), e.out_port, OpId(e.to), e.port))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{OpContext, Operator};
    use crate::tuple::DataTuple;

    struct Nop;
    impl Operator for Nop {
        fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}
    }

    fn nop() -> Box<dyn Operator> {
        Box::new(Nop)
    }

    #[test]
    fn fusion_groups_are_transitive() {
        let mut g = GraphBuilder::new();
        let a = g.add_op("a", nop());
        let b = g.add_op("b", nop());
        let c = g.add_op("c", nop());
        let d = g.add_op("d", nop());
        g.fuse(&[a, b]);
        g.fuse(&[b, c]);
        let (op_pe, pes) = g.resolve_pes();
        assert_eq!(op_pe[a.0], op_pe[b.0]);
        assert_eq!(op_pe[b.0], op_pe[c.0]);
        assert_ne!(op_pe[c.0], op_pe[d.0]);
        assert_eq!(pes.len(), 2);
    }

    #[test]
    fn batch_size_is_configurable_and_defaults_sane() {
        let g = GraphBuilder::new();
        assert_eq!(g.batch_size(), DEFAULT_BATCH_SIZE);
        let g = GraphBuilder::new().with_batch_size(1);
        assert_eq!(g.batch_size(), 1);
        let g = GraphBuilder::new().with_batch_size(256);
        assert_eq!(g.batch_size(), 256);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = GraphBuilder::new().with_batch_size(0);
    }

    #[test]
    fn default_is_one_pe_per_op() {
        let mut g = GraphBuilder::new();
        let _ = g.add_op("a", nop());
        let _ = g.add_op("b", nop());
        let (_, pes) = g.resolve_pes();
        assert_eq!(pes.len(), 2);
    }

    #[test]
    fn in_degree_counts_data_edges_only() {
        let mut g = GraphBuilder::new();
        let a = g.add_op("a", nop());
        let b = g.add_op("b", nop());
        let c = g.add_op("c", nop());
        g.connect(a, 0, c, PortKind::Data);
        g.connect(b, 0, c, PortKind::Data);
        g.connect(a, 1, c, PortKind::Control);
        assert_eq!(g.data_in_degree(c), 2);
    }

    #[test]
    #[should_panic(expected = "unknown operator")]
    fn connect_unknown_op_panics() {
        let mut g = GraphBuilder::new();
        let a = g.add_op("a", nop());
        g.connect(a, 0, OpId(99), PortKind::Data);
    }

    #[test]
    fn placement_upgrades_cross_node_edges() {
        let mut g = GraphBuilder::new().with_inter_node_delay(25);
        let a = g.add_op("a", nop());
        let b = g.add_op("b", nop());
        let c = g.add_op("c", nop());
        g.connect(a, 0, b, PortKind::Data); // cross-node
        g.connect(b, 0, c, PortKind::Data); // same node
        g.place(a, 0);
        g.place(b, 1);
        g.place(c, 1);
        g.apply_placements();
        assert_eq!(g.edges[0].kind, LinkKind::Network { model_delay_us: 25 });
        assert_eq!(g.edges[1].kind, LinkKind::Local);
        assert_eq!(g.placement_of(b), Some(1));
    }

    #[test]
    fn unplaced_ops_keep_local_edges() {
        let mut g = GraphBuilder::new();
        let a = g.add_op("a", nop());
        let b = g.add_op("b", nop());
        g.connect(a, 0, b, PortKind::Data);
        g.place(a, 0); // b unplaced → no inference
        g.apply_placements();
        assert_eq!(g.edges[0].kind, LinkKind::Local);
    }

    #[test]
    fn explicit_network_kind_preserved() {
        let mut g = GraphBuilder::new().with_inter_node_delay(5);
        let a = g.add_op("a", nop());
        let b = g.add_op("b", nop());
        g.connect_kind(
            a,
            0,
            b,
            PortKind::Data,
            LinkKind::Network { model_delay_us: 99 },
        );
        g.place(a, 0);
        g.place(b, 1);
        g.apply_placements();
        assert_eq!(g.edges[0].kind, LinkKind::Network { model_delay_us: 99 });
    }
}
