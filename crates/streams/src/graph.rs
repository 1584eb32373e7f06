//! Dataflow graph construction: operators, edges, fusion.
//!
//! Fusion follows the paper's optimization story (§III-A/§III-D): operators
//! fused into one processing element (PE) exchange tuples "by pointer as a
//! variable in memory instead of using a network", while cross-PE edges go
//! through bounded queues with traffic accounting — or over the socket
//! transport when the engine's partition puts the peer in another process.
//! How an edge is carried follows from the graph; an edge has no kind.

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
}

/// Builder for a dataflow graph.
#[derive(Default)]
pub struct GraphBuilder {
    pub(crate) ops: Vec<OpEntry>,
    pub(crate) edges: Vec<Edge>,
    /// Union-find parent for fusion groups.
    fuse_parent: Vec<usize>,
    pub(crate) channel_capacity: usize,
    pub(crate) batch_size: usize,
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) restart_policy: RestartPolicy,
    pub(crate) checkpoint_dir: Option<std::path::PathBuf>,
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

    /// Sets the bounded capacity of cross-PE channels in tuples
    /// (backpressure depth).
    pub fn with_channel_capacity(mut self, cap: usize) -> Self {
        assert!(cap >= 1);
        self.channel_capacity = cap;
        self
    }

    /// Sets the cross-PE transport batch size: the maximum number of tuples
    /// accumulated into one frame before a flush is forced. `1` disables
    /// batching (every tuple travels in its own frame — the legacy
    /// per-tuple transport, kept for ablation). A control tuple, end of
    /// stream, or a PE about to idle or block also sends a partial frame;
    /// see the engine docs.
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
    /// operator writes a consistent snapshot set (one generation file) at
    /// the operators' cadence, and a restarted PE rehydrates from the
    /// latest whole generation. Without a checkpoint dir, whole-PE restarts still work but
    /// recover purely from the surviving in-memory operator state.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
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
        OpId(id)
    }

    /// Connects `from`'s output `out_port` to `to`'s `port`.
    pub fn connect(&mut self, from: OpId, out_port: usize, to: OpId, port: PortKind) {
        assert!(
            from.0 < self.ops.len() && to.0 < self.ops.len(),
            "unknown operator id"
        );
        self.edges.push(Edge {
            from: from.0,
            out_port,
            to: to.0,
            port,
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
    use crate::operator::Operator;

    struct Nop;
    impl Operator for Nop {}

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
}
