//! Engine-to-node placement strategies (§III-D's configurations).

/// Where each PCA engine lives, plus where the source/split pipeline runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Node of the source + split pipeline.
    pub split_node: usize,
    /// Node of each engine, length = engine count.
    pub engine_nodes: Vec<usize>,
}

impl Placement {
    /// Everything on one node — the paper's "single" configuration, where
    /// engines are fused with the split and exchange tuples in memory.
    pub fn single_node(n_engines: usize) -> Self {
        Placement {
            split_node: 0,
            engine_nodes: vec![0; n_engines],
        }
    }

    /// Engines distributed round-robin over all nodes — the paper's
    /// "distributed" configuration with default placement. Assignment
    /// starts at node 1 so small engine counts are genuinely remote from
    /// the split (node 0 only receives an engine once the others are
    /// occupied), matching the paper's observation that a single
    /// distributed engine pays cross-node messaging overhead.
    pub fn round_robin(n_engines: usize, n_nodes: usize) -> Self {
        assert!(n_nodes >= 1);
        Placement {
            split_node: 0,
            engine_nodes: (0..n_engines).map(|i| (i + 1) % n_nodes).collect(),
        }
    }

    /// Engines grouped `per_node` to a node, filling nodes in order — the
    /// paper's "grouped by 2 on all distributed computing nodes evenly".
    pub fn grouped(n_engines: usize, per_node: usize, n_nodes: usize) -> Self {
        assert!(per_node >= 1 && n_nodes >= 1);
        Placement {
            split_node: 0,
            engine_nodes: (0..n_engines).map(|i| (i / per_node) % n_nodes).collect(),
        }
    }

    /// Number of engines.
    pub fn n_engines(&self) -> usize {
        self.engine_nodes.len()
    }

    /// True if engine `e` is co-located (fused) with the split.
    pub fn is_local(&self, e: usize) -> bool {
        self.engine_nodes[e] == self.split_node
    }

    /// Number of engines reached over the network.
    pub fn n_remote(&self) -> usize {
        (0..self.n_engines()).filter(|&e| !self.is_local(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines_per_node(p: &Placement, n_nodes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_nodes];
        for &n in &p.engine_nodes {
            counts[n] += 1;
        }
        counts
    }

    #[test]
    fn single_node_is_all_local() {
        let p = Placement::single_node(8);
        assert_eq!(p.n_remote(), 0);
        assert!((0..8).all(|e| p.is_local(e)));
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let p = Placement::round_robin(20, 10);
        let counts = engines_per_node(&p, 10);
        assert!(counts.iter().all(|&c| c == 2), "{counts:?}");
        // Engines on node 0 are local to the split.
        assert_eq!(p.n_remote(), 18);
    }

    #[test]
    fn single_round_robin_engine_is_remote() {
        let p = Placement::round_robin(1, 10);
        assert_eq!(p.n_remote(), 1);
        assert!(!p.is_local(0));
    }

    #[test]
    fn grouped_fills_in_blocks() {
        let p = Placement::grouped(6, 2, 10);
        assert_eq!(p.engine_nodes, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn grouped_wraps_when_exhausted() {
        let p = Placement::grouped(25, 2, 10);
        let counts = engines_per_node(&p, 10);
        assert_eq!(counts.iter().sum::<usize>(), 25);
        assert!(counts.iter().all(|&c| c >= 2));
    }
}
