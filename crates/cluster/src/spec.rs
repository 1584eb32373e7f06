//! Cluster hardware description and per-tuple cost model.

/// Static description of the simulated cluster (paper §III-D).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub n_nodes: usize,
    /// Cores per node (Xeon E31230: 4 cores).
    pub cores_per_node: usize,
    /// NIC bandwidth in bytes/second (1 GbE ≈ 125 MB/s).
    pub nic_bandwidth: f64,
    /// One-way link latency in seconds.
    pub link_latency: f64,
}

impl ClusterSpec {
    /// The paper's test cluster: 10 × quad-core Xeon E31230, 1 GbE.
    pub fn paper() -> Self {
        ClusterSpec {
            n_nodes: 10,
            cores_per_node: 4,
            nic_bandwidth: 125.0e6,
            link_latency: 100e-6,
        }
    }
}

/// Per-tuple cost model. All times in seconds.
///
/// Provenance of the defaults (see crate docs):
/// * `service_anchor_s`: 1/1.9 kHz from Fig. 6's fused single-engine point.
/// * `remote_recv_s`: Fig. 6's distributed single-engine point (≈0.9 kHz ⇒
///   `1/0.9k − service` ≈ 580 µs) rounded to 600 µs.
/// * `split_remote_base_s` + `split_remote_per_conn_s`: chosen so the
///   distributed curve peaks near 20 engines (2/node) at ≈13–18 k tuples/s
///   and degrades at 30, Fig. 6's headline behaviour.
/// * `split_local_s`: in-memory hand-off (fusion), microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Engine CPU time to process one tuple at the anchor dimension
    /// (d = 250) on the paper's hardware.
    pub service_anchor_s: f64,
    /// Anchor dimension for `service_anchor_s`.
    pub anchor_dim: usize,
    /// Measured relative cost curve: `(dim, seconds_per_tuple)` samples
    /// from the real implementation; used for dimension scaling only.
    pub measured: Vec<(usize, f64)>,
    /// Extra engine-side CPU per tuple that arrived over the network.
    pub remote_recv_s: f64,
    /// Split CPU per tuple handed to a fused (same-PE) engine.
    pub split_local_s: f64,
    /// Split CPU per tuple sent to a remote engine (serialization, kernel).
    pub split_remote_base_s: f64,
    /// Additional split CPU per tuple *per open remote connection* — the
    /// no-batching dispatch overhead that saturates the split node as the
    /// engine count grows.
    pub split_remote_per_conn_s: f64,
    /// CPU time for one synchronization merge (low-rank SVD of the joined
    /// factor) at the anchor dimension; scales like the service time.
    pub sync_anchor_s: f64,
    /// Flow-control window: max tuples in flight (queued + serving) per
    /// engine before the split looks elsewhere.
    pub window: usize,
}

impl CostModel {
    /// The paper-calibrated model (see field docs for provenance). The
    /// `measured` table defaults to the paper-implied linear-ish growth and
    /// is meant to be replaced by [`CostModel::with_measurements`] using
    /// real timings from `spca-bench`.
    pub fn paper() -> Self {
        CostModel {
            service_anchor_s: 530e-6,
            anchor_dim: 250,
            // Fallback dimension curve implied by Fig. 7's per-thread
            // rates (roughly linear in d over 250–2000).
            measured: vec![
                (250, 530e-6),
                (500, 1.05e-3),
                (1000, 2.1e-3),
                (1500, 3.2e-3),
                (2000, 4.2e-3),
            ],
            remote_recv_s: 600e-6,
            split_local_s: 5e-6,
            split_remote_base_s: 30e-6,
            split_remote_per_conn_s: 2e-6,
            sync_anchor_s: 2.0e-3,
            window: 64,
        }
    }

    /// Replaces the dimension-scaling table with real measurements
    /// (`(dim, seconds_per_tuple)` on the benchmarking machine). The
    /// absolute anchor stays pinned to the paper's hardware; only the
    /// *shape* `t(d)/t(anchor)` is taken from the measurements.
    pub fn with_measurements(mut self, measured: Vec<(usize, f64)>) -> Self {
        assert!(!measured.is_empty(), "need at least one measurement");
        self.measured = measured;
        self.measured.sort_by_key(|&(d, _)| d);
        self
    }

    /// Interpolated raw measurement at dimension `d` (linear between
    /// samples, clamped at the ends).
    fn measured_at(&self, d: usize) -> f64 {
        let pts = &self.measured;
        if d <= pts[0].0 {
            // Extrapolate proportionally below the first sample: per-tuple
            // cost is dominated by O(d) work at small p.
            return pts[0].1 * d as f64 / pts[0].0 as f64;
        }
        for w in pts.windows(2) {
            let (d0, t0) = w[0];
            let (d1, t1) = w[1];
            if d <= d1 {
                let f = (d - d0) as f64 / (d1 - d0) as f64;
                return t0 + f * (t1 - t0);
            }
        }
        // Extrapolate beyond the last sample linearly from the final pair.
        let (d0, t0) = pts[pts.len() - 2];
        let (d1, t1) = pts[pts.len() - 1];
        let slope = (t1 - t0) / (d1 - d0) as f64;
        t1 + slope * (d - d1) as f64
    }

    /// Engine service time for one `d`-dimensional tuple on the simulated
    /// hardware: paper anchor × measured shape.
    pub fn service_time(&self, d: usize) -> f64 {
        let shape = self.measured_at(d) / self.measured_at(self.anchor_dim);
        self.service_anchor_s * shape
    }

    /// CPU time of one synchronization merge at dimension `d`.
    pub fn sync_time(&self, d: usize) -> f64 {
        let shape = self.measured_at(d) / self.measured_at(self.anchor_dim);
        self.sync_anchor_s * shape
    }

    /// Split service time for one tuple given the target kind and the
    /// number of open remote connections.
    pub fn split_time(&self, remote: bool, n_remote_conns: usize) -> f64 {
        if remote {
            self.split_remote_base_s + self.split_remote_per_conn_s * n_remote_conns as f64
        } else {
            self.split_local_s
        }
    }

    /// Serialized size of one `d`-dimensional data tuple on the wire.
    pub fn tuple_bytes(&self, d: usize) -> f64 {
        16.0 + 8.0 * d as f64
    }

    /// Serialized size of an exchanged eigensystem (`p` components +
    /// mean + running sums).
    pub fn eigensystem_bytes(&self, d: usize, p: usize) -> f64 {
        8.0 * (d * p + d + p + 8) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_matches_hardware_description() {
        let s = ClusterSpec::paper();
        assert_eq!(s.n_nodes, 10);
        assert_eq!(s.cores_per_node, 4);
        assert!((s.nic_bandwidth - 125e6).abs() < 1.0);
    }

    #[test]
    fn service_time_at_anchor_is_anchor() {
        let c = CostModel::paper();
        assert!((c.service_time(250) - 530e-6).abs() < 1e-9);
    }

    #[test]
    fn service_time_monotone_in_dimension() {
        let c = CostModel::paper();
        let mut prev = 0.0;
        for d in [100, 250, 500, 750, 1000, 1500, 2000, 3000] {
            let t = c.service_time(d);
            assert!(t > prev, "d={d}: {t} <= {prev}");
            prev = t;
        }
    }

    #[test]
    fn measurements_rescale_shape_not_anchor() {
        // Measurements 10x faster than the paper's hardware must leave the
        // anchor-dim service time unchanged (absolute scale is pinned).
        let c = CostModel::paper().with_measurements(vec![(250, 53e-6), (500, 106e-6)]);
        assert!((c.service_time(250) - 530e-6).abs() < 1e-9);
        assert!((c.service_time(500) - 1060e-6).abs() < 1e-9);
    }

    #[test]
    fn split_time_grows_with_connections() {
        let c = CostModel::paper();
        assert!(c.split_time(true, 30) > c.split_time(true, 5));
        assert!(c.split_time(false, 30) < c.split_time(true, 1));
    }

    #[test]
    fn interpolation_between_samples() {
        let c = CostModel::paper().with_measurements(vec![(100, 1e-3), (300, 3e-3)]);
        let mid = c.measured_at(200);
        assert!((mid - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn extrapolation_beyond_last_sample() {
        let c = CostModel::paper().with_measurements(vec![(100, 1e-3), (200, 2e-3)]);
        assert!((c.measured_at(400) - 4e-3).abs() < 1e-9);
    }

    #[test]
    fn tuple_bytes_match_engine_estimate() {
        // Must agree with a complete row's share of spca-streams'
        // `Frame::wire_bytes` (16-byte header + 8 bytes/value).
        let c = CostModel::paper();
        assert_eq!(c.tuple_bytes(250) as u64, 16 + 2000);
    }
}
