//! The in-flight results hub.
//!
//! Partial results are the point of streaming ("these early results are
//! invaluable when processing petabytes"): the hub collects each engine's
//! snapshots as they are emitted, exposes the latest per-engine state, and
//! merges them into a global estimate on demand — "the idea is to keep the
//! eigensystems in sync across all nodes, so that the resulting eigensystem
//! can be obtained from any node" (§III-B).

use crate::messages::PeerState;
use spca_core::{merge_all, EigenSystem, PcaError};
use spca_streams::lock;
use std::sync::{Arc, Mutex};

/// Shared collector of per-engine eigensystem snapshots.
#[derive(Clone)]
pub struct ResultsHub {
    inner: Arc<Mutex<Inner>>,
}

struct Inner {
    latest: Vec<Option<PeerState>>,
    snapshots_seen: u64,
}

impl ResultsHub {
    /// A hub for `n_engines` engines.
    pub fn new(n_engines: usize) -> Self {
        ResultsHub {
            inner: Arc::new(Mutex::new(Inner {
                latest: vec![None; n_engines],
                snapshots_seen: 0,
            })),
        }
    }

    /// Records a snapshot (the application wires this to monitor ports).
    pub fn record(&self, state: PeerState) {
        let mut g = lock(&self.inner);
        let idx = state.engine as usize;
        if idx < g.latest.len() {
            g.latest[idx] = Some(state);
            g.snapshots_seen += 1;
        }
    }

    /// Latest eigensystem of one engine, if it has reported.
    pub fn engine_state(&self, engine: usize) -> Option<EigenSystem> {
        lock(&self.inner)
            .latest
            .get(engine)?
            .as_ref()
            .map(|s| s.eigensystem.clone())
    }

    /// Number of engines that have reported at least once.
    pub fn engines_reporting(&self) -> usize {
        lock(&self.inner)
            .latest
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// Total snapshots recorded.
    pub fn snapshots_seen(&self) -> u64 {
        lock(&self.inner).snapshots_seen
    }

    /// Total state shares and merges across reporting engines, from the
    /// latest snapshots — the sync-traffic diagnostics of the ablation
    /// benches.
    pub fn sync_totals(&self) -> (u64, u64) {
        let g = lock(&self.inner);
        let mut shares = 0;
        let mut merges = 0;
        for s in g.latest.iter().flatten() {
            shares += s.shares_sent;
            merges += s.merges_applied;
        }
        (shares, merges)
    }

    /// Merges the latest states of all reporting engines into a global
    /// estimate (paper eq. 15–16 applied across the fleet). An error while
    /// no engine has reported yet.
    pub fn merged_estimate(&self) -> Result<EigenSystem, PcaError> {
        let g = lock(&self.inner);
        merge_all(g.latest.iter().flatten().map(|s| &s.eigensystem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spca_core::batch::batch_pca;
    use spca_spectra::PlantedSubspace;

    fn state_of(engine: u32, n: usize, seed: u64) -> PeerState {
        let w = PlantedSubspace::new(8, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = w.sample_batch(&mut rng, n);
        PeerState {
            engine,
            eigensystem: batch_pca(&data, 2).unwrap(),
            n_obs: n as u64,
            shares_sent: 0,
            merges_applied: 0,
        }
    }

    #[test]
    fn records_and_reports() {
        let hub = ResultsHub::new(3);
        assert_eq!(hub.engines_reporting(), 0);
        assert!(hub.merged_estimate().is_err());
        hub.record(state_of(1, 100, 1));
        assert_eq!(hub.engines_reporting(), 1);
        assert!(hub.engine_state(1).is_some());
        assert!(hub.engine_state(0).is_none());
    }

    #[test]
    fn later_snapshot_replaces_earlier() {
        let hub = ResultsHub::new(2);
        hub.record(state_of(0, 50, 2));
        hub.record(state_of(0, 200, 3));
        assert_eq!(hub.engine_state(0).unwrap().n_obs, 200);
        assert_eq!(hub.snapshots_seen(), 2);
    }

    #[test]
    fn merged_estimate_combines_engines() {
        let hub = ResultsHub::new(2);
        hub.record(state_of(0, 100, 4));
        hub.record(state_of(1, 100, 5));
        let merged = hub.merged_estimate().unwrap();
        assert_eq!(merged.n_obs, 200);
        let w = PlantedSubspace::new(8, 2, 0.05);
        let d = spca_core::metrics::subspace_distance(&merged.basis, w.basis()).unwrap();
        assert!(d < 0.2, "merged distance {d}");
    }

    #[test]
    fn out_of_range_engine_ignored() {
        let hub = ResultsHub::new(1);
        hub.record(state_of(5, 10, 6));
        assert_eq!(hub.engines_reporting(), 0);
    }
}
