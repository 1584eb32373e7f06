//! Elastic (cloud) scaling simulation.
//!
//! The paper repeatedly motivates cloud deployment: "Dynamic scalable
//! Cloud cluster would be able to meet the demand of large data streams
//! realtime processing by adding additional nodes to the processing
//! cluster when needed" (§I, §III-A, §IV). This module simulates that
//! policy loop on top of the DES: the offered load varies over time, a
//! controller watches the achieved/offered ratio over monitoring epochs,
//! and scales the engine pool up (provisioning new engines round-robin
//! over nodes) or down when capacity is wasted.
//!
//! The simulation is epoch-based: each epoch runs the steady-state DES at
//! the current pool size and offered rate — appropriate because the DES
//! reaches steady state in seconds while scaling decisions happen on
//! minutes, so within-epoch transients are negligible.

use crate::placement::Placement;
use crate::sim::{ClusterSim, SimConfig};
use crate::spec::{ClusterSpec, CostModel};

/// Scale up when achieved/offered throughput falls below this.
pub const SCALE_UP_BELOW: f64 = 0.95;

/// Scale down when the pool could lose [`STEP_DOWN`] engines and still
/// keep the achieved/offered ratio above [`SCALE_UP_BELOW`] with this
/// margin.
pub const SCALE_DOWN_MARGIN: f64 = 1.3;

/// Engines added per scale-up decision.
pub const STEP_UP: usize = 2;

/// Engines removed per scale-down decision.
pub const STEP_DOWN: usize = 1;

/// The pool never shrinks below this.
pub const MIN_ENGINES: usize = 1;

/// Epochs to hold after *any* scaling action before considering the next
/// one. Without this hysteresis, offered load sitting at a capacity
/// boundary (or a noisy capacity measurement straddling it) flips
/// `+STEP_UP`/`-STEP_DOWN` on consecutive epochs forever.
pub const COOLDOWN_EPOCHS: usize = 1;

/// The autoscaler policy: the constants above, bounded by a pool ceiling.
/// The DES simulation and the live autoscaler (`spca-engine`'s
/// `ElasticSupervisor`) both decide through it.
#[derive(Debug, Clone)]
pub struct ElasticPolicy {
    /// Upper bound on the pool size (cloud quota).
    pub max_engines: usize,
}

impl Default for ElasticPolicy {
    /// A 40-engine quota.
    fn default() -> Self {
        ElasticPolicy { max_engines: 40 }
    }
}

impl ElasticPolicy {
    /// The scaling decision for one monitoring epoch: `+n` to add engines,
    /// `-n` to remove, `0` to hold. Pure and shared: `simulate_elastic`
    /// drives it with DES capacities, the live autoscaler with measured
    /// throughput — same thresholds, same hysteresis, by construction.
    ///
    /// `capacity` estimates sustainable throughput at a pool size (only
    /// consulted for the current and candidate-smaller pools);
    /// `epochs_since_action` is how many epochs ago the last nonzero
    /// action happened (pass [`COOLDOWN_EPOCHS`] or more when none has).
    pub fn decide(
        &self,
        offered: f64,
        engines: usize,
        mut capacity: impl FnMut(usize) -> f64,
        epochs_since_action: usize,
    ) -> i64 {
        if epochs_since_action < COOLDOWN_EPOCHS {
            return 0;
        }
        let achieved = capacity(engines).min(offered);
        let satisfaction = if offered > 0.0 {
            achieved / offered
        } else {
            1.0
        };
        if satisfaction < SCALE_UP_BELOW && engines < self.max_engines {
            let next = (engines + STEP_UP).min(self.max_engines);
            return (next - engines) as i64;
        }
        if engines > MIN_ENGINES {
            let smaller = engines.saturating_sub(STEP_DOWN).max(MIN_ENGINES);
            if capacity(smaller) >= offered * SCALE_UP_BELOW * SCALE_DOWN_MARGIN {
                return -((engines - smaller) as i64);
            }
        }
        0
    }
}

/// One monitoring epoch's outcome.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Offered load this epoch (tuples/s).
    pub offered: f64,
    /// Engines in the pool during the epoch.
    pub engines: usize,
    /// Achieved throughput (tuples/s), capped by capacity.
    pub achieved: f64,
    /// Achieved / offered.
    pub satisfaction: f64,
    /// Scaling action taken *after* this epoch: +n, -n, or 0.
    pub action: i64,
}

/// Simulates the autoscaler against a time-varying offered load.
///
/// `offered_load` gives the demand (tuples/s) per epoch. Returns one
/// report per epoch. The pool starts at [`MIN_ENGINES`].
pub fn simulate_elastic(
    spec: &ClusterSpec,
    cost: &CostModel,
    base_cfg: &SimConfig,
    offered_load: &[f64],
    policy: &ElasticPolicy,
) -> Vec<EpochReport> {
    let mut engines = MIN_ENGINES;
    let mut reports = Vec::with_capacity(offered_load.len());

    // Capacity at a pool size is load-independent under the saturated DES;
    // memoize it.
    let mut capacity_cache: std::collections::HashMap<usize, f64> =
        std::collections::HashMap::new();
    let mut capacity = |n: usize| -> f64 {
        *capacity_cache.entry(n).or_insert_with(|| {
            let placement = Placement::round_robin(n, spec.n_nodes);
            ClusterSim::new(spec.clone(), cost.clone(), placement, base_cfg.clone())
                .run()
                .throughput
        })
    };

    // Free to act on the first epoch; afterwards the cooldown counts up
    // from every nonzero action.
    let mut since_action = COOLDOWN_EPOCHS;

    for &offered in offered_load {
        let cap = capacity(engines);
        let achieved = cap.min(offered);
        let satisfaction = if offered > 0.0 {
            achieved / offered
        } else {
            1.0
        };

        // Decide the action for the next epoch.
        let action = policy.decide(offered, engines, &mut capacity, since_action);
        engines = (engines as i64 + action) as usize;
        since_action = if action != 0 {
            0
        } else {
            since_action.saturating_add(1)
        };

        reports.push(EpochReport {
            offered,
            engines: (engines as i64 - action) as usize,
            achieved,
            satisfaction,
            action,
        });
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ClusterSpec, CostModel, SimConfig) {
        (
            ClusterSpec::paper(),
            CostModel::paper(),
            SimConfig {
                duration: 6.0,
                warmup: 1.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn scales_up_under_rising_load() {
        let (spec, cost, cfg) = setup();
        // Demand ramps well past a single engine's ~900 tuples/s.
        let load: Vec<f64> = (0..12).map(|i| 500.0 + 1000.0 * i as f64).collect();
        let reports = simulate_elastic(&spec, &cost, &cfg, &load, &ElasticPolicy::default());
        let first = reports.first().unwrap();
        let last = reports.last().unwrap();
        assert_eq!(first.engines, 1);
        assert!(last.engines > 4, "pool never grew: {:?}", last);
        // Once scaled, late epochs should be mostly satisfied.
        assert!(
            last.satisfaction > 0.8,
            "late satisfaction {:?}",
            last.satisfaction
        );
    }

    #[test]
    fn scales_down_when_load_drops() {
        let (spec, cost, cfg) = setup();
        let mut load = vec![9000.0; 8];
        load.extend(vec![500.0; 8]);
        let reports = simulate_elastic(&spec, &cost, &cfg, &load, &ElasticPolicy::default());
        let peak = reports.iter().map(|r| r.engines).max().unwrap();
        let final_size = reports.last().unwrap().engines;
        assert!(peak >= 6, "never scaled up: peak {peak}");
        assert!(
            final_size < peak,
            "never scaled down: {final_size} vs peak {peak}"
        );
    }

    #[test]
    fn respects_quota() {
        let (spec, cost, cfg) = setup();
        let load = vec![1e9; 6]; // impossible demand
        let policy = ElasticPolicy { max_engines: 5 };
        let reports = simulate_elastic(&spec, &cost, &cfg, &load, &policy);
        assert!(reports.iter().all(|r| r.engines <= 5));
    }

    #[test]
    fn stable_load_stabilizes_pool() {
        let (spec, cost, cfg) = setup();
        let load = vec![4000.0; 14];
        let reports = simulate_elastic(&spec, &cost, &cfg, &load, &ElasticPolicy::default());
        // After convergence the pool stops oscillating.
        let tail: Vec<usize> = reports.iter().rev().take(4).map(|r| r.engines).collect();
        assert!(
            tail.windows(2)
                .all(|w| (w[0] as i64 - w[1] as i64).abs() <= 1),
            "oscillating pool: {tail:?}"
        );
        assert!(reports.last().unwrap().satisfaction > 0.9);
    }

    #[test]
    fn decide_holds_for_the_cooldown_after_any_action() {
        // Capacities that make every epoch want a change: a starved pool
        // (scale up) and one with room to spare (scale down).
        let policy = ElasticPolicy::default();
        let starved = |n: usize| 100.0 * n as f64;
        let idle = |n: usize| 1e6 * n as f64;
        assert_eq!(
            policy.decide(2000.0, 4, starved, COOLDOWN_EPOCHS),
            STEP_UP as i64
        );
        assert_eq!(
            policy.decide(2000.0, 4, idle, COOLDOWN_EPOCHS),
            -(STEP_DOWN as i64)
        );
        // Some hysteresis at all: without it a load at a capacity boundary
        // flips +up/-down on consecutive epochs.
        const { assert!(COOLDOWN_EPOCHS >= 1) };
        for since in 0..COOLDOWN_EPOCHS {
            assert_eq!(policy.decide(2000.0, 4, starved, since), 0, "{since}");
            assert_eq!(policy.decide(2000.0, 4, idle, since), 0, "{since}");
        }
    }

    #[test]
    fn simulate_elastic_honors_the_cooldown() {
        let (spec, cost, cfg) = setup();
        // Load swinging across the pool's capacity boundary every epoch.
        let load: Vec<f64> = (0..16)
            .map(|e| if e % 2 == 0 { 6000.0 } else { 1200.0 })
            .collect();
        let reports = simulate_elastic(&spec, &cost, &cfg, &load, &ElasticPolicy::default());
        assert!(
            reports
                .windows(2)
                .all(|w| w[0].action == 0 || w[1].action == 0),
            "consecutive-epoch actions despite cooldown: {:?}",
            reports.iter().map(|r| r.action).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_load_is_fine() {
        let (spec, cost, cfg) = setup();
        let reports = simulate_elastic(&spec, &cost, &cfg, &[0.0, 0.0], &ElasticPolicy::default());
        assert!(reports.iter().all(|r| r.satisfaction == 1.0));
    }
}
