//! Figure 7: per-thread throughput vs dimensionality (log-scale in the
//! paper), for 1, 5, 10 and 20 synchronized engines on the 10-node cluster.
//!
//! The paper's findings this must reproduce in *shape*:
//!   * throughput/thread falls roughly inversely with dimension (the
//!     per-tuple update cost grows with d);
//!   * 5 and 10 threads show "good scaling capabilities" — their per-thread
//!     rate stays close to the single-remote-engine service rate;
//!   * 20 threads saturate the interconnect at low dimensions, dropping
//!     their per-thread rate below the 5/10-thread lines, with the penalty
//!     shrinking as the dimension (and thus compute share) grows.
//!
//! One caveat recorded in EXPERIMENTS.md: the paper's single distributed
//! thread underperforms even the 5-thread per-thread line, which the
//! authors attribute to "non optimal distribution of components"; our
//! simulator models the deliberate placements only, so its 1-thread line
//! underperforms the *fused* engine (Fig. 6) but matches the 5-thread
//! per-thread rate.
//!
//! Output: `target/figures/fig7_dimensionality.csv`.

use spca_bench::{calibrate_dimension_curve, print_table, write_csv};
use spca_cluster::{ClusterSim, ClusterSpec, CostModel, Placement, SimConfig};

const DIMS: &[usize] = &[250, 500, 1000, 1500, 2000];
const THREADS: &[usize] = &[1, 5, 10, 20];

fn main() {
    println!("Fig. 7 reproduction: tuples/s/thread vs dimensionality");
    println!("calibrating per-tuple update cost on this machine ...");
    let measured = calibrate_dimension_curve(DIMS, 5);
    for (d, t) in &measured {
        println!("  d = {d:>5}: {:.1} µs/tuple (this machine)", t * 1e6);
    }
    let cost = CostModel::paper().with_measurements(measured);
    let spec = ClusterSpec::paper();

    let mut rows = Vec::new();
    for &dim in DIMS {
        let mut row = vec![dim as f64];
        for &n in THREADS {
            // "For 20 threads the PCA components were grouped by 2 on all
            // distributed computing nodes evenly"; smaller counts go
            // round-robin like the paper's default placement.
            let placement = if n >= 2 * spec.n_nodes {
                Placement::grouped(n, 2, spec.n_nodes)
            } else {
                Placement::round_robin(n, spec.n_nodes)
            };
            let cfg = SimConfig {
                dim,
                ..Default::default()
            };
            let report = ClusterSim::new(spec.clone(), cost.clone(), placement, cfg).run();
            row.push(report.per_thread());
        }
        rows.push(row);
    }

    let path = write_csv(
        "fig7_dimensionality.csv",
        &[
            "dim",
            "tps_per_thread_1",
            "tps_per_thread_5",
            "tps_per_thread_10",
            "tps_per_thread_20",
        ],
        &rows,
    );
    println!("\nwrote {}", path.display());
    print_table(
        "Fig. 7: tuples/second/thread (simulated 10-node cluster)",
        &["dim", "1 thread", "5 threads", "10 threads", "20 threads"],
        &rows,
    );

    // Shape checks.
    let cell = |dim: usize, t_idx: usize| {
        rows.iter().find(|r| r[0] == dim as f64).expect("row")[t_idx + 1]
    };
    for &dim in DIMS {
        // Monotone decrease of the 5-thread line with dimension.
        if dim > DIMS[0] {
            assert!(
                cell(dim, 1) < cell(DIMS[0], 1),
                "per-thread rate must fall with d"
            );
        }
    }
    // At the smallest dimension the interconnect bites: 20 threads per-thread
    // rate below the 5- and 10-thread lines.
    assert!(
        cell(250, 3) < cell(250, 1),
        "20 threads should saturate at d=250"
    );
    assert!(
        cell(250, 3) < cell(250, 2),
        "20 threads below 10 threads at d=250"
    );
    // 5 and 10 threads scale well (per-thread within 25% of each other).
    let r5 = cell(250, 1);
    let r10 = cell(250, 2);
    assert!(
        (r5 - r10).abs() / r5 < 0.25,
        "5 vs 10 threads per-thread gap too large"
    );
    // At high dimension the engines, not the network, dominate: the
    // 20-thread line converges toward the others.
    let gap_low = cell(250, 1) / cell(250, 3);
    let gap_high = cell(2000, 1) / cell(2000, 3);
    assert!(
        gap_high < gap_low,
        "saturation penalty must shrink as d grows"
    );
    println!("\nshape check PASSED: inverse-d scaling, 5/10-thread efficiency, 20-thread saturation at low d.");
}
