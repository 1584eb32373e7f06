//! Figure 2: the analysis dataflow graph.
//!
//! Fig. 2 is structural — "the analysis graph uses a threaded split
//! operator … distributes the inputs to match the processing capacity of
//! each PCA engine. The synchronization messages are also implemented in
//! the same framework." This binary builds the application graph for a
//! configurable engine count, prints its adjacency (the figure, as text),
//! and verifies the invariants the figure depicts: one split feeding every
//! engine, sync signals reaching every engine's control port through the
//! same framework (straight from the self-paced controller: the paper's
//! throttle operator has no counterpart here), and the ring state edges of
//! Fig. 3. The peer-state ports are wired as a full mesh (so a ring can
//! re-close around a silent engine); Fig. 3's ring is the one the
//! controller *commands* over it, and its edges `pca-i → pca-(i+1 mod n)`
//! are among the mesh's.

use spca_bench::figures_dir;
use spca_core::PcaConfig;
use spca_engine::{AppConfig, ParallelPcaApp, SyncStrategy};
use spca_streams::ops::GeneratorSource;
use spca_streams::PortKind;
use std::io::Write;

fn main() {
    let n = 4;
    let pca = PcaConfig::new(64, 4);
    let mut cfg = AppConfig::new(n, pca);
    cfg.sync = SyncStrategy::Ring;
    let source = Box::new(
        GeneratorSource::new(|_, values, _| {
            values.resize(64, 0.0);
            true
        })
        .with_max_tuples(1),
    );
    let (g, _handles) = ParallelPcaApp::build(&cfg, source);

    println!("Fig. 2 reproduction: application dataflow graph ({n} engines, ring sync)\n");
    let mut lines = Vec::new();
    for (from, port, to, kind) in g.edge_list() {
        let k = match kind {
            PortKind::Data => "data",
            PortKind::Control => "ctrl",
        };
        lines.push(format!(
            "{:<18} --[{k}:{port}]--> {}",
            g.op_name(from),
            g.op_name(to)
        ));
    }
    lines.sort();
    for l in &lines {
        println!("  {l}");
    }
    let path = figures_dir().join("fig2_topology.txt");
    let mut f = std::fs::File::create(&path).expect("write topology");
    for l in &lines {
        writeln!(f, "{l}").expect("write line");
    }
    println!("\nwrote {}", path.display());

    // Structural assertions mirroring the figure.
    let edges = g.edge_list();
    let name = |id| g.op_name(id).to_string();
    // Split fans out to every engine on the data path.
    let split_fanout = edges
        .iter()
        .filter(|(f, _, t, k)| {
            name(*f) == "split" && name(*t).starts_with("pca-") && *k == PortKind::Data
        })
        .count();
    assert_eq!(split_fanout, n, "split must feed every engine");
    // Every engine receives control from the self-paced sync controller
    // on exactly one edge (sync path in-framework).
    for i in 0..n {
        let ctrl_edges = edges
            .iter()
            .filter(|(f, _, t, k)| {
                name(*f) == "sync-controller"
                    && name(*t) == format!("pca-{i}")
                    && *k == PortKind::Control
            })
            .count();
        assert_eq!(ctrl_edges, 1, "engine {i} needs one sync-controller edge");
    }
    // Ring of Fig. 3: pca-i → pca-(i+1 mod n).
    for i in 0..n {
        let succ = format!("pca-{}", (i + 1) % n);
        let has_ring = edges.iter().any(|(f, _, t, k)| {
            name(*f) == format!("pca-{i}") && name(*t) == succ && *k == PortKind::Control
        });
        assert!(has_ring, "ring edge pca-{i} → {succ} missing");
    }
    // Every engine reports to the monitor.
    let monitor_fanin = edges
        .iter()
        .filter(|(_, _, t, _)| name(*t) == "monitor")
        .count();
    assert_eq!(monitor_fanin, n, "every engine must report snapshots");

    println!(
        "\nstructure check PASSED: split fan-out, controller sync, Fig. 3 ring, monitor fan-in."
    );
}
