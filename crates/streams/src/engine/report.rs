//! What a finished run reports: each operator's counters, each cross-PE
//! link's traffic and each PE thread's CPU time.

use crate::metrics::{Counter, LinkSnapshot, OpSnapshot};
use std::time::Duration;

/// Traffic report for one cross-PE link.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Producing operator's name.
    pub from: String,
    /// Consuming operator's name.
    pub to: String,
    /// Transfer counters.
    pub snapshot: LinkSnapshot,
}

impl LinkReport {
    /// Tuples transferred.
    pub fn tuples(&self) -> u64 {
        self.snapshot.tuples
    }

    /// Bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.snapshot.bytes
    }
}

/// Final report of a finished run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-operator name + counters, in graph insertion order.
    pub ops: Vec<(String, OpSnapshot)>,
    /// Per-cross-PE-link traffic, in edge insertion order.
    pub links: Vec<LinkReport>,
    /// CPU time of each PE thread this process ran, in PE order.
    pub pe_cpu: Vec<PeCpu>,
}

/// The CPU time one PE thread used, read as it exited: how much of a core
/// its busy share really was (a PE waiting for room downstream is busy
/// but not on the CPU).
#[derive(Debug, Clone)]
pub struct PeCpu {
    /// The PE's member operators, in graph insertion order.
    pub members: Vec<String>,
    /// User plus system CPU seconds of the PE's thread, from
    /// `/proc/thread-self/stat`; `None` where that file does not exist.
    pub cpu_s: Option<f64>,
}

/// User plus system CPU seconds of the calling thread, from
/// `/proc/thread-self/stat`; `None` where that file does not exist.
pub(super) fn thread_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The fields after the command name (which may hold spaces and
    // parentheses) start at the state, field 3; utime is field 14 and
    // stime field 15, both in clock ticks of `USER_HZ` — 100 on Linux.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

impl RunReport {
    /// Snapshot for the operator with the given name (first match).
    pub fn op(&self, name: &str) -> Option<&OpSnapshot> {
        self.ops.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Aggregate data tuples consumed by operators whose name starts with
    /// `prefix` — convenient for summing over parallel replicas.
    pub fn tuples_in_matching(&self, prefix: &str) -> u64 {
        self.ops
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, s)| s.tuples_in)
            .sum()
    }

    /// Total of the run-level counter `which` across all operators (a PE
    /// restart counts once per member operator that lived through it).
    pub fn total(&self, which: Counter) -> u64 {
        self.ops.iter().map(|(_, s)| s.get(which)).sum()
    }

    // The five wrappers below exist because the unedited `benchmark/`
    // calls them; they go in the next `[benchmark]` window (ROADMAP).

    /// `total(Counter::Restarts)`.
    pub fn total_restarts(&self) -> u64 {
        self.total(Counter::Restarts)
    }

    /// `total(Counter::PeRestarts)`.
    pub fn total_pe_restarts(&self) -> u64 {
        self.total(Counter::PeRestarts)
    }

    /// `total(Counter::Quarantined)`.
    pub fn total_quarantined(&self) -> u64 {
        self.total(Counter::Quarantined)
    }

    /// `total(Counter::SyncSkips)`.
    pub fn total_sync_skips(&self) -> u64 {
        self.total(Counter::SyncSkips)
    }

    /// `total(Counter::CheckpointSkips)`.
    pub fn total_checkpoint_skips(&self) -> u64 {
        self.total(Counter::CheckpointSkips)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::{Collect, CountSource};
    use crate::engine::Engine;
    use crate::graph::{GraphBuilder, PortKind};
    use std::sync::{Arc, Mutex};

    #[test]
    fn each_pe_reports_its_members_and_the_cpu_its_thread_used() {
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 50_000, next: 0 }));
        let sink = g.add_op("collect", Box::new(Collect { seen }));
        g.connect(src, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        let members: Vec<&[String]> = report.pe_cpu.iter().map(|pe| &pe.members[..]).collect();
        assert_eq!(members, [["src"], ["collect"]]);
        let procfs = std::path::Path::new("/proc/thread-self/stat").exists();
        // CPU time is counted in 10 ms clock ticks.
        let wall = report.elapsed.as_secs_f64() + 0.01;
        for pe in &report.pe_cpu {
            assert_eq!(pe.cpu_s.is_some(), procfs, "{:?}", pe.members);
            let cpu = pe.cpu_s.unwrap_or(0.0);
            assert!(
                (0.0..=wall).contains(&cpu),
                "{:?}: {cpu} s of CPU in {wall} s",
                pe.members
            );
        }
    }

    #[test]
    fn cross_pe_link_accounts_bytes() {
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 10, next: 0 }));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        assert_eq!(report.links.len(), 1);
        // 10 data tuples (16 + 8 bytes each) + EOS (8).
        assert_eq!(report.links[0].bytes(), 10 * 24 + 8);
    }
}
