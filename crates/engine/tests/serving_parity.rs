//! `/metrics` ↔ CLI fault-summary parity (ISSUE 7 satellite).
//!
//! The fault summary every subcommand prints is
//! [`FaultCounters::summary`]; `/metrics` exposes the same counters
//! (mirrored into [`ServeShared`] via [`FaultCounters::from_report`]), and
//! both are loops over [`COUNTERS`]. This test drives a real engine run
//! that exercises the counters — an injected panic (restart), NaN
//! observations (quarantine), a forced-shut independence gate (sync
//! skips), failing fsyncs (storage faults + checkpoint skips) —
//! publishes eigensystem epochs into the store along the way, then
//! scrapes `/metrics` and asserts, for every row of the table, that the
//! served value and the summary's are the report's total.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::PcaConfig;
use spca_engine::{
    normalize_fault_targets, AppConfig, EigenQueryHandler, EpochStore, FaultCounters,
    ParallelPcaApp, ServeShared, SyncStrategy,
};
use spca_spectra::PlantedSubspace;
use spca_streams::metrics::{Counter, COUNTERS};
use spca_streams::ops::http_server::{HttpServer, ServerConfig};
use spca_streams::ops::{GeneratorSource, SplitStrategy};
use spca_streams::{lock, Engine, FaultPlan, Operator};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const D: usize = 12;
const N_TUPLES: u64 = 12_000;
const NAN_SEQS: [u64; 5] = [100, 501, 1202, 4003, 9004];

fn seeded_source() -> Box<dyn Operator> {
    let w = PlantedSubspace::new(D, 2, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(11)));
    Box::new(
        GeneratorSource::new(move |seq, values, _| {
            let v = w.sample(&mut *lock(&rng));
            if NAN_SEQS.contains(&seq) {
                values.extend([f64::NAN; D]);
            } else {
                values.extend(v);
            }
            true
        })
        .with_max_tuples(N_TUPLES),
    )
}

/// Scrapes one `spca_<name> <value>` line out of a `/metrics` body.
fn metric(body: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    body.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{body}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("metric {name} is not an integer"))
}

#[test]
fn metrics_endpoint_matches_cli_fault_summary_values() {
    let recovery = std::env::temp_dir().join(format!("spca_parity_{}", std::process::id()));
    std::fs::remove_dir_all(&recovery).ok();

    let store = Arc::new(EpochStore::new());
    let mut cfg = AppConfig::new(2, PcaConfig::new(D, 2).with_memory(300).with_init_size(20));
    cfg.split = SplitStrategy::RoundRobin;
    cfg.sync = SyncStrategy::Ring;
    cfg.sync_period = Duration::from_millis(1);
    cfg.channel_capacity = 100_000;
    cfg.recovery_dir = Some(recovery.clone());
    // io-fsync-err makes every checkpoint fsync fail, so the storage
    // counters (io faults, checkpoint skips) are exercised too.
    cfg.faults = Some(normalize_fault_targets(
        FaultPlan::parse("panic@engine1:2000,io-fsync-err").unwrap(),
    ));
    cfg.epoch_store = Some(Arc::clone(&store));
    cfg.publish_every = 64;

    // Gate forced shut: sync commands flow and are counted as skips.
    let (g, _h) = ParallelPcaApp::build_with_gate(&cfg, seeded_source(), Some(u64::MAX));
    let report = Engine::run(g);

    // The run must have exercised all the counters we claim parity for,
    // and published epochs while doing so.
    assert!(store.epoch() > 0, "operators must publish into the store");
    assert_eq!(report.total(Counter::Restarts), 1);
    assert_eq!(report.total(Counter::Quarantined), NAN_SEQS.len() as u64);
    assert!(report.total(Counter::SyncSkips) > 0);
    assert!(
        report.total(Counter::CheckpointSkips) > 0,
        "failing fsyncs must surface as skipped checkpoints"
    );
    assert!(report.total(Counter::IoFaults) > 0);

    // Summing live per-op snapshots gives the same totals the report
    // aggregates — the in-flight mirroring path agrees with the final one.
    assert_eq!(
        FaultCounters::from_op_snapshots(&report.ops),
        FaultCounters::from_report(&report)
    );

    let shared = Arc::new(ServeShared::new(Arc::clone(&store)));
    shared.set_counters(FaultCounters::from_report(&report));
    let server = {
        let shared = Arc::clone(&shared);
        HttpServer::start("127.0.0.1:0", ServerConfig::default(), move |_| {
            EigenQueryHandler::new(Arc::clone(&shared))
        })
        .unwrap()
    };

    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    drop(conn);
    server.shutdown();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap();

    let summary = FaultCounters::from_report(&report)
        .summary()
        .expect("the run absorbed faults");
    for &(which, key, label) in COUNTERS {
        let total = report.total(which);
        assert_eq!(metric(body, &format!("spca_{key}")), total);
        assert!(
            summary.contains(&format!(" {total} {label}")),
            "{key}: {summary}"
        );
    }
    assert_eq!(metric(body, "spca_epoch"), store.epoch());

    std::fs::remove_dir_all(&recovery).ok();
}
