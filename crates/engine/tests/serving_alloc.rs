//! Proves that serving queries does not put allocations on the update
//! thread (ISSUE 7 satellite).
//!
//! A thread-filtered counting allocator tracks only the thread marked as
//! the "update thread" (the one running `RobustPca::update` and epoch
//! publishes). HTTP worker threads, client threads, and the accept path
//! allocate freely without touching the counter. The publish path uses
//! the real serving wiring: a prewarmed snapshot pool plus
//! `try_checkout`, which sheds a publish (instead of allocating) when
//! stalled readers have drained the pool. After warm-up — the
//! estimator's workspaces grown — a stretch of updates-plus-publishes
//! under full concurrent query load must perform zero heap allocations
//! on the update thread.
//!
//! This file must contain exactly one `#[test]`: the filter makes the
//! counter robust to sibling threads, but the tracked flag is per-file
//! global state all the same.

use spca_alloc_count::{allocations, track, CountingAlloc};
use spca_core::{PcaConfig, RobustPca};
use spca_engine::{EigenQueryHandler, EpochStore, ServeShared};
use spca_streams::ops::http_server::{HttpServer, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic pseudo-random stream; must not allocate.
fn lcg_normal_ish(state: &mut u64) -> f64 {
    let mut s = 0.0;
    for _ in 0..4 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s += (*state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    s * 2.0
}

const DIM: usize = 64;
const P: usize = 4;

#[test]
fn serving_requests_do_not_allocate_on_the_update_thread() {
    let store = Arc::new(EpochStore::new());
    // Same prewarm `StreamingPcaOp::with_epoch_store` performs at build
    // time: boxes sized for the full d × (p+q) eigensystem, so after
    // this the publish path never allocates.
    let cfg = PcaConfig::new(DIM, P);
    store.prewarm(
        spca_engine::epoch::PREWARM_PER_WRITER,
        cfg.dim,
        cfg.p_total(),
    );
    let shared = Arc::new(ServeShared::new(Arc::clone(&store)));
    let server = {
        let shared = Arc::clone(&shared);
        HttpServer::start("127.0.0.1:0", ServerConfig::default(), move |_| {
            EigenQueryHandler::new(Arc::clone(&shared))
        })
        .unwrap()
    };
    let addr = server.local_addr();

    // Client threads hammer /project and /score for the whole test.
    let stop = Arc::new(AtomicBool::new(false));
    let obs_csv: String = (0..DIM)
        .map(|j| format!("{:.3}", (j as f64 * 0.17).sin()))
        .collect::<Vec<_>>()
        .join(",");
    let clients: Vec<_> = (0..3)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let obs_csv = obs_csv.clone();
            std::thread::spawn(move || {
                let path = if i % 2 == 0 { "/project" } else { "/score" };
                let mut buf = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let Ok(mut conn) = TcpStream::connect(addr) else {
                        continue;
                    };
                    let req = format!(
                        "POST {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{obs_csv}",
                        obs_csv.len()
                    );
                    if conn.write_all(req.as_bytes()).is_err() {
                        continue;
                    }
                    buf.clear();
                    let _ = conn.read_to_end(&mut buf);
                }
            })
        })
        .collect();

    // The update thread: warm up, then a measured allocation-free run.
    let update = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            track(true);
            let mut pca = RobustPca::new(PcaConfig::new(DIM, P));
            let mut state = 0x5eed_cafe_u64;
            let mut x = vec![0.0; DIM];
            let update_and_publish = |pca: &mut RobustPca, x: &mut Vec<f64>, state: &mut u64| {
                for xi in x.iter_mut() {
                    *xi = lcg_normal_ish(state);
                }
                pca.update(x).unwrap();
                if let Some(eig) = pca.full_eigensystem() {
                    // Shed the publish if stalled readers drained the
                    // pool — exactly what `publish_epoch` does.
                    if let Some(mut buf) = store.try_checkout() {
                        buf.eig.copy_from(eig);
                        buf.p = P;
                        store.publish(buf);
                    }
                }
            };
            // Warm-up: grow estimator workspaces and size the pooled
            // snapshot buffers, with queries already in flight.
            for _ in 0..400 {
                update_and_publish(&mut pca, &mut x, &mut state);
            }
            // Measured stretch under full serving load.
            let before = allocations();
            for _ in 0..2000 {
                update_and_publish(&mut pca, &mut x, &mut state);
            }
            let allocs = allocations() - before;
            track(false);
            allocs
        })
    };

    let allocs = update.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().unwrap();
    }
    server.shutdown();

    assert_eq!(
        allocs, 0,
        "update thread allocated {allocs} times during steady-state \
         update + epoch publishing with serving enabled"
    );
}
