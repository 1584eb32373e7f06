//! Concurrent epoch-publishing stress test (ISSUE 7 satellite): one
//! writer publishing at full rate, N reader threads continuously pinning
//! and querying. Every observed snapshot must be internally consistent —
//! the epoch sequence each reader observes is monotonic, and the
//! projection of a fixed probe vector through the pinned snapshot is
//! bit-identical to an offline computation against the eigensystem that
//! was published under that same epoch. A second case has two writers
//! share the store, as two engines of one `run --serve` do.

use spca_core::{EigenSystem, PcaConfig, QueryWorkspace, RobustPca};
use spca_engine::EpochStore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const DIM: usize = 24;
const P: usize = 3;
const N_SOURCES: usize = 32;
const N_READERS: usize = 4;
const N_PUBLISHES: u64 = 3000;

fn fitted_eig(seed: u64) -> EigenSystem {
    let mut pca = RobustPca::new(PcaConfig::new(DIM, P));
    for i in 0..60u64 {
        let t = (seed * 97 + i) as f64;
        let x: Vec<f64> = (0..DIM)
            .map(|j| (t * 0.31 + j as f64 * 0.7).sin() * (1.0 + seed as f64 * 0.1))
            .collect();
        pca.update(&x).unwrap();
    }
    pca.full_eigensystem().unwrap().clone()
}

#[test]
fn concurrent_publish_readers_see_consistent_epochs() {
    let store = Arc::new(EpochStore::new());
    let probe: Vec<f64> = (0..DIM).map(|j| (j as f64 * 0.13).cos() * 2.0).collect();

    // Distinct source eigensystems cycled by the writer; epoch e serves
    // sources[(e - 1) % N_SOURCES], so the expected projection for any
    // epoch is known offline without synchronizing with the writer.
    let sources: Vec<EigenSystem> = (0..N_SOURCES as u64).map(fitted_eig).collect();
    let expected: Vec<Vec<f64>> = sources
        .iter()
        .map(|eig| {
            let mut ws = QueryWorkspace::new();
            ws.project(eig, P, &probe).unwrap().to_vec()
        })
        .collect();

    let done = Arc::new(AtomicBool::new(false));
    let verified = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..N_READERS)
        .map(|_| {
            let store = Arc::clone(&store);
            let probe = probe.clone();
            let expected = expected.clone();
            let done = Arc::clone(&done);
            let verified = Arc::clone(&verified);
            std::thread::spawn(move || {
                let mut reader = store.reader().expect("reader slot");
                let mut ws = QueryWorkspace::new();
                let mut last_epoch = 0u64;
                let mut checked = 0u64;
                while !done.load(Ordering::Relaxed) || checked == 0 {
                    let Some(pinned) = reader.pin() else {
                        std::thread::yield_now();
                        continue;
                    };
                    let epoch = pinned.epoch;
                    assert!(
                        epoch >= last_epoch,
                        "epoch went backwards: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    let got = ws.project(&pinned.eig, pinned.p, &probe).unwrap();
                    let want = &expected[((epoch - 1) % N_SOURCES as u64) as usize];
                    assert_eq!(
                        got, want,
                        "projection at epoch {epoch} not bit-identical to offline"
                    );
                    checked += 1;
                    drop(pinned);
                }
                verified.fetch_add(checked, Ordering::Relaxed);
            })
        })
        .collect();

    // Writer: publish at full rate, recycling buffers through the store.
    for i in 0..N_PUBLISHES {
        let src = &sources[(i % N_SOURCES as u64) as usize];
        let mut buf = store.checkout();
        buf.eig.copy_from(src);
        buf.p = P;
        let epoch = store.publish(buf);
        assert_eq!(epoch, i + 1, "single-writer epochs must be sequential");
    }
    done.store(true, Ordering::Relaxed);

    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(store.epoch(), N_PUBLISHES);
    assert!(
        verified.load(Ordering::Relaxed) >= N_READERS as u64,
        "every reader must verify at least one snapshot"
    );
}

/// `run --serve --engines 2`: both engines publish into one store. Which
/// writer gets which epoch is a race, so each writer records the source it
/// published under every epoch it was assigned, each reader records the
/// source its pinned snapshot projects like, and the two must agree.
#[test]
fn two_writers_share_one_epoch_sequence() {
    const N_WRITERS: usize = 2;
    let store = Arc::new(EpochStore::new());
    let probe: Vec<f64> = (0..DIM).map(|j| (j as f64 * 0.13).cos() * 2.0).collect();
    let sources: Vec<EigenSystem> = (0..N_SOURCES as u64).map(fitted_eig).collect();
    let expected: Vec<Vec<f64>> = sources
        .iter()
        .map(|eig| {
            let mut ws = QueryWorkspace::new();
            ws.project(eig, P, &probe).unwrap().to_vec()
        })
        .collect();
    let writers_left = AtomicU64::new(N_WRITERS as u64);
    let start = std::sync::Barrier::new(N_WRITERS + N_READERS);

    let (published, observed) = std::thread::scope(|s| {
        let writers: Vec<_> = (0..N_WRITERS)
            .map(|w| {
                let (store, sources, start, writers_left) =
                    (&store, &sources, &start, &writers_left);
                s.spawn(move || {
                    start.wait();
                    let mine: Vec<(u64, usize)> = (0..N_PUBLISHES as usize / N_WRITERS)
                        .map(|i| {
                            let src = (w + N_WRITERS * i) % N_SOURCES;
                            let mut buf = store.checkout();
                            buf.eig.copy_from(&sources[src]);
                            buf.p = P;
                            (store.publish(buf), src)
                        })
                        .collect();
                    writers_left.fetch_sub(1, Ordering::Release);
                    mine
                })
            })
            .collect();
        let readers: Vec<_> = (0..N_READERS)
            .map(|_| {
                let (store, probe, expected, start, writers_left) =
                    (&store, &probe, &expected, &start, &writers_left);
                s.spawn(move || {
                    let mut reader = store.reader().expect("reader");
                    let mut ws = QueryWorkspace::new();
                    let mut seen: Vec<(u64, usize)> = Vec::new();
                    start.wait();
                    while writers_left.load(Ordering::Acquire) > 0 || seen.is_empty() {
                        let Some(pinned) = reader.pin() else {
                            std::thread::yield_now();
                            continue;
                        };
                        let last = seen.last().map_or(0, |&(e, _)| e);
                        assert!(
                            pinned.epoch >= last,
                            "epoch went backwards: {last} -> {}",
                            pinned.epoch
                        );
                        let got = ws.project(&pinned.eig, pinned.p, probe).unwrap();
                        let src = expected
                            .iter()
                            .position(|want| want == got)
                            .expect("projection matches no published source bit for bit");
                        if pinned.epoch > last {
                            seen.push((pinned.epoch, src));
                        }
                    }
                    seen
                })
            })
            .collect();
        let join = |hs: Vec<std::thread::ScopedJoinHandle<'_, Vec<(u64, usize)>>>| {
            hs.into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        };
        (join(writers), join(readers))
    });

    // Every epoch 1..=N went to exactly one publish.
    let mut source_of = published;
    source_of.sort_unstable();
    let epochs: Vec<u64> = source_of.iter().map(|&(e, _)| e).collect();
    assert_eq!(epochs, (1..=N_PUBLISHES).collect::<Vec<_>>());
    assert_eq!(store.epoch(), N_PUBLISHES);
    for (epoch, src) in observed {
        assert_eq!(
            source_of[epoch as usize - 1].1,
            src,
            "epoch {epoch} served another publish's eigensystem"
        );
    }
}
