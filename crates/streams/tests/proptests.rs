//! Property tests for the dataflow engine: tuple conservation, ordering,
//! and clean shutdown over randomized topologies.

use proptest::prelude::*;
use spca_streams::ops::{Split, SplitStrategy};
use spca_streams::{
    lock, ActiveSet, DataTuple, Engine, GraphBuilder, OpContext, Operator, PortKind, Rows,
    SourceState,
};
use std::sync::{Arc, Mutex};

struct CountSource {
    n: u64,
    next: u64,
}

impl Operator for CountSource {
    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if self.next >= self.n {
            return SourceState::Done;
        }
        ctx.emit_row(0, DataTuple::new(self.next, vec![self.next as f64]).row());
        self.next += 1;
        SourceState::Emitted
    }
}

struct Collect {
    seen: Arc<Mutex<Vec<u64>>>,
}

impl Operator for Collect {
    fn process_rows(&mut self, rows: Rows<'_>, _ctx: &mut OpContext<'_>) {
        for row in rows {
            lock(&self.seen).push(row.seq);
        }
    }
}

struct Relay;

impl Operator for Relay {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        for row in rows {
            ctx.emit_row(0, row);
        }
    }
}

/// A randomized linear pipeline: source → k relays → split(m) → collectors,
/// with a random subset of ops fused and a random channel capacity.
#[derive(Debug, Clone)]
struct Topology {
    n_tuples: u64,
    n_relays: usize,
    n_branches: usize,
    fuse_mask: u8,
    capacity: usize,
    strategy: u8,
    batch: usize,
}

/// Batch sizes biased toward the interesting corners: 1 (per-tuple
/// degenerate transport), 8, 64 (default), plus a free-range draw.
fn batch_size() -> impl Strategy<Value = usize> {
    (0u8..4, 1usize..128).prop_map(|(sel, free)| match sel {
        0 => 1,
        1 => 8,
        2 => 64,
        _ => free,
    })
}

fn topology() -> impl Strategy<Value = Topology> {
    (
        1u64..400,
        0usize..4,
        1usize..5,
        any::<u8>(),
        1usize..64,
        0u8..2,
        batch_size(),
    )
        .prop_map(
            |(n_tuples, n_relays, n_branches, fuse_mask, capacity, strategy, batch)| Topology {
                n_tuples,
                n_relays,
                n_branches,
                fuse_mask,
                capacity,
                strategy,
                batch,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every tuple the source emits reaches exactly one collector, exactly
    /// once, regardless of topology, fusion, capacity, split strategy, or
    /// transport batch size (including 1, the per-tuple degenerate case).
    #[test]
    fn conservation_over_random_topologies(t in topology()) {
        let mut g = GraphBuilder::new()
            .with_channel_capacity(t.capacity)
            .with_batch_size(t.batch);
        let src = g.add_source("src", Box::new(CountSource { n: t.n_tuples, next: 0 }));
        let mut prev = src;
        let mut all_ops = vec![src];
        for i in 0..t.n_relays {
            let r = g.add_op(format!("relay{i}"), Box::new(Relay));
            g.connect(prev, 0, r, PortKind::Data);
            prev = r;
            all_ops.push(r);
        }
        let strategy = match t.strategy {
            0 => SplitStrategy::Random,
            _ => SplitStrategy::RoundRobin,
        };
        let split = g.add_op("split", Box::new(Split::new(
            strategy,
            ActiveSet::new(t.n_branches, t.n_branches),
        )));
        g.connect(prev, 0, split, PortKind::Data);
        all_ops.push(split);

        let mut stores = Vec::new();
        for b in 0..t.n_branches {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let c = g.add_op(format!("sink{b}"), Box::new(Collect { seen: Arc::clone(&seen) }));
            g.connect(split, b, c, PortKind::Data);
            stores.push(seen);
            all_ops.push(c);
        }

        // Fuse a random prefix of the op list.
        let prefix = (t.fuse_mask as usize % all_ops.len()).max(1);
        g.fuse(&all_ops[..prefix]);

        let report = Engine::run(g);

        let mut seqs: Vec<u64> = stores
            .iter()
            .flat_map(|s| lock(s).clone())
            .collect();
        seqs.sort_unstable();
        let expected: Vec<u64> = (0..t.n_tuples).collect();
        prop_assert_eq!(seqs, expected, "loss or duplication");
        prop_assert_eq!(report.op("src").unwrap().tuples_out, t.n_tuples);
    }

    /// A single-consumer pipeline preserves order end to end whatever the
    /// fusion and capacity choices.
    #[test]
    fn fifo_order_preserved(n in 1u64..500, relays in 0usize..4, cap in 1usize..32, fuse in any::<bool>(), batch in batch_size()) {
        let mut g = GraphBuilder::new().with_channel_capacity(cap).with_batch_size(batch);
        let src = g.add_source("src", Box::new(CountSource { n, next: 0 }));
        let mut prev = src;
        let mut ops = vec![src];
        for i in 0..relays {
            let r = g.add_op(format!("relay{i}"), Box::new(Relay));
            g.connect(prev, 0, r, PortKind::Data);
            prev = r;
            ops.push(r);
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let c = g.add_op("sink", Box::new(Collect { seen: Arc::clone(&seen) }));
        g.connect(prev, 0, c, PortKind::Data);
        ops.push(c);
        if fuse {
            g.fuse(&ops);
        }
        Engine::run(g);
        let got = lock(&seen).clone();
        prop_assert_eq!(got.len() as u64, n);
        prop_assert!(got.windows(2).all(|w| w[1] == w[0] + 1), "order violated");
    }

    /// Stopping mid-stream never deadlocks and never duplicates: whatever
    /// was delivered is a prefix-free subset of what was generated.
    #[test]
    fn stop_is_safe(cap in 1usize..16, batch in batch_size()) {
        struct Forever(u64);
        impl Operator for Forever {
            fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
                ctx.emit_row(0, DataTuple::new(self.0, vec![]).row());
                self.0 += 1;
                SourceState::Emitted
            }
        }
        let mut g = GraphBuilder::new().with_channel_capacity(cap).with_batch_size(batch);
        let src = g.add_source("src", Box::new(Forever(0)));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let c = g.add_op("sink", Box::new(Collect { seen: Arc::clone(&seen) }));
        g.connect(src, 0, c, PortKind::Data);
        let running = Engine::start(g);
        std::thread::sleep(std::time::Duration::from_millis(5));
        running.stop();
        let report = running.join();
        let got = lock(&seen).clone();
        // No duplicates and nothing beyond what the source emitted.
        prop_assert!(got.windows(2).all(|w| w[1] > w[0]));
        prop_assert!(got.len() as u64 <= report.op("src").unwrap().tuples_out);
    }
}
