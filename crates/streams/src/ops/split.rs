//! The load-balancing split (§III-A2).
//!
//! "We split the input stream by time to a number of streams that are
//! rerouted to a corresponding PCA engine. The order of target instances is
//! random and is chosen by the splitting component to equally balance and
//! maximize the cluster nodes load. InfoSphere provides the multi-threaded
//! Signal splitter component to push the data to multiple targets without
//! blocking the queue on one target. Using this scheme, faster nodes will
//! get more data than slower ones."
//!
//! The non-blocking behaviour is implemented with `try_emit_row`: the split
//! picks a target (randomly or round-robin), and if that engine's queue is
//! full it immediately tries the others — so slow consumers shed load to
//! fast ones, exactly the paper's semantics. Only when *every* queue is
//! full does the split block (backpressure to the source).

use crate::checkpoint::{decode_kv, encode_kv, kv_parse, kv_u64, Checkpoint};
use crate::membership::ActiveSet;
use crate::operator::{OpContext, Operator};
use crate::tuple::Rows;
use std::sync::Arc;

/// Seed for the random strategy — fixed so runs (and restarts) are
/// reproducible.
const SPLIT_SEED: u64 = 0x517EC7;

/// The random strategy's `i`-th draw: the splitmix64 output function over
/// `SPLIT_SEED` advanced `i` steps. A pure function of the pick index, so a
/// restored split continues the sequence without replaying it.
fn draw(i: u64) -> u64 {
    let mut z = SPLIT_SEED.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Target-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Uniform random target per tuple (the paper's choice — it also
    /// provides the stream randomization §II-B asks for).
    Random,
    /// Cycle through targets.
    RoundRobin,
}

/// 1-in / n-out load-balancing splitter.
pub struct Split {
    strategy: SplitStrategy,
    next_rr: usize,
    /// Picks made so far — checkpointed so a restored split continues the
    /// same random target sequence.
    picks: u64,
    /// Tuples that had to block because every target was full.
    pub blocked: u64,
    /// Elastic membership: only ports `0..active()` receive traffic
    /// (standby engines past the boundary see no tuples until the
    /// autoscaler admits them).
    active: Arc<ActiveSet>,
}

impl Split {
    /// A splitter with the given strategy, routing over the membership
    /// prefix: output port `i` feeds engine `i`, and only ports
    /// `0..active.active()` receive tuples. The autoscaler re-targets the
    /// split by moving the boundary — no graph mutation.
    pub fn new(strategy: SplitStrategy, active: Arc<ActiveSet>) -> Self {
        Split {
            strategy,
            next_rr: 0,
            picks: 0,
            blocked: 0,
            active,
        }
    }

    /// The first-choice port among the `active` eligible of `n` wired.
    fn pick(&mut self, n: usize, active: usize) -> usize {
        let pick = self.picks;
        self.picks += 1;
        match self.strategy {
            // Draw over the full port range, then fold into the active
            // prefix: a tuple's draw depends on the pick index and the
            // (fixed) port count alone, so routing is the same across
            // restores and rescale histories.
            SplitStrategy::Random => (draw(pick) % n as u64) as usize % active,
            SplitStrategy::RoundRobin => {
                let i = self.next_rr % active;
                self.next_rr = self.next_rr.wrapping_add(1);
                i
            }
        }
    }
}

impl Operator for Split {
    fn process_rows(&mut self, rows: Rows<'_>, ctx: &mut OpContext<'_>) {
        let n = ctx.n_out_ports();
        if n == 0 {
            return;
        }
        for row in rows {
            // Read once per row: the pick and the shed loop below agree on
            // the boundary even while an autoscaler moves it.
            let active = self.active.active().min(n).max(1);
            let first = self.pick(n, active);
            // Try the chosen target, then the rest of the *active* set in
            // cyclic order; block on the original choice only if all are
            // full. Standby ports never receive traffic, even under
            // backpressure.
            let sent = (0..active).any(|off| ctx.try_emit_row((first + off) % active, row));
            if !sent {
                self.blocked += 1;
                ctx.emit_row(first, row);
            }
        }
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

impl Checkpoint for Split {
    fn snapshot(&self) -> Vec<u8> {
        encode_kv(&[
            ("next_rr", self.next_rr.to_string()),
            ("picks", self.picks.to_string()),
            ("blocked", self.blocked.to_string()),
        ])
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let kv = decode_kv(bytes)?;
        self.next_rr = kv_parse(&kv, "next_rr")?;
        self.picks = kv_u64(&kv, "picks")?;
        self.blocked = kv_u64(&kv, "blocked")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OpCounters;
    use crate::operator::testing::{feed_tuple, with_ctx, CaptureSink};
    use crate::tuple::DataTuple;

    fn feed(split: &mut Split, n_ports: usize, n_tuples: u64) -> CaptureSink {
        with_ctx(n_ports, |ctx| {
            for seq in 0..n_tuples {
                feed_tuple(split, DataTuple::new(seq, vec![seq as f64]), ctx);
            }
        })
    }

    #[test]
    fn round_robin_balances_exactly() {
        let mut s = Split::new(SplitStrategy::RoundRobin, ActiveSet::new(4, 4));
        let sink = feed(&mut s, 4, 100);
        for p in 0..4 {
            assert_eq!(sink.data_at(p).len(), 25, "port {p}");
        }
    }

    #[test]
    fn random_balances_statistically() {
        let mut s = Split::new(SplitStrategy::Random, ActiveSet::new(4, 4));
        let sink = feed(&mut s, 4, 4000);
        for p in 0..4 {
            let n = sink.data_at(p).len();
            assert!((800..1200).contains(&n), "port {p} got {n}");
        }
    }

    #[test]
    fn no_tuple_lost_or_duplicated() {
        let mut s = Split::new(SplitStrategy::Random, ActiveSet::new(3, 3));
        let sink = feed(&mut s, 3, 1000);
        let mut seqs: Vec<u64> = (0..3)
            .flat_map(|p| sink.data_at(p).into_iter().map(|d| d.seq))
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn full_target_sheds_to_next() {
        let mut s = Split::new(SplitStrategy::RoundRobin, ActiveSet::new(2, 2));
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(2);
        sink.full_ports[0] = true; // engine 0 saturated
        {
            let mut ctx = OpContext::new(&mut sink, &counters);
            for seq in 0..10 {
                feed_tuple(&mut s, DataTuple::new(seq, vec![]), &mut ctx);
            }
        }
        // Everything lands on port 1; nothing blocked because port 1 open.
        assert_eq!(sink.data_at(1).len(), 10);
        assert_eq!(s.blocked, 0);
    }

    #[test]
    fn all_full_blocks_and_counts() {
        let mut s = Split::new(SplitStrategy::Random, ActiveSet::new(2, 2));
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(2);
        sink.full_ports = vec![true, true];
        {
            let mut ctx = OpContext::new(&mut sink, &counters);
            feed_tuple(&mut s, DataTuple::new(0, vec![]), &mut ctx);
        }
        assert_eq!(s.blocked, 1);
        // CaptureSink's blocking emit still records the tuple.
        let total: usize = (0..2).map(|p| sink.data_at(p).len()).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn random_split_resumes_identical_target_sequence_after_restore() {
        // Run one split uninterrupted; run another that checkpoints and is
        // replaced by a restored instance mid-stream. The per-port tuple
        // sequences must match exactly — the restored split continues at
        // the checkpointed pick index.
        let mut whole = Split::new(SplitStrategy::Random, ActiveSet::new(4, 4));
        let expected = feed(&mut whole, 4, 300);

        let mut first_half = Split::new(SplitStrategy::Random, ActiveSet::new(4, 4));
        let sink_a = feed(&mut first_half, 4, 120);
        let bytes = Checkpoint::snapshot(&first_half);
        let mut second_half = Split::new(SplitStrategy::Random, ActiveSet::new(4, 4));
        second_half.restore(&bytes).unwrap();
        let sink_b = with_ctx(4, |ctx| {
            for seq in 120..300 {
                feed_tuple(&mut second_half, DataTuple::new(seq, vec![seq as f64]), ctx);
            }
        });

        for p in 0..4 {
            let mut got: Vec<u64> = sink_a.data_at(p).iter().map(|d| d.seq).collect();
            got.extend(sink_b.data_at(p).iter().map(|d| d.seq));
            let want: Vec<u64> = expected.data_at(p).iter().map(|d| d.seq).collect();
            assert_eq!(got, want, "port {p}");
        }

        // Resuming is O(1) in the picks made: a split 2^40 rows into its
        // stream routes its next tuple at once.
        let far = encode_kv(&[
            ("next_rr", "0".to_string()),
            ("picks", (1u64 << 40).to_string()),
            ("blocked", "0".to_string()),
        ]);
        let mut late = Split::new(SplitStrategy::Random, ActiveSet::new(4, 4));
        late.restore(&far).unwrap();
        let sink = feed(&mut late, 4, 1);
        assert_eq!((0..4).map(|p| sink.data_at(p).len()).sum::<usize>(), 1);
        assert_eq!(late.picks, (1 << 40) + 1);
    }

    #[test]
    fn round_robin_split_restores_its_cursor() {
        let mut s = Split::new(SplitStrategy::RoundRobin, ActiveSet::new(4, 4));
        feed(&mut s, 4, 7); // cursor now mid-cycle at 7 % 4 == 3
        let bytes = Checkpoint::snapshot(&s);
        let mut restored = Split::new(SplitStrategy::RoundRobin, ActiveSet::new(4, 4));
        restored.restore(&bytes).unwrap();
        let sink = feed(&mut restored, 4, 1);
        assert_eq!(sink.data_at(3).len(), 1);
    }

    #[test]
    fn active_set_confines_traffic_to_the_prefix() {
        let active = ActiveSet::new(2, 4);
        let mut s = Split::new(SplitStrategy::Random, Arc::clone(&active));
        let sink = feed(&mut s, 4, 400);
        assert!(sink.data_at(0).len() > 100);
        assert!(sink.data_at(1).len() > 100);
        assert!(sink.data_at(2).is_empty(), "standby port 2 got traffic");
        assert!(sink.data_at(3).is_empty(), "standby port 3 got traffic");
    }

    #[test]
    fn admitted_engine_starts_receiving_and_retired_engine_stops() {
        let active = ActiveSet::new(1, 3);
        let mut s = Split::new(SplitStrategy::RoundRobin, Arc::clone(&active));
        let sink1 = feed(&mut s, 3, 10);
        assert_eq!(sink1.data_at(0).len(), 10);
        active.set_active(3); // scale out
        let sink2 = feed(&mut s, 3, 9);
        assert_eq!(sink2.data_at(0).len(), 3);
        assert_eq!(sink2.data_at(1).len(), 3);
        assert_eq!(sink2.data_at(2).len(), 3);
        active.set_active(2); // retire engine 2
        let sink3 = feed(&mut s, 3, 10);
        assert!(sink3.data_at(2).is_empty(), "retired port 2 got traffic");
        assert_eq!(sink3.data_at(0).len() + sink3.data_at(1).len(), 10);
    }

    #[test]
    fn active_set_shed_path_never_touches_standby_ports() {
        let active = ActiveSet::new(2, 3);
        let mut s = Split::new(SplitStrategy::Random, Arc::clone(&active));
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(3);
        sink.full_ports = vec![true, true, false]; // only the standby is open
        {
            let mut ctx = OpContext::new(&mut sink, &counters);
            for seq in 0..5 {
                feed_tuple(&mut s, DataTuple::new(seq, vec![]), &mut ctx);
            }
        }
        // Both active ports full: the split blocks rather than leaking
        // tuples to the standby engine.
        assert_eq!(s.blocked, 5);
        assert!(sink.data_at(2).is_empty(), "standby port received sheds");
    }

    #[test]
    fn random_split_replay_is_deterministic_across_rescale_history() {
        // A split that scaled out mid-stream, checkpointed, and was
        // restored must route the remaining tuples exactly like an
        // uninterrupted split with the same membership history: the random
        // draw is over the full port range, so membership never shifts
        // the consumed sequence.
        let mk = || {
            let active = ActiveSet::new(1, 4);
            let s = Split::new(SplitStrategy::Random, Arc::clone(&active));
            (s, active)
        };
        let (mut whole, active_w) = mk();
        let a = feed(&mut whole, 4, 100);
        active_w.set_active(3);
        let b = with_ctx(4, |ctx| {
            for seq in 100..300 {
                feed_tuple(&mut whole, DataTuple::new(seq, vec![seq as f64]), ctx);
            }
        });

        let (mut part, active_p) = mk();
        let a2 = feed(&mut part, 4, 100);
        active_p.set_active(3);
        let bytes = Checkpoint::snapshot(&part);
        let (mut restored, active_r) = mk();
        restored.restore(&bytes).unwrap();
        active_r.set_active(3);
        let b2 = with_ctx(4, |ctx| {
            for seq in 100..300 {
                feed_tuple(&mut restored, DataTuple::new(seq, vec![seq as f64]), ctx);
            }
        });

        for p in 0..4 {
            let mut got: Vec<u64> = a2.data_at(p).iter().map(|d| d.seq).collect();
            got.extend(b2.data_at(p).iter().map(|d| d.seq));
            let mut want: Vec<u64> = a.data_at(p).iter().map(|d| d.seq).collect();
            want.extend(b.data_at(p).iter().map(|d| d.seq));
            assert_eq!(got, want, "port {p}");
        }
    }
}
