//! Supervision: one supervisor per PE, with InfoSphere's operator/PE split
//! as its two restart scopes. Every operator callback runs through one
//! function, [`call`], which names the running member and callback in
//! [`PeCore::in_call`]. The scheduler loop runs under one `catch_unwind`
//! ([`run_pe`]); the PE's channels, in-flight tuples and operators live
//! outside it (in [`PeRuntime`]), so a panic unwinds only the loop's stack,
//! and `in_call` decides what restarts:
//!
//! * **The operator**, for a panic in `process_rows` or `on_control`.
//!   When the loop re-enters, [`restart_op`] backs off, asks
//!   [`Operator::recover`] — the operator's consent to go on — restores a
//!   consenting one with a [`crate::checkpoint::Checkpoint`] facet from the
//!   PE's checkpoint, and re-feeds the row in flight once, as a run of
//!   one; the run's rows not yet taken are routed after it. One that
//!   declines is finished so its end-of-stream still propagates. Counted
//!   as [`Counter::Restarts`].
//! * **The PE**, for a panic in `drive`, `on_start` or `on_finish`, or
//!   outside any callback (an injected `kill-pe`). [`restart_pe`] restores
//!   every checkpointable member from the PE's checkpoint, cross-PE frame
//!   channels reconnect untouched (the local frames and edge buffers
//!   survive), and the loop re-enters; a member that panicked in a hook is
//!   finished first, without it. Counted as [`Counter::PeRestarts`] on
//!   every member.
//!
//! Both are bounded by the PE's one
//! [`RestartPolicy`](crate::fault::RestartPolicy). Deterministic
//! operator faults (panic/kill-pe/poison/stall) are injected from the
//! builder's [`crate::fault::FaultPlan`]; its storage and wire faults go to
//! the PE's VFS and the socket transport.

use super::durability;
use super::route::{drain_pending, finish_op, flush_all, punctuate, Inbox, PeSink, RowAt, Src};
use super::sched::{run_pe_once, OpSlot, PeCore, PeRuntime};
use crate::fault::FaultAction;
use crate::metrics::Counter;
use crate::operator::{OpContext, Operator};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Panic payload of the injected faults (`panic@`, `kill-pe@`). Both fire
/// after `process_rows` returned, so the state they unwind from is whole
/// and worth persisting before the restore.
pub(super) struct PeKill;

/// Fires the plan's faults due at the next data row fed to `slot`, or
/// `None` while none is armed. Returns the value a poison fills that row
/// with and whether an injected `panic@` or `kill-pe@` follows its call; a
/// stall sleeps here, before the call.
pub(super) fn fire_faults(slot: &mut OpSlot) -> Option<(Option<f64>, bool, bool)> {
    if slot.faults.iter().all(Option::is_none) {
        return None;
    }
    let (mut poison, mut panic_due, mut kill_pe_due) = (None, false, false);
    slot.fault_data_seen += 1;
    let seen = slot.fault_data_seen;
    for armed in slot.faults.iter_mut() {
        match *armed {
            Some(FaultAction::PoisonNan(n)) if n == seen => poison = Some(f64::NAN),
            Some(FaultAction::PoisonInf(n)) if n == seen => poison = Some(f64::INFINITY),
            Some(FaultAction::Stall { at, ms }) if at == seen => {
                std::thread::sleep(Duration::from_millis(ms))
            }
            Some(FaultAction::PanicAfter(n)) if n == seen => panic_due = true,
            Some(FaultAction::KillPe(n)) if n == seen => kill_pe_due = true,
            _ => continue,
        }
        *armed = None;
    }
    Some((poison, panic_due, kill_pe_due))
}

/// Which operator callback is running: what [`run_pe`] reads to pick the
/// restart scope when the PE unwinds.
pub(super) enum Call {
    Start,
    Drive,
    /// A run of rows of `src` from row `first` on: its row cursor says
    /// which one is in flight.
    Rows {
        src: Src,
        first: usize,
    },
    /// Row `r` of `src` again, after a restart.
    Refeed {
        src: Src,
        r: usize,
    },
    Control,
    Finish,
}

/// The one path into an operator: runs callback `what` of member `idx`
/// with a context wired to the PE's sink, timed into the op's busy counter.
/// The operator is borrowed in its slot, and `in_call` names it until the
/// callback returns, so a panic inside tells [`run_pe`] whose it was. The
/// callback also sees the PE's inbox, where a run of rows lives.
pub(super) fn call<R>(
    pe: &mut PeCore,
    idx: usize,
    what: Call,
    f: impl FnOnce(&mut dyn Operator, &mut OpContext<'_>, &mut Inbox) -> R,
) -> R {
    pe.in_call = Some((idx, what));
    let slot = &mut pe.slots[idx];
    let mut sink = PeSink {
        out_ports: &mut slot.out_ports,
        queued: &mut pe.queued,
        stop: &pe.stop,
    };
    let ctx = &mut OpContext::new(&mut sink, &slot.counters);
    let t0 = Instant::now();
    let ret = f(&mut *slot.op, ctx, &mut pe.inbox);
    slot.counters.add_busy(t0.elapsed().as_nanos() as u64);
    pe.in_call = None;
    ret
}

/// PE thread entry: the supervisor. The scheduler body runs under the PE's
/// one `catch_unwind` while [`PeRuntime`] stays owned out here, so a panic
/// tears down only the *stack* of the scheduler. What was running picks the
/// scope: a panic in `process_rows` or `on_control` leaves an operator
/// restart owed to the re-entered loop; anything else restarts the PE.
pub(super) fn run_pe(mut pe: PeRuntime) {
    while let Err(payload) =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_pe_once(&mut pe)))
    {
        let injected = payload.is::<PeKill>();
        let core = &mut pe.core;
        match core.in_call.take() {
            // A run of rows: the ones taken are consumed, the last of them
            // unprocessed and re-fed from where it lies — unless the panic
            // was the injected one, which fires after `process_rows`
            // returned, with the state whole. The rest stay queued behind
            // the cursor and are routed after the restart.
            Some((idx, Call::Rows { src, first })) => {
                let taken = core.inbox.cursor(src).row.get() - first;
                core.inbox.consumed(src, first, taken);
                core.slots[idx].counters.add_in(taken as u64);
                let retry = (taken > 0 && !injected).then_some((src, first + taken - 1));
                pe.owed_restart = Some((idx, retry, injected));
                continue;
            }
            // A re-fed row that panicked again: owed once more, to be
            // dropped as a poison pill.
            Some((idx, Call::Refeed { src, r })) => {
                pe.owed_restart = Some((idx, Some((src, r)), false));
                continue;
            }
            // Control tuples are never redelivered: sync commands are
            // periodic, and a missed one is the next skipped sync.
            Some((idx, Call::Control)) => {
                pe.owed_restart = Some((idx, None, false));
                continue;
            }
            Some((idx, Call::Drive)) => eprintln!(
                "[supervisor] source '{}' panicked in drive; escalating to a PE restart",
                core.slots[idx].name
            ),
            // A hook cannot be re-run; finish its operator without it so
            // its end-of-stream propagates while the rest of the PE comes
            // back.
            Some((idx, _)) => {
                eprintln!(
                    "[supervisor] operator '{}' panicked in a start or finish hook; finishing it",
                    core.slots[idx].name
                );
                core.slots[idx].finished = true;
                punctuate(core, idx);
            }
            None => {}
        }
        if !restart_pe(&mut pe, injected) {
            return;
        }
    }
}

/// The PE restart. Returns false when the restart budget is exhausted — the
/// PE is then wound down (EOS on every port) so the rest of the graph still
/// drains.
fn restart_pe(pe: &mut PeRuntime, clean: bool) -> bool {
    pe.pe_restarts += 1;
    let attempt = pe.pe_restarts;
    let pe = &mut pe.core;
    let (pe_index, policy) = (pe.pe_index, pe.policy);
    if attempt > policy.max_restarts {
        eprintln!(
            "[supervisor] PE {pe_index} exceeded {} restarts; winding it down",
            policy.max_restarts
        );
        for i in 0..pe.slots.len() {
            finish_op(pe, i);
        }
        drain_pending(pe);
        flush_all(&mut pe.slots);
        return false;
    }
    eprintln!(
        "[supervisor] PE {pe_index} died ({}); restarting (attempt {attempt})",
        if clean {
            "injected kill"
        } else {
            "escaped panic"
        }
    );
    std::thread::sleep(policy.backoff(attempt));
    if durability::teardown(pe, None, clean) {
        durability::restore(pe, None);
    }
    for s in pe.slots.iter() {
        s.counters.add(Counter::PeRestarts, 1);
    }
    true
}

/// The operator restart, run by the re-entered loop: capped exponential
/// backoff, then a guarded `recover` call — the operator's consent to go
/// on. A consenting operator with durable state (a
/// [`Checkpoint`](crate::checkpoint::Checkpoint) facet, in a PE with a
/// checkpoint dir) is then restored from the PE manifest, the same copy a
/// PE restart reads: after a `clean` panic (the injected one, which left
/// its state whole) from a teardown capture of exactly that state, after a
/// real one from the last committed generation. It resumes, re-fed the
/// in-flight row once, as a run of one, from the frame it lies in (nothing
/// routes between the unwind and this); an operator that declines — or is
/// past its restart budget — is finished so end-of-stream still propagates
/// downstream.
pub(super) fn restart_op(pe: &mut PeCore, idx: usize, retry: Option<RowAt>, clean: bool) {
    let attempt = pe.slots[idx].restart_attempts + 1;
    let policy = pe.policy;
    if attempt > policy.max_restarts {
        eprintln!(
            "[supervisor] operator '{}' exceeded {} restarts; finishing it",
            pe.slots[idx].name, policy.max_restarts
        );
        finish_op(pe, idx);
        return;
    }
    std::thread::sleep(policy.backoff(attempt));
    // Before `recover`, which may reset the state it is asked about.
    let durable = durability::teardown(pe, Some(idx), clean);
    // recover() itself runs guarded: an operator that panics while
    // restoring is unrecoverable.
    let op = &mut pe.slots[idx].op;
    let recovered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op.recover(attempt)));
    match recovered {
        Ok(true) => {
            if durable {
                durability::restore(pe, Some(idx));
            }
            pe.slots[idx].restart_attempts = attempt;
            pe.slots[idx].counters.add(Counter::Restarts, 1);
            // Redeliver the in-flight row exactly once: a row whose retry
            // panics again is a poison pill and is dropped.
            if let Some((src, r)) = retry {
                let seq = pe.inbox.cursor(src).frame.row(r).seq;
                if pe.slots[idx].last_redelivered != Some(seq) {
                    pe.slots[idx].last_redelivered = Some(seq);
                    call(pe, idx, Call::Refeed { src, r }, |op, ctx, inbox| {
                        let c = inbox.cursor(src);
                        op.process_rows(c.frame.rows(&Cell::new(r), r + 1), ctx)
                    });
                }
            }
        }
        _ => {
            eprintln!(
                "[supervisor] operator '{}' did not recover (attempt {attempt}); finishing it",
                pe.slots[idx].name
            );
            finish_op(pe, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::{Collect, CountSource, Double, DurableSource};
    use crate::engine::Engine;
    use crate::graph::{GraphBuilder, PortKind};
    use crate::metrics::Counter;
    use crate::operator::{OpContext, Operator, SourceState};
    use crate::watched::lock;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    #[test]
    fn kill_pe_restarts_the_pe_without_losing_tuples() {
        // Kill the PE hosting `double` after its 50th tuple. The injected
        // kill fires between tuples, the PE rebuilds in place, and every
        // tuple still arrives exactly once, in order.
        let mut g = GraphBuilder::new()
            .with_fault_plan(crate::fault::FaultPlan::parse("kill-pe@double:50").unwrap());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 1000, next: 0 }));
        let mid = g.add_op("double", Box::new(Double));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, mid, PortKind::Data);
        g.connect(mid, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        let data = lock(&seen).clone();
        assert_eq!(data.len(), 1000, "kill-pe must not lose or duplicate");
        assert!(data.windows(2).all(|w| w[1] == w[0] + 1), "order violated");
        assert_eq!(report.op("double").unwrap().get(Counter::PeRestarts), 1);
        assert_eq!(report.op("src").unwrap().get(Counter::PeRestarts), 0);
        assert_eq!(report.total(Counter::PeRestarts), 1);
        // Operator-level restarts are a different counter and stay zero.
        assert_eq!(report.total(Counter::Restarts), 0);
    }

    #[test]
    fn kill_pe_in_fused_pe_counts_every_member() {
        let mut g = GraphBuilder::new()
            .with_fault_plan(crate::fault::FaultPlan::parse("kill-pe@double:10").unwrap());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 200, next: 0 }));
        let mid = g.add_op("double", Box::new(Double));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, mid, PortKind::Data);
        g.connect(mid, 0, sink, PortKind::Data);
        g.fuse(&[mid, sink]);
        let report = Engine::run(g);
        assert_eq!(lock(&seen).len(), 200);
        // Both fused members lived through the same PE restart.
        assert_eq!(report.op("double").unwrap().get(Counter::PeRestarts), 1);
        assert_eq!(report.op("collect").unwrap().get(Counter::PeRestarts), 1);
        assert_eq!(report.op("src").unwrap().get(Counter::PeRestarts), 0);
    }

    #[test]
    fn kill_pe_with_checkpoint_dir_round_trips_state_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "spca-engine-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Fault triggers count data tuples *delivered to* an operator, so
        // the kill targets `double` — fused with the source below, its PE
        // death tears the checkpointable source down with it.
        let mut g = GraphBuilder::new()
            .with_fault_plan(crate::fault::FaultPlan::parse("kill-pe@double:40").unwrap())
            .with_checkpoint_dir(&dir);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source(
            "src",
            Box::new(DurableSource {
                n: 500,
                next: 0,
                every: 25,
            }),
        );
        let mid = g.add_op("double", Box::new(Double));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, mid, PortKind::Data);
        g.connect(mid, 0, sink, PortKind::Data);
        // Fuse the source with `double` so killing the PE (triggered by
        // double's 40th tuple) also tears down the checkpointable source;
        // the clean kill persists `next` at teardown and restores it, so
        // the stream continues exactly where it left off.
        g.fuse(&[src, mid]);
        let report = Engine::run(g);
        let data = lock(&seen).clone();
        assert_eq!(data.len(), 500, "restored cursor must not skip or repeat");
        assert!(data.windows(2).all(|w| w[1] == w[0] + 1), "order violated");
        assert_eq!(report.op("src").unwrap().get(Counter::PeRestarts), 1);
        // The teardown generation is on disk, whole, and names the durable
        // source.
        let rec = crate::checkpoint::recover_pe_manifest(&dir, 0);
        assert_eq!((rec.quarantined, rec.fell_back), (0, false));
        let set = rec.set.expect("PE 0 wrote a generation");
        assert!(set.iter().any(|(name, _)| name == "src"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drive_panic_escalates_to_pe_restart_and_recovers_from_checkpoint() {
        // A source that panics in drive() once, at tuple 30. The PE-level
        // supervisor restores its cursor from the last periodic checkpoint
        // (cadence 10), so some tuples repeat but none are skipped.
        struct FlakySource {
            inner: DurableSource,
            panic_at: u64,
            panicked: bool,
        }
        impl Operator for FlakySource {
            fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
                if !self.panicked && self.inner.next == self.panic_at {
                    self.panicked = true;
                    panic!("flaky source");
                }
                self.inner.drive(ctx)
            }
            fn checkpoint(&mut self) -> Option<&mut dyn crate::checkpoint::Checkpoint> {
                Some(&mut self.inner)
            }
        }
        let dir = std::env::temp_dir().join(format!(
            "spca-engine-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = GraphBuilder::new().with_checkpoint_dir(&dir);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source(
            "src",
            Box::new(FlakySource {
                inner: DurableSource {
                    n: 100,
                    next: 0,
                    every: 10,
                },
                panic_at: 30,
                panicked: true,
            }),
        );
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        // First make sure the no-panic baseline works, then the panic run.
        let report = Engine::run(g);
        assert_eq!(lock(&seen).len(), 100);
        assert_eq!(report.total(Counter::PeRestarts), 0);

        let mut g = GraphBuilder::new().with_checkpoint_dir(&dir);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source(
            "src",
            Box::new(FlakySource {
                inner: DurableSource {
                    n: 100,
                    next: 0,
                    every: 10,
                },
                panic_at: 30,
                panicked: false,
            }),
        );
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        let data = lock(&seen).clone();
        assert_eq!(report.op("src").unwrap().get(Counter::PeRestarts), 1);
        // The cursor rewound to a checkpoint at or before tuple 30: every
        // value 0..100 is present (no loss), duplicates only inside the
        // rewind window.
        let mut uniq: Vec<u64> = data.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq, (0..100).collect::<Vec<u64>>(), "values lost");
        assert!(
            data.len() >= 100 && data.len() <= 100 + 30,
            "rewind window too large: {} tuples",
            data.len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pe_restart_budget_exhaustion_winds_the_pe_down() {
        // Every drive() call panics: the PE burns its restart budget and is
        // wound down; EOS still propagates so the run terminates.
        struct AlwaysPanics;
        impl Operator for AlwaysPanics {
            fn drive(&mut self, _ctx: &mut OpContext<'_>) -> SourceState {
                panic!("always");
            }
        }
        let mut g = GraphBuilder::new().with_restart_policy(crate::fault::RestartPolicy {
            max_restarts: 2,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("bad", Box::new(AlwaysPanics));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        assert!(lock(&seen).is_empty());
        assert_eq!(report.op("bad").unwrap().get(Counter::PeRestarts), 2);
    }
}
