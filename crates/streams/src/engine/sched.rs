//! The scheduler loop and the PE's wait: one thread per PE drives its
//! sources, sweeps its channels and sleeps on its one wake-up when there is
//! nothing to do.

use super::durability::{self, PeDurability};
use super::route::{
    drain_pending, finish_op, flush_all, sweep_channels, Inbox, LocalFrame, RowAt, Target,
};
use super::supervise::{call, restart_op, Call};
use crate::fault::{FaultAction, RestartPolicy};
use crate::metrics::OpCounters;
use crate::operator::{Operator, SourceState};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

pub(super) struct OpSlot {
    pub(super) name: String,
    pub(super) op: Box<dyn Operator>,
    pub(super) counters: Arc<OpCounters>,
    pub(super) out_ports: Vec<Vec<Target>>,
    pub(super) is_source: bool,
    pub(super) data_in_degree: usize,
    pub(super) ctrl_in_degree: usize,
    pub(super) eos_data: usize,
    pub(super) eos_ctrl: usize,
    pub(super) finished: bool,
    /// Operator faults (panic/poison/stall) from the plan, each taken once
    /// it fires, so a plan stays a finite, reproducible script; empty in
    /// normal runs. While one is armed, the slot is fed runs of one row, so
    /// each fires at its row.
    pub(super) faults: Vec<Option<FaultAction>>,
    /// 1-based count of data rows delivered, for fault trigger points.
    pub(super) fault_data_seen: u64,
    /// Operator restarts performed so far (compared against the PE's
    /// `policy.max_restarts`).
    pub(super) restart_attempts: u64,
    /// Sequence number of the last redelivered tuple: a tuple whose retry
    /// panics again is a poison pill and is dropped, not redelivered
    /// forever.
    pub(super) last_redelivered: Option<u64>,
}

/// Everything a PE owns that must survive a restart. The scheduler body
/// (`run_pe_once`) only *borrows* this, so when a panic unwinds the body,
/// channel endpoints (senders live in the slots' remote targets, receivers
/// in `core.inbox.metas`), partially consumed frame cursors, the local
/// frames, and the operators themselves all survive for the supervisor to
/// rebuild around.
pub(super) struct PeRuntime {
    pub(super) core: PeCore,
    /// Rung by every producer into this PE (see `tuple::Wake`): what the
    /// scheduler waits on when it has nothing to do.
    pub(super) woken: Receiver<()>,
    /// Whole-PE restarts performed so far.
    pub(super) pe_restarts: u64,
    /// The operator restart an unwind left for the re-entered loop to run
    /// (see [`restart_op`]): member, the row to re-feed, injected fault.
    pub(super) owed_restart: Option<(usize, Option<RowAt>, bool)>,
    /// True once `on_start` hooks have run; a restarted PE must not re-run
    /// them (operators resume via `Checkpoint::restore`, not a fresh start).
    pub(super) started: bool,
}

/// What every dispatch path of a PE works on, down to an operator restart
/// — which is why the PE's durability lives here: an operator restart
/// restores from the same checkpoint a PE restart does.
pub(super) struct PeCore {
    pub(super) slots: Vec<OpSlot>,
    pub(super) inbox: Inbox,
    /// Emissions onto local edges while `inbox.local` drains. Both local
    /// frames are owned here — not in the scheduler body — so entries
    /// queued at the moment a PE dies are delivered, not lost.
    pub(super) queued: LocalFrame,
    pub(super) stop: Arc<AtomicBool>,
    /// This PE's index in the graph's PE list (manifest identity).
    pub(super) pe_index: usize,
    /// Snapshot writer, when the graph has a checkpoint dir configured.
    pub(super) checkpoint: Option<PeDurability>,
    /// Bounds operator and PE restarts alike.
    pub(super) policy: RestartPolicy,
    /// The member whose callback is running, and which one; set by [`call`]
    /// for the duration, read by `run_pe` when the PE unwinds.
    pub(super) in_call: Option<(usize, Call)>,
}

/// One incarnation of the PE's scheduler loop; everything that must outlive
/// a panic is borrowed from [`PeRuntime`], nothing is owned here but index
/// scratch.
pub(super) fn run_pe_once(pe: &mut PeRuntime) {
    let PeRuntime {
        core: pe,
        woken,
        owed_restart,
        started,
        ..
    } = pe;

    let cadence = durability::cadence(pe);
    if !*started {
        *started = true;
        for i in 0..pe.slots.len() {
            call(pe, i, Call::Start, |op, ctx, _| op.on_start(ctx));
        }
    }
    // Re-entry after a panic: the operator restart it left owed runs first,
    // then the tuples queued at the moment of death are delivered, before
    // any channel is touched. The steps below are each done once, so a
    // panic part-way through the first entry resumes where it stopped.
    if let Some((idx, retry, injected)) = owed_restart.take() {
        restart_op(pe, idx, retry, injected);
    }
    drain_pending(pe);

    // A respawned worker's operators restore *after* their start hooks,
    // mirroring the PE restart's recovery order.
    durability::rehydrate(pe);

    // Operators with no inputs that aren't sources are trivially finished.
    for i in 0..pe.slots.len() {
        let s = &pe.slots[i];
        if !s.is_source && s.data_in_degree == 0 && s.ctrl_in_degree == 0 {
            finish_op(pe, i);
        }
    }
    drain_pending(pe);

    let source_idxs: Vec<usize> = (0..pe.slots.len())
        .filter(|&i| pe.slots[i].is_source)
        .collect();

    loop {
        let mut progressed = false;

        // 1. Drive live sources.
        for &i in &source_idxs {
            if pe.slots[i].finished {
                continue;
            }
            if pe.stop.load(Ordering::Relaxed) {
                finish_op(pe, i);
                drain_pending(pe);
                continue;
            }
            match call(pe, i, Call::Drive, |op, ctx, _| op.drive(ctx)) {
                SourceState::Emitted => progressed = true,
                SourceState::Idle => {}
                SourceState::Done => {
                    finish_op(pe, i);
                    progressed = true;
                }
            }
            drain_pending(pe);
        }

        let sources_alive = source_idxs.iter().any(|&i| !pe.slots[i].finished);

        // 2. Receive from cross-PE channels: a non-blocking frame sweep,
        //    so live sources keep producing. With none, everything this PE
        //    will ever process arrives over its channels, and it sleeps
        //    below when the sweep comes up empty. Buffered output must be
        //    flushed before sleeping — a stranded partial batch could be
        //    exactly what the upstream PE is waiting for.
        if !sources_alive {
            flush_all(&mut pe.slots);
        }
        let drained = !sweep_channels(pe);
        progressed |= !drained;
        drain_pending(pe);

        // 3. Periodic checkpoint, between tuples: the local frames are
        //    drained here.
        durability::periodic(pe, cadence, drained && !sources_alive);

        // A frame queued or a sender dropped since the sweep left its ring
        // behind, so this returns at once; on timeout, fall through to the
        // exit checks.
        if drained && !sources_alive && pe.inbox.metas.iter().any(|m| m.alive) {
            let _ = woken.recv_timeout(Duration::from_millis(20));
        }

        // 4. Exit when everything is finished.
        if pe.slots.iter().all(|s| s.finished) {
            break;
        }
        // If nothing happened and no channel can ever deliver again, the
        // remaining unfinished ops can never finish through EOS (e.g. a
        // consumer fed only by a stopped peer that never wired EOS) —
        // finish them defensively rather than spinning forever.
        let channels_alive = pe.inbox.metas.iter().any(|c| c.alive);
        if !progressed && !sources_alive && !channels_alive {
            for i in 0..pe.slots.len() {
                finish_op(pe, i);
            }
            drain_pending(pe);
        }
        if !progressed && sources_alive {
            // Idle sources: flush buffered output (nothing else will), then
            // yield briefly instead of spinning.
            flush_all(&mut pe.slots);
            std::thread::yield_now();
        }
    }

    durability::finish(pe);
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::Collect;
    use crate::engine::Engine;
    use crate::graph::{GraphBuilder, OpId, PortKind};
    use crate::operator::{OpContext, Operator, SourceState};
    use crate::tuple::DataTuple;
    use crate::watched::lock;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    #[test]
    fn stop_terminates_infinite_source() {
        struct Forever(u64);
        impl Operator for Forever {
            fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
                self.0 += 1;
                ctx.emit_row(0, DataTuple::new(self.0, vec![0.0]).row());
                SourceState::Emitted
            }
        }
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("inf", Box::new(Forever(0)));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        let running = Engine::start(g);
        std::thread::sleep(Duration::from_millis(50));
        running.stop();
        let report = running.join();
        let n = lock(&seen).len() as u64;
        assert!(n > 0, "nothing flowed before stop");
        assert_eq!(report.op("collect").unwrap().tuples_in, n);
    }

    #[test]
    fn isolated_non_source_terminates() {
        let mut g = GraphBuilder::new();
        struct Nop;
        impl Operator for Nop {}
        let _id: OpId = g.add_op("lonely", Box::new(Nop));
        let report = Engine::run(g);
        assert_eq!(report.ops.len(), 1);
    }
}
