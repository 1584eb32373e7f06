//! PE durability: when a PE checkpoints, and what a restart restores. The
//! wiring, the scheduler and the supervisor reach it through its entries.

use super::route::ChanMeta;
use super::sched::{OpSlot, PeCore};
use crate::checkpoint::{self, PeCheckpointer, WriteBehind};
use crate::metrics::{Counter, OpCounters};
use crate::netio::LinkIn;
use crate::vfs::Vfs;
use crate::watched::lock;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One consistent snapshot set of a PE, captured between tuples, with the
/// socket-link watermarks it covers.
struct Capture {
    parts: checkpoint::SnapshotSet,
    /// `(link, routed)`: what each link may acknowledge once `parts` is
    /// committed.
    watermarks: Vec<(Arc<LinkIn>, u64)>,
}

/// Snapshots every live checkpointable operator in the PE (see
/// [`crate::checkpoint`]). `None` when the PE has nothing to persist.
fn capture_pe(slots: &mut [OpSlot], metas: &[ChanMeta]) -> Option<Capture> {
    let mut parts = Vec::new();
    for slot in slots.iter_mut() {
        if slot.finished {
            continue;
        }
        if let Some(cp) = slot.op.checkpoint() {
            parts.push((slot.name.clone(), cp.snapshot()));
        }
    }
    // Socket-link watermarks ride along as `__netlink{id}` pseudo-parts:
    // they are what lets a respawned process resume the wire exactly where
    // its durable state left off, so they are persisted even when no
    // operator in the PE is checkpointable right now.
    let mut watermarks = Vec::new();
    for m in metas {
        if let Some(net) = &m.net {
            parts.push((
                format!("__netlink{}", net.link_id),
                checkpoint::encode_kv(&[("routed", m.routed.to_string())]),
            ));
            watermarks.push((Arc::clone(&net.link), m.routed));
        }
    }
    (!parts.is_empty()).then_some(Capture { parts, watermarks })
}

/// A PE's durability, written behind its scheduler: the PE thread captures
/// (`capture_pe`), the writer thread runs [`PeCheckpointer::write`] and
/// only after the generation file's rename lets the links acknowledge — so
/// an `ACK` still means durable, while the fsyncs cost the engine nothing.
/// A failed write is never a panic: the previous generations stay
/// readable, the skip is counted, and each consecutive failure doubles the
/// checkpoint window (see [`PeDurability::window`]).
pub(super) struct PeDurability {
    ckpt: Arc<Mutex<PeCheckpointer>>,
    writer: WriteBehind<Capture>,
    /// Consecutive failed writes; any success resets it.
    failures: Arc<AtomicU64>,
    /// [`checkpoint_progress`] at the last periodic capture.
    last_total: u64,
    /// The set [`open`] recovered for a respawned worker, for [`rehydrate`].
    rehydrate: Option<checkpoint::SnapshotSet>,
}

impl PeDurability {
    pub(super) fn new(ckpt: PeCheckpointer, pe_index: usize, counters: Arc<OpCounters>) -> Self {
        let ckpt = Arc::new(Mutex::new(ckpt));
        let failures = Arc::new(AtomicU64::new(0));
        let writer = {
            let ckpt = Arc::clone(&ckpt);
            let failures = Arc::clone(&failures);
            WriteBehind::spawn(&format!("spca-ckpt-{pe_index}"), move |cap: Capture| {
                match lock(&ckpt).write(&cap.parts) {
                    Ok(()) => {
                        failures.store(0, Ordering::SeqCst);
                        // Only a *committed* set moves the watermarks — the
                        // sender must keep retransmitting anything the
                        // manifest does not yet cover.
                        for (link, routed) in cap.watermarks {
                            link.advance_stable(routed);
                        }
                    }
                    Err(e) => {
                        let n = failures.fetch_add(1, Ordering::SeqCst) + 1;
                        eprintln!(
                            "[supervisor] PE {pe_index} checkpoint skipped ({e}); \
                             backing off to a {}x window",
                            1u64 << n.min(6)
                        );
                        counters.add(Counter::CheckpointSkips, 1);
                        counters.add(Counter::IoFaults, 1);
                    }
                }
            })
        };
        PeDurability {
            ckpt,
            writer,
            failures,
            last_total: 0,
            rehydrate: None,
        }
    }

    /// The periodic window for a cadence of `every`: doubled per
    /// consecutive failed write (capped at 64x), so a full disk is retried
    /// at a gentle rate instead of hammered every cadence.
    fn window(&self, every: u64) -> u64 {
        every << self.failures.load(Ordering::SeqCst).min(6)
    }

    /// Hands a capture to the writer and returns; a capture still waiting
    /// there is superseded.
    fn submit(&self, capture: Option<Capture>) {
        if let Some(capture) = capture {
            self.writer.submit(capture);
        }
    }

    /// Recovers the best snapshot set on disk. Reads the directory only
    /// with the writer idle, so it sees whole generations.
    fn recover(&self) -> checkpoint::PeRecovery {
        self.writer.flush();
        lock(&self.ckpt).recover()
    }
}

/// The periodic cadence of one incarnation of the scheduler loop, worked
/// out as it enters: the tightest any live member operator asks for. A PE
/// fed over the wire checkpoints at the default cadence even when no member
/// is checkpointable — its manifests carry the netlink watermarks that let
/// stable acks release the sender's retransmit queue. `None` without a
/// checkpoint dir.
pub(super) fn cadence(pe: &mut PeCore) -> Option<u64> {
    pe.checkpoint.as_ref()?;
    let has_net = pe.inbox.metas.iter().any(|m| m.net.is_some());
    pe.slots
        .iter_mut()
        .filter(|s| !s.finished)
        .filter_map(|s| s.op.checkpoint())
        .map(|cp| cp.checkpoint_every().max(1))
        .min()
        .or(has_net.then_some(checkpoint::DEFAULT_CHECKPOINT_EVERY))
}

/// Between tuples (the local frames are drained), so the set is consistent
/// by construction: once the PE has consumed a `cadence` worth of entries
/// since the last snapshot set, captures a fresh one and hands it to the
/// writer; the engine pays for the capture only, the fsyncs run behind it.
/// A wire-fed PE also captures at once when it is `idle` (inputs drained,
/// no live source), its writer is idle and a link's committed watermark
/// lags what it consumed by a default cadence: its sender may be waiting at
/// its window for the `ACK` a backed-off cadence would not give it
/// (`netio::send_window`). A PE with a live source is not only wire-fed,
/// and its periodic cadence runs on.
pub(super) fn periodic(pe: &mut PeCore, cadence: Option<u64>, idle: bool) {
    let (Some(every), Some(ckpt)) = (cadence, pe.checkpoint.as_mut()) else {
        return;
    };
    let total = checkpoint_progress(&pe.slots, &pe.inbox.metas);
    let due = total.saturating_sub(ckpt.last_total) >= ckpt.window(every);
    let acks_owed =
        idle && pe.inbox.metas.iter().any(|m| {
            m.net
                .as_ref()
                .is_some_and(|n| n.link.unstable(m.routed) >= checkpoint::DEFAULT_CHECKPOINT_EVERY)
        }) && ckpt.writer.is_idle();
    if due || acks_owed {
        ckpt.last_total = total;
        ckpt.submit(capture_pe(&mut pe.slots, &pe.inbox.metas));
    }
}

/// Terminal watermark flush: a PE fed over the wire persists its final
/// netlink watermarks so the stable acks cover everything it consumed —
/// without this, the peer's sender would hold its whole retransmit queue at
/// shutdown and exit with an unacked-tail warning. Flushed: the peer's
/// clean close is waiting for exactly this commit.
pub(super) fn finish(pe: &mut PeCore) {
    if pe.inbox.metas.iter().any(|m| m.net.is_some()) {
        submit_capture(pe);
        if let Some(ckpt) = &pe.checkpoint {
            ckpt.writer.flush();
        }
    }
}

/// Gives the PE its durability under the checkpoint `dir`, written through
/// `vfs` (storage failures are PE-attributed to its first slot). A
/// `respawned` worker's PE, before the wire opens, also presets its link
/// watermarks from the manifest and keeps the set for [`rehydrate`], so
/// upstream replay begins exactly where that state leaves off.
pub(super) fn open(pe: &mut PeCore, dir: Option<&Path>, vfs: &Arc<dyn Vfs>, respawned: bool) {
    let Some(dir) = dir else { return };
    let ckpt = PeCheckpointer::new_with_vfs(dir, pe.pe_index, Arc::clone(vfs))
        .expect("create checkpoint directory");
    let counters = Arc::clone(&pe.slots[0].counters);
    pe.checkpoint = Some(PeDurability::new(ckpt, pe.pe_index, counters));
    if respawned {
        let parts = recover_for_rehydrate(pe);
        pe.checkpoint.as_mut().expect("opened above").rehydrate = parts;
    }
}

/// Restores the set [`open`] kept for a respawned worker, once.
pub(super) fn rehydrate(pe: &mut PeCore) {
    if let Some(parts) = pe.checkpoint.as_mut().and_then(|c| c.rehydrate.take()) {
        restore_members(&mut pe.slots, &parts, None);
    }
}

/// Before a restart of member `only`, or of the whole PE: whether what
/// restarts is durable (in a PE with a checkpoint dir; a member, only if it
/// is checkpointable). After an escaped panic the state in memory is
/// suspect, and recovery reads the last *periodic* capture (loss bounded by
/// the cadence); after a `clean` fault it is persisted first.
pub(super) fn teardown(pe: &mut PeCore, only: Option<usize>, clean: bool) -> bool {
    let durable =
        pe.checkpoint.is_some() && only.is_none_or(|i| pe.slots[i].op.checkpoint().is_some());
    if clean && durable {
        submit_capture(pe);
    }
    durable
}

/// Restores member `only`, or every live member, from the PE's best durable
/// generation.
pub(super) fn restore(pe: &mut PeCore, only: Option<usize>) {
    if let Some(parts) = recover_set(pe) {
        restore_members(&mut pe.slots, &parts, only);
    }
}

/// Teardown capture: persists the PE's in-memory state as it stands. Only
/// for a fault that struck *between* rows — an injected `kill-pe` or
/// `panic@`, both of which fire after `process_rows` returned — where that
/// state is consistent and the restore that follows ([`recover_set`]
/// flushes the writer first) round-trips it through disk, so the run stays
/// bit-identical to a fault-free one. If the write fails, recovery reads
/// the last durable generation instead.
fn submit_capture(pe: &mut PeCore) {
    if let Some(ckpt) = &pe.checkpoint {
        ckpt.submit(capture_pe(&mut pe.slots, &pe.inbox.metas));
    }
}

/// The PE's best durable generation, read behind its writer — what every
/// restart restores from: an operator's, the PE's, a respawned process's.
/// Degrading: a torn or bit-rotted generation file is quarantined aside and
/// the previous generation is used, never an error; that is reported and
/// counted here (PE-attributed to the first slot). `None` without a
/// checkpoint dir or a usable generation: the state in memory stands.
fn recover_set(pe: &PeCore) -> Option<checkpoint::SnapshotSet> {
    let recovery = pe.checkpoint.as_ref()?.recover();
    if recovery.quarantined > 0 || recovery.fell_back {
        eprintln!(
            "[supervisor] PE {} recovery degraded: {} file(s) quarantined, fell back to {}",
            pe.pe_index,
            recovery.quarantined,
            if recovery.set.is_some() {
                "an older generation"
            } else {
                "the state in memory"
            }
        );
        let counters = &pe.slots[0].counters;
        counters.add(Counter::QuarantinedSnapshots, recovery.quarantined);
        counters.add(Counter::IoFaults, recovery.quarantined.max(1));
    }
    recovery.set
}

/// Restores the PE's live members from a recovered set: all of them, or
/// `only` the one an operator-level restart is about. Parts naming no live
/// member (an operator finished since, a `__netlink` watermark) are
/// skipped; a blob its operator rejects leaves that operator as it is.
fn restore_members(slots: &mut [OpSlot], parts: &checkpoint::SnapshotSet, only: Option<usize>) {
    for (name, blob) in parts {
        let Some(i) = slots.iter().position(|s| &s.name == name && !s.finished) else {
            continue;
        };
        if only.is_some_and(|only| only != i) {
            continue;
        }
        if let Some(cp) = slots[i].op.checkpoint() {
            if let Err(e) = cp.restore(blob) {
                eprintln!(
                    "[supervisor] operator '{name}' failed to restore from the PE \
                     manifest ({e}); keeping its in-memory state"
                );
            }
        }
    }
}

/// Startup-time recovery for a respawned distributed worker: reads the
/// PE's manifest and presets the socket-link watermarks (`__netlink{id}`
/// parts) so the RESUME handshake asks each sender to skip what this PE
/// already consumed durably. The set is returned for [`restore_members`]
/// after the `on_start` hooks run.
fn recover_for_rehydrate(pe: &mut PeCore) -> Option<checkpoint::SnapshotSet> {
    let parts = recover_set(pe)?;
    for (name, blob) in &parts {
        let Some(Ok(link_id)) = name.strip_prefix("__netlink").map(str::parse::<u64>) else {
            continue;
        };
        let routed =
            match checkpoint::decode_kv(blob).and_then(|map| checkpoint::kv_u64(&map, "routed")) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!(
                        "[engine] PE {} netlink watermark {link_id} unreadable ({e}); \
                         the sender will replay that link from zero",
                        pe.pe_index
                    );
                    continue;
                }
            };
        for m in pe.inbox.metas.iter_mut() {
            if let Some(net) = m.net.as_ref().filter(|n| n.link_id == link_id) {
                net.link.preset(routed);
                m.routed = routed;
            }
        }
    }
    Some(parts)
}

/// What the periodic-checkpoint cadence counts: every entry the PE's
/// members consumed, once. Data tuples show up in a member's `tuples_in`
/// however they arrived; control tuples and punctuation show up nowhere,
/// so the ones routed off socket-backed channels are added — a PE that
/// consumes only control traffic over the wire (a snapshot sink) must
/// still advance its link watermarks, or the senders' stable acks, and
/// their replay-queue pruning, stall until the terminal flush.
fn checkpoint_progress(slots: &[OpSlot], metas: &[ChanMeta]) -> u64 {
    let data: u64 = slots
        .iter()
        .map(|s| s.counters.tuples_in.load(Ordering::Relaxed))
        .sum();
    let wire_other: u64 = metas
        .iter()
        .filter(|m| m.net.is_some())
        .map(|m| m.routed_other)
        .sum();
    data + wire_other
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::route::{route_next, Cursor, Inbox, LocalFrame, NetIn, Src, SWEEP_TUPLES};
    use crate::fault::RestartPolicy;
    use crate::graph::PortKind;
    use crate::netio::{AckMode, NetTransport};
    use crate::operator::Operator;
    use crate::tuple::{frame_channel, DataTuple, Frame, Tuple};
    use std::sync::atomic::AtomicBool;

    /// A slot around `Swallow`, wired to nothing.
    fn lone_slot() -> OpSlot {
        OpSlot {
            name: "op".to_string(),
            op: Box::new(Swallow),
            counters: Arc::new(OpCounters::default()),
            out_ports: Vec::new(),
            is_source: false,
            data_in_degree: 1,
            ctrl_in_degree: 1,
            eos_data: 0,
            eos_ctrl: 0,
            finished: false,
            faults: Vec::new(),
            fault_data_seen: 0,
            restart_attempts: 0,
            last_redelivered: None,
        }
    }

    struct Swallow;
    impl Operator for Swallow {}

    /// A channel cursor feeding slot 0, socket-backed (stable acks) when
    /// `net` is given.
    fn cursor_into_slot_0(port: PortKind, net: Option<(&NetTransport, u64)>) -> ChanMeta {
        let (tx, rx) = frame_channel(1, 1, None);
        let net = net.map(|(transport, link_id)| {
            let link = transport.add_incoming(link_id, tx, AckMode::Stable);
            NetIn { link_id, link }
        });
        ChanMeta {
            rx,
            to_local: 0,
            port,
            alive: true,
            cur: Cursor::default(),
            routed: 0,
            routed_other: 0,
            net,
        }
    }

    /// Routes `tuples` off channel `ci` as if they had arrived in one frame.
    fn route_frame(pe: &mut PeCore, ci: usize, tuples: &[Tuple]) {
        pe.inbox.metas[ci].cur.reset(Frame::from_tuples(tuples));
        while !pe.inbox.metas[ci].cur.is_spent() {
            route_next(pe, Src::Chan(ci), SWEEP_TUPLES).unwrap();
        }
    }

    /// A PE of one `Swallow` slot fed by the given cursors.
    fn lone_pe(metas: Vec<ChanMeta>) -> PeCore {
        PeCore {
            slots: vec![lone_slot()],
            inbox: Inbox {
                metas,
                local: Cursor::default(),
                local_to: Vec::new(),
            },
            queued: LocalFrame::default(),
            stop: Arc::new(AtomicBool::new(false)),
            pe_index: 0,
            checkpoint: None,
            policy: RestartPolicy::default(),
            in_call: None,
        }
    }

    #[test]
    fn checkpoint_cadence_counts_each_delivered_entry_once() {
        let transport = NetTransport::bind("127.0.0.1:0").unwrap();
        let signal = || Tuple::Control(crate::tuple::ControlTuple::signal(7, 0));
        let datum = |seq| Tuple::Data(DataTuple::new(seq, vec![1.0]));

        // A data PE fed over a socket, with a little control traffic on a
        // second socket and a local channel beside them. Each wire tuple
        // used to count twice: once in the member's `tuples_in`, once in
        // the channel's `routed`.
        let mut pe = lone_pe(vec![
            cursor_into_slot_0(PortKind::Data, Some((&transport, 1))),
            cursor_into_slot_0(PortKind::Control, Some((&transport, 2))),
            cursor_into_slot_0(PortKind::Data, None),
        ]);
        for frame in (0..500).collect::<Vec<_>>().chunks(64) {
            route_frame(
                &mut pe,
                0,
                &frame.iter().map(|&s| datum(s)).collect::<Vec<_>>(),
            );
        }
        route_frame(&mut pe, 1, &[signal(), signal(), signal()]);
        route_frame(&mut pe, 2, &(500..520).map(datum).collect::<Vec<_>>());
        assert_eq!(pe.inbox.metas[0].routed, 500);
        assert_eq!(
            checkpoint_progress(&pe.slots, &pe.inbox.metas),
            523,
            "500 wire data + 3 wire control + 20 local data, each once"
        );

        // A PE that consumes nothing but control traffic over the wire
        // still advances — by exactly what it consumed — so its link
        // watermarks move before the terminal flush.
        let mut pe = lone_pe(vec![cursor_into_slot_0(
            PortKind::Control,
            Some((&transport, 3)),
        )]);
        route_frame(&mut pe, 0, &vec![signal(); 40]);
        assert_eq!(pe.slots[0].counters.snapshot().tuples_in, 0);
        assert_eq!(checkpoint_progress(&pe.slots, &pe.inbox.metas), 40);
        transport.shutdown();
    }

    #[test]
    fn a_failed_write_behind_leaves_the_watermark_and_counts_a_skip() {
        use crate::vfs::{FaultVfs, IoFaultSpec};
        let transport = NetTransport::bind("127.0.0.1:0").unwrap();
        let capture = |link: &Arc<LinkIn>, routed: u64| Capture {
            parts: vec![("op".to_string(), routed.to_string().into_bytes())],
            watermarks: vec![(Arc::clone(link), routed)],
        };
        let durability = |tag: &str, spec: IoFaultSpec| {
            let dir =
                std::env::temp_dir().join(format!("spca_engine_wb_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let ckpt =
                PeCheckpointer::new_with_vfs(&dir, 0, Arc::new(FaultVfs::new(spec))).unwrap();
            let counters = Arc::new(OpCounters::default());
            (
                PeDurability::new(ckpt, 0, Arc::clone(&counters)),
                counters,
                dir,
            )
        };

        // Every fsync fails: nothing commits, so nothing is acknowledged.
        let sick = cursor_into_slot_0(PortKind::Data, Some((&transport, 1)));
        let link = &sick.net.as_ref().unwrap().link;
        let (d, counters, dir) = durability(
            "sick",
            IoFaultSpec {
                fsync_err: true,
                ..IoFaultSpec::default()
            },
        );
        d.submit(Some(capture(link, 7)));
        d.writer.flush();
        assert_eq!(link.stable(), 0, "an uncommitted capture must not be acked");
        let seen = counters.snapshot();
        assert_eq!(seen.get(Counter::CheckpointSkips), 1);
        assert_eq!(seen.get(Counter::IoFaults), 1);
        assert_eq!(d.window(10), 20, "one failure doubles the window");
        assert!(d.recover().set.is_none());
        drop(d);
        std::fs::remove_dir_all(&dir).unwrap();

        // The same capture on a healthy disk: committed, then acked.
        let well = cursor_into_slot_0(PortKind::Data, Some((&transport, 2)));
        let link = &well.net.as_ref().unwrap().link;
        let (d, counters, dir) = durability("well", IoFaultSpec::default());
        d.submit(Some(capture(link, 7)));
        assert_eq!(
            d.recover().set.unwrap()[0].1,
            b"7".to_vec(),
            "recover reads only behind the writer"
        );
        assert_eq!(link.stable(), 7);
        assert_eq!(counters.snapshot().get(Counter::CheckpointSkips), 0);
        assert_eq!(d.window(10), 10);
        drop(d);
        std::fs::remove_dir_all(&dir).unwrap();
        transport.shutdown();
    }

    #[test]
    fn a_degraded_rehydrate_is_counted_like_a_degraded_restart() {
        // Two generations on disk, the newest torn: a respawned worker's
        // rehydrate falls back to the older one, and the damage shows in
        // the run's counters.
        let dir = std::env::temp_dir().join(format!("spca_engine_rehy_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ckpt = PeCheckpointer::new(&dir, 0).unwrap();
        for state in ["one", "two"] {
            ckpt.write(&[("op".to_string(), state.as_bytes().to_vec())])
                .unwrap();
        }
        let newest = dir.join("pe0-g2.ckpt");
        let whole = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &whole[..whole.len() / 2]).unwrap();

        let mut pe = lone_pe(Vec::new());
        let counters = Arc::clone(&pe.slots[0].counters);
        pe.checkpoint = Some(PeDurability::new(ckpt, 0, Arc::clone(&counters)));
        let parts = recover_for_rehydrate(&mut pe).expect("an older generation is whole");
        assert_eq!(parts, vec![("op".to_string(), b"one".to_vec())]);
        let seen = counters.snapshot();
        assert_eq!(seen.get(Counter::QuarantinedSnapshots), 1);
        assert_eq!(seen.get(Counter::IoFaults), 1);
        drop(pe);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_generation_sealed_by_the_fnv_codec_is_counted_and_the_pe_starts_fresh() {
        // The only generation on disk is whole but carries the magic of the
        // FNV-1a-sealed codec: it degrades like a torn one.
        let dir = std::env::temp_dir().join(format!("spca_engine_fnv_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old = b"spca-pe-generation-v1 305ba6a45be158d5\npe 0\ngen 1\npart 3 op\nend\none";
        std::fs::write(dir.join("pe0-g1.ckpt"), old).unwrap();
        let ckpt = PeCheckpointer::new(&dir, 0).unwrap();

        let mut pe = lone_pe(Vec::new());
        let counters = Arc::clone(&pe.slots[0].counters);
        pe.checkpoint = Some(PeDurability::new(ckpt, 0, Arc::clone(&counters)));
        assert!(
            recover_for_rehydrate(&mut pe).is_none(),
            "nothing to restore"
        );
        let seen = counters.snapshot();
        assert_eq!(seen.get(Counter::QuarantinedSnapshots), 1);
        assert_eq!(seen.get(Counter::IoFaults), 1);
        assert!(dir.join("pe0-g1.ckpt.corrupt-1").exists());
        drop(pe);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
