//! The synchronization controller (§III-B, Fig. 3).
//!
//! "The synchronization control subsystem contains the C class generating
//! the sequence of output tuples with sender and receiver number. In our
//! basic case of circular synchronization, receiver number = sender number
//! + 1. When the largest sender number is reached … loops the cycle."
//!
//! The controller is an ordinary control-port operator, ticked by the
//! reports every engine sends it (heartbeats and snapshots). A tick issues
//! at most one sync command, paced by the controller's own period: the
//! pacing the paper gets from SPL's throttle operator in front of the
//! engines' control ports. Output port `i` connects straight to engine
//! `i`'s control port; the command tells that engine which of
//! *its* peer-state ports to share on.

use crate::messages::{
    Heartbeat, PeerState, SyncCommand, KIND_HEARTBEAT, KIND_SNAPSHOT, KIND_SYNC_COMMAND,
};
use spca_streams::checkpoint::{decode_kv, encode_kv, kv_parse, kv_u64, Checkpoint};
use spca_streams::metrics::Counter;
use spca_streams::{ActiveSet, ControlTuple, OpContext, Operator};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Synchronization topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncStrategy {
    /// Circular pattern (Fig. 3): each tick, engine `cursor` sends its
    /// state to engine `cursor + 1 (mod n)`. "A simple circular
    /// synchronization pattern can achieve reasonable global solutions
    /// while minimizing the network traffic."
    Ring,
    /// Each tick, engine `cursor` broadcasts to every other engine.
    Broadcast,
    /// Engines are partitioned into groups of the given size; each tick,
    /// the cursor engine shares with its whole group.
    Groups(usize),
    /// No synchronization at all (ablation baseline).
    None,
}

impl SyncStrategy {
    /// The engines `sender` shares with under this strategy out of `n`,
    /// before liveness: the controller picks a command's receivers from
    /// these. Which peer-state *edges* exist does not depend on the
    /// strategy — the application builder always wires the full mesh.
    pub fn peers_of(&self, sender: usize, n: usize) -> Vec<usize> {
        match *self {
            SyncStrategy::Ring => {
                if n <= 1 {
                    Vec::new()
                } else {
                    vec![(sender + 1) % n]
                }
            }
            SyncStrategy::Broadcast => (0..n).filter(|&j| j != sender).collect(),
            SyncStrategy::Groups(g) => {
                let g = g.max(1);
                let group = sender / g;
                (group * g..((group + 1) * g).min(n))
                    .filter(|&j| j != sender)
                    .collect()
            }
            SyncStrategy::None => Vec::new(),
        }
    }
}

/// Who has been heard from (heartbeats or snapshots on the controller's
/// control input) and how recently.
struct Liveness {
    /// An engine is considered dead once silent for longer than this.
    timeout: Duration,
    /// Engines that have *never* spoken get this long after the first
    /// report before being declared dead (startup grace).
    grace: Duration,
    /// Set on the first report; anchors the startup grace window.
    started: Option<Instant>,
    /// Last time each provisioned engine was heard from.
    heard: Vec<Option<Instant>>,
}

/// The controller operator. Each engine report ticks it, and a tick sends
/// at most one command per period to the next sender in rotation.
///
/// Engines report liveness (heartbeats / snapshots routed to the
/// controller's control port); dead or lagging engines are skipped as
/// senders and filtered out as receivers, and a ring is re-closed around
/// the gap. The surviving receiver set is not known until command time, so
/// peer wiring is the *full mesh* over the provisioned fleet: every engine
/// has a peer-state port to every other engine, in ascending engine order.
/// Engine `s`'s port for engine `j` is therefore `j` below `s` and `j - 1`
/// above it whatever the membership, which is what lets an admitted engine
/// join without rewiring.
pub struct SyncController {
    strategy: SyncStrategy,
    /// Shared membership. A fixed fleet is a handle nobody moves; under an
    /// autoscaler the controller reconciles its ring with it at each tick
    /// and at finish, admitting activated engines and retiring shut-down ones.
    membership: Arc<ActiveSet>,
    /// Ring size as of the last reconciliation.
    n_engines: usize,
    period: Duration,
    cursor: usize,
    last: Option<Instant>,
    liveness: Liveness,
    /// Commands issued so far.
    pub issued: u64,
    /// Ticks where the rotating sender was skipped as dead, plus ticks
    /// where a live sender had no live receiver left.
    pub skipped_dead: u64,
    /// Malformed or foreign control tuples ignored instead of acted on: a
    /// liveness-bearing kind whose payload fails the typed downcast, whose
    /// payload contradicts its `sender` header, or whose sender is out of
    /// range. The controller must never panic on junk from the mesh — a
    /// poisoned control tuple would otherwise kill the whole sync loop.
    pub ignored_control: u64,
}

impl SyncController {
    /// A controller over the engines `0..membership.active()` firing every
    /// `period`. An engine silent for `liveness_timeout` is treated as
    /// dead; never-heard engines get four timeouts from the first report
    /// (they announce themselves with their first heartbeat, and slow
    /// starters need the slack).
    pub fn new(
        strategy: SyncStrategy,
        membership: Arc<ActiveSet>,
        period: Duration,
        liveness_timeout: Duration,
    ) -> Self {
        SyncController {
            strategy,
            n_engines: membership.active(),
            period,
            cursor: 0,
            last: None,
            liveness: Liveness {
                timeout: liveness_timeout,
                grace: liveness_timeout * 4,
                started: None,
                heard: vec![None; membership.max()],
            },
            membership,
            issued: 0,
            skipped_dead: 0,
            ignored_control: 0,
        }
    }

    /// Reconciles the ring with the shared membership handle, counting
    /// each admission/retirement as a scale event in the run report.
    /// Membership is a prefix: the next provisioned index joins, the
    /// highest leaves.
    fn reconcile_membership(&mut self, ctx: &mut OpContext<'_>) {
        let target = self.membership.active();
        while self.n_engines < target {
            // Stamped as freshly heard: the newcomer gets one full timeout
            // to start heartbeating before being skipped as dead — the
            // startup grace, re-granted at admission.
            self.liveness.heard[self.n_engines] = Some(Instant::now());
            self.n_engines += 1;
            ctx.count(Counter::ScaleOuts);
        }
        while self.n_engines > target {
            self.n_engines -= 1;
            ctx.count(Counter::ScaleIns);
        }
        // Keep the rotation visiting every remaining engine.
        self.cursor %= self.n_engines;
    }

    /// Whether engine `i` currently counts as alive.
    fn alive(&self, i: usize) -> bool {
        let lv = &self.liveness;
        match lv.heard[i] {
            Some(t) => t.elapsed() < lv.timeout,
            None => lv.started.is_none_or(|s| s.elapsed() < lv.grace),
        }
    }

    /// The engines `sender` should share with right now: the strategy's
    /// peers minus the dead ones, and a ring walks forward to the next
    /// live engine so the cycle stays closed around a gap.
    fn receivers_of(&self, sender: usize) -> Vec<usize> {
        match self.strategy {
            SyncStrategy::Ring => (1..self.n_engines)
                .map(|step| (sender + step) % self.n_engines)
                .find(|&j| self.alive(j))
                .into_iter()
                .collect(),
            _ => self
                .strategy
                .peers_of(sender, self.n_engines)
                .into_iter()
                .filter(|&j| self.alive(j))
                .collect(),
        }
    }

    /// The command that will be sent to `sender`: its receivers as mesh
    /// ports (ascending engine order, self omitted).
    fn command_for(&self, sender: usize) -> SyncCommand {
        let share_ports = self
            .receivers_of(sender)
            .into_iter()
            .map(|j| if j < sender { j } else { j - 1 })
            .collect();
        SyncCommand { share_ports }
    }

    /// The rule, run at every report: reconcile membership, then, once
    /// `period` has passed since the last command, issue the next one.
    fn tick(&mut self, ctx: &mut OpContext<'_>) {
        self.reconcile_membership(ctx);
        if self.n_engines <= 1 || self.last.is_some_and(|last| last.elapsed() < self.period) {
            return;
        }
        self.last = Some(Instant::now());
        // One command per tick. Dead senders are skipped within the tick,
        // so one gap cannot stall the rotation; a live sender with nobody
        // live to talk to is a skipped exchange too. Both are counted.
        for _ in 0..self.n_engines {
            let sender = self.cursor;
            self.cursor = (self.cursor + 1) % self.n_engines;
            let live = self.alive(sender);
            let cmd = self.command_for(sender);
            if live && !cmd.share_ports.is_empty() {
                let t = ControlTuple::new(KIND_SYNC_COMMAND, sender as u32, Arc::new(cmd));
                ctx.emit_control(sender, t);
                self.issued += 1;
                return;
            }
            self.skipped_dead += 1;
            ctx.count(Counter::SyncSkips);
            if live {
                return;
            }
        }
    }
}

impl Operator for SyncController {
    fn on_control(&mut self, t: ControlTuple, ctx: &mut OpContext<'_>) {
        // Validate before trusting: a malformed or foreign control tuple
        // (wrong payload type, payload/header sender mismatch, out-of-range
        // sender) is *ignored with a counter*, never unwrapped — one junk
        // tuple on the mesh must not kill the sync loop or let a spoofed
        // header keep a dead engine "alive".
        let claimed = match t.kind {
            KIND_HEARTBEAT => t.payload_as::<Heartbeat>().map(|h| h.engine),
            KIND_SNAPSHOT => t.payload_as::<PeerState>().map(|s| s.engine),
            _ => return, // not a liveness-bearing kind; none of our business
        };
        let lv = &mut self.liveness;
        match claimed {
            Some(engine) if engine == t.sender && (engine as usize) < lv.heard.len() => {
                lv.heard[engine as usize] = Some(Instant::now());
                lv.started.get_or_insert_with(Instant::now);
                self.tick(ctx);
            }
            _ => self.ignored_control += 1,
        }
    }

    /// A rescale after the last report is still one of this run's.
    fn on_finish(&mut self, ctx: &mut OpContext<'_>) {
        self.reconcile_membership(ctx);
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

/// The controller's durable state is its rotation cursor and the exchange
/// counters. Wall-clock anchors (`last`, liveness timestamps) deliberately
/// do not survive: after a restart the pacing timer re-arms and every
/// engine gets a fresh startup grace window, so a controller that was down
/// for longer than the liveness timeout does not wrongly declare the whole
/// fleet dead on its first post-restart tick.
impl Checkpoint for SyncController {
    fn snapshot(&self) -> Vec<u8> {
        encode_kv(&[
            ("cursor", self.cursor.to_string()),
            ("issued", self.issued.to_string()),
            ("skipped_dead", self.skipped_dead.to_string()),
            ("ignored_control", self.ignored_control.to_string()),
        ])
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let kv = decode_kv(bytes)?;
        self.cursor = kv_parse(&kv, "cursor")?;
        self.issued = kv_u64(&kv, "issued")?;
        self.skipped_dead = kv_u64(&kv, "skipped_dead")?;
        self.ignored_control = kv_u64(&kv, "ignored_control")?;
        self.cursor %= self.n_engines;
        self.last = None;
        self.liveness.started = None;
        self.liveness.heard.fill(None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spca_streams::metrics::OpCounters;
    use spca_streams::operator::testing::{with_ctx, with_sink_counters, CaptureSink};
    use spca_streams::Tuple;

    /// A fixed fleet of `n` with a liveness timeout no test outlasts:
    /// engines count as alive until a test zeroes the startup grace.
    fn controller(strategy: SyncStrategy, n: usize, period: Duration) -> SyncController {
        SyncController::new(
            strategy,
            ActiveSet::new(n, n),
            period,
            Duration::from_secs(60),
        )
    }

    /// Same, but an engine that has not heartbeaten is dead at once.
    fn strict_controller(strategy: SyncStrategy, n: usize, period: Duration) -> SyncController {
        let mut c = controller(strategy, n, period);
        c.liveness.grace = Duration::ZERO;
        c
    }

    /// One heartbeat from `engine`: the report that ticks the controller.
    fn beat(c: &mut SyncController, ctx: &mut OpContext<'_>, engine: u32) {
        c.on_control(
            ControlTuple::new(
                KIND_HEARTBEAT,
                engine,
                Arc::new(Heartbeat { engine, n_obs: 1 }),
            ),
            ctx,
        );
    }

    /// Heartbeats from `engine` until the controller has issued `issued`
    /// commands in all, waiting out the period between them.
    fn beat_until_issued(
        c: &mut SyncController,
        ctx: &mut OpContext<'_>,
        engine: u32,
        issued: u64,
    ) {
        while c.issued < issued {
            beat(c, ctx, engine);
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Heartbeats from `engines` that issue nothing: the pacing timer is
    /// held shut while they land, so a test starts from a known liveness
    /// table (and a reconciled membership) with the next tick still free
    /// to fire at once.
    fn hear_from(c: &mut SyncController, engines: &[u32]) {
        let (period, last) = (c.period, c.last);
        c.period = Duration::MAX;
        c.last = Some(Instant::now());
        with_ctx(c.liveness.heard.len(), |ctx| {
            for &e in engines {
                beat(c, ctx, e);
            }
        });
        (c.period, c.last) = (period, last);
    }

    #[test]
    fn ring_peers_follow_circle() {
        let s = SyncStrategy::Ring;
        assert_eq!(s.peers_of(0, 4), vec![1]);
        assert_eq!(s.peers_of(3, 4), vec![0]);
        assert!(s.peers_of(0, 1).is_empty());
    }

    #[test]
    fn broadcast_peers_are_everyone_else() {
        let s = SyncStrategy::Broadcast;
        assert_eq!(s.peers_of(1, 4), vec![0, 2, 3]);
    }

    #[test]
    fn groups_partition_correctly() {
        let s = SyncStrategy::Groups(2);
        assert_eq!(s.peers_of(0, 6), vec![1]);
        assert_eq!(s.peers_of(1, 6), vec![0]);
        assert_eq!(s.peers_of(4, 6), vec![5]);
        // Trailing partial group.
        let s3 = SyncStrategy::Groups(4);
        assert_eq!(s3.peers_of(5, 6), vec![4]);
    }

    #[test]
    fn controller_rotates_senders() {
        let mut c = controller(SyncStrategy::Ring, 3, Duration::from_millis(1));
        let sink = with_ctx(3, |ctx| {
            for round in 1..=3 {
                // Heartbeats landing inside the period issue nothing.
                beat_until_issued(&mut c, ctx, round as u32 - 1, round);
            }
        });
        // One command per engine port, in rotation.
        for (port, q) in sink.ports.iter().enumerate() {
            assert_eq!(q.len(), 1, "port {port} got {} commands", q.len());
            match &q[0] {
                Tuple::Control(c) => {
                    assert_eq!(c.kind, KIND_SYNC_COMMAND);
                    assert_eq!(c.sender as usize, port);
                    let cmd = c.payload_as::<SyncCommand>().unwrap();
                    // Ring: the mesh port of the next engine (1, 2, 0).
                    assert_eq!(cmd.share_ports, vec![[0, 1, 0][port]]);
                }
                other => panic!("expected control, got {other:?}"),
            }
        }
        assert_eq!(c.issued, 3);
    }

    #[test]
    fn single_engine_needs_no_sync() {
        // Reports from a one-engine fleet issue nothing and skip nothing.
        let mut c = controller(SyncStrategy::Ring, 1, Duration::from_millis(1));
        let sink = with_ctx(1, |ctx| {
            for _ in 0..3 {
                beat(&mut c, ctx, 0);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert_eq!(c.issued, 0);
        assert_eq!(c.skipped_dead, 0);
        assert!(sink.ports[0].is_empty());
    }

    #[test]
    fn broadcast_command_lists_all_ports() {
        let mut c = controller(SyncStrategy::Broadcast, 4, Duration::from_micros(1));
        // The first report issues at once: no period has started yet.
        let sink = with_ctx(4, |ctx| beat(&mut c, ctx, 0));
        match &sink.ports[0][0] {
            Tuple::Control(ct) => {
                let cmd = ct.payload_as::<SyncCommand>().unwrap();
                assert_eq!(cmd.share_ports, vec![0, 1, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // ---- liveness ----

    fn shared_ports(sink: &CaptureSink, port: usize) -> Vec<usize> {
        match &sink.ports[port][0] {
            Tuple::Control(ct) => ct.payload_as::<SyncCommand>().unwrap().share_ports.clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn liveness_recloses_ring_around_dead_engine() {
        let mut c = strict_controller(SyncStrategy::Ring, 4, Duration::from_millis(1));
        // Engine 1 stays silent → dead past the (zero) grace.
        hear_from(&mut c, &[2, 3]);
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(4);
        with_sink_counters(&mut sink, &counters, |ctx| {
            beat_until_issued(&mut c, ctx, 0, 3);
        });
        // Rotation 0 → (1 skipped dead) → 2 → 3.
        assert_eq!(c.skipped_dead, 1);
        assert_eq!(counters.snapshot().get(Counter::SyncSkips), 1);
        assert!(sink.ports[1].is_empty(), "dead engine must get no commands");
        // Full-mesh port map: engine 0's port for peer 2 is 1; engine 2's
        // for peer 3 is 2; engine 3's for peer 0 is 0. The ring is closed
        // around the dead engine, not broken at it.
        assert_eq!(
            shared_ports(&sink, 0),
            vec![1],
            "0 shares with 2, not dead 1"
        );
        assert_eq!(shared_ports(&sink, 2), vec![2], "2 shares with 3");
        assert_eq!(shared_ports(&sink, 3), vec![0], "3 closes the cycle at 0");
    }

    #[test]
    fn restarted_engine_is_readmitted_after_heartbeat() {
        let mut c = strict_controller(SyncStrategy::Ring, 2, Duration::from_micros(10));
        with_ctx(2, |ctx| {
            for _ in 0..20 {
                beat(&mut c, ctx, 0);
                std::thread::sleep(Duration::from_micros(20));
            }
        });
        assert_eq!(c.issued, 0, "no exchange possible with one live engine");
        assert!(c.skipped_dead > 0);
        // The restarted engine announces itself.
        let sink = with_ctx(2, |ctx| beat_until_issued(&mut c, ctx, 1, 1));
        assert_eq!(c.issued, 1);
        assert_eq!(
            sink.ports.iter().map(|p| p.len()).sum::<usize>(),
            1,
            "exactly one command once both engines are live"
        );
    }

    #[test]
    fn broadcast_receivers_filtered_to_live_engines() {
        let mut c = strict_controller(SyncStrategy::Broadcast, 4, Duration::from_micros(10));
        hear_from(&mut c, &[1, 3]);
        let sink = with_ctx(4, |ctx| beat_until_issued(&mut c, ctx, 0, 1));
        // Sender 0's full-mesh ports: 1 → 0, 2 → 1, 3 → 2; dead 2 dropped.
        assert_eq!(shared_ports(&sink, 0), vec![0, 2]);
    }

    #[test]
    fn junk_control_tuples_are_ignored_with_counter_not_a_panic() {
        let mut c = strict_controller(SyncStrategy::Ring, 2, Duration::from_micros(10));
        with_ctx(2, |ctx| {
            // Heartbeat kind carrying a completely foreign payload.
            c.on_control(
                ControlTuple::new(KIND_HEARTBEAT, 0, Arc::new("junk".to_string())),
                ctx,
            );
            // Snapshot kind with a unit payload (signal-only tuple).
            c.on_control(ControlTuple::signal(KIND_SNAPSHOT, 1), ctx);
            // Spoofed header: payload says engine 1, header says engine 0.
            c.on_control(
                ControlTuple::new(
                    KIND_HEARTBEAT,
                    0,
                    Arc::new(Heartbeat {
                        engine: 1,
                        n_obs: 1,
                    }),
                ),
                ctx,
            );
            // Out-of-range sender.
            c.on_control(
                ControlTuple::new(
                    KIND_HEARTBEAT,
                    9,
                    Arc::new(Heartbeat {
                        engine: 9,
                        n_obs: 1,
                    }),
                ),
                ctx,
            );
            // A kind the controller does not care about is not "junk".
            c.on_control(ControlTuple::signal(KIND_SYNC_COMMAND, 0), ctx);
        });
        assert_eq!(c.ignored_control, 4);
        // None of the junk registered liveness: both engines still unheard.
        assert!(c.liveness.heard.iter().all(|h| h.is_none()));
        // A well-formed heartbeat still works.
        with_ctx(2, |ctx| beat(&mut c, ctx, 0));
        assert!(c.liveness.heard[0].is_some());
        assert_eq!(c.ignored_control, 4);
    }

    #[test]
    fn controller_checkpoint_round_trips_cursor_but_resets_liveness() {
        let mut c = controller(SyncStrategy::Ring, 4, Duration::from_micros(1));
        with_ctx(4, |ctx| beat(&mut c, ctx, 0));
        c.cursor = 3;
        c.issued = 7;
        c.skipped_dead = 2;
        c.ignored_control = 1;
        let bytes = Checkpoint::snapshot(&c);
        let mut r = controller(SyncStrategy::Ring, 4, Duration::from_micros(1));
        r.restore(&bytes).unwrap();
        assert_eq!(r.cursor, 3);
        assert_eq!(r.issued, 7);
        assert_eq!(r.skipped_dead, 2);
        assert_eq!(r.ignored_control, 1);
        // Liveness starts over: no engine is condemned by pre-crash silence.
        assert!(r.liveness.started.is_none());
        assert!(r.liveness.heard.iter().all(|h| h.is_none()));
    }

    // ---- membership (admit/retire) ----

    /// Collects `rounds` more sync commands and returns the set of sender
    /// ports that emitted.
    fn senders_in_rotation(c: &mut SyncController, n_ports: usize, rounds: u64) -> Vec<usize> {
        let target = c.issued + rounds;
        let sink = with_ctx(n_ports, |ctx| beat_until_issued(c, ctx, 0, target));
        (0..n_ports)
            .filter(|&p| !sink.ports[p].is_empty())
            .collect()
    }

    #[test]
    fn ring_grows_then_shrinks_without_losing_the_cursor() {
        // Regression: liveness tables and the rotation cursor used to be
        // sized once at construction, so growing the fleet indexed out of
        // bounds and shrinking could leave the cursor past the end.
        let active = ActiveSet::new(2, 4);
        let mut c = SyncController::new(
            SyncStrategy::Ring,
            Arc::clone(&active),
            Duration::from_micros(10),
            Duration::from_secs(60),
        );
        // Grow 2 -> 4: both newcomers must join the rotation and the
        // liveness table must cover them (no out-of-bounds panic when they
        // heartbeat or when the rotation reaches them).
        active.set_active(4);
        hear_from(&mut c, &[2, 3]);
        let senders = senders_in_rotation(&mut c, 4, 4);
        assert_eq!(
            senders,
            vec![0, 1, 2, 3],
            "rotation must cover the grown ring"
        );

        // Shrink 4 -> 3 with the cursor parked on the retired engine.
        c.cursor = 3;
        active.set_active(3);
        let senders = senders_in_rotation(&mut c, 4, 3);
        assert!(c.cursor < 3, "cursor must be re-clamped after retirement");
        assert_eq!(
            senders,
            vec![0, 1, 2],
            "retired engine must leave the rotation"
        );
        // Commands never address the retired engine as a receiver either.
        let target = c.issued + 6;
        let sink = with_ctx(4, |ctx| beat_until_issued(&mut c, ctx, 0, target));
        for port in 0..3 {
            for t in &sink.ports[port] {
                let Tuple::Control(ct) = t else { continue };
                let cmd = ct.payload_as::<SyncCommand>().unwrap();
                // Sender `port`'s peer port for engine 3 is 2 in full-mesh
                // order (3 > sender for every remaining sender).
                assert!(
                    !cmd.share_ports.contains(&2),
                    "sender {port} still shares with retired engine: {cmd:?}"
                );
            }
        }
        assert!(sink.ports[3].is_empty(), "retired engine got a command");
    }

    #[test]
    fn membership_handle_drives_admission_and_retirement() {
        let active = ActiveSet::new(1, 3);
        let mut c = SyncController::new(
            SyncStrategy::Ring,
            Arc::clone(&active),
            Duration::from_micros(10),
            Duration::from_secs(60),
        );

        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(3);
        with_sink_counters(&mut sink, &counters, |ctx| {
            // One active engine: its reports issue nothing.
            beat(&mut c, ctx, 0);
            assert_eq!(c.issued, 0);
            // Autoscaler admits two engines; the controller reconciles on
            // the next report and the ring starts rotating over all three.
            active.set_active(3);
            beat_until_issued(&mut c, ctx, 0, 3);
        });
        let snap = counters.snapshot();
        assert_eq!(
            snap.get(Counter::ScaleOuts),
            2,
            "two admissions = two scale-out events"
        );
        assert_eq!(snap.get(Counter::ScaleIns), 0);
        assert!(
            (0..3).all(|p| !sink.ports[p].is_empty()),
            "all three rotate"
        );

        // Scale back in as far as it goes: retirement saturates at one
        // engine, which issues nothing with a valid cursor.
        let mut sink2 = CaptureSink::new(3);
        active.set_active(0);
        with_sink_counters(&mut sink2, &counters, |ctx| beat(&mut c, ctx, 0));
        assert!(sink2.ports.iter().all(|p| p.is_empty()));
        let snap = counters.snapshot();
        assert_eq!(
            snap.get(Counter::ScaleIns),
            2,
            "two retirements = two scale-in events"
        );
        assert_eq!(c.cursor, 0);
    }

    #[test]
    fn rescale_after_the_last_report_is_counted_at_finish() {
        let active = ActiveSet::new(3, 3);
        let mut c = SyncController::new(
            SyncStrategy::Ring,
            Arc::clone(&active),
            Duration::from_secs(60),
            Duration::from_secs(60),
        );
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(3);
        with_sink_counters(&mut sink, &counters, |ctx| {
            beat(&mut c, ctx, 0);
            // The autoscaler retires two engines after the last report.
            active.set_active(1);
            c.on_finish(ctx);
        });
        assert_eq!(counters.snapshot().get(Counter::ScaleIns), 2);
    }

    #[test]
    fn startup_grace_treats_silent_engines_as_alive() {
        let mut c = controller(SyncStrategy::Ring, 3, Duration::from_micros(10));
        assert!(c.liveness.started.is_none(), "the grace starts at a report");
        let sink = with_ctx(3, |ctx| beat_until_issued(&mut c, ctx, 0, 1));
        assert!(c.liveness.started.is_some());
        assert_eq!(c.skipped_dead, 0, "grace period: nobody is dead yet");
        assert_eq!(shared_ports(&sink, 0), vec![0]);
    }
}
