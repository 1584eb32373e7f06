//! Socket-backed cross-PE links: the real TCP transport behind graph
//! edges that cross a process boundary.
//!
//! In a single process, a cross-PE edge is a bounded `std::sync::mpsc`
//! channel of pooled [`Frame`]s. When the producing and consuming PEs live in
//! different OS processes, the same channel machinery is kept on both
//! sides and a [`NetTransport`] bridges them over TCP:
//!
//! ```text
//!   producer PE ──channel──▶ sender thread ══TCP══▶ conn thread ──channel──▶ consumer PE
//! ```
//!
//! The wire protocol is deliberately tiny (five message kinds, all
//! little-endian):
//!
//! * `HELLO`  — `"SPCH"` + version byte + `u64` link id; sender → receiver
//!   immediately after connecting (or reconnecting).
//! * `RESUME` — `"SPCR"` + `u64` delivered-entry count; receiver → sender
//!   in reply to `HELLO`. Tells the sender where to resume.
//! * `DATA`   — `"SPCD"` + `u64` start-entry count, followed by one
//!   [`codec`](crate::codec) frame. `start` is the cumulative number of
//!   entries shipped on this link before the frame, so both ends can trim
//!   duplicates after a retransmission.
//! * `ACK`    — `"SPCA"` + `u64` cumulative acknowledged entry count;
//!   receiver → sender. The sender prunes its retransmit queue up to this
//!   point. In [`AckMode::Stable`] the acknowledged count only advances
//!   when the consuming PE's checkpoint commits, so everything since the
//!   last durable checkpoint stays retransmittable across a process kill.
//! * `GOODBYE` — `"SPCG"`; sender → receiver once the producing side has
//!   drained *and* every entry is acknowledged. Closes the link cleanly.
//!
//! **Exactly-once:** every entry (data, control, or punctuation) on a link
//! has a position in a single per-link sequence. The receiver tracks
//! `delivered`, drops the duplicate prefix of any retransmitted frame, and
//! never advances `delivered` on a partially-read or corrupt frame (the
//! codec CRC check runs before any copy). The sender keeps encoded frames
//! queued until acknowledged and replays the tail after a reconnect.
//! Together these make redelivery idempotent: a dropped connection — or a
//! killed and respawned worker process — yields the same delivered tuple
//! sequence as a fault-free run.
//!
//! **Reconnect:** the sender owns connection establishment and retries
//! with capped exponential backoff; the receiver simply keeps accepting.
//! Wire faults from the fault grammar (`net-drop-conn@link:N`,
//! `net-partial-write@link:N`) are injected in the sender's socket shim,
//! the way [`FaultVfs`](crate::vfs::FaultVfs) wraps storage writes.
//!
//! **Flow control:** both ends of a link are bounded. The receiver parks at
//! most [`INBOUND_FRAMES`] frames in front of its consumer and stops reading
//! when they are full; the sender ships at most [`send_window`] entries
//! past the peer's acknowledgement, and the channel into it, like every
//! channel of the process, holds its producer at [`INBOUND_FRAMES`]
//! frames. What a link keeps resident is then a function of the batch
//! size, not of the stream's length.
//!
//! **Waiting:** every thread here blocks on the thing it waits for — a
//! socket read, `accept`, a channel, or a condvar — and is woken by the
//! event itself: an `ACK` is written by whoever advanced the watermark,
//! the ack reader signals the closing and the windowed sender, and
//! [`shutdown`](NetTransport::shutdown) unblocks readers by shutting their
//! sockets down and the acceptor by connecting to it. The only timed waits
//! are the connect back-off (the peer is down; there is no event to wait
//! for), the handshake deadline, and the sender's idle probe of a quiet
//! channel. DESIGN §12 has the table.

use crate::checkpoint::DEFAULT_CHECKPOINT_EVERY;
use crate::codec::{decode_frame, encode_columns, frame_len, HEADER_LEN};
use crate::tuple::{Frame, FrameRx, FrameTx};
use crate::watched::{lock, Watched};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Wire-protocol version carried in every `HELLO`.
pub const WIRE_VERSION: u8 = 1;

const TAG_HELLO: [u8; 4] = *b"SPCH";
const TAG_RESUME: [u8; 4] = *b"SPCR";
const TAG_DATA: [u8; 4] = *b"SPCD";
const TAG_ACK: [u8; 4] = *b"SPCA";
const TAG_GOODBYE: [u8; 4] = *b"SPCG";

/// How long [`NetTransport::shutdown`] lets senders finish their clean
/// close (final ack round trip + `GOODBYE`) before aborting them.
const DRAIN_GRACE: Duration = Duration::from_secs(2);
/// First reconnect backoff; doubles up to [`BACKOFF_CAP`].
const BACKOFF_START: Duration = Duration::from_millis(25);
/// Reconnect backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(1);
/// Handshake deadline: a peer that connects but never completes the
/// `HELLO`/`RESUME` exchange within this window is treated as dead.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);
/// How often a sender whose producer is quiet looks up from its channel to
/// see whether the connection died under it (so queued frames are replayed
/// to a respawned peer even when no new frame comes to trip over the dead
/// socket) or the transport stopped. A frame and the producer's end wake it
/// at once, and nothing on a run's critical path waits for it; it is timed
/// because the pump waits on a channel and a connection at once, and `std`
/// has no `select` over a channel and a socket.
const IDLE_PROBE: Duration = Duration::from_millis(20);
/// Full frames a socket link parks on either side of the wire (DESIGN §12,
/// flow control): a channel the transport feeds is bounded at this many
/// batches of tuples, and every other channel of a distributed run's
/// process, the one into a sender among them, holds its producer there.
/// Such runs size their channels past the corpus, so without it a source
/// that outruns the consumer keeps the whole stream resident; frames close
/// at 64 KiB, so this is 1 MiB. A receiver with a full channel waits for
/// room and stops reading: the TCP window then holds the sender, which
/// blocks in `write` like on any slow link.
pub(crate) const INBOUND_FRAMES: usize = 16;

/// Entries a sender ships past the peer's acknowledgement before it stops
/// taking frames off its channel: a checkpoint cadence, which a stable
/// consumer must consume before it commits and acknowledges, plus the
/// [`INBOUND_FRAMES`] batches parked in front of it. So the retransmit
/// queue holds at most this many entries and one frame, however long the
/// stream. A consumer whose cadence backed off past the window (DESIGN
/// §11) is still acknowledged: a stalled sender leaves at least
/// `DEFAULT_CHECKPOINT_EVERY` entries between what its consumer consumed
/// and committed, and a wire-fed PE that sees that lag with its inputs
/// drained captures at once (`engine::run_pe_once`).
pub fn send_window(batch: usize) -> u64 {
    DEFAULT_CHECKPOINT_EVERY + (INBOUND_FRAMES * batch.max(1)) as u64
}

/// Deterministic wire faults, compiled from the fault grammar
/// (`net-drop-conn@link:N`, `net-partial-write@link:N`). Indices are
/// 1-based counts of frame writes per link; each fires at most once
/// because the per-link write counter is monotone.
#[derive(Debug, Default, Clone)]
pub struct WireFaultSpec {
    /// Frame-write indices at which the connection is dropped instead of
    /// writing the frame.
    pub drop_conn: Vec<u64>,
    /// Frame-write indices at which only half the frame's bytes are
    /// written before the connection is dropped.
    pub partial_write: Vec<u64>,
}

impl WireFaultSpec {
    /// True when the spec injects nothing.
    pub fn is_empty(&self) -> bool {
        self.drop_conn.is_empty() && self.partial_write.is_empty()
    }
}

/// How the receiving side acknowledges delivered entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Acknowledge on receipt (the entry was forwarded into the consuming
    /// PE's channel). Used when the consumer does not checkpoint: a
    /// process kill loses state anyway, so receipt is as good as stable.
    Receipt,
    /// Acknowledge only what [`LinkIn::advance_stable`] has declared
    /// durable. The engine stores the per-link routed count in the PE
    /// manifest and advances the watermark once that manifest is
    /// committed, so the sender retains everything since the last durable
    /// state.
    Stable,
}

/// The transport-wide stop flag, plus a gate that timed waiters (the
/// connect back-off) sleep on so `set` cuts them short.
struct Stop {
    flag: AtomicBool,
    gate: Watched<()>,
}

impl Stop {
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    fn set(&self) {
        self.flag.store(true, Ordering::SeqCst);
        self.gate.update(|_| ());
    }

    /// Waits up to `d`; true when the transport stopped meanwhile.
    fn pause(&self, d: Duration) -> bool {
        let guard = self.gate.lock();
        if !self.is_set() {
            drop(self.gate.wait_timeout(guard, d));
        }
        self.is_set()
    }
}

/// The write half of the connection driving a link, and the highest `ACK`
/// already written on it.
struct AckOut {
    stream: TcpStream,
    sent: u64,
}

/// Receiving side of one boundary link; handed out when the link is
/// registered so the consuming engine can move the link's watermarks.
pub struct LinkIn {
    /// Channel into the consuming PE; taken (and thereby disconnected)
    /// on `GOODBYE`.
    tx: Mutex<Option<FrameTx>>,
    /// Entries forwarded into the channel so far (the `RESUME` point).
    delivered: AtomicU64,
    /// Entries whose effects are durable at the consumer
    /// ([`AckMode::Stable`]); `None` acknowledges on receipt.
    stable: Option<AtomicU64>,
    /// The live connection's write half. Every `ACK` — per frame from the
    /// connection thread, per commit from [`LinkIn::advance_stable`] — is
    /// written under this lock, so two writers never interleave bytes.
    conn: Mutex<Option<AckOut>>,
    /// Held by the connection thread that drives the link: at most one
    /// does at a time, and a reconnect queues here behind its predecessor.
    driving: Mutex<()>,
}

impl LinkIn {
    /// Starts both watermarks at `entries` — what a rehydrated consumer
    /// already holds durably — so the `RESUME` handshake asks the sender
    /// to skip that prefix. Call before [`NetTransport::start`].
    pub fn preset(&self, entries: u64) {
        self.delivered.store(entries, Ordering::SeqCst);
        if let Some(stable) = &self.stable {
            stable.store(entries, Ordering::SeqCst);
        }
    }

    /// Declares the first `entries` entries durable at the consumer and
    /// writes the `ACK` on the link's live connection at once (with none,
    /// the next handshake carries it). Only call once the state that
    /// covers them is committed: the sender forgets what it is told here.
    pub fn advance_stable(&self, entries: u64) {
        let Some(stable) = &self.stable else {
            return;
        };
        let mut conn = lock(&self.conn);
        stable.fetch_max(entries, Ordering::SeqCst);
        // A failed write means a dying connection; its thread notices.
        let _ = self.send_ack(&mut conn);
    }

    /// Entries consumed past the durable watermark, of the first `routed`;
    /// 0 when the link acknowledges on receipt.
    pub(crate) fn unstable(&self, routed: u64) -> u64 {
        self.stable
            .as_ref()
            .map_or(0, |s| routed.saturating_sub(s.load(Ordering::SeqCst)))
    }

    /// The durable watermark, for tests of who may move it.
    #[cfg(test)]
    pub(crate) fn stable(&self) -> u64 {
        self.stable.as_ref().map_or(0, |s| s.load(Ordering::SeqCst))
    }

    /// Writes the current ack value unless this connection already
    /// carried it.
    fn send_ack(&self, conn: &mut Option<AckOut>) -> io::Result<()> {
        let value = match &self.stable {
            Some(stable) => stable.load(Ordering::SeqCst),
            None => self.delivered.load(Ordering::SeqCst),
        };
        match conn {
            Some(out) if value > out.sent => {
                let mut msg = [0u8; 12];
                msg[..4].copy_from_slice(&TAG_ACK);
                msg[4..].copy_from_slice(&value.to_le_bytes());
                out.stream.write_all(&msg)?;
                out.sent = value;
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// Sending side of one boundary link, consumed by [`NetTransport::start`].
struct Outgoing {
    link_id: u64,
    rx: FrameRx,
    peer: SocketAddr,
    /// [`send_window`] at the link's batch size.
    window: u64,
}

/// What a sender and its ack reader share; the sender waits on it while
/// its window is full and while closing, and [`NetTransport::shutdown`]
/// reaches the sender through it.
#[derive(Default)]
struct SendWait {
    /// Cumulative entries the peer acknowledged.
    acked: u64,
    /// The current connection's ack reader saw EOF or an error.
    conn_dead: bool,
    /// The current connection, for `shutdown` to break.
    stream: Option<TcpStream>,
}

/// A running sender thread and the way to reach it.
struct SenderHandle {
    thread: JoinHandle<()>,
    wait: Arc<Watched<SendWait>>,
}

/// The per-process TCP transport: one listener for all incoming boundary
/// links plus one sender thread per outgoing boundary link.
///
/// Construction order: [`bind`](NetTransport::bind) early (so the local
/// address can be exchanged), register links while wiring the engine
/// graph, then [`start`](NetTransport::start). [`shutdown`]
/// (NetTransport::shutdown) reaps every thread; it is idempotent.
pub struct NetTransport {
    listener: TcpListener,
    local: SocketAddr,
    stop: Arc<Stop>,
    incoming: Mutex<HashMap<u64, Arc<LinkIn>>>,
    outgoing: Mutex<Vec<Outgoing>>,
    faults: Mutex<Option<Arc<WireFaultSpec>>>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    senders: Mutex<Vec<SenderHandle>>,
    /// Sender threads still running; `shutdown` waits here for the clean
    /// closes.
    senders_left: Arc<Watched<usize>>,
    /// Connection threads with a handle on their socket, for `shutdown`.
    conns: Mutex<Vec<(JoinHandle<()>, TcpStream)>>,
}

impl std::fmt::Debug for NetTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetTransport({})", self.local)
    }
}

/// The address on which a listener bound to `addr` can be dialled from its
/// own host: a wildcard IP becomes the loopback of the same family.
pub fn loopback_of(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// Ends a thread that sits in a blocking `accept` on `listening` and
/// checks a stop flag — which the caller has already raised — each time
/// `accept` returns: connects to the listener, then joins the thread.
pub fn wake_acceptor(listening: SocketAddr, acceptor: JoinHandle<()>) {
    match TcpStream::connect_timeout(&loopback_of(listening), Duration::from_secs(1)) {
        Ok(_) => {
            let _ = acceptor.join();
        }
        Err(e) => eprintln!("spca-net: cannot wake the acceptor on {listening}: {e}"),
    }
}

impl NetTransport {
    /// Binds the data listener. `addr` may use port 0 for an ephemeral
    /// port; [`local_addr`](NetTransport::local_addr) reports the actual
    /// one for address exchange.
    pub fn bind(addr: &str) -> io::Result<Arc<NetTransport>> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(Arc::new(NetTransport {
            listener,
            local,
            stop: Arc::new(Stop {
                flag: AtomicBool::new(false),
                gate: Watched::new(()),
            }),
            incoming: Mutex::new(HashMap::new()),
            outgoing: Mutex::new(Vec::new()),
            faults: Mutex::new(None),
            acceptor: Mutex::new(None),
            senders: Mutex::new(Vec::new()),
            senders_left: Arc::new(Watched::new(0)),
            conns: Mutex::new(Vec::new()),
        }))
    }

    /// The bound data address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Installs deterministic wire faults on every sender shim.
    pub fn set_faults(&self, spec: WireFaultSpec) {
        if !spec.is_empty() {
            *lock(&self.faults) = Some(Arc::new(spec));
        }
    }

    /// Registers the receiving end of boundary link `link_id`: decoded
    /// frames are forwarded into `tx`. The returned handle carries the
    /// link's watermarks.
    pub(crate) fn add_incoming(&self, link_id: u64, tx: FrameTx, ack: AckMode) -> Arc<LinkIn> {
        let link = Arc::new(LinkIn {
            tx: Mutex::new(Some(tx)),
            delivered: AtomicU64::new(0),
            stable: (ack == AckMode::Stable).then(|| AtomicU64::new(0)),
            conn: Mutex::new(None),
            driving: Mutex::new(()),
        });
        lock(&self.incoming).insert(link_id, Arc::clone(&link));
        link
    }

    /// Registers the sending end of boundary link `link_id`: frames of up
    /// to `batch` entries from `rx` are encoded and shipped to `peer`, at
    /// most [`send_window`] entries past its acknowledgement.
    pub(crate) fn add_outgoing(&self, link_id: u64, rx: FrameRx, peer: SocketAddr, batch: usize) {
        lock(&self.outgoing).push(Outgoing {
            link_id,
            rx,
            peer,
            window: send_window(batch),
        });
    }

    /// Spawns the acceptor and one sender thread per registered outgoing
    /// link. Call after every link is registered.
    pub fn start(self: &Arc<Self>) {
        let me = Arc::clone(self);
        *lock(&self.acceptor) = Some(
            thread::Builder::new()
                .name("spca-net-accept".into())
                .spawn(move || me.accept_loop())
                .expect("spawn acceptor"),
        );
        let faults = lock(&self.faults).clone();
        let mut senders = lock(&self.senders);
        for link in lock(&self.outgoing).drain(..) {
            let wait = Arc::new(Watched::new(SendWait::default()));
            let name = format!("spca-net-send-{}", link.link_id);
            let sender = SenderLoop {
                link,
                stop: Arc::clone(&self.stop),
                spec: faults.clone(),
                wait: Arc::clone(&wait),
                produced: 0,
                skip_until: 0,
                frame_writes: 0,
                queue: VecDeque::new(),
                chan_open: true,
            };
            self.senders_left.update(|n| *n += 1);
            let left = Arc::clone(&self.senders_left);
            let handle = thread::Builder::new()
                .name(name)
                .spawn(move || {
                    // Counted down on every exit, a panic included.
                    struct Leave(Arc<Watched<usize>>);
                    impl Drop for Leave {
                        fn drop(&mut self) {
                            self.0.update(|n| *n -= 1);
                        }
                    }
                    let _leave = Leave(left);
                    sender.run();
                })
                .expect("spawn sender");
            senders.push(SenderHandle {
                thread: handle,
                wait,
            });
        }
    }

    /// Stops the acceptor, reaps every transport thread, and returns.
    ///
    /// Senders first get a short grace period to finish their clean close
    /// — the producing PE has already exited by the time this runs, so
    /// all that remains is the final ack round trip and `GOODBYE`. A
    /// sender that still holds unacknowledged frames for an unreachable
    /// peer after the grace gives up (with a note on stderr) rather than
    /// hang.
    pub fn shutdown(&self) {
        drop(
            self.senders_left
                .wait_timeout_while(DRAIN_GRACE, |n| *n > 0),
        );
        self.stop.set();

        // Whatever a remaining sender is blocked in — a socket read or
        // write, or the wait for its last ack — ends when its connection
        // breaks and its wait is signalled.
        let senders: Vec<_> = lock(&self.senders).drain(..).collect();
        for sender in &senders {
            sender.wait.update(|w| {
                if let Some(s) = &w.stream {
                    let _ = s.shutdown(Shutdown::Both);
                }
            });
        }
        for sender in senders {
            let _ = sender.thread.join();
        }

        if let Some(acceptor) = lock(&self.acceptor).take() {
            wake_acceptor(self.local, acceptor);
        }

        // Connection threads sit in a blocking read, or wait for room in
        // a full channel. The engine shuts the transport down only after
        // every PE has exited, and a consumer's exit drops its end of the
        // channel, which ends that wait.
        let conns: Vec<_> = lock(&self.conns).drain(..).collect();
        for (_, stream) in &conns {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (handle, _) in conns {
            let _ = handle.join();
        }
    }

    fn accept_loop(self: Arc<Self>) {
        loop {
            let accepted = self.listener.accept();
            if self.stop.is_set() {
                return;
            }
            let stream = match accepted {
                Ok((stream, _peer)) => stream,
                // Out of descriptors, or a handshake aborted in the
                // backlog: nothing to wait on but time.
                Err(_) => {
                    self.stop.pause(Duration::from_millis(10));
                    continue;
                }
            };
            let Ok(theirs) = stream.try_clone() else {
                continue;
            };
            let mut conns = lock(&self.conns);
            // Reap the threads of connections that have ended, so a
            // long-lived listener's registry holds only live sockets.
            let mut i = 0;
            while i < conns.len() {
                if conns[i].0.is_finished() {
                    let _ = conns.swap_remove(i).0.join();
                } else {
                    i += 1;
                }
            }
            let me = Arc::clone(&self);
            let handle = thread::Builder::new()
                .name("spca-net-recv".into())
                .spawn(move || me.handle_conn(theirs))
                .expect("spawn receiver");
            conns.push((handle, stream));
        }
    }

    /// Drives one accepted connection: `HELLO` → `RESUME`, then `DATA`
    /// frames (decoded, duplicate-trimmed, forwarded, acknowledged) until
    /// `GOODBYE`, EOF, or a socket/codec error. Errors never advance the
    /// delivered count — the sender retransmits on its next connection.
    fn handle_conn(self: Arc<Self>, s: TcpStream) {
        let _ = s.set_nodelay(true);
        self.serve_conn(&s);
        // The registry holds a clone of this socket, so dropping `s` would
        // not close it, and the sender's ack reader is waiting for the FIN.
        let _ = s.shutdown(Shutdown::Both);
    }

    fn serve_conn(&self, s: &TcpStream) {
        // HELLO: magic + version + link id.
        let _ = s.set_read_timeout(Some(HANDSHAKE_DEADLINE));
        let mut hello = [0u8; 13];
        if (&*s).read_exact(&mut hello).is_err() {
            return;
        }
        let _ = s.set_read_timeout(None);
        if hello[..4] != TAG_HELLO || hello[4] != WIRE_VERSION {
            return;
        }
        let link_id = u64::from_le_bytes(hello[5..13].try_into().expect("8 bytes"));
        let Some(link) = lock(&self.incoming).get(&link_id).map(Arc::clone) else {
            return; // Unknown link: refuse by closing.
        };

        // One connection at a time per link. A predecessor whose peer
        // vanished without a FIN would sit in its read forever: break its
        // socket, then queue behind it.
        if let Some(old) = lock(&link.conn).as_ref() {
            let _ = old.stream.shutdown(Shutdown::Both);
        }
        let _driving = lock(&link.driving);
        if !self.stop.is_set() {
            self.drive_link(s, &link);
        }
        *lock(&link.conn) = None;
    }

    fn drive_link(&self, s: &TcpStream, link: &LinkIn) {
        // RESUME with where this link's delivered sequence stands. The
        // write half is published first: a watermark that advances from
        // here on is written by whoever advances it.
        let resume = link.delivered.load(Ordering::SeqCst);
        let Ok(stream) = s.try_clone() else {
            return;
        };
        let mut msg = [0u8; 12];
        msg[..4].copy_from_slice(&TAG_RESUME);
        msg[4..].copy_from_slice(&resume.to_le_bytes());
        {
            // The sender counts everything below `resume` as acknowledged.
            let mut conn = lock(&link.conn);
            *conn = Some(AckOut {
                stream,
                sent: resume,
            });
            if (&*s).write_all(&msg).is_err() {
                return;
            }
        }

        let mut buf: Vec<u8> = Vec::new();
        let mut frame = Frame::default();
        let mut tag = [0u8; 4];
        loop {
            // EOF here: the sender is gone and will reconnect.
            if (&*s).read_exact(&mut tag).is_err() {
                return;
            }
            if tag == TAG_DATA {
                if Self::recv_frame(s, link, &mut buf, &mut frame).is_err()
                    || link.send_ack(&mut lock(&link.conn)).is_err()
                {
                    return;
                }
            } else if tag == TAG_GOODBYE {
                // Clean close: disconnect the engine channel.
                lock(&link.tx).take();
                return;
            } else {
                return; // Desynchronized stream: force a reconnect.
            }
        }
    }

    /// Reads, decodes, duplicate-trims, and forwards one `DATA` frame. The
    /// values are copied once, from the socket bytes into `frame`, and the
    /// decoded frame itself goes down the channel: `frame` is swapped for a
    /// recycled one. Any error means the connection is unusable and
    /// nothing was forwarded from this frame.
    fn recv_frame(
        mut s: &TcpStream,
        link: &LinkIn,
        buf: &mut Vec<u8>,
        frame: &mut Frame,
    ) -> io::Result<()> {
        let mut start8 = [0u8; 8];
        s.read_exact(&mut start8)?;
        let start = u64::from_le_bytes(start8);
        let mut hdr = [0u8; HEADER_LEN];
        s.read_exact(&mut hdr)?;
        let total = frame_len(&hdr).map_err(io::Error::from)?;
        buf.clear();
        buf.resize(total, 0);
        buf[..HEADER_LEN].copy_from_slice(&hdr);
        s.read_exact(&mut buf[HEADER_LEN..])?;
        decode_frame(buf, frame).map_err(io::Error::from)?;

        let n = frame.len() as u64;
        let delivered = link.delivered.load(Ordering::SeqCst);
        if start > delivered {
            // A gap means we lost track relative to the sender; drop the
            // connection and let the handshake resynchronize.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame starts past delivered count",
            ));
        }
        let end = start + n;
        if end > delivered {
            let gone = || io::Error::new(io::ErrorKind::BrokenPipe, "consuming engine is gone");
            // Held to the send: this thread is the link's only user of it.
            let tx = lock(&link.tx);
            let tx = tx.as_ref().ok_or_else(gone)?;
            frame.drop_front((delivered - start) as usize);
            // A full channel holds this thread here, so it stops reading
            // the socket (see `INBOUND_FRAMES`).
            if !tx.send(std::mem::replace(frame, tx.buffer())) {
                return Err(gone());
            }
            link.delivered.store(end, Ordering::SeqCst);
        }
        Ok(())
    }
}

/// An encoded frame parked until acknowledged: entry positions
/// `[start, end)` on the link plus the encoded bytes.
struct QFrame {
    start: u64,
    end: u64,
    bytes: Vec<u8>,
}

/// Sender-side socket shim: injects deterministic wire faults the way
/// `FaultVfs` injects storage faults — by failing the operation at a
/// scripted index.
struct SendSock<'a> {
    stream: &'a TcpStream,
    spec: Option<&'a WireFaultSpec>,
}

impl SendSock<'_> {
    /// Writes one `DATA` preamble + frame with vectored writes, applying
    /// scripted faults at the given 1-based write index. `Ok(false)` means
    /// a fault dropped the connection (the frame stays queued).
    fn write_frame(&mut self, idx: u64, start: u64, bytes: &[u8]) -> io::Result<bool> {
        let mut pre = [0u8; 12];
        pre[..4].copy_from_slice(&TAG_DATA);
        pre[4..].copy_from_slice(&start.to_le_bytes());
        if let Some(spec) = self.spec {
            if spec.drop_conn.contains(&idx) {
                let _ = self.stream.shutdown(Shutdown::Both);
                return Ok(false);
            }
            if spec.partial_write.contains(&idx) {
                let _ = self.stream.write_all(&pre);
                let _ = self.stream.write_all(&bytes[..bytes.len() / 2]);
                let _ = self.stream.shutdown(Shutdown::Both);
                return Ok(false);
            }
        }
        let mut a = 0usize; // bytes of preamble written
        let mut b = 0usize; // bytes of frame written
        while a < pre.len() || b < bytes.len() {
            let n = if a < pre.len() {
                let iov = [IoSlice::new(&pre[a..]), IoSlice::new(&bytes[b..])];
                self.stream.write_vectored(&iov)?
            } else {
                self.stream.write(&bytes[b..])?
            };
            if n == 0 {
                return Err(io::ErrorKind::WriteZero.into());
            }
            let adv_a = n.min(pre.len() - a);
            a += adv_a;
            b += n - adv_a;
        }
        Ok(true)
    }
}

/// How one connection of a sender ended.
enum ConnEnd {
    /// The connection broke (or a wire fault dropped it): dial again.
    Reconnect,
    /// Everything was acknowledged and `GOODBYE` is on the wire.
    Goodbye,
    /// The transport stopped first.
    Stopped,
}

/// One sender thread: connect (with capped backoff), handshake, replay
/// unacknowledged frames, then pump the engine channel until it drains
/// and every entry is acknowledged. The fields outlive connections.
struct SenderLoop {
    link: Outgoing,
    stop: Arc<Stop>,
    spec: Option<Arc<WireFaultSpec>>,
    wait: Arc<Watched<SendWait>>,
    /// Entries consumed from the engine channel.
    produced: u64,
    /// The receiver already has entries below this.
    skip_until: u64,
    /// Fault-shim index, monotone across reconnects.
    frame_writes: u64,
    queue: VecDeque<QFrame>,
    chan_open: bool,
}

impl SenderLoop {
    fn run(mut self) {
        let mut backoff = BACKOFF_START;
        loop {
            if self.stop.is_set() {
                return self.give_up();
            }
            // The one wait here with nothing to wake it: the peer is down.
            let Ok(stream) = TcpStream::connect_timeout(&self.link.peer, Duration::from_secs(1))
            else {
                self.stop.pause(backoff);
                backoff = (backoff * 2).min(BACKOFF_CAP);
                continue;
            };
            backoff = BACKOFF_START;
            let _ = stream.set_nodelay(true);

            let mut reader = None;
            let end = self.converse(&stream, &mut reader);
            if let ConnEnd::Goodbye = end {
                // Closing our socket outright could reset the connection
                // under the `GOODBYE`; the receiver closes once it has
                // read it, and the ack reader sees that as EOF.
                let mut w = self.wait.lock();
                while !w.conn_dead && !self.stop.is_set() {
                    w = self.wait.wait(w);
                }
            }
            // The ack reader holds a clone of the socket, so dropping
            // `stream` would not end its read.
            let _ = stream.shutdown(Shutdown::Both);
            self.wait.update(|w| w.stream = None);
            if let Some(h) = reader {
                let _ = h.join();
            }
            match end {
                ConnEnd::Reconnect => {}
                ConnEnd::Goodbye => return,
                ConnEnd::Stopped => return self.give_up(),
            }
        }
    }

    /// Everything that happens on one connection.
    fn converse(&mut self, stream: &TcpStream, reader: &mut Option<JoinHandle<()>>) -> ConnEnd {
        let Ok(for_stop) = stream.try_clone() else {
            return ConnEnd::Reconnect;
        };
        self.wait.update(|w| {
            w.stream = Some(for_stop);
            w.conn_dead = false;
        });
        // `shutdown` raises the flag, then breaks the registered socket: a
        // sender that registered too late for that sees the flag here.
        if self.stop.is_set() {
            return ConnEnd::Stopped;
        }

        // HELLO, then wait for RESUME.
        let mut hello = [0u8; 13];
        hello[..4].copy_from_slice(&TAG_HELLO);
        hello[4] = WIRE_VERSION;
        hello[5..].copy_from_slice(&self.link.link_id.to_le_bytes());
        let mut msg = [0u8; 12];
        let _ = stream.set_read_timeout(Some(HANDSHAKE_DEADLINE));
        let mut s = stream;
        if s.write_all(&hello).is_err() || s.read_exact(&mut msg).is_err() || msg[..4] != TAG_RESUME
        {
            return ConnEnd::Reconnect;
        }
        let _ = stream.set_read_timeout(None);
        let resume = u64::from_le_bytes(msg[4..].try_into().expect("8 bytes"));
        let acked = self.wait.update(|w| {
            w.acked = w.acked.max(resume);
            w.acked
        });
        self.prune(acked);
        if resume > self.produced {
            // A fresh sender talking to a receiver that already consumed
            // part of the (deterministically replayed) stream: trim until
            // production catches up with what was delivered.
            self.skip_until = resume;
        }

        // Replay unacknowledged frames in order.
        let spec = self.spec.clone();
        let mut sock = SendSock {
            stream,
            spec: spec.as_deref(),
        };
        for f in &self.queue {
            self.frame_writes += 1;
            match sock.write_frame(self.frame_writes, f.start, &f.bytes) {
                Ok(true) => {}
                Ok(false) | Err(_) => return ConnEnd::Reconnect,
            }
        }

        // Ack reader for this connection.
        let Ok(rd) = stream.try_clone() else {
            return ConnEnd::Reconnect;
        };
        let wait = Arc::clone(&self.wait);
        *reader = Some(
            thread::Builder::new()
                .name(format!("spca-net-ack-{}", self.link.link_id))
                .spawn(move || {
                    let mut msg = [0u8; 12];
                    while (&rd).read_exact(&mut msg).is_ok() && msg[..4] == TAG_ACK {
                        let v = u64::from_le_bytes(msg[4..].try_into().expect("8 bytes"));
                        wait.update(|w| w.acked = w.acked.max(v));
                    }
                    wait.update(|w| w.conn_dead = true);
                })
                .expect("spawn ack reader"),
        );

        // Pump the engine channel.
        loop {
            let (acked, conn_dead) = {
                let mut w = self.wait.lock();
                // A full window: the ack reader wakes this wait with every
                // ack and with the connection's end, `shutdown` with its
                // stop. The producer meanwhile waits at its channel's hold.
                while self.produced.saturating_sub(w.acked) >= self.link.window
                    && !w.conn_dead
                    && !self.stop.is_set()
                {
                    w = self.wait.wait(w);
                }
                (w.acked, w.conn_dead)
            };
            self.prune(acked);
            if conn_dead {
                return ConnEnd::Reconnect;
            }
            if self.stop.is_set() {
                return ConnEnd::Stopped;
            }
            if !self.chan_open {
                // Closing: the ack reader wakes this wait with every ack
                // and with the connection's end, `shutdown` with its stop.
                let mut w = self.wait.lock();
                while w.acked < self.produced && !w.conn_dead && !self.stop.is_set() {
                    w = self.wait.wait(w);
                }
                if w.acked >= self.produced {
                    let acked = w.acked;
                    drop(w);
                    self.prune(acked);
                    let _ = s.write_all(&TAG_GOODBYE);
                    let _ = stream.shutdown(Shutdown::Write);
                    return ConnEnd::Goodbye;
                }
                if w.conn_dead {
                    return ConnEnd::Reconnect;
                }
                return ConnEnd::Stopped;
            }
            match self.link.rx.recv_timeout(IDLE_PROBE) {
                Ok(frame) => {
                    let start = self.produced;
                    self.produced += frame.len() as u64;
                    if self.produced <= self.skip_until {
                        self.link.rx.recycle(frame); // Entirely duplicate after a resume.
                        continue;
                    }
                    let trim = self.skip_until.saturating_sub(start) as usize;
                    // A buffer of its own, sized to the frame: the queue
                    // holds it until acknowledged, and reused buffers
                    // grown to the largest frame held twice the bytes.
                    let mut bytes = Vec::new();
                    if let Err(e) = encode_columns(&frame, trim, &mut bytes) {
                        // Only unregistered control payloads can fail here;
                        // that is a programming error, not a wire condition.
                        panic!("link {}: cannot encode frame: {e}", self.link.link_id);
                    }
                    self.link.rx.recycle(frame);
                    let qf = QFrame {
                        start: start + trim as u64,
                        end: self.produced,
                        bytes,
                    };
                    self.frame_writes += 1;
                    let wrote = sock.write_frame(self.frame_writes, qf.start, &qf.bytes);
                    self.queue.push_back(qf);
                    match wrote {
                        Ok(true) => {}
                        Ok(false) | Err(_) => return ConnEnd::Reconnect,
                    }
                }
                // The loop's head sees a stop, and a dead connection.
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => self.chan_open = false,
            }
        }
    }

    /// Drops acknowledged frames from the front of the retransmit queue.
    fn prune(&mut self, acked: u64) {
        while self.queue.front().is_some_and(|f| f.end <= acked) {
            self.queue.pop_front();
        }
    }

    /// Shutdown raced an unacknowledged tail: report instead of hanging.
    fn give_up(&self) {
        let acked = self.wait.lock().acked;
        if !self.queue.is_empty() || self.produced > acked {
            eprintln!(
                "spca-net: link {} stopped with {} unacknowledged entries",
                self.link.link_id,
                self.produced.saturating_sub(acked)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{frame_channel, DataTuple, Frame, Punctuation, Tuple};
    use std::time::Instant;

    fn data(seq: u64, v: f64) -> Tuple {
        let mut t = DataTuple::new(seq, vec![v, v + 0.5, -v]);
        t.timestamp_ns = seq * 3;
        Tuple::Data(t)
    }

    /// Ships `n_frames` frames of `per` tuples each (plus a final EOS)
    /// through a loopback link with `spec` faults installed, and asserts
    /// the receiver observes every tuple exactly once, in order.
    fn roundtrip(spec: Option<WireFaultSpec>) {
        let recv_side = NetTransport::bind("127.0.0.1:0").expect("bind");
        let send_side = NetTransport::bind("127.0.0.1:0").expect("bind");
        if let Some(s) = spec {
            send_side.set_faults(s);
        }
        let (n_frames, per) = (6u64, 5u64);

        let (tx_r, rx_r) = frame_channel(64, 64, None);
        recv_side.add_incoming(9, tx_r, AckMode::Receipt);
        recv_side.start();

        let (tx_s, rx_s) = frame_channel(64, 64, None);
        send_side.add_outgoing(9, rx_s, recv_side.local_addr(), per as usize);
        send_side.start();

        let mut seq = 0u64;
        for f in 0..n_frames {
            let mut frame = tx_s.buffer();
            for _ in 0..per {
                let Tuple::Data(d) = data(seq, seq as f64 * 0.25) else {
                    unreachable!()
                };
                frame.push_row(d.row());
                seq += 1;
            }
            if f == n_frames - 1 {
                frame.push_eos();
            }
            assert!(tx_s.send(frame), "send");
        }

        let mut got: Vec<Tuple> = Vec::new();
        while got.len() as u64 <= n_frames * per {
            let frame = rx_r.recv_timeout(Duration::from_secs(20)).expect("frame");
            got.extend(frame.tuples());
        }
        // Every frame has left both links: the pump took it off the
        // outgoing channel and this consumer off the incoming one.
        assert_eq!(tx_s.queued(), 0);
        assert_eq!(rx_r.queued(), 0);
        drop(tx_s);
        while let Ok(frame) = rx_r.recv_timeout(Duration::from_secs(20)) {
            got.extend(frame.tuples());
        }
        assert_eq!(got.len() as u64, n_frames * per + 1);
        for (i, t) in got.iter().take((n_frames * per) as usize).enumerate() {
            match t {
                Tuple::Data(d) => {
                    assert_eq!(d.seq, i as u64);
                    assert_eq!(d.timestamp_ns, i as u64 * 3);
                    assert_eq!(d.values[0].to_bits(), (i as f64 * 0.25).to_bits());
                }
                other => panic!("expected data at {i}, got {other:?}"),
            }
        }
        assert!(matches!(got.last().expect("non-empty"), Tuple::Punct(_)));

        send_side.shutdown();
        recv_side.shutdown();
        assert_eq!(rx_r.queued(), 0);
    }

    #[test]
    fn loopback_roundtrip_bit_identical() {
        roundtrip(None);
    }

    #[test]
    fn drop_conn_fault_reconnects_exactly_once() {
        roundtrip(Some(WireFaultSpec {
            drop_conn: vec![2, 5],
            partial_write: vec![],
        }));
    }

    #[test]
    fn partial_write_fault_never_partially_applies() {
        roundtrip(Some(WireFaultSpec {
            drop_conn: vec![],
            partial_write: vec![3],
        }));
    }

    #[test]
    fn a_full_inbound_channel_holds_the_sender_until_the_consumer_takes() {
        // The channel is bounded in tuples, as the engine sizes one the
        // transport feeds: `INBOUND_FRAMES` frames of `BATCH` rows.
        const BATCH: u64 = 4;
        let bound = INBOUND_FRAMES * BATCH as usize;
        let recv_side = NetTransport::bind("127.0.0.1:0").expect("bind");
        let send_side = NetTransport::bind("127.0.0.1:0").expect("bind");
        let (tx_r, rx_r) = frame_channel(bound, bound, None);
        recv_side.add_incoming(4, tx_r, AckMode::Receipt);
        recv_side.start();

        let n_frames = INBOUND_FRAMES as u64 + 8;
        let n_rows = n_frames * BATCH;
        let (tx_s, rx_s) = frame_channel(n_rows as usize + 1, n_rows as usize + 1, None);
        send_side.add_outgoing(4, rx_s, recv_side.local_addr(), BATCH as usize);
        send_side.start();
        for f in 0..n_frames {
            let mut tuples: Vec<Tuple> = (f * BATCH..(f + 1) * BATCH)
                .map(|seq| data(seq, seq as f64))
                .collect();
            if f == n_frames - 1 {
                tuples.push(Tuple::Punct(Punctuation::EndOfStream));
            }
            assert!(tx_s.send(Frame::from_tuples(&tuples)), "send");
        }
        drop(tx_s);

        // The consumer takes nothing: the receiver fills the channel to its
        // bound and then waits, with the rest on the sender's side.
        let deadline = Instant::now() + Duration::from_secs(10);
        while rx_r.queued() < bound && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        thread::sleep(Duration::from_millis(200));
        assert_eq!(rx_r.queued(), bound);

        let mut got = Vec::new();
        let closed = loop {
            match rx_r.recv_timeout(Duration::from_secs(20)) {
                Ok(frame) => got.extend(frame.tuples()),
                Err(e) => break e,
            }
        };
        assert_eq!(closed, RecvTimeoutError::Disconnected, "GOODBYE closes it");
        assert_eq!(got.len() as u64, n_rows + 1);
        for (i, t) in got.iter().take(n_rows as usize).enumerate() {
            match t {
                Tuple::Data(d) => assert_eq!(d.seq, i as u64),
                other => panic!("expected data at {i}, got {other:?}"),
            }
        }
        assert!(matches!(got.last().expect("non-empty"), Tuple::Punct(_)));
        send_side.shutdown();
        recv_side.shutdown();
    }

    #[test]
    fn a_full_window_holds_the_producer_until_the_consumer_acks() {
        // Both ends as the engine sizes them for a stable consumer: the
        // channel into the sender full at a corpus-sized capacity but
        // holding its producer at `INBOUND_FRAMES` frames, the receiver's
        // bounded there.
        const BATCH: u64 = 4;
        let hold = INBOUND_FRAMES as u64 * BATCH;
        let window = send_window(BATCH as usize);
        let n_rows = 2 * window + 2 * hold;
        let recv_side = NetTransport::bind("127.0.0.1:0").expect("bind");
        let send_side = NetTransport::bind("127.0.0.1:0").expect("bind");
        let (tx_r, rx_r) = frame_channel(hold as usize, hold as usize, None);
        let link = recv_side.add_incoming(5, tx_r, AckMode::Stable);
        recv_side.start();
        let (tx_s, rx_s) = frame_channel(n_rows as usize + 1, hold as usize, None);
        send_side.add_outgoing(5, rx_s, recv_side.local_addr(), BATCH as usize);
        send_side.start();

        let sent = Arc::new(AtomicU64::new(0));
        let producer = {
            let sent = Arc::clone(&sent);
            thread::spawn(move || {
                for f in 0..n_rows / BATCH {
                    let mut tuples: Vec<Tuple> = (f * BATCH..(f + 1) * BATCH)
                        .map(|seq| data(seq, seq as f64))
                        .collect();
                    if f == n_rows / BATCH - 1 {
                        tuples.push(Tuple::Punct(Punctuation::EndOfStream));
                    }
                    assert!(tx_s.send(Frame::from_tuples(&tuples)), "send");
                    sent.fetch_add(BATCH, Ordering::SeqCst);
                }
            })
        };

        // Takes frames until `n` entries have arrived in all, then sees
        // that no more come.
        let mut got: Vec<Tuple> = Vec::new();
        let mut take_up_to = |n: u64| {
            while (got.len() as u64) < n {
                let frame = rx_r.recv_timeout(Duration::from_secs(20)).expect("frame");
                got.extend(frame.tuples());
            }
            assert_eq!(
                rx_r.recv_timeout(Duration::from_millis(200)).err(),
                Some(RecvTimeoutError::Timeout),
                "nothing past {n} entries"
            );
            assert_eq!(got.len() as u64, n);
        };

        // Nothing acknowledged: the sender stops a window past zero, and
        // the producer waits with a hold's worth queued in front of it.
        take_up_to(window);
        assert_eq!(sent.load(Ordering::SeqCst), window + hold);
        // Each acknowledgement lets the window slide by as much.
        link.advance_stable(window);
        take_up_to(2 * window);
        link.advance_stable(2 * window);
        take_up_to(n_rows + 1);
        producer.join().expect("producer");
        // The closing sender waits for the last ack, then says GOODBYE.
        link.advance_stable(n_rows + 1);
        assert_eq!(
            rx_r.recv_timeout(Duration::from_secs(10)).err(),
            Some(RecvTimeoutError::Disconnected)
        );
        for (i, t) in got.iter().take(n_rows as usize).enumerate() {
            match t {
                Tuple::Data(d) => assert_eq!(d.seq, i as u64),
                other => panic!("expected data at {i}, got {other:?}"),
            }
        }
        send_side.shutdown();
        recv_side.shutdown();
    }

    /// A loopback pair in [`AckMode::Stable`] with one two-entry frame
    /// (data + EOS) delivered, the producer gone and nothing acknowledged:
    /// the sender sits in its closing wait.
    struct StableLink {
        recv_side: Arc<NetTransport>,
        send_side: Arc<NetTransport>,
        link: Arc<LinkIn>,
        rx: FrameRx,
    }

    fn stable_link_awaiting_its_ack() -> StableLink {
        let recv_side = NetTransport::bind("127.0.0.1:0").expect("bind");
        let send_side = NetTransport::bind("127.0.0.1:0").expect("bind");

        let (tx_r, rx) = frame_channel(8, 8, None);
        let link = recv_side.add_incoming(3, tx_r, AckMode::Stable);
        recv_side.start();

        let (tx_s, rx_s) = frame_channel(8, 8, None);
        send_side.add_outgoing(3, rx_s, recv_side.local_addr(), 1);
        send_side.start();

        let tuples = vec![data(0, 1.0), Tuple::Punct(Punctuation::EndOfStream)];
        assert!(tx_s.send(Frame::from_tuples(&tuples)), "send");
        drop(tx_s);

        let frame = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("no frame within deadline");
        assert_eq!(frame.len(), 2);
        StableLink {
            recv_side,
            send_side,
            link,
            rx,
        }
    }

    #[test]
    fn stable_acks_hold_back_goodbye_until_checkpoint() {
        let l = stable_link_awaiting_its_ack();
        // The channel stays connected while the ack lags the checkpoint.
        assert_eq!(
            l.rx.recv_timeout(Duration::from_millis(300)).err(),
            Some(RecvTimeoutError::Timeout)
        );
        // "Checkpoint" the consumed entries: the sender may now say goodbye.
        l.link.advance_stable(2);
        assert_eq!(
            l.rx.recv_timeout(Duration::from_secs(10)).err(),
            Some(RecvTimeoutError::Disconnected)
        );
        l.send_side.shutdown();
        l.recv_side.shutdown();
    }

    #[test]
    fn teardown_after_the_last_watermark_advance_waits_for_no_timer() {
        // Ack out, ack in, GOODBYE, FIN back, four joins: a millisecond of
        // events. With the ack on a 50 ms read tick and the close on 5 ms
        // polls this could not finish under 50 ms. A loaded host can stall
        // any one attempt, so the fastest of three counts.
        const CEILING: Duration = Duration::from_millis(20);
        let mut fastest = Duration::MAX;
        for _ in 0..3 {
            let l = stable_link_awaiting_its_ack();
            let t0 = Instant::now();
            l.link.advance_stable(2);
            l.send_side.shutdown();
            let took = t0.elapsed();
            assert_eq!(
                l.rx.recv_timeout(Duration::from_secs(10)).err(),
                Some(RecvTimeoutError::Disconnected),
                "the sender must have said GOODBYE before its shutdown returned"
            );
            l.recv_side.shutdown();
            fastest = fastest.min(took);
            if fastest < CEILING {
                break;
            }
        }
        assert!(
            fastest < CEILING,
            "watermark advance to sender shutdown took {fastest:?} at best, ceiling {CEILING:?}"
        );
    }
}
