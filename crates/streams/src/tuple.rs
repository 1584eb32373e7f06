//! The tuple model.
//!
//! "The data is a stream of structured blocks – tuples, having the data
//! structure specified by the application." Our data tuples carry a
//! constant-length `f64` vector (the paper's observation type) plus an
//! optional mask for gappy observations; control tuples carry an opaque
//! payload so applications can ship their own state (the PCA application
//! sends whole eigensystems through them); punctuation marks end-of-stream.

use crate::csv::{self, Row};
use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError,
};
use std::sync::Arc;
use std::time::Duration;

/// A data observation: sequence number, logical timestamp, values, and an
/// optional observed-bin mask. Values are shared via `Arc`, so intra-PE
/// hand-off is pointer-sized — the engine-level analogue of InfoSphere
/// "sending the tuple memory address" between fused operators.
#[derive(Debug, Clone)]
pub struct DataTuple {
    /// Monotone per-source sequence number.
    pub seq: u64,
    /// Logical timestamp (nanoseconds since stream start).
    pub timestamp_ns: u64,
    /// Observation vector.
    pub values: Arc<Vec<f64>>,
    /// Observed-bin mask (`None` = complete observation).
    pub mask: Option<Arc<Vec<bool>>>,
}

impl DataTuple {
    /// A complete observation with the given sequence number.
    pub fn new(seq: u64, values: Vec<f64>) -> Self {
        DataTuple {
            seq,
            timestamp_ns: 0,
            values: Arc::new(values),
            mask: None,
        }
    }

    /// A gappy observation.
    pub fn masked(seq: u64, values: Vec<f64>, mask: Vec<bool>) -> Self {
        DataTuple {
            seq,
            timestamp_ns: 0,
            values: Arc::new(values),
            mask: Some(Arc::new(mask)),
        }
    }

    /// Parses one CSV line (see [`csv::parse_row`]); `None` for blank and
    /// `#`-comment lines. `width` presizes the tuple's vectors — sources
    /// pass the previous row's length, so a steady stream allocates exactly
    /// `values`, plus `mask` on rows with a gap.
    pub fn from_csv_line(seq: u64, line: &[u8], width: usize) -> Option<Self> {
        if csv::is_skip(line) {
            return None; // before paying for the vector
        }
        let mut values = Vec::with_capacity(width);
        let mut mask = Vec::new();
        match csv::parse_row(line, &mut values, &mut mask) {
            Row::Skip => None,
            Row::Dense => Some(DataTuple::new(seq, values)),
            Row::Masked => Some(DataTuple::masked(seq, values, mask)),
        }
    }

    /// True when every value is finite (no NaN/Inf anywhere in the
    /// observation). Operators use this as the quarantine boundary check.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// A copy of this tuple with every value replaced by `fill` — used by
    /// deterministic poison-tuple fault injection.
    pub fn poisoned(&self, fill: f64) -> Self {
        DataTuple {
            seq: self.seq,
            timestamp_ns: self.timestamp_ns,
            values: Arc::new(vec![fill; self.values.len()]),
            mask: self.mask.clone(),
        }
    }

    /// Approximate serialized size in bytes (used by link-traffic metrics
    /// and the cluster simulator's bandwidth model).
    pub fn wire_bytes(&self) -> u64 {
        let header = 16u64;
        let values = (self.values.len() * 8) as u64;
        let mask = self.mask.as_ref().map_or(0, |m| m.len() as u64);
        header + values + mask
    }
}

/// A control-port message (synchronization signals, shared state, ...).
#[derive(Clone)]
pub struct ControlTuple {
    /// Application-defined discriminator.
    pub kind: u32,
    /// Originating operator (application-level id, e.g. PCA engine index).
    pub sender: u32,
    /// Opaque payload.
    pub payload: Arc<dyn Any + Send + Sync>,
}

impl std::fmt::Debug for ControlTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ControlTuple {{ kind: {}, sender: {} }}",
            self.kind, self.sender
        )
    }
}

impl ControlTuple {
    /// A control tuple with an arbitrary payload.
    pub fn new(kind: u32, sender: u32, payload: Arc<dyn Any + Send + Sync>) -> Self {
        ControlTuple {
            kind,
            sender,
            payload,
        }
    }

    /// A payload-free signal.
    pub fn signal(kind: u32, sender: u32) -> Self {
        ControlTuple {
            kind,
            sender,
            payload: Arc::new(()),
        }
    }

    /// Attempts to view the payload as `T`.
    pub fn payload_as<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

/// Stream punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Punctuation {
    /// No more tuples will arrive on this edge.
    EndOfStream,
}

/// Anything that can flow along an edge.
#[derive(Debug, Clone)]
pub enum Tuple {
    /// A data observation.
    Data(DataTuple),
    /// A control message.
    Control(ControlTuple),
    /// Punctuation.
    Punct(Punctuation),
}

impl Tuple {
    /// Wire size estimate for traffic accounting.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Tuple::Data(d) => d.wire_bytes(),
            // Control tuples are small unless they carry state; the engine
            // that puts an eigensystem in one accounts for it separately.
            Tuple::Control(_) => 64,
            Tuple::Punct(_) => 8,
        }
    }

    /// True for end-of-stream punctuation.
    pub fn is_eos(&self) -> bool {
        matches!(self, Tuple::Punct(Punctuation::EndOfStream))
    }
}

/// A batch of tuples travelling a cross-PE edge as one channel message.
///
/// Cross-PE channels carry frames instead of individual tuples so one
/// channel operation amortizes over a whole batch (§III-D: network tuple
/// transfer, not flop count, dominates the unfused throughput story). The
/// backing `Vec` is recycled through a buffer pool shared by the two ends
/// of the edge's channel, so steady-state transport does not allocate.
#[derive(Debug, Default)]
pub struct Frame {
    /// The batched tuples, in emission order.
    pub tuples: Vec<Tuple>,
}

impl Frame {
    /// Wraps an already-filled batch.
    pub fn from_vec(tuples: Vec<Tuple>) -> Self {
        Frame { tuples }
    }

    /// Number of tuples in the frame.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the frame carries no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Total wire size of the batched tuples (frame framing itself is
    /// considered free — the accounting unit stays the tuple).
    pub fn wire_bytes(&self) -> u64 {
        self.tuples.iter().map(Tuple::wire_bytes).sum()
    }
}

/// A bounded recycle bin for frame buffers.
///
/// The sender takes an empty buffer when it starts a new batch; the
/// receiver puts the drained buffer back after routing a frame. Bounded so
/// a burst can never pin unbounded memory: overflow buffers are simply
/// dropped.
#[derive(Debug)]
pub(crate) struct FramePool {
    free: Mutex<Vec<Vec<Tuple>>>,
    max_pooled: usize,
}

impl FramePool {
    /// A pool retaining at most `max_pooled` spare buffers.
    pub(crate) fn new(max_pooled: usize) -> Self {
        FramePool {
            free: Mutex::new(Vec::with_capacity(max_pooled)),
            max_pooled,
        }
    }

    /// An empty buffer with at least `cap` capacity (recycled when one is
    /// available, freshly allocated otherwise).
    pub(crate) fn take(&self, cap: usize) -> Vec<Tuple> {
        let mut v = self
            .free
            .lock()
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(cap));
        if v.capacity() < cap {
            v.reserve(cap - v.len());
        }
        v
    }

    /// Returns a drained buffer to the pool (dropped if the pool is full).
    pub(crate) fn put(&self, mut v: Vec<Tuple>) {
        v.clear();
        let mut free = self.free.lock();
        if free.len() < self.max_pooled {
            free.push(v);
        }
    }
}

/// Spare frame buffers retained per channel.
const POOL_DEPTH: usize = 8;

/// The producing end of a cross-PE frame channel: a `std::sync::mpsc`
/// channel bounded at `cap` frames by its two ends. `std`'s sender cannot
/// tell how full its channel is, so the ends count frames: one goes up here
/// before a send and down in [`FrameRx`] as it leaves, and a send waits
/// while `cap` frames are queued. With one producer per channel,
/// `is_full` false means the next send does not wait. The bound is not
/// `sync_channel`'s because that allocates all `cap` slots up front, and a
/// distributed run sizes `cap` past its corpus.
pub(crate) struct FrameTx {
    tx: Sender<Frame>,
    shared: Arc<Shared>,
    /// Rung by the consumer when it takes a frame off a full channel, and
    /// when it drops.
    room: Receiver<()>,
    /// The consuming PE's wake-up, rung after every send; `None` when the
    /// consumer is a socket sender, which waits on the channel itself.
    /// Declared after `tx`, so it rings on drop after the channel end is
    /// gone, and the PE it wakes sees the disconnect.
    wake: Option<Wake>,
}

/// The consuming end of a frame channel (see [`FrameTx`]).
pub(crate) struct FrameRx {
    rx: Receiver<Frame>,
    shared: Arc<Shared>,
    room: Wake,
}

/// What both ends of a channel share: its bound, the frames sent and not
/// yet taken off it, and the pool its frames' buffers cycle through.
/// `Relaxed` suffices for the count: it publishes no other data, a frame's
/// increment comes before its send, which the channel orders before the
/// receive that precedes its decrement, and a producer waiting for room is
/// woken by the consumer's ring after the decrement.
struct Shared {
    cap: usize,
    frames: AtomicUsize,
    pool: FramePool,
}

/// A frame channel holding at most `cap` frames (at least one), whose
/// sends ring `wake`.
pub(crate) fn frame_channel(cap: usize, wake: Option<Wake>) -> (FrameTx, FrameRx) {
    let (tx, rx) = channel();
    let (room_tx, room) = self::wake();
    let shared = Arc::new(Shared {
        cap: cap.max(1),
        frames: AtomicUsize::new(0),
        pool: FramePool::new(POOL_DEPTH),
    });
    let tx = FrameTx {
        tx,
        shared: Arc::clone(&shared),
        room,
        wake,
    };
    let rx = FrameRx {
        rx,
        shared,
        room: room_tx,
    };
    (tx, rx)
}

impl FrameTx {
    /// Queues `frame`, waiting while the channel is full, and rings the
    /// consumer. False when the consumer is gone: the frame is dropped.
    pub(crate) fn send(&self, frame: Frame) -> bool {
        while self.is_full() {
            // A stale ring only costs one more look at the count.
            if self.room.recv().is_err() {
                return false;
            }
        }
        self.shared.frames.fetch_add(1, Ordering::Relaxed);
        if self.tx.send(frame).is_err() {
            self.shared.frames.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        if let Some(wake) = &self.wake {
            wake.ring();
        }
        true
    }

    /// True when the consumer has taken every frame sent. Frames are never
    /// empty, so no frame queued is no tuple queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.shared.frames.load(Ordering::Relaxed) == 0
    }

    /// True when the channel holds `cap` frames: a send would wait.
    pub(crate) fn is_full(&self) -> bool {
        self.shared.frames.load(Ordering::Relaxed) >= self.shared.cap
    }

    /// An empty buffer for up to `cap` tuples, recycled by the consumer.
    pub(crate) fn buffer(&self, cap: usize) -> Vec<Tuple> {
        self.shared.pool.take(cap)
    }
}

impl FrameRx {
    /// The next frame, if one is queued.
    pub(crate) fn try_recv(&self) -> Result<Frame, TryRecvError> {
        self.rx.try_recv().map(|f| self.taken(f))
    }

    /// The next frame, waiting up to `timeout` for one.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvTimeoutError> {
        self.rx.recv_timeout(timeout).map(|f| self.taken(f))
    }

    /// Hands a spent frame's buffer back for the producer to refill.
    pub(crate) fn recycle(&self, tuples: Vec<Tuple>) {
        self.shared.pool.put(tuples);
    }

    fn taken(&self, frame: Frame) -> Frame {
        // The frames queued before this one left.
        if self.shared.frames.fetch_sub(1, Ordering::Relaxed) >= self.shared.cap {
            self.room.ring();
        }
        frame
    }
}

/// A wake-up: a capacity-1 channel of `()` whose receiver one thread waits
/// on. A PE waits on one when it has nothing to do, and every producer
/// into the PE holds a clone and rings it after queuing a frame and when it
/// drops; a producer waits on one for room in a full channel. A ring stays
/// queued until taken, so one that lands between the waiter's last look
/// and its wait ends the wait at once.
#[derive(Clone)]
pub(crate) struct Wake(SyncSender<()>);

/// A wake-up and the receiver to wait on.
pub(crate) fn wake() -> (Wake, Receiver<()>) {
    let (tx, rx) = sync_channel(1);
    (Wake(tx), rx)
}

impl Wake {
    fn ring(&self) {
        // Full means a ring is already waiting to be taken.
        let _ = self.0.try_send(());
    }
}

impl Drop for Wake {
    fn drop(&mut self) {
        self.ring();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FrameRx {
        /// Frames sent and not yet taken off the channel.
        pub(crate) fn queued(&self) -> usize {
            self.shared.frames.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn wire_bytes_scale_with_dimension() {
        let t = DataTuple::new(0, vec![0.0; 250]);
        assert_eq!(t.wire_bytes(), 16 + 2000);
        let m = DataTuple::masked(0, vec![0.0; 250], vec![true; 250]);
        assert_eq!(m.wire_bytes(), 16 + 2000 + 250);
    }

    #[test]
    fn control_payload_downcasts() {
        let c = ControlTuple::new(7, 3, Arc::new(vec![1.0f64, 2.0]));
        assert_eq!(c.payload_as::<Vec<f64>>().unwrap()[1], 2.0);
        assert!(c.payload_as::<String>().is_none());
        assert_eq!(c.kind, 7);
        assert_eq!(c.sender, 3);
    }

    #[test]
    fn eos_detection() {
        assert!(Tuple::Punct(Punctuation::EndOfStream).is_eos());
        assert!(!Tuple::Data(DataTuple::new(0, vec![])).is_eos());
    }

    #[test]
    fn finiteness_check_and_poisoning() {
        let t = DataTuple::new(3, vec![1.0, 2.0]);
        assert!(t.all_finite());
        assert!(!DataTuple::new(0, vec![1.0, f64::NAN]).all_finite());
        assert!(!DataTuple::new(0, vec![f64::INFINITY]).all_finite());
        let p = t.poisoned(f64::NAN);
        assert_eq!(p.seq, 3);
        assert_eq!(p.values.len(), 2);
        assert!(!p.all_finite());
        assert!(t.all_finite(), "poisoning copies, never mutates");
    }

    #[test]
    fn data_sharing_is_pointer_cheap() {
        let t = DataTuple::new(0, vec![1.0; 1000]);
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.values, &u.values));
    }

    #[test]
    fn frame_accounts_per_tuple_bytes() {
        let f = Frame::from_vec(vec![
            Tuple::Data(DataTuple::new(0, vec![0.0])),
            Tuple::Punct(Punctuation::EndOfStream),
        ]);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        assert_eq!(f.wire_bytes(), 24 + 8);
        assert!(Frame::default().is_empty());
    }

    #[test]
    fn frame_pool_recycles_buffers() {
        let pool = FramePool::new(2);
        let mut a = pool.take(8);
        assert!(a.capacity() >= 8);
        a.push(Tuple::Punct(Punctuation::EndOfStream));
        pool.put(a);
        let b = pool.take(4);
        assert!(b.is_empty(), "recycled buffers come back cleared");
        // Overflow beyond max_pooled is silently dropped.
        pool.put(Vec::new());
        pool.put(Vec::new());
        pool.put(Vec::new());
        assert!(pool.free.lock().len() <= 2);
    }

    #[test]
    fn frame_channel_counts_what_it_holds_and_rings_its_consumer() {
        let frame = |n| Frame::from_vec(vec![Tuple::Punct(Punctuation::EndOfStream); n]);
        let (wake, woken) = wake();
        let (tx, rx) = frame_channel(2, Some(wake));
        assert!(tx.send(frame(3)));
        assert!(tx.send(frame(1)));
        assert_eq!((tx.is_empty(), tx.is_full()), (false, true));
        assert_eq!(woken.try_recv(), Ok(()), "a send rings");
        assert_eq!(rx.try_recv().unwrap().len(), 3);
        assert_eq!((tx.is_empty(), tx.is_full()), (false, false));
        drop(tx);
        assert_eq!(woken.try_recv(), Ok(()), "the producer's drop rings");
        assert_eq!(rx.try_recv().unwrap().len(), 1);
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);

        let (tx, rx) = frame_channel(1, None);
        drop(rx);
        assert!(!tx.send(frame(2)), "a send to a gone consumer fails");
        assert_eq!((tx.is_empty(), tx.is_full()), (true, false));
    }

    #[test]
    fn a_full_frame_channel_holds_its_producer_until_there_is_room() {
        let frame = |n| Frame::from_vec(vec![Tuple::Punct(Punctuation::EndOfStream); n]);
        let (tx, rx) = frame_channel(1, None);
        let (sent_tx, sent) = std::sync::mpsc::channel();
        let producer = std::thread::spawn(move || {
            for n in 1..=2 {
                assert!(tx.send(frame(n)));
                sent_tx.send(n).unwrap();
            }
        });
        assert_eq!(sent.recv(), Ok(1));
        assert!(
            sent.recv_timeout(Duration::from_millis(100)).is_err(),
            "a full channel holds its producer"
        );
        assert_eq!(rx.try_recv().unwrap().len(), 1);
        assert_eq!(sent.recv(), Ok(2), "taking a frame makes room");
        producer.join().unwrap();
        assert_eq!(rx.try_recv().unwrap().len(), 2);

        // A producer waiting for room gives up when the consumer goes.
        let (tx, rx) = frame_channel(1, None);
        let (sent_tx, sent) = std::sync::mpsc::channel();
        let producer = std::thread::spawn(move || {
            assert!(tx.send(frame(1)));
            sent_tx.send(()).unwrap();
            tx.send(frame(2))
        });
        sent.recv().unwrap();
        drop(rx);
        assert!(!producer.join().unwrap(), "no consumer, no send");
    }
}
