//! The tuple model.
//!
//! "The data is a stream of structured blocks – tuples, having the data
//! structure specified by the application." Our data tuples carry a
//! constant-length `f64` vector (the paper's observation type) plus an
//! optional mask for gappy observations; control tuples carry an opaque
//! payload so applications can ship their own state (the PCA application
//! sends whole eigensystems through them); punctuation marks end-of-stream.

use crate::watched::lock;
use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A data observation: sequence number, logical timestamp, values, and an
/// optional observed-bin mask, owned. Inside the engine rows travel in
/// [`Frame`]s, on PE-local edges as on cross-PE ones, and reach an operator
/// borrowed ([`RowRef`]), and leave one the same way
/// ([`OpContext::emit_row`](crate::OpContext::emit_row)); a `DataTuple` is
/// what an operator copies a row into to keep it. Values are shared via
/// `Arc`, so cloning one is pointer-sized.
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

    /// This tuple's row, borrowed.
    pub fn row(&self) -> RowRef<'_> {
        RowRef {
            seq: self.seq,
            timestamp_ns: self.timestamp_ns,
            values: &self.values,
            mask: self.mask.as_deref().map(Vec::as_slice),
        }
    }
}

/// A data observation borrowed from wherever it lives: a frame's columns,
/// a source's parse buffers, or a [`DataTuple`]. What crosses a PE
/// boundary is copied out of one of these into the edge's frame; nothing
/// is allocated for it.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    /// Monotone per-source sequence number.
    pub seq: u64,
    /// Logical timestamp (nanoseconds since stream start).
    pub timestamp_ns: u64,
    /// Observation vector.
    pub values: &'a [f64],
    /// Observed-bin mask (`None` = complete observation).
    pub mask: Option<&'a [bool]>,
}

impl RowRef<'_> {
    /// An owned copy, for an operator that keeps the row or a target that
    /// takes tuples.
    pub fn to_tuple(&self) -> DataTuple {
        DataTuple {
            seq: self.seq,
            timestamp_ns: self.timestamp_ns,
            values: Arc::new(self.values.to_vec()),
            mask: self.mask.map(|m| Arc::new(m.to_vec())),
        }
    }

    /// True when every value is finite (no NaN/Inf anywhere in the
    /// observation). Operators use this as the quarantine boundary check.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
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

/// Entry tags of a [`Frame`], in stream order; the same bytes head a
/// frame's body on the wire ([`crate::codec`]).
pub(crate) const TAG_DATA: u8 = 0;
pub(crate) const TAG_CTRL: u8 = 1;
pub(crate) const TAG_EOS: u8 = 2;

/// A batch of entries in the codec's columnar layout: one channel message
/// on a cross-PE edge, and a PE's queue of entries on its local edges.
///
/// Cross-PE channels carry frames instead of individual tuples so one
/// channel operation amortizes over a whole batch (§III-D: network tuple
/// transfer, not flop count, dominates the unfused throughput story). A
/// data row is copied once into the frame's columns — its values onto one
/// contiguous block — and read back in place by the consuming operator, so
/// it is never allocated on the way. Control tuples and end-of-stream keep
/// their places among the rows through the entry tags. Frames are
/// recycled through a buffer pool shared by the two ends of the edge's
/// channel, and a PE reuses its local frames, so steady-state transport
/// allocates nothing per row.
#[derive(Debug, Default)]
pub struct Frame {
    /// Entry kinds in stream order ([`TAG_DATA`], [`TAG_CTRL`], [`TAG_EOS`]).
    pub(crate) tags: Vec<u8>,
    /// Per data row: sequence number.
    pub(crate) seqs: Vec<u64>,
    /// Per data row: logical timestamp.
    pub(crate) stamps: Vec<u64>,
    /// Per data row: end of its values in `values` (start: the previous
    /// row's end).
    pub(crate) ends: Vec<usize>,
    /// Every row's values, one contiguous block.
    pub(crate) values: Vec<f64>,
    /// Per data row: whether it carries a mask.
    pub(crate) masked: Vec<bool>,
    /// Per data row: end of its mask in `masks` (complete rows add none).
    pub(crate) mask_ends: Vec<usize>,
    /// The masked rows' masks, one contiguous block.
    pub(crate) masks: Vec<bool>,
    /// The control entries, in order.
    pub(crate) ctrls: Vec<ControlTuple>,
}

impl Frame {
    /// A frame holding copies of `tuples`, in order: the tests' oracle
    /// constructor (the engine appends rows, control tuples and
    /// end-of-stream through the `push_*` entries).
    pub fn from_tuples<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Self {
        let mut f = Frame::default();
        for t in tuples {
            match t {
                Tuple::Data(d) => f.push_row(d.row()),
                Tuple::Control(c) => f.push_control(c.clone()),
                Tuple::Punct(Punctuation::EndOfStream) => f.push_eos(),
            }
        }
        f
    }

    /// Appends a data row, copying its columns.
    pub fn push_row(&mut self, row: RowRef<'_>) {
        self.tags.push(TAG_DATA);
        self.seqs.push(row.seq);
        self.stamps.push(row.timestamp_ns);
        self.values.extend_from_slice(row.values);
        self.ends.push(self.values.len());
        self.masked.push(row.mask.is_some());
        if let Some(m) = row.mask {
            self.masks.extend_from_slice(m);
        }
        self.mask_ends.push(self.masks.len());
    }

    /// Appends a control tuple.
    pub fn push_control(&mut self, c: ControlTuple) {
        self.tags.push(TAG_CTRL);
        self.ctrls.push(c);
    }

    /// Appends end-of-stream punctuation.
    pub fn push_eos(&mut self) {
        self.tags.push(TAG_EOS);
    }

    /// Number of entries (data rows, control tuples and punctuation).
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when the frame carries no entries.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.seqs.len()
    }

    /// Data row `r` (0-based among the rows), borrowed.
    pub fn row(&self, r: usize) -> RowRef<'_> {
        let start = |ends: &[usize]| if r == 0 { 0 } else { ends[r - 1] };
        RowRef {
            seq: self.seqs[r],
            timestamp_ns: self.stamps[r],
            values: &self.values[start(&self.ends)..self.ends[r]],
            mask: self.masked[r].then(|| &self.masks[start(&self.mask_ends)..self.mask_ends[r]]),
        }
    }

    /// Overwrites every value of data row `r` with `fill` (a poison
    /// fault).
    pub(crate) fn fill_row(&mut self, r: usize, fill: f64) {
        let start = if r == 0 { 0 } else { self.ends[r - 1] };
        self.values[start..self.ends[r]].fill(fill);
    }

    /// Data rows `at.get()..end`. `at` advances as each row is taken, so
    /// whoever holds it knows which row is in flight.
    pub fn rows<'a>(&'a self, at: &'a Cell<usize>, end: usize) -> Rows<'a> {
        assert!(end <= self.n_rows(), "rows past the end of the frame");
        Rows {
            frame: self,
            at,
            end,
        }
    }

    /// The entries as tuples, in order; data rows are copied out.
    pub fn tuples(&self) -> Vec<Tuple> {
        let (mut r, mut c) = (0, 0);
        self.tags
            .iter()
            .map(|&tag| match tag {
                TAG_DATA => {
                    r += 1;
                    Tuple::Data(self.row(r - 1).to_tuple())
                }
                TAG_CTRL => {
                    c += 1;
                    Tuple::Control(self.ctrls[c - 1].clone())
                }
                _ => Tuple::Punct(Punctuation::EndOfStream),
            })
            .collect()
    }

    /// Total wire size of the entries (frame framing itself is considered
    /// free — the accounting unit stays the tuple).
    pub fn wire_bytes(&self) -> u64 {
        let rows = self.n_rows() as u64;
        let ctrls = self.ctrls.len() as u64;
        let eos = self.len() as u64 - rows - ctrls;
        16 * rows + 8 * self.values.len() as u64 + self.masks.len() as u64 + 64 * ctrls + 8 * eos
    }

    /// Removes the first `n` entries (a retransmitted frame's duplicate
    /// prefix).
    pub(crate) fn drop_front(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let rows = self.tags[..n].iter().filter(|&&t| t == TAG_DATA).count();
        let ctrls = self.tags[..n].iter().filter(|&&t| t == TAG_CTRL).count();
        let before = |ends: &[usize]| if rows == 0 { 0 } else { ends[rows - 1] };
        let (vals, mask_vals) = (before(&self.ends), before(&self.mask_ends));
        self.tags.drain(..n);
        self.seqs.drain(..rows);
        self.stamps.drain(..rows);
        self.masked.drain(..rows);
        self.values.drain(..vals);
        self.masks.drain(..mask_vals);
        self.ends.drain(..rows);
        self.ends.iter_mut().for_each(|e| *e -= vals);
        self.mask_ends.drain(..rows);
        self.mask_ends.iter_mut().for_each(|e| *e -= mask_vals);
        self.ctrls.drain(..ctrls);
    }

    /// Bytes of capacity the columns hold.
    fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.tags.capacity()
            + self.masked.capacity()
            + self.masks.capacity()
            + 8 * (self.seqs.capacity() + self.stamps.capacity() + self.values.capacity())
            + size_of::<usize>() * (self.ends.capacity() + self.mask_ends.capacity())
            + size_of::<ControlTuple>() * self.ctrls.capacity()
    }

    /// Empties every column, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.tags.clear();
        self.seqs.clear();
        self.stamps.clear();
        self.ends.clear();
        self.values.clear();
        self.masked.clear();
        self.mask_ends.clear();
        self.masks.clear();
        self.ctrls.clear();
    }
}

/// A run of a frame's data rows, handed to
/// [`Operator::process_rows`](crate::Operator::process_rows) in order.
/// Taking a row advances the cursor the run was made with, which is how
/// the PE knows the row in flight if the operator panics.
pub struct Rows<'a> {
    frame: &'a Frame,
    at: &'a Cell<usize>,
    end: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = RowRef<'a>;

    fn next(&mut self) -> Option<RowRef<'a>> {
        let r = self.at.get();
        if r >= self.end {
            return None;
        }
        self.at.set(r + 1);
        Some(self.frame.row(r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end.saturating_sub(self.at.get());
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// A bounded recycle bin for frames.
///
/// The sender takes an empty frame when it starts a new batch; the
/// receiver puts the drained frame back after routing it. A spare frame
/// keeps the column capacity of the most rows it held, so a channel whose
/// fill swings reuses its frames instead of growing new ones. Bounded in
/// the bytes those columns hold, so a burst can never pin unbounded memory:
/// a frame past the bound is dropped. (A pool as deep as a corpus-sized
/// channel kept a drained backlog beside the socket sender's retransmit
/// queue of the same rows.)
#[derive(Debug)]
pub(crate) struct FramePool {
    /// The spare frames, and the bytes of column capacity they hold.
    free: Mutex<(Vec<Frame>, usize)>,
    max_bytes: usize,
}

impl FramePool {
    /// A pool retaining spare frames of at most `max_bytes` of columns.
    pub(crate) fn new(max_bytes: usize) -> Self {
        FramePool {
            free: Mutex::new((Vec::new(), 0)),
            max_bytes,
        }
    }

    /// An empty frame (recycled when one is available, with its columns'
    /// capacity; fresh otherwise).
    pub(crate) fn take(&self) -> Frame {
        let mut free = lock(&self.free);
        let frame = free.0.pop().unwrap_or_default();
        free.1 -= frame.capacity_bytes();
        frame
    }

    /// Returns a spent frame to the pool (dropped if it does not fit).
    pub(crate) fn put(&self, mut f: Frame) {
        f.clear();
        let bytes = f.capacity_bytes();
        let mut free = lock(&self.free);
        if free.1 + bytes <= self.max_bytes {
            free.1 += bytes;
            free.0.push(f);
        }
    }
}

/// Column bytes a channel's pool keeps: what a channel of the default
/// capacity holds (1 MiB, `spca-engine`'s `EDGE_BYTES`), so the frames of
/// such a channel are all reused, and a corpus-sized one keeps no more.
const POOL_BYTES: usize = 1 << 20;

/// The producing end of a cross-PE frame channel: a `std::sync::mpsc`
/// channel bounded at `cap` tuples by its two ends. `std`'s sender cannot
/// tell how full its channel is, so the ends count the entries its frames
/// carry: a frame's length goes up here before a send and down in
/// [`FrameRx`] as it leaves, and a send waits while `hold` or more are
/// queued. A channel is full at the same number of tuples whether its
/// frames are full or a pre-idle flush sent them a few rows each; the last
/// frame in may overshoot the bound by less than its own length. The hold
/// is the capacity except in a process of a distributed run (DESIGN §12,
/// flow control): there `is_full`, and so `try_emit_row`, still reads
/// `cap`, which such a run sizes past its corpus so its split never sheds,
/// while a send already waits at `hold`. Elsewhere, with one producer per
/// channel, `is_full` false means the next send does not wait. The bound
/// is not `sync_channel`'s because that allocates all of its slots up
/// front.
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

/// What both ends of a channel share: its bounds, the entries sent and not
/// yet taken off it, and the pool its frames' buffers cycle through.
/// `Relaxed` suffices for the count: it publishes no other data, a frame's
/// increment comes before its send, which the channel orders before the
/// receive that precedes its decrement, and a producer waiting for room is
/// woken by the consumer's ring after the decrement.
struct Shared {
    cap: usize,
    /// Where a send waits: `cap`, or less in a process of a distributed run.
    hold: usize,
    queued: AtomicUsize,
    pool: FramePool,
}

/// A frame channel full at `cap` tuples (at least one), whose sends wait
/// while it holds `hold` (at most `cap`) plus the overshoot of its last
/// frame, and ring `wake`.
pub(crate) fn frame_channel(cap: usize, hold: usize, wake: Option<Wake>) -> (FrameTx, FrameRx) {
    let (tx, rx) = channel();
    let (room_tx, room) = self::wake();
    let cap = cap.max(1);
    let shared = Arc::new(Shared {
        cap,
        hold: hold.clamp(1, cap),
        queued: AtomicUsize::new(0),
        pool: FramePool::new(POOL_BYTES),
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
    /// Queues `frame`, waiting while the channel holds `hold` tuples, and
    /// rings the consumer. False when the consumer is gone: the frame is
    /// dropped.
    pub(crate) fn send(&self, frame: Frame) -> bool {
        while self.shared.queued.load(Ordering::Relaxed) >= self.shared.hold {
            // A stale ring only costs one more look at the count.
            if self.room.recv().is_err() {
                return false;
            }
        }
        let n = frame.len();
        self.shared.queued.fetch_add(n, Ordering::Relaxed);
        if self.tx.send(frame).is_err() {
            self.shared.queued.fetch_sub(n, Ordering::Relaxed);
            return false;
        }
        if let Some(wake) = &self.wake {
            wake.ring();
        }
        true
    }

    /// True when the channel holds `cap` or more tuples: a send would wait,
    /// as one already does at a lower hold.
    pub(crate) fn is_full(&self) -> bool {
        self.shared.queued.load(Ordering::Relaxed) >= self.shared.cap
    }

    /// An empty frame, recycled by the consumer.
    pub(crate) fn buffer(&self) -> Frame {
        self.shared.pool.take()
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

    /// Hands a spent frame back for the producer to refill.
    pub(crate) fn recycle(&self, frame: Frame) {
        self.shared.pool.put(frame);
    }

    fn taken(&self, frame: Frame) -> Frame {
        // Taken from a held channel: the producer may be waiting for room.
        // If this frame did not make enough, the ring costs it one look.
        if self.shared.queued.fetch_sub(frame.len(), Ordering::Relaxed) >= self.shared.hold {
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

    impl FrameTx {
        /// Entries sent and not yet taken off the channel.
        pub(crate) fn queued(&self) -> usize {
            self.shared.queued.load(Ordering::Relaxed)
        }
    }

    impl FrameRx {
        /// Entries sent and not yet taken off the channel.
        pub(crate) fn queued(&self) -> usize {
            self.shared.queued.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn wire_bytes_scale_with_dimension() {
        let t = Tuple::Data(DataTuple::new(0, vec![0.0; 250]));
        assert_eq!(Frame::from_tuples(&[t]).wire_bytes(), 16 + 2000);
        let m = Tuple::Data(DataTuple::masked(0, vec![0.0; 250], vec![true; 250]));
        assert_eq!(Frame::from_tuples(&[m]).wire_bytes(), 16 + 2000 + 250);
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
        assert!(matches!(
            Tuple::Punct(Punctuation::EndOfStream),
            Tuple::Punct(_)
        ));
        assert!(!matches!(
            Tuple::Data(DataTuple::new(0, vec![])),
            Tuple::Punct(_)
        ));
    }

    #[test]
    fn finiteness_check() {
        assert!(DataTuple::new(3, vec![1.0, 2.0]).row().all_finite());
        assert!(!DataTuple::new(0, vec![1.0, f64::NAN]).row().all_finite());
        assert!(!DataTuple::new(0, vec![f64::INFINITY]).row().all_finite());
    }

    #[test]
    fn data_sharing_is_pointer_cheap() {
        let t = DataTuple::new(0, vec![1.0; 1000]);
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.values, &u.values));
    }

    #[test]
    fn frame_accounts_per_tuple_bytes() {
        let f = Frame::from_tuples(&[
            Tuple::Data(DataTuple::new(0, vec![0.0])),
            Tuple::Data(DataTuple::masked(1, vec![0.0; 3], vec![true, false, true])),
            Tuple::Punct(Punctuation::EndOfStream),
        ]);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        assert_eq!(f.wire_bytes(), 24 + (16 + 24 + 3) + 8);
        assert!(Frame::default().is_empty());
    }

    #[test]
    fn frame_columns_give_back_the_entries_in_order() {
        let tuples = vec![
            Tuple::Data(DataTuple::masked(4, vec![1.0, 2.0], vec![false, true])),
            Tuple::Control(ControlTuple::signal(9, 1)),
            Tuple::Data(DataTuple::new(5, vec![])),
            Tuple::Data(DataTuple::masked(6, vec![3.0], vec![true, false])),
            Tuple::Punct(Punctuation::EndOfStream),
            Tuple::Data(DataTuple::new(7, vec![4.0, 5.0, 6.0])),
        ];
        let mut f = Frame::from_tuples(&tuples);
        assert_eq!((f.len(), f.n_rows()), (6, 4));
        let row = f.row(2);
        assert_eq!(
            (row.seq, row.values, row.mask),
            (6, &[3.0][..], Some(&[true, false][..]))
        );
        let same = |a: &[Tuple], b: &[Tuple]| format!("{a:?}") == format!("{b:?}");
        assert!(same(&f.tuples(), &tuples));

        let at = Cell::new(1);
        let seqs: Vec<u64> = f.rows(&at, 3).map(|r| r.seq).collect();
        assert_eq!((seqs, at.get()), (vec![5, 6], 3));

        f.drop_front(2);
        assert!(same(&f.tuples(), &tuples[2..]));
        f.drop_front(3);
        assert!(same(&f.tuples(), &tuples[5..]));
        assert_eq!(f.row(0).values, &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn frame_pool_recycles_frames_up_to_its_bytes() {
        let row = DataTuple::new(0, vec![1.0; 100]);
        let frame = || {
            let mut f = Frame::default();
            f.push_row(row.row());
            f
        };
        let bytes = frame().capacity_bytes();
        assert!(bytes >= 800);
        let pool = FramePool::new(2 * bytes);
        pool.put(frame());
        let b = pool.take();
        assert!(b.is_empty(), "recycled frames come back cleared");
        assert!(b.values.capacity() >= 100, "with their columns' capacity");
        assert_eq!(lock(&pool.free).1, 0);
        // Past the byte bound a frame is dropped.
        for _ in 0..3 {
            pool.put(frame());
        }
        let free = lock(&pool.free);
        assert_eq!((free.0.len(), free.1), (2, 2 * bytes));
    }

    #[test]
    fn frame_channel_counts_what_it_holds_and_rings_its_consumer() {
        let frame = |n| Frame::from_tuples(&vec![Tuple::Punct(Punctuation::EndOfStream); n]);
        let (wake, woken) = wake();
        let (tx, rx) = frame_channel(4, 4, Some(wake));
        assert!(tx.send(frame(3)));
        assert_eq!((tx.queued(), tx.is_full()), (3, false));
        assert!(tx.send(frame(1)));
        assert_eq!((tx.queued(), tx.is_full()), (4, true));
        assert_eq!(woken.try_recv(), Ok(()), "a send rings");
        assert_eq!(rx.try_recv().unwrap().len(), 3);
        assert_eq!((tx.queued(), tx.is_full()), (1, false));
        drop(tx);
        assert_eq!(woken.try_recv(), Ok(()), "the producer's drop rings");
        assert_eq!(rx.try_recv().unwrap().len(), 1);
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);

        let (tx, rx) = frame_channel(1, 1, None);
        drop(rx);
        assert!(!tx.send(frame(2)), "a send to a gone consumer fails");
        assert_eq!((tx.queued(), tx.is_full()), (0, false));
    }

    #[test]
    fn a_frame_channel_is_bounded_in_tuples_not_frames() {
        const CAP: usize = 8;
        let row = |i| Tuple::Data(DataTuple::new(i as u64, vec![0.0]));
        let (tx, rx) = frame_channel(CAP, CAP, None);
        for i in 0..CAP {
            assert!(!tx.is_full(), "{i} one-row frames do not fill {CAP}");
            assert!(tx.send(Frame::from_tuples(&[row(i)])));
        }
        assert!(tx.is_full(), "{CAP} one-row frames fill it");
        for _ in 0..CAP {
            assert_eq!(rx.try_recv().unwrap().len(), 1);
        }
        assert!(!tx.is_full());
        let rows: Vec<Tuple> = (0..CAP).map(row).collect();
        assert!(tx.send(Frame::from_tuples(&rows)));
        assert!(tx.is_full(), "one {CAP}-row frame fills it");
        // A frame sent below the bound may overshoot it by its own length.
        assert_eq!(rx.try_recv().unwrap().len(), CAP);
        assert!(tx.send(Frame::from_tuples(&rows[..CAP - 1])));
        assert!(!tx.is_full());
        assert!(tx.send(Frame::from_tuples(&rows)));
        assert_eq!((tx.queued(), tx.is_full()), (2 * CAP - 1, true));
    }

    #[test]
    fn a_full_frame_channel_holds_its_producer_until_there_is_room() {
        let frame = |n| Frame::from_tuples(&vec![Tuple::Punct(Punctuation::EndOfStream); n]);
        let (tx, rx) = frame_channel(1, 1, None);
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

        // A channel held below its capacity: the send waits at the hold
        // while `is_full`, what `try_emit_row` reads, still says no.
        let (tx, rx) = frame_channel(8, 2, None);
        let (sent_tx, sent) = std::sync::mpsc::channel();
        let producer = std::thread::spawn(move || {
            for n in 1..=2 {
                assert!(tx.send(frame(2)));
                assert!(!tx.is_full(), "2 of 8 is not full");
                sent_tx.send(n).unwrap();
            }
        });
        assert_eq!(sent.recv(), Ok(1));
        assert!(
            sent.recv_timeout(Duration::from_millis(100)).is_err(),
            "a send waits at the hold"
        );
        assert_eq!(rx.try_recv().unwrap().len(), 2);
        assert_eq!(sent.recv(), Ok(2), "taking a frame at the hold rings");
        producer.join().unwrap();

        // A producer waiting for room gives up when the consumer goes.
        let (tx, rx) = frame_channel(1, 1, None);
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
