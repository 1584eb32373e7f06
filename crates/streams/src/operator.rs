//! The operator abstraction and its execution context.
//!
//! Operators are the InfoSphere building block: stateful objects with a
//! data port, a control port, and any number of output ports. Sources are
//! operators that are *driven* by the engine instead of fed (InfoSphere
//! source operators poll their underlying file/socket the same way).

use crate::metrics::{Counter, OpCounters};
use crate::tuple::{ControlTuple, DataTuple, RowRef, Rows};

/// What a source produced when driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceState {
    /// Emitted at least one tuple; drive again as soon as possible.
    Emitted,
    /// Nothing available right now; drive again after a short yield.
    Idle,
    /// The source is exhausted; end-of-stream follows.
    Done,
}

/// A dataflow operator.
///
/// `process_rows` handles data-port rows, `on_control` control-port tuples.
/// Sources override `drive`. All methods receive an [`OpContext`] for
/// emitting to output ports.
pub trait Operator: Send {
    /// Never called by the engine: a row reaches an operator only through
    /// [`process_rows`](Self::process_rows). Kept, doing nothing, because
    /// the benchmark harness's traced source still forwards it; it goes
    /// with ROADMAP item 3.
    fn process(&mut self, _tuple: DataTuple, _ctx: &mut OpContext<'_>) {}

    /// Handles a run of data rows, in order: rows of one frame — off a
    /// cross-PE channel, or the PE's local frame for a fused edge — bound
    /// for this operator's data port. The rows are borrowed from
    /// the frame; an operator that keeps one copies it
    /// ([`RowRef::to_tuple`]). An implementation takes every row from
    /// `rows`, in order: the PE counts a row as in flight from the moment
    /// it is taken, re-feeds that one row, as a run of one, if the operator
    /// panics, and routes the rows not yet taken again after the restart.
    /// While a fault of the plan is armed on the operator every run is one
    /// row long. Default: ignore (sources get no data).
    fn process_rows(&mut self, _rows: Rows<'_>, _ctx: &mut OpContext<'_>) {}

    /// Handles one control tuple. Default: ignore.
    fn on_control(&mut self, _tuple: ControlTuple, _ctx: &mut OpContext<'_>) {}

    /// Produces tuples when registered as a source. Default: immediately
    /// exhausted (non-source operators never get driven anyway).
    fn drive(&mut self, _ctx: &mut OpContext<'_>) -> SourceState {
        SourceState::Done
    }

    /// Called once before any tuple flows.
    fn on_start(&mut self, _ctx: &mut OpContext<'_>) {}

    /// Called once when the operator's inputs have all closed (or, for a
    /// source, when it reported `Done` / the engine stopped it), before
    /// end-of-stream propagates downstream. Emit final results here.
    fn on_finish(&mut self, _ctx: &mut OpContext<'_>) {}

    /// Called by the supervisor after this operator panicked and was
    /// isolated via `catch_unwind`. Restore internal state (e.g. rehydrate
    /// from an on-disk snapshot) and return `true` to resume processing;
    /// return `false` (the default) to finish the operator instead —
    /// end-of-stream then propagates as if its inputs had closed.
    /// `attempt` is the 1-based restart attempt number.
    fn recover(&mut self, _attempt: u64) -> bool {
        false
    }

    /// Exposes this operator's [`Checkpoint`](crate::checkpoint::Checkpoint)
    /// facet, if it has durable state. The PE-level supervisor snapshots
    /// every checkpointable operator into the per-PE manifest and restores
    /// them all together after a whole-PE restart. Stateless operators keep
    /// the default `None` and are simply re-entered as-is.
    ///
    /// (A separate method rather than a trait upcast because Rust cannot
    /// cross-cast `&mut dyn Operator` to `&mut dyn Checkpoint`.)
    fn checkpoint(&mut self) -> Option<&mut dyn crate::checkpoint::Checkpoint> {
        None
    }
}

/// Engine-side sink the context forwards emissions to.
pub(crate) trait EmitSink {
    /// Blocking emit of a borrowed data row to an output port (fans out to
    /// every connected edge).
    fn emit_row(&mut self, port: usize, row: RowRef<'_>);
    /// Non-blocking [`emit_row`](Self::emit_row): false, with nothing sent,
    /// if *any* target edge is full.
    fn try_emit_row(&mut self, port: usize, row: RowRef<'_>) -> bool;
    /// Blocking emit of a control tuple to an output port.
    fn emit_control(&mut self, port: usize, c: ControlTuple);
    /// Number of output ports wired for this operator.
    fn n_ports(&self) -> usize;
    /// True once the engine has requested a cooperative stop.
    fn stop_requested(&self) -> bool;
}

/// The context passed to every operator callback.
pub struct OpContext<'a> {
    pub(crate) sink: &'a mut dyn EmitSink,
    pub(crate) counters: &'a OpCounters,
}

impl<'a> OpContext<'a> {
    pub(crate) fn new(sink: &'a mut dyn EmitSink, counters: &'a OpCounters) -> Self {
        OpContext { sink, counters }
    }

    /// Emits a borrowed data row on `port`, blocking if a downstream queue
    /// is full (backpressure): the one way a row leaves an operator. Every
    /// edge, fused or cross-PE, copies the row into its frame; an operator
    /// emitting a row it owns passes [`DataTuple::row`].
    pub fn emit_row(&mut self, port: usize, row: RowRef<'_>) {
        self.counters.add_out();
        self.sink.emit_row(port, row);
    }

    /// Non-blocking [`emit_row`](Self::emit_row): false, with nothing sent,
    /// when a downstream queue is full. This is the primitive behind the
    /// threaded split's "push the data to multiple targets without blocking
    /// the queue on one target".
    pub fn try_emit_row(&mut self, port: usize, row: RowRef<'_>) -> bool {
        let sent = self.sink.try_emit_row(port, row);
        if sent {
            self.counters.add_out();
        }
        sent
    }

    /// Emits a control tuple on `port`, blocking like
    /// [`emit_row`](Self::emit_row).
    pub fn emit_control(&mut self, port: usize, c: ControlTuple) {
        self.sink.emit_control(port, c);
    }

    /// Number of output ports wired to this operator.
    pub fn n_out_ports(&self) -> usize {
        self.sink.n_ports()
    }

    /// True once a cooperative stop was requested (long-running sources
    /// should wind down promptly).
    pub fn stop_requested(&self) -> bool {
        self.sink.stop_requested()
    }

    /// Bumps this operator's run-level counter `which` by one; it shows up
    /// in the operator's `OpSnapshot` and in every surface's total.
    pub fn count(&self, which: Counter) {
        self.counters.add(which, 1);
    }
}

/// Test harness for operator unit tests: an in-memory sink capturing
/// emissions per port, so operators can be exercised without a running
/// engine. Used by this crate's tests and by downstream crates
/// (`spca-engine`) to unit-test their custom operators.
pub mod testing {
    use super::*;
    use crate::tuple::{Frame, Tuple};
    use std::collections::VecDeque;

    /// Observer callback for [`CaptureSink::on_emit`].
    pub type EmitObserver = Box<dyn FnMut(usize, &Tuple)>;

    /// An in-memory sink capturing emissions per port.
    pub struct CaptureSink {
        /// Captured tuples, per output port.
        pub ports: Vec<VecDeque<Tuple>>,
        /// Ports simulated as full (`try_emit_row` fails there).
        pub full_ports: Vec<bool>,
        /// Simulated cooperative-stop flag.
        pub stop: bool,
        /// Observer invoked on every successful emit, before the tuple is
        /// stored. Lets tests assert invariants *at send time* — e.g. that
        /// an operator is not holding its state lock across a port send.
        pub on_emit: Option<EmitObserver>,
    }

    impl CaptureSink {
        /// A sink with `n_ports` output ports.
        pub fn new(n_ports: usize) -> Self {
            CaptureSink {
                ports: (0..n_ports).map(|_| VecDeque::new()).collect(),
                full_ports: vec![false; n_ports],
                stop: false,
                on_emit: None,
            }
        }

        /// The data tuples captured on `port`, in order.
        pub fn data_at(&self, port: usize) -> Vec<DataTuple> {
            self.ports[port]
                .iter()
                .filter_map(|t| match t {
                    Tuple::Data(d) => Some(d.clone()),
                    _ => None,
                })
                .collect()
        }
    }

    impl CaptureSink {
        fn capture(&mut self, port: usize, t: Tuple) {
            if let Some(hook) = &mut self.on_emit {
                hook(port, &t);
            }
            self.ports[port].push_back(t);
        }
    }

    impl EmitSink for CaptureSink {
        fn emit_row(&mut self, port: usize, row: RowRef<'_>) {
            self.capture(port, Tuple::Data(row.to_tuple()));
        }

        fn emit_control(&mut self, port: usize, c: ControlTuple) {
            self.capture(port, Tuple::Control(c));
        }

        fn try_emit_row(&mut self, port: usize, row: RowRef<'_>) -> bool {
            if self.full_ports[port] {
                return false;
            }
            self.emit_row(port, row);
            true
        }

        fn n_ports(&self) -> usize {
            self.ports.len()
        }

        fn stop_requested(&self) -> bool {
            self.stop
        }
    }

    /// Runs a closure with a context over a capture sink and returns the
    /// sink for inspection.
    pub fn with_ctx<F: FnOnce(&mut OpContext<'_>)>(n_ports: usize, f: F) -> CaptureSink {
        let mut sink = CaptureSink::new(n_ports);
        with_sink(&mut sink, f);
        sink
    }

    /// Like [`with_ctx`] but over a caller-prepared sink, so tests can
    /// install an [`CaptureSink::on_emit`] observer (or pre-fill
    /// `full_ports`) before the operator runs.
    pub fn with_sink<F: FnOnce(&mut OpContext<'_>)>(sink: &mut CaptureSink, f: F) {
        let counters = OpCounters::default();
        let mut ctx = OpContext::new(sink, &counters);
        f(&mut ctx);
    }

    /// Feeds every data row of `frame` to `op` as one run, the way a PE
    /// hands it a frame.
    pub fn feed_rows(op: &mut dyn Operator, frame: &Frame, ctx: &mut OpContext<'_>) {
        let at = std::cell::Cell::new(0);
        op.process_rows(frame.rows(&at, frame.n_rows()), ctx);
    }

    /// Feeds `d` to `op` as a run of one.
    pub fn feed_tuple(op: &mut dyn Operator, d: DataTuple, ctx: &mut OpContext<'_>) {
        feed_rows(op, &Frame::from_tuples(&[Tuple::Data(d)]), ctx);
    }

    /// Like [`with_sink`] but with caller-owned counters, so tests can
    /// assert on quarantine/sync-skip accounting after the operator ran.
    pub fn with_sink_counters<F: FnOnce(&mut OpContext<'_>)>(
        sink: &mut CaptureSink,
        counters: &OpCounters,
        f: F,
    ) {
        let mut ctx = OpContext::new(sink, counters);
        f(&mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;

    #[test]
    fn emit_fans_into_capture() {
        let sink = with_ctx(2, |ctx| {
            ctx.emit_row(0, DataTuple::new(1, vec![1.0]).row());
            ctx.emit_row(1, DataTuple::new(2, vec![2.0]).row());
            ctx.emit_row(1, DataTuple::new(3, vec![3.0]).row());
        });
        assert_eq!(sink.data_at(0).len(), 1);
        assert_eq!(sink.data_at(1).len(), 2);
        assert_eq!(sink.data_at(1)[1].seq, 3);
    }

    #[test]
    fn try_emit_row_to_a_full_port_sends_nothing() {
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(1);
        sink.full_ports[0] = true;
        let d = DataTuple::new(9, vec![]);
        let sent = OpContext::new(&mut sink, &counters).try_emit_row(0, d.row());
        assert!(!sent);
        assert!(sink.ports[0].is_empty());
        assert_eq!(counters.snapshot().tuples_out, 0);
    }

    #[test]
    fn counters_track_data_not_control() {
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(1);
        {
            let mut ctx = OpContext::new(&mut sink, &counters);
            ctx.emit_row(0, DataTuple::new(0, vec![]).row());
            ctx.emit_control(0, ControlTuple::signal(0, 0));
        }
        let s = counters.snapshot();
        assert_eq!(s.tuples_out, 1);
    }
}
