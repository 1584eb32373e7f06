//! Network tuple transport: TCP source and sink operators.
//!
//! §III-A1: "Network TCP sockets and http URLs are also supported out of
//! the box as a source of data." These operators speak a newline-delimited
//! CSV wire format (one observation per line, `nan` for missing bins —
//! the same format as the file source/sink), so a `TcpSink` on one process
//! feeds a `TcpSource` on another, and anything that can open a socket
//! (including `nc`) can feed the pipeline.

use crate::checkpoint::{decode_kv, encode_kv, kv_u64, Checkpoint};
use crate::operator::{OpContext, Operator, SourceState};
use crate::tuple::DataTuple;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Streams observations from a TCP connection.
///
/// In `listen` mode it binds and accepts exactly one peer; in `connect`
/// mode it dials out. Lines are parsed exactly like [`super::CsvFileSource`].
pub struct TcpSource {
    mode: Mode,
    reader: Option<BufReader<TcpStream>>,
    line: Vec<u8>,
    seq: u64,
    /// Length of the previous row: the next tuple's allocation size.
    width: usize,
    /// Observations delivered so far.
    pub delivered: u64,
}

enum Mode {
    Listen(Option<TcpListener>),
    Connect(SocketAddr),
    Failed,
}

impl TcpSource {
    /// Binds `addr` and waits for one producer to connect. Binding happens
    /// immediately so the caller can learn the ephemeral port via
    /// [`TcpSource::local_addr`] before the engine starts.
    pub fn listen(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(TcpSource {
            mode: Mode::Listen(Some(listener)),
            reader: None,
            line: Vec::new(),
            seq: 0,
            width: 0,
            delivered: 0,
        })
    }

    /// Connects to a remote producer at drive time.
    pub fn connect(addr: SocketAddr) -> Self {
        TcpSource {
            mode: Mode::Connect(addr),
            reader: None,
            line: Vec::new(),
            seq: 0,
            width: 0,
            delivered: 0,
        }
    }

    /// The bound address in listen mode.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.mode {
            Mode::Listen(Some(l)) => l.local_addr().ok(),
            _ => None,
        }
    }

    fn ensure_connected(&mut self) -> bool {
        if self.reader.is_some() {
            return true;
        }
        let stream = match &mut self.mode {
            Mode::Listen(slot) => match slot.take() {
                Some(listener) => listener.accept().map(|(s, _)| s),
                None => return false,
            },
            Mode::Connect(addr) => TcpStream::connect_timeout(addr, Duration::from_secs(5)),
            Mode::Failed => return false,
        };
        match stream {
            Ok(s) => {
                // Bounded read timeout keeps the PE responsive to stop
                // requests even on a silent peer.
                let _ = s.set_read_timeout(Some(Duration::from_millis(100)));
                self.reader = Some(BufReader::new(s));
                true
            }
            Err(e) => {
                eprintln!("TcpSource: connection failed: {e}");
                self.mode = Mode::Failed;
                false
            }
        }
    }
}

impl Operator for TcpSource {
    fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}

    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if ctx.stop_requested() {
            return SourceState::Done;
        }
        if !self.ensure_connected() {
            return SourceState::Done;
        }
        let reader = self.reader.as_mut().expect("connected above");
        match reader.read_until(b'\n', &mut self.line) {
            Ok(0) if self.line.is_empty() => SourceState::Done, // peer closed
            Ok(_) => {
                let tuple = DataTuple::from_csv_line(self.seq, &self.line, self.width);
                self.line.clear();
                let Some(t) = tuple else {
                    return SourceState::Idle;
                };
                self.width = t.values.len();
                self.seq += 1;
                self.delivered += 1;
                ctx.emit_data(0, t);
                SourceState::Emitted
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Read timeout: stay alive; a partial line waits in `line`.
                SourceState::Idle
            }
            Err(e) => {
                eprintln!("TcpSource: read error: {e}");
                SourceState::Done
            }
        }
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

/// A TCP feed is live — the wire position cannot rewind, so the checkpoint
/// carries only the sequence cursor. A restore keeps the open connection
/// (the common case: the instance survived a PE restart in memory) and
/// resumes numbering where the snapshot left off; observations the peer sent
/// while the PE was down were already absorbed by kernel buffering or are
/// simply the stream's present, as with any live telescope feed.
impl Checkpoint for TcpSource {
    fn snapshot(&self) -> Vec<u8> {
        encode_kv(&[
            ("seq", self.seq.to_string()),
            ("delivered", self.delivered.to_string()),
        ])
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let kv = decode_kv(bytes)?;
        self.seq = kv_u64(&kv, "seq")?;
        self.delivered = kv_u64(&kv, "delivered")?;
        Ok(())
    }
}

/// Writes data tuples to a TCP peer in the newline-CSV wire format.
pub struct TcpSink {
    addr: SocketAddr,
    writer: Option<BufWriter<TcpStream>>,
    failed: bool,
    /// Tuples written so far.
    pub written: u64,
}

impl TcpSink {
    /// A sink dialing `addr` on the first tuple.
    pub fn connect(addr: SocketAddr) -> Self {
        TcpSink {
            addr,
            writer: None,
            failed: false,
            written: 0,
        }
    }

    fn ensure_connected(&mut self) -> bool {
        if self.writer.is_some() {
            return true;
        }
        if self.failed {
            return false;
        }
        match TcpStream::connect_timeout(&self.addr, Duration::from_secs(5)) {
            Ok(s) => {
                self.writer = Some(BufWriter::new(s));
                true
            }
            Err(e) => {
                eprintln!("TcpSink: connection to {} failed: {e}", self.addr);
                self.failed = true;
                false
            }
        }
    }
}

impl Operator for TcpSink {
    fn process(&mut self, t: DataTuple, _ctx: &mut OpContext<'_>) {
        if !self.ensure_connected() {
            return;
        }
        let w = self.writer.as_mut().expect("connected above");
        let mut first = true;
        for (i, v) in t.values.iter().enumerate() {
            if !first {
                let _ = write!(w, ",");
            }
            first = false;
            let missing = t.mask.as_ref().is_some_and(|m| !m[i]);
            if missing {
                let _ = write!(w, "nan");
            } else {
                let _ = write!(w, "{v}");
            }
        }
        let _ = writeln!(w);
        self.written += 1;
    }

    fn on_finish(&mut self, _ctx: &mut OpContext<'_>) {
        if let Some(w) = self.writer.as_mut() {
            let _ = w.flush();
        }
        // Dropping the writer closes the socket, signalling EOF.
        self.writer = None;
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

/// Counterpart of [`TcpSource`]'s checkpoint: the written-tuple counter only.
/// A restore flushes and keeps the live connection if one is open, and
/// clears the failure latch so a sink that lost its peer in the crash that
/// triggered the restart redials on the next tuple.
impl Checkpoint for TcpSink {
    fn snapshot(&self) -> Vec<u8> {
        encode_kv(&[("written", self.written.to_string())])
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let kv = decode_kv(bytes)?;
        self.written = kv_u64(&kv, "written")?;
        if let Some(w) = self.writer.as_mut() {
            let _ = w.flush();
        }
        self.failed = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::graph::{GraphBuilder, PortKind};
    use crate::ops::{CollectSink, GeneratorSource};

    #[test]
    fn tcp_pipe_between_two_graphs() {
        // Producer graph: generator → TcpSink; consumer: TcpSource → collect.
        let source = TcpSource::listen("127.0.0.1:0").expect("bind");
        let addr = source.local_addr().expect("bound");

        let mut consumer = GraphBuilder::new();
        let src = consumer.add_source("tcp-in", Box::new(source));
        let (collect, store) = CollectSink::new();
        let sink = consumer.add_op("collect", Box::new(collect));
        consumer.connect(src, 0, sink, PortKind::Data);
        let consumer_running = Engine::start(consumer);

        let mut producer = GraphBuilder::new();
        let gen = producer.add_source(
            "gen",
            Box::new(
                GeneratorSource::new(|seq| Some((vec![seq as f64, 2.0 * seq as f64], None)))
                    .with_max_tuples(50),
            ),
        );
        let out = producer.add_op("tcp-out", Box::new(TcpSink::connect(addr)));
        producer.connect(gen, 0, out, PortKind::Data);
        Engine::run(producer);

        let report = consumer_running.join();
        assert_eq!(report.op("collect").unwrap().tuples_in, 50);
        let got = store.lock();
        assert_eq!(got.len(), 50);
        assert_eq!(*got[49].values, vec![49.0, 98.0]);
    }

    #[test]
    fn tcp_wire_format_round_trips_masks() {
        let source = TcpSource::listen("127.0.0.1:0").expect("bind");
        let addr = source.local_addr().expect("bound");

        let mut consumer = GraphBuilder::new();
        let src = consumer.add_source("tcp-in", Box::new(source));
        let (collect, store) = CollectSink::new();
        let sink = consumer.add_op("collect", Box::new(collect));
        consumer.connect(src, 0, sink, PortKind::Data);
        let running = Engine::start(consumer);

        let mut producer = GraphBuilder::new();
        let gen = producer.add_source(
            "gen",
            Box::new(
                GeneratorSource::new(|seq| Some((vec![seq as f64, 7.0], Some(vec![true, false]))))
                    .with_max_tuples(3),
            ),
        );
        let out = producer.add_op("tcp-out", Box::new(TcpSink::connect(addr)));
        producer.connect(gen, 0, out, PortKind::Data);
        Engine::run(producer);

        running.join();
        let got = store.lock();
        assert_eq!(got.len(), 3);
        let m = got[0].mask.as_ref().expect("mask survived the wire");
        assert_eq!(m.as_slice(), &[true, false]);
        assert_eq!(got[1].values[0], 1.0);
    }

    #[test]
    fn source_survives_silent_peer_then_stop() {
        let source = TcpSource::listen("127.0.0.1:0").expect("bind");
        let addr = source.local_addr().expect("bound");

        let mut g = GraphBuilder::new();
        let src = g.add_source("tcp-in", Box::new(source));
        let (collect, _store) = CollectSink::new();
        let sink = g.add_op("collect", Box::new(collect));
        g.connect(src, 0, sink, PortKind::Data);
        let running = Engine::start(g);

        // Connect but send nothing; the source must stay idle, not spin-fail.
        let _quiet = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(150));
        running.stop();
        let report = running.join();
        assert_eq!(report.op("collect").unwrap().tuples_in, 0);
    }

    #[test]
    fn sink_handles_unreachable_peer() {
        // Port 1 on localhost is essentially never listening.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut g = GraphBuilder::new();
        let gen = g.add_source(
            "gen",
            Box::new(GeneratorSource::new(|_| Some((vec![1.0], None))).with_max_tuples(5)),
        );
        let out = g.add_op("tcp-out", Box::new(TcpSink::connect(addr)));
        g.connect(gen, 0, out, PortKind::Data);
        // Must terminate (tuples dropped), not hang or panic.
        let report = Engine::run(g);
        assert_eq!(report.op("gen").unwrap().tuples_out, 5);
    }
}
