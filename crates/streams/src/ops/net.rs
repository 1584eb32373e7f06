//! External TCP ingest: the TCP source operator.
//!
//! §III-A1: "Network TCP sockets and http URLs are also supported out of
//! the box as a source of data." The source speaks a newline-delimited CSV
//! wire format (one observation per line, `nan` for missing bins — the
//! same format as the file source/sink), so anything that can open a
//! socket (including `nc`) can feed the pipeline.

use crate::checkpoint::{decode_kv, encode_kv, kv_u64, Checkpoint};
use crate::operator::{OpContext, Operator, SourceState};
use crate::tuple::DataTuple;
use std::io::{BufRead, BufReader};
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunReport};
    use crate::graph::{GraphBuilder, PortKind};
    use crate::ops::CollectSink;
    use std::io::Write;

    /// Runs `TcpSource → collect` while a plain socket writes `lines` and
    /// closes.
    fn ingest(lines: &str) -> (RunReport, Vec<DataTuple>) {
        let source = TcpSource::listen("127.0.0.1:0").expect("bind");
        let addr = source.local_addr().expect("bound");
        let mut g = GraphBuilder::new();
        let src = g.add_source("tcp-in", Box::new(source));
        let (collect, store) = CollectSink::new();
        let sink = g.add_op("collect", Box::new(collect));
        g.connect(src, 0, sink, PortKind::Data);
        let running = Engine::start(g);

        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.write_all(lines.as_bytes()).expect("write");
        drop(peer); // EOF ends the stream

        let report = running.join();
        let got = store.lock().clone();
        (report, got)
    }

    #[test]
    fn tcp_lines_become_tuples() {
        let lines: String = (0..50).map(|s| format!("{s},{}\n", 2 * s)).collect();
        let (report, got) = ingest(&lines);
        assert_eq!(report.op("collect").unwrap().tuples_in, 50);
        assert_eq!(got.len(), 50);
        assert_eq!(*got[49].values, vec![49.0, 98.0]);
    }

    #[test]
    fn tcp_wire_format_carries_masks() {
        let (_, got) = ingest("0,nan\n1,nan\n2,nan\n");
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
}
