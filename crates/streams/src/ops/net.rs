//! External TCP ingest: the TCP source operator.
//!
//! §III-A1: "Network TCP sockets and http URLs are also supported out of
//! the box as a source of data." The source speaks a newline-delimited CSV
//! wire format (one observation per line, `nan` for missing bins — the
//! same format as the file source/sink), so anything that can open a
//! socket (including `nc`) can feed the pipeline.

use super::source::{LineSource, Medium};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Read timeout on a live feed: bounds how long a silent peer can keep the
/// PE thread from noticing a stop request.
pub(super) const LIVE_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// A bound listener that accepts exactly one producer: a live [`Medium`].
pub struct TcpListen(Option<TcpListener>);

impl Medium for TcpListen {
    type Stream = TcpStream;
    const NAME: &'static str = "TcpSource";
    const REWINDS: bool = false;

    fn open(&mut self) -> Result<TcpStream, String> {
        let listener = self
            .0
            .take()
            .ok_or("the listener's one connection is over")?;
        let (stream, _) = listener
            .accept()
            .map_err(|e| format!("connection failed: {e}"))?;
        let _ = stream.set_read_timeout(Some(LIVE_READ_TIMEOUT));
        Ok(stream)
    }
}

/// Streams observations from a TCP connection; lines are parsed exactly
/// like [`super::CsvFileSource`]'s.
pub type TcpSource = LineSource<TcpListen>;

impl TcpSource {
    /// Binds `addr` and waits for one producer to connect. Binding happens
    /// immediately so the caller can learn the ephemeral port via
    /// [`TcpSource::local_addr`] before the engine starts.
    pub fn listen(addr: &str) -> std::io::Result<Self> {
        Ok(LineSource::over(TcpListen(Some(TcpListener::bind(addr)?))))
    }

    /// The bound address, until the producer has been accepted.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.medium.0.as_ref()?.local_addr().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunReport};
    use crate::graph::{GraphBuilder, PortKind};
    use crate::ops::CollectSink;
    use crate::tuple::DataTuple;
    use crate::watched::lock;
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
        let got = lock(&store).clone();
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
