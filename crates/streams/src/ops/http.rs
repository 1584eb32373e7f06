//! HTTP data source.
//!
//! §III-A1: "Network TCP sockets and http URLs are also supported out of
//! the box as a source of data." This is a dependency-free HTTP/1.1 GET
//! client over `std::net::TcpStream` that streams a CSV response body
//! line-by-line (same wire format as the file and TCP sources), handling
//! `Content-Length` and `Transfer-Encoding: chunked` bodies and one level
//! of redirect.

use crate::operator::{OpContext, Operator, SourceState};
use crate::tuple::DataTuple;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed `http://host[:port]/path` URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpUrl {
    /// Hostname or IP.
    pub host: String,
    /// TCP port (default 80).
    pub port: u16,
    /// Path + query, always starting with `/`.
    pub path: String,
}

impl HttpUrl {
    /// Parses an `http://` URL. `https` is intentionally unsupported (no
    /// TLS stack in the dependency budget) and reports a clear error.
    pub fn parse(url: &str) -> Result<Self, String> {
        if let Some(rest) = url.strip_prefix("https://") {
            let _ = rest;
            return Err("https is not supported (no TLS); use http://".to_string());
        }
        let rest = url
            .strip_prefix("http://")
            .ok_or("URL must start with http://")?;
        let (authority, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err("empty host".to_string());
        }
        let (host, port) = if let Some(rest) = authority.strip_prefix('[') {
            // Bracketed IPv6 literal: `[addr]` or `[addr]:port`. A bare
            // rsplit on ':' would chop inside the address. The brackets
            // are kept in `host` so the dial string and the Host header
            // stay in the `[addr]:port` form the socket layer expects.
            let (addr, after) = rest.split_once(']').ok_or("unclosed '[' in host")?;
            if addr.is_empty() {
                return Err("empty host".to_string());
            }
            let port: u16 = match after.strip_prefix(':') {
                Some(p) => p.parse().map_err(|_| format!("bad port '{p}'"))?,
                None if after.is_empty() => 80,
                None => return Err(format!("junk after ']': '{after}'")),
            };
            (format!("[{addr}]"), port)
        } else {
            match authority.rsplit_once(':') {
                Some((h, p)) => {
                    let port: u16 = p.parse().map_err(|_| format!("bad port '{p}'"))?;
                    (h.to_string(), port)
                }
                None => (authority.to_string(), 80),
            }
        };
        if host.is_empty() {
            return Err("empty host".to_string());
        }
        Ok(HttpUrl {
            host,
            port,
            path: path.to_string(),
        })
    }
}

enum BodyFraming {
    Length(u64),
    Chunked { remaining_in_chunk: u64, done: bool },
    UntilClose,
}

/// Streams observations from an HTTP URL serving CSV.
pub struct HttpSource {
    url: HttpUrl,
    state: ConnState,
    seq: u64,
    /// Length of the previous row: the next tuple's allocation size.
    width: usize,
    redirects_left: u8,
}

enum ConnState {
    Unconnected,
    Streaming {
        reader: BufReader<TcpStream>,
        framing: BodyFraming,
        line: String,
    },
    Done,
}

impl HttpSource {
    /// A source for the given `http://` URL. Errors on malformed URLs.
    pub fn get(url: &str) -> Result<Self, String> {
        Ok(HttpSource {
            url: HttpUrl::parse(url)?,
            state: ConnState::Unconnected,
            seq: 0,
            width: 0,
            redirects_left: 1,
        })
    }

    fn connect(&mut self) {
        let addr = format!("{}:{}", self.url.host, self.url.port);
        let stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("HttpSource: cannot connect to {addr}: {e}");
                self.state = ConnState::Done;
                return;
            }
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let mut stream = stream;
        let req = format!(
            "GET {} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\nAccept: text/csv, */*\r\nUser-Agent: spca/0.1\r\n\r\n",
            self.url.path, self.url.host
        );
        if let Err(e) = stream.write_all(req.as_bytes()) {
            eprintln!("HttpSource: request failed: {e}");
            self.state = ConnState::Done;
            return;
        }
        let mut reader = BufReader::new(stream);

        // Status line.
        let mut status_line = String::new();
        if reader.read_line(&mut status_line).is_err() {
            eprintln!("HttpSource: no status line");
            self.state = ConnState::Done;
            return;
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);

        // Headers.
        let mut content_length: Option<u64> = None;
        let mut chunked = false;
        let mut location: Option<String> = None;
        loop {
            let mut h = String::new();
            match reader.read_line(&mut h) {
                Ok(0) => break,
                Ok(_) => {
                    let h = h.trim_end();
                    if h.is_empty() {
                        break;
                    }
                    let lower = h.to_ascii_lowercase();
                    if let Some(v) = lower.strip_prefix("content-length:") {
                        content_length = v.trim().parse().ok();
                    } else if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
                        chunked = true;
                    } else if let Some(v) = h
                        .strip_prefix("Location:")
                        .or_else(|| h.strip_prefix("location:"))
                    {
                        location = Some(v.trim().to_string());
                    }
                }
                Err(e) => {
                    eprintln!("HttpSource: header read failed: {e}");
                    self.state = ConnState::Done;
                    return;
                }
            }
        }

        match status {
            200 => {
                let framing = if chunked {
                    BodyFraming::Chunked {
                        remaining_in_chunk: 0,
                        done: false,
                    }
                } else if let Some(len) = content_length {
                    BodyFraming::Length(len)
                } else {
                    BodyFraming::UntilClose
                };
                self.state = ConnState::Streaming {
                    reader,
                    framing,
                    line: String::new(),
                };
            }
            301 | 302 | 307 | 308 if self.redirects_left > 0 => {
                self.redirects_left -= 1;
                match location.as_deref().map(HttpUrl::parse) {
                    Some(Ok(url)) => {
                        self.url = url;
                        self.state = ConnState::Unconnected; // retry with new target
                    }
                    _ => {
                        eprintln!("HttpSource: redirect without usable Location");
                        self.state = ConnState::Done;
                    }
                }
            }
            other => {
                eprintln!("HttpSource: HTTP status {other}");
                self.state = ConnState::Done;
            }
        }
    }

    /// Reads the next body line respecting the framing; None = body done.
    fn next_body_line(&mut self) -> Option<String> {
        let ConnState::Streaming {
            reader,
            framing,
            line,
        } = &mut self.state
        else {
            return None;
        };
        match framing {
            BodyFraming::UntilClose => {
                line.clear();
                match reader.read_line(line) {
                    Ok(0) => None,
                    Ok(_) => Some(line.trim_end().to_string()),
                    Err(_) => None,
                }
            }
            BodyFraming::Length(remaining) => {
                if *remaining == 0 {
                    return None;
                }
                line.clear();
                match reader.read_line(line) {
                    Ok(0) => None,
                    Ok(n) => {
                        *remaining = remaining.saturating_sub(n as u64);
                        Some(line.trim_end().to_string())
                    }
                    Err(_) => None,
                }
            }
            BodyFraming::Chunked {
                remaining_in_chunk,
                done,
            } => {
                if *done {
                    return None;
                }
                // Assemble one logical line, possibly across chunks.
                let mut out = String::new();
                loop {
                    if *remaining_in_chunk == 0 {
                        // Read next chunk-size line.
                        line.clear();
                        if reader.read_line(line).unwrap_or(0) == 0 {
                            *done = true;
                            break;
                        }
                        let size = u64::from_str_radix(line.trim(), 16).unwrap_or(0);
                        if size == 0 {
                            *done = true;
                            break;
                        }
                        *remaining_in_chunk = size;
                    }
                    // Read at most the rest of this chunk, stopping at \n.
                    let mut byte = [0u8; 1];
                    use std::io::Read;
                    let mut got_newline = false;
                    while *remaining_in_chunk > 0 {
                        match reader.read_exact(&mut byte) {
                            Ok(()) => {
                                *remaining_in_chunk -= 1;
                                if byte[0] == b'\n' {
                                    got_newline = true;
                                    break;
                                }
                                if byte[0] != b'\r' {
                                    out.push(byte[0] as char);
                                }
                            }
                            Err(_) => {
                                *done = true;
                                break;
                            }
                        }
                    }
                    if *remaining_in_chunk == 0 && !*done {
                        // Consume the CRLF trailing the chunk payload.
                        let mut crlf = String::new();
                        let _ = reader.read_line(&mut crlf);
                    }
                    if got_newline || *done {
                        break;
                    }
                }
                if out.is_empty() && *done {
                    None
                } else {
                    Some(out)
                }
            }
        }
    }
}

impl Operator for HttpSource {
    fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}

    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if ctx.stop_requested() {
            return SourceState::Done;
        }
        loop {
            match &self.state {
                ConnState::Done => return SourceState::Done,
                ConnState::Unconnected => {
                    self.connect();
                    continue;
                }
                ConnState::Streaming { .. } => break,
            }
        }
        let Some(raw) = self.next_body_line() else {
            self.state = ConnState::Done;
            return SourceState::Done;
        };
        let Some(t) = DataTuple::from_csv_line(self.seq, raw.as_bytes(), self.width) else {
            return SourceState::Idle;
        };
        self.width = t.values.len();
        self.seq += 1;
        ctx.emit_data(0, t);
        SourceState::Emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::graph::{GraphBuilder, PortKind};
    use crate::ops::CollectSink;
    use std::net::TcpListener;

    /// Minimal one-shot HTTP server for tests.
    fn serve_once(response: String) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                // Drain the request head.
                let mut buf = [0u8; 4096];
                use std::io::Read;
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(response.as_bytes());
            }
        });
        format!("http://{addr}/data.csv")
    }

    fn collect_from(url: &str) -> Vec<DataTuple> {
        let mut g = GraphBuilder::new();
        let src = g.add_source("http", Box::new(HttpSource::get(url).unwrap()));
        let (sink, store) = CollectSink::new();
        let s = g.add_op("collect", Box::new(sink));
        g.connect(src, 0, s, PortKind::Data);
        Engine::run(g);
        let out = store.lock().clone();
        out
    }

    #[test]
    fn url_parsing() {
        let u = HttpUrl::parse("http://example.com/a/b?x=1").unwrap();
        assert_eq!(u.host, "example.com");
        assert_eq!(u.port, 80);
        assert_eq!(u.path, "/a/b?x=1");
        let u2 = HttpUrl::parse("http://10.0.0.1:8080").unwrap();
        assert_eq!(u2.port, 8080);
        assert_eq!(u2.path, "/");
        assert!(HttpUrl::parse("https://secure").is_err());
        assert!(HttpUrl::parse("ftp://x").is_err());
        assert!(HttpUrl::parse("http://:80/").is_err());
    }

    #[test]
    fn url_parsing_ipv6() {
        // Regression: `rsplit_once(':')` used to mis-split a bracketed
        // literal with no port (`http://[::1]/x` -> "bad port '1]'").
        let u = HttpUrl::parse("http://[::1]/x").unwrap();
        assert_eq!(u.host, "[::1]");
        assert_eq!(u.port, 80);
        assert_eq!(u.path, "/x");

        let u = HttpUrl::parse("http://[::1]:9000/metrics").unwrap();
        assert_eq!(u.host, "[::1]");
        assert_eq!(u.port, 9000);
        assert_eq!(u.path, "/metrics");

        let u = HttpUrl::parse("http://[2001:db8::7]").unwrap();
        assert_eq!(u.host, "[2001:db8::7]");
        assert_eq!(u.port, 80);
        assert_eq!(u.path, "/");

        assert!(HttpUrl::parse("http://[::1").is_err());
        assert!(HttpUrl::parse("http://[]/x").is_err());
        assert!(HttpUrl::parse("http://[::1]x/").is_err());
        assert!(HttpUrl::parse("http://[::1]:bad/").is_err());
    }

    #[test]
    fn content_length_body() {
        let body = "1.0,2.0\n3.0,4.0\n";
        let url = serve_once(format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        let got = collect_from(&url);
        assert_eq!(got.len(), 2);
        assert_eq!(*got[1].values, vec![3.0, 4.0]);
    }

    #[test]
    fn chunked_body() {
        // Two chunks splitting a line mid-way.
        let url = serve_once(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
             6\r\n1.0,2.\r\n8\r\n0\n3.0,4\r\n4\r\n.0\n\r\n0\r\n\r\n"
                .to_string(),
        );
        let got = collect_from(&url);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(*got[0].values, vec![1.0, 2.0]);
        assert_eq!(*got[1].values, vec![3.0, 4.0]);
    }

    #[test]
    fn until_close_body() {
        let url = serve_once("HTTP/1.0 200 OK\r\n\r\n5.0,6.0\n# comment\n7.0,nan\n".to_string());
        let got = collect_from(&url);
        assert_eq!(got.len(), 2);
        assert!(got[1].mask.is_some());
    }

    #[test]
    fn error_status_terminates_cleanly() {
        let url = serve_once("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_string());
        let got = collect_from(&url);
        assert!(got.is_empty());
    }

    #[test]
    fn unreachable_host_terminates_cleanly() {
        let got = collect_from("http://127.0.0.1:1/x.csv");
        assert!(got.is_empty());
    }
}
