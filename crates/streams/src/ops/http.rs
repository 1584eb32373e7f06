//! HTTP data source.
//!
//! §III-A1: "Network TCP sockets and http URLs are also supported out of
//! the box as a source of data." This is a dependency-free HTTP/1.1 GET
//! client over `std::net::TcpStream` that hands the CSV response body to
//! the same line reader as the file and TCP sources, handling
//! `Content-Length` and `Transfer-Encoding: chunked` bodies and one level
//! of redirect.

use super::net::LIVE_READ_TIMEOUT;
use super::source::{LineSource, Medium};
use std::io::{BufRead, BufReader, Read, Write};
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

/// How the response delimits its body.
enum BodyFraming {
    /// `Content-Length`: body bytes still to come.
    Length(u64),
    /// `Transfer-Encoding: chunked`: bytes left in the current chunk.
    Chunked(u64),
    UntilClose,
}

/// The response body as a plain byte stream: the framing is undone here,
/// so chunk boundaries, CRs and bytes that are not UTF-8 are the row
/// kernel's business exactly as they are for a file.
pub struct HttpBody {
    inner: BufReader<TcpStream>,
    framing: BodyFraming,
    /// The chunk-size line being read; holds a partial one across a read
    /// timeout.
    size_line: Vec<u8>,
}

impl HttpBody {
    /// Reads the next chunk's size. The CRLF closing the previous chunk's
    /// payload reads as a blank line and is passed over; the last chunk,
    /// end of stream and an unreadable size all read 0.
    fn next_chunk_len(&mut self) -> std::io::Result<u64> {
        loop {
            let n = self.inner.read_until(b'\n', &mut self.size_line)?;
            let hex = self
                .size_line
                .split(|&b| b == b';')
                .next()
                .unwrap_or_default();
            let hex = hex.trim_ascii();
            let blank = n > 0 && hex.is_empty();
            let size = std::str::from_utf8(hex)
                .ok()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or(0);
            self.size_line.clear();
            if !blank {
                return Ok(size);
            }
        }
    }
}

impl Read for HttpBody {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let BodyFraming::Chunked(0) = self.framing {
            self.framing = match self.next_chunk_len()? {
                0 => BodyFraming::Length(0),
                n => BodyFraming::Chunked(n),
            };
        }
        let left = match &mut self.framing {
            BodyFraming::UntilClose => return self.inner.read(buf),
            BodyFraming::Length(left) | BodyFraming::Chunked(left) => left,
        };
        let want = buf.len().min(usize::try_from(*left).unwrap_or(usize::MAX));
        let n = self.inner.read(&mut buf[..want])?;
        *left -= n as u64;
        Ok(n)
    }
}

/// An `http://` URL fetched with one GET: a live [`Medium`].
pub struct HttpGet {
    url: HttpUrl,
    redirects_left: u8,
}

/// Streams observations from an HTTP URL serving CSV; the body is parsed
/// exactly like [`super::CsvFileSource`]'s file.
pub type HttpSource = LineSource<HttpGet>;

impl HttpSource {
    /// A source for the given `http://` URL. Errors on malformed URLs.
    pub fn get(url: &str) -> Result<Self, String> {
        Ok(LineSource::over(HttpGet {
            url: HttpUrl::parse(url)?,
            redirects_left: 1,
        }))
    }
}

impl Medium for HttpGet {
    type Stream = HttpBody;
    const NAME: &'static str = "HttpSource";
    const REWINDS: bool = false;

    fn open(&mut self) -> Result<HttpBody, String> {
        let addr = format!("{}:{}", self.url.host, self.url.port);
        let mut stream =
            TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let req = format!(
            "GET {} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\nAccept: text/csv, */*\r\nUser-Agent: spca/0.1\r\n\r\n",
            self.url.path, self.url.host
        );
        stream
            .write_all(req.as_bytes())
            .map_err(|e| format!("request failed: {e}"))?;
        let mut reader = BufReader::new(stream);

        // Status line.
        let mut status_line = String::new();
        reader
            .read_line(&mut status_line)
            .map_err(|_| "no status line")?;
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
            let n = reader
                .read_line(&mut h)
                .map_err(|e| format!("header read failed: {e}"))?;
            let h = h.trim_end();
            if n == 0 || h.is_empty() {
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

        match status {
            200 => {
                let framing = if chunked {
                    BodyFraming::Chunked(0)
                } else if let Some(len) = content_length {
                    BodyFraming::Length(len)
                } else {
                    BodyFraming::UntilClose
                };
                // The head is in; from here the feed is live.
                let _ = reader.get_ref().set_read_timeout(Some(LIVE_READ_TIMEOUT));
                Ok(HttpBody {
                    inner: reader,
                    framing,
                    size_line: Vec::new(),
                })
            }
            301 | 302 | 307 | 308 if self.redirects_left > 0 => {
                self.redirects_left -= 1;
                self.url = location
                    .and_then(|l| HttpUrl::parse(&l).ok())
                    .ok_or("redirect without usable Location")?;
                self.open() // retry with the new target
            }
            other => Err(format!("HTTP status {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::graph::{GraphBuilder, PortKind};
    use crate::ops::CollectSink;
    use crate::tuple::DataTuple;
    use crate::watched::lock;
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
        let out = lock(&store).clone();
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
        // Three chunks, each ending mid-number.
        let url = serve_once(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
             6\r\n1.0,2.\r\n7\r\n0\n3.0,4\r\n3\r\n.0\n\r\n0\r\n\r\n"
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
