//! A dependency-free HTTP/1.1 server — the serving-side sibling of the
//! [`http`](super::http) client.
//!
//! Built for the always-on eigensystem serving layer (ROADMAP item 2),
//! so the design targets are operational rather than general-purpose:
//!
//! * **Fixed thread pool, bounded accept queue.** An acceptor thread
//!   hands connections to a small worker pool over a bounded queue; when
//!   the queue is full the acceptor *sheds* the connection immediately
//!   with `429 Too Many Requests` + `Retry-After` instead of queueing
//!   unboundedly — overload degrades tail latency for the shed client
//!   only, never for admitted ones.
//! * **Per-client admission control.** An optional token bucket per
//!   client IP limits sustained request rate; over-limit requests get a
//!   429 with a `Retry-After` computed from the token deficit.
//! * **Zero allocation per request in steady state.** Each worker owns
//!   reusable read/parse/response buffers; request heads and bodies are
//!   parsed in place and handlers write into a caller-owned
//!   [`ResponseBuf`]. After warm-up, serving a request allocates nothing.
//! * **Keep-alive.** Connections are persistent by default (HTTP/1.1);
//!   a worker serves requests on its connection until close, error, or
//!   an idle timeout, so admitted clients amortize the accept cost.
//!
//! The server is protocol-generic: request routing and endpoint
//! semantics live in a [`ConnHandler`] supplied by the embedder (the
//! eigensystem query handler lives in `spca-engine`).

use crate::watched::lock;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::TrySendError;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A parsed request, borrowing from the worker's reusable buffers.
#[derive(Debug)]
pub struct Request<'a> {
    /// Request method (`GET`, `POST`, …), uppercase as sent.
    pub method: &'a str,
    /// Path component of the target, without the query string.
    pub path: &'a str,
    /// Raw query string after `?` (empty if none).
    pub query: &'a str,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: &'a [u8],
    /// Client address.
    pub peer: IpAddr,
}

impl Request<'_> {
    /// The value of query parameter `key` (`k=v` pairs, `&`-separated),
    /// if present. No decoding — the serving API uses plain tokens.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// A reusable response being built by a handler. The server serializes
/// it after `handle` returns; all buffers are recycled between requests.
#[derive(Debug, Default)]
pub struct ResponseBuf {
    status: u16,
    content_type: &'static str,
    retry_after: Option<u32>,
    /// Raw pre-formatted extra header lines (each `Name: value\r\n`).
    extra_headers: Vec<u8>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ResponseBuf {
    fn reset(&mut self) {
        self.status = 200;
        self.content_type = "text/plain";
        self.retry_after = None;
        self.extra_headers.clear();
        self.body.clear();
    }

    /// Sets the status code.
    pub fn set_status(&mut self, status: u16) {
        self.status = status;
    }

    /// Appends one extra header line (writes into a reused buffer).
    pub fn add_header(&mut self, name: &str, value: std::fmt::Arguments<'_>) {
        use std::io::Write as _;
        let _ = write!(self.extra_headers, "{name}: {value}\r\n");
    }
}

/// Per-connection request handler. One handler instance is built per
/// worker thread, so it can own mutable scratch (workspaces, pinned
/// epoch readers) without synchronization.
pub trait ConnHandler: Send {
    /// Handles one request, writing the response into `resp` (already
    /// reset to `200 text/plain` with empty body).
    fn handle(&mut self, req: &Request<'_>, resp: &mut ResponseBuf);
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (each serves one connection at a time).
    pub threads: usize,
    /// Bounded accept-queue depth; connections beyond it are shed 429.
    pub queue_depth: usize,
    /// Optional per-client token bucket: sustained requests per second,
    /// with a burst of twice that (at least one request).
    pub rate_limit: Option<f64>,
    /// Keep-alive idle timeout before a worker closes the connection.
    pub idle_timeout: Duration,
    /// Total budget for receiving one complete request (head + body)
    /// once its first byte has arrived. Bounds slow-loris clients that
    /// trickle bytes fast enough to defeat the per-read idle timeout.
    pub request_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            queue_depth: 64,
            rate_limit: None,
            idle_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(10),
        }
    }
}

/// Operational counters, shared lock-free with the embedder.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted into the queue.
    pub accepted: AtomicU64,
    /// Requests served (any status, including handler errors).
    pub served: AtomicU64,
    /// Connections shed with 429 because the accept queue was full.
    pub shed: AtomicU64,
    /// Requests rejected with 429 by the per-client token bucket.
    pub rate_limited: AtomicU64,
    /// Malformed requests answered with 400.
    pub bad_requests: AtomicU64,
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

struct BucketTable {
    map: HashMap<IpAddr, Bucket>,
    last_sweep: Instant,
}

struct RateLimiter {
    per_sec: f64,
    /// Bucket size in requests.
    burst: f64,
    /// A bucket idle this long has fully refilled, so evicting it is
    /// indistinguishable from keeping it — sweeping keeps the per-IP map
    /// bounded under a churn of distinct client addresses.
    stale_after: Duration,
    buckets: Mutex<BucketTable>,
}

impl RateLimiter {
    fn new(per_sec: f64) -> Self {
        let burst = (2.0 * per_sec).max(1.0);
        let refill_secs = (burst / per_sec).clamp(1.0, 300.0);
        RateLimiter {
            per_sec,
            burst,
            stale_after: Duration::from_secs_f64(refill_secs),
            buckets: Mutex::new(BucketTable {
                map: HashMap::new(),
                last_sweep: Instant::now(),
            }),
        }
    }

    /// Ok(()) to admit, Err(retry_after_secs) to reject.
    fn check(&self, peer: IpAddr) -> Result<(), u32> {
        let now = Instant::now();
        let mut buckets = lock(&self.buckets);
        if now.duration_since(buckets.last_sweep) >= self.stale_after {
            buckets.last_sweep = now;
            let stale = self.stale_after;
            buckets
                .map
                .retain(|_, b| now.duration_since(b.last) < stale);
        }
        let b = buckets.map.entry(peer).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let dt = now.duration_since(b.last).as_secs_f64();
        b.last = now;
        b.tokens = (b.tokens + dt * self.per_sec).min(self.burst);
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - b.tokens;
            Err((deficit / self.per_sec).ceil().max(1.0) as u32)
        }
    }
}

/// The running server. Dropping (or calling [`shutdown`](Self::shutdown))
/// stops the acceptor, drains workers, and joins all threads.
pub struct HttpServer {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` and starts the acceptor and worker pool. `factory`
    /// is called once per worker thread (with the worker index) to build
    /// that thread's handler.
    pub fn start<H, F>(
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
        factory: F,
    ) -> std::io::Result<Self>
    where
        H: ConnHandler + 'static,
        F: Fn(usize) -> H,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let limiter = cfg.rate_limit.map(|rl| Arc::new(RateLimiter::new(rl)));

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(cfg.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let workers: Vec<_> = (0..cfg.threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let stats = Arc::clone(&stats);
                let limiter = limiter.clone();
                let mut handler = factory(i);
                let idle = cfg.idle_timeout;
                let request_timeout = cfg.request_timeout;
                std::thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || {
                        let mut conn_buf = ConnBuffers::default();
                        loop {
                            let conn = match lock(&rx).recv() {
                                Ok(c) => c,
                                Err(_) => return,
                            };
                            serve_connection(
                                conn,
                                &mut handler,
                                &mut conn_buf,
                                limiter.as_deref(),
                                &stats,
                                idle,
                                request_timeout,
                            );
                        }
                    })
                    .expect("spawn http worker")
            })
            .collect();

        let acceptor = {
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("http-acceptor".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(conn) = conn else { continue };
                        match tx.try_send(conn) {
                            Ok(()) => {
                                stats.accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(TrySendError::Full(mut conn)) => {
                                // Shed: answer 429 inline and close. The
                                // static response never blocks the
                                // acceptor for long (small write).
                                stats.shed.fetch_add(1, Ordering::Relaxed);
                                let _ = conn.set_write_timeout(Some(Duration::from_millis(200)));
                                let _ = conn.write_all(SHED_RESPONSE);
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                    // Dropping `tx` here lets idle workers drain and exit.
                })
                .expect("spawn http acceptor")
        };

        Ok(HttpServer {
            addr: local,
            stats,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared operational counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Stops accepting, drains in-flight connections, joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor's blocking accept with a dummy connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

const SHED_RESPONSE: &[u8] = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 9\r\nConnection: close\r\n\r\noverload\n";

/// Reusable per-worker buffers: the whole-request accumulation buffer
/// and the response being built. Grown once, reused per request.
#[derive(Default)]
struct ConnBuffers {
    buf: Vec<u8>,
    resp: ResponseBuf,
    out: Vec<u8>,
}

/// Largest accepted request head, in bytes.
const MAX_HEAD: usize = 1 << 20;
/// Largest accepted request body, in bytes. Enforced straight from the
/// parsed `Content-Length`, before any body byte is read or any offset
/// arithmetic happens, so an attacker-controlled length can neither
/// overflow `usize` nor make the server buffer unbounded input.
const MAX_BODY: usize = 1 << 26;

/// Serves requests on one connection until close/error/idle timeout.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut conn: TcpStream,
    handler: &mut dyn ConnHandler,
    bufs: &mut ConnBuffers,
    limiter: Option<&RateLimiter>,
    stats: &ServerStats,
    idle: Duration,
    request_timeout: Duration,
) {
    let peer = match conn.peer_addr() {
        Ok(a) => a.ip(),
        Err(_) => return,
    };
    let _ = conn.set_read_timeout(Some(idle));
    let _ = conn.set_nodelay(true);
    bufs.buf.clear();
    let mut filled = 0usize;

    loop {
        // A connection may sit idle between keep-alive requests for up to
        // `idle` (the per-read timeout), but once the first byte of a
        // request is in, the whole request must arrive within
        // `request_timeout` — a client trickling one byte per read
        // (slow-loris) cannot hold the worker past that budget.
        let mut deadline = (filled > 0).then(|| Instant::now() + request_timeout);
        // Resume the terminator scan where the last fill stopped (minus
        // the window overlap) instead of rescanning from the start.
        let mut scanned = 0usize;

        // --- read one request head (carry-over aware) ---
        let head_end = loop {
            if let Some(pos) = find_double_crlf(&bufs.buf[..filled], scanned) {
                break pos;
            }
            scanned = filled.saturating_sub(3);
            if filled > MAX_HEAD {
                let _ = respond_simple(&mut conn, bufs, 431, "head too large\n", true);
                return;
            }
            match read_more(&mut conn, &mut bufs.buf, &mut filled) {
                Ok(0) | Err(_) => return, // clean close or timeout
                Ok(_) => {}
            }
            match deadline {
                None => deadline = Some(Instant::now() + request_timeout),
                Some(d) if Instant::now() >= d => return,
                Some(_) => {}
            }
        };

        // --- parse head ---
        let Some(head) = parse_head(&bufs.buf[..head_end]) else {
            stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = respond_simple(&mut conn, bufs, 400, "malformed request\n", true);
            return;
        };
        if head.content_length > MAX_BODY {
            let _ = respond_simple(&mut conn, bufs, 413, "body too large\n", true);
            return;
        }
        let body_start = head_end + 4;
        let Some(body_end) = body_start.checked_add(head.content_length) else {
            let _ = respond_simple(&mut conn, bufs, 413, "body too large\n", true);
            return;
        };

        // --- read the body ---
        while filled < body_end {
            match read_more(&mut conn, &mut bufs.buf, &mut filled) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return;
            }
        }

        // --- admission control, then dispatch ---
        let close = head.close;
        if let Some(retry) = limiter.and_then(|l| l.check(peer).err()) {
            stats.rate_limited.fetch_add(1, Ordering::Relaxed);
            bufs.resp.reset();
            bufs.resp.set_status(429);
            bufs.resp.retry_after = Some(retry);
            bufs.resp.body.extend_from_slice(b"rate limited\n");
        } else {
            let (head_bytes, rest) = bufs.buf.split_at(head_end);
            let body = &rest[4..4 + head.content_length];
            // parse_head validated the head as UTF-8 already.
            let head_text = std::str::from_utf8(head_bytes).unwrap_or("");
            let target = &head_text[head.target.clone()];
            let (path, query) = match target.split_once('?') {
                Some((p, q)) => (p, q),
                None => (target, ""),
            };
            let req = Request {
                method: &head_text[head.method.clone()],
                path,
                query,
                body,
                peer,
            };
            bufs.resp.reset();
            handler.handle(&req, &mut bufs.resp);
        }

        stats.served.fetch_add(1, Ordering::Relaxed);
        if write_response(&mut conn, &bufs.resp, &mut bufs.out, close).is_err() || close {
            return;
        }

        // --- carry over any pipelined bytes, loop for keep-alive ---
        bufs.buf.copy_within(body_end..filled, 0);
        filled -= body_end;
    }
}

fn read_more(
    conn: &mut TcpStream,
    buf: &mut Vec<u8>,
    filled: &mut usize,
) -> std::io::Result<usize> {
    if buf.len() < *filled + 4096 {
        buf.resize(*filled + 4096, 0);
    }
    let n = conn.read(&mut buf[*filled..])?;
    *filled += n;
    Ok(n)
}

/// Position of `\r\n\r\n` in `hay`, scanning from `from` (callers pass
/// the previous fill point minus the window overlap so repeated fills of
/// a large head cost O(n), not O(n²)).
fn find_double_crlf(hay: &[u8], from: usize) -> Option<usize> {
    hay.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| from + p)
}

struct ParsedHead {
    method: std::ops::Range<usize>,
    target: std::ops::Range<usize>,
    content_length: usize,
    close: bool,
}

fn parse_head(head: &[u8]) -> Option<ParsedHead> {
    let text = std::str::from_utf8(head).ok()?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") || method.is_empty() || !target.starts_with('/') {
        return None;
    }
    let method_start = 0;
    let target_start = method.len() + 1;
    let mut content_length = 0usize;
    let mut close = version == "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        }
    }
    Some(ParsedHead {
        method: method_start..method.len(),
        target: target_start..target_start + target.len(),
        content_length,
        close,
    })
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

fn write_response(
    conn: &mut TcpStream,
    resp: &ResponseBuf,
    out: &mut Vec<u8>,
    close: bool,
) -> std::io::Result<()> {
    use std::io::Write as _;
    out.clear();
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if let Some(retry) = resp.retry_after {
        let _ = write!(out, "Retry-After: {retry}\r\n");
    }
    out.extend_from_slice(&resp.extra_headers);
    let _ = write!(
        out,
        "Connection: {}\r\n\r\n",
        if close { "close" } else { "keep-alive" }
    );
    out.extend_from_slice(&resp.body);
    conn.write_all(out)
}

fn respond_simple(
    conn: &mut TcpStream,
    bufs: &mut ConnBuffers,
    status: u16,
    msg: &str,
    close: bool,
) -> std::io::Result<()> {
    bufs.resp.reset();
    bufs.resp.set_status(status);
    bufs.resp.body.extend_from_slice(msg.as_bytes());
    write_response(conn, &bufs.resp, &mut bufs.out, close)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo-ish test handler: GET /hello -> "world", POST /echo -> body,
    /// /slow sleeps to occupy a worker, anything else 404.
    struct TestHandler;
    impl ConnHandler for TestHandler {
        fn handle(&mut self, req: &Request<'_>, resp: &mut ResponseBuf) {
            match (req.method, req.path) {
                ("GET", "/hello") => resp.body.extend_from_slice(b"world"),
                ("POST", "/echo") => {
                    resp.add_header("X-Len", format_args!("{}", req.body.len()));
                    resp.body.extend_from_slice(req.body);
                }
                ("GET", "/slow") => {
                    std::thread::sleep(Duration::from_millis(400));
                    resp.body.extend_from_slice(b"slow");
                }
                _ => {
                    resp.set_status(404);
                    resp.body.extend_from_slice(b"not found\n");
                }
            }
        }
    }

    fn start(cfg: ServerConfig) -> HttpServer {
        HttpServer::start("127.0.0.1:0", cfg, |_| TestHandler).unwrap()
    }

    fn roundtrip(conn: &mut TcpStream, req: &str) -> String {
        conn.write_all(req.as_bytes()).unwrap();
        read_response(conn)
    }

    /// Reads exactly one response (head + Content-Length body).
    fn read_response(conn: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(p) = find_double_crlf(&buf, 0) {
                break p;
            }
            let n = conn.read(&mut chunk).unwrap();
            if n == 0 {
                break buf.len().saturating_sub(4);
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
        let clen: usize = head
            .lines()
            .find_map(|l| {
                let (n, v) = l.split_once(':')?;
                n.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .unwrap_or(0);
        while buf.len() < head_end + 4 + clen {
            let n = conn.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        String::from_utf8_lossy(&buf).to_string()
    }

    #[test]
    fn get_and_keep_alive() {
        let server = start(ServerConfig::default());
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let r1 = roundtrip(&mut conn, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r1.starts_with("HTTP/1.1 200 OK"), "{r1}");
        assert!(r1.ends_with("world"), "{r1}");
        assert!(r1.contains("Connection: keep-alive"), "{r1}");
        // Second request on the same connection.
        let r2 = roundtrip(
            &mut conn,
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nabcde",
        );
        assert!(r2.contains("X-Len: 5"), "{r2}");
        assert!(r2.ends_with("abcde"), "{r2}");
        let r3 = roundtrip(&mut conn, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r3.starts_with("HTTP/1.1 404"), "{r3}");
        assert_eq!(server.stats().served.load(Ordering::Relaxed), 3);
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = start(ServerConfig::default());
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let r = roundtrip(&mut conn, "NONSENSE\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 400"), "{r}");
        assert_eq!(server.stats().bad_requests.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn accept_queue_sheds_with_429_retry_after() {
        // One worker, queue depth 1: a slow in-flight request plus one
        // queued connection forces the third to be shed by the acceptor.
        let server = start(ServerConfig {
            threads: 1,
            queue_depth: 1,
            idle_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // Fills the single queue slot.
        let _queued = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // Shed path: served 429 + Retry-After by the acceptor itself.
        let mut shed = TcpStream::connect(addr).unwrap();
        let r = read_response(&mut shed);
        assert!(r.starts_with("HTTP/1.1 429"), "{r}");
        assert!(r.contains("Retry-After:"), "{r}");
        assert!(server.stats().shed.load(Ordering::Relaxed) >= 1);
        // The slow request still completes normally.
        let r = read_response(&mut slow);
        assert!(r.ends_with("slow"), "{r}");
        drop(slow);
        drop(shed);
        drop(_queued);
        server.shutdown();
    }

    #[test]
    fn token_bucket_rate_limits_per_client() {
        let server = start(ServerConfig {
            rate_limit: Some(1.0),
            ..ServerConfig::default()
        });
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        for _ in 0..2 {
            let r = roundtrip(&mut conn, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n");
            assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        }
        let r = roundtrip(&mut conn, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 429"), "{r}");
        assert!(r.contains("Retry-After: "), "{r}");
        assert!(server.stats().rate_limited.load(Ordering::Relaxed) >= 1);
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn huge_content_length_rejected_413_without_killing_worker() {
        let server = start(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        // Near-usize::MAX Content-Length used to wrap `body_start + len`
        // and panic the (sole) worker; it must now be shed with 413.
        for len in [usize::MAX, usize::MAX - 3, (1 << 26) + 1] {
            let mut conn = TcpStream::connect(addr).unwrap();
            let r = roundtrip(
                &mut conn,
                &format!("POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {len}\r\n\r\n"),
            );
            assert!(r.starts_with("HTTP/1.1 413"), "len {len}: {r}");
        }
        // The single worker is still alive and serving.
        let mut conn = TcpStream::connect(addr).unwrap();
        let r = roundtrip(&mut conn, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.ends_with("world"), "{r}");
        server.shutdown();
    }

    #[test]
    fn slow_loris_trickle_is_disconnected_at_the_request_deadline() {
        let server = start(ServerConfig {
            threads: 1,
            idle_timeout: Duration::from_millis(500),
            request_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        });
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // Trickle a never-ending head one byte at a time, always faster
        // than the idle timeout: only the per-request budget can stop it.
        let start_t = Instant::now();
        let mut closed = false;
        for chunk in "GET /hello HTTP/1.1\r\nX: y".bytes().cycle() {
            if conn.write_all(&[chunk]).is_err() {
                closed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(30));
            if start_t.elapsed() > Duration::from_secs(5) {
                break;
            }
        }
        if !closed {
            // The write side may not see the RST immediately; a read
            // observing EOF/reset also proves the server hung up.
            let mut byte = [0u8; 1];
            closed = matches!(conn.read(&mut byte), Ok(0) | Err(_));
        }
        assert!(closed, "trickling client must be disconnected");
        // And the worker is free to serve someone else.
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let r = roundtrip(&mut conn, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(r.ends_with("world"), "{r}");
        server.shutdown();
    }

    #[test]
    fn rate_limiter_evicts_stale_buckets() {
        let limiter = RateLimiter::new(10.0);
        for i in 0..100u32 {
            let _ = limiter.check(IpAddr::from([10, 0, (i >> 8) as u8, i as u8]));
        }
        assert_eq!(lock(&limiter.buckets).map.len(), 100);
        // Age every bucket (and the sweep clock) past the stale window,
        // then admit one fresh client: the sweep must drop the rest.
        {
            let mut t = lock(&limiter.buckets);
            let old = Instant::now() - limiter.stale_after - Duration::from_secs(1);
            t.last_sweep = old;
            for b in t.map.values_mut() {
                b.last = old;
            }
        }
        let _ = limiter.check(IpAddr::from([192, 168, 0, 1]));
        assert_eq!(lock(&limiter.buckets).map.len(), 1);
    }

    #[test]
    fn query_params_parse() {
        let req = Request {
            method: "GET",
            path: "/topk",
            query: "k=5&p=3",
            body: b"",
            peer: "127.0.0.1".parse().unwrap(),
        };
        assert_eq!(req.query_param("k"), Some("5"));
        assert_eq!(req.query_param("p"), Some("3"));
        assert_eq!(req.query_param("missing"), None);
    }
}
