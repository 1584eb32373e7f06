//! The load generator of the serving workload: one thread, one keep-alive
//! connection, **open loop** — request `i` is due at `start + i / rate`
//! whether or not earlier ones have been answered, and its latency is
//! counted from that due time to the last response byte, so a stall is
//! charged to every request it delays. How late each send actually left
//! is reported beside the latencies.

use crate::host;
use crate::trace::{SharedRecorder, SpanId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one client run saw.
#[derive(Debug, Default)]
pub struct ClientReport {
    pub attempted: u64,
    /// Non-2xx responses (429 and 503 included), 2xx responses without an
    /// `X-Epoch` header, and transport errors.
    pub failed: u64,
    /// Due time → last response byte, µs, one per attempted request.
    pub latency_us: Vec<f64>,
    /// Due time → first request byte written, µs.
    pub lateness_us: Vec<f64>,
    /// Body of the final `GET /metrics` on the same connection.
    pub metrics_text: String,
    /// CPU seconds this thread used, so the run's cost metric can leave
    /// the load generator out.
    pub cpu_s: f64,
}

struct Response {
    status: u16,
    has_epoch: bool,
    body: Vec<u8>,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends one request and reads one complete response.
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Response> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_ascii_lowercase();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        while self.buf.len() < head_end + content_length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Response {
            status,
            has_epoch: head.lines().any(|l| l.starts_with("x-epoch:")),
            body: self.buf[head_end..head_end + content_length].to_vec(),
        })
    }

    fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.round_trip(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Queries `addr` at `rate_per_s`, alternating `POST /project` and
/// `POST /score` over `bodies`, from the first published epoch until
/// `stop` is set; then scrapes `/metrics`. With a recorder, each request
/// is a `client.request` span under `parent`.
pub fn run(
    addr: SocketAddr,
    bodies: &[String],
    rate_per_s: f64,
    stop: &AtomicBool,
    trace: Option<(SharedRecorder, SpanId)>,
) -> std::io::Result<ClientReport> {
    let requests: Vec<Vec<u8>> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| post(if i % 2 == 0 { "/project" } else { "/score" }, b))
        .collect();
    let mut conn = Conn::open(addr)?;
    let mut report = ClientReport::default();

    // Queries answer 503 until the estimator's warm-up publishes epoch 1;
    // the schedule starts there so that every request has an answer.
    while !stop.load(Ordering::Relaxed) {
        let health = conn.get("/healthz")?;
        let epoch: u64 = String::from_utf8_lossy(&health.body)
            .split_whitespace()
            .nth(1)
            .and_then(|e| e.parse().ok())
            .unwrap_or(0);
        if epoch >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let period = Duration::from_secs_f64(1.0 / rate_per_s);
    let start = Instant::now();
    for i in 0u32.. {
        let due = start + period * i;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let span = trace.as_ref().map(|(rec, parent)| {
            let mut rec = rec.lock().expect("recorder lock");
            rec.open("client.request", Some(*parent))
        });
        let sent = Instant::now();
        let outcome = conn.round_trip(&requests[i as usize % requests.len()]);
        let done = Instant::now();
        if let (Some((rec, _)), Some(id)) = (trace.as_ref(), span) {
            rec.lock().expect("recorder lock").close(id);
        }
        report.attempted += 1;
        report
            .latency_us
            .push(done.duration_since(due).as_secs_f64() * 1e6);
        report
            .lateness_us
            .push(sent.duration_since(due).as_secs_f64() * 1e6);
        match outcome {
            Ok(r) if (200..300).contains(&r.status) && r.has_epoch => {}
            Ok(_) => report.failed += 1,
            Err(_) => {
                // The connection is gone; a fresh one keeps the schedule.
                report.failed += 1;
                conn = Conn::open(addr)?;
            }
        }
    }

    report.metrics_text = String::from_utf8_lossy(&conn.get("/metrics")?.body).into_owned();
    report.cpu_s = host::thread_cpu_s();
    Ok(report)
}

/// Value of the first `/metrics` line starting with `prefix`.
pub fn scrape(metrics_text: &str, prefix: &str) -> Option<f64> {
    metrics_text
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_labelled_lines() {
        let text = "spca_epoch 391\nspca_http_shed 0\n\
                    spca_latency_ns{endpoint=\"project\",quantile=\"0.5\"} 18000\n";
        assert_eq!(scrape(text, "spca_epoch "), Some(391.0));
        assert_eq!(
            scrape(
                text,
                "spca_latency_ns{endpoint=\"project\",quantile=\"0.5\"} "
            ),
            Some(18000.0)
        );
        assert_eq!(scrape(text, "spca_missing "), None);
    }
}
