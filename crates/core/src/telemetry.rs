//! Live telemetry: a dependency-free HTTP exposition endpoint over a
//! [`MetricsRegistry`].
//!
//! The rest of the observability layer ([`metrics`](crate::metrics),
//! [`Report`](crate::Report), the JSON/trace exports) answers questions
//! *after* a run ends.  A [`TelemetryServer`] answers them *while the
//! pipeline is running*: it serves `GET /metrics` (Prometheus text format
//! 0.0.4, via [`MetricsSnapshot::to_prometheus`](crate::MetricsSnapshot::to_prometheus)),
//! `GET /report` (the live dashboard text), `GET /resources` and
//! `GET /healthz` over a plain `std::net::TcpListener`, so a long-running
//! `fgsort` or `experiments` invocation can be scraped by a stock
//! Prometheus or inspected with `curl`.
//!
//! Every answer is read when it is asked for: a registry snapshot, or one
//! [`ResourceReport::sample_now`](crate::ResourceReport::sample_now).
//! Nothing samples in the background, and an idle server (one blocked
//! `accept`) does not perturb the pipeline timings it exists to measure.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::MetricsRegistry;
use crate::profile::{MemoryLedger, ResourceReport};
use crate::stats::Report;

/// A minimal HTTP/1.1 endpoint exposing a [`MetricsRegistry`] while a run
/// is in flight.
///
/// Routes:
///
/// * `GET /metrics` — the registry snapshot in Prometheus text format
///   0.0.4 ([`MetricsSnapshot::to_prometheus`]);
/// * `GET /report` — human-readable live dashboard text:
///   [`Report::render_dashboard`] over the current snapshot and a live
///   resource sample;
/// * `GET /resources` — a live [`ResourceReport`] as JSON (per-thread CPU
///   attribution, process RSS/peak, allocator counters, and the buffer
///   ledger when one was given to [`TelemetryServer::bind`]), sampled
///   fresh on every request;
/// * `GET /healthz` — liveness probe, always `200 ok`;
/// * any other path — `404` with a body listing the routes above.
///
/// The listener thread shuts down when the server is dropped.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving the registry; `ledger`'s rows are folded into every
    /// `/report` and `/resources` response when given.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<MetricsRegistry>,
        ledger: Option<Arc<MemoryLedger>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fg-telemetry-server".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(mut stream) = conn else { continue };
                    serve_one(&mut stream, &registry, ledger.as_deref());
                }
            })
            .expect("spawn telemetry server");
        Ok(TelemetryServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves an ephemeral `:0` port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocked accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Handle one connection: parse the request line, route, respond, close.
fn serve_one(stream: &mut TcpStream, registry: &MetricsRegistry, ledger: Option<&MemoryLedger>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 1024];
    let mut len = 0;
    // Read until the end of the request head (or the buffer fills; the
    // request line always fits in 1 KiB).
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.snapshot().to_prometheus(),
        ),
        ("GET", "/report") => {
            let live = Report {
                metrics: registry.snapshot(),
                resources: Some(ResourceReport::sample_now(ledger)),
                ..Report::default()
            };
            (
                "200 OK",
                "text/plain; charset=utf-8",
                live.render_dashboard(),
            )
        }
        ("GET", "/resources") => (
            "200 OK",
            "application/json; charset=utf-8",
            ResourceReport::sample_now(ledger)
                .to_json_value()
                .to_string(),
        ),
        ("GET", "/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        ("GET", _) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; routes: /metrics /report /resources /healthz\n".to_string(),
        ),
        _ => (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        ),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}
