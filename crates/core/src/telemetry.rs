//! Live telemetry: a time-series sampler over a [`MetricsRegistry`] and a
//! dependency-free HTTP exposition endpoint.
//!
//! The rest of the observability layer ([`metrics`](crate::metrics),
//! [`Report`](crate::Report), the JSON/trace exports) answers questions
//! *after* a run ends.  This module answers them *while the pipeline is
//! running*:
//!
//! * a [`Sampler`] thread snapshots the registry on a fixed interval into a
//!   bounded ring buffer of [`TimestampedSnapshot`]s, turning every
//!   counter, gauge, and histogram into a time series
//!   ([`series_to_json`] writes it);
//! * a [`TelemetryServer`] serves `GET /metrics` (Prometheus text format
//!   0.0.4, via [`MetricsSnapshot::to_prometheus`]) and `GET /report` (the
//!   live dashboard text) over a plain `std::net::TcpListener`, so a
//!   long-running `fgsort` or `experiments` invocation can be scraped by a
//!   stock Prometheus or inspected with `curl`.
//!
//! Both pieces are deliberately tiny and std-only: the update paths they
//! observe are lock-free relaxed atomics, and neither the sampler (one
//! snapshot per interval) nor an idle server (one blocked `accept`)
//! perturbs the pipeline timings they exist to measure.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::json::{obj, Json};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::stats::Report;

/// The shared sampler heartbeat: a condvar-timed loop that runs a tick on
/// a fixed interval until stopped, where the wait doubles as the interval
/// sleep so [`Cadence::stop`] interrupts a pending interval instead of
/// waiting it out.  Both the telemetry [`Sampler`] and the resource
/// profiler ([`ResourceProfiler`](crate::profile::ResourceProfiler)) run
/// on one of these.
pub(crate) struct Cadence {
    stop: Mutex<bool>,
    cv: Condvar,
}

impl Cadence {
    pub(crate) fn new() -> Cadence {
        Cadence {
            stop: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Run `tick` every `interval` on the calling thread until
    /// [`Cadence::stop`]; a stop during the wait returns without a final
    /// tick.  The flag is tested before every wait as well as after it: a
    /// `stop` that lands before this thread first reaches the wait has
    /// already sent its only notification, and waiting first would sit out
    /// a whole interval on it.
    pub(crate) fn run(&self, interval: Duration, mut tick: impl FnMut()) {
        let mut stop = self.stop.lock();
        while !*stop {
            self.cv.wait_for(&mut stop, interval);
            if !*stop {
                tick();
            }
        }
    }

    /// Stop the loop, interrupting any in-progress wait.
    pub(crate) fn stop(&self) {
        *self.stop.lock() = true;
        self.cv.notify_all();
    }
}

/// One point of the telemetry time series: the registry's state at
/// `elapsed` since the sampler started.
#[derive(Debug, Clone, PartialEq)]
pub struct TimestampedSnapshot {
    /// Time since [`Sampler::start`] when the snapshot was taken.
    pub elapsed: Duration,
    /// The registry's state at that instant.
    pub snapshot: MetricsSnapshot,
}

impl TimestampedSnapshot {
    /// The snapshot as a JSON object (`{"elapsed_ns": …, "metrics": …}`).
    pub fn to_json_value(&self) -> Json {
        obj(vec![
            ("elapsed_ns", Json::from(self.elapsed.as_nanos() as u64)),
            ("metrics", self.snapshot.to_json_value()),
        ])
    }
}

/// Sampling cadence and retention of a [`Sampler`].
#[derive(Debug, Clone, Copy)]
pub struct SamplerCfg {
    /// Interval between snapshots.
    pub interval: Duration,
    /// Maximum retained snapshots; older snapshots are evicted
    /// first-in-first-out once the ring is full.
    pub capacity: usize,
}

impl Default for SamplerCfg {
    /// 100 ms cadence, one minute of history.
    fn default() -> Self {
        SamplerCfg {
            interval: Duration::from_millis(100),
            capacity: 600,
        }
    }
}

struct SamplerShared {
    registry: Arc<MetricsRegistry>,
    cfg: SamplerCfg,
    series: Mutex<Vec<TimestampedSnapshot>>,
    /// Snapshots evicted from the full ring (so consumers know the series
    /// is a suffix, not the whole run).
    evicted: AtomicU64,
    cadence: Cadence,
}

impl SamplerShared {
    fn sample(&self, started: Instant) {
        let point = TimestampedSnapshot {
            elapsed: started.elapsed(),
            snapshot: self.registry.snapshot(),
        };
        let mut series = self.series.lock();
        if series.len() >= self.cfg.capacity {
            series.remove(0);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        series.push(point);
    }
}

/// A background thread snapshotting a [`MetricsRegistry`] on a fixed
/// interval into a bounded ring buffer.
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use fg_core::{MetricsRegistry, Sampler, SamplerCfg};
///
/// let registry = Arc::new(MetricsRegistry::new());
/// let sampler = Sampler::start(
///     Arc::clone(&registry),
///     SamplerCfg { interval: Duration::from_millis(1), capacity: 64 },
/// );
/// registry.counter("core/rounds").add(3);
/// std::thread::sleep(Duration::from_millis(10));
/// let series = sampler.stop();
/// assert!(!series.is_empty());
/// ```
pub struct Sampler {
    shared: Arc<SamplerShared>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Spawn the sampling thread.  The first snapshot is taken one
    /// `cfg.interval` after the call.
    pub fn start(registry: Arc<MetricsRegistry>, cfg: SamplerCfg) -> Sampler {
        let shared = Arc::new(SamplerShared {
            registry,
            cfg: SamplerCfg {
                interval: cfg.interval.max(Duration::from_micros(100)),
                capacity: cfg.capacity.max(1),
            },
            series: Mutex::new(Vec::new()),
            evicted: AtomicU64::new(0),
            cadence: Cadence::new(),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("fg-telemetry-sampler".into())
            .spawn(move || {
                let _reg = crate::profile::register_current_thread("sampler");
                let started = Instant::now();
                worker
                    .cadence
                    .run(worker.cfg.interval, || worker.sample(started));
            })
            .expect("spawn telemetry sampler");
        Sampler {
            shared,
            handle: Some(handle),
        }
    }

    /// Copy of the series collected so far (oldest first).
    pub fn series(&self) -> Vec<TimestampedSnapshot> {
        self.shared.series.lock().clone()
    }

    /// Snapshots evicted from the full ring so far; nonzero means
    /// [`Sampler::series`] is a suffix of the run, not the whole run.
    pub fn evicted(&self) -> u64 {
        self.shared.evicted.load(Ordering::Relaxed)
    }

    /// Stop the sampling thread and return the collected series.
    pub fn stop(mut self) -> Vec<TimestampedSnapshot> {
        self.join();
        std::mem::take(&mut *self.shared.series.lock())
    }

    fn join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shared.cadence.stop();
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.join();
    }
}

/// Render a telemetry series as a JSON array (one
/// [`TimestampedSnapshot::to_json_value`] element per point).
pub fn series_to_json(series: &[TimestampedSnapshot]) -> Json {
    Json::Arr(series.iter().map(|s| s.to_json_value()).collect())
}

/// Source of the `GET /report` body — entry points with richer context (a
/// finished pass's [`Report`]) can install their own renderer.
pub type ReportFn = Arc<dyn Fn() -> String + Send + Sync>;

/// A minimal HTTP/1.1 endpoint exposing a [`MetricsRegistry`] while a run
/// is in flight.
///
/// Routes:
///
/// * `GET /metrics` — the registry snapshot in Prometheus text format
///   0.0.4 ([`MetricsSnapshot::to_prometheus`]);
/// * `GET /report` — human-readable live dashboard text (by default the
///   metrics sections of [`Report::render_dashboard`] over the current
///   snapshot);
/// * `GET /cluster` — the merged [`ClusterReport`](crate::ClusterReport)
///   as JSON, when a cluster source was installed with
///   [`TelemetryServer::bind_all`] (`404` otherwise);
/// * `GET /resources` — a live [`ResourceReport`](crate::ResourceReport)
///   as JSON (per-thread CPU attribution, process RSS/peak, allocator
///   counters, and the buffer ledger when one was installed with
///   [`TelemetryServer::bind_all`]) — sampled fresh on every request, so
///   it works with or without a background
///   [`ResourceProfiler`](crate::ResourceProfiler);
/// * `GET /healthz` — liveness probe, always `200 ok`;
/// * any other path — `404` with a body listing the routes above.
///
/// Each scrape also increments the registry's `telemetry/scrapes` counter,
/// so the exposition layer is observable through itself.  The listener
/// thread shuts down when the server is dropped.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving the registry.
    pub fn bind(addr: impl ToSocketAddrs, registry: Arc<MetricsRegistry>) -> std::io::Result<Self> {
        Self::bind_all(addr, registry, None, None, None)
    }

    /// [`TelemetryServer::bind`] with a custom `GET /report` body, a
    /// cluster-report source for `GET /cluster` and a memory ledger for
    /// `GET /resources`.
    /// `cluster` should return the current
    /// [`ClusterReport`](crate::ClusterReport) serialized as JSON
    /// ([`ClusterReport::to_json`](crate::ClusterReport::to_json)); without
    /// it the route answers `404`.  `ledger` rows are folded into every
    /// `/resources` response when given.
    pub fn bind_all(
        addr: impl ToSocketAddrs,
        registry: Arc<MetricsRegistry>,
        report: Option<ReportFn>,
        cluster: Option<ReportFn>,
        ledger: Option<Arc<crate::profile::MemoryLedger>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let report = report.unwrap_or_else(|| {
            let registry = Arc::clone(&registry);
            Arc::new(move || {
                Report {
                    metrics: registry.snapshot(),
                    ..Report::default()
                }
                .render_dashboard()
            })
        });
        let handle = std::thread::Builder::new()
            .name("fg-telemetry-server".into())
            .spawn(move || {
                let _reg = crate::profile::register_current_thread("telemetry-server");
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(mut stream) = conn else { continue };
                    serve_one(
                        &mut stream,
                        &registry,
                        &report,
                        cluster.as_ref(),
                        ledger.as_deref(),
                    );
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
fn serve_one(
    stream: &mut TcpStream,
    registry: &MetricsRegistry,
    report: &ReportFn,
    cluster: Option<&ReportFn>,
    ledger: Option<&crate::profile::MemoryLedger>,
) {
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
        ("GET", "/metrics") => {
            registry.counter("telemetry/scrapes").inc();
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                registry.snapshot().to_prometheus(),
            )
        }
        ("GET", "/report") => {
            registry.counter("telemetry/scrapes").inc();
            ("200 OK", "text/plain; charset=utf-8", report())
        }
        ("GET", "/cluster") if cluster.is_some() => {
            registry.counter("telemetry/scrapes").inc();
            (
                "200 OK",
                "application/json; charset=utf-8",
                cluster.unwrap()(),
            )
        }
        ("GET", "/resources") => {
            registry.counter("telemetry/scrapes").inc();
            (
                "200 OK",
                "application/json; charset=utf-8",
                crate::profile::ResourceReport::sample_now(ledger)
                    .to_json_value()
                    .to_string(),
            )
        }
        ("GET", "/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        ("GET", _) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; routes: /metrics /report /cluster /resources /healthz\n".to_string(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_collects_and_bounds_series() {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = registry.counter("core/rounds");
        let sampler = Sampler::start(
            Arc::clone(&registry),
            SamplerCfg {
                interval: Duration::from_millis(1),
                capacity: 5,
            },
        );
        for _ in 0..40 {
            counter.inc();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(sampler.evicted() > 0, "ring should have wrapped");
        let series = sampler.stop();
        assert_eq!(series.len(), 5);
        // Monotone timestamps, and the retained suffix reflects late
        // counter values.
        for pair in series.windows(2) {
            assert!(pair[0].elapsed <= pair[1].elapsed);
        }
        assert!(
            series
                .last()
                .unwrap()
                .snapshot
                .counter("core/rounds")
                .unwrap()
                > 5
        );
    }

    /// The lost wake-up, forced: `stop` has come and gone before `run`
    /// starts, so no notification will ever arrive.  `run` must return at
    /// once without a tick; a helper thread turns a regression into a failure
    /// within 5 s where it used to be an hour's hang.
    #[test]
    fn cadence_stop_before_run_is_not_lost() {
        let cadence = Arc::new(Cadence::new());
        cadence.stop();
        let (tx, rx) = std::sync::mpsc::channel();
        let c = Arc::clone(&cadence);
        std::thread::spawn(move || {
            let mut ticks = 0;
            c.run(Duration::from_secs(3600), || ticks += 1);
            let _ = tx.send(ticks);
        });
        let ticks = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("run waited out its interval on a stop it had already been sent");
        assert_eq!(ticks, 0);
    }

    #[test]
    fn sampler_stop_is_prompt_with_long_interval() {
        let registry = Arc::new(MetricsRegistry::new());
        let sampler = Sampler::start(
            registry,
            SamplerCfg {
                interval: Duration::from_secs(3600),
                capacity: 4,
            },
        );
        let t = Instant::now();
        sampler.stop();
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "stop must not wait out the interval"
        );
    }
}
