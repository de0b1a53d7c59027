//! `TimedDisk`: a `Disk` that records a span around every call it forwards.
//!
//! The traced run puts one over each disk the library provisions (layer
//! `io`: what the program's stages asked for and how long they waited).
//! A call that fails is recorded as having moved no bytes.  Spans stay in
//! memory until the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fg_pdm::{Disk, DiskRef, DiskStats, PdmError};

/// One recorded interval.  `rep` ties the spans of one repetition together:
/// the repetition's own spans (`setup`, `timed`, the passes, `check`) are
/// the parents of every disk span that carries the same `rep`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub op: &'static str,
    pub bytes: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
    pub rep: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn is_transfer(&self) -> bool {
        matches!(self.op, "read" | "write")
    }
}

/// A small integer naming the calling thread (`ThreadId` has no stable
/// numeric form).
fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static NUMBER: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|n| *n)
}

/// Where one traced process keeps its spans; every span's times count from
/// the recorder's creation.
pub struct Recorder {
    epoch: Instant,
    rep: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            rep: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans recorded from now on belong to repetition `rep`.
    pub fn begin_rep(&self, rep: u32) {
        self.rep.store(u64::from(rep), Ordering::Relaxed);
    }

    /// Record a span that began at `start_ns` and ends now.
    pub fn record(&self, layer: &'static str, op: &'static str, bytes: u64, start_ns: u64) {
        self.record_interval(layer, op, bytes, start_ns, self.now_ns());
    }

    /// Record a span whose both ends are known (the pass times a sort
    /// reports as durations).
    pub fn record_interval(
        &self,
        layer: &'static str,
        op: &'static str,
        bytes: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let span = Span {
            layer,
            op,
            bytes,
            start_ns,
            end_ns,
            thread: thread_number(),
            rep: self.rep.load(Ordering::Relaxed) as u32,
        };
        self.spans
            .lock()
            .expect("no panic while the span list is locked")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no panic while the span list is locked")
            .clone()
    }
}

/// A disk that forwards every call to `inner` and records how long the
/// four data operations took.  Provisioning and verification hooks
/// (`load`, `snapshot`, …) are forwarded untimed: they are not the
/// program's I/O.
pub struct TimedDisk {
    inner: DiskRef,
    layer: &'static str,
    recorder: Arc<Recorder>,
}

impl TimedDisk {
    pub fn wrap(inner: DiskRef, layer: &'static str, recorder: &Arc<Recorder>) -> DiskRef {
        Arc::new(TimedDisk {
            inner,
            layer,
            recorder: Arc::clone(recorder),
        })
    }
}

/// Bytes a call moved: `len` when it succeeded, none when it failed.
fn moved<T>(res: &Result<T, PdmError>, len: usize) -> u64 {
    if res.is_ok() {
        len as u64
    } else {
        0
    }
}

impl Disk for TimedDisk {
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), PdmError> {
        let t0 = self.recorder.now_ns();
        let res = self.inner.write_at(name, offset, data);
        self.recorder
            .record(self.layer, "write", moved(&res, data.len()), t0);
        res
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PdmError> {
        let t0 = self.recorder.now_ns();
        let res = self.inner.append(name, data);
        self.recorder
            .record(self.layer, "write", moved(&res, data.len()), t0);
        res
    }

    fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), PdmError> {
        let t0 = self.recorder.now_ns();
        let res = self.inner.read_at(name, offset, out);
        self.recorder
            .record(self.layer, "read", moved(&res, out.len()), t0);
        res
    }

    fn read_up_to(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, PdmError> {
        let t0 = self.recorder.now_ns();
        let res = self.inner.read_up_to(name, offset, len);
        let got = res.as_ref().map_or(0, |data| data.len() as u64);
        self.recorder.record(self.layer, "read", got, t0);
        res
    }

    fn flush(&self) -> Result<(), PdmError> {
        let t0 = self.recorder.now_ns();
        let res = self.inner.flush();
        self.recorder.record(self.layer, "flush", 0, t0);
        res
    }

    fn load(&self, name: &str, bytes: Vec<u8>) {
        self.inner.load(name, bytes)
    }

    fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.snapshot(name)
    }

    fn len(&self, name: &str) -> Option<u64> {
        self.inner.len(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn delete(&self, name: &str) -> bool {
        self.inner.delete(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn fail_after_ops(&self, ops: u64) {
        self.inner.fail_after_ops(ops)
    }
}
