//! Simulated per-node disks.
//!
//! Each cluster node owns one disk (the paper's nodes have one Ultra-320
//! SCSI drive each).  A [`SimDisk`] stores named files in memory and charges
//! every read/write a configurable cost (`latency + bytes/bandwidth`) as
//! real wall-clock sleep **while holding the disk arm**: concurrent I/O
//! requests against one disk serialize, exactly the property that makes the
//! "most heavily used disk" the pacing item of a dsort pass (§I).
//!
//! Stage threads blocked on disk I/O yield the CPU, so FG's overlap of I/O
//! with computation and communication is physically real in measurements.
//! Tests use [`DiskCfg::zero`] and run at memory speed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_core::metrics::{Counter, Histogram, MetricsRegistry};
use parking_lot::{Mutex, RwLock};

use crate::PdmError;

/// The operations every disk backend provides.
///
/// Pipelines hold disks as [`DiskRef`] (`Arc<dyn Disk>`) so the same sort
/// and application code runs against the in-memory [`SimDisk`] cost model,
/// a real-file [`OsDisk`](crate::OsDisk), or either one wrapped in the
/// overlapping [`IoScheduler`](crate::IoScheduler).
///
/// Semantics all backends share:
///
/// * files are flat named byte arrays under one per-node namespace;
/// * [`write_at`](Disk::write_at) past the end grows the file zero-filled;
/// * [`load`](Disk::load)/[`snapshot`](Disk::snapshot) are *out-of-band*
///   provisioning/verification hooks — they move bytes without charging
///   costs or touching the I/O counters, and they keep working after an
///   injected failure;
/// * [`land`](Disk::land) is a write barrier: when it returns, every
///   previously accepted write has reached the backend, so any later read
///   sees it, and the first error of any *deferred* write is returned here.
///   It promises no durability.
/// * [`flush`](Disk::flush) is the same barrier and a durability point: it
///   also forces what has landed down to the device (`sync_data` on
///   [`OsDisk`](crate::OsDisk)); backends with nothing to force return
///   `Ok(())`.
///
/// A pass ends at `land` and a run at `flush`.
pub trait Disk: Send + Sync {
    /// Write `data` at byte `offset` of `name`, creating and growing the
    /// file (zero-filled) as needed.
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), PdmError>;
    /// Append `data` to `name` (creating it), returning the offset the
    /// data landed at.
    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PdmError>;
    /// Read exactly `out.len()` bytes at `offset` of `name`.
    fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), PdmError>;
    /// Read up to `len` bytes at `offset` (short read at end of file).
    fn read_up_to(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, PdmError>;
    /// Install a file's full contents without charging any cost — an
    /// out-of-band provisioning hook for experiment setup.
    fn load(&self, name: &str, bytes: Vec<u8>);
    /// Copy a file's full contents without charging any cost — the
    /// verification counterpart of [`Disk::load`].
    fn snapshot(&self, name: &str) -> Option<Vec<u8>>;
    /// Length of a file, or `None` if it does not exist.
    fn len(&self, name: &str) -> Option<u64>;
    /// Whether the file exists.
    fn exists(&self, name: &str) -> bool;
    /// Delete a file; returns whether it existed.
    fn delete(&self, name: &str) -> bool;
    /// Names of all files on the disk (unspecified order).
    fn list(&self) -> Vec<String>;
    /// Snapshot of the I/O counters.
    fn stats(&self) -> DiskStats;
    /// Reset the I/O counters (e.g. between experiment passes).
    fn reset_stats(&self);
    /// Inject a failure: after `ops` more successful operations, every
    /// read/write fails with [`PdmError::DiskFailed`].
    fn fail_after_ops(&self, ops: u64);
    /// Write barrier: block until every accepted write has reached the
    /// backend, surfacing the first deferred-write error.
    fn flush(&self) -> Result<(), PdmError> {
        Ok(())
    }
    /// The barrier of [`flush`](Disk::flush) without its durability: every
    /// accepted write has reached the backend and the first deferred-write
    /// error surfaces, but nothing is forced to the device.  The default is
    /// `flush` itself, so a wrapper that does not forward `land` gets the
    /// stronger barrier, never a weaker one.
    fn land(&self) -> Result<(), PdmError> {
        self.flush()
    }
    /// Hint that `name` will grow to about `bytes` in total, so a backend
    /// that pays for growing a file piecemeal can make room once.  Never
    /// fails and never changes an existing file's contents or length (it may
    /// create `name`, empty); backends with nothing to gain ignore it.
    fn reserve(&self, _name: &str, _bytes: u64) {}
    /// The live read-ahead actuator behind this disk, if it has one.
    ///
    /// Plain backends have no tunable depth and return `None`; the
    /// [`IoScheduler`](crate::IoScheduler) wrapper returns itself so a
    /// closed-loop controller can retune its read-ahead at run time.
    fn depth_actuator(self: Arc<Self>) -> Option<Arc<dyn fg_core::controller::DepthActuator>> {
        None
    }
}

/// Shared handle to a disk backend, as the pipelines hold it.
pub type DiskRef = Arc<dyn Disk>;

/// Failure injection shared by all backends: a count of operations
/// remaining before the disk "dies" (`u64::MAX` = healthy).  Once it hits
/// zero every subsequent checked operation fails with
/// [`PdmError::DiskFailed`].
#[derive(Debug)]
pub(crate) struct FailGate {
    ops_until_failure: AtomicU64,
}

impl Default for FailGate {
    fn default() -> Self {
        FailGate {
            ops_until_failure: AtomicU64::new(u64::MAX),
        }
    }
}

impl FailGate {
    pub(crate) fn arm(&self, ops: u64) {
        self.ops_until_failure.store(ops, Ordering::SeqCst);
    }

    pub(crate) fn check(&self) -> Result<(), PdmError> {
        // Decrement-if-healthy; saturate at zero once dead.
        let mut cur = self.ops_until_failure.load(Ordering::SeqCst);
        loop {
            if cur == u64::MAX {
                return Ok(());
            }
            if cur == 0 {
                return Err(PdmError::DiskFailed);
            }
            match self.ops_until_failure.compare_exchange(
                cur,
                cur - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Disk cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskCfg {
    /// Fixed per-operation latency (seek + rotational).
    pub latency: Duration,
    /// Sustained transfer rate in bytes per second; `f64::INFINITY`
    /// disables the per-byte cost.
    pub bytes_per_sec: f64,
}

impl DiskCfg {
    /// A free disk (for tests): no latency, infinite bandwidth.
    pub fn zero() -> Self {
        DiskCfg {
            latency: Duration::ZERO,
            bytes_per_sec: f64::INFINITY,
        }
    }

    /// A disk with the given per-op latency and bandwidth.
    pub fn new(latency: Duration, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        DiskCfg {
            latency,
            bytes_per_sec,
        }
    }

    /// Wall-clock cost of one operation transferring `bytes`.
    pub fn cost(&self, bytes: usize) -> Duration {
        let transfer = if self.bytes_per_sec.is_finite() {
            Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
        } else {
            Duration::ZERO
        };
        self.latency + transfer
    }
}

impl Default for DiskCfg {
    fn default() -> Self {
        DiskCfg::zero()
    }
}

/// Cumulative I/O counters of one disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of read operations.
    pub read_ops: u64,
    /// Number of write operations.
    pub write_ops: u64,
    /// Nanoseconds the disk arm was busy (simulated service time).
    pub busy_nanos: u64,
}

impl DiskStats {
    /// Simulated time this disk spent servicing requests.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos)
    }

    /// Total bytes moved in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) bytes_read: AtomicU64,
    pub(crate) bytes_written: AtomicU64,
    pub(crate) read_ops: AtomicU64,
    pub(crate) write_ops: AtomicU64,
    pub(crate) busy_nanos: AtomicU64,
}

impl Counters {
    pub(crate) fn snapshot(&self) -> DiskStats {
        DiskStats {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.read_ops.store(0, Ordering::Relaxed);
        self.write_ops.store(0, Ordering::Relaxed);
        self.busy_nanos.store(0, Ordering::Relaxed);
    }
}

/// Metric handles of one disk, resolved once at attachment.  Latencies are
/// measured wall time per operation *including* queueing behind other
/// requests for the disk arm, so the histograms expose contention, not just
/// the configured service cost.  Names carry the disk's label:
/// `disk/{label}/read_ns`, `disk/{label}/write_ns`,
/// `disk/{label}/bytes_read`, `disk/{label}/bytes_written`.
pub(crate) struct DiskMetrics {
    pub(crate) read_ns: Arc<Histogram>,
    pub(crate) write_ns: Arc<Histogram>,
    pub(crate) bytes_read: Arc<Counter>,
    pub(crate) bytes_written: Arc<Counter>,
}

impl DiskMetrics {
    pub(crate) fn new(registry: &MetricsRegistry, label: &str) -> Self {
        DiskMetrics {
            read_ns: registry.histogram(&format!("disk/{label}/read_ns")),
            write_ns: registry.histogram(&format!("disk/{label}/write_ns")),
            bytes_read: registry.counter(&format!("disk/{label}/bytes_read")),
            bytes_written: registry.counter(&format!("disk/{label}/bytes_written")),
        }
    }
}

/// Direction of one I/O operation, for metric recording.
#[derive(Clone, Copy)]
pub(crate) enum Dir {
    Read,
    Write,
}

impl DiskMetrics {
    /// Record one operation's wall time and byte count.
    pub(crate) fn record(&self, dir: Dir, bytes: usize, elapsed: Duration) {
        match dir {
            Dir::Read => {
                self.read_ns.record_duration(elapsed);
                self.bytes_read.add(bytes as u64);
            }
            Dir::Write => {
                self.write_ns.record_duration(elapsed);
                self.bytes_written.add(bytes as u64);
            }
        }
    }
}

/// An in-memory simulated disk holding named files.
pub struct SimDisk {
    cfg: DiskCfg,
    /// The disk arm: held (while sleeping the op cost) to serialize access.
    arm: Mutex<()>,
    files: RwLock<HashMap<String, Arc<Mutex<Vec<u8>>>>>,
    counters: Counters,
    /// Failure injection; see [`FailGate`].
    fail: FailGate,
    /// Metric handles; `None` for an uninstrumented disk, making every
    /// record site a single never-taken branch.
    metrics: Option<DiskMetrics>,
}

impl SimDisk {
    /// Create an empty disk with the given cost model.
    pub fn new(cfg: DiskCfg) -> Arc<Self> {
        Arc::new(SimDisk {
            cfg,
            arm: Mutex::new(()),
            files: RwLock::new(HashMap::new()),
            counters: Counters::default(),
            fail: FailGate::default(),
            metrics: None,
        })
    }

    /// Create an empty disk that additionally records per-operation latency
    /// histograms and byte counters into `registry`, under
    /// `disk/{label}/…` names (one label per disk, e.g. `d0`, `d1`).
    pub fn with_metrics(cfg: DiskCfg, registry: &MetricsRegistry, label: &str) -> Arc<Self> {
        Arc::new(SimDisk {
            cfg,
            arm: Mutex::new(()),
            files: RwLock::new(HashMap::new()),
            counters: Counters::default(),
            fail: FailGate::default(),
            metrics: Some(DiskMetrics::new(registry, label)),
        })
    }

    /// Inject a failure: after `ops` more successful operations, every
    /// read/write on this disk fails with [`PdmError::DiskFailed`] — for
    /// testing that errors propagate out of pipelines and across the
    /// cluster.
    pub fn fail_after_ops(&self, ops: u64) {
        self.fail.arm(ops);
    }

    fn check_alive(&self) -> Result<(), PdmError> {
        self.fail.check()
    }

    /// Hold the disk arm: until the guard drops, every operation with a
    /// non-zero cost stops where it would be "in flight".  Lets a test
    /// decide when a backend call made by another thread completes.
    #[cfg(test)]
    pub(crate) fn hold_arm(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.arm.lock()
    }

    /// The disk's cost model.
    pub fn cfg(&self) -> DiskCfg {
        self.cfg
    }

    fn charge(&self, dir: Dir, bytes: usize) {
        let d = self.cfg.cost(bytes);
        if d.is_zero() {
            // Memory-speed disks (DiskCfg::zero) skip the clock reads, the
            // arm, and the busy-time bookkeeping entirely.  Byte counters
            // and (zero-duration) latency samples still record so
            // instrumented runs account for every operation.
            if let Some(m) = &self.metrics {
                m.record(dir, bytes, Duration::ZERO);
            }
            return;
        }
        self.counters
            .busy_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        let t0 = Instant::now();
        {
            // Hold the arm while the operation is "in flight".
            let _arm = self.arm.lock();
            std::thread::sleep(d);
        }
        if let Some(m) = &self.metrics {
            // Wall time including queueing behind the arm, so contention on
            // the most heavily used disk shows up in the tail.
            m.record(dir, bytes, t0.elapsed());
        }
    }

    fn file(&self, name: &str) -> Option<Arc<Mutex<Vec<u8>>>> {
        self.files.read().get(name).map(Arc::clone)
    }

    fn file_or_create(&self, name: &str) -> Arc<Mutex<Vec<u8>>> {
        if let Some(f) = self.file(name) {
            return f;
        }
        let mut files = self.files.write();
        Arc::clone(
            files
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(Vec::new()))),
        )
    }

    /// Write `data` at byte `offset` of `name`, creating and growing the
    /// file (zero-filled) as needed.
    pub fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), PdmError> {
        self.check_alive()?;
        let file = self.file_or_create(name);
        {
            let mut bytes = file.lock();
            let end = offset as usize + data.len();
            if bytes.len() < end {
                bytes.resize(end, 0);
            }
            bytes[offset as usize..end].copy_from_slice(data);
        }
        self.counters
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.counters.write_ops.fetch_add(1, Ordering::Relaxed);
        self.charge(Dir::Write, data.len());
        Ok(())
    }

    /// Append `data` to `name` (creating it), returning the offset the data
    /// landed at.
    pub fn append(&self, name: &str, data: &[u8]) -> Result<u64, PdmError> {
        self.check_alive()?;
        let file = self.file_or_create(name);
        let offset = {
            let mut bytes = file.lock();
            let offset = bytes.len() as u64;
            bytes.extend_from_slice(data);
            offset
        };
        self.counters
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.counters.write_ops.fetch_add(1, Ordering::Relaxed);
        self.charge(Dir::Write, data.len());
        Ok(offset)
    }

    /// Read exactly `out.len()` bytes at `offset` of `name`.
    pub fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), PdmError> {
        self.check_alive()?;
        let file = self
            .file(name)
            .ok_or_else(|| PdmError::NoSuchFile(name.to_string()))?;
        {
            let bytes = file.lock();
            let end = offset as usize + out.len();
            if end > bytes.len() {
                return Err(PdmError::OutOfRange {
                    file: name.to_string(),
                    offset,
                    len: out.len(),
                    file_len: bytes.len() as u64,
                });
            }
            out.copy_from_slice(&bytes[offset as usize..end]);
        }
        self.counters
            .bytes_read
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        self.counters.read_ops.fetch_add(1, Ordering::Relaxed);
        self.charge(Dir::Read, out.len());
        Ok(())
    }

    /// Read up to `len` bytes at `offset` (short read at end of file).
    pub fn read_up_to(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, PdmError> {
        self.check_alive()?;
        let file = self
            .file(name)
            .ok_or_else(|| PdmError::NoSuchFile(name.to_string()))?;
        let data = {
            let bytes = file.lock();
            let start = (offset as usize).min(bytes.len());
            let end = (start + len).min(bytes.len());
            bytes[start..end].to_vec()
        };
        self.counters
            .bytes_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.counters.read_ops.fetch_add(1, Ordering::Relaxed);
        self.charge(Dir::Read, data.len());
        Ok(data)
    }

    /// Install a file's full contents **without charging any cost** — an
    /// out-of-band provisioning hook for experiment setup (loading the
    /// input dataset is not part of any measured pass).
    pub fn load(&self, name: &str, bytes: Vec<u8>) {
        let file = self.file_or_create(name);
        *file.lock() = bytes;
    }

    /// Copy a file's full contents **without charging any cost** — the
    /// verification counterpart of [`SimDisk::load`].
    pub fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        self.file(name).map(|f| f.lock().clone())
    }

    /// Length of a file, or `None` if it does not exist.
    pub fn len(&self, name: &str) -> Option<u64> {
        self.file(name).map(|f| f.lock().len() as u64)
    }

    /// Whether the file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.read().contains_key(name)
    }

    /// Delete a file; returns whether it existed.
    pub fn delete(&self, name: &str) -> bool {
        self.files.write().remove(name).is_some()
    }

    /// Names of all files on the disk (unspecified order).
    pub fn list(&self) -> Vec<String> {
        self.files.read().keys().cloned().collect()
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> DiskStats {
        self.counters.snapshot()
    }

    /// Reset the I/O counters (e.g. between experiment passes).
    pub fn reset_stats(&self) {
        self.counters.reset()
    }
}

// The trait impl delegates to the inherent methods above (inherent methods
// win during resolution, so there is no recursion), letting existing code
// that holds a concrete `Arc<SimDisk>` keep working unchanged while the
// pipelines hold `Arc<dyn Disk>`.
impl Disk for SimDisk {
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), PdmError> {
        SimDisk::write_at(self, name, offset, data)
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PdmError> {
        SimDisk::append(self, name, data)
    }

    fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), PdmError> {
        SimDisk::read_at(self, name, offset, out)
    }

    fn read_up_to(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, PdmError> {
        SimDisk::read_up_to(self, name, offset, len)
    }

    fn load(&self, name: &str, bytes: Vec<u8>) {
        SimDisk::load(self, name, bytes)
    }

    fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        SimDisk::snapshot(self, name)
    }

    fn len(&self, name: &str) -> Option<u64> {
        SimDisk::len(self, name)
    }

    fn exists(&self, name: &str) -> bool {
        SimDisk::exists(self, name)
    }

    fn delete(&self, name: &str) -> bool {
        SimDisk::delete(self, name)
    }

    fn list(&self) -> Vec<String> {
        SimDisk::list(self)
    }

    fn stats(&self) -> DiskStats {
        SimDisk::stats(self)
    }

    fn reset_stats(&self) {
        SimDisk::reset_stats(self)
    }

    fn fail_after_ops(&self, ops: u64) {
        SimDisk::fail_after_ops(self, ops)
    }

    fn reserve(&self, name: &str, bytes: u64) {
        let file = self.file_or_create(name);
        let mut data = file.lock();
        let more = (bytes as usize).saturating_sub(data.len());
        data.reserve_exact(more);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let d = SimDisk::new(DiskCfg::zero());
        d.write_at("f", 0, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        d.read_at("f", 0, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn write_at_offset_grows_zero_filled() {
        let d = SimDisk::new(DiskCfg::zero());
        d.write_at("f", 4, &[9]).unwrap();
        assert_eq!(d.len("f"), Some(5));
        let mut out = [1u8; 5];
        d.read_at("f", 0, &mut out).unwrap();
        assert_eq!(out, [0, 0, 0, 0, 9]);
    }

    #[test]
    fn append_returns_offsets() {
        let d = SimDisk::new(DiskCfg::zero());
        assert_eq!(d.append("f", &[1, 2]).unwrap(), 0);
        assert_eq!(d.append("f", &[3]).unwrap(), 2);
        assert_eq!(d.len("f"), Some(3));
    }

    #[test]
    fn read_missing_file_fails() {
        let d = SimDisk::new(DiskCfg::zero());
        let mut out = [0u8; 1];
        assert!(matches!(
            d.read_at("nope", 0, &mut out),
            Err(PdmError::NoSuchFile(_))
        ));
    }

    #[test]
    fn read_past_end_fails() {
        let d = SimDisk::new(DiskCfg::zero());
        d.write_at("f", 0, &[1]).unwrap();
        let mut out = [0u8; 2];
        assert!(matches!(
            d.read_at("f", 0, &mut out),
            Err(PdmError::OutOfRange { .. })
        ));
    }

    #[test]
    fn read_up_to_short_reads() {
        let d = SimDisk::new(DiskCfg::zero());
        d.write_at("f", 0, &[1, 2, 3]).unwrap();
        assert_eq!(d.read_up_to("f", 2, 10).unwrap(), vec![3]);
        assert_eq!(d.read_up_to("f", 5, 10).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn delete_and_exists() {
        let d = SimDisk::new(DiskCfg::zero());
        assert!(!d.exists("f"));
        d.write_at("f", 0, &[1]).unwrap();
        assert!(d.exists("f"));
        assert!(d.delete("f"));
        assert!(!d.delete("f"));
        assert!(!d.exists("f"));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let d = SimDisk::new(DiskCfg::zero());
        d.write_at("f", 0, &[0; 100]).unwrap();
        let mut out = [0u8; 40];
        d.read_at("f", 0, &mut out).unwrap();
        let s = d.stats();
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_read, 40);
        assert_eq!(s.write_ops, 1);
        assert_eq!(s.read_ops, 1);
        assert_eq!(s.bytes_total(), 140);
        d.reset_stats();
        assert_eq!(d.stats(), DiskStats::default());
    }

    #[test]
    fn metrics_record_latency_histograms_and_bytes() {
        let reg = MetricsRegistry::new();
        let d = SimDisk::with_metrics(DiskCfg::zero(), &reg, "d0");
        d.write_at("f", 0, &[0; 100]).unwrap();
        let mut out = [0u8; 40];
        d.read_at("f", 0, &mut out).unwrap();
        d.read_up_to("f", 0, 10).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("disk/d0/bytes_written"), Some(100));
        assert_eq!(snap.counter("disk/d0/bytes_read"), Some(50));
        assert_eq!(snap.histogram("disk/d0/write_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("disk/d0/read_ns").unwrap().count, 2);
    }

    #[test]
    fn uninstrumented_disk_registers_nothing() {
        let d = SimDisk::new(DiskCfg::zero());
        d.write_at("f", 0, &[1]).unwrap();
        // Only the plain counters exist; there is no registry to pollute.
        assert_eq!(d.stats().write_ops, 1);
    }

    #[test]
    fn cost_model_charges_busy_time() {
        let d = SimDisk::new(DiskCfg::new(Duration::from_millis(1), 1_000_000.0));
        let t0 = std::time::Instant::now();
        d.write_at("f", 0, &[0; 10_000]).unwrap(); // 1ms + 10ms
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(10), "{elapsed:?}");
        assert!(d.stats().busy() >= Duration::from_millis(10));
    }

    #[test]
    fn concurrent_ops_serialize_on_the_arm() {
        // Two threads each do a ~10ms write; serialized, total >= 20ms.
        let d = SimDisk::new(DiskCfg::new(Duration::from_millis(10), f64::INFINITY));
        let t0 = std::time::Instant::now();
        let d1 = Arc::clone(&d);
        let d2 = Arc::clone(&d);
        let h1 = std::thread::spawn(move || d1.write_at("a", 0, &[1]).unwrap());
        let h2 = std::thread::spawn(move || d2.write_at("b", 0, &[1]).unwrap());
        h1.join().unwrap();
        h2.join().unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(19),
            "{:?}",
            t0.elapsed()
        );
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::PdmError;

    #[test]
    fn healthy_disk_never_fails() {
        let d = SimDisk::new(DiskCfg::zero());
        for _ in 0..1000 {
            d.write_at("f", 0, &[1]).unwrap();
        }
    }

    #[test]
    fn fails_after_injected_ops() {
        let d = SimDisk::new(DiskCfg::zero());
        d.fail_after_ops(3);
        d.write_at("f", 0, &[1]).unwrap();
        let mut out = [0u8; 1];
        d.read_at("f", 0, &mut out).unwrap();
        d.append("f", &[2]).unwrap();
        assert_eq!(d.write_at("f", 0, &[3]), Err(PdmError::DiskFailed));
        assert_eq!(d.read_at("f", 0, &mut out), Err(PdmError::DiskFailed));
        assert!(matches!(d.read_up_to("f", 0, 1), Err(PdmError::DiskFailed)));
        assert!(matches!(d.append("f", &[4]), Err(PdmError::DiskFailed)));
    }

    #[test]
    fn fail_immediately() {
        let d = SimDisk::new(DiskCfg::zero());
        d.fail_after_ops(0);
        assert_eq!(d.write_at("f", 0, &[1]), Err(PdmError::DiskFailed));
        // Cost-free provisioning and snapshots are out-of-band and keep
        // working (they model the experiment harness, not the disk).
        d.load("g", vec![1, 2, 3]);
        assert_eq!(d.snapshot("g").unwrap(), vec![1, 2, 3]);
    }
}
