//! Real-file disk backend.
//!
//! An [`OsDisk`] stores each named file as a regular file under a
//! configurable root directory and serves reads and writes with positioned
//! kernel I/O (`pread`/`pwrite` via [`std::os::unix::fs::FileExt`]), so no
//! seat-of-the-pants seek bookkeeping is needed and concurrent stage
//! threads can issue I/O against one file without a shared cursor.
//!
//! Unlike [`SimDisk`](crate::SimDisk) there is no sleep-based cost model:
//! the operation's cost *is* the kernel I/O path (page cache, readahead,
//! writeback, the device).  Busy time and the per-op latency histograms
//! record real elapsed wall time.  Semantics match `SimDisk`: writes past
//! EOF leave a hole that reads back zero-filled (the file grows sparse),
//! `read_at` past EOF is [`PdmError::OutOfRange`], `load`/`snapshot` are
//! cost-free provisioning hooks.
//!
//! [`land`](Disk::land) is free: a returned `pwrite` is in the page cache,
//! which serves every later read.  [`flush`](Disk::flush) is the durability
//! point, a `sync_data` of every file this handle has open — so a file
//! deleted before the run's one `flush` is never forced to the device, and
//! the kernel may drop its dirty pages unwritten.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fg_core::metrics::MetricsRegistry;
use parking_lot::{Mutex, RwLock};

use crate::disk::{Counters, Dir, Disk, DiskMetrics, DiskStats, FailGate};
use crate::PdmError;

/// An open backing file plus its logical length.
///
/// The length mutex serializes appends (reserve an offset, then write) and
/// lets `read_at` range-check without a `stat` round trip.  Positioned
/// writes themselves need no lock: `pwrite` is atomic with respect to
/// offset.
struct Entry {
    file: File,
    len: Mutex<u64>,
}

/// A disk backed by real files under a root directory.
pub struct OsDisk {
    root: PathBuf,
    files: RwLock<HashMap<String, Arc<Entry>>>,
    counters: Counters,
    fail: FailGate,
    metrics: Option<DiskMetrics>,
    /// Write-through mode: `sync_data` after every write, so each write's
    /// cost includes the device (not just the page cache).
    durable: bool,
}

fn io_err(op: &str, name: &str, e: std::io::Error) -> PdmError {
    PdmError::Io(format!("{op} {name}: {e}"))
}

/// File names are flat: path separators and `..` would escape the root.
fn check_name(name: &str) -> Result<(), PdmError> {
    if name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\']) {
        return Err(PdmError::Io(format!("invalid file name: {name:?}")));
    }
    Ok(())
}

impl OsDisk {
    /// Open (creating it if needed) a disk rooted at `root`.  Existing
    /// files under `root` remain visible — delete them first for a clean
    /// slate.
    pub fn new(root: impl Into<PathBuf>) -> Result<Arc<Self>, PdmError> {
        Self::build(root.into(), None, false)
    }

    /// Like [`OsDisk::new`], but every `write_at`/`append` is followed by
    /// `sync_data`, so a completed write has reached the device rather
    /// than the page cache.  This is the write-through durability mode —
    /// each write pays real device latency, which is exactly the latency
    /// a write stage hides behind the rest of its pipeline.
    pub fn durable(root: impl Into<PathBuf>) -> Result<Arc<Self>, PdmError> {
        Self::build(root.into(), None, true)
    }

    /// Like [`OsDisk::new`], with per-operation latency histograms and
    /// byte counters recorded into `registry` under `disk/{label}/…`.
    pub fn with_metrics(
        root: impl Into<PathBuf>,
        registry: &MetricsRegistry,
        label: &str,
    ) -> Result<Arc<Self>, PdmError> {
        Self::build(root.into(), Some(DiskMetrics::new(registry, label)), false)
    }

    fn build(
        root: PathBuf,
        metrics: Option<DiskMetrics>,
        durable: bool,
    ) -> Result<Arc<Self>, PdmError> {
        fs::create_dir_all(&root)
            .map_err(|e| PdmError::Io(format!("create {}: {e}", root.display())))?;
        Ok(Arc::new(OsDisk {
            root,
            files: RwLock::new(HashMap::new()),
            counters: Counters::default(),
            fail: FailGate::default(),
            metrics,
            durable,
        }))
    }

    /// The directory this disk stores its files under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Inject a failure after `ops` more operations (see
    /// [`SimDisk::fail_after_ops`](crate::SimDisk::fail_after_ops)).
    pub fn fail_after_ops(&self, ops: u64) {
        self.fail.arm(ops);
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// The cached entry for `name`, opening the backing file from the
    /// filesystem if it exists there but has not been touched through this
    /// handle yet.
    fn lookup(&self, name: &str) -> Result<Option<Arc<Entry>>, PdmError> {
        if let Some(e) = self.files.read().get(name) {
            return Ok(Some(Arc::clone(e)));
        }
        check_name(name)?;
        let path = self.path_of(name);
        match fs::metadata(&path) {
            Ok(md) if md.is_file() => {}
            _ => return Ok(None),
        }
        self.open_entry(name, false)
    }

    /// The cached entry for `name`, creating the backing file if needed.
    fn lookup_or_create(&self, name: &str) -> Result<Arc<Entry>, PdmError> {
        if let Some(e) = self.files.read().get(name) {
            return Ok(Arc::clone(e));
        }
        check_name(name)?;
        Ok(self.open_entry(name, true)?.expect("created"))
    }

    /// Open `name` under the map's lock, creating it only when asked: a
    /// reader racing a [`delete`](Disk::delete) finds no file, and never
    /// brings an empty one back.
    fn open_entry(&self, name: &str, create: bool) -> Result<Option<Arc<Entry>>, PdmError> {
        let mut files = self.files.write();
        if let Some(e) = files.get(name) {
            return Ok(Some(Arc::clone(e)));
        }
        let opened = OpenOptions::new()
            .read(true)
            .write(true)
            .create(create)
            .truncate(false)
            .open(self.path_of(name));
        let file = match opened {
            Ok(file) => file,
            Err(e) if !create && e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("open", name, e)),
        };
        let len = file.metadata().map_err(|e| io_err("stat", name, e))?.len();
        let entry = Arc::new(Entry {
            file,
            len: Mutex::new(len),
        });
        files.insert(name.to_string(), Arc::clone(&entry));
        Ok(Some(entry))
    }

    /// Fold one completed operation into counters and metrics: busy time
    /// is real elapsed wall time.
    fn account(&self, dir: Dir, bytes: usize, start: Instant) {
        let elapsed = start.elapsed();
        self.counters.busy_nanos.fetch_add(
            elapsed.as_nanos() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        let ord = std::sync::atomic::Ordering::Relaxed;
        match dir {
            Dir::Read => {
                self.counters.bytes_read.fetch_add(bytes as u64, ord);
                self.counters.read_ops.fetch_add(1, ord);
            }
            Dir::Write => {
                self.counters.bytes_written.fetch_add(bytes as u64, ord);
                self.counters.write_ops.fetch_add(1, ord);
            }
        }
        if let Some(m) = &self.metrics {
            m.record(dir, bytes, elapsed);
        }
    }
}

impl Disk for OsDisk {
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), PdmError> {
        self.fail.check()?;
        let entry = self.lookup_or_create(name)?;
        let t0 = Instant::now();
        entry
            .file
            .write_all_at(data, offset)
            .map_err(|e| io_err("write", name, e))?;
        if self.durable {
            entry
                .file
                .sync_data()
                .map_err(|e| io_err("sync", name, e))?;
        }
        {
            let mut len = entry.len.lock();
            *len = (*len).max(offset + data.len() as u64);
        }
        self.account(Dir::Write, data.len(), t0);
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PdmError> {
        self.fail.check()?;
        let entry = self.lookup_or_create(name)?;
        let t0 = Instant::now();
        let offset = {
            // Hold the length lock across the write so concurrent appends
            // get disjoint regions.
            let mut len = entry.len.lock();
            let offset = *len;
            entry
                .file
                .write_all_at(data, offset)
                .map_err(|e| io_err("append", name, e))?;
            if self.durable {
                entry
                    .file
                    .sync_data()
                    .map_err(|e| io_err("sync", name, e))?;
            }
            *len = offset + data.len() as u64;
            offset
        };
        self.account(Dir::Write, data.len(), t0);
        Ok(offset)
    }

    fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), PdmError> {
        self.fail.check()?;
        let entry = self
            .lookup(name)?
            .ok_or_else(|| PdmError::NoSuchFile(name.to_string()))?;
        let file_len = *entry.len.lock();
        if offset + out.len() as u64 > file_len {
            return Err(PdmError::OutOfRange {
                file: name.to_string(),
                offset,
                len: out.len(),
                file_len,
            });
        }
        let t0 = Instant::now();
        entry
            .file
            .read_exact_at(out, offset)
            .map_err(|e| io_err("read", name, e))?;
        self.account(Dir::Read, out.len(), t0);
        Ok(())
    }

    fn read_up_to(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, PdmError> {
        self.fail.check()?;
        let entry = self
            .lookup(name)?
            .ok_or_else(|| PdmError::NoSuchFile(name.to_string()))?;
        let file_len = *entry.len.lock();
        let take = file_len.saturating_sub(offset).min(len as u64) as usize;
        let mut out = vec![0u8; take];
        if take > 0 {
            let t0 = Instant::now();
            entry
                .file
                .read_exact_at(&mut out, offset)
                .map_err(|e| io_err("read", name, e))?;
            self.account(Dir::Read, take, t0);
        } else {
            self.account(Dir::Read, 0, Instant::now());
        }
        Ok(out)
    }

    /// # Panics
    ///
    /// Provisioning is infallible in the trait contract; an I/O error
    /// while installing the file (disk full, bad root) aborts with a
    /// message rather than silently corrupting experiment input.
    fn load(&self, name: &str, bytes: Vec<u8>) {
        let entry = self
            .lookup_or_create(name)
            .expect("load: open backing file");
        let mut len = entry.len.lock();
        entry
            .file
            .write_all_at(&bytes, 0)
            .expect("load: write backing file");
        entry
            .file
            .set_len(bytes.len() as u64)
            .expect("load: truncate backing file");
        *len = bytes.len() as u64;
    }

    fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        let entry = self.lookup(name).ok()??;
        let len = *entry.len.lock();
        let mut out = vec![0u8; len as usize];
        entry.file.read_exact_at(&mut out, 0).ok()?;
        Some(out)
    }

    fn len(&self, name: &str) -> Option<u64> {
        let entry = self.lookup(name).ok()??;
        let len = *entry.len.lock();
        Some(len)
    }

    fn exists(&self, name: &str) -> bool {
        self.lookup(name).map(|e| e.is_some()).unwrap_or(false)
    }

    fn delete(&self, name: &str) -> bool {
        // The map stays locked until the file is gone, so no reader can
        // open it in between.
        let mut files = self.files.write();
        let cached = files.remove(name).is_some();
        let removed = fs::remove_file(self.path_of(name)).is_ok();
        cached || removed
    }

    fn list(&self) -> Vec<String> {
        let Ok(dir) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        dir.filter_map(|e| e.ok())
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .collect()
    }

    fn stats(&self) -> DiskStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset()
    }

    fn fail_after_ops(&self, ops: u64) {
        OsDisk::fail_after_ops(self, ops)
    }

    /// A `pwrite` that returned is in the kernel, where every later read
    /// sees it: there is nothing to wait for.
    fn land(&self) -> Result<(), PdmError> {
        Ok(())
    }

    /// Durability barrier: force completed writes down to the device.
    fn flush(&self) -> Result<(), PdmError> {
        let entries: Vec<(String, Arc<Entry>)> = self
            .files
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        for (name, entry) in entries {
            entry
                .file
                .sync_data()
                .map_err(|e| io_err("sync", &name, e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;

    fn scratch_disk() -> (ScratchDir, Arc<OsDisk>) {
        let dir = ScratchDir::new("osdisk").expect("scratch dir");
        let disk = OsDisk::new(dir.path()).expect("os disk");
        (dir, disk)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (_dir, d) = scratch_disk();
        d.write_at("f", 0, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        d.read_at("f", 0, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn write_at_offset_grows_zero_filled() {
        let (_dir, d) = scratch_disk();
        d.write_at("f", 4, &[9]).unwrap();
        assert_eq!(d.len("f"), Some(5));
        let mut out = [1u8; 5];
        d.read_at("f", 0, &mut out).unwrap();
        assert_eq!(out, [0, 0, 0, 0, 9]);
    }

    #[test]
    fn append_returns_offsets() {
        let (_dir, d) = scratch_disk();
        assert_eq!(d.append("f", &[1, 2]).unwrap(), 0);
        assert_eq!(d.append("f", &[3]).unwrap(), 2);
        assert_eq!(d.len("f"), Some(3));
    }

    #[test]
    fn read_past_end_and_missing_file_fail() {
        let (_dir, d) = scratch_disk();
        let mut out = [0u8; 2];
        assert!(matches!(
            d.read_at("nope", 0, &mut out),
            Err(PdmError::NoSuchFile(_))
        ));
        d.write_at("f", 0, &[1]).unwrap();
        assert!(matches!(
            d.read_at("f", 0, &mut out),
            Err(PdmError::OutOfRange { .. })
        ));
    }

    #[test]
    fn read_up_to_short_reads() {
        let (_dir, d) = scratch_disk();
        d.write_at("f", 0, &[1, 2, 3]).unwrap();
        assert_eq!(d.read_up_to("f", 2, 10).unwrap(), vec![3]);
        assert_eq!(d.read_up_to("f", 5, 10).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn load_snapshot_cost_free_and_truncating() {
        let (_dir, d) = scratch_disk();
        d.load("f", vec![1; 100]);
        d.load("f", vec![2; 10]); // shrinks: stale tail must not survive
        assert_eq!(d.snapshot("f").unwrap(), vec![2; 10]);
        assert_eq!(d.stats(), DiskStats::default());
    }

    #[test]
    fn delete_list_exists() {
        let (_dir, d) = scratch_disk();
        d.write_at("a", 0, &[1]).unwrap();
        d.write_at("b", 0, &[2]).unwrap();
        let mut names = d.list();
        names.sort();
        assert_eq!(names, ["a", "b"]);
        assert!(d.exists("a"));
        assert!(d.delete("a"));
        assert!(!d.delete("a"));
        assert!(!d.exists("a"));
        assert_eq!(d.list(), ["b"]);
    }

    #[test]
    fn files_persist_across_handles() {
        let dir = ScratchDir::new("osdisk-reopen").expect("scratch dir");
        {
            let d = OsDisk::new(dir.path()).expect("os disk");
            d.write_at("f", 0, b"hello").unwrap();
        }
        let d = OsDisk::new(dir.path()).expect("os disk");
        assert_eq!(d.snapshot("f").unwrap(), b"hello");
        assert_eq!(d.len("f"), Some(5));
    }

    #[test]
    fn rejects_escaping_names() {
        let (_dir, d) = scratch_disk();
        assert!(matches!(d.write_at("a/b", 0, &[1]), Err(PdmError::Io(_))));
        assert!(matches!(d.write_at("..", 0, &[1]), Err(PdmError::Io(_))));
    }

    #[test]
    fn failure_injection_applies() {
        let (_dir, d) = scratch_disk();
        d.fail_after_ops(1);
        d.write_at("f", 0, &[1]).unwrap();
        assert_eq!(d.write_at("f", 0, &[2]), Err(PdmError::DiskFailed));
        // Provisioning hooks stay out-of-band.
        d.load("g", vec![7]);
        assert_eq!(d.snapshot("g").unwrap(), vec![7]);
    }

    #[test]
    fn stats_record_real_io() {
        let (_dir, d) = scratch_disk();
        d.write_at("f", 0, &[0; 100]).unwrap();
        let mut out = [0u8; 40];
        d.read_at("f", 0, &mut out).unwrap();
        let s = d.stats();
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_read, 40);
        assert_eq!(s.write_ops, 1);
        assert_eq!(s.read_ops, 1);
    }
}
