//! The I/O scheduler: read-ahead and write-behind on a dedicated thread.
//!
//! An [`IoScheduler`] wraps any [`Disk`] backend and earns overlap the way
//! an operating system does, but under the pipeline's control:
//!
//! * **Read-ahead** — every `read_at` predicts the next sequential reads
//!   (`offset + k·len` for `k = 1..=depth`) and queues them for the disk's
//!   I/O thread, which fetches into spare heap buffers while the stage
//!   consumes the current round's data.  A later read of a predicted
//!   offset is served from the prefetched copy (a *hit*); anything else
//!   falls through to a synchronous backend read (a *miss*).
//! * **Write-behind** — `write_at`/`append` enqueue an owned copy and
//!   return immediately, so the stage's buffer recycles sink→source
//!   without waiting on the backend.  The I/O thread drains the queue in
//!   arrival order, *coalescing* runs of writes to adjacent offsets of one
//!   file into single backend writes (the chunk framing in the sort's
//!   write stages produces exactly such runs).  The first failed deferred
//!   write is remembered and surfaces at the next [`flush`](Disk::flush)
//!   — the pass-end barrier every pipeline runs.
//!
//! Consistency: a read (or `len`/`snapshot`/`delete`/`load`) of a file
//! with queued writes first waits for those writes to drain, and a write
//! invalidates any prefetched data for its file, so the scheduler is
//! transparent — callers see exactly the backend's semantics, minus the
//! waiting.
//!
//! With a metrics registry attached, the scheduler reports
//! `disk/{label}/prefetch_hit`, `disk/{label}/prefetch_miss`, and the
//! `disk/{label}/writeback_queue_depth` gauge, which the bottleneck
//! analyzer folds into a prefetch hit rate.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use fg_core::metrics::{Counter, Gauge, MetricsRegistry};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::disk::{Disk, DiskRef, DiskStats};
use crate::PdmError;

/// A prefetch slot is identified by its file and starting offset.
type Key = (String, u64);

struct WriteOp {
    file: String,
    offset: u64,
    data: Vec<u8>,
}

struct FetchReq {
    file: String,
    offset: u64,
    len: usize,
}

/// Scheduler metric handles (see module docs for names).
struct SchedMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

struct State {
    /// Deferred writes in arrival order.
    writes: VecDeque<WriteOp>,
    /// Queued + in-flight write count per file; a file absent here has no
    /// pending writes and is safe to read.
    file_pending: HashMap<String, usize>,
    /// Writes handed to the backend but not yet completed.
    inflight_writes: usize,
    /// Prefetch requests not yet started, with a mirror set for O(1)
    /// membership tests.
    fetch_queue: VecDeque<FetchReq>,
    queued: HashSet<Key>,
    /// The prefetch the I/O thread is performing right now, if any.
    in_flight_fetch: Option<Key>,
    /// In-flight prefetches invalidated by a write; their results are
    /// dropped on completion.
    poisoned: HashSet<Key>,
    /// Completed prefetches awaiting their read.
    fetched: HashMap<Key, Vec<u8>>,
    /// Logical file lengths (backend length + deferred writes applied),
    /// so `append` can hand out offsets without waiting for the queue.
    lens: HashMap<String, u64>,
    /// First deferred-write error; surfaced at `flush`.
    first_error: Option<PdmError>,
    shutdown: bool,
}

struct Shared {
    inner: DiskRef,
    state: Mutex<State>,
    /// Wakes the I/O thread (new work or shutdown).
    work_cv: Condvar,
    /// Wakes clients (writes drained, prefetch completed).
    idle_cv: Condvar,
    metrics: Option<SchedMetrics>,
    /// Flight-recorder ring for prefetch hit/miss spans (see
    /// [`IoScheduler::attach_trace`]); absent on untraced runs.
    ring: Mutex<Option<Arc<fg_core::SpanRing>>>,
    /// Bound on stored prefetches; surplus results are dropped.
    fetched_cap: usize,
}

impl Shared {
    fn set_queue_gauge(&self, st: &State) {
        if let Some(m) = &self.metrics {
            m.queue_depth
                .set((st.writes.len() + st.inflight_writes) as u64);
        }
    }

    fn logical_len(&self, st: &mut State, name: &str) -> u64 {
        if let Some(l) = st.lens.get(name) {
            return *l;
        }
        let l = self.inner.len(name).unwrap_or(0);
        st.lens.insert(name.to_string(), l);
        l
    }

    /// Drop every prefetch (stored, queued, or in flight) for `name`.
    fn invalidate_prefetch(&self, st: &mut State, name: &str) {
        st.fetched.retain(|k, _| k.0 != name);
        if !st.queued.is_empty() {
            st.fetch_queue.retain(|r| r.file != name);
            st.queued.retain(|k| k.0 != name);
        }
        if let Some(k) = &st.in_flight_fetch {
            if k.0 == name {
                st.poisoned.insert(k.clone());
            }
        }
    }

    /// Wait until `name` has no queued or in-flight writes.
    fn wait_file_drained<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        name: &str,
    ) -> MutexGuard<'a, State> {
        while st.file_pending.contains_key(name) {
            self.idle_cv.wait(&mut st);
        }
        st
    }

    /// Wait until no writes are queued or in flight at all.
    fn wait_all_drained<'a>(&'a self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        while !st.writes.is_empty() || st.inflight_writes > 0 {
            self.idle_cv.wait(&mut st);
        }
        st
    }
}

/// Merge consecutive writes to adjacent offsets of the same file into
/// single backend writes, preserving arrival order (so overlapping writes
/// still land last-writer-wins).
fn coalesce(ops: Vec<WriteOp>) -> Vec<WriteOp> {
    let mut out: Vec<WriteOp> = Vec::with_capacity(ops.len());
    for op in ops {
        if let Some(prev) = out.last_mut() {
            if prev.file == op.file && prev.offset + prev.data.len() as u64 == op.offset {
                prev.data.extend_from_slice(&op.data);
                continue;
            }
        }
        out.push(op);
    }
    out
}

/// The largest read-ahead depth a scheduler will accept, from
/// construction or a later [`IoScheduler::set_depth`].  Bounds the
/// prefetch store so a runaway controller cannot buffer a whole file.
pub const MAX_IO_DEPTH: usize = 64;

/// A [`Disk`] wrapper that overlaps its backend's I/O with the caller:
/// read-ahead prefetching and coalescing write-behind on a dedicated I/O
/// thread per disk.  See the module docs for the full contract.
pub struct IoScheduler {
    shared: Arc<Shared>,
    /// How many sequential blocks ahead of each read stream to prefetch.
    /// Atomic so a live controller can retune it mid-run
    /// ([`set_depth`](IoScheduler::set_depth)).
    depth: AtomicUsize,
    /// Disk label for decisions and metrics (`d0`, …; `io` when unnamed).
    label: String,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl IoScheduler {
    /// Wrap `inner`, prefetching up to `depth` blocks ahead of every
    /// sequential read stream.  Fails with [`PdmError::Config`] if `depth`
    /// is zero or above [`MAX_IO_DEPTH`] — callers who want no scheduling
    /// should use the backend directly.
    pub fn new(inner: DiskRef, depth: usize) -> Result<Arc<Self>, PdmError> {
        Self::build(inner, depth, None, "io")
    }

    /// Like [`IoScheduler::new`], recording prefetch hit/miss counters and
    /// the write-behind queue-depth gauge into `registry` under
    /// `disk/{label}/…`.
    pub fn with_metrics(
        inner: DiskRef,
        depth: usize,
        registry: &MetricsRegistry,
        label: &str,
    ) -> Result<Arc<Self>, PdmError> {
        let metrics = SchedMetrics {
            hits: registry.counter(&format!("disk/{label}/prefetch_hit")),
            misses: registry.counter(&format!("disk/{label}/prefetch_miss")),
            queue_depth: registry.gauge(&format!("disk/{label}/writeback_queue_depth")),
        };
        Self::build(inner, depth, Some(metrics), label)
    }

    fn build(
        inner: DiskRef,
        depth: usize,
        metrics: Option<SchedMetrics>,
        label: &str,
    ) -> Result<Arc<Self>, PdmError> {
        if !(1..=MAX_IO_DEPTH).contains(&depth) {
            return Err(PdmError::Config(format!(
                "io scheduler depth must be in 1..={MAX_IO_DEPTH}, got {depth} \
                 (use the backend directly for unscheduled I/O)"
            )));
        }
        let shared = Arc::new(Shared {
            inner,
            state: Mutex::new(State {
                writes: VecDeque::new(),
                file_pending: HashMap::new(),
                inflight_writes: 0,
                fetch_queue: VecDeque::new(),
                queued: HashSet::new(),
                in_flight_fetch: None,
                poisoned: HashSet::new(),
                fetched: HashMap::new(),
                lens: HashMap::new(),
                first_error: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            metrics,
            ring: Mutex::new(None),
            // Sized for the ceiling, not the starting depth, so a live
            // depth raise never outgrows the store.
            fetched_cap: 8 * MAX_IO_DEPTH + 32,
        });
        let worker_shared = Arc::clone(&shared);
        let profile_name = format!("io/{label}");
        let worker = std::thread::Builder::new()
            .name("fg-io-sched".into())
            .spawn(move || {
                // Register with the resource profiler so read-ahead CPU
                // shows up as its own row, attributed to this scheduler.
                let _reg = fg_core::profile::register_current_thread(profile_name);
                worker_loop(&worker_shared)
            })
            .expect("spawn io scheduler thread");
        Ok(Arc::new(IoScheduler {
            shared,
            depth: AtomicUsize::new(depth),
            label: label.to_string(),
            worker: Mutex::new(Some(worker)),
        }))
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &DiskRef {
        &self.shared.inner
    }

    /// Current read-ahead depth.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Retune the read-ahead depth mid-run, clamped to
    /// `1..=`[`MAX_IO_DEPTH`].  Takes effect on the next read; already
    /// queued prefetches are unaffected.  Returns the applied depth.
    pub fn set_depth(&self, depth: usize) -> usize {
        let d = depth.clamp(1, MAX_IO_DEPTH);
        self.depth.store(d, Ordering::Relaxed);
        d
    }

    /// The scheduler's disk label (`d0`, …; `io` when constructed without
    /// metrics).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Register this scheduler with a flight recorder: every `read_at`
    /// logs a `prefetch-hit` or `prefetch-miss` span (on the
    /// [`IO_PIPELINE`](fg_core::trace::IO_PIPELINE) sentinel track, round
    /// = block index) into a ring named `io/{label}`, so traces show
    /// which reads went cold to the backend and when.
    pub fn attach_trace(&self, sink: &fg_core::TraceSink, label: &str) {
        *self.shared.ring.lock() = Some(sink.register_thread(format!("io/{label}")));
    }

    /// Queue read-ahead for the blocks a sequential reader at
    /// (`name`, `offset`, `len`) will want next.
    fn schedule_read_ahead(&self, name: &str, offset: u64, len: usize) {
        if len == 0 {
            return;
        }
        let sh = &self.shared;
        let mut st = sh.state.lock();
        let flen = sh.logical_len(&mut st, name);
        let mut notify = false;
        for k in 1..=self.depth() {
            let off = offset + (k * len) as u64;
            // Only whole blocks: a short tail read would mismatch the
            // consumer's exact-length request anyway.
            if off + len as u64 > flen {
                break;
            }
            let key = (name.to_string(), off);
            if st.fetched.contains_key(&key)
                || st.queued.contains(&key)
                || st.in_flight_fetch.as_ref() == Some(&key)
            {
                continue;
            }
            st.queued.insert(key);
            st.fetch_queue.push_back(FetchReq {
                file: name.to_string(),
                offset: off,
                len,
            });
            notify = true;
        }
        if notify {
            sh.work_cv.notify_one();
        }
    }
}

fn worker_loop(sh: &Shared) {
    enum Job {
        Writes(Vec<WriteOp>),
        Fetch(FetchReq),
        Exit,
    }
    loop {
        let job = {
            let mut st = sh.state.lock();
            loop {
                if !st.writes.is_empty() {
                    // Writes outrank prefetches: readers of these files are
                    // barred until they drain, while prefetches are
                    // speculative.
                    let batch: Vec<WriteOp> = st.writes.drain(..).collect();
                    st.inflight_writes = batch.len();
                    break Job::Writes(batch);
                }
                if let Some(req) = st.fetch_queue.pop_front() {
                    let key = (req.file.clone(), req.offset);
                    st.queued.remove(&key);
                    st.in_flight_fetch = Some(key);
                    break Job::Fetch(req);
                }
                if st.shutdown {
                    break Job::Exit;
                }
                sh.work_cv.wait(&mut st);
            }
        };
        match job {
            Job::Exit => return,
            Job::Writes(batch) => {
                let files: Vec<String> = batch.iter().map(|op| op.file.clone()).collect();
                let mut err = None;
                for op in coalesce(batch) {
                    if let Err(e) = sh.inner.write_at(&op.file, op.offset, &op.data) {
                        if err.is_none() {
                            err = Some(e);
                        }
                    }
                }
                let mut st = sh.state.lock();
                for f in files {
                    if let Some(n) = st.file_pending.get_mut(&f) {
                        *n -= 1;
                        if *n == 0 {
                            st.file_pending.remove(&f);
                        }
                    }
                }
                st.inflight_writes = 0;
                if let Some(e) = err {
                    if st.first_error.is_none() {
                        st.first_error = Some(e);
                    }
                }
                sh.set_queue_gauge(&st);
                sh.idle_cv.notify_all();
            }
            Job::Fetch(req) => {
                let res = sh.inner.read_up_to(&req.file, req.offset, req.len);
                let mut st = sh.state.lock();
                let key = (req.file, req.offset);
                let poisoned = st.poisoned.remove(&key);
                if !poisoned {
                    if let Ok(data) = res {
                        if st.fetched.len() < sh.fetched_cap {
                            st.fetched.insert(key.clone(), data);
                        }
                    }
                    // A failed prefetch is dropped: the consumer's own read
                    // takes the synchronous path and surfaces the error.
                }
                st.in_flight_fetch = None;
                sh.idle_cv.notify_all();
            }
        }
    }
}

impl Disk for IoScheduler {
    fn depth_actuator(self: Arc<Self>) -> Option<Arc<dyn fg_core::controller::DepthActuator>> {
        Some(self)
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), PdmError> {
        let sh = &self.shared;
        let mut st = sh.state.lock();
        sh.invalidate_prefetch(&mut st, name);
        let flen = sh.logical_len(&mut st, name);
        st.lens
            .insert(name.to_string(), flen.max(offset + data.len() as u64));
        st.writes.push_back(WriteOp {
            file: name.to_string(),
            offset,
            data: data.to_vec(),
        });
        *st.file_pending.entry(name.to_string()).or_insert(0) += 1;
        sh.set_queue_gauge(&st);
        sh.work_cv.notify_one();
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PdmError> {
        let sh = &self.shared;
        let mut st = sh.state.lock();
        sh.invalidate_prefetch(&mut st, name);
        let offset = sh.logical_len(&mut st, name);
        st.lens.insert(name.to_string(), offset + data.len() as u64);
        st.writes.push_back(WriteOp {
            file: name.to_string(),
            offset,
            data: data.to_vec(),
        });
        *st.file_pending.entry(name.to_string()).or_insert(0) += 1;
        sh.set_queue_gauge(&st);
        sh.work_cv.notify_one();
        Ok(offset)
    }

    fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), PdmError> {
        let sh = &self.shared;
        let ring = sh.ring.lock().clone();
        let t0 = ring.as_ref().map(|_| std::time::Instant::now());
        let key = (name.to_string(), offset);
        let mut hit = false;
        {
            let st = sh.state.lock();
            let mut st = sh.wait_file_drained(st, name);
            // A queued-but-unstarted prefetch for this exact block is
            // stolen: the synchronous read below beats waiting behind the
            // queue.
            if st.queued.remove(&key) {
                st.fetch_queue
                    .retain(|r| !(r.file == name && r.offset == offset));
            }
            while st.in_flight_fetch.as_ref() == Some(&key) {
                sh.idle_cv.wait(&mut st);
            }
            if let Some(data) = st.fetched.remove(&key) {
                if data.len() == out.len() {
                    out.copy_from_slice(&data);
                    hit = true;
                }
            }
        }
        let read = if hit {
            if let Some(m) = &sh.metrics {
                m.hits.inc();
            }
            Ok(())
        } else {
            let res = sh.inner.read_at(name, offset, out);
            if res.is_ok() {
                if let Some(m) = &sh.metrics {
                    m.misses.inc();
                }
            }
            res
        };
        if let (Some(r), Some(t0)) = (&ring, t0) {
            let kind = if hit {
                fg_core::TraceKind::PrefetchHit
            } else {
                fg_core::TraceKind::PrefetchMiss
            };
            let block = offset / out.len().max(1) as u64;
            r.record(
                kind,
                fg_core::trace::IO_PIPELINE,
                block,
                0,
                r.ns_of(t0),
                r.now_ns(),
            );
        }
        read?;
        self.schedule_read_ahead(name, offset, out.len());
        Ok(())
    }

    fn read_up_to(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, PdmError> {
        let sh = &self.shared;
        {
            let st = sh.state.lock();
            drop(sh.wait_file_drained(st, name));
        }
        sh.inner.read_up_to(name, offset, len)
    }

    fn load(&self, name: &str, bytes: Vec<u8>) {
        let sh = &self.shared;
        {
            let st = sh.state.lock();
            let mut st = sh.wait_file_drained(st, name);
            sh.invalidate_prefetch(&mut st, name);
            st.lens.remove(name);
        }
        sh.inner.load(name, bytes)
    }

    fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        let sh = &self.shared;
        {
            let st = sh.state.lock();
            drop(sh.wait_file_drained(st, name));
        }
        sh.inner.snapshot(name)
    }

    fn len(&self, name: &str) -> Option<u64> {
        let sh = &self.shared;
        {
            let st = sh.state.lock();
            drop(sh.wait_file_drained(st, name));
        }
        sh.inner.len(name)
    }

    fn exists(&self, name: &str) -> bool {
        let sh = &self.shared;
        {
            let st = sh.state.lock();
            drop(sh.wait_file_drained(st, name));
        }
        sh.inner.exists(name)
    }

    fn delete(&self, name: &str) -> bool {
        let sh = &self.shared;
        {
            let st = sh.state.lock();
            let mut st = sh.wait_file_drained(st, name);
            sh.invalidate_prefetch(&mut st, name);
            st.lens.remove(name);
        }
        sh.inner.delete(name)
    }

    fn list(&self) -> Vec<String> {
        let sh = &self.shared;
        {
            let st = sh.state.lock();
            drop(sh.wait_all_drained(st));
        }
        sh.inner.list()
    }

    fn stats(&self) -> DiskStats {
        self.shared.inner.stats()
    }

    fn reset_stats(&self) {
        self.shared.inner.reset_stats()
    }

    fn fail_after_ops(&self, ops: u64) {
        self.shared.inner.fail_after_ops(ops)
    }

    fn reserve(&self, name: &str, bytes: u64) {
        self.shared.inner.reserve(name, bytes)
    }

    fn flush(&self) -> Result<(), PdmError> {
        let sh = &self.shared;
        let first_error = {
            let st = sh.state.lock();
            let mut st = sh.wait_all_drained(st);
            st.first_error.take()
        };
        match first_error {
            Some(e) => Err(e),
            None => sh.inner.flush(),
        }
    }
}

impl fg_core::controller::DepthActuator for IoScheduler {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn io_depth(&self) -> usize {
        self.depth()
    }

    fn set_io_depth(&self, depth: usize) -> usize {
        self.set_depth(depth)
    }
}

impl Drop for IoScheduler {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        if let Some(h) = self.worker.lock().take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskCfg, SimDisk};

    fn sched(depth: usize) -> (Arc<SimDisk>, Arc<IoScheduler>) {
        let inner = SimDisk::new(DiskCfg::zero());
        let s = IoScheduler::new(inner.clone() as DiskRef, depth).unwrap();
        (inner, s)
    }

    #[test]
    fn zero_or_oversized_depth_is_a_config_error() {
        let inner = SimDisk::new(DiskCfg::zero());
        for bad in [0, MAX_IO_DEPTH + 1] {
            match IoScheduler::new(inner.clone() as DiskRef, bad) {
                Err(PdmError::Config(msg)) => assert!(msg.contains("depth"), "{msg}"),
                Err(other) => panic!("expected Config error for depth {bad}, got {other:?}"),
                Ok(_) => panic!("expected Config error for depth {bad}, got Ok"),
            }
        }
    }

    #[test]
    fn depth_is_retunable_and_clamped() {
        let (_inner, s) = sched(2);
        assert_eq!(s.depth(), 2);
        assert_eq!(s.set_depth(8), 8);
        assert_eq!(s.depth(), 8);
        assert_eq!(s.set_depth(0), 1);
        assert_eq!(s.set_depth(usize::MAX), MAX_IO_DEPTH);
    }

    #[test]
    fn raised_depth_prefetches_further_ahead() {
        use fg_core::controller::DepthActuator;
        let reg = MetricsRegistry::new();
        let inner = SimDisk::new(DiskCfg::zero());
        let s = IoScheduler::with_metrics(inner as DiskRef, 1, &reg, "d7").unwrap();
        assert_eq!(DepthActuator::label(&*s), "d7");
        s.load("f", vec![0u8; 1024]);
        let mut buf = [0u8; 64];
        s.read_at("f", 0, &mut buf).unwrap();
        s.set_io_depth(4);
        assert_eq!(s.io_depth(), 4);
        // The retuned depth applies to the very next read's predictions.
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.read_at("f", 64, &mut buf).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        for block in 2..6u64 {
            s.read_at("f", block * 64, &mut buf).unwrap();
        }
        let snap = reg.snapshot();
        let hits = snap.counter("disk/d7/prefetch_hit").unwrap_or(0);
        assert!(hits >= 4, "hits={hits}");
    }

    #[test]
    fn coalesce_merges_adjacent_runs() {
        let op = |file: &str, offset: u64, data: &[u8]| WriteOp {
            file: file.into(),
            offset,
            data: data.to_vec(),
        };
        let out = coalesce(vec![
            op("a", 0, &[1, 2]),
            op("a", 2, &[3]),
            op("a", 10, &[4]),
            op("b", 11, &[5]),
            op("a", 11, &[6]),
        ]);
        let got: Vec<(String, u64, Vec<u8>)> = out
            .into_iter()
            .map(|o| (o.file, o.offset, o.data))
            .collect();
        assert_eq!(
            got,
            vec![
                ("a".into(), 0, vec![1, 2, 3]),
                ("a".into(), 10, vec![4]),
                ("b".into(), 11, vec![5]),
                ("a".into(), 11, vec![6]),
            ]
        );
    }

    #[test]
    fn read_after_write_sees_data_without_flush() {
        let (_inner, s) = sched(2);
        s.write_at("f", 0, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        s.read_at("f", 0, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn sequential_reads_hit_the_prefetcher() {
        let reg = MetricsRegistry::new();
        let inner = SimDisk::new(DiskCfg::zero());
        let s = IoScheduler::with_metrics(inner as DiskRef, 2, &reg, "d0").unwrap();
        let data: Vec<u8> = (0..=255).collect();
        s.load("f", data.clone());
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        for block in 0..4 {
            s.read_at("f", block * 64, &mut buf).unwrap();
            got.extend_from_slice(&buf);
            // Simulate the stage's compute on the block: the gap the
            // prefetcher needs to get ahead (a back-to-back reader steals
            // its own predictions and stays on the synchronous path).
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(got, data);
        let snap = reg.snapshot();
        let hits = snap.counter("disk/d0/prefetch_hit").unwrap_or(0);
        let misses = snap.counter("disk/d0/prefetch_miss").unwrap_or(0);
        assert_eq!(hits + misses, 4);
        // The first read is always cold; everything after it was predicted.
        assert!(hits >= 3, "hits={hits} misses={misses}");
    }

    #[test]
    fn append_hands_out_offsets_immediately() {
        let (inner, s) = sched(1);
        assert_eq!(s.append("f", &[1, 2]).unwrap(), 0);
        assert_eq!(s.append("f", &[3]).unwrap(), 2);
        s.flush().unwrap();
        assert_eq!(inner.snapshot("f").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn deferred_write_error_surfaces_at_flush() {
        let (inner, s) = sched(1);
        inner.fail_after_ops(0);
        // Accepted immediately; the failure is the backend's to report.
        s.write_at("f", 0, &[1]).unwrap();
        assert_eq!(s.flush(), Err(PdmError::DiskFailed));
        // The error is consumed: the next pass starts clean.
        assert_eq!(s.flush(), Ok(()));
    }

    #[test]
    fn write_invalidates_prefetched_data() {
        let (_inner, s) = sched(4);
        s.load("f", vec![0u8; 64]);
        let mut buf = [0u8; 16];
        s.read_at("f", 0, &mut buf).unwrap(); // schedules 16..64
        s.write_at("f", 16, &[9; 16]).unwrap();
        s.read_at("f", 16, &mut buf).unwrap();
        assert_eq!(buf, [9; 16]);
    }

    #[test]
    fn snapshot_and_len_wait_for_writeback() {
        let (_inner, s) = sched(1);
        for i in 0..64u64 {
            s.write_at("f", i * 4, &[i as u8; 4]).unwrap();
        }
        assert_eq!(s.len("f"), Some(256));
        let snap = s.snapshot("f").unwrap();
        assert_eq!(snap.len(), 256);
        assert_eq!(&snap[252..], &[63, 63, 63, 63]);
    }

    #[test]
    fn coalescing_reduces_backend_write_ops() {
        // Stall the worker behind a first write so the rest queue up.
        let slow = SimDisk::new(DiskCfg::new(
            std::time::Duration::from_millis(20),
            f64::INFINITY,
        ));
        let s2 = IoScheduler::new(slow.clone() as DiskRef, 1).unwrap();
        for i in 0..8u64 {
            s2.write_at("f", i * 8, &[i as u8; 8]).unwrap();
        }
        s2.flush().unwrap();
        // 8 adjacent writes; the first may dispatch alone, the rest
        // coalesce into at most a couple of backend ops.
        assert!(
            slow.stats().write_ops < 8,
            "write_ops={}",
            slow.stats().write_ops
        );
        assert_eq!(slow.stats().bytes_written, 64);
    }

    #[test]
    fn works_against_os_disk() {
        let dir = crate::ScratchDir::new("sched-os").unwrap();
        let inner = crate::OsDisk::new(dir.path()).unwrap();
        let s = IoScheduler::new(inner as DiskRef, 2).unwrap();
        let data: Vec<u8> = (0..128u8).map(|b| b.wrapping_mul(7)).collect();
        for (i, chunk) in data.chunks(32).enumerate() {
            s.write_at("f", (i * 32) as u64, chunk).unwrap();
        }
        s.flush().unwrap();
        let mut buf = [0u8; 32];
        let mut got = Vec::new();
        for i in 0..4 {
            s.read_at("f", i * 32, &mut buf).unwrap();
            got.extend_from_slice(&buf);
        }
        assert_eq!(got, data);
    }
}
