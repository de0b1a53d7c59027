//! The I/O scheduler: read-ahead and write-behind on a dedicated thread,
//! over a fixed population of bytes that circulates.
//!
//! An [`IoScheduler`] wraps any [`Disk`] backend and earns overlap the way
//! an operating system does, but under the pipeline's control and inside a
//! stated memory bound:
//!
//! * **Write-behind** — two *staging buffers* per scheduler.
//!   `write_at`/`append` copy the caller's bytes to the end of the one that
//!   is *filling*, record an extent `(file, offset, range)` and return, so
//!   the stage's buffer recycles sink→source without waiting on the
//!   backend.  A write adjacent to the previous extent just lengthens it, so
//!   runs of adjacent writes (the chunk framing in the sort's write stages
//!   produces exactly such runs) coalesce as they arrive.  The I/O thread
//!   trades the filling buffer for the empty one it holds (`mem::swap`) and
//!   issues one backend write per extent, in arrival order, while the next
//!   writes fill the other buffer.  A writer that finds the filling buffer
//!   at [`STAGING_CAP_BYTES`] while the other is still draining **blocks**
//!   until the trade — back-pressure, so the scheduler never holds more
//!   than `2 × STAGING_CAP_BYTES` of deferred writes (an empty buffer
//!   accepts one write of any size, so a single larger write raises the
//!   bound to its own size for as long as it is held).  The first failed
//!   deferred write is remembered and surfaces at the next
//!   [`land`](Disk::land) — the pass-end barrier every pipeline runs — or
//!   [`flush`](Disk::flush), which is `land` plus the backend's own `flush`.
//! * **Read-ahead** — every `read_at` predicts the next sequential reads
//!   (`offset + k·len` for `k = 1..=depth`) and queues them for the I/O
//!   thread, which reads each into a recycled block buffer while the stage
//!   consumes the current round's data.  A later read of a predicted offset
//!   is served from the prefetched copy (a *hit*) and hands the block
//!   buffer back for the next prefetch; anything else falls through to a
//!   synchronous backend read (a *miss*).  A block buffer is created only
//!   when every existing one is stored or being filled, so there are never
//!   more of them than the prefetch store holds at its peak: `depth` blocks
//!   per read stream, `fetched_cap + 1` overall.
//!
//! Both kinds of buffer grow to their working size and keep it (a staging
//! buffer by doubling up to the cap, and exactly to a single write above
//! it), and file names are interned to a `Copy` id on first sight, so after
//! the first lap no operation allocates.
//!
//! Consistency: a read (or `len`/`snapshot`/`delete`/`load`) of a file
//! with staged writes first waits for those writes to land, and a write
//! invalidates any prefetched data for its file, so the scheduler is
//! transparent — callers see exactly the backend's semantics, minus the
//! waiting.
//!
//! With a metrics registry attached, the scheduler reports
//! `disk/{label}/prefetch_hit`, `disk/{label}/prefetch_miss` and the
//! `disk/{label}/writeback_wait_ns` histogram (one sample per write call
//! that blocked on a full staging buffer).
//!
//! No program is handed a scheduler: a read stage's buffer pool already is
//! its read-ahead, and a write stage its write-behind (DESIGN.md §6).  Code
//! that measures the scheduler builds one explicitly.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use fg_core::metrics::{Counter, Histogram, MetricsRegistry};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::disk::{Disk, DiskRef, DiskStats};
use crate::PdmError;

/// Bytes a write-behind staging buffer holds before further writers wait
/// for the I/O thread: sixteen of the default 16 KiB stripe blocks, four of
/// dsort's 64 KiB runs.  Caps of 128, 256 and 512 KiB measured level on wall
/// and CPU time on the os-backed benchmark workloads, and the bytes held
/// grow with the cap (DESIGN.md, "I/O scheduler semantics").  A constant:
/// nothing in the repository needs a second value.
pub const STAGING_CAP_BYTES: usize = 256 << 10;

/// An interned file name: an index into [`State::files`].
type FileId = u32;

/// A prefetch slot is identified by its file and starting offset.
type Key = (FileId, u64);

/// What the scheduler knows about one file name it has seen.  Entries are
/// never removed (a deleted file keeps its id), so ids stay valid for
/// extents and prefetches in flight.
struct FileState {
    name: Arc<str>,
    /// Extents of this file in either staging buffer; zero means the file
    /// is safe to read.
    pending: usize,
    /// Logical length (backend length with staged writes applied), so
    /// `append` can hand out offsets without waiting for the I/O thread.
    len: Option<u64>,
    /// Prefetches of this file that are stored, queued or in flight; zero
    /// lets a write skip invalidation.
    prefetches: usize,
}

/// One backend write: `bytes[range]` of the staging buffer at `offset`.
struct Extent {
    file: FileId,
    offset: u64,
    range: Range<usize>,
}

/// A write-behind staging buffer: the bytes of deferred writes in arrival
/// order, and the extents that say where they go.
#[derive(Default)]
struct Staging {
    bytes: Vec<u8>,
    extents: Vec<Extent>,
    /// `write_at`/`append` calls staged here (calls, not extents).
    calls: usize,
}

impl Staging {
    /// Stage one write; returns whether it opened a new extent.
    fn push(&mut self, file: FileId, offset: u64, data: &[u8]) -> bool {
        let start = self.bytes.len();
        // Grow by doubling while that stays under the cap, and never past
        // what this write needs otherwise: a buffer the I/O thread keeps up
        // with stays small, and none overshoots the cap.
        let (need, capacity) = (start + data.len(), self.bytes.capacity());
        if need > capacity {
            let target = need.max((2 * capacity).min(STAGING_CAP_BYTES));
            self.bytes.reserve_exact(target - start);
        }
        self.bytes.extend_from_slice(data);
        self.calls += 1;
        match self.extents.last_mut() {
            // Only the *previous* extent may grow: arrival order is kept,
            // so overlapping writes still land last-writer-wins.
            Some(e) if e.file == file && e.offset + e.range.len() as u64 == offset => {
                e.range.end = self.bytes.len();
                false
            }
            _ => {
                self.extents.push(Extent {
                    file,
                    offset,
                    range: start..self.bytes.len(),
                });
                true
            }
        }
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.extents.clear();
        self.calls = 0;
    }
}

#[derive(Clone, Copy)]
struct FetchReq {
    file: FileId,
    offset: u64,
    len: usize,
}

/// Scheduler metric handles (see module docs for names).
struct SchedMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    writeback_wait: Arc<Histogram>,
}

struct State {
    ids: HashMap<Arc<str>, FileId>,
    files: Vec<FileState>,
    /// The staging buffer writers append to.  The other one is in the I/O
    /// thread's hands, empty or draining.
    filling: Staging,
    /// Bytes and write calls in the staging buffer being drained.
    draining_bytes: usize,
    draining_calls: usize,
    /// Writers parked on a full `filling`; a trade wakes them.
    writers_waiting: usize,
    /// Prefetch requests not yet started, with a mirror set for O(1)
    /// membership tests.
    fetch_queue: VecDeque<FetchReq>,
    queued: HashSet<Key>,
    /// The prefetch the I/O thread is performing right now, and whether a
    /// write has invalidated it (its result is then dropped).
    in_flight_fetch: Option<(Key, bool)>,
    /// Completed prefetches awaiting their read.
    fetched: HashMap<Key, Vec<u8>>,
    /// Block buffers between uses.
    spare: Vec<Vec<u8>>,
    /// First deferred-write error; surfaced at `land` or `flush`.
    first_error: Option<PdmError>,
    shutdown: bool,
}

impl State {
    fn id_of(&self, name: &str) -> Option<FileId> {
        self.ids.get(name).copied()
    }

    /// The id of `name`, interning it on first sight — the one place a file
    /// name is copied.
    fn intern(&mut self, name: &str) -> FileId {
        if let Some(id) = self.id_of(name) {
            return id;
        }
        let id = self.files.len() as FileId;
        let name: Arc<str> = name.into();
        self.ids.insert(Arc::clone(&name), id);
        self.files.push(FileState {
            name,
            pending: 0,
            len: None,
            prefetches: 0,
        });
        id
    }

    fn file(&mut self, id: FileId) -> &mut FileState {
        &mut self.files[id as usize]
    }

    /// Bytes of deferred writes the scheduler holds.
    #[cfg(test)]
    fn staged_bytes(&self) -> usize {
        self.filling.bytes.len() + self.draining_bytes
    }

    /// Drop every prefetch (stored, queued, or in flight) of `id`.
    fn invalidate_prefetch(&mut self, id: FileId) {
        if self.file(id).prefetches == 0 {
            return;
        }
        let State {
            fetched,
            spare,
            queued,
            fetch_queue,
            ..
        } = self;
        fetched.retain(|k, block| {
            if k.0 == id {
                spare.push(std::mem::take(block));
            }
            k.0 != id
        });
        queued.retain(|k| k.0 != id);
        fetch_queue.retain(|r| r.file != id);
        // An in-flight prefetch cannot be recalled; it takes itself off the
        // count when it completes.
        let in_flight = match &mut self.in_flight_fetch {
            Some((k, poisoned)) if k.0 == id => {
                *poisoned = true;
                1
            }
            _ => 0,
        };
        self.file(id).prefetches = in_flight;
    }
}

struct Shared {
    inner: DiskRef,
    state: Mutex<State>,
    /// Wakes the I/O thread (new work or shutdown).
    work_cv: Condvar,
    /// Wakes clients waiting for writes to land or a prefetch to complete.
    idle_cv: Condvar,
    /// Wakes writers parked on a full staging buffer.
    space_cv: Condvar,
    metrics: Option<SchedMetrics>,
    /// Bound on stored prefetches; surplus results are dropped.
    fetched_cap: usize,
}

impl Shared {
    fn logical_len(&self, st: &mut State, id: FileId) -> u64 {
        let file = st.file(id);
        *file
            .len
            .get_or_insert_with(|| self.inner.len(&file.name).unwrap_or(0))
    }

    /// Wait until `name` has no staged or draining writes; returns its id
    /// if the scheduler has seen the name at all.
    fn wait_file_drained<'a>(&'a self, name: &str) -> (MutexGuard<'a, State>, Option<FileId>) {
        let mut st = self.state.lock();
        let id = st.id_of(name);
        if let Some(id) = id {
            while st.file(id).pending > 0 {
                self.idle_cv.wait(&mut st);
            }
        }
        (st, id)
    }

    /// Wait until no writes are staged or draining at all.
    fn wait_all_drained(&self) -> MutexGuard<'_, State> {
        let mut st = self.state.lock();
        while st.filling.calls > 0 || st.draining_calls > 0 {
            self.idle_cv.wait(&mut st);
        }
        st
    }

    /// The barrier `land` and `flush` share: wait until every staged write
    /// has reached the backend, then hand over (and clear) the first error
    /// any of them met.
    fn drain(&self) -> Result<(), PdmError> {
        match self.wait_all_drained().first_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// `name` is about to be replaced or removed behind the scheduler's
    /// back: land its writes and forget what is cached about it.
    fn forget_file(&self, name: &str) {
        let (mut st, id) = self.wait_file_drained(name);
        if let Some(id) = id {
            st.invalidate_prefetch(id);
            st.file(id).len = None;
        }
    }

    /// Stage one deferred write at `offset` (the logical end of the file
    /// when `None`); returns the offset it will land at.
    fn stage_write(&self, name: &str, offset: Option<u64>, data: &[u8]) -> u64 {
        let mut st = self.state.lock();
        // Back-pressure first, so that everything after it is one atomic
        // step: an empty buffer takes a write of any size, a started one
        // takes what fits under the cap, and otherwise the writer waits
        // for the I/O thread to trade buffers.
        let mut blocked_since = None;
        while !st.filling.bytes.is_empty()
            && st.filling.bytes.len() + data.len() > STAGING_CAP_BYTES
        {
            blocked_since.get_or_insert_with(Instant::now);
            st.writers_waiting += 1;
            self.space_cv.wait(&mut st);
            st.writers_waiting -= 1;
        }
        if let (Some(m), Some(t0)) = (&self.metrics, blocked_since) {
            m.writeback_wait.record_duration(t0.elapsed());
        }
        let id = st.intern(name);
        st.invalidate_prefetch(id);
        let flen = self.logical_len(&mut st, id);
        let offset = offset.unwrap_or(flen);
        st.file(id).len = Some(flen.max(offset + data.len() as u64));
        if st.filling.push(id, offset, data) {
            st.file(id).pending += 1;
        }
        self.work_cv.notify_one();
        offset
    }
}

/// The largest read-ahead depth a scheduler accepts at construction.
pub const MAX_IO_DEPTH: usize = 64;

/// A [`Disk`] wrapper that overlaps its backend's I/O with the caller:
/// read-ahead prefetching and coalescing, back-pressured write-behind on a
/// dedicated I/O thread per disk.  See the module docs for the full
/// contract and the memory bound.
pub struct IoScheduler {
    shared: Arc<Shared>,
    /// How many sequential blocks ahead of each read stream to prefetch,
    /// fixed at construction.
    depth: usize,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl IoScheduler {
    /// Wrap `inner`, prefetching up to `depth` blocks ahead of every
    /// sequential read stream.  Fails with [`PdmError::Config`] if `depth`
    /// is zero or above [`MAX_IO_DEPTH`] — callers who want no scheduling
    /// should use the backend directly.
    pub fn new(inner: DiskRef, depth: usize) -> Result<Arc<Self>, PdmError> {
        Self::build(inner, depth, None)
    }

    /// Like [`IoScheduler::new`], recording prefetch hit/miss counters and
    /// the back-pressure wait histogram into `registry` under
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
            writeback_wait: registry.histogram(&format!("disk/{label}/writeback_wait_ns")),
        };
        Self::build(inner, depth, Some(metrics))
    }

    fn build(
        inner: DiskRef,
        depth: usize,
        metrics: Option<SchedMetrics>,
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
                ids: HashMap::new(),
                files: Vec::new(),
                filling: Staging::default(),
                draining_bytes: 0,
                draining_calls: 0,
                writers_waiting: 0,
                fetch_queue: VecDeque::new(),
                queued: HashSet::new(),
                in_flight_fetch: None,
                fetched: HashMap::new(),
                spare: Vec::new(),
                first_error: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            space_cv: Condvar::new(),
            metrics,
            // A stored block leaves only when it is read or invalidated,
            // so predictions nobody reads (a stream abandoned before its
            // end, a reader that jumps ahead) would pile up without bound;
            // past the cap a finished prefetch is dropped instead.
            fetched_cap: 8 * MAX_IO_DEPTH + 32,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("fg-io-sched".into())
            .spawn(move || {
                // Tag the thread so what it allocates (block buffers, queue
                // slots) shows up as the `io` row, not as `untagged`.
                let _tag = fg_core::alloc::thread_tag_scope(fg_core::register_tag("io"));
                worker_loop(&worker_shared)
            })
            .expect("spawn io scheduler thread");
        Ok(Arc::new(IoScheduler {
            shared,
            depth,
            worker: Mutex::new(Some(worker)),
        }))
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &DiskRef {
        &self.shared.inner
    }

    /// After a read of (`name`, `offset`, `len`): hand back the block
    /// buffer a hit was served from, and queue read-ahead for the blocks a
    /// sequential reader will want next.
    fn schedule_read_ahead(&self, name: &str, offset: u64, len: usize, served: Option<Vec<u8>>) {
        let sh = &self.shared;
        let mut st = sh.state.lock();
        st.spare.extend(served);
        if len == 0 {
            return;
        }
        let id = st.intern(name);
        let flen = sh.logical_len(&mut st, id);
        let mut notify = false;
        for k in 1..=self.depth {
            let off = offset + (k * len) as u64;
            // Only whole blocks: a short tail read would mismatch the
            // consumer's exact-length request anyway.
            if off + len as u64 > flen {
                break;
            }
            let key = (id, off);
            if st.fetched.contains_key(&key)
                || st.queued.contains(&key)
                || st.in_flight_fetch.is_some_and(|(k, _)| k == key)
            {
                continue;
            }
            st.queued.insert(key);
            st.fetch_queue.push_back(FetchReq {
                file: id,
                offset: off,
                len,
            });
            st.file(id).prefetches += 1;
            notify = true;
        }
        if notify {
            sh.work_cv.notify_one();
        }
    }
}

fn worker_loop(sh: &Shared) {
    enum Job {
        Drain,
        Fetch(FetchReq, Vec<u8>),
        Exit,
    }
    // The staging buffer that is not filling: empty between drains.
    let mut draining = Staging::default();
    // File names by id, copied from `State::files` (which only grows) so
    // backend calls can name their file without the state lock.
    let mut names: Vec<Arc<str>> = Vec::new();
    loop {
        let job = {
            let mut st = sh.state.lock();
            let job = loop {
                if st.filling.calls > 0 {
                    // Writes outrank prefetches: readers of these files are
                    // barred until they land, while prefetches are
                    // speculative.  Trade buffers: writers get the empty one.
                    std::mem::swap(&mut st.filling, &mut draining);
                    st.draining_bytes = draining.bytes.len();
                    st.draining_calls = draining.calls;
                    if st.writers_waiting > 0 {
                        sh.space_cv.notify_all();
                    }
                    break Job::Drain;
                }
                if let Some(req) = st.fetch_queue.pop_front() {
                    let key = (req.file, req.offset);
                    st.queued.remove(&key);
                    st.in_flight_fetch = Some((key, false));
                    // A new block buffer only when every existing one is
                    // stored or being filled: the population never exceeds
                    // the prefetch store's own peak.
                    let block = st.spare.pop().unwrap_or_default();
                    break Job::Fetch(req, block);
                }
                if st.shutdown {
                    break Job::Exit;
                }
                sh.work_cv.wait(&mut st);
            };
            names.extend(st.files[names.len()..].iter().map(|f| Arc::clone(&f.name)));
            job
        };
        match job {
            Job::Exit => return,
            Job::Drain => {
                let mut err = None;
                for e in &draining.extents {
                    let data = &draining.bytes[e.range.clone()];
                    if let Err(failed) = sh.inner.write_at(&names[e.file as usize], e.offset, data)
                    {
                        err.get_or_insert(failed);
                    }
                }
                let mut st = sh.state.lock();
                for e in &draining.extents {
                    st.file(e.file).pending -= 1;
                }
                draining.clear();
                st.draining_bytes = 0;
                st.draining_calls = 0;
                if let Some(e) = err {
                    st.first_error.get_or_insert(e);
                }
                sh.idle_cv.notify_all();
            }
            Job::Fetch(req, mut block) => {
                block.resize(req.len, 0);
                let res = sh
                    .inner
                    .read_at(&names[req.file as usize], req.offset, &mut block);
                let mut st = sh.state.lock();
                let (key, poisoned) = st.in_flight_fetch.take().expect("the fetch in flight");
                if res.is_ok() && !poisoned && st.fetched.len() < sh.fetched_cap {
                    st.fetched.insert(key, block);
                } else {
                    // A failed prefetch is dropped: the consumer's own read
                    // takes the synchronous path and surfaces the error.
                    st.file(req.file).prefetches -= 1;
                    st.spare.push(block);
                }
                sh.idle_cv.notify_all();
            }
        }
    }
}

impl Disk for IoScheduler {
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), PdmError> {
        self.shared.stage_write(name, Some(offset), data);
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PdmError> {
        Ok(self.shared.stage_write(name, None, data))
    }

    fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), PdmError> {
        let sh = &self.shared;
        let mut served = None;
        {
            let (mut st, id) = sh.wait_file_drained(name);
            if let Some(id) = id.filter(|&id| st.file(id).prefetches > 0) {
                let key = (id, offset);
                // A queued-but-unstarted prefetch for this exact block is
                // stolen: the synchronous read below beats waiting behind the
                // queue.
                if st.queued.remove(&key) {
                    st.fetch_queue
                        .retain(|r| !(r.file == id && r.offset == offset));
                    st.file(id).prefetches -= 1;
                }
                while st.in_flight_fetch.is_some_and(|(k, _)| k == key) {
                    sh.idle_cv.wait(&mut st);
                }
                served = st.fetched.remove(&key);
                if served.is_some() {
                    st.file(id).prefetches -= 1;
                }
            }
        }
        // The copy out of the block runs outside the lock; the block goes
        // back with the read-ahead request below.
        let hit = match &served {
            Some(block) if block.len() == out.len() => {
                out.copy_from_slice(block);
                true
            }
            _ => false,
        };
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
        // A failed read schedules nothing, but a block it took out of the
        // store still goes back.
        let len = if read.is_ok() { out.len() } else { 0 };
        self.schedule_read_ahead(name, offset, len, served);
        read
    }

    fn read_up_to(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, PdmError> {
        drop(self.shared.wait_file_drained(name));
        self.shared.inner.read_up_to(name, offset, len)
    }

    fn load(&self, name: &str, bytes: Vec<u8>) {
        self.shared.forget_file(name);
        self.shared.inner.load(name, bytes)
    }

    fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        drop(self.shared.wait_file_drained(name));
        self.shared.inner.snapshot(name)
    }

    fn len(&self, name: &str) -> Option<u64> {
        drop(self.shared.wait_file_drained(name));
        self.shared.inner.len(name)
    }

    fn exists(&self, name: &str) -> bool {
        drop(self.shared.wait_file_drained(name));
        self.shared.inner.exists(name)
    }

    fn delete(&self, name: &str) -> bool {
        self.shared.forget_file(name);
        self.shared.inner.delete(name)
    }

    fn list(&self) -> Vec<String> {
        drop(self.shared.wait_all_drained());
        self.shared.inner.list()
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

    fn land(&self) -> Result<(), PdmError> {
        self.shared.drain()?;
        self.shared.inner.land()
    }

    fn flush(&self) -> Result<(), PdmError> {
        self.shared.drain()?;
        self.shared.inner.flush()
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn sched(depth: usize) -> (Arc<SimDisk>, Arc<IoScheduler>) {
        let inner = SimDisk::new(DiskCfg::zero());
        let s = IoScheduler::new(inner.clone() as DiskRef, depth).unwrap();
        (inner, s)
    }

    /// A scheduler over a disk whose operations take the disk arm (any
    /// non-zero cost does), so a test that holds the arm decides when the
    /// I/O thread's backend call completes.
    fn armed_sched() -> (Arc<SimDisk>, Arc<IoScheduler>) {
        let inner = SimDisk::new(DiskCfg::new(Duration::from_micros(1), f64::INFINITY));
        let s = IoScheduler::new(inner.clone() as DiskRef, 1).unwrap();
        (inner, s)
    }

    /// Run `f` on a helper thread, so that a writer that is never woken
    /// fails the test instead of hanging it.
    fn run_bounded<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(r) => r,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("scheduler hung: a blocked client was never woken")
            }
            Err(_) => panic!("the test body panicked"),
        }
    }

    /// Spin until the scheduler's state satisfies `cond`.
    fn wait_until(s: &IoScheduler, cond: impl Fn(&State) -> bool) {
        while !cond(&s.shared.state.lock()) {
            std::thread::yield_now();
        }
    }

    /// Every file's prefetch count is what the store, the queue and the
    /// fetch in flight hold of it.
    fn assert_prefetch_counts(s: &IoScheduler) {
        let st = s.shared.state.lock();
        assert_eq!(st.queued.len(), st.fetch_queue.len());
        for (id, f) in st.files.iter().enumerate() {
            let id = id as FileId;
            let held = st.fetched.keys().filter(|k| k.0 == id).count()
                + st.queued.iter().filter(|k| k.0 == id).count()
                + st.in_flight_fetch.iter().filter(|(k, _)| k.0 == id).count();
            assert_eq!(f.prefetches, held, "file {}", f.name);
        }
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
    fn adjacent_writes_reach_the_backend_as_fewer_ops() {
        let (inner, s) = armed_sched();
        // Park the I/O thread inside a first backend write, so everything
        // after it is staged in one buffer.
        let arm = inner.hold_arm();
        s.write_at("z", 0, &[0]).unwrap();
        wait_until(&s, |st| st.draining_calls == 1);
        s.write_at("a", 0, &[1, 2]).unwrap();
        s.write_at("a", 2, &[3]).unwrap(); // lengthens the extent at a:0
        s.write_at("a", 10, &[4]).unwrap();
        s.write_at("b", 11, &[5]).unwrap();
        s.write_at("a", 11, &[6]).unwrap(); // adjacent to a:10, but b came between
        {
            let st = s.shared.state.lock();
            let got: Vec<(&str, u64, &[u8])> = st
                .filling
                .extents
                .iter()
                .map(|e| {
                    (
                        &*st.files[e.file as usize].name,
                        e.offset,
                        &st.filling.bytes[e.range.clone()],
                    )
                })
                .collect();
            assert_eq!(
                got,
                vec![
                    ("a", 0, &[1u8, 2, 3][..]),
                    ("a", 10, &[4][..]),
                    ("b", 11, &[5][..]),
                    ("a", 11, &[6][..]),
                ]
            );
            assert_eq!(st.filling.calls, 5);
        }
        drop(arm);
        s.flush().unwrap();
        assert_eq!(inner.stats().write_ops, 1 + 4);
        assert_eq!(inner.stats().bytes_written, 1 + 6);
        let a = inner.snapshot("a").unwrap();
        assert_eq!((&a[..3], &a[10..]), (&[1u8, 2, 3][..], &[4u8, 6][..]));
    }

    #[test]
    fn read_after_write_sees_data_without_flush() {
        let (inner, s) = sched(2);
        s.write_at("f", 0, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        s.read_at("f", 0, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
        // After `land` the backend itself holds what was written.
        s.write_at("f", 4, &[5]).unwrap();
        s.land().unwrap();
        assert_eq!(inner.snapshot("f").unwrap(), [1, 2, 3, 4, 5]);
    }

    /// A backend that counts the barriers asked of it.
    struct Barriers {
        inner: Arc<SimDisk>,
        lands: AtomicUsize,
        flushes: AtomicUsize,
    }

    impl Disk for Barriers {
        fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), PdmError> {
            self.inner.write_at(name, offset, data)
        }
        fn append(&self, name: &str, data: &[u8]) -> Result<u64, PdmError> {
            self.inner.append(name, data)
        }
        fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), PdmError> {
            self.inner.read_at(name, offset, out)
        }
        fn read_up_to(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, PdmError> {
            self.inner.read_up_to(name, offset, len)
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
        fn land(&self) -> Result<(), PdmError> {
            self.lands.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn flush(&self) -> Result<(), PdmError> {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    /// `land` asks its backend to land, never to flush, so a pass end costs
    /// the backend no durability; `flush` asks for the durability point.
    #[test]
    fn land_forwards_land_and_flush_forwards_flush() {
        let backend = Arc::new(Barriers {
            inner: SimDisk::new(DiskCfg::zero()),
            lands: AtomicUsize::new(0),
            flushes: AtomicUsize::new(0),
        });
        let s = IoScheduler::new(backend.clone() as DiskRef, 1).unwrap();
        s.write_at("f", 0, &[1]).unwrap();
        s.land().unwrap();
        assert_eq!(backend.inner.snapshot("f").unwrap(), [1]);
        let count = |n: &AtomicUsize| n.load(Ordering::Relaxed);
        assert_eq!((count(&backend.lands), count(&backend.flushes)), (1, 0));
        s.flush().unwrap();
        assert_eq!((count(&backend.lands), count(&backend.flushes)), (1, 1));
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

    /// A read stream circulates `depth` block buffers (one more if a read
    /// overtakes the prefetcher), however long the file is, and a write
    /// returns the blocks it invalidates to the spare list.
    #[test]
    fn block_buffers_circulate() {
        const BLOCK: usize = 256;
        let (_inner, s) = sched(3);
        s.load("f", vec![7u8; 200 * BLOCK]);
        let mut buf = [0u8; BLOCK];
        for block in 0..200u64 {
            s.read_at("f", block * BLOCK as u64, &mut buf).unwrap();
            assert_eq!(buf, [7u8; BLOCK]);
            // Let the prefetcher get ahead, so that blocks are stored.
            wait_until(&s, |st| {
                st.fetch_queue.is_empty() && st.in_flight_fetch.is_none()
            });
            assert_prefetch_counts(&s);
            let st = s.shared.state.lock();
            assert!(
                st.fetched.len() + st.spare.len() <= 3 + 1,
                "{} stored + {} spare block buffers at block {block}",
                st.fetched.len(),
                st.spare.len()
            );
        }
        s.read_at("f", 0, &mut buf).unwrap();
        wait_until(&s, |st| st.fetched.len() == 3);
        s.write_at("f", 0, &[1]).unwrap();
        assert_prefetch_counts(&s);
        let st = s.shared.state.lock();
        assert!(st.fetched.is_empty());
        assert!(st.spare.len() >= 3 && st.spare.iter().all(|b| b.capacity() >= BLOCK));
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
        type Barrier = fn(&IoScheduler) -> Result<(), PdmError>;
        let barriers: [Barrier; 2] = [|s| s.land(), |s| s.flush()];
        for barrier in barriers {
            let (inner, s) = sched(1);
            inner.fail_after_ops(0);
            // Accepted immediately; the failure is the backend's to report.
            s.write_at("f", 0, &[1]).unwrap();
            assert_eq!(barrier(&s), Err(PdmError::DiskFailed));
            // The error is consumed: the next pass starts clean.
            assert_eq!(barrier(&s), Ok(()));
        }
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
        assert_prefetch_counts(&s);
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

    /// Writers outrunning a slow disk: the scheduler never holds more than
    /// its two staging buffers' worth, the writer that found them full is
    /// the one that waited, and it resumes when the I/O thread trades.
    #[test]
    fn a_full_staging_buffer_blocks_its_writer_until_the_trade() {
        const WRITE: usize = STAGING_CAP_BYTES / 4;
        run_bounded(|| {
            let reg = MetricsRegistry::new();
            let slow = SimDisk::new(DiskCfg::new(Duration::from_millis(2), f64::INFINITY));
            let s = IoScheduler::with_metrics(slow.clone() as DiskRef, 1, &reg, "d0").unwrap();
            let data = vec![0xABu8; WRITE];
            // Non-adjacent, so every write is a backend operation of its own
            // and the disk falls behind at once.
            for i in 0..24u64 {
                s.write_at("f", i * 2 * WRITE as u64, &data).unwrap();
                let held = s.shared.state.lock().staged_bytes();
                assert!(held <= 2 * STAGING_CAP_BYTES, "{held} B held");
            }
            s.flush().unwrap();
            assert_eq!(s.shared.state.lock().staged_bytes(), 0);
            assert_eq!(slow.stats().bytes_written, 24 * WRITE as u64);
            let snap = reg.snapshot();
            let waits = snap.histogram("disk/d0/writeback_wait_ns").unwrap().count;
            assert!(
                (1..24).contains(&waits),
                "24 writes, {waits} of them blocked"
            );
        });
    }

    /// The same, with every step forced: the I/O thread is parked in a
    /// backend write, the filling buffer is brought to its cap, and a
    /// further writer parks — then the disk dies.  The parked writer must
    /// wake, and the failure must reach `flush` once.
    #[test]
    fn a_dying_disk_wakes_the_writer_parked_on_a_full_staging_buffer() {
        run_bounded(|| {
            let (inner, s) = armed_sched();
            let arm = inner.hold_arm();
            s.write_at("f", 0, &[1]).unwrap();
            wait_until(&s, |st| st.draining_calls == 1);
            // An empty buffer takes a write of any size; here, the cap.
            s.write_at("g", 0, &vec![2u8; STAGING_CAP_BYTES]).unwrap();
            std::thread::scope(|scope| {
                let parked = scope.spawn(|| s.write_at("g", STAGING_CAP_BYTES as u64, &[3]));
                wait_until(&s, |st| st.writers_waiting == 1);
                let st = s.shared.state.lock();
                assert_eq!(st.staged_bytes(), 1 + STAGING_CAP_BYTES);
                assert_eq!(st.filling.calls, 1, "the parked write is not staged");
                drop(st);
                inner.fail_after_ops(0);
                drop(arm);
                // Accepted like any deferred write; the failure is flush's.
                parked.join().expect("parked writer panicked").unwrap();
            });
            assert_eq!(s.flush(), Err(PdmError::DiskFailed));
            assert_eq!(s.flush(), Ok(()));
            assert_eq!(s.shared.state.lock().staged_bytes(), 0);
        });
    }

    #[test]
    fn dropping_the_scheduler_lands_its_staged_writes() {
        run_bounded(|| {
            let (inner, s) = armed_sched();
            let arm = inner.hold_arm();
            s.write_at("f", 0, &[1]).unwrap();
            wait_until(&s, |st| st.draining_calls == 1);
            s.write_at("f", 1, &[2, 3]).unwrap();
            s.append("g", &[4]).unwrap();
            drop(arm);
            drop(s);
            assert_eq!(inner.snapshot("f").unwrap(), vec![1, 2, 3]);
            assert_eq!(inner.snapshot("g").unwrap(), vec![4]);
        });
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
