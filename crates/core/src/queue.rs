//! Bounded queues of buffers: consumers block, producers never do.
//!
//! FG places a queue between every pair of consecutive pipeline stages.  A
//! stage *conveys* a buffer by pushing into its downstream queue and
//! *accepts* by popping from its upstream queue; an empty upstream queue
//! blocks the accepting stage's thread, which is exactly how FG yields the
//! CPU to other stages while a high-latency operation is pending elsewhere.
//!
//! Back-pressure is the *pool*, not the queue: a pipeline circulates a
//! fixed set of buffers, and the planner sizes every queue to admit the
//! whole pools (and cabooses) of the pipelines that pass through it.  So a
//! push either lands or fails at once — [`PushError::Closed`] during
//! teardown, [`PushError::Full`] when that wiring invariant is broken —
//! and only consumers ever wait.
//!
//! Queues are multi-producer multi-consumer because *virtual* stages share a
//! single queue among many pipelines, and several stages may discard buffers
//! into the same buffer pool.  The planner builds two flavors behind one
//! API: a mutex-guarded deque (every buffer pool, farm input and virtual
//! shared input) and — when it can prove a queue has exactly one producer
//! and one consumer thread (a plain stage-to-stage link with no replication
//! on either side) — a lock-free SPSC ring.  A third, a bounded lock-free
//! MPMC ring with per-slot sequence numbers (Vyukov-style), measured no
//! faster than the deque on the hosts this was run on (EXPERIMENTS.md Q1,
//! D10, D19); it is built only by `qbench` for the benchmark's
//! `queue.lockfree_*` rows and property-tested against the deque.
//!
//! A pop that finds nothing to take tries once, gives its core away once
//! ([`yield_core`]), tries again, then parks on a condvar: the producer
//! it waits for usually shares its core, so a spin would only burn the
//! time slice the producer needs.
//!
//! A queue can be *closed*; closing wakes every parked consumer.  Pushes
//! to a closed queue fail immediately, pops drain whatever is left and
//! then fail.  The runtime closes all queues of a program when a stage
//! fails, which unblocks every thread for shutdown.
//!
//! [`yield_core`]: crate::profile::yield_core

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::buffer::{Buffer, PipelineId};
use crate::metrics::Counter;
use crate::profile::yield_core;

/// What travels through a queue: a buffer, or the end-of-stream marker for
/// one pipeline (FG's *caboose*).
#[derive(Debug)]
pub(crate) enum Item {
    /// A data buffer.
    Buf(Buffer),
    /// End of pipeline `PipelineId`'s stream.  Exactly one caboose per
    /// pipeline flows through each queue on that pipeline's path.
    Caboose(PipelineId),
}

/// Error returned by a pop once the queue is closed and drained.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Closed;

/// Why a push failed; the item comes back with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is closed: the program is being torn down.
    Closed,
    /// The queue holds `capacity` items.  No queue the planner builds can
    /// get here (see `Program::wire`), so this is an invariant violation
    /// to report, not a state to wait out.
    Full,
}

/// Single-producer single-consumer ring: one `Option<Item>` slot per
/// capacity entry, with monotonically increasing head/tail indices.  The
/// per-slot mutexes are never contended (producer and consumer touch
/// disjoint slots) — they exist only to move `Item`s in and out without
/// `unsafe`.
struct Ring {
    slots: Vec<Mutex<Option<Item>>>,
    /// Next slot the consumer will take.  Only the consumer stores.
    head: AtomicU64,
    /// Next slot the producer will fill.  Only the producer stores.
    tail: AtomicU64,
}

/// One slot of the lock-free MPMC ring: a sequence number plus the item.
///
/// The sequence number carries the Vyukov protocol: it equals the slot's
/// position when the slot is free for the producer claiming that position,
/// position + 1 once the item is published, and position + capacity once
/// the consumer has released the slot for the next lap.  As in the SPSC
/// ring, the per-slot mutex is uncontended by construction — the position
/// CAS grants exclusive access — and exists only to move `Item`s without
/// `unsafe`.
struct LfSlot {
    seq: AtomicU64,
    val: Mutex<Option<Item>>,
}

/// Bounded lock-free MPMC ring (Vyukov-style): producers claim positions
/// by CAS on `tail`, consumers by CAS on `head`; the per-slot sequence
/// numbers publish item visibility, so no operation ever holds a lock
/// across the queue.
struct LfRing {
    slots: Vec<LfSlot>,
    /// Next position a consumer will claim.
    head: AtomicU64,
    /// Next position a producer will claim.
    tail: AtomicU64,
}

enum Flavor {
    /// General case: a mutex-protected deque, usable from any number of
    /// producer and consumer threads.
    Mpmc(Mutex<VecDeque<Item>>),
    /// Lock-free fast path for the same MPMC contract: a bounded ring with
    /// per-slot sequence numbers, usable from any number of producer and
    /// consumer threads.
    LockFree(LfRing),
    /// Fast path: a lock-free ring, valid only with exactly one producer
    /// thread and one consumer thread.
    Spsc(Ring),
}

/// Which queue implementation to build; the planner picks per queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlavorKind {
    /// Mutex-guarded deque: every MPMC queue the planner builds, and the
    /// oracle the lock-free flavor is property-tested against.
    Mutex,
    /// Lock-free MPMC ring (`qbench` only).
    LockFree,
    /// SPSC ring; caller promises one producer and one consumer thread.
    Spsc,
}

/// The counters a queue keeps for its own handshake tests and for
/// `qbench`'s contention rows ([`Queue::cas_retries`]); private to the
/// queue, never published.
#[derive(Default)]
pub(crate) struct QueueMetrics {
    /// Failed position CASes (lock-free flavor only).
    pub(crate) cas_retries: Counter,
    /// Consumer condvar waits.
    pub(crate) pop_parks: Counter,
    /// Slow-path notifications a push issued because a consumer had
    /// advertised itself parked.
    pub(crate) wakes: Counter,
}

/// A bounded queue of [`Item`]s with a blocking consumer side.
pub(crate) struct Queue {
    flavor: Flavor,
    closed: AtomicBool,
    /// High-water mark of the queue's depth over its lifetime.
    max_depth: AtomicUsize,
    /// Parking lot for a consumer's slow path.
    park: Mutex<()>,
    /// Number of consumers parked (or about to park) on `not_empty`; a
    /// producer only takes `park` to notify when this is non-zero.
    pop_sleepers: AtomicUsize,
    not_empty: Condvar,
    capacity: usize,
    name: String,
    metrics: QueueMetrics,
}

impl Queue {
    /// Create a mutex-flavor MPMC queue holding at most `capacity` items.
    pub(crate) fn new(name: impl Into<String>, capacity: usize) -> Arc<Self> {
        Self::flavored(name, capacity, FlavorKind::Mutex)
    }

    /// Create a lock-free MPMC queue.
    pub(crate) fn lock_free(name: impl Into<String>, capacity: usize) -> Arc<Self> {
        Self::flavored(name, capacity, FlavorKind::LockFree)
    }

    /// Create an SPSC queue.  The caller promises that at most one thread
    /// ever pushes and at most one thread ever pops (`close` may still be
    /// called from anywhere).
    pub(crate) fn spsc(name: impl Into<String>, capacity: usize) -> Arc<Self> {
        Self::flavored(name, capacity, FlavorKind::Spsc)
    }

    /// Create a queue of the given flavor.  The planner's one construction
    /// point.
    pub(crate) fn flavored(
        name: impl Into<String>,
        capacity: usize,
        kind: FlavorKind,
    ) -> Arc<Self> {
        assert!(capacity > 0, "queue capacity must be positive");
        // Vyukov's bounded MPMC algorithm requires capacity >= 2: at
        // `cap == 1` the publish value of lap n (`pos + 1`) collides with
        // the free value of lap n+1, and no head-based pre-check can
        // close the race against a consumer that has claimed the slot
        // (head CAS won) but not yet released it (seq store pending).
        // Degenerate capacity-1 requests fall back to the mutex flavor,
        // which carries no precondition.
        let kind = if kind == FlavorKind::LockFree && capacity < 2 {
            FlavorKind::Mutex
        } else {
            kind
        };
        let flavor = match kind {
            FlavorKind::Mutex => Flavor::Mpmc(Mutex::new(VecDeque::with_capacity(capacity))),
            FlavorKind::LockFree => Flavor::LockFree(LfRing {
                slots: (0..capacity)
                    .map(|i| LfSlot {
                        seq: AtomicU64::new(i as u64),
                        val: Mutex::new(None),
                    })
                    .collect(),
                head: AtomicU64::new(0),
                tail: AtomicU64::new(0),
            }),
            FlavorKind::Spsc => Flavor::Spsc(Ring {
                slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
                head: AtomicU64::new(0),
                tail: AtomicU64::new(0),
            }),
        };
        Arc::new(Queue {
            flavor,
            closed: AtomicBool::new(false),
            max_depth: AtomicUsize::new(0),
            park: Mutex::new(()),
            pop_sleepers: AtomicUsize::new(0),
            not_empty: Condvar::new(),
            capacity,
            name: name.into(),
            metrics: QueueMetrics::default(),
        })
    }

    /// Debug name of this queue.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Maximum number of items this queue can hold.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stable label of this queue's flavor (reports, dashboards, JSON).
    pub(crate) fn flavor_label(&self) -> &'static str {
        match self.flavor {
            Flavor::Mpmc(_) => "mutex",
            Flavor::LockFree(_) => "lockfree",
            Flavor::Spsc(_) => "spsc",
        }
    }

    /// Failed position CASes over the queue's lifetime (lock-free flavor;
    /// always zero for the others).
    pub(crate) fn cas_retries(&self) -> u64 {
        self.metrics.cas_retries.get()
    }

    /// Consumer condvar waits over the queue's lifetime.
    pub(crate) fn parks(&self) -> u64 {
        self.metrics.pop_parks.get()
    }

    /// High-water mark of the queue's depth over its lifetime.
    pub(crate) fn max_depth(&self) -> usize {
        self.max_depth.load(Ordering::Relaxed)
    }

    /// Items queued right now: `tail − head` on the rings, the deque's
    /// length on the mutex flavor (whose lock is never held across a
    /// wait).  Watchdog post-mortems read it from any thread.
    pub(crate) fn depth(&self) -> usize {
        match &self.flavor {
            Flavor::Mpmc(lock) => lock.lock().len(),
            Flavor::LockFree(LfRing { head, tail, .. }) | Flavor::Spsc(Ring { head, tail, .. }) => {
                // `tail` first: `head` only grows, so this never overstates.
                let tail = tail.load(Ordering::SeqCst);
                tail.saturating_sub(head.load(Ordering::SeqCst)) as usize
            }
        }
    }

    /// Push without waiting.  Fails — handing the item back — once the
    /// queue is closed, or when it is full.
    pub(crate) fn push(&self, item: Item) -> Result<(), (Item, PushError)> {
        match &self.flavor {
            Flavor::Mpmc(lock) => {
                let mut items = lock.lock();
                if self.closed.load(Ordering::SeqCst) {
                    return Err((item, PushError::Closed));
                }
                if items.len() >= self.capacity {
                    return Err((item, PushError::Full));
                }
                items.push_back(item);
                let depth = items.len();
                drop(items);
                self.after_push(depth);
                Ok(())
            }
            Flavor::LockFree(ring) => self.lf_push(ring, item),
            Flavor::Spsc(ring) => self.spsc_push(ring, item),
        }
    }

    /// Blocking pop.  After close, drains remaining items, then fails.
    pub(crate) fn pop(&self) -> Result<Item, Closed> {
        self.try_pop().map_or_else(|| self.pop_missed(), Ok)
    }

    /// The one wait rule, after a [`Queue::try_pop`] that found nothing:
    /// give the core away once, try again, then park until a push or the
    /// close.
    pub(crate) fn pop_missed(&self) -> Result<Item, Closed> {
        let mut yielded = false;
        loop {
            let depth = self.depth();
            if depth == 0 && self.closed.load(Ordering::SeqCst) {
                return Err(Closed);
            }
            if yielded && depth == 0 {
                self.park();
            } else {
                // The first miss — or an item claimed and not yet
                // published: a lock-free producer between its tail CAS
                // and its publish, perhaps descheduled there.  Let it run
                // (after a close too: its item must not be stranded).
                yielded = true;
                yield_core();
            }
            if let Some(item) = self.try_pop() {
                return Ok(item);
            }
        }
    }

    pub(crate) fn try_pop(&self) -> Option<Item> {
        match &self.flavor {
            Flavor::Mpmc(lock) => lock.lock().pop_front(),
            Flavor::LockFree(ring) => self.lf_try_pop(ring),
            Flavor::Spsc(ring) => self.spsc_try_pop(ring),
        }
    }

    /// Close the queue and wake every parked consumer.  Idempotent.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Take the parking lock so a consumer that re-checked just before
        // waiting cannot miss this wakeup.
        let _guard = self.park.lock();
        self.not_empty.notify_all();
    }

    // --- Parking ---------------------------------------------------------
    //
    // Only consumers park.  The slow path is a one-sided Dekker-style
    // handshake over sequentially consistent accesses: a consumer publishes
    // its intent (`pop_sleepers`), then re-checks "empty and open" under
    // the park lock; a producer makes the queue non-empty, then checks
    // `pop_sleepers` and notifies under the same lock.  At least one side
    // always observes the other, so no wakeup is lost.  That single total
    // order — ring indices, sleeper count, closed flag — is why every ring
    // access is `SeqCst` (the mutex flavor's deque lock orders its own).

    /// Park until the queue is non-empty or closed.
    fn park(&self) {
        self.pop_sleepers.fetch_add(1, Ordering::SeqCst);
        {
            let mut guard = self.park.lock();
            while self.depth() == 0 && !self.closed.load(Ordering::SeqCst) {
                self.metrics.pop_parks.inc();
                self.not_empty.wait(&mut guard);
            }
        }
        self.pop_sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// A push left `depth` items behind it: the bookkeeping, and the
    /// producer's half of the handshake now that its item is visible (only a
    /// new high writes the mark: a push at a depth seen before writes none).
    fn after_push(&self, depth: usize) {
        if depth > self.max_depth.load(Ordering::Relaxed) {
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
        }
        if self.pop_sleepers.load(Ordering::SeqCst) > 0 {
            self.metrics.wakes.inc();
            let _guard = self.park.lock();
            self.not_empty.notify_all();
        }
    }

    // --- Lock-free MPMC flavor internals ---------------------------------
    //
    // Vyukov's bounded MPMC algorithm: a producer claims position `p` by
    // CAS on `tail` when slot `p % cap` carries sequence `p` (free this
    // lap), writes the item, then publishes by storing sequence `p + 1`.
    // A consumer claims position `p` by CAS on `head` when the slot
    // carries `p + 1` (published), takes the item, then releases the slot
    // for the next lap by storing `p + cap`.  The algorithm requires
    // `cap >= 2` — enforced in [`Queue::flavored`], which builds the
    // mutex flavor instead for capacity-1 requests — so the sequence
    // values of consecutive laps never collide.

    fn lf_push(&self, ring: &LfRing, item: Item) -> Result<(), (Item, PushError)> {
        if self.closed.load(Ordering::SeqCst) {
            return Err((item, PushError::Closed));
        }
        let cap = self.capacity as u64;
        let mut retries = 0u64;
        let mut pos = ring.tail.load(Ordering::SeqCst);
        let claimed = loop {
            let slot = &ring.slots[(pos % cap) as usize];
            let seq = slot.seq.load(Ordering::SeqCst);
            if seq == pos {
                match ring.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        let prev = slot.val.lock().replace(item);
                        debug_assert!(prev.is_none(), "lock-free slot overwritten");
                        slot.seq.store(pos + 1, Ordering::SeqCst);
                        break Ok(pos);
                    }
                    Err(cur) => {
                        retries += 1;
                        pos = cur;
                    }
                }
            } else {
                if seq < pos {
                    // The slot is not free for this lap — which is not
                    // yet "the queue is full".  Only the indices say that
                    // (`pos` was read before `head`, and `head` only
                    // grows, so the difference never overstates the depth).
                    if pos.saturating_sub(ring.head.load(Ordering::SeqCst)) >= cap {
                        break Err(item);
                    }
                    // Slot busy: a consumer has won its `head` CAS on the
                    // last lap's item and not yet stored the slot's
                    // next-lap sequence.  Its store is a few instructions
                    // away, so give it the core (it may have been
                    // descheduled in between) — and never park.
                    yield_core();
                }
                // That, or another producer claimed `pos` first: chase the
                // tail.
                pos = ring.tail.load(Ordering::SeqCst);
            }
        };
        if retries > 0 {
            self.metrics.cas_retries.add(retries);
        }
        match claimed {
            Ok(pos) => {
                let head = ring.head.load(Ordering::SeqCst);
                self.after_push((pos + 1).saturating_sub(head) as usize);
                Ok(())
            }
            Err(item) => Err((item, PushError::Full)),
        }
    }

    /// Attempt the lock-free pop; `None` when the ring is empty (or every
    /// published item is being claimed by another consumer).
    fn lf_try_pop(&self, ring: &LfRing) -> Option<Item> {
        let cap = self.capacity as u64;
        let mut retries = 0u64;
        let mut pos = ring.head.load(Ordering::SeqCst);
        let result = loop {
            let slot = &ring.slots[(pos % cap) as usize];
            let seq = slot.seq.load(Ordering::SeqCst);
            if seq == pos + 1 {
                match ring.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        let item = slot
                            .val
                            .lock()
                            .take()
                            .expect("lock-free slot unexpectedly empty");
                        slot.seq.store(pos + cap, Ordering::SeqCst);
                        break Some(item);
                    }
                    Err(cur) => {
                        retries += 1;
                        pos = cur;
                    }
                }
            } else if seq <= pos {
                // Nothing published at this position yet: empty.
                break None;
            } else {
                // Another consumer claimed `pos` first; chase the head.
                pos = ring.head.load(Ordering::SeqCst);
            }
        };
        if retries > 0 {
            self.metrics.cas_retries.add(retries);
        }
        result
    }

    // --- SPSC flavor internals -------------------------------------------
    //
    // Producer and consumer coordinate through `head`/`tail` alone; the
    // consumer's slow path is the parking handshake above.

    fn spsc_push(&self, ring: &Ring, item: Item) -> Result<(), (Item, PushError)> {
        if self.closed.load(Ordering::SeqCst) {
            return Err((item, PushError::Closed));
        }
        let tail = ring.tail.load(Ordering::SeqCst);
        let head = ring.head.load(Ordering::SeqCst);
        if (tail - head) as usize >= self.capacity {
            return Err((item, PushError::Full));
        }
        let slot = &ring.slots[(tail % self.capacity as u64) as usize];
        let prev = slot.lock().replace(item);
        debug_assert!(prev.is_none(), "spsc slot overwritten");
        ring.tail.store(tail + 1, Ordering::SeqCst);
        self.after_push((tail + 1 - head) as usize);
        Ok(())
    }

    /// Attempt the ring pop; `None` when the ring is empty.
    fn spsc_try_pop(&self, ring: &Ring) -> Option<Item> {
        let head = ring.head.load(Ordering::SeqCst);
        let tail = ring.tail.load(Ordering::SeqCst);
        if head == tail {
            return None;
        }
        let slot = &ring.slots[(head % self.capacity as u64) as usize];
        let item = slot.lock().take().expect("spsc slot unexpectedly empty");
        ring.head.store(head + 1, Ordering::SeqCst);
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn buf_item(pipeline: u32, tag: u64) -> Item {
        let mut b = Buffer::new(8, PipelineId(pipeline));
        b.meta = tag;
        Item::Buf(b)
    }

    fn tag_of(item: &Item) -> u64 {
        match item {
            Item::Buf(b) => b.meta,
            Item::Caboose(_) => u64::MAX,
        }
    }

    type Make = fn(usize) -> Arc<Queue>;

    const FLAVORS: [Make; 3] = [
        |cap| Queue::new("mpmc", cap),
        |cap| Queue::lock_free("lf", cap),
        |cap| Queue::spsc("spsc", cap),
    ];

    /// Run a closure against all three queue flavors.
    fn for_both(f: impl Fn(Arc<Queue>)) {
        FLAVORS.iter().for_each(|make| f(make(4)));
    }

    /// Capacity 1: a lock-free request builds the mutex fallback (the ring
    /// needs two slots), included so the fallback honors the same contract.
    fn both_cap1(f: impl Fn(Arc<Queue>)) {
        FLAVORS.iter().for_each(|make| f(make(1)));
    }

    /// Closes its queues when the thread holding it unwinds, so a failed
    /// assertion in one thread ends the other threads' waits: a regression
    /// is a failed test, not a hung one.
    struct CloseOnPanic<'a>(&'a [&'a Queue]);

    impl Drop for CloseOnPanic<'_> {
        fn drop(&mut self) {
            if thread::panicking() {
                self.0.iter().for_each(|q| q.close());
            }
        }
    }

    fn pop_buf(q: &Queue) -> Option<Buffer> {
        match q.pop() {
            Ok(Item::Buf(b)) => Some(b),
            _ => None,
        }
    }

    /// FG's regime, and what `benchmark/src/units.rs::queue_ring` times: a
    /// fixed population of `cap` buffers circulates through two queues of
    /// `cap` slots — `pairs` threads forward each buffer (counting the trip
    /// in its tag), `pairs` threads return it — for `trips` trips, and no
    /// push may fail.  Returns each buffer's trip count, by buffer id.
    fn circulate(make: Make, cap: usize, pairs: usize, trips: u64) -> Vec<u64> {
        let (forward, back) = (make(cap), make(cap));
        for id in 0..cap as u64 {
            back.push(buf_item(0, id << 32)).unwrap();
        }
        let both = [&*forward, &*back];
        thread::scope(|s| {
            let forwarders: Vec<_> = (0..pairs)
                .map(|_| {
                    s.spawn(|| {
                        let _guard = CloseOnPanic(&both);
                        for _ in 0..trips / pairs as u64 {
                            let Some(mut b) = pop_buf(&back) else { return };
                            b.meta += 1;
                            forward.push(Item::Buf(b)).unwrap();
                        }
                    })
                })
                .collect();
            for _ in 0..pairs {
                s.spawn(|| {
                    let _guard = CloseOnPanic(&both);
                    while let Ok(item) = forward.pop() {
                        back.push(item).unwrap();
                    }
                });
            }
            for h in forwarders {
                let _ = h.join();
            }
            forward.close();
        });
        // Everything came home: the population is intact, each buffer once.
        assert_eq!((forward.depth(), back.depth()), (0, cap));
        let mut tags: Vec<u64> = (0..cap).map(|_| tag_of(&back.pop().unwrap())).collect();
        tags.sort_unstable();
        let ids: Vec<u64> = tags.iter().map(|t| t >> 32).collect();
        assert_eq!(ids, (0..cap as u64).collect::<Vec<_>>());
        tags.iter().map(|t| t & 0xffff_ffff).collect()
    }

    #[test]
    fn fifo_order() {
        for_both(|q| {
            for i in 0..4 {
                q.push(buf_item(0, i)).unwrap();
            }
            for i in 0..4 {
                assert_eq!(tag_of(&q.pop().unwrap()), i);
            }
        });
    }

    #[test]
    fn push_respects_capacity_and_close() {
        // Full is an answer, not a wait: the push returns at once (this
        // test has no second thread to unblock it) and hands the item back.
        let full = |q: Arc<Queue>| {
            for i in 0..q.capacity() as u64 {
                q.push(buf_item(0, i)).unwrap();
            }
            let (back, why) = q.push(buf_item(0, 99)).unwrap_err();
            assert_eq!((tag_of(&back), why), (99, PushError::Full), "{}", q.name());
            assert_eq!(q.depth(), q.capacity());
            // A pop makes room again, lap after lap.
            for i in 0..3 * q.capacity() as u64 {
                assert_eq!(tag_of(&q.pop().unwrap()), i);
                q.push(buf_item(0, q.capacity() as u64 + i)).unwrap();
                assert_eq!(q.push(buf_item(0, 99)).unwrap_err().1, PushError::Full);
            }
        };
        both_cap1(full);
        for_both(full);
        let closed = |q: Arc<Queue>| {
            q.close();
            let (back, why) = q.push(buf_item(0, 7)).unwrap_err();
            assert_eq!((tag_of(&back), why), (7, PushError::Closed));
        };
        both_cap1(closed);
        for_both(closed);
    }

    #[test]
    fn pop_blocks_until_push() {
        both_cap1(|q| {
            let q2 = Arc::clone(&q);
            let h = thread::spawn(move || tag_of(&q2.pop().unwrap()));
            thread::sleep(Duration::from_millis(20));
            q.push(buf_item(0, 9)).unwrap();
            assert_eq!(h.join().unwrap(), 9);
        });
    }

    #[test]
    fn close_wakes_poppers() {
        both_cap1(|q| {
            let q2 = Arc::clone(&q);
            let h = thread::spawn(move || q2.pop().is_err());
            thread::sleep(Duration::from_millis(20));
            q.close();
            assert!(h.join().unwrap());
        });
    }

    #[test]
    fn close_drains_then_fails() {
        for_both(|q| {
            q.push(buf_item(0, 1)).unwrap();
            q.push(buf_item(0, 2)).unwrap();
            q.close();
            assert_eq!(tag_of(&q.pop().unwrap()), 1);
            assert_eq!(tag_of(&q.pop().unwrap()), 2);
            assert!(q.pop().is_err());
            assert!(q.push(buf_item(0, 3)).is_err());
        });
    }

    #[test]
    fn max_depth_tracks_high_water_mark() {
        for_both(|q| {
            assert_eq!(q.max_depth(), 0);
            q.push(buf_item(0, 0)).unwrap();
            q.push(buf_item(0, 1)).unwrap();
            q.pop().unwrap();
            q.push(buf_item(0, 2)).unwrap();
            // Depth peaked at 2 even though it dipped to 1 in between.
            assert_eq!(q.max_depth(), 2);
            assert_eq!(q.capacity(), 4);
        });
    }

    #[test]
    fn caboose_travels_like_data() {
        for_both(|q| {
            q.push(buf_item(3, 5)).unwrap();
            q.push(Item::Caboose(PipelineId(3))).unwrap();
            assert!(matches!(q.pop().unwrap(), Item::Buf(_)));
            match q.pop().unwrap() {
                Item::Caboose(p) => assert_eq!(p, PipelineId(3)),
                other => panic!("expected caboose, got {other:?}"),
            }
        });
    }

    #[test]
    fn spsc_flavor_is_reported() {
        assert_eq!(Queue::new("m", 2).flavor_label(), "mutex");
        assert_eq!(Queue::lock_free("l", 2).flavor_label(), "lockfree");
        assert_eq!(Queue::spsc("s", 2).flavor_label(), "spsc");
    }

    #[test]
    fn flavor_labels_are_stable() {
        assert_eq!(Queue::new("m", 2).flavor_label(), "mutex");
        assert_eq!(Queue::lock_free("l", 2).flavor_label(), "lockfree");
        assert_eq!(Queue::spsc("s", 2).flavor_label(), "spsc");
    }

    #[test]
    fn lock_free_order_survives_many_wraparounds() {
        // A cap-2 ring forced through thousands of laps exercises the
        // sequence-number lap arithmetic (`pos + 1` publish, `pos + cap`
        // release) far past the first wrap.
        let q = Queue::lock_free("l", 2);
        for i in 0..5_000u64 {
            q.push(buf_item(0, 2 * i)).unwrap();
            q.push(buf_item(0, 2 * i + 1)).unwrap();
            assert_eq!(tag_of(&q.pop().unwrap()), 2 * i);
            assert_eq!(tag_of(&q.pop().unwrap()), 2 * i + 1);
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn lock_free_stress_preserves_item_count() {
        // 4 + 4 threads over a population of 8: every slot is contended.
        let trips = circulate(|cap| Queue::lock_free("l", cap), 8, 4, 4_000);
        assert_eq!(trips.iter().sum::<u64>(), 4_000);
    }

    #[test]
    fn mpmc_stress_preserves_item_count() {
        let trips = circulate(|cap| Queue::new("m", cap), 8, 4, 4_000);
        assert_eq!(trips.iter().sum::<u64>(), 4_000);
    }

    #[test]
    fn a_busy_slot_is_not_a_full_queue() {
        // The benchmark's `queue.lockfree_c2_hop_ns` loop, four times as
        // long: with two consumers, a producer can lap a slot whose
        // consumer has claimed it (head CAS won) and not yet released it.
        // The ring then holds fewer than `capacity` items, and a push that
        // answered `Full` there would fail `circulate`.
        let trips = circulate(|cap| Queue::lock_free("l", cap), 8, 2, 200_000);
        assert_eq!(trips.iter().sum::<u64>(), 200_000);
    }

    #[test]
    fn lock_free_preserves_per_producer_fifo() {
        // A virtual stage's shared input: three pipelines, each a producer
        // cycling its own pool of two through the one queue (wired, as the
        // planner does, to the sum of `pool + 1`).  Tags carry (producer,
        // seq); the single consumer must see each producer's items in
        // increasing seq order even though the interleaving across
        // producers is arbitrary.
        const POOL: u64 = 2;
        const PER_PRODUCER: u64 = 500;
        let shared = Queue::lock_free("in/v", 3 * (POOL as usize + 1));
        let pools: Vec<_> = (0..3)
            .map(|p| Queue::lock_free(format!("recycle/{p}"), POOL as usize + 1))
            .collect();
        let all: Vec<&Queue> = pools.iter().chain([&shared]).map(|q| &**q).collect();
        thread::scope(|s| {
            for (p, pool) in pools.iter().enumerate() {
                for _ in 0..POOL {
                    pool.push(buf_item(p as u32, 0)).unwrap();
                }
                let (shared, all) = (&shared, &all);
                s.spawn(move || {
                    let _guard = CloseOnPanic(all);
                    for i in 0..PER_PRODUCER {
                        let Some(mut b) = pop_buf(pool) else { return };
                        b.meta = i;
                        shared.push(Item::Buf(b)).unwrap();
                    }
                });
            }
            let _guard = CloseOnPanic(&all);
            let mut next = [0u64; 3];
            for _ in 0..3 * PER_PRODUCER {
                let b = pop_buf(&shared).expect("a producer failed");
                let p = b.pipeline().0 as usize;
                assert_eq!(b.meta, next[p], "producer {p} items reordered");
                next[p] += 1;
                pools[p].push(Item::Buf(b)).unwrap();
            }
        });
    }

    #[test]
    fn close_wakes_every_parked_popper() {
        for_both(|q| {
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || q.pop().is_err())
                })
                .collect();
            thread::sleep(Duration::from_millis(30));
            q.close();
            for w in waiters {
                assert!(w.join().unwrap());
            }
        });
    }

    #[test]
    fn park_counters_record_blocked_waits() {
        // A push that finds a parked consumer counts one wake.  (Cap 2, the
        // ring's minimum — a cap-1 request would build the mutex fallback
        // and bypass the lock-free push path under test.)
        let q = Queue::lock_free("l", 2);
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || tag_of(&q2.pop().unwrap()));
        // Wait until the consumer has actually parked: the queue stays
        // empty until we push, so the park counter must eventually move.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while q.parks() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "consumer never parked"
            );
            thread::sleep(Duration::from_millis(1));
        }
        q.push(buf_item(0, 5)).unwrap();
        assert_eq!(h.join().unwrap(), 5);
        assert_eq!(q.metrics.wakes.get(), 1, "the push saw the sleeper");
        assert_eq!(
            q.cas_retries(),
            0,
            "uncontended run must not count CAS retries"
        );
    }

    #[test]
    fn spsc_stress_preserves_order_across_wraparound() {
        // Three buffers round two three-slot rings 10 000 times: thousands
        // of laps, and the consumer sees the producer's order throughout.
        let (fwd, back) = (Queue::spsc("f", 3), Queue::spsc("b", 3));
        for _ in 0..3 {
            back.push(buf_item(0, 0)).unwrap();
        }
        const N: u64 = 10_000;
        let both = [&*fwd, &*back];
        thread::scope(|s| {
            s.spawn(|| {
                let _guard = CloseOnPanic(&both);
                for i in 0..N {
                    let Some(mut b) = pop_buf(&back) else { return };
                    b.meta = i;
                    fwd.push(Item::Buf(b)).unwrap();
                }
            });
            let _guard = CloseOnPanic(&both);
            for i in 0..N {
                let item = fwd.pop().expect("the producer failed");
                assert_eq!(tag_of(&item), i);
                back.push(item).unwrap();
            }
        });
    }
}
