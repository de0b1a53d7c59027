//! Stages and the context through which they accept and convey buffers.
//!
//! The programmer writes a *synchronous* stage — a plain function or a
//! [`Stage`] implementation whose `run` method loops accepting buffers,
//! working on them, and conveying them downstream.  FG runs every stage in
//! its own thread, so stages execute asynchronously and a stage blocked on a
//! high-latency operation (or on an empty queue) yields the CPU to the other
//! stages (the paper, §II).
//!
//! Three accept flavors mirror the paper's three pipeline shapes:
//!
//! * [`StageCtx::accept`] — the stage belongs to exactly one pipeline
//!   (ordinary linear pipelines, §II).
//! * [`StageCtx::accept_from`] — the stage is a *common stage* of several
//!   intersecting pipelines and must name the pipeline to accept from (§IV:
//!   "because the common stage has multiple predecessors, in order to accept
//!   a buffer, it must specify which pipeline to accept from").
//! * [`StageCtx::accept_any`] — the stage is *virtual*: many identical
//!   stages share one thread and one input queue, and buffers from any of
//!   the member pipelines arrive interleaved (§IV, Figure 5(b)).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::buffer::{Buffer, BufferStock, PipelineId};
use crate::error::{FgError, Result};
use crate::metrics::{Counter, MetricsRegistry};
use crate::profile::MemoryLedger;
use crate::queue::{Item, PushError, Queue};
use crate::stats::StageStats;
use crate::trace::{ThreadState, TraceKind};

/// Metric-name prefix of the live per-stage busy counter (nanoseconds).
const STAGE_BUSY_PREFIX: &str = "core/stage_busy_ns/";
/// Metric-name prefix of the live per-stage blocked-accept counter.
const STAGE_STARVED_PREFIX: &str = "core/stage_blocked_accept_ns/";
/// Metric-name prefix of the live per-stage blocked-convey counter.
const STAGE_BACKPRESSURED_PREFIX: &str = "core/stage_blocked_convey_ns/";
/// Metric-name prefix of the live per-stage buffers-processed counter.
const STAGE_ROUNDS_PREFIX: &str = "core/stage_rounds/";

/// How many rounds a pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounds {
    /// The first stage accepts exactly this many buffers — rounds `0..n`,
    /// in order — then the stream ends.
    Count(u64),
    /// The first stage keeps accepting recycled buffers until some stage
    /// calls [`StageCtx::stop`] for this pipeline (used when the stream
    /// length is known only dynamically, e.g. a receive pipeline).
    UntilStopped,
}

/// A pipeline stage.
///
/// `run` is called exactly once, on the stage's own thread.  It should loop
/// accepting buffers until the stream ends (accept returns `Ok(None)`), then
/// return.  Returning early is allowed: the runtime ends the pipelines the
/// stage is the first stage of, stops the `UntilStopped` ones it belongs to,
/// drains its inputs, and propagates the caboose downstream.
pub trait Stage: Send {
    /// Execute the stage to completion.
    fn run(&mut self, ctx: &mut StageCtx) -> Result<()>;
}

impl<F> Stage for F
where
    F: FnMut(&mut StageCtx) -> Result<()> + Send,
{
    fn run(&mut self, ctx: &mut StageCtx) -> Result<()> {
        self(ctx)
    }
}

/// A per-buffer stage: the classic FG programming model.
///
/// The runtime loops `accept → f(buffer, ctx) → convey` until the stream
/// ends.  Works unchanged for ordinary and virtual stages (it uses
/// [`StageCtx::accept_auto`]).
pub struct MapStage<F> {
    f: F,
}

impl<F> Stage for MapStage<F>
where
    F: FnMut(&mut Buffer, &mut StageCtx) -> Result<()> + Send,
{
    fn run(&mut self, ctx: &mut StageCtx) -> Result<()> {
        while let Some(mut buf) = ctx.accept_auto()? {
            (self.f)(&mut buf, ctx)?;
            ctx.convey(buf)?;
        }
        Ok(())
    }
}

/// Build a boxed per-buffer stage from a closure.
///
/// ```
/// use fg_core::{map_stage, Buffer, StageCtx};
/// let double = map_stage(|buf: &mut Buffer, _ctx: &mut StageCtx| {
///     for b in buf.filled_mut() {
///         *b = b.wrapping_mul(2);
///     }
///     Ok(())
/// });
/// # let _ = double;
/// ```
pub fn map_stage<F>(f: F) -> Box<dyn Stage>
where
    F: FnMut(&mut Buffer, &mut StageCtx) -> Result<()> + Send + 'static,
{
    Box::new(MapStage { f })
}

/// Shared shutdown machinery: set once a stage fails, and closes every queue
/// in the program so all threads unblock.
pub(crate) struct Registry {
    queues: parking_lot::Mutex<Vec<Arc<Queue>>>,
    /// Worker farms whose emission waiters must be woken on
    /// cancel (they park on the group's condvar, not on a queue).
    groups: parking_lot::Mutex<Vec<Arc<ReplicaGroup>>>,
    /// Every stage thread's counters, by thread name (`program/task`).
    stages: parking_lot::Mutex<Vec<(String, Arc<StageCounters>)>>,
    cancelled: AtomicBool,
    error: parking_lot::Mutex<Option<FgError>>,
}

impl Registry {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Registry {
            queues: parking_lot::Mutex::new(Vec::new()),
            groups: parking_lot::Mutex::new(Vec::new()),
            stages: parking_lot::Mutex::new(Vec::new()),
            cancelled: AtomicBool::new(false),
            error: parking_lot::Mutex::new(None),
        })
    }

    pub(crate) fn register(&self, q: Arc<Queue>) {
        self.queues.lock().push(q);
    }

    pub(crate) fn register_group(&self, g: Arc<ReplicaGroup>) {
        self.groups.lock().push(g);
    }

    /// The counters of the stage thread `thread` (`program/task`), which
    /// runs the stage `task`.
    pub(crate) fn stage_counters(
        &self,
        thread: String,
        task: &str,
        metrics: Option<&MetricsRegistry>,
    ) -> Arc<StageCounters> {
        let counters = Arc::new(StageCounters::new(task, metrics));
        self.stages.lock().push((thread, Arc::clone(&counters)));
        counters
    }

    /// Every stage thread's name and counters, in spawn order: what the
    /// watchdog reads.
    pub(crate) fn stages(&self) -> Vec<(String, Arc<StageCounters>)> {
        self.stages.lock().clone()
    }

    /// Record the root-cause error (first wins) and tear everything down.
    pub(crate) fn cancel(&self, err: FgError) {
        {
            let mut slot = self.error.lock();
            if slot.is_none() && !err.is_cancelled() {
                *slot = Some(err);
            }
        }
        self.cancelled.store(true, Ordering::SeqCst);
        for q in self.queues.lock().iter() {
            q.close();
        }
        for g in self.groups.lock().iter() {
            g.cancel_wake();
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    pub(crate) fn take_error(&self) -> Option<FgError> {
        self.error.lock().take()
    }

    /// Depth statistics of every queue the program created, for the final
    /// [`Report`](crate::Report).
    pub(crate) fn queue_depths(&self) -> Vec<crate::stats::QueueDepth> {
        self.queues
            .lock()
            .iter()
            .map(|q| crate::stats::QueueDepth {
                name: q.name().to_string(),
                capacity: q.capacity(),
                max_depth: q.max_depth(),
                flavor: q.flavor_label().to_string(),
            })
            .collect()
    }

    /// Live (approximate) depth of every queue, for watchdog post-mortems.
    pub(crate) fn live_queue_depths(&self) -> Vec<crate::trace::QueuePostmortem> {
        self.queues
            .lock()
            .iter()
            .map(|q| crate::trace::QueuePostmortem {
                queue: q.name().to_string(),
                depth: q.depth(),
                capacity: q.capacity(),
            })
            .collect()
    }

    /// Every farm's turnstile position, for watchdog post-mortems.
    pub(crate) fn turnstiles(&self) -> Vec<crate::trace::TurnstilePostmortem> {
        self.groups
            .lock()
            .iter()
            .map(|g| crate::trace::TurnstilePostmortem {
                group: g.name.clone(),
                pipeline: g.pipeline.0,
                next_round: *g.next_round.lock(),
            })
            .collect()
    }
}

/// Put `item` into a queue the planner built — the one way anything enters
/// one.  `Ok(false)` means the queue is closed: the program is being torn
/// down, and whoever held the item has nothing left to do with it.  A full
/// queue is not back-pressure (the pool is; see `Program::wire`) but a
/// broken plan, and is the program's error wherever it surfaces.
fn send(queue: &Queue, item: Item) -> Result<bool> {
    match queue.push(item) {
        Ok(()) => Ok(true),
        Err((_, PushError::Closed)) => Ok(false),
        Err((item, PushError::Full)) => {
            let (what, pipeline) = match &item {
                Item::Buf(b) => ("a buffer", b.pipeline()),
                Item::Caboose(p) => ("the caboose", *p),
            };
            Err(FgError::Usage(format!(
                "queue `{}` is full ({} slots) and cannot take {what} of {pipeline}: \
                 every queue is wired to admit its pipelines' whole pools and \
                 their cabooses, so something outside those pools was pushed \
                 into it",
                queue.name(),
                queue.capacity()
            )))
        }
    }
}

/// One pipeline's buffer pool and round counter.
///
/// The paper's FG gives every pipeline a *source* thread that injects one
/// buffer a round and a *sink* thread that recycles it.  Here both are
/// roles: the pool is a queue that *is* the first stage's input, the last
/// stage's `convey` and every stage's `discard` push into it, and the
/// first stage's accept starts a popped buffer's next round inline
/// ([`Pool::begin_round`]) — no thread exists only to forward a pointer.
pub(crate) struct Pool {
    pipeline: PipelineId,
    /// The pool: the first stage's input queue (shared with the other
    /// pipelines that start at the same virtual stage).
    pub(crate) queue: Arc<Queue>,
    pub(crate) rounds: Rounds,
    pub(crate) buffers: usize,
    buffer_size: usize,
    /// Rounds started so far; shared because a farm's replicas all draw
    /// round numbers from it.
    started: AtomicU64,
    stopped: AtomicBool,
    /// Set by whoever makes the pipeline's one caboose.
    ended: AtomicBool,
    ledger: Option<Arc<MemoryLedger>>,
    /// Buffers charged to `ledger` and not yet credited.
    charged: AtomicU64,
    /// Where a retired buffer's storage goes: the program's stock, if any.
    stock: Option<Arc<BufferStock>>,
}

impl Pool {
    pub(crate) fn new(
        pipeline: PipelineId,
        queue: Arc<Queue>,
        rounds: Rounds,
        buffers: usize,
        buffer_size: usize,
        ledger: Option<Arc<MemoryLedger>>,
        stock: Option<Arc<BufferStock>>,
    ) -> Arc<Self> {
        Arc::new(Pool {
            pipeline,
            queue,
            rounds,
            buffers,
            buffer_size,
            started: AtomicU64::new(0),
            stopped: AtomicBool::new(false),
            ended: AtomicBool::new(false),
            ledger,
            charged: AtomicU64::new(0),
            stock,
        })
    }

    /// Up to a pool's worth of `stored` storage of exactly this pool's
    /// buffer size, taken out of `stored`.
    pub(crate) fn claim(&self, stored: &mut Vec<Box<[u8]>>) -> Vec<Box<[u8]>> {
        let fits = |s: &mut Box<[u8]>| s.len() == self.buffer_size;
        stored.extract_if(.., fits).take(self.buffers).collect()
    }

    /// Fill the pool's queue, before any stage thread runs: with the
    /// `claimed` storage first, then with fresh buffers.  A pipeline of
    /// zero rounds gets its caboose instead of buffers.
    pub(crate) fn seed(&self, mut claimed: Vec<Box<[u8]>>) -> Result<()> {
        if self.rounds == Rounds::Count(0) {
            return self.stop();
        }
        (0..self.buffers).try_for_each(|_| self.grow(claimed.pop()))
    }

    /// Add one buffer, of `storage` if given.  The queue admits the whole
    /// pool; the buffer ends with the program (its storage: [`Pool::settle`]).
    fn grow(&self, storage: Option<Box<[u8]>>) -> Result<()> {
        if let Some(l) = &self.ledger {
            l.charge_pool(self.buffer_size as u64);
            self.charged.fetch_add(1, Ordering::SeqCst);
        }
        let buf = match storage {
            Some(storage) => Buffer::reuse(storage, self.pipeline),
            None => Buffer::new(self.buffer_size, self.pipeline),
        };
        send(&self.queue, Item::Buf(buf)).map(drop)
    }

    /// Take `buf` out of circulation: its pipeline has ended.  Its storage
    /// goes to the stock, if the program has one.
    fn release(&self, buf: Buffer) {
        if let Some(stock) = &self.stock {
            stock.put(buf);
        }
        if let Some(l) = &self.ledger {
            l.credit_pool(self.buffer_size as u64);
            self.charged.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Credit whatever the pool still has charged, and hand the storage of
    /// every buffer left in its queue to the stock: no pool buffer outlives
    /// its program, but with a stock its storage does.  Called once every
    /// stage thread has joined.
    pub(crate) fn settle(&self) {
        if let Some(l) = &self.ledger {
            for _ in 0..self.charged.swap(0, Ordering::SeqCst) {
                l.credit_pool(self.buffer_size as u64);
            }
        }
        if let Some(stock) = &self.stock {
            while let Some(item) = self.queue.try_pop() {
                if let Item::Buf(buf) = item {
                    stock.put(buf);
                }
            }
        }
    }

    /// What the source did with a buffer that came home: either start the
    /// buffer's next round — `Some`, with `true` when the caller now owes
    /// the pipeline's caboose because this was the last round — or retire
    /// it (`None`: the pipeline has stopped or run out of rounds).
    fn begin_round(&self, mut buf: Buffer) -> Result<Option<(Buffer, bool)>> {
        if self.stopped.load(Ordering::SeqCst) {
            self.release(buf);
            return Ok(None);
        }
        let round = self.started.fetch_add(1, Ordering::SeqCst);
        let last = match self.rounds {
            Rounds::Count(n) if round >= n => {
                self.release(buf);
                return Ok(None);
            }
            Rounds::Count(n) => round + 1 == n && self.end(),
            Rounds::UntilStopped => false,
        };
        buf.begin_round(round);
        Ok(Some((buf, last)))
    }

    /// Claim the making of the pipeline's one caboose; true for the first
    /// caller only.
    fn end(&self) -> bool {
        !self.ended.swap(true, Ordering::SeqCst)
    }

    /// Start no more rounds (buffers that come home are retired); true
    /// when the caller now owes the pipeline's caboose.
    fn retire(&self) -> bool {
        self.stopped.store(true, Ordering::SeqCst);
        self.end()
    }

    /// End the stream from outside the first stage: the caboose goes into
    /// the pool, where it wakes a first stage parked on an empty one.  The
    /// queue has a slot for it beyond the pool.
    pub(crate) fn stop(&self) -> Result<()> {
        if self.retire() {
            send(&self.queue, Item::Caboose(self.pipeline))?;
        }
        Ok(())
    }
}

/// Shared state of a worker farm ([`Program::workers`](crate::Program::workers),
/// FG's fork–join): n replica threads share the stage's input and output
/// queues, so buffers fan out to whichever replica is free.  The caboose
/// must only travel downstream after *every* replica has finished, so
/// replicas pass it around like a poison pill until the last one consumes
/// it.  Emission is serialized by round: each replica, before conveying
/// (or discarding) round `r`, waits until every earlier round has been
/// emitted, so downstream stages observe rounds in order.  A farm belongs
/// to exactly one pipeline (`Program::validate`), so one count of each
/// kind serves it.
pub(crate) struct ReplicaGroup {
    /// Stage name the group replicates (diagnostics).
    name: String,
    /// The farm's one pipeline.
    pipeline: PipelineId,
    /// How many replicas have not yet seen the caboose.
    remaining: AtomicUsize,
    /// The next round allowed to emit.
    next_round: parking_lot::Mutex<u64>,
    emit_turn: parking_lot::Condvar,
    /// Set on program teardown so emission waiters unblock.
    cancelled: AtomicBool,
}

impl ReplicaGroup {
    pub(crate) fn new(name: String, replicas: usize, pipeline: PipelineId) -> Arc<Self> {
        Arc::new(ReplicaGroup {
            name,
            pipeline,
            remaining: AtomicUsize::new(replicas),
            next_round: parking_lot::Mutex::new(0),
            emit_turn: parking_lot::Condvar::new(),
            cancelled: AtomicBool::new(false),
        })
    }

    /// Record that one replica observed the caboose; returns true iff it
    /// was the last replica (which then owns forwarding).
    fn observe_caboose(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::SeqCst) == 1
    }

    /// Block until round `round` is the next to emit.
    fn await_turn(&self, stage: &str, round: u64) -> Result<()> {
        let mut next = self.next_round.lock();
        loop {
            let turn = *next;
            if round < turn {
                return Err(FgError::Usage(format!(
                    "farm stage `{stage}` emitted round {round} of {} twice \
                     (round {turn} is next); farms emit exactly one buffer \
                     per round",
                    self.pipeline
                )));
            }
            if round == turn {
                return Ok(());
            }
            if self.cancelled.load(Ordering::SeqCst) {
                return Err(FgError::Cancelled);
            }
            self.emit_turn.wait(&mut next);
        }
    }

    /// Mark round `round` emitted, releasing the waiter for the next round.
    fn finish_turn(&self, round: u64) {
        *self.next_round.lock() = round + 1;
        self.emit_turn.notify_all();
    }

    /// Wake every replica waiting for its emission turn (program
    /// teardown).
    pub(crate) fn cancel_wake(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        let _guard = self.next_round.lock();
        self.emit_turn.notify_all();
    }
}

/// One pipeline membership of a stage.
pub(crate) struct Port {
    pub(crate) pipeline: PipelineId,
    /// Input queue; `None` for virtual stages, which use the shared input.
    pub(crate) input: Option<Arc<Queue>>,
    /// The next stage's input; the pool's queue for the pipeline's last
    /// stage, which is all the sink ever was.
    pub(crate) output: Arc<Queue>,
    pub(crate) pool: Arc<Pool>,
    /// This stage heads the pipeline: its input is the pool, and its accept
    /// plays the source ([`Pool::begin_round`]).
    pub(crate) first: bool,
    /// This thread has observed the pipeline's caboose (and, where that
    /// fell to it, sent it on).
    pub(crate) eos: bool,
}

impl Port {
    /// Duplicate this port for another replica of the same stage (shared
    /// queues, fresh end-of-stream flags).
    pub(crate) fn clone_for_replica(&self) -> Port {
        Port {
            pipeline: self.pipeline,
            input: self.input.clone(),
            output: Arc::clone(&self.output),
            pool: Arc::clone(&self.pool),
            first: self.first,
            eos: false,
        }
    }

    /// The pipeline's last stage conveys into the pool; nothing there
    /// waits for a caboose.
    fn is_last(&self) -> bool {
        Arc::ptr_eq(&self.output, &self.pool.queue)
    }
}

/// One count a stage thread keeps ([`StageCounters`]): the thread's own
/// total and, when the program has a metrics registry, the registry's
/// counter of the stage's task name — which every thread of that name in
/// the registry (another rank's, a later pass's) adds into as well.
struct Tally {
    own: AtomicU64,
    registry: Option<Arc<Counter>>,
}

impl Tally {
    /// Add `n`.  Only the owning stage thread writes, so its own total
    /// needs no read-modify-write.
    fn add(&self, n: u64) {
        self.own
            .store(self.own.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        if let Some(c) = &self.registry {
            c.add(n);
        }
    }

    fn get(&self) -> u64 {
        self.own.load(Ordering::Relaxed)
    }
}

/// The one record of what a stage thread did, counted once per event and
/// read by everything that reports on the thread: its [`StageStats`] row
/// at exit, the registry's `core/stage_*` counters live and the watchdog
/// (its idle clock and post-mortem).  Owned by the program's [`Registry`];
/// only the thread itself writes it, at every queue operation, so no two
/// threads' blocks share a cache line.
#[repr(align(128))]
pub(crate) struct StageCounters {
    /// Buffers accepted.
    accepted: Tally,
    /// Buffers conveyed downstream.
    conveyed: Tally,
    /// Buffers that left the stage, conveyed or discarded
    /// (`core/stage_rounds/<task>`).
    rounds: Tally,
    busy_ns: Tally,
    blocked_accept_ns: Tally,
    blocked_convey_ns: Tally,
    /// The [`ThreadState`] the thread advertises, and since when in
    /// nanoseconds since its program started.
    state: AtomicU64,
    since_ns: AtomicU64,
}

impl StageCounters {
    fn new(task: &str, metrics: Option<&MetricsRegistry>) -> StageCounters {
        let tally = |prefix: Option<&str>| Tally {
            own: AtomicU64::new(0),
            registry: prefix
                .zip(metrics)
                .map(|(p, m)| m.counter(&format!("{p}{task}"))),
        };
        StageCounters {
            accepted: tally(None),
            conveyed: tally(None),
            rounds: tally(Some(STAGE_ROUNDS_PREFIX)),
            busy_ns: tally(Some(STAGE_BUSY_PREFIX)),
            blocked_accept_ns: tally(Some(STAGE_STARVED_PREFIX)),
            blocked_convey_ns: tally(Some(STAGE_BACKPRESSURED_PREFIX)),
            state: AtomicU64::new(ThreadState::Starting as u64),
            since_ns: AtomicU64::new(0),
        }
    }

    /// Advertise that the thread has been in `state` since `at`: the time
    /// the caller already took around its queue operation; no clock read.
    fn set_state(&self, state: ThreadState, at: u64) {
        self.state.store(state as u64, Ordering::Relaxed);
        self.since_ns.store(at, Ordering::Relaxed);
    }

    /// The advertised state and since when (ns since the program started).
    pub(crate) fn state(&self) -> (ThreadState, u64) {
        let state = ThreadState::from_u64(self.state.load(Ordering::Relaxed));
        (state, self.since_ns.load(Ordering::Relaxed))
    }

    /// `(accepted, rounds)`: the buffers the thread took in and handed on.
    pub(crate) fn traffic(&self) -> (u64, u64) {
        (self.accepted.get(), self.rounds.get())
    }

    /// The thread's row of the report: it ran for `wall`.
    pub(crate) fn stats(&self, name: String, wall: Duration) -> StageStats {
        StageStats {
            name,
            wall,
            blocked_accept: Duration::from_nanos(self.blocked_accept_ns.get()),
            blocked_convey: Duration::from_nanos(self.blocked_convey_ns.get()),
            buffers_in: self.accepted.get(),
            buffers_out: self.conveyed.get(),
        }
    }
}

/// The handle through which a stage interacts with its pipelines.
pub struct StageCtx {
    name: String,
    ports: Vec<Port>,
    /// Present iff the stage is virtual: the single queue shared by all
    /// member pipelines (Figure 5(b)).
    shared_input: Option<Arc<Queue>>,
    /// Present iff the stage is a farm of two or more workers: its shared
    /// caboose count and turnstile.
    replica_group: Option<Arc<ReplicaGroup>>,
    /// This thread's counters, the one record of what it did.
    counters: Arc<StageCounters>,
    /// Flight-recorder ring, the one span record; `None` (no trace sink)
    /// costs one never-taken branch per transition.
    ring: Option<Arc<crate::trace::SpanRing>>,
    /// The program's start: the stage's clock reads nanoseconds since.
    epoch: Instant,
    /// The ring's clock at `epoch` (its records are in nanoseconds since
    /// the sink's epoch).
    ring_base: u64,
    /// End of this thread's last queue operation (its start before the
    /// first): the gap to the next one is the stage's own work.
    last_end: u64,
    aux: Vec<u8>,
    /// Ports whose caboose this thread makes and must observe before it
    /// next waits on an input: it started the pipeline's last round
    /// ([`Pool::begin_round`]), so the stage was handed a buffer first and
    /// has to get the chance to convey it.
    owed: Vec<usize>,
    /// Ports not yet at end of stream.
    open: usize,
    registry: Arc<Registry>,
}

impl StageCtx {
    pub(crate) fn new(
        name: String,
        ports: Vec<Port>,
        shared_input: Option<Arc<Queue>>,
        registry: Arc<Registry>,
        counters: Arc<StageCounters>,
        epoch: Instant,
        started: Instant,
    ) -> Self {
        let started = (started - epoch).as_nanos() as u64;
        counters.set_state(ThreadState::Busy, started);
        StageCtx {
            name,
            open: ports.len(),
            ports,
            shared_input,
            replica_group: None,
            counters,
            ring: None,
            epoch,
            ring_base: 0,
            last_end: started,
            aux: Vec::new(),
            owed: Vec::new(),
            registry,
        }
    }

    pub(crate) fn set_replica_group(&mut self, group: Arc<ReplicaGroup>) {
        self.replica_group = Some(group);
    }

    /// Attach this thread's ring.
    pub(crate) fn set_ring(&mut self, ring: Arc<crate::trace::SpanRing>) {
        self.ring_base = ring.ns_of(self.epoch);
        self.ring = Some(ring);
    }

    /// The thread is done as of `at`: say so, and book the work since its
    /// last queue operation.
    pub(crate) fn retire(&mut self, at: Instant) {
        let at = (at - self.epoch).as_nanos() as u64;
        self.counters.set_state(ThreadState::Done, at);
        self.counters.busy_ns.add(at - self.last_end);
    }

    /// The stage's clock: nanoseconds since the program started.  Each
    /// instant of a queue operation is read once, and the counters, the
    /// thread state and the ring all take it from here.
    fn clock(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Flight-record `kind` of `(pipeline, round, tid)` over `start..end`
    /// on the stage's clock.
    fn record(
        &self,
        kind: TraceKind,
        pipeline: PipelineId,
        round: u64,
        tid: u64,
        start: u64,
        end: u64,
    ) {
        if let Some(ring) = &self.ring {
            let base = self.ring_base;
            ring.record(kind, pipeline.0, round, tid, base + start, base + end);
        }
    }

    /// The one timing rule, applied at every queue operation `t0..t1`: the
    /// gap since the last one was the stage's own work, and the operation
    /// itself a wait, booked to `waited`.
    fn book(&mut self, t0: u64, t1: u64, waited: impl Fn(&StageCounters) -> &Tally) {
        self.counters.busy_ns.add(t0 - self.last_end);
        waited(&self.counters).add(t1 - t0);
        self.last_end = t1;
    }

    /// Flight-record the wait `t0..t1` as the accept of `(pipeline, round,
    /// tid)` — all zero rounds/ids for a caboose — and flip this thread
    /// back to busy, which is progress for the watchdog's clock.
    fn trace_accept(&self, pipeline: PipelineId, round: u64, tid: u64, t0: u64, t1: u64) {
        self.record(TraceKind::Accept, pipeline, round, tid, t0, t1);
        self.counters.set_state(ThreadState::Busy, t1);
    }

    /// Name of this stage.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pipelines this stage belongs to, in membership (lane) order.
    pub fn pipelines(&self) -> impl Iterator<Item = PipelineId> + '_ {
        self.ports.iter().map(|p| p.pipeline)
    }

    /// Number of pipelines this stage belongs to.
    pub fn lanes(&self) -> usize {
        self.ports.len()
    }

    /// Lane index (0-based membership order) of a pipeline.
    pub fn lane(&self, pipeline: PipelineId) -> Result<usize> {
        self.port_index(pipeline)
    }

    /// True once the program is being torn down because some stage failed.
    pub fn is_cancelled(&self) -> bool {
        self.registry.is_cancelled()
    }

    /// Ports are wired in pipeline declaration order, so the lookup is a
    /// binary search however many lanes a virtual or common stage serves.
    fn port_index(&self, pipeline: PipelineId) -> Result<usize> {
        self.ports
            .binary_search_by_key(&pipeline, |p| p.pipeline)
            .map_err(|_| {
                FgError::Usage(format!(
                    "stage `{}` does not belong to {pipeline}",
                    self.name
                ))
            })
    }

    /// Direct accepts are for stages with their own input queues.
    fn not_virtual(&self) -> Result<()> {
        if self.shared_input.is_some() {
            return Err(FgError::Usage(format!(
                "stage `{}` is virtual; use accept_any()",
                self.name
            )));
        }
        Ok(())
    }

    /// `accept` names no pipeline, so there must be just one.
    fn sole_port(&self) -> Result<()> {
        self.not_virtual()?;
        if self.ports.len() != 1 {
            return Err(FgError::Usage(format!(
                "stage `{}` belongs to {} pipelines; use accept_from()",
                self.name,
                self.ports.len()
            )));
        }
        Ok(())
    }

    /// Accept the next buffer; only valid for a stage that belongs to
    /// exactly one pipeline.  Returns `Ok(None)` once at end of stream.
    pub fn accept(&mut self) -> Result<Option<Buffer>> {
        self.sole_port()?;
        self.take(Some(0))
    }

    /// Accept the next buffer from a specific pipeline (common stage of
    /// intersecting pipelines).  Returns `Ok(None)` once that pipeline's
    /// stream has ended.
    pub fn accept_from(&mut self, pipeline: PipelineId) -> Result<Option<Buffer>> {
        self.not_virtual()?;
        let idx = self.port_index(pipeline)?;
        self.take(Some(idx))
    }

    /// Accept the next buffer from whichever member pipeline has one ready
    /// (virtual stages only).  Returns `Ok(None)` once *all* member
    /// pipelines have ended.
    pub fn accept_any(&mut self) -> Result<Option<Buffer>> {
        if self.shared_input.is_none() {
            return Err(FgError::Usage(format!(
                "stage `{}` is not virtual; use accept()/accept_from()",
                self.name
            )));
        }
        self.take(None)
    }

    /// Accept using whatever mode fits this stage: `accept_any` when
    /// virtual, `accept` when it has a single pipeline.  Used by
    /// [`map_stage`] so the same closure works in both settings.
    pub fn accept_auto(&mut self) -> Result<Option<Buffer>> {
        if self.shared_input.is_some() {
            self.accept_any()
        } else {
            self.accept()
        }
    }

    /// Observe every caboose this thread holds ([`StageCtx::owed`]), now
    /// that the stage has had the chance to convey the buffers before it.
    /// Runs ahead of every wait on an input: a stage downstream may be
    /// waiting for this very caboose while it holds the buffers this
    /// thread is about to wait for.
    fn pay_cabooses(&mut self) -> Result<()> {
        while let Some(idx) = self.owed.pop() {
            let p = self.ports[idx].pipeline;
            self.observe_caboose(idx, p)?;
        }
        Ok(())
    }

    /// Take the buffer popped over the wait `t0..t1` into this stage.  The
    /// pipeline's first stage plays the source here, on its own thread: the
    /// buffer has come home to the pool, and either starts its next round
    /// under a fresh trace id or is retired (`None`).
    fn admit(&mut self, idx: usize, mut b: Buffer, t0: u64, t1: u64) -> Result<Option<Buffer>> {
        if self.ports[idx].first {
            let pipeline = b.pipeline();
            let Some((started, last)) = self.ports[idx].pool.begin_round(b)? else {
                // Still a wait this thread sat through: on the record, like
                // a caboose's.
                self.trace_accept(pipeline, 0, 0, t0, t1);
                return Ok(None);
            };
            b = started;
            if let Some(ring) = &self.ring {
                b.set_trace_id(ring.next_trace_id());
            }
            if last {
                self.owed.push(idx);
            }
        }
        self.counters.accepted.add(1);
        self.trace_accept(b.pipeline(), b.round(), b.trace_id(), t0, t1);
        Ok(Some(b))
    }

    /// Accept from port `lane`'s own input, or from a virtual stage's
    /// shared one (`None`) until every member pipeline has ended.  A pop
    /// that finds an item is one instant and no wait; only a miss
    /// advertises the wait, from `t0`, and takes the queue's wait rule.
    fn take(&mut self, lane: Option<usize>) -> Result<Option<Buffer>> {
        loop {
            self.pay_cabooses()?;
            if lane.map_or(self.open == 0, |idx| self.ports[idx].eos) {
                return Ok(None);
            }
            let input = match lane {
                Some(idx) => self.ports[idx].input.as_deref(),
                None => self.shared_input.as_deref(),
            }
            .expect("the planner wires every accept an input");
            let (popped, t0) = match input.try_pop() {
                Some(item) => (Ok(item), None),
                None => {
                    let t0 = self.clock();
                    self.counters.set_state(ThreadState::BlockedAccept, t0);
                    (input.pop_missed(), Some(t0))
                }
            };
            let t1 = self.clock();
            let t0 = t0.unwrap_or(t1);
            self.book(t0, t1, |c| &c.blocked_accept_ns);
            match popped.map_err(|_| FgError::Cancelled)? {
                Item::Buf(b) => {
                    let idx = lane.map_or_else(|| self.port_index(b.pipeline()), Ok)?;
                    if let Some(b) = self.admit(idx, b, t0, t1)? {
                        return Ok(Some(b));
                    }
                }
                Item::Caboose(p) => {
                    let idx = lane.map_or_else(|| self.port_index(p), Ok)?;
                    debug_assert_eq!(p, self.ports[idx].pipeline);
                    self.trace_accept(p, 0, 0, t0, t1);
                    // A lane ends here; a virtual stage keeps waiting while
                    // its other pipelines may still flow.
                    self.observe_caboose(idx, p)?;
                }
            }
        }
    }

    /// Handle a caboose popped from port `idx`: in a replica group, only
    /// the last replica to see it forwards it downstream — the others mark
    /// their own end of stream and hand the caboose to a sibling.
    fn observe_caboose(&mut self, idx: usize, p: PipelineId) -> Result<()> {
        if let Some(group) = self.replica_group.clone() {
            if !group.observe_caboose() {
                self.end_port(idx);
                if let Some(input) = &self.ports[idx].input {
                    send(input, Item::Caboose(p))?;
                }
                return Ok(());
            }
        }
        self.mark_eos_and_forward(p)
    }

    /// Convey a buffer to its pipeline's next stage.  The routing is
    /// determined by the buffer's pipeline tag; buffers cannot jump
    /// pipelines.
    pub fn convey(&mut self, buf: Buffer) -> Result<()> {
        let idx = self.port_index(buf.pipeline())?;
        if self.ports[idx].eos {
            return Err(FgError::Usage(format!(
                "stage `{}` conveyed a buffer on {} after observing its end \
                 of stream; convey or discard held buffers before accepting \
                 past the caboose",
                self.name,
                buf.pipeline()
            )));
        }
        if !self.emit(idx, buf, TraceKind::Convey)? {
            return Err(FgError::Cancelled);
        }
        self.counters.conveyed.add(1);
        Ok(())
    }

    /// Return a buffer straight to its pipeline's buffer pool without
    /// passing it downstream (e.g. a spent input buffer the stage consumed
    /// wholesale).  Equivalent to conveying it when this stage is the last
    /// stage of that pipeline.
    pub fn discard(&mut self, buf: Buffer) -> Result<()> {
        let idx = self.port_index(buf.pipeline())?;
        // A closed pool means the program is being torn down: the buffer's
        // memory is simply released.
        self.emit(idx, buf, TraceKind::Recycle).map(drop)
    }

    /// Hand `buf` on from port `idx`: downstream for a `Convey`, back to
    /// its pool for a `Recycle`.  False when the queue was closed under it.
    fn emit(&mut self, idx: usize, buf: Buffer, kind: TraceKind) -> Result<bool> {
        let (pipeline, round, tid) = (buf.pipeline(), buf.round(), buf.trace_id());
        // The buffer leaves this stage whether the push lands or the
        // program is cancelled underneath it.
        self.counters.rounds.add(1);
        let t0 = self.clock();
        // The gap since this thread's last queue operation is the stage's
        // own computation on this buffer: record it as a `Work` span.
        if t0 > self.last_end {
            self.record(TraceKind::Work, pipeline, round, tid, self.last_end, t0);
        }
        // In a farm, wait until every earlier round has been
        // emitted so downstream stages see rounds in order — a discarded
        // round too: it produces nothing downstream, but later rounds may
        // only emit after it.  The wait is the blocked-convey time: the
        // replica is done computing and is stalled behind a slower earlier
        // round.
        let mut t_push = t0;
        if let Some(group) = self.replica_group.as_deref() {
            self.counters.set_state(ThreadState::TurnWait, t0);
            group.await_turn(&self.name, round)?;
            t_push = self.clock();
            self.record(TraceKind::TurnWait, pipeline, round, tid, t0, t_push);
        }
        let port = &self.ports[idx];
        let queue = match kind {
            TraceKind::Recycle => &port.pool.queue,
            _ => &port.output,
        };
        let sent = send(queue, Item::Buf(buf));
        if matches!(sent, Ok(true)) {
            if let Some(group) = &self.replica_group {
                group.finish_turn(round);
            }
        }
        // The push never waits: it is the instant `t_push`, and the time it
        // took is the stage's own, in its next `Work` span.
        self.book(t0, t_push, |c| &c.blocked_convey_ns);
        let sent = sent?;
        if sent {
            self.record(kind, pipeline, round, tid, t_push, t_push);
            self.counters.set_state(ThreadState::Busy, t_push);
        }
        Ok(sent)
    }

    /// Stop an [`Rounds::UntilStopped`] pipeline: its first stage starts
    /// no more rounds and sees end of stream at its current or next accept.
    /// Idempotent.
    pub fn stop(&mut self, pipeline: PipelineId) -> Result<()> {
        let idx = self.port_index(pipeline)?;
        self.ports[idx].pool.stop()
    }

    /// A scratch buffer of at least `len` bytes, reused across calls (FG's
    /// auxiliary buffer, used e.g. for out-of-place permutations).
    pub fn aux(&mut self, len: usize) -> &mut [u8] {
        if self.aux.len() < len {
            self.aux.resize(len, 0);
        }
        &mut self.aux[..len]
    }

    /// Port `idx` is at end of stream; false if it already was.
    fn end_port(&mut self, idx: usize) -> bool {
        let ended = !std::mem::replace(&mut self.ports[idx].eos, true);
        if ended {
            self.open -= 1;
        }
        ended
    }

    fn mark_eos_and_forward(&mut self, pipeline: PipelineId) -> Result<()> {
        let idx = self.port_index(pipeline)?;
        if self.end_port(idx) && !self.ports[idx].is_last() {
            send(&self.ports[idx].output, Item::Caboose(pipeline))?;
        }
        Ok(())
    }

    /// A buffer drained by [`StageCtx::finish`] goes back to its pool — or
    /// out of circulation when this stage *is* the head of the pool, which
    /// it has retired: draining a pool into itself would never end.
    fn drain_buffer(&self, idx: usize, buf: Buffer) -> Result<()> {
        let port = &self.ports[idx];
        if port.first {
            port.pool.release(buf);
        } else {
            send(&port.pool.queue, Item::Buf(buf))?;
        }
        Ok(())
    }

    /// Post-run cleanup executed by the runtime: end the pipelines this
    /// stage heads and stop the `UntilStopped` ones it is part of, drain
    /// unconsumed inputs (recycling their buffers), and guarantee exactly
    /// one caboose went downstream per pipeline.
    pub(crate) fn finish(&mut self) {
        // Queues closing under the wind-down end it (`pop` fails); a full
        // one is the program's error like anywhere else.
        if let Err(e) = self.wind_down() {
            self.registry.cancel(e);
        }
    }

    fn wind_down(&mut self) -> Result<()> {
        for idx in 0..self.ports.len() {
            let port = &self.ports[idx];
            if port.eos {
                continue;
            }
            if port.first {
                // Returned early from a stream only it can end.
                if port.pool.retire() {
                    self.owed.push(idx);
                }
            } else if port.pool.rounds == Rounds::UntilStopped {
                port.pool.stop()?;
            }
        }
        self.pay_cabooses()?;
        // Drain the shared input (virtual stage) until every lane ends.
        if let Some(shared) = self.shared_input.clone() {
            while self.open > 0 {
                match shared.pop() {
                    Ok(Item::Buf(b)) => {
                        if let Ok(idx) = self.port_index(b.pipeline()) {
                            self.drain_buffer(idx, b)?;
                        }
                    }
                    Ok(Item::Caboose(p)) => self.mark_eos_and_forward(p)?,
                    Err(_) => break,
                }
            }
        }
        // Drain per-pipeline inputs.
        for idx in 0..self.ports.len() {
            let Some(input) = self.ports[idx].input.clone() else {
                continue;
            };
            while !self.ports[idx].eos {
                match input.pop() {
                    Ok(Item::Buf(b)) => self.drain_buffer(idx, b)?,
                    Ok(Item::Caboose(p)) => self.observe_caboose(idx, p)?,
                    Err(_) => break,
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_state_keeps_the_callers_timestamp() {
        let counters = StageCounters::new("s", None);
        assert_eq!(counters.state(), (ThreadState::Starting, 0));
        counters.set_state(ThreadState::BlockedAccept, 5_000_000);
        assert_eq!(counters.state(), (ThreadState::BlockedAccept, 5_000_000));
    }
}
