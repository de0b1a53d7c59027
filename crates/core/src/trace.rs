//! Causal tracing: per-buffer spans, the flight recorder, and watchdog
//! post-mortems.
//!
//! Aggregate metrics (PR 1–2) say which stage is busy *on average*; they
//! cannot explain a slow round, a tail-latency spike, or a hung farm.  This
//! module records *what actually happened*, cheaply enough to leave on:
//!
//! * every buffer carries a **trace id** (assigned by the source when it
//!   injects a round), and
//! * every stage transition — source-inject, accept, work, convey, recycle,
//!   farm turnstile wait, controller actuation — appends a
//!   fixed-size [`SpanRec`] into a per-thread **flight recorder ring**
//!   ([`SpanRing`]).
//!
//! The ring is bounded (overwrite-oldest), allocation-free on the hot path,
//! and entirely absent when no [`TraceSink`] is installed: stages hold an
//! `Option<Arc<SpanRing>>` that is `None`, so the untraced cost is one
//! never-taken branch per transition.
//!
//! The ring is the *one* span record: the runtime times each queue
//! operation once and hands the same two instants to the `StageStats`
//! accumulators, the live `core/stage_*` counters, the ring record and the
//! thread state.  [`Program::enable_tracing`](crate::Program::enable_tracing)
//! copies a run's rings into [`Report::trace`](crate::Report), which is
//! what the Gantt chart and [`Report::to_chrome_trace`](crate::Report)
//! read.  Retention is the newest [`DEFAULT_RING_CAPACITY`] spans per
//! thread (or [`TraceSink::with_ring_capacity`]).
//!
//! From the collected span log, [`crate::critical_path`] reconstructs
//! per-round buffer timelines, and [`TraceSink::to_chrome_trace`] exports
//! the spans with *flow events* linking each buffer's journey across stage
//! tracks (loadable in <https://ui.perfetto.dev>).
//!
//! On top of the recorder sits the **watchdog**
//! ([`Program::set_watchdog`](crate::Program::set_watchdog)): if no span is
//! recorded pipeline-wide for a configurable timeout, it assembles a
//! [`Postmortem`] — per-thread state with the last N spans, live queue
//! depths, farm turnstile positions, and a best-guess culprit — renders it
//! to stderr and optionally a JSON artifact, then aborts the program:
//! queues close, stages unblock, and [`Program::run`](crate::Program::run)
//! returns [`FgError::Stalled`](crate::FgError::Stalled) naming the culprit.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::json::{obj, Json};

/// Sentinel `pipeline` value for spans not tied to any pipeline (the
/// controller's actuations).
pub const IO_PIPELINE: u32 = u32::MAX;

/// Sentinel `pipeline` value for cluster-communication spans (p2p sends and
/// receives, collectives) recorded by a `Communicator` rather than a
/// pipeline stage.
pub const COMM_PIPELINE: u32 = u32::MAX - 1;

/// Default number of span slots per thread ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Trace context that rides every fabric message envelope: which rank
/// originated the message, the trace id of the buffer (or collective) it
/// carries, and the sender's per-communicator sequence number.
///
/// This is the **cross-node causality contract**: a receiver records its
/// `comm-recv` span under the *sender's* trace id, so the Chrome-trace
/// exporter can stitch one flow arrow from the sending rank's pipeline
/// through the fabric into the receiving rank's pipeline.  The simulated
/// fabric passes the struct by value; a network transport must carry
/// [`TraceCtx::encode`]'s fixed [`TraceCtx::WIRE_LEN`]-byte frame header
/// (all fields little-endian) so traces survive the socket boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Rank that originated the message.
    pub origin: u32,
    /// Trace id of the buffer or collective the message belongs to
    /// (0 = untraced).
    pub trace_id: u64,
    /// The sender's send/collective sequence number when it sent.
    pub seq: u64,
}

impl TraceCtx {
    /// Encoded size in bytes: origin (4) + trace_id (8) + seq (8).
    pub const WIRE_LEN: usize = 20;

    /// The "no tracing" context (untraced runs send this).
    pub const NONE: TraceCtx = TraceCtx {
        origin: 0,
        trace_id: 0,
        seq: 0,
    };

    /// True when the context carries no trace id (untraced message).
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }

    /// Fixed-size little-endian wire encoding (the TCP frame-header
    /// contract for the trace context).
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0..4].copy_from_slice(&self.origin.to_le_bytes());
        out[4..12].copy_from_slice(&self.trace_id.to_le_bytes());
        out[12..20].copy_from_slice(&self.seq.to_le_bytes());
        out
    }

    /// Parse an encoding written by [`TraceCtx::encode`].  `None` when the
    /// slice is not exactly [`TraceCtx::WIRE_LEN`] bytes.
    pub fn decode(bytes: &[u8]) -> Option<TraceCtx> {
        if bytes.len() != Self::WIRE_LEN {
            return None;
        }
        Some(TraceCtx {
            origin: u32::from_le_bytes(bytes[0..4].try_into().ok()?),
            trace_id: u64::from_le_bytes(bytes[4..12].try_into().ok()?),
            seq: u64::from_le_bytes(bytes[12..20].try_into().ok()?),
        })
    }
}

/// What a [`SpanRec`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A stage waited on and popped its input queue.  At a pipeline's
    /// first stage the input is the buffer pool and the pop starts the
    /// buffer's round: this is the first span to carry the round's trace id.
    Accept,
    /// A stage's own computation between accepting a buffer and starting to
    /// convey it.
    Work,
    /// A stage pushed a buffer into its output queue (momentary: a push
    /// never waits).
    Convey,
    /// A stage discarded a buffer straight back to its pipeline's pool.
    Recycle,
    /// An ordered farm replica waited at the turnstile for its round's turn
    /// to emit.
    TurnWait,
    /// The live controller applied an actuation (grew a farm, resized a
    /// buffer pool, retuned an I/O depth).  Not tied to any buffer; the
    /// `round` field carries the decision sequence number.
    Actuate,
    /// A `Communicator` handed a tagged point-to-point message to the
    /// fabric.  `round` carries the sender's send sequence; `trace_id` the
    /// buffer's id when the caller propagated one.
    CommSend,
    /// A `Communicator` waited for and received a point-to-point message.
    /// `round` and `trace_id` come from the *sender's* [`TraceCtx`], which
    /// is what stitches the cross-rank flow.
    CommRecv,
    /// One rank's participation in a `barrier` call (entry to release).
    Barrier,
    /// One rank's participation in a `broadcast` call.
    Broadcast,
    /// One rank's participation in an `allgather` call.
    Allgather,
    /// One rank's participation in an `alltoallv` call.
    Alltoallv,
}

impl TraceKind {
    /// Short stable label (used in Chrome traces and JSON).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Accept => "accept",
            TraceKind::Work => "work",
            TraceKind::Convey => "convey",
            TraceKind::Recycle => "recycle",
            TraceKind::TurnWait => "turn-wait",
            TraceKind::Actuate => "actuate",
            TraceKind::CommSend => "comm-send",
            TraceKind::CommRecv => "comm-recv",
            TraceKind::Barrier => "barrier",
            TraceKind::Broadcast => "broadcast",
            TraceKind::Allgather => "allgather",
            TraceKind::Alltoallv => "alltoallv",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "accept" => TraceKind::Accept,
            "work" => TraceKind::Work,
            "convey" => TraceKind::Convey,
            "recycle" => TraceKind::Recycle,
            "turn-wait" => TraceKind::TurnWait,
            "actuate" => TraceKind::Actuate,
            "comm-send" => TraceKind::CommSend,
            "comm-recv" => TraceKind::CommRecv,
            "barrier" => TraceKind::Barrier,
            "broadcast" => TraceKind::Broadcast,
            "allgather" => TraceKind::Allgather,
            "alltoallv" => TraceKind::Alltoallv,
            _ => return None,
        })
    }

    /// True for span kinds that consume a buffer from upstream.
    fn is_intake(self) -> bool {
        matches!(self, TraceKind::Accept)
    }

    /// True for span kinds that hand a buffer on: downstream, or back to
    /// its pool.
    fn is_emit(self) -> bool {
        matches!(self, TraceKind::Convey | TraceKind::Recycle)
    }
}

/// One fixed-size flight-recorder record: `kind` happened to the buffer
/// `(pipeline, round, trace_id)` between `start_ns` and `end_ns`
/// (nanoseconds since the owning [`TraceSink`]'s epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// What happened.
    pub kind: TraceKind,
    /// Pipeline the buffer belongs to ([`IO_PIPELINE`] for actuations).
    pub pipeline: u32,
    /// Round of the buffer involved.
    pub round: u64,
    /// Trace id of the buffer involved (0 when the transition involved no
    /// traced buffer — e.g. a pop that returned a caboose).
    pub trace_id: u64,
    /// Span start, ns since the sink epoch.
    pub start_ns: u64,
    /// Span end, ns since the sink epoch.
    pub end_ns: u64,
}

impl SpanRec {
    const EMPTY: SpanRec = SpanRec {
        kind: TraceKind::Accept,
        pipeline: 0,
        round: 0,
        trace_id: 0,
        start_ns: 0,
        end_ns: 0,
    };

    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// JSON object for this record.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.label().into())),
            ("pipeline".into(), Json::Num(self.pipeline as f64)),
            ("round".into(), Json::Num(self.round as f64)),
            ("trace_id".into(), Json::Num(self.trace_id as f64)),
            ("start_ns".into(), Json::Num(self.start_ns as f64)),
            ("end_ns".into(), Json::Num(self.end_ns as f64)),
        ])
    }

    /// Parse a record written by [`SpanRec::to_json`].
    pub fn from_json(v: &Json) -> Option<SpanRec> {
        Some(SpanRec {
            kind: TraceKind::from_label(v.get("kind")?.as_str()?)?,
            pipeline: v.get("pipeline")?.as_u64()? as u32,
            round: v.get("round")?.as_u64()?,
            trace_id: v.get("trace_id")?.as_u64()?,
            start_ns: v.get("start_ns")?.as_u64()?,
            end_ns: v.get("end_ns")?.as_u64()?,
        })
    }
}

/// Coarse state a traced thread advertises for the watchdog's post-mortem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Not yet past its first transition.
    Starting,
    /// Executing stage code.
    Busy,
    /// Blocked popping an input queue (the buffer pool, for a pipeline's
    /// first stage).
    BlockedAccept,
    /// Pushing an output queue — momentary, since a push never waits, so
    /// a thread stalled here points at the queue itself.
    BlockedConvey,
    /// Blocked at an ordered farm's emission turnstile.
    TurnWait,
    /// Finished; the thread has exited (or is draining for exit).
    Done,
}

impl ThreadState {
    /// Inverse of `state as u64` (the variants' declaration order).
    fn from_u64(v: u64) -> ThreadState {
        match v {
            1 => ThreadState::Busy,
            2 => ThreadState::BlockedAccept,
            3 => ThreadState::BlockedConvey,
            4 => ThreadState::TurnWait,
            5 => ThreadState::Done,
            _ => ThreadState::Starting,
        }
    }

    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            ThreadState::Starting => "starting",
            ThreadState::Busy => "busy",
            ThreadState::BlockedAccept => "blocked-accept",
            ThreadState::BlockedConvey => "blocked-convey",
            ThreadState::TurnWait => "turn-wait",
            ThreadState::Done => "done",
        }
    }
}

impl fmt::Display for ThreadState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One thread's flight recorder: a fixed number of [`SpanRec`] slots
/// overwritten oldest-first, plus the thread's advertised [`ThreadState`].
///
/// `record` never allocates: it claims a slot with one `fetch_add` and
/// overwrites it under that slot's (uncontended) mutex — the mutexes exist
/// only so the watchdog can snapshot a consistent record without `unsafe`.
/// Memory is bounded at `capacity * size_of::<SpanRec>()` per thread for
/// the life of the run.
pub struct SpanRing {
    name: String,
    /// Track group (cluster rank) this thread belongs to, if any; grouped
    /// rings render under a per-node track group in the Chrome export.
    group: Option<u32>,
    epoch: Instant,
    slots: Box<[Mutex<SpanRec>]>,
    /// Total records ever written; `cursor % slots.len()` is the next slot.
    cursor: AtomicU64,
    /// Buffers taken in (accept spans recorded).
    intakes: AtomicU64,
    /// Buffers handed on (convey/recycle spans recorded).
    emits: AtomicU64,
    state: AtomicU64,
    state_since_ns: AtomicU64,
    /// Shared with the owning sink: bumped on every record, pipeline-wide.
    last_activity_ns: Arc<AtomicU64>,
    /// Shared with the owning sink: the next buffer trace id.
    next_trace_id: Arc<AtomicU64>,
}

impl SpanRing {
    fn new(
        name: String,
        group: Option<u32>,
        epoch: Instant,
        capacity: usize,
        last: Arc<AtomicU64>,
        next_trace_id: Arc<AtomicU64>,
    ) -> SpanRing {
        let slots: Vec<Mutex<SpanRec>> = (0..capacity.max(1))
            .map(|_| Mutex::new(SpanRec::EMPTY))
            .collect();
        SpanRing {
            name,
            group,
            epoch,
            slots: slots.into_boxed_slice(),
            cursor: AtomicU64::new(0),
            intakes: AtomicU64::new(0),
            emits: AtomicU64::new(0),
            state: AtomicU64::new(ThreadState::Starting as u64),
            state_since_ns: AtomicU64::new(0),
            last_activity_ns: last,
            next_trace_id,
        }
    }

    /// A fresh non-zero trace id, unique across the owning sink, for a
    /// buffer starting a round on this thread.
    pub(crate) fn next_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Name of the thread this ring records (`program/task`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nanoseconds since the owning sink's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Convert an [`Instant`] into sink-epoch nanoseconds (0 if earlier
    /// than the epoch).
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64)
    }

    /// Append one span record, overwriting the oldest when full.
    pub fn record(
        &self,
        kind: TraceKind,
        pipeline: u32,
        round: u64,
        trace_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let i = self.cursor.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        *slot.lock() = SpanRec {
            kind,
            pipeline,
            round,
            trace_id,
            start_ns,
            end_ns,
        };
        // `trace_id == 0` is a transition that moved no buffer (a pop that
        // returned a caboose): progress, but neither an intake nor an emit.
        if trace_id != 0 {
            if kind.is_intake() {
                self.intakes.fetch_add(1, Ordering::Relaxed);
            } else if kind.is_emit() {
                self.emits.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.last_activity_ns.fetch_max(end_ns, Ordering::Relaxed);
    }

    /// Advertise what this thread has been doing since `at_ns` (sink-epoch
    /// ns, see [`SpanRing::ns_of`]) for post-mortems.  The caller passes the
    /// timestamp it already took around its queue operation; this reads no
    /// clock.
    pub fn set_state(&self, state: ThreadState, at_ns: u64) {
        self.state.store(state as u64, Ordering::Relaxed);
        self.state_since_ns.store(at_ns, Ordering::Relaxed);
    }

    /// Current advertised state and how long the thread has been in it.
    pub fn state(&self) -> (ThreadState, Duration) {
        let st = ThreadState::from_u64(self.state.load(Ordering::Relaxed));
        let since = self.state_since_ns.load(Ordering::Relaxed);
        let for_ns = self.now_ns().saturating_sub(since);
        (st, Duration::from_nanos(for_ns))
    }

    /// Buffers this thread took in (accepts recorded).
    pub fn intakes(&self) -> u64 {
        self.intakes.load(Ordering::Relaxed)
    }

    /// Buffers this thread handed on (conveys + recycles recorded).
    pub fn emits(&self) -> u64 {
        self.emits.load(Ordering::Relaxed)
    }

    /// Records written over the ring's lifetime (may exceed capacity).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Copy out the live records, oldest first.
    ///
    /// Concurrent writers may overwrite slots while the copy runs; each
    /// individual record is still read consistently (per-slot lock), which
    /// is all a diagnostic snapshot needs.
    pub fn snapshot(&self) -> Vec<SpanRec> {
        let n = self.cursor.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut out = Vec::with_capacity(n.min(cap) as usize);
        if n <= cap {
            for slot in &self.slots[..n as usize] {
                out.push(*slot.lock());
            }
        } else {
            let split = (n % cap) as usize;
            for slot in &self.slots[split..] {
                out.push(*slot.lock());
            }
            for slot in &self.slots[..split] {
                out.push(*slot.lock());
            }
        }
        out
    }

    /// This thread's collected log: the live records plus how many were
    /// ever written, so a reader can tell how many the ring dropped.
    pub fn log(&self) -> ThreadLog {
        // Read the count first: a writer racing the copy can only make
        // `spans` newer than `recorded`, never claim drops that didn't happen.
        let recorded = self.recorded();
        ThreadLog {
            thread: self.name.clone(),
            group: self.group,
            recorded,
            spans: self.snapshot(),
        }
    }
}

impl fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanRing")
            .field("name", &self.name)
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// Advertise on `ring`, when there is one, that its thread has been in
/// `state` since `at` — an instant the caller already took around its queue
/// operation.
pub(crate) fn enter(ring: &Option<Arc<SpanRing>>, state: ThreadState, at: Instant) {
    if let Some(ring) = ring {
        ring.set_state(state, ring.ns_of(at));
    }
}

/// The collected span log of one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadLog {
    /// Thread name (`program/task`).
    pub thread: String,
    /// Track group (cluster rank) the thread was registered under, if any.
    pub group: Option<u32>,
    /// Records the thread ever wrote; `recorded - spans.len()` were
    /// overwritten by newer ones (the ring keeps the newest).
    pub recorded: u64,
    /// Retained records, oldest first.
    pub spans: Vec<SpanRec>,
}

impl ThreadLog {
    /// The task part of the thread name (after the `program/` prefix).
    pub fn task(&self) -> &str {
        self.thread
            .split_once('/')
            .map_or(self.thread.as_str(), |(_, t)| t)
    }

    /// Records the ring overwrote before this log was collected.
    pub fn dropped(&self) -> u64 {
        self.recorded.saturating_sub(self.spans.len() as u64)
    }

    /// JSON object for this log (`group` only when the thread has one).
    pub fn to_json(&self) -> Json {
        let mut members = vec![("thread".into(), Json::Str(self.thread.clone()))];
        if let Some(g) = self.group {
            members.push(("group".into(), Json::Num(g as f64)));
        }
        members.push(("recorded".into(), Json::Num(self.recorded as f64)));
        members.push((
            "spans".into(),
            Json::Arr(self.spans.iter().map(SpanRec::to_json).collect()),
        ));
        Json::Obj(members)
    }

    /// Parse a log written by [`ThreadLog::to_json`].
    pub fn from_json(v: &Json) -> Option<ThreadLog> {
        let spans = v
            .get("spans")?
            .as_arr()?
            .iter()
            .map(SpanRec::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(ThreadLog {
            thread: v.get("thread")?.as_str()?.to_string(),
            group: v.get("group").and_then(Json::as_u64).map(|g| g as u32),
            recorded: v.get("recorded")?.as_u64()?,
            spans,
        })
    }
}

/// Destination for causal traces: owns the epoch all spans are measured
/// against, hands out per-thread [`SpanRing`]s, assigns buffer trace ids,
/// and exports the collected log.
///
/// Install one on a program with
/// [`Program::set_trace_sink`](crate::Program::set_trace_sink); the sink
/// outlives the run, so the log can be collected after `run()` returns.
/// One sink may serve several programs (e.g. both passes of a sort) — ring
/// names carry the program name, keeping threads distinct.
pub struct TraceSink {
    epoch: Instant,
    ring_capacity: usize,
    rings: Mutex<Vec<Arc<SpanRing>>>,
    last_activity_ns: Arc<AtomicU64>,
    next_trace_id: Arc<AtomicU64>,
}

impl TraceSink {
    /// A sink whose rings hold [`DEFAULT_RING_CAPACITY`] spans each.
    pub fn new() -> Arc<TraceSink> {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A sink whose rings hold `capacity` spans each (min 1).
    pub fn with_ring_capacity(capacity: usize) -> Arc<TraceSink> {
        Arc::new(TraceSink {
            epoch: Instant::now(),
            ring_capacity: capacity.max(1),
            rings: Mutex::new(Vec::new()),
            last_activity_ns: Arc::new(AtomicU64::new(0)),
            next_trace_id: Arc::new(AtomicU64::new(1)),
        })
    }

    /// Register (and return) the flight-recorder ring for thread `name`.
    pub fn register_thread(&self, name: impl Into<String>) -> Arc<SpanRing> {
        self.register(name.into(), None)
    }

    /// Register a ring under track group `group` (a cluster rank): the
    /// Chrome export renders all of a group's threads under one per-node
    /// process track instead of the flat default.
    pub fn register_thread_in_group(&self, name: impl Into<String>, group: u32) -> Arc<SpanRing> {
        self.register(name.into(), Some(group))
    }

    fn register(&self, name: String, group: Option<u32>) -> Arc<SpanRing> {
        let ring = Arc::new(SpanRing::new(
            name,
            group,
            self.epoch,
            self.ring_capacity,
            Arc::clone(&self.last_activity_ns),
            Arc::clone(&self.next_trace_id),
        ));
        self.rings.lock().push(Arc::clone(&ring));
        ring
    }

    /// A fresh non-zero trace id for a buffer about to start a round.
    pub fn next_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since the sink's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Mark "activity now": called at run start so a watchdog's idle clock
    /// starts from the run, not from sink creation.
    pub fn touch(&self) {
        self.last_activity_ns
            .fetch_max(self.now_ns(), Ordering::Relaxed);
    }

    /// How long since *any* ring recorded a span.
    pub fn idle(&self) -> Duration {
        let last = self.last_activity_ns.load(Ordering::Relaxed);
        Duration::from_nanos(self.now_ns().saturating_sub(last))
    }

    /// Snapshot of all registered rings (for the watchdog).
    pub(crate) fn rings(&self) -> Vec<Arc<SpanRing>> {
        self.rings.lock().clone()
    }

    /// Collect every thread's live records, oldest first per thread.
    pub fn collect(&self) -> Vec<ThreadLog> {
        self.rings.lock().iter().map(|r| r.log()).collect()
    }

    /// Export every registered thread's spans as a Chrome trace-event JSON
    /// document (load it in <https://ui.perfetto.dev>).
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.collect())
    }
}

/// The workspace's one Chrome-trace writer
/// ([`TraceSink::to_chrome_trace`] and
/// [`Report::to_chrome_trace`](crate::Report::to_chrome_trace) both call
/// it): one track per
/// thread with a slice per span, plus *flow events* stitching each trace
/// id's spans together across tracks — Perfetto draws an arrow following
/// the buffer from stage to stage.
///
/// Threads registered with [`TraceSink::register_thread_in_group`] render
/// under a per-group *process* track (`pid = group + 2`, named
/// `node{group}`), so a cluster run shows one track group per rank and
/// the flow arrows cross rank boundaries; ungrouped threads keep the flat
/// single-process layout (`pid = 1`).
pub(crate) fn chrome_trace(logs: &[ThreadLog]) -> String {
    let mut events: Vec<Json> = Vec::new();
    let us = |ns: u64| Json::Num(ns as f64 / 1_000.0);
    let pid_of = |group: Option<u32>| group.map_or(1u64, |g| g as u64 + 2);
    // Name each grouped process track once.
    let mut named_pids: Vec<u64> = Vec::new();
    // (pid, tid, span) of every traced-buffer span, for flow stitching.
    let mut flows: Vec<(u64, u64, SpanRec)> = Vec::new();
    for (i, log) in logs.iter().enumerate() {
        let tid = i as u64 + 1;
        let pid = pid_of(log.group);
        if let Some(g) = log.group {
            if !named_pids.contains(&pid) {
                named_pids.push(pid);
                events.push(obj(vec![
                    ("name", Json::from("process_name")),
                    ("ph", Json::from("M")),
                    ("pid", Json::from(pid)),
                    ("args", obj(vec![("name", Json::from(format!("node{g}")))])),
                ]));
            }
        }
        events.push(obj(vec![
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(tid)),
            ("args", obj(vec![("name", Json::from(log.thread.as_str()))])),
        ]));
        for &s in &log.spans {
            let args = obj(vec![
                ("pipeline", Json::from(u64::from(s.pipeline))),
                ("round", Json::from(s.round)),
                ("trace_id", Json::from(s.trace_id)),
            ]);
            events.push(obj(vec![
                ("name", Json::from(s.kind.label())),
                ("cat", Json::from("span")),
                ("ph", Json::from("X")),
                ("pid", Json::from(pid)),
                ("tid", Json::from(tid)),
                ("ts", us(s.start_ns)),
                ("dur", us(s.dur_ns().max(1))),
                ("args", args),
            ]));
            if s.trace_id != 0 {
                flows.push((pid, tid, s));
            }
        }
    }
    // Flow events: for each trace id, one start ("s") at the first span,
    // steps ("t") in between, and a finish ("f", binding to the enclosing
    // slice) at the last.  Spans are taken in the order they *end*: a
    // stage's accept opens before the buffer it waits for has even started
    // its round, but closes when the buffer arrives — so a round's flow
    // starts at the first stage's accept, which takes the buffer from the
    // pool.  `ts` sits inside each span's slice, no earlier than the arrow
    // before it, so the viewer can attach the arrow.
    flows.sort_by_key(|(_, _, s)| (s.trace_id, s.end_ns, s.start_ns));
    let mut i = 0;
    while i < flows.len() {
        let id = flows[i].2.trace_id;
        let mut j = i;
        while j < flows.len() && flows[j].2.trace_id == id {
            j += 1;
        }
        let mut at = 0;
        if j - i >= 2 {
            for (k, (pid, tid, s)) in flows[i..j].iter().enumerate() {
                at = s.start_ns.max(at);
                let ph = if i + k == i {
                    "s"
                } else if i + k == j - 1 {
                    "f"
                } else {
                    "t"
                };
                // The id is a hex *string*: collective trace ids set
                // bit 62, beyond f64's exact-integer range, and a
                // numeric id would collapse distinct collectives.
                let mut ev = vec![
                    ("name", Json::from("buffer")),
                    ("cat", Json::from("flow")),
                    ("ph", Json::from(ph)),
                    ("id", Json::from(format!("{id:x}"))),
                    ("pid", Json::from(*pid)),
                    ("tid", Json::from(*tid)),
                    ("ts", us(at)),
                ];
                if ph == "f" {
                    ev.push(("bp", Json::from("e")));
                }
                events.push(obj(ev));
            }
        }
        i = j;
    }
    obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
    .to_string()
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("ring_capacity", &self.ring_capacity)
            .field("threads", &self.rings.lock().len())
            .finish()
    }
}

/// Watchdog configuration: fire when no span is recorded pipeline-wide for
/// `timeout`.
#[derive(Debug, Clone)]
pub struct WatchdogCfg {
    /// Pipeline-wide idle time that counts as a stall.
    pub timeout: Duration,
    /// Where to write the post-mortem JSON artifact (stderr always gets the
    /// rendered report).
    pub artifact: Option<PathBuf>,
    /// How many trailing spans per thread the post-mortem keeps.
    pub last_spans: usize,
}

impl WatchdogCfg {
    /// Abort-on-stall watchdog with the given timeout and no artifact.
    pub fn new(timeout: Duration) -> WatchdogCfg {
        WatchdogCfg {
            timeout,
            artifact: None,
            last_spans: 16,
        }
    }

    /// Write the post-mortem JSON to `path` in addition to stderr.
    pub fn artifact(mut self, path: impl Into<PathBuf>) -> WatchdogCfg {
        self.artifact = Some(path.into());
        self
    }
}

/// One thread's entry in a [`Postmortem`].
#[derive(Debug, Clone)]
pub struct ThreadPostmortem {
    /// Thread name (`program/task`).
    pub thread: String,
    /// Advertised state when the stall was detected.
    pub state: ThreadState,
    /// How long the thread had been in that state.
    pub in_state_for: Duration,
    /// Buffers taken in over the thread's lifetime.
    pub intakes: u64,
    /// Buffers handed on over the thread's lifetime.
    pub emits: u64,
    /// The last spans the thread recorded (oldest first).
    pub last_spans: Vec<SpanRec>,
}

/// One queue's entry in a [`Postmortem`].
#[derive(Debug, Clone)]
pub struct QueuePostmortem {
    /// Queue name as built by the planner.
    pub queue: String,
    /// Items in the queue when the stall was detected (approximate).
    pub depth: usize,
    /// Queue capacity.
    pub capacity: usize,
}

/// One ordered-farm turnstile position in a [`Postmortem`].
#[derive(Debug, Clone)]
pub struct TurnstilePostmortem {
    /// Replica-group (farm) name.
    pub group: String,
    /// Pipeline the turnstile position belongs to.
    pub pipeline: u32,
    /// The round the turnstile is waiting to let through next.
    pub next_round: u64,
}

/// Snapshot of a stalled program, assembled by the watchdog.
#[derive(Debug, Clone)]
pub struct Postmortem {
    /// Program name.
    pub program: String,
    /// How long the pipeline had recorded no span when the snapshot was
    /// taken.
    pub stalled_for: Duration,
    /// Per-thread state, counters, and trailing spans.
    pub threads: Vec<ThreadPostmortem>,
    /// Live depth of every queue in the program.
    pub queues: Vec<QueuePostmortem>,
    /// Ordered-farm turnstile positions.
    pub turnstiles: Vec<TurnstilePostmortem>,
    /// Best-guess culprit task name, if the heuristic found one.
    pub culprit: Option<String>,
    /// Resource snapshot at the moment of the stall (the threads are still
    /// alive, so per-thread CPU rows are present) — see
    /// [`ResourceReport`](crate::profile::ResourceReport).
    pub resources: Option<crate::profile::ResourceReport>,
}

impl Postmortem {
    /// JSON artifact for this post-mortem.
    pub fn to_json(&self) -> Json {
        let ms = |d: Duration| Json::from(d.as_secs_f64() * 1_000.0);
        let threads = self.threads.iter().map(|t| {
            obj(vec![
                ("thread", Json::from(t.thread.as_str())),
                ("state", Json::from(t.state.label())),
                ("in_state_for_ms", ms(t.in_state_for)),
                ("intakes", Json::from(t.intakes)),
                ("emits", Json::from(t.emits)),
                (
                    "last_spans",
                    Json::Arr(t.last_spans.iter().map(SpanRec::to_json).collect()),
                ),
            ])
        });
        let queues = self.queues.iter().map(|q| {
            obj(vec![
                ("queue", Json::from(q.queue.as_str())),
                ("depth", Json::from(q.depth)),
                ("capacity", Json::from(q.capacity)),
            ])
        });
        let turnstiles = self.turnstiles.iter().map(|t| {
            obj(vec![
                ("group", Json::from(t.group.as_str())),
                ("pipeline", Json::from(u64::from(t.pipeline))),
                ("next_round", Json::from(t.next_round)),
            ])
        });
        let mut members = vec![
            ("program", Json::from(self.program.as_str())),
            ("stalled_for_ms", ms(self.stalled_for)),
            (
                "culprit",
                self.culprit.as_deref().map_or(Json::Null, Json::from),
            ),
            ("threads", Json::Arr(threads.collect())),
            ("queues", Json::Arr(queues.collect())),
            ("turnstiles", Json::Arr(turnstiles.collect())),
        ];
        if let Some(resources) = &self.resources {
            members.push(("resources", resources.to_json_value()));
        }
        obj(members)
    }

    /// Human-readable report (what the watchdog prints to stderr).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== FG watchdog: `{}` stalled for {:.1}s ===\n",
            self.program,
            self.stalled_for.as_secs_f64()
        ));
        match &self.culprit {
            Some(c) => out.push_str(&format!("likely culprit: {c}\n")),
            None => out.push_str("likely culprit: (none identified)\n"),
        }
        out.push_str("threads:\n");
        for t in &self.threads {
            out.push_str(&format!(
                "  {:<28} {:<15} for {:>7.1}s  in={} out={}\n",
                t.thread,
                t.state.label(),
                t.in_state_for.as_secs_f64(),
                t.intakes,
                t.emits
            ));
            if let Some(s) = t.last_spans.last() {
                out.push_str(&format!(
                    "    last span: {} p{} r{} id{} [{:.3}ms..{:.3}ms]\n",
                    s.kind.label(),
                    s.pipeline,
                    s.round,
                    s.trace_id,
                    s.start_ns as f64 / 1e6,
                    s.end_ns as f64 / 1e6,
                ));
            }
        }
        out.push_str("queues:\n");
        for q in &self.queues {
            out.push_str(&format!(
                "  {:<28} {}/{}{}\n",
                q.queue,
                q.depth,
                q.capacity,
                if q.depth >= q.capacity { "  FULL" } else { "" }
            ));
        }
        if !self.turnstiles.is_empty() {
            out.push_str("turnstiles:\n");
            for t in &self.turnstiles {
                out.push_str(&format!(
                    "  {:<28} pipeline#{} waiting for round {}\n",
                    t.group, t.pipeline, t.next_round
                ));
            }
        }
        if let Some(resources) = self.resources.as_ref().filter(|r| !r.is_empty()) {
            out.push_str("resources:\n");
            for line in resources.render().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        out
    }
}

/// Best-guess culprit among a post-mortem's threads.
///
/// A stage that took in more buffers than it handed on is hoarding them —
/// with a bounded pool, a hoarder drains the pool and wedges everyone
/// else, so the largest positive intake/emit imbalance wins.  When no
/// thread is imbalanced (e.g. a genuinely slow stage), fall back to the
/// thread longest in its state, preferring one that is not waiting to
/// accept: a blocked accept — a first stage parked on its empty pool most
/// of all — is a symptom of whoever holds the buffers, not a cause.
pub fn guess_culprit(threads: &[ThreadPostmortem]) -> Option<String> {
    let active =
        |t: &&ThreadPostmortem| !matches!(t.state, ThreadState::Starting | ThreadState::Done);
    let hoarder = threads
        .iter()
        .filter(active)
        .filter(|t| t.intakes > t.emits)
        .max_by_key(|t| t.intakes - t.emits);
    if let Some(t) = hoarder {
        return Some(t.thread.clone());
    }
    let longest = |waiting: bool| {
        threads
            .iter()
            .filter(active)
            .filter(|t| (t.state == ThreadState::BlockedAccept) == waiting)
            .max_by_key(|t| t.in_state_for)
    };
    longest(false)
        .or_else(|| longest(true))
        .map(|t| t.thread.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_in_order_until_capacity() {
        let sink = TraceSink::with_ring_capacity(8);
        let ring = sink.register_thread("p/s");
        for i in 0..5 {
            ring.record(TraceKind::Accept, 0, i, i + 1, i * 10, i * 10 + 5);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 5);
        for (i, s) in snap.iter().enumerate() {
            assert_eq!(s.round, i as u64);
            assert_eq!(s.trace_id, i as u64 + 1);
        }
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.intakes(), 5);
        assert_eq!(ring.emits(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_on_wrap() {
        let sink = TraceSink::with_ring_capacity(4);
        let ring = sink.register_thread("p/s");
        for i in 0..10u64 {
            ring.record(TraceKind::Convey, 0, i, i + 1, i, i + 1);
        }
        let log = ring.log();
        assert_eq!(log.spans.len(), 4);
        let rounds: Vec<u64> = log.spans.iter().map(|s| s.round).collect();
        assert_eq!(rounds, vec![6, 7, 8, 9]);
        assert_eq!((log.recorded, log.dropped()), (10, 6));
        assert_eq!(ring.emits(), 10);
    }

    #[test]
    fn sink_assigns_distinct_trace_ids() {
        let sink = TraceSink::new();
        let a = sink.next_trace_id();
        let b = sink.next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn idle_clock_resets_on_record() {
        let sink = TraceSink::with_ring_capacity(4);
        let ring = sink.register_thread("p/s");
        std::thread::sleep(Duration::from_millis(5));
        let idle_before = sink.idle();
        let now = ring.now_ns();
        ring.record(TraceKind::Accept, 0, 0, 1, now, now);
        assert!(sink.idle() < idle_before);
    }

    #[test]
    fn span_rec_json_round_trips() {
        let s = SpanRec {
            kind: TraceKind::TurnWait,
            pipeline: 3,
            round: 17,
            trace_id: 42,
            start_ns: 1000,
            end_ns: 2500,
        };
        for group in [None, Some(2)] {
            let log = ThreadLog {
                thread: "prog/worker#1".into(),
                group,
                recorded: 9,
                spans: vec![s],
            };
            let parsed = ThreadLog::from_json(&Json::parse(&log.to_json().to_string()).unwrap());
            assert_eq!(parsed, Some(log));
        }
    }

    #[test]
    fn chrome_trace_links_buffer_spans_with_flows() {
        let sink = TraceSink::with_ring_capacity(16);
        let a = sink.register_thread("p/first");
        let b = sink.register_thread("p/second");
        // Buffer 7 visits both stages; buffer 8 only one (no flow pair).
        a.record(TraceKind::Convey, 0, 0, 7, 100, 200);
        b.record(TraceKind::Accept, 0, 0, 7, 250, 300);
        a.record(TraceKind::Convey, 0, 1, 8, 400, 500);
        let doc = Json::parse(&sink.to_chrome_trace()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("flow"))
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, vec!["s", "f"], "one flow pair for buffer 7 only");
        let finish = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("f"))
            .unwrap();
        assert_eq!(finish.get("bp").and_then(Json::as_str), Some("e"));
        assert_eq!(finish.get("id").and_then(Json::as_str), Some("7"));
    }

    #[test]
    fn chrome_trace_flow_ids_with_high_bits_stay_distinct() {
        // Collective trace ids set bit 62 — past f64's exact range — so the
        // exporter must not round two adjacent ids onto each other.
        let sink = TraceSink::with_ring_capacity(16);
        let a = sink.register_thread("n0/comm");
        let b = sink.register_thread("n1/comm");
        let base = 1u64 << 62;
        for seq in 0..2u64 {
            a.record(
                TraceKind::Barrier,
                0,
                seq,
                base | seq,
                seq * 100,
                seq * 100 + 10,
            );
            b.record(
                TraceKind::Barrier,
                0,
                seq,
                base | seq,
                seq * 100,
                seq * 100 + 10,
            );
        }
        let doc = Json::parse(&sink.to_chrome_trace()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let ids: std::collections::HashSet<&str> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("flow"))
            .map(|e| e.get("id").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(ids.len(), 2, "adjacent high-bit ids collapsed: {ids:?}");
    }

    #[test]
    fn trace_ctx_wire_round_trips() {
        let ctx = TraceCtx {
            origin: 3,
            trace_id: 0xDEAD_BEEF_CAFE,
            seq: 42,
        };
        let bytes = ctx.encode();
        assert_eq!(bytes.len(), TraceCtx::WIRE_LEN);
        assert_eq!(TraceCtx::decode(&bytes), Some(ctx));
        assert_eq!(TraceCtx::decode(&bytes[..19]), None);
        assert!(TraceCtx::NONE.is_none());
        assert!(!ctx.is_none());
    }

    #[test]
    fn comm_kind_labels_round_trip() {
        for kind in [
            TraceKind::CommSend,
            TraceKind::CommRecv,
            TraceKind::Barrier,
            TraceKind::Broadcast,
            TraceKind::Allgather,
            TraceKind::Alltoallv,
        ] {
            assert_eq!(TraceKind::from_label(kind.label()), Some(kind));
        }
    }

    #[test]
    fn chrome_trace_groups_rings_into_per_node_processes() {
        let sink = TraceSink::with_ring_capacity(16);
        let r0 = sink.register_thread_in_group("node0/send", 0);
        let r1 = sink.register_thread_in_group("node1/recv", 1);
        let ungrouped = sink.register_thread("controller");
        // Buffer 9 crosses from rank 0 to rank 1.
        r0.record(TraceKind::CommSend, COMM_PIPELINE, 0, 9, 100, 200);
        r1.record(TraceKind::CommRecv, COMM_PIPELINE, 0, 9, 250, 300);
        ungrouped.record(TraceKind::Actuate, IO_PIPELINE, 0, 0, 10, 20);
        let doc = Json::parse(&sink.to_chrome_trace()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let proc_names: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .map(|e| {
                (
                    e.get("pid").unwrap().as_u64().unwrap(),
                    e.get("args")
                        .unwrap()
                        .get("name")
                        .unwrap()
                        .as_str()
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(proc_names, vec![(2, "node0"), (3, "node1")]);
        // The flow pair for buffer 9 spans two distinct pids.
        let flow_pids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("flow"))
            .map(|e| e.get("pid").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(flow_pids, vec![2, 3]);
        // Ungrouped ring stays on the flat pid 1.
        let io_slice = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("actuate"))
            .unwrap();
        assert_eq!(io_slice.get("pid").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn culprit_prefers_hoarder_over_blocked() {
        let t = |name: &str, state, secs, intakes, emits| ThreadPostmortem {
            thread: name.to_string(),
            state,
            in_state_for: Duration::from_secs(secs),
            intakes,
            emits,
            last_spans: Vec::new(),
        };
        let threads = vec![
            t("p/first", ThreadState::BlockedAccept, 60, 3, 3),
            t("p/hoard", ThreadState::BlockedAccept, 50, 3, 0),
            t("p/down", ThreadState::BlockedAccept, 55, 0, 0),
        ];
        assert_eq!(guess_culprit(&threads).as_deref(), Some("p/hoard"));
        // Without an imbalance, the thread longest at something other than
        // waiting to accept wins: the first stage, parked on its empty pool
        // for longer, is skipped, and so is the starved stage downstream.
        let threads = vec![
            t("p/first", ThreadState::BlockedAccept, 60, 3, 3),
            t("p/slow", ThreadState::Busy, 40, 3, 3),
            t("p/down", ThreadState::BlockedAccept, 59, 3, 3),
        ];
        assert_eq!(guess_culprit(&threads).as_deref(), Some("p/slow"));
        // Everyone waiting to accept: the longest wait is all there is.
        let threads = vec![
            t("p/first", ThreadState::BlockedAccept, 60, 3, 3),
            t("p/down", ThreadState::BlockedAccept, 59, 3, 3),
        ];
        assert_eq!(guess_culprit(&threads).as_deref(), Some("p/first"));
    }

    #[test]
    fn postmortem_json_and_render_name_culprit() {
        let pm = Postmortem {
            program: "demo".into(),
            stalled_for: Duration::from_secs(2),
            threads: vec![ThreadPostmortem {
                thread: "demo/wedge".into(),
                state: ThreadState::BlockedAccept,
                in_state_for: Duration::from_secs(2),
                intakes: 4,
                emits: 0,
                last_spans: vec![SpanRec::EMPTY],
            }],
            queues: vec![QueuePostmortem {
                queue: "p[1]".into(),
                depth: 2,
                capacity: 2,
            }],
            turnstiles: vec![TurnstilePostmortem {
                group: "farm".into(),
                pipeline: 0,
                next_round: 5,
            }],
            culprit: Some("demo/wedge".into()),
            resources: Some(crate::profile::ResourceReport {
                rss_bytes: 1 << 20,
                rss_peak_bytes: 1 << 20,
                ..crate::profile::ResourceReport::default()
            }),
        };
        let text = pm.render();
        assert!(text.contains("demo/wedge"));
        assert!(text.contains("FULL"));
        assert!(text.contains("round 5"));
        assert!(text.contains("process rss"));
        let json = Json::parse(&pm.to_json().to_string()).unwrap();
        assert_eq!(
            json.get("culprit").and_then(Json::as_str),
            Some("demo/wedge")
        );
        assert_eq!(
            json.get("threads").unwrap().as_arr().unwrap()[0]
                .get("state")
                .and_then(Json::as_str),
            Some("blocked-accept")
        );
    }
}
