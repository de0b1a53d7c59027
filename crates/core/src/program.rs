//! Declaring and running FG programs.
//!
//! A [`Program`] is a set of pipelines over a set of stages, all running on
//! one node.  Declare stages with [`Program::add_stage`] (or
//! [`Program::add_virtual_stage`]), declare pipelines with
//! [`Program::add_pipeline`] giving each its chain of stages, then call
//! [`Program::run`], which:
//!
//! * adds a **source** and a **sink** to every pipeline and a bounded queue
//!   between each pair of consecutive stages,
//! * allocates each pipeline's buffer pool and recycles buffers
//!   sink → source so memory stays fixed (§II),
//! * treats a stage appearing in several pipelines as the **common stage**
//!   of intersecting pipelines (§IV),
//! * collapses stages declared *virtual* — and, automatically, the sources
//!   and sinks of their pipelines — onto single shared threads and a single
//!   shared input queue (§IV, Figure 5(b)),
//! * spawns one thread per (non-virtualized) stage, runs the program to
//!   completion, and returns a timing [`Report`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::affinity::PinMode;
use crate::buffer::{PipelineId, StageId};
use crate::error::{FgError, Result};
use crate::queue::{FlavorKind, Queue, QueueMetrics};
use crate::runtime;
use crate::stage::{Port, Registry, ReplicaGroup, Rounds, Stage, StopFlag};
use crate::stats::Report;

/// Configuration of one pipeline: its buffer pool and round policy.
#[derive(Debug, Clone)]
pub struct PipelineCfg {
    pub(crate) name: String,
    pub(crate) buffers: usize,
    pub(crate) buffer_size: usize,
    pub(crate) rounds: Rounds,
    pub(crate) max_buffers: Option<usize>,
}

impl PipelineCfg {
    /// A pipeline with `buffers` buffers of `buffer_size` bytes each.
    ///
    /// The buffer size typically equals the block size of the high-latency
    /// transfers the pipeline performs (§II).
    pub fn new(name: impl Into<String>, buffers: usize, buffer_size: usize) -> Self {
        PipelineCfg {
            name: name.into(),
            buffers,
            buffer_size,
            rounds: Rounds::UntilStopped,
            max_buffers: None,
        }
    }

    /// Allow a controller to grow this pipeline's buffer pool up to `n`
    /// buffers at runtime (queues are pre-sized to admit the ceiling).
    /// Values below `buffers` are treated as `buffers`.  Without a
    /// controller the pool stays at `buffers`.
    pub fn max_buffers(mut self, n: usize) -> Self {
        self.max_buffers = Some(n);
        self
    }

    /// Set how many rounds the source runs (default: until stopped).
    pub fn rounds(mut self, rounds: Rounds) -> Self {
        self.rounds = rounds;
        self
    }

    /// Shorthand for `.rounds(Rounds::Count(n))`.
    pub fn count(mut self, n: u64) -> Self {
        self.rounds = Rounds::Count(n);
        self
    }
}

pub(crate) struct StageSlot {
    pub(crate) name: String,
    /// One object per replica (length 1 for ordinary stages).
    pub(crate) stages: Vec<Box<dyn Stage>>,
    pub(crate) is_virtual: bool,
    /// Replicated stages only: whether emission is serialized by round
    /// (a worker farm built with [`Program::workers`]).
    pub(crate) ordered: bool,
}

pub(crate) struct PipeSpec {
    pub(crate) name: String,
    pub(crate) buffers: usize,
    pub(crate) buffer_size: usize,
    pub(crate) rounds: Rounds,
    pub(crate) chain: Vec<StageId>,
    pub(crate) max_buffers: Option<usize>,
}

impl PipeSpec {
    /// Pool ceiling the queues must admit: the declared `max_buffers` when
    /// at least `buffers`, else `buffers`.
    fn pool_ceiling(&self) -> usize {
        self.max_buffers.unwrap_or(self.buffers).max(self.buffers)
    }
}

/// A declared FG program: pipelines of stages on one node.
pub struct Program {
    name: String,
    stages: Vec<StageSlot>,
    pipelines: Vec<PipeSpec>,
    trace_in_report: bool,
    metrics: Option<Arc<crate::metrics::MetricsRegistry>>,
    trace_sink: Option<Arc<crate::trace::TraceSink>>,
    trace_group: Option<u32>,
    watchdog: Option<crate::trace::WatchdogCfg>,
    controller: Option<crate::controller::ControllerCfg>,
    depth_actuators: Vec<Arc<dyn crate::controller::DepthActuator>>,
    pin: Option<PinMode>,
    ledger: Option<Arc<crate::profile::MemoryLedger>>,
}

impl Program {
    /// Create an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            stages: Vec::new(),
            pipelines: Vec::new(),
            trace_in_report: false,
            metrics: None,
            trace_sink: None,
            trace_group: None,
            watchdog: None,
            controller: None,
            depth_actuators: Vec::new(),
            pin: None,
            ledger: None,
        }
    }

    /// Pin every runtime thread (stages, replicas, sources, sinks) to a
    /// core chosen by `mode` at spawn.  Placement is recorded per thread
    /// in the [`Report`](crate::Report)
    /// ([`StageStats::core`](crate::StageStats)).  On hosts where
    /// affinity cannot be changed (non-Linux, no `taskset`) threads run
    /// unpinned and record no placement.  Off by default: the OS
    /// scheduler usually wins until queue contention dominates — see
    /// `diagnose`'s contention findings for when to turn this on.
    pub fn set_pinning(&mut self, mode: PinMode) {
        self.pin = Some(mode);
    }

    /// Put this run's span log into the finished
    /// [`Report`](crate::Report): the runtime copies the flight-recorder
    /// rings of the threads it spawned into `Report::trace`, which
    /// [`Report::render_gantt`](crate::Report::render_gantt),
    /// [`Report::to_chrome_trace`](crate::Report::to_chrome_trace) and the
    /// report JSON read.  The rings are the ones a shared
    /// [`TraceSink`](crate::trace::TraceSink) or the watchdog use (with
    /// neither, the runtime makes a private sink for the run) and keep each
    /// thread's newest
    /// [`DEFAULT_RING_CAPACITY`](crate::trace::DEFAULT_RING_CAPACITY) spans.
    pub fn enable_tracing(&mut self) {
        self.trace_in_report = true;
    }

    /// Attach a [`MetricsRegistry`](crate::metrics::MetricsRegistry):
    /// every queue samples its depth into a
    /// `core/queue_depth/<queue>` gauge, and the registry's snapshot is
    /// embedded in the final [`Report`](crate::Report) (rendered by
    /// [`Report::render_dashboard`](crate::Report::render_dashboard) and
    /// exported by [`Report::to_json`](crate::Report::to_json)).  Other
    /// layers (communicators, disks) may record into the same registry to
    /// land in the same report.
    pub fn set_metrics(&mut self, metrics: Arc<crate::metrics::MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    /// Attach a [`MemoryLedger`](crate::profile::MemoryLedger): sources
    /// charge the pool as they create (and retire) buffers, and every
    /// stage charges/credits its per-stage residency row as buffers flow
    /// through — so at any instant the ledger says which stage holds how
    /// much of the pool, against the ledger's budget.  Share one ledger
    /// across programs to account for a whole process.  The ledger rows
    /// land in [`ResourceReport`](crate::profile::ResourceReport) samples
    /// (`GET /resources`, `fgsort --profile`, the watchdog post-mortem).
    pub fn set_memory_ledger(&mut self, ledger: Arc<crate::profile::MemoryLedger>) {
        self.ledger = Some(ledger);
    }

    /// Install a [`TraceSink`](crate::trace::TraceSink): every runtime
    /// thread (stages, replicas, sources, sinks) gets a flight-recorder
    /// ring and records a causal span per transition, and every injected
    /// buffer carries a fresh trace id.  Without a sink the hook sites
    /// cost a single never-taken branch.  The sink outlives the run: collect
    /// the log afterwards with
    /// [`TraceSink::collect`](crate::trace::TraceSink::collect) or export
    /// it with
    /// [`TraceSink::to_chrome_trace`](crate::trace::TraceSink::to_chrome_trace).
    pub fn set_trace_sink(&mut self, sink: Arc<crate::trace::TraceSink>) {
        self.trace_sink = Some(sink);
    }

    /// Put every thread this program registers with its trace sink into
    /// track group `group` (a cluster rank): the Chrome export then renders
    /// this program's threads under a per-node `node{group}` track group.
    /// No effect without a trace sink.
    pub fn set_trace_group(&mut self, group: u32) {
        self.trace_group = Some(group);
    }

    /// Arm the stall watchdog: if no span is recorded pipeline-wide for
    /// `cfg.timeout`, a [`Postmortem`](crate::trace::Postmortem) is
    /// rendered to stderr (and optionally a JSON artifact), then the
    /// program is aborted with
    /// [`FgError::Stalled`](crate::FgError::Stalled) — or left running,
    /// per [`WatchdogAction`](crate::trace::WatchdogAction).  Implies an
    /// internal trace sink when none is installed.
    pub fn set_watchdog(&mut self, cfg: crate::trace::WatchdogCfg) {
        self.watchdog = Some(cfg);
    }

    /// Shorthand: arm an abort-on-stall watchdog with `timeout`.
    pub fn with_watchdog(&mut self, timeout: std::time::Duration) {
        self.set_watchdog(crate::trace::WatchdogCfg::new(timeout));
    }

    /// Attach a closed-loop controller
    /// ([`Controller`](crate::controller::Controller)): during the run it
    /// samples the metrics registry, diagnoses a sliding window, and
    /// actuates farm widths, buffer pools, and registered I/O depths.
    /// Requires [`Program::set_metrics`]; without a registry the
    /// controller is silently skipped (it would have nothing to observe).
    /// The decision audit log lands in
    /// [`Report::controller`](crate::Report).
    pub fn set_controller(&mut self, cfg: crate::controller::ControllerCfg) {
        self.controller = Some(cfg);
    }

    /// Register a resizable read-ahead depth (e.g. an I/O scheduler) for
    /// the controller to actuate.  No-op unless
    /// [`Program::set_controller`] is also called.
    pub fn add_depth_actuator(&mut self, actuator: Arc<dyn crate::controller::DepthActuator>) {
        self.depth_actuators.push(actuator);
    }

    /// Program name (used in thread names and diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declare a stage.  The same [`StageId`] may be placed in several
    /// pipelines' chains, making those pipelines intersect at this stage.
    pub fn add_stage(&mut self, name: impl Into<String>, stage: Box<dyn Stage>) -> StageId {
        self.push_stage(name.into(), stage, false)
    }

    /// Declare a *virtual* stage: if placed in k pipelines, FG creates one
    /// thread and one shared input queue instead of k of each, and shares
    /// the sources and sinks of those pipelines too.
    pub fn add_virtual_stage(&mut self, name: impl Into<String>, stage: Box<dyn Stage>) -> StageId {
        self.push_stage(name.into(), stage, true)
    }

    fn push_stage(&mut self, name: String, stage: Box<dyn Stage>, is_virtual: bool) -> StageId {
        let id = StageId(self.stages.len() as u32);
        self.stages.push(StageSlot {
            name,
            stages: vec![stage],
            is_virtual,
            ordered: false,
        });
        id
    }

    /// Declare a *replicated* stage: `n` copies (built by `factory`) share
    /// the stage's position in a pipeline, its input queue, and its output
    /// queue, so buffers fan out to whichever replica is free and rejoin
    /// downstream — FG's fork–join, used to parallelize a slow stage.
    ///
    /// Buffers rejoin *out of round order*; place a
    /// [`reorder_stage`](crate::reorder_stage) downstream if order matters.
    /// A replicated stage must belong to exactly one pipeline and cannot
    /// be virtual.
    pub fn add_replicated_stage<F>(
        &mut self,
        name: impl Into<String>,
        replicas: usize,
        factory: F,
    ) -> StageId
    where
        F: Fn(usize) -> Box<dyn Stage>,
    {
        assert!(replicas > 0, "need at least one replica");
        let id = StageId(self.stages.len() as u32);
        self.stages.push(StageSlot {
            name: name.into(),
            stages: (0..replicas).map(factory).collect(),
            is_virtual: false,
            ordered: false,
        });
        id
    }

    /// Declare a *worker farm*: an ordered replicated stage.  `n` worker
    /// threads (built by `factory`, which receives the worker index) share
    /// the stage's position in a pipeline and its input queue, so rounds
    /// fan out to whichever worker is free — but unlike
    /// [`Program::add_replicated_stage`], emission is serialized by round:
    /// a worker holding round `r` waits (inside `convey`/`discard`) until
    /// rounds `0..r` have been emitted, so downstream stages observe rounds
    /// in order with no [`reorder_stage`](crate::reorder_stage) and no
    /// stash buffers.
    ///
    /// Each accepted round must be conveyed or discarded exactly once
    /// (the natural shape of a [`map_stage`](crate::map_stage)); a farm
    /// stage that emits twice for one round fails with a usage error.
    /// Caboose, error, and shutdown semantics are those of a replicated
    /// stage: the caboose travels downstream only after every worker has
    /// finished, and teardown wakes workers parked on the ordering gate.
    /// A farm must belong to exactly one pipeline and cannot be virtual.
    /// `workers(name, 1, factory)` degenerates to an ordinary stage with
    /// zero ordering overhead.
    pub fn workers<F>(&mut self, name: impl Into<String>, n: usize, factory: F) -> StageId
    where
        F: Fn(usize) -> Box<dyn Stage>,
    {
        assert!(n > 0, "need at least one worker");
        let id = StageId(self.stages.len() as u32);
        self.stages.push(StageSlot {
            name: name.into(),
            stages: (0..n).map(factory).collect(),
            is_virtual: false,
            ordered: true,
        });
        id
    }

    /// Declare a pipeline running `chain` (source and sink are implicit).
    pub fn add_pipeline(&mut self, cfg: PipelineCfg, chain: &[StageId]) -> Result<PipelineId> {
        if chain.is_empty() {
            return Err(FgError::Config(format!(
                "pipeline `{}` has an empty stage chain",
                cfg.name
            )));
        }
        if cfg.buffers == 0 {
            return Err(FgError::Config(format!(
                "pipeline `{}` must have at least one buffer",
                cfg.name
            )));
        }
        if cfg.buffer_size == 0 {
            return Err(FgError::Config(format!(
                "pipeline `{}` must have a positive buffer size",
                cfg.name
            )));
        }
        for (i, s) in chain.iter().enumerate() {
            if s.index() >= self.stages.len() {
                return Err(FgError::Config(format!(
                    "pipeline `{}` references unknown {s}",
                    cfg.name
                )));
            }
            if chain[..i].contains(s) {
                return Err(FgError::Config(format!(
                    "pipeline `{}` lists stage `{}` twice",
                    cfg.name,
                    self.stages[s.index()].name
                )));
            }
        }
        let id = PipelineId(self.pipelines.len() as u32);
        self.pipelines.push(PipeSpec {
            name: cfg.name,
            buffers: cfg.buffers,
            buffer_size: cfg.buffer_size,
            rounds: cfg.rounds,
            chain: chain.to_vec(),
            max_buffers: cfg.max_buffers,
        });
        Ok(id)
    }

    /// Number of declared pipelines.
    pub fn pipeline_count(&self) -> usize {
        self.pipelines.len()
    }

    /// Validate, wire, spawn, and run the program to completion.
    pub fn run(mut self) -> Result<Report> {
        self.validate()?;
        let plan = self.wire()?;
        runtime::execute(self.name, plan)
    }

    fn validate(&self) -> Result<()> {
        for (i, slot) in self.stages.iter().enumerate() {
            let used = self
                .pipelines
                .iter()
                .any(|p| p.chain.contains(&StageId(i as u32)));
            if !used {
                return Err(FgError::Config(format!(
                    "stage `{}` is not part of any pipeline",
                    slot.name
                )));
            }
        }
        if self.pipelines.is_empty() {
            return Err(FgError::Config("program has no pipelines".into()));
        }
        for (i, slot) in self.stages.iter().enumerate() {
            if slot.stages.len() > 1 {
                let memberships = self
                    .pipelines
                    .iter()
                    .filter(|p| p.chain.contains(&StageId(i as u32)))
                    .count();
                if memberships != 1 {
                    return Err(FgError::Config(format!(
                        "replicated stage `{}` must belong to exactly one                          pipeline (found {memberships})",
                        slot.name
                    )));
                }
            }
        }
        // Pipelines sharing a virtual stage form a virtual group; their
        // round counts must be known (the shared source retires lanes by
        // count, not by stop()).
        let groups = self.virtual_groups();
        for (gi, members) in groups.iter().enumerate() {
            if members.len() > 1 {
                for &p in members {
                    if !matches!(self.pipelines[p].rounds, Rounds::Count(_)) {
                        return Err(FgError::Config(format!(
                            "pipeline `{}` is in virtual group {gi} and must \
                             use Rounds::Count",
                            self.pipelines[p].name
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Partition pipelines: pipelines sharing any virtual stage land in the
    /// same group (union-find).  Returns disjoint member lists covering all
    /// pipelines (singletons for ungrouped ones), in pipeline order.
    fn virtual_groups(&self) -> Vec<Vec<usize>> {
        let n = self.pipelines.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for (sid, slot) in self.stages.iter().enumerate() {
            if !slot.is_virtual {
                continue;
            }
            let members: Vec<usize> = self
                .pipelines
                .iter()
                .enumerate()
                .filter(|(_, p)| p.chain.contains(&StageId(sid as u32)))
                .map(|(i, _)| i)
                .collect();
            for w in members.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let mut by_root: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..n {
            let r = find(&mut parent, i);
            by_root.entry(r).or_default().push(i);
        }
        let mut groups: Vec<Vec<usize>> = by_root.into_values().collect();
        groups.sort_by_key(|g| g[0]);
        groups
    }

    /// Build every queue, port, source set, and sink set.
    fn wire(&mut self) -> Result<runtime::Plan> {
        let registry = Registry::new();
        let groups = self.virtual_groups();
        let group_of: HashMap<usize, usize> = groups
            .iter()
            .enumerate()
            .flat_map(|(gi, ms)| ms.iter().map(move |&m| (m, gi)))
            .collect();

        // Build a queue, register it for shutdown, and — when a metrics
        // registry is attached — wire up its depth gauge, contention
        // counters, and capacity (so windowed diagnosis can tell "full"
        // without a Report).  `FlavorKind::Spsc` may only be passed for
        // stage-to-stage links the planner has proven exclusive; every
        // other queue takes the lock-free MPMC ring (the mutex flavor
        // survives as the property-test oracle and `Queue::new` default).
        let metrics = self.metrics.clone();
        let reg = |name: String, cap: usize, kind: FlavorKind| {
            let gauge = metrics.as_ref().map(|m| {
                m.gauge(&format!("{}{name}", crate::analyze::QUEUE_CAPACITY_PREFIX))
                    .set(cap as u64);
                m.gauge(&format!("{}{name}", crate::analyze::QUEUE_DEPTH_PREFIX))
            });
            let qmetrics = metrics.as_ref().map(|m| QueueMetrics {
                cas_retries: m
                    .counter(&format!("{}{name}", crate::analyze::QUEUE_CAS_RETRY_PREFIX)),
                push_parks: m.counter(&format!("{}{name}", crate::analyze::QUEUE_PUSH_PARK_PREFIX)),
                pop_parks: m.counter(&format!("{}{name}", crate::analyze::QUEUE_POP_PARK_PREFIX)),
                wakes: m.counter(&format!("{}{name}", crate::analyze::QUEUE_WAKE_PREFIX)),
                items: m.counter(&format!("{}{name}", crate::analyze::QUEUE_ITEMS_PREFIX)),
            });
            let q = Queue::flavored(name, cap, kind, gauge, qmetrics);
            registry.register(Arc::clone(&q));
            q
        };

        // Per-group shared recycle and sink queues: always MPMC (every
        // stage of the group discards into the recycle queue, and several
        // last stages may feed one sink).
        // Queue capacities admit the pool *ceiling*, not just the starting
        // pool, so a controller can grow a pool without deadlocking a
        // too-small queue.
        let mut recycle_q: Vec<Arc<Queue>> = Vec::new();
        let mut sink_q: Vec<Arc<Queue>> = Vec::new();
        for (gi, members) in groups.iter().enumerate() {
            let cap: usize = members
                .iter()
                .map(|&m| self.pipelines[m].pool_ceiling() + 1)
                .sum();
            recycle_q.push(reg(format!("recycle/g{gi}"), cap, FlavorKind::LockFree));
            sink_q.push(reg(format!("sink/g{gi}"), cap, FlavorKind::LockFree));
        }

        // Stop flags per pipeline, attached to their (possibly shared)
        // recycle queue.
        let stops: Vec<Arc<StopFlag>> = (0..self.pipelines.len())
            .map(|p| {
                let f = StopFlag::new();
                f.attach_recycle(Arc::clone(&recycle_q[group_of[&p]]));
                f
            })
            .collect();

        // Shared input queues for virtual stages.
        let mut shared_in: HashMap<usize, Arc<Queue>> = HashMap::new();
        for (sid, slot) in self.stages.iter().enumerate() {
            if slot.is_virtual {
                let members: Vec<usize> = self
                    .pipelines
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.chain.contains(&StageId(sid as u32)))
                    .map(|(i, _)| i)
                    .collect();
                let cap: usize = members
                    .iter()
                    .map(|&m| self.pipelines[m].pool_ceiling() + 1)
                    .sum();
                // Shared (virtual) inputs are fed by many pipelines'
                // upstreams: never SPSC.  Floor at 2: the lock-free ring
                // needs at least two slots (`Queue::flavored` would fall
                // back to the mutex flavor for a capacity-1 request).
                shared_in.insert(
                    sid,
                    reg(
                        format!("in/{}", slot.name),
                        cap.max(2),
                        FlavorKind::LockFree,
                    ),
                );
            }
        }

        // Queues along each pipeline.  into_q[p][i] feeds stage i of
        // pipeline p; out of the last stage is the pipeline's sink queue.
        // A per-stage queue is specialized to the SPSC ring when exactly
        // one thread pushes and one pops: the consumer stage has a single
        // replica (replicas also *push* — they hand the caboose around
        // their own input queue), and the producer — the group's source
        // thread for position 0, the upstream stage otherwise — has a
        // single replica too.  Virtual stages are excluded on both sides
        // by construction (their shared queue is built above).
        let mut into_q: Vec<Vec<Arc<Queue>>> = Vec::new();
        for (pi, pipe) in self.pipelines.iter().enumerate() {
            let mut qs = Vec::with_capacity(pipe.chain.len());
            for (pos, sid) in pipe.chain.iter().enumerate() {
                let q = if self.stages[sid.index()].is_virtual {
                    Arc::clone(&shared_in[&sid.index()])
                } else {
                    let consumer_single = self.stages[sid.index()].stages.len() == 1;
                    let producer_single = match pos {
                        0 => true, // one source thread per group
                        _ => self.stages[pipe.chain[pos - 1].index()].stages.len() == 1,
                    };
                    // Proven-exclusive links get the SPSC ring; the rest —
                    // farm inputs/outputs, whose replicas both pop and
                    // push (caboose handoff) — get the lock-free MPMC ring.
                    let kind = if consumer_single && producer_single {
                        FlavorKind::Spsc
                    } else {
                        FlavorKind::LockFree
                    };
                    reg(
                        format!("{}[{}]", pipe.name, pos),
                        pipe.pool_ceiling() + 1,
                        kind,
                    )
                };
                qs.push(q);
            }
            into_q.push(qs);
            let _ = pi;
        }

        // Ports for every stage, in pipeline declaration order.
        let mut ports: Vec<Vec<Port>> = (0..self.stages.len()).map(|_| Vec::new()).collect();
        for (pi, pipe) in self.pipelines.iter().enumerate() {
            let gi = group_of[&pi];
            for (pos, sid) in pipe.chain.iter().enumerate() {
                let is_virtual = self.stages[sid.index()].is_virtual;
                let output = if pos + 1 < pipe.chain.len() {
                    Arc::clone(&into_q[pi][pos + 1])
                } else {
                    Arc::clone(&sink_q[gi])
                };
                ports[sid.index()].push(Port {
                    pipeline: PipelineId(pi as u32),
                    input: if is_virtual {
                        None
                    } else {
                        Some(Arc::clone(&into_q[pi][pos]))
                    },
                    output,
                    recycle: Arc::clone(&recycle_q[gi]),
                    rounds: pipe.rounds,
                    stop: Arc::clone(&stops[pi]),
                    eos: false,
                    forwarded: false,
                    deferred_caboose: false,
                });
            }
        }

        // Live buffer-pool handles, one per pipeline, only when a
        // controller will drive them (otherwise pools stay at their
        // declared size and the handles would be dead weight).
        let pools: Vec<Option<Arc<crate::controller::PoolControl>>> = self
            .pipelines
            .iter()
            .enumerate()
            .map(|(pi, pipe)| {
                self.controller.as_ref().map(|_| {
                    crate::controller::PoolControl::new(
                        pipe.name.clone(),
                        format!("recycle/g{}", group_of[&pi]),
                        pipe.buffers,
                        1,
                        pipe.pool_ceiling(),
                    )
                })
            })
            .collect();

        // Source and sink sets: one each per group.
        let mut sources = Vec::new();
        let mut sinks = Vec::new();
        for (gi, members) in groups.iter().enumerate() {
            let pipes = members
                .iter()
                .map(|&m| runtime::SourcePipe {
                    pipeline: PipelineId(m as u32),
                    first: Arc::clone(&into_q[m][0]),
                    rounds: self.pipelines[m].rounds,
                    stop: Arc::clone(&stops[m]),
                    buffers: self.pipelines[m].buffers,
                    buffer_size: self.pipelines[m].buffer_size,
                    pool: pools[m].clone(),
                })
                .collect();
            let label = if members.len() == 1 {
                self.pipelines[members[0]].name.clone()
            } else {
                format!("group{gi}")
            };
            sources.push(runtime::SourceSet {
                label: format!("{label}/source"),
                pipes,
                recycle: Arc::clone(&recycle_q[gi]),
            });
            sinks.push(runtime::SinkSet {
                label: format!("{label}/sink"),
                queue: Arc::clone(&sink_q[gi]),
                recycle: Arc::clone(&recycle_q[gi]),
                members: members.len(),
            });
        }

        // Stage tasks (one per replica; ordinary stages have one replica).
        let mut tasks = Vec::new();
        let mut farms: Vec<Arc<ReplicaGroup>> = Vec::new();
        for (sid, slot) in self.stages.iter_mut().enumerate() {
            let shared_input = shared_in.get(&sid).map(Arc::clone);
            let replicas = slot.stages.len();
            let group = if replicas > 1 {
                let g = ReplicaGroup::new(slot.name.clone(), replicas, slot.ordered);
                registry.register_group(Arc::clone(&g));
                farms.push(Arc::clone(&g));
                Some(g)
            } else {
                None
            };
            let base_ports = std::mem::take(&mut ports[sid]);
            for (i, stage) in slot.stages.drain(..).enumerate() {
                let task_ports = base_ports.iter().map(|p| p.clone_for_replica()).collect();
                tasks.push(runtime::StageTask {
                    name: if replicas > 1 {
                        format!("{}#{i}", slot.name)
                    } else {
                        slot.name.clone()
                    },
                    stage,
                    ports: task_ports,
                    shared_input: shared_input.clone(),
                    replica_group: group.clone(),
                    replica_index: i,
                });
            }
        }

        Ok(runtime::Plan {
            registry,
            tasks,
            sources,
            sinks,
            trace_in_report: self.trace_in_report,
            metrics: self.metrics.clone(),
            trace_sink: self.trace_sink.clone(),
            trace_group: self.trace_group,
            watchdog: self.watchdog.clone(),
            controller: self.controller.clone(),
            pools: pools.into_iter().flatten().collect(),
            farms,
            depth_actuators: self.depth_actuators.clone(),
            pin: self.pin.clone(),
            ledger: self.ledger.clone(),
            pipelines: self
                .pipelines
                .iter()
                .map(|p| crate::stats::PipelineShape {
                    name: p.name.clone(),
                    stages: p
                        .chain
                        .iter()
                        .map(|sid| self.stages[sid.index()].name.clone())
                        .collect(),
                })
                .collect(),
        })
    }
}

/// Convenience: run a single linear pipeline of `stages` to completion.
///
/// This is the shape of every program writable in FG's original release
/// (§II): one copy of one linear pipeline.
pub fn run_linear(
    name: impl Into<String>,
    cfg: PipelineCfg,
    stages: Vec<(&str, Box<dyn Stage>)>,
) -> Result<Report> {
    let mut prog = Program::new(name);
    let ids: Vec<StageId> = stages
        .into_iter()
        .map(|(n, s)| prog.add_stage(n, s))
        .collect();
    prog.add_pipeline(cfg, &ids)?;
    prog.run()
}
