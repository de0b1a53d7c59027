//! Declaring and running FG programs.
//!
//! A [`Program`] is a set of pipelines over a set of stages, all running on
//! one node.  Declare stages with [`Program::add_stage`] (or
//! [`Program::add_virtual_stage`]), declare pipelines with
//! [`Program::add_pipeline`] giving each its chain of stages, then call
//! [`Program::run`], which:
//!
//! * puts a bounded queue between each pair of consecutive stages and
//!   closes every pipeline into a loop: its buffer pool is a queue that is
//!   the first stage's input and the last stage's output, so buffers
//!   recycle and memory stays fixed (§II).  The paper's **source** and
//!   **sink** are roles the first and last stage play on their own
//!   threads, not threads of their own,
//! * treats a stage appearing in several pipelines as the **common stage**
//!   of intersecting pipelines (§IV),
//! * collapses stages declared *virtual* onto a single shared thread and a
//!   single shared input queue (§IV, Figure 5(b)) — the common pool of the
//!   pipelines that start there,
//! * spawns one thread per (non-virtualized) stage, runs the program to
//!   completion, and returns a timing [`Report`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::buffer::{BufferStock, PipelineId, StageId};
use crate::error::{FgError, Result};
use crate::queue::{FlavorKind, Queue};
use crate::runtime;
use crate::stage::{Pool, Port, Registry, ReplicaGroup, Rounds, Stage};
use crate::stats::Report;

/// Name prefix of a buffer pool's queue (`recycle/<pipeline>`, or
/// `recycle/<stage>` for the pool shared by the pipelines that start at a
/// virtual stage): the first stage's input, which the last stage conveys
/// into.  Running dry means every buffer is in flight.
const POOL_QUEUE_PREFIX: &str = "recycle/";

/// Configuration of one pipeline: its buffer pool and round policy.
#[derive(Debug, Clone)]
pub struct PipelineCfg {
    pub(crate) name: String,
    pub(crate) buffers: usize,
    pub(crate) buffer_size: usize,
    pub(crate) rounds: Rounds,
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
        }
    }

    /// Set how many rounds the pipeline runs (default: until stopped).
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
}

pub(crate) struct PipeSpec {
    pub(crate) name: String,
    pub(crate) buffers: usize,
    pub(crate) buffer_size: usize,
    pub(crate) rounds: Rounds,
    pub(crate) chain: Vec<StageId>,
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
    ledger: Option<Arc<crate::profile::MemoryLedger>>,
    stock: Option<Arc<BufferStock>>,
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
            ledger: None,
            stock: None,
        }
    }

    /// Put this run's span log into the finished
    /// [`Report`](crate::Report): the runtime copies the flight-recorder
    /// rings of the threads it spawned into `Report::trace`, which
    /// [`Report::render_gantt`](crate::Report::render_gantt),
    /// [`Report::to_chrome_trace`](crate::Report::to_chrome_trace) and the
    /// report JSON read.  The rings are the shared
    /// [`TraceSink`](crate::trace::TraceSink)'s, or a private sink's the
    /// runtime makes for the run, and keep each thread's newest
    /// [`DEFAULT_RING_CAPACITY`](crate::trace::DEFAULT_RING_CAPACITY) spans.
    /// A watchdog's post-mortem carries each thread's last spans only when
    /// a sink exists.
    pub fn enable_tracing(&mut self) {
        self.trace_in_report = true;
    }

    /// Attach a [`MetricsRegistry`](crate::metrics::MetricsRegistry):
    /// every stage thread adds its counter block's events to the
    /// `core/stage_*` counters as they happen, and the registry's snapshot
    /// is embedded in the final [`Report`](crate::Report) (rendered by
    /// [`Report::render_dashboard`](crate::Report::render_dashboard) and
    /// exported by [`Report::to_json`](crate::Report::to_json)).  Other
    /// layers (communicators, disks) may record into the same registry to
    /// land in the same report.
    pub fn set_metrics(&mut self, metrics: Arc<crate::metrics::MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    /// Attach a [`MemoryLedger`](crate::profile::MemoryLedger): each pool
    /// is charged as its buffers are created and credited as they retire,
    /// so the ledger holds the pools' total and its high-water marks
    /// against the ledger's budget.  Share one ledger across programs to
    /// account for a whole process.  The ledger's totals land in
    /// [`ResourceReport`](crate::profile::ResourceReport) samples
    /// (`GET /resources`, `fgsort --profile`, the watchdog post-mortem).
    pub fn set_memory_ledger(&mut self, ledger: Arc<crate::profile::MemoryLedger>) {
        self.ledger = Some(ledger);
    }

    /// Draw this program's pool buffers from `stock`, and leave their
    /// storage there when it ends ([`BufferStock`]): programs that share
    /// one and never run together make their buffers once.
    pub fn set_buffer_stock(&mut self, stock: Arc<BufferStock>) {
        self.stock = Some(stock);
    }

    /// Install a [`TraceSink`](crate::trace::TraceSink): every runtime
    /// thread (stages and replicas) gets a flight-recorder ring and records
    /// a causal span per transition, and every buffer carries a fresh trace
    /// id from the start of each round.  Without a sink the hook sites
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

    /// Arm the stall watchdog: if no stage thread of this program changes
    /// state (every queue operation does) for `cfg.timeout`, a
    /// [`Postmortem`](crate::trace::Postmortem) is rendered to stderr (and
    /// optionally a JSON artifact), then the program is aborted with
    /// [`FgError::Stalled`](crate::FgError::Stalled).  The watchdog reads
    /// the stage threads' counter blocks and makes no trace sink: its
    /// post-mortem lists spans only when the run has one
    /// ([`Program::set_trace_sink`], [`Program::enable_tracing`]).
    pub fn set_watchdog(&mut self, cfg: crate::trace::WatchdogCfg) {
        self.watchdog = Some(cfg);
    }

    /// Shorthand: arm an abort-on-stall watchdog with `timeout`.
    pub fn with_watchdog(&mut self, timeout: std::time::Duration) {
        self.set_watchdog(crate::trace::WatchdogCfg::new(timeout));
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
    /// thread and one shared input queue instead of k of each; pipelines
    /// that start at it pool their buffers in that queue.
    pub fn add_virtual_stage(&mut self, name: impl Into<String>, stage: Box<dyn Stage>) -> StageId {
        self.push_stage(name.into(), stage, true)
    }

    fn push_stage(&mut self, name: String, stage: Box<dyn Stage>, is_virtual: bool) -> StageId {
        let id = StageId(self.stages.len() as u32);
        self.stages.push(StageSlot {
            name,
            stages: vec![stage],
            is_virtual,
        });
        id
    }

    /// Declare a *worker farm*, FG's fork–join: `n` worker threads (built
    /// by `factory`, which receives the worker index) share the stage's
    /// position in a pipeline and its input queue, so rounds fan out to
    /// whichever worker is free, and emission is serialized by round: a
    /// worker holding round `r` waits (inside `convey`/`discard`) until
    /// rounds `0..r` have been emitted, so downstream stages observe rounds
    /// in order with no join stage and no stash buffers.
    ///
    /// Each accepted round must be conveyed or discarded exactly once
    /// (the natural shape of a [`map_stage`](crate::map_stage)); a farm
    /// stage that emits twice for one round fails with a usage error.
    /// The caboose travels downstream only after every worker has
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
        });
        id
    }

    /// Declare a pipeline running `chain`; its buffers recycle from the last
    /// stage to the first.
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
        });
        Ok(id)
    }

    /// Validate, wire, spawn, and run the program to completion.
    pub fn run(mut self) -> Result<Report> {
        self.validate()?;
        let plan = self.wire()?;
        runtime::execute(self.name, plan)
    }

    /// The pipelines whose chain holds stage `sid`, in declaration order.
    fn members(&self, sid: usize) -> impl Iterator<Item = &PipeSpec> {
        self.pipelines
            .iter()
            .filter(move |p| p.chain.contains(&StageId(sid as u32)))
    }

    fn validate(&self) -> Result<()> {
        for (sid, slot) in self.stages.iter().enumerate() {
            if replica_base(&slot.name).is_some() {
                return Err(FgError::Config(format!(
                    "stage `{}` is named like a replica: `<stage>#<i>` names worker i of a farm",
                    slot.name
                )));
            }
            if self.members(sid).next().is_none() {
                return Err(FgError::Config(format!(
                    "stage `{}` is not part of any pipeline",
                    slot.name
                )));
            }
        }
        if self.pipelines.is_empty() {
            return Err(FgError::Config("program has no pipelines".into()));
        }
        for (sid, slot) in self.stages.iter().enumerate() {
            let memberships = self.members(sid).count();
            if slot.stages.len() > 1 && memberships != 1 {
                return Err(FgError::Config(format!(
                    "worker farm `{}` must belong to exactly one \
                     pipeline (found {memberships})",
                    slot.name
                )));
            }
            // Pipelines that share a virtual stage declare their round
            // counts, as the paper's virtual pipelines do.
            if slot.is_virtual && memberships > 1 {
                let open = |p: &&PipeSpec| p.rounds == Rounds::UntilStopped;
                if let Some(p) = self.members(sid).find(open) {
                    return Err(FgError::Config(format!(
                        "pipeline `{}` shares virtual stage `{}` and must use Rounds::Count",
                        p.name, slot.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Build every queue, pool, and port.
    pub(crate) fn wire(&mut self) -> Result<runtime::Plan> {
        let registry = Registry::new();

        // Build a queue and register it for shutdown.  `FlavorKind::Spsc`
        // may only be passed for stage-to-stage links the planner has
        // proven exclusive; every other queue is the mutex-guarded deque,
        // which measures no slower than the lock-free ring on any host this
        // was run on (EXPERIMENTS.md Q1, D10, D19).
        let reg = |name: String, cap: usize, kind: FlavorKind| {
            let q = Queue::flavored(name, cap, kind);
            registry.register(Arc::clone(&q));
            q
        };

        // Back-pressure is the pool, and this is where that is enforced:
        // every queue admits the whole pools of the pipelines that pass
        // through it, plus one caboose each (a virtual stage's shared
        // queue: the sum over its member pipelines).  `Buffer::new` is
        // crate-private, so a pipeline's own pool and caboose are all that
        // can ever sit in its queues: no push can find one full,
        // `Queue::push` never waits, and a `Full` it does return is a bug
        // surfaced as `FgError::Usage`, not a producer put to sleep.
        let slots = |pipe: &PipeSpec| pipe.buffers + 1;

        // Shared input queues for virtual stages: fed by many pipelines'
        // upstreams, never SPSC.  One that heads pipelines is their common
        // pool and is named as one.
        let mut shared_in: HashMap<usize, Arc<Queue>> = HashMap::new();
        for (sid, slot) in self.stages.iter().enumerate() {
            if slot.is_virtual {
                let prefix = if self.members(sid).any(|p| p.chain[0].index() == sid) {
                    POOL_QUEUE_PREFIX
                } else {
                    "in/"
                };
                shared_in.insert(
                    sid,
                    reg(
                        format!("{prefix}{}", slot.name),
                        self.members(sid).map(slots).sum(),
                        FlavorKind::Mutex,
                    ),
                );
            }
        }

        // Queues along each pipeline: into_q[p][i] feeds stage i of
        // pipeline p, and into_q[p][0] — the first stage's input — is the
        // pipeline's pool, which the last stage conveys into and any stage
        // may discard into: always the MPMC deque.  A queue
        // between two stages is specialized to the SPSC ring when exactly
        // one thread pushes and one pops: both stages have a single replica
        // (replicas also *push* into their own input — they hand the
        // caboose around it).  Virtual stages are excluded on both sides by
        // construction (their shared queue is built above).
        let mut into_q: Vec<Vec<Arc<Queue>>> = Vec::new();
        for pipe in &self.pipelines {
            let mut qs = Vec::with_capacity(pipe.chain.len());
            for (pos, sid) in pipe.chain.iter().enumerate() {
                let single = |sid: &StageId| self.stages[sid.index()].stages.len() == 1;
                let q = if self.stages[sid.index()].is_virtual {
                    Arc::clone(&shared_in[&sid.index()])
                } else if pos == 0 {
                    reg(
                        format!("{POOL_QUEUE_PREFIX}{}", pipe.name),
                        slots(pipe),
                        FlavorKind::Mutex,
                    )
                } else {
                    let kind = if single(sid) && single(&pipe.chain[pos - 1]) {
                        FlavorKind::Spsc
                    } else {
                        FlavorKind::Mutex
                    };
                    reg(format!("{}[{}]", pipe.name, pos), slots(pipe), kind)
                };
                qs.push(q);
            }
            into_q.push(qs);
        }

        // One pool per pipeline, of its declared size for the whole run.
        let pools: Vec<Arc<Pool>> = self
            .pipelines
            .iter()
            .enumerate()
            .map(|(pi, pipe)| {
                Pool::new(
                    PipelineId(pi as u32),
                    Arc::clone(&into_q[pi][0]),
                    pipe.rounds,
                    pipe.buffers,
                    pipe.buffer_size,
                    self.ledger.clone(),
                    self.stock.clone(),
                )
            })
            .collect();

        // Ports for every stage, in pipeline declaration order.
        let mut ports: Vec<Vec<Port>> = (0..self.stages.len()).map(|_| Vec::new()).collect();
        for (pi, pipe) in self.pipelines.iter().enumerate() {
            for (pos, sid) in pipe.chain.iter().enumerate() {
                let is_virtual = self.stages[sid.index()].is_virtual;
                // The last stage's output closes the loop.
                let next = (pos + 1) % pipe.chain.len();
                ports[sid.index()].push(Port {
                    pipeline: PipelineId(pi as u32),
                    input: (!is_virtual).then(|| Arc::clone(&into_q[pi][pos])),
                    output: Arc::clone(&into_q[pi][next]),
                    pool: Arc::clone(&pools[pi]),
                    first: pos == 0,
                    eos: false,
                });
            }
        }

        // Stage tasks (one per replica; ordinary stages have one replica).
        let mut tasks = Vec::new();
        for (sid, slot) in self.stages.iter_mut().enumerate() {
            let shared_input = shared_in.get(&sid).map(Arc::clone);
            let replicas = slot.stages.len();
            let base_ports = std::mem::take(&mut ports[sid]);
            // `validate` holds a farm to one pipeline, so one port.
            let group = (replicas > 1).then(|| {
                let g = ReplicaGroup::new(slot.name.clone(), replicas, base_ports[0].pipeline);
                registry.register_group(Arc::clone(&g));
                g
            });
            for (i, stage) in slot.stages.drain(..).enumerate() {
                let task_ports = base_ports.iter().map(|p| p.clone_for_replica()).collect();
                tasks.push(runtime::StageTask {
                    // Parsed back by `replica_base`, below.
                    name: if replicas > 1 {
                        format!("{}#{i}", slot.name)
                    } else {
                        slot.name.clone()
                    },
                    stage,
                    ports: task_ports,
                    shared_input: shared_input.clone(),
                    replica_group: group.clone(),
                });
            }
        }

        Ok(runtime::Plan {
            registry,
            tasks,
            pools,
            trace_in_report: self.trace_in_report,
            metrics: self.metrics.clone(),
            trace_sink: self.trace_sink.clone(),
            trace_group: self.trace_group,
            watchdog: self.watchdog.clone(),
            ledger: self.ledger.clone(),
            stock: self.stock.clone(),
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

/// The farm a task name belongs to: `sort#3` → `sort`, the name `wire`
/// gives worker 3 of `sort`; `None` for any other name.  The one parser of
/// that name (diagnosis, the report's rollup and alloc tags all fold
/// replicas through it), and unambiguous because `validate` refuses a
/// stage named this way.
pub(crate) fn replica_base(name: &str) -> Option<&str> {
    let (base, index) = name.rsplit_once('#')?;
    (!index.is_empty() && index.bytes().all(|b| b.is_ascii_digit())).then_some(base)
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

#[cfg(test)]
mod tests {
    use super::replica_base;

    #[test]
    fn replica_base_folds_indices() {
        assert_eq!(replica_base("sort#12"), Some("sort"));
        assert_eq!(replica_base("sort"), None);
        assert_eq!(replica_base("a#b"), None);
        assert_eq!(replica_base("sort#"), None);
        assert_eq!(replica_base("csort/sort#0"), Some("csort/sort"));
    }
}
