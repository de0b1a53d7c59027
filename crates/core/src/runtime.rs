//! Thread spawning, source/sink loops, and program execution.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::buffer::{Buffer, PipelineId};
use crate::error::{FgError, Result};
use crate::metrics::MetricsRegistry;
use crate::queue::{Item, Queue};
use crate::stage::{Port, Registry, ReplicaGroup, Rounds, Stage, StageCtx, StopFlag};
use crate::stats::{Report, StageStats};
use crate::trace::{
    enter, guess_culprit, Postmortem, SpanRing, ThreadPostmortem, ThreadState, TraceKind,
    TraceSink, WatchdogAction, WatchdogCfg,
};

/// One pipeline served by a source set.
pub(crate) struct SourcePipe {
    pub(crate) pipeline: PipelineId,
    pub(crate) first: Arc<Queue>,
    pub(crate) rounds: Rounds,
    pub(crate) stop: Arc<StopFlag>,
    pub(crate) buffers: usize,
    pub(crate) buffer_size: usize,
    /// Live pool handle when a controller may resize this pipeline's
    /// buffer pool; the source grows/shrinks at its round boundary.
    pub(crate) pool: Option<Arc<crate::controller::PoolControl>>,
}

/// A source thread: injects rounds for one pipeline, or for all pipelines
/// of a virtual group (the automatically-virtualized source of §IV).
pub(crate) struct SourceSet {
    pub(crate) label: String,
    pub(crate) pipes: Vec<SourcePipe>,
    pub(crate) recycle: Arc<Queue>,
}

/// A sink thread: recycles buffers back to the source(s) and retires after
/// seeing every member pipeline's caboose.
pub(crate) struct SinkSet {
    pub(crate) label: String,
    pub(crate) queue: Arc<Queue>,
    pub(crate) recycle: Arc<Queue>,
    pub(crate) members: usize,
}

/// A stage ready to run on its own thread.
pub(crate) struct StageTask {
    pub(crate) name: String,
    pub(crate) stage: Box<dyn Stage>,
    pub(crate) ports: Vec<Port>,
    pub(crate) shared_input: Option<Arc<Queue>>,
    pub(crate) replica_group: Option<Arc<ReplicaGroup>>,
    /// Index within the replica group (0 for ordinary stages).
    pub(crate) replica_index: usize,
}

/// Everything `Program::wire` produced, ready to execute.
pub(crate) struct Plan {
    pub(crate) registry: Arc<Registry>,
    pub(crate) tasks: Vec<StageTask>,
    pub(crate) sources: Vec<SourceSet>,
    pub(crate) sinks: Vec<SinkSet>,
    /// Copy this run's span log into [`Report::trace`]
    /// ([`Program::enable_tracing`](crate::Program::enable_tracing)).
    pub(crate) trace_in_report: bool,
    pub(crate) metrics: Option<Arc<MetricsRegistry>>,
    pub(crate) trace_sink: Option<Arc<TraceSink>>,
    pub(crate) trace_group: Option<u32>,
    pub(crate) watchdog: Option<WatchdogCfg>,
    pub(crate) controller: Option<crate::controller::ControllerCfg>,
    pub(crate) pools: Vec<Arc<crate::controller::PoolControl>>,
    pub(crate) farms: Vec<Arc<ReplicaGroup>>,
    pub(crate) depth_actuators: Vec<Arc<dyn crate::controller::DepthActuator>>,
    pub(crate) pipelines: Vec<crate::stats::PipelineShape>,
    pub(crate) pin: Option<crate::affinity::PinMode>,
    pub(crate) ledger: Option<Arc<crate::profile::MemoryLedger>>,
}

/// Round-robin core assigner over the plan's pin map.  Threads draw cores
/// in spawn order — stage/replica threads first, then sources, then sinks
/// — so the stage threads claim the distinct cores before the (mostly
/// blocked) source/sink threads wrap around the list.
struct CorePlacement {
    cores: Vec<usize>,
    next: usize,
}

impl CorePlacement {
    fn new(pin: Option<crate::affinity::PinMode>) -> Self {
        CorePlacement {
            cores: pin.map(|m| m.cores()).unwrap_or_default(),
            next: 0,
        }
    }

    fn assign(&mut self) -> Option<usize> {
        if self.cores.is_empty() {
            return None;
        }
        let core = self.cores[self.next % self.cores.len()];
        self.next += 1;
        Some(core)
    }
}

/// Apply a [`CorePlacement`] assignment on the calling thread.  Returns
/// the core only when the affinity change actually took hold, so reports
/// never show a placement the scheduler is free to ignore.
fn pin_self(core: Option<usize>) -> Option<usize> {
    core.filter(|&c| crate::affinity::pin_current_thread(c))
}

/// Spawn one pipeline thread under `name`: registered with the resource
/// profiler for its lifetime, and leaving a final CPU sample behind at exit
/// — short-lived threads can exit between profiler ticks and would
/// otherwise vanish from the per-stage attribution.
fn spawn_thread(
    name: String,
    metrics: Option<Arc<MetricsRegistry>>,
    body: impl FnOnce() -> StageStats + Send + 'static,
) -> Result<std::thread::JoinHandle<StageStats>> {
    let profile_name = name.clone();
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let _reg = crate::profile::register_current_thread(profile_name.clone());
            let stats = body();
            if let Some(m) = &metrics {
                crate::profile::publish_exit_sample(&profile_name, m);
            }
            stats
        })
        .map_err(|e| FgError::Config(format!("failed to spawn pipeline thread: {e}")))
}

pub(crate) fn execute(program_name: String, plan: Plan) -> Result<Report> {
    let Plan {
        registry,
        tasks,
        sources,
        sinks,
        trace_in_report,
        metrics,
        trace_sink,
        trace_group,
        watchdog,
        controller,
        pools,
        farms,
        depth_actuators,
        pipelines,
        pin,
        ledger,
    } = plan;
    let mut placement = CorePlacement::new(pin);

    // One rule for when a sink exists: the caller shared one, or a reader
    // of the rings is armed — the watchdog (their activity clock) or the
    // report (their span log) — and the runtime makes a private one.
    let trace_sink =
        trace_sink.or_else(|| (watchdog.is_some() || trace_in_report).then(TraceSink::new));
    if let Some(sink) = &trace_sink {
        sink.touch();
    }
    // The rings this program registered, kept when the report is to carry
    // them: a shared sink also holds other programs' threads.
    let mut rings: Vec<Arc<SpanRing>> = Vec::new();
    let mut ring_for = |task: &str| {
        trace_sink.as_ref().map(|s| {
            let name = format!("{program_name}/{task}");
            let ring = match trace_group {
                Some(g) => s.register_thread_in_group(name, g),
                None => s.register_thread(name),
            };
            if trace_in_report {
                rings.push(Arc::clone(&ring));
            }
            ring
        })
    };

    let start = Instant::now();
    let mut handles = Vec::new();

    for task in tasks {
        let registry = Arc::clone(&registry);
        let stage_metrics = metrics.clone();
        let ring = ring_for(&task.name);
        // Replicas (`sort#0`, `sort#1`, …) share one ledger row: the
        // question the ledger answers is "how much does *sort* hold".
        let stage_ledger = ledger
            .as_ref()
            .map(|l| l.stage(crate::profile::replica_base(&task.name)));
        let core = placement.assign();
        handles.push(spawn_thread(
            format!("{program_name}/{}", task.name),
            metrics.clone(),
            move || run_stage_thread(task, registry, stage_metrics, ring, core, stage_ledger),
        )?);
    }
    for src in sources {
        let ring = ring_for(&src.label);
        let sink_ids = trace_sink.clone();
        let pool_ledger = ledger.clone();
        let core = placement.assign();
        handles.push(spawn_thread(
            format!("{program_name}/{}", src.label),
            metrics.clone(),
            move || run_source(src, ring, sink_ids, core, pool_ledger),
        )?);
    }
    for sink in sinks {
        let ring = ring_for(&sink.label);
        let core = placement.assign();
        handles.push(spawn_thread(
            format!("{program_name}/{}", sink.label),
            metrics.clone(),
            move || run_sink(sink, ring, core),
        )?);
    }

    // Close the observability loop: the controller samples the metrics
    // registry and actuates farm widths, buffer pools, and I/O depths
    // while the stage threads run.  Without a registry it has nothing to
    // observe, so it is skipped.
    let controller = match (&controller, &metrics) {
        (Some(cfg), Some(m)) => Some(crate::controller::Controller::start(
            Arc::clone(m),
            cfg.clone(),
            crate::controller::Actuators {
                farms,
                pools,
                depths: depth_actuators,
            },
            ring_for("controller"),
        )),
        _ => None,
    };

    // The watchdog polls the sink's pipeline-wide activity clock and fires
    // a post-mortem if it goes quiet for the configured timeout.
    let watchdog_handle = watchdog.map(|cfg| {
        let sink = Arc::clone(trace_sink.as_ref().expect("watchdog implies a sink"));
        let registry = Arc::clone(&registry);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gate2 = Arc::clone(&gate);
        let program = program_name.clone();
        let profile_name = format!("{program_name}/watchdog");
        let wd_ledger = ledger.clone();
        let handle = std::thread::Builder::new()
            .name(format!("{program_name}/watchdog"))
            .spawn(move || {
                let _reg = crate::profile::register_current_thread(profile_name);
                run_watchdog(cfg, sink, registry, program, gate2, wd_ledger)
            })
            .expect("failed to spawn watchdog thread");
        (handle, gate)
    });

    let threads_spawned = handles.len();
    let mut stages = Vec::with_capacity(threads_spawned);
    for handle in handles {
        match handle.join() {
            Ok(stats) => stages.push(stats),
            Err(_) => {
                // The wrapper catches panics; reaching here means the
                // wrapper itself failed, which we still surface.
                registry.cancel(FgError::Panic {
                    stage: "<runtime>".into(),
                    message: "stage thread wrapper panicked".into(),
                });
            }
        }
    }

    if let Some((handle, gate)) = watchdog_handle {
        *gate.0.lock() = true;
        gate.1.notify_all();
        let _ = handle.join();
    }
    let controller_log = controller.map(|c| c.stop());

    if let Some(err) = registry.take_error() {
        return Err(err);
    }
    if registry.is_cancelled() {
        return Err(FgError::Cancelled);
    }
    Ok(Report {
        wall: start.elapsed(),
        stages,
        threads_spawned,
        queues: registry.queue_depths(),
        pipelines,
        metrics: metrics.map(|m| m.snapshot()).unwrap_or_default(),
        controller: controller_log,
        // Per-thread CPU rows are gone once the threads have joined; the
        // meaningful final attribution is whatever a ResourceProfiler
        // published into the metrics gauges during the run.  Entry points
        // that ran one (fgsort --profile) fill this in.
        resources: None,
        // The threads have joined, so each ring holds its thread's final log.
        trace: rings.iter().map(|r| r.log()).collect(),
        trace_start_ns: rings.first().map_or(0, |r| r.ns_of(start)),
    })
}

fn run_stage_thread(
    task: StageTask,
    registry: Arc<Registry>,
    metrics: Option<Arc<MetricsRegistry>>,
    ring: Option<Arc<SpanRing>>,
    core: Option<usize>,
    stage_ledger: Option<Arc<crate::profile::StageLedger>>,
) -> StageStats {
    let core = pin_self(core);
    let StageTask {
        name,
        mut stage,
        ports,
        shared_input,
        replica_group,
        replica_index,
    } = task;
    // When the tracking allocator serves this process, heap traffic on
    // this thread is charged to the stage's base name.  Skipped entirely
    // otherwise — tag slots are a bounded table, and untracked runs
    // shouldn't consume them.
    let _tag_scope = crate::alloc::installed().then(|| {
        crate::alloc::thread_tag_scope(crate::alloc::register_tag(crate::profile::replica_base(
            &name,
        )))
    });
    let start = Instant::now();
    let mut ctx = StageCtx::new(name.clone(), ports, shared_input, Arc::clone(&registry));
    if let Some(l) = stage_ledger {
        ctx.set_ledger(l);
    }
    if let Some(group) = replica_group {
        ctx.set_replica_group(group, replica_index);
    }
    // Live counters let a controller (and `/metrics` scrapes) see the
    // stage's time attribution as it evolves, not only at thread exit.
    if let Some(m) = &metrics {
        ctx.set_live_metrics(m, start);
    }
    if let Some(r) = ring {
        ctx.set_ring(r, start);
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| stage.run(&mut ctx)));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(err)) => registry.cancel(if err.is_cancelled() {
            FgError::Cancelled
        } else {
            err
        }),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            registry.cancel(FgError::Panic {
                stage: name.clone(),
                message,
            });
        }
    }
    ctx.finish();
    let end = Instant::now();
    ctx.retire(end);

    let stats = StageStats {
        core,
        wall: end - start,
        ..std::mem::take(&mut ctx.stats)
    };
    if let Some(m) = &metrics {
        m.counter(&format!("core/stage_buffers/{}", stats.name))
            .add(stats.buffers_in);
    }
    stats
}

fn run_source(
    set: SourceSet,
    ring: Option<Arc<SpanRing>>,
    trace_sink: Option<Arc<TraceSink>>,
    core: Option<usize>,
    ledger: Option<Arc<crate::profile::MemoryLedger>>,
) -> StageStats {
    let start = Instant::now();
    let mut stats = StageStats {
        name: set.label.clone(),
        core: pin_self(core),
        ..StageStats::default()
    };

    let index_of = |p: PipelineId| set.pipes.iter().position(|sp| sp.pipeline == p);
    let mut emitted = vec![0u64; set.pipes.len()];
    let mut done = vec![false; set.pipes.len()];
    // Pool buffers this source has charged to the ledger and not yet
    // credited, per pipeline.  The source is where pool buffers are born
    // and retired, so it returns whatever is left when it exits: no pool
    // buffer outlives its program.
    let mut charged = vec![0u64; set.pipes.len()];
    let charge = |i: usize, charged: &mut [u64]| {
        if let Some(l) = &ledger {
            l.charge_pool(set.pipes[i].buffer_size as u64);
            charged[i] += 1;
        }
    };

    // Seed each pipeline's pool.
    let mut pending: VecDeque<Buffer> = VecDeque::new();
    for (i, sp) in set.pipes.iter().enumerate() {
        for _ in 0..sp.buffers {
            charge(i, &mut charged);
            pending.push_back(Buffer::new(sp.buffer_size, sp.pipeline));
        }
    }

    // Emit the caboose for pipeline i; ignores failure during teardown.
    let emit_caboose = |i: usize, done: &mut Vec<bool>| {
        if !done[i] {
            done[i] = true;
            let _ = set.pipes[i]
                .first
                .push(Item::Caboose(set.pipes[i].pipeline));
        }
    };

    'outer: loop {
        if done.iter().all(|&d| d) {
            break;
        }
        // Controller-requested pool growth: inject fresh buffers at round
        // boundaries. Queues are sized for the pool ceiling, so the extra
        // buffers can never wedge a full queue.
        for (i, sp) in set.pipes.iter().enumerate() {
            if done[i] {
                continue;
            }
            if let Some(pool) = &sp.pool {
                while pool.try_grow() {
                    charge(i, &mut charged);
                    pending.push_back(Buffer::new(sp.buffer_size, sp.pipeline));
                }
            }
        }
        // Wait for a free buffer, remembered so the wait can be recorded
        // against the round the buffer ends up carrying.
        let mut recycle_wait: Option<(Instant, Instant)> = None;
        let mut buf = match pending.pop_front() {
            Some(b) => b,
            None => {
                let t0 = Instant::now();
                enter(&ring, ThreadState::BlockedAccept, t0);
                let popped = set.recycle.pop();
                let t1 = Instant::now();
                stats.blocked_accept += t1 - t0;
                enter(&ring, ThreadState::Busy, t1);
                match popped {
                    Ok(Item::Buf(b)) => {
                        recycle_wait = Some((t0, t1));
                        b
                    }
                    Ok(Item::Caboose(_)) => continue, // never produced; defensive
                    Err(_) => {
                        // Recycle closed: a stop() or program cancellation.
                        for i in 0..set.pipes.len() {
                            emit_caboose(i, &mut done);
                        }
                        break 'outer;
                    }
                }
            }
        };
        let i = match index_of(buf.pipeline()) {
            Some(i) => i,
            None => continue, // foreign buffer: impossible, but don't wedge
        };
        // Controller-requested pool shrink: retire this recycled buffer
        // instead of re-injecting it. Only whole buffers at a round boundary
        // ever leave the pool, so in-flight data is untouched.
        if set.pipes[i].pool.as_ref().is_some_and(|p| p.try_shrink()) {
            if let Some(l) = &ledger {
                l.credit_pool(set.pipes[i].buffer_size as u64);
                charged[i] -= 1;
            }
            continue;
        }
        if done[i] {
            continue; // pipeline retired; release the buffer
        }
        if set.pipes[i].stop.is_stopped() {
            emit_caboose(i, &mut done);
            continue;
        }
        if let Rounds::Count(n) = set.pipes[i].rounds {
            if emitted[i] >= n {
                emit_caboose(i, &mut done);
                continue;
            }
        }
        buf.begin_round(emitted[i]);
        if let Some(s) = &trace_sink {
            buf.set_trace_id(s.next_trace_id());
        }
        let (round, tid, pid) = (buf.round(), buf.trace_id(), buf.pipeline().0);
        emitted[i] += 1;
        if let (Some(r), Some((w0, w1))) = (&ring, recycle_wait) {
            r.record(TraceKind::Accept, pid, round, tid, r.ns_of(w0), r.ns_of(w1));
        }
        let t0 = Instant::now();
        enter(&ring, ThreadState::BlockedConvey, t0);
        let pushed = set.pipes[i].first.push(Item::Buf(buf));
        let t1 = Instant::now();
        stats.blocked_convey += t1 - t0;
        if pushed.is_err() {
            break; // cancelled
        }
        if let Some(r) = &ring {
            r.record(
                TraceKind::SourceInject,
                pid,
                round,
                tid,
                r.ns_of(t0),
                r.ns_of(t1),
            );
        }
        enter(&ring, ThreadState::Busy, t1);
        stats.buffers_out += 1;
        // Emit the caboose eagerly right after the final round so consumers
        // (e.g. a merge stage) learn about the end of this stream promptly.
        if let Rounds::Count(n) = set.pipes[i].rounds {
            if emitted[i] == n {
                emit_caboose(i, &mut done);
            }
        }
    }
    if let Some(l) = &ledger {
        for (sp, &n) in set.pipes.iter().zip(&charged) {
            for _ in 0..n {
                l.credit_pool(sp.buffer_size as u64);
            }
        }
    }
    let end = Instant::now();
    enter(&ring, ThreadState::Done, end);
    stats.wall = end - start;
    stats
}

fn run_sink(set: SinkSet, ring: Option<Arc<SpanRing>>, core: Option<usize>) -> StageStats {
    let start = Instant::now();
    let mut stats = StageStats {
        name: set.label.clone(),
        core: pin_self(core),
        ..StageStats::default()
    };
    let mut remaining = set.members;
    while remaining > 0 {
        let t0 = Instant::now();
        enter(&ring, ThreadState::BlockedAccept, t0);
        let popped = set.queue.pop();
        let t1 = Instant::now();
        stats.blocked_accept += t1 - t0;
        enter(&ring, ThreadState::Busy, t1);
        match popped {
            Ok(Item::Buf(b)) => {
                stats.buffers_in += 1;
                let (pid, round, tid) = (b.pipeline().0, b.round(), b.trace_id());
                // The source may already have retired; dropping is fine then.
                let _ = set.recycle.push(Item::Buf(b));
                if let Some(r) = &ring {
                    let t2 = Instant::now();
                    r.record(
                        TraceKind::Recycle,
                        pid,
                        round,
                        tid,
                        r.ns_of(t1),
                        r.ns_of(t2),
                    );
                }
            }
            Ok(Item::Caboose(p)) => {
                remaining -= 1;
                if let Some(r) = &ring {
                    // Caboose progress still feeds the watchdog's clock.
                    r.record(TraceKind::Accept, p.0, 0, 0, r.ns_of(t0), r.ns_of(t1));
                }
            }
            Err(_) => break,
        }
    }
    let end = Instant::now();
    enter(&ring, ThreadState::Done, end);
    stats.wall = end - start;
    stats
}

/// Watchdog loop: poll the sink's idle clock; on a stall, assemble and
/// report a [`Postmortem`], then abort or keep waiting per the config.
fn run_watchdog(
    cfg: WatchdogCfg,
    sink: Arc<TraceSink>,
    registry: Arc<Registry>,
    program: String,
    gate: Arc<(Mutex<bool>, Condvar)>,
    ledger: Option<Arc<crate::profile::MemoryLedger>>,
) {
    let poll = (cfg.timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(100));
    let mut reported = false;
    loop {
        {
            let mut stopped = gate.0.lock();
            if *stopped {
                return;
            }
            gate.1.wait_for(&mut stopped, poll);
            if *stopped {
                return;
            }
        }
        let idle = sink.idle();
        if idle < cfg.timeout {
            reported = false; // activity resumed; re-arm
            continue;
        }
        if reported {
            continue; // KeepWaiting mode: one report per stall episode
        }
        reported = true;
        let threads: Vec<ThreadPostmortem> = sink
            .rings()
            .iter()
            .map(|r| {
                let (state, in_state_for) = r.state();
                let spans = r.snapshot();
                let keep = spans.len().saturating_sub(cfg.last_spans);
                ThreadPostmortem {
                    thread: r.name().to_string(),
                    state,
                    in_state_for,
                    intakes: r.intakes(),
                    emits: r.emits(),
                    last_spans: spans[keep..].to_vec(),
                }
            })
            .collect();
        let culprit = guess_culprit(&threads);
        let pm = Postmortem {
            program: program.clone(),
            stalled_for: idle,
            threads,
            queues: registry.live_queue_depths(),
            turnstiles: registry.turnstiles(),
            culprit: culprit.clone(),
            // Stalled threads are still alive, so the snapshot carries
            // their CPU rows: a wedged run's post-mortem says who was
            // spinning and what memory looked like at the moment of death.
            resources: Some(crate::profile::ResourceReport::sample_now(
                ledger.as_deref(),
            )),
        };
        eprint!("{}", pm.render());
        if let Some(path) = &cfg.artifact {
            if let Err(e) = std::fs::write(path, pm.to_json().to_string()) {
                eprintln!(
                    "fg watchdog: failed to write post-mortem artifact {}: {e}",
                    path.display()
                );
            }
        }
        if cfg.action == WatchdogAction::Abort {
            registry.cancel(FgError::Stalled {
                culprit: culprit.unwrap_or_else(|| "unknown".into()),
            });
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::PoolControl;
    use crate::profile::MemoryLedger;

    /// `PoolControl` has no public handle (only a controller steers it), so
    /// the resize case of the ledger's "ends at zero" rule is driven here.
    #[test]
    fn a_pool_that_grew_then_shrank_leaves_the_ledger_at_zero() {
        let first = Queue::new("p[0]", 8);
        let recycle = Queue::new("recycle/g0", 8);
        let pool = PoolControl::new("p", "recycle/g0", 2, 1, 4);
        pool.set_target(4);
        let ledger = Arc::new(MemoryLedger::new());
        let set = SourceSet {
            label: "p/source".into(),
            pipes: vec![SourcePipe {
                pipeline: PipelineId(0),
                first: Arc::clone(&first),
                rounds: Rounds::Count(200),
                stop: StopFlag::new(),
                buffers: 2,
                buffer_size: 64,
                pool: Some(Arc::clone(&pool)),
            }],
            recycle: Arc::clone(&recycle),
        };
        let source = {
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || run_source(set, None, None, None, Some(ledger)))
        };
        // Stand in for the pipeline: hand every buffer straight back, and
        // halfway through steer the pool down to one buffer.
        while let Item::Buf(b) = first.pop().expect("first queue stays open") {
            if b.round() == 100 {
                pool.set_target(1);
            }
            recycle.push(Item::Buf(b)).expect("recycle open");
        }
        assert_eq!(source.join().expect("source thread").buffers_out, 200);
        assert_eq!(pool.size(), 1, "three buffers were retired on the way");
        assert_eq!(ledger.outstanding(), (0, 0));
        let snap = ledger.snapshot();
        assert_eq!((snap.total_buffers, snap.peak_bytes), (4, 4 * 64));
    }
}
