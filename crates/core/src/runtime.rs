//! Thread spawning and program execution.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::{FgError, Result};
use crate::metrics::MetricsRegistry;
use crate::program::replica_base;
use crate::queue::Queue;
use crate::stage::{Pool, Port, Registry, ReplicaGroup, Stage, StageCounters, StageCtx};
use crate::stats::{Report, StageStats};
use crate::trace::{guess_culprit, Postmortem, SpanRing, ThreadPostmortem, TraceSink, WatchdogCfg};

/// A stage ready to run on its own thread.
pub(crate) struct StageTask {
    pub(crate) name: String,
    pub(crate) stage: Box<dyn Stage>,
    pub(crate) ports: Vec<Port>,
    pub(crate) shared_input: Option<Arc<Queue>>,
    pub(crate) replica_group: Option<Arc<ReplicaGroup>>,
}

/// Everything `Program::wire` produced, ready to execute.
pub(crate) struct Plan {
    pub(crate) registry: Arc<Registry>,
    pub(crate) tasks: Vec<StageTask>,
    /// Every pipeline's buffer pool, in declaration order.
    pub(crate) pools: Vec<Arc<Pool>>,
    /// Copy this run's span log into [`Report::trace`]
    /// ([`Program::enable_tracing`](crate::Program::enable_tracing)).
    pub(crate) trace_in_report: bool,
    pub(crate) metrics: Option<Arc<MetricsRegistry>>,
    pub(crate) trace_sink: Option<Arc<TraceSink>>,
    pub(crate) trace_group: Option<u32>,
    pub(crate) watchdog: Option<WatchdogCfg>,
    pub(crate) pipelines: Vec<crate::stats::PipelineShape>,
    pub(crate) pin: Option<crate::affinity::PinMode>,
    pub(crate) ledger: Option<Arc<crate::profile::MemoryLedger>>,
}

/// Round-robin core assigner over the plan's pin map.  Threads draw cores
/// in spawn order: stages in declaration order, a farm's replicas together.
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
        pools,
        trace_in_report,
        metrics,
        trace_sink,
        trace_group,
        watchdog,
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
    // The pools fill before any stage thread exists: each first stage
    // starts on a full input queue.  (A pool its queue cannot admit is the
    // program's error; the stage threads then start on closed queues.)
    if let Err(e) = pools.iter().try_for_each(|pool| pool.seed()) {
        registry.cancel(e);
    }
    let mut handles = Vec::new();

    for task in tasks {
        let registry = Arc::clone(&registry);
        let thread = format!("{program_name}/{}", task.name);
        let counters = registry.stage_counters(thread.clone(), &task.name, metrics.as_deref());
        let ring = ring_for(&task.name);
        // Replicas (`sort#0`, `sort#1`, …) share one ledger row: the
        // question the ledger answers is "how much does *sort* hold".
        let base = replica_base(&task.name).unwrap_or(&task.name);
        let stage_ledger = ledger.as_ref().map(|l| l.stage(base));
        let core = placement.assign();
        handles.push(spawn_thread(thread, metrics.clone(), move || {
            run_stage_thread(task, registry, counters, ring, core, stage_ledger)
        })?);
    }

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
    for pool in &pools {
        pool.settle();
    }

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
    counters: Arc<StageCounters>,
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
    } = task;
    // When the tracking allocator serves this process, heap traffic on
    // this thread is charged to the stage's base name.  Skipped entirely
    // otherwise — tag slots are a bounded table, and untracked runs
    // shouldn't consume them.
    let _tag_scope = crate::alloc::installed().then(|| {
        let base = replica_base(&name).unwrap_or(&name);
        crate::alloc::thread_tag_scope(crate::alloc::register_tag(base))
    });
    let start = Instant::now();
    let mut ctx = StageCtx::new(
        name.clone(),
        ports,
        shared_input,
        Arc::clone(&registry),
        Arc::clone(&counters),
        start,
    );
    if let Some(l) = stage_ledger {
        ctx.set_ledger(l);
    }
    if let Some(group) = replica_group {
        ctx.set_replica_group(group);
    }
    if let Some(r) = ring {
        ctx.set_ring(r);
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

    counters.stats(name, core, end - start)
}

/// Watchdog loop: poll the sink's idle clock; on a stall, assemble and
/// report a [`Postmortem`], then abort the program.
fn run_watchdog(
    cfg: WatchdogCfg,
    sink: Arc<TraceSink>,
    registry: Arc<Registry>,
    program: String,
    gate: Arc<(Mutex<bool>, Condvar)>,
    ledger: Option<Arc<crate::profile::MemoryLedger>>,
) {
    let poll = (cfg.timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(100));
    let idle = loop {
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
        if idle >= cfg.timeout {
            break idle;
        }
    };
    let threads: Vec<ThreadPostmortem> = sink
        .rings()
        .iter()
        .map(|r| {
            let (state, in_state_for) = r.state();
            let spans = r.snapshot();
            let keep = spans.len().saturating_sub(cfg.last_spans);
            let (intakes, emits) = registry.traffic(r.name());
            ThreadPostmortem {
                thread: r.name().to_string(),
                state,
                in_state_for,
                intakes,
                emits,
                last_spans: spans[keep..].to_vec(),
            }
        })
        .collect();
    let culprit = guess_culprit(&threads);
    let pm = Postmortem {
        program,
        stalled_for: idle,
        threads,
        queues: registry.live_queue_depths(),
        turnstiles: registry.turnstiles(),
        culprit: culprit.clone(),
        // Stalled threads are still alive, so the snapshot carries their
        // CPU rows: a wedged run's post-mortem says who was spinning and
        // what memory looked like at the moment of death.
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
    registry.cancel(FgError::Stalled {
        culprit: culprit.unwrap_or_else(|| "unknown".into()),
    });
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::buffer::Buffer;
    use crate::queue::Item;
    use crate::{map_stage, PipelineCfg, Program};

    /// Passes `pass` buffers on, then sits out the run without popping its
    /// input again — the held consumer — until the program is torn down.
    fn held_after(pass: usize) -> Box<dyn Stage> {
        Box::new(move |ctx: &mut StageCtx| {
            for _ in 0..pass {
                let buf = ctx.accept()?.expect("a buffer to pass on");
                ctx.convey(buf)?;
            }
            while !ctx.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        })
    }

    type Victim = Arc<OnceLock<Arc<Queue>>>;

    /// Accepts a buffer, pushes the victim queue past its slots — which
    /// only a unit test can do: `Buffer::new` is crate-private, so a stage
    /// has no buffers but its pools' — and then does `op` with the buffer.
    fn overfills(victim: &Victim, op: fn(&mut StageCtx, Buffer) -> Result<()>) -> Box<dyn Stage> {
        let victim = Arc::clone(victim);
        Box::new(move |ctx: &mut StageCtx| {
            let buf = ctx.accept()?.expect("a buffer to push");
            let q = victim.get().expect("set before the program runs");
            while q.push(Item::Buf(Buffer::new(8, buf.pipeline()))).is_ok() {}
            op(ctx, buf)
        })
    }

    /// Run `prog` with the queue `pick` finds in its plan as the victim,
    /// under a 2 s watchdog: a push that waited (or landed) would end the
    /// test as `Stalled`, not hang it.  The program must end with a usage
    /// error that names the queue and the pipeline.
    fn assert_full_is_the_programs_error(
        mut prog: Program,
        victim: &Victim,
        pick: fn(&Plan) -> Arc<Queue>,
        (name, flavor): (&str, &str),
    ) {
        prog.with_watchdog(Duration::from_secs(2));
        let plan = prog.wire().unwrap();
        let q = pick(&plan);
        assert_eq!(
            (q.name(), q.flavor_label(), q.capacity()),
            (name, flavor, 3)
        );
        victim.set(q).ok().expect("one victim a program");
        let err = execute("overfill".into(), plan).unwrap_err();
        assert!(
            matches!(&err, FgError::Usage(m)
                if m.contains(&format!("queue `{name}` is full (3 slots)"))
                    && m.contains("pipeline#0")),
            "{err}"
        );
    }

    #[test]
    fn a_full_pool_queue_fails_the_convey_discard_or_stop_into_it() {
        let ops: [fn(&mut StageCtx, Buffer) -> Result<()>; 3] = [
            |ctx, buf| ctx.convey(buf),
            |ctx, buf| ctx.discard(buf),
            |ctx, buf| ctx.stop(buf.pipeline()),
        ];
        for op in ops {
            let victim = Victim::default();
            let mut prog = Program::new("pool");
            let head = prog.add_stage("head", held_after(1));
            let tail = prog.add_stage("tail", overfills(&victim, op));
            prog.add_pipeline(PipelineCfg::new("p", 2, 8), &[head, tail])
                .unwrap();
            assert_full_is_the_programs_error(
                prog,
                &victim,
                |plan| Arc::clone(&plan.pools[0].queue),
                ("recycle/p", "lockfree"),
            );
        }
    }

    #[test]
    fn a_full_spsc_link_fails_the_convey_into_it() {
        let victim = Victim::default();
        let mut prog = Program::new("link");
        let a = prog.add_stage("a", overfills(&victim, |ctx, buf| ctx.convey(buf)));
        let b = prog.add_stage("b", held_after(0));
        prog.add_pipeline(PipelineCfg::new("p", 2, 8), &[a, b])
            .unwrap();
        assert_full_is_the_programs_error(
            prog,
            &victim,
            |plan| Arc::clone(&plan.tasks[0].ports[0].output),
            ("p[1]", "spsc"),
        );
    }

    #[test]
    fn a_full_farm_input_fails_the_convey_into_it() {
        let victim = Victim::default();
        let mut prog = Program::new("farm");
        let a = prog.add_stage("a", overfills(&victim, |ctx, buf| ctx.convey(buf)));
        let farm = prog.workers("farm", 2, |_| held_after(0));
        let c = prog.add_stage("c", map_stage(|_, _| Ok(())));
        prog.add_pipeline(PipelineCfg::new("p", 2, 8), &[a, farm, c])
            .unwrap();
        assert_full_is_the_programs_error(
            prog,
            &victim,
            |plan| Arc::clone(&plan.tasks[0].ports[0].output),
            ("p[1]", "lockfree"),
        );
    }
}
