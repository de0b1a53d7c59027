//! Thread spawning and program execution.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::buffer::BufferStock;
use crate::error::{FgError, Result};
use crate::metrics::MetricsRegistry;
use crate::profile::ResourceReport;
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
    pub(crate) ledger: Option<Arc<crate::profile::MemoryLedger>>,
    pub(crate) stock: Option<Arc<BufferStock>>,
}

/// Makes the builder of each thread `execute` spawns from its name.
type MakeThread<'a> = &'a mut dyn FnMut(String) -> std::io::Result<std::thread::Builder>;

/// Spawn one pipeline thread under `name`.
fn spawn_thread<T: Send + 'static>(
    make: MakeThread<'_>,
    name: String,
    body: impl FnOnce() -> T + Send + 'static,
) -> Result<std::thread::JoinHandle<T>> {
    make(name.clone())
        .and_then(|builder| builder.spawn(body))
        .map_err(|e| FgError::Config(format!("failed to spawn pipeline thread `{name}`: {e}")))
}

pub(crate) fn execute(program_name: String, plan: Plan) -> Result<Report> {
    execute_with(program_name, plan, &mut |name| {
        Ok(std::thread::Builder::new().name(name))
    })
}

fn execute_with(program_name: String, plan: Plan, make: MakeThread<'_>) -> Result<Report> {
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
        ledger,
        stock,
    } = plan;
    // A program with a registry or a ledger attached reports its resources:
    // each stage thread's exit row, then one read once they have joined.
    let observed = metrics.is_some() || ledger.is_some();

    // One rule for when a sink exists: the caller shared one, or the
    // report is to carry the span log and the runtime makes a private one.
    // The watchdog reads the counter blocks, not the rings.
    let trace_sink = trace_sink.or_else(|| trace_in_report.then(TraceSink::new));
    // The rings this program registered: a shared sink also holds other
    // programs' threads.
    let mut rings: Vec<Arc<SpanRing>> = Vec::new();

    // The program's epoch: every thread state is in nanoseconds since.
    let start = Instant::now();
    // The pools fill before any stage thread exists: each first stage
    // starts on a full input queue.  (A pool its queue cannot admit is the
    // program's error; the stage threads then start on closed queues.)
    // Each pool first claims stored storage of its buffer size; what none
    // claimed is freed before any pool allocates fresh (tagged `pool`).
    let buffers = pools.iter().map(|pool| pool.buffers).sum();
    let mut stored = stock.map(|s| s.take(buffers)).unwrap_or_default();
    let claimed: Vec<_> = pools.iter().map(|pool| pool.claim(&mut stored)).collect();
    drop(stored);
    let seed = || (pools.iter().zip(claimed)).try_for_each(|(pool, c)| pool.seed(c));
    if let Err(e) = crate::alloc::with_tag(crate::alloc::register_tag("pool"), seed) {
        registry.cancel(e);
    }
    let mut handles = Vec::new();

    // A thread that cannot be spawned is the program's error: the threads
    // already running are torn down and joined like on any other failure.
    for task in tasks {
        let thread = format!("{program_name}/{}", task.name);
        let counters = registry.stage_counters(thread.clone(), &task.name, metrics.as_deref());
        let ring = trace_sink.as_ref().map(|s| match trace_group {
            Some(g) => s.register_thread_in_group(thread.clone(), g),
            None => s.register_thread(thread.clone()),
        });
        rings.extend(ring.clone());
        let (name, reg) = (thread.clone(), Arc::clone(&registry));
        let spawned = spawn_thread(make, thread, move || {
            let stats = run_stage_thread(task, reg, counters, ring, start);
            let row = observed.then(|| ResourceReport::exit_sample(&name));
            (stats, row.flatten())
        });
        let Ok(handle) = spawned.map_err(|e| registry.cancel(e)) else {
            break;
        };
        handles.push(handle);
    }

    // The watchdog polls the stage threads' counter blocks and fires a
    // post-mortem if none changes state for the configured timeout.
    let watchdog_handle = watchdog.and_then(|cfg| {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (reg, gate2, rings) = (Arc::clone(&registry), Arc::clone(&gate), rings.clone());
        let (program, wd_ledger) = (program_name.clone(), ledger.clone());
        let body = move || run_watchdog(cfg, start, reg, rings, program, gate2, wd_ledger);
        let spawned = spawn_thread(make, format!("{program_name}/watchdog"), body);
        spawned
            .map_err(|e| registry.cancel(e))
            .ok()
            .map(|h| (h, gate))
    });

    let threads_spawned = handles.len();
    let mut stages = Vec::with_capacity(threads_spawned);
    let mut exit_rows = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok((stats, row)) => {
                stages.push(stats);
                exit_rows.extend(row);
            }
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
    // The threads have joined, so each ring holds its thread's final log.
    let rings = if trace_in_report { &rings[..] } else { &[] };
    Ok(Report {
        wall: start.elapsed(),
        stages,
        threads_spawned,
        queues: registry.queue_depths(),
        pipelines,
        metrics: metrics.map(|m| m.snapshot()).unwrap_or_default(),
        resources: observed.then(|| ResourceReport::at_run_end(ledger.as_deref(), exit_rows)),
        trace: rings.iter().map(|r| r.log()).collect(),
        trace_start_ns: rings.first().map_or(0, |r| r.ns_of(start)),
    })
}

fn run_stage_thread(
    task: StageTask,
    registry: Arc<Registry>,
    counters: Arc<StageCounters>,
    ring: Option<Arc<SpanRing>>,
    epoch: Instant,
) -> StageStats {
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
        epoch,
        start,
    );
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

    counters.stats(name, end - start)
}

/// Watchdog loop: poll the program's counter blocks; on a stall, assemble
/// and report a [`Postmortem`], then abort the program.
fn run_watchdog(
    cfg: WatchdogCfg,
    epoch: Instant,
    registry: Arc<Registry>,
    rings: Vec<Arc<SpanRing>>,
    program: String,
    gate: Arc<(Mutex<bool>, Condvar)>,
    ledger: Option<Arc<crate::profile::MemoryLedger>>,
) {
    let poll = (cfg.timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(100));
    let stages = registry.stages();
    let now = || epoch.elapsed().as_nanos() as u64;
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
        // Every queue operation changes its thread's state, so the newest
        // change is the program's last progress (its start before any).
        let newest = stages.iter().map(|(_, c)| c.state().1).max();
        let idle = Duration::from_nanos(now().saturating_sub(newest.unwrap_or(0)));
        if idle >= cfg.timeout {
            break idle;
        }
    };
    let at = now();
    let threads: Vec<ThreadPostmortem> = stages
        .iter()
        .map(|(thread, c)| {
            let (state, since) = c.state();
            let (intakes, emits) = c.traffic();
            let ring = rings.iter().find(|r| r.name() == thread);
            let spans = ring.map(|r| r.snapshot()).unwrap_or_default();
            let keep = spans.len().saturating_sub(cfg.last_spans);
            ThreadPostmortem {
                thread: thread.clone(),
                state,
                in_state_for: Duration::from_nanos(at.saturating_sub(since)),
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
        // What memory looked like at the moment of death; who held what
        // is each thread's `intakes` and `emits` above.
        resources: Some(ResourceReport::sample_now(ledger.as_deref())),
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
                ("recycle/p", "mutex"),
            );
        }
    }

    /// A spawn that fails at any thread, the watchdog's included, fails the
    /// program with it, after every thread already spawned has been torn
    /// down and joined: each one held the program's registry until it
    /// returned.
    #[test]
    fn a_failed_spawn_leaves_no_thread_running() {
        for k in 1..=4 {
            let name = format!("spawn-fail-{k}");
            let mut prog = Program::new(name.as_str());
            let stages = ["a", "b", "c"].map(|s| prog.add_stage(s, map_stage(|_, _| Ok(()))));
            prog.add_pipeline(PipelineCfg::new("p", 2, 8).count(1 << 30), &stages)
                .unwrap();
            prog.with_watchdog(Duration::from_secs(60));
            let plan = prog.wire().unwrap();
            let registry = Arc::clone(&plan.registry);
            let mut calls = 0;
            let err = execute_with(name.clone(), plan, &mut |thread| {
                calls += 1;
                let refused = std::io::Error::other("no thread for you");
                (calls != k)
                    .then(|| std::thread::Builder::new().name(thread))
                    .ok_or(refused)
            })
            .unwrap_err();
            assert!(
                matches!(&err, FgError::Config(m) if m.contains("for you")),
                "{err}"
            );
            assert_eq!(Arc::strong_count(&registry), 1, "a thread outlived {name}");
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
            ("p[1]", "mutex"),
        );
    }
}
