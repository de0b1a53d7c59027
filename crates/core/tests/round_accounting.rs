//! What a stage round books: a pop that finds a buffer is no wait, and a
//! push books nothing but an ordered farm's turn wait, traced or not.  (A
//! pop that misses is all wait: `linear.rs`'s starved stage.)

use std::sync::Arc;
use std::time::Duration;

use fg_core::{map_stage, MetricsRegistry, PipelineCfg, Program, Report, StageCtx};

const ROUNDS: u64 = 40;
const WORK: Duration = Duration::from_micros(500);

fn work() -> Box<dyn fg_core::Stage> {
    map_stage(|_, _| {
        std::thread::sleep(WORK);
        Ok(())
    })
}

/// Run `prog` with a metrics registry: the report, and the live counter
/// `core/<family>/<task>`.
fn run_counted(mut prog: Program) -> (Report, impl Fn(&str, &str) -> u64) {
    prog.set_metrics(Arc::new(MetricsRegistry::new()));
    let report = prog.run().unwrap();
    let metrics = report.metrics.clone();
    let counter = move |family: &str, task: &str| {
        metrics
            .counter(&format!("core/{family}/{task}"))
            .unwrap_or_else(|| panic!("no core/{family}/{task}"))
    };
    (report, counter)
}

/// A lone stage heads and ends its pipeline, so its input is its own pool,
/// and with two buffers the pool always holds one: no accept ever waits.
/// A trace sink changes none of it: its spans are the same instants.
#[test]
fn a_stage_whose_input_always_holds_buffers_books_no_accept_wait() {
    for traced in [false, true] {
        let mut prog = Program::new("fed");
        if traced {
            prog.enable_tracing();
        }
        let s = prog.add_stage("fed", work());
        prog.add_pipeline(PipelineCfg::new("p", 2, 64).count(ROUNDS), &[s])
            .unwrap();
        let (report, counter) = run_counted(prog);
        let fed = report.stage("fed").unwrap();
        assert_eq!((fed.buffers_in, fed.buffers_out), (ROUNDS, ROUNDS));
        assert_eq!(fed.blocked_accept, Duration::ZERO, "{fed:?}");
        assert_eq!(fed.blocked_convey, Duration::ZERO, "{fed:?}");
        assert_eq!(counter("stage_blocked_accept_ns", "fed"), 0);
        assert_eq!(counter("stage_blocked_convey_ns", "fed"), 0);
        // Every round is the stage's own time, the pops and pushes included.
        let busy = Duration::from_nanos(counter("stage_busy_ns", "fed"));
        assert!(busy >= WORK * ROUNDS as u32, "{busy:?}");
        assert!(busy <= fed.wall, "{busy:?} of {:?}", fed.wall);
        assert_eq!(report.trace.is_empty(), !traced);
    }
}

/// The same through `accept_any`: a virtual stage heading two pipelines
/// pops from the pools' one shared queue, which never runs dry.
#[test]
fn a_virtual_stage_fed_by_its_pools_books_no_accept_wait() {
    let mut prog = Program::new("fed-virtual");
    let v = prog.add_virtual_stage("v", work());
    for name in ["a", "b"] {
        prog.add_pipeline(PipelineCfg::new(name, 2, 64).count(ROUNDS / 2), &[v])
            .unwrap();
    }
    let (report, counter) = run_counted(prog);
    let v = report.stage("v").unwrap();
    assert_eq!(v.buffers_in, ROUNDS);
    assert_eq!(v.blocked_accept, Duration::ZERO, "{v:?}");
    assert_eq!(counter("stage_blocked_accept_ns", "v"), 0);
    let busy = Duration::from_nanos(counter("stage_busy_ns", "v"));
    assert!(busy >= WORK * ROUNDS as u32, "{busy:?}");
}

/// An ordered farm of two: round 0 is held, so the worker with round 1
/// finishes first and waits its emission turn.  Untraced, that turn wait
/// is still blocked-convey time; the plain stage behind the farm books
/// none, since its pushes never wait.
#[test]
fn an_ordered_farm_books_its_turn_waits_as_blocked_convey() {
    const HELD: Duration = Duration::from_millis(20);
    let mut prog = Program::new("turns");
    let farm = prog.workers("farm", 2, |_| {
        map_stage(|buf, _| {
            if buf.round() == 0 {
                std::thread::sleep(HELD);
            }
            Ok(())
        })
    });
    let out = prog.add_stage(
        "out",
        Box::new(|ctx: &mut StageCtx| {
            while let Some(buf) = ctx.accept()? {
                ctx.convey(buf)?;
            }
            Ok(())
        }),
    );
    prog.add_pipeline(PipelineCfg::new("p", 4, 64).count(4), &[farm, out])
        .unwrap();
    let (report, counter) = run_counted(prog);
    let row = (report.stage_rollups().into_iter())
        .find(|r| r.name == "farm")
        .unwrap();
    assert!(
        row.blocked_convey >= HELD / 2,
        "a worker waited about {HELD:?} for round 0: {row:?}"
    );
    let counted: u64 = (0..2)
        .map(|i| counter("stage_blocked_convey_ns", &format!("farm#{i}")))
        .sum();
    assert_eq!(counted, row.blocked_convey.as_nanos() as u64);
    let out = report.stage("out").unwrap();
    assert_eq!(out.blocked_convey, Duration::ZERO, "{out:?}");
}
