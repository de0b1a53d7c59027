//! The diagnoser's seeded rows that need only fg-core: a real program a
//! row, each with one cause, and the exact set of verdicts it expects.
//! `analyze_bottleneck.rs` runs them one test a row;
//! `crates/sort/tests/diagnose_table.rs` includes this file and runs them
//! in its table with the rows that need a cluster.  Each binary uses part
//! of what is here.
#![allow(dead_code)]

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use fg_core::{
    diagnose, map_stage, Diagnosis, MemoryLedger, MetricsRegistry, PipelineCfg, ProfilerCfg,
    Program, Recommendation, ResourceProfiler, Rounds, StageVerdict, Verdict,
};

pub type Labels = BTreeSet<&'static str>;

/// The verdicts `recommendations` raise, the limiting stage's aside.
pub fn labels<'a>(recommendations: impl IntoIterator<Item = &'a Recommendation>) -> Labels {
    (recommendations.into_iter())
        .map(|r| r.verdict)
        .filter(|&v| v != Verdict::Limiting)
        .map(Verdict::label)
        .collect()
}

/// A row's outcome: the verdicts raised, and the text to show when the row
/// fails.
pub type Outcome = (Labels, String);

pub fn single(d: Diagnosis) -> Outcome {
    (labels(&d.recommendations), d.render())
}

/// Row 1: a slow middle stage in a three-stage pipeline is named limiting;
/// the stage ahead of it waits on the recycle loop and the one behind it
/// starves.
fn slow_middle_stage() -> Outcome {
    let mut prog = Program::new("bottleneck");
    let up = prog.add_stage("up", map_stage(|_, _| Ok(())));
    let slow = prog.add_stage(
        "slow",
        map_stage(|_, _| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(())
        }),
    );
    let down = prog.add_stage("down", map_stage(|_, _| Ok(())));
    // Few buffers, so they pile up ahead of the slow stage while the pool
    // and the downstream queue run dry.
    prog.add_pipeline(
        PipelineCfg::new("p", 3, 64).rounds(Rounds::Count(50)),
        &[up, slow, down],
    )
    .unwrap();
    let d = diagnose(&prog.run().unwrap());
    let text = d.render();
    assert_eq!(d.limiting.as_deref(), Some("slow"), "{text}");
    let stage = |name: &str| d.stages.iter().find(|s| s.name == name).unwrap();
    assert_eq!(stage("slow").verdict, StageVerdict::Busy, "{text}");
    // The first stage waits to accept — parked on its pool, whose buffers
    // the bottleneck has yet to send home — and that wait, upstream of the
    // limiting stage, is backpressure by another name.
    assert!(stage("up").starved_frac > 0.5, "{text}");
    assert_eq!(stage("up").verdict, StageVerdict::Backpressured, "{text}");
    assert_eq!(stage("down").verdict, StageVerdict::Starved, "{text}");
    assert!(text.contains("`slow`") && text.contains("split"), "{text}");
    single(d)
}

/// Row 2: three stages of equal cost and one buffer between them: the
/// pool's queue is empty whenever the buffer is in anyone's hands.
fn one_buffer_pool() -> Outcome {
    let mut prog = Program::new("one-buffer");
    let chain: Vec<_> = ["a", "b", "c"]
        .into_iter()
        .map(|name| {
            prog.add_stage(
                name,
                map_stage(|_, _| {
                    std::thread::sleep(Duration::from_millis(1));
                    Ok(())
                }),
            )
        })
        .collect();
    prog.add_pipeline(PipelineCfg::new("p", 1, 64).count(40), &chain)
        .unwrap();
    single(diagnose(&prog.run().unwrap()))
}

/// Row 3: an ordered farm of three takes rounds 0, 1 and 2 at once and
/// round 0 sleeps, so the other two wait their emission turn in `convey`.
fn held_emission_turn() -> Outcome {
    const HELD: Duration = Duration::from_millis(30);
    let mut prog = Program::new("turn");
    let farm = prog.workers("farm", 3, |_| {
        map_stage(|buf, _| {
            if buf.round() == 0 {
                std::thread::sleep(HELD);
            }
            Ok(())
        })
    });
    // Slow enough to be the limiting stage, which gets different advice.
    let out = prog.add_stage(
        "out",
        map_stage(|_, _| {
            std::thread::sleep(Duration::from_millis(10));
            Ok(())
        }),
    );
    prog.add_pipeline(PipelineCfg::new("p", 3, 64).count(3), &[farm, out])
        .unwrap();
    let report = prog.run().unwrap();
    let row = (report.stage_rollups().into_iter())
        .find(|r| r.name == "farm")
        .unwrap();
    assert_eq!(row.workers, 3);
    assert!(
        row.blocked_convey > 2 * HELD * 3 / 4 && row.blocked_convey < 2 * HELD * 2,
        "two workers waited about {HELD:?} each: {:?}",
        row.blocked_convey
    );
    let d = diagnose(&report);
    let text = d.render();
    assert_eq!(d.limiting.as_deref(), Some("out"), "{text}");
    let farm = d.stages.iter().find(|s| s.name == "farm").unwrap();
    assert_eq!(farm.verdict, StageVerdict::Backpressured, "{text}");
    single(d)
}

/// Row 4: a traced run whose slow stage heads the pipeline, so no buffer
/// waits for it on the pool: its work is most of every round's journey.
fn traced_slow_head() -> Outcome {
    let mut prog = Program::new("traced");
    prog.enable_tracing();
    let slow = prog.add_stage(
        "slow",
        map_stage(|_, _| {
            std::thread::sleep(Duration::from_millis(3));
            Ok(())
        }),
    );
    let fast = prog.add_stage("fast", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("p", 2, 64).count(10), &[slow, fast])
        .unwrap();
    let d = diagnose(&prog.run().unwrap());
    let text = d.render();
    let cp = d
        .critical_path
        .as_ref()
        .expect("the report carries its spans");
    assert_eq!(cp.rounds.len(), 10, "{text}");
    let slowest = cp.slowest_round().unwrap();
    let (stage, _) = slowest.dominant().unwrap();
    let cites = format!(
        "the slowest buffer journey is pipeline#{} round {} ",
        slowest.pipeline, slowest.round
    );
    let path = d
        .recommendations
        .iter()
        .find(|r| r.verdict == Verdict::CriticalPath);
    assert!(
        path.is_some_and(|r| r.text.starts_with("stage `slow` carries ")
            && r.text.contains(&cites)
            && r.text.contains(&format!("of it in stage `{stage}`"))),
        "{text}"
    );
    single(d)
}

/// Row 5: a pool of 4 × 64 KiB under a ledger budget of half that.  The
/// same program under a petabyte budget is not memory-bound.
fn budget_below_the_pool() -> Outcome {
    let run = |budget: u64| {
        let registry = Arc::new(MetricsRegistry::new());
        let ledger = Arc::new(MemoryLedger::with_budget(budget));
        let profiler = ResourceProfiler::start_with(
            Arc::clone(&registry),
            ProfilerCfg {
                interval: Duration::from_millis(5),
            },
            Some(Arc::clone(&ledger)),
        );
        let mut prog = Program::new("budget");
        prog.set_memory_ledger(ledger);
        let s = prog.add_stage("s", map_stage(|_, _| Ok(())));
        prog.add_pipeline(PipelineCfg::new("p", 4, 64 << 10).count(20), &[s])
            .unwrap();
        let mut report = prog.run().unwrap();
        report.resources = Some(profiler.stop());
        diagnose(&report)
    };
    let roomy = run(1 << 50);
    assert!(
        labels(&roomy.recommendations).is_empty(),
        "{}",
        roomy.render()
    );
    single(run(128 << 10))
}

/// A row: its name, the verdicts it expects, and its program.
pub type Row = (&'static str, &'static [&'static str], fn() -> Outcome);

pub const SLOW_MIDDLE_STAGE: Row = ("1 slow middle stage", &[], slow_middle_stage);
pub const ONE_BUFFER_POOL: Row = ("2 one-buffer pool", &[], one_buffer_pool);
pub const HELD_EMISSION_TURN: Row = (
    "3 held emission turn",
    &["emission-turn"],
    held_emission_turn,
);
pub const TRACED_SLOW_HEAD: Row = ("4 traced slow head", &["critical-path"], traced_slow_head);
pub const BUDGET_BELOW_THE_POOL: Row = (
    "5 budget below the pool",
    &["memory-bound"],
    budget_below_the_pool,
);

/// Rows 1–5, in order.
pub const CORE_ROWS: [Row; 5] = [
    SLOW_MIDDLE_STAGE,
    ONE_BUFFER_POOL,
    HELD_EMISSION_TURN,
    TRACED_SLOW_HEAD,
    BUDGET_BELOW_THE_POOL,
];

/// Run `row` and hold it to exactly the verdicts it expects.
pub fn assert_row(&(name, expects, run): &Row) {
    let expects: Labels = expects.iter().copied().collect();
    let (raised, text) = run();
    assert_eq!(raised, expects, "row {name}\n{text}");
}
