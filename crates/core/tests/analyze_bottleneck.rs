//! End-to-end bottleneck analysis: inject a deliberately slow middle
//! stage into a three-stage pipeline and check that `diagnose` names it
//! as limiting, attributes backpressure upstream and starvation
//! downstream, and recommends splitting or replicating it; run a pipeline
//! on a one-buffer pool and check that the pool is what it blames; and hold
//! an ordered farm's first round back and check that the time its other
//! workers spend in `convey` is blamed on the emission turn, not on a queue.
//! A traced run's diagnosis cites its rounds, a run over its memory budget is
//! memory-bound, and METRICS.md's threshold table is the code's.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use fg_core::{
    diagnose, map_stage, Diagnosis, MemoryLedger, MetricsRegistry, PipelineCfg, ProfilerCfg,
    Program, ResourceFindingKind, ResourceProfiler, Rounds, Sampler, SamplerCfg, StageVerdict,
};

/// A 1 ms sampler over `registry`.
fn watch(registry: &Arc<MetricsRegistry>) -> Sampler {
    Sampler::start(
        Arc::clone(registry),
        SamplerCfg {
            interval: Duration::from_millis(1),
            capacity: 4096,
        },
    )
}

#[test]
fn injected_slow_middle_stage_is_diagnosed() {
    let registry = Arc::new(MetricsRegistry::new());
    let mut prog = Program::new("bottleneck");
    prog.set_metrics(Arc::clone(&registry));
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

    let sampler = watch(&registry);
    let report = prog.run().unwrap();
    let series = sampler.stop();
    assert!(
        series.len() >= 10,
        "a ~100ms run at 1ms cadence should collect many samples, got {}",
        series.len()
    );

    let d = diagnose(&report, &series);
    assert_eq!(
        d.limiting.as_deref(),
        Some("slow"),
        "diagnosis:\n{}",
        d.render()
    );

    let stage = |name: &str| {
        d.stages
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no diagnosis for stage {name}"))
    };
    assert_eq!(stage("slow").verdict, StageVerdict::Busy);
    // The first stage spends its time waiting to accept — parked on its
    // pool, whose buffers the bottleneck has yet to send home — and that
    // wait, upstream of the limiting stage, is backpressure by another name.
    let up = stage("up");
    assert!(up.starved_frac > 0.5, "diagnosis:\n{}", d.render());
    assert_eq!(up.verdict, StageVerdict::Backpressured);
    assert!(
        d.recommendations
            .iter()
            .any(|r| r.contains("`up` is upstream of the limiting stage")),
        "diagnosis:\n{}",
        d.render()
    );
    // The stage downstream of the bottleneck waits on accepts.
    assert_eq!(stage("down").verdict, StageVerdict::Starved);

    let recs = d.recommendations.join("\n");
    assert!(
        recs.contains("slow") && (recs.contains("split") || recs.contains("replicate")),
        "expected split/replicate advice for `slow`:\n{recs}"
    );
    // The rendered report names the limiting stage for human readers.
    assert!(d.render().contains("limiting stage: `slow`"));
}

#[test]
fn a_one_buffer_pool_is_diagnosed_as_under_provisioned() {
    // Three stages of equal cost and one buffer between them: two of the
    // three are always idle, and the pool's queue is empty whenever the
    // buffer is in anyone's hands.
    let registry = Arc::new(MetricsRegistry::new());
    let mut prog = Program::new("one-buffer");
    prog.set_metrics(Arc::clone(&registry));
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

    let sampler = watch(&registry);
    let report = prog.run().unwrap();
    let series = sampler.stop();
    let d = diagnose(&report, &series);

    let pool = d
        .queue_findings
        .iter()
        .find(|q| q.name == "recycle/p")
        .unwrap_or_else(|| panic!("no finding for the pool:\n{}", d.render()));
    // The verdict's own bar: a sampler that races the three hand-offs can
    // read the queue empty in only about three samples of four.
    assert!(pool.empty_frac > fg_core::analyze::PINNED_FRAC, "{pool:?}");
    assert!(
        d.recommendations
            .iter()
            .any(|r| r.contains("`recycle/p`") && r.contains("under-provisioned")),
        "diagnosis:\n{}",
        d.render()
    );
}

#[test]
fn a_farm_waiting_its_emission_turn_is_diagnosed_as_that() {
    // Three workers take rounds 0, 1 and 2 at once; round 0 sleeps 30 ms,
    // so the other two sit in `convey` waiting their turn for about that
    // long each.  `out` is slow enough to be the limiting stage (the
    // analyzer gives that one different advice).
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

    let row = report
        .stage_rollups()
        .into_iter()
        .find(|r| r.name == "farm")
        .unwrap();
    assert_eq!(row.workers, 3);
    assert!(
        row.blocked_convey > 2 * HELD * 3 / 4 && row.blocked_convey < 2 * HELD * 2,
        "two workers waited about {HELD:?} each: {:?}",
        row.blocked_convey
    );
    let d = diagnose(&report, &[]);
    assert_eq!(d.limiting.as_deref(), Some("out"), "{}", d.render());
    let farm = d.stages.iter().find(|s| s.name == "farm").unwrap();
    assert_eq!(farm.verdict, StageVerdict::Backpressured, "{}", d.render());
    assert!(farm.backpressured_frac > 0.5, "{}", d.render());
    let advice: Vec<_> = d
        .recommendations
        .iter()
        .filter(|r| r.contains("`farm`"))
        .collect();
    assert!(
        matches!(advice[..], [r] if r.contains("emission turn") && !r.contains("queue")),
        "the advice names the turn and no queue:\n{}",
        d.render()
    );
    assert!(d.queue_findings.is_empty() && d.contention.is_empty());
}

#[test]
fn a_traced_run_cites_its_slowest_round_and_the_stage_that_owns_the_path() {
    // The slow stage heads the pipeline, so no buffer waits for it on the
    // pool: its work is most of every round's journey.
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
    let d = diagnose(&prog.run().unwrap(), &[]);

    let cp = d
        .critical_path
        .as_ref()
        .expect("the report carries its span log");
    assert_eq!(cp.rounds.len(), 10, "{}", d.render());
    let slowest = cp.slowest_round().unwrap();
    let (stage, _) = slowest.dominant().unwrap();
    let cites = format!(
        "the slowest buffer journey is pipeline#{} round {} ",
        slowest.pipeline, slowest.round
    );
    let in_stage = format!("of it in stage `{stage}`");
    assert!(
        d.recommendations
            .iter()
            .any(|r| r.contains(&cites) && r.contains(&in_stage)),
        "{}",
        d.render()
    );
    let owned: Option<f64> = d.recommendations.iter().find_map(|r| {
        let pct = r.strip_prefix("stage `slow` carries ")?.split_once('%')?.0;
        pct.parse().ok()
    });
    assert!(owned.is_some_and(|pct| pct > 50.0), "{}", d.render());
}

#[test]
fn a_run_over_its_memory_budget_is_diagnosed_memory_bound() {
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
        diagnose(&report, &[])
    };
    let memory_bound = |d: &Diagnosis| -> Vec<String> {
        let bound = d.resources.iter();
        let bound = bound.filter(|f| f.kind == ResourceFindingKind::MemoryBound);
        bound.map(|f| f.subject.clone()).collect()
    };
    // The pool alone is 4 × 64 KiB, twice the budget.
    let d = run(128 << 10);
    assert_eq!(memory_bound(&d), ["process"], "{}", d.render());
    // A petabyte is far above anything this process holds.
    let d = run(1 << 50);
    assert!(memory_bound(&d).is_empty(), "{}", d.render());
}

/// METRICS.md's threshold table lists exactly the numeric constants of
/// `analyze.rs`, by name and value, so the documented bars cannot drift
/// from the ones the verdicts use.
#[test]
fn metrics_md_lists_exactly_the_verdict_thresholds() {
    let value = |v: &str| -> f64 { v.replace('_', "").parse().expect("a number") };
    let documented: BTreeMap<&str, f64> = include_str!("../../../METRICS.md")
        .split("\n## Verdict thresholds\n")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("a `Verdict thresholds` section")
        .lines()
        .filter_map(|l| {
            let mut cells = l.strip_prefix("| `")?.split(" | ");
            Some((cells.next()?.strip_suffix('`')?, value(cells.next()?)))
        })
        .collect();
    let declared: BTreeMap<&str, f64> = include_str!("../src/analyze.rs")
        .lines()
        .filter_map(|l| {
            let (name, rest) = l.split_once("const ")?.1.split_once(": ")?;
            let (ty, v) = rest.split_once(" = ")?;
            (ty != "&str").then(|| (name, value(v.trim_end_matches(';'))))
        })
        .collect();
    assert_eq!(documented, declared);
}
