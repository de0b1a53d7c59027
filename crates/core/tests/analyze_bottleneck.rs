//! End-to-end bottleneck analysis: inject a deliberately slow middle
//! stage into a three-stage pipeline and check that `diagnose` names it
//! as limiting, attributes backpressure upstream and starvation
//! downstream, and recommends splitting or replicating it; run a pipeline
//! on a one-buffer pool and check that the pool is what it blames; and hold
//! an ordered farm's first round back and check that the time its other
//! workers spend in `convey` is blamed on the emission turn, not on a queue.

use std::sync::Arc;
use std::time::Duration;

use fg_core::{
    diagnose, map_stage, MetricsRegistry, PipelineCfg, Program, Rounds, Sampler, SamplerCfg,
    StageVerdict,
};

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

    let sampler = Sampler::start(
        Arc::clone(&registry),
        SamplerCfg {
            interval: Duration::from_millis(1),
            capacity: 4096,
        },
    );
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

    let sampler = Sampler::start(
        Arc::clone(&registry),
        SamplerCfg {
            interval: Duration::from_millis(1),
            capacity: 4096,
        },
    );
    let report = prog.run().unwrap();
    let d = diagnose(&report, &sampler.stop());

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

    let (row, workers) = report.stage_rollup("farm").unwrap();
    assert_eq!(workers, 3);
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
