//! One timing, several readers: the flight-recorder ring is the run's one
//! span log, written from the same instants that feed `StageStats` and
//! the live `core/stage_*` counters, so the readers must agree exactly.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fg_core::{
    map_stage, MetricsRegistry, PipelineCfg, Program, Report, Rounds, StageStats, ThreadLog,
    TraceKind, TraceSink,
};

const ROUNDS: u64 = 20;

/// `slow` sleeps 2 ms a round, so `fast` behind it mostly starves.
fn slow_fast(name: &str) -> Program {
    let mut prog = Program::new(name);
    let slow = prog.add_stage(
        "slow",
        map_stage(|_, _| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(())
        }),
    );
    let fast = prog.add_stage("fast", map_stage(|_, _| Ok(())));
    prog.add_pipeline(
        PipelineCfg::new("p", 2, 16).rounds(Rounds::Count(ROUNDS)),
        &[slow, fast],
    )
    .unwrap();
    prog
}

fn log_of<'a>(report: &'a Report, task: &str) -> &'a ThreadLog {
    report
        .trace
        .iter()
        .find(|l| l.task() == task)
        .unwrap_or_else(|| panic!("no span log for `{task}`"))
}

/// Total length of the waits of the given kinds: one record a wait.
fn waited_ns(log: &ThreadLog, kinds: &[TraceKind]) -> u64 {
    log.spans
        .iter()
        .filter(|s| kinds.contains(&s.kind))
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Every reader of a stage thread's timings agrees with its span log.
fn assert_log_matches_stats(report: &Report, s: &StageStats) {
    let log = log_of(report, &s.name);
    assert_eq!(log.dropped(), 0, "`{}` wrapped its ring", s.name);
    assert_eq!(
        waited_ns(log, &[TraceKind::Accept]),
        s.blocked_accept.as_nanos() as u64,
        "`{}`: accept spans vs blocked_accept",
        s.name
    );
    assert_eq!(
        waited_ns(log, &[TraceKind::Convey, TraceKind::TurnWait]),
        s.blocked_convey.as_nanos() as u64,
        "`{}`: convey + turn-wait spans vs blocked_convey",
        s.name
    );
    // A record with a trace id moved a buffer (a caboose pop carries none).
    let moved = |kind| {
        log.spans
            .iter()
            .filter(|r| r.kind == kind && r.trace_id != 0)
            .count() as u64
    };
    assert_eq!(moved(TraceKind::Accept), s.buffers_in, "`{}` in", s.name);
    assert_eq!(moved(TraceKind::Convey), s.buffers_out, "`{}` out", s.name);
    assert_eq!(
        s.busy() + s.blocked_accept + s.blocked_convey,
        s.wall,
        "`{}`: the parts must tile the wall",
        s.name
    );
    let wall_end = report.trace_start_ns + report.wall.as_nanos() as u64;
    for span in &log.spans {
        assert!(span.start_ns <= span.end_ns);
        assert!(span.start_ns >= report.trace_start_ns && span.end_ns <= wall_end);
    }
}

#[test]
fn span_log_stats_and_live_counters_share_one_timing() {
    let registry = Arc::new(MetricsRegistry::new());
    let mut prog = slow_fast("traced");
    prog.enable_tracing();
    prog.set_metrics(Arc::clone(&registry));
    let report = prog.run().unwrap();

    for name in ["slow", "fast"] {
        let s = report.stage(name).unwrap();
        assert_eq!((s.buffers_in, s.buffers_out), (ROUNDS, ROUNDS));
        assert_log_matches_stats(&report, s);
        // The live counters converge on the same totals, to the nanosecond.
        let counter = |prefix: &str| report.metrics.counter(&format!("core/{prefix}/{name}"));
        assert_eq!(
            counter("stage_blocked_accept_ns"),
            Some(s.blocked_accept.as_nanos() as u64)
        );
        assert_eq!(
            counter("stage_blocked_convey_ns"),
            Some(s.blocked_convey.as_nanos() as u64)
        );
        assert_eq!(counter("stage_busy_ns"), Some(s.busy().as_nanos() as u64));
        assert_eq!(counter("stage_rounds"), Some(ROUNDS));
    }
    // The fast stage is starved: its accept waits dominate the run.
    let fast = report.stage("fast").unwrap();
    assert!(
        fast.blocked_accept > report.wall / 2,
        "fast should spend most of {:?} starved, was {:?}",
        report.wall,
        fast.blocked_accept
    );
    // The two stage threads are all there is: `slow`, the first stage,
    // starts each round as it takes the buffer from the pool, so its
    // accepts carry the rounds' trace ids, one apiece.
    assert_eq!(report.trace.len(), report.stages.len());
    assert_eq!(report.stages.len(), 2);
    let ids: BTreeSet<u64> = log_of(&report, "slow")
        .spans
        .iter()
        .filter(|s| s.kind == TraceKind::Accept && s.trace_id != 0)
        .map(|s| s.trace_id)
        .collect();
    assert_eq!(ids.len() as u64, ROUNDS);

    // The Gantt chart reads the same log: `fast` is drawn mostly starved,
    // and no row is approximate.
    let gantt = report.render_gantt(40);
    let fast_row = gantt.lines().find(|l| l.starts_with("fast")).unwrap();
    let dots = fast_row.matches('.').count();
    assert!(dots > 20, "fast row should be mostly starved: {fast_row}");
    assert!(!gantt.contains(" ~"), "{gantt}");
    assert!(!gantt.contains('?'), "{gantt}");
}

#[test]
fn ordered_farm_turn_waits_are_part_of_blocked_convey() {
    let mut prog = Program::new("farm");
    prog.enable_tracing();
    let work = prog.workers("work", 2, |i| {
        map_stage(move |buf, _| {
            // Odd rounds finish first and must wait for their turn.
            if (buf.round() + i as u64).is_multiple_of(2) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        })
    });
    let out = prog.add_stage("out", map_stage(|_, _| Ok(())));
    prog.add_pipeline(
        PipelineCfg::new("p", 4, 16).rounds(Rounds::Count(ROUNDS)),
        &[work, out],
    )
    .unwrap();
    let report = prog.run().unwrap();
    let mut turn_waits = 0;
    for s in report.stages.iter().filter(|s| s.name.starts_with("work#")) {
        assert_log_matches_stats(&report, s);
        turn_waits += log_of(&report, &s.name)
            .spans
            .iter()
            .filter(|r| r.kind == TraceKind::TurnWait)
            .count() as u64;
    }
    assert_eq!(turn_waits, ROUNDS, "one turnstile pass per round");
}

/// A one-stage program whose stage notes the largest trace id it saw: a
/// round starts under a non-zero id exactly when a trace sink exists.
fn id_probe(name: &str) -> (Program, Arc<AtomicU64>) {
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    let mut prog = Program::new(name);
    let s = prog.add_stage(
        "s",
        map_stage(move |buf, _| {
            seen2.fetch_max(buf.trace_id(), Ordering::Relaxed);
            Ok(())
        }),
    );
    prog.add_pipeline(PipelineCfg::new("p", 2, 16).rounds(Rounds::Count(5)), &[s])
        .unwrap();
    (prog, seen)
}

#[test]
fn a_sink_exists_only_for_a_reader_and_the_log_is_reported_only_on_request() {
    let (prog, seen) = id_probe("untraced");
    let report = prog.run().unwrap();
    assert!(report.trace.is_empty());
    assert_eq!(report.trace_start_ns, 0);
    assert_eq!(seen.load(Ordering::Relaxed), 0, "no sink, so no trace ids");
    // The watchdog reads the stage threads' counter blocks and makes no
    // sink: no trace ids, no log, and every Gantt row is the proportional
    // fallback.
    let (mut prog, seen) = id_probe("watched");
    prog.with_watchdog(Duration::from_secs(60));
    let report = prog.run().unwrap();
    assert!(report.trace.is_empty());
    assert_eq!(seen.load(Ordering::Relaxed), 0, "a watchdog makes no sink");
    let gantt = report.render_gantt(30);
    assert!(gantt.lines().skip(1).all(|l| l.contains(" ~")), "{gantt}");
    // `enable_tracing()` alone: a private sink, and its rings in the report.
    let (mut prog, seen) = id_probe("solo");
    prog.enable_tracing();
    let report = prog.run().unwrap();
    assert_eq!(seen.load(Ordering::Relaxed), 5, "ids 1..=5 were stamped");
    let threads: Vec<&str> = report.trace.iter().map(|l| l.thread.as_str()).collect();
    assert_eq!(threads, ["solo/s"]);
    assert!(report.trace.iter().all(|l| !l.spans.is_empty()));
}

#[test]
fn programs_sharing_a_sink_report_only_their_own_threads() {
    let sink = TraceSink::new();
    let reports: Vec<Report> = ["left", "right"]
        .into_iter()
        .map(|name| {
            let mut prog = slow_fast(name);
            prog.set_trace_sink(Arc::clone(&sink));
            prog.enable_tracing();
            prog
        })
        .map(|prog| std::thread::spawn(move || prog.run().unwrap()))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    for (report, name) in reports.iter().zip(["left", "right"]) {
        assert_eq!(report.trace.len(), report.stages.len());
        for (log, stage) in report.trace.iter().zip(&report.stages) {
            assert_eq!(log.thread, format!("{name}/{}", stage.name));
        }
        assert_log_matches_stats(report, report.stage("fast").unwrap());
    }
    assert_eq!(sink.collect().len(), 2 * reports[0].stages.len());
}

#[test]
fn a_tiny_ring_keeps_the_newest_spans_and_the_gantt_says_so() {
    let mut prog = slow_fast("tiny");
    prog.set_trace_sink(TraceSink::with_ring_capacity(8));
    prog.enable_tracing();
    let report = prog.run().unwrap();
    let log = log_of(&report, "fast");
    assert_eq!(log.spans.len(), 8);
    // fast: an accept, a convey and (clock permitting) a work span per
    // round, plus the caboose.
    assert!(log.recorded > 2 * ROUNDS, "recorded {}", log.recorded);
    assert_eq!(log.dropped(), log.recorded - 8);
    assert_eq!(log.spans.last().unwrap().kind, TraceKind::Accept);
    let dropped: u64 = report.trace.iter().map(ThreadLog::dropped).sum();
    let gantt = report.render_gantt(40);
    assert!(
        gantt.contains(&format!("{dropped} oldest spans dropped")),
        "{gantt}"
    );
    let fast_row = gantt.lines().find(|l| l.starts_with("fast")).unwrap();
    assert!(
        fast_row.matches('?').count() > 20,
        "8 spans cover the last rounds only: {fast_row}"
    );
    assert!(!fast_row.contains('~'));
}
