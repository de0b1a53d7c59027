//! End-to-end tests of the observability layer on its one span record: the
//! span log's event coverage, the metrics registry, queue-depth reporting,
//! and the JSON / Chrome-trace exports.

use std::sync::Arc;

use fg_core::{
    map_stage, Json, MemoryLedger, MetricsRegistry, PipelineCfg, ProfilerCfg, Program, Report,
    ResourceProfiler, Rounds, TraceKind, TraceSink,
};

const ROUNDS: u64 = 25;

fn two_stage_program() -> Program {
    let mut prog = Program::new("obs");
    let fill = prog.add_stage(
        "fill",
        map_stage(|buf, _ctx| {
            buf.space_mut()[0] = buf.round() as u8;
            buf.set_filled(1);
            Ok(())
        }),
    );
    let check = prog.add_stage(
        "check",
        map_stage(|buf, _ctx| {
            assert_eq!(buf.filled()[0], buf.round() as u8);
            Ok(())
        }),
    );
    let cfg = PipelineCfg::new("p", 3, 64).rounds(Rounds::Count(ROUNDS));
    prog.add_pipeline(cfg, &[fill, check]).unwrap();
    prog
}

/// Records of `kind` that moved a buffer (a caboose pop has no trace id).
fn moved(report: &Report, kind: TraceKind) -> u64 {
    report
        .trace
        .iter()
        .flat_map(|l| &l.spans)
        .filter(|s| s.kind == kind && s.trace_id != 0)
        .count() as u64
}

#[test]
fn the_span_log_sees_every_event() {
    let mut prog = two_stage_program();
    prog.enable_tracing();
    let report = prog.run().unwrap();

    // One log per thread the program spawned — its two stages — and
    // neither wrapped.
    assert_eq!(report.trace.len(), 2);
    assert!(report.trace.iter().all(|l| l.dropped() == 0));
    // Each of the two stages accepts and conveys every round's buffer;
    // `check`'s convey is what returns it to the pool, so nothing is left
    // for a recycle span to say.
    assert_eq!(moved(&report, TraceKind::Convey), 2 * ROUNDS);
    assert_eq!(moved(&report, TraceKind::Accept), 2 * ROUNDS);
    assert_eq!(moved(&report, TraceKind::Recycle), 0);
    // Every journey got its own trace id, and starts at `fill`'s accept:
    // the one start-of-round span a round has.
    let ids: std::collections::BTreeSet<u64> = report.trace[0]
        .spans
        .iter()
        .filter(|s| s.kind == TraceKind::Accept && s.trace_id != 0)
        .map(|s| s.trace_id)
        .collect();
    assert_eq!(report.trace[0].task(), "fill");
    assert_eq!(ids.len() as u64, ROUNDS);

    // The log agrees with the report's own accounting.
    assert_eq!(report.stage("fill").unwrap().buffers_in, ROUNDS);
    assert_eq!(report.stage("check").unwrap().buffers_out, ROUNDS);
}

#[test]
fn metrics_registry_collects_core_metrics_and_queue_depths() {
    let registry = Arc::new(MetricsRegistry::new());
    let mut prog = two_stage_program();
    prog.set_metrics(Arc::clone(&registry));
    let report = prog.run().unwrap();

    for stage in ["fill", "check"] {
        let counter = |prefix: &str| report.metrics.counter(&format!("core/{prefix}/{stage}"));
        assert_eq!(counter("stage_rounds"), Some(ROUNDS));
        assert_eq!(counter("stage_buffers"), Some(ROUNDS));
        assert!(counter("stage_busy_ns").is_some());
    }

    // Every wired queue reports depth statistics and a live gauge.
    assert!(!report.queues.is_empty());
    for q in &report.queues {
        assert!(q.max_depth <= q.capacity, "{q:?}");
        assert!(q.max_depth > 0, "every queue carried traffic: {q:?}");
        let gauge = report
            .metrics
            .gauge(&format!("core/queue_depth/{}", q.name))
            .unwrap_or_else(|| panic!("no gauge for queue {:?}", q.name));
        assert_eq!(gauge.peak as usize, q.max_depth);
    }

    // The dashboard renders every section for this run.
    let dash = report.render_dashboard();
    assert!(dash.contains("== queues =="));
    assert!(dash.contains("== metrics: core =="));
    assert!(dash.contains("core/stage_rounds/fill = 25"));
}

/// Whether `name` is `pattern` with each `<…>` placeholder read as one or
/// more characters (a task, queue, thread, tag or rank).
fn fills(pattern: &str, name: &str) -> bool {
    let Some((literal, rest)) = pattern.split_once('<') else {
        return pattern == name;
    };
    let Some(name) = name.strip_prefix(literal) else {
        return false;
    };
    let rest = rest.split_once('>').map_or("", |(_, r)| r);
    (1..=name.len()).any(|i| name.is_char_boundary(i) && fills(rest, &name[i..]))
}

/// METRICS.md's name catalogue cannot drift from the code: a program run
/// with every recorder attached — a registry, a ledger, tracing and a
/// resource profiler — emits only names the catalogue lists.
#[test]
fn metrics_md_catalogues_every_name_a_run_emits() {
    let catalogue: Vec<&str> = include_str!("../../../METRICS.md")
        .split("\n## Name catalogue\n")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("a `Name catalogue` section")
        .lines()
        .filter_map(|l| Some(l.strip_prefix("| `")?.split_once('`')?.0))
        .collect();
    let registry = Arc::new(MetricsRegistry::new());
    let ledger = Arc::new(MemoryLedger::with_budget(1 << 20));
    let profiler = ResourceProfiler::start_with(
        Arc::clone(&registry),
        ProfilerCfg::default(),
        Some(Arc::clone(&ledger)),
    );
    let mut prog = Program::new("catalogue");
    prog.set_metrics(Arc::clone(&registry));
    prog.set_memory_ledger(ledger);
    prog.enable_tracing();
    let fill = prog.add_stage("fill", map_stage(|_, _| Ok(())));
    let work = prog.workers("work", 2, |_| map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("p", 3, 64).count(ROUNDS), &[fill, work])
        .unwrap();
    prog.run().unwrap();
    profiler.stop();

    let snap = registry.snapshot();
    let names = (snap.counters.iter().map(|(n, _)| n))
        .chain(snap.gauges.iter().map(|(n, _)| n))
        .chain(snap.histograms.iter().map(|(n, _)| n));
    let missing: Vec<&String> = names
        .filter(|n| !catalogue.iter().any(|p| fills(p, n)))
        .collect();
    assert!(missing.is_empty(), "not in METRICS.md: {missing:?}");
    assert!(snap.counter("core/stage_rounds/work#1").is_some());
}

#[test]
fn uninstrumented_run_reports_empty_metrics() {
    let report = two_stage_program().run().unwrap();
    assert!(report.metrics.is_empty());
    assert!(report.trace.is_empty());
    // Queue high-water marks are tracked unconditionally (they live inside
    // the queue's existing lock), so they appear even without a registry.
    assert!(!report.queues.is_empty());
}

#[test]
fn chrome_trace_has_a_track_per_thread_and_a_flow_per_round() {
    let mut prog = two_stage_program();
    prog.enable_tracing();
    let report = prog.run().unwrap();

    let trace = report.to_chrome_trace();
    let json = Json::parse(&trace).expect("chrome trace parses as JSON");
    let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
    let phase = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_owned();

    // One thread-name metadata event per stage thread, in the report's
    // order, each with a tid of its own.
    let tracks: Vec<&Json> = events.iter().filter(|e| phase(e) == "M").collect();
    let names: Vec<&str> = tracks
        .iter()
        .map(|e| {
            e.get("args")
                .unwrap()
                .get("name")
                .unwrap()
                .as_str()
                .unwrap()
        })
        .collect();
    assert_eq!(names, ["obs/fill", "obs/check"]);
    let tid = |e: &Json| e.get("tid").and_then(Json::as_u64).unwrap();
    let tids: std::collections::BTreeSet<u64> = tracks.iter().map(|e| tid(e)).collect();
    assert_eq!(tids.len(), tracks.len(), "tids must be distinct");

    // One slice per span, on a known track.
    let slices: Vec<&Json> = events.iter().filter(|e| phase(e) == "X").collect();
    let spans: usize = report.trace.iter().map(|l| l.spans.len()).sum();
    assert_eq!(slices.len(), spans);
    for e in &slices {
        assert!(tids.contains(&tid(e)));
        assert!(e.get("dur").and_then(Json::as_f64).unwrap() > 0.0);
    }
    // Each round's journey is stitched by one flow, and the flow starts
    // where the round does: on the first stage's track.
    let flow_starts: Vec<&Json> = events.iter().filter(|e| phase(e) == "s").collect();
    assert_eq!(flow_starts.len() as u64, ROUNDS);
    assert!(flow_starts.iter().all(|e| tid(e) == tid(tracks[0])));
    // The sink's own export is the same document when it holds one program.
    let sink = TraceSink::new();
    let mut prog = two_stage_program();
    prog.set_trace_sink(Arc::clone(&sink));
    prog.enable_tracing();
    let report = prog.run().unwrap();
    assert_eq!(report.to_chrome_trace(), sink.to_chrome_trace());
}

#[test]
fn a_stage_error_leaves_a_consistent_log() {
    let sink = TraceSink::new();
    let mut prog = Program::new("err");
    let boom = prog.add_stage(
        "boom",
        map_stage(|buf, _ctx| {
            if buf.round() == 3 {
                Err(fg_core::FgError::Stage {
                    stage: "boom".into(),
                    message: "synthetic".into(),
                })
            } else {
                Ok(())
            }
        }),
    );
    let cfg = PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(100));
    prog.add_pipeline(cfg, &[boom]).unwrap();
    prog.set_trace_sink(Arc::clone(&sink));
    assert!(prog.run().is_err());

    // No report on the error path, but the shared sink kept every thread's
    // log, and the failing stage's is exact up to the buffer it died on.
    let logs = sink.collect();
    let threads: Vec<&str> = logs.iter().map(|l| l.thread.as_str()).collect();
    assert_eq!(threads, ["err/boom"]);
    let count = |kind| {
        logs[0]
            .spans
            .iter()
            .filter(|s| s.kind == kind && s.trace_id != 0)
            .count()
    };
    assert_eq!(count(TraceKind::Accept), 4, "rounds 0..=3 arrived");
    assert_eq!(count(TraceKind::Convey), 3, "round 3 never left");
    for log in &logs {
        for pair in log.spans.windows(2) {
            assert!(pair[0].start_ns <= pair[0].end_ns);
            assert!(
                pair[0].end_ns <= pair[1].end_ns,
                "{}: records out of order: {pair:?}",
                log.thread
            );
        }
    }
}
