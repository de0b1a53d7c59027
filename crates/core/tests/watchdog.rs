//! Tests for the stall watchdog, the flight-recorder ring, and the causal
//! trace pipeline: wedged programs are caught and blamed, healthy-but-slow
//! programs are left alone, and a traced run yields a reconstructible
//! critical path plus a Perfetto-loadable Chrome trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use fg_core::{
    critical_path, map_stage, Buffer, FgError, Json, PipelineCfg, Program, Result, Rounds, Stage,
    StageCtx, ThreadState, TraceKind, TraceSink, WatchdogCfg,
};

/// Accepts buffers and never lets go — wedges any bounded-pool pipeline.
struct Hoarder {
    stash: Vec<Buffer>,
}

impl Stage for Hoarder {
    fn run(&mut self, ctx: &mut StageCtx) -> Result<()> {
        while let Some(buf) = ctx.accept()? {
            self.stash.push(buf);
        }
        Ok(())
    }
}

fn temp_artifact(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fg-watchdog-{tag}-{}.json", std::process::id()))
}

#[test]
fn watchdog_fires_on_wedged_pipeline_and_names_culprit() {
    let artifact = temp_artifact("wedged");
    let mut prog = Program::new("wedge");
    let hoard = prog.add_stage("hoard", Box::new(Hoarder { stash: Vec::new() }));
    let drain = prog.add_stage("drain", map_stage(|_, _| Ok(())));
    prog.add_pipeline(
        PipelineCfg::new("p", 2, 64).rounds(Rounds::Count(1000)),
        &[hoard, drain],
    )
    .unwrap();
    prog.set_watchdog(
        WatchdogCfg::new(Duration::from_millis(300)).artifact(artifact.to_str().unwrap()),
    );

    match prog.run() {
        Err(FgError::Stalled { culprit }) => {
            assert!(
                culprit.contains("hoard"),
                "culprit should be the hoarding stage, got `{culprit}`"
            );
        }
        other => panic!("expected FgError::Stalled, got {other:?}"),
    }

    // The post-mortem artifact is valid JSON naming the same culprit and
    // carrying per-thread diagnostics.
    let text = std::fs::read_to_string(&artifact).expect("post-mortem artifact written");
    let _ = std::fs::remove_file(&artifact);
    let pm = Json::parse(&text).expect("post-mortem parses as JSON");
    assert_eq!(pm.get("program").and_then(Json::as_str), Some("wedge"));
    assert!(pm
        .get("culprit")
        .and_then(Json::as_str)
        .is_some_and(|c| c.contains("hoard")));
    let threads = pm.get("threads").and_then(Json::as_arr).unwrap();
    assert!(!threads.is_empty(), "post-mortem must list threads");
    for t in threads {
        assert!(t.get("thread").and_then(Json::as_str).is_some());
        assert!(t.get("state").and_then(Json::as_str).is_some());
        assert!(t.get("last_spans").and_then(Json::as_arr).is_some());
    }
}

#[test]
fn a_wedged_middle_stage_is_the_culprit_not_the_first_stage_parked_on_its_pool() {
    // `wedge` takes a buffer and sits on it until the program is torn down.
    // `first` runs the pool dry and parks on it — the longest wait on
    // record, and a symptom: the post-mortem must name `wedge`.
    let mut prog = Program::new("wedged-mid");
    let first = prog.add_stage("first", map_stage(|_, _| Ok(())));
    let wedge = prog.add_stage(
        "wedge",
        Box::new(|ctx: &mut StageCtx| {
            let _held = ctx.accept()?.expect("a first buffer");
            while !ctx.is_cancelled() {
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(())
        }),
    );
    let last = prog.add_stage("last", map_stage(|_, _| Ok(())));
    prog.add_pipeline(
        PipelineCfg::new("p", 2, 16).count(100),
        &[first, wedge, last],
    )
    .unwrap();
    let artifact = temp_artifact("wedged-mid");
    prog.set_watchdog(
        WatchdogCfg::new(Duration::from_secs(1)).artifact(artifact.to_str().unwrap()),
    );
    match prog.run() {
        Err(FgError::Stalled { culprit }) => assert_eq!(culprit, "wedged-mid/wedge"),
        other => panic!("expected FgError::Stalled, got {other:?}"),
    }
    // The post-mortem's queue depths: `wedge` holds one buffer and the other
    // waits in its input, so the pool is dry and `last` has nothing.
    let text = std::fs::read_to_string(&artifact).expect("post-mortem artifact written");
    let _ = std::fs::remove_file(&artifact);
    let pm = Json::parse(&text).expect("post-mortem parses as JSON");
    let depths: Vec<(&str, u64)> = pm
        .get("queues")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|q| {
            let name = q.get("queue").and_then(Json::as_str).unwrap();
            (name, q.get("depth").and_then(Json::as_u64).unwrap())
        })
        .collect();
    assert_eq!(depths, [("recycle/p", 0), ("p[1]", 1), ("p[2]", 0)]);
}

#[test]
fn watchdog_spares_a_slow_but_progressing_pipeline() {
    // Each round takes ~20 ms, far longer than a "fast" pipeline but far
    // shorter than the 500 ms watchdog window: spans keep arriving, the
    // activity clock keeps advancing, and the watchdog must stay quiet.
    let done = Arc::new(AtomicU64::new(0));
    let done2 = Arc::clone(&done);
    let mut prog = Program::new("slowpoke");
    let crawl = prog.add_stage(
        "crawl",
        map_stage(move |_, _| {
            std::thread::sleep(Duration::from_millis(20));
            done2.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 2, 16).rounds(Rounds::Count(10)),
        &[crawl],
    )
    .unwrap();
    prog.with_watchdog(Duration::from_millis(500));
    prog.run()
        .expect("progressing pipeline must not be aborted");
    assert_eq!(done.load(Ordering::Relaxed), 10);
}

#[test]
fn traced_run_reconstructs_critical_path() {
    let sink = TraceSink::new();
    let mut prog = Program::new("traced");
    prog.set_trace_sink(Arc::clone(&sink));
    let slow = prog.add_stage(
        "slow",
        map_stage(|_, _| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(())
        }),
    );
    let fast = prog.add_stage("fast", map_stage(|_, _| Ok(())));
    prog.add_pipeline(
        PipelineCfg::new("p", 2, 16).rounds(Rounds::Count(8)),
        &[slow, fast],
    )
    .unwrap();
    prog.run().unwrap();

    let logs = sink.collect();
    assert!(
        logs.iter().any(|l| !l.spans.is_empty()),
        "a traced run must record spans"
    );
    let cp = critical_path(&logs);
    assert_eq!(cp.rounds.len(), 8, "one traced journey per round");
    assert!(cp.total_ns > 0);
    for round in &cp.rounds {
        assert!(!round.segments.is_empty());
        assert!(round.end_ns >= round.start_ns);
    }
    // The sleeping stage dominates everyone's wall clock.
    let slow_work = cp.kind_total("slow", TraceKind::Work);
    assert!(
        slow_work >= 8 * 2_000_000,
        "slow stage work must cover its sleeps: {slow_work}ns"
    );
    let dominant = cp.dominant_stage().expect("non-empty path has a dominant");
    assert_eq!(dominant, "slow");
}

#[test]
fn chrome_trace_parses_and_carries_flow_events() {
    let sink = TraceSink::new();
    let mut prog = Program::new("chrome");
    prog.set_trace_sink(Arc::clone(&sink));
    let a = prog.add_stage("a", map_stage(|_, _| Ok(())));
    let b = prog.add_stage("b", map_stage(|_, _| Ok(())));
    prog.add_pipeline(
        PipelineCfg::new("p", 3, 16).rounds(Rounds::Count(6)),
        &[a, b],
    )
    .unwrap();
    prog.run().unwrap();

    let trace = Json::parse(&sink.to_chrome_trace()).expect("chrome trace is valid JSON");
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let phase = |e: &Json| e.get("ph").and_then(Json::as_str).map(str::to_owned);
    let slices = events
        .iter()
        .filter(|e| phase(e).as_deref() == Some("X"))
        .count();
    assert!(slices > 0, "trace must contain duration slices");

    // Every traced round (6 of them) threads a flow through >= 2 spans, so
    // each gets a start and a binding finish.
    // Flow ids are hex strings (numeric ids above 2^53 would alias as f64).
    let flow_ids = |ph: &str| {
        events
            .iter()
            .filter(|e| phase(e).as_deref() == Some(ph))
            .filter_map(|e| e.get("id").and_then(Json::as_str))
            .map(|s| u64::from_str_radix(s, 16).expect("hex flow id"))
            .collect::<std::collections::BTreeSet<u64>>()
    };
    let starts = flow_ids("s");
    let finishes = flow_ids("f");
    assert_eq!(starts.len(), 6, "one flow per traced round: {starts:?}");
    assert_eq!(starts, finishes, "every flow start has a matching finish");
    for e in events.iter().filter(|e| phase(e).as_deref() == Some("f")) {
        assert_eq!(
            e.get("bp").and_then(Json::as_str),
            Some("e"),
            "finish events bind to the enclosing slice"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The flight recorder keeps exactly the newest `cap` records, oldest
    /// first, no matter how many times it wraps.
    #[test]
    fn flight_recorder_ring_keeps_newest_records_in_order(
        cap in 1usize..12,
        writes in 0u64..64,
    ) {
        let sink = TraceSink::with_ring_capacity(cap);
        let ring = sink.register_thread("prop/ring");
        for i in 0..writes {
            ring.record(TraceKind::Work, 0, i, i + 1, i * 10, i * 10 + 5);
        }
        prop_assert_eq!(ring.recorded(), writes);
        let snap = ring.snapshot();
        let kept = (writes as usize).min(cap);
        prop_assert_eq!(snap.len(), kept);
        let first = writes - kept as u64;
        for (k, rec) in snap.iter().enumerate() {
            let i = first + k as u64;
            prop_assert_eq!(rec.round, i, "round {} at slot {}", i, k);
            prop_assert_eq!(rec.trace_id, i + 1);
            prop_assert_eq!(rec.start_ns, i * 10);
            prop_assert_eq!(rec.end_ns, i * 10 + 5);
        }
    }
}

/// A caboose's accept is on the ring — progress for the watchdog's clock
/// — but is no intake: a stage that only ever saw the caboose took in
/// nothing.
#[test]
fn a_caboose_record_is_not_an_intake() {
    let mut prog = Program::new("p");
    prog.enable_tracing();
    let s = prog.add_stage("s", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("p", 2, 16).count(0), &[s])
        .unwrap();
    let report = prog.run().unwrap();
    let spans = &report.trace[0].spans;
    assert!(
        spans
            .iter()
            .any(|s| s.kind == TraceKind::Accept && s.trace_id == 0),
        "{spans:?}"
    );
    assert_eq!(report.stage("s").unwrap().buffers_in, 0);
}

#[test]
fn set_state_keeps_the_callers_timestamp() {
    let sink = TraceSink::with_ring_capacity(4);
    let ring = sink.register_thread("p/s");
    std::thread::sleep(Duration::from_millis(5));
    ring.set_state(ThreadState::BlockedAccept, 0);
    let (state, for_) = ring.state();
    assert_eq!(state, ThreadState::BlockedAccept);
    assert!(for_ >= Duration::from_millis(5), "in state for {for_:?}");
}
