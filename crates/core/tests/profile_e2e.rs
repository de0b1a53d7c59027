//! End-to-end resource profiler test: a real program with busy stages,
//! sampled live by a fast-cadence profiler; the registry must end up with
//! per-thread CPU rows for the stage threads.

use std::sync::Arc;
use std::time::Duration;

use fg_core::{map_stage, MetricsRegistry, PipelineCfg, ProfilerCfg, Program, Rounds};

#[cfg(target_os = "linux")]
#[test]
fn profiler_sees_stage_threads_during_a_run() {
    let registry = Arc::new(MetricsRegistry::new());
    let ledger = Arc::new(fg_core::MemoryLedger::new());
    let profiler = fg_core::ResourceProfiler::start_with(
        Arc::clone(&registry),
        ProfilerCfg {
            interval: Duration::from_millis(5),
        },
        Some(Arc::clone(&ledger)),
    );

    let mut prog = Program::new("profile-e2e");
    prog.set_memory_ledger(Arc::clone(&ledger));
    let spin = prog.add_stage(
        "spin",
        map_stage(|_buf, _ctx| {
            // Busy + slow enough that several profiler ticks land mid-run.
            std::thread::sleep(Duration::from_millis(10));
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 2, 1024).rounds(Rounds::Count(10)),
        &[spin],
    )
    .unwrap();
    prog.run().unwrap();

    profiler.stop();
    let snap = registry.snapshot();
    let thread_gauges: Vec<&str> = snap
        .gauges
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| n.starts_with("resource/thread/"))
        .collect();
    assert!(
        thread_gauges.iter().any(|n| n.contains("profile-e2e/spin")),
        "no stage-thread rows; thread gauges: {thread_gauges:?}"
    );
    let resources = fg_core::ResourceReport::from_metrics(&snap).expect("resource gauges present");
    assert!(resources.rss_bytes > 0);
    assert!(resources
        .threads
        .iter()
        .any(|t| t.name.contains("profile-e2e/spin")));
    // The ledger saw the pool's buffers.
    assert!(resources.ledger.expect("ledger rows").total_buffers > 0);
}

/// A stage that finds its queue empty gives its core away once before it
/// parks, and the kernel books each such yield that switched threads as an
/// involuntary switch.  Pass-through stages on more threads than the host
/// has cores, all pinned to one core so that a yield always finds a stage
/// with work to switch to, yield thousands of times a run: each exit
/// sample carries its `yields`, so a reader can take them back out of
/// `invol_switches`.
#[cfg(target_os = "linux")]
#[test]
fn exit_samples_carry_the_yields_of_more_stages_than_cores() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let registry = Arc::new(MetricsRegistry::new());
    let mut prog = Program::new("yields");
    prog.set_metrics(Arc::clone(&registry));
    prog.set_pinning(fg_core::PinMode::Cores(vec![0]));
    let stages: Vec<_> = (0..cores + 2)
        .map(|i| prog.add_stage(format!("s{i}"), map_stage(|_buf, _ctx| Ok(()))))
        .collect();
    prog.add_pipeline(
        PipelineCfg::new("p", 4, 64).rounds(Rounds::Count(20_000)),
        &stages,
    )
    .unwrap();
    prog.run().unwrap();

    let resources = fg_core::ResourceReport::from_metrics(&registry.snapshot()).unwrap();
    let rows: Vec<_> = resources
        .threads
        .iter()
        .filter(|t| t.name.starts_with("yields/"))
        .collect();
    assert_eq!(rows.len(), cores + 2, "{:?}", resources.threads);
    assert!(rows.iter().all(|t| t.yields > 0), "{rows:?}");
}

/// Pool buffers cannot outlive their program, so once `run` returns the
/// ledger's totals and every per-stage row are back at zero — while the
/// high-water marks still say what the run held.
fn assert_ledger_settled(ledger: &fg_core::MemoryLedger, buffers: u64, buffer_bytes: u64) {
    assert_eq!(ledger.outstanding(), (0, 0));
    let snap = ledger.snapshot();
    assert_eq!(snap.total_bytes, 0);
    assert!(
        snap.stages.iter().all(|s| (s.buffers, s.bytes) == (0, 0)),
        "a stage row kept residency: {:?}",
        snap.stages
    );
    assert_eq!(snap.total_buffers, buffers);
    assert_eq!(snap.peak_bytes, buffers * buffer_bytes);
}

#[test]
fn ledger_reconciles_to_zero_after_a_clean_run() {
    let ledger = Arc::new(fg_core::MemoryLedger::new());
    for _ in 0..2 {
        let mut prog = Program::new("ledger-clean");
        prog.set_memory_ledger(Arc::clone(&ledger));
        let a = prog.add_stage("a", map_stage(|_buf, _ctx| Ok(())));
        let b = prog.workers("b", 2, |_| map_stage(|_buf, _ctx| Ok(())));
        prog.add_pipeline(
            PipelineCfg::new("p", 3, 1024).rounds(Rounds::Count(50)),
            &[a, b],
        )
        .unwrap();
        prog.run().unwrap();
        // The second program through the same ledger does not stack on a
        // phantom residue of the first.
        assert_ledger_settled(&ledger, 3, 1024);
    }
}

#[test]
fn ledger_reconciles_to_zero_after_a_stage_fails_holding_a_buffer() {
    let ledger = Arc::new(fg_core::MemoryLedger::new());
    let mut prog = Program::new("ledger-err");
    prog.set_memory_ledger(Arc::clone(&ledger));
    let pass = prog.add_stage("pass", map_stage(|_buf, _ctx| Ok(())));
    let boom = prog.add_stage(
        "boom",
        map_stage(|buf, _ctx| {
            if buf.round() == 3 {
                return Err(fg_core::FgError::Stage {
                    stage: "boom".into(),
                    message: "synthetic".into(),
                });
            }
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 4, 512).rounds(Rounds::Count(100)),
        &[pass, boom],
    )
    .unwrap();
    assert!(prog.run().is_err());
    assert_ledger_settled(&ledger, 4, 512);
}
