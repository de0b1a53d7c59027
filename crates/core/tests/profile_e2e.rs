//! End-to-end resource accounting: a real program run with a metrics
//! registry or a memory ledger attached returns its resources in its
//! report — one CPU row per stage thread, from that thread's exit sample,
//! and the process, allocator and ledger as they stood at the end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_core::{map_stage, MetricsRegistry, PipelineCfg, Program, Rounds};

#[cfg(target_os = "linux")]
#[test]
fn profiler_sees_stage_threads_during_a_run() {
    let ledger = Arc::new(fg_core::MemoryLedger::new());
    let mut prog = Program::new("profile-e2e");
    // A ledger alone, no registry: the report still carries its resources.
    prog.set_memory_ledger(Arc::clone(&ledger));
    let spin = prog.add_stage("spin", map_stage(|_buf, _ctx| Ok(())));
    let farm = prog.workers("farm", 2, |_| map_stage(|_buf, _ctx| Ok(())));
    prog.add_pipeline(
        PipelineCfg::new("p", 2, 1024).rounds(Rounds::Count(10)),
        &[spin, farm],
    )
    .unwrap();
    let report = prog.run().unwrap();

    let resources = report.resources.expect("a ledger attached: resources read");
    assert!(resources.rss_bytes > 0);
    assert!(resources.rss_peak_bytes >= resources.rss_bytes);
    let names: Vec<&str> = resources.threads.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "profile-e2e/spin",
            "profile-e2e/farm#0",
            "profile-e2e/farm#1"
        ],
        "one row a stage thread, in the report's stage order"
    );
    // The ledger saw the pool's buffers.
    assert!(resources.ledger.expect("ledger rows").total_buffers > 0);
}

/// A thread's CPU is read from its own clock in nanoseconds, not in 10 ms
/// scheduler ticks: a stage that waits about 1 ms for its input and then
/// spins about 2 ms reads more than nothing and no more than its wall.
#[cfg(target_os = "linux")]
#[test]
fn an_exit_row_resolves_a_two_millisecond_spin() {
    let mut prog = Program::new("cpu-res");
    prog.set_metrics(Arc::new(MetricsRegistry::new()));
    let head = prog.add_stage(
        "head",
        map_stage(|_buf, _ctx| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(())
        }),
    );
    let spin = prog.add_stage(
        "spin",
        map_stage(|_buf, _ctx| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(2) {}
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 1, 64).rounds(Rounds::Count(1)),
        &[head, spin],
    )
    .unwrap();
    let report = prog.run().unwrap();

    let wall = report.stage("spin").expect("a spin row").wall;
    let rows = report.resources.expect("a registry attached").threads;
    let row = rows.iter().find(|t| t.name == "cpu-res/spin").unwrap();
    assert!(
        row.cpu_ns > 0 && row.cpu_ns <= wall.as_nanos() as u64,
        "cpu {} ns against a wall of {wall:?}",
        row.cpu_ns
    );
}

/// A stage that finds its queue empty gives its core away once before it
/// parks, and the kernel books each such yield that switched threads as an
/// involuntary switch.  Pass-through stages on more threads than the host
/// has cores, all on one core so that a yield always finds a stage with
/// work to switch to, yield thousands of times a run: each exit sample
/// carries its `yields`, so a reader can take them back out of
/// `invol_switches`.  The test confines its own thread to core 0 with
/// `taskset(1)`; the stage threads inherit their creator's affinity.
#[cfg(target_os = "linux")]
#[test]
fn exit_samples_carry_the_yields_of_more_stages_than_cores() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let link = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
    let tid = link.file_name().and_then(|t| t.to_str()).expect("a tid");
    let pinned = std::process::Command::new("taskset")
        .args(["-p", "-c", "0", tid])
        .output()
        .expect("taskset runs");
    assert!(pinned.status.success(), "{pinned:?}");
    let mut prog = Program::new("yields");
    prog.set_metrics(Arc::new(MetricsRegistry::new()));
    let stages: Vec<_> = (0..cores + 2)
        .map(|i| prog.add_stage(format!("s{i}"), map_stage(|_buf, _ctx| Ok(()))))
        .collect();
    prog.add_pipeline(
        PipelineCfg::new("p", 4, 64).rounds(Rounds::Count(20_000)),
        &stages,
    )
    .unwrap();
    let report = prog.run().unwrap();

    let rows = report.resources.expect("a registry attached").threads;
    let names: Vec<String> = rows.iter().map(|t| t.name.clone()).collect();
    let expected: Vec<String> = (0..cores + 2).map(|i| format!("yields/s{i}")).collect();
    assert_eq!(names, expected);
    assert!(rows.iter().all(|t| t.yields > 0), "{rows:?}");
}

/// Pool buffers cannot outlive their program, so once `run` returns the
/// ledger's totals are back at zero — while the high-water marks still say
/// what the run held.
fn assert_ledger_settled(ledger: &fg_core::MemoryLedger, buffers: u64, buffer_bytes: u64) {
    assert_eq!(ledger.outstanding(), (0, 0));
    let snap = ledger.snapshot();
    assert_eq!(snap.total_bytes, 0);
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
