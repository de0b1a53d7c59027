//! Integration tests for single linear pipelines: the shape supported by
//! FG's original release (§II of the paper).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fg_core::{map_stage, run_linear, FgError, PipelineCfg, Program, Rounds, StageCtx};

#[test]
fn three_stage_pipeline_processes_all_rounds() {
    let rounds = 100u64;
    let sum = Arc::new(AtomicU64::new(0));
    let sum2 = Arc::clone(&sum);

    let report = run_linear(
        "linear3",
        PipelineCfg::new("p", 3, 64).rounds(Rounds::Count(rounds)),
        vec![
            (
                "produce",
                map_stage(|buf, _| {
                    let r = buf.round();
                    buf.copy_from(&r.to_le_bytes());
                    Ok(())
                }),
            ),
            (
                "double",
                map_stage(|buf, _| {
                    let mut v = u64::from_le_bytes(buf.filled().try_into().unwrap());
                    v *= 2;
                    buf.copy_from(&v.to_le_bytes());
                    Ok(())
                }),
            ),
            (
                "consume",
                map_stage(move |buf, _| {
                    let v = u64::from_le_bytes(buf.filled().try_into().unwrap());
                    sum2.fetch_add(v, Ordering::Relaxed);
                    Ok(())
                }),
            ),
        ],
    )
    .unwrap();

    // sum of 2*r for r in 0..100
    assert_eq!(sum.load(Ordering::Relaxed), 2 * (rounds * (rounds - 1) / 2));
    let produce = report.stage("produce").unwrap();
    assert_eq!(produce.buffers_in, rounds);
    assert_eq!(produce.buffers_out, rounds);
    let consume = report.stage("consume").unwrap();
    assert_eq!(consume.buffers_in, rounds);
    // One thread a stage.
    assert_eq!(report.threads_spawned, 3);
}

#[test]
fn rounds_exceed_buffer_pool() {
    // 2 buffers service 500 rounds: the last stage conveys into the pool
    // the first accepts from.
    let count = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&count);
    run_linear(
        "recycle",
        PipelineCfg::new("p", 2, 16).rounds(Rounds::Count(500)),
        vec![(
            "count",
            map_stage(move |_, _| {
                c2.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }),
        )],
    )
    .unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 500);
}

#[test]
fn zero_rounds_pipeline_terminates() {
    let report = run_linear(
        "empty",
        PipelineCfg::new("p", 2, 16).rounds(Rounds::Count(0)),
        vec![(
            "never",
            map_stage(|_, _| panic!("stage must never run for zero rounds")),
        )],
    )
    .unwrap();
    assert_eq!(report.stage("never").unwrap().buffers_in, 0);
}

#[test]
fn single_buffer_single_round() {
    let report = run_linear(
        "tiny",
        PipelineCfg::new("p", 1, 1).rounds(Rounds::Count(1)),
        vec![(
            "s",
            map_stage(|buf, _| {
                buf.set_filled(1);
                Ok(())
            }),
        )],
    )
    .unwrap();
    assert_eq!(report.stage("s").unwrap().buffers_out, 1);
}

#[test]
fn until_stopped_pipeline_ends_when_stage_stops_it() {
    // The first stage consumes 7 buffers and then stops the pipeline —
    // the dynamic-termination pattern of dsort's receive pipeline.
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    let mut prog = Program::new("stop");
    let first = prog.add_stage(
        "taker",
        Box::new(move |ctx: &mut StageCtx| {
            let pid = ctx.pipelines().next().unwrap();
            for _ in 0..7 {
                let buf = ctx.accept()?.expect("stream must still be open");
                seen2.fetch_add(1, Ordering::Relaxed);
                ctx.convey(buf)?;
            }
            ctx.stop(pid)?;
            Ok(())
        }),
    );
    let cfg = PipelineCfg::new("p", 2, 8).rounds(Rounds::UntilStopped);
    prog.add_pipeline(cfg, &[first]).unwrap();
    prog.run().unwrap();
    assert_eq!(seen.load(Ordering::Relaxed), 7);
}

#[test]
fn stage_error_aborts_program() {
    let err = run_linear(
        "failing",
        PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(1000)),
        vec![
            (
                "fill",
                map_stage(|buf, _| {
                    buf.set_filled(1);
                    Ok(())
                }),
            ),
            (
                "boom",
                map_stage(|buf, _| {
                    if buf.round() == 3 {
                        Err(FgError::stage("boom", "synthetic failure"))
                    } else {
                        Ok(())
                    }
                }),
            ),
        ],
    )
    .unwrap_err();
    match err {
        FgError::Stage { stage, message } => {
            assert_eq!(stage, "boom");
            assert!(message.contains("synthetic"));
        }
        other => panic!("expected stage error, got {other:?}"),
    }
}

#[test]
fn stage_panic_becomes_error() {
    let err = run_linear(
        "panicking",
        PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(10)),
        vec![(
            "kaboom",
            map_stage(|buf, _| {
                if buf.round() == 2 {
                    panic!("deliberate test panic");
                }
                Ok(())
            }),
        )],
    )
    .unwrap_err();
    match err {
        FgError::Panic { stage, message } => {
            assert_eq!(stage, "kaboom");
            assert!(message.contains("deliberate"));
        }
        other => panic!("expected panic error, got {other:?}"),
    }
}

#[test]
fn error_in_late_stage_unblocks_early_stages() {
    // The early stage sleeps so buffers pile up; the late stage errors
    // immediately.  The program must still terminate promptly.
    let err = run_linear(
        "late-failure",
        PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(1_000_000)),
        vec![
            (
                "slowish",
                map_stage(|_, _| {
                    std::thread::sleep(Duration::from_micros(50));
                    Ok(())
                }),
            ),
            (
                "failfast",
                map_stage(|_, _| Err(FgError::stage("failfast", "die"))),
            ),
        ],
    )
    .unwrap_err();
    assert!(matches!(err, FgError::Stage { .. }));
}

#[test]
fn aux_buffer_is_persistent_scratch() {
    run_linear(
        "aux",
        PipelineCfg::new("p", 2, 32).rounds(Rounds::Count(5)),
        vec![(
            "permute",
            map_stage(|buf, ctx| {
                buf.copy_from(&[3, 1, 2]);
                let aux = ctx.aux(3);
                // reverse via aux, the out-of-place pattern of dsort's
                // permute stage
                aux.copy_from_slice(buf.filled());
                aux.reverse();
                let tmp = aux.to_vec();
                buf.copy_from(&tmp);
                assert_eq!(buf.filled(), &[2, 1, 3]);
                Ok(())
            }),
        )],
    )
    .unwrap();
}

#[test]
fn buffer_meta_travels_downstream() {
    run_linear(
        "meta",
        PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(20)),
        vec![
            (
                "tag",
                map_stage(|buf, _| {
                    buf.meta = buf.round() * 10;
                    Ok(())
                }),
            ),
            (
                "check",
                map_stage(|buf, _| {
                    assert_eq!(buf.meta, buf.round() * 10);
                    Ok(())
                }),
            ),
        ],
    )
    .unwrap();
}

#[test]
fn report_records_blocking_time_for_starved_stage() {
    // Stage 1 sleeps per buffer; stage 2 is fast and thus starved, so its
    // blocked_accept must dominate its busy time: each pop that missed is
    // booked whole, from before the miss to the buffer's arrival.
    let report = run_linear(
        "starved",
        PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(20)),
        vec![
            (
                "slow",
                map_stage(|_, _| {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok(())
                }),
            ),
            ("fast", map_stage(|_, _| Ok(()))),
        ],
    )
    .unwrap();
    let fast = report.stage("fast").unwrap();
    assert!(
        fast.blocked_accept > fast.busy(),
        "starved stage should mostly block: {fast:?}"
    );
    assert!(
        fast.blocked_accept >= 20 * Duration::from_millis(2) / 2,
        "{fast:?}"
    );
    // Its pushes never wait, and an untraced one books nothing.
    assert_eq!(fast.blocked_convey, Duration::ZERO, "{fast:?}");
}

#[test]
fn empty_chain_is_rejected() {
    let mut prog = Program::new("bad");
    let err = prog
        .add_pipeline(PipelineCfg::new("p", 1, 8), &[])
        .unwrap_err();
    assert!(matches!(err, FgError::Config(_)));
}

#[test]
fn zero_buffers_rejected() {
    let mut prog = Program::new("bad");
    let s = prog.add_stage("s", map_stage(|_, _| Ok(())));
    let err = prog
        .add_pipeline(PipelineCfg::new("p", 0, 8), &[s])
        .unwrap_err();
    assert!(matches!(err, FgError::Config(_)));
}

#[test]
fn unused_stage_rejected_at_run() {
    let mut prog = Program::new("bad");
    let s = prog.add_stage("used", map_stage(|_, _| Ok(())));
    let _unused = prog.add_stage("unused", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("p", 1, 8).count(1), &[s])
        .unwrap();
    let err = prog.run().unwrap_err();
    match err {
        FgError::Config(m) => assert!(m.contains("unused")),
        other => panic!("expected config error, got {other:?}"),
    }
}

/// A stage named `map#1` would read as worker 1 of a farm `map` in the
/// diagnosis, the ledger and the alloc tags alike: refused at the boundary.
#[test]
fn a_stage_named_like_a_replica_is_refused() {
    let mut prog = Program::new("bad");
    let s = prog.add_stage("map#1", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("p", 1, 8).count(1), &[s])
        .unwrap();
    match prog.run().unwrap_err() {
        FgError::Config(m) => assert!(m.contains("`map#1` is named like a replica"), "{m}"),
        other => panic!("expected config error, got {other:?}"),
    }
    // A `#` not followed by an index is an ordinary name.
    let mut prog = Program::new("ok");
    let s = prog.add_stage("map#a", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("p", 1, 8).count(1), &[s])
        .unwrap();
    assert_eq!(prog.run().unwrap().stage("map#a").unwrap().buffers_out, 1);
}

#[test]
fn duplicate_stage_in_chain_rejected() {
    let mut prog = Program::new("bad");
    let s = prog.add_stage("s", map_stage(|_, _| Ok(())));
    let err = prog
        .add_pipeline(PipelineCfg::new("p", 1, 8).count(1), &[s, s])
        .unwrap_err();
    assert!(matches!(err, FgError::Config(_)));
}

#[test]
fn pipelined_overlap_beats_serial_sum() {
    // Two stages each sleep 1ms per buffer over 40 rounds.  With overlap,
    // wall time must be well under the serial sum of the stages' work (we
    // allow generous scheduling slack: < 95% of serial).  The serial sum is
    // the stages' busy time in this run, not a nominal 80ms: how long a
    // sleep takes, and how long a thread waits for a core, is the host's.
    let stage = |_: &mut fg_core::Buffer, _: &mut StageCtx| {
        std::thread::sleep(Duration::from_millis(1));
        Ok(())
    };
    let report = run_linear(
        "overlap",
        PipelineCfg::new("p", 4, 8).rounds(Rounds::Count(40)),
        vec![("a", map_stage(stage)), ("b", map_stage(stage))],
    )
    .unwrap();
    let serial = report.total_busy();
    assert!(
        report.wall < serial.mul_f64(0.95),
        "expected overlap, wall = {:?}, serial work = {serial:?}",
        report.wall
    );
    assert!(report.overlap_factor() > 1.2, "overlap factor too low");
}
