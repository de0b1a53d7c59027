//! Tests for replicated stages (fork-join) and the order-restoring join.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fg_core::{map_stage, reorder_stage, FgError, PipelineCfg, Program, Rounds};

#[test]
fn replicated_stage_processes_every_round_once() {
    let count = Arc::new(AtomicU64::new(0));
    let mut prog = Program::new("forkjoin");
    let c = Arc::clone(&count);
    let work = prog.add_replicated_stage("work", 4, move |_i| {
        let c = Arc::clone(&c);
        map_stage(move |_, _| {
            c.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
    });
    prog.add_pipeline(
        PipelineCfg::new("p", 6, 16).rounds(Rounds::Count(200)),
        &[work],
    )
    .unwrap();
    let report = prog.run().unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 200);
    // The 4 replica threads.
    assert_eq!(report.threads_spawned, 4);
    // Replica stats are individually reported.
    assert!(report.stage("work#0").is_some());
    assert!(report.stage("work#3").is_some());
}

#[test]
fn replication_speeds_up_slow_stage() {
    let run = |replicas: usize| {
        let mut prog = Program::new("speed");
        let slow = prog.add_replicated_stage("slow", replicas, |_| {
            map_stage(|_, _| {
                std::thread::sleep(Duration::from_millis(2));
                Ok(())
            })
        });
        prog.add_pipeline(
            PipelineCfg::new("p", 8, 16).rounds(Rounds::Count(60)),
            &[slow],
        )
        .unwrap();
        prog.run().unwrap().wall
    };
    let serial = run(1);
    let parallel = run(4);
    assert!(
        parallel.as_secs_f64() < serial.as_secs_f64() * 0.5,
        "4 replicas should cut sleep-bound wall time: serial {serial:?}, parallel {parallel:?}"
    );
}

#[test]
fn reorder_restores_round_order_after_replicas() {
    let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
    let mut prog = Program::new("join");
    // Replicas sleep a data-dependent amount so rounds finish out of order.
    let scramble = prog.add_replicated_stage("scramble", 4, |_| {
        map_stage(|buf, _| {
            let jitter = (buf.round() * 7) % 5;
            std::thread::sleep(Duration::from_micros(200 * jitter));
            Ok(())
        })
    });
    let join = prog.add_stage("join", reorder_stage());
    let s2 = Arc::clone(&seen);
    let check = prog.add_stage(
        "check",
        map_stage(move |buf, _| {
            s2.lock().unwrap().push(buf.round());
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 8, 16).rounds(Rounds::Count(100)),
        &[scramble, join, check],
    )
    .unwrap();
    prog.run().unwrap();
    let got = seen.lock().unwrap().clone();
    assert_eq!(got, (0..100).collect::<Vec<u64>>());
}

#[test]
fn replica_error_cancels_program() {
    let mut prog = Program::new("failrep");
    let work = prog.add_replicated_stage("work", 3, |_i| {
        map_stage(move |buf, _| {
            // Whichever replica draws round 5 fails.
            if buf.round() == 5 {
                return Err(FgError::stage("work", "replica failure"));
            }
            Ok(())
        })
    });
    prog.add_pipeline(
        PipelineCfg::new("p", 4, 16).rounds(Rounds::Count(1000)),
        &[work],
    )
    .unwrap();
    let err = prog.run().unwrap_err();
    assert!(matches!(err, FgError::Stage { .. }), "got {err:?}");
}

#[test]
fn replicated_stage_in_two_pipelines_rejected() {
    let mut prog = Program::new("bad");
    let work = prog.add_replicated_stage("work", 2, |_| map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("a", 2, 8).count(1), &[work])
        .unwrap();
    prog.add_pipeline(PipelineCfg::new("b", 2, 8).count(1), &[work])
        .unwrap();
    let err = prog.run().unwrap_err();
    assert!(matches!(err, FgError::Config(_)));
}

#[test]
fn single_replica_behaves_like_normal_stage() {
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let mut prog = Program::new("one");
    let s = prog.add_replicated_stage("s", 1, move |_| {
        let c = Arc::clone(&c);
        map_stage(move |_, _| {
            c.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
    });
    prog.add_pipeline(PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(17)), &[s])
        .unwrap();
    prog.run().unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 17);
}

#[test]
fn replicated_stage_mid_pipeline() {
    // Data integrity through a replicated middle stage with reorder.
    let sum = Arc::new(AtomicU64::new(0));
    let mut prog = Program::new("mid");
    let fill = prog.add_stage(
        "fill",
        map_stage(|buf, _| {
            let r = buf.round();
            buf.copy_from(&r.to_le_bytes());
            Ok(())
        }),
    );
    let double = prog.add_replicated_stage("double", 3, |_| {
        map_stage(|buf, _| {
            let v = u64::from_le_bytes(buf.filled().try_into().unwrap()) * 2;
            buf.copy_from(&v.to_le_bytes());
            Ok(())
        })
    });
    let join = prog.add_stage("join", reorder_stage());
    let s2 = Arc::clone(&sum);
    let take = prog.add_stage(
        "take",
        map_stage(move |buf, _| {
            s2.fetch_add(
                u64::from_le_bytes(buf.filled().try_into().unwrap()),
                Ordering::Relaxed,
            );
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 6, 16).rounds(Rounds::Count(50)),
        &[fill, double, join, take],
    )
    .unwrap();
    prog.run().unwrap();
    assert_eq!(sum.load(Ordering::Relaxed), 2 * (49 * 50 / 2));
}
