//! Tests for worker farms (`Program::workers`, FG's fork–join): every
//! round processed once and downstream in order without a join stage, a
//! speed-up on a slow stage, one pipeline a farm, SPSC specialization of
//! plain chain queues, prompt teardown on error/stop, and a farm wider
//! than its round count ending at its declared width.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use fg_core::{
    map_stage, FgError, PipelineCfg, Program, Report, Rounds, Stage, StageCtx, StageRollup,
};

/// The folded row of the stage `name`.
fn rollup(report: &Report, name: &str) -> StageRollup {
    let rows = report.stage_rollups();
    rows.into_iter()
        .find(|r| r.name == name)
        .expect("a row for the stage")
}

#[test]
fn workers_emit_rounds_in_order_without_reorder_stage() {
    let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
    let mut prog = Program::new("farm");
    // Data-dependent jitter so replicas finish rounds out of order; the
    // ordered emission gate must still present them in order downstream.
    let work = prog.workers("work", 4, |_i| {
        map_stage(|buf, _| {
            let jitter = (buf.round() * 7) % 5;
            std::thread::sleep(Duration::from_micros(200 * jitter));
            Ok(())
        })
    });
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
        &[work, check],
    )
    .unwrap();
    let report = prog.run().unwrap();
    assert_eq!(seen.lock().unwrap().clone(), (0..100).collect::<Vec<u64>>());
    // 4 worker threads + check.
    assert_eq!(report.threads_spawned, 5);
    // Per-replica rows roll up under the base name.
    let rolled = rollup(&report, "work");
    assert_eq!((rolled.workers, rolled.buffers_in), (4, 100));
}

#[test]
fn replicated_stage_processes_every_round_once() {
    let count = Arc::new(AtomicU64::new(0));
    let mut prog = Program::new("farm-alone");
    let c = Arc::clone(&count);
    let work = prog.workers("work", 4, move |_i| {
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
    // The 4 worker threads and nothing else.
    assert_eq!(report.threads_spawned, 4);
    // One row a worker, named `<stage>#<i>`, which together took every
    // round once.
    let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["work#0", "work#1", "work#2", "work#3"]);
    let taken: u64 = report.stages.iter().map(|s| s.buffers_in).sum();
    assert_eq!(taken, 200);
}

#[test]
fn replication_speeds_up_slow_stage() {
    // Four workers share 60 sleeps of 2ms.  The serial time is the workers'
    // summed busy time in this same run, so a host that sleeps long or
    // schedules late moves both sides of the comparison alike.
    let mut prog = Program::new("speed");
    let slow = prog.workers("slow", 4, |_| {
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
    let report = prog.run().unwrap();
    let (serial, parallel) = (report.total_busy(), report.wall);
    assert!(
        parallel.as_secs_f64() < serial.as_secs_f64() * 0.5,
        "4 workers should cut sleep-bound wall time: serial {serial:?}, parallel {parallel:?}"
    );
}

#[test]
fn replicated_stage_in_two_pipelines_rejected() {
    let mut prog = Program::new("bad");
    let work = prog.workers("work", 2, |_| map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("a", 2, 8).count(1), &[work])
        .unwrap();
    prog.add_pipeline(PipelineCfg::new("b", 2, 8).count(1), &[work])
        .unwrap();
    let err = prog.run().unwrap_err();
    assert!(
        matches!(&err, FgError::Config(m) if m.contains("exactly one pipeline")),
        "{err}"
    );
}

#[test]
fn farm_mid_pipeline_preserves_data_and_order() {
    let sum = Arc::new(AtomicU64::new(0));
    let next = Arc::new(AtomicU64::new(0));
    let mut prog = Program::new("mid");
    let fill = prog.add_stage(
        "fill",
        map_stage(|buf, _| {
            let r = buf.round();
            buf.copy_from(&r.to_le_bytes());
            Ok(())
        }),
    );
    let double = prog.workers("double", 3, |_| {
        map_stage(|buf, _| {
            let v = u64::from_le_bytes(buf.filled().try_into().unwrap()) * 2;
            buf.copy_from(&v.to_le_bytes());
            Ok(())
        })
    });
    let s2 = Arc::clone(&sum);
    let n2 = Arc::clone(&next);
    let take = prog.add_stage(
        "take",
        map_stage(move |buf, _| {
            assert_eq!(buf.round(), n2.fetch_add(1, Ordering::Relaxed));
            s2.fetch_add(
                u64::from_le_bytes(buf.filled().try_into().unwrap()),
                Ordering::Relaxed,
            );
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 6, 16).rounds(Rounds::Count(50)),
        &[fill, double, take],
    )
    .unwrap();
    prog.run().unwrap();
    assert_eq!(sum.load(Ordering::Relaxed), 2 * (49 * 50 / 2));
}

#[test]
fn single_worker_farm_degenerates_to_plain_stage() {
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let mut prog = Program::new("one");
    let s = prog.workers("s", 1, move |_| {
        let c = Arc::clone(&c);
        map_stage(move |_, _| {
            c.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
    });
    prog.add_pipeline(PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(17)), &[s])
        .unwrap();
    let report = prog.run().unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 17);
    // No replica suffix: it runs as an ordinary stage.
    assert!(report.stage("s").is_some());
    assert_eq!(rollup(&report, "s").workers, 1);
}

#[test]
fn worker_error_cancels_farm_promptly() {
    // The replica holding round 5 fails *before* emitting, so replicas
    // holding rounds 6.. are parked in the emission gate; cancellation must
    // wake them or join() hangs.
    let t0 = Instant::now();
    let mut prog = Program::new("failfarm");
    let work = prog.workers("work", 4, |_| {
        map_stage(|buf, _| {
            if buf.round() == 5 {
                return Err(FgError::stage("work", "replica failure"));
            }
            std::thread::sleep(Duration::from_micros(300));
            Ok(())
        })
    });
    prog.add_pipeline(
        PipelineCfg::new("p", 6, 16).rounds(Rounds::Count(10_000)),
        &[work],
    )
    .unwrap();
    let err = prog.run().unwrap_err();
    assert!(matches!(err, FgError::Stage { .. }), "got {err:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "cancellation took {:?}",
        t0.elapsed()
    );
}

#[test]
fn stop_tears_down_farm_and_spsc_spinners_promptly() {
    // A downstream stage stops the pipeline mid-stream: the caboose goes
    // into the pool the farm accepts from, the farm's poison-pill handoff
    // retires every worker, and the stage behind it sees the stream end.
    let t0 = Instant::now();
    struct StopAt(u64);
    impl Stage for StopAt {
        fn run(&mut self, ctx: &mut StageCtx) -> fg_core::Result<()> {
            while let Some(buf) = ctx.accept()? {
                let stop = buf.round() >= self.0;
                let p = buf.pipeline();
                ctx.convey(buf)?;
                if stop {
                    ctx.stop(p)?;
                    break;
                }
            }
            Ok(())
        }
    }
    let mut prog = Program::new("stopfarm");
    let work = prog.workers("work", 3, |_| map_stage(|_, _| Ok(())));
    let gate = prog.add_stage("gate", Box::new(StopAt(20)));
    prog.add_pipeline(
        PipelineCfg::new("p", 4, 16).rounds(Rounds::UntilStopped),
        &[work, gate],
    )
    .unwrap();
    prog.run().unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "stop took {:?}",
        t0.elapsed()
    );
}

#[test]
fn spsc_detection_specializes_plain_chains_only() {
    // One program exercising every consumer kind: a plain stage-to-stage
    // link (SPSC eligible), a farm (its input is shared by replicas
    // re-pushing the caboose), a virtual stage shared by two pipelines
    // (many producers), and the pools (the last stage conveys into one, any
    // stage may discard into it).  Only the plain link may specialize.
    let mut prog = Program::new("flavors");
    let a = prog.add_stage("a", map_stage(|_, _| Ok(())));
    let farm = prog.workers("farm", 2, |_| map_stage(|_, _| Ok(())));
    let b = prog.add_stage("b", map_stage(|_, _| Ok(())));
    let c = prog.add_stage("c", map_stage(|_, _| Ok(())));
    prog.add_pipeline(
        PipelineCfg::new("p", 3, 16).rounds(Rounds::Count(10)),
        &[a, farm, b, c],
    )
    .unwrap();
    let v = prog.add_virtual_stage("v", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("q", 2, 16).rounds(Rounds::Count(5)), &[v])
        .unwrap();
    prog.add_pipeline(PipelineCfg::new("r", 2, 16).rounds(Rounds::Count(5)), &[v])
        .unwrap();
    let report = prog.run().unwrap();
    let flavor = |name: &str| {
        let q = report
            .queues
            .iter()
            .find(|q| q.name == name)
            .unwrap_or_else(|| panic!("queue {name} missing"));
        q.flavor.clone()
    };
    // a -> farm: the farm's replicas also push (caboose handoff): MPMC,
    // the deque.
    assert_eq!(flavor("p[1]"), "mutex");
    // farm -> b: two replica producers: MPMC.
    assert_eq!(flavor("p[2]"), "mutex");
    // b -> c: one producer thread, one consumer thread.
    assert_eq!(flavor("p[3]"), "spsc");
    // The pools — `a`'s input, and the virtual stage's shared input, which
    // is the common pool of the two pipelines that start there — collect
    // from many threads: MPMC, the deque.
    assert_eq!(flavor("recycle/p"), "mutex");
    assert_eq!(flavor("recycle/v"), "mutex");
    // And that is every queue: no position-0 link, no sink queue.
    assert_eq!(report.queues.len(), 5);
}

/// A farm runs at its declared width, and nothing gates its replicas: one
/// wider than its pipeline's round count ends once the caboose relay has
/// reached the replicas that never took a round, at the head of the
/// pipeline and in its middle.
#[test]
fn a_farm_wider_than_its_rounds_ends_at_its_declared_width() {
    for head in [true, false] {
        let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
        let mut prog = Program::new("wide");
        prog.with_watchdog(Duration::from_secs(2));
        let mut chain = Vec::new();
        if !head {
            chain.push(prog.add_stage("fill", map_stage(|_, _| Ok(()))));
        }
        chain.push(prog.workers("farm", 4, |_| map_stage(|_, _| Ok(()))));
        let s2 = Arc::clone(&seen);
        chain.push(prog.add_stage(
            "check",
            map_stage(move |buf, _| {
                s2.lock().unwrap().push(buf.round());
                Ok(())
            }),
        ));
        prog.add_pipeline(PipelineCfg::new("p", 6, 16).count(2), &chain)
            .unwrap();
        let report = prog.run().unwrap_or_else(|e| panic!("{head}: {e:?}"));
        assert_eq!(*seen.lock().unwrap(), [0, 1], "{head}");
        let rolled = rollup(&report, "farm");
        assert_eq!((rolled.buffers_in, rolled.workers), (2, 4), "{head}");
    }
}

/// A replica that fails round 0 of a one-buffer pool ends the run in its
/// own error, well inside the watchdog: the three replicas waiting on the
/// empty pool are woken by the teardown, and none waits for a turn that
/// round 0 will never give up.
#[test]
fn a_replica_failing_round_zero_of_a_one_buffer_pool_ends_in_its_error() {
    let t0 = Instant::now();
    let mut prog = Program::new("fail-first");
    prog.with_watchdog(Duration::from_secs(2));
    let work = prog.workers("work", 4, |_| {
        map_stage(|buf, _| match buf.round() {
            0 => Err(FgError::stage("work", "round 0 fails")),
            _ => Ok(()),
        })
    });
    let out = prog.add_stage("out", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("p", 1, 16).count(8), &[work, out])
        .unwrap();
    let err = prog.run().unwrap_err();
    assert!(matches!(err, FgError::Stage { .. }), "got {err:?}");
    assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Ordered emission holds for any per-replica delay profile: however
    /// the scheduler and sleeps interleave the workers, downstream sees
    /// rounds 0..n in order.
    #[test]
    fn farm_order_holds_under_random_replica_delays(
        delays in proptest::collection::vec(0u64..400, 4),
        rounds in 1u64..40,
    ) {
        let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
        let mut prog = Program::new("prop-farm");
        let d = delays.clone();
        let work = prog.workers("work", delays.len(), move |i| {
            let us = d[i];
            map_stage(move |_, _| {
                if us > 0 {
                    std::thread::sleep(Duration::from_micros(us));
                }
                Ok(())
            })
        });
        let s2 = Arc::clone(&seen);
        let check = prog.add_stage(
            "check",
            map_stage(move |buf, _| {
                s2.lock().unwrap().push(buf.round());
                Ok(())
            }),
        );
        prog.add_pipeline(
            PipelineCfg::new("p", 6, 16).rounds(Rounds::Count(rounds)),
            &[work, check],
        )
        .unwrap();
        prog.run().unwrap();
        let expect: Vec<u64> = (0..rounds).collect();
        prop_assert_eq!(seen.lock().unwrap().clone(), expect);
    }
}

/// An ordered farm's replica that discards a round first waits for its
/// turn, exactly as one that conveys it: the wait is blocked-convey time,
/// not the replica's own work.
#[test]
fn a_discarding_replica_books_its_turn_wait_as_blocked_convey() {
    let mut prog = Program::new("discard-turn");
    let farm = prog.workers("farm", 2, |_| {
        Box::new(|ctx: &mut StageCtx| {
            while let Some(buf) = ctx.accept()? {
                if buf.round() == 0 {
                    std::thread::sleep(Duration::from_millis(50));
                    ctx.convey(buf)?;
                } else {
                    ctx.discard(buf)?;
                }
            }
            Ok(())
        }) as Box<dyn Stage>
    });
    let last = prog.add_stage("last", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("p", 2, 16).count(2), &[farm, last])
        .unwrap();
    let report = prog.run().unwrap();
    // Round 0's replica sleeps on it, so round 1 went to the other one.
    let discarder = (report.stages.iter())
        .find(|s| s.name.starts_with("farm#") && s.buffers_out == 0)
        .expect("a replica that conveyed nothing");
    assert_eq!(discarder.buffers_in, 1, "{discarder:?}");
    assert!(
        discarder.blocked_convey >= Duration::from_millis(20),
        "{discarder:?}"
    );
}
