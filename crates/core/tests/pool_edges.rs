//! The edges of "the first stage is the source": ending a stream whose
//! first stage is parked on an empty pool, the caboose of a short lane in a
//! shared pool, a farm drawing round numbers from a pool smaller than
//! itself.  Every program runs under a 2 s watchdog, so a regression is a
//! failed test, not a stuck job.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use fg_core::{
    map_stage, Buffer, FgError, MemoryLedger, PipelineCfg, PipelineId, Program, Rounds, Stage,
    StageCtx,
};

fn watched(name: &str) -> Program {
    let mut prog = Program::new(name);
    prog.with_watchdog(Duration::from_secs(2));
    prog
}

/// Counts the buffers it passes on.
fn counter(n: &Arc<AtomicU64>) -> Box<dyn Stage> {
    let n = Arc::clone(n);
    map_stage(move |_, _| {
        n.fetch_add(1, Ordering::Relaxed);
        Ok(())
    })
}

#[test]
fn the_last_stage_stops_a_first_stage_parked_on_its_empty_pool() {
    // One buffer: while `last` holds it the pool is empty, and `first` —
    // which conveyed it and went straight back to accept — is parked there
    // or about to be.  The stop must wake it; the buffer `last` conveys
    // *after* the stop comes home to a stream that has ended and is
    // released, which is not an error.
    let started = Arc::new(AtomicU64::new(0));
    let ledger = Arc::new(MemoryLedger::new());
    let mut prog = watched("stop-parked");
    prog.set_memory_ledger(Arc::clone(&ledger));
    let first = prog.add_stage("first", counter(&started));
    let last = prog.add_stage(
        "last",
        Box::new(|ctx: &mut StageCtx| {
            let held = ctx.accept()?.expect("the pool's one buffer");
            ctx.stop(held.pipeline())?;
            ctx.convey(held)?;
            assert!(ctx.accept()?.is_none(), "no round starts after the stop");
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 1, 16).rounds(Rounds::UntilStopped),
        &[first, last],
    )
    .unwrap();
    prog.run().unwrap();
    assert_eq!(started.load(Ordering::Relaxed), 1);
    assert_eq!(ledger.outstanding(), (0, 0));
}

#[test]
fn a_stop_from_the_middle_ends_the_stream_and_stragglers_are_released() {
    // `mid` stops the pipeline at round 5 and keeps conveying what it is
    // handed: every buffer that comes home afterwards is retired, so the
    // stream ends within a pool's worth of rounds.
    const POOL: u64 = 3;
    let seen = Arc::new(AtomicU64::new(0));
    let mut prog = watched("stop-mid");
    let first = prog.add_stage("first", map_stage(|_, _| Ok(())));
    let mid = prog.add_stage(
        "mid",
        map_stage(|buf, ctx| {
            if buf.round() == 5 {
                ctx.stop(buf.pipeline())?;
            }
            Ok(())
        }),
    );
    let last = prog.add_stage("last", counter(&seen));
    prog.add_pipeline(
        PipelineCfg::new("p", POOL as usize, 16).rounds(Rounds::UntilStopped),
        &[first, mid, last],
    )
    .unwrap();
    prog.run().unwrap();
    let seen = seen.load(Ordering::Relaxed);
    assert!((6..6 + POOL).contains(&seen), "{seen} rounds");
}

#[test]
fn an_error_in_the_middle_reaches_a_first_stage_parked_on_its_pool() {
    let mut prog = watched("err-parked");
    let first = prog.add_stage("first", map_stage(|_, _| Ok(())));
    let mid = prog.add_stage(
        "mid",
        Box::new(|ctx: &mut StageCtx| {
            // Holding the pool's one buffer: `first` can only be waiting.
            let _held = ctx.accept()?.expect("the pool's one buffer");
            Err(FgError::Stage {
                stage: "mid".into(),
                message: "synthetic".into(),
            })
        }),
    );
    let last = prog.add_stage("last", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("p", 1, 16).count(10), &[first, mid, last])
        .unwrap();
    let err = prog.run().unwrap_err();
    assert!(matches!(err, FgError::Stage { .. }), "got {err:?}");
}

#[test]
fn a_short_lanes_caboose_leaves_before_the_reader_parks_on_the_shared_pool() {
    // Three lanes of 0, 1 and 7 rounds, one buffer each, behind one virtual
    // reader, into a merge that takes a head from every lane and then
    // insists on finishing the short lanes first — while it still holds
    // every buffer there is.  Lane 1's end can then only reach it if the
    // reader sent the caboose on its own, after starting lane 1's last
    // round and before parking on the (now empty) shared pool.
    const COUNTS: [u64; 3] = [0, 1, 7];
    let seen = Arc::new(Mutex::new(Vec::<(PipelineId, u64)>::new()));
    let mut prog = watched("short-lanes");
    let read = prog.add_virtual_stage("read", map_stage(|_, _| Ok(())));
    let s2 = Arc::clone(&seen);
    let merge = prog.add_stage(
        "merge",
        Box::new(move |ctx: &mut StageCtx| {
            let lanes: Vec<PipelineId> = ctx.pipelines().collect();
            let mut heads: Vec<Option<Buffer>> = Vec::new();
            for &lane in &lanes {
                heads.push(ctx.accept_from(lane)?);
            }
            assert!(heads[0].is_none(), "a lane of no rounds ends at once");
            for (lane, head) in lanes.into_iter().zip(heads) {
                let mut head = head;
                while let Some(buf) = head {
                    s2.lock().unwrap().push((lane, buf.round()));
                    // Ask for the next one *before* giving this one back.
                    head = if buf.round() + 1 == COUNTS[lane.index()] {
                        let end = ctx.accept_from(lane)?;
                        assert!(end.is_none(), "{lane} ran past its count");
                        ctx.discard(buf)?;
                        None
                    } else {
                        ctx.discard(buf)?;
                        ctx.accept_from(lane)?
                    };
                }
            }
            Ok(())
        }),
    );
    for (lane, n) in COUNTS.into_iter().enumerate() {
        prog.add_pipeline(
            PipelineCfg::new(format!("lane{lane}"), 1, 16).count(n),
            &[read, merge],
        )
        .unwrap();
    }
    prog.run().unwrap();
    let want: Vec<(usize, u64)> = COUNTS
        .into_iter()
        .enumerate()
        .flat_map(|(lane, n)| (0..n).map(move |r| (lane, r)))
        .collect();
    let got: Vec<(usize, u64)> = seen
        .lock()
        .unwrap()
        .iter()
        .map(|(p, r)| (p.index(), *r))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn an_ordered_farm_of_four_heads_a_pool_of_two() {
    // More workers than buffers: two of the four are always parked on the
    // pool, all four draw round numbers from one counter, and whichever
    // starts the last round owes the caboose the others are waiting for.
    let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
    let mut prog = watched("wide-farm");
    let farm = prog.workers("farm", 4, |i| {
        map_stage(move |buf, _| {
            if (buf.round() + i as u64).is_multiple_of(3) {
                std::thread::yield_now();
            }
            Ok(())
        })
    });
    let s2 = Arc::clone(&seen);
    let last = prog.add_stage(
        "last",
        map_stage(move |buf, _| {
            s2.lock().unwrap().push(buf.round());
            Ok(())
        }),
    );
    prog.add_pipeline(PipelineCfg::new("p", 2, 16).count(50), &[farm, last])
        .unwrap();
    let report = prog.run().unwrap();
    assert_eq!(*seen.lock().unwrap(), (0..50).collect::<Vec<u64>>());
    let farm = report
        .stage_rollups()
        .into_iter()
        .find(|r| r.name == "farm")
        .unwrap();
    assert_eq!(
        (farm.workers, farm.buffers_in, farm.buffers_out),
        (4, 50, 50)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the shape — how many stages, how small the pools, one lane
    /// behind an ordered farm or several behind a virtual first stage — the
    /// last stage sees each pipeline's declared rounds, once each and in
    /// order, and the ledger ends at zero.
    #[test]
    fn the_last_stage_sees_the_declared_rounds(
        stages in 1usize..4,
        buffers in 1usize..5,
        counts in proptest::collection::vec(0u64..25, 1..5),
        farm in 1usize..5,
    ) {
        let lanes = counts.len();
        let seen = Arc::new(Mutex::new(Vec::<(PipelineId, u64)>::new()));
        let ledger = Arc::new(MemoryLedger::new());
        let mut prog = watched("prop-rounds");
        prog.set_memory_ledger(Arc::clone(&ledger));
        let pass = || map_stage(|_, _| Ok(()));
        // One lane: an ordered farm (of one: a plain stage) first.  More:
        // a virtual stage first, so the lanes share their pool.
        let first = if lanes == 1 {
            prog.workers("first", farm, |_| pass())
        } else {
            prog.add_virtual_stage("first", pass())
        };
        let s2 = Arc::clone(&seen);
        let last = prog.add_virtual_stage(
            "last",
            map_stage(move |buf, _| {
                s2.lock().unwrap().push((buf.pipeline(), buf.round()));
                Ok(())
            }),
        );
        for (lane, &n) in counts.iter().enumerate() {
            let mut chain = vec![first];
            for pos in 1..stages {
                chain.push(prog.add_stage(format!("s{lane}.{pos}"), pass()));
            }
            chain.push(last);
            prog.add_pipeline(PipelineCfg::new(format!("p{lane}"), buffers, 8).count(n), &chain)
                .unwrap();
        }
        let report = prog.run().unwrap();
        let first_threads = if lanes == 1 { farm } else { 1 };
        prop_assert_eq!(report.threads_spawned, first_threads + lanes * (stages - 1) + 1);
        for (lane, &n) in counts.iter().enumerate() {
            let got: Vec<u64> = seen
                .lock()
                .unwrap()
                .iter()
                .filter(|(p, _)| p.index() == lane)
                .map(|(_, r)| *r)
                .collect();
            prop_assert_eq!(got, (0..n).collect::<Vec<u64>>(), "lane {}", lane);
        }
        prop_assert_eq!(seen.lock().unwrap().len() as u64, counts.iter().sum::<u64>());
        prop_assert_eq!(ledger.outstanding(), (0, 0));
    }
}
