//! Tests for less-common pipeline shapes: virtual stages mid-chain, two
//! virtual stages in one chain, early stop on counted pipelines, common
//! stages combined with virtual groups, and discard semantics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fg_core::{map_stage, Buffer, PipelineCfg, Program, Rounds, Stage, StageCtx};

/// A virtual stage that is *not* the first stage of its pipelines: per-
/// pipeline feeder stages push into the shared queue.
#[test]
fn virtual_stage_mid_chain() {
    const K: usize = 5;
    const ROUNDS: u64 = 20;
    let seen = Arc::new(Mutex::new(vec![0u64; K]));

    let mut prog = Program::new("midchain");
    let mut feeders = Vec::new();
    for lane in 0..K {
        feeders.push(prog.add_stage(
            format!("feed{lane}"),
            map_stage(move |buf: &mut Buffer, _ctx: &mut StageCtx| {
                buf.meta = lane as u64;
                Ok(())
            }),
        ));
    }
    let s2 = Arc::clone(&seen);
    let tally = prog.add_virtual_stage(
        "tally",
        map_stage(move |buf, _ctx| {
            s2.lock().unwrap()[buf.meta as usize] += 1;
            Ok(())
        }),
    );
    for (lane, feeder) in feeders.iter().enumerate() {
        prog.add_pipeline(
            PipelineCfg::new(format!("p{lane}"), 2, 8).rounds(Rounds::Count(ROUNDS)),
            &[*feeder, tally],
        )
        .unwrap();
    }
    let report = prog.run().unwrap();
    for (lane, &count) in seen.lock().unwrap().iter().enumerate() {
        assert_eq!(count, ROUNDS, "lane {lane}");
    }
    // K feeder threads + 1 virtual tally.
    assert_eq!(report.threads_spawned, K + 1);
}

/// Two virtual stages chained: the queue between them is also shared.
#[test]
fn two_virtual_stages_in_chain() {
    const K: usize = 4;
    const ROUNDS: u64 = 12;
    let total = Arc::new(AtomicU64::new(0));

    let mut prog = Program::new("doublevirtual");
    let stamp = prog.add_virtual_stage(
        "stamp",
        map_stage(|buf: &mut Buffer, _ctx: &mut StageCtx| {
            buf.meta = buf.round() + 1;
            Ok(())
        }),
    );
    let t2 = Arc::clone(&total);
    let add = prog.add_virtual_stage(
        "add",
        map_stage(move |buf, _ctx| {
            t2.fetch_add(buf.meta, Ordering::Relaxed);
            Ok(())
        }),
    );
    for lane in 0..K {
        prog.add_pipeline(
            PipelineCfg::new(format!("p{lane}"), 2, 8).rounds(Rounds::Count(ROUNDS)),
            &[stamp, add],
        )
        .unwrap();
    }
    let report = prog.run().unwrap();
    // Each lane contributes sum(1..=ROUNDS).
    let per_lane = ROUNDS * (ROUNDS + 1) / 2;
    assert_eq!(total.load(Ordering::Relaxed), K as u64 * per_lane);
    // The 2 virtual stages, whatever K is.
    assert_eq!(report.threads_spawned, 2);
}

/// ctx.stop() on a Count pipeline cuts it short cleanly.
#[test]
fn early_stop_on_counted_pipeline() {
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&seen);
    let mut prog = Program::new("earlystop");
    let taker = prog.add_stage(
        "taker",
        Box::new(move |ctx: &mut StageCtx| {
            let pid = ctx.pipelines().next().unwrap();
            while let Some(buf) = ctx.accept()? {
                let n = s2.fetch_add(1, Ordering::Relaxed) + 1;
                ctx.convey(buf)?;
                if n == 5 {
                    ctx.stop(pid)?;
                    return Ok(());
                }
            }
            Ok(())
        }) as Box<dyn Stage>,
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 2, 8).rounds(Rounds::Count(1_000_000)),
        &[taker],
    )
    .unwrap();
    prog.run().unwrap();
    let n = seen.load(Ordering::Relaxed);
    assert!((5..20).contains(&n), "took {n} buffers before stop");
}

/// A stage can discard every buffer (acting as a pure consumer feeding
/// nothing downstream) and the pipeline still terminates.
#[test]
fn discard_only_stage() {
    let mut prog = Program::new("discard");
    let eat = prog.add_stage(
        "eat",
        Box::new(move |ctx: &mut StageCtx| {
            while let Some(buf) = ctx.accept()? {
                ctx.discard(buf)?;
            }
            Ok(())
        }) as Box<dyn Stage>,
    );
    let count = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&count);
    let after = prog.add_stage(
        "after",
        map_stage(move |_, _| {
            c2.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 3, 8).rounds(Rounds::Count(30)),
        &[eat, after],
    )
    .unwrap();
    prog.run().unwrap();
    // Everything was discarded upstream; `after` sees only the caboose.
    assert_eq!(count.load(Ordering::Relaxed), 0);
}

/// Intersecting + virtual at once: the dsort pass-2 shape, standalone —
/// virtual feeders into a common collector that also owns an output
/// pipeline, all buffer counts preserved.
#[test]
fn virtual_feeders_into_common_collector() {
    const K: usize = 8;
    const ROUNDS: u64 = 10;

    struct Collector {
        got: Arc<AtomicU64>,
    }
    impl Stage for Collector {
        fn run(&mut self, ctx: &mut StageCtx) -> fg_core::Result<()> {
            let pids: Vec<_> = ctx.pipelines().collect();
            let (ins, out) = pids.split_at(pids.len() - 1);
            let out = out[0];
            let mut emitted = 0u64;
            for &p in ins {
                while let Some(buf) = ctx.accept_from(p)? {
                    self.got.fetch_add(1, Ordering::Relaxed);
                    ctx.discard(buf)?;
                    // Emit one output buffer per 4 inputs.
                    if self.got.load(Ordering::Relaxed).is_multiple_of(4) {
                        if let Some(ob) = ctx.accept_from(out)? {
                            ctx.convey(ob)?;
                            emitted += 1;
                        }
                    }
                }
            }
            ctx.stop(out)?;
            let _ = emitted;
            Ok(())
        }
    }

    let got = Arc::new(AtomicU64::new(0));
    let outs = Arc::new(AtomicU64::new(0));
    let mut prog = Program::new("combined");
    let feed = prog.add_virtual_stage("feed", map_stage(|_, _| Ok(())));
    let collect = prog.add_stage(
        "collect",
        Box::new(Collector {
            got: Arc::clone(&got),
        }),
    );
    let o2 = Arc::clone(&outs);
    let drain = prog.add_stage(
        "drain",
        map_stage(move |_, _| {
            o2.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }),
    );
    for lane in 0..K {
        prog.add_pipeline(
            PipelineCfg::new(format!("v{lane}"), 2, 8).rounds(Rounds::Count(ROUNDS)),
            &[feed, collect],
        )
        .unwrap();
    }
    prog.add_pipeline(
        PipelineCfg::new("out", 2, 8).rounds(Rounds::UntilStopped),
        &[collect, drain],
    )
    .unwrap();
    prog.run().unwrap();
    assert_eq!(got.load(Ordering::Relaxed), K as u64 * ROUNDS);
    assert_eq!(outs.load(Ordering::Relaxed), K as u64 * ROUNDS / 4);
}

/// The same stage at different positions in two pipelines (first in one,
/// second in the other).
#[test]
fn common_stage_at_different_positions() {
    let hits = Arc::new(AtomicU64::new(0));
    let mut prog = Program::new("positions");
    let pre = prog.add_stage("pre", map_stage(|_, _| Ok(())));
    let h2 = Arc::clone(&hits);
    let shared = prog.add_stage(
        "shared",
        Box::new(move |ctx: &mut StageCtx| {
            let pids: Vec<_> = ctx.pipelines().collect();
            for &p in &pids {
                while let Some(buf) = ctx.accept_from(p)? {
                    h2.fetch_add(1, Ordering::Relaxed);
                    ctx.convey(buf)?;
                }
            }
            Ok(())
        }) as Box<dyn Stage>,
    );
    prog.add_pipeline(PipelineCfg::new("a", 2, 8).count(6), &[shared])
        .unwrap();
    prog.add_pipeline(PipelineCfg::new("b", 2, 8).count(7), &[pre, shared])
        .unwrap();
    prog.run().unwrap();
    assert_eq!(hits.load(Ordering::Relaxed), 13);
}
