//! Integration tests for FG's extensions (§IV): multiple disjoint
//! pipelines, multiple intersecting pipelines (common stage), and virtual
//! stages / virtual pipelines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fg_core::{map_stage, Buffer, FgError, PipelineCfg, Program, Rounds, StageCtx};

/// Two disjoint pipelines with different buffer counts, sizes, and rates
/// run in one program and both complete (Figure 4's shape, minus the
/// network in between — fg-cluster supplies that).
#[test]
fn disjoint_pipelines_progress_independently() {
    let fast_done = Arc::new(AtomicU64::new(0));
    let slow_done = Arc::new(AtomicU64::new(0));

    let mut prog = Program::new("disjoint");
    let f2 = Arc::clone(&fast_done);
    let fast = prog.add_stage(
        "fast",
        map_stage(move |_, _| {
            f2.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }),
    );
    let s2 = Arc::clone(&slow_done);
    let slow = prog.add_stage(
        "slow",
        map_stage(move |_, _| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            s2.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }),
    );
    prog.add_pipeline(PipelineCfg::new("send", 4, 256).count(200), &[fast])
        .unwrap();
    prog.add_pipeline(PipelineCfg::new("recv", 2, 64).count(50), &[slow])
        .unwrap();
    let report = prog.run().unwrap();

    assert_eq!(fast_done.load(Ordering::Relaxed), 200);
    assert_eq!(slow_done.load(Ordering::Relaxed), 50);
    // One thread a stage.
    assert_eq!(report.threads_spawned, 2);
}

/// k sorted runs of u64s -> one sorted stream, via intersecting pipelines.
/// Exercises both virtual and non-virtual vertical reads.
fn merge_with_fg(runs: Vec<Vec<u64>>, virtual_reads: bool) -> (Vec<u64>, fg_core::Report) {
    const VAL: usize = 8;
    let k = runs.len();
    let vertical_buf_bytes = 4 * VAL; // tiny buffers: 4 values each
    let horizontal_buf_bytes = 16 * VAL;

    let mut prog = Program::new("merge");

    // Shared state the merge stage needs: the pipeline ids, known only
    // after pipelines are added.  Use a OnceLock-style cell.
    #[derive(Default)]
    struct Wiring {
        verticals: Vec<fg_core::PipelineId>,
        horizontal: Option<fg_core::PipelineId>,
    }
    let wiring = Arc::new(parking_lot::Mutex::new(Wiring::default()));

    // Vertical read stages.
    let mut vertical_stage_ids = Vec::new();
    if virtual_reads {
        // One virtual stage serving all k verticals; per-lane cursors.
        let runs2 = runs.clone();
        let wiring2 = Arc::clone(&wiring);
        let mut cursors = vec![0usize; k];
        vertical_stage_ids.push(prog.add_virtual_stage(
            "read",
            map_stage(move |buf: &mut Buffer, _ctx: &mut StageCtx| {
                let lane = wiring2
                    .lock()
                    .verticals
                    .iter()
                    .position(|&p| p == buf.pipeline())
                    .expect("buffer from unknown vertical");
                let run = &runs2[lane];
                let cur = cursors[lane];
                let take = (buf.capacity() / VAL).min(run.len() - cur);
                for (i, v) in run[cur..cur + take].iter().enumerate() {
                    buf.space_mut()[i * VAL..(i + 1) * VAL].copy_from_slice(&v.to_le_bytes());
                }
                buf.set_filled(take * VAL);
                cursors[lane] = cur + take;
                Ok(())
            }),
        ));
    } else {
        for (lane, lane_run) in runs.iter().enumerate().take(k) {
            let run = lane_run.clone();
            let mut cursor = 0usize;
            vertical_stage_ids.push(prog.add_stage(
                format!("read{lane}"),
                map_stage(move |buf: &mut Buffer, _ctx: &mut StageCtx| {
                    let take = (buf.capacity() / VAL).min(run.len() - cursor);
                    for (i, v) in run[cursor..cursor + take].iter().enumerate() {
                        buf.space_mut()[i * VAL..(i + 1) * VAL].copy_from_slice(&v.to_le_bytes());
                    }
                    buf.set_filled(take * VAL);
                    cursor += take;
                    Ok(())
                }),
            ));
        }
    }

    // The common merge stage (custom Stage impl via closure).
    let wiring3 = Arc::clone(&wiring);
    let merge = prog.add_stage(
        "merge",
        Box::new(move |ctx: &mut StageCtx| {
            let (verticals, horizontal) = {
                let w = wiring3.lock();
                (w.verticals.clone(), w.horizontal.unwrap())
            };
            // Accept the next non-empty buffer of a vertical (an empty
            // buffer can occur for an empty run) or None at end of stream.
            fn next_head(
                ctx: &mut StageCtx,
                v: fg_core::PipelineId,
            ) -> fg_core::Result<Option<(Buffer, usize)>> {
                loop {
                    match ctx.accept_from(v)? {
                        None => return Ok(None),
                        Some(b) if b.is_empty() => ctx.discard(b)?,
                        Some(b) => return Ok(Some((b, 0))),
                    }
                }
            }
            let mut heads: Vec<Option<(Buffer, usize)>> = Vec::new();
            for &v in &verticals {
                heads.push(next_head(ctx, v)?);
            }
            let mut out = ctx
                .accept_from(horizontal)?
                .expect("horizontal must supply empty buffers");
            let mut out_len = 0usize;
            loop {
                let mut best: Option<(usize, u64)> = None;
                for (i, h) in heads.iter().enumerate() {
                    if let Some((buf, off)) = h {
                        let v =
                            u64::from_le_bytes(buf.filled()[*off..*off + VAL].try_into().unwrap());
                        if best.map(|(_, bv)| v < bv).unwrap_or(true) {
                            best = Some((i, v));
                        }
                    }
                }
                let (i, v) = match best {
                    Some(b) => b,
                    None => break,
                };
                out.space_mut()[out_len..out_len + VAL].copy_from_slice(&v.to_le_bytes());
                out_len += VAL;
                if out_len == out.capacity() {
                    out.set_filled(out_len);
                    ctx.convey(out)?;
                    out = ctx
                        .accept_from(horizontal)?
                        .expect("horizontal source stopped early");
                    out_len = 0;
                }
                let (buf, off) = heads[i].take().unwrap();
                let noff = off + VAL;
                if noff < buf.len() {
                    heads[i] = Some((buf, noff));
                } else {
                    ctx.discard(buf)?;
                    heads[i] = next_head(ctx, verticals[i])?;
                }
            }
            if out_len > 0 {
                out.set_filled(out_len);
                ctx.convey(out)?;
            } else {
                ctx.discard(out)?;
            }
            ctx.stop(horizontal)?;
            Ok(())
        }),
    );

    // Collector at the end of the horizontal pipeline.
    let collected = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
    let c2 = Arc::clone(&collected);
    let collect = prog.add_stage(
        "collect",
        map_stage(move |buf, _| {
            let mut out = c2.lock();
            for chunk in buf.filled().chunks_exact(VAL) {
                out.push(u64::from_le_bytes(chunk.try_into().unwrap()));
            }
            Ok(())
        }),
    );

    // Wire pipelines.
    {
        let mut w = wiring.lock();
        for lane in 0..k {
            let blocks = runs[lane].len().div_ceil(vertical_buf_bytes / VAL).max(1);
            let stage_id = if virtual_reads {
                vertical_stage_ids[0]
            } else {
                vertical_stage_ids[lane]
            };
            let pid = prog
                .add_pipeline(
                    PipelineCfg::new(format!("v{lane}"), 2, vertical_buf_bytes)
                        .count(blocks as u64),
                    &[stage_id, merge],
                )
                .unwrap();
            w.verticals.push(pid);
        }
        let h = prog
            .add_pipeline(
                PipelineCfg::new("h", 3, horizontal_buf_bytes).rounds(Rounds::UntilStopped),
                &[merge, collect],
            )
            .unwrap();
        w.horizontal = Some(h);
    }

    let report = prog.run().unwrap();
    let result = collected.lock().clone();
    (result, report)
}

fn sorted_run(start: u64, step: u64, len: usize) -> Vec<u64> {
    (0..len as u64).map(|i| start + i * step).collect()
}

#[test]
fn intersecting_pipelines_merge_sorted_runs() {
    let runs = vec![
        sorted_run(0, 3, 40),
        sorted_run(1, 3, 40),
        sorted_run(2, 3, 40),
    ];
    let mut expect: Vec<u64> = runs.iter().flatten().copied().collect();
    expect.sort_unstable();
    let (got, _) = merge_with_fg(runs, false);
    assert_eq!(got, expect);
}

#[test]
fn intersecting_pipelines_with_uneven_runs() {
    let runs = vec![
        sorted_run(0, 1, 100), // long, dense run: consumed fast
        sorted_run(1000, 7, 5),
        vec![], // empty run must not wedge the merge
        sorted_run(0, 50, 33),
    ];
    let mut expect: Vec<u64> = runs.iter().flatten().copied().collect();
    expect.sort_unstable();
    let (got, _) = merge_with_fg(runs, false);
    assert_eq!(got, expect);
}

#[test]
fn virtual_reads_same_result_fewer_threads() {
    let k = 16;
    let runs: Vec<Vec<u64>> = (0..k as u64).map(|i| sorted_run(i, k as u64, 25)).collect();
    let mut expect: Vec<u64> = runs.iter().flatten().copied().collect();
    expect.sort_unstable();

    let (got_nonvirtual, rep_nonvirtual) = merge_with_fg(runs.clone(), false);
    let (got_virtual, rep_virtual) = merge_with_fg(runs, true);
    assert_eq!(got_nonvirtual, expect);
    assert_eq!(got_virtual, expect);

    // Non-virtual: k read stages + merge + collect.  Virtual: 1 read +
    // merge + collect.
    assert_eq!(rep_nonvirtual.threads_spawned, k + 2);
    assert_eq!(rep_virtual.threads_spawned, 3);
}

#[test]
fn virtual_group_requires_counted_rounds() {
    let mut prog = Program::new("bad-virtual");
    let v = prog.add_virtual_stage("v", map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("a", 1, 8).count(1), &[v])
        .unwrap();
    prog.add_pipeline(
        PipelineCfg::new("b", 1, 8).rounds(Rounds::UntilStopped),
        &[v],
    )
    .unwrap();
    let err = prog.run().unwrap_err();
    assert!(matches!(err, FgError::Config(_)), "got {err:?}");
}

#[test]
fn buffers_cannot_jump_pipelines() {
    // A malicious stage tries to convey a buffer from pipeline A into
    // pipeline B's flow by accepting from A and conveying while belonging
    // only to B: convey() must reject a foreign buffer.
    let mut prog = Program::new("jump");
    let thief = prog.add_stage(
        "thief",
        Box::new(move |ctx: &mut StageCtx| {
            let pids: Vec<_> = ctx.pipelines().collect();
            assert_eq!(pids.len(), 2);
            // Take a buffer from pipeline 0 and try to convey it as if it
            // belonged to pipeline 1 — impossible by construction (tags are
            // immutable), so instead check accept()'s multi-pipeline guard.
            let err = ctx.accept().unwrap_err();
            assert!(matches!(err, FgError::Usage(_)));
            // Drain both pipelines properly.
            while let Some(b) = ctx.accept_from(pids[0])? {
                ctx.convey(b)?;
            }
            while let Some(b) = ctx.accept_from(pids[1])? {
                ctx.convey(b)?;
            }
            Ok(())
        }),
    );
    prog.add_pipeline(PipelineCfg::new("a", 1, 8).count(3), &[thief])
        .unwrap();
    prog.add_pipeline(PipelineCfg::new("b", 1, 8).count(3), &[thief])
        .unwrap();
    prog.run().unwrap();
}

#[test]
fn common_stage_sees_both_pipelines_lanes() {
    let mut prog = Program::new("lanes");
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    let common = prog.add_stage(
        "common",
        Box::new(move |ctx: &mut StageCtx| {
            assert_eq!(ctx.lanes(), 2);
            let pids: Vec<_> = ctx.pipelines().collect();
            assert_eq!(ctx.lane(pids[0])?, 0);
            assert_eq!(ctx.lane(pids[1])?, 1);
            for &p in &pids {
                while let Some(b) = ctx.accept_from(p)? {
                    seen2.fetch_add(1, Ordering::Relaxed);
                    ctx.convey(b)?;
                }
            }
            Ok(())
        }),
    );
    prog.add_pipeline(PipelineCfg::new("a", 2, 8).count(5), &[common])
        .unwrap();
    prog.add_pipeline(PipelineCfg::new("b", 2, 8).count(7), &[common])
        .unwrap();
    prog.run().unwrap();
    assert_eq!(seen.load(Ordering::Relaxed), 12);
}
