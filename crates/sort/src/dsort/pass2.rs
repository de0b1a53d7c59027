//! dsort pass 2: merging, load-balancing, and striping (§V, Figure 7).
//!
//! Each node merges its sorted runs into one sorted stream and the streams
//! are re-striped across the cluster.  The pipeline structure combines both
//! FG extensions:
//!
//! * **k intersecting vertical pipelines** — one per sorted run — feed the
//!   common **merge stage**.  Their `read` stages are **virtual**: FG runs
//!   all of them (and their sources and sinks) on three shared threads, no
//!   matter how many runs pass 1 produced (§IV, Figure 5(b)).  Vertical
//!   buffers are small; the single horizontal pipeline's buffers are large
//!   (§IV: "buffers in the vertical pipelines might be relatively small ...
//!   the horizontal pipeline's can be much larger").
//! * The merge stage fills horizontal buffers with globally-ranked output
//!   (this node's merged stream covers ranks `[offset, offset + n)` where
//!   `offset` comes from an exchange of partition sizes) and a **send
//!   stage** splits each buffer along PDM stripe boundaries and doles the
//!   pieces out — unbalanced communication again, so a **disjoint receive
//!   pipeline** (`receive → write`) accepts whatever stripe pieces arrive
//!   and writes them to the local stripe file.

use std::sync::Arc;

use fg_core::{map_stage, Buffer, FgError, PipelineCfg, Rounds, Stage, StageCtx};
use fg_pdm::Striping;

use crate::chunks::{self, CHUNK_HEADER_BYTES};
use crate::driver::Node;
use crate::dsort::pass1::{run_offsets, RUNS_FILE};
use crate::merge::LoserTree;
use crate::stages;
use crate::verify::OUTPUT_FILE;
use crate::SortError;

/// Message tag for pass-2 traffic: a stripe piece travels behind its 8-byte
/// global offset.
pub const TAG_PASS2: u64 = 0x0D50_0002;

/// Run pass 2 on `node`; returns the OS threads its FG program spawned
/// (experiment A2 measures how virtual stages keep this flat as the run
/// count grows).  `run_lens` are this node's sorted run lengths from pass
/// 1; `rank_offset` is the global rank of this node's first merged record.
pub fn pass2(
    node: &mut Node,
    run_lens: &[u64],
    rank_offset: u64,
    use_virtual_reads: bool,
) -> Result<usize, SortError> {
    let cfg = &node.cfg;
    let disk = &node.disk;
    let rb = cfg.record.record_bytes;
    let k = run_lens.len();
    let vert_buf = cfg.vertical_buf_bytes;
    let striping = Striping::new(cfg.nodes, cfg.block_bytes);

    let mut prog = node.program("dsort-p2");

    // ---- vertical read stage(s) ----
    // Run j occupies bytes [run_off[j], run_off[j] + run_lens[j]) of the
    // runs file; the read stage streams it in vertical-buffer chunks.
    let run_off = run_offsets(run_lens);

    let make_reader = |lane_fixed: Option<usize>| {
        let disk = Arc::clone(disk);
        let run_off = run_off.clone();
        let run_lens = run_lens.to_vec();
        let mut cursors = vec![0u64; k];
        map_stage(move |buf: &mut Buffer, ctx: &mut StageCtx| {
            let lane = match lane_fixed {
                Some(l) => l,
                None => ctx.lane(buf.pipeline())?,
            };
            let want = (vert_buf as u64).min(run_lens[lane] - cursors[lane]) as usize;
            disk.read_at(
                RUNS_FILE,
                run_off[lane] + cursors[lane],
                &mut buf.space_mut()[..want],
            )
            .map_err(SortError::from)?;
            cursors[lane] += want as u64;
            buf.set_filled(want);
            Ok(())
        })
    };

    let read_ids: Vec<_> = if use_virtual_reads {
        if k > 0 {
            vec![prog.add_virtual_stage("read", make_reader(None))]
        } else {
            vec![]
        }
    } else {
        (0..k)
            .map(|j| prog.add_stage(format!("read{j}"), make_reader(Some(j))))
            .collect()
    };

    // ---- merge stage (common to all verticals + the horizontal) ----
    let fmt = cfg.record;
    let batch_hist = cfg
        .metrics
        .as_ref()
        .map(|r| r.histogram("kernel/merge_batch_records"));
    let merge = prog.add_stage(
        "merge",
        Box::new(move |ctx: &mut StageCtx| {
            let pids: Vec<_> = ctx.pipelines().collect();
            let (verticals, horizontal) = pids.split_at(pids.len() - 1);
            let verticals = verticals.to_vec();
            let horizontal = horizontal[0];
            let k = verticals.len();

            // Current head buffer + byte offset per vertical.
            let mut heads: Vec<Option<(Buffer, usize)>> = Vec::with_capacity(k);
            let next_head = |ctx: &mut StageCtx,
                             v: fg_core::PipelineId|
             -> fg_core::Result<Option<(Buffer, usize)>> {
                loop {
                    match ctx.accept_from(v)? {
                        None => return Ok(None),
                        Some(b) if b.is_empty() => ctx.discard(b)?,
                        Some(b) => return Ok(Some((b, 0))),
                    }
                }
            };
            for &v in &verticals {
                let h = next_head(ctx, v)?;
                heads.push(h);
            }
            let mut tree = (k > 0).then(|| {
                LoserTree::new(
                    heads
                        .iter()
                        .map(|h| h.as_ref().map(|(b, off)| fmt.key(&b.filled()[*off..]))),
                )
            });

            // `None` here is a stage error upstream tearing the program down.
            let stopped = || FgError::Usage("merge: horizontal pipeline stopped early".into());
            let mut out = ctx.accept_from(horizontal)?.ok_or_else(stopped)?;
            out.clear();
            let mut produced = 0u64; // records emitted so far
            out.meta = rank_offset; // global rank of this buffer's first record

            let mut policy = crate::merge::BatchPolicy::new();
            while let Some((lane, _)) = tree.as_ref().and_then(|t| t.winner()) {
                let (buf, off) = heads[lane].take().expect("winner lane has a head");
                // MergeRun fast path: emit every buffered record of this
                // lane that still beats the tree's runner-up in one copy,
                // capped by the output buffer's space, instead of one
                // record (and one tree replay) at a time.  The policy
                // backs off to scalar steps while the runs interleave too
                // finely to batch.
                let avail = &buf.filled()[off..];
                let run = policy.merge_run(tree.as_ref().expect("tree exists"), fmt, avail);
                let n = run.min(out.remaining() / rb).max(1);
                out.append(&avail[..n * rb]);
                if let Some(h) = &batch_hist {
                    h.record(n as u64);
                }
                produced += n as u64;
                let noff = off + n * rb;
                if noff < buf.len() {
                    heads[lane] = Some((buf, noff));
                } else {
                    ctx.discard(buf)?;
                    heads[lane] = next_head(ctx, verticals[lane])?;
                }
                let next_key = heads[lane]
                    .as_ref()
                    .map(|(b, o)| fmt.key(&b.filled()[*o..]));
                tree.as_mut().expect("tree exists").replace(lane, next_key);

                if out.remaining() == 0 {
                    ctx.convey(out)?;
                    out = ctx.accept_from(horizontal)?.ok_or_else(stopped)?;
                    out.clear();
                    out.meta = rank_offset + produced;
                }
            }
            if out.is_empty() {
                ctx.discard(out)?;
            } else {
                ctx.convey(out)?;
            }
            ctx.stop(horizontal)?;
            Ok(())
        }) as Box<dyn Stage>,
    );

    // ---- horizontal send stage ----
    let send = prog.add_stage(
        "send",
        stages::send_stage(node.comm.clone(), TAG_PASS2, move |buf, emit| {
            let goff = buf.meta * rb as u64;
            let data = buf.filled();
            for (dest, _local, range) in striping.split_range_iter(goff, data.len()) {
                let piece_off = (goff + range.start as u64).to_le_bytes();
                emit(dest, &piece_off, &data[range])?;
            }
            Ok(())
        }),
    );

    // ---- receive pipeline ----
    // A stripe piece lands whole, as a `(global offset, piece)` chunk, or
    // waits for the next buffer.
    let receive = prog.add_stage(
        "receive",
        stages::receive_stage(node.comm.clone(), TAG_PASS2, |buf, payload, at| {
            let Some((goff, data)) = payload[1..].split_first_chunk::<8>() else {
                return Err(SortError::Corrupt("short pass-2 data message".into()).into());
            };
            if chunks::chunk_size(data.len()) > buf.remaining() {
                return Ok(at);
            }
            chunks::append_chunk(buf, u64::from_le_bytes(*goff), 0, data);
            Ok(payload.len())
        }),
    );

    let write = prog.add_stage(
        "write",
        stages::write_stage(disk, OUTPUT_FILE, Some((striping, node.rank))),
    );

    // ---- pipelines ----
    for (j, &len) in run_lens.iter().enumerate() {
        let rounds = len.div_ceil(vert_buf as u64);
        let stage = if use_virtual_reads {
            read_ids[0]
        } else {
            read_ids[j]
        };
        prog.add_pipeline(
            PipelineCfg::new(format!("run{j}"), cfg.vertical_buffers, vert_buf)
                .rounds(Rounds::Count(rounds)),
            &[stage, merge],
        )?;
    }
    prog.add_pipeline(
        PipelineCfg::new("merged", cfg.pipeline_buffers, cfg.block_bytes)
            .rounds(Rounds::UntilStopped),
        &[merge, send],
    )?;
    let recv_buf = 2 * cfg.block_bytes + 2 * CHUNK_HEADER_BYTES + 64;
    prog.add_pipeline(
        PipelineCfg::new("recv", cfg.pipeline_buffers, recv_buf).rounds(Rounds::UntilStopped),
        &[receive, write],
    )?;
    Ok(node.run(prog)?.threads_spawned)
}
