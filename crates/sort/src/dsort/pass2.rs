//! dsort pass 2: merging, load-balancing, and striping (§V, Figure 7).
//!
//! Each node merges its sorted runs into one stream and the streams are
//! re-striped across the cluster, with both FG extensions at work:
//!
//! * **k intersecting vertical pipelines**, one a sorted run, feed the common
//!   **merge stage**.  Their `read` stages are **virtual** — one thread,
//!   however many runs pass 1 produced (§IV, Figure 5(b)) — and their
//!   buffers small, the horizontal pipeline's large.
//! * The merge stage fills horizontal buffers with globally ranked output
//!   (ranks `[offset, offset + n)`, `offset` from an exchange of partition
//!   sizes) and ends each on a PDM stripe boundary: the first is cut short
//!   where `offset` falls inside a stripe block, every later one is a whole
//!   block.  The **send stage** sends each to its block's owner as one
//!   message behind its offset in the owner's stripe file — unbalanced
//!   communication again, so a **disjoint receive pipeline** (`receive →
//!   write`) takes whatever pieces arrive and writes them where they say.

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
/// offset in its owner's stripe file.
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
    let block = cfg.block_bytes;
    let payload_bytes = stages::payload_bytes(cfg);
    let striping = Striping::new(cfg.nodes, block);

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
            // `None` here is a stage error upstream tearing the program down.
            let stopped = || FgError::Usage("merge: horizontal pipeline stopped early".into());
            let mut verticals: Vec<_> = ctx.pipelines().collect();
            let horizontal = verticals.pop().ok_or_else(stopped)?;
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
                heads.push(next_head(ctx, v)?);
            }
            let head_key = |head: &Option<(Buffer, usize)>| {
                let (buf, off) = head.as_ref()?;
                Some(fmt.key(&buf.filled()[*off..]))
            };
            // A node that received nothing merges one exhausted lane.
            let mut keys: Vec<_> = heads.iter().map(head_key).collect();
            keys.resize(k.max(1), None);
            let mut tree = LoserTree::new(keys);

            let mut out = ctx.accept_from(horizontal)?.ok_or_else(stopped)?;
            out.clear();
            // A buffer starts at global byte offset `goff` and ends `room` bytes
            // on, at the output's next stripe boundary: one message, one write.
            let mut goff = rank_offset * rb as u64;
            let mut room = block - (goff % block as u64) as usize;
            out.meta = goff;

            let mut policy = crate::merge::BatchPolicy::new();
            while let Some((lane, _)) = tree.winner() {
                let (buf, off) = heads[lane]
                    .take()
                    .ok_or_else(|| FgError::Usage("merge: the winning run has no buffer".into()))?;
                // MergeRun fast path: emit every buffered record of this
                // lane that still beats the tree's runner-up in one copy,
                // capped by the room left in the stripe block, instead of one
                // record (and one tree replay) at a time.  The policy
                // backs off to scalar steps while the runs interleave too
                // finely to batch.
                let avail = &buf.filled()[off..];
                let run = policy.merge_run(&tree, fmt, avail);
                let n = run.min(room / rb).max(1);
                out.append(&avail[..n * rb]);
                if let Some(h) = &batch_hist {
                    h.record(n as u64);
                }
                room -= n * rb;
                let noff = off + n * rb;
                if noff < buf.len() {
                    heads[lane] = Some((buf, noff));
                } else {
                    ctx.discard(buf)?;
                    heads[lane] = next_head(ctx, verticals[lane])?;
                }
                tree.replace(lane, head_key(&heads[lane]));

                if room == 0 {
                    (goff, room) = (goff + out.len() as u64, block);
                    ctx.convey(out)?;
                    out = ctx.accept_from(horizontal)?.ok_or_else(stopped)?;
                    out.clear();
                    out.meta = goff;
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
    // A buffer is one stripe piece: it goes whole to the block's owner behind
    // its offset in the owner's stripe file, in a pooled payload, with its
    // trace id.
    let send = prog.add_stage(
        "send",
        stages::fabric_stage(node.comm.clone(), move |comm, ctx| {
            while let Some(buf) = ctx.accept()? {
                let goff = buf.meta;
                debug_assert!(goff as usize % block + buf.len() <= block);
                let (owner, local) = striping.locate_byte(goff);
                let mut payload = comm.payload().map_err(SortError::from)?;
                payload.reserve_exact(payload_bytes);
                payload.push(stages::MSG_DATA);
                payload.extend_from_slice(&local.to_le_bytes());
                payload.extend_from_slice(buf.filled());
                comm.send_traced(owner, TAG_PASS2, payload, buf.trace_id())
                    .map_err(SortError::from)?;
                ctx.convey(buf)?;
            }
            stages::send_done(comm, TAG_PASS2)
        }),
    );

    // ---- receive pipeline ----
    // A stripe piece lands whole, as a `(local offset, piece)` chunk, or
    // waits for the next buffer.
    let receive = prog.add_stage(
        "receive",
        stages::receive_stage(node.comm.clone(), TAG_PASS2, |buf, payload, at| {
            let Some((local, data)) = payload[1..].split_first_chunk::<8>() else {
                return Err(SortError::Corrupt("short pass-2 data message".into()).into());
            };
            if chunks::chunk_size(data.len()) > buf.remaining() {
                return Ok(at);
            }
            chunks::append_chunk(buf, u64::from_le_bytes(*local), 0, data);
            Ok(payload.len())
        }),
    );

    let write = prog.add_stage("write", stages::write_stage(disk, OUTPUT_FILE));

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
    let threads = node.run(prog)?.threads_spawned;
    node.disk.delete(RUNS_FILE); // its last reader
    Ok(threads)
}
