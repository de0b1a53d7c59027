//! dsort pass 2: merging, load-balancing, and striping (§V, Figure 7).
//!
//! Each node merges its sorted runs into one stream and the streams are
//! re-striped across the cluster, with both FG extensions at work:
//!
//! * **k intersecting vertical pipelines**, one a sorted run, feed the common
//!   **merge stage**.  Their `read` stages are **virtual** — one thread,
//!   however many runs pass 1 produced (§IV, Figure 5(b)) — and their
//!   buffers small, the horizontal pipeline's large.
//! * The merge stage works its lanes in place ([`Merge`]) and fills
//!   horizontal buffers with globally ranked output (ranks `[offset,
//!   offset + n)`, `offset` from an exchange of partition sizes), each
//!   ending on a PDM stripe boundary: the first is cut short where `offset`
//!   falls inside a stripe block, every later one is a whole block.  A
//!   horizontal buffer is laid out as its message, so the **send stage**
//!   hands its storage to the block's owner, behind its offset in the
//!   owner's stripe file, and a **disjoint receive pipeline** (`receive →
//!   write`) takes each message whole as its buffer and writes it where it
//!   says: between the merge and the write no byte is copied.

use std::cell::RefCell;
use std::sync::Arc;

use fg_core::{map_stage, Buffer, FgError, PipelineCfg, Rounds, Stage, StageCtx};
use fg_pdm::Striping;

use crate::driver::Node;
use crate::dsort::pass1::{run_offsets, RUNS_FILE};
use crate::merge::Merge;
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
    let merge = prog.add_stage(
        "merge",
        Box::new(move |ctx: &mut StageCtx| {
            // `None` here is a stage error upstream tearing the program down.
            let stopped = || FgError::Usage("merge: horizontal pipeline stopped early".into());
            let mut pipes: Vec<_> = ctx.pipelines().collect();
            let merged = pipes.pop().ok_or_else(stopped)?;
            // The verticals' buffers are the lanes: a spent one goes back
            // to its read stage.
            let ctx = RefCell::new(ctx);
            let next = |lane, spent: Option<Buffer>| {
                let mut ctx = ctx.borrow_mut();
                spent.map_or(Ok(()), |buf| ctx.discard(buf))?;
                ctx.accept_from(pipes[lane])
            };
            let mut merge = Merge::new(fmt, pipes.len(), next);
            // A message's piece starts at global byte offset `goff` and ends
            // at the output's next stripe boundary at the latest: one
            // message, one write.
            let mut goff = rank_offset * rb as u64;
            loop {
                let mut out = ctx.borrow_mut().accept_from(merged)?.ok_or_else(stopped)?;
                let room = block - (goff % block as u64) as usize;
                let n = merge.fill(&mut out.space_mut()[MSG_HEADER..][..room])?;
                out.set_filled(MSG_HEADER + n);
                out.meta = goff;
                goff += n as u64;
                match n {
                    0 => ctx.borrow_mut().discard(out)?,
                    _ => ctx.borrow_mut().convey(out)?,
                }
                if n < room {
                    break;
                }
            }
            ctx.borrow_mut().stop(merged)?;
            Ok(())
        }) as Box<dyn Stage>,
    );

    // ---- horizontal send stage ----
    // A buffer is one stripe piece behind its header: it goes whole to the
    // block's owner as the message's own storage, with its trace id.
    let send = prog.add_stage(
        "send",
        stages::fabric_stage(node.comm.clone(), move |comm, ctx| {
            while let Some(mut buf) = ctx.accept()? {
                let goff = buf.meta;
                debug_assert!(goff as usize % block + buf.len() - MSG_HEADER <= block);
                let (owner, local) = striping.locate_byte(goff);
                let header = &mut buf.space_mut()[..MSG_HEADER];
                header[0] = stages::MSG_DATA;
                header[1..].copy_from_slice(&local.to_le_bytes());
                comm.send_buffer(owner, TAG_PASS2, &mut buf)
                    .map_err(SortError::from)?;
                ctx.convey(buf)?;
            }
            stages::send_done(comm, TAG_PASS2)
        }),
    );

    // ---- receive pipeline ----
    // A message lands whole: the buffer trades storage with it, and the
    // storage the buffer had goes back, whole, to the sender's pool.
    let receive = prog.add_stage(
        "receive",
        stages::receive_stage(node.comm.clone(), TAG_PASS2, |buf, payload, at| {
            if !buf.is_empty() {
                return Ok(at);
            }
            if payload.capacity() != buf.capacity() {
                return Err(SortError::Corrupt("pass-2 message of a foreign size".into()).into());
            }
            buf.fill_to_capacity();
            buf.exchange(payload);
            Ok(payload.len())
        }),
    );

    // A buffer is one message, so one positioned write.
    let write_disk = Arc::clone(disk);
    let write = prog.add_stage(
        "write",
        map_stage(move |buf, _ctx| {
            let message = buf.filled().get(1..).and_then(<[u8]>::split_first_chunk);
            let Some((local, piece)) = message else {
                return Err(SortError::Corrupt("short pass-2 data message".into()).into());
            };
            write_disk
                .write_at(OUTPUT_FILE, u64::from_le_bytes(*local), piece)
                .map_err(SortError::from)?;
            Ok(())
        }),
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
    // Both horizontal pipelines' buffers are laid out as messages.  A
    // receive buffer is one message, so twice as many of them keep as many
    // messages landed and not yet written as a buffer for two did.
    let pools = [(1, "merged", [merge, send]), (2, "recv", [receive, write])];
    for (times, name, chain) in pools {
        prog.add_pipeline(
            PipelineCfg::new(name, times * cfg.pipeline_buffers, payload_bytes)
                .rounds(Rounds::UntilStopped),
            &chain,
        )?;
    }
    let threads = node.run(prog)?.threads_spawned;
    node.disk.delete(RUNS_FILE); // its last reader
    Ok(threads)
}

/// A message's header: the kind byte and the piece's offset in its owner's
/// stripe file.  [`stages::payload_bytes`] is this and a block.
const MSG_HEADER: usize = 9;
