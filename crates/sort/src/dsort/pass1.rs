//! dsort pass 1: partitioning and distribution (§V, Figure 6).
//!
//! Communication in this pass is *unbalanced*: how much a node sends at any
//! moment almost certainly differs from how much it receives.  Each node
//! therefore runs **two disjoint FG pipelines**:
//!
//! * the **send pipeline** `read → permute → send` streams the node's local
//!   input: the permute stage groups each block's records by destination
//!   partition (splitters compared against *extended* keys; one scatter into
//!   the stage's auxiliary buffer and one copy back), and the send stage
//!   doles the groups out to their target nodes in payloads from the
//!   fabric's fixed population, blocking when all of them are in flight;
//! * the **receive pipeline** `receive → sort → write` assembles incoming
//!   records into run-sized buffers straight from the received payloads,
//!   sorts each (by the original, non-extended keys), and appends it to the
//!   node's run file — one sorted run per buffer, the buffers as long as
//!   the node's pool budget allows ([`plan`](super::plan)).
//!
//! The pipelines progress at independent rates; only messages connect them.
//! The receive pipeline's length is data-dependent, so it runs
//! `UntilStopped`: after a `DONE` marker from every sender and with no
//! partly consumed message left, the receive stage conveys the final partial
//! run and stops the pipeline.

use std::sync::Arc;

use fg_cluster::{Communicator, Message};
use fg_core::{map_stage, PipelineCfg, Program, Rounds, Stage, StageCtx};
use fg_pdm::DiskRef;
use parking_lot::Mutex;

use crate::chunks::{self, Scatter, CHUNK_HEADER_BYTES};
use crate::config::SortConfig;
use crate::input::INPUT_FILE;
use crate::record::{partition_of, ExtKey};
use crate::SortError;

/// Message tag for pass-1 traffic.
pub const TAG_PASS1: u64 = 0x0D50_0001;
/// First payload byte: record data follows.
pub const MSG_DATA: u8 = 0;
/// First payload byte: the sender has finished pass 1.
pub const MSG_DONE: u8 = 1;

/// Name of the file holding this node's sorted runs.
pub const RUNS_FILE: &str = "dsort_runs";

/// Outcome of pass 1 on one node.
#[derive(Debug, Clone)]
pub struct Pass1Out {
    /// Byte length of each sorted run, in file order.
    pub run_lens: Vec<u64>,
    /// Records this node's partition received.
    pub received_records: u64,
    /// OS threads the pass's FG program spawned.
    pub threads: usize,
    /// The FG report of this node's pass-1 program.
    pub report: fg_core::Report,
}

/// Run pass 1 on node `rank`, writing sorted runs of `run_len` bytes (the
/// node's last one may be shorter).
pub fn pass1(
    cfg: &SortConfig,
    rank: usize,
    comm: &Communicator,
    disk: &DiskRef,
    splitters: &[ExtKey],
    run_len: usize,
) -> Result<Pass1Out, SortError> {
    let nodes = cfg.nodes;
    let rb = cfg.record.record_bytes;
    let input_bytes = cfg.bytes_per_node() as usize;
    let nblocks = input_bytes.div_ceil(cfg.block_bytes) as u64;
    let send_buf = cfg.block_bytes + nodes * CHUNK_HEADER_BYTES + 64;

    // The runs file ends as this node's partition.  Splitters from an
    // oversample keep a partition within a fifth of the mean, so a third of
    // slack spares an in-memory disk every regrowth of the file.
    disk.reserve(RUNS_FILE, cfg.bytes_per_node() + cfg.bytes_per_node() / 3);

    let mut prog = Program::new(format!("dsort-p1-n{rank}"));
    cfg.instrument(&mut prog);

    // ---- send pipeline ----
    let read_disk = Arc::clone(disk);
    let block_bytes = cfg.block_bytes;
    let read = prog.add_stage(
        "read",
        map_stage(move |buf, _ctx| {
            let off = buf.round() * block_bytes as u64;
            let want = block_bytes.min(input_bytes - off as usize);
            read_disk
                .read_at(INPUT_FILE, off, &mut buf.space_mut()[..want])
                .map_err(SortError::from)?;
            buf.set_filled(want);
            Ok(())
        }),
    );

    let permute = prog.add_stage("permute", permute_stage(cfg, rank, splitters.to_vec()));
    let send = prog.add_stage("send", send_stage(comm.clone(), TAG_PASS1));

    // ---- receive pipeline ----
    let receive = prog.add_stage("receive", receive_stage(comm.clone(), TAG_PASS1));
    let sort = prog.add_stage("sort", crate::csort::sort_stage(cfg));

    let run_lens = Arc::new(Mutex::new(Vec::<u64>::new()));
    let rl = Arc::clone(&run_lens);
    let write_disk = Arc::clone(disk);
    let write = prog.add_stage(
        "write",
        map_stage(move |buf, _ctx| {
            write_disk
                .append(RUNS_FILE, buf.filled())
                .map_err(SortError::from)?;
            rl.lock().push(buf.len() as u64);
            Ok(())
        }),
    );

    prog.add_pipeline(
        PipelineCfg::new("send", cfg.pipeline_buffers, send_buf).rounds(Rounds::Count(nblocks)),
        &[read, permute, send],
    )?;
    prog.add_pipeline(
        PipelineCfg::new("recv", cfg.pipeline_buffers, run_len).rounds(Rounds::UntilStopped),
        &[receive, sort, write],
    )?;
    let report = prog.run()?;
    // Write barrier: pass 2 reads the run file this pass appended behind
    // any write-behind queue; surface deferred errors here.
    disk.flush().map_err(SortError::from)?;

    // Every record received went into exactly one run.
    let run_lens = run_lens.lock().clone();
    let received_records = run_lens.iter().sum::<u64>() / rb as u64;
    Ok(Pass1Out {
        run_lens,
        received_records,
        threads: report.threads_spawned,
        report,
    })
}

/// The permute stage of a send pipeline: rewrite each block as
/// `(destination, records)` chunks, a record's destination being the
/// partition of its extended key among `splitters`.
pub(crate) fn permute_stage(
    cfg: &SortConfig,
    rank: usize,
    splitters: Vec<ExtKey>,
) -> Box<dyn Stage> {
    let fmt = cfg.record;
    let records_per_block = cfg.records_per_block() as u64;
    let mut scatter = Scatter::new(cfg.nodes);
    map_stage(move |buf, ctx| {
        let base_seq = buf.round() * records_per_block;
        let aux = ctx.aux(scatter.max_len(buf.len()));
        let len = scatter.scatter(buf.filled(), fmt.record_bytes, aux, |i, rec| {
            let e = ExtKey {
                key: fmt.key(rec),
                node: rank as u32,
                seq: base_seq + i as u64,
            };
            partition_of(&splitters, e)
        });
        buf.copy_from(&aux[..len]);
        Ok(())
    })
}

/// A stage that talks to the fabric.  If `body` ends in an error — its own
/// or the cancellation of its program after another stage failed — the stage
/// poisons the fabric on its way out.  The node is lost either way, and its
/// node function cannot say so while the program's other fabric stage, or a
/// peer's, is still blocked on a message or a credit this stage owed it.
pub fn fabric_stage(
    comm: Communicator,
    mut body: impl FnMut(&Communicator, &mut StageCtx) -> fg_core::Result<()> + Send + 'static,
) -> Box<dyn Stage> {
    Box::new(move |ctx: &mut StageCtx| {
        let result = body(&comm, ctx);
        if result.is_err() {
            comm.poison();
        }
        result
    })
}

/// The send stage of a send pipeline whose buffers hold `(destination,
/// bytes)` chunks: each chunk travels to its destination as one `DATA`
/// message under `tag`, in a payload from the fabric's fixed population —
/// so the stage blocks, and allocates nothing, while all of this node's
/// payloads are in flight.  After the last buffer every node gets a `DONE`
/// marker, a plain message that needs no credit.
pub fn send_stage(comm: Communicator, tag: u64) -> Box<dyn Stage> {
    fabric_stage(comm, move |comm, ctx| {
        while let Some(buf) = ctx.accept()? {
            // Propagate the buffer's trace id with each chunk so the
            // receiving rank's comm-recv span joins this buffer's flow
            // in the merged Chrome export.
            let trace_id = buf.trace_id();
            for chunk in chunks::iter_chunks(buf.filled()) {
                let chunk = chunk?;
                let mut payload = comm.payload().map_err(SortError::from)?;
                // No message outgrows the buffer it is cut from: sizing every
                // payload for that once means none is ever reallocated.
                payload.reserve_exact(buf.capacity());
                payload.push(MSG_DATA);
                payload.extend_from_slice(chunk.data);
                comm.send_traced(chunk.a as usize, tag, payload, trace_id)
                    .map_err(SortError::from)?;
            }
            ctx.convey(buf)?;
        }
        // All local input distributed: tell every node.
        for dst in 0..comm.nodes() {
            comm.send(dst, tag, vec![MSG_DONE])
                .map_err(SortError::from)?;
        }
        Ok(())
    })
}

/// The receive stage of a receive pipeline: packs the bytes of arriving
/// `DATA` messages densely into the pipeline's buffers until every node's
/// `DONE` marker has arrived, then conveys the last partial buffer and
/// stops the pipeline.  A message that straddles two buffers is kept, with
/// the offset reached, while the next buffer is fetched; dropping a message
/// once it is consumed hands its payload back to the sender.
pub fn receive_stage(comm: Communicator, tag: u64) -> Box<dyn Stage> {
    fabric_stage(comm, move |comm, ctx| {
        let pid = ctx.pipelines().next().expect("receive pipeline");
        let nodes = comm.nodes();
        // A message and how many of its bytes are consumed.
        let mut partial: Option<(Message, usize)> = None;
        let mut dones = 0usize;
        loop {
            let mut buf = match ctx.accept()? {
                Some(b) => b,
                None => return Ok(()),
            };
            buf.clear();
            while buf.remaining() > 0 {
                if let Some((msg, at)) = partial.take() {
                    let at = at + buf.append(&msg.payload[at..]);
                    if at < msg.payload.len() {
                        partial = Some((msg, at));
                    }
                    continue;
                }
                if dones == nodes {
                    break;
                }
                let msg = comm.recv(None, tag).map_err(SortError::from)?;
                match msg.payload.first() {
                    Some(&MSG_DONE) => dones += 1,
                    Some(&MSG_DATA) => partial = Some((msg, 1)),
                    _ => return Err(SortError::Corrupt("empty data message".into()).into()),
                }
            }
            if buf.is_empty() {
                ctx.discard(buf)?;
            } else {
                ctx.convey(buf)?;
            }
            if dones == nodes && partial.is_none() {
                ctx.stop(pid)?;
                return Ok(());
            }
        }
    })
}
