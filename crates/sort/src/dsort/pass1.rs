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

use fg_core::{PipelineCfg, Rounds};

use crate::chunks::CHUNK_HEADER_BYTES;
use crate::driver::Node;
use crate::record::ExtKey;
use crate::stages;
use crate::SortError;

/// Message tag for pass-1 traffic.
pub const TAG_PASS1: u64 = 0x0D50_0001;

/// Name of the file holding this node's sorted runs.
pub const RUNS_FILE: &str = "dsort_runs";

/// Where each run starts in a runs file holding runs of `run_lens` bytes back
/// to back.
pub fn run_offsets(run_lens: &[u64]) -> Vec<u64> {
    let starts = run_lens.iter().scan(0, |end, len| {
        *end += len;
        Some(*end - len)
    });
    starts.collect()
}

/// Outcome of pass 1 on one node.
#[derive(Debug, Clone)]
pub struct Pass1Out {
    /// Byte length of each sorted run, in file order.
    pub run_lens: Vec<u64>,
    /// Records this node's partition received.
    pub received_records: u64,
}

/// Run pass 1 on `node`, writing sorted runs of `run_len` bytes (the node's
/// last one may be shorter).
pub fn pass1(node: &mut Node, splitters: &[ExtKey], run_len: usize) -> Result<Pass1Out, SortError> {
    let cfg = &node.cfg;
    let nblocks = cfg.bytes_per_node().div_ceil(cfg.block_bytes as u64);
    let send_buf = cfg.block_bytes + cfg.nodes * CHUNK_HEADER_BYTES + 64;

    // The runs file ends as this node's partition.  Splitters from an
    // oversample keep a partition within a fifth of the mean, so a third of
    // slack spares an in-memory disk every regrowth of the file.
    node.disk
        .reserve(RUNS_FILE, cfg.bytes_per_node() + cfg.bytes_per_node() / 3);

    let mut prog = node.program("dsort-p1");

    // ---- send pipeline ----
    let read = prog.add_stage("read", stages::read_input_stage(&node.disk, cfg));
    let permute = prog.add_stage(
        "permute",
        stages::permute_stage(cfg, node.rank, splitters.to_vec()),
    );
    let send = prog.add_stage(
        "send",
        stages::send_stage(node.comm.clone(), TAG_PASS1, stages::cut_chunks),
    );

    // ---- receive pipeline ----
    // Incoming records are packed densely into run-sized buffers straight
    // from the received payloads; one sorted run per buffer.
    let receive = prog.add_stage(
        "receive",
        stages::receive_stage(node.comm.clone(), TAG_PASS1, stages::land_bytes),
    );
    let sort = prog.add_stage("sort", stages::sort_stage(cfg));
    let (write, run_lens) = stages::append_runs_stage(&node.disk, RUNS_FILE);
    let write = prog.add_stage("write", write);

    prog.add_pipeline(
        PipelineCfg::new("send", cfg.pipeline_buffers, send_buf).rounds(Rounds::Count(nblocks)),
        &[read, permute, send],
    )?;
    prog.add_pipeline(
        PipelineCfg::new("recv", cfg.pipeline_buffers, run_len).rounds(Rounds::UntilStopped),
        &[receive, sort, write],
    )?;
    node.run(prog)?;

    // Every record received went into exactly one run.
    let run_lens = std::mem::take(&mut *run_lens.lock());
    let received_records = run_lens.iter().sum::<u64>() / node.cfg.record.record_bytes as u64;
    Ok(Pass1Out {
        run_lens,
        received_records,
    })
}
