//! dsort pass 1: partitioning and distribution (§V, Figure 6).
//!
//! Communication is *unbalanced*: what a node sends at any moment differs
//! from what it receives.  So each node runs **two disjoint FG pipelines**,
//! which progress at independent rates and which only messages connect:
//!
//! * the **send pipeline** `read → send` streams the node's input: the send
//!   stage finds each record's partition (splitters against *extended*
//!   keys) and copies it once, read buffer → the payload being filled for
//!   that destination, which leaves when full — a message is a block
//!   whatever the node count — and blocks while all of the node's payloads
//!   are in flight.  (Figure 6's `permute` and `send` share a thread here,
//!   so no record is copied between them: DESIGN.md §5d.)
//! * the **receive pipeline** `receive → sort → write` packs incoming
//!   records into run-sized buffers straight from the payloads, sorts each
//!   (by the original keys) and appends it to the node's runs file: one run
//!   a buffer, as long as the pool budget allows ([`plan`](super::plan)).
//!   Its length is data-dependent, so it runs `UntilStopped`: after every
//!   sender's `DONE` marker the receive stage conveys the last partial run
//!   and stops the pipeline.

use fg_core::{PipelineCfg, Rounds};

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

/// Run pass 1 on `node`, writing the records its partition receives as sorted
/// runs of `run_len` bytes (the last may be shorter); returns each run's byte
/// length, in file order.
pub fn pass1(node: &mut Node, splitters: &[ExtKey], run_len: usize) -> Result<Vec<u64>, SortError> {
    let cfg = &node.cfg;
    let nblocks = cfg.bytes_per_node().div_ceil(cfg.block_bytes as u64);

    let mut prog = node.program("dsort-p1");

    // ---- send pipeline ----
    let read = prog.add_stage("read", stages::read_input_stage(&node.disk, cfg));
    let (rb, cap) = (cfg.record.record_bytes, stages::payload_bytes(cfg));
    let dest_of = stages::partitioner(cfg, node.rank, splitters.to_vec());
    let send = stages::scatter_send_stage(&node.comm, TAG_PASS1, rb, cap, dest_of);
    let send = prog.add_stage("send", send);

    // ---- receive pipeline ----
    // Incoming records are packed densely into run-sized buffers straight
    // from the received payloads; one sorted run per buffer.
    let receive = stages::receive_stage(node.comm.clone(), TAG_PASS1, stages::land_bytes);
    let receive = prog.add_stage("receive", receive);
    let sort = prog.add_stage("sort", stages::sort_stage(node, 0));
    let (write, run_lens) = stages::append_runs_stage(&node.disk, RUNS_FILE);
    let write = prog.add_stage("write", write);

    prog.add_pipeline(
        PipelineCfg::new("send", cfg.pipeline_buffers, cfg.block_bytes)
            .rounds(Rounds::Count(nblocks)),
        &[read, send],
    )?;
    prog.add_pipeline(
        PipelineCfg::new("recv", cfg.pipeline_buffers, run_len).rounds(Rounds::UntilStopped),
        &[receive, sort, write],
    )?;
    node.run(prog)?;

    let run_lens = std::mem::take(&mut *run_lens.lock());
    Ok(run_lens)
}
