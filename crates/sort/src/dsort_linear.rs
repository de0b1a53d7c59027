//! dsort-linear: the ablation the paper's conclusion calls for.
//!
//! "An obvious question would be how much faster dsort runs with multiple
//! pipelines on each node compared with an implementation restricted to
//! single, linear pipelines on each node" (§VIII).  This module is that
//! restricted implementation:
//!
//! * **Pass 1** is one linear pipeline `read → permute → exchange → sort →
//!   write`.  Without disjoint send/receive pipelines, distribution must be
//!   synchronous: every round, all nodes exchange that round's records with
//!   a blocking `alltoallv`, so a node's send rate is locked to its receive
//!   rate and to every other node's progress.  Each round's received batch
//!   becomes one sorted run (runs are smaller and more numerous than
//!   dsort's, and their sizes vary with the data).
//! * **Pass 2** is one linear pipeline `merge-read → exchange → write`.
//!   Without intersecting pipelines there is no read-ahead on the runs: the
//!   merge stage performs synchronous disk reads inline.  Without disjoint
//!   pipelines the striping exchange is again a per-round `alltoallv`,
//!   padded to the cluster-wide maximum round count so the collective
//!   stays aligned.
//!
//! The "extensive bookkeeping" the paper predicts shows up as exactly this
//! padding, carry, and lockstep logic.

use std::sync::Arc;
use std::time::Duration;

use fg_core::{map_stage, PipelineCfg, Rounds};
use fg_pdm::{DiskRef, Striping};

use crate::chunks::{self, Exchange, CHUNK_HEADER_BYTES};
use crate::config::SortConfig;
use crate::driver::{self, Node};
use crate::dsort::pass1::run_offsets;
use crate::dsort::sampling;
use crate::merge::Merge;
use crate::record::ExtKey;
use crate::stages;
use crate::verify::OUTPUT_FILE;
use crate::SortError;

/// Runs file for the linear variant.
pub const RUNS_FILE: &str = "dsort_linear_runs";

/// Timings from one dsort-linear run.
#[derive(Debug, Clone)]
pub struct DsortLinearReport {
    /// Max-across-nodes wall time of the sampling phase.
    pub sampling: Duration,
    /// Max-across-nodes wall time of pass 1.
    pub pass1: Duration,
    /// Max-across-nodes wall time of pass 2.
    pub pass2: Duration,
    /// `(phase, max-across-nodes wall time)` in run order: the three above
    /// by name, then `sync`.
    pub phases: Vec<(&'static str, Duration)>,
    /// Node 0's FG report for each pass.
    pub node0_reports: Vec<fg_core::Report>,
}

impl DsortLinearReport {
    /// Total wall time: every phase, `sync` included.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|p| p.1).sum()
    }
}

/// Run the single-linear-pipeline dsort variant.
pub fn run_dsort_linear(
    cfg: &SortConfig,
    disks: &[DiskRef],
) -> Result<DsortLinearReport, SortError> {
    let mut run = driver::launch(cfg, disks, |node| {
        let splitters = node.phase("sampling", |node| sampling::select_splitters(node))?;
        let run_lens = node.phase("pass 1", |node| pass1_linear(node, &splitters))?;
        node.phase("pass 2", |node| {
            // Every record received went into exactly one run.
            let received = run_lens.iter().sum::<u64>() / node.cfg.record.record_bytes as u64;
            let partitions = node.comm.allgather_u64(received)?;
            pass2_linear(node, &run_lens, &partitions)
        })
    })?;
    let [sampling, pass1, pass2] = run.times();
    Ok(DsortLinearReport {
        sampling,
        pass1,
        pass2,
        node0_reports: run.take_node0_reports(),
        phases: run.phases,
    })
}

/// Pass 1 on one node: synchronous distribution, one run per round;
/// returns the runs' byte lengths.
fn pass1_linear(node: &mut Node, splitters: &[ExtKey]) -> Result<Vec<u64>, SortError> {
    let cfg = &node.cfg;
    let nodes = cfg.nodes;
    let nblocks = cfg.bytes_per_node().div_ceil(cfg.block_bytes as u64);
    // Worst case a node receives everything every round.
    let buf_bytes = nodes * cfg.block_bytes + nodes * CHUNK_HEADER_BYTES + 64;

    let mut prog = node.program("dsortlin-p1");
    let read = prog.add_stage("read", stages::read_input_stage(&node.disk, cfg));
    let permute = prog.add_stage(
        "permute",
        stages::permute_stage(cfg, node.rank, splitters.to_vec()),
    );

    // exchange: blocking alltoallv per round — send rate chained to receive
    // rate, all nodes in lockstep.
    let comm = node.comm.clone();
    let exchange = prog.add_stage("exchange", {
        let mut parts = Exchange::new(nodes);
        map_stage(move |buf, _ctx| {
            for chunk in chunks::iter_chunks(buf.filled()) {
                let chunk = chunk?;
                parts.part(chunk.a as usize).extend_from_slice(chunk.data);
            }
            Ok(parts.trade(&comm, buf)?)
        })
    });

    let sort = prog.add_stage("sort", stages::sort_stage(cfg));
    let (write, run_lens) = stages::append_runs_stage(&node.disk, RUNS_FILE);
    let write = prog.add_stage("write", write);

    prog.add_pipeline(
        PipelineCfg::new("pass1", cfg.pipeline_buffers, buf_bytes).rounds(Rounds::Count(nblocks)),
        &[read, permute, exchange, sort, write],
    )?;
    node.run(prog)?;
    let run_lens = std::mem::take(&mut *run_lens.lock());
    Ok(run_lens)
}

/// Pass 2 on one node: inline synchronous merge, lockstep striping.
fn pass2_linear(node: &mut Node, run_lens: &[u64], partitions: &[u64]) -> Result<(), SortError> {
    let cfg = &node.cfg;
    let nodes = cfg.nodes;
    let rb = cfg.record.record_bytes;
    let block = cfg.block_bytes;
    let rank_offset: u64 = partitions[..node.rank].iter().sum();
    // Lockstep round count: enough rounds for the largest partition.
    let max_records = partitions.iter().copied().max().unwrap_or(0);
    let rounds = (max_records * rb as u64).div_ceil(block as u64).max(1);
    let striping = Striping::new(nodes, block);
    let buf_bytes = nodes * block + nodes * 4 * CHUNK_HEADER_BYTES + 64;

    let mut prog = node.program("dsortlin-p2");

    // merge-read: synchronous inline k-way merge, one output block per
    // round (possibly empty padding rounds at the end), over one block of
    // each run at a time, read in the merge's own thread: deliberately
    // unbuffered, this is the no-read-ahead ablation, but reading record by
    // record would be absurd even for the baseline.
    let disk = Arc::clone(&node.disk);
    let offsets = run_offsets(run_lens).into_iter().zip(run_lens);
    let mut unread: Vec<_> = offsets.map(|(at, n)| at..at + n).collect();
    let next = move |j: usize, _spent| {
        let span = &mut unread[j];
        let want = (block as u64).min(span.end - span.start) as usize;
        if want == 0 {
            return Ok(None);
        }
        let data = disk.read_up_to(RUNS_FILE, span.start, want)?;
        span.start += data.len() as u64;
        Ok::<_, SortError>((!data.is_empty()).then_some(data))
    };
    let mut merge = Merge::new(cfg.record, run_lens.len(), next, None);
    let mut produced = 0u64;
    let mergeread = prog.add_stage(
        "mergeread",
        map_stage(move |buf, _ctx| {
            // One stripe block of output per round (the buffer itself is
            // larger: it must also hold the round's *received* pieces).
            let n = merge.fill(&mut buf.space_mut()[..block])?;
            buf.set_filled(n);
            buf.meta = rank_offset + produced;
            produced += (n / rb) as u64;
            Ok(())
        }),
    );

    // exchange: per-round alltoallv of stripe pieces (padded rounds send
    // nothing but still participate).
    let exchange = prog.add_stage(
        "exchange",
        stages::stripe_stage(&node.comm, striping, move |buf| buf.meta * rb as u64),
    );
    let write = prog.add_stage("write", stages::write_stage(&node.disk, OUTPUT_FILE));

    prog.add_pipeline(
        PipelineCfg::new("pass2", cfg.pipeline_buffers, buf_bytes).rounds(Rounds::Count(rounds)),
        &[mergeread, exchange, write],
    )?;
    node.run(prog)?;
    node.disk.delete(RUNS_FILE); // its last reader
    Ok(())
}
