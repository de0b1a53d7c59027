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
use std::time::{Duration, Instant};

use fg_cluster::{Cluster, ClusterCfg, ClusterError, Communicator};
use fg_core::{map_stage, PipelineCfg, Program, Rounds};
use fg_pdm::{DiskRef, Striping};
use parking_lot::Mutex;

use crate::chunks::{self, Exchange, CHUNK_HEADER_BYTES};
use crate::config::SortConfig;
use crate::dsort::{pass1, sampling};
use crate::input::INPUT_FILE;
use crate::merge::LoserTree;
use crate::record::ExtKey;
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
}

impl DsortLinearReport {
    /// Total wall time.
    pub fn total(&self) -> Duration {
        self.sampling + self.pass1 + self.pass2
    }
}

/// Run the single-linear-pipeline dsort variant.
pub fn run_dsort_linear(
    cfg: &SortConfig,
    disks: &[DiskRef],
) -> Result<DsortLinearReport, SortError> {
    cfg.validate()?;
    if disks.len() != cfg.nodes {
        return Err(SortError::Config(format!(
            "need {} disks, got {}",
            cfg.nodes,
            disks.len()
        )));
    }
    let cfg = cfg.clone();
    let disks_arc: Vec<DiskRef> = disks.to_vec();

    let run = Cluster::run(
        ClusterCfg {
            nodes: cfg.nodes,
            net: cfg.net,
        },
        move |node| -> Result<[Duration; 3], ClusterError> {
            let rank = node.rank();
            let comm = node.comm().clone();
            let disk = Arc::clone(&disks_arc[rank]);

            comm.barrier()?;
            let t0 = Instant::now();
            let splitters =
                sampling::select_splitters(&cfg, rank, &comm, &disk).map_err(ClusterError::from)?;
            comm.barrier()?;
            let sampling_ns = comm.allreduce_max(t0.elapsed().as_nanos() as u64)?;

            comm.barrier()?;
            let t1 = Instant::now();
            let (run_lens, received) =
                pass1_linear(&cfg, rank, &comm, &disk, &splitters).map_err(ClusterError::from)?;
            comm.barrier()?;
            let pass1_ns = comm.allreduce_max(t1.elapsed().as_nanos() as u64)?;

            comm.barrier()?;
            let t2 = Instant::now();
            let partitions = comm.allgather_u64(received)?;
            let rank_offset: u64 = partitions[..rank].iter().sum();
            pass2_linear(
                &cfg,
                rank,
                &comm,
                &disk,
                &run_lens,
                rank_offset,
                &partitions,
            )
            .map_err(ClusterError::from)?;
            comm.barrier()?;
            let pass2_ns = comm.allreduce_max(t2.elapsed().as_nanos() as u64)?;

            Ok([
                Duration::from_nanos(sampling_ns),
                Duration::from_nanos(pass1_ns),
                Duration::from_nanos(pass2_ns),
            ])
        },
    )
    .map_err(|e| SortError::Comm(e.to_string()))?;

    let t = run.results[0];
    Ok(DsortLinearReport {
        sampling: t[0],
        pass1: t[1],
        pass2: t[2],
    })
}

/// Pass 1 on one node: synchronous distribution, one run per round.
fn pass1_linear(
    cfg: &SortConfig,
    rank: usize,
    comm: &Communicator,
    disk: &DiskRef,
    splitters: &[ExtKey],
) -> Result<(Vec<u64>, u64), SortError> {
    let nodes = cfg.nodes;
    let rb = cfg.record.record_bytes;
    let input_bytes = cfg.bytes_per_node() as usize;
    let nblocks = input_bytes.div_ceil(cfg.block_bytes) as u64;
    // Worst case a node receives everything every round.
    let buf_bytes = nodes * cfg.block_bytes + nodes * CHUNK_HEADER_BYTES + 64;

    let mut prog = Program::new(format!("dsortlin-p1-n{rank}"));
    cfg.instrument(&mut prog);

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

    let permute = prog.add_stage(
        "permute",
        pass1::permute_stage(cfg, rank, splitters.to_vec()),
    );

    // exchange: blocking alltoallv per round — send rate chained to receive
    // rate, all nodes in lockstep.
    let comm2 = comm.clone();
    let exchange = prog.add_stage("exchange", {
        let mut parts = Exchange::new(nodes);
        map_stage(move |buf, _ctx| {
            for chunk in chunks::iter_chunks(buf.filled()) {
                let chunk = chunk?;
                parts.part(chunk.a as usize).extend_from_slice(chunk.data);
            }
            Ok(parts.trade(&comm2, buf)?)
        })
    });

    let sort = prog.add_stage("sort", crate::csort::sort_stage(cfg));

    let run_lens = Arc::new(Mutex::new(Vec::<u64>::new()));
    let rl = Arc::clone(&run_lens);
    let write_disk = Arc::clone(disk);
    let write = prog.add_stage(
        "write",
        map_stage(move |buf, _ctx| {
            if !buf.is_empty() {
                write_disk
                    .append(RUNS_FILE, buf.filled())
                    .map_err(SortError::from)?;
                rl.lock().push(buf.len() as u64);
            }
            Ok(())
        }),
    );

    prog.add_pipeline(
        PipelineCfg::new("pass1", cfg.pipeline_buffers, buf_bytes).rounds(Rounds::Count(nblocks)),
        &[read, permute, exchange, sort, write],
    )?;
    prog.run()?;
    // Write barrier: pass 2 reads the run file this pass appended.
    disk.flush().map_err(SortError::from)?;

    // Every record received went into exactly one run.
    let lens = run_lens.lock().clone();
    let received = lens.iter().sum::<u64>() / rb as u64;
    Ok((lens, received))
}

/// Pass 2 on one node: inline synchronous merge, lockstep striping.
#[allow(clippy::too_many_arguments)]
fn pass2_linear(
    cfg: &SortConfig,
    rank: usize,
    comm: &Communicator,
    disk: &DiskRef,
    run_lens: &[u64],
    rank_offset: u64,
    partitions: &[u64],
) -> Result<(), SortError> {
    let nodes = cfg.nodes;
    let rb = cfg.record.record_bytes;
    let block = cfg.block_bytes;
    // Lockstep round count: enough rounds for the largest partition.
    let max_records = partitions.iter().copied().max().unwrap_or(0);
    let rounds = (max_records * rb as u64).div_ceil(block as u64).max(1);
    let striping = Striping::new(nodes, block);
    let buf_bytes = nodes * block + nodes * 4 * CHUNK_HEADER_BYTES + 64;

    let mut prog = Program::new(format!("dsortlin-p2-n{rank}"));
    cfg.instrument(&mut prog);

    // merge-read: synchronous inline k-way merge, one output block per
    // round (possibly empty padding rounds at the end).
    let merge_disk = Arc::clone(disk);
    let fmt = cfg.record;
    let run_lens_v = run_lens.to_vec();
    let mergeread = prog.add_stage("mergeread", {
        let offsets: Vec<u64> = {
            let mut acc = 0u64;
            run_lens_v
                .iter()
                .map(|&l| {
                    let o = acc;
                    acc += l;
                    o
                })
                .collect()
        };
        let mut consumed: Vec<u64> = vec![0; run_lens_v.len()];
        // Head record cache per run (read one record at a time:
        // deliberately unbuffered — this is the no-read-ahead ablation,
        // but reading record-by-record would be absurd even for the
        // baseline, so keep a one-block cache per run, refilled
        // synchronously in the pipeline's only thread).
        let mut caches: Vec<Vec<u8>> = vec![Vec::new(); run_lens_v.len()];
        let mut cache_pos: Vec<usize> = vec![0; run_lens_v.len()];
        let mut tree: Option<LoserTree> = None;
        let mut batch_policy = crate::merge::BatchPolicy::new();
        let mut produced = 0u64;
        map_stage(move |buf, _ctx| {
            let k = run_lens_v.len();
            // Synchronously refill a run's cache; returns head key or None.
            let mut refill = |j: usize,
                              caches: &mut Vec<Vec<u8>>,
                              cache_pos: &mut Vec<usize>|
             -> Result<Option<u64>, SortError> {
                if cache_pos[j] < caches[j].len() {
                    return Ok(Some(fmt.key(&caches[j][cache_pos[j]..])));
                }
                let remaining = run_lens_v[j] - consumed[j];
                if remaining == 0 {
                    return Ok(None);
                }
                let want = (block as u64).min(remaining) as usize;
                let data = merge_disk.read_up_to(RUNS_FILE, offsets[j] + consumed[j], want)?;
                consumed[j] += data.len() as u64;
                caches[j] = data;
                cache_pos[j] = 0;
                if caches[j].is_empty() {
                    Ok(None)
                } else {
                    Ok(Some(fmt.key(&caches[j][..])))
                }
            };
            if tree.is_none() && k > 0 {
                let mut heads = Vec::with_capacity(k);
                for j in 0..k {
                    heads.push(refill(j, &mut caches, &mut cache_pos)?);
                }
                tree = Some(LoserTree::new(heads));
            }
            buf.clear();
            buf.meta = rank_offset + produced;
            // One stripe block of output per round (the buffer itself is
            // larger: it must also hold the round's *received* pieces).
            while buf.len() < block {
                let (lane, _) = match tree.as_ref().and_then(|t| t.winner()) {
                    Some(w) => w,
                    None => break,
                };
                // MergeRun fast path: batch every cached record of this
                // lane that still beats the runner-up, capped to the
                // block's remaining space.  The policy backs off to scalar
                // steps while the runs interleave too finely to batch.
                let pos = cache_pos[lane];
                let avail = &caches[lane][pos..];
                let run = batch_policy.merge_run(tree.as_ref().expect("tree"), fmt, avail);
                let n = run.min((block - buf.len()) / rb).max(1);
                buf.append(&avail[..n * rb]);
                cache_pos[lane] += n * rb;
                produced += n as u64;
                let next = refill(lane, &mut caches, &mut cache_pos)?;
                tree.as_mut().expect("tree").replace(lane, next);
            }
            let _ = offsets.len();
            Ok(())
        })
    });

    // exchange: per-round alltoallv of stripe pieces (padded rounds send
    // nothing but still participate).
    let comm2 = comm.clone();
    let exchange = prog.add_stage("exchange", {
        let mut stripes = Exchange::new(nodes);
        map_stage(move |buf, _ctx| {
            let goff = buf.meta * rb as u64;
            stripes.gather_stripes(&striping, goff, buf.filled());
            Ok(stripes.trade(&comm2, buf)?)
        })
    });

    let write = prog.add_stage(
        "write",
        crate::csort::striped_write_stage(disk, striping, rank),
    );

    prog.add_pipeline(
        PipelineCfg::new("pass2", cfg.pipeline_buffers, buf_bytes).rounds(Rounds::Count(rounds)),
        &[mergeread, exchange, write],
    )?;
    prog.run()?;
    disk.flush().map_err(SortError::from)?;
    Ok(())
}
