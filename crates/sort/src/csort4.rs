//! csort4: the four-pass out-of-core columnsort of §III.
//!
//! "A relatively simple four-pass implementation of out-of-core columnsort
//! groups together each pair of consecutive steps into a single pass."
//! The three-pass [`csort`](crate::csort) coalesces steps 5–8; this module
//! keeps them split so the coalescing's benefit can be measured (the
//! fourth pass re-reads and re-writes the entire dataset):
//!
//! * **Pass 1** (steps 1–2) and **pass 2** (steps 3–4): identical to the
//!   three-pass version (re-used from [`crate::csort`]).
//! * **Pass 3** (steps 5–6): `read → sort → shift-communicate → write`.
//!   After sorting column `c`, its larger half is the top half of *shifted
//!   column* `c+1` and its smaller half the bottom half of shifted column
//!   `c`; each node sends the larger half to the next column's owner and
//!   writes the shifted column it owns to the intermediate file (shifted
//!   column `c` is stored by the owner of column `c`; the extra shifted
//!   column `s` — the larger half of column `s−1` — stays with the last
//!   column's owner).
//! * **Pass 4** (steps 7–8): `read → sort → stripe → write`.  Each shifted
//!   column is two sorted halves; the sort stage merges them (step 7), and
//!   the unshift (step 8) places the merged window at its global ranks,
//!   exchanged once (balanced `alltoallv`) into the striped output.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_cluster::{Cluster, ClusterCfg, ClusterError, Communicator};
use fg_core::{map_stage, PipelineCfg, Program, Rounds};
use fg_pdm::{DiskRef, DiskStats, Striping};

use crate::chunks::{Exchange, CHUNK_HEADER_BYTES};
use crate::config::{Matrix, SortConfig};
use crate::csort::{
    add_sort_stage, effective_buffers, merge_two_sorted, pass12, striped_write_stage, M2_FILE,
};
use crate::SortError;

/// Intermediate file after pass 3: the shifted matrix.  Shifted column `c`
/// (for `c` in the node's ownership) is stored at local index
/// `local_index(c)`; the last node stores the extra half column `s` after
/// its regular columns.
pub const M3_FILE: &str = "csort4_m3";

/// Timings and counters from one csort4 run.
#[derive(Debug, Clone)]
pub struct Csort4Report {
    /// Max-across-nodes wall time of each pass.
    pub pass: [Duration; 4],
    /// Total wall time (sum of passes).
    pub total: Duration,
    /// Per-node disk stats accumulated over the whole run.
    pub disk_stats: Vec<DiskStats>,
    /// Per-node bytes sent over the interconnect.
    pub bytes_sent: Vec<u64>,
    /// The matrix geometry used.
    pub matrix: Matrix,
}

/// Run the four-pass columnsort; leaves striped output in `output`.
pub fn run_csort4(cfg: &SortConfig, disks: &[DiskRef]) -> Result<Csort4Report, SortError> {
    cfg.validate()?;
    if disks.len() != cfg.nodes {
        return Err(SortError::Config(format!(
            "need {} disks, got {}",
            cfg.nodes,
            disks.len()
        )));
    }
    let matrix = Matrix::choose(cfg.total_records(), cfg.nodes)?;
    let cfg = cfg.clone();
    let disks_arc: Vec<DiskRef> = disks.to_vec();

    let run = Cluster::run(
        ClusterCfg {
            nodes: cfg.nodes,
            net: cfg.net,
        },
        move |node| -> Result<[Duration; 4], ClusterError> {
            let q = node.rank();
            let comm = node.comm().clone();
            let disk = Arc::clone(&disks_arc[q]);
            // Group each node's pipeline spans under its own track in the
            // merged Chrome export.
            let mut cfg = cfg.clone();
            cfg.trace_group = Some(q as u32);
            let mut times = [Duration::ZERO; 4];
            for pass_no in 1u8..=4 {
                comm.barrier()?;
                let t0 = Instant::now();
                match pass_no {
                    1 | 2 => pass12(pass_no, &cfg, matrix, q, &comm, &disk)
                        .map_err(ClusterError::from)?,
                    3 => pass3_shift(&cfg, matrix, q, &comm, &disk).map_err(ClusterError::from)?,
                    _ => {
                        pass4_unshift(&cfg, matrix, q, &comm, &disk).map_err(ClusterError::from)?
                    }
                }
                comm.barrier()?;
                let nanos = comm.allreduce_max(t0.elapsed().as_nanos() as u64)?;
                times[pass_no as usize - 1] = Duration::from_nanos(nanos);
            }
            Ok(times)
        },
    )
    .map_err(|e| SortError::Comm(e.to_string()))?;

    let times = run.results[0];
    Ok(Csort4Report {
        pass: times,
        total: times.iter().sum(),
        disk_stats: disks.iter().map(|d| d.stats()).collect(),
        bytes_sent: run.traffic.iter().map(|t| t.bytes_sent).collect(),
        matrix,
    })
}

/// Pass 3 (steps 5–6): sort each column, shift halves across column
/// owners, write the shifted matrix.
fn pass3_shift(
    cfg: &SortConfig,
    m: Matrix,
    q: usize,
    comm: &Communicator,
    disk: &DiskRef,
) -> Result<(), SortError> {
    let rb = cfg.record.record_bytes;
    let cbytes = m.r * rb;
    let half = m.r / 2 * rb;
    let rounds = m.cols_per_node() as u64;
    let (r, s) = (m.r, m.s);
    let _ = r;

    let mut prog = Program::new(format!("csort4-p3-n{q}"));
    cfg.instrument_with_disks(&mut prog, std::slice::from_ref(disk));

    let read_disk = Arc::clone(disk);
    let read = prog.add_stage(
        "read",
        map_stage(move |buf, _ctx| {
            let t = buf.round();
            read_disk
                .read_at(M2_FILE, t * cbytes as u64, &mut buf.space_mut()[..cbytes])
                .map_err(SortError::from)?;
            buf.set_filled(cbytes);
            Ok(())
        }),
    );

    // sort: step 5, farmed when cfg.workers > 1.
    let sort = add_sort_stage(&mut prog, cfg);

    // shift-communicate: exchange halves so the buffer leaves holding the
    // shifted column c = [larger half of col c-1][smaller half of col c];
    // the last column's owner keeps its larger half as shifted column s.
    let comm3 = comm.clone();
    let shift = prog.add_stage(
        "shift",
        map_stage(move |buf, ctx| {
            let t = buf.round() as usize;
            let c = m.col_of_round(q, t);
            let last = c == s - 1;
            {
                let data = buf.filled();
                if !last {
                    comm3
                        .send(m.owner(c + 1), (c + 1) as u64, data[half..].to_vec())
                        .map_err(SortError::from)?;
                }
            }
            let received: Vec<u8> = if c > 0 {
                comm3
                    .recv(Some(m.owner(c - 1)), c as u64)
                    .map_err(SortError::from)?
                    .payload
                    .into_vec()
            } else {
                Vec::new()
            };
            let aux = ctx.aux(buf.capacity());
            let mut len = 0usize;
            aux[..received.len()].copy_from_slice(&received);
            len += received.len();
            aux[len..len + half].copy_from_slice(&buf.filled()[..half]);
            len += half;
            if last {
                aux[len..len + half].copy_from_slice(&buf.filled()[half..]);
                len += half;
            }
            buf.copy_from(&aux[..len]);
            Ok(())
        }),
    );

    // write: shifted column c at local column slot local_index(c); the
    // trailing extra half (shifted column s) lands after the node's
    // regular columns.
    // Local m3 layout on node q: its shifted columns concatenated in round
    // order.  Node 0's first shifted column (column 0) is a half column, so
    // later offsets shift back by one half; other nodes hold only full
    // shifted columns.  The extra shifted column s goes after the last
    // node's regular columns.
    let write_disk = Arc::clone(disk);
    let cols = m.cols_per_node();
    let local_off = move |t: usize| -> u64 {
        (t * cbytes) as u64 - if q == 0 && t > 0 { half as u64 } else { 0 }
    };
    let write = prog.add_stage(
        "write",
        map_stage(move |buf, _ctx| {
            let t = buf.round() as usize;
            let c = m.col_of_round(q, t);
            let main_len = if c == s - 1 && buf.len() > cbytes {
                buf.len() - half
            } else {
                buf.len()
            };
            write_disk
                .write_at(M3_FILE, local_off(t), &buf.filled()[..main_len])
                .map_err(SortError::from)?;
            if main_len < buf.len() {
                // shifted column s, stored after the regular columns
                write_disk
                    .write_at(M3_FILE, local_off(cols), &buf.filled()[main_len..])
                    .map_err(SortError::from)?;
            }
            Ok(())
        }),
    );

    prog.add_pipeline(
        PipelineCfg::new("pass3", effective_buffers(cfg), cbytes + half + 64)
            .rounds(Rounds::Count(rounds)),
        &[read, sort, shift, write],
    )?;
    prog.run()?;
    // Write barrier before pass 4 re-reads the shifted matrix.
    disk.flush().map_err(SortError::from)?;
    Ok(())
}

/// Pass 4 (steps 7–8): merge each shifted column's halves, unshift to
/// global ranks, stripe, write.
fn pass4_unshift(
    cfg: &SortConfig,
    m: Matrix,
    q: usize,
    comm: &Communicator,
    disk: &DiskRef,
) -> Result<(), SortError> {
    let rb = cfg.record.record_bytes;
    let cbytes = m.r * rb;
    let half = m.r / 2 * rb;
    let (r, s, nodes) = (m.r, m.s, m.nodes);
    let cols = m.cols_per_node();
    let last_node = m.owner(s - 1);
    // Every node runs cols+1 rounds so the per-round alltoallv stays in
    // lockstep; only the last column's owner has data (shifted column s)
    // in the extra round — the others contribute empty parts.
    let rounds = (cols + 1) as u64;
    let max_chunks = (cbytes + half) / cfg.block_bytes + 2 * nodes + 4;
    let buf_bytes = cbytes + half + nodes * cfg.block_bytes + max_chunks * CHUNK_HEADER_BYTES + 64;

    let mut prog = Program::new(format!("csort4-p4-n{q}"));
    cfg.instrument_with_disks(&mut prog, std::slice::from_ref(disk));

    // Which shifted column does round t hold, how long is it, and where
    // does it live in the local m3 file?  Mirrors pass 3's write layout.
    let local_off = move |t: usize| -> u64 {
        (t * cbytes) as u64 - if q == 0 && t > 0 { half as u64 } else { 0 }
    };
    let col_of = move |t: usize| -> (usize, usize, u64) {
        if t == cols {
            // extra round: the last node holds shifted column s; everyone
            // else has nothing but still participates in the exchange
            if q == last_node {
                (s, half, local_off(cols))
            } else {
                (s, 0, 0)
            }
        } else {
            let c = t * nodes + q;
            let len = if c == 0 { half } else { cbytes };
            (c, len, local_off(t))
        }
    };

    let read_disk = Arc::clone(disk);
    let read = prog.add_stage(
        "read",
        map_stage(move |buf, _ctx| {
            let (_c, len, off) = col_of(buf.round() as usize);
            if len > 0 {
                read_disk
                    .read_at(M3_FILE, off, &mut buf.space_mut()[..len])
                    .map_err(SortError::from)?;
            }
            buf.set_filled(len);
            Ok(())
        }),
    );

    // step 7: each shifted column is two sorted halves; merge them with
    // the galloping two-run kernel (`merge_two_sorted` → `kernels::
    // run_len`) — boundary windows are nearly sorted, so the merge
    // collapses to a few bulk copies.  The merge is the pass's CPU-bound
    // stage, so it farms like the sorts do (every capture is `Copy`, so
    // each replica gets its own closure; the sort stages themselves go
    // through `add_sort_stage`, which threads a kernel scratch per
    // replica).
    let fmt = cfg.record;
    let make_sort = move || {
        map_stage(
            move |buf: &mut fg_core::Buffer, ctx: &mut fg_core::StageCtx| {
                let (c, len, _off) = col_of(buf.round() as usize);
                if c > 0 && c < s && len == cbytes {
                    let aux = ctx.aux(len);
                    merge_two_sorted(fmt, &buf.filled()[..len], half, aux);
                    buf.copy_from(&aux[..len]);
                }
                Ok(())
            },
        )
    };
    let sort = if cfg.farm_capacity() > 1 {
        prog.workers("sort", cfg.farm_capacity(), move |_i| make_sort())
    } else {
        prog.add_stage("sort", make_sort())
    };

    // step 8 + striping: shifted column c covers global ranks
    // [c*r - r/2, c*r + r/2) (clamped at both ends).
    let comm4 = comm.clone();
    let striping = Striping::new(nodes, cfg.block_bytes);
    let stripe = prog.add_stage("stripe", {
        let mut stripes = Exchange::new(nodes);
        map_stage(move |buf, _ctx| {
            let (c, _len, _off) = col_of(buf.round() as usize);
            let start_rank = if c == 0 { 0 } else { c * r - r / 2 };
            let goff = start_rank as u64 * rb as u64;
            stripes.gather_stripes(&striping, goff, buf.filled());
            Ok(stripes.trade(&comm4, buf)?)
        })
    });

    let write = prog.add_stage("write", striped_write_stage(disk, striping, q));

    prog.add_pipeline(
        PipelineCfg::new("pass4", effective_buffers(cfg), buf_bytes).rounds(Rounds::Count(rounds)),
        &[read, sort, stripe, write],
    )?;
    prog.run()?;
    disk.flush().map_err(SortError::from)?;
    Ok(())
}
