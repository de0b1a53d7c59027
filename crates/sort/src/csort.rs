//! csort: three-pass out-of-core columnsort (the baseline, §III).
//!
//! The `N` records form an `r × s` column-major matrix; column `j` is owned
//! by node `j mod P` and handled in its round `j div P`.  Node `q`'s local
//! input file supplies its own columns: local chunk `t` is global column
//! `t·P + q`.  Each pass runs **one single linear FG pipeline per node** —
//! the only shape csort needs, because its communication is balanced and
//! its I/O pattern oblivious:
//!
//! * **Pass 1** (steps 1–2): `read → sort → communicate → permute → write`.
//!   After sorting, record `i` of column `c` belongs to column `i mod s` of
//!   the transposed matrix; the communicate stage exchanges the records
//!   with a balanced `alltoallv` (every node sends and receives exactly `r`
//!   records per round).  Because the *next* odd step re-sorts every
//!   column, only column membership matters, so the permute/write stages
//!   append each round's incoming records contiguously to the destination
//!   column's region of the intermediate file.
//! * **Pass 2** (steps 3–4): identical shape; after sorting, record `i`
//!   belongs to column `i div (r/s)` of the untransposed matrix.
//! * **Pass 3** (steps 5–8, coalesced): `read → sort → exchange-halves →
//!   merge → stripe → write`.  After the step-5 sort, steps 6–8 reduce to
//!   sorting each disjoint *boundary window* `[c·r − r/2, c·r + r/2)` (see
//!   [`crate::columnsort`]): the owner of column `c` sends its sorted
//!   column's larger half to the owner of column `c+1` (a balanced
//!   `sendrecv`-style exchange), merges the half it receives with its own
//!   smaller half, and the merged window — a contiguous run of the final
//!   sorted sequence at known global ranks — is exchanged once more
//!   (balanced `alltoallv`) to land, striped, on the cluster's disks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_cluster::{Cluster, ClusterCfg, ClusterError, Communicator};
use fg_core::{map_stage, PipelineCfg, Program, Rounds};
use fg_pdm::{DiskRef, DiskStats, Striping};

use crate::chunks::{self, Exchange, CHUNK_HEADER_BYTES};
use crate::config::{Matrix, SortConfig};
use crate::input::INPUT_FILE;
use crate::verify::OUTPUT_FILE;
use crate::SortError;

/// Intermediate file after pass 1.
pub const M1_FILE: &str = "csort_m1";
/// Intermediate file after pass 2.
pub const M2_FILE: &str = "csort_m2";

/// Timings and counters from one csort run.
#[derive(Debug, Clone)]
pub struct CsortReport {
    /// Max-across-nodes wall time of each pass.
    pub pass: [Duration; 3],
    /// Total wall time (sum of passes).
    pub total: Duration,
    /// Per-node disk stats accumulated over the whole run.
    pub disk_stats: Vec<DiskStats>,
    /// Per-node bytes sent over the interconnect.
    pub bytes_sent: Vec<u64>,
    /// The matrix geometry used.
    pub matrix: Matrix,
}

/// Run csort on the provisioned `disks` (one per node, each holding
/// `input`); leaves striped output in `output` on every disk.
pub fn run_csort(cfg: &SortConfig, disks: &[DiskRef]) -> Result<CsortReport, SortError> {
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
        move |node| -> Result<[Duration; 3], ClusterError> {
            let q = node.rank();
            let comm = node.comm().clone();
            let disk = Arc::clone(&disks_arc[q]);
            // Group each node's pipeline spans under its own track in the
            // merged Chrome export.
            let mut cfg = cfg.clone();
            cfg.trace_group = Some(q as u32);
            let mut times = [Duration::ZERO; 3];
            for (pass_idx, pass_no) in [1u8, 2, 3].into_iter().enumerate() {
                comm.barrier()?;
                let t0 = Instant::now();
                match pass_no {
                    1 => pass12(1, &cfg, matrix, q, &comm, &disk).map_err(ClusterError::from)?,
                    2 => pass12(2, &cfg, matrix, q, &comm, &disk).map_err(ClusterError::from)?,
                    _ => pass3(&cfg, matrix, q, &comm, &disk).map_err(ClusterError::from)?,
                }
                comm.barrier()?;
                let nanos = comm.allreduce_max(t0.elapsed().as_nanos() as u64)?;
                times[pass_idx] = Duration::from_nanos(nanos);
            }
            Ok(times)
        },
    )
    .map_err(|e| SortError::Comm(e.to_string()))?;

    let times = run.results[0];
    Ok(CsortReport {
        pass: times,
        total: times.iter().sum(),
        disk_stats: disks.iter().map(|d| d.stats()).collect(),
        bytes_sent: run.traffic.iter().map(|t| t.bytes_sent).collect(),
        matrix,
    })
}

/// Bytes of one full column of records.
fn col_bytes(cfg: &SortConfig, m: Matrix) -> usize {
    m.r * cfg.record.record_bytes
}

/// Buffer-pool size for a (possibly farmed) pipeline: each sort worker
/// holds a buffer in flight, so the pool must exceed the worker count or
/// replication just starves the pool.  Sized to the *declared* farm width
/// ([`SortConfig::farm_capacity`]) so a controller growing the farm never
/// outruns the pool.
pub(crate) fn effective_buffers(cfg: &SortConfig) -> usize {
    cfg.pipeline_buffers.max(cfg.farm_capacity() + 2)
}

/// The pass pipeline's configuration: `effective_buffers` in the pool,
/// with headroom for controller-driven pool growth when autotuning.
pub(crate) fn pass_pipeline(
    cfg: &SortConfig,
    name: &str,
    buf_bytes: usize,
    rounds: u64,
) -> PipelineCfg {
    let buffers = effective_buffers(cfg);
    let mut pc = PipelineCfg::new(name, buffers, buf_bytes).rounds(Rounds::Count(rounds));
    if cfg.autotune.is_some() {
        pc = pc.max_buffers(buffers * 2);
    }
    pc
}

/// Add the in-core sort stage, farmed across `cfg.workers` replicas when
/// asked.  Each replica owns its kernel scratch ([`crate::kernels`]), so
/// steady-state rounds allocate nothing; `Program::workers`' ordered
/// emission keeps the lockstep communication stages downstream correct.
///
/// When the tracking allocator is installed
/// ([`fg_core::FgAlloc`]), each replica's **first** sort call — the one
/// that grows its scratch to the working size — is attributed to the
/// `sort/warmup` tag, so the steady-state `sort` tag counting every later
/// round stays at zero allocations.  That split is what lets the resource
/// report (and the CI smoke job) assert the hot loop is alloc-free
/// without exempting the by-design warmup growth.
pub(crate) fn add_sort_stage(prog: &mut Program, cfg: &SortConfig) -> fg_core::StageId {
    if cfg.farm_capacity() > 1 {
        let cfg = cfg.clone();
        prog.workers("sort", cfg.farm_capacity(), move |_i| sort_stage(&cfg))
    } else {
        prog.add_stage("sort", sort_stage(cfg))
    }
}

/// One sort stage (or farm replica) with its own kernel scratch and the
/// `sort/warmup` split described at [`add_sort_stage`]; dsort's pass-1
/// sort stages are built from it too.
pub(crate) fn sort_stage(cfg: &SortConfig) -> Box<dyn fg_core::Stage> {
    let fmt = cfg.record;
    let mut scratch = cfg.sort_scratch();
    let mut warmed = false;
    map_stage(
        move |buf: &mut fg_core::Buffer, _ctx: &mut fg_core::StageCtx| {
            if !warmed {
                warmed = true;
                if fg_core::alloc::installed() {
                    let warmup = fg_core::register_tag("sort/warmup");
                    return fg_core::with_tag(warmup, || {
                        fmt.sort_bytes_with(buf.filled_mut(), &mut scratch);
                        Ok(())
                    });
                }
            }
            fmt.sort_bytes_with(buf.filled_mut(), &mut scratch);
            Ok(())
        },
    )
}

/// The write stage of a striping pass on node `rank`: the buffer holds
/// chunks placed by global byte offset in the striped output; their headers
/// are rewritten to local offsets in place and the pieces written, adjacent
/// ones coalesced, to [`OUTPUT_FILE`].
pub(crate) fn striped_write_stage(
    disk: &DiskRef,
    striping: Striping,
    rank: usize,
) -> Box<dyn fg_core::Stage> {
    let disk = Arc::clone(disk);
    let mut runs = Vec::new();
    let mut scratch = Vec::new();
    map_stage(move |buf, _ctx| {
        chunks::relocate_chunks(buf.filled_mut(), |goff| {
            let (dest, local) = striping.locate_byte(goff);
            debug_assert_eq!(dest, rank, "stripe piece landed on wrong node");
            local
        })?;
        chunks::for_each_coalesced_write(buf.filled(), &mut runs, &mut scratch, |off, data| {
            disk.write_at(OUTPUT_FILE, off, data)
                .map_err(SortError::from)?;
            Ok(())
        })
    })
}

/// The even columnsort step after pass `pass_no`'s sort, as chunks for the
/// owners of the destination columns: sorted column `c` (`data`, records of
/// `rb` bytes) contributes `r/s` records to every column `d`, appended to
/// `exchange`'s part for `d`'s owner behind a `(d, c)` chunk header.  Pass 1
/// transposes (record `i` goes to column `i mod s`), pass 2 untransposes
/// (record `i` goes to column `i div (r/s)`).
pub fn route_column(
    pass_no: u8,
    m: Matrix,
    c: usize,
    rb: usize,
    data: &[u8],
    exchange: &mut Exchange,
) {
    let chunk_records = m.r / m.s;
    let part_bytes = m.cols_per_node() * chunks::chunk_size(chunk_records * rb);
    for node in 0..m.nodes {
        exchange.part(node).reserve_exact(part_bytes);
    }
    for d in 0..m.s {
        let part = exchange.part(m.owner(d));
        chunks::push_chunk_header(part, d as u64, c as u64, chunk_records * rb);
        match pass_no {
            1 => {
                for i in (d..m.r).step_by(m.s) {
                    part.extend_from_slice(&data[i * rb..(i + 1) * rb]);
                }
            }
            _ => {
                let start = d * chunk_records * rb;
                part.extend_from_slice(&data[start..start + chunk_records * rb]);
            }
        }
    }
}

/// Passes 1 and 2: `read → sort → communicate → permute → write` over a
/// single linear pipeline of `s/P` rounds.  Shared with the four-pass
/// variant ([`crate::csort4`]), whose first two passes are identical.
pub(crate) fn pass12(
    pass_no: u8,
    cfg: &SortConfig,
    m: Matrix,
    q: usize,
    comm: &Communicator,
    disk: &DiskRef,
) -> Result<(), SortError> {
    let rb = cfg.record.record_bytes;
    let cbytes = col_bytes(cfg, m);
    // Per round a node receives r records in at most s chunks.
    let buf_bytes = cbytes + m.s * CHUNK_HEADER_BYTES + 64;
    let rounds = m.cols_per_node() as u64;
    let (in_file, out_file) = match pass_no {
        1 => (INPUT_FILE, M1_FILE),
        _ => (M1_FILE, M2_FILE),
    };

    let mut prog = Program::new(format!("csort-p{pass_no}-n{q}"));
    cfg.instrument_with_disks(&mut prog, std::slice::from_ref(disk));

    // read: local chunk t of the input file is column t*P + q.
    let read_disk = Arc::clone(disk);
    let in_name = in_file.to_string();
    let read = prog.add_stage(
        "read",
        map_stage(move |buf, _ctx| {
            let t = buf.round();
            read_disk
                .read_at(&in_name, t * cbytes as u64, &mut buf.space_mut()[..cbytes])
                .map_err(SortError::from)?;
            buf.set_filled(cbytes);
            Ok(())
        }),
    );

    // sort: odd columnsort step (1 or 3), farmed when cfg.workers > 1.
    let sort = add_sort_stage(&mut prog, cfg);

    // communicate: balanced alltoallv; the same buffer is conveyed (§I:
    // "with balanced communication ... we can convey to the successor the
    // same buffer that the stage accepted").
    let comm2 = comm.clone();
    let nodes = m.nodes;
    let (r, s) = (m.r, m.s);
    let chunk_records = r / s;
    let communicate = prog.add_stage("communicate", {
        let mut exchange = Exchange::new(nodes);
        map_stage(move |buf, _ctx| {
            let c = m.col_of_round(q, buf.round() as usize); // my column this round
            route_column(pass_no, m, c, rb, buf.filled(), &mut exchange);
            Ok(exchange.trade(&comm2, buf)?)
        })
    });

    // permute: translate (dest column, source column) headers into file
    // offsets.  Column d's region of the output file is
    // [local_index(d)*r, ...); round t's incoming records for d are
    // appended at t * (P * r/s) records into that region.
    let permute = prog.add_stage("permute", {
        // Persistent scratch: the repacked payload and the bytes already
        // appended to each destination region this round.  Each sender
        // contributed chunk_records records; they stack in sender order
        // (source column / P order is irrelevant: the next pass re-sorts).
        let mut packed: Vec<u8> = Vec::new();
        let mut appended: Vec<(usize, usize)> = Vec::new(); // (base, bytes)
        map_stage(move |buf, _ctx| {
            let t = buf.round() as usize;
            let per_round_per_col = nodes * chunk_records; // records
            packed.clear();
            appended.clear();
            for chunk in chunks::iter_chunks(buf.filled()) {
                let chunk = chunk?;
                let d = chunk.a as usize;
                debug_assert_eq!(m.owner(d), q, "chunk routed to wrong node");
                let base = (m.local_index(d) * r + t * per_round_per_col) * rb;
                let within = match appended.iter_mut().find(|(b, _)| *b == base) {
                    Some((_, w)) => w,
                    None => {
                        appended.push((base, 0));
                        &mut appended.last_mut().expect("just pushed").1
                    }
                };
                // Rewrite as a (file offset, data) chunk for the writer.
                chunks::push_chunk(&mut packed, (base + *within) as u64, 0, chunk.data);
                *within += chunk.data.len();
            }
            buf.copy_from(&packed);
            Ok(())
        })
    });

    // write: issue the positioned writes, coalesced without copying each
    // chunk out of the buffer first.
    let write_disk = Arc::clone(disk);
    let out_name = out_file.to_string();
    let write = prog.add_stage("write", {
        let mut runs = Vec::new();
        let mut scratch = Vec::new();
        map_stage(move |buf, _ctx| {
            chunks::for_each_coalesced_write(buf.filled(), &mut runs, &mut scratch, |off, data| {
                write_disk
                    .write_at(&out_name, off, data)
                    .map_err(SortError::from)?;
                Ok(())
            })
        })
    });

    prog.add_pipeline(
        pass_pipeline(cfg, "pass", buf_bytes, rounds),
        &[read, sort, communicate, permute, write],
    )?;
    prog.run()?;
    // Write barrier: the next pass reads this pass's output, so any
    // write-behind must land (and surface its deferred errors) here.
    disk.flush().map_err(SortError::from)?;
    Ok(())
}

/// Pass 3: steps 5–8 coalesced —
/// `read → sort → exchange-halves → merge → stripe → write`.
fn pass3(
    cfg: &SortConfig,
    m: Matrix,
    q: usize,
    comm: &Communicator,
    disk: &DiskRef,
) -> Result<(), SortError> {
    let rb = cfg.record.record_bytes;
    let cbytes = col_bytes(cfg, m);
    let half = m.r / 2 * rb;
    let rounds = m.cols_per_node() as u64;
    // A buffer holds a merged window (r records), plus the extra half
    // window w(s) on the last column, plus chunk headers for striping.
    let window_cap = cbytes + half;
    // The stripe exchange is balanced only on average; a node can receive
    // up to a block of slack from each sender, so size for it.
    let max_chunks = window_cap / cfg.block_bytes + 2 * m.nodes + 4;
    let buf_bytes = window_cap + m.nodes * cfg.block_bytes + max_chunks * CHUNK_HEADER_BYTES + 64;
    let (r, s, nodes) = (m.r, m.s, m.nodes);

    let mut prog = Program::new(format!("csort-p3-n{q}"));
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

    // sort: step 5, farmed when cfg.workers > 1; replicas own their scratch.
    let fmt = cfg.record;
    let sort = add_sort_stage(&mut prog, cfg);

    // exchange-halves: after the step-5 sort, send my column's larger half
    // to the owner of column c+1 and receive the larger half of column c-1;
    // the buffer leaves holding the *merge input* for window w(c):
    // [received larger half of c-1][my smaller half], plus — only for the
    // last column — my own larger half retained for window w(s).
    let comm3 = comm.clone();
    let exchange = prog.add_stage(
        "exchange",
        map_stage(move |buf, _ctx| {
            let t = buf.round() as usize;
            let c = m.col_of_round(q, t);
            let last = c == s - 1;
            if !last {
                // A pooled payload: after the first rounds it is a buffer
                // this node has sent before, at its full capacity.
                let mut larger = comm3.payload().map_err(SortError::from)?;
                larger.extend_from_slice(&buf.filled()[half..]);
                comm3
                    .send(m.owner(c + 1), (c + 1) as u64, larger)
                    .map_err(SortError::from)?;
            }
            // Read in place; dropping the message hands its payload back to
            // the sender's pool.
            let msg = match c {
                0 => None,
                _ => Some(
                    comm3
                        .recv(Some(m.owner(c - 1)), c as u64)
                        .map_err(SortError::from)?,
                ),
            };
            let received: &[u8] = msg.as_ref().map_or(&[], |msg| &msg.payload);
            // Assemble [received][smaller half][(last only) larger half] in
            // place: what stays of the column moves up behind the received
            // half (the larger half has been sent, or stays as well).
            let keep = if last { cbytes } else { half };
            let space = buf.space_mut();
            space.copy_within(..keep, received.len());
            space[..received.len()].copy_from_slice(received);
            buf.set_filled(received.len() + keep);
            Ok(())
        }),
    );

    // merge: step 7 — merge the two sorted halves of window w(c) (the
    // trailing extra half for w(s) is already sorted and stays in place).
    let merge = prog.add_stage(
        "merge",
        map_stage(move |buf, ctx| {
            let t = buf.round() as usize;
            let c = m.col_of_round(q, t);
            let window = if c > 0 { 2 * half } else { half };
            debug_assert!(buf.len() >= window);
            if c > 0 {
                let aux = ctx.aux(window);
                merge_two_sorted(fmt, &buf.filled()[..window], half, aux);
                buf.filled_mut()[..window].copy_from_slice(&aux[..window]);
            }
            Ok(())
        }),
    );

    // stripe: window w(c) covers global ranks [c·r − r/2, c·r + r/2)
    // (clamped); split it across the cluster's disks in PDM order and
    // exchange (balanced alltoallv).  The last column also carries w(s).
    let comm4 = comm.clone();
    let striping = Striping::new(nodes, cfg.block_bytes);
    let stripe = prog.add_stage("stripe", {
        let mut stripes = Exchange::new(nodes);
        map_stage(move |buf, _ctx| {
            let t = buf.round() as usize;
            let c = m.col_of_round(q, t);
            let start_rank = if c == 0 { 0 } else { c * r - r / 2 };
            let goff = start_rank as u64 * rb as u64;
            stripes.gather_stripes(&striping, goff, buf.filled());
            Ok(stripes.trade(&comm4, buf)?)
        })
    });

    let write = prog.add_stage("write", striped_write_stage(disk, striping, q));

    prog.add_pipeline(
        pass_pipeline(cfg, "pass3", buf_bytes, rounds),
        &[read, sort, exchange, merge, stripe, write],
    )?;
    prog.run()?;
    disk.flush().map_err(SortError::from)?;
    Ok(())
}

/// Merge `data` (two sorted runs: `[0, split_bytes)` and
/// `[split_bytes, len)`) into `out[..len]`.
///
/// Gallops ([`crate::kernels::run_len`]): instead of one key comparison
/// and one `memcpy` per record, each iteration finds the whole run of
/// records the leading side contributes and copies it at once — on the
/// nearly-sorted boundary windows of pass 3 this collapses to a handful
/// of bulk copies.
pub(crate) fn merge_two_sorted(
    fmt: crate::record::RecordFormat,
    data: &[u8],
    split_bytes: usize,
    out: &mut [u8],
) {
    let rb = fmt.record_bytes;
    let (a, b) = data.split_at(split_bytes);
    let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        // Ties favor `a` (the run holding the earlier global ranks).
        let bkey = fmt.key(&b[j..]);
        let run = crate::kernels::run_len(fmt, &a[i..], |k| k <= bkey) * rb;
        if run > 0 {
            out[o..o + run].copy_from_slice(&a[i..i + run]);
            i += run;
            o += run;
            if i == a.len() {
                break;
            }
        }
        // `a`'s (new) head strictly beats `b`'s, so `b` contributes at
        // least one record here — the loop always makes progress.
        let akey = fmt.key(&a[i..]);
        let run = crate::kernels::run_len(fmt, &b[j..], |k| k < akey) * rb;
        out[o..o + run].copy_from_slice(&b[j..j + run]);
        j += run;
        o += run;
    }
    if i < a.len() {
        out[o..o + a.len() - i].copy_from_slice(&a[i..]);
        o += a.len() - i;
    }
    if j < b.len() {
        out[o..o + b.len() - j].copy_from_slice(&b[j..]);
        o += b.len() - j;
    }
    debug_assert_eq!(o, data.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordFormat;

    #[test]
    fn merge_two_sorted_runs() {
        let f = RecordFormat::REC16;
        let mk = |keys: &[u64]| {
            let mut out = vec![0u8; keys.len() * 16];
            for (i, &k) in keys.iter().enumerate() {
                f.set_key(&mut out[i * 16..(i + 1) * 16], k);
            }
            out
        };
        let mut data = mk(&[1, 4, 9]);
        data.extend_from_slice(&mk(&[2, 4, 8]));
        let mut out = vec![0u8; data.len()];
        merge_two_sorted(f, &data, 3 * 16, &mut out);
        let keys: Vec<u64> = f.records(&out).map(|r| f.key(r)).collect();
        assert_eq!(keys, vec![1, 2, 4, 4, 8, 9]);
    }

    #[test]
    fn merge_empty_first_run() {
        let f = RecordFormat::REC16;
        let mut data = vec![0u8; 32];
        f.set_key(&mut data[0..16], 3);
        f.set_key(&mut data[16..32], 5);
        let mut out = vec![0u8; 32];
        merge_two_sorted(f, &data, 0, &mut out);
        assert_eq!(out, data);
    }
}
