//! csort: three-pass out-of-core columnsort (the baseline, §III).
//!
//! The `N` records form an `r × s` column-major matrix; column `j` is owned
//! by node `j mod P` and handled in its round `j div P`.  Node `q`'s local
//! input file supplies its own columns: local chunk `t` is global column
//! `t·P + q`.  Each pass runs **one single linear FG pipeline per node** —
//! the only shape csort needs, because its communication is balanced and
//! its I/O pattern oblivious:
//!
//! * **Pass 1** (steps 1–2): `read → sort → communicate → write`.  After
//!   sorting, record `i` of column `c` belongs to column `i mod s` of the
//!   transposed matrix; the communicate stage exchanges the records with a
//!   balanced `alltoallv` (every node sends and receives exactly `r`
//!   records per round).  Because the *next* odd step re-sorts every
//!   column, only column membership matters, so each round's incoming
//!   records stack contiguously, in sender order, in the destination
//!   column's region of the intermediate file — at an offset the *sender*
//!   stamps on each chunk ([`route_column`]), so what arrives lands in file
//!   order and the write stage writes it as it is.  (The paper's pipeline
//!   has a `permute` stage between the two; its arithmetic is the header.)
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

use std::time::Duration;

use fg_core::{map_stage, PipelineCfg, Rounds};
use fg_pdm::{DiskRef, DiskStats, Striping};

use crate::chunks::{self, Exchange, CHUNK_HEADER_BYTES};
use crate::config::{Matrix, SortConfig};
use crate::driver::{self, Node};
use crate::input::INPUT_FILE;
use crate::stages;
use crate::verify::OUTPUT_FILE;
use crate::SortError;

/// Intermediate file after pass 1.
pub const M1_FILE: &str = "csort_m1";
/// Intermediate file after pass 2.
pub const M2_FILE: &str = "csort_m2";

/// Timings and counters from one columnsort run of `N` passes.
#[derive(Debug, Clone)]
pub struct ColumnsortReport<const N: usize> {
    /// Max-across-nodes wall time of each pass.
    pub pass: [Duration; N],
    /// Total wall time (sum of every phase, `sync` included).
    pub total: Duration,
    /// Per-node disk stats accumulated over the whole run.
    pub disk_stats: Vec<DiskStats>,
    /// Per-node bytes sent over the interconnect.
    pub bytes_sent: Vec<u64>,
    /// The matrix geometry used.
    pub matrix: Matrix,
    /// `(phase, max-across-nodes wall time)` in run order: `pass` by name,
    /// then `sync`.
    pub phases: Vec<(&'static str, Duration)>,
    /// Node 0's FG report for each pass.
    pub node0_reports: Vec<fg_core::Report>,
}

/// Timings and counters from one csort run.
pub type CsortReport = ColumnsortReport<3>;

/// Run csort on the provisioned `disks` (one per node, each holding
/// `input`); leaves striped output in `output` on every disk.
pub fn run_csort(cfg: &SortConfig, disks: &[DiskRef]) -> Result<CsortReport, SortError> {
    run_columnsort(cfg, disks, |node, m| {
        node.phase("pass 1", |node| pass12(1, node, m))?;
        node.phase("pass 2", |node| pass12(2, node, m))?;
        node.phase("pass 3", |node| pass3(node, m))
    })
}

/// Run the `N` phases of `passes` on every node, over the geometry the
/// config's size admits.
pub(crate) fn run_columnsort<const N: usize>(
    cfg: &SortConfig,
    disks: &[DiskRef],
    passes: impl Fn(&mut Node, Matrix) -> Result<(), SortError> + Send + Sync + 'static,
) -> Result<ColumnsortReport<N>, SortError> {
    cfg.validate()?; // `Matrix::choose` divides by the node count
    let matrix = Matrix::choose(cfg.total_records(), cfg.nodes)?;
    let mut run = driver::launch(cfg, disks, move |node| passes(node, matrix))?;
    Ok(ColumnsortReport {
        pass: run.times(),
        total: run.phases.iter().map(|p| p.1).sum(),
        matrix,
        node0_reports: run.take_node0_reports(),
        phases: run.phases,
        disk_stats: run.disk_stats,
        bytes_sent: run.bytes_sent,
    })
}

/// The configuration of a pass's (possibly farmed) pipeline.  Each sort
/// worker holds a buffer in flight, so the pool must exceed the worker count
/// or replication just starves the pool.
pub(crate) fn pass_pipeline(
    cfg: &SortConfig,
    name: &str,
    buf_bytes: usize,
    rounds: u64,
) -> PipelineCfg {
    let buffers = cfg.pipeline_buffers.max(cfg.workers + 2);
    PipelineCfg::new(name, buffers, buf_bytes).rounds(Rounds::Count(rounds))
}

/// Bytes of a pass-3 buffer: a merged window (`r` records), plus the extra
/// half window `w(s)` on the last column, plus what striping adds — the
/// stripe exchange is balanced only on average, so a node can receive up to
/// a block of slack from each sender, each piece behind a chunk header.
pub(crate) fn window_buf_bytes(cfg: &SortConfig, m: Matrix) -> usize {
    let window_cap = (m.r + m.r / 2) * cfg.record.record_bytes;
    let max_chunks = window_cap / cfg.block_bytes + 2 * m.nodes + 4;
    window_cap + m.nodes * cfg.block_bytes + max_chunks * CHUNK_HEADER_BYTES + 64
}

/// The even columnsort step after pass `pass_no`'s sort, as chunks for the
/// owners of the destination columns: node `q`'s sorted column of round
/// `t` (`data`, records of `rb` bytes) contributes `r/s` records to every
/// column `d`, appended to `exchange`'s part for `d`'s owner.  Pass 1
/// transposes (record `i` goes to column `i mod s`), pass 2 untransposes
/// (record `i` goes to column `i div (r/s)`).  Each sender contributes one
/// chunk a round to `d`'s region of its owner's file, so the chunks stack
/// there in rank order and the header says where: byte `(local_index(d)·r
/// + (t·P + q)·r/s)·rb`.
pub fn route_column(
    pass_no: u8,
    m: Matrix,
    q: usize,
    t: usize,
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
        let at = m.local_index(d) * m.r + (t * m.nodes + q) * chunk_records;
        chunks::push_chunk_header(part, (at * rb) as u64, 0, chunk_records * rb);
        match pass_no {
            // One `extend_from_slice` a record is a call and a capacity
            // check a record; the paper's two widths size the chunk once
            // and copy fixed-size records.
            1 => match rb {
                16 => gather_strided::<16>(data, part, d, m.s),
                64 => gather_strided::<64>(data, part, d, m.s),
                _ => {
                    for i in (d..m.r).step_by(m.s) {
                        part.extend_from_slice(&data[i * rb..(i + 1) * rb]);
                    }
                }
            },
            _ => {
                let start = d * chunk_records * rb;
                part.extend_from_slice(&data[start..start + chunk_records * rb]);
            }
        }
    }
}

/// Append records `d`, `d + s`, `d + 2s`, … of `data` to `part` as
/// fixed-size copies (straight-line vector moves, as `kernels::gather`'s).
fn gather_strided<const RB: usize>(data: &[u8], part: &mut Vec<u8>, d: usize, s: usize) {
    let recs = data.chunks_exact(RB).skip(d).step_by(s);
    let at = part.len();
    part.resize(at + recs.len() * RB, 0);
    for (out, rec) in part[at..].chunks_exact_mut(RB).zip(recs) {
        let rec: &[u8; RB] = rec.try_into().expect("record bounds");
        out.copy_from_slice(rec);
    }
}

/// Passes 1 and 2: `read → sort → communicate → write` over a single
/// linear pipeline of `s/P` rounds.  Shared with the four-pass variant
/// ([`crate::csort4`]), whose first two passes are identical.
pub(crate) fn pass12(pass_no: u8, node: &mut Node, m: Matrix) -> Result<(), SortError> {
    let cfg = &node.cfg;
    let q = node.rank;
    let rb = cfg.record.record_bytes;
    let cbytes = m.r * rb;
    // Per round a node receives r records in at most s chunks.
    let buf_bytes = cbytes + m.s * CHUNK_HEADER_BYTES + 64;
    let (name, in_file, out_file) = match pass_no {
        1 => ("csort-p1", INPUT_FILE, M1_FILE),
        _ => ("csort-p2", M1_FILE, M2_FILE),
    };
    let mut prog = node.program(name);

    // read: local chunk t of the input file is column t*P + q.
    let read = prog.add_stage(
        "read",
        stages::read_stage(&node.disk, in_file, move |t| (t * cbytes as u64, cbytes)),
    );

    // sort: odd columnsort step (1 or 3), farmed when cfg.workers > 1.
    let sort = prog.workers("sort", cfg.workers, |_| stages::sort_stage(cfg));

    // communicate: balanced alltoallv; the same buffer is conveyed (§I:
    // "with balanced communication ... we can convey to the successor the
    // same buffer that the stage accepted").  The senders place every
    // chunk, so what lands is the round's writes, in file order.
    let comm = node.comm.clone();
    let communicate = prog.add_stage("communicate", {
        let mut exchange = Exchange::new(m.nodes);
        map_stage(move |buf, _ctx| {
            let t = buf.round() as usize;
            route_column(pass_no, m, q, t, rb, buf.filled(), &mut exchange);
            Ok(exchange.trade_placed(&comm, buf)?)
        })
    });

    let write = prog.add_stage("write", stages::write_stage(&node.disk, out_file));

    let rounds = m.cols_per_node() as u64;
    prog.add_pipeline(
        pass_pipeline(cfg, "pass", buf_bytes, rounds),
        &[read, sort, communicate, write],
    )?;
    node.run(prog)?;
    if pass_no == 2 {
        node.disk.delete(M1_FILE); // its last reader
    }
    Ok(())
}

/// Pass 3: steps 5–8 coalesced —
/// `read → sort → exchange-halves → merge → stripe → write`.
fn pass3(node: &mut Node, m: Matrix) -> Result<(), SortError> {
    let cfg = &node.cfg;
    let q = node.rank;
    let rb = cfg.record.record_bytes;
    let cbytes = m.r * rb;
    let mut prog = node.program("csort-p3");

    let read = prog.add_stage(
        "read",
        stages::read_stage(&node.disk, M2_FILE, move |t| (t * cbytes as u64, cbytes)),
    );
    // sort: step 5, farmed when cfg.workers > 1; replicas own their scratch.
    let sort = prog.workers("sort", cfg.workers, |_| stages::sort_stage(cfg));
    let exchange = prog.add_stage(
        "exchange",
        stages::exchange_halves_stage(&node.comm, m, q, rb),
    );
    let merge = prog.add_stage("merge", stages::merge_halves_stage(cfg.record, m, q));
    let (stripe, write) = stripe_and_write(&mut prog, node, m);

    let rounds = m.cols_per_node() as u64;
    prog.add_pipeline(
        pass_pipeline(cfg, "pass3", window_buf_bytes(cfg, m), rounds),
        &[read, sort, exchange, merge, stripe, write],
    )?;
    node.run(prog)?;
    node.disk.delete(M2_FILE); // its last reader
    Ok(())
}

/// Step 8 and the output, as the stages `stripe` and `write`: the merged
/// window `w(c)` covers global ranks `[c·r − r/2, c·r + r/2)` (clamped;
/// the last column also carries `w(s)`); split it across the cluster's disks
/// in PDM order, exchange (balanced `alltoallv`) and write what arrives.
pub(crate) fn stripe_and_write(
    prog: &mut fg_core::Program,
    node: &Node,
    m: Matrix,
) -> (fg_core::StageId, fg_core::StageId) {
    let (q, rb) = (node.rank, node.cfg.record.record_bytes);
    let striping = Striping::new(m.nodes, node.cfg.block_bytes);
    let stripe = stages::stripe_stage(&node.comm, striping, move |buf| {
        let c = m.col_of_round(q, buf.round() as usize);
        (c * m.r).saturating_sub(m.r / 2) as u64 * rb as u64
    });
    let write = stages::write_stage(&node.disk, OUTPUT_FILE);
    (
        prog.add_stage("stripe", stripe),
        prog.add_stage("write", write),
    )
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
