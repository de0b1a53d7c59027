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
//! * **Pass 3** (steps 5–8, coalesced): `read → sort → exchange → stripe →
//!   write`.  After the step-5 sort, steps 6–8 reduce to sorting each
//!   disjoint *boundary window* `[c·r − r/2, c·r + r/2)` (see
//!   [`crate::columnsort`]): the owner of column `c` sends its sorted
//!   column's larger half to the owner of column `c+1` (a balanced
//!   `sendrecv`-style exchange) and merges the half it receives with its
//!   own smaller half where the window lands ([`merge_window`]); the merged
//!   window — a contiguous run of the final sorted sequence at known global
//!   ranks — is exchanged once more (balanced `alltoallv`) to land, striped,
//!   on the cluster's disks.

use std::sync::Arc;
use std::time::Duration;

use fg_core::{map_stage, PipelineCfg};
use fg_pdm::{DiskRef, DiskStats, Striping};

use crate::chunks::{self, Exchange, CHUNK_HEADER_BYTES};
use crate::config::{Matrix, SortConfig};
use crate::driver::{self, Node};
use crate::input::INPUT_FILE;
use crate::record::RecordFormat;
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
    let mut run = driver::launch(cfg, disks, move |node| {
        let part_bytes = exchange_part_bytes(&node.cfg, matrix);
        node.exchange.lock().size_parts(part_bytes);
        passes(node, matrix)
    })?;
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

/// The configuration of a pass's (possibly farmed) pipeline, a round a
/// column the node owns.  Every pass of a run shares one buffer size, the
/// largest any of them needs ([`window_buf_bytes`]), so the passes after the
/// first take all their buffers from the node's stock.  Each sort worker
/// holds a buffer in flight, so the pool must exceed the worker count or
/// replication just starves the pool.
pub(crate) fn pass_pipeline(cfg: &SortConfig, name: &str, m: Matrix) -> PipelineCfg {
    let buffers = cfg.pipeline_buffers.max(cfg.workers + 2);
    PipelineCfg::new(name, buffers, window_buf_bytes(cfg, m)).count(m.cols_per_node() as u64)
}

/// Bytes of a pass-3 buffer: a merged window (`r` records), plus the extra
/// half window `w(s)` on the last column, plus what striping adds — the
/// stripe exchange is balanced only on average, so a node can receive up to
/// a block of slack from each sender, each piece behind a chunk header.
/// It holds every other pass's round too: a column and a half-column
/// window, and, since `r ≥ 2(s−1)²`, the column and `s` chunk headers of
/// what pass 1 or 2 lands.
fn window_buf_bytes(cfg: &SortConfig, m: Matrix) -> usize {
    let window_cap = (m.r + m.r / 2) * cfg.record.record_bytes;
    let max_chunks = window_cap / cfg.block_bytes + 2 * m.nodes + 4;
    window_cap + m.nodes * cfg.block_bytes + max_chunks * CHUNK_HEADER_BYTES + 64
}

/// Bytes of each part of the node's exchange, sized once a run for the
/// largest part any exchange of the run sends one node: a round of passes
/// 1–2 sends each owner `s/P` chunks of `r/s` records, and pass 3's stripe
/// exchange the blocks one node owns of the longest window, the last
/// column's with `w(s)` behind it.
pub fn exchange_part_bytes(cfg: &SortConfig, m: Matrix) -> usize {
    let rb = cfg.record.record_bytes;
    let routed = m.cols_per_node() * chunks::chunk_size(m.r / m.s * rb);
    let striping = Striping::new(m.nodes, cfg.block_bytes);
    routed.max(chunks::stripe_part_bytes(&striping, (m.r + m.r / 2) * rb))
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
/// fixed-size copies (straight-line vector moves).
fn gather_strided<const RB: usize>(data: &[u8], part: &mut Vec<u8>, d: usize, s: usize) {
    let recs = data.as_chunks::<RB>().0.iter().skip(d).step_by(s);
    let at = part.len();
    part.resize(at + recs.len() * RB, 0);
    for (out, rec) in part[at..].as_chunks_mut::<RB>().0.iter_mut().zip(recs) {
        *out = *rec;
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
    let sort = prog.workers("sort", cfg.workers, |i| stages::sort_stage(node, i));

    // communicate: balanced alltoallv on the node's exchange; the buffer is
    // conveyed (§I: "with balanced communication ... we can convey to the
    // successor the same buffer that the stage accepted").  The senders
    // place every chunk, so what lands is the round's writes, in file order.
    let (comm, exchange) = (node.comm.clone(), Arc::clone(&node.exchange));
    let communicate = prog.add_stage(
        "communicate",
        map_stage(move |buf, _ctx| {
            let mut exchange = exchange.lock();
            let t = buf.round() as usize;
            route_column(pass_no, m, q, t, rb, buf.filled(), &mut exchange);
            Ok(exchange.trade_placed(&comm, buf)?)
        }),
    );

    let write = prog.add_stage("write", stages::write_stage(&node.disk, out_file));

    prog.add_pipeline(
        pass_pipeline(cfg, "pass", m),
        &[read, sort, communicate, write],
    )?;
    node.run(prog)?;
    if pass_no == 2 {
        node.disk.delete(M1_FILE); // its last reader
    }
    Ok(())
}

/// Pass 3: steps 5–8 coalesced — `read → sort → exchange → stripe → write`.
fn pass3(node: &mut Node, m: Matrix) -> Result<(), SortError> {
    let cfg = &node.cfg;
    let cbytes = m.r * cfg.record.record_bytes;
    let mut prog = node.program("csort-p3");

    let read = prog.add_stage(
        "read",
        stages::read_stage(&node.disk, M2_FILE, move |t| (t * cbytes as u64, cbytes)),
    );
    // sort: step 5, farmed when cfg.workers > 1, on the scratch of pass 1.
    let sort = prog.workers("sort", cfg.workers, |i| stages::sort_stage(node, i));
    // exchange: steps 6–7, each window merged where it lands.
    let exchange = prog.add_stage("exchange", stages::exchange_halves_stage(node, m));
    let (stripe, write) = stripe_and_write(&mut prog, node, m);

    prog.add_pipeline(
        pass_pipeline(cfg, "pass3", m),
        &[read, sort, exchange, stripe, write],
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
    let stripe = stages::stripe_stage(node, striping, move |buf| {
        let c = m.col_of_round(q, buf.round() as usize);
        (c * m.r).saturating_sub(m.r / 2) as u64 * rb as u64
    });
    let write = stages::write_stage(&node.disk, OUTPUT_FILE);
    (
        prog.add_stage("stripe", stripe),
        prog.add_stage("write", write),
    )
}

/// Columnsort's step 7 where the window lands: `window` holds the sorted
/// smaller half of a column in front of room for `received`, the sorted
/// larger half of the column before it; merge the two into `window`, the
/// received records first among equal keys.  It works from the back, so a
/// record is read before the write position reaches it, and gallops
/// (`kernels::run_len_back`): each step moves the whole run of
/// records one side contributes, so a boundary window, nearly sorted,
/// costs a few bulk copies.
pub fn merge_window(fmt: RecordFormat, received: &[u8], window: &mut [u8]) {
    let rb = fmt.record_bytes;
    let (mut i, mut j) = (window.len() - received.len(), received.len());
    while j > 0 {
        // My records not below the received half's last key go behind it.
        let rkey = fmt.key(&received[j - rb..]);
        let run = crate::kernels::run_len_back(fmt, &window[..i], |k| k >= rkey) * rb;
        window.copy_within(i - run..i, i - run + j);
        i -= run;
        if i == 0 {
            break;
        }
        // My (new) last record is below it, so the received half gives at
        // least one record here — the loop always makes progress.
        let okey = fmt.key(&window[i - rb..]);
        let run = crate::kernels::run_len_back(fmt, &received[..j], |k| k > okey) * rb;
        window[i + j - run..i + j].copy_from_slice(&received[j - run..j]);
        j -= run;
    }
    window[..j].copy_from_slice(&received[..j]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordFormat;

    #[test]
    fn merge_two_sorted_runs() {
        let f = RecordFormat::REC16;
        let mk = |keys: &[u64], tag: u8| {
            let mut out = vec![tag; keys.len() * 16];
            for (i, &k) in keys.iter().enumerate() {
                f.set_key(&mut out[i * 16..(i + 1) * 16], k);
            }
            out
        };
        let received = mk(&[1, 4, 9], 1);
        let mut window = mk(&[2, 4, 8], 2);
        window.resize(6 * 16, 0);
        merge_window(f, &received, &mut window);
        let keys: Vec<(u64, u8)> = f.records(&window).map(|r| (f.key(r), r[8])).collect();
        assert_eq!(keys, [(1, 1), (2, 2), (4, 1), (4, 2), (8, 2), (9, 1)]);
    }

    #[test]
    fn merge_empty_first_run() {
        let f = RecordFormat::REC16;
        let mut data = vec![0u8; 32];
        f.set_key(&mut data[0..16], 3);
        f.set_key(&mut data[16..32], 5);
        let mut window = data.clone();
        merge_window(f, &[], &mut window);
        assert_eq!(window, data);
    }
}
