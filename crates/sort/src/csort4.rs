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
//! * **Pass 3** (steps 5–7): `read → sort → shift → write`, which is
//!   csort's pass 3 cut after its exchange of halves: the buffer leaves
//!   `shift` holding boundary window `w(c)`, its two halves merged where
//!   they landed — plus, on the last column, its own larger half, `w(s)` —
//!   and is written as it is to the node's intermediate file, the windows
//!   back to back in round order.
//! * **Pass 4** (step 8): `read → stripe → write`, the rest of csort's pass
//!   3 behind a read of those windows: the unshift places each merged window
//!   at its global ranks, exchanged once (balanced `alltoallv`) into the
//!   striped output.
//!
//! So the two passes are lists of [`stages`] constructors csort also uses,
//! and one new pair: the write and the read of a window.

use std::sync::Arc;

use fg_core::map_stage;
use fg_pdm::DiskRef;

use crate::config::{Matrix, SortConfig};
use crate::csort::{
    pass12, pass_pipeline, run_columnsort, stripe_and_write, ColumnsortReport, M2_FILE,
};
use crate::driver::Node;
use crate::stages;
use crate::SortError;

/// Intermediate file after pass 3: the node's boundary windows, merged,
/// back to back in round order (`window` says where).
pub const M3_FILE: &str = "csort4_m3";

/// Timings and counters from one csort4 run.
pub type Csort4Report = ColumnsortReport<4>;

/// Run the four-pass columnsort; leaves striped output in `output`.
pub fn run_csort4(cfg: &SortConfig, disks: &[DiskRef]) -> Result<Csort4Report, SortError> {
    run_columnsort(cfg, disks, |node, m| {
        node.phase("pass 1", |node| pass12(1, node, m))?;
        node.phase("pass 2", |node| pass12(2, node, m))?;
        node.phase("pass 3", |node| pass3_shift(node, m))?;
        node.phase("pass 4", |node| pass4_unshift(node, m))
    })
}

/// Where round `t`'s window lives in node `q`'s [`M3_FILE`], as `(offset,
/// bytes)`: the windows are a column long, except that column 0's has no
/// received half and the last column's carries `w(s)` behind it.
fn window(m: Matrix, q: usize, rb: usize, t: u64) -> (u64, usize) {
    let (cbytes, half) = (m.r * rb, m.r / 2 * rb);
    let c = m.col_of_round(q, t as usize);
    let len = cbytes - if c == 0 { half } else { 0 } + if c == m.s - 1 { half } else { 0 };
    // Column 0 is node 0's first: its later windows start a half early.
    let short = if q == 0 && t > 0 { half } else { 0 };
    (t * cbytes as u64 - short as u64, len)
}

/// Pass 3 (steps 5–7): sort each column, shift halves across column
/// owners, merge each window where it lands, write the windows.
fn pass3_shift(node: &mut Node, m: Matrix) -> Result<(), SortError> {
    let cfg = &node.cfg;
    let (q, rb) = (node.rank, cfg.record.record_bytes);
    let cbytes = m.r * rb;
    let mut prog = node.program("csort4-p3");

    let read = prog.add_stage(
        "read",
        stages::read_stage(&node.disk, M2_FILE, move |t| (t * cbytes as u64, cbytes)),
    );
    // sort: step 5, farmed when cfg.workers > 1.
    let sort = prog.workers("sort", cfg.workers, |i| stages::sort_stage(node, i));
    let shift = prog.add_stage("shift", stages::exchange_halves_stage(node, m));
    let disk = Arc::clone(&node.disk);
    let write = prog.add_stage(
        "write",
        map_stage(move |buf, _ctx| {
            let (offset, len) = window(m, q, rb, buf.round());
            debug_assert_eq!(buf.len(), len);
            disk.write_at(M3_FILE, offset, buf.filled())
                .map_err(SortError::from)?;
            Ok(())
        }),
    );

    prog.add_pipeline(pass_pipeline(cfg, "pass3", m), &[read, sort, shift, write])?;
    node.run(prog)?;
    node.disk.delete(M2_FILE); // its last reader
    Ok(())
}

/// Pass 4 (step 8): unshift the merged windows to global ranks, stripe,
/// write.
fn pass4_unshift(node: &mut Node, m: Matrix) -> Result<(), SortError> {
    let cfg = &node.cfg;
    let (q, rb) = (node.rank, cfg.record.record_bytes);
    let mut prog = node.program("csort4-p4");

    let read = prog.add_stage(
        "read",
        stages::read_stage(&node.disk, M3_FILE, move |t| window(m, q, rb, t)),
    );
    let (stripe, write) = stripe_and_write(&mut prog, node, m);

    prog.add_pipeline(pass_pipeline(cfg, "pass4", m), &[read, stripe, write])?;
    node.run(prog)?;
    node.disk.delete(M3_FILE); // its last reader
    Ok(())
}
