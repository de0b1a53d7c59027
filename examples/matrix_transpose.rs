//! Out-of-core matrix transpose — the other classic PDM workload (§VIII).
//!
//! Transposes a matrix striped across a simulated cluster in one pass of
//! `read → exchange → write` pipelines, then spot-checks the result.
//!
//! ```text
//! cargo run --release --example matrix_transpose
//! ```

use fg_apps::transpose::{provision, run_transpose, verify_transpose, TransposeConfig};
use fg_pdm::DiskCfg;
use std::time::Duration;

fn main() {
    let mut cfg = TransposeConfig::test_default(6, 384, 256);
    cfg.tile_rows = 16;
    cfg.block_bytes = 2048;
    // A gentle cost model so the pass takes visible time.
    cfg.disk = DiskCfg::new(Duration::from_micros(50), 8.0 * 1024.0 * 1024.0);

    // Element (i, j) carries its own coordinates, so verification is exact.
    let element = |i: usize, j: usize| (((i as u64) << 32) | j as u64).to_le_bytes().to_vec();

    println!(
        "transposing a {}x{} matrix ({} KiB) across {} nodes, {} bands of {} rows",
        cfg.rows,
        cfg.cols,
        cfg.total_bytes() >> 10,
        cfg.nodes,
        cfg.rows / cfg.tile_rows,
        cfg.tile_rows,
    );

    let disks = provision(&cfg, element);
    let report = run_transpose(&cfg, &disks).expect("transpose");
    verify_transpose(&cfg, &disks, element).expect("output is the exact transpose");

    println!(
        "one pass: {:.1} ms; {} KiB sent over the interconnect",
        report.pass.as_secs_f64() * 1e3,
        report.bytes_sent.iter().sum::<u64>() >> 10,
    );
    println!(
        "verified: output[j][i] == input[i][j] for all {} elements",
        cfg.rows * cfg.cols
    );
}
