//! Quickstart: a single linear FG pipeline hiding disk latency.
//!
//! Builds the pipeline of Figure 2 — `read → process → write`, its buffers
//! recycling from `write` back to `read` — over a simulated disk whose operations cost
//! real wall-clock time, then shows how much latency the pipeline hid
//! compared with running the same operations serially.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg::core::{map_stage, PipelineCfg, Program, Rounds};
use fg::pdm::{Disk, DiskCfg, SimDisk};

const BLOCKS: u64 = 64;
const BLOCK_BYTES: usize = 32 * 1024;

/// Real CPU work comparable to the block's I/O time: several xor-rotate
/// passes over the block (a stand-in for the sort/permute stages of the
/// paper's programs).
fn process_block(data: &mut [u8]) {
    for _ in 0..280 {
        let mut acc = 0u8;
        for b in data.iter_mut() {
            acc = acc.rotate_left(1) ^ *b;
            *b = acc;
        }
    }
}

fn main() {
    // A disk that costs 0.5 ms per operation plus 1 MiB/s of transfer time.
    let disk = SimDisk::new(DiskCfg::new(
        Duration::from_micros(500),
        4.0 * 1024.0 * 1024.0,
    ));
    disk.load("in", vec![7u8; BLOCKS as usize * BLOCK_BYTES]);

    // --- the FG way: three asynchronous stages, four recycled buffers ---
    let mut prog = Program::new("quickstart");
    prog.enable_tracing();

    let d = Arc::clone(&disk);
    let read = prog.add_stage(
        "read",
        map_stage(move |buf, _ctx| {
            d.read_at("in", buf.round() * BLOCK_BYTES as u64, buf.space_mut())
                .expect("read");
            buf.fill_to_capacity();
            Ok(())
        }),
    );

    let process = prog.add_stage(
        "process",
        map_stage(|buf, _ctx| {
            process_block(buf.filled_mut());
            Ok(())
        }),
    );

    let d = Arc::clone(&disk);
    let write = prog.add_stage(
        "write",
        map_stage(move |buf, _ctx| {
            d.write_at("out", buf.round() * BLOCK_BYTES as u64, buf.filled())
                .expect("write");
            Ok(())
        }),
    );

    let cfg = PipelineCfg::new("p", 4, BLOCK_BYTES).rounds(Rounds::Count(BLOCKS));
    prog.add_pipeline(cfg, &[read, process, write]).unwrap();

    let report = prog.run().expect("pipeline run");

    // --- the serial way: same operations, one at a time ---
    let disk2 = SimDisk::new(disk.cfg());
    disk2.load("in", vec![7u8; BLOCKS as usize * BLOCK_BYTES]);
    let t0 = Instant::now();
    let mut buf = vec![0u8; BLOCK_BYTES];
    for b in 0..BLOCKS {
        disk2
            .read_at("in", b * BLOCK_BYTES as u64, &mut buf)
            .unwrap();
        process_block(&mut buf);
        disk2.write_at("out", b * BLOCK_BYTES as u64, &buf).unwrap();
    }
    let serial = t0.elapsed();

    println!("processed {BLOCKS} blocks of {BLOCK_BYTES} bytes");
    println!(
        "pipelined (FG): {:>8.1} ms",
        report.wall.as_secs_f64() * 1e3
    );
    println!("serial:         {:>8.1} ms", serial.as_secs_f64() * 1e3);
    println!(
        "latency hidden: {:.2}x speedup, overlap factor {:.2}",
        serial.as_secs_f64() / report.wall.as_secs_f64(),
        report.overlap_factor()
    );
    println!("\nper-stage breakdown:");
    print!("{}", report.render());
    println!("\ntimeline:");
    print!("{}", report.render_gantt(64));
}
