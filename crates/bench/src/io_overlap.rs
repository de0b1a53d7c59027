//! The out-of-core acceptance experiment: real files, real syscalls.
//!
//! A single node streams `read → compute → write` over an
//! [`OsDisk`](fg_pdm::OsDisk) in a scratch directory, synchronously (each
//! `read_at`/`write_at` a blocking positioned syscall) and as an FG
//! pipeline over [`POOL_BUFFERS`](crate::overlap::POOL_BUFFERS) buffers,
//! its read-ahead and write-behind: the same calls on the same kind of bare
//! disk, so the pool alone earns the overlap, as in every sort program
//! (DESIGN.md §6).  The arms run as alternating pairs ([`paired`]), each on
//! its own disk, and end with a [`flush`](fg_pdm::Disk::flush); the two
//! output files are compared byte-for-byte before any timing is reported.
//!
//! Both arms run the *durable* [`OsDisk`] mode (`sync_data` after every
//! write), so each write pays device latency during which the CPU is idle:
//! the latency a pipeline can genuinely hide (page-cache writes are pure
//! memcpy).  Compute per block is calibrated to the *measured* per-block
//! durable I/O cost of this machine's filesystem, so the experiment reports
//! an overlap win rather than a compute/IO imbalance artifact.

use std::time::{Duration, Instant};

use fg_pdm::{Disk, DiskRef, OsDisk, ScratchDir};
use fg_sort::SortError;

use crate::overlap::{calibrate_passes, paired, pipelined_arm, serial_arm, OverlapResult};

/// Result of the out-of-core overlap experiment.
#[derive(Debug, Clone, Copy)]
pub struct IoOverlapResult {
    /// The median pair: `serial` is the synchronous loop, `pipelined` FG's.
    pub arms: OverlapResult,
    /// Bytes per block.
    pub block_bytes: usize,
    /// Calibrated checksum passes per block.
    pub compute_passes: usize,
}

/// What [`check`] holds IO1 to ([`run_io_overlap`] has already refused
/// arms whose output files differ).
pub const CLAIM: &str = "overlapped < sync on byte-identical output";

/// IO1's claim: the pipeline hides device latency the bare loop waits out.
pub fn check(res: &IoOverlapResult) -> Result<(), String> {
    crate::faster(
        ("overlapped", res.arms.pipelined),
        ("sync", res.arms.serial),
    )
}

/// Measure this filesystem's per-block `read + write` cost: the loop body
/// with zero compute over a handful of blocks, best of three, without the
/// pass-end `flush`, which forces nothing after durable writes.
fn probe_io_per_block(root: &std::path::Path, block_bytes: usize) -> Result<Duration, SortError> {
    const PROBE_BLOCKS: usize = 16;
    let disk = OsDisk::durable(root.join("probe"))?;
    disk.load("in", input_bytes(PROBE_BLOCKS, block_bytes));
    let mut buf = vec![0u8; block_bytes];
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        for b in 0..PROBE_BLOCKS {
            disk.read_at("in", (b * block_bytes) as u64, &mut buf)?;
            disk.write_at("out", (b * block_bytes) as u64, &buf)?;
        }
        best = best.min(t0.elapsed());
    }
    disk.flush()?;
    Ok(best / PROBE_BLOCKS as u32)
}

fn input_bytes(blocks: usize, block_bytes: usize) -> Vec<u8> {
    (0..blocks * block_bytes)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9).to_le_bytes()[0])
        .collect()
}

/// Run IO1: `blocks` blocks of `block_bytes` through a bare durable
/// [`OsDisk`], compute calibrated to the measured per-block I/O cost.
pub fn run_io_overlap(blocks: usize, block_bytes: usize) -> Result<IoOverlapResult, SortError> {
    let scratch = ScratchDir::new("io-overlap").map_err(|e| SortError::Disk(e.to_string()))?;
    let io_per_block = probe_io_per_block(scratch.path(), block_bytes)?;
    // Par compute with I/O: that is where overlap pays the most and where
    // a serial loop is honestly half-idle.
    let passes = calibrate_passes(block_bytes, io_per_block);
    let input = input_bytes(blocks, block_bytes);

    let sync_disk = OsDisk::durable(scratch.path().join("sync"))?;
    sync_disk.load("in", input.clone());
    let fg_disk: DiskRef = OsDisk::durable(scratch.path().join("fg"))?;
    fg_disk.load("in", input);
    let arms = paired(
        blocks,
        || pipelined_arm(&fg_disk, blocks, block_bytes, passes),
        || serial_arm(&*sync_disk, blocks, block_bytes, passes),
    )?;

    // Same input, same compute: the two output files must be identical, or
    // the timing comparison is meaningless.
    let a = sync_disk.snapshot("out");
    if a != fg_disk.snapshot("out") || a.is_none() {
        return Err(SortError::Disk(
            "pipelined and synchronous runs produced different output".into(),
        ));
    }

    Ok(IoOverlapResult {
        arms,
        block_bytes,
        compute_passes: passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_agree_and_report_metrics() {
        // Toy scale: correctness of the harness, not a perf claim.
        let res = run_io_overlap(12, 16 << 10).unwrap();
        assert_eq!(res.arms.blocks, 12);
        assert!(res.arms.serial > Duration::ZERO);
        assert!(res.arms.pipelined > Duration::ZERO);
        assert!(res.compute_passes >= 1);
    }

    #[test]
    fn check_rejects_a_scheduler_that_hides_nothing() {
        let res = |overlapped_ms| IoOverlapResult {
            arms: OverlapResult {
                serial: Duration::from_millis(29),
                pipelined: Duration::from_millis(overlapped_ms),
                blocks: 64,
            },
            block_bytes: 64 << 10,
            compute_passes: 1,
        };
        assert_eq!(check(&res(18)), Ok(()));
        crate::tests::rejects(check(&res(31)), &["overlapped 0.031s", "sync 0.029s"]);
    }
}
