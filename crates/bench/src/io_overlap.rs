//! The out-of-core acceptance experiment: real files, real syscalls.
//!
//! A single node streams `read → compute → write` over an
//! [`OsDisk`](fg_pdm::OsDisk) in a scratch directory, once synchronously
//! (every `read_at`/`write_at` is a blocking positioned syscall, one block
//! at a time) and once as an FG pipeline over a pool of
//! [`POOL_BUFFERS`](crate::overlap::POOL_BUFFERS) buffers, which is its
//! read-ahead and write-behind: the read stage fills the next buffer and
//! the write stage drains the last while the compute stage works.  Both
//! arms make the same calls on the same kind of bare disk — the pool alone
//! earns the overlap, exactly as in every sort program (DESIGN.md §6).
//!
//! Both arms run the *durable* [`OsDisk`] mode (`sync_data` after every
//! write): each completed write has reached the device, and each write
//! therefore pays device latency during which the CPU is idle.  That is
//! the latency a pipeline can genuinely hide — page-cache writes are pure
//! memcpy, so with no core to spare a write thread would only steal cycles
//! from compute and "overlap" nothing.  Compute per block is calibrated to
//! the *measured* per-block durable I/O cost of this machine's filesystem,
//! so the experiment reports an overlap win rather than a compute/IO
//! imbalance artifact.  Both arms end with a
//! [`flush`](fg_pdm::Disk::flush), and the two output files are compared
//! byte-for-byte before any timing is reported.

use std::time::{Duration, Instant};

use fg_pdm::{Disk, DiskRef, OsDisk, ScratchDir};
use fg_sort::SortError;

use crate::overlap::{calibrate_passes, pipelined_arm, serial_arm};

/// Result of the out-of-core overlap experiment.
#[derive(Debug, Clone, Copy)]
pub struct IoOverlapResult {
    /// Wall time of the synchronous loop on the bare [`OsDisk`].
    pub sync: Duration,
    /// Wall time of the same calls as an FG pipeline.
    pub overlapped: Duration,
    /// Blocks processed (per arm).
    pub blocks: usize,
    /// Bytes per block.
    pub block_bytes: usize,
    /// Calibrated checksum passes per block.
    pub compute_passes: usize,
}

impl IoOverlapResult {
    /// sync / overlapped — how much I/O latency the pool hid.
    pub fn speedup(&self) -> f64 {
        self.sync.as_secs_f64() / self.overlapped.as_secs_f64()
    }
}

/// What [`check`] holds IO1 to ([`run_io_overlap`] has already refused
/// arms whose output files differ).
pub const CLAIM: &str = "overlapped < sync on byte-identical output";

/// IO1's claim: the pipeline hides device latency the bare loop waits out.
pub fn check(res: &IoOverlapResult) -> Result<(), String> {
    crate::faster(("overlapped", res.overlapped), ("sync", res.sync))
}

/// Measure this filesystem's per-block `read + write` cost: the loop body
/// with zero compute over a handful of blocks, best of three.  The
/// pass-end `flush` is deliberately excluded — it is a one-off tail both
/// arms pay identically, not a per-block cost the pipeline can hide.
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

/// Run the experiment: `blocks` blocks of `block_bytes` through a bare
/// durable [`OsDisk`], synchronously and as a pipeline, with compute
/// calibrated to the measured per-block I/O cost so the pipeline has real
/// latency to hide.
pub fn run_io_overlap(blocks: usize, block_bytes: usize) -> Result<IoOverlapResult, SortError> {
    let scratch = ScratchDir::new("io-overlap").map_err(|e| SortError::Disk(e.to_string()))?;
    let io_per_block = probe_io_per_block(scratch.path(), block_bytes)?;
    // Par compute with I/O: that is where overlap pays the most and where
    // a serial loop is honestly half-idle.
    let passes = calibrate_passes(block_bytes, io_per_block);
    let input = input_bytes(blocks, block_bytes);

    let sync_disk = OsDisk::durable(scratch.path().join("sync"))?;
    sync_disk.load("in", input.clone());
    let sync = serial_arm(&*sync_disk, blocks, block_bytes, passes)?;

    let fg_disk: DiskRef = OsDisk::durable(scratch.path().join("fg"))?;
    fg_disk.load("in", input);
    let overlapped = pipelined_arm(&fg_disk, blocks, block_bytes, passes)?;

    // Same input, same compute: the two output files must be identical, or
    // the timing comparison is meaningless.
    let a = sync_disk.snapshot("out");
    if a != fg_disk.snapshot("out") || a.is_none() {
        return Err(SortError::Disk(
            "pipelined and synchronous runs produced different output".into(),
        ));
    }

    Ok(IoOverlapResult {
        sync,
        overlapped,
        blocks,
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
        assert_eq!(res.blocks, 12);
        assert!(res.sync > Duration::ZERO);
        assert!(res.overlapped > Duration::ZERO);
        assert!(res.compute_passes >= 1);
    }

    #[test]
    fn check_rejects_a_scheduler_that_hides_nothing() {
        let res = |overlapped_ms| IoOverlapResult {
            sync: Duration::from_millis(29),
            overlapped: Duration::from_millis(overlapped_ms),
            blocks: 64,
            block_bytes: 64 << 10,
            compute_passes: 1,
        };
        assert_eq!(check(&res(18)), Ok(()));
        crate::tests::rejects(check(&res(31)), &["overlapped 0.031s", "sync 0.029s"]);
    }
}
