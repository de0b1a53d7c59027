//! The out-of-core acceptance experiment: real files, real syscalls.
//!
//! A single node streams `read → compute → write` over an
//! [`OsDisk`](fg_pdm::OsDisk) in a scratch directory, once synchronously
//! (every `read_at`/`write_at` is a blocking positioned syscall) and once
//! through an [`IoScheduler`] (read-ahead prefetches the next blocks while
//! the caller computes; write-behind queues the output and coalesces
//! adjacent blocks into larger backend writes).  The loop body is
//! *identical* in both arms — the scheduler alone earns the overlap.  The
//! sort programs do not use one: their read stages' pools are their
//! read-ahead (DESIGN.md §6).
//!
//! Both arms run the *durable* [`OsDisk`] mode (`sync_data` after every
//! write): each completed write has reached the device, and each write
//! therefore pays device latency during which the CPU is idle.  That is
//! the latency a scheduler can genuinely hide — page-cache writes are pure
//! memcpy, so with no core to spare the worker thread would only steal
//! cycles from compute and "overlap" nothing.  Compute per block is
//! calibrated to the *measured* per-block durable I/O cost of this
//! machine's filesystem, so the experiment reports an overlap win rather
//! than a compute/IO imbalance artifact.  Both arms end with a
//! [`flush`](fg_pdm::Disk::flush) so deferred writes are charged to the
//! scheduled arm, and the two output files are compared byte-for-byte
//! before any timing is reported.

use std::time::{Duration, Instant};

use fg_core::metrics::MetricsRegistry;
use fg_pdm::{Disk, DiskRef, IoScheduler, OsDisk, ScratchDir};
use fg_sort::SortError;

use crate::overlap::{calibrate_passes, compute};

/// Result of the out-of-core overlap experiment.
#[derive(Debug, Clone, Copy)]
pub struct IoOverlapResult {
    /// Wall time of the synchronous loop on the bare [`OsDisk`].
    pub sync: Duration,
    /// Wall time of the same loop through the [`IoScheduler`].
    pub overlapped: Duration,
    /// Blocks processed (per arm).
    pub blocks: usize,
    /// Bytes per block.
    pub block_bytes: usize,
    /// Scheduler read-ahead depth.
    pub io_depth: usize,
    /// Calibrated checksum passes per block.
    pub compute_passes: usize,
    /// Reads served from prefetched data in the scheduled arm.
    pub prefetch_hits: u64,
    /// Reads that went cold to the backend in the scheduled arm.
    pub prefetch_misses: u64,
}

impl IoOverlapResult {
    /// sync / overlapped — how much I/O latency the scheduler hid.
    pub fn speedup(&self) -> f64 {
        self.sync.as_secs_f64() / self.overlapped.as_secs_f64()
    }
}

/// What [`check`] holds IO1 to ([`run_io_overlap`] has already refused
/// arms whose output files differ).
pub const CLAIM: &str = "overlapped < sync on byte-identical output";

/// IO1's claim: the scheduler hides device latency the bare loop waits out.
pub fn check(res: &IoOverlapResult) -> Result<(), String> {
    crate::faster(("overlapped", res.overlapped), ("sync", res.sync))
}

/// The identical loop body both arms run: stream `in` block by block,
/// checksum it, write it to `out`, and flush at the end (the durability
/// point, which also surfaces any deferred write-behind error).
fn stream_loop(
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

/// Measure this filesystem's per-block `read + write` cost: the loop body
/// with zero compute over a handful of blocks, best of three.  The
/// pass-end `flush` is deliberately excluded — it is a one-off tail both
/// arms pay identically, not a per-block cost the scheduler can hide.
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
/// [`OsDisk`] and through an [`IoScheduler`] of depth `io_depth`, with
/// compute calibrated to the measured per-block I/O cost so the scheduler
/// has real latency to hide.
pub fn run_io_overlap(
    blocks: usize,
    block_bytes: usize,
    io_depth: usize,
) -> Result<IoOverlapResult, SortError> {
    let scratch = ScratchDir::new("io-overlap").map_err(|e| SortError::Disk(e.to_string()))?;
    let io_per_block = probe_io_per_block(scratch.path(), block_bytes)?;
    // Par compute with I/O: that is where overlap pays the most and where
    // a serial loop is honestly half-idle.
    let passes = calibrate_passes(block_bytes, io_per_block);
    let input = input_bytes(blocks, block_bytes);

    let sync_disk = OsDisk::durable(scratch.path().join("sync"))?;
    sync_disk.load("in", input.clone());
    let sync = stream_loop(&*sync_disk, blocks, block_bytes, passes)?;

    let registry = MetricsRegistry::new();
    let inner = OsDisk::durable(scratch.path().join("sched"))?;
    inner.load("in", input);
    let sched = IoScheduler::with_metrics(inner as DiskRef, io_depth, &registry, "d0")
        .expect("io scheduler depth");
    let overlapped = stream_loop(&*sched, blocks, block_bytes, passes)?;

    // Same input, same compute: the two output files must be identical, or
    // the timing comparison is meaningless.
    let a = sync_disk.snapshot("out");
    let b = sched.snapshot("out");
    if a != b || a.is_none() {
        return Err(SortError::Disk(
            "scheduled and synchronous runs produced different output".into(),
        ));
    }

    let snap = registry.snapshot();
    Ok(IoOverlapResult {
        sync,
        overlapped,
        blocks,
        block_bytes,
        io_depth,
        compute_passes: passes,
        prefetch_hits: snap.counter("disk/d0/prefetch_hit").unwrap_or(0),
        prefetch_misses: snap.counter("disk/d0/prefetch_miss").unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_agree_and_report_metrics() {
        // Toy scale: correctness of the harness, not a perf claim.
        let res = run_io_overlap(12, 16 << 10, 2).unwrap();
        assert_eq!(res.blocks, 12);
        assert!(res.sync > Duration::ZERO);
        assert!(res.overlapped > Duration::ZERO);
        assert_eq!(res.prefetch_hits + res.prefetch_misses, 12);
        assert!(res.compute_passes >= 1);
    }

    #[test]
    fn check_rejects_a_scheduler_that_hides_nothing() {
        let res = |overlapped_ms| IoOverlapResult {
            sync: Duration::from_millis(29),
            overlapped: Duration::from_millis(overlapped_ms),
            blocks: 64,
            block_bytes: 64 << 10,
            io_depth: 4,
            compute_passes: 1,
            prefetch_hits: 0,
            prefetch_misses: 64,
        };
        assert_eq!(check(&res(18)), Ok(()));
        crate::tests::rejects(check(&res(31)), &["overlapped 0.031s", "sync 0.029s"]);
    }
}
