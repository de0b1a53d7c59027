//! Kernel smoke benchmark: the radix sort kernel vs the comparison
//! baseline, and the batched merge vs the scalar loser tree — on presorted
//! lanes, where batching wins outright, and on interleaved ones, where it
//! cannot and must cost nothing.
//!
//! The criterion bench (`benches/sort_kernels.rs`) is the full local grid;
//! this module is the CI-sized cut — one best-of-N timing per cell — whose
//! artifact the perf gate consumes (`kernel-bench` experiments
//! subcommand).  Best-of-N rather than a mean: on noisy shared hosts the
//! minimum is the least-contended observation of the same deterministic
//! work, so it gates with far less jitter.

use std::time::{Duration, Instant};

use fg_sort::kernels::{sort_records_using, Kernel, SortScratch};
use fg_sort::merge::{merge_runs, LoserTree};
use fg_sort::record::RecordFormat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One merge cell: `k` sorted lanes merged both ways.
#[derive(Debug)]
pub struct MergeCell {
    /// Number of input lanes.
    pub k: usize,
    /// Records per lane.
    pub per_lane: usize,
    /// Scalar loser-tree merge, one winner/replace per record (best-of-N).
    pub scalar: Duration,
    /// Batched `MergeRun` merge (best-of-N).
    pub batched: Duration,
    /// Whether the two merges produced the same bytes.
    pub identical: bool,
}

impl MergeCell {
    /// Scalar time over batched time.
    pub fn speedup(&self) -> f64 {
        self.scalar.as_secs_f64() / self.batched.as_secs_f64()
    }
}

/// Results of one kernel-bench run.
#[derive(Debug)]
pub struct KernelBenchResult {
    /// Records in the sort cells (uniform full-width keys, REC16).
    pub records: usize,
    /// Radix kernel wall time (best-of-N).
    pub radix: Duration,
    /// Comparison kernel wall time (best-of-N).
    pub comparison: Duration,
    /// Merge cells at increasing fan-in over presorted lanes: the batch
    /// path's best case.
    pub merge: Vec<MergeCell>,
    /// Merge cells over interleaved lanes (every lane uniform over the whole
    /// key range, the shape `dsort` merges on uniform input): every batch is
    /// one record, so these time the tree's per-record cost and whatever
    /// the `BatchPolicy` gate adds to it.
    pub merge_interleaved: Vec<MergeCell>,
}

impl KernelBenchResult {
    /// Comparison time over radix time — the gated sort speedup.
    pub fn sort_speedup(&self) -> f64 {
        self.comparison.as_secs_f64() / self.radix.as_secs_f64()
    }
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        let dt = t.elapsed();
        std::hint::black_box(r);
        best = best.min(dt);
    }
    best
}

fn uniform_records(fmt: RecordFormat, n: usize, seed: u64) -> Vec<u8> {
    let rb = fmt.record_bytes;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = vec![0u8; n * rb];
    for rec in bytes.chunks_exact_mut(rb) {
        fmt.set_key(rec, rng.random());
    }
    bytes
}

/// Presorted lanes: lane `i` holds the contiguous key range
/// `[i·m, (i+1)·m)` — the batched merge's best case and the shape dsort's
/// splitter-partitioned runs approach.
pub fn presorted_lanes(fmt: RecordFormat, k: usize, per_lane: usize) -> Vec<Vec<u8>> {
    let rb = fmt.record_bytes;
    (0..k)
        .map(|i| {
            let mut bytes = vec![0u8; per_lane * rb];
            for (j, rec) in bytes.chunks_exact_mut(rb).enumerate() {
                fmt.set_key(rec, (i * per_lane + j) as u64);
            }
            bytes
        })
        .collect()
}

/// Interleaved lanes: each lane is a sorted sample of uniform random keys,
/// so consecutive records of the merged output almost never share a lane.
fn interleaved_lanes(fmt: RecordFormat, k: usize, per_lane: usize) -> Vec<Vec<u8>> {
    let mut scratch = SortScratch::new();
    (0..k)
        .map(|i| {
            let mut bytes = uniform_records(fmt, per_lane, 0xBEEF + i as u64);
            sort_records_using(fmt, &mut bytes, &mut scratch, Kernel::Auto);
            bytes
        })
        .collect()
}

/// The pre-kernel scalar merge: one winner/replace per record.
pub fn scalar_merge(fmt: RecordFormat, runs: &[&[u8]]) -> Vec<u8> {
    let rb = fmt.record_bytes;
    let mut offsets = vec![0usize; runs.len()];
    let head = |run: &[u8], off: usize| (off < run.len()).then(|| fmt.key(&run[off..off + rb]));
    let mut tree = LoserTree::new(runs.iter().map(|r| head(r, 0)));
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    while let Some((lane, _)) = tree.winner() {
        let off = offsets[lane];
        out.extend_from_slice(&runs[lane][off..off + rb]);
        offsets[lane] += rb;
        tree.replace(lane, head(runs[lane], offsets[lane]));
    }
    out
}

/// Run the kernel smoke benchmark.  `quick` shrinks the inputs for CI
/// (the speedup ratios survive the shrink; absolute times don't).
pub fn run_kernel_bench(quick: bool) -> KernelBenchResult {
    let fmt = RecordFormat::REC16;
    let (sort_n, merge_total, reps) = if quick {
        (512 << 10, 64 << 10, 3)
    } else {
        (4 << 20, 256 << 10, 5)
    };

    // Sort cells: same pristine input restored before every rep, one warm
    // scratch so steady-state rounds allocate nothing.
    let pristine = uniform_records(fmt, sort_n, 0xFEED);
    let mut bytes = pristine.clone();
    let mut scratch = SortScratch::new();
    let mut timed_sort = |kernel: Kernel| {
        // Warm pass: first-touch the scratch buffers outside the timing.
        bytes.copy_from_slice(&pristine);
        sort_records_using(fmt, &mut bytes, &mut scratch, kernel);
        best_of(reps, || {
            bytes.copy_from_slice(&pristine);
            sort_records_using(fmt, &mut bytes, &mut scratch, kernel);
            bytes.last().copied()
        })
    };
    let radix = timed_sort(Kernel::Radix);
    let comparison = timed_sort(Kernel::Comparison);

    let merge_cell = |lanes: Vec<Vec<u8>>| {
        let refs: Vec<&[u8]> = lanes.iter().map(|l| l.as_slice()).collect();
        MergeCell {
            k: lanes.len(),
            per_lane: fmt.count(&lanes[0]),
            batched: best_of(reps, || merge_runs(fmt, &refs).len()),
            scalar: best_of(reps, || scalar_merge(fmt, &refs).len()),
            identical: merge_runs(fmt, &refs) == scalar_merge(fmt, &refs),
        }
    };
    let merge = [4usize, 64, 256]
        .into_iter()
        .map(|k| merge_cell(presorted_lanes(fmt, k, merge_total / k)))
        .collect();
    let merge_interleaved = [16usize, 256]
        .into_iter()
        .map(|k| merge_cell(interleaved_lanes(fmt, k, merge_total / k)))
        .collect();

    KernelBenchResult {
        records: sort_n,
        radix,
        comparison,
        merge,
        merge_interleaved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_sane_cells() {
        // Tiny shapes: correctness of the harness, not performance.
        let fmt = RecordFormat::REC16;
        for lanes in [presorted_lanes(fmt, 4, 8), interleaved_lanes(fmt, 4, 8)] {
            let refs: Vec<&[u8]> = lanes.iter().map(|l| l.as_slice()).collect();
            let a = scalar_merge(fmt, &refs);
            let b = merge_runs(fmt, &refs);
            assert_eq!(a, b, "scalar and batched merges must agree");
            assert!(fmt.is_sorted(&a));
        }
    }
}
