//! Sort/merge kernel microbenchmarks: the LSD radix permutation sort vs
//! the comparison baseline across sizes, record formats, and key
//! distributions, and the batched (galloping) `MergeRun` merge vs the
//! scalar one-record-at-a-time loser tree.
//!
//! The CI gate runs the `kernel-bench` experiments subcommand instead (one
//! timed cell per criterion is too slow for a smoke job); this bench is the
//! full local grid.  Numbers are recorded in EXPERIMENTS.md.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fg_bench::kernel_bench::{presorted_lanes, scalar_merge};
use fg_sort::kernels::{sort_records_using, Kernel, SortScratch};
use fg_sort::merge::merge_runs;
use fg_sort::record::RecordFormat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Key distributions the sorts see in practice.
#[derive(Clone, Copy)]
enum Dist {
    /// Full-width uniform keys: no digit pass is skippable.
    Uniform,
    /// Keys confined to the low 16 bits: six of eight digit passes skip.
    Skewed,
    /// Already sorted: pdqsort's best case, radix's indifferent case.
    Presorted,
}

impl Dist {
    fn name(self) -> &'static str {
        match self {
            Dist::Uniform => "uniform",
            Dist::Skewed => "skewed",
            Dist::Presorted => "presorted",
        }
    }
}

fn make_input(fmt: RecordFormat, n: usize, dist: Dist, seed: u64) -> Vec<u8> {
    let rb = fmt.record_bytes;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<u64> = match dist {
        Dist::Uniform => (0..n).map(|_| rng.random()).collect(),
        Dist::Skewed => (0..n).map(|_| rng.random_range(0..1u64 << 16)).collect(),
        Dist::Presorted => (0..n as u64).collect(),
    };
    if matches!(dist, Dist::Presorted) {
        keys.sort_unstable();
    }
    let mut bytes = vec![0u8; n * rb];
    for (i, &k) in keys.iter().enumerate() {
        fmt.set_key(&mut bytes[i * rb..(i + 1) * rb], k);
    }
    bytes
}

/// Satellite check: once warm, a steady-state sort round must not grow any
/// scratch buffer (the old `sort_bytes` rebuilt its order vec per call).
fn assert_zero_alloc_steady_state() {
    let fmt = RecordFormat::REC16;
    let pristine = make_input(fmt, 64 * 1024, Dist::Uniform, 42);
    let mut bytes = pristine.clone();
    let mut scratch = SortScratch::new();
    // Warm every kernel once: radix and comparison grow different scratch
    // buffers (whole-record pairs vs permutation pairs + aux).
    for kernel in [Kernel::Radix, Kernel::Comparison] {
        bytes.copy_from_slice(&pristine);
        sort_records_using(fmt, &mut bytes, &mut scratch, kernel);
    }
    let warm = scratch.capacity_fingerprint();
    for kernel in [Kernel::Radix, Kernel::Comparison, Kernel::Auto] {
        bytes.copy_from_slice(&pristine);
        sort_records_using(fmt, &mut bytes, &mut scratch, kernel);
        assert_eq!(
            scratch.capacity_fingerprint(),
            warm,
            "steady-state sort reallocated scratch ({kernel:?})"
        );
    }
    println!("zero-alloc steady state: ok {warm:?}");
}

fn bench_sort_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort_kernels");
    group.sample_size(10);
    let grid: &[(RecordFormat, &str, &[usize])] = &[
        (RecordFormat::REC16, "rec16", &[1 << 10, 64 << 10, 4 << 20]),
        (RecordFormat::REC64, "rec64", &[1 << 10, 64 << 10, 4 << 20]),
    ];
    for &(fmt, fname, sizes) in grid {
        for &n in sizes {
            for dist in [Dist::Uniform, Dist::Skewed, Dist::Presorted] {
                // The 4M cells are the gate's case; keep the slow grid
                // corner (4M × non-uniform) to uniform only.
                if n >= 4 << 20 && !matches!(dist, Dist::Uniform) {
                    continue;
                }
                let pristine = make_input(fmt, n, dist, n as u64);
                let mut bytes = pristine.clone();
                let mut scratch = SortScratch::new();
                for (kernel, kname) in
                    [(Kernel::Radix, "radix"), (Kernel::Comparison, "comparison")]
                {
                    let id = format!("{fname}/{}/{n}/{kname}", dist.name());
                    group.bench_function(&id, |b| {
                        b.iter(|| {
                            bytes.copy_from_slice(&pristine);
                            sort_records_using(fmt, &mut bytes, &mut scratch, kernel);
                            black_box(bytes.last());
                        })
                    });
                }
            }
        }
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let fmt = RecordFormat::REC16;
    let mut group = c.benchmark_group("merge_kernels");
    group.sample_size(10);
    const TOTAL: usize = 256 << 10; // records across all lanes
    for k in [4usize, 64, 256] {
        let lanes = presorted_lanes(fmt, k, TOTAL / k);
        let refs: Vec<&[u8]> = lanes.iter().map(|l| l.as_slice()).collect();
        group.bench_function(format!("presorted/k{k}/batched"), |b| {
            b.iter(|| black_box(merge_runs(fmt, &refs)).len())
        });
        group.bench_function(format!("presorted/k{k}/scalar"), |b| {
            b.iter(|| black_box(scalar_merge(fmt, &refs)).len())
        });
    }
    group.finish();
}

fn zero_alloc(_c: &mut Criterion) {
    assert_zero_alloc_steady_state();
}

criterion_group!(benches, zero_alloc, bench_sort_kernels, bench_merge);
criterion_main!(benches);
