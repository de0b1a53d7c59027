//! Kernel orderings: the radix sort kernel vs the comparison baseline, and
//! the batched merge vs the scalar loser tree — on presorted lanes, where
//! batching wins outright, and on interleaved ones, where it cannot and must
//! cost nothing.  Each arm of a cell is one best-of-N timing, and [`check`]
//! compares arms within the run; what a kernel costs per record, commit over
//! commit, is `benchmark/`'s `kernels.*` and `merge.*` rows.  Best-of-N
//! rather than a mean: on noisy shared hosts the minimum is the
//! least-contended observation of the same deterministic work.

use std::time::{Duration, Instant};

use fg_sort::kernels::{sort_records_using, Kernel, SortScratch};
use fg_sort::merge::{merge_in_pieces, merge_runs, LoserTree};
use fg_sort::record::RecordFormat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One merge cell: `k` sorted lanes merged three ways.
#[derive(Debug)]
pub struct MergeCell {
    /// Number of input lanes.
    pub k: usize,
    /// Records per lane.
    pub per_lane: usize,
    /// Scalar loser-tree merge, one winner/replace per record (best-of-N).
    pub scalar: Duration,
    /// Batched `MergeRun` merge (best-of-N): `merge_runs`.
    pub batched: Duration,
    /// The merge stage's loop, the lanes in 8 KiB buffers: `merge_in_pieces`.
    pub staged: Duration,
    /// Whether the three merges produced the same bytes.
    pub identical: bool,
}

/// One sort cell: the two kernels on the same uniform full-width REC16 keys.
#[derive(Debug)]
pub struct SortCell {
    /// Records sorted.
    pub records: usize,
    /// Radix kernel wall time (best-of-N).
    pub radix: Duration,
    /// Comparison kernel wall time (best-of-N).
    pub comparison: Duration,
}

/// How many times faster the second arm of a cell ran than the first.
pub fn speedup(slower: Duration, faster: Duration) -> f64 {
    slower.as_secs_f64() / faster.as_secs_f64()
}

/// Results of one kernel-bench run.
#[derive(Debug)]
pub struct KernelBenchResult {
    /// Sort cells at the sizes the programs sort — `csort-os`'s 32 768-record
    /// column, `dsort-sim`'s 49 152-record run — and out of cache.
    pub sorts: Vec<SortCell>,
    /// Merge cells at increasing fan-in over presorted lanes: the batch
    /// path's best case.
    pub merge: Vec<MergeCell>,
    /// Merge cells over interleaved lanes (every lane uniform over the whole
    /// key range, the shape `dsort` merges on uniform input): every batch is
    /// one record, so these time the tree's per-record cost and whatever
    /// the `BatchPolicy` gate adds to it.
    pub merge_interleaved: Vec<MergeCell>,
}

/// The radix kernel's margin over the comparison kernel, asked of every
/// sort cell (EXPERIMENTS K1).
const RADIX_MARGIN: f64 = 1.5;
/// Where every batch is one record, batching may cost this much and no more.
const INTERLEAVED_TAX: f64 = 1.10;
/// What the merge stage's loop may cost over `merge_runs`, interleaved.
const STAGE_TAX: f64 = 1.3;
/// What [`check`] holds K1 to.
pub const CLAIM: &str = "radix >= 1.5 x comparison at every size; batched < scalar at \
     presorted k = 256; interleaved, batched <= 1.10 x scalar and staged <= 1.3 x batched; \
     identical bytes";

/// K1's claims, each an ordering between two arms of one run.
pub fn check(res: &KernelBenchResult) -> Result<(), String> {
    let margin = |c: &SortCell| speedup(c.comparison, c.radix);
    if let Some(c) = res.sorts.iter().find(|c| margin(c) < RADIX_MARGIN) {
        let (x, records) = (margin(c), c.records);
        return Err(format!("radix {x:.2}x comparison at {records} records"));
    }
    let tax = |c: &MergeCell| speedup(c.batched, c.scalar);
    match res.merge.iter().find(|c| c.k == 256).map(tax) {
        None => return Err("no presorted k = 256 cell".into()),
        Some(t) if t >= 1.0 => return Err(format!("presorted k = 256: batched/scalar = {t:.3}")),
        Some(_) => {}
    }
    for c in &res.merge_interleaved {
        let (k, t, staged) = (c.k, tax(c), speedup(c.staged, c.batched));
        if t > INTERLEAVED_TAX {
            return Err(format!("interleaved k = {k}: batched/scalar = {t:.3}"));
        }
        if staged > STAGE_TAX {
            return Err(format!("interleaved k = {k}: staged/batched = {staged:.3}"));
        }
    }
    let mut cells = res.merge.iter().chain(&res.merge_interleaved);
    match cells.find(|c| !c.identical) {
        Some(c) => Err(format!("k = {}: batched and scalar bytes differ", c.k)),
        None => Ok(()),
    }
}

pub(crate) fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut timed = || {
        let t = Instant::now();
        std::hint::black_box(f());
        t.elapsed()
    };
    (0..reps).map(|_| timed()).min().unwrap_or(Duration::MAX)
}

fn uniform_records(fmt: RecordFormat, n: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = vec![0u8; n * fmt.record_bytes];
    let records = bytes.chunks_exact_mut(fmt.record_bytes);
    records.for_each(|rec| fmt.set_key(rec, rng.random()));
    bytes
}

/// Presorted lanes: lane `i` holds the contiguous key range
/// `[i·m, (i+1)·m)` — the batched merge's best case and the shape dsort's
/// splitter-partitioned runs approach.
fn presorted_lanes(fmt: RecordFormat, k: usize, per_lane: usize) -> Vec<Vec<u8>> {
    let mut all = vec![0u8; k * per_lane * fmt.record_bytes];
    let records = all.chunks_exact_mut(fmt.record_bytes).enumerate();
    records.for_each(|(key, rec)| fmt.set_key(rec, key as u64));
    all.chunks(per_lane * fmt.record_bytes)
        .map(<[u8]>::to_vec)
        .collect()
}

/// Interleaved lanes: each lane is a sorted sample of uniform random keys,
/// so consecutive records of the merged output almost never share a lane.
fn interleaved_lanes(fmt: RecordFormat, k: usize, per_lane: usize) -> Vec<Vec<u8>> {
    let mut scratch = SortScratch::new();
    let lane = |i: usize| {
        let mut bytes = uniform_records(fmt, per_lane, 0xBEEF + i as u64);
        sort_records_using(fmt, &mut bytes, &mut scratch, Kernel::Auto);
        bytes
    };
    (0..k).map(lane).collect()
}

/// The pre-kernel scalar merge: one winner/replace per record.
fn scalar_merge(fmt: RecordFormat, runs: &[&[u8]]) -> Vec<u8> {
    let rb = fmt.record_bytes;
    let mut offsets = vec![0usize; runs.len()];
    let head = |run: &[u8], off: usize| (off < run.len()).then(|| fmt.key(&run[off..off + rb]));
    let mut tree = LoserTree::new(runs.iter().map(|r| head(r, 0)));
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    while let Some((lane, _)) = tree.winner() {
        out.extend_from_slice(&runs[lane][offsets[lane]..][..rb]);
        offsets[lane] += rb;
        tree.replace(lane, head(runs[lane], offsets[lane]));
    }
    out
}

/// Run the kernel smoke benchmark.  `quick` drops the largest sort cell and
/// shrinks the merges for CI (the ratios survive; absolute times don't).
pub fn run_kernel_bench(quick: bool) -> KernelBenchResult {
    let fmt = RecordFormat::REC16;
    let (sort_cells, merge_total, reps) = [(4, 256 << 10, 5), (3, 64 << 10, 3)][quick as usize];
    let sort_ns = &[32 << 10, 48 << 10, 512 << 10, 4 << 20][..sort_cells];

    // Sort cells: same pristine input restored before every rep, one warm
    // scratch (no allocation in the timing); more reps of the shorter sorts.
    let sort_cell = |&records: &usize| {
        let pristine = uniform_records(fmt, records, 0xFEED);
        let mut bytes = pristine.clone();
        let mut scratch = SortScratch::new();
        let mut timed_sort = |kernel: Kernel| {
            // Warm pass: first-touch the scratch buffers outside the timing.
            sort_records_using(fmt, &mut bytes, &mut scratch, kernel);
            best_of(reps * (4 << 20) / records.max(512 << 10), || {
                bytes.copy_from_slice(&pristine);
                sort_records_using(fmt, &mut bytes, &mut scratch, kernel);
                bytes.last().copied()
            })
        };
        SortCell {
            records,
            radix: timed_sort(Kernel::Radix),
            comparison: timed_sort(Kernel::Comparison),
        }
    };
    let sorts = sort_ns.iter().map(sort_cell).collect();

    // A merge arm repeats its merge for 50 ms and reads a merge's time (2 ms
    // arms were decided by host noise, EXPERIMENTS K1); the arms take turns
    // rep by rep, each keeping its best, so a slow spell slows all three.
    let interleaved = |arms: [&dyn Fn() -> Vec<u8>; 3]| {
        let calls = arms.map(|f| (50_000_000 / best_of(1, f).as_nanos().max(1)) as u32 + 1);
        let time = |a: usize| best_of(1, || (0..calls[a]).map(|_| arms[a]().len()).sum::<usize>());
        let rep = |best: [Duration; 3]| std::array::from_fn(|a| best[a].min(time(a) / calls[a]));
        (0..reps).fold([Duration::MAX; 3], |best, _| rep(best))
    };
    let merge_cell = |lanes: Vec<Vec<u8>>| {
        let refs: Vec<&[u8]> = lanes.iter().map(|l| l.as_slice()).collect();
        let batched = || merge_runs(fmt, &refs);
        let staged = || merge_in_pieces(fmt, &refs, 8 << 10);
        let scalar = || scalar_merge(fmt, &refs);
        let identical = batched() == scalar() && staged() == batched();
        let [batched, staged, scalar] = interleaved([&batched, &staged, &scalar]);
        MergeCell {
            k: lanes.len(),
            per_lane: fmt.count(&lanes[0]),
            scalar,
            batched,
            staged,
            identical,
        }
    };
    let cells = |lanes: fn(RecordFormat, usize, usize) -> Vec<Vec<u8>>, ks: &[usize]| {
        let cell = |&k: &usize| merge_cell(lanes(fmt, k, merge_total / k));
        ks.iter().map(cell).collect()
    };
    KernelBenchResult {
        sorts,
        merge: cells(presorted_lanes, &[4, 64, 256]),
        merge_interleaved: cells(interleaved_lanes, &[16, 256]),
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
            for merged in [merge_runs(fmt, &refs), merge_in_pieces(fmt, &refs, 48)] {
                assert_eq!(a, merged, "the three merges must agree");
            }
            assert!(fmt.is_sorted(&a));
        }
    }

    #[test]
    fn check_rejects_each_broken_ordering() {
        let ms = |x: f64| Duration::from_secs_f64(x / 1e3);
        let cell = |k, scalar, batched| MergeCell {
            k,
            per_lane: 1024,
            scalar: ms(scalar),
            batched: ms(batched),
            staged: ms(batched * 1.2),
            identical: true,
        };
        let sort = |records, radix| SortCell {
            records,
            radix: ms(radix),
            comparison: ms(300.0),
        };
        let good = || KernelBenchResult {
            sorts: vec![sort(32 << 10, 100.0), sort(4 << 20, 180.0)],
            merge: vec![cell(4, 5.0, 0.4), cell(256, 9.0, 0.5)],
            merge_interleaved: vec![cell(16, 4.0, 4.2)],
        };
        let broken = |edit: fn(&mut KernelBenchResult)| {
            let mut res = good();
            edit(&mut res);
            check(&res)
        };
        assert_eq!(check(&good()), Ok(()));
        // ... at any size: no cell is exempt.
        let slow_radix = broken(|r| r.sorts[0].radix = Duration::from_millis(250));
        crate::tests::rejects(slow_radix, &["radix 1.20x", "32768 records"]);
        let presorted = broken(|r| r.merge[1].batched = r.merge[1].scalar.mul_f64(1.1));
        crate::tests::rejects(presorted, &["presorted k = 256", "1.100"]);
        let taxed = broken(|r| r.merge_interleaved[0].batched = Duration::from_micros(4800));
        crate::tests::rejects(taxed, &["interleaved k = 16", "1.200"]);
        let staged = broken(|r| r.merge_interleaved[0].staged = Duration::from_micros(5600));
        crate::tests::rejects(staged, &["interleaved k = 16", "staged/batched = 1.333"]);
        let differ = broken(|r| r.merge_interleaved[0].identical = false);
        crate::tests::rejects(differ, &["k = 16", "differ"]);
    }
}
