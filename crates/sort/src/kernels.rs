//! Sort and merge kernels for the per-round hot loops.
//!
//! Once the disks overlap, the per-round CPU cost of csort and dsort is
//! dominated by generic comparison sorting and one-record-at-a-time merging
//! — exactly the per-element overhead the streaming literature warns about.
//! This module concentrates those inner loops:
//!
//! * a **radix sort that stops when the order is decided**
//!   ([`sort_records`]).  One read of the keys finds the bits in which any
//!   two differ; a *level* orders a span of `n` items by the `log2 n + 3`
//!   bits just below the highest of them (one scan fills two histograms,
//!   then two stable counting scatters, low digit first); a *tidy-up* scan
//!   then finds the groups of equal prefix that still hold a descent and
//!   finishes each — by insertion when it is small, by the same level on
//!   the bits its own keys differ in otherwise.  A group with no descent is
//!   never looked at again, so uniform keys are done after one level
//!   whatever the key's width.  16-byte records are sorted whole as
//!   `(key, payload)` register pairs, read straight out of the record
//!   bytes; wider formats sort `(key, original index)` permutation pairs
//!   and gather;
//! * **specialized gather loops** for the 16- and 64-byte record formats
//!   that apply the sorted permutation with fixed-size copies the compiler
//!   can vectorize;
//! * **galloping run detection** over sorted record slices ([`run_len`]) —
//!   the building block of the batched `MergeRun` fast path in
//!   [`crate::merge`] and of the two-run merge in csort pass 3 / csort4
//!   pass 4.
//!
//! All scratch memory lives in a [`SortScratch`] that callers thread
//! through their rounds, so steady-state sorting allocates nothing
//! (`tests/alloc_steady.rs` asserts this under the tracking allocator).

use std::sync::Arc;

use fg_core::metrics::{Counter, MetricsRegistry};

use crate::record::RecordFormat;

/// Which sort kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// What the programs run: the radix kernel at every size (it is ahead of
    /// the comparison sort from 16 records up and within 0.2 µs a call below
    /// — EXPERIMENTS.md K1 — so no threshold selects between them).
    Auto,
    /// The radix kernel by name (benches and tests).
    Radix,
    /// The comparison kernel: the byte-identity oracle and K1's other arm.
    Comparison,
}

/// Metric handles resolved once at scratch construction so the hot loop
/// never touches the registry's interning lock.
struct KernelCounters {
    radix_sorts: Arc<Counter>,
    comparison_sorts: Arc<Counter>,
}

/// Reusable scratch for the sort kernels.
///
/// Owns the `(key, index)` permutation pairs, the whole-record `(key,
/// payload)` pairs the 16-byte radix path sorts directly, their radix
/// ping-pong buffers, and the auxiliary record bytes the permutation is
/// applied through.  One scratch per sort-stage replica (threaded through
/// csort, csort4, dsort pass 1, dsort-linear, and input verification)
/// keeps the per-round allocation count at zero once the buffers are warm.
#[derive(Default)]
pub struct SortScratch {
    /// `(key, original index)` pairs; after sorting, the permutation.
    pairs: Vec<(u64, u32)>,
    /// Ping-pong target for the radix scatter passes.
    pairs_tmp: Vec<(u64, u32)>,
    /// Whole 16-byte records as `(key, payload)` — the REC16 radix path
    /// sorts these directly, skipping the permutation gather.
    recs: Vec<(u64, u64)>,
    /// Ping-pong target for the whole-record radix passes.
    recs_tmp: Vec<(u64, u64)>,
    /// Auxiliary record bytes the permutation gathers into.
    aux: Vec<u8>,
    /// A level's two digit histograms; every level below reuses them.
    hist: Vec<usize>,
    counters: Option<KernelCounters>,
}

impl SortScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch whose sorts publish `kernel/*` counters to `registry`.
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        SortScratch {
            counters: Some(KernelCounters {
                radix_sorts: registry.counter("kernel/radix_sorts"),
                comparison_sorts: registry.counter("kernel/comparison_sorts"),
            }),
            ..Self::default()
        }
    }

    /// Capacities of the owned buffers (permutation pairs and ping-pong,
    /// whole-record pairs and ping-pong, aux bytes).  The bench's
    /// zero-allocation assertion checks this stays constant across
    /// steady-state rounds.
    pub fn capacity_fingerprint(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.pairs.capacity(),
            self.pairs_tmp.capacity(),
            self.recs.capacity(),
            self.recs_tmp.capacity(),
            self.aux.capacity(),
        )
    }
}

/// Stable sort of the records of `bytes` by key through `scratch`, picking
/// the kernel automatically ([`Kernel::Auto`]).
pub fn sort_records(fmt: RecordFormat, bytes: &mut [u8], scratch: &mut SortScratch) {
    sort_records_using(fmt, bytes, scratch, Kernel::Auto)
}

/// Stable sort with an explicit kernel choice — benches and the
/// byte-identity proptests pin a kernel; production paths use
/// [`sort_records`].
pub fn sort_records_using(
    fmt: RecordFormat,
    bytes: &mut [u8],
    scratch: &mut SortScratch,
    kernel: Kernel,
) {
    let n = fmt.count(bytes);
    if n <= 1 {
        return;
    }
    if kernel == Kernel::Comparison {
        scratch.pairs.clear();
        scratch.pairs.extend(index_pairs(fmt, bytes));
        // Stable by construction: the original index breaks ties.
        scratch.pairs.sort_unstable();
        if let Some(c) = &scratch.counters {
            c.comparison_sorts.inc();
        }
        return apply_permutation(fmt, bytes, scratch);
    }
    if fmt.record_bytes == 16 {
        radix_sort_rec16(bytes, scratch)
    } else {
        radix_sort_wide(fmt, bytes, scratch)
    }
    if let Some(c) = &scratch.counters {
        c.radix_sorts.inc();
    }
}

/// `(key, original index)` for every record of `bytes`.
fn index_pairs(fmt: RecordFormat, bytes: &[u8]) -> impl Iterator<Item = (u64, u32)> + '_ {
    let n = fmt.count(bytes);
    assert!(n - 1 <= u32::MAX as usize, "record index must fit in u32");
    fmt.records(bytes)
        .enumerate()
        .map(move |(i, r)| (fmt.key(r), i as u32))
}

/// A 16-byte record is one `(key, payload)` register pair: the records
/// themselves are sorted (every step is stable, so the payload rides along
/// in input order) and there is no permutation to gather through.  The top
/// level's first scatter reads them straight out of `bytes`.
fn radix_sort_rec16(bytes: &mut [u8], scratch: &mut SortScratch) {
    let diff = key_diff(rec16_items(bytes).map(|it| it.0));
    if diff == 0 {
        // All keys equal: the input order is the stable order, and no
        // scratch array has been touched.
        return;
    }
    let n = bytes.len() / 16;
    scratch.recs.resize(n, (0, 0));
    scratch.recs_tmp.resize(n, (0, 0));
    let (a, b) = (&mut scratch.recs[..], &mut scratch.recs_tmp[..]);
    let level = Level::of(diff, n);
    let hist = level.hist(&mut scratch.hist);
    level.first_scatter(rec16_items(bytes), a, hist);
    let (cur, other) = if level.hi_bits > 0 {
        level.second_scatter(a, b, hist);
        (b, a)
    } else {
        (a, b)
    };
    tidy(cur, other, level.shift, hist);
    for (r, &(key, payload)) in bytes.chunks_exact_mut(16).zip(cur.iter()) {
        r[..8].copy_from_slice(&key.to_le_bytes());
        r[8..].copy_from_slice(&payload.to_le_bytes());
    }
}

/// The records of `bytes` as `(key, payload)` items.
fn rec16_items(bytes: &[u8]) -> impl Iterator<Item = Item<u64>> + Clone + '_ {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    bytes
        .chunks_exact(16)
        .map(move |r| (word(&r[..8]), word(&r[8..])))
}

/// Other widths sort `(key, original index)` pairs and gather once.
fn radix_sort_wide(fmt: RecordFormat, bytes: &mut [u8], scratch: &mut SortScratch) {
    let (first, mut diff) = (fmt.key(bytes), 0);
    scratch.pairs.clear();
    let pairs = index_pairs(fmt, bytes).inspect(|&(key, _)| diff |= key ^ first);
    scratch.pairs.extend(pairs);
    if diff != 0 {
        let n = scratch.pairs.len();
        scratch.pairs_tmp.resize(n, (0, 0));
        let hist = Level::of(diff, n).hist(&mut scratch.hist);
        sort_span(&mut scratch.pairs, &mut scratch.pairs_tmp, diff, hist);
        apply_permutation(fmt, bytes, scratch);
    }
}

/// An item the levels move: `(key, payload)` or `(key, original index)`.
type Item<P> = (u64, P);

/// A level orders a span of `n` items by `ilog2(n)` + this many key bits:
/// enough that uniform keys leave one item in eight sharing a group, which
/// is where a wider digit's scatter starts to cost more than the descents
/// it saves the tidy-up (EXPERIMENTS.md K1).
const LEVEL_SLACK_BITS: u32 = 3;
/// The fewest bits a level takes (or all that differ, if fewer), so that no
/// input is more than eight levels deep; up to this many are one digit and
/// one scatter, more are split evenly over two.
const ONE_DIGIT_BITS: u32 = 8;
/// The widest digit: 4 096 write streams, and two 32 KiB histograms.
const DIGIT_MAX_BITS: u32 = 12;
/// Groups of at most this many items are finished by insertion: a level's
/// fixed cost (two histograms cleared and summed) is that of inserting
/// about this many.
const INSERTION_MAX: usize = 24;

/// The bits in which any two of `keys` differ: the OR of every key XOR
/// the first.
fn key_diff(mut keys: impl Iterator<Item = u64>) -> u64 {
    let first = keys.next().unwrap_or(0);
    keys.fold(0, |diff, k| diff | (k ^ first))
}

/// The key bits one level sorts by: `lo_bits` from `shift` up and
/// `hi_bits` (0 when one scatter does) above those, ending at the span's
/// highest differing bit.
#[derive(Clone, Copy)]
struct Level {
    shift: u32,
    lo_bits: u32,
    hi_bits: u32,
}

impl Level {
    /// The level for a span of `n > 1` items whose keys differ in `diff`.
    fn of(diff: u64, n: usize) -> Level {
        let live = 64 - diff.leading_zeros();
        let wanted = (n.ilog2() + LEVEL_SLACK_BITS).clamp(ONE_DIGIT_BITS, 2 * DIGIT_MAX_BITS);
        let bits = live.min(wanted);
        let lo_bits = if bits <= ONE_DIGIT_BITS {
            bits
        } else {
            bits.div_ceil(2)
        };
        Level {
            shift: live - bits,
            lo_bits,
            hi_bits: bits - lo_bits,
        }
    }

    #[inline]
    fn lo_digit(self, key: u64) -> usize {
        ((key >> self.shift) & ((1 << self.lo_bits) - 1)) as usize
    }

    #[inline]
    fn hi_digit(self, key: u64) -> usize {
        ((key >> (self.shift + self.lo_bits)) & ((1 << self.hi_bits) - 1)) as usize
    }

    /// `hist`, grown to hold this level's two histograms — and so those of
    /// every level below it, which takes no more bits (its span is shorter)
    /// and has no wider a digit unless it has just the one.
    fn hist(self, hist: &mut Vec<usize>) -> &mut [usize] {
        let widest = self.lo_bits.max(ONE_DIGIT_BITS);
        hist.resize(hist.len().max(2 << widest), 0);
        hist
    }

    /// The first half of the level over the span `src` yields: one scan
    /// fills the level's histograms (low digit's at the front of `hist`,
    /// high digit's behind it), then the items are scattered to `dst` by
    /// the low digit.  The high digit's start positions stay in `hist` for
    /// [`Level::second_scatter`].
    #[inline]
    fn first_scatter<P: Copy>(
        self,
        src: impl Iterator<Item = Item<P>> + Clone,
        dst: &mut [Item<P>],
        hist: &mut [usize],
    ) {
        let (lo, hi) = hist.split_at_mut(1 << self.lo_bits);
        lo.fill(0);
        if self.hi_bits > 0 {
            let hi = &mut hi[..1 << self.hi_bits];
            hi.fill(0);
            for (key, _) in src.clone() {
                lo[self.lo_digit(key)] += 1;
                hi[self.hi_digit(key)] += 1;
            }
            starts(hi);
        } else {
            for (key, _) in src.clone() {
                lo[self.lo_digit(key)] += 1;
            }
        }
        starts(lo);
        scatter(src, dst, lo, |k| self.lo_digit(k));
    }

    /// The second half: `src`, in low-digit order, to `dst` by the high
    /// digit.
    #[inline]
    fn second_scatter<P: Copy>(self, src: &[Item<P>], dst: &mut [Item<P>], hist: &mut [usize]) {
        let hi = &mut hist[1 << self.lo_bits..];
        scatter(src.iter().copied(), dst, hi, |k| self.hi_digit(k));
    }
}

/// Turn bucket counts into bucket start positions.
fn starts(hist: &mut [usize]) {
    let mut sum = 0;
    for h in hist.iter_mut() {
        sum += std::mem::replace(h, sum);
    }
}

/// One stable counting scatter: `src`'s items to `dst`, each to the next
/// free slot of its digit's bucket (`pos` holds the start positions).
#[inline]
fn scatter<P: Copy>(
    src: impl Iterator<Item = Item<P>>,
    dst: &mut [Item<P>],
    pos: &mut [usize],
    digit: impl Fn(u64) -> usize,
) {
    for item in src {
        let p = &mut pos[digit(item.0)];
        dst[*p] = item;
        *p += 1;
    }
}

/// Sort `cur` (whose keys differ in the bits of `diff`, not 0) stably by
/// key, with the equally long `other` as scratch: one level, then
/// [`tidy`].  Returns the item moves made, for the test of the work bound.
fn sort_span<P: Copy>(
    cur: &mut [Item<P>],
    other: &mut [Item<P>],
    diff: u64,
    hist: &mut [usize],
) -> u64 {
    let level = Level::of(diff, cur.len());
    level.first_scatter(cur.iter().copied(), other, hist);
    if level.hi_bits > 0 {
        level.second_scatter(other, cur, hist);
    } else {
        cur.copy_from_slice(other);
    }
    2 * cur.len() as u64 + tidy(cur, other, level.shift, hist)
}

/// After a level at `shift`, keys ascend across groups of equal
/// `key >> shift`, so a descent can only sit inside a group: find each
/// group that holds one and finish it — by stable insertion when it is
/// small, by [`sort_span`] on the bits its keys still differ in (all below
/// `shift`) otherwise.  A group with no descent is never looked at again.
fn tidy<P: Copy>(
    cur: &mut [Item<P>],
    other: &mut [Item<P>],
    shift: u32,
    hist: &mut [usize],
) -> u64 {
    let n = cur.len();
    let mut moves = 0;
    let mut i = 1;
    while i < n {
        if cur[i - 1].0 <= cur[i].0 {
            i += 1;
            continue;
        }
        let prefix = cur[i].0 >> shift;
        let mut lo = i - 1;
        while lo > 0 && cur[lo - 1].0 >> shift == prefix {
            lo -= 1;
        }
        let mut hi = i + 1;
        while hi < n && cur[hi].0 >> shift == prefix {
            hi += 1;
        }
        let group = &mut cur[lo..hi];
        if group.len() <= INSERTION_MAX {
            // Shifts only past strictly greater keys: stable.
            for j in 1..group.len() {
                let item = group[j];
                let mut k = j;
                while k > 0 && group[k - 1].0 > item.0 {
                    group[k] = group[k - 1];
                    k -= 1;
                }
                group[k] = item;
            }
        } else {
            let diff = key_diff(group.iter().map(|it| it.0));
            moves += sort_span(group, &mut other[lo..hi], diff, hist);
        }
        i = hi + 1;
    }
    moves
}

/// Apply the sorted permutation: gather records into `scratch.aux` in
/// order, then copy back (FG's auxiliary-buffer pattern).  REC16 and REC64
/// go through fixed-size gathers.
fn apply_permutation(fmt: RecordFormat, bytes: &mut [u8], scratch: &mut SortScratch) {
    let rb = fmt.record_bytes;
    if scratch.aux.len() < bytes.len() {
        scratch.aux.resize(bytes.len(), 0);
    }
    let aux = &mut scratch.aux[..bytes.len()];
    match rb {
        16 => gather::<16>(bytes, aux, &scratch.pairs),
        64 => gather::<64>(bytes, aux, &scratch.pairs),
        _ => {
            for (dst, &(_, src)) in scratch.pairs.iter().enumerate() {
                let s = src as usize * rb;
                aux[dst * rb..(dst + 1) * rb].copy_from_slice(&bytes[s..s + rb]);
            }
        }
    }
    bytes.copy_from_slice(aux);
}

/// Fixed-size gather: an `RB`-byte `copy_from_slice` lowers to
/// straight-line vector moves instead of a variable-length `memcpy` call
/// per record.
fn gather<const RB: usize>(src: &[u8], dst: &mut [u8], order: &[(u64, u32)]) {
    for (out, &(_, si)) in dst.chunks_exact_mut(RB).zip(order) {
        let s = si as usize * RB;
        let rec: &[u8; RB] = src[s..s + RB].try_into().expect("record bounds");
        out.copy_from_slice(rec);
    }
}

/// Number of leading records of sorted `data` whose key satisfies the
/// monotone predicate `pred` (true for a prefix of the run, false after).
/// Gallops — probes 1, 2, 4, … records ahead, then binary-searches the
/// last doubling interval — so a run of `m` records costs `O(log m)` key
/// loads instead of `m`.
pub fn run_len(fmt: RecordFormat, data: &[u8], pred: impl Fn(u64) -> bool) -> usize {
    let rb = fmt.record_bytes;
    let n = data.len() / rb;
    let ok = |i: usize| pred(fmt.key(&data[i * rb..]));
    if n == 0 || !ok(0) {
        return 0;
    }
    let mut last_true = 0usize;
    let mut step = 1usize;
    while last_true + step < n && ok(last_true + step) {
        last_true += step;
        step *= 2;
    }
    // First false index lies in (last_true, min(last_true + step, n)].
    let mut lo = last_true + 1;
    let mut hi = (last_true + step).min(n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ok(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: RecordFormat = RecordFormat::REC16;

    fn make_records(fmt: RecordFormat, keys: &[u64]) -> Vec<u8> {
        let rb = fmt.record_bytes;
        let mut out = vec![0u8; keys.len() * rb];
        for (i, &k) in keys.iter().enumerate() {
            fmt.set_key(&mut out[i * rb..(i + 1) * rb], k);
            // Distinct payload so stability is observable.
            out[i * rb + 8] = i as u8;
        }
        out
    }

    /// The pre-kernel `sort_bytes` body: the byte-identity oracle.
    fn comparison_oracle(fmt: RecordFormat, bytes: &mut [u8]) {
        let rb = fmt.record_bytes;
        let mut order: Vec<(u64, u32)> = fmt
            .records(bytes)
            .enumerate()
            .map(|(i, r)| (fmt.key(r), i as u32))
            .collect();
        order.sort_unstable();
        let mut aux = vec![0u8; bytes.len()];
        for (dst, (_, src)) in order.iter().enumerate() {
            let s = *src as usize * rb;
            aux[dst * rb..(dst + 1) * rb].copy_from_slice(&bytes[s..s + rb]);
        }
        bytes.copy_from_slice(&aux);
    }

    #[test]
    fn radix_matches_oracle_across_sizes_and_formats() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for fmt in [RecordFormat::REC16, RecordFormat::REC64] {
            for n in [0usize, 1, 2, 3, 255, 256, 257, 1000] {
                // Narrow key range forces duplicates (stability) and
                // degenerate high digits (skipping).
                let keys: Vec<u64> = (0..n).map(|_| rng.random_range(0..50)).collect();
                let mut got = make_records(fmt, &keys);
                let mut want = got.clone();
                let mut scratch = SortScratch::new();
                sort_records_using(fmt, &mut got, &mut scratch, Kernel::Radix);
                comparison_oracle(fmt, &mut want);
                assert_eq!(got, want, "fmt {fmt:?} n {n}");
            }
        }
    }

    #[test]
    fn radix_handles_full_width_keys() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let keys: Vec<u64> = (0..2000).map(|_| rng.random()).collect();
        let mut got = make_records(F, &keys);
        let mut want = got.clone();
        let mut scratch = SortScratch::new();
        sort_records_using(F, &mut got, &mut scratch, Kernel::Radix);
        comparison_oracle(F, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn degenerate_digits_are_skipped() {
        // Keys below 256 under a shared high byte: the one level is one
        // scatter on the eight bits that differ and leaves nothing to tidy.
        let keys: Vec<u64> = (0..600).map(|i| (0xAB << 56) | ((599 - i) % 250)).collect();
        let level = Level::of(key_diff(keys.iter().copied()), keys.len());
        assert_eq!((level.shift, level.lo_bits, level.hi_bits), (0, 8, 0));
        let mut bytes = make_records(F, &keys);
        sort_records_using(F, &mut bytes, &mut SortScratch::new(), Kernel::Radix);
        assert!(F.is_sorted(&bytes));
    }

    #[test]
    fn auto_is_the_radix_kernel_at_every_size() {
        let reg = MetricsRegistry::new();
        let mut scratch = SortScratch::with_registry(&reg);
        for n in [2u64, 25, 3000] {
            let mut bytes = make_records(F, &(0..n).rev().collect::<Vec<_>>());
            sort_records(F, &mut bytes, &mut scratch);
            assert!(F.is_sorted(&bytes));
        }
        sort_records_using(
            F,
            &mut make_records(F, &[2, 1]),
            &mut scratch,
            Kernel::Comparison,
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter("kernel/radix_sorts"), Some(3));
        assert_eq!(snap.counter("kernel/comparison_sorts"), Some(1));
    }

    /// Every level below a group consumes at least eight of the bits that
    /// group's keys differ in (or all that are left), so no input takes more
    /// than eight levels of two moves an item.  The input that takes all
    /// eight: one record each of `1 << 63`, `1 << 55`, …, `1 << 15` spread
    /// through 28 each of `1 << 7` and 0, interleaved — short enough that a
    /// level is eight bits wide, and each level splits off its one largest
    /// key and leaves the rest, always more than the insertion threshold,
    /// as one group for the next.
    #[test]
    fn work_is_bounded_by_eight_levels() {
        let n = 7 + 2 * (INSERTION_MAX + 4);
        assert!(n.ilog2() + LEVEL_SLACK_BITS <= ONE_DIGIT_BITS);
        let key = |i: usize| match (i % 8, i / 8) {
            (0, j @ 0..=6) => 1u64 << (63 - 8 * j),
            (_, _) => ((i % 2) as u64) << 7,
        };
        let mut items: Vec<Item<u32>> = (0..n).map(|i| (key(i), i as u32)).collect();
        let mut want = items.clone();
        want.sort_unstable();
        let diff = key_diff(items.iter().map(|it| it.0));
        let mut hist = Vec::new();
        let hist = Level::of(diff, n).hist(&mut hist);
        let moves = sort_span(&mut items, &mut vec![(0, 0); n], diff, hist);
        assert_eq!(items, want);
        // Level l of the eight moves the n - l items still together, twice.
        assert_eq!(moves, 2 * (n - 7..=n).sum::<usize>() as u64);
        assert!(moves <= 2 * 8 * n as u64, "{moves} moves of {n} items");
    }

    #[test]
    fn equal_keys_touch_no_ping_pong_array() {
        let mut scratch = SortScratch::new();
        for fmt in [RecordFormat::REC16, RecordFormat::REC64] {
            let mut bytes = make_records(fmt, &[9; 5000]);
            let want = bytes.clone();
            sort_records_using(fmt, &mut bytes, &mut scratch, Kernel::Radix);
            assert_eq!(bytes, want);
        }
        let (_, pairs_tmp, recs, recs_tmp, _) = scratch.capacity_fingerprint();
        assert_eq!((pairs_tmp, recs, recs_tmp), (0, 0, 0));
    }

    #[test]
    fn scratch_allocates_nothing_once_warm() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let keys: Vec<u64> = (0..4096).map(|_| rng.random()).collect();
        let pristine = make_records(F, &keys);
        let mut scratch = SortScratch::new();
        let mut bytes = pristine.clone();
        sort_records(F, &mut bytes, &mut scratch);
        let warm = scratch.capacity_fingerprint();
        for _ in 0..5 {
            bytes.copy_from_slice(&pristine);
            sort_records(F, &mut bytes, &mut scratch);
            assert_eq!(scratch.capacity_fingerprint(), warm, "scratch reallocated");
        }
    }

    #[test]
    fn run_len_gallops_correctly() {
        let keys: Vec<u64> = (0..100).map(|i| i / 3).collect();
        let bytes = make_records(F, &keys);
        for bound in [0u64, 1, 5, 32, 33, 100] {
            let want = keys.iter().take_while(|&&k| k < bound).count();
            assert_eq!(run_len(F, &bytes, |k| k < bound), want, "bound {bound}");
        }
        assert_eq!(run_len(F, &bytes, |_| true), keys.len());
        assert_eq!(run_len(F, &bytes, |_| false), 0);
        assert_eq!(run_len(F, &[], |_| true), 0);
    }
}
