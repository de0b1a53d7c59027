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
//!   whatever the key's width;
//! * **sorts that finish in the caller's bytes.**  16-byte records are
//!   sorted whole as `(key, payload)` register pairs, scattered into one
//!   scratch array and back; the tidy-up copies a group that holds a descent
//!   into that array and back (16 bytes of scratch a record).  Wider formats
//!   sort `(key, original index)` pairs (32 bytes a record) and permute the
//!   records in place, cycle by cycle;
//! * **galloping run detection** over sorted record slices ([`run_len`],
//!   and from the back) — the building block of the batched `MergeRun` fast
//!   path in [`crate::merge`] and of the backward window merge of csort's
//!   exchange of halves ([`crate::csort::merge_window`]).
//!
//! All scratch memory lives in a [`SortScratch`] that callers thread
//! through their rounds — a program's sort stages borrow their node's
//! ([`crate::driver::Node`]) — so steady-state sorting allocates nothing
//! (`tests/alloc_steady.rs` asserts this under the tracking allocator).

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

/// Reusable scratch for the sort kernels.
///
/// Owns the `(key, index)` permutation pairs and their radix ping-pong
/// buffer, and the whole-record `(key, payload)` pairs the 16-byte radix
/// path sorts through.  One scratch per sort-stage replica, kept by its node
/// for every pass of a run, allocates nothing once the buffers are warm.
#[derive(Default)]
pub struct SortScratch {
    /// `(key, original index)` pairs; after sorting, the permutation.
    pairs: Vec<(u64, u32)>,
    /// Ping-pong target for the radix scatter passes.
    pairs_tmp: Vec<(u64, u32)>,
    /// Whole 16-byte records as `(key, payload)`: where a level's first
    /// scatter lands and the tidy-up finishes each group.
    recs: Vec<(u64, u64)>,
    /// A level's two digit histograms; every level below reuses them.
    hist: Vec<usize>,
}

impl SortScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacities of the owned record-sized buffers (permutation pairs and
    /// ping-pong, whole-record pairs).  The zero-allocation tests check this
    /// stays constant across steady-state rounds.
    pub fn capacity_fingerprint(&self) -> (usize, usize, usize) {
        (
            self.pairs.capacity(),
            self.pairs_tmp.capacity(),
            self.recs.capacity(),
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
        return permute(fmt, bytes, &mut scratch.pairs);
    }
    if fmt.record_bytes == 16 {
        radix_sort_rec16(bytes.as_chunks_mut().0, scratch)
    } else {
        radix_sort_wide(fmt, bytes, scratch)
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
/// in input order).  The level scatters them into `recs` and back (a
/// one-digit level copies them back); each group the tidy-up finds is
/// copied into `recs`, free by then, finished there and copied back.
fn radix_sort_rec16(bytes: &mut [[u8; 16]], scratch: &mut SortScratch) {
    let diff = key_diff(bytes.iter().map(|r| rec16(r).0));
    if diff == 0 {
        // All keys equal: the input order is the stable order, and no
        // scratch array has been touched.
        return;
    }
    let (n, recs) = (bytes.len(), &mut scratch.recs);
    recs.resize(recs.len().max(n), (0, 0));
    let level = Level::of(diff, n);
    let hist = level.hist(&mut scratch.hist);
    level.first_scatter(bytes.iter().map(rec16), &mut recs[..n], hist);
    if level.hi_bits > 0 {
        level.second_scatter(&recs[..n], hist, |i, item| bytes[i] = rec16_bytes(item));
    } else {
        put_rec16(&recs[..n], bytes);
    }
    // Only a group longer than half the span grows `recs` past it.
    let finish = |group: &mut [[u8; 16]], _| {
        let m = group.len();
        recs.resize(recs.len().max(2 * m), (0, 0));
        let (items, other) = recs.split_at_mut(m);
        for (it, r) in items.iter_mut().zip(&*group) {
            *it = rec16(r);
        }
        finish_group(items, &mut other[..m], hist);
        put_rec16(items, group);
    };
    descent_groups(bytes, |r| rec16(r).0, level.shift, finish);
}

/// A 16-byte record as its `(key, payload)` item (one little-endian
/// `u128`, key in the low half), and back.
fn rec16(r: &[u8; 16]) -> Item<u64> {
    let v = u128::from_le_bytes(*r);
    (v as u64, (v >> 64) as u64)
}

fn rec16_bytes((key, payload): Item<u64>) -> [u8; 16] {
    ((payload as u128) << 64 | key as u128).to_le_bytes()
}

fn put_rec16(items: &[Item<u64>], bytes: &mut [[u8; 16]]) {
    for (r, &item) in bytes.iter_mut().zip(items) {
        *r = rec16_bytes(item);
    }
}

/// Other widths sort `(key, original index)` pairs and permute once.
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
        permute(fmt, bytes, &mut scratch.pairs);
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
        scatter(src, lo, |k| self.lo_digit(k), |i, item| dst[i] = item);
    }

    /// The second half: `src`, in low-digit order, to `put` by the high
    /// digit.
    #[inline]
    fn second_scatter<P: Copy>(
        self,
        src: &[Item<P>],
        hist: &mut [usize],
        put: impl FnMut(usize, Item<P>),
    ) {
        let hi = &mut hist[1 << self.lo_bits..];
        scatter(src.iter().copied(), hi, |k| self.hi_digit(k), put);
    }
}

/// Turn bucket counts into bucket start positions.
fn starts(hist: &mut [usize]) {
    let mut sum = 0;
    for h in hist.iter_mut() {
        sum += std::mem::replace(h, sum);
    }
}

/// One stable counting scatter: each of `src`'s items to `put` at the next
/// free slot of its digit's bucket (`pos` holds the start positions).
#[inline]
fn scatter<P: Copy>(
    src: impl Iterator<Item = Item<P>>,
    pos: &mut [usize],
    digit: impl Fn(u64) -> usize,
    mut put: impl FnMut(usize, Item<P>),
) {
    for item in src {
        let p = &mut pos[digit(item.0)];
        put(*p, item);
        *p += 1;
    }
}

/// Sort `cur` (whose keys differ in the bits of `diff`, not 0) stably by
/// key, with the equally long `other` as scratch: one level, then the
/// tidy-up, each group finished with its own slice of `other`.  Returns the
/// item moves made, for the test of the work bound.
fn sort_span<P: Copy>(
    cur: &mut [Item<P>],
    other: &mut [Item<P>],
    diff: u64,
    hist: &mut [usize],
) -> u64 {
    let level = Level::of(diff, cur.len());
    level.first_scatter(cur.iter().copied(), other, hist);
    if level.hi_bits > 0 {
        level.second_scatter(other, hist, |i, item| cur[i] = item);
    } else {
        cur.copy_from_slice(other);
    }
    let mut moves = 2 * cur.len() as u64;
    let finish = |group: &mut [Item<P>], lo| {
        moves += finish_group(group, &mut other[lo..lo + group.len()], hist)
    };
    descent_groups(cur, |it| it.0, level.shift, finish);
    moves
}

/// After a level at `shift`, keys ascend across groups of equal
/// `key >> shift`, so a descent can only sit inside a group: find each
/// group that holds one and hand it to `finish` with its first index.  A
/// group with no descent is never looked at again.
fn descent_groups<T>(
    cur: &mut [T],
    key: impl Fn(&T) -> u64,
    shift: u32,
    mut finish: impl FnMut(&mut [T], usize),
) {
    let n = cur.len();
    let mut i = 1;
    while i < n {
        if key(&cur[i - 1]) <= key(&cur[i]) {
            i += 1;
            continue;
        }
        let prefix = key(&cur[i]) >> shift;
        let mut lo = i - 1;
        while lo > 0 && key(&cur[lo - 1]) >> shift == prefix {
            lo -= 1;
        }
        let mut hi = i + 1;
        while hi < n && key(&cur[hi]) >> shift == prefix {
            hi += 1;
        }
        finish(&mut cur[lo..hi], lo);
        i = hi + 1;
    }
}

/// Finish a group that holds a descent: by stable insertion when it is
/// small, by [`sort_span`] on the bits its keys still differ in (all below
/// the level's shift) otherwise, with the equally long `other` as scratch.
fn finish_group<P: Copy>(group: &mut [Item<P>], other: &mut [Item<P>], hist: &mut [usize]) -> u64 {
    if group.len() > INSERTION_MAX {
        let diff = key_diff(group.iter().map(|it| it.0));
        return sort_span(group, other, diff, hist);
    }
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
    0
}

/// Apply the sorted permutation in place: slot `j` takes the record that
/// stood at `pairs[j].1`.  The 16- and 64-byte formats swap fixed-size
/// records, which lower to straight-line vector moves; other widths swap
/// byte slices.
fn permute(fmt: RecordFormat, bytes: &mut [u8], pairs: &mut [(u64, u32)]) {
    match fmt.record_bytes {
        16 => cycles(pairs, |a, b| bytes.as_chunks_mut::<16>().0.swap(a, b)),
        64 => cycles(pairs, |a, b| bytes.as_chunks_mut::<64>().0.swap(a, b)),
        rb => cycles(pairs, |a, b| {
            let (lo, hi) = bytes.split_at_mut(a.max(b) * rb);
            lo[a.min(b) * rb..][..rb].swap_with_slice(&mut hi[..rb])
        }),
    }
}

/// Follow each cycle of the permutation once from its first slot: the
/// record that stood there is swapped along the cycle, the one record in
/// hand, to the slot that takes it.  A slot is marked done by pointing it
/// at itself, so a later start on the cycle stops at once.
fn cycles(pairs: &mut [(u64, u32)], mut swap: impl FnMut(usize, usize)) {
    for i in 0..pairs.len() {
        let mut j = i;
        loop {
            let s = std::mem::replace(&mut pairs[j].1, j as u32) as usize;
            if s == i {
                break;
            }
            swap(j, s);
            j = s;
        }
    }
}

/// Number of leading records of sorted `data` whose key satisfies the
/// monotone predicate `pred` (true for a prefix of the run, false after).
/// Gallops — probes 1, 2, 4, … records ahead, then binary-searches the
/// last doubling interval — so a run of `m` records costs `O(log m)` key
/// loads instead of `m`.
pub fn run_len(fmt: RecordFormat, data: &[u8], pred: impl Fn(u64) -> bool) -> usize {
    let rb = fmt.record_bytes;
    gallop(data.len() / rb, |i| pred(fmt.key(&data[i * rb..])))
}

/// [`run_len`] from the back: the number of trailing records of sorted
/// `data` whose key satisfies `pred` (false for a prefix, true after).
pub(crate) fn run_len_back(fmt: RecordFormat, data: &[u8], pred: impl Fn(u64) -> bool) -> usize {
    let (rb, n) = (fmt.record_bytes, data.len() / fmt.record_bytes);
    gallop(n, |i| pred(fmt.key(&data[(n - 1 - i) * rb..])))
}

/// The length of the prefix of `0..n` on which `ok` holds (true, then false).
fn gallop(n: usize, ok: impl Fn(usize) -> bool) -> usize {
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

    /// The records as slices, sorted by the standard library's stable
    /// sort: a reference that shares no code with either kernel.
    fn reference(fmt: RecordFormat, bytes: &mut [u8]) {
        let mut recs: Vec<&[u8]> = fmt.records(bytes).collect();
        recs.sort_by_key(|r| fmt.key(r));
        bytes.copy_from_slice(&recs.concat());
    }

    /// The radix kernel against [`reference`] on records with `keys`.
    fn check(fmt: RecordFormat, keys: &[u64]) {
        let mut got = make_records(fmt, keys);
        let mut want = got.clone();
        sort_records_using(fmt, &mut got, &mut SortScratch::new(), Kernel::Radix);
        reference(fmt, &mut want);
        assert_eq!(got, want, "fmt {fmt:?} n {}", keys.len());
    }

    #[test]
    fn radix_matches_oracle_across_sizes_and_formats() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let odd = RecordFormat::new(40).expect("a 40-byte format");
        for fmt in [RecordFormat::REC16, RecordFormat::REC64, odd] {
            for n in [0usize, 1, 2, 3, 255, 256, 257, 1000] {
                // Narrow key range forces duplicates (stability) and
                // degenerate high digits (skipping).
                check(
                    fmt,
                    &(0..n).map(|_| rng.random_range(0..50)).collect::<Vec<_>>(),
                );
            }
        }
    }

    #[test]
    fn radix_handles_full_width_keys() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        check(F, &(0..2000).map(|_| rng.random()).collect::<Vec<_>>());
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
        // The two kernels leave different footprints in a fresh scratch: a
        // 16-byte radix sort works through the whole-record array alone,
        // the comparison kernel through the permutation pairs alone.
        for n in [2u64, 25, 3000] {
            let mut bytes = make_records(F, &(0..n).rev().collect::<Vec<_>>());
            let mut scratch = SortScratch::new();
            sort_records(F, &mut bytes, &mut scratch);
            assert!(F.is_sorted(&bytes));
            let (pairs, pairs_tmp, recs) = scratch.capacity_fingerprint();
            assert_eq!((pairs, pairs_tmp), (0, 0), "{n} records");
            assert!(recs >= n as usize, "{n} records: recs {recs}");
        }
        let mut scratch = SortScratch::new();
        let mut bytes = make_records(F, &[2, 1]);
        sort_records_using(F, &mut bytes, &mut scratch, Kernel::Comparison);
        let (pairs, _, recs) = scratch.capacity_fingerprint();
        assert!(
            pairs >= 2 && recs == 0,
            "{:?}",
            scratch.capacity_fingerprint()
        );
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
        let (_, pairs_tmp, recs) = scratch.capacity_fingerprint();
        assert_eq!((pairs_tmp, recs), (0, 0));
    }

    #[test]
    fn scratch_allocates_nothing_once_warm() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let keys: Vec<u64> = (0..4096).map(|_| rng.random()).collect();
        // REC16 keeps one record-sized array, where the level's scatter
        // lands and the tidy-up finishes each group; wide records keep the
        // permutation pairs and their ping-pong array, and permute in place.
        for (fmt, warm) in [(F, (0, 0, 4096)), (RecordFormat::REC64, (4096, 4096, 0))] {
            let pristine = make_records(fmt, &keys);
            let (mut bytes, mut scratch) = (pristine.clone(), SortScratch::new());
            for _ in 0..6 {
                bytes.copy_from_slice(&pristine);
                sort_records(fmt, &mut bytes, &mut scratch);
                assert_eq!(scratch.capacity_fingerprint(), warm, "{fmt:?}");
            }
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
        for bound in [0u64, 1, 5, 32, 33, 100] {
            let want = keys.iter().rev().take_while(|&&k| k >= bound).count();
            assert_eq!(
                run_len_back(F, &bytes, |k| k >= bound),
                want,
                "bound {bound}"
            );
        }
    }
}
