//! K-way merging: the loser tree driving dsort's merge stage.
//!
//! Pass 2 of dsort merges a node's sorted runs (§V).  The merge stage
//! "repeatedly chooses the smallest value not yet chosen from any of the
//! buffers" — a tournament among the run heads.  A *loser tree* does each
//! choose-and-refill in `O(log k)` comparisons.
//!
//! Every lane's head is one packed, totally ordered entry `(exhausted, key,
//! lane)`: smaller keys win, equal keys win in lane order — so a merge is
//! fully deterministic — and an exhausted lane loses to every live one,
//! whatever its key.  A tournament is then a compare-and-select on two
//! integers, with no branch for the outcome to mispredict.

use std::convert::Infallible;
use std::hint::select_unpredictable;
use std::sync::Arc;

use fg_core::metrics::Histogram;

use crate::record::RecordFormat;

/// One lane's head as the tournament sees it: `exhausted` in bit 96, the key
/// in bits 32..96, the lane in bits 0..32.  Lanes differ, so no two entries
/// of a tree are equal.
type Entry = u128;

const LANE_BITS: u32 = 32;
const EXHAUSTED: Entry = 1 << (LANE_BITS + 64);

fn entry(head: Option<u64>, lane: usize) -> Entry {
    let lane = lane as Entry;
    match head {
        Some(key) => (key as Entry) << LANE_BITS | lane,
        None => EXHAUSTED | lane,
    }
}

fn lane_of(e: Entry) -> usize {
    (e & ((1 << LANE_BITS) - 1)) as usize
}

/// `(min, max)` of two entries, by compare-and-select: each 64-bit word is a
/// select the compiler is told not to predict, which it emits as a
/// conditional move.  Left to itself it compiles `Ord::min`/`max` on a
/// `u128` — and a mask built from `a < b`, and a `u128`-wide select — into a
/// jump on the comparison: the branch the packing is there to avoid, and
/// half of what a merge step costs on interleaved runs (EXPERIMENTS D3).
#[inline(always)]
fn ordered(a: Entry, b: Entry) -> (Entry, Entry) {
    let (a_hi, a_lo, b_hi, b_lo) = ((a >> 64) as u64, a as u64, (b >> 64) as u64, b as u64);
    let a_wins = (a_hi < b_hi) | ((a_hi == b_hi) & (a_lo < b_lo));
    let pick = |yes: u64, no: u64| select_unpredictable(a_wins, yes, no) as Entry;
    (
        pick(a_hi, b_hi) << 64 | pick(a_lo, b_lo),
        pick(b_hi, a_hi) << 64 | pick(b_lo, a_lo),
    )
}

/// The lane and key of a live entry, `None` for an exhausted one.
fn live(e: Entry) -> Option<(usize, u64)> {
    (e < EXHAUSTED).then(|| (lane_of(e), (e >> LANE_BITS) as u64))
}

/// A loser tree over `k` lanes.
///
/// Protocol: construct with each lane's initial head key (or `None` if the
/// lane is empty); repeatedly call [`LoserTree::winner`] to learn the lane
/// with the smallest head, consume that lane's head, and call
/// [`LoserTree::replace`] with the lane's next key.
#[derive(Debug)]
pub struct LoserTree {
    k: usize,
    /// `nodes[0]` is the overall winner's entry; `nodes[1..k]` hold the
    /// entry that lost each internal tournament.  Lane `l`'s leaf is the
    /// implicit position `k + l`, whose parent is `(k + l) / 2`.
    nodes: Vec<Entry>,
}

impl LoserTree {
    /// The most lanes a tree can hold: what an entry's lane field can
    /// number.
    pub const MAX_LANES: usize = 1 << LANE_BITS;

    /// Build a tree over the given initial lane heads.
    ///
    /// # Panics
    /// If there is no lane, or more than [`LoserTree::MAX_LANES`].
    pub fn new<I>(heads: I) -> Self
    where
        I: IntoIterator<Item = Option<u64>>,
        I::IntoIter: ExactSizeIterator,
    {
        let heads = heads.into_iter();
        let k = heads.len();
        assert!(k > 0, "loser tree needs at least one lane");
        assert!(
            k <= Self::MAX_LANES,
            "loser tree holds at most {} lanes, got {k}",
            Self::MAX_LANES
        );
        let leaves: Vec<Entry> = heads
            .enumerate()
            .map(|(lane, head)| entry(head, lane))
            .collect();
        let mut tree = LoserTree {
            k,
            nodes: vec![0; k],
        };
        tree.nodes[0] = tree.build(1, &leaves);
        tree
    }

    /// Recursively play the tournament below `node`, recording losers;
    /// returns the winning entry.
    fn build(&mut self, node: usize, leaves: &[Entry]) -> Entry {
        if node >= self.k {
            return leaves[node - self.k];
        }
        let left = self.build(2 * node, leaves);
        let right = self.build(2 * node + 1, leaves);
        let (winner, loser) = ordered(left, right);
        self.nodes[node] = loser;
        winner
    }

    /// The lane holding the smallest head and that head's key, or `None`
    /// once every lane is exhausted.
    #[inline]
    pub fn winner(&self) -> Option<(usize, u64)> {
        live(self.nodes[0])
    }

    /// Replace the current winner's head (the caller consumed it) with the
    /// lane's next key — `None` when the lane is exhausted — and replay the
    /// tournament path from that leaf.
    #[inline]
    pub fn replace(&mut self, lane: usize, next: Option<u64>) {
        debug_assert_eq!(
            lane,
            lane_of(self.nodes[0]),
            "replace must be called on the current winner"
        );
        let mut winner = entry(next, lane);
        let mut node = (self.k + lane) / 2;
        while node >= 1 {
            (winner, self.nodes[node]) = ordered(winner, self.nodes[node]);
            node /= 2;
        }
        self.nodes[0] = winner;
    }

    /// The lane that would win if the current winner's lane were exhausted
    /// — the best live contender along the winner's tournament path — and
    /// its key.  `None` when every other lane is exhausted.  `O(log k)`.
    pub fn runner_up(&self) -> Option<(usize, u64)> {
        let mut best = EXHAUSTED;
        let mut node = (self.k + lane_of(self.nodes[0])) / 2;
        while node >= 1 {
            best = best.min(self.nodes[node]);
            node /= 2;
        }
        live(best)
    }

    /// The `MergeRun` fast path: how many leading records of `lane_data` —
    /// the current winner's buffered, sorted records — can be emitted in
    /// one batch before the tree must be consulted again, i.e. every record
    /// that still beats the runner-up.  At least 1 (the head itself is the
    /// winner), at most the records in `lane_data`.  The caller copies the
    /// whole range with one `copy_from_slice`, then calls
    /// [`LoserTree::replace`] once.
    pub fn merge_run(&self, fmt: RecordFormat, lane_data: &[u8]) -> usize {
        let n = lane_data.len() / fmt.record_bytes;
        debug_assert!(n >= 1, "winner lane must have buffered records");
        debug_assert_eq!(
            self.winner().map(|(_, key)| key),
            Some(fmt.key(lane_data)),
            "lane_data must start at the winner's head"
        );
        let Some((r_lane, r_key)) = self.runner_up() else {
            return n; // every other lane exhausted: drain this one
        };
        // A record with key `k` beats the runner-up when (k, lane) <
        // (r_key, r_lane); with `k` non-decreasing along the run this is a
        // single key bound, strict or not by how the lanes compare.
        let len = if lane_of(self.nodes[0]) < r_lane {
            crate::kernels::run_len(fmt, lane_data, |k| k <= r_key)
        } else {
            crate::kernels::run_len(fmt, lane_data, |k| k < r_key)
        };
        len.clamp(1, n)
    }
}

/// Adaptive gate in front of [`LoserTree::merge_run`].
///
/// Batching pays for a runner-up walk plus a galloping probe per tree
/// consultation.  When runs barely interleave (splitter-partitioned,
/// presorted data) batches are long and that cost amortizes to nothing;
/// when they interleave record-by-record (uniform random keys) every
/// batch is 1 and the probe is pure overhead on top of the scalar path.
/// This policy backs off exponentially on batch-of-1 results: after each
/// failed probe it serves twice as many scalar steps (batch 1, no probe)
/// before probing again, up to [`BatchPolicy::MAX_BACKOFF`], and resets
/// on any successful batch.  A fully interleaved stream thus pays only
/// `O(log)` probes plus one per `MAX_BACKOFF` records — overhead that
/// vanishes — while a regime change to run-structured data is still
/// noticed within `MAX_BACKOFF` records.
#[derive(Debug)]
struct BatchPolicy {
    /// Scalar steps remaining before the next probe.
    skip: u32,
    /// Scalar steps the *next* failed probe will cost.
    backoff: u32,
}

impl BatchPolicy {
    /// First backoff after a failed probe (doubles per consecutive miss).
    pub const MIN_BACKOFF: u32 = 4;
    /// Backoff ceiling: the most records a newly run-structured stretch
    /// can go unnoticed.
    pub const MAX_BACKOFF: u32 = 1024;

    /// A fresh policy that probes on its first step.
    pub fn new() -> Self {
        BatchPolicy {
            skip: 0,
            backoff: Self::MIN_BACKOFF,
        }
    }

    /// [`LoserTree::merge_run`] behind the backoff gate: the batch length
    /// (in records) to emit from the current winner's `lane_data`.
    pub fn merge_run(&mut self, tree: &LoserTree, fmt: RecordFormat, lane_data: &[u8]) -> usize {
        if self.skip > 0 {
            self.skip -= 1;
            return 1;
        }
        let n = tree.merge_run(fmt, lane_data);
        if n <= 1 {
            self.skip = self.backoff;
            self.backoff = (self.backoff * 2).min(Self::MAX_BACKOFF);
        } else {
            self.backoff = Self::MIN_BACKOFF;
        }
        n
    }
}

/// The one k-way merge loop: a loser tree over the lanes' head keys and the
/// [`BatchPolicy`] in front of its `MergeRun` fast path.  dsort's merge
/// stage, dsort-linear's merge-read and [`merge_runs`] all run it.
///
/// The lanes arrive as buffers of records: `next(lane, spent)` takes back
/// lane `lane`'s spent head, if it has one, and brings its next buffer —
/// `None` once the lane is exhausted.  Only `next` differs between the
/// merges the programs and the benchmarks run: in memory, from a stage's
/// vertical pipelines, from a disk.  A head stays where it is, with a cursor
/// beside it, and is given back only once it is spent; the first call brings
/// every lane to its first head.
pub struct Merge<B, F> {
    tree: LoserTree,
    started: bool,
    policy: BatchPolicy,
    lanes: Lanes<B, F>,
    /// Records a batch, when a registry wants them
    /// (`kernel/merge_batch_records`).
    batches: Option<Arc<Histogram>>,
}

/// Each lane's head buffer and how far into it the merge is.
struct Lanes<B, F> {
    fmt: RecordFormat,
    heads: Vec<Option<(B, usize)>>,
    next: F,
}

impl<B, E, F> Merge<B, F>
where
    B: AsRef<[u8]>,
    F: FnMut(usize, Option<B>) -> Result<Option<B>, E>,
{
    /// A merge over `lanes` lanes brought by `next`.
    pub fn new(fmt: RecordFormat, lanes: usize, next: F, batches: Option<Arc<Histogram>>) -> Self {
        let heads = (0..lanes).map(|_| None).collect();
        Merge {
            tree: LoserTree::new([None]),
            started: false,
            policy: BatchPolicy::new(),
            lanes: Lanes { fmt, heads, next },
            batches,
        }
    }

    /// Merge records into `out`, a whole number of records, in place until
    /// it is full or every lane is exhausted; returns the bytes written.
    pub fn fill(&mut self, out: &mut [u8]) -> Result<usize, E> {
        let mut at = 0;
        self.merge(out.len(), |batch| {
            out[at..at + batch.len()].copy_from_slice(batch);
            at += batch.len();
        })
    }

    /// Merge up to `room` bytes of records, a whole number of them, handing
    /// them to `put` in order; returns the bytes merged.  Each step hands
    /// over every record of the winner's head that still beats the
    /// runner-up, up to the room left, and replays the tree once.
    pub fn merge(&mut self, room: usize, mut put: impl FnMut(&[u8])) -> Result<usize, E> {
        if !self.started {
            let lanes = &mut self.lanes;
            let keys = (0..lanes.heads.len()).map(|lane| lanes.refill(lane, None));
            let mut keys = keys.collect::<Result<Vec<_>, E>>()?;
            // With no lane at all, it merges one exhausted lane.
            keys.resize(keys.len().max(1), None);
            (self.tree, self.started) = (LoserTree::new(keys), true);
        }
        let (fmt, rb) = (self.lanes.fmt, self.lanes.fmt.record_bytes);
        debug_assert_eq!(room % rb, 0, "a merge hands over whole records");
        let mut at = 0;
        while at < room {
            let Some((lane, _)) = self.tree.winner() else {
                break;
            };
            let next = self.lanes.take(lane, |head| {
                let n = (self.policy.merge_run(&self.tree, fmt, head) * rb).min(room - at);
                if let Some(h) = &self.batches {
                    h.record((n / rb) as u64);
                }
                put(&head[..n]);
                at += n;
                n
            })?;
            self.tree.replace(lane, next);
        }
        Ok(at)
    }
}

impl<B, E, F> Lanes<B, F>
where
    B: AsRef<[u8]>,
    F: FnMut(usize, Option<B>) -> Result<Option<B>, E>,
{
    /// Hand back `spent` and make lane `lane`'s next non-empty buffer its
    /// head; returns the head's first key.
    fn refill(&mut self, lane: usize, mut spent: Option<B>) -> Result<Option<u64>, E> {
        loop {
            match (self.next)(lane, spent.take())? {
                None => return Ok(None),
                Some(buf) if buf.as_ref().is_empty() => spent = Some(buf),
                Some(buf) => {
                    let key = self.fmt.key(buf.as_ref());
                    self.heads[lane] = Some((buf, 0));
                    return Ok(Some(key));
                }
            }
        }
    }

    /// Hand live lane `lane`'s head — its unmerged records, never empty — to
    /// `merge`, which returns how many of its leading bytes it merged; step
    /// past them, refilling a spent head, and return the lane's next key,
    /// `None` once the lane is exhausted.
    fn take(&mut self, lane: usize, merge: impl FnOnce(&[u8]) -> usize) -> Result<Option<u64>, E> {
        let (buf, off) = self.heads[lane].as_mut().expect("a live lane has a head");
        let bytes = buf.as_ref();
        *off += merge(&bytes[*off..]);
        if *off < bytes.len() {
            return Ok(Some(self.fmt.key(&bytes[*off..])));
        }
        let spent = self.heads[lane].take().map(|(buf, _)| buf);
        self.refill(lane, spent)
    }
}

/// Merge fully-materialized sorted runs of records: [`Merge::fill`] over
/// lanes that each hold their whole run (tests, benchmarks, ablations).
pub fn merge_runs(format: RecordFormat, runs: &[&[u8]]) -> Vec<u8> {
    merge_in_pieces(format, runs, usize::MAX)
}

/// [`merge_runs`] with each run arriving in `piece`-byte buffers, as a merge
/// stage's vertical pipelines bring it.
pub fn merge_in_pieces(format: RecordFormat, runs: &[&[u8]], piece: usize) -> Vec<u8> {
    let mut pieces: Vec<_> = runs.iter().map(|run| run.chunks(piece)).collect();
    let next = |lane: usize, _| Ok::<_, Infallible>(pieces[lane].next());
    let total = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut merge = Merge::new(format, runs.len(), next, None);
    let Ok(_) = merge.merge(total, |batch| out.extend_from_slice(batch));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(lanes: Vec<Vec<u64>>) -> Vec<u64> {
        let mut cursors = vec![0usize; lanes.len()];
        let head = |lane: &Vec<u64>, c: usize| lane.get(c).copied();
        let mut tree = LoserTree::new(lanes.iter().map(|l| head(l, 0)));
        let mut out = Vec::new();
        while let Some((lane, key)) = tree.winner() {
            out.push(key);
            cursors[lane] += 1;
            tree.replace(lane, head(&lanes[lane], cursors[lane]));
        }
        out
    }

    #[test]
    fn merges_basic() {
        let got = drain(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
        assert_eq!(got, (1..=9).collect::<Vec<u64>>());
    }

    #[test]
    fn single_lane() {
        assert_eq!(drain(vec![vec![3, 3, 5]]), vec![3, 3, 5]);
    }

    #[test]
    fn empty_lanes_among_full() {
        let got = drain(vec![vec![], vec![2, 2], vec![], vec![1], vec![]]);
        assert_eq!(got, vec![1, 2, 2]);
    }

    #[test]
    fn all_lanes_empty() {
        assert_eq!(drain(vec![vec![], vec![]]), Vec::<u64>::new());
    }

    #[test]
    fn duplicates_across_lanes_resolve_by_lane_order() {
        let got = drain(vec![vec![5; 4], vec![5; 4]]);
        assert_eq!(got, vec![5; 8]);
    }

    #[test]
    fn many_lanes_arbitrary_k() {
        for k in [1usize, 2, 3, 5, 7, 13, 31, 100] {
            let lanes: Vec<Vec<u64>> = (0..k)
                .map(|l| (0..20).map(|i| (i * k + l) as u64).collect())
                .collect();
            let got = drain(lanes);
            let expect: Vec<u64> = (0..(20 * k) as u64).collect();
            assert_eq!(got, expect, "k = {k}");
        }
    }

    #[test]
    fn randomized_against_std_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let k = rng.random_range(1..12);
            let mut all = Vec::new();
            let lanes: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let n = rng.random_range(0..40);
                    let mut lane: Vec<u64> = (0..n).map(|_| rng.random_range(0..50)).collect();
                    lane.sort_unstable();
                    all.extend_from_slice(&lane);
                    lane
                })
                .collect();
            all.sort_unstable();
            assert_eq!(drain(lanes), all);
        }
    }

    #[test]
    fn runner_up_tracks_second_best() {
        let mut tree = LoserTree::new([Some(3), Some(1), Some(2)]);
        assert_eq!(tree.winner(), Some((1, 1)));
        assert_eq!(tree.runner_up(), Some((2, 2)));
        tree.replace(1, Some(9));
        assert_eq!(tree.winner(), Some((2, 2)));
        assert_eq!(tree.runner_up(), Some((0, 3)));
        tree.replace(2, None);
        tree.replace(0, None);
        assert_eq!(tree.winner(), Some((1, 9)));
        assert_eq!(tree.runner_up(), None);
        assert_eq!(LoserTree::new([Some(5)]).runner_up(), None);
    }

    #[test]
    fn merge_run_batches_up_to_runner_up() {
        let f = RecordFormat::REC16;
        let mk = |keys: &[u64]| {
            let mut out = vec![0u8; keys.len() * 16];
            for (i, &k) in keys.iter().enumerate() {
                f.set_key(&mut out[i * 16..(i + 1) * 16], k);
            }
            out
        };
        // Lane 0 holds 1,2,3,7; lane 1 holds 4: the batch is the 3 records
        // strictly below the runner-up's key.
        let lane0 = mk(&[1, 2, 3, 7]);
        let tree = LoserTree::new([Some(1), Some(4)]);
        assert_eq!(tree.merge_run(f, &lane0), 3);
        // Equal keys: the lower lane index wins ties, so lane 0 may emit
        // through the tie; a higher-lane winner must stop before it.
        let lane = mk(&[4, 4, 5]);
        let tree = LoserTree::new([Some(4), Some(4)]);
        assert_eq!(tree.winner(), Some((0, 4)));
        assert_eq!(tree.merge_run(f, &lane), 2);
        let tree = LoserTree::new([None, Some(4)]);
        assert_eq!(tree.winner(), Some((1, 4)));
        assert_eq!(tree.merge_run(f, &lane), 3); // lane 0 exhausted: drain
    }

    #[test]
    fn batch_policy_backs_off_exponentially() {
        let f = RecordFormat::REC16;
        let mk = |keys: &[u64]| {
            let mut out = vec![0u8; keys.len() * 16];
            for (i, &k) in keys.iter().enumerate() {
                f.set_key(&mut out[i * 16..(i + 1) * 16], k);
            }
            out
        };
        // Fully interleaved: the winner's next key loses to the
        // runner-up, so every probe yields a batch of 1.
        let lane = mk(&[4, 10, 10]);
        let tree = LoserTree::new([Some(5), Some(4)]);
        let mut policy = BatchPolicy::new();
        assert_eq!(tree.winner(), Some((1, 4)));
        // First call probes (batch 1), then serves MIN_BACKOFF scalar
        // steps, probes again, serves 2x, and so on.
        let mut probes = 0;
        let mut steps = 0u32;
        let total = BatchPolicy::MIN_BACKOFF * 8;
        for _ in 0..total {
            let before = policy.skip;
            assert_eq!(policy.merge_run(&tree, f, &lane), 1);
            if before == 0 {
                probes += 1;
            }
            steps += 1;
        }
        assert!(
            probes <= 4,
            "{probes} probes in {steps} interleaved steps (want O(log))"
        );
        // A successful batch resets the backoff.
        let runny = mk(&[1, 2, 3]);
        let tree = LoserTree::new([Some(1), Some(9)]);
        let mut policy = BatchPolicy::new();
        assert_eq!(policy.merge_run(&tree, f, &runny), 3);
        assert_eq!(policy.backoff, BatchPolicy::MIN_BACKOFF);
    }

    #[test]
    fn merge_runs_over_records() {
        let f = RecordFormat::REC16;
        let mk = |keys: &[u64]| {
            let mut out = vec![0u8; keys.len() * 16];
            for (i, &k) in keys.iter().enumerate() {
                f.set_key(&mut out[i * 16..(i + 1) * 16], k);
            }
            out
        };
        let a = mk(&[1, 3, 5]);
        let b = mk(&[2, 3, 6]);
        let merged = merge_runs(f, &[&a, &b]);
        let keys: Vec<u64> = f.records(&merged).map(|r| f.key(r)).collect();
        assert_eq!(keys, vec![1, 2, 3, 3, 5, 6]);
        assert_eq!(merge_runs(f, &[]), Vec::<u8>::new());
    }
}
