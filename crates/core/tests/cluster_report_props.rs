//! Property tests for [`ClusterReport`] aggregation: merging per-rank
//! reports must not depend on how the coordinator groups or orders the
//! arriving snapshots.

use std::collections::HashSet;
use std::time::Duration;

use fg_core::{ClusterReport, MetricsRegistry, RankReport};
use proptest::prelude::*;

/// Build a rank report with some rank-qualified comm metrics.
fn rank_report(rank: usize, wall_ms: u64, bytes: u64) -> RankReport {
    let reg = MetricsRegistry::new();
    reg.counter(&format!("comm/bytes/{rank}->{}", rank + 1))
        .add(bytes);
    reg.counter(&format!("comm/msgs/{rank}->{}", rank + 1))
        .add(1);
    reg.histogram(&format!("comm/barrier_ns/r{rank}"))
        .record(wall_ms * 10);
    RankReport {
        rank,
        wall: Duration::from_millis(wall_ms),
        reports: Vec::new(),
        metrics: reg.snapshot(),
    }
}

/// A set of rank reports with distinct ranks, as `(rank, wall_ms, bytes)`.
fn disjoint_ranks() -> impl Strategy<Value = Vec<(usize, u64, u64)>> {
    proptest::collection::vec((0usize..32, 1u64..1000, 0u64..1 << 20), 1..12).prop_map(|specs| {
        let mut seen = HashSet::new();
        specs
            .into_iter()
            .filter(|&(rank, _, _)| seen.insert(rank))
            .collect()
    })
}

fn folded(parts: &[Vec<RankReport>]) -> ClusterReport {
    let mut acc = ClusterReport::default();
    for part in parts {
        let mut cr = ClusterReport::default();
        for r in part {
            cr.push(r.clone());
        }
        acc.merge(&cr);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging is associative: grouping the arriving per-node reports
    /// differently yields the same cluster report.
    #[test]
    fn merge_is_associative(
        specs in disjoint_ranks(),
        split in (0usize..100, 0usize..100),
    ) {
        let reports: Vec<RankReport> =
            specs.iter().map(|&(r, w, b)| rank_report(r, w, b)).collect();
        let n = reports.len();
        let (mut i, mut j) = (split.0 % (n + 1), split.1 % (n + 1));
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let (a, b, c) = (&reports[..i], &reports[i..j], &reports[j..]);

        // ((A ∪ B) ∪ C) vs (A ∪ (B ∪ C)).
        let left = folded(&[a.to_vec(), b.to_vec(), c.to_vec()]);
        let mut bc = ClusterReport::default();
        for r in b.iter().chain(c) {
            bc.push(r.clone());
        }
        let mut right = ClusterReport::default();
        for r in a {
            right.push(r.clone());
        }
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// For disjoint rank sets (the normal case: every node reports its own
    /// rank once), arrival order does not matter.
    #[test]
    fn merge_is_rank_permutation_invariant(
        specs in disjoint_ranks(),
        seed in 0u64..u64::MAX,
    ) {
        let reports: Vec<RankReport> =
            specs.iter().map(|&(r, w, b)| rank_report(r, w, b)).collect();

        // A cheap deterministic shuffle driven by the seed.
        let mut shuffled = reports.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }

        let ordered = folded(&[reports]);
        let permuted = folded(&[shuffled]);
        prop_assert_eq!(&ordered, &permuted);

        // And the result is sorted by rank with no duplicates.
        let ranks: Vec<usize> = ordered.ranks.iter().map(|r| r.rank).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&ranks, &sorted);
        prop_assert_eq!(ranks.len(), ranks.iter().collect::<HashSet<_>>().len());
    }

}
