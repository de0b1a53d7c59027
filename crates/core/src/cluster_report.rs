//! Cluster-wide telemetry aggregation: merging per-rank reports and
//! registries into one [`ClusterReport`].
//!
//! In the real-distributed shape (ROADMAP item 1) every node owns its own
//! [`MetricsRegistry`] and ships a [`RankReport`] home at the end of a run
//! (or over the telemetry server mid-run); the coordinator folds them with
//! [`ClusterReport::merge`].  The simulated cluster produces the same
//! structure from [`Cluster::run_observed`]'s per-rank snapshots, so the
//! aggregation path is identical when the fabric goes over TCP.
//!
//! The merge is a per-rank union: a rank that appears in both sides is
//! replaced by the right-hand side.  That makes merge **associative** and,
//! for the normal case of disjoint rank sets, **permutation-invariant** —
//! the coordinator may fold nodes' reports in any arrival order.

use std::time::Duration;

use crate::json::{obj, Json};
use crate::metrics::MetricsSnapshot;
use crate::stats::Report;

/// One rank's contribution to a [`ClusterReport`]: the FG program reports
/// it ran (e.g. both passes of dsort), its wall-clock time on the node
/// function, and its registry snapshot (stage metrics plus the rank's
/// `comm/*` names).
#[derive(Debug, Clone, PartialEq)]
pub struct RankReport {
    /// The rank this report describes.
    pub rank: usize,
    /// Wall-clock time of the rank's node function.
    pub wall: Duration,
    /// Reports of the FG programs this rank ran, in execution order.
    pub reports: Vec<Report>,
    /// Snapshot of the rank's metrics registry.
    pub metrics: MetricsSnapshot,
}

impl RankReport {
    /// Total busy time across every stage of every program this rank ran.
    pub fn busy(&self) -> Duration {
        self.reports.iter().map(|r| r.total_busy()).sum()
    }

    /// Sum of a histogram's `sum` field (total ns) under `name`.
    fn hist_sum_ns(&self, name: &str) -> u64 {
        self.metrics.histogram(name).map_or(0, |h| h.sum)
    }

    /// Total time this rank spent in user point-to-point sends (includes
    /// the simulated network charge).
    pub fn send_ns(&self) -> u64 {
        self.hist_sum_ns(&format!("comm/send_ns/r{}", self.rank))
    }

    /// Total time this rank spent blocked in user point-to-point receives.
    pub fn recv_wait_ns(&self) -> u64 {
        self.hist_sum_ns(&format!("comm/recv_wait_ns/r{}", self.rank))
    }

    /// Total time this rank spent inside collectives.
    pub fn collective_ns(&self) -> u64 {
        COLLECTIVE_OPS
            .iter()
            .map(|op| self.hist_sum_ns(&format!("comm/{op}_ns/r{}", self.rank)))
            .sum()
    }

    /// JSON object for this rank report.
    pub fn to_json_value(&self) -> Json {
        obj(vec![
            ("rank", Json::from(self.rank)),
            ("wall_ns", Json::from(self.wall.as_nanos() as u64)),
            (
                "reports",
                Json::Arr(self.reports.iter().map(Report::to_json_value).collect()),
            ),
            ("metrics", self.metrics.to_json_value()),
        ])
    }
}

/// The collective operations carrying per-rank latency histograms.
pub const COLLECTIVE_OPS: [&str; 4] = ["barrier", "broadcast", "allgather", "alltoallv"];

/// One collective's latency rollup on one rank (from the per-rank
/// `comm/{op}_ns/r{rank}` histograms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveStat {
    /// Rank that recorded the samples.
    pub rank: usize,
    /// Calls this rank made.
    pub count: u64,
    /// Total ns this rank spent in the operation.
    pub total_ns: u64,
    /// Slowest single call, ns.
    pub max_ns: u64,
}

/// Aggregated observability of one cluster run: every rank's report,
/// mergeable, writable as JSON, and renderable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterReport {
    /// Cluster size (ranks may be missing while reports are in flight).
    pub nodes: usize,
    /// Per-rank reports, sorted by rank.
    pub ranks: Vec<RankReport>,
}

impl ClusterReport {
    /// An empty report for a cluster of `nodes`.
    pub fn new(nodes: usize) -> ClusterReport {
        ClusterReport {
            nodes,
            ranks: Vec::new(),
        }
    }

    /// Insert (or replace) one rank's report, keeping rank order.
    pub fn push(&mut self, rank: RankReport) {
        self.nodes = self.nodes.max(rank.rank + 1);
        match self.ranks.binary_search_by_key(&rank.rank, |r| r.rank) {
            Ok(i) => self.ranks[i] = rank,
            Err(i) => self.ranks.insert(i, rank),
        }
    }

    /// The report for `rank`, if present.
    pub fn rank(&self, rank: usize) -> Option<&RankReport> {
        self.ranks.iter().find(|r| r.rank == rank)
    }

    /// Fold `other` into `self`: per-rank union, with `other`'s entry
    /// replacing on a duplicate rank.  Associative, and commutative for
    /// disjoint rank sets — the order nodes' reports arrive in does not
    /// matter.
    pub fn merge(&mut self, other: &ClusterReport) {
        self.nodes = self.nodes.max(other.nodes);
        for r in &other.ranks {
            self.push(r.clone());
        }
    }

    /// Per-peer traffic matrix in bytes: `matrix[src][dst]` is what `src`
    /// sent to `dst`, parsed from the `comm/bytes/{src}->{dst}` counters of
    /// every rank's snapshot.
    pub fn traffic_matrix(&self) -> Vec<Vec<u64>> {
        let mut matrix = vec![vec![0u64; self.nodes]; self.nodes];
        for rank in &self.ranks {
            for (name, v) in &rank.metrics.counters {
                if let Some((src, dst)) = parse_peer_counter(name, "comm/bytes/") {
                    if src < self.nodes && dst < self.nodes {
                        // Replace (not add): the same counter may appear in
                        // several snapshots after a lossy shared-registry
                        // export; per-rank registries make this a no-op.
                        matrix[src][dst] = matrix[src][dst].max(*v);
                    }
                }
            }
        }
        matrix
    }

    /// Bytes each rank received, from the traffic matrix (column sums).
    pub fn bytes_received(&self) -> Vec<u64> {
        let m = self.traffic_matrix();
        (0..self.nodes)
            .map(|dst| m.iter().map(|row| row[dst]).sum())
            .collect()
    }

    /// Bytes each rank sent (row sums of the traffic matrix).
    pub fn bytes_sent(&self) -> Vec<u64> {
        self.traffic_matrix()
            .iter()
            .map(|row| row.iter().sum())
            .collect()
    }

    /// Latency rollup of collective `op` ("barrier", "broadcast",
    /// "allgather", "alltoallv") across ranks, one entry per rank that
    /// recorded samples.
    pub fn collective(&self, op: &str) -> Vec<CollectiveStat> {
        self.ranks
            .iter()
            .filter_map(|r| {
                let h = r.metrics.histogram(&format!("comm/{op}_ns/r{}", r.rank))?;
                (h.count > 0).then_some(CollectiveStat {
                    rank: r.rank,
                    count: h.count,
                    total_ns: h.sum,
                    max_ns: h.max,
                })
            })
            .collect()
    }

    /// Serialize as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// The report as a [`Json`] value.
    pub fn to_json_value(&self) -> Json {
        obj(vec![
            ("nodes", Json::from(self.nodes)),
            (
                "ranks",
                Json::Arr(self.ranks.iter().map(RankReport::to_json_value).collect()),
            ),
        ])
    }

    /// Human-readable cluster rollup: per-rank summary table, per-peer
    /// traffic heatmap, and collective latency breakdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== cluster report ({} nodes) ===\n", self.nodes));
        out.push_str(&format!(
            "{:<6} {:>10} {:>10} {:>6} {:>12} {:>12} {:>12}\n",
            "rank", "wall", "busy", "util", "send", "recv-wait", "collectives"
        ));
        for r in &self.ranks {
            let util = if r.wall.as_nanos() > 0 {
                r.busy().as_nanos() as f64 / r.wall.as_nanos() as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<6} {:>10} {:>10} {:>5.0}% {:>12} {:>12} {:>12}\n",
                format!("r{}", r.rank),
                fmt_dur_ns(r.wall.as_nanos() as u64),
                fmt_dur_ns(r.busy().as_nanos() as u64),
                util * 100.0,
                fmt_dur_ns(r.send_ns()),
                fmt_dur_ns(r.recv_wait_ns()),
                fmt_dur_ns(r.collective_ns()),
            ));
        }
        out.push_str(&render_traffic_matrix(&self.traffic_matrix()));
        let mut any = false;
        for op in COLLECTIVE_OPS {
            let stats = self.collective(op);
            if stats.is_empty() {
                continue;
            }
            if !any {
                out.push_str("collectives:\n");
                out.push_str(&format!(
                    "  {:<10} {:<6} {:>7} {:>12} {:>12} {:>12}\n",
                    "op", "rank", "calls", "total", "mean", "max"
                ));
                any = true;
            }
            for s in stats {
                out.push_str(&format!(
                    "  {:<10} {:<6} {:>7} {:>12} {:>12} {:>12}\n",
                    op,
                    format!("r{}", s.rank),
                    s.count,
                    fmt_dur_ns(s.total_ns),
                    fmt_dur_ns(s.total_ns / s.count.max(1)),
                    fmt_dur_ns(s.max_ns),
                ));
            }
        }
        out
    }
}

/// Parse `prefix{src}->{dst}` metric names.
pub(crate) fn parse_peer_counter(name: &str, prefix: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix(prefix)?;
    let (src, dst) = rest.split_once("->")?;
    Some((src.parse().ok()?, dst.parse().ok()?))
}

/// Render a bytes matrix as a table with a shade per cell (` ░▒▓█` scaled
/// to the largest cell), rows = sender, columns = receiver.
pub(crate) fn render_traffic_matrix(matrix: &[Vec<u64>]) -> String {
    let nodes = matrix.len();
    if nodes == 0 || matrix.iter().all(|row| row.iter().all(|&b| b == 0)) {
        return String::new();
    }
    let max = matrix
        .iter()
        .flat_map(|row| row.iter().copied())
        .max()
        .unwrap_or(0)
        .max(1);
    let mut out = String::from("traffic matrix (bytes, row sends to column):\n");
    out.push_str("  sent\\recv");
    for dst in 0..nodes {
        out.push_str(&format!(" {:>10}", format!("r{dst}")));
    }
    out.push('\n');
    for (src, row) in matrix.iter().enumerate() {
        out.push_str(&format!("  {:<9}", format!("r{src}")));
        for &bytes in row {
            let shade = match (bytes * 4).div_ceil(max) {
                0 => ' ',
                1 => '░',
                2 => '▒',
                3 => '▓',
                _ => '█',
            };
            out.push_str(&format!(" {:>9}{shade}", fmt_bytes(bytes)));
        }
        out.push('\n');
        let sent: u64 = row.iter().sum();
        let _ = sent;
    }
    out.push_str("  recv total");
    for dst in 0..nodes {
        let total: u64 = matrix.iter().map(|row| row[dst]).sum();
        out.push_str(&format!(" {:>10}", fmt_bytes(total)));
    }
    out.push('\n');
    out
}

/// `123456` → `"120.6K"`, etc.
pub(crate) fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 4] = ["B", "K", "M", "G"];
    let mut v = b as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{b}B")
    } else {
        format!("{v:.1}{}", UNITS[unit])
    }
}

/// Nanoseconds as a compact human duration.
pub(crate) fn fmt_dur_ns(ns: u64) -> String {
    if ns == 0 {
        "0".into()
    } else if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn rank_report(rank: usize, wall_ms: u64) -> RankReport {
        let reg = MetricsRegistry::new();
        reg.counter(&format!("comm/bytes/{rank}->{}", (rank + 1) % 4))
            .add(1000 + rank as u64);
        reg.histogram(&format!("comm/barrier_ns/r{rank}"))
            .record(500);
        RankReport {
            rank,
            wall: Duration::from_millis(wall_ms),
            reports: Vec::new(),
            metrics: reg.snapshot(),
        }
    }

    #[test]
    fn push_replaces_and_sorts() {
        let mut cr = ClusterReport::new(4);
        cr.push(rank_report(2, 10));
        cr.push(rank_report(0, 10));
        cr.push(rank_report(2, 99));
        let ranks: Vec<usize> = cr.ranks.iter().map(|r| r.rank).collect();
        assert_eq!(ranks, vec![0, 2]);
        assert_eq!(cr.rank(2).unwrap().wall, Duration::from_millis(99));
    }

    #[test]
    fn traffic_matrix_reads_peer_counters() {
        let mut cr = ClusterReport::new(4);
        for rank in 0..4 {
            cr.push(rank_report(rank, 10));
        }
        let m = cr.traffic_matrix();
        assert_eq!(m[0][1], 1000);
        assert_eq!(m[3][0], 1003);
        assert_eq!(cr.bytes_received()[0], 1003);
        assert_eq!(cr.bytes_sent()[3], 1003);
    }

    #[test]
    fn collective_rollup_is_per_rank() {
        let mut cr = ClusterReport::new(2);
        cr.push(rank_report(0, 10));
        cr.push(rank_report(1, 10));
        let b = cr.collective("barrier");
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|s| s.count == 1));
        assert!(cr.collective("alltoallv").is_empty());
    }

    #[test]
    fn render_includes_matrix_and_collectives() {
        let mut cr = ClusterReport::new(2);
        cr.push(rank_report(0, 5));
        cr.push(rank_report(1, 5));
        let text = cr.render();
        assert!(text.contains("traffic matrix"));
        assert!(text.contains("barrier"));
        assert!(text.contains("r0"));
    }
}
