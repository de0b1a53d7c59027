//! Bottleneck analysis: turn a [`Report`] into a [`Diagnosis`] that names
//! the limiting stage and says what to do about it.
//!
//! FG's premise is that a pipeline runs as fast as its slowest stage while
//! everything else overlaps (§II); the tuning loop the paper implies —
//! find the limiting stage, then split it, farm it out, or grow a buffer
//! pool — is manual.  [`diagnose`] automates the diagnosis half:
//!
//! * each stage's wall time splits into **busy** / **starved** (blocked in
//!   accept) / **backpressured** (blocked in convey: an ordered farm's
//!   worker waiting its emission turn — the push itself never waits)
//!   fractions, with the dominant one as its [`StageVerdict`] — refined by
//!   topology: a starved stage *upstream* of the limiting stage is reported
//!   as backpressured, because its missing buffers are the ones the
//!   bottleneck has yet to push around the recycle loop;
//! * the stage with the most busy time is the **limiting stage**: its busy
//!   time lower-bounds the program's wall time no matter how the other
//!   stages are tuned;
//! * **overlap efficiency** compares that bound against the achieved wall
//!   time ([`Report::overlap_efficiency`]) — near 1.0 means the pipeline
//!   already hides every other stage behind the bottleneck;
//! * the [`Verdict`]s beyond the limiting stage — each one seeded on a real
//!   program in `crates/sort/tests/diagnose_table.rs`, and each there
//!   because it fires on its row and on no other.
//!
//! [`diagnose`] is the one diagnoser of a pipeline run; [`diagnose_cluster`]
//! is it run over every rank's reports, plus one cross-rank skew rule.

use std::time::Duration;

use crate::cluster_report::ClusterReport;
use crate::json::{obj, Json};
use crate::stats::{Report, StageRollup};

/// A stage's dominant state over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageVerdict {
    /// Mostly doing its own work — a bottleneck candidate.
    Busy,
    /// Mostly blocked waiting to accept: its upstream cannot keep up.
    Starved,
    /// Mostly held up by other work on its pipeline rather than by a lack
    /// of input.  Either an ordered farm's workers waiting, inside
    /// `convey`, for a slower earlier round to be emitted (the only wait
    /// `convey` has: queues admit whole pools, so the push itself never
    /// blocks), or — upstream of the limiting stage — a stage waiting to
    /// accept a buffer the bottleneck has yet to release back into the
    /// recycle loop.
    Backpressured,
}

impl StageVerdict {
    /// Lowercase label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            StageVerdict::Busy => "busy",
            StageVerdict::Starved => "starved",
            StageVerdict::Backpressured => "backpressured",
        }
    }
}

/// Wall-time attribution for one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDiagnosis {
    /// Stage name from the [`Report`].  Replicated stages appear once
    /// under their base name, with the per-replica rows (`name#0`,
    /// `name#1`, …) rolled up.
    pub name: String,
    /// The stage's wall time (the slowest replica's, for a farm).
    pub wall: Duration,
    /// Fraction of wall spent doing its own work.  For a farm, fractions
    /// are taken against the summed replica wall, so two busy workers next
    /// to two idle ones read as 50% busy / 50% starved rather than four
    /// rows at the extremes.
    pub busy_frac: f64,
    /// Fraction of wall blocked in accept.
    pub starved_frac: f64,
    /// Fraction of wall blocked in convey.
    pub backpressured_frac: f64,
    /// The dominant of the three fractions.
    pub verdict: StageVerdict,
    /// Replica count: 1 for ordinary stages, `n` for a stage declared with
    /// `workers(n)` / `add_replicated_stage`.
    pub workers: usize,
}

/// What a [`Recommendation`] reports.  Every verdict but
/// [`Verdict::Limiting`] names a cause a real program was seeded with in
/// `crates/sort/tests/diagnose_table.rs`, which fails when the verdict
/// misses its row or fires on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    /// The stage whose busy time bounds the run: every run that does work
    /// has one.
    Limiting,
    /// An ordered farm's workers spend most of their wall in `convey`,
    /// waiting their emission turn behind a slower earlier round.
    EmissionTurn,
    /// One stage carries most of the traced rounds' critical path.
    CriticalPath,
    /// Peak memory came within [`MEMORY_BOUND_FRAC`] of the ledger budget.
    MemoryBound,
    /// One rank received more than [`SKEW_RATIO`] times the mean bytes of
    /// a cluster's exchange.
    HotRank,
}

impl Verdict {
    /// The verdict's label, as the table test and the rendered text name it.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Limiting => "limiting",
            Verdict::EmissionTurn => "emission-turn",
            Verdict::CriticalPath => "critical-path",
            Verdict::MemoryBound => "memory-bound",
            Verdict::HotRank => "hot-rank",
        }
    }
}

/// One line of advice and the verdict behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The verdict this line reports.
    pub verdict: Verdict,
    /// The advice, with the numbers that raised it.
    pub text: String,
}

impl Recommendation {
    fn new(verdict: Verdict, text: String) -> Recommendation {
        Recommendation { verdict, text }
    }

    fn to_json_value(&self) -> Json {
        obj(vec![
            ("verdict", Json::from(self.verdict.label())),
            ("text", Json::from(self.text.as_str())),
        ])
    }
}

/// What [`diagnose`] concluded about a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Per-stage attribution, in the report's stage order.
    pub stages: Vec<StageDiagnosis>,
    /// Name of the limiting stage (most busy time among real pipeline
    /// stages), when any stage did work.
    pub limiting: Option<String>,
    /// [`Report::overlap_factor`]: total busy across stages over wall.
    pub overlap_factor: f64,
    /// [`Report::overlap_efficiency`]: the limiting stage's busy time over
    /// wall — 1.0 means the run was exactly as fast as its bottleneck.
    pub overlap_efficiency: f64,
    /// Per-round critical-path reconstruction, when the report's span log
    /// ([`Report::trace`]) holds traced rounds.
    pub critical_path: Option<crate::critical_path::CriticalPath>,
    /// Tuning recommendations, the limiting stage's first.
    pub recommendations: Vec<Recommendation>,
}

/// A stage blocked in `convey` for more than this fraction of its wall, or
/// carrying more than this fraction of the critical path, gets a verdict.
pub(crate) const DOMINANT_FRAC: f64 = 0.5;

/// Peak memory above this fraction of a configured ledger budget means
/// the run is operating at the edge of its memory allowance: the next
/// buffer-count or record-size bump tips it over.
pub(crate) const MEMORY_BOUND_FRAC: f64 = 0.85;

/// A rank must receive this many times the mean bytes to be called the hot
/// rank of a skewed exchange.
pub(crate) const SKEW_RATIO: f64 = 1.5;

/// Name prefix of a buffer pool's queue (`recycle/<pipeline>`, or
/// `recycle/<stage>` for the pool shared by the pipelines that start at a
/// virtual stage): the first stage's input, which the last stage conveys
/// into.  Running dry means every buffer is in flight.
pub const POOL_QUEUE_PREFIX: &str = "recycle/";

/// Metric-name prefix of the live per-stage busy counter (nanoseconds).
pub const STAGE_BUSY_PREFIX: &str = "core/stage_busy_ns/";
/// Metric-name prefix of the live per-stage blocked-accept counter.
pub const STAGE_STARVED_PREFIX: &str = "core/stage_blocked_accept_ns/";
/// Metric-name prefix of the live per-stage blocked-convey counter.
pub const STAGE_BACKPRESSURED_PREFIX: &str = "core/stage_blocked_convey_ns/";
/// Metric-name prefix of the live per-stage buffers-processed counter.
pub const STAGE_ROUNDS_PREFIX: &str = "core/stage_rounds/";
/// Metric-name prefix of the per-queue depth gauges.
pub const QUEUE_DEPTH_PREFIX: &str = "core/queue_depth/";
/// Metric-name prefix of the per-queue capacity gauges (set once at wire
/// time).
pub const QUEUE_CAPACITY_PREFIX: &str = "core/queue_capacity/";

/// Derive per-stage fractions and verdicts from attribution rows.
fn stage_diagnoses(rows: &[StageRollup]) -> Vec<StageDiagnosis> {
    rows.iter()
        .map(|r| {
            // A farm's fractions are of its summed replica wall.
            let denom = r.thread_wall.as_secs_f64();
            let frac = |d: Duration| {
                if denom == 0.0 {
                    0.0
                } else {
                    (d.as_secs_f64() / denom).clamp(0.0, 1.0)
                }
            };
            let starved_frac = frac(r.blocked_accept);
            let backpressured_frac = frac(r.blocked_convey);
            let busy_frac = frac(r.busy);
            let verdict = if busy_frac >= starved_frac && busy_frac >= backpressured_frac {
                StageVerdict::Busy
            } else if starved_frac >= backpressured_frac {
                StageVerdict::Starved
            } else {
                StageVerdict::Backpressured
            };
            StageDiagnosis {
                name: r.name.clone(),
                wall: r.wall,
                busy_frac,
                starved_frac,
                backpressured_frac,
                verdict,
                workers: r.workers,
            }
        })
        .collect()
}

/// The index of the limiting stage's row.  A farm's workers overlap with
/// each other, so its bound on wall time is the summed busy divided by the
/// worker count, not the sum itself.
fn limiting_stage(rows: &[StageRollup]) -> Option<usize> {
    rows.iter()
        .enumerate()
        .max_by_key(|(_, r)| r.busy / r.workers.max(1) as u32)
        .filter(|(_, r)| r.busy > Duration::ZERO)
        .map(|(i, _)| i)
}

/// Attribute each stage's wall time, name the limiting stage, and raise
/// the [`Verdict`]s the report supports.
pub fn diagnose(report: &Report) -> Diagnosis {
    let rows = report.stage_rollups();
    let mut stages: Vec<StageDiagnosis> = stage_diagnoses(&rows);
    let lim = limiting_stage(&rows);
    let limiting = lim.map(|i| rows[i].name.clone());

    // A starved stage upstream of the limiting stage in the same chain is
    // effectively backpressured: FG provisions every queue above the buffer
    // pool size, so congestion at the bottleneck never fills a queue — it
    // drains the recycle loop instead, and the shortage surfaces upstream
    // as blocked accepts.  Reattribute those so the verdict names the
    // cause, not the symptom.
    if let Some(lim) = &limiting {
        for chain in &report.pipelines {
            let Some(pos) = chain.stages.iter().position(|s| s == lim) else {
                continue;
            };
            for name in &chain.stages[..pos] {
                if let Some(d) = stages.iter_mut().find(|d| &d.name == name) {
                    if d.verdict == StageVerdict::Starved {
                        d.verdict = StageVerdict::Backpressured;
                    }
                }
            }
        }
    }

    let mut recommendations = Vec::new();
    if let Some(d) = lim.map(|i| &stages[i]) {
        let name = &d.name;
        // Where the limiting stage physically ran, when the run was pinned
        // — lets the reader connect "this stage bounds the run" with the
        // core layout they asked for.
        let placement = report
            .stage(name)
            .and_then(|s| s.core)
            .map(|c| format!(" (pinned to core {c})"))
            .unwrap_or_default();
        let text = if d.workers > 1 {
            format!(
                "stage `{name}`{placement} is the limiting stage (busy {:.0}% across its {} workers): \
                 raise its worker count (`workers({})`), split it into substages, or \
                 reduce its per-buffer work",
                d.busy_frac * 100.0,
                d.workers,
                d.workers * 2
            )
        } else {
            format!(
                "stage `{name}`{placement} is the limiting stage (busy {:.0}% of its wall time): \
                 its busy time bounds the whole pipeline — farm it across replicas \
                 (`workers(n)`), split it into substages, or reduce its per-buffer work",
                d.busy_frac * 100.0
            )
        };
        recommendations.push(Recommendation::new(Verdict::Limiting, text));
    }
    // The limiting stage's own waits are the limiting line's business, and
    // a lone stage has no emission turn to wait for: its convey is a push.
    let others = stages.iter().filter(|d| Some(&d.name) != limiting.as_ref());
    for d in others.filter(|d| d.workers > 1 && d.backpressured_frac > DOMINANT_FRAC) {
        recommendations.push(Recommendation::new(
            Verdict::EmissionTurn,
            format!(
                "stage `{}` is backpressured {:.0}% of its wall time — blocked in \
                 convey, where the only wait is an ordered farm's emission turn (the \
                 push itself never waits): its workers are waiting behind a slower \
                 earlier round; even out the per-round work or run fewer workers",
                d.name,
                d.backpressured_frac * 100.0
            ),
        ));
    }
    recommendations.extend(memory_bound(report));

    // The run's span log, when it carries one, rebuilds each traced
    // buffer's round timeline: when one stage owns most of that path, the
    // verdict cites it and the slowest round — per-round evidence instead
    // of run-wide averages.
    let cp = crate::critical_path::critical_path(&report.trace);
    let slowest = cp.slowest_round().and_then(|r| Some((r, r.dominant()?)));
    if let (Some(stage), Some((slow, (in_stage, ns)))) = (cp.dominant_stage(), slowest) {
        let pct = cp.stage_totals[0].1 as f64 / cp.total_ns.max(1) as f64 * 100.0;
        if pct > DOMINANT_FRAC * 100.0 {
            recommendations.push(Recommendation::new(
                Verdict::CriticalPath,
                format!(
                    "stage `{stage}` carries {pct:.0}% of the end-to-end critical path \
                     across {} traced rounds; the slowest buffer journey is pipeline#{} \
                     round {} at {:.3} ms, {:.3} ms of it in stage `{in_stage}` ({:.3} ms \
                     queued) — profile that round first",
                    cp.rounds.len(),
                    slow.pipeline,
                    slow.round,
                    slow.dur_ns() as f64 / 1e6,
                    ns as f64 / 1e6,
                    slow.queued_ns() as f64 / 1e6
                ),
            ));
        }
    }

    Diagnosis {
        stages,
        limiting,
        overlap_factor: report.overlap_factor(),
        overlap_efficiency: report.overlap_efficiency(),
        critical_path: (!cp.rounds.is_empty()).then_some(cp),
        recommendations,
    }
}

/// The memory-bound verdict, from the run's resource report (or the
/// `resource/*` gauges of its metrics): peak memory against the ledger's
/// budget.  Nothing when the run carried no budgeted ledger — the profiler
/// is opt-in and degrades to silence.
fn memory_bound(report: &Report) -> Option<Recommendation> {
    let res = (report.resources.clone())
        .or_else(|| crate::profile::ResourceReport::from_metrics(&report.metrics))?;
    let ledger = res.ledger.filter(|l| l.budget_bytes > 0)?;
    // Whichever peak is larger: process RSS (everything) or the ledger's
    // own accounting (pool buffers only).  RSS can be zero when /proc was
    // unreadable.
    let used = res.rss_peak_bytes.max(ledger.peak_bytes);
    let frac = used as f64 / ledger.budget_bytes as f64;
    (frac >= MEMORY_BOUND_FRAC).then(|| {
        Recommendation::new(
            Verdict::MemoryBound,
            format!(
                "peak memory {:.1} MiB is {:.0}% of the {:.1} MiB budget — the run is \
                 memory-bound: raise the budget (`--mem-budget`) or reduce the buffer \
                 count / buffer size so the working set fits",
                used as f64 / (1 << 20) as f64,
                frac * 100.0,
                ledger.budget_bytes as f64 / (1 << 20) as f64
            ),
        )
    })
}

/// The recommendation list as rendered text, one `[label]` line each.
fn render_recommendations(out: &mut String, recommendations: &[Recommendation]) {
    if !recommendations.is_empty() {
        out.push_str("recommendations:\n");
        for r in recommendations {
            out.push_str(&format!("  - [{}] {}\n", r.verdict.label(), r.text));
        }
    }
}

impl Diagnosis {
    /// Render the diagnosis as text: a stage-attribution table, the
    /// limiting stage and overlap numbers, and the recommendation list.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== diagnosis ==\n");
        let display = |s: &StageDiagnosis| {
            if s.workers > 1 {
                format!("{} x{}", s.name, s.workers)
            } else {
                s.name.clone()
            }
        };
        let name_w = self
            .stages
            .iter()
            .map(|s| display(s).len())
            .max()
            .unwrap_or(5)
            .max(5);
        out.push_str(&format!(
            "{:<name_w$} {:>7} {:>8} {:>8} {:>6}  verdict\n",
            "stage", "busy%", "starve%", "backp%", "wall s"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<name_w$} {:>6.0}% {:>7.0}% {:>7.0}% {:>6.3}  {}\n",
                display(s),
                s.busy_frac * 100.0,
                s.starved_frac * 100.0,
                s.backpressured_frac * 100.0,
                s.wall.as_secs_f64(),
                s.verdict.label()
            ));
        }
        match &self.limiting {
            Some(name) => out.push_str(&format!(
                "limiting stage: `{name}`, overlap factor {:.2}, overlap efficiency {:.0}%\n",
                self.overlap_factor,
                self.overlap_efficiency * 100.0
            )),
            None => out.push_str("no stage did measurable work\n"),
        }
        render_recommendations(&mut out, &self.recommendations);
        if let Some(cp) = &self.critical_path {
            out.push_str(&cp.render());
        }
        out
    }
}

/// What [`diagnose_cluster`] concluded about a cluster run: each rank's
/// own [`diagnose`] of every program it ran, and the one cross-rank rule —
/// which rank, if any, an exchange is skewed towards.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterDiagnosis {
    /// Each rank's per-pass diagnoses, in rank order, then run order.
    pub ranks: Vec<Vec<Diagnosis>>,
    /// The hot rank of a skewed exchange, when one rank receives more than
    /// [`SKEW_RATIO`] times the mean bytes.
    pub hot_rank: Option<usize>,
    /// The skew finding first, then every rank's per-pass recommendations,
    /// each prefixed `rank <r>, pass <p>: `.
    pub recommendations: Vec<Recommendation>,
}

/// Diagnose a cluster run from its merged [`ClusterReport`]: every rank's
/// reports through [`diagnose`], and exchange skew from the traffic matrix.
pub fn diagnose_cluster(report: &ClusterReport) -> ClusterDiagnosis {
    let ranks: Vec<Vec<Diagnosis>> = (report.ranks.iter())
        .map(|r| r.reports.iter().map(diagnose).collect())
        .collect();
    let recv = report.bytes_received();
    let recv: Vec<u64> = (report.ranks.iter())
        .map(|r| recv.get(r.rank).copied().unwrap_or(0))
        .collect();
    let mut recommendations = Vec::new();
    // Exchange skew: one rank receiving an outsized share of the bytes.
    let hot = argmax_over_mean(recv.iter().map(|&b| b as f64), SKEW_RATIO);
    let hot_rank = hot.map(|i| report.ranks[i].rank);
    if let (Some(i), Some(rank)) = (hot, hot_rank) {
        let mean = recv.iter().sum::<u64>() as f64 / recv.len() as f64;
        recommendations.push(Recommendation::new(
            Verdict::HotRank,
            format!(
                "the exchange is skewed: rank {rank} receives {} — {:.1}x the mean — so its \
                 receive pipeline (and the senders blocked on it) governs the exchange; \
                 rebalance the partition (e.g. sample splitters from more data) or give \
                 rank {rank}'s receive pipeline more buffers",
                crate::cluster_report::fmt_bytes(recv[i]),
                recv[i] as f64 / mean.max(f64::MIN_POSITIVE),
            ),
        ));
    }
    for (r, passes) in report.ranks.iter().zip(&ranks) {
        for (pass, d) in passes.iter().enumerate() {
            recommendations.extend(d.recommendations.iter().map(|rec| {
                let text = format!("rank {}, pass {}: {}", r.rank, pass + 1, rec.text);
                Recommendation::new(rec.verdict, text)
            }));
        }
    }
    ClusterDiagnosis {
        ranks,
        hot_rank,
        recommendations,
    }
}

/// Index of the maximum of `vals` when it exceeds `ratio` times the mean;
/// `None` for empty/degenerate inputs or a balanced distribution.
fn argmax_over_mean(vals: impl Iterator<Item = f64>, ratio: f64) -> Option<usize> {
    let vals: Vec<f64> = vals.collect();
    if vals.len() < 2 {
        return None;
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    if mean <= 0.0 {
        return None;
    }
    let (i, &max) = vals.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
    (max > ratio * mean).then_some(i)
}

impl ClusterDiagnosis {
    /// Render the cluster diagnosis as text: the recommendation list.
    /// (`ClusterReport::render` prints the per-rank wall, busy and traffic
    /// table.)
    pub fn render(&self) -> String {
        let mut out = String::from("== cluster diagnosis ==\n");
        render_recommendations(&mut out, &self.recommendations);
        out
    }

    /// The diagnosis as a [`Json`] value: each rank's limiting stage a
    /// pass, the hot rank, and the recommendations with their verdicts.
    pub fn to_json_value(&self) -> Json {
        let limiting = |d: &Diagnosis| d.limiting.as_deref().map_or(Json::Null, Json::from);
        let pass = |d: &Diagnosis| obj(vec![("limiting", limiting(d))]);
        let rank = |passes: &Vec<Diagnosis>| Json::Arr(passes.iter().map(pass).collect());
        let recs = (self.recommendations.iter()).map(Recommendation::to_json_value);
        obj(vec![
            ("ranks", Json::Arr(self.ranks.iter().map(rank).collect())),
            ("hot_rank", self.hot_rank.map_or(Json::Null, Json::from)),
            ("recommendations", Json::Arr(recs.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_report::RankReport;
    use crate::stats::StageStats;

    fn stage(name: &str, wall_ms: u64, acc_ms: u64, conv_ms: u64) -> StageStats {
        StageStats {
            name: name.into(),
            wall: Duration::from_millis(wall_ms),
            blocked_accept: Duration::from_millis(acc_ms),
            blocked_convey: Duration::from_millis(conv_ms),
            buffers_in: 1,
            buffers_out: 1,
            ..StageStats::default()
        }
    }

    fn report() -> Report {
        Report {
            wall: Duration::from_millis(100),
            stages: vec![
                stage("fast-up#0", 100, 5, 80), // a farm waiting to emit
                stage("fast-up#1", 100, 5, 80),
                stage("slow", 100, 5, 5),       // the bottleneck
                stage("fast-down", 100, 80, 5), // starved behind it
            ],
            threads_spawned: 4,
            ..Report::default()
        }
    }

    #[test]
    fn names_busy_stage_as_limiting_and_attributes_neighbors() {
        let d = diagnose(&report());
        assert_eq!(d.limiting.as_deref(), Some("slow"));
        let by_name = |n: &str| d.stages.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("slow").verdict, StageVerdict::Busy);
        assert_eq!(by_name("fast-up").verdict, StageVerdict::Backpressured);
        assert_eq!(by_name("fast-down").verdict, StageVerdict::Starved);
        assert!(d.recommendations.iter().any(|r| r.text.contains("`slow`")));
        // Unfarmed busy-bound bottleneck: the fix on offer is `workers(n)`.
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.text.contains("`slow`") && r.text.contains("workers(n)")));
        assert!(d
            .recommendations
            .iter()
            .any(|r| r.text.contains("`fast-up`") && r.text.contains("backpressured")));
        // The bottleneck ran 90% busy against a 100ms wall: efficiency ~0.9.
        assert!((d.overlap_efficiency - 0.9).abs() < 1e-9);
        let text = d.render();
        assert!(text.contains("limiting stage: `slow`"));
    }

    #[test]
    fn no_resource_data_means_no_resource_findings() {
        let d = diagnose(&report());
        assert!(d
            .recommendations
            .iter()
            .all(|r| r.verdict != Verdict::MemoryBound));
        assert!(!d.render().contains("[memory-bound]"));
    }

    #[test]
    fn upstream_starvation_is_reattributed_as_backpressure() {
        use crate::stats::PipelineShape;
        // `up` measures as starved (the recycle loop ran dry behind the
        // bottleneck), but topology says it sits upstream of `slow`, so the
        // verdict names the cause.  `other`, in a different pipeline, keeps
        // its measured verdict.
        let r = Report {
            wall: Duration::from_millis(100),
            stages: vec![
                stage("up", 100, 90, 0),
                stage("slow", 100, 5, 5),
                stage("down", 100, 85, 0),
                stage("other", 100, 90, 0),
            ],
            pipelines: vec![
                PipelineShape {
                    name: "p".into(),
                    stages: vec!["up".into(), "slow".into(), "down".into()],
                },
                PipelineShape {
                    name: "q".into(),
                    stages: vec!["other".into()],
                },
            ],
            threads_spawned: 4,
            ..Report::default()
        };
        let d = diagnose(&r);
        assert_eq!(d.limiting.as_deref(), Some("slow"));
        let by_name = |n: &str| d.stages.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("up").verdict, StageVerdict::Backpressured);
        assert_eq!(by_name("down").verdict, StageVerdict::Starved);
        assert_eq!(by_name("other").verdict, StageVerdict::Starved);
    }

    #[test]
    fn farm_replicas_roll_up_into_one_row() {
        use crate::stats::PipelineShape;
        // A 4-worker farm: two workers carried most of the rounds, two sat
        // mostly idle.  The diagnosis must show one `sort` row (no `#`
        // names anywhere), attribute fractions against the summed replica
        // wall so the idle pair doesn't read as phantom starvation, and —
        // since the farm is still busy-bound and limiting — recommend
        // raising the worker count rather than `workers(n)` from scratch.
        let r = Report {
            wall: Duration::from_millis(100),
            stages: vec![
                stage("read", 100, 80, 10),
                stage("sort#0", 100, 5, 5),
                stage("sort#1", 100, 5, 5),
                stage("sort#2", 100, 60, 0),
                stage("sort#3", 100, 60, 0),
                stage("write", 100, 90, 0),
            ],
            pipelines: vec![PipelineShape {
                name: "p".into(),
                stages: vec!["read".into(), "sort".into(), "write".into()],
            }],
            threads_spawned: 6,
            ..Report::default()
        };
        let d = diagnose(&r);
        assert!(d.stages.iter().all(|s| !s.name.contains('#')));
        let sort = d.stages.iter().find(|s| s.name == "sort").unwrap();
        assert_eq!(sort.workers, 4);
        assert_eq!(sort.wall, Duration::from_millis(100));
        // busy = (90 + 90 + 40 + 40) / 400, starved = (5 + 5 + 60 + 60) / 400.
        assert!((sort.busy_frac - 0.65).abs() < 1e-9);
        assert!((sort.starved_frac - 0.325).abs() < 1e-9);
        assert_eq!(sort.verdict, StageVerdict::Busy);
        // Effective busy 65ms beats read/write at 10ms each.
        assert_eq!(d.limiting.as_deref(), Some("sort"));
        assert!(d.recommendations.iter().any(|r| r.text.contains("`sort`")
            && r.text.contains("4 workers")
            && r.text.contains("workers(8)")));
        // No recommendation names an individual replica.
        assert!(d.recommendations.iter().all(|r| !r.text.contains('#')));
        assert!(d.render().contains("sort x4"));
    }

    #[test]
    fn farm_limits_by_effective_busy_not_summed_busy() {
        use crate::stats::PipelineShape;
        // The farm's four workers sum to 200ms busy, but they overlap: the
        // bound they place on wall time is 50ms.  The 80ms-busy plain stage
        // is the real bottleneck.
        let r = Report {
            wall: Duration::from_millis(100),
            stages: vec![
                stage("work#0", 100, 50, 0),
                stage("work#1", 100, 50, 0),
                stage("work#2", 100, 50, 0),
                stage("work#3", 100, 50, 0),
                stage("heavy", 100, 10, 10),
            ],
            pipelines: vec![PipelineShape {
                name: "p".into(),
                stages: vec!["work".into(), "heavy".into()],
            }],
            threads_spawned: 5,
            ..Report::default()
        };
        let d = diagnose(&r);
        assert_eq!(d.limiting.as_deref(), Some("heavy"));
    }

    #[test]
    fn empty_report_is_inert() {
        let d = diagnose(&Report::default());
        assert!(d.stages.is_empty());
        assert_eq!(d.limiting, None);
        assert!(d.render().contains("no stage did measurable work"));
    }

    /// A rank report whose rank sends `send_to_next` bytes to its neighbour.
    fn cluster_rank(rank: usize, nodes: usize, send_to_next: u64) -> RankReport {
        let reg = crate::metrics::MetricsRegistry::new();
        reg.counter(&format!("comm/bytes/{rank}->{}", (rank + 1) % nodes))
            .add(send_to_next);
        RankReport {
            rank,
            wall: Duration::from_millis(100),
            reports: vec![report()],
            metrics: reg.snapshot(),
        }
    }

    #[test]
    fn cluster_diagnosis_names_the_hot_rank_of_a_skewed_exchange() {
        let mut cr = ClusterReport::new(4);
        for rank in 0..4 {
            // Everyone sends to its neighbor; rank 3 sends a flood to rank 0.
            let bytes = if rank == 3 { 100_000 } else { 1000 };
            cr.push(cluster_rank(rank, 4, bytes));
        }
        let d = diagnose_cluster(&cr);
        assert_eq!(d.hot_rank, Some(0));
        assert_eq!(d.recommendations[0].verdict, Verdict::HotRank);
        // Each rank's one report is diagnosed as `diagnose` would.
        assert_eq!(d.ranks, vec![vec![diagnose(&report())]; 4]);
        let r3 = &d.recommendations.last().unwrap().text;
        assert!(r3.starts_with("rank 3, pass 1: stage `fast-up`"), "{r3}");
        let json = d.to_json_value();
        assert_eq!(json.get("hot_rank").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn balanced_cluster_diagnosis_is_quiet() {
        let mut cr = ClusterReport::new(3);
        for rank in 0..3 {
            cr.push(RankReport {
                reports: Vec::new(),
                ..cluster_rank(rank, 3, 1000)
            });
        }
        let d = diagnose_cluster(&cr);
        assert_eq!(d.hot_rank, None);
        assert!(d.recommendations.is_empty());
    }
}
