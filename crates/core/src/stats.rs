//! Per-stage timing statistics.
//!
//! FG's value proposition is *overlap*: while one stage blocks on a
//! high-latency operation, other stages' threads make progress.  To make that
//! overlap observable (and to power the paper's per-pass breakdowns without
//! an external profiler), the runtime records, for every stage:
//!
//! * time spent blocked waiting to **accept** a buffer (starved),
//! * time spent inside **convey** (a farm's emission-turn wait,
//!   plus the push — which never waits),
//! * the remaining wall time, which is the stage's own **busy** time, and
//! * how many buffers it processed.

use std::time::Duration;

use crate::metrics::MetricsSnapshot;
use crate::program::replica_base;
use crate::trace::{ThreadLog, TraceKind};

/// Timing record for one stage thread of a finished program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Stage name as given at construction.
    pub name: String,
    /// Wall-clock time from thread start to thread exit.
    pub wall: Duration,
    /// Time blocked inside `accept`/`accept_from`/`accept_any`: only a
    /// pop that found its queue empty waits.
    pub blocked_accept: Duration,
    /// Time inside `convey`: a farm worker's wait for its emission turn.
    /// The push itself never waits (the queues admit whole pools) and is
    /// busy time.
    pub blocked_convey: Duration,
    /// Buffers this stage accepted.
    pub buffers_in: u64,
    /// Buffers this stage conveyed.
    pub buffers_out: u64,
}

impl StageStats {
    /// Time the stage spent doing its own work (wall minus blocking).
    pub fn busy(&self) -> Duration {
        self.wall
            .saturating_sub(self.blocked_accept)
            .saturating_sub(self.blocked_convey)
    }

    /// Fraction of wall time spent busy, in `[0, 1]`; zero for a zero-wall
    /// stage.
    pub fn utilization(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.busy().as_secs_f64() / wall
        }
    }
}

/// One stage of a finished program, a farm's replica rows folded into one
/// ([`Report::stage_rollups`]).  Times and counts are summed over the
/// folded threads, except `wall`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageRollup {
    /// The stage's name; a farm's base name.
    pub name: String,
    /// Threads folded: a farm's width, 1 for an ordinary stage.
    pub workers: usize,
    /// The slowest thread's wall time (a farm's replicas run concurrently).
    pub wall: Duration,
    /// Wall time summed over the threads.
    pub thread_wall: Duration,
    /// Busy time ([`StageStats::busy`]).
    pub busy: Duration,
    /// Time blocked in accept.
    pub blocked_accept: Duration,
    /// Time blocked in convey.
    pub blocked_convey: Duration,
    /// Buffers accepted.
    pub buffers_in: u64,
    /// Buffers conveyed.
    pub buffers_out: u64,
}

/// Lifetime depth statistics of one queue of a finished program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueDepth {
    /// Queue name as assigned during wiring (e.g. `p[1]`, `recycle/p`).
    pub name: String,
    /// Maximum number of items the queue could hold.
    pub capacity: usize,
    /// High-water mark of the queue's depth: the most items that ever
    /// waited in it at once.  (`capacity` admits the pipeline's whole pool
    /// and its caboose, so reaching it stalls no one.)
    pub max_depth: usize,
    /// Queue implementation label: `"spsc"` for a link between two
    /// single-thread stages, `"mutex"` for every other queue the planner
    /// builds (the `"lockfree"` ring is built only by `qbench`'s rows).
    pub flavor: String,
}

/// The stage chain of one pipeline, recorded so post-run analysis can tell
/// which stages are upstream or downstream of one another.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineShape {
    /// Pipeline name as declared.
    pub name: String,
    /// Stage names in chain order.
    pub stages: Vec<String>,
}

/// Report produced by a finished [`Program`](crate::Program) run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Wall-clock duration of the whole program (all pipelines).
    pub wall: Duration,
    /// One entry per stage thread (a farm has one per replica), in
    /// declaration order.
    pub stages: Vec<StageStats>,
    /// Number of OS threads the program created: one per stage replica.
    /// Virtual stages reduce this count; experiment A2 measures exactly
    /// this field.
    pub threads_spawned: usize,
    /// Depth statistics of every queue the program wired, in creation
    /// order.
    pub queues: Vec<QueueDepth>,
    /// Each pipeline's stage chain, in declaration order — the topology
    /// [`diagnose`](crate::analyze::diagnose) uses to attribute blockage
    /// upstream or downstream of the limiting stage.
    pub pipelines: Vec<PipelineShape>,
    /// Snapshot of the program's
    /// [`MetricsRegistry`](crate::metrics::MetricsRegistry), when one was
    /// attached with [`Program::set_metrics`](crate::Program::set_metrics);
    /// other layers (communicators, simulated disks) may merge their own
    /// snapshots in before rendering or export.
    pub metrics: MetricsSnapshot,
    /// The run's resources (each stage thread's exit CPU row, then RSS,
    /// allocator counters and the buffer ledger as they stood at the end),
    /// when the program had a metrics registry or a memory ledger attached
    /// — see [`ResourceReport`](crate::profile::ResourceReport).
    pub resources: Option<crate::profile::ResourceReport>,
    /// The run's span log — the flight-recorder ring of every thread the
    /// program spawned, in [`stages`](Report::stages) order — when the
    /// program ran with
    /// [`Program::enable_tracing`](crate::Program::enable_tracing); empty
    /// otherwise.  Each thread keeps its newest spans
    /// ([`ThreadLog::dropped`] says how many older ones the ring
    /// overwrote).
    pub trace: Vec<ThreadLog>,
    /// When the program started, in the ns-since-sink-epoch clock the
    /// spans of [`trace`](Report::trace) use.
    pub trace_start_ns: u64,
}

impl Report {
    /// Look up the stats of a stage by name (first match).
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Every stage's row with a farm's replica rows (`<name>#<i>`) folded
    /// into one, where its first replica's row stood — the one fold of a
    /// farm, which [`diagnose`](crate::analyze::diagnose) reads too.
    pub fn stage_rollups(&self) -> Vec<StageRollup> {
        let mut rows: Vec<StageRollup> = Vec::new();
        for s in &self.stages {
            let farm = replica_base(&s.name);
            let i = match rows.iter().position(|r| farm == Some(r.name.as_str())) {
                Some(i) => i,
                None => {
                    rows.push(StageRollup {
                        name: farm.unwrap_or(&s.name).to_string(),
                        ..StageRollup::default()
                    });
                    rows.len() - 1
                }
            };
            let r = &mut rows[i];
            r.workers += 1;
            r.wall = r.wall.max(s.wall);
            r.thread_wall += s.wall;
            r.busy += s.busy();
            r.blocked_accept += s.blocked_accept;
            r.blocked_convey += s.blocked_convey;
            r.buffers_in += s.buffers_in;
            r.buffers_out += s.buffers_out;
        }
        rows
    }

    /// Sum of busy time across all stages — a proxy for total work performed.
    pub fn total_busy(&self) -> Duration {
        self.stages.iter().map(|s| s.busy()).sum()
    }

    /// Overlap factor: total busy time divided by wall time.  A value close
    /// to the number of concurrently-busy stages indicates good overlap; a
    /// value near 1.0 means execution was effectively serial.
    pub fn overlap_factor(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.total_busy().as_secs_f64() / wall
        }
    }

    /// The largest busy time of any single stage — a lower bound on the
    /// program's wall time no matter how the other stages are tuned.
    pub fn max_busy(&self) -> Duration {
        self.stages
            .iter()
            .map(|s| s.busy())
            .max()
            .unwrap_or_default()
    }

    /// Overlap *efficiency*: [`Report::max_busy`] over wall time, in
    /// `(0, 1]`.  Where [`Report::overlap_factor`] says how much work ran
    /// concurrently, efficiency says how close the run came to its
    /// bottleneck bound — 1.0 means wall time equals the limiting stage's
    /// busy time, i.e. every other stage hid completely behind it;
    /// [`analyze::diagnose`](crate::analyze::diagnose) prints it on its
    /// limiting-stage line.
    pub fn overlap_efficiency(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            (self.max_busy().as_secs_f64() / wall).clamp(0.0, 1.0)
        }
    }

    /// Render a text Gantt chart: one row per thread, `width` time buckets
    /// across the program's wall time, with `#` for busy, `.` for starved
    /// (waiting to accept) and `o` for backpressured (waiting to convey,
    /// or for a farm's emission turn), bucketed from the run's
    /// span log ([`Report::trace`]).  A thread whose ring overwrote its
    /// oldest spans draws the columns before the oldest one it kept as
    /// `?`, and the header counts the spans dropped.  A thread with no
    /// waits on record (the program ran without
    /// [`Program::enable_tracing`](crate::Program::enable_tracing), or the
    /// thread moved no buffer) is drawn from its aggregate numbers as a
    /// single proportion bar prefixed with `~`.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let wall_ns = self.wall.as_nanos() as u64;
        // Bucket math in u128: ns * width overflows u64 for runs past ~3
        // hours at width 100.  An instant exactly at wall_ns maps to bucket
        // `width`, which must clamp into the last bucket.
        let bucket = |ns: u64| {
            let rel = ns.saturating_sub(self.trace_start_ns).min(wall_ns);
            let b = (u128::from(rel) * width as u128 / u128::from(wall_ns.max(1))) as usize;
            b.min(width - 1)
        };
        let glyph = |kind| match kind {
            TraceKind::Accept => Some(b'.'),
            TraceKind::Convey | TraceKind::TurnWait => Some(b'o'),
            _ => None,
        };
        let dropped: u64 = self.trace.iter().map(ThreadLog::dropped).sum();
        let mut out = String::new();
        out.push_str(&format!(
            "gantt over {:.3}s, {} buckets ('#' busy, '.' starved, 'o' backpressured)\n",
            self.wall.as_secs_f64(),
            width
        ));
        if dropped > 0 {
            out.push_str(&format!(
                "{dropped} oldest spans dropped by full rings ('?' before a thread's oldest kept span)\n"
            ));
        }
        let name_w = self
            .stages
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        for s in &self.stages {
            let mut row = vec![b'#'; width];
            // One marker column between name and bar keeps every bar
            // starting at the same column: `~` flags an approximate
            // (untraced, proportion-drawn) row, space an exact one.
            let marker;
            // A log with no buffer wait in it cannot draw a row.
            let log = self.trace.iter().find(|l| l.task() == s.name).filter(|l| {
                l.spans
                    .iter()
                    .any(|r| r.trace_id != 0 && glyph(r.kind).is_some())
            });
            match log {
                None => {
                    marker = '~';
                    // No log: render aggregate proportions, left-to-right.
                    let total = s.wall.as_secs_f64().max(1e-12);
                    let acc = ((s.blocked_accept.as_secs_f64() / total) * width as f64) as usize;
                    let conv = ((s.blocked_convey.as_secs_f64() / total) * width as f64) as usize;
                    for slot in row.iter_mut().take(acc.min(width)) {
                        *slot = b'.';
                    }
                    for slot in row.iter_mut().skip(width.saturating_sub(conv.min(width))) {
                        *slot = b'o';
                    }
                }
                Some(log) => {
                    marker = ' ';
                    for span in &log.spans {
                        if let Some(ch) = glyph(span.kind) {
                            row[bucket(span.start_ns)..=bucket(span.end_ns)].fill(ch);
                        }
                    }
                    if log.dropped() > 0 {
                        let oldest = log.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
                        row[..bucket(oldest)].fill(b'?');
                    }
                }
            }
            out.push_str(&format!(
                "{:<name_w$} {marker}{}\n",
                s.name,
                String::from_utf8(row).expect("ascii")
            ));
        }
        out
    }

    /// Export the run's span log ([`Report::trace`]) as a Chrome
    /// trace-event JSON document, loadable in `chrome://tracing` or
    /// <https://ui.perfetto.dev>: one track per thread, a slice per span,
    /// and flow arrows following each buffer from stage to stage — the
    /// same document [`TraceSink::to_chrome_trace`](crate::TraceSink::to_chrome_trace)
    /// writes, restricted to this program's threads.  Empty of slices
    /// unless the program ran with
    /// [`Program::enable_tracing`](crate::Program::enable_tracing).
    pub fn to_chrome_trace(&self) -> String {
        crate::trace::chrome_trace(&self.trace)
    }

    /// Render the report as an aligned text table: one row per stage with
    /// busy / starved / backpressured times, utilization, and buffer
    /// counts.  Useful for eyeballing where a pipeline's time goes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "wall {:.3}s, {} threads, overlap factor {:.2}\n",
            self.wall.as_secs_f64(),
            self.threads_spawned,
            self.overlap_factor()
        ));
        let name_w = self
            .stages
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        out.push_str(&format!(
            "{:<name_w$} {:>9} {:>9} {:>9} {:>6} {:>8} {:>8}\n",
            "stage", "busy ms", "starve ms", "backp ms", "util", "bufs in", "bufs out",
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<name_w$} {:>9.1} {:>9.1} {:>9.1} {:>5.0}% {:>8} {:>8}\n",
                s.name,
                s.busy().as_secs_f64() * 1e3,
                s.blocked_accept.as_secs_f64() * 1e3,
                s.blocked_convey.as_secs_f64() * 1e3,
                s.utilization() * 100.0,
                s.buffers_in,
                s.buffers_out,
            ));
        }
        out
    }

    /// Render a full-run dashboard: the stage table, the Gantt chart, a
    /// queue-depth table, and — when a
    /// [`MetricsRegistry`](crate::metrics::MetricsRegistry) was attached —
    /// one metrics section per layer, grouped by the first segment of each
    /// metric name (`core/…`, `comm/…`, `disk/…`).
    pub fn render_dashboard(&self) -> String {
        let mut out = String::new();
        out.push_str("== stages ==\n");
        out.push_str(&self.render());
        out.push_str("\n== gantt ==\n");
        out.push_str(&self.render_gantt(60));
        if !self.queues.is_empty() {
            out.push_str("\n== queues ==\n");
            let name_w = self
                .queues
                .iter()
                .map(|q| q.name.len())
                .max()
                .unwrap_or(5)
                .max(5);
            out.push_str(&format!(
                "{:<name_w$} {:>8} {:>9} {:>6} {:>8}\n",
                "queue", "capacity", "max depth", "fill", "flavor"
            ));
            for q in &self.queues {
                let fill = if q.capacity == 0 {
                    0.0
                } else {
                    q.max_depth as f64 / q.capacity as f64 * 100.0
                };
                out.push_str(&format!(
                    "{:<name_w$} {:>8} {:>9} {:>5.0}% {:>8}\n",
                    q.name, q.capacity, q.max_depth, fill, q.flavor
                ));
            }
        }
        if let Some(resources) = self.resources.as_ref().filter(|r| !r.is_empty()) {
            out.push_str("\n== resources ==\n");
            out.push_str(&resources.render());
        }
        // When the metrics carry per-peer traffic counters (a cluster
        // run's `comm/bytes/{src}->{dst}` names), render them as a matrix
        // heatmap and roll the per-rank comm histograms up into one table.
        let peers: Vec<(usize, usize, u64)> = self
            .metrics
            .counters
            .iter()
            .filter_map(|(k, v)| {
                crate::cluster_report::parse_peer_counter(k, "comm/bytes/").map(|(s, d)| (s, d, *v))
            })
            .collect();
        if !peers.is_empty() {
            let nodes = peers.iter().map(|&(s, d, _)| s.max(d) + 1).max().unwrap();
            let mut matrix = vec![vec![0u64; nodes]; nodes];
            for (s, d, v) in peers {
                matrix[s][d] = matrix[s][d].max(v);
            }
            out.push_str("\n== traffic ==\n");
            out.push_str(&crate::cluster_report::render_traffic_matrix(&matrix));
            let mut rollup = String::new();
            for rank in 0..nodes {
                let mut cells = Vec::new();
                for op in ["recv_wait", "barrier", "broadcast", "allgather"] {
                    if let Some(h) = self.metrics.histogram(&format!("comm/{op}_ns/r{rank}")) {
                        if h.count > 0 {
                            cells.push(format!(
                                "{op} n={} total={}",
                                h.count,
                                crate::cluster_report::fmt_dur_ns(h.sum)
                            ));
                        }
                    }
                }
                if !cells.is_empty() {
                    rollup.push_str(&format!("  r{rank}: {}\n", cells.join(", ")));
                }
            }
            if !rollup.is_empty() {
                out.push_str("per-rank comm time:\n");
                out.push_str(&rollup);
            }
        }
        if !self.metrics.is_empty() {
            // Group by the metric name's first path segment so each layer
            // (core, comm, disk, …) renders as its own section.
            let group_of = |name: &str| name.split('/').next().unwrap_or(name).to_string();
            let mut groups: Vec<String> = self
                .metrics
                .counters
                .iter()
                .map(|(k, _)| group_of(k))
                .chain(self.metrics.histograms.iter().map(|(k, _)| group_of(k)))
                .collect();
            groups.sort();
            groups.dedup();
            for g in groups {
                out.push_str(&format!("\n== metrics: {g} ==\n"));
                for (k, v) in self
                    .metrics
                    .counters
                    .iter()
                    .filter(|(k, _)| group_of(k) == g)
                {
                    out.push_str(&format!("{k} = {v}\n"));
                }
                for (k, h) in self
                    .metrics
                    .histograms
                    .iter()
                    .filter(|(k, _)| group_of(k) == g)
                {
                    out.push_str(&format!(
                        "{k}: n={} mean={:.0} p50<={} p99<={} max={}\n",
                        h.count,
                        h.mean(),
                        h.percentile(0.5),
                        h.percentile(0.99),
                        h.max
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(wall_ms: u64, acc_ms: u64, conv_ms: u64) -> StageStats {
        StageStats {
            name: "s".into(),
            wall: Duration::from_millis(wall_ms),
            blocked_accept: Duration::from_millis(acc_ms),
            blocked_convey: Duration::from_millis(conv_ms),
            buffers_in: 1,
            buffers_out: 1,
        }
    }

    #[test]
    fn busy_subtracts_blocking() {
        let s = stats(100, 30, 20);
        assert_eq!(s.busy(), Duration::from_millis(50));
        assert!((s.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn busy_saturates_at_zero() {
        let s = stats(10, 30, 20);
        assert_eq!(s.busy(), Duration::ZERO);
    }

    #[test]
    fn report_lookup_and_overlap() {
        let report = Report {
            wall: Duration::from_millis(100),
            stages: vec![
                StageStats {
                    name: "read".into(),
                    ..stats(100, 0, 0)
                },
                StageStats {
                    name: "write".into(),
                    ..stats(100, 50, 0)
                },
            ],
            threads_spawned: 2,
            ..Report::default()
        };
        assert!(report.stage("read").is_some());
        assert!(report.stage("nope").is_none());
        assert_eq!(report.total_busy(), Duration::from_millis(150));
        assert!((report.overlap_factor() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_wall_edge_cases() {
        let s = stats(0, 0, 0);
        assert_eq!(s.utilization(), 0.0);
        let r = Report::default();
        assert_eq!(r.overlap_factor(), 0.0);
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn render_contains_all_stages_and_header() {
        let report = Report {
            wall: Duration::from_millis(250),
            stages: vec![
                StageStats {
                    name: "reader".into(),
                    wall: Duration::from_millis(250),
                    blocked_accept: Duration::from_millis(50),
                    blocked_convey: Duration::from_millis(25),
                    buffers_in: 10,
                    buffers_out: 10,
                },
                StageStats {
                    name: "a-much-longer-stage-name".into(),
                    wall: Duration::from_millis(250),
                    blocked_accept: Duration::ZERO,
                    blocked_convey: Duration::ZERO,
                    buffers_in: 10,
                    buffers_out: 10,
                },
            ],
            threads_spawned: 4,
            ..Report::default()
        };
        let text = report.render();
        assert!(text.contains("reader"));
        assert!(text.contains("a-much-longer-stage-name"));
        assert!(text.contains("overlap factor"));
        assert!(text.contains("busy ms"));
        // All rows align: every line has the same field count layout; just
        // sanity-check line count = header + 2 stages + summary.
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn render_empty_report() {
        let text = Report::default().render();
        assert!(text.contains("0 threads"));
        assert_eq!(text.lines().count(), 2);
    }

    fn log(task: &str, recorded: u64, spans: &[(TraceKind, u64, u64)]) -> ThreadLog {
        ThreadLog {
            thread: format!("prog/{task}"),
            group: None,
            recorded,
            spans: spans
                .iter()
                .map(|&(kind, start_ns, end_ns)| crate::trace::SpanRec {
                    kind,
                    pipeline: 0,
                    round: 0,
                    trace_id: 1,
                    start_ns,
                    end_ns,
                })
                .collect(),
        }
    }

    /// A 1000 ns program that started 5000 ns into its sink's epoch.
    fn gantt_report() -> Report {
        Report {
            wall: Duration::from_nanos(1_000),
            stages: vec![
                StageStats {
                    name: "traced".into(),
                    wall: Duration::from_nanos(1_000),
                    buffers_in: 1,
                    buffers_out: 1,
                    ..StageStats::default()
                },
                StageStats {
                    name: "untraced".into(),
                    wall: Duration::from_nanos(1_000),
                    blocked_accept: Duration::from_nanos(500),
                    buffers_in: 1,
                    buffers_out: 1,
                    ..StageStats::default()
                },
            ],
            threads_spawned: 2,
            // The accept ends exactly at wall.
            trace: vec![log("traced", 1, &[(TraceKind::Accept, 5_900, 6_000)])],
            trace_start_ns: 5_000,
            ..Report::default()
        }
    }

    #[test]
    fn gantt_clamps_span_ending_at_wall_into_last_bucket() {
        let text = gantt_report().render_gantt(10);
        let traced = text.lines().find(|l| l.starts_with("traced")).unwrap();
        // The 900..1000ns accept span must fill exactly the last bucket and
        // not be lost to an out-of-range index.
        assert!(traced.ends_with("#########."), "row was {traced:?}");
        assert!(!text.contains("dropped"), "nothing was dropped:\n{text}");
    }

    #[test]
    fn gantt_rows_align_between_traced_and_untraced_stages() {
        let text = gantt_report().render_gantt(10);
        let bars: Vec<usize> = text
            .lines()
            .skip(1) // header
            .map(|l| {
                l.char_indices()
                    .rev()
                    .take(10)
                    .last()
                    .map(|(i, _)| i)
                    .unwrap()
            })
            .collect();
        // Every bar (the last 10 chars of each row) starts at the same
        // column regardless of the `~` approximate marker.
        assert_eq!(bars.len(), 2);
        assert_eq!(bars[0], bars[1], "bars misaligned in:\n{text}");
        // The untraced row is flagged, the traced row is not.
        assert!(text.lines().any(|l| l.contains(" ~")));
    }

    #[test]
    fn gantt_survives_long_runs_without_overflow() {
        // 4 hours in ns * width 100 overflows u64; the u128 bucket math
        // must keep the row correct.
        let four_hours_ns = 4 * 3600 * 1_000_000_000u64;
        // Every kind drawn `o`, back to back over the second half.
        let (h, e) = (four_hours_ns / 2, four_hours_ns / 4);
        let waits = [
            (TraceKind::Convey, h, h + e),
            (TraceKind::TurnWait, h + e, four_hours_ns),
        ];
        let report = Report {
            wall: Duration::from_nanos(four_hours_ns),
            stages: vec![StageStats {
                name: "s".into(),
                wall: Duration::from_nanos(four_hours_ns),
                ..StageStats::default()
            }],
            threads_spawned: 1,
            trace: vec![log("s", 2, &waits)],
            ..Report::default()
        };
        let text = report.render_gantt(100);
        let row = text.lines().nth(1).unwrap();
        let bar: String = row.chars().rev().take(100).collect();
        assert_eq!(bar.chars().filter(|&c| c == 'o').count(), 50);
    }

    #[test]
    fn dashboard_sections_render() {
        let mut report = gantt_report();
        report.queues.push(QueueDepth {
            name: "p[1]".into(),
            capacity: 4,
            max_depth: 3,
            flavor: "spsc".into(),
        });
        let reg = crate::metrics::MetricsRegistry::new();
        reg.counter("core/accepts").add(7);
        reg.histogram("disk/read_ns").record(1_000);
        reg.counter("comm/msgs/0->1").add(2);
        report.metrics = reg.snapshot();
        let text = report.render_dashboard();
        for section in [
            "== stages ==",
            "== gantt ==",
            "== queues ==",
            "== metrics: core ==",
            "== metrics: disk ==",
            "== metrics: comm ==",
        ] {
            assert!(text.contains(section), "missing {section} in:\n{text}");
        }
        assert!(text.contains("core/accepts = 7"));
        assert!(text.contains("p[1]"));
        // No per-peer counters -> no traffic section.
        assert!(!text.contains("== traffic =="));
    }

    #[test]
    fn dashboard_renders_traffic_matrix_from_peer_counters() {
        let mut report = gantt_report();
        let reg = crate::metrics::MetricsRegistry::new();
        reg.counter("comm/bytes/0->1").add(4096);
        reg.counter("comm/bytes/1->0").add(1024);
        reg.histogram("comm/recv_wait_ns/r0").record(2_000_000);
        reg.histogram("comm/barrier_ns/r1").record(500_000);
        report.metrics = reg.snapshot();
        let text = report.render_dashboard();
        assert!(text.contains("== traffic =="), "missing section:\n{text}");
        assert!(text.contains("traffic matrix"), "missing matrix:\n{text}");
        assert!(text.contains("4.0K"), "missing cell:\n{text}");
        assert!(
            text.contains("per-rank comm time:"),
            "missing rollup:\n{text}"
        );
        assert!(
            text.contains("r0: recv_wait n=1"),
            "missing r0 row:\n{text}"
        );
        assert!(text.contains("r1: barrier n=1"), "missing r1 row:\n{text}");
    }
}
