//! Every artifact a run writes, pinned byte for byte.
//!
//! FG's artifacts are write-only: nothing in the workspace parses a report,
//! a trace, a series or a post-mortem back into its Rust type.  What keeps
//! their schemas from drifting is this file: each writer renders a fixed,
//! hand-made input, and the output must equal the checked-in golden under
//! `tests/goldens/` exactly.  A golden changes only with a deliberate
//! schema change, in the same commit as the writer.

use std::time::Duration;

use fg_core::cluster_report::{ClusterReport, RankReport};
use fg_core::metrics::{GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
use fg_core::profile::{
    AllocResources, LedgerSnapshot, ResourceReport, StageResidency, ThreadResources,
};
use fg_core::telemetry::{series_to_json, TimestampedSnapshot};
use fg_core::trace::{
    Postmortem, QueuePostmortem, SpanRec, ThreadLog, ThreadPostmortem, ThreadState, TraceKind,
    TurnstilePostmortem,
};
use fg_core::{PipelineShape, QueueDepth, Report, StageStats};

/// Compare `actual` with the golden `name`, reporting the first byte that
/// differs.
fn assert_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/goldens/{name}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if golden != actual {
        let at = golden
            .bytes()
            .zip(actual.bytes())
            .position(|(g, a)| g != a)
            .unwrap_or(golden.len().min(actual.len()));
        let near =
            |s: &str| s[at.saturating_sub(40).min(s.len())..(at + 40).min(s.len())].to_string();
        panic!(
            "{name} differs from its golden at byte {at} (golden {} bytes, written {}):\n\
             golden:  …{}…\nwritten: …{}…",
            golden.len(),
            actual.len(),
            near(&golden),
            near(actual)
        );
    }
}

fn span(
    kind: TraceKind,
    pipeline: u32,
    round: u64,
    trace_id: u64,
    start_ns: u64,
    end_ns: u64,
) -> SpanRec {
    SpanRec {
        kind,
        pipeline,
        round,
        trace_id,
        start_ns,
        end_ns,
    }
}

fn histogram() -> HistogramSnapshot {
    HistogramSnapshot {
        count: 6,
        sum: 1_234,
        min: 3,
        max: 700,
        buckets: vec![0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 3],
    }
}

fn metrics() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![
            ("comm/bytes/0->1".into(), 4_096),
            ("comm/bytes/1->0".into(), 2_048),
            ("core/stage_blocked_accept_ns/read".into(), 1_500),
            ("core/stage_blocked_convey_ns/read".into(), 250),
            ("core/stage_buffers/read".into(), 4),
            ("core/stage_busy_ns/read".into(), 8_250),
            ("core/stage_rounds/read".into(), 4),
        ],
        gauges: vec![
            (
                "resource/ledger/read/bytes".into(),
                GaugeSnapshot {
                    value: 1_024,
                    peak: 4_096,
                },
            ),
            (
                "resource/rss_bytes".into(),
                GaugeSnapshot {
                    value: 10_000,
                    peak: 12_000,
                },
            ),
        ],
        histograms: vec![
            ("comm/allgather_ns/r0".into(), histogram()),
            ("comm/recv_wait_ns/r1".into(), histogram()),
        ],
    }
}

fn resources() -> ResourceReport {
    ResourceReport {
        rss_bytes: 8_388_608,
        rss_peak_bytes: 9_437_184,
        threads: vec![
            ThreadResources {
                name: "golden/read".into(),
                utime_ns: 20_000_000,
                stime_ns: 10_000_000,
                vol_switches: 7,
                invol_switches: 3,
                yields: 1,
            },
            ThreadResources {
                name: "golden/sort#0".into(),
                utime_ns: 40_000_000,
                stime_ns: 0,
                vol_switches: 2,
                invol_switches: 0,
                yields: 0,
            },
        ],
        alloc_tracking: true,
        alloc: vec![AllocResources {
            stage: "sort".into(),
            allocs: 12,
            frees: 11,
            bytes: 65_536,
            freed_bytes: 61_440,
        }],
        alloc_current_bytes: 4_096,
        alloc_peak_bytes: 65_536,
        ledger: Some(LedgerSnapshot {
            budget_bytes: 1 << 20,
            total_bytes: 16_384,
            peak_bytes: 32_768,
            total_buffers: 8,
            stages: vec![
                StageResidency {
                    stage: "read".into(),
                    buffers: 1,
                    bytes: 4_096,
                },
                StageResidency {
                    stage: "sort".into(),
                    buffers: 0,
                    bytes: 0,
                },
            ],
        }),
    }
}

fn stage(
    name: &str,
    core: Option<usize>,
    wall_us: u64,
    accept_us: u64,
    convey_us: u64,
    n: u64,
) -> StageStats {
    StageStats {
        name: name.into(),
        core,
        wall: Duration::from_micros(wall_us),
        blocked_accept: Duration::from_micros(accept_us),
        blocked_convey: Duration::from_micros(convey_us),
        buffers_in: n,
        buffers_out: n,
    }
}

/// Three threads: buffer 1 flows `read → sort#0 → write`, buffer 2 has
/// only been accepted, `sort#0`'s ring dropped one older record, and
/// `write` belongs to no rank.
fn trace() -> Vec<ThreadLog> {
    use TraceKind::*;
    vec![
        ThreadLog {
            thread: "golden/read".into(),
            group: Some(0),
            recorded: 4,
            spans: vec![
                span(Accept, 0, 0, 1, 1_000, 1_200),
                span(Work, 0, 0, 1, 1_200, 5_000),
                span(Convey, 0, 0, 1, 5_000, 5_100),
                span(Accept, 0, 1, 2, 5_100, 5_150),
            ],
        },
        ThreadLog {
            thread: "golden/sort#0".into(),
            group: Some(0),
            recorded: 5,
            spans: vec![
                span(Accept, 0, 0, 1, 5_100, 5_300),
                span(Work, 0, 0, 1, 5_300, 9_000),
                span(TurnWait, 0, 0, 1, 9_000, 9_500),
                span(Convey, 0, 0, 1, 9_500, 9_600),
            ],
        },
        ThreadLog {
            thread: "golden/write".into(),
            group: None,
            recorded: 3,
            spans: vec![
                span(Accept, 0, 0, 1, 9_600, 9_700),
                span(Work, 0, 0, 1, 9_700, 12_000),
                span(Recycle, 0, 0, 1, 12_000, 12_050),
            ],
        },
    ]
}

fn report() -> Report {
    Report {
        wall: Duration::from_micros(12_345),
        stages: vec![
            stage("read", None, 12_000, 1_500, 250, 4),
            stage("sort#0", Some(1), 11_500, 3_000, 500, 2),
            stage("sort#1", Some(0), 11_400, 2_900, 100, 2),
            stage("write", None, 12_100, 6_000, 0, 4),
        ],
        threads_spawned: 4,
        queues: vec![
            QueueDepth {
                name: "recycle/p".into(),
                capacity: 5,
                max_depth: 4,
                spsc: false,
                flavor: "lockfree".into(),
            },
            QueueDepth {
                name: "p[1]".into(),
                capacity: 5,
                max_depth: 2,
                spsc: false,
                flavor: "lockfree".into(),
            },
            QueueDepth {
                name: "p[2]".into(),
                capacity: 5,
                max_depth: 1,
                spsc: true,
                flavor: "spsc".into(),
            },
        ],
        pipelines: vec![PipelineShape {
            name: "p".into(),
            stages: vec!["read".into(), "sort".into(), "write".into()],
        }],
        metrics: metrics(),
        resources: Some(resources()),
        trace: trace(),
        trace_start_ns: 900,
    }
}

#[test]
fn report_json_matches_its_golden() {
    assert_golden("report.json", &report().to_json());
}

#[test]
fn report_chrome_trace_matches_its_golden() {
    assert_golden("report.chrome.json", &report().to_chrome_trace());
}

#[test]
fn cluster_report_json_matches_its_golden() {
    let mut plain = report();
    plain.resources = None;
    plain.trace.clear();
    plain.trace_start_ns = 0;
    let mut cr = ClusterReport::new(2);
    for rank in [1, 0] {
        cr.push(RankReport {
            rank,
            wall: Duration::from_micros(20_000 + rank as u64),
            reports: vec![plain.clone()],
            metrics: metrics(),
        });
    }
    assert_golden("cluster_report.json", &cr.to_json());
}

#[test]
fn cluster_diagnosis_json_matches_its_golden() {
    let mut cr = ClusterReport::new(3);
    for rank in 0..3 {
        // Ranks 1 and 2 each send rank 0 ten times what rank 0 sends rank 1.
        let registry = fg_core::MetricsRegistry::new();
        let (to, bytes) = if rank == 0 {
            (1, 1 << 10)
        } else {
            (0, 10 << 10)
        };
        registry
            .counter(&format!("comm/bytes/{rank}->{to}"))
            .add(bytes);
        cr.push(RankReport {
            rank,
            wall: Duration::from_micros(20_000),
            reports: vec![report(); rank + 1],
            metrics: registry.snapshot(),
        });
    }
    let json = fg_core::diagnose_cluster(&cr).to_json_value().to_string();
    assert_golden("cluster_diagnosis.json", &json);
}

#[test]
fn telemetry_series_matches_its_golden() {
    let series = [
        TimestampedSnapshot {
            elapsed: Duration::from_millis(50),
            snapshot: MetricsSnapshot::default(),
        },
        TimestampedSnapshot {
            elapsed: Duration::from_millis(100),
            snapshot: metrics(),
        },
    ];
    assert_golden("series.json", &series_to_json(&series).to_string());
}

#[test]
fn postmortem_json_matches_its_golden() {
    let pm = Postmortem {
        program: "golden".into(),
        stalled_for: Duration::from_millis(2_500),
        threads: vec![
            ThreadPostmortem {
                thread: "golden/read".into(),
                state: ThreadState::BlockedAccept,
                in_state_for: Duration::from_micros(1_500),
                intakes: 4,
                emits: 4,
                last_spans: trace()[0].spans[2..].to_vec(),
            },
            ThreadPostmortem {
                thread: "golden/sort#0".into(),
                state: ThreadState::TurnWait,
                in_state_for: Duration::from_millis(2_000),
                intakes: 3,
                emits: 2,
                last_spans: Vec::new(),
            },
        ],
        queues: vec![QueuePostmortem {
            queue: "p[1]".into(),
            depth: 2,
            capacity: 5,
        }],
        turnstiles: vec![TurnstilePostmortem {
            group: "sort".into(),
            pipeline: 0,
            next_round: 3,
        }],
        culprit: Some("golden/sort#0".into()),
        resources: Some(resources()),
    };
    assert_golden("postmortem.json", &pm.to_json().to_string());
}

#[test]
fn prometheus_exposition_matches_its_golden() {
    assert_golden("metrics.prom", &metrics().to_prometheus());
}
