//! Experiment runners for the FG reproduction.
//!
//! Each public function regenerates one artifact of the paper's evaluation
//! (see DESIGN.md's experiment index): Figure 8's per-pass time breakdowns,
//! the in-text tables (partition balance, I/O volume, unbalanced
//! communication), and the ablations (single-linear-pipeline dsort, virtual
//! stages, overlap, buffer-size sweep).  The `experiments` binary drives
//! them and prints paper-style tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod autotune;
pub mod gate;
pub mod io_overlap;
pub mod kernel_bench;
pub mod overlap;
pub mod queue_bench;
pub mod resource_profile;
pub mod unbalanced_comm;

use std::sync::Arc;
use std::time::Duration;

use fg_core::MetricsRegistry;
use fg_pdm::DiskRef;
use fg_sort::config::SortConfig;
use fg_sort::csort::{run_csort, CsortReport};
use fg_sort::dsort::{run_dsort, run_dsort_with, DsortOptions, DsortReport};
use fg_sort::dsort_linear::{run_dsort_linear, DsortLinearReport};
use fg_sort::input::{provision, provision_with_metrics};
use fg_sort::keygen::KeyDist;
use fg_sort::record::RecordFormat;
use fg_sort::verify::{verify_output, Strictness};
use fg_sort::SortError;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Cluster nodes (paper: 16).
    pub nodes: usize,
    /// Bytes of input per node (paper: 4 GB; scaled default: 4 MiB).
    pub bytes_per_node: usize,
}

impl Scale {
    /// The default scaled-down mirror of the paper's setup: 16 nodes,
    /// 256 KiB per node (the paper's 4 GB per node scaled by ~16000×, to
    /// match the ~100× slower simulated disks and the single-core host —
    /// see `SortConfig::experiment_default`).
    pub fn paper_scaled() -> Self {
        Scale {
            nodes: 16,
            bytes_per_node: 256 << 10,
        }
    }

    /// A quick scale for smoke runs.
    pub fn quick() -> Self {
        Scale {
            nodes: 4,
            bytes_per_node: 128 << 10,
        }
    }

    /// Build a [`SortConfig`] for this scale.
    pub fn config(&self, record: RecordFormat, dist: KeyDist) -> SortConfig {
        let mut cfg =
            SortConfig::experiment_default(self.nodes, self.bytes_per_node / record.record_bytes);
        cfg.record = record;
        cfg.dist = dist;
        cfg
    }
}

/// One Figure 8 cell: dsort and csort on the same input.
#[derive(Debug)]
pub struct Fig8Cell {
    /// The distribution sorted.
    pub dist: KeyDist,
    /// dsort's report.
    pub dsort: DsortReport,
    /// csort's report.
    pub csort: CsortReport,
    /// Node 0's per-pass FG reports when the cell was run with
    /// [`run_fig8_cell_observed`]; `None` from [`run_fig8_cell`].
    pub observed: Option<ObservedDsort>,
}

/// Node 0's FG reports from an instrumented dsort run.
#[derive(Debug)]
pub struct ObservedDsort {
    /// Pass 1 (partition & distribute), with per-stage spans.
    pub pass1: fg_core::Report,
    /// Pass 2 (merge & stripe), with per-stage spans; its `metrics` carry
    /// the whole run's `comm/…` and `disk/…` metrics, so this report alone
    /// renders a complete dashboard.
    pub pass2: fg_core::Report,
}

impl Fig8Cell {
    /// dsort total / csort total (the paper reports 74.26%–85.06%).
    pub fn ratio(&self) -> f64 {
        self.dsort.total().as_secs_f64() / self.csort.total.as_secs_f64()
    }
}

/// Run one Figure 8 cell (both sorts, each on freshly provisioned disks),
/// verifying both outputs.
pub fn run_fig8_cell(
    scale: Scale,
    record: RecordFormat,
    dist: KeyDist,
) -> Result<Fig8Cell, SortError> {
    let cfg = scale.config(record, dist);
    let dsort = {
        let disks = provision(&cfg);
        let r = run_dsort(&cfg, &disks)?;
        verify_output(&cfg, &disks, Strictness::Fingerprint)?;
        r
    };
    let csort = {
        let disks = provision(&cfg);
        let r = run_csort(&cfg, &disks)?;
        verify_output(&cfg, &disks, Strictness::Fingerprint)?;
        r
    };
    Ok(Fig8Cell {
        dist,
        dsort,
        csort,
        observed: None,
    })
}

/// [`run_fig8_cell`] with observability on: the dsort run enables span
/// tracing, provisions metrics-instrumented disks, and attaches a shared
/// [`MetricsRegistry`] to every node's communicator.  The returned cell's
/// `observed` holds node 0's per-pass reports, with the run's comm and disk
/// metrics merged into the pass-2 report.
pub fn run_fig8_cell_observed(
    scale: Scale,
    record: RecordFormat,
    dist: KeyDist,
) -> Result<Fig8Cell, SortError> {
    run_fig8_cell_observed_with(scale, record, dist, &Arc::new(MetricsRegistry::new()))
}

/// [`run_fig8_cell_observed`] publishing into a caller-supplied registry,
/// so a live telemetry endpoint (`--telemetry`) can expose the run's
/// metrics while it executes.
pub fn run_fig8_cell_observed_with(
    scale: Scale,
    record: RecordFormat,
    dist: KeyDist,
    registry: &Arc<MetricsRegistry>,
) -> Result<Fig8Cell, SortError> {
    let mut cfg = scale.config(record, dist);
    cfg.trace_sink = Some(fg_core::TraceSink::new());
    let registry = Arc::clone(registry);
    let dsort = {
        let disks = provision_with_metrics(&cfg, &registry);
        let r = run_dsort_with(
            &cfg,
            &disks,
            DsortOptions {
                metrics: Some(Arc::clone(&registry)),
                ..DsortOptions::default()
            },
        )?;
        verify_output(&cfg, &disks, Strictness::Fingerprint)?;
        r
    };
    let observed = dsort.node0_reports.clone().map(|(pass1, mut pass2)| {
        pass2.metrics.merge(&dsort.metrics);
        ObservedDsort { pass1, pass2 }
    });
    let csort = {
        let disks = provision(&cfg);
        let r = run_csort(&cfg, &disks)?;
        verify_output(&cfg, &disks, Strictness::Fingerprint)?;
        r
    };
    Ok(Fig8Cell {
        dist,
        dsort,
        csort,
        observed,
    })
}

/// Run a full Figure 8 panel (all four distributions) for one record size.
pub fn run_fig8_panel(scale: Scale, record: RecordFormat) -> Result<Vec<Fig8Cell>, SortError> {
    KeyDist::figure8()
        .into_iter()
        .map(|dist| run_fig8_cell(scale, record, dist))
        .collect()
}

/// [`run_fig8_panel`] with observability on (see
/// [`run_fig8_cell_observed`]).
pub fn run_fig8_panel_observed(
    scale: Scale,
    record: RecordFormat,
) -> Result<Vec<Fig8Cell>, SortError> {
    KeyDist::figure8()
        .into_iter()
        .map(|dist| run_fig8_cell_observed(scale, record, dist))
        .collect()
}

/// [`run_fig8_panel_observed`] publishing into a caller-supplied registry
/// (see [`run_fig8_cell_observed_with`]).
pub fn run_fig8_panel_observed_with(
    scale: Scale,
    record: RecordFormat,
    registry: &Arc<MetricsRegistry>,
) -> Result<Vec<Fig8Cell>, SortError> {
    KeyDist::figure8()
        .into_iter()
        .map(|dist| run_fig8_cell_observed_with(scale, record, dist, registry))
        .collect()
}

/// T2: splitter balance — max partition size over the average, per
/// distribution and oversampling factor.
#[derive(Debug)]
pub struct BalanceRow {
    /// Distribution.
    pub dist: KeyDist,
    /// Oversampling factor.
    pub oversample: usize,
    /// max(partition)/avg(partition); the paper reports ≤ 1.10.
    pub max_over_avg: f64,
}

/// Run the splitter-balance sweep.
pub fn run_splitter_balance(
    scale: Scale,
    oversamples: &[usize],
) -> Result<Vec<BalanceRow>, SortError> {
    let mut rows = Vec::new();
    for dist in KeyDist::figure8() {
        for &oversample in oversamples {
            let mut cfg = scale.config(RecordFormat::REC16, dist);
            cfg.oversample = oversample;
            let disks = provision(&cfg);
            let report = run_dsort(&cfg, &disks)?;
            verify_output(&cfg, &disks, Strictness::Fingerprint)?;
            let avg = cfg.records_per_node as f64;
            let max = report.partition_records.iter().copied().max().unwrap_or(0) as f64;
            rows.push(BalanceRow {
                dist,
                oversample,
                max_over_avg: max / avg,
            });
        }
    }
    Ok(rows)
}

/// T3: I/O volume — bytes moved per program (csort should be ~1.5× dsort).
#[derive(Debug)]
pub struct IoVolumeRow {
    /// Program name.
    pub program: &'static str,
    /// Total bytes read across all disks.
    pub bytes_read: u64,
    /// Total bytes written across all disks.
    pub bytes_written: u64,
    /// Total interprocessor bytes sent.
    pub net_bytes: u64,
}

/// Measure I/O and network volume for both sorts on the same input.
pub fn run_io_volume(scale: Scale) -> Result<Vec<IoVolumeRow>, SortError> {
    let cfg = scale.config(RecordFormat::REC16, KeyDist::Uniform);
    let mut rows = Vec::new();
    {
        let disks = provision(&cfg);
        let r = run_dsort(&cfg, &disks)?;
        rows.push(IoVolumeRow {
            program: "dsort",
            bytes_read: r.disk_stats.iter().map(|s| s.bytes_read).sum(),
            bytes_written: r.disk_stats.iter().map(|s| s.bytes_written).sum(),
            net_bytes: r.bytes_sent.iter().sum(),
        });
    }
    {
        let disks = provision(&cfg);
        let r = run_csort(&cfg, &disks)?;
        rows.push(IoVolumeRow {
            program: "csort",
            bytes_read: r.disk_stats.iter().map(|s| s.bytes_read).sum(),
            bytes_written: r.disk_stats.iter().map(|s| s.bytes_written).sum(),
            net_bytes: r.bytes_sent.iter().sum(),
        });
    }
    Ok(rows)
}

/// T4: the unbalanced-communication stress (adversarial distributions).
#[derive(Debug)]
pub struct UnbalancedRow {
    /// Distribution label.
    pub label: String,
    /// dsort report.
    pub dsort: DsortReport,
    /// csort report on the same input.
    pub csort: CsortReport,
}

/// Run dsort and csort under adversarial key distributions.
pub fn run_unbalanced(scale: Scale) -> Result<Vec<UnbalancedRow>, SortError> {
    let dists = [
        KeyDist::Shifted { shift: 1 },
        KeyDist::Shifted {
            shift: scale.nodes / 2,
        },
        KeyDist::HotKey { hot_percent: 90 },
    ];
    let mut rows = Vec::new();
    for dist in dists {
        let cfg = scale.config(RecordFormat::REC16, dist);
        let dsort = {
            let disks = provision(&cfg);
            let r = run_dsort(&cfg, &disks)?;
            verify_output(&cfg, &disks, Strictness::Fingerprint)?;
            r
        };
        let csort = {
            let disks = provision(&cfg);
            let r = run_csort(&cfg, &disks)?;
            verify_output(&cfg, &disks, Strictness::Fingerprint)?;
            r
        };
        rows.push(UnbalancedRow {
            label: dist.label(),
            dsort,
            csort,
        });
    }
    Ok(rows)
}

/// A1: dsort (multiple pipelines) vs dsort-linear (single linear
/// pipelines) on the same input.
#[derive(Debug)]
pub struct LinearAblationRow {
    /// Distribution label.
    pub label: String,
    /// Full dsort report.
    pub dsort: DsortReport,
    /// Linear-restricted dsort report.
    pub linear: DsortLinearReport,
}

/// Run the single-linear-pipeline ablation.
pub fn run_linear_ablation(scale: Scale) -> Result<Vec<LinearAblationRow>, SortError> {
    let mut rows = Vec::new();
    for dist in [KeyDist::Uniform, KeyDist::Shifted { shift: 1 }] {
        let cfg = scale.config(RecordFormat::REC16, dist);
        let dsort = {
            let disks = provision(&cfg);
            let r = run_dsort(&cfg, &disks)?;
            verify_output(&cfg, &disks, Strictness::Fingerprint)?;
            r
        };
        let linear = {
            let disks = provision(&cfg);
            let r = run_dsort_linear(&cfg, &disks)?;
            verify_output(&cfg, &disks, Strictness::Fingerprint)?;
            r
        };
        rows.push(LinearAblationRow {
            label: dist.label(),
            dsort,
            linear,
        });
    }
    Ok(rows)
}

/// A2: virtual stages — pass-2 thread count and time, virtual vs not, as
/// the number of runs grows.
#[derive(Debug)]
pub struct VirtualAblationRow {
    /// Sorted runs per node (vertical pipelines in pass 2).
    pub runs_per_node: u64,
    /// Threads spawned by node 0's pass-2 program with virtual stages.
    pub threads_virtual: u64,
    /// ... and without.
    pub threads_plain: u64,
    /// dsort total with virtual stages.
    pub time_virtual: Duration,
    /// ... and without.
    pub time_plain: Duration,
}

/// Run the virtual-stage ablation: shrink the vertical buffers so the number
/// of vertical pipelines grows — less merge memory buys shorter runs
/// ([`fg_sort::dsort::plan`]), down to the floor of one block a run.
pub fn run_virtual_ablation(
    scale: Scale,
    vertical_buf_bytes: &[usize],
) -> Result<Vec<VirtualAblationRow>, SortError> {
    let mut rows = Vec::new();
    for &bytes in vertical_buf_bytes {
        let mut cfg = scale.config(RecordFormat::REC16, KeyDist::Uniform);
        cfg.run_bytes = cfg.block_bytes;
        cfg.vertical_buf_bytes = bytes;
        let (t_virtual, th_virtual, runs) = {
            let disks = provision(&cfg);
            let r = run_dsort_with(
                &cfg,
                &disks,
                DsortOptions {
                    virtual_reads: true,
                    ..DsortOptions::default()
                },
            )?;
            verify_output(&cfg, &disks, Strictness::Fingerprint)?;
            (r.total(), r.pass2_threads[0], r.runs_per_node[0])
        };
        let (t_plain, th_plain) = {
            let disks = provision(&cfg);
            let r = run_dsort_with(
                &cfg,
                &disks,
                DsortOptions {
                    virtual_reads: false,
                    ..DsortOptions::default()
                },
            )?;
            verify_output(&cfg, &disks, Strictness::Fingerprint)?;
            (r.total(), r.pass2_threads[0])
        };
        rows.push(VirtualAblationRow {
            runs_per_node: runs,
            threads_virtual: th_virtual,
            threads_plain: th_plain,
            time_virtual: t_virtual,
            time_plain: t_plain,
        });
    }
    Ok(rows)
}

/// A4: buffer-size sweep — both sorts across block sizes (the paper:
/// "results reported are for the best choices of buffer sizes").
#[derive(Debug)]
pub struct BufferSweepRow {
    /// Block/buffer size in bytes.
    pub block_bytes: usize,
    /// dsort total.
    pub dsort_total: Duration,
    /// csort total.
    pub csort_total: Duration,
}

/// Run the buffer-size sweep.
pub fn run_buffer_sweep(
    scale: Scale,
    block_kib: &[usize],
) -> Result<Vec<BufferSweepRow>, SortError> {
    let mut rows = Vec::new();
    for &kib in block_kib {
        let mut cfg = scale.config(RecordFormat::REC16, KeyDist::Uniform);
        cfg.block_bytes = kib << 10;
        cfg.run_bytes = cfg.run_bytes.max(4 * cfg.block_bytes);
        let dsort_total = {
            let disks = provision(&cfg);
            let r = run_dsort(&cfg, &disks)?;
            verify_output(&cfg, &disks, Strictness::Fingerprint)?;
            r.total()
        };
        let csort_total = {
            let disks = provision(&cfg);
            let r = run_csort(&cfg, &disks)?;
            verify_output(&cfg, &disks, Strictness::Fingerprint)?;
            r.total
        };
        rows.push(BufferSweepRow {
            block_bytes: cfg.block_bytes,
            dsort_total,
            csort_total,
        });
    }
    Ok(rows)
}

/// A6: read-ahead depth — buffers per vertical pipeline in dsort pass 2.
/// With depth 1 the merge stage waits on every run read (no prefetch);
/// deeper pools overlap run reads with merging, the dynamic analogue of
/// the prefetchability the paper credits csort with (§I).
#[derive(Debug)]
pub struct ReadAheadRow {
    /// Buffers per vertical pipeline.
    pub depth: usize,
    /// dsort pass-2 time.
    pub pass2: Duration,
    /// dsort total time.
    pub total: Duration,
}

/// Run the read-ahead ablation.
pub fn run_readahead_ablation(
    scale: Scale,
    depths: &[usize],
) -> Result<Vec<ReadAheadRow>, SortError> {
    let mut rows = Vec::new();
    for &depth in depths {
        let mut cfg = scale.config(RecordFormat::REC16, KeyDist::Uniform);
        cfg.vertical_buffers = depth;
        let disks = provision(&cfg);
        let r = run_dsort(&cfg, &disks)?;
        verify_output(&cfg, &disks, Strictness::Fingerprint)?;
        rows.push(ReadAheadRow {
            depth,
            pass2: r.pass2,
            total: r.total(),
        });
    }
    Ok(rows)
}

/// A5: three-pass vs four-pass columnsort — the benefit of coalescing
/// steps 5–8 into one pass (§III's key observation).
#[derive(Debug)]
pub struct CsortPassAblationRow {
    /// Three-pass total.
    pub csort3_total: Duration,
    /// Four-pass total and per-pass times.
    pub csort4_total: Duration,
    /// csort4/csort3 total-time ratio (expected ~4/3 when I/O-bound).
    pub ratio: f64,
    /// Disk I/O ratio (bytes moved), expected exactly ~4/3.
    pub io_ratio: f64,
}

/// Run the csort pass-count ablation.
pub fn run_csort_pass_ablation(scale: Scale) -> Result<CsortPassAblationRow, SortError> {
    let cfg = scale.config(RecordFormat::REC16, KeyDist::Uniform);
    let (csort3_total, io3) = {
        let disks = provision(&cfg);
        let r = run_csort(&cfg, &disks)?;
        verify_output(&cfg, &disks, Strictness::Fingerprint)?;
        let io: u64 = r.disk_stats.iter().map(|s| s.bytes_total()).sum();
        (r.total, io)
    };
    let (csort4_total, io4) = {
        let disks = provision(&cfg);
        let r = fg_sort::csort4::run_csort4(&cfg, &disks)?;
        verify_output(&cfg, &disks, Strictness::Fingerprint)?;
        let io: u64 = r.disk_stats.iter().map(|s| s.bytes_total()).sum();
        (r.total, io)
    };
    Ok(CsortPassAblationRow {
        csort3_total,
        csort4_total,
        ratio: csort4_total.as_secs_f64() / csort3_total.as_secs_f64(),
        io_ratio: io4 as f64 / io3 as f64,
    })
}

/// One workers-scaling row: csort with its in-core sort stages farmed
/// across `workers` replicas (`Program::workers` via `SortConfig.workers`).
#[derive(Debug)]
pub struct WorkersScalingRow {
    /// Sort-stage replica count.
    pub workers: usize,
    /// Max-across-nodes wall time of each csort pass.
    pub pass: [Duration; 3],
    /// Total wall time.
    pub total: Duration,
}

/// Run csort once per entry of `workers` on zero-cost disks and network,
/// so the in-core sort dominates wall time and the farm's effect is
/// visible (the cost-model disks would hide it behind simulated I/O).
/// Every output is verified.  The speedup of an n-worker row over the
/// 1-worker row scales with physical cores; node count stays small so the
/// node threads don't saturate the host by themselves.
pub fn run_workers_scaling(
    nodes: usize,
    bytes_per_node: usize,
    workers: &[usize],
) -> Result<Vec<WorkersScalingRow>, SortError> {
    let mut rows = Vec::new();
    for &w in workers {
        let mut cfg =
            SortConfig::test_default(nodes, bytes_per_node / RecordFormat::REC16.record_bytes);
        cfg.workers = w;
        let disks = provision(&cfg);
        let r = run_csort(&cfg, &disks)?;
        verify_output(&cfg, &disks, Strictness::Fingerprint)?;
        rows.push(WorkersScalingRow {
            workers: w,
            pass: r.pass,
            total: r.total,
        });
    }
    Ok(rows)
}

/// Provision fresh disks for a config (re-export convenience for benches).
pub fn fresh_disks(cfg: &SortConfig) -> Vec<DiskRef> {
    provision(cfg)
}
