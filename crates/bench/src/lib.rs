//! Experiment runners for the FG reproduction.
//!
//! Each public `run_*` function regenerates one artifact of the paper's
//! evaluation (see DESIGN.md's experiment index): Figure 8's per-pass time
//! breakdowns, the in-text tables (partition balance, I/O volume, unbalanced
//! communication), and the ablations (single-linear-pipeline dsort, virtual
//! stages, overlap, buffer-size sweep).  The `experiments` binary drives
//! them and prints paper-style tables.
//!
//! No seconds are compared across invocations.  A cell that makes a claim
//! runs all of its arms in one invocation, and a `check*` function beside its
//! runner tests a ratio or an ordering between them: `Err` carries the row
//! and the value that broke the claim.  The thresholds are constants next to
//! the `*CLAIM` text that states them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod io_overlap;
pub mod kernel_bench;
pub mod overlap;
pub mod resource_profile;
pub mod unbalanced_comm;

use std::sync::Arc;
use std::time::Duration;

use fg_core::MetricsRegistry;
use fg_pdm::DiskRef;
use fg_sort::config::SortConfig;
use fg_sort::csort::run_csort;
use fg_sort::dsort::{run_dsort, run_dsort_with, DsortOptions};
use fg_sort::dsort_linear::run_dsort_linear;
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
    /// Bytes of input per node (paper: 4 GB; scaled default: 256 KiB).
    pub bytes_per_node: usize,
}

impl Scale {
    /// The default scaled-down mirror of the paper's setup: 16 nodes,
    /// 256 KiB per node (the paper's 4 GB per node scaled by ~16000×, to
    /// match the ~100× slower simulated disks, whose sleeps must dominate
    /// real compute on a host with far fewer cores than nodes — see
    /// `SortConfig::experiment_default`).
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

/// Run one sort on `disks`, fresh from `provision`, and verify what it left
/// there.
fn sorted<R>(
    cfg: &SortConfig,
    disks: Vec<DiskRef>,
    run: impl FnOnce(&SortConfig, &[DiskRef]) -> Result<R, SortError>,
) -> Result<R, SortError> {
    let report = run(cfg, &disks)?;
    verify_output(cfg, &disks, Strictness::Fingerprint)?;
    Ok(report)
}

/// `Err` with both times unless the `fast` arm of a cell beat the `slow` one.
fn faster(fast: (&str, Duration), slow: (&str, Duration)) -> Result<(), String> {
    if fast.1 < slow.1 {
        return Ok(());
    }
    let secs = |arm: (&str, Duration)| format!("{} {:.3}s", arm.0, arm.1.as_secs_f64());
    Err(format!("{} vs {}", secs(fast), secs(slow)))
}

/// One Figure 8 cell: dsort and csort on the same input.
#[derive(Debug)]
pub struct Fig8Cell {
    /// The distribution sorted.
    pub dist: KeyDist,
    /// dsort's sampling, pass-1 and pass-2 times.
    pub dsort: [Duration; 3],
    /// csort's three pass times.
    pub csort: [Duration; 3],
    /// Node 0's pass-1 and pass-2 FG reports (with per-stage spans) when the
    /// cell ran observed.  The pass-2 report's `metrics` carry the whole
    /// run's `comm/…` and `disk/…` metrics, so it alone renders a complete
    /// dashboard.
    pub observed: Option<(fg_core::Report, fg_core::Report)>,
}

impl Fig8Cell {
    /// dsort's total time.
    pub fn dsort_total(&self) -> Duration {
        self.dsort.iter().sum()
    }

    /// csort's total time.
    pub fn csort_total(&self) -> Duration {
        self.csort.iter().sum()
    }

    /// dsort total / csort total (the paper reports 74.26%–85.06%).
    pub fn ratio(&self) -> f64 {
        self.dsort_total().as_secs_f64() / self.csort_total().as_secs_f64()
    }
}

/// Run one Figure 8 cell (both sorts, each on freshly provisioned disks),
/// verifying both outputs.  With `observe`, the dsort run enables span
/// tracing, provisions metrics-instrumented disks and publishes into the
/// given registry (which a live `--telemetry` endpoint may be serving), and
/// the cell's `observed` holds node 0's reports.
pub fn run_fig8_cell(
    scale: Scale,
    record: RecordFormat,
    dist: KeyDist,
    observe: Option<&Arc<MetricsRegistry>>,
) -> Result<Fig8Cell, SortError> {
    let mut cfg = scale.config(record, dist);
    let (disks, opts) = match observe {
        Some(registry) => {
            cfg.trace_sink = Some(fg_core::TraceSink::new());
            let metrics = Some(Arc::clone(registry));
            let opts = DsortOptions {
                metrics,
                ..DsortOptions::default()
            };
            (provision_with_metrics(&cfg, registry), opts)
        }
        None => (provision(&cfg), DsortOptions::default()),
    };
    let dsort = sorted(&cfg, disks, |cfg, disks| run_dsort_with(cfg, disks, opts))?;
    let mut observed = observe.and(dsort.node0_reports.clone());
    if let Some((_, pass2)) = &mut observed {
        pass2.metrics.merge(&dsort.metrics);
    }
    let csort = sorted(&cfg, provision(&cfg), run_csort)?;
    Ok(Fig8Cell {
        dist,
        dsort: [dsort.sampling, dsort.pass1, dsort.pass2],
        csort: csort.pass,
        observed,
    })
}

/// Run a full Figure 8 panel (all four distributions) for one record size;
/// `observe` as in [`run_fig8_cell`].
pub fn run_fig8_panel(
    scale: Scale,
    record: RecordFormat,
    observe: Option<&Arc<MetricsRegistry>>,
) -> Result<Vec<Fig8Cell>, SortError> {
    KeyDist::figure8()
        .into_iter()
        .map(|dist| run_fig8_cell(scale, record, dist, observe))
        .collect()
}

/// T1's band: it contains the paper's 0.7426–0.8506 and excludes 1.0.
const RATIO_BAND: (f64, f64) = (0.65, 0.90);
/// What [`check_ratio_band`] holds every Figure 8 cell to.
pub const RATIO_BAND_CLAIM: &str = "0.65 <= dsort/csort <= 0.90 in every cell";

/// Figure 8's headline: dsort wins every cell, by about the paper's margin.
pub fn check_ratio_band<'a>(cells: impl IntoIterator<Item = &'a Fig8Cell>) -> Result<(), String> {
    for cell in cells {
        let r = cell.ratio();
        if !(RATIO_BAND.0..=RATIO_BAND.1).contains(&r) {
            return Err(format!("{}: dsort/csort = {r:.3}", cell.dist.label()));
        }
    }
    Ok(())
}

/// csort is oblivious: its slowest distribution over its fastest.
const CSORT_FLATNESS: f64 = 1.10;
/// What [`check_csort_flat`] holds a Figure 8 panel to.
pub const CSORT_FLAT_CLAIM: &str = "csort max/min across the distributions <= 1.10";

/// Figure 8's second shape: csort's time does not depend on the keys.
pub fn check_csort_flat(panel: &[Fig8Cell]) -> Result<(), String> {
    let totals = || panel.iter().map(|c| (c.csort_total(), c.dist.label()));
    let (Some((min, fast)), Some((max, slow))) = (totals().min(), totals().max()) else {
        return Err("empty panel".into());
    };
    let spread = max.as_secs_f64() / min.as_secs_f64();
    if spread > CSORT_FLATNESS {
        return Err(format!("csort {slow} / {fast} = {spread:.3}"));
    }
    Ok(())
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
            let report = sorted(&cfg, provision(&cfg), run_dsort)?;
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

/// Measure I/O and network volume for both sorts (dsort's row first) on the
/// same input.
pub fn run_io_volume(scale: Scale) -> Result<Vec<IoVolumeRow>, SortError> {
    let cfg = scale.config(RecordFormat::REC16, KeyDist::Uniform);
    let row = |program, stats: &[fg_pdm::DiskStats], sent: &[u64]| IoVolumeRow {
        program,
        bytes_read: stats.iter().map(|s| s.bytes_read).sum(),
        bytes_written: stats.iter().map(|s| s.bytes_written).sum(),
        net_bytes: sent.iter().sum(),
    };
    let d = sorted(&cfg, provision(&cfg), run_dsort)?;
    let c = sorted(&cfg, provision(&cfg), run_csort)?;
    Ok(vec![
        row("dsort", &d.disk_stats, &d.bytes_sent),
        row("csort", &c.disk_stats, &c.bytes_sent),
    ])
}

/// Three passes over two, give or take dsort's sampling reads.
const IO_VOLUME_RATIO: (f64, f64) = (1.50, 0.03);
/// What [`check_io_volume`] holds T3 to.
pub const IO_VOLUME_CLAIM: &str = "csort/dsort disk bytes = 1.50 +- 0.03";

/// T3's claim: csort moves about 50% more bytes through its disks.
pub fn check_io_volume(rows: &[IoVolumeRow]) -> Result<(), String> {
    let [d, c] = rows else {
        return Err(format!("{} rows, expected dsort and csort", rows.len()));
    };
    let ratio = (c.bytes_read + c.bytes_written) as f64 / (d.bytes_read + d.bytes_written) as f64;
    if (ratio - IO_VOLUME_RATIO.0).abs() > IO_VOLUME_RATIO.1 {
        return Err(format!("csort/dsort disk bytes = {ratio:.3}"));
    }
    Ok(())
}

/// One input sorted by two programs: T4's dsort against csort, A1's dsort
/// against dsort-linear.
#[derive(Debug)]
pub struct PairRow {
    /// Distribution label.
    pub label: String,
    /// dsort's total time.
    pub dsort: Duration,
    /// The other program's total time on the same input.
    pub other: Duration,
}

impl PairRow {
    /// other / dsort: how many times faster dsort ran.
    pub fn speedup(&self) -> f64 {
        self.other.as_secs_f64() / self.dsort.as_secs_f64()
    }
}

/// T4: dsort and csort under adversarial key distributions (every node's
/// whole input bound for one other node; 90% of the keys identical).
pub fn run_unbalanced(scale: Scale) -> Result<Vec<PairRow>, SortError> {
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
        rows.push(PairRow {
            label: dist.label(),
            dsort: sorted(&cfg, provision(&cfg), run_dsort)?.total(),
            other: sorted(&cfg, provision(&cfg), run_csort)?.total,
        });
    }
    Ok(rows)
}

/// What [`check_unbalanced`] holds T4 to.
pub const UNBALANCED_CLAIM: &str = "dsort < csort on every adversarial input";

/// T4's claim: "even under these conditions, dsort fared well".
pub fn check_unbalanced(rows: &[PairRow]) -> Result<(), String> {
    match rows.iter().find(|r| r.dsort >= r.other) {
        Some(r) => Err(format!(
            "{}: dsort/csort = {:.3}",
            r.label,
            1.0 / r.speedup()
        )),
        None => Ok(()),
    }
}

/// A1: dsort (multiple pipelines) against dsort-linear (single linear
/// pipelines), on uniform keys and on the shifted adversarial input.
pub fn run_linear_ablation(scale: Scale) -> Result<Vec<PairRow>, SortError> {
    let mut rows = Vec::new();
    for dist in [KeyDist::Uniform, KeyDist::Shifted { shift: 1 }] {
        let cfg = scale.config(RecordFormat::REC16, dist);
        rows.push(PairRow {
            label: dist.label(),
            dsort: sorted(&cfg, provision(&cfg), run_dsort)?.total(),
            other: sorted(&cfg, provision(&cfg), run_dsort_linear)?.total(),
        });
    }
    Ok(rows)
}

/// dsort-linear's one synchronous `alltoallv` a round chains every node to
/// the slowest, a cost that grows with the node count — so the margin asked
/// of A1's rows (uniform, shifted) does too: measured 1.01× and 1.10× at 4
/// nodes, 1.34× and 2.04× at the paper's 16.
fn linear_margins(nodes: usize) -> [f64; 2] {
    if nodes >= 16 {
        [1.2, 1.5]
    } else {
        [0.95, 0.95]
    }
}
/// What [`check_linear_ablation`] holds A1 to.
pub const LINEAR_CLAIM: &str =
    "dsort-linear/dsort >= 1.2 uniform and >= 1.5 shifted at 16 nodes, >= 0.95 below";

/// A1's claim: multiple pipelines are never slower than single linear ones,
/// and clearly faster at the paper's node count.
pub fn check_linear_ablation(rows: &[PairRow], nodes: usize) -> Result<(), String> {
    if rows.len() != 2 {
        return Err(format!("{} rows, expected uniform and shifted", rows.len()));
    }
    for (r, margin) in rows.iter().zip(linear_margins(nodes)) {
        if r.speedup() < margin {
            return Err(format!(
                "{} at {nodes} nodes: dsort-linear/dsort = {:.3} < {margin}",
                r.label,
                r.speedup()
            ));
        }
    }
    Ok(())
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
        let arm = |virtual_reads| {
            let opts = DsortOptions {
                virtual_reads,
                ..DsortOptions::default()
            };
            sorted(&cfg, provision(&cfg), |cfg, disks| {
                run_dsort_with(cfg, disks, opts)
            })
        };
        let (v, p) = (arm(true)?, arm(false)?);
        rows.push(VirtualAblationRow {
            runs_per_node: v.runs_per_node[0],
            threads_virtual: v.pass2_threads[0],
            threads_plain: p.pass2_threads[0],
            time_virtual: v.total(),
            time_plain: p.total(),
        });
    }
    Ok(rows)
}

/// What [`check_virtual_ablation`] holds A2 to.
pub const VIRTUAL_CLAIM: &str = "threads constant with virtual reads, strictly increasing without";

/// A2's claim (§IV): virtual stages keep the thread count flat as the run
/// count grows; without them it grows by one thread a run (EXPERIMENTS A2).
pub fn check_virtual_ablation(rows: &[VirtualAblationRow]) -> Result<(), String> {
    if rows.len() < 2 {
        return Err(format!("{} rows, need two run counts", rows.len()));
    }
    for w in rows.windows(2) {
        let step = |arm, from: u64, to: u64| {
            let (few, many) = (w[0].runs_per_node, w[1].runs_per_node);
            Err(format!(
                "{arm} threads {from} -> {to} from {few} to {many} runs"
            ))
        };
        if w[1].threads_virtual != w[0].threads_virtual {
            return step("virtual", w[0].threads_virtual, w[1].threads_virtual);
        }
        if w[1].threads_plain <= w[0].threads_plain {
            return step("plain", w[0].threads_plain, w[1].threads_plain);
        }
    }
    Ok(())
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
        rows.push(BufferSweepRow {
            block_bytes: cfg.block_bytes,
            dsort_total: sorted(&cfg, provision(&cfg), run_dsort)?.total(),
            csort_total: sorted(&cfg, provision(&cfg), run_csort)?.total,
        });
    }
    Ok(rows)
}

/// A6: read-ahead depth — buffers per vertical pipeline in dsort pass 2.
/// With depth 1 the merge stage waits on every run read (nothing is read
/// ahead); deeper pools overlap run reads with merging, the dynamic
/// analogue of the regular, read-ahead-friendly I/O the paper credits
/// csort with (§I).
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
        let r = sorted(&cfg, provision(&cfg), run_dsort)?;
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
    /// Four-pass total.
    pub csort4_total: Duration,
    /// csort4/csort3 total-time ratio (expected ~4/3 when I/O-bound).
    pub ratio: f64,
    /// Disk I/O ratio (bytes moved), expected exactly ~4/3.
    pub io_ratio: f64,
}

/// Run the csort pass-count ablation.
pub fn run_csort_pass_ablation(scale: Scale) -> Result<CsortPassAblationRow, SortError> {
    let cfg = scale.config(RecordFormat::REC16, KeyDist::Uniform);
    let io = |stats: &[fg_pdm::DiskStats]| stats.iter().map(|s| s.bytes_total()).sum::<u64>();
    let c3 = sorted(&cfg, provision(&cfg), run_csort)?;
    let c4 = sorted(&cfg, provision(&cfg), fg_sort::csort4::run_csort4)?;
    Ok(CsortPassAblationRow {
        csort3_total: c3.total,
        csort4_total: c4.total,
        ratio: c4.total.as_secs_f64() / c3.total.as_secs_f64(),
        io_ratio: io(&c4.disk_stats) as f64 / io(&c3.disk_stats) as f64,
    })
}

/// Four passes over three, in bytes.
const PASSES_IO_RATIO: (f64, f64) = (4.0 / 3.0, 0.02);
/// The pass csort4 adds must cost time, not only bytes (measured 1.31–1.42).
const PASSES_TIME_RATIO: f64 = 1.15;
/// What [`check_csort_passes`] holds A5 to.
pub const PASSES_CLAIM: &str = "csort4/csort3 disk bytes = 1.33 +- 0.02 and time > 1.15";

/// A5's claim: coalescing steps 5–8 saves a pass of I/O and its time.
pub fn check_csort_passes(row: &CsortPassAblationRow) -> Result<(), String> {
    if (row.io_ratio - PASSES_IO_RATIO.0).abs() > PASSES_IO_RATIO.1 {
        return Err(format!("csort4/csort3 disk bytes = {:.3}", row.io_ratio));
    }
    if row.ratio <= PASSES_TIME_RATIO {
        return Err(format!("csort4/csort3 time = {:.3}", row.ratio));
    }
    Ok(())
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
        let r = sorted(&cfg, provision(&cfg), run_csort)?;
        rows.push(WorkersScalingRow {
            workers: w,
            pass: r.pass,
            total: r.total,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two wall times on a shared few-core host: a neighbour's burst can sink
    /// any single comparison, so a timing claim is about the best of three
    /// attempts.  The threshold is the claim and does not move.
    pub(crate) fn best_of_three(attempt: impl Fn() -> Result<(), String>) {
        let failures: Vec<String> = (0..3).map_while(|_| attempt().err()).collect();
        assert!(failures.len() < 3, "failed three times: {failures:?}");
    }

    /// A check fed rows that break its claim must say which and by how much.
    pub(crate) fn rejects(result: Result<(), String>, observed: &[&str]) {
        let err = result.expect_err("rows that break the claim");
        assert!(observed.iter().all(|o| err.contains(o)), "{err}");
    }

    const SMALL: Scale = Scale {
        nodes: 4,
        bytes_per_node: 64 << 10,
    };

    fn ms(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    fn cell(dist: KeyDist, dsort_ms: u64, csort_ms: u64) -> Fig8Cell {
        Fig8Cell {
            dist,
            dsort: [ms(0), ms(0), ms(dsort_ms)],
            csort: [ms(0), ms(0), ms(csort_ms)],
            observed: None,
        }
    }

    fn pair(label: &str, dsort_ms: u64, other_ms: u64) -> PairRow {
        PairRow {
            label: label.into(),
            dsort: ms(dsort_ms),
            other: ms(other_ms),
        }
    }

    #[test]
    fn ratio_band_rejects_a_cell_dsort_loses() {
        let won = cell(KeyDist::Uniform, 780, 1000);
        let lost = cell(KeyDist::Poisson, 1020, 1000);
        assert_eq!(check_ratio_band([&won]), Ok(()));
        rejects(check_ratio_band([&won, &lost]), &["poisson", "1.020"]);
        let too_easily = cell(KeyDist::AllEqual, 500, 1000);
        rejects(check_ratio_band([&too_easily]), &["all-equal", "0.500"]);
    }

    #[test]
    fn csort_flat_rejects_a_panel_that_depends_on_the_keys() {
        let panel = |slowest| {
            [
                cell(KeyDist::Uniform, 800, 1000),
                cell(KeyDist::StdNormal, 800, slowest),
            ]
        };
        assert_eq!(check_csort_flat(&panel(1050)), Ok(()));
        rejects(check_csort_flat(&panel(1300)), &["std-normal", "1.300"]);
    }

    #[test]
    fn io_volume_rejects_any_ratio_but_three_passes_over_two() {
        let row = |program, bytes| IoVolumeRow {
            program,
            bytes_read: bytes,
            bytes_written: bytes,
            net_bytes: 0,
        };
        assert_eq!(
            check_io_volume(&[row("dsort", 200), row("csort", 300)]),
            Ok(())
        );
        rejects(
            check_io_volume(&[row("dsort", 200), row("csort", 400)]),
            &["2.000"],
        );
    }

    #[test]
    fn unbalanced_rejects_an_input_csort_wins() {
        let rows = [pair("shifted-1", 740, 1000), pair("hotkey-90", 1020, 1000)];
        assert_eq!(check_unbalanced(&rows[..1]), Ok(()));
        rejects(check_unbalanced(&rows), &["hotkey-90", "1.020"]);
    }

    #[test]
    fn linear_ablation_asks_more_at_sixteen_nodes_than_at_four() {
        let rows = |uniform_ms, shifted_ms| {
            [
                pair("uniform", 1000, uniform_ms),
                pair("shifted-1", 1000, shifted_ms),
            ]
        };
        assert_eq!(check_linear_ablation(&rows(1010, 1100), 4), Ok(()));
        rejects(
            check_linear_ablation(&rows(900, 1100), 4),
            &["uniform", "0.900"],
        );
        assert_eq!(check_linear_ablation(&rows(1340, 2040), 16), Ok(()));
        rejects(
            check_linear_ablation(&rows(1010, 2040), 16),
            &["uniform", "1.010"],
        );
        rejects(
            check_linear_ablation(&rows(1340, 1400), 16),
            &["shifted-1", "1.400"],
        );
    }

    #[test]
    fn virtual_ablation_rejects_threads_that_grow_under_virtual_reads() {
        let row = |runs, threads_virtual, threads_plain| VirtualAblationRow {
            runs_per_node: runs,
            threads_virtual,
            threads_plain,
            time_virtual: ms(0),
            time_plain: ms(0),
        };
        assert_eq!(
            check_virtual_ablation(&[row(5, 11, 23), row(9, 11, 35)]),
            Ok(())
        );
        let grew = check_virtual_ablation(&[row(5, 11, 23), row(9, 14, 35)]);
        rejects(grew, &["virtual threads 11 -> 14"]);
        let flat = check_virtual_ablation(&[row(5, 11, 23), row(9, 11, 23)]);
        rejects(flat, &["plain threads 23 -> 23"]);
    }

    #[test]
    fn csort_passes_rejects_a_fourth_pass_that_is_free() {
        let row = |ratio, io_ratio| CsortPassAblationRow {
            csort3_total: ms(1000),
            csort4_total: Duration::from_secs_f64(ratio),
            ratio,
            io_ratio,
        };
        assert_eq!(check_csort_passes(&row(1.31, 1.333)), Ok(()));
        rejects(check_csort_passes(&row(1.31, 1.5)), &["disk bytes = 1.500"]);
        rejects(check_csort_passes(&row(1.05, 1.333)), &["time = 1.050"]);
    }

    // The deterministic claims, exactly, at a scale of a second or two of
    // simulated I/O (A5's byte ratio is fg-sort's
    // `csort4_does_more_io_than_csort3`).

    #[test]
    fn csort_moves_half_again_dsorts_bytes() {
        let rows = run_io_volume(SMALL).unwrap();
        assert_eq!(check_io_volume(&rows), Ok(()));
        let (d, c) = (&rows[0], &rows[1]);
        assert_eq!(c.bytes_written * 2, d.bytes_written * 3, "3 passes to 2");
        assert_eq!(c.bytes_read, c.bytes_written);
        let sampling = d.bytes_read - d.bytes_written;
        assert!(sampling > 0 && sampling < d.bytes_written / 50, "{rows:?}");
    }

    #[test]
    fn virtual_stages_hold_the_thread_count() {
        // At this scale the plan affords one run a node with 64 KiB of
        // vertical buffer and four with 1 KiB.
        let rows = run_virtual_ablation(SMALL, &[64 << 10, 1 << 10]).unwrap();
        assert_eq!(check_virtual_ablation(&rows), Ok(()));
        for r in &rows {
            assert_eq!(r.threads_virtual, 5, "{rows:?}");
            assert_eq!(r.threads_plain, 4 + r.runs_per_node, "{rows:?}");
        }
    }

    // T1's timing claim on one cell.

    #[test]
    fn dsort_wins_a_uniform_cell_by_the_papers_margin() {
        best_of_three(|| {
            let cell = run_fig8_cell(SMALL, RecordFormat::REC16, KeyDist::Uniform, None).unwrap();
            check_ratio_band([&cell])
        });
    }
}
