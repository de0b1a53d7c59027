//! dsort: the paper's two-pass out-of-core distribution sort (§V).
//!
//! Phases, per node, with cluster-wide barriers and max-reductions around
//! each so reported times match the paper's per-pass accounting:
//!
//! 1. **Sampling** (preprocessing): select `P−1` splitters by oversampling
//!    with extended keys ([`sampling`]).
//! 2. **Pass 1**: partition and distribute — disjoint send/receive FG
//!    pipelines ([`pass1`]); each node ends with sorted runs on disk, as
//!    long as its pool budget allows ([`plan`]).
//! 3. **Pass 2**: merge runs (intersecting pipelines, virtual read stages),
//!    load-balance, and stripe the output ([`pass2`]).

pub mod pass1;
pub mod pass2;
pub mod plan;
pub mod sampling;

use std::sync::Arc;
use std::time::Duration;

use fg_cluster::PayloadStats;
use fg_core::cluster_report::{ClusterReport, RankReport};
use fg_core::metrics::{MetricsRegistry, MetricsSnapshot};
use fg_pdm::{DiskRef, DiskStats};

use crate::config::SortConfig;
use crate::driver;
use crate::SortError;

/// Timings and counters from one dsort run.
#[derive(Debug, Clone)]
pub struct DsortReport {
    /// Max-across-nodes wall time of the sampling phase.
    pub sampling: Duration,
    /// Max-across-nodes wall time of pass 1.
    pub pass1: Duration,
    /// Max-across-nodes wall time of pass 2.
    pub pass2: Duration,
    /// Records each node's partition received (T2's balance data).
    pub partition_records: Vec<u64>,
    /// Sorted runs each node merged in pass 2.
    pub runs_per_node: Vec<u64>,
    /// Bytes in each of those runs but a node's last
    /// ([`plan::run_len`]).
    pub run_len: usize,
    /// OS threads each node's pass-2 FG program spawned (A2's data).
    pub pass2_threads: Vec<u64>,
    /// Per-node disk stats accumulated over the whole run.
    pub disk_stats: Vec<DiskStats>,
    /// Per-node bytes sent over the interconnect.
    pub bytes_sent: Vec<u64>,
    /// Per-node payload pools as the run left them: how many message
    /// buffers each node owns and the most it ever had in flight.
    pub payloads: Vec<PayloadStats>,
    /// Node 0's FG reports for both passes (with spans when
    /// `SortConfig::trace_sink` was set) — render with
    /// [`fg_core::Report::render_gantt`].
    pub node0_reports: Option<(fg_core::Report, fg_core::Report)>,
    /// Snapshot of the metrics registry passed via
    /// [`DsortOptions::metrics`] (`comm/…` traffic and collective
    /// latencies, plus `disk/…` I/O when the disks were provisioned with
    /// [`provision_with_metrics`](crate::input::provision_with_metrics));
    /// empty when no registry was attached.
    pub metrics: MetricsSnapshot,
    /// The merged cluster report (every rank's FG reports, wall time, and
    /// registry snapshot) when the run was launched with
    /// [`DsortOptions::observe`]; feed it to
    /// [`fg_core::diagnose_cluster`] for each rank's diagnosis and exchange skew.
    pub cluster: Option<ClusterReport>,
    /// `(phase, max-across-nodes wall time)` in run order: `sampling`,
    /// `pass1` and `pass2` by name, then `sync`.
    pub phases: Vec<(&'static str, Duration)>,
}

impl DsortReport {
    /// Total wall time: every phase, `sync` included.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|p| p.1).sum()
    }
}

/// Options tweaking dsort's structure (for ablations) and instrumentation.
#[derive(Debug, Clone)]
pub struct DsortOptions {
    /// Use virtual vertical read stages in pass 2 (the default).  Disabled
    /// by ablation A2 to measure the thread explosion virtual stages avoid.
    pub virtual_reads: bool,
    /// When set, every node's communicator records per-peer traffic and
    /// collective latencies into this registry, and
    /// [`DsortReport::metrics`] carries the final snapshot.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Full per-node observability: each rank gets its *own* metrics
    /// registry (its FG programs and communicator record into it), every
    /// rank's FG reports are collected, and [`DsortReport::cluster`]
    /// carries the merged [`ClusterReport`].  When the config also sets a
    /// `trace_sink`, each rank's spans land in that rank's track group and
    /// sends carry their buffer's trace id across the wire.  Supersedes
    /// [`DsortOptions::metrics`] when both are set.
    pub observe: bool,
}

impl Default for DsortOptions {
    fn default() -> Self {
        DsortOptions {
            virtual_reads: true,
            metrics: None,
            observe: false,
        }
    }
}

/// Run dsort on the provisioned `disks`; leaves striped output in
/// `output` on every disk.
pub fn run_dsort(cfg: &SortConfig, disks: &[DiskRef]) -> Result<DsortReport, SortError> {
    run_dsort_with(cfg, disks, DsortOptions::default())
}

/// [`run_dsort`] with explicit structural options.
pub fn run_dsort_with(
    cfg: &SortConfig,
    disks: &[DiskRef],
    opts: DsortOptions,
) -> Result<DsortReport, SortError> {
    let virtual_reads = opts.virtual_reads;
    let run = driver::launch_observed(cfg, disks, opts.metrics, opts.observe, move |node| {
        let splitters = node.phase("sampling", |node| sampling::select_splitters(node))?;
        let run_len = plan::run_len(&node.cfg);
        let run_lens = node.phase("pass 1", |node| pass1::pass1(node, &splitters, run_len))?;
        // Pass 2: merge, load-balance, stripe.  The exchange of partition
        // sizes (needed for global rank offsets) is part of the pass.
        let (partitions, threads) = node.phase("pass 2", |node| {
            let received = run_lens.iter().sum::<u64>() / node.cfg.record.record_bytes as u64;
            let partitions = node.comm.allgather_u64(received)?;
            let rank_offset: u64 = partitions[..node.rank].iter().sum(); // records
            let threads = pass2::pass2(node, &run_lens, rank_offset, virtual_reads)?;
            Ok((partitions, threads))
        })?;
        let runs = node.comm.allgather_u64(run_lens.len() as u64)?;
        let threads = node.comm.allgather_u64(threads as u64)?;
        Ok((partitions, runs, threads))
    })?;

    let [sampling, pass1, pass2] = run.times();
    let node0 = &run.ranks[0];
    let (partition_records, runs_per_node, pass2_threads) = node0.out.clone();
    let node0_reports = match &node0.reports[..] {
        [p1, p2] => Some((p1.clone(), p2.clone())),
        _ => None,
    };
    // Every rank's reports, wall time and registry, merged.
    let cluster = opts.observe.then(|| {
        let mut cr = ClusterReport::new(cfg.nodes);
        for (rank, (out, metrics)) in run.ranks.into_iter().zip(run.node_metrics).enumerate() {
            cr.push(RankReport {
                rank,
                wall: out.wall,
                reports: out.reports,
                metrics,
            });
        }
        cr
    });
    Ok(DsortReport {
        sampling,
        pass1,
        pass2,
        partition_records,
        runs_per_node,
        run_len: plan::run_len(cfg),
        pass2_threads,
        disk_stats: run.disk_stats,
        bytes_sent: run.bytes_sent,
        payloads: run.payloads,
        node0_reports,
        metrics: run.metrics,
        cluster,
        phases: run.phases,
    })
}
