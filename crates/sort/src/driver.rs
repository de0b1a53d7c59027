//! The cluster driver: what every program's `run_*` does around its passes.
//!
//! [`launch`] checks the configuration and the disks, starts the simulated
//! cluster and hands each rank's node function a [`Node`]: the rank's
//! config, communicator and disk, and the only way to make
//! ([`Node::program`]), run ([`Node::run`]) and time ([`Node::phase`]) an FG
//! program.  A program is then a list of phases over one `Node`, and every
//! program is instrumented, landed, timed and reported the same way because
//! there is no second way to do any of it.
//! A pass ends when its writes have landed ([`Node::run`]); a run ends
//! durable, each rank's disk flushed once in a last phase named `sync`; and
//! a scratch file is deleted by the pass that reads it last, so it is never
//! made durable at all.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_cluster::{
    Cluster, ClusterCfg, ClusterError, ClusterObs, Communicator, NodeCtx, PayloadStats,
};
use fg_core::metrics::{MetricsRegistry, MetricsSnapshot};
use fg_core::{Program, Report};
use fg_pdm::{DiskRef, DiskStats};

use crate::config::SortConfig;
use crate::SortError;

/// One rank of a running program.
pub struct Node {
    /// This rank's configuration: the run's, with the rank as its Chrome-trace
    /// track group and — in an observed run — the rank's own registry.
    pub cfg: SortConfig,
    /// This node's rank.
    pub rank: usize,
    /// This node's communicator.
    pub comm: Communicator,
    /// This node's disk.
    pub disk: DiskRef,
    phases: Vec<(&'static str, Duration)>,
    reports: Vec<Report>,
}

impl Node {
    /// A new FG program named `{name}-n{rank}`, instrumented as the config
    /// asks ([`SortConfig::instrument`]): trace sink, watchdog, registry,
    /// track group, pinning, ledger.
    pub fn program(&self, name: &str) -> Program {
        let mut prog = Program::new(format!("{name}-n{}", self.rank));
        self.cfg.instrument(&mut prog);
        prog
    }

    /// [`Node::program`] plus, when the config sets `autotune`, the
    /// closed-loop controller.  A program that declares worker farms sizes
    /// them with [`SortConfig::farm_capacity`] so the controller has
    /// headroom to grow into.
    pub fn tuned_program(&self, name: &str) -> Program {
        let mut prog = self.program(name);
        if let Some(controller) = &self.cfg.autotune {
            // The controller observes through the program's registry; give
            // the program a private one if the run didn't share any.
            if self.cfg.metrics.is_none() {
                prog.set_metrics(Arc::new(MetricsRegistry::new()));
            }
            prog.set_controller(controller.clone());
        }
        prog
    }

    /// Run `prog`, then land the disk's writes: the next phase reads what
    /// this one wrote, so any write-behind must land, and surface its
    /// deferred errors, here.  The report joins the ones the run returns;
    /// the pass may read it first.
    pub fn run(&mut self, prog: Program) -> Result<&Report, SortError> {
        let report = prog.run()?;
        self.disk.land()?;
        self.reports.push(report);
        Ok(self.reports.last().expect("just pushed"))
    }

    /// Run `f` as the phase `name`: every rank enters and leaves it behind a
    /// barrier, and its time is the slowest rank's
    /// ([`Communicator::timed`]).
    pub fn phase<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Node) -> Result<T, SortError>,
    ) -> Result<T, SortError> {
        let comm = self.comm.clone();
        let (out, time) = comm.timed(|| f(self))?;
        self.phases.push((name, time));
        Ok(out)
    }
}

/// What one rank's node function left behind.
#[derive(Debug)]
pub struct RankOut<T> {
    /// The node function's result.
    pub out: T,
    /// The report of every FG program the rank ran, in order.
    pub reports: Vec<Report>,
    /// The rank's wall time, its `sync` included.
    pub wall: Duration,
}

/// A finished run.
#[derive(Debug)]
pub struct Run<T> {
    /// `(phase, wall time of its slowest rank)`, in run order; `sync` last.
    pub phases: Vec<(&'static str, Duration)>,
    /// Per rank: result, FG reports, wall time.
    pub ranks: Vec<RankOut<T>>,
    /// Per-node disk stats accumulated over the whole run.
    pub disk_stats: Vec<DiskStats>,
    /// Per-node bytes sent over the interconnect.
    pub bytes_sent: Vec<u64>,
    /// Per-node payload pools as the run left them.
    pub payloads: Vec<PayloadStats>,
    /// The communicators' `comm/…` metrics when the run had a registry for
    /// them (the union of the per-rank ones when observed); empty otherwise.
    pub metrics: MetricsSnapshot,
    /// Per-rank registry snapshots of an observed run; empty otherwise.
    pub node_metrics: Vec<MetricsSnapshot>,
}

impl<T> Run<T> {
    /// The first `N` phase times.
    pub fn times<const N: usize>(&self) -> [Duration; N] {
        std::array::from_fn(|i| self.phases[i].1)
    }

    /// Rank 0's FG reports, moved out.
    pub fn take_node0_reports(&mut self) -> Vec<Report> {
        std::mem::take(&mut self.ranks[0].reports)
    }
}

/// Run `node_fn` on every rank of a fresh cluster, one disk a rank.  An
/// invalid config or a wrong disk count is refused before any thread
/// exists; a rank that fails ends every rank's run with its error.
pub fn launch<T: Send + 'static>(
    cfg: &SortConfig,
    disks: &[DiskRef],
    node_fn: impl Fn(&mut Node) -> Result<T, SortError> + Send + Sync + 'static,
) -> Result<Run<T>, SortError> {
    launch_observed(cfg, disks, None, false, node_fn)
}

/// [`launch`] with the communicators observed: `comm_metrics` has every
/// rank's communicator record its traffic and collective latencies there;
/// `per_rank` instead gives each rank a registry of its own for its
/// communicator *and* its FG programs ([`Run::node_metrics`]), and — when
/// the config has a trace sink — a `node{rank}/comm` span ring.
pub fn launch_observed<T: Send + 'static>(
    cfg: &SortConfig,
    disks: &[DiskRef],
    comm_metrics: Option<Arc<MetricsRegistry>>,
    per_rank: bool,
    node_fn: impl Fn(&mut Node) -> Result<T, SortError> + Send + Sync + 'static,
) -> Result<Run<T>, SortError> {
    cfg.validate()?;
    if disks.len() != cfg.nodes {
        return Err(SortError::Config(format!(
            "need {} disks, got {}",
            cfg.nodes,
            disks.len()
        )));
    }
    let cluster = ClusterCfg {
        nodes: cfg.nodes,
        net: cfg.net,
    };
    let (run_cfg, run_disks) = (cfg.clone(), disks.to_vec());
    let on_rank = move |ctx: NodeCtx| -> Result<_, ClusterError> {
        let start = Instant::now();
        let rank = ctx.rank();
        let mut cfg = run_cfg.clone();
        cfg.trace_group = Some(rank as u32);
        if per_rank {
            cfg.metrics = ctx.registry().cloned();
        }
        let mut node = Node {
            cfg,
            rank,
            comm: ctx.comm().clone(),
            disk: Arc::clone(&run_disks[rank]),
            phases: Vec::new(),
            reports: Vec::new(),
        };
        let out = node_fn(&mut node)?;
        node.phase("sync", |node| Ok(node.disk.flush()?))?;
        let rank_out = RankOut {
            out,
            reports: node.reports,
            wall: start.elapsed(),
        };
        Ok((node.phases, rank_out))
    };
    let run = match (per_rank, comm_metrics) {
        (true, _) => {
            let mut obs = ClusterObs::per_node(cfg.nodes);
            if let Some(sink) = &cfg.trace_sink {
                obs = obs.with_trace(Arc::clone(sink));
            }
            Cluster::run_observed(cluster, obs, on_rank)
        }
        (false, Some(registry)) => Cluster::run_with_metrics(cluster, registry, on_rank),
        (false, None) => Cluster::run(cluster, on_rank),
    }
    .map_err(|e| SortError::Comm(e.to_string()))?;

    let (mut phases, ranks): (Vec<_>, Vec<_>) = run.results.into_iter().unzip();
    Ok(Run {
        phases: phases.swap_remove(0), // the same list on every rank
        ranks,
        disk_stats: disks.iter().map(|d| d.stats()).collect(),
        bytes_sent: run.traffic.iter().map(|t| t.bytes_sent).collect(),
        payloads: run.payloads,
        metrics: run.metrics,
        node_metrics: run.node_metrics,
    })
}
