//! Launching a simulated cluster: one OS thread per node, message-passing
//! only.
//!
//! The paper's platform is "a distributed-memory cluster in which each node
//! can run multiple threads" (§I).  [`Cluster::run`] reproduces that: the
//! node function receives a [`NodeCtx`] with its rank and communicator and
//! typically builds FG [`Program`](fg_core::Program)s that spawn the node's
//! stage threads.  Nodes share nothing except the communicator (enforced by
//! `Send` bounds and the absence of any other shared handle in the API).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use fg_core::metrics::{MetricsRegistry, MetricsSnapshot};
use fg_core::TraceSink;

use crate::comm::Communicator;
use crate::cost::NetCfg;
use crate::fabric::{Fabric, NodeTraffic, PayloadStats};
use crate::{ClusterError, CommError};

/// Cluster-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterCfg {
    /// Number of nodes (`P` in the paper).
    pub nodes: usize,
    /// Interconnect cost model.
    pub net: NetCfg,
}

impl ClusterCfg {
    /// A free-network cluster of `nodes` nodes (for tests).
    pub fn zero_cost(nodes: usize) -> Self {
        ClusterCfg {
            nodes,
            net: NetCfg::zero(),
        }
    }
}

/// Observability wiring for a cluster run: one metrics registry **per
/// rank** (the shape a real distributed deployment has — each process owns
/// its registry and ships snapshots home) and an optional shared trace
/// sink whose rings are tagged with each rank's track group.
#[derive(Clone)]
pub struct ClusterObs {
    /// Per-rank registries, indexed by rank; must match the cluster size.
    pub registries: Vec<Arc<MetricsRegistry>>,
    /// Span recording for communicator sends/recvs/collectives, and for
    /// node functions to install on their FG programs (via
    /// [`NodeCtx::trace`]).
    pub trace: Option<Arc<TraceSink>>,
}

impl ClusterObs {
    /// Fresh per-rank registries for a cluster of `nodes`, no tracing.
    pub fn per_node(nodes: usize) -> ClusterObs {
        ClusterObs {
            registries: (0..nodes)
                .map(|_| Arc::new(MetricsRegistry::new()))
                .collect(),
            trace: None,
        }
    }

    /// Attach a trace sink (builder style).
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> ClusterObs {
        self.trace = Some(sink);
        self
    }
}

/// Everything a node function gets: identity, connectivity, and (when the
/// run is observed) its observability handles.
pub struct NodeCtx {
    comm: Communicator,
    registry: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<TraceSink>>,
}

impl NodeCtx {
    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.comm.nodes()
    }

    /// The node's communicator (clone it into stages freely).
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// This node's metrics registry, when launched with
    /// [`Cluster::run_observed`] — install it on the node's FG programs so
    /// stage metrics land next to the rank's `comm/*` metrics.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// The cluster's trace sink, when the run is observed with tracing —
    /// install it on the node's FG programs (with
    /// [`Program::set_trace_group`](fg_core::Program::set_trace_group) set
    /// to this rank) so pipeline spans join the comm spans in one export.
    pub fn trace(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }
}

/// Result of a cluster run: each node's return value plus traffic stats.
#[derive(Debug)]
pub struct ClusterRun<R> {
    /// Per-node results, indexed by rank.
    pub results: Vec<R>,
    /// Per-node traffic counters, indexed by rank.
    pub traffic: Vec<NodeTraffic>,
    /// Per-node payload pools as the run left them, indexed by rank:
    /// `high_water` never exceeds `population`, and `outstanding` is zero
    /// unless a payload leaked.
    pub payloads: Vec<PayloadStats>,
    /// Snapshot of the communication metrics (`comm/…` names), when the
    /// run was launched with [`Cluster::run_with_metrics`] or
    /// [`Cluster::run_observed`]; empty otherwise.  For observed runs this
    /// is the union of the per-rank snapshots (lossless: every `comm/*`
    /// name is rank-qualified).  Merge it into an FG
    /// [`Report`](fg_core::Report)'s metrics to render one dashboard.
    pub metrics: MetricsSnapshot,
    /// Per-rank registry snapshots when launched with
    /// [`Cluster::run_observed`]; empty otherwise.
    pub node_metrics: Vec<MetricsSnapshot>,
}

/// A simulated distributed-memory cluster.
pub struct Cluster;

impl Cluster {
    /// Run `f` on every node of a fresh cluster and collect the results.
    ///
    /// If any node returns an error or panics, the fabric is poisoned so
    /// blocked receives on other nodes fail promptly, and the first error
    /// is returned.
    pub fn run<R, F>(cfg: ClusterCfg, f: F) -> Result<ClusterRun<R>, ClusterError>
    where
        R: Send + 'static,
        F: Fn(NodeCtx) -> Result<R, ClusterError> + Send + Sync + 'static,
    {
        Self::launch(cfg, Launch::Plain, f)
    }

    /// Like [`Cluster::run`], but every node's communicator records per-peer
    /// byte/message counters and collective latency histograms into
    /// `registry` (under `comm/…` names); the returned
    /// [`ClusterRun::metrics`] carries the final snapshot.
    pub fn run_with_metrics<R, F>(
        cfg: ClusterCfg,
        registry: Arc<MetricsRegistry>,
        f: F,
    ) -> Result<ClusterRun<R>, ClusterError>
    where
        R: Send + 'static,
        F: Fn(NodeCtx) -> Result<R, ClusterError> + Send + Sync + 'static,
    {
        Self::launch(cfg, Launch::Shared(registry), f)
    }

    /// Like [`Cluster::run`], but with full per-node observability: each
    /// rank's communicator records into *its own* registry from
    /// `obs.registries`, and when `obs.trace` is set, sends/recvs and
    /// collectives record spans into a per-rank `node{rank}/comm` ring
    /// (grouped per node in the Chrome export).  Node functions see their
    /// handles via [`NodeCtx::registry`] / [`NodeCtx::trace`].  The
    /// returned [`ClusterRun::node_metrics`] holds one snapshot per rank.
    pub fn run_observed<R, F>(
        cfg: ClusterCfg,
        obs: ClusterObs,
        f: F,
    ) -> Result<ClusterRun<R>, ClusterError>
    where
        R: Send + 'static,
        F: Fn(NodeCtx) -> Result<R, ClusterError> + Send + Sync + 'static,
    {
        if obs.registries.len() != cfg.nodes {
            return Err(ClusterError::Config(format!(
                "ClusterObs has {} registries for {} nodes",
                obs.registries.len(),
                cfg.nodes
            )));
        }
        Self::launch(cfg, Launch::Observed(obs), f)
    }

    fn launch<R, F>(cfg: ClusterCfg, launch: Launch, f: F) -> Result<ClusterRun<R>, ClusterError>
    where
        R: Send + 'static,
        F: Fn(NodeCtx) -> Result<R, ClusterError> + Send + Sync + 'static,
    {
        if cfg.nodes == 0 {
            return Err(ClusterError::Config(
                "cluster needs at least one node".into(),
            ));
        }
        let fabric = Fabric::new(cfg.nodes, cfg.net);
        let f = Arc::new(f);

        let mut handles = Vec::with_capacity(cfg.nodes);
        for rank in 0..cfg.nodes {
            let fabric = Arc::clone(&fabric);
            let f = Arc::clone(&f);
            let launch = launch.clone();
            let handle = std::thread::Builder::new()
                .name(format!("node{rank}"))
                .spawn(move || {
                    let (comm, registry, trace) = match &launch {
                        Launch::Plain => (Communicator::new(Arc::clone(&fabric), rank), None, None),
                        Launch::Shared(reg) => (
                            Communicator::with_metrics(Arc::clone(&fabric), rank, reg),
                            None,
                            None,
                        ),
                        Launch::Observed(obs) => {
                            let reg = &obs.registries[rank];
                            let mut comm =
                                Communicator::with_metrics(Arc::clone(&fabric), rank, reg);
                            if let Some(sink) = &obs.trace {
                                comm.attach_trace(sink);
                            }
                            (comm, Some(Arc::clone(reg)), obs.trace.clone())
                        }
                    };
                    let ctx = NodeCtx {
                        comm,
                        registry,
                        trace,
                    };
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(ctx)));
                    match outcome {
                        Ok(Ok(r)) => Ok(r),
                        Ok(Err(e)) => {
                            fabric.poison();
                            Err(e)
                        }
                        Err(payload) => {
                            fabric.poison();
                            let message = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "<non-string panic payload>".into());
                            Err(ClusterError::NodePanic { rank, message })
                        }
                    }
                })
                .map_err(|e| ClusterError::Config(format!("failed to spawn node: {e}")))?;
            handles.push(handle);
        }

        let mut results = Vec::with_capacity(cfg.nodes);
        let mut first_err: Option<ClusterError> = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(r)) => results.push(Some(r)),
                Ok(Err(e)) => {
                    results.push(None);
                    // Prefer a root-cause error over secondary ones (nodes
                    // that merely observed the poisoned fabric or their FG
                    // program being cancelled).
                    if first_err.is_none()
                        || (!is_secondary_err(&e)
                            && first_err.as_ref().map(is_secondary_err).unwrap_or(false))
                    {
                        first_err = Some(e);
                    }
                }
                Err(_) => {
                    results.push(None);
                    if first_err.is_none() {
                        first_err =
                            Some(ClusterError::Config("node thread wrapper panicked".into()));
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let traffic = (0..cfg.nodes).map(|n| fabric.traffic(n)).collect();
        let payloads = (0..cfg.nodes).map(|n| fabric.payload_stats(n)).collect();
        let (metrics, node_metrics) = match launch {
            Launch::Plain => (MetricsSnapshot::default(), Vec::new()),
            Launch::Shared(reg) => (reg.snapshot(), Vec::new()),
            Launch::Observed(obs) => {
                let node_metrics: Vec<MetricsSnapshot> =
                    obs.registries.iter().map(|r| r.snapshot()).collect();
                // Per-rank names are disjoint, so the union loses nothing.
                let mut merged = MetricsSnapshot::default();
                for snap in &node_metrics {
                    merged.merge(snap);
                }
                (merged, node_metrics)
            }
        };
        Ok(ClusterRun {
            results: results.into_iter().map(|r| r.expect("no error")).collect(),
            traffic,
            payloads,
            metrics,
            node_metrics,
        })
    }
}

/// How a cluster run wires observability into its nodes.
#[derive(Clone)]
enum Launch {
    /// No metrics, no tracing.
    Plain,
    /// One shared registry for every rank (the pre-cluster-report shape;
    /// still lossless because all `comm/*` names are rank-qualified).
    Shared(Arc<MetricsRegistry>),
    /// Per-rank registries and optional tracing.
    Observed(ClusterObs),
}

/// Whether an error is a downstream symptom of another node's failure
/// rather than a root cause.
fn is_secondary_err(e: &ClusterError) -> bool {
    match e {
        ClusterError::Comm(CommError::Poisoned) => true,
        ClusterError::Node { message, .. } | ClusterError::NodePanic { message, .. } => {
            message.contains("poisoned") || message.contains("cancelled")
        }
        _ => false,
    }
}
