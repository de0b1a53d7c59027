//! The unbalanced-communication experiment, observed (Figure 4 + §IV).
//!
//! Promotes `examples/unbalanced_comm.rs` into a checked experiment.  Each
//! node of a simulated cluster runs two disjoint FG pipelines — a *send*
//! pipeline scattering locally generated blocks to data-dependent
//! destinations and a *receive* pipeline collecting whatever arrives — with
//! the destinations skewed so rank 0 receives ~70% of all traffic.  The run
//! executes under full cluster observability ([`Cluster::run_observed`]
//! with per-rank registries), folds the per-node telemetry into a
//! [`ClusterReport`], and asks [`diagnose_cluster`] for a verdict.  The
//! acceptance criterion is that the diagnosis *names rank 0* as the hot
//! receiver of a skewed exchange — the observability stack detecting, from
//! metrics alone, the imbalance this program was built to exhibit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fg_cluster::{Cluster, ClusterCfg, ClusterError, ClusterObs, CommError};
use fg_core::cluster_report::{ClusterReport, RankReport};
use fg_core::{
    diagnose_cluster, map_stage, ClusterDiagnosis, FgError, PipelineCfg, Program, Rounds, Stage,
    StageCtx, TraceSink,
};

const BLOCK_BYTES: usize = 4096;
const TAG: u64 = 9;
const MSG_DATA: u8 = 0;
const MSG_DONE: u8 = 1;

/// Outcome of one observed skewed-scatter run.
#[derive(Debug)]
pub struct UnbalancedCommResult {
    /// Blocks each rank received (rank 0 should hold ~70% of the total).
    pub received: Vec<u64>,
    /// Per-node telemetry merged across the cluster.
    pub report: ClusterReport,
    /// The comm-aware verdict over `report`; [`check`] reads its `hot_rank`.
    pub diagnosis: ClusterDiagnosis,
}

/// Run the skewed scatter on `nodes` simulated nodes, each sending
/// `blocks_per_node` 4 KiB blocks — 70% to rank 0, the rest round-robin.
/// When `trace` is set, pipeline and communication spans land in it,
/// grouped per node for the Chrome export.
pub fn run_unbalanced_comm(
    nodes: usize,
    blocks_per_node: u64,
    trace: Option<Arc<TraceSink>>,
) -> Result<UnbalancedCommResult, ClusterError> {
    let mut obs = ClusterObs::per_node(nodes);
    if let Some(sink) = &trace {
        obs = obs.with_trace(Arc::clone(sink));
    }
    let run = Cluster::run_observed(ClusterCfg::zero_cost(nodes), obs, move |node| {
        let wall_start = Instant::now();
        let rank = node.rank();
        let nodes = node.nodes();
        let comm = node.comm().clone();

        let mut prog = Program::new(format!("node{rank}"));
        if let Some(registry) = node.registry() {
            prog.set_metrics(Arc::clone(registry));
        }
        if let Some(sink) = node.trace() {
            prog.set_trace_sink(Arc::clone(sink));
            prog.set_trace_group(rank as u32);
        }

        // --- send pipeline: acquire -> send ---
        let acquire = prog.add_stage(
            "acquire",
            map_stage(move |buf, _ctx| {
                let round = buf.round();
                for (i, b) in buf.space_mut().iter_mut().enumerate() {
                    *b = ((round as usize * 31 + i * 7) % 251) as u8;
                }
                buf.fill_to_capacity();
                Ok(())
            }),
        );
        let comm_tx = comm.clone();
        let send = prog.add_stage(
            "send",
            Box::new(move |ctx: &mut StageCtx| {
                while let Some(buf) = ctx.accept()? {
                    // Destination skew: 70% of every node's blocks go to
                    // rank 0 (the hot receiver); the rest round-robin.
                    let dest = if buf.round() % 10 < 7 {
                        0
                    } else {
                        (rank + 1 + buf.round() as usize) % nodes
                    };
                    let mut payload = Vec::with_capacity(1 + buf.len());
                    payload.push(MSG_DATA);
                    payload.extend_from_slice(buf.filled());
                    comm_tx
                        .send_traced(dest, TAG, payload, buf.trace_id())
                        .map_err(to_fg)?;
                    ctx.convey(buf)?;
                }
                for dst in 0..nodes {
                    comm_tx.send(dst, TAG, vec![MSG_DONE]).map_err(to_fg)?;
                }
                Ok(())
            }) as Box<dyn Stage>,
        );

        // --- receive pipeline: receive -> save ---
        let comm_rx = comm.clone();
        let receive = prog.add_stage(
            "receive",
            Box::new(move |ctx: &mut StageCtx| {
                let pid = ctx.pipelines().next().expect("receive pipeline");
                let mut dones = 0;
                let mut received = 0u64;
                while dones < nodes {
                    let mut buf = match ctx.accept()? {
                        Some(b) => b,
                        None => return Ok(()),
                    };
                    buf.clear();
                    while dones < nodes && buf.remaining() >= BLOCK_BYTES {
                        let msg = comm_rx.recv(None, TAG).map_err(to_fg)?;
                        match msg.payload[0] {
                            MSG_DONE => dones += 1,
                            _ => {
                                buf.append(&msg.payload[1..]);
                                received += 1;
                            }
                        }
                    }
                    buf.meta = received;
                    if buf.is_empty() {
                        ctx.discard(buf)?;
                    } else {
                        ctx.convey(buf)?;
                    }
                }
                ctx.stop(pid)?;
                Ok(())
            }) as Box<dyn Stage>,
        );
        let saved = Arc::new(AtomicU64::new(0));
        let saved2 = Arc::clone(&saved);
        let save = prog.add_stage(
            "save",
            map_stage(move |buf, _ctx| {
                saved2.fetch_add((buf.len() / BLOCK_BYTES) as u64, Ordering::Relaxed);
                Ok(())
            }),
        );

        let node_err = |rank: usize| {
            move |e: FgError| ClusterError::Node {
                rank,
                message: e.to_string(),
            }
        };
        prog.add_pipeline(
            PipelineCfg::new("send", 4, BLOCK_BYTES).rounds(Rounds::Count(blocks_per_node)),
            &[acquire, send],
        )
        .map_err(node_err(rank))?;
        prog.add_pipeline(
            PipelineCfg::new("recv", 2, 4 * BLOCK_BYTES).rounds(Rounds::UntilStopped),
            &[receive, save],
        )
        .map_err(node_err(rank))?;

        let report = prog.run().map_err(node_err(rank))?;
        Ok((saved.load(Ordering::Relaxed), report, wall_start.elapsed()))
    })?;

    let mut cluster = ClusterReport::new(nodes);
    let mut received = Vec::with_capacity(nodes);
    for (rank, (blocks, report, wall)) in run.results.into_iter().enumerate() {
        received.push(blocks);
        cluster.push(RankReport {
            rank,
            wall,
            reports: vec![report],
            metrics: run.node_metrics.get(rank).cloned().unwrap_or_default(),
        });
    }
    let diagnosis = diagnose_cluster(&cluster);
    Ok(UnbalancedCommResult {
        received,
        report: cluster,
        diagnosis,
    })
}

/// What [`check`] holds the skewed scatter to.
pub const CLAIM: &str = "diagnosis names rank 0, which received most of the blocks";

/// The observability claim: from telemetry alone, the diagnosis names the
/// hot receiver this program was built to have.
pub fn check(res: &UnbalancedCommResult) -> Result<(), String> {
    if res.diagnosis.hot_rank != Some(0) {
        return Err(format!("hot_rank = {:?}", res.diagnosis.hot_rank));
    }
    let total: u64 = res.received.iter().sum();
    if res.received[0] * 2 <= total {
        return Err(format!("rank 0 received {} of {total}", res.received[0]));
    }
    Ok(())
}

fn to_fg(e: CommError) -> FgError {
    FgError::Stage {
        stage: "comm".into(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnosis_names_rank_zero_as_the_hot_receiver() {
        let res = run_unbalanced_comm(4, 32, None).expect("run");
        let total: u64 = res.received.iter().sum();
        assert_eq!(total, 4 * 32, "every block must arrive somewhere");
        assert_eq!(check(&res), Ok(()), "{}", res.diagnosis.render());
        assert!(
            res.diagnosis
                .recommendations
                .iter()
                .any(|r| r.text.contains("skew")),
            "expected a skew recommendation: {:?}",
            res.diagnosis.recommendations
        );
    }

    #[test]
    fn check_rejects_a_diagnosis_that_names_another_rank() {
        let res = |hot_rank, received| UnbalancedCommResult {
            received,
            report: ClusterReport::new(4),
            diagnosis: ClusterDiagnosis {
                ranks: Vec::new(),
                hot_rank,
                recommendations: Vec::new(),
            },
        };
        use crate::tests::rejects;
        assert_eq!(check(&res(Some(0), vec![44, 8, 6, 6])), Ok(()));
        rejects(
            check(&res(Some(2), vec![44, 8, 6, 6])),
            &["hot_rank = Some(2)"],
        );
        rejects(check(&res(None, vec![44, 8, 6, 6])), &["hot_rank = None"]);
        rejects(check(&res(Some(0), vec![16, 16, 16, 16])), &["16 of 64"]);
    }

    #[test]
    fn traced_run_records_per_node_groups() {
        let sink = TraceSink::new();
        let res = run_unbalanced_comm(4, 16, Some(Arc::clone(&sink))).expect("run");
        assert_eq!(res.report.ranks.len(), 4);
        let chrome = sink.to_chrome_trace();
        for rank in 0..4 {
            assert!(
                chrome.contains(&format!("node{rank}")),
                "chrome export should carry a track group for node{rank}"
            );
        }
    }
}
