//! Tests of the communicator's metrics instrumentation.

use std::sync::Arc;

use fg_cluster::{Cluster, ClusterCfg};
use fg_core::MetricsRegistry;

#[test]
fn run_with_metrics_counts_peer_traffic_and_collectives() {
    const NODES: usize = 3;
    let registry = Arc::new(MetricsRegistry::new());
    let run =
        Cluster::run_with_metrics(ClusterCfg::zero_cost(NODES), Arc::clone(&registry), |ctx| {
            let comm = ctx.comm();
            // One point-to-point message to the next rank.
            let next = (ctx.rank() + 1) % ctx.nodes();
            let prev = (ctx.rank() + ctx.nodes() - 1) % ctx.nodes();
            comm.send(next, 7, vec![0u8; 100])?;
            comm.recv(Some(prev), 7)?;
            // One of each instrumented collective.
            comm.barrier()?;
            comm.allgather(vec![ctx.rank() as u8])?;
            comm.alltoallv(vec![vec![1u8; 10]; ctx.nodes()])?;
            Ok(())
        })
        .unwrap();

    let m = &run.metrics;
    // Every node sent its 100-byte point-to-point message to its neighbor,
    // plus collective-internal traffic on the same links.
    for rank in 0..NODES {
        let next = (rank + 1) % NODES;
        let bytes = m.counter(&format!("comm/bytes/{rank}->{next}")).unwrap();
        assert!(bytes >= 100, "rank {rank} sent {bytes} bytes");
        assert!(m.counter(&format!("comm/msgs/{rank}->{next}")).unwrap() >= 1);
    }
    // Collective latency histograms are labelled per rank, so each one
    // holds exactly one sample per collective call that rank made — the
    // count is per-operation, not multiplied by the cluster size.
    for rank in 0..NODES {
        for op in ["barrier", "allgather"] {
            let name = format!("comm/{op}_ns/r{rank}");
            let h = m.histogram(&name).unwrap();
            assert_eq!(h.count, 1, "{name}");
        }
        // One point-to-point receive per rank.
        assert_eq!(
            m.histogram(&format!("comm/recv_wait_ns/r{rank}"))
                .unwrap()
                .count,
            1
        );
    }
    // Metric totals agree with the fabric's own traffic accounting.
    let fabric_bytes: u64 = run.traffic.iter().map(|t| t.bytes_sent).sum();
    let metric_bytes: u64 = m
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("comm/bytes/"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(fabric_bytes, metric_bytes);
}

#[test]
fn plain_run_collects_no_metrics() {
    let run = Cluster::run(ClusterCfg::zero_cost(2), |ctx| {
        ctx.comm().barrier()?;
        Ok(())
    })
    .unwrap();
    assert!(run.metrics.is_empty());
}
