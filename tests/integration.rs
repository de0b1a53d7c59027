//! Cross-crate integration tests through the umbrella `fg` crate: FG
//! pipelines over simulated disks on a simulated cluster, end to end.

use std::sync::Arc;
use std::time::Duration;

use fg::cluster::{Cluster, ClusterCfg, ClusterError, NetCfg};
use fg::core::{map_stage, PipelineCfg, Program, Rounds};
use fg::pdm::{Disk, DiskCfg, SimDisk, Striping};
use fg::sort::config::SortConfig;
use fg::sort::csort::run_csort;
use fg::sort::dsort::run_dsort;
use fg::sort::input::provision;
use fg::sort::keygen::KeyDist;
use fg::sort::record::RecordFormat;
use fg::sort::verify::{verify_output, Strictness};

/// An FG pipeline on each node of a cluster, reading from that node's
/// disk, exchanging via the communicator, writing back — the full stack.
#[test]
fn pipelines_on_cluster_with_disks() {
    const NODES: usize = 3;
    const BLOCKS: u64 = 10;
    const BLOCK: usize = 1024;

    let disks: Vec<Arc<SimDisk>> = (0..NODES)
        .map(|n| {
            let d = SimDisk::new(DiskCfg::zero());
            d.load("in", vec![n as u8; BLOCKS as usize * BLOCK]);
            d
        })
        .collect();
    let disks2 = disks.clone();

    Cluster::run(ClusterCfg::zero_cost(NODES), move |node| {
        let rank = node.rank();
        let nodes = node.nodes();
        let comm = node.comm().clone();
        let disk = Arc::clone(&disks2[rank]);

        let mut prog = Program::new(format!("n{rank}"));
        let d = Arc::clone(&disk);
        let read = prog.add_stage(
            "read",
            map_stage(move |buf, _| {
                d.read_at("in", buf.round() * BLOCK as u64, buf.space_mut())
                    .expect("read");
                buf.fill_to_capacity();
                Ok(())
            }),
        );
        // Rotate each block one node to the right via sendrecv.
        let comm2 = comm.clone();
        let rotate = prog.add_stage(
            "rotate",
            map_stage(move |buf, _| {
                let right = (rank + 1) % nodes;
                let left = (rank + nodes - 1) % nodes;
                let got = comm2
                    .sendrecv_replace(buf.filled().to_vec(), right, left, buf.round())
                    .expect("sendrecv");
                buf.copy_from(&got);
                Ok(())
            }),
        );
        let d = Arc::clone(&disk);
        let write = prog.add_stage(
            "write",
            map_stage(move |buf, _| {
                d.write_at("out", buf.round() * BLOCK as u64, buf.filled())
                    .expect("write");
                Ok(())
            }),
        );
        prog.add_pipeline(
            PipelineCfg::new("p", 2, BLOCK).rounds(Rounds::Count(BLOCKS)),
            &[read, rotate, write],
        )
        .map_err(|e| ClusterError::Node {
            rank,
            message: e.to_string(),
        })?;
        prog.run().map_err(|e| ClusterError::Node {
            rank,
            message: e.to_string(),
        })?;
        Ok(())
    })
    .expect("cluster");

    // Node n's output should hold node n-1's input bytes.
    for (n, disk) in disks.iter().enumerate() {
        let out = disk.snapshot("out").expect("out exists");
        let expect = ((n + NODES - 1) % NODES) as u8;
        assert!(out.iter().all(|&b| b == expect), "node {n}");
        assert_eq!(out.len(), BLOCKS as usize * BLOCK);
    }
}

/// Both sorts on a cluster with non-zero cost models produce verified
/// output and dsort does less I/O.
#[test]
fn sorts_with_cost_models() {
    let mut cfg = SortConfig::experiment_default(4, 1024);
    // Soften costs so the test runs in about a second.
    cfg.disk = DiskCfg::new(Duration::from_micros(20), 32.0 * 1024.0 * 1024.0);
    cfg.net = NetCfg::new(Duration::from_micros(5), 128.0 * 1024.0 * 1024.0);
    cfg.dist = KeyDist::StdNormal;

    let disks = provision(&cfg);
    let d = run_dsort(&cfg, &disks).expect("dsort");
    verify_output(&cfg, &disks, Strictness::Exact).expect("dsort verified");

    let disks_c = provision(&cfg);
    let c = run_csort(&cfg, &disks_c).expect("csort");
    verify_output(&cfg, &disks_c, Strictness::Exact).expect("csort verified");

    let dsort_io: u64 = d.disk_stats.iter().map(|s| s.bytes_total()).sum();
    let csort_io: u64 = c.disk_stats.iter().map(|s| s.bytes_total()).sum();
    let ratio = csort_io as f64 / dsort_io as f64;
    assert!(
        (1.3..1.7).contains(&ratio),
        "csort should do ~1.5x the I/O, got {ratio:.2} ({csort_io} vs {dsort_io})"
    );
}

/// 64-byte records through the full stack.
#[test]
fn rec64_full_stack() {
    let mut cfg = SortConfig::test_default(4, 512);
    cfg.record = RecordFormat::REC64;
    cfg.block_bytes = 16 * 64;
    cfg.run_bytes = 64 * 64;
    cfg.vertical_buf_bytes = 8 * 64;
    cfg.dist = KeyDist::Poisson;
    let disks = provision(&cfg);
    run_dsort(&cfg, &disks).expect("dsort");
    verify_output(&cfg, &disks, Strictness::Exact).expect("verified");

    let disks = provision(&cfg);
    run_csort(&cfg, &disks).expect("csort");
    verify_output(&cfg, &disks, Strictness::Exact).expect("verified");
}

/// The striped outputs of dsort and csort are byte-identical per disk for
/// distinct keys (same global order, same striping).
#[test]
fn dsort_and_csort_agree_on_disk_layout() {
    let cfg = SortConfig::test_default(4, 2048); // uniform keys: distinct whp
    let disks_d = provision(&cfg);
    run_dsort(&cfg, &disks_d).expect("dsort");
    let disks_c = provision(&cfg);
    run_csort(&cfg, &disks_c).expect("csort");
    let striping = Striping::new(cfg.nodes, cfg.block_bytes);
    let a = striping
        .assemble(&disks_d, "output", cfg.total_bytes())
        .unwrap();
    let b = striping
        .assemble(&disks_c, "output", cfg.total_bytes())
        .unwrap();
    assert_eq!(a, b, "identical sorted streams expected for distinct keys");
}

/// Determinism: two dsort runs over the same seed produce identical
/// striped output.
#[test]
fn dsort_is_deterministic_in_content() {
    let mut cfg = SortConfig::test_default(3, 1536);
    cfg.dist = KeyDist::Poisson;
    let striping = Striping::new(cfg.nodes, cfg.block_bytes);
    let one = {
        let disks = provision(&cfg);
        run_dsort(&cfg, &disks).expect("dsort");
        let out = striping
            .assemble(&disks, "output", cfg.total_bytes())
            .unwrap();
        fg::sort::input::keys_of(cfg.record, &out)
    };
    let two = {
        let disks = provision(&cfg);
        run_dsort(&cfg, &disks).expect("dsort");
        let out = striping
            .assemble(&disks, "output", cfg.total_bytes())
            .unwrap();
        fg::sort::input::keys_of(cfg.record, &out)
    };
    assert_eq!(one, two);
}
