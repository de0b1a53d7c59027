//! End-to-end tests: full dsort, csort, and dsort-linear runs on the
//! simulated cluster, verified sorted ∧ striped ∧ permutation-preserving.

use std::sync::Arc;

use fg_core::MetricsRegistry;
use fg_sort::config::SortConfig;
use fg_sort::csort::run_csort;
use fg_sort::dsort::{run_dsort, run_dsort_with, DsortOptions};
use fg_sort::dsort_linear::run_dsort_linear;
use fg_sort::input::{provision, provision_with_metrics};
use fg_sort::keygen::KeyDist;
use fg_sort::verify::{verify_output, Strictness};

fn check_dsort(cfg: &SortConfig) {
    let disks = provision(cfg);
    let report = run_dsort(cfg, &disks).expect("dsort run");
    verify_output(cfg, &disks, Strictness::Exact).expect("dsort output");
    let total: u64 = report.partition_records.iter().sum();
    assert_eq!(total, cfg.total_records() as u64);
}

fn check_csort(cfg: &SortConfig) {
    let disks = provision(cfg);
    run_csort(cfg, &disks).expect("csort run");
    verify_output(cfg, &disks, Strictness::Exact).expect("csort output");
}

fn check_dsort_linear(cfg: &SortConfig) {
    let disks = provision(cfg);
    run_dsort_linear(cfg, &disks).expect("dsort-linear run");
    verify_output(cfg, &disks, Strictness::Exact).expect("dsort-linear output");
}

#[test]
fn dsort_uniform_4_nodes() {
    check_dsort(&SortConfig::test_default(4, 4096));
}

#[test]
fn dsort_all_equal_keys() {
    let mut cfg = SortConfig::test_default(4, 2048);
    cfg.dist = KeyDist::AllEqual;
    check_dsort(&cfg);
}

/// Every key equal: the extended keys send each node's whole input to one
/// receiver, the hottest a receiver gets.  The sender's payloads in flight
/// stay within its population, the sort finishes under the watchdog, and
/// every credit is home at the end.
#[test]
fn dsort_with_one_hot_receiver_stays_within_the_payload_population() {
    let mut cfg = SortConfig::test_default(4, 16384);
    cfg.dist = KeyDist::AllEqual;
    cfg.watchdog = Some(std::time::Duration::from_secs(60));
    let disks = provision(&cfg);
    let report = run_dsort(&cfg, &disks).expect("dsort run");
    verify_output(&cfg, &disks, Strictness::Exact).expect("dsort output");
    assert_eq!(report.payloads.len(), cfg.nodes);
    for pool in &report.payloads {
        assert_eq!(pool.population, 3 * cfg.nodes);
        assert!((1..=pool.population).contains(&pool.high_water), "{pool:?}");
        assert_eq!(pool.outstanding, 0, "a payload leaked: {pool:?}");
    }
}

/// The merge stage at its edges, each sorted on sim and compared byte for
/// byte with a stable reference sort: one-record vertical buffers, runs
/// of one vertical buffer each (a lane's buffer ends where its run does), a node
/// that receives no records, a rank offset inside a stripe block, and
/// all-equal keys, whose lanes tie.  After every run each node's payload
/// credits are home, its population is what the fabric made it, and every
/// idle payload is one message in size: a storage exchange never leaves a
/// buffer of another size in a pool.
#[test]
fn dsort_merge_stage_edges_match_the_reference_and_return_every_credit() {
    let edge = |nodes, records, edit: fn(&mut SortConfig)| {
        let mut cfg = SortConfig::test_default(nodes, records);
        edit(&mut cfg);
        cfg
    };
    let cases = [
        (
            "one-record vertical buffers",
            edge(3, 700, |c| c.vertical_buf_bytes = 16),
        ),
        (
            "one buffer a run",
            edge(4, 2048, |c| c.vertical_buf_bytes = 64 << 10),
        ),
        ("a node that receives nothing", edge(3, 2, |_| {})),
        ("a rank offset inside a stripe block", edge(4, 1000, |_| {})),
        (
            "all-equal keys",
            edge(4, 2048, |c| c.dist = KeyDist::AllEqual),
        ),
    ];
    for (case, cfg) in cases {
        let disks = provision(&cfg);
        let report = run_dsort(&cfg, &disks).expect(case);
        verify_output(&cfg, &disks, Strictness::Exact).expect(case);
        let parts = &report.partition_records;
        match case {
            "one buffer a run" => assert!(report.run_len <= cfg.vertical_buf_bytes),
            "a node that receives nothing" => assert!(parts.contains(&0), "{parts:?}"),
            "a rank offset inside a stripe block" => {
                assert_ne!(parts[0] % cfg.records_per_block() as u64, 0, "{parts:?}")
            }
            _ => {}
        }
        let message = fg_sort::stages::payload_bytes(&cfg);
        for pool in &report.payloads {
            let home = (pool.outstanding, pool.population) == (0, 3 * cfg.nodes);
            let sizes = pool
                .idle_capacity
                .is_none_or(|span| span == (message, message));
            assert!(home && sizes, "{case}: {pool:?}");
        }
    }
}

#[test]
fn dsort_std_normal() {
    let mut cfg = SortConfig::test_default(4, 2048);
    cfg.dist = KeyDist::StdNormal;
    check_dsort(&cfg);
}

#[test]
fn dsort_poisson() {
    let mut cfg = SortConfig::test_default(4, 2048);
    cfg.dist = KeyDist::Poisson;
    check_dsort(&cfg);
}

#[test]
fn dsort_single_node() {
    check_dsort(&SortConfig::test_default(1, 2048));
}

/// The smallest shapes pass 1's exchange has: a block of one record — a
/// payload then holds one record, so every record is a message of its own
/// and every merged buffer a stripe block of one — on one node, which sends
/// only to itself, and on three.
#[test]
fn dsort_one_record_blocks() {
    for nodes in [1, 3] {
        let mut cfg = SortConfig::test_default(nodes, 200);
        cfg.block_bytes = cfg.record.record_bytes;
        check_dsort(&cfg);
    }
}

#[test]
fn dsort_two_nodes_shifted_adversarial() {
    let mut cfg = SortConfig::test_default(2, 2048);
    cfg.dist = KeyDist::Shifted { shift: 1 };
    check_dsort(&cfg);
}

#[test]
fn dsort_hotkey_adversarial() {
    let mut cfg = SortConfig::test_default(4, 2048);
    cfg.dist = KeyDist::HotKey { hot_percent: 90 };
    check_dsort(&cfg);
}

#[test]
fn dsort_without_virtual_reads_matches() {
    let cfg = SortConfig::test_default(3, 3072);
    let disks = provision(&cfg);
    let report = run_dsort_with(
        &cfg,
        &disks,
        DsortOptions {
            virtual_reads: false,
            ..DsortOptions::default()
        },
    )
    .expect("dsort run");
    verify_output(&cfg, &disks, Strictness::Exact).expect("output");
    // Non-virtual pass 2 spawns a read thread per run pipeline, beside
    // its four other stages; virtual keeps it flat.
    let runs: u64 = report.runs_per_node.iter().sum();
    let threads: u64 = report.pass2_threads.iter().sum();
    assert!(threads > runs, "expected per-run threads, got {report:?}");
}

/// The geometry `benchmark/` and `fgsort` run by default, on an eighth of
/// the benchmark's 48 MiB.
fn benchmark_geometry_scaled(record: fg_sort::record::RecordFormat, dist: KeyDist) -> SortConfig {
    let mut cfg = SortConfig::test_default(4, (6 << 20) / 4 / record.record_bytes);
    cfg.record = record;
    cfg.dist = dist;
    cfg.block_bytes = 16 << 10;
    cfg.run_bytes = 64 << 10;
    cfg.vertical_buf_bytes = 8 << 10;
    cfg
}

/// What the pools of a dsort whose pass 1 writes `run_len`-byte runs hold at
/// the larger pass, summed over the nodes as a shared ledger sees them.
fn pool_bytes(cfg: &SortConfig, run_len: usize, partition_records: &[u64]) -> u64 {
    use fg_sort::chunks::CHUNK_HEADER_BYTES;
    let buffers = cfg.pipeline_buffers as u64;
    let send_buf = (cfg.block_bytes + cfg.nodes * CHUNK_HEADER_BYTES + 64) as u64;
    let pass1 = cfg.nodes as u64 * buffers * (send_buf + run_len as u64);
    // Pass 2's merged and receive buffers are messages, twice as many of
    // the latter.
    let message = fg_sort::stages::payload_bytes(cfg) as u64;
    let pass2: u64 = partition_records
        .iter()
        .map(|records| {
            let runs = (records * cfg.record.record_bytes as u64).div_ceil(run_len as u64);
            runs * (cfg.vertical_buffers * cfg.vertical_buf_bytes) as u64 + 3 * buffers * message
        })
        .sum();
    pass1.max(pass2)
}

/// Planning spends the merge's memory on the runs, it does not add to it:
/// with a ledger attached, a planned dsort's pools peak no higher than the
/// same config's would with `run_bytes` runs, on both backends; and at the
/// benchmark's geometry no node merges more than 24 runs.
#[test]
fn planned_dsort_holds_no_more_pool_than_run_bytes_runs_would() {
    use fg_sort::dsort::plan;
    use fg_sort::record::RecordFormat;
    let scratch = fg_pdm::ScratchDir::new("planned-pools").expect("scratch directory");
    let shapes = [
        (RecordFormat::REC16, KeyDist::Uniform, false),
        (RecordFormat::REC64, KeyDist::Poisson, true),
    ];
    for (record, dist, os) in shapes {
        let mut cfg = benchmark_geometry_scaled(record, dist);
        if os {
            cfg.backend = fg_sort::config::DiskBackend::Os {
                dir: scratch.path().join("disks"),
            };
        }
        let ledger = Arc::new(fg_core::MemoryLedger::new());
        cfg.ledger = Some(Arc::clone(&ledger));
        let disks = fg_sort::input::try_provision(&cfg).expect("provision");
        let report = run_dsort(&cfg, &disks).expect("dsort run");
        verify_output(&cfg, &disks, Strictness::Fingerprint).expect("dsort output");

        assert_eq!(report.run_len, plan::run_len(&cfg));
        assert!(report.run_len > cfg.run_bytes, "{report:?}");
        assert!(report.runs_per_node.iter().all(|&k| k <= 24), "{report:?}");

        let peak = ledger.snapshot().peak_bytes;
        let planned = pool_bytes(&cfg, report.run_len, &report.partition_records);
        let unplanned = pool_bytes(&cfg, cfg.run_bytes, &report.partition_records);
        assert!(peak <= planned, "ledger peak {peak} B, pools {planned} B");
        assert!(
            planned <= unplanned,
            "{planned} B planned, {unplanned} B not"
        );
        assert_eq!(ledger.outstanding(), (0, 0));
    }
}

#[test]
fn dsort_with_metrics_collects_comm_and_disk_metrics() {
    let cfg = SortConfig::test_default(3, 1536);
    let registry = Arc::new(MetricsRegistry::new());
    let disks = provision_with_metrics(&cfg, &registry);
    let report = run_dsort_with(
        &cfg,
        &disks,
        DsortOptions {
            metrics: Some(Arc::clone(&registry)),
            ..DsortOptions::default()
        },
    )
    .expect("dsort run");
    verify_output(&cfg, &disks, Strictness::Exact).expect("output");

    let m = &report.metrics;
    // Comm: per-peer byte counters agree with the fabric's accounting,
    // and every node timed the collectives at least once.
    let fabric_bytes: u64 = report.bytes_sent.iter().sum();
    let metric_bytes: u64 = m
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("comm/bytes/"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(fabric_bytes, metric_bytes);
    // Collective latencies are labelled per rank: every node timed its own
    // barrier calls.
    for rank in 0..cfg.nodes {
        let h = m.histogram(&format!("comm/barrier_ns/r{rank}")).unwrap();
        assert!(h.count >= 1, "rank {rank} recorded no barriers");
    }
    // Disk: each labeled disk's byte counters match its own stats.
    for (rank, disk) in disks.iter().enumerate() {
        let stats = disk.stats();
        assert_eq!(
            m.counter(&format!("disk/d{rank}/bytes_read")),
            Some(stats.bytes_read)
        );
        assert_eq!(
            m.counter(&format!("disk/d{rank}/bytes_written")),
            Some(stats.bytes_written)
        );
        assert!(m.histogram(&format!("disk/d{rank}/read_ns")).unwrap().count > 0);
    }
}

#[test]
fn dsort_observed_builds_cluster_report_and_cross_rank_trace() {
    let mut cfg = SortConfig::test_default(4, 2048);
    let sink = fg_core::TraceSink::new();
    cfg.trace_sink = Some(Arc::clone(&sink));
    let disks = provision(&cfg);
    let report = run_dsort_with(
        &cfg,
        &disks,
        DsortOptions {
            observe: true,
            ..DsortOptions::default()
        },
    )
    .expect("dsort run");
    verify_output(&cfg, &disks, Strictness::Exact).expect("output");

    // Every rank's FG reports and registry snapshot are in the merged
    // cluster report.
    let cluster = report.cluster.as_ref().expect("cluster report");
    assert_eq!(cluster.nodes, cfg.nodes);
    assert_eq!(cluster.ranks.len(), cfg.nodes);
    for r in &cluster.ranks {
        assert_eq!(r.reports.len(), 2, "rank {} pass reports", r.rank);
        assert!(r.wall > std::time::Duration::ZERO);
        assert!(
            r.collective_ns() > 0,
            "rank {} timed no collectives",
            r.rank
        );
    }
    // The traffic matrix accounts for every byte the fabric moved.
    let matrix_total: u64 = cluster.traffic_matrix().iter().flatten().sum();
    let fabric_total: u64 = report.bytes_sent.iter().sum();
    assert_eq!(matrix_total, fabric_total);
    // The cluster diagnosis runs off the same report (balanced input:
    // nothing should scream).
    let d = fg_core::diagnose_cluster(cluster);
    assert_eq!(d.ranks.len(), cfg.nodes);

    // The merged Chrome trace has one track group per rank and at least
    // one flow that crosses rank boundaries (a pass-1 send stitched to a
    // remote comm-recv, or a collective spanning all ranks).
    let trace = sink.to_chrome_trace();
    let j = fg_core::Json::parse(&trace).expect("chrome trace is JSON");
    let events = j
        .get("traceEvents")
        .and_then(|e| e.as_arr().map(<[_]>::to_vec))
        .unwrap();
    let mut node_pids = std::collections::HashSet::new();
    for e in &events {
        if e.get("name").and_then(fg_core::Json::as_str) == Some("process_name") {
            node_pids.insert(e.get("pid").and_then(fg_core::Json::as_u64).unwrap());
        }
    }
    assert_eq!(node_pids.len(), cfg.nodes, "one track group per rank");
    // Group flow events by id; a cross-rank flow touches >= 2 pids.
    let mut flow_pids: std::collections::HashMap<String, std::collections::HashSet<u64>> =
        std::collections::HashMap::new();
    for e in &events {
        if matches!(
            e.get("ph").and_then(fg_core::Json::as_str),
            Some("s") | Some("t") | Some("f")
        ) {
            let id = e
                .get("id")
                .and_then(fg_core::Json::as_str)
                .unwrap()
                .to_string();
            let pid = e.get("pid").and_then(fg_core::Json::as_u64).unwrap();
            flow_pids.entry(id).or_default().insert(pid);
        }
    }
    assert!(
        flow_pids.values().any(|pids| pids.len() >= 2),
        "no flow crosses rank boundaries"
    );
}

#[test]
fn dsort_odd_sizes_partial_blocks() {
    // records_per_node chosen so the last block is partial.
    let mut cfg = SortConfig::test_default(3, 1000);
    cfg.block_bytes = 96 * 16;
    cfg.run_bytes = 96 * 16 * 2;
    check_dsort(&cfg);
}

#[test]
fn csort_uniform_4_nodes() {
    check_csort(&SortConfig::test_default(4, 4096));
}

#[test]
fn csort_all_equal() {
    let mut cfg = SortConfig::test_default(4, 4096);
    cfg.dist = KeyDist::AllEqual;
    check_csort(&cfg);
}

#[test]
fn csort_poisson_two_nodes() {
    let mut cfg = SortConfig::test_default(2, 2048);
    cfg.dist = KeyDist::Poisson;
    check_csort(&cfg);
}

#[test]
fn csort_sixteen_nodes_small() {
    check_csort(&SortConfig::test_default(16, 1024));
}

#[test]
fn csort_with_sort_workers() {
    // Farmed sort stages (Program::workers) must leave the lockstep
    // communication stages downstream correct: the output is still exactly
    // sorted, striped, and a permutation of the input.
    let mut cfg = SortConfig::test_default(4, 4096);
    cfg.workers = 3;
    check_csort(&cfg);
    cfg.dist = KeyDist::Poisson;
    check_csort(&cfg);
}

#[test]
fn dsort_sixteen_nodes_small() {
    check_dsort(&SortConfig::test_default(16, 1024));
}

#[test]
fn dsort_linear_uniform() {
    check_dsort_linear(&SortConfig::test_default(4, 2048));
}

#[test]
fn dsort_linear_all_equal() {
    let mut cfg = SortConfig::test_default(3, 1536);
    cfg.dist = KeyDist::AllEqual;
    check_dsort_linear(&cfg);
}

#[test]
fn all_three_sorts_agree_on_key_sequence() {
    let mut cfg = SortConfig::test_default(4, 2048);
    cfg.dist = KeyDist::Poisson;
    // Exact strictness compares key sequences against the reference sort,
    // so running all three with it proves they agree with each other.
    check_dsort(&cfg);
    check_csort(&cfg);
    check_dsort_linear(&cfg);
}

#[test]
fn dsort_partitions_within_balance_bound() {
    // The paper: "In our experiments, all partition sizes were at most 10%
    // greater than the average."  Verify with generous margin at small
    // sample sizes for the benign distributions.
    for dist in [KeyDist::Uniform, KeyDist::AllEqual] {
        let mut cfg = SortConfig::test_default(4, 8192);
        cfg.dist = dist;
        cfg.oversample = 32;
        let disks = provision(&cfg);
        let report = run_dsort(&cfg, &disks).expect("dsort");
        let avg = cfg.records_per_node as f64;
        for (i, &p) in report.partition_records.iter().enumerate() {
            assert!(
                (p as f64) < avg * 1.35,
                "{dist:?} partition {i} = {p}, avg = {avg}: {:?}",
                report.partition_records
            );
        }
    }
}

mod csort4_tests {
    use super::*;
    use fg_sort::csort4::run_csort4;

    fn check_csort4(cfg: &SortConfig) {
        let disks = provision(cfg);
        run_csort4(cfg, &disks).expect("csort4 run");
        verify_output(cfg, &disks, Strictness::Exact).expect("csort4 output");
    }

    #[test]
    fn csort4_uniform_4_nodes() {
        check_csort4(&SortConfig::test_default(4, 4096));
    }

    #[test]
    fn csort4_all_equal() {
        let mut cfg = SortConfig::test_default(4, 4096);
        cfg.dist = KeyDist::AllEqual;
        check_csort4(&cfg);
    }

    #[test]
    fn csort4_poisson_two_nodes() {
        let mut cfg = SortConfig::test_default(2, 2048);
        cfg.dist = KeyDist::Poisson;
        check_csort4(&cfg);
    }

    #[test]
    fn csort4_single_node() {
        check_csort4(&SortConfig::test_default(1, 4096));
    }

    #[test]
    fn csort4_sixteen_nodes() {
        check_csort4(&SortConfig::test_default(16, 1024));
    }

    #[test]
    fn csort4_with_sort_workers() {
        let mut cfg = SortConfig::test_default(4, 4096);
        cfg.workers = 3;
        check_csort4(&cfg);
    }

    #[test]
    fn csort4_does_more_io_than_csort3() {
        let cfg = SortConfig::test_default(4, 4096);
        let disks3 = provision(&cfg);
        let c3 = run_csort(&cfg, &disks3).expect("csort3");
        let disks4 = provision(&cfg);
        let c4 = run_csort4(&cfg, &disks4).expect("csort4");
        let io3: u64 = c3.disk_stats.iter().map(|s| s.bytes_total()).sum();
        let io4: u64 = c4.disk_stats.iter().map(|s| s.bytes_total()).sum();
        let ratio = io4 as f64 / io3 as f64;
        assert!(
            (1.2..1.5).contains(&ratio),
            "four passes should do ~4/3 the I/O of three: {ratio:.2}"
        );
    }
}

/// Every program runs instrumented and reports, because the driver is the
/// only way to make one: with a registry and a ledger in the config, each
/// returns one FG report a pass for node 0, every stage of every pass has
/// published its rounds, and every pool went back to the ledger.
#[test]
fn every_program_is_instrumented_and_reports() {
    use fg_sort::csort4::run_csort4;
    type Reports = Vec<fg_core::Report>;
    type Sort = fn(&SortConfig, &[fg_pdm::DiskRef]) -> Reports;
    let sorts: [(&str, usize, Sort); 4] = [
        ("csort", 3, |c, d| run_csort(c, d).unwrap().node0_reports),
        ("csort4", 4, |c, d| run_csort4(c, d).unwrap().node0_reports),
        ("dsort", 2, |c, d| {
            let (p1, p2) = run_dsort(c, d).unwrap().node0_reports.unwrap();
            vec![p1, p2]
        }),
        ("dsort-linear", 2, |c, d| {
            run_dsort_linear(c, d).unwrap().node0_reports
        }),
    ];
    for (name, passes, sort) in sorts {
        let mut cfg = SortConfig::test_default(4, 4096);
        let registry = Arc::new(MetricsRegistry::new());
        let ledger = Arc::new(fg_core::MemoryLedger::new());
        cfg.metrics = Some(Arc::clone(&registry));
        cfg.ledger = Some(Arc::clone(&ledger));
        let disks = provision(&cfg);
        let reports = sort(&cfg, &disks);
        verify_output(&cfg, &disks, Strictness::Exact).expect(name);

        assert_eq!(reports.len(), passes, "{name}: one report a pass");
        let metrics = registry.snapshot();
        for stage in reports.iter().flat_map(|r| &r.stages) {
            let rounds = metrics.counter(&format!("core/stage_rounds/{}", stage.name));
            assert!(rounds > Some(0), "{name}: stage `{}`", stage.name);
        }
        assert_eq!(ledger.outstanding(), (0, 0), "{name}");
        assert!(ledger.snapshot().peak_bytes > 0, "{name}");
    }
}

/// Every program reads and writes its disks directly, whatever `io_depth`
/// says: on real files with a registry, the disks publish their own
/// `disk/d{rank}/…` counters and no I/O scheduler's read-ahead counters or
/// write-behind gauge.
#[test]
fn every_program_runs_on_the_bare_backend() {
    use fg_sort::csort4::run_csort4;
    type Sort = fn(&SortConfig, &[fg_pdm::DiskRef]);
    let sorts: [(&str, Sort); 4] = [
        ("csort", |c, d| drop(run_csort(c, d).unwrap())),
        ("csort4", |c, d| drop(run_csort4(c, d).unwrap())),
        ("dsort", |c, d| drop(run_dsort(c, d).unwrap())),
        ("dsort-linear", |c, d| drop(run_dsort_linear(c, d).unwrap())),
    ];
    let scratch = fg_pdm::ScratchDir::new("bare-backend").expect("scratch directory");
    for (name, sort) in sorts {
        let mut cfg = SortConfig::test_default(4, 4096);
        cfg.backend = fg_sort::config::DiskBackend::Os {
            dir: scratch.path().to_path_buf(),
        };
        cfg.io_depth = 4;
        let registry = Arc::new(MetricsRegistry::new());
        cfg.metrics = Some(Arc::clone(&registry));
        let disks = provision_with_metrics(&cfg, &registry);
        sort(&cfg, &disks);
        verify_output(&cfg, &disks, Strictness::Exact).expect(name);
        let metrics = registry.snapshot();
        assert!(metrics.counter("disk/d0/bytes_read") > Some(0), "{name}");
        let found = scheduler_metrics(&metrics);
        assert!(found.is_empty(), "{name}: {found:?}");
    }
}

/// What an `IoScheduler` publishes: `disk/*/prefetch_*` counters and
/// `disk/*/writeback_queue_depth` gauges.
fn scheduler_metrics(m: &fg_core::MetricsSnapshot) -> Vec<&str> {
    let counters = m.counters.iter().map(|c| &c.0);
    let gauges = m.gauges.iter().map(|g| &g.0);
    let prefetch = counters.filter(|n| n.contains("/prefetch_"));
    let queues = gauges.filter(|n| n.ends_with("/writeback_queue_depth"));
    let names = prefetch.chain(queues).map(String::as_str);
    names.filter(|n| n.starts_with("disk/")).collect()
}

/// What one node of [`dsort_traffic`] sent, by `comm/msgs/*` and
/// `comm/bytes/*` (which leave out what a node sends itself).
struct PassTraffic {
    /// Pass 1's data messages and their bytes.
    pass1: (u64, u64),
    /// Pass 2's data messages.
    pass2_msgs: u64,
    /// Bytes of the node's merged stream.
    merged_bytes: u64,
}

/// dsort's phases run by hand over the driver, so that a node can read its
/// own traffic counters on either side of each pass: a pass is its program
/// and a `land`, no collective, and its `DONE` markers — one byte to every
/// peer — are taken off.
fn dsort_traffic(cfg: &SortConfig) -> Vec<PassTraffic> {
    use fg_sort::dsort::{pass1, pass2, plan, sampling};
    let registry = Arc::new(MetricsRegistry::new());
    let disks = provision(cfg);
    let counters = Arc::clone(&registry);
    let run = fg_sort::driver::launch_observed(cfg, &disks, Some(registry), false, move |node| {
        let (rank, peers) = (node.rank, node.cfg.nodes as u64 - 1);
        let sent = |what: &str| -> u64 {
            let to = |dst| {
                counters
                    .counter(&format!("comm/{what}/{rank}->{dst}"))
                    .get()
            };
            (0..=peers).map(to).sum()
        };
        let splitters = sampling::select_splitters(node)?;
        let before = (sent("msgs"), sent("bytes"));
        let run_lens = pass1::pass1(node, &splitters, plan::run_len(&node.cfg))?;
        let mid = (sent("msgs"), sent("bytes"));
        let merged_bytes = run_lens.iter().sum::<u64>();
        let records = merged_bytes / node.cfg.record.record_bytes as u64;
        let partitions = node.comm.allgather_u64(records)?;
        let rank_offset = partitions[..rank].iter().sum();
        let before2 = sent("msgs");
        pass2::pass2(node, &run_lens, rank_offset, true)?;
        let pass1_msgs = mid.0 - before.0 - peers;
        Ok(PassTraffic {
            // Less the markers' one byte each and every data message's kind byte.
            pass1: (pass1_msgs, mid.1 - before.1 - peers - pass1_msgs),
            pass2_msgs: sent("msgs") - before2 - peers,
            merged_bytes,
        })
    })
    .expect("dsort phases");
    verify_output(cfg, &disks, Strictness::Exact).expect("dsort output");
    run.ranks.into_iter().map(|rank| rank.out).collect()
}

/// Messages follow bytes, not rounds × nodes.  Pass 1 fills a payload per
/// destination across blocks, so all but a destination's last message carry a
/// block of records: a node sends at most `⌈B/block⌉ + P` of them for `B`
/// bytes of input, and the mean message is as long on eight nodes as on four
/// (it was a block ÷ nodes).  Pass 2 ends every merged buffer on a stripe
/// boundary, so a node sends one message a stripe block its stream touches:
/// at most `⌈n/block⌉ + 1` for `n` bytes (a buffer that straddled a boundary
/// cost two).
#[test]
fn dsort_messages_follow_bytes_not_rounds_times_nodes() {
    let mean_pass1_message = |nodes: usize| {
        let cfg = SortConfig::test_default(nodes, 16384);
        let block = cfg.block_bytes as u64;
        let traffic = dsort_traffic(&cfg);
        for (rank, node) in traffic.iter().enumerate() {
            let bound = cfg.bytes_per_node().div_ceil(block) + nodes as u64;
            assert!(
                node.pass1.0 <= bound,
                "{nodes} nodes, rank {rank}: {} pass-1 messages, bound {bound}",
                node.pass1.0
            );
            let bound = node.merged_bytes.div_ceil(block) + 1;
            assert!(
                node.pass2_msgs <= bound,
                "{nodes} nodes, rank {rank}: {} pass-2 messages, bound {bound}",
                node.pass2_msgs
            );
        }
        let (msgs, bytes) = traffic.iter().fold((0, 0), |sum, node| {
            (sum.0 + node.pass1.0, sum.1 + node.pass1.1)
        });
        bytes as f64 / msgs as f64
    };
    let (four, eight) = (mean_pass1_message(4), mean_pass1_message(8));
    // Not exactly as long: a node's last message to each peer is part full,
    // and there are seven peers instead of three.
    assert!(
        eight >= 0.9 * four,
        "mean pass-1 message: {four:.0} B on 4 nodes, {eight:.0} B on 8"
    );
    assert!(four >= 0.9 * 1024.0, "mean pass-1 message: {four:.0} B");
}

/// A disk that keeps a copy of every file as it is deleted: a columnsort's
/// intermediate files, which the pass that reads them last deletes.
struct KeepsDeleted {
    inner: fg_pdm::DiskRef,
    kept: std::sync::Mutex<std::collections::HashMap<String, Vec<u8>>>,
}

impl KeepsDeleted {
    fn kept(&self, name: &str) -> Vec<u8> {
        let kept = self.kept.lock().unwrap();
        kept.get(name)
            .unwrap_or_else(|| panic!("{name} was never deleted"))
            .clone()
    }
}

impl fg_pdm::Disk for KeepsDeleted {
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), fg_pdm::PdmError> {
        self.inner.write_at(name, offset, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> Result<u64, fg_pdm::PdmError> {
        self.inner.append(name, data)
    }
    fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), fg_pdm::PdmError> {
        self.inner.read_at(name, offset, out)
    }
    fn read_up_to(&self, name: &str, at: u64, len: usize) -> Result<Vec<u8>, fg_pdm::PdmError> {
        self.inner.read_up_to(name, at, len)
    }
    fn load(&self, name: &str, bytes: Vec<u8>) {
        self.inner.load(name, bytes)
    }
    fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.snapshot(name)
    }
    fn len(&self, name: &str) -> Option<u64> {
        self.inner.len(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn delete(&self, name: &str) -> bool {
        if let Some(bytes) = self.inner.snapshot(name) {
            self.kept.lock().unwrap().insert(name.to_string(), bytes);
        }
        self.inner.delete(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn stats(&self) -> fg_pdm::DiskStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
    fn fail_after_ops(&self, ops: u64) {
        self.inner.fail_after_ops(ops)
    }
    fn flush(&self) -> Result<(), fg_pdm::PdmError> {
        self.inner.flush()
    }
    fn land(&self) -> Result<(), fg_pdm::PdmError> {
        self.inner.land()
    }
    fn reserve(&self, name: &str, bytes: u64) {
        self.inner.reserve(name, bytes)
    }
}

/// Each of `regions` — `(node, first record, positions)` — holds in that
/// node's kept copy of `file`, from that record on, the multiset of keys
/// the reference matrix has at `positions`.
fn check_regions(
    cfg: &SortConfig,
    disks: &[Arc<KeepsDeleted>],
    file: &str,
    reference: &[u64],
    regions: impl Iterator<Item = (usize, usize, std::ops::Range<usize>)>,
) {
    use fg_sort::input::keys_of;
    let rb = cfg.record.record_bytes;
    let files: Vec<Vec<u8>> = disks.iter().map(|d| d.kept(file)).collect();
    for (q, at, positions) in regions {
        let bytes = &files[q][at * rb..(at + positions.len()) * rb];
        let mut got = keys_of(cfg.record, bytes);
        let mut want = reference[positions.clone()].to_vec();
        got.sort_unstable();
        want.sort_unstable();
        let differ = got.iter().zip(&want).filter(|(a, b)| a != b).count();
        assert!(
            got == want,
            "{file} on node {q}, record {at}: {differ} keys not those of positions {positions:?}"
        );
    }
}

/// The intermediate files hold what columnsort says they hold, not only
/// the output: after passes 1 and 2 each column region `[local_index(d) ·
/// r, +r)` of node `d mod P`'s `csort_m1` and `csort_m2` holds the keys the
/// in-memory reference puts in column `d` after steps 2 and 4, and csort4's
/// `csort4_m3` holds, back to back in round order, the boundary windows
/// after step 5 — for csort and csort4, on sim and on os.
#[test]
fn columnsort_intermediate_files_hold_the_reference_columns() {
    use fg_sort::columnsort::{sort_columns, transpose, untranspose};
    use fg_sort::config::Matrix;
    use fg_sort::csort::{M1_FILE, M2_FILE};
    use fg_sort::csort4::{run_csort4, M3_FILE};
    type Sort = fn(&SortConfig, &[fg_pdm::DiskRef]);
    let sorts: [(&str, Sort); 2] = [
        ("csort", |c, d| drop(run_csort(c, d).unwrap())),
        ("csort4", |c, d| drop(run_csort4(c, d).unwrap())),
    ];
    let scratch = fg_pdm::ScratchDir::new("layout").expect("scratch directory");
    for os in [false, true] {
        for (name, sort) in sorts {
            // Uniform keys: distinct, so a record in the wrong column shows.
            let mut cfg = SortConfig::test_default(4, 4096);
            if os {
                cfg.backend = fg_sort::config::DiskBackend::Os {
                    dir: scratch.path().to_path_buf(),
                };
            }
            let disks: Vec<Arc<KeepsDeleted>> = provision(&cfg)
                .into_iter()
                .map(|inner| {
                    Arc::new(KeepsDeleted {
                        inner,
                        kept: Default::default(),
                    })
                })
                .collect();
            let refs: Vec<fg_pdm::DiskRef> = disks.iter().map(|d| d.clone() as _).collect();
            sort(&cfg, &refs);

            // Column c of the matrix is node c mod P's local chunk c div P.
            let m = Matrix::choose(cfg.total_records(), cfg.nodes).unwrap();
            let (r, s) = (m.r, m.s);
            let mut matrix = vec![0u64; r * s];
            for q in 0..cfg.nodes {
                let input = fg_sort::input::generate_node_input(&cfg, q);
                let keys = fg_sort::input::keys_of(cfg.record, &input);
                for (t, column) in keys.chunks(r).enumerate() {
                    let c = m.col_of_round(q, t);
                    matrix[c * r..(c + 1) * r].copy_from_slice(column);
                }
            }
            let columns = || (0..s).map(|d| (m.owner(d), m.local_index(d) * r, d * r..(d + 1) * r));
            sort_columns(&mut matrix, r, s);
            transpose(&mut matrix, r, s);
            check_regions(&cfg, &disks, M1_FILE, &matrix, columns());
            sort_columns(&mut matrix, r, s);
            untranspose(&mut matrix, r, s);
            check_regions(&cfg, &disks, M2_FILE, &matrix, columns());
            if name == "csort4" {
                sort_columns(&mut matrix, r, s);
                let mut at = vec![0usize; cfg.nodes];
                let windows = (0..s).map(|c| {
                    let q = m.owner(c);
                    let hi = if c == s - 1 { s * r } else { c * r + r / 2 };
                    let lo = (c * r).saturating_sub(r / 2);
                    at[q] += hi - lo;
                    (q, at[q] - (hi - lo), lo..hi)
                });
                check_regions(&cfg, &disks, M3_FILE, &matrix, windows);
            }
            verify_output(&cfg, &refs, Strictness::Exact).expect(name);
        }
    }
}
