//! End-to-end tests for the distributed group-by aggregation.

use std::collections::HashMap;

use fg_apps::groupby::{owner_of, read_counts, run_groupby};
use fg_sort::config::SortConfig;
use fg_sort::input::{generate_node_input, provision};
use fg_sort::keygen::KeyDist;

/// Reference: count keys across all nodes' inputs sequentially.
fn reference_counts(cfg: &SortConfig) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    for rank in 0..cfg.nodes {
        let bytes = generate_node_input(cfg, rank);
        for rec in cfg.record.records(&bytes) {
            *counts.entry(cfg.record.key(rec)).or_insert(0) += 1;
        }
    }
    counts
}

fn check_groupby(cfg: &SortConfig) {
    let disks = provision(cfg);
    let report = run_groupby(cfg, &disks).expect("groupby run");
    assert_eq!(report.total_records, cfg.total_records() as u64);

    let expect = reference_counts(cfg);
    let mut got: HashMap<u64, u64> = HashMap::new();
    for (rank, disk) in disks.iter().enumerate() {
        let mut prev: Option<u64> = None;
        for (key, count) in read_counts(disk) {
            // Each node's table is sorted, disjoint, and owned by hash.
            assert!(prev.map(|p| p < key).unwrap_or(true), "unsorted table");
            prev = Some(key);
            assert_eq!(owner_of(key, cfg.nodes), rank, "key on wrong node");
            assert!(got.insert(key, count).is_none(), "key on two nodes");
        }
    }
    assert_eq!(got, expect);
    let distinct: u64 = report.distinct_per_node.iter().sum();
    assert_eq!(distinct as usize, expect.len());
}

#[test]
fn groupby_poisson_heavy_duplication() {
    let mut cfg = SortConfig::test_default(4, 4096);
    cfg.dist = KeyDist::Poisson; // ~10 distinct keys over 16k records
    check_groupby(&cfg);
}

#[test]
fn groupby_uniform_mostly_distinct() {
    let cfg = SortConfig::test_default(4, 2048);
    check_groupby(&cfg);
}

#[test]
fn groupby_all_equal_single_hot_key() {
    let mut cfg = SortConfig::test_default(4, 2048);
    cfg.dist = KeyDist::AllEqual;
    let disks = provision(&cfg);
    let report = run_groupby(&cfg, &disks).expect("groupby");
    // One distinct key in the whole dataset, owned by exactly one node.
    let distinct: u64 = report.distinct_per_node.iter().sum();
    assert_eq!(distinct, 1);
    let total: u64 = disks.iter().flat_map(read_counts).map(|(_, c)| c).sum();
    assert_eq!(total, cfg.total_records() as u64);
}

#[test]
fn groupby_hotkey_skew() {
    let mut cfg = SortConfig::test_default(3, 1536);
    cfg.dist = KeyDist::HotKey { hot_percent: 90 };
    check_groupby(&cfg);
}

#[test]
fn groupby_single_node() {
    let mut cfg = SortConfig::test_default(1, 1024);
    cfg.dist = KeyDist::Poisson;
    check_groupby(&cfg);
}

#[test]
fn groupby_with_cost_model() {
    let mut cfg = SortConfig::experiment_default(4, 1024);
    cfg.disk = fg_pdm::DiskCfg::new(std::time::Duration::from_micros(20), 8.0 * 1024.0 * 1024.0);
    cfg.net = fg_cluster::NetCfg::new(std::time::Duration::from_micros(5), 32.0 * 1024.0 * 1024.0);
    cfg.dist = KeyDist::Poisson;
    check_groupby(&cfg);
}

#[test]
fn groupby_64_byte_records() {
    // Regression: the send buffer must hold a full input block even when
    // the combined-pair representation is smaller than the block.
    let mut cfg = SortConfig::test_default(3, 512);
    cfg.record = fg_sort::record::RecordFormat::REC64;
    cfg.block_bytes = 64 * 64;
    cfg.run_bytes = 4 * cfg.block_bytes;
    cfg.vertical_buf_bytes = 8 * 64;
    cfg.dist = KeyDist::Poisson;
    check_groupby(&cfg);
}

#[test]
fn groupby_zipf_skew() {
    let mut cfg = SortConfig::test_default(4, 4096);
    cfg.dist = KeyDist::Zipf { n: 200 };
    check_groupby(&cfg);
}

/// A group-by publishes into the registry its config hands it, like every
/// program the driver runs: each send-pipeline stage counts one round a
/// block, on every node.
#[test]
fn groupby_publishes_stage_rounds_into_the_configs_registry() {
    let mut cfg = SortConfig::test_default(2, 4096);
    let registry = std::sync::Arc::new(fg_core::MetricsRegistry::new());
    cfg.metrics = Some(std::sync::Arc::clone(&registry));
    let ledger = std::sync::Arc::new(fg_core::MemoryLedger::new());
    cfg.ledger = Some(std::sync::Arc::clone(&ledger));
    let disks = provision(&cfg);
    let report = run_groupby(&cfg, &disks).expect("groupby run");

    let blocks = cfg.nodes as u64 * cfg.bytes_per_node().div_ceil(cfg.block_bytes as u64);
    let metrics = registry.snapshot();
    for stage in ["read", "aggregate", "send"] {
        let name = format!("core/stage_rounds/{stage}");
        assert_eq!(metrics.counter(&name), Some(blocks), "{name}");
    }
    assert_eq!(ledger.outstanding(), (0, 0));
    assert!(ledger.snapshot().peak_bytes > 0);
    assert_eq!(report.node0_reports.len(), 1, "one FG report a pass");
}

/// A disk whose third `read_at` takes a second.
struct StallingDisk {
    inner: fg_pdm::DiskRef,
    reads: std::sync::atomic::AtomicU32,
}

impl fg_pdm::Disk for StallingDisk {
    fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), fg_pdm::PdmError> {
        if self
            .reads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            == 2
        {
            std::thread::sleep(std::time::Duration::from_secs(1));
        }
        self.inner.read_at(name, offset, out)
    }
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), fg_pdm::PdmError> {
        self.inner.write_at(name, offset, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> Result<u64, fg_pdm::PdmError> {
        self.inner.append(name, data)
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
}

/// A group-by runs under the watchdog its config arms: a read that stalls
/// for five timeouts ends the run in `FgError::Stalled`, not in a late
/// success.  (Which thread the error names is the post-mortem's guess: the
/// stalled `read` and the `receive` stage parked in the fabric both sit busy
/// on one buffer, and the heuristic cannot tell a disk from a network.)
#[test]
fn groupby_stalled_read_trips_the_configs_watchdog() {
    let mut cfg = SortConfig::test_default(1, 4096);
    cfg.watchdog = Some(std::time::Duration::from_millis(200));
    let disks: Vec<fg_pdm::DiskRef> = provision(&cfg)
        .into_iter()
        .map(|inner| {
            let reads = std::sync::atomic::AtomicU32::new(0);
            std::sync::Arc::new(StallingDisk { inner, reads }) as fg_pdm::DiskRef
        })
        .collect();
    let err = run_groupby(&cfg, &disks).expect_err("the stalled read must end the run");
    let msg = err.to_string();
    assert!(
        msg.contains("stalled program (culprit: groupby-n0/"),
        "{msg}"
    );
}

/// A disk that dies mid-pass ends every rank's group-by with the disk's
/// error.  The run is on a helper thread, so that a hang fails the test
/// instead of stalling it.
#[test]
fn groupby_surfaces_disk_failure() {
    let cfg = SortConfig::test_default(4, 4096);
    for ops in [2, 20, 60] {
        let disks = provision(&cfg);
        disks[1].fail_after_ops(ops);
        let (tx, rx) = std::sync::mpsc::channel();
        let cfg = cfg.clone();
        std::thread::spawn(move || tx.send(run_groupby(&cfg, &disks).map(|_| ())));
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("disk 1 dead at op {ops}: the run hung"))
            .expect_err("a run on a dead disk must fail");
        assert!(err.to_string().contains("disk failed"), "op {ops}: {err}");
    }
}

/// The node everybody sends to dies while its peers hold credits half-full.
/// With one key in the whole input each block combines to a single pair, so
/// no payload ever fills: every node keeps one open for the key's owner from
/// its first block to the end of its stream.  With uniform keys payloads are
/// open, queued and in flight to every node.  The owner's disk dies early,
/// midway and late in its pass — bare, and behind the I/O scheduler on both
/// backends — and every rank ends in the disk's error, never a hang.
#[test]
fn groupby_owner_death_finds_senders_holding_payloads_half_full() {
    use fg_sort::config::DiskBackend;
    for dist in [KeyDist::AllEqual, KeyDist::Uniform] {
        let mut cfg = SortConfig::test_default(4, 4096);
        cfg.dist = dist;
        cfg.watchdog = Some(std::time::Duration::from_secs(30));
        let key = cfg.record.key(&generate_node_input(&cfg, 0));
        let owner = owner_of(key, cfg.nodes);
        let scratch = fg_pdm::ScratchDir::new("groupby-failure").expect("scratch directory");
        let dir = scratch.path().to_path_buf();
        let mut scheduled = cfg.clone();
        scheduled.io_depth = 4;
        let mut on_files = scheduled.clone();
        on_files.backend = DiskBackend::Os { dir: dir.clone() };
        for (backend, cfg) in [
            ("sim", &cfg),
            ("sim behind the scheduler", &scheduled),
            ("os behind the scheduler", &on_files),
        ] {
            for ops in [2, 20, 60] {
                let disks = provision(cfg);
                disks[owner].fail_after_ops(ops);
                let (tx, rx) = std::sync::mpsc::channel();
                let cfg = cfg.clone();
                std::thread::spawn(move || tx.send(run_groupby(&cfg, &disks).map(|_| ())));
                let what = format!("{backend}, {dist:?}, disk {owner} dead at op {ops}");
                let err = rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("{what}: the run hung"))
                    .expect_err("a run on a dead disk must fail");
                assert!(err.to_string().contains("disk failed"), "{what}: {err}");
            }
        }
        drop(scratch);
        assert!(!dir.exists(), "{} was not scrubbed", dir.display());
    }
}

/// The smallest shapes the exchange has: a block of one record — a payload
/// then holds one pair, so every pair is a message of its own — on one node,
/// which sends only to itself, and on three.
#[test]
fn groupby_one_record_blocks() {
    for nodes in [1, 3] {
        let mut cfg = SortConfig::test_default(nodes, 96);
        cfg.block_bytes = cfg.record.record_bytes;
        cfg.dist = KeyDist::Poisson;
        check_groupby(&cfg);
    }
}

#[test]
fn groupby_refuses_a_wrong_disk_count_before_launch() {
    let cfg = SortConfig::test_default(4, 1024);
    let disks = provision(&cfg);
    let err = run_groupby(&cfg, &disks[..3]).expect_err("three disks for four nodes");
    assert_eq!(
        err,
        fg_sort::SortError::Config("need 4 disks, got 3".into())
    );
}
