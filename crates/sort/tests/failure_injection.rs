//! Failure injection: a disk that dies mid-run must surface as a clean
//! error from the whole stack — FG program torn down, cluster poisoned,
//! the run function returning `Err` instead of hanging or panicking.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use fg_pdm::{Disk, DiskRef, DiskStats, PdmError, ScratchDir};
use fg_sort::config::{DiskBackend, SortConfig};
use fg_sort::csort::run_csort;
use fg_sort::csort4::run_csort4;
use fg_sort::driver;
use fg_sort::dsort::pass1::RUNS_FILE;
use fg_sort::dsort::run_dsort;
use fg_sort::dsort_linear::run_dsort_linear;
use fg_sort::input::provision;
use fg_sort::keygen::KeyDist;
use fg_sort::SortError;

/// Run `case` on the in-memory disks and on real files, each as every
/// program gets it: bare.
fn on_every_backend(cfg: &SortConfig, case: impl Fn(&str, &SortConfig)) {
    case("sim", cfg);
    let scratch = ScratchDir::new("failure-injection").expect("scratch directory");
    let dir = scratch.path().to_path_buf();
    let mut on_files = cfg.clone();
    on_files.backend = DiskBackend::Os { dir: dir.clone() };
    case("os", &on_files);
    // Whatever the runs left behind goes with the directory.
    drop(scratch);
    assert!(!dir.exists(), "{} was not scrubbed", dir.display());
}

/// Run `sort` on a helper thread, so that a hang fails the test instead of
/// stalling it; returns the error the run must end in.
fn failure_of(
    what: String,
    sort: impl FnOnce() -> Result<(), SortError> + Send + 'static,
) -> SortError {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(sort());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what}: the run hung"))
        .expect_err("a run on a dead disk must fail")
}

#[test]
fn dsort_surfaces_disk_failure() {
    on_every_backend(&SortConfig::test_default(4, 2048), |backend, cfg| {
        let disks = provision(cfg);
        // Node 2's disk dies after a handful of operations (mid pass 1).
        disks[2].fail_after_ops(10);
        let err = run_dsort(cfg, &disks).expect_err("must fail");
        let msg = err.to_string();
        assert!(
            msg.contains("disk failed"),
            "{backend}: error should carry the root cause: {msg}"
        );
    });
}

/// A receiver whose disk dies stops returning payloads, so the nodes that
/// send to it — itself included — run out of credits and block, and its node
/// function cannot return while its own send stage is blocked.  The fabric
/// stages of the dying program poison the fabric on their way out, which
/// must wake every one of them: the run ends in the disk's error, not in a
/// hang.  The failure points cover both passes.
#[test]
fn dsort_disk_failure_wakes_senders_blocked_on_credits() {
    // Every key equal: each sender's whole input goes to a single receiver,
    // far more messages than it has credits.
    let mut cfg = SortConfig::test_default(4, 16384);
    cfg.dist = KeyDist::AllEqual;
    cfg.watchdog = Some(std::time::Duration::from_secs(30));
    on_every_backend(&cfg, |backend, cfg| {
        for ops in [10, 40, 150, 400, 600] {
            let disks = provision(cfg);
            disks[1].fail_after_ops(ops);
            let cfg = cfg.clone();
            let err = failure_of(
                format!("{backend}: dsort, disk 1 dead at op {ops}"),
                move || run_dsort(&cfg, &disks).map(|_| ()),
            );
            assert!(
                err.to_string().contains("disk failed"),
                "{backend}, op {ops}: {err}"
            );
        }
    });
}

/// A disk that dies — `fail_after_ops(0)` on the disk it wraps — as the
/// `appends`-th append to dsort's runs file arrives: the failure is in the
/// receive pipeline's `write` stage, whatever the node's reads are doing.
struct DiesAtAppend {
    inner: DiskRef,
    appends: AtomicU32,
}

impl Disk for DiesAtAppend {
    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PdmError> {
        if name == RUNS_FILE && self.appends.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.inner.fail_after_ops(0);
        }
        self.inner.append(name, data)
    }
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), PdmError> {
        self.inner.write_at(name, offset, data)
    }
    fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), PdmError> {
        self.inner.read_at(name, offset, out)
    }
    fn read_up_to(&self, name: &str, at: u64, len: usize) -> Result<Vec<u8>, PdmError> {
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
    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
    fn fail_after_ops(&self, ops: u64) {
        self.inner.fail_after_ops(ops)
    }
    fn flush(&self) -> Result<(), PdmError> {
        self.inner.flush()
    }
}

/// The *receiving* side dies while senders hold credits half-full.  Pass 1's
/// send stage keeps a payload open for every destination and has more in
/// flight; node 1's disk dies at an append of its runs file, early, midway
/// and late in the pass (a node writes 32 runs), so its receive pipeline
/// stops taking messages with its peers' payloads open, queued and being
/// filled.  With shifted keys node 0's whole input is bound for node 1; with
/// uniform keys every node holds a payload open for it.  Every rank ends in
/// the disk's error, never a hang.
#[test]
fn dsort_receiver_death_finds_senders_holding_payloads_half_full() {
    for dist in [KeyDist::Shifted { shift: 1 }, KeyDist::Uniform] {
        let mut cfg = SortConfig::test_default(4, 16384);
        cfg.dist = dist;
        cfg.watchdog = Some(std::time::Duration::from_secs(30));
        on_every_backend(&cfg, |backend, cfg| {
            for appends in [1, 8, 24] {
                let mut disks = provision(cfg);
                disks[1] = Arc::new(DiesAtAppend {
                    inner: Arc::clone(&disks[1]),
                    appends: AtomicU32::new(appends),
                });
                let cfg = cfg.clone();
                let err = failure_of(
                    format!("{backend}: dsort, {dist:?}, disk 1 dead at append {appends}"),
                    move || run_dsort(&cfg, &disks).map(|_| ()),
                );
                assert!(
                    err.to_string().contains("disk failed"),
                    "{backend}, {dist:?}, append {appends}: {err}"
                );
            }
        });
    }
}

#[test]
fn csort_surfaces_disk_failure() {
    on_every_backend(&SortConfig::test_default(4, 4096), |backend, cfg| {
        // Early (pass 1's first reads) and late (a later pass's writes).
        for ops in [3, 25, 45] {
            let disks = provision(cfg);
            disks[0].fail_after_ops(ops);
            let cfg = cfg.clone();
            let err = failure_of(
                format!("{backend}: csort, disk 0 dead at op {ops}"),
                move || run_csort(&cfg, &disks).map(|_| ()),
            );
            assert!(
                err.to_string().contains("disk failed"),
                "{backend}, op {ops}: {err}"
            );
        }
    });
}

/// csort4 under the driver: a disk that dies in any of the four passes ends
/// every rank's run with the disk's error.  The failure points are eighths
/// of the operations a healthy run performs on that disk.
#[test]
fn csort4_surfaces_disk_failure_in_every_pass() {
    on_every_backend(&SortConfig::test_default(4, 4096), |backend, cfg| {
        let healthy = provision(cfg);
        let stats = run_csort4(cfg, &healthy).expect("healthy run").disk_stats;
        let total = stats[2].read_ops + stats[2].write_ops;
        for eighths in [1, 3, 5, 7] {
            let disks = provision(cfg);
            disks[2].fail_after_ops(total * eighths / 8);
            let cfg = cfg.clone();
            let err = failure_of(
                format!("{backend}: csort4, disk 2 dead {eighths}/8 through"),
                move || run_csort4(&cfg, &disks).map(|_| ()),
            );
            assert!(
                err.to_string().contains("disk failed"),
                "{backend}, {eighths}/8: {err}"
            );
        }
    });
}

/// The driver's own contract, on a program of three sleeping phases: they
/// run in declaration order on every rank, the driver's `sync` after them, a
/// phase's time is its slowest rank's, and `Communicator::timed` hands every
/// rank the same maximum.
#[test]
fn driver_runs_phases_in_order_and_times_them_alike_on_every_rank() {
    use std::time::Duration;
    const PHASES: [&str; 3] = ["first", "second", "third"];
    let cfg = SortConfig::test_default(4, 1024);
    let disks = provision(&cfg);
    let nap = |rank: usize| std::thread::sleep(Duration::from_millis(5 * rank as u64));
    let run = driver::launch(&cfg, &disks, move |node| {
        let mut order = Vec::new();
        for name in PHASES {
            node.phase(name, |node| {
                nap(node.rank);
                order.push(name);
                Ok(())
            })?;
        }
        let timed = node.comm.timed(|| {
            nap(node.rank);
            Ok::<_, SortError>(())
        })?;
        Ok((order, timed.1))
    })
    .expect("three phases of sleep");
    let names: Vec<_> = run.phases.iter().map(|p| p.0).collect();
    assert_eq!(names, [&PHASES[..], &["sync"]].concat());
    let slowest = Duration::from_millis(5 * 3);
    assert!(
        run.phases[..PHASES.len()].iter().all(|p| p.1 >= slowest),
        "{:?}",
        run.phases
    );
    let max = run.ranks[0].out.1;
    assert!(max >= slowest, "{max:?}");
    for rank in &run.ranks {
        assert_eq!(rank.out, (PHASES.to_vec(), max));
        assert!(rank.reports.is_empty(), "no FG program ran");
    }
}

/// A rank that fails in its second phase ends every rank's run with its
/// error — the others are in that phase's closing barrier — never a hang.
#[test]
fn driver_failure_in_a_later_phase_ends_every_rank() {
    let cfg = SortConfig::test_default(4, 1024);
    let disks = provision(&cfg);
    let err = failure_of("rank 2 fails its second phase".into(), move || {
        driver::launch(&cfg, &disks, |node| {
            node.phase("first", |_| Ok(()))?;
            node.phase("second", |node| match node.rank {
                2 => Err(SortError::Corrupt("rank 2 gives up".into())),
                _ => Ok(()),
            })?;
            node.phase("third", |_| Ok(()))
        })
        .map(|_| ())
    });
    assert!(err.to_string().contains("rank 2 gives up"), "{err}");
}

/// A wrong disk count and an invalid config are refused by the driver
/// itself — a `Config` error, where anything a node reports arrives as
/// `Comm` — before any thread exists, whichever program asks.
#[test]
fn every_program_refuses_bad_disks_and_configs_before_launch() {
    type Sort = fn(&SortConfig, &[DiskRef]) -> Result<(), SortError>;
    let sorts: [(&str, Sort); 4] = [
        ("csort", |c, d| run_csort(c, d).map(|_| ())),
        ("csort4", |c, d| run_csort4(c, d).map(|_| ())),
        ("dsort", |c, d| run_dsort(c, d).map(|_| ())),
        ("dsort-linear", |c, d| run_dsort_linear(c, d).map(|_| ())),
    ];
    let cfg = SortConfig::test_default(4, 4096);
    let disks = provision(&cfg);
    let mut lazy = cfg.clone();
    lazy.workers = 0;
    let mut nobody = cfg.clone();
    nobody.nodes = 0;
    for (name, sort) in sorts {
        let refused = |cfg: &SortConfig, disks: &[DiskRef]| match sort(cfg, disks) {
            Err(SortError::Config(message)) => message,
            other => panic!("{name}: expected a configuration error, got {other:?}"),
        };
        assert_eq!(refused(&cfg, &disks[..3]), "need 4 disks, got 3", "{name}");
        assert_eq!(refused(&lazy, &disks), "workers must be positive", "{name}");
        assert_eq!(refused(&nobody, &[]), "need at least one node", "{name}");
    }
}

#[test]
fn dsort_linear_surfaces_disk_failure() {
    let cfg = SortConfig::test_default(3, 1536);
    let disks = provision(&cfg);
    disks[1].fail_after_ops(5);
    let err = run_dsort_linear(&cfg, &disks).expect_err("must fail");
    assert!(err.to_string().contains("disk failed"), "{err}");
}

#[test]
fn failure_late_in_run_still_clean() {
    // Die during pass 2 (after the input has been fully distributed).
    let cfg = SortConfig::test_default(2, 2048);
    let disks = provision(&cfg);
    // Pass 1 on 2 nodes with these sizes takes well under 200 ops; allow
    // enough to get into pass 2's reads.
    disks[0].fail_after_ops(60);
    let result = run_dsort(&cfg, &disks);
    match result {
        Err(SortError::Comm(m)) => assert!(m.contains("disk failed"), "{m}"),
        Err(other) => {
            assert!(other.to_string().contains("disk failed"), "{other}")
        }
        Ok(_) => panic!("run must not succeed with a dead disk"),
    }
}

#[test]
fn healthy_run_unaffected_by_injection_api() {
    let cfg = SortConfig::test_default(2, 1024);
    let disks = provision(&cfg);
    disks[0].fail_after_ops(u64::MAX); // explicit "healthy"
    run_dsort(&cfg, &disks).expect("healthy run succeeds");
}
