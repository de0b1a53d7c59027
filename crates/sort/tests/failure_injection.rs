//! Failure injection: a disk that dies mid-run must surface as a clean
//! error from the whole stack — FG program torn down, cluster poisoned,
//! the run function returning `Err` instead of hanging or panicking.

use fg_sort::config::SortConfig;
use fg_sort::csort::run_csort;
use fg_sort::dsort::run_dsort;
use fg_sort::dsort_linear::run_dsort_linear;
use fg_sort::input::provision;
use fg_sort::keygen::KeyDist;
use fg_sort::SortError;

#[test]
fn dsort_surfaces_disk_failure() {
    let cfg = SortConfig::test_default(4, 2048);
    let disks = provision(&cfg);
    // Node 2's disk dies after a handful of operations (mid pass 1).
    disks[2].fail_after_ops(10);
    let err = run_dsort(&cfg, &disks).expect_err("must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("disk failed"),
        "error should carry the root cause: {msg}"
    );
}

/// A receiver whose disk dies stops returning payloads, so the nodes that
/// send to it — itself included — run out of credits and block, and its node
/// function cannot return while its own send stage is blocked.  The fabric
/// stages of the dying program poison the fabric on their way out, which
/// must wake every one of them: the run ends in the disk's error, not in a
/// hang (the helper thread turns a hang into a failure).  The failure points
/// cover both passes.
#[test]
fn dsort_disk_failure_wakes_senders_blocked_on_credits() {
    // Every key equal: each sender's whole input goes to a single receiver,
    // far more messages than it has credits.
    let mut cfg = SortConfig::test_default(4, 16384);
    cfg.dist = KeyDist::AllEqual;
    cfg.watchdog = Some(std::time::Duration::from_secs(30));
    for ops in [10, 40, 150, 400, 600] {
        let disks = provision(&cfg);
        disks[1].fail_after_ops(ops);
        let (tx, rx) = std::sync::mpsc::channel();
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            let _ = tx.send(run_dsort(&cfg, &disks).map(|_| ()));
        });
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("dsort hung after disk 1 failed at op {ops}"))
            .expect_err("must fail");
        assert!(err.to_string().contains("disk failed"), "op {ops}: {err}");
    }
}

#[test]
fn csort_surfaces_disk_failure() {
    let cfg = SortConfig::test_default(4, 4096);
    let disks = provision(&cfg);
    disks[0].fail_after_ops(3);
    let err = run_csort(&cfg, &disks).expect_err("must fail");
    assert!(err.to_string().contains("disk failed"), "{err}");
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
