//! The disk barriers of every program on the cluster driver: a pass ends at
//! `land`, a run at one `flush` a node after its last pass, and a scratch
//! file is gone once its last reader has run.  A counting wrapper between
//! each program and its disks sees every barrier, on in-memory disks and on
//! real files.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fg_apps::groupby::{run_groupby, COUNTS_FILE};
use fg_pdm::{Disk, DiskRef, DiskStats, PdmError, ScratchDir};
use fg_sort::config::{DiskBackend, SortConfig};
use fg_sort::input::{provision, INPUT_FILE};
use fg_sort::verify::OUTPUT_FILE;
use fg_sort::SortError;

/// Every barrier asked of the wrapped disk, in order, with whether it
/// succeeded; and, once armed, a disk that dies at its first write once
/// `kill_after` lands have run.
struct Barriers {
    inner: DiskRef,
    log: Mutex<Vec<(&'static str, bool)>>,
    kill_after: Option<usize>,
    /// How long the log was when the disk died (`usize::MAX`: alive).
    killed_at: AtomicUsize,
}

impl Barriers {
    fn wrap(inner: DiskRef, kill_after: Option<usize>) -> Arc<Self> {
        Arc::new(Barriers {
            inner,
            log: Mutex::new(Vec::new()),
            kill_after,
            killed_at: AtomicUsize::new(usize::MAX),
        })
    }

    fn before_write(&self) {
        let log = self.log.lock().unwrap();
        let lands = log.iter().filter(|(b, _)| *b == "land").count();
        let armed = self.kill_after.is_some_and(|after| lands >= after);
        if armed && self.killed_at.load(Ordering::SeqCst) == usize::MAX {
            self.killed_at.store(log.len(), Ordering::SeqCst);
            self.inner.fail_after_ops(0);
        }
    }

    fn barrier(&self, name: &'static str, res: Result<(), PdmError>) -> Result<(), PdmError> {
        self.log.lock().unwrap().push((name, res.is_ok()));
        res
    }

    fn log(&self) -> Vec<(&'static str, bool)> {
        self.log.lock().unwrap().clone()
    }
}

impl Disk for Barriers {
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), PdmError> {
        self.before_write();
        self.inner.write_at(name, offset, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PdmError> {
        self.before_write();
        self.inner.append(name, data)
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
    fn reserve(&self, name: &str, bytes: u64) {
        self.inner.reserve(name, bytes)
    }
    fn land(&self) -> Result<(), PdmError> {
        self.barrier("land", self.inner.land())
    }
    fn flush(&self) -> Result<(), PdmError> {
        self.barrier("flush", self.inner.flush())
    }
}

type Run = fn(&SortConfig, &[DiskRef]) -> Result<(), SortError>;

/// Each program: its name, how to run it, its passes (one FG program each)
/// and the file it leaves beside the input.
fn programs() -> [(&'static str, Run, usize, &'static str); 5] {
    use fg_sort::{csort, csort4, dsort, dsort_linear};
    [
        (
            "csort",
            |c, d| csort::run_csort(c, d).map(drop),
            3,
            OUTPUT_FILE,
        ),
        (
            "csort4",
            |c, d| csort4::run_csort4(c, d).map(drop),
            4,
            OUTPUT_FILE,
        ),
        (
            "dsort",
            |c, d| dsort::run_dsort(c, d).map(drop),
            2,
            OUTPUT_FILE,
        ),
        (
            "dsort-linear",
            |c, d| dsort_linear::run_dsort_linear(c, d).map(drop),
            2,
            OUTPUT_FILE,
        ),
        (
            "group-by",
            |c, d| run_groupby(c, d).map(drop),
            1,
            COUNTS_FILE,
        ),
    ]
}

/// `case` on in-memory disks, then on real files.
fn on_sim_and_os(case: impl Fn(&str, &SortConfig)) {
    let mut cfg = SortConfig::test_default(4, 4096);
    cfg.watchdog = Some(Duration::from_secs(30));
    case("sim", &cfg);
    let scratch = ScratchDir::new("barriers").expect("scratch directory");
    cfg.backend = DiskBackend::Os {
        dir: scratch.path().to_path_buf(),
    };
    case("os", &cfg);
}

/// Run `program` on a helper thread over every node's disk wrapped, node 1's
/// armed to die at its first write once `kill_after` lands have run; a hang
/// fails the test instead of stalling it.
fn run_wrapped(
    cfg: &SortConfig,
    program: Run,
    kill_after: Option<usize>,
) -> (Result<(), SortError>, Vec<Arc<Barriers>>) {
    let wrapped: Vec<_> = provision(cfg)
        .into_iter()
        .enumerate()
        .map(|(rank, disk)| Barriers::wrap(disk, kill_after.filter(|_| rank == 1)))
        .collect();
    let disks: Vec<DiskRef> = wrapped.iter().map(|d| Arc::clone(d) as DiskRef).collect();
    let (tx, rx) = std::sync::mpsc::channel();
    let cfg = cfg.clone();
    std::thread::spawn(move || {
        let _ = tx.send(program(&cfg, &disks));
    });
    let res = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the run hung");
    (res, wrapped)
}

/// A healthy run lands once a pass and flushes once a node, after the last
/// pass, and leaves only the input and its result on every disk.
#[test]
fn a_pass_ends_at_land_and_a_run_at_one_flush() {
    on_sim_and_os(|backend, cfg| {
        for (name, program, passes, result) in programs() {
            let (res, disks) = run_wrapped(cfg, program, None);
            res.unwrap_or_else(|e| panic!("{backend}, {name}: {e}"));
            let mut want = vec![("land", true); passes];
            want.push(("flush", true));
            let mut files = vec![INPUT_FILE, result];
            files.sort_unstable();
            for (rank, disk) in disks.iter().enumerate() {
                assert_eq!(disk.log(), want, "{backend}, {name}, node {rank}");
                let mut left = disk.list();
                left.sort_unstable();
                assert_eq!(left, files, "{backend}, {name}, node {rank}");
            }
        }
    });
}

/// A disk that dies at the first write of any pass ends the run in the
/// disk's error by the first barrier after it: either the pass fails before
/// its `land`, or that barrier reports the deferred write's failure — and
/// no barrier after it runs.  (Group-by writes its table after its one
/// program, so that barrier is the run's `flush`.)
#[test]
fn a_disk_killed_in_any_pass_ends_the_run_at_that_pass() {
    on_sim_and_os(|backend, cfg| {
        for (name, program, passes, _) in programs() {
            for pass in 1..=passes {
                let what = format!("{backend}, {name}, disk 1 dead in pass {pass}");
                let (res, disks) = run_wrapped(cfg, program, Some(pass - 1));
                let err = res.expect_err(&what);
                assert!(err.to_string().contains("disk failed"), "{what}: {err}");
                let killed_at = disks[1].killed_at.load(Ordering::SeqCst);
                let log = disks[1].log();
                assert!(killed_at <= log.len(), "{what}: never killed, {log:?}");
                let after = &log[killed_at..];
                assert!(
                    after.len() <= 1 && after.iter().all(|(_, ok)| !ok),
                    "{what}: {log:?}"
                );
            }
        }
    });
}
