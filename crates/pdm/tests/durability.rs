//! `Disk::flush` forces every write the handle accepted since the last
//! flush, and nothing else.
//!
//! A sync is observed through the kernel's own books: when a file is
//! deleted, the dirty page cache it still held is dropped unwritten and
//! counted in the deleting thread's `cancelled_write_bytes`
//! (`/proc/thread-self/io`).  A file that a flush forced cancels 0; one it
//! left to the kernel cancels its bytes.  The disks live under the build's
//! target directory, on the checkout's filesystem: a tmpfs has no writeback
//! and books nothing, so every disk is first calibrated on an unsynced file
//! and a test fails, naming the filesystem, rather than pass on zeros.
#![cfg(target_os = "linux")]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fg_pdm::{Disk, IoScheduler, OsDisk};

const MIB: usize = 1 << 20;

/// A disk root under `CARGO_TARGET_TMPDIR`, removed on drop.
struct Root(PathBuf);

impl Root {
    fn new(tag: &str) -> Root {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("durability-{tag}-{}-{seq}", std::process::id()));
        fs::create_dir_all(&path).expect("create disk root");
        Root(path)
    }
}

impl Drop for Root {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// This thread's `cancelled_write_bytes`.
fn cancelled_write_bytes() -> u64 {
    let io = fs::read_to_string("/proc/thread-self/io").expect("read /proc/thread-self/io");
    io.lines()
        .find_map(|l| l.strip_prefix("cancelled_write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a cancelled_write_bytes line")
}

/// Bytes of dirty page cache dropped by deleting `name` on this thread.
fn cancelled_by_delete(disk: &dyn Disk, name: &str) -> u64 {
    let before = cancelled_write_bytes();
    assert!(disk.delete(name), "{name} existed");
    cancelled_write_bytes() - before
}

/// The type of the filesystem `path` lives on (the longest mount point
/// that contains it).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().expect("canonical root");
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && path.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or_else(|| "an unknown filesystem".into(), |(_, fs)| fs)
}

/// A bare `OsDisk` under a fresh root, calibrated: a written file deleted
/// before any flush must cancel its bytes, or no 0 below means anything.
fn calibrated(tag: &str, disk: fn(PathBuf) -> Arc<OsDisk>) -> (Root, Arc<OsDisk>) {
    let root = Root::new(tag);
    let d = disk(root.0.clone());
    let probe = OsDisk::new(root.0.join("calibration")).expect("probe disk");
    probe.write_at("f", 0, &vec![7; MIB]).unwrap();
    let seen = cancelled_by_delete(&*probe, "f");
    assert_eq!(
        seen,
        MIB as u64,
        "deleting 1 MiB of unsynced writes cancelled {seen} bytes on {} ({}): \
         this filesystem does not show a sync",
        filesystem_of(&root.0),
        root.0.display()
    );
    (root, d)
}

fn plain(root: PathBuf) -> Arc<OsDisk> {
    OsDisk::new(root).expect("os disk")
}

#[test]
fn a_loaded_file_is_not_forced_by_a_flush() {
    let (_root, d) = calibrated("load", plain);
    d.load("input", vec![1; MIB]);
    let mut out = vec![0; 4096];
    d.read_at("input", 0, &mut out).unwrap();
    d.flush().unwrap();
    assert_eq!(cancelled_by_delete(&*d, "input"), MIB as u64);
}

#[test]
fn written_and_appended_files_are_forced_by_a_flush() {
    let (_root, d) = calibrated("write", plain);
    d.write_at("w", 0, &vec![2; MIB]).unwrap();
    d.append("a", &vec![3; MIB / 2]).unwrap();
    d.append("a", &vec![4; MIB / 2]).unwrap();
    d.flush().unwrap();
    assert_eq!(cancelled_by_delete(&*d, "w"), 0);
    assert_eq!(cancelled_by_delete(&*d, "a"), 0);
}

#[test]
fn a_write_after_a_flush_is_owed_again() {
    let (_root, d) = calibrated("again", plain);
    d.write_at("f", 0, &vec![5; MIB]).unwrap();
    d.flush().unwrap();
    d.write_at("f", MIB as u64, &vec![6; MIB]).unwrap();
    d.append("f", &vec![7; MIB]).unwrap();
    d.flush().unwrap();
    assert_eq!(cancelled_by_delete(&*d, "f"), 0);
}

#[test]
fn a_durable_write_needs_no_flush() {
    let (_root, d) = calibrated("durable", |root| OsDisk::durable(root).expect("os disk"));
    d.write_at("w", 0, &vec![8; MIB]).unwrap();
    d.append("a", &vec![9; MIB]).unwrap();
    assert_eq!(cancelled_by_delete(&*d, "w"), 0);
    assert_eq!(cancelled_by_delete(&*d, "a"), 0);
}

#[test]
fn a_file_deleted_before_the_flush_is_never_forced() {
    let (_root, d) = calibrated("deleted", plain);
    d.write_at("scratch", 0, &vec![1; MIB]).unwrap();
    d.write_at("kept", 0, &vec![2; MIB]).unwrap();
    assert_eq!(cancelled_by_delete(&*d, "scratch"), MIB as u64);
    d.flush().unwrap();
    assert_eq!(cancelled_by_delete(&*d, "kept"), 0);
}

#[test]
fn a_scheduler_forwards_the_same_contract() {
    let (_root, d) = calibrated("sched", plain);
    let s = IoScheduler::new(d, 4).expect("scheduler");
    s.load("input", vec![1; MIB]);
    s.write_at("w", 0, &vec![2; MIB]).unwrap();
    s.append("a", &vec![3; MIB]).unwrap();
    s.flush().unwrap();
    assert_eq!(cancelled_by_delete(&*s, "input"), MIB as u64);
    assert_eq!(cancelled_by_delete(&*s, "w"), 0);
    assert_eq!(cancelled_by_delete(&*s, "a"), 0);
}
