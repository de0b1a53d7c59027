//! Cross-backend end-to-end runs: the same seed must produce byte-identical
//! sorted output whether the disks are in-memory [`SimDisk`]s or real-file
//! `OsDisk`s.  The disk backend is an execution substrate, never part of
//! the algorithm.

use std::path::{Path, PathBuf};

use fg_pdm::{ScratchDir, Striping};
use fg_sort::config::{DiskBackend, SortConfig};
use fg_sort::csort::run_csort;
use fg_sort::dsort::run_dsort;
use fg_sort::input::{try_provision, INPUT_FILE};
use fg_sort::keygen::KeyDist;
use fg_sort::verify::{verify_output, Strictness, OUTPUT_FILE};

/// Run `sort` on `cfg`'s backend and return the assembled striped output.
fn sorted_output(
    cfg: &SortConfig,
    sort: impl Fn(&SortConfig, &[fg_pdm::DiskRef]) -> Result<(), fg_sort::SortError>,
) -> Vec<u8> {
    let disks = try_provision(cfg).expect("provision");
    sort(cfg, &disks).expect("sort run");
    verify_output(cfg, &disks, Strictness::Exact).expect("verified output");
    Striping::new(cfg.nodes, cfg.block_bytes)
        .assemble(&disks, OUTPUT_FILE, cfg.total_bytes())
        .expect("assemble output")
}

fn os_cfg(base: &SortConfig, scratch: &ScratchDir) -> SortConfig {
    let mut cfg = base.clone();
    cfg.backend = DiskBackend::Os {
        dir: scratch.path().to_path_buf(),
    };
    cfg
}

#[test]
fn dsort_output_identical_across_backends() {
    let scratch = ScratchDir::new("backends-dsort").unwrap();
    let mut base = SortConfig::test_default(4, 1024);
    base.dist = KeyDist::StdNormal;
    let run = |cfg: &SortConfig, disks: &[fg_pdm::DiskRef]| run_dsort(cfg, disks).map(|_| ());

    let sim = sorted_output(&base, run);
    let os = sorted_output(&os_cfg(&base, &scratch), run);
    assert_eq!(sim, os, "sim and os backends diverged");
}

#[test]
fn csort_output_identical_across_backends() {
    let scratch = ScratchDir::new("backends-csort").unwrap();
    let base = SortConfig::test_default(2, 768);

    let run = |cfg: &SortConfig, disks: &[fg_pdm::DiskRef]| run_csort(cfg, disks).map(|_| ());
    let sim = sorted_output(&base, run);
    let os = sorted_output(&os_cfg(&base, &scratch), run);
    assert_eq!(sim, os, "sim and os backends diverged");
}

#[test]
fn os_backend_reuses_dirty_directory() {
    // Provisioning must scrub stale files left by an earlier run in the
    // same --dir before loading fresh input.
    let scratch = ScratchDir::new("backends-reuse").unwrap();
    let cfg = os_cfg(&SortConfig::test_default(2, 512), &scratch);
    for _ in 0..2 {
        let disks = try_provision(&cfg).expect("provision");
        run_dsort(&cfg, &disks).expect("dsort run");
        verify_output(&cfg, &disks, Strictness::Fingerprint).expect("verified output");
    }
}

/// Bytes of dirty page cache dropped by deleting `name` on this thread
/// (`cancelled_write_bytes` of `/proc/thread-self/io`).
#[cfg(target_os = "linux")]
fn cancelled_by_delete(disk: &fg_pdm::DiskRef, name: &str) -> u64 {
    let cancelled = || {
        let io = std::fs::read_to_string("/proc/thread-self/io").expect("thread io");
        io.lines()
            .find_map(|l| l.strip_prefix("cancelled_write_bytes:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .expect("a cancelled_write_bytes line")
    };
    let before = cancelled();
    assert!(disk.delete(name), "{name} existed");
    cancelled() - before
}

/// A run's `sync` forces what the run wrote and leaves its input, which it
/// only read, to the kernel.  The disks live under the build's target
/// directory, on the checkout's filesystem (a tmpfs books no cancelled
/// writes, and the input's bytes would read 0).
#[cfg(target_os = "linux")]
#[test]
fn a_runs_sync_forces_its_output_and_not_its_input() {
    type Sort = fn(&SortConfig, &[fg_pdm::DiskRef]) -> Result<(), fg_sort::SortError>;
    let sorts: [(&str, Sort); 2] = [
        ("dsort", |cfg, disks| run_dsort(cfg, disks).map(|_| ())),
        ("csort", |cfg, disks| run_csort(cfg, disks).map(|_| ())),
    ];
    /// The disk roots, removed however the test ends.
    struct Roots(PathBuf);
    impl Drop for Roots {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    for (name, sort) in sorts {
        let roots = Roots(
            Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("backends-sync-{name}-{}", std::process::id())),
        );
        let mut cfg = SortConfig::test_default(2, 1024);
        cfg.backend = DiskBackend::Os {
            dir: roots.0.clone(),
        };
        let disks = try_provision(&cfg).expect("provision");
        sort(&cfg, &disks).expect("sort run");
        verify_output(&cfg, &disks, Strictness::Exact).expect("verified output");
        for (rank, disk) in disks.iter().enumerate() {
            let input = cancelled_by_delete(disk, INPUT_FILE);
            let output = cancelled_by_delete(disk, OUTPUT_FILE);
            assert_eq!(input, cfg.bytes_per_node(), "{name} node {rank}: input");
            assert_eq!(output, 0, "{name} node {rank}: output");
        }
    }
}
