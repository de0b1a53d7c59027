//! Cross-backend end-to-end runs: the same seed must produce byte-identical
//! sorted output whether the disks are in-memory [`SimDisk`]s or real-file
//! `OsDisk`s.  The disk backend is an execution substrate, never part of
//! the algorithm.

use fg_pdm::{ScratchDir, Striping};
use fg_sort::config::{DiskBackend, SortConfig};
use fg_sort::csort::run_csort;
use fg_sort::dsort::run_dsort;
use fg_sort::input::try_provision;
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
