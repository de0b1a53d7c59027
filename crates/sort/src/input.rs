//! Input dataset generation and ground truth.
//!
//! Each node's disk gets an `input` file of `records_per_node` records
//! whose keys follow the configured distribution; payload bytes encode the
//! record's origin `(node, seq)` so every record is distinguishable and
//! permutation checks are exact.  Provisioning uses the cost-free
//! [`Disk::load`] hook — loading the dataset is not part of any measured
//! pass.
//!
//! The backend each disk is built on comes from
//! [`SortConfig::backend`](crate::config::DiskBackend): in-memory
//! [`SimDisk`]s under the configured cost model, or real-file
//! [`OsDisk`](fg_pdm::OsDisk)s under `dir/d{rank}`.  A program gets the
//! bare backend: its read stages' buffer pools are its read-ahead and its
//! write stages its write-behind (DESIGN.md §6).

use fg_core::metrics::MetricsRegistry;
use fg_pdm::{DiskRef, OsDisk, SimDisk};

use crate::config::{DiskBackend, SortConfig};
use crate::keygen::KeyGen;
use crate::record::{RecordFormat, KEY_BYTES};
use crate::SortError;

/// Name of the per-node input file.
pub const INPUT_FILE: &str = "input";

/// Generate node `rank`'s input bytes.
pub fn generate_node_input(cfg: &SortConfig, rank: usize) -> Vec<u8> {
    let rb = cfg.record.record_bytes;
    let mut gen = KeyGen::new(cfg.dist, cfg.seed, rank, cfg.nodes);
    let mut out = vec![0u8; cfg.records_per_node * rb];
    for (i, rec) in out.chunks_exact_mut(rb).enumerate() {
        let (key, payload) = rec.split_at_mut(KEY_BYTES);
        key.copy_from_slice(&gen.next_key().to_le_bytes());
        // Origin identity in the payload: whole, as one fixed-size store, in
        // every experiment format (record_bytes >= 16); truncated below that.
        let ident = (((rank as u64) << 48) | i as u64).to_le_bytes();
        match payload.first_chunk_mut() {
            Some(whole) => *whole = ident,
            None => payload.copy_from_slice(&ident[..payload.len()]),
        }
    }
    out
}

/// Build node `rank`'s bare backend disk per the config, instrumented
/// under `disk/d{rank}/…` when a registry is given.
fn backend_disk(
    cfg: &SortConfig,
    rank: usize,
    registry: Option<&MetricsRegistry>,
) -> Result<DiskRef, SortError> {
    let label = format!("d{rank}");
    Ok(match &cfg.backend {
        DiskBackend::Sim => match registry {
            Some(reg) => SimDisk::with_metrics(cfg.disk, reg, &label) as DiskRef,
            None => SimDisk::new(cfg.disk) as DiskRef,
        },
        DiskBackend::Os { dir } => {
            let root = dir.join(&label);
            match registry {
                Some(reg) => OsDisk::with_metrics(root, reg, &label)? as DiskRef,
                None => OsDisk::new(root)? as DiskRef,
            }
        }
    })
}

/// Provision every node's disk with its input file; returns the disks.
///
/// Panics on backend setup errors (an unusable `--dir` root); use
/// [`try_provision`] where graceful handling matters.
pub fn provision(cfg: &SortConfig) -> Vec<DiskRef> {
    try_provision(cfg).expect("provision disks")
}

/// [`provision`], with each disk recording I/O latency histograms and byte
/// counters into `registry` under `disk/d{rank}/…` names.
pub fn provision_with_metrics(cfg: &SortConfig, registry: &MetricsRegistry) -> Vec<DiskRef> {
    try_provision_with(cfg, Some(registry)).expect("provision disks")
}

/// Fallible [`provision`].
pub fn try_provision(cfg: &SortConfig) -> Result<Vec<DiskRef>, SortError> {
    try_provision_with(cfg, None)
}

/// Fallible [`provision_with_metrics`].
pub fn try_provision_with_metrics(
    cfg: &SortConfig,
    registry: &MetricsRegistry,
) -> Result<Vec<DiskRef>, SortError> {
    try_provision_with(cfg, Some(registry))
}

fn try_provision_with(
    cfg: &SortConfig,
    registry: Option<&MetricsRegistry>,
) -> Result<Vec<DiskRef>, SortError> {
    (0..cfg.nodes)
        .map(|rank| {
            let disk = backend_disk(cfg, rank, registry)?;
            // A reused OsDisk root may hold files from an earlier run;
            // start every experiment from an empty disk (delete is
            // cost-free on all backends).
            for name in disk.list() {
                disk.delete(&name);
            }
            disk.load(INPUT_FILE, generate_node_input(cfg, rank));
            Ok(disk)
        })
        .collect()
}

/// The globally sorted expectation: all nodes' input records sorted stably
/// by key (ground truth for small verification runs).
pub fn expected_sorted(cfg: &SortConfig) -> Vec<u8> {
    let mut all = Vec::with_capacity(cfg.total_bytes() as usize);
    for rank in 0..cfg.nodes {
        all.extend_from_slice(&generate_node_input(cfg, rank));
    }
    let mut scratch = crate::kernels::SortScratch::new();
    cfg.record.sort_bytes_with(&mut all, &mut scratch);
    all
}

/// Fingerprint of the whole input multiset.
pub fn input_fingerprint(cfg: &SortConfig) -> u64 {
    let mut acc = 0u64;
    for rank in 0..cfg.nodes {
        acc = acc.wrapping_add(
            cfg.record
                .multiset_fingerprint(&generate_node_input(cfg, rank)),
        );
    }
    acc
}

/// Keys of every record in `bytes` (test helper).
pub fn keys_of(format: RecordFormat, bytes: &[u8]) -> Vec<u64> {
    format.records(bytes).map(|r| format.key(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keygen::KeyDist;

    #[test]
    fn input_is_deterministic_and_distinct_per_node() {
        let cfg = SortConfig::test_default(3, 100);
        assert_eq!(generate_node_input(&cfg, 1), generate_node_input(&cfg, 1));
        assert_ne!(generate_node_input(&cfg, 0), generate_node_input(&cfg, 1));
    }

    #[test]
    fn records_carry_origin_identity() {
        let cfg = SortConfig::test_default(2, 10);
        let bytes = generate_node_input(&cfg, 1);
        let rec = cfg.record.record(&bytes, 3);
        let ident = u64::from_le_bytes(rec[8..16].try_into().unwrap());
        assert_eq!(ident >> 48, 1);
        assert_eq!(ident & 0xFFFF_FFFF_FFFF, 3);
    }

    #[test]
    fn all_equal_still_distinct_records() {
        let mut cfg = SortConfig::test_default(2, 50);
        cfg.dist = KeyDist::AllEqual;
        let bytes = generate_node_input(&cfg, 0);
        let mut set = std::collections::HashSet::new();
        for rec in cfg.record.records(&bytes) {
            assert!(set.insert(rec.to_vec()), "records must be unique");
        }
    }

    #[test]
    fn provision_loads_input_files() {
        let cfg = SortConfig::test_default(2, 20);
        let disks = provision(&cfg);
        assert_eq!(disks.len(), 2);
        for d in &disks {
            assert_eq!(d.len(INPUT_FILE), Some(cfg.bytes_per_node()));
            // Provisioning must be cost-free.
            assert_eq!(d.stats().bytes_written, 0);
        }
    }

    #[test]
    fn expected_sorted_is_sorted_permutation() {
        let cfg = SortConfig::test_default(3, 64);
        let sorted = expected_sorted(&cfg);
        assert!(cfg.record.is_sorted(&sorted));
        assert_eq!(
            cfg.record.multiset_fingerprint(&sorted),
            input_fingerprint(&cfg)
        );
        assert_eq!(sorted.len() as u64, cfg.total_bytes());
    }
}
