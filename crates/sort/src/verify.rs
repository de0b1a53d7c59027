//! Output verification: sorted ∧ striped ∧ a permutation of the input.
//!
//! Both sorts emit "striped output ... in the order defined in the Parallel
//! Disk Model" (§V).  Verification reassembles the global stream from the
//! per-node stripe files and checks:
//!
//! 1. the length equals the input length,
//! 2. keys are non-decreasing, and
//! 3. the multiset of records equals the input's (order-insensitive
//!    fingerprint, plus an exact byte comparison against the reference
//!    sort when `strict` is requested — affordable at test scale).

use fg_pdm::{DiskRef, Striping};

use crate::config::SortConfig;
use crate::input;
use crate::SortError;

/// Name of the per-node striped output file.
pub const OUTPUT_FILE: &str = "output";

/// How thoroughly to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strictness {
    /// Length + sortedness + multiset fingerprint.
    Fingerprint,
    /// Everything in `Fingerprint`, plus an exact byte-for-byte comparison
    /// against a stable reference sort of the input.
    Exact,
}

/// Verify the striped output of a finished sort run.
pub fn verify_output(
    cfg: &SortConfig,
    disks: &[DiskRef],
    strictness: Strictness,
) -> Result<(), SortError> {
    let striping = Striping::new(cfg.nodes, cfg.block_bytes);
    let total = cfg.total_bytes();
    let got = striping
        .assemble(disks, OUTPUT_FILE, total)
        .map_err(|e| SortError::Verify(format!("assembling striped output: {e}")))?;
    if got.len() as u64 != total {
        return Err(SortError::Verify(format!(
            "output length {} != input length {total}",
            got.len()
        )));
    }
    let key = |i| cfg.record.key(cfg.record.record(&got, i));
    if let Some(i) = (1..cfg.record.count(&got)).find(|&i| key(i) < key(i - 1)) {
        let (prev, k) = (key(i - 1), key(i));
        return Err(SortError::Verify(format!(
            "keys out of order at record {i}: {prev} then {k}"
        )));
    }
    let got_fp = cfg.record.multiset_fingerprint(&got);
    let want_fp = input::input_fingerprint(cfg);
    if got_fp != want_fp {
        return Err(SortError::Verify(format!(
            "record multiset changed: fingerprint {got_fp:#x} != input {want_fp:#x}"
        )));
    }
    if strictness == Strictness::Exact {
        let expect = input::expected_sorted(cfg);
        // Keys must match exactly; payload order among equal keys may
        // legitimately differ between sorting algorithms, so compare keys
        // positionally and the full multiset (already checked above).
        let got_keys = input::keys_of(cfg.record, &got);
        let want_keys = input::keys_of(cfg.record, &expect);
        if got_keys != want_keys {
            let first = got_keys
                .iter()
                .zip(&want_keys)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(SortError::Verify(format!(
                "key sequence differs from reference at record {first}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_pdm::{DiskCfg, SimDisk};

    /// Write a correct striped output for `cfg` onto fresh disks.
    fn write_correct(cfg: &SortConfig) -> Vec<DiskRef> {
        let disks: Vec<DiskRef> = (0..cfg.nodes)
            .map(|_| SimDisk::new(DiskCfg::zero()) as DiskRef)
            .collect();
        let sorted = input::expected_sorted(cfg);
        let striping = Striping::new(cfg.nodes, cfg.block_bytes);
        for (node, local, range) in striping.split_range(0, sorted.len()) {
            disks[node]
                .write_at(OUTPUT_FILE, local, &sorted[range])
                .unwrap();
        }
        disks
    }

    #[test]
    fn accepts_correct_output() {
        let cfg = SortConfig::test_default(3, 128);
        let disks = write_correct(&cfg);
        verify_output(&cfg, &disks, Strictness::Exact).unwrap();
    }

    #[test]
    fn rejects_missing_stripe() {
        let cfg = SortConfig::test_default(3, 128);
        let disks = write_correct(&cfg);
        disks[1].delete(OUTPUT_FILE);
        assert!(verify_output(&cfg, &disks, Strictness::Fingerprint).is_err());
    }

    #[test]
    fn rejects_unsorted_output() {
        let cfg = SortConfig::test_default(2, 64);
        let disks = write_correct(&cfg);
        // Swap two records within node 0's first block.
        let mut snap = disks[0].snapshot(OUTPUT_FILE).unwrap();
        let rb = cfg.record.record_bytes;
        let (a, b) = (0usize, rb);
        for i in 0..rb {
            snap.swap(a + i, b + i);
        }
        disks[0].load(OUTPUT_FILE, snap);
        // Either unsorted or (if keys happened to be equal) still fine; use
        // a distribution guaranteeing distinct keys.
        let err = verify_output(&cfg, &disks, Strictness::Fingerprint);
        // Uniform 64-bit keys: collision probability negligible.
        assert!(err.is_err(), "swapped records must be detected");
    }

    #[test]
    fn rejects_tampered_record() {
        let cfg = SortConfig::test_default(2, 64);
        let disks = write_correct(&cfg);
        let mut snap = disks[0].snapshot(OUTPUT_FILE).unwrap();
        let last = snap.len() - 1;
        snap[last] ^= 0xFF; // corrupt payload, keys stay sorted
        disks[0].load(OUTPUT_FILE, snap);
        let err = verify_output(&cfg, &disks, Strictness::Fingerprint).unwrap_err();
        assert!(matches!(err, SortError::Verify(m) if m.contains("multiset")));
    }
}
