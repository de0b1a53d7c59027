//! Property-based tests for PDM striping arithmetic and the simulated disk.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use fg_pdm::{Disk, DiskCfg, SimDisk, Striping};

proptest! {
    /// Block location round-trips for any geometry.
    #[test]
    fn block_location_roundtrip(nodes in 1usize..12, block in 1usize..64, g in 0u64..10_000) {
        let s = Striping::new(nodes, block);
        let (n, l) = s.locate_block(g);
        prop_assert!(n < nodes);
        prop_assert_eq!(s.global_block_of(n, l), g);
    }

    /// locate_byte is consistent with locate_block.
    #[test]
    fn byte_location_consistent(nodes in 1usize..8, block in 1usize..32, off in 0u64..5_000) {
        let s = Striping::new(nodes, block);
        let (n, local) = s.locate_byte(off);
        let (bn, bl) = s.locate_block(off / block as u64);
        prop_assert_eq!(n, bn);
        prop_assert_eq!(local / block as u64, bl);
        prop_assert_eq!(local % block as u64, off % block as u64);
    }

    /// split_range covers exactly the requested range, in order, with no
    /// chunk crossing a block boundary.
    #[test]
    fn split_range_exact_cover(
        nodes in 1usize..8,
        block in 1usize..32,
        off in 0u64..1000,
        len in 0usize..200,
    ) {
        let s = Striping::new(nodes, block);
        let parts = s.split_range(off, len);
        let mut covered = 0usize;
        for (node, local, range) in &parts {
            prop_assert_eq!(range.start, covered);
            covered = range.end;
            prop_assert!(range.len() <= block);
            let (n, l) = s.locate_byte(off + range.start as u64);
            prop_assert_eq!((*node, *local), (n, l));
            // No block-boundary crossing.
            let start_block = (off + range.start as u64) / block as u64;
            let end_block = (off + range.end as u64 - 1) / block as u64;
            if !range.is_empty() {
                prop_assert_eq!(start_block, end_block);
            }
        }
        prop_assert_eq!(covered, len);
    }

    /// bytes_on_node partitions the total for any geometry.
    #[test]
    fn bytes_on_node_partitions(nodes in 1usize..10, block in 1usize..40, total in 0u64..10_000) {
        let s = Striping::new(nodes, block);
        let sum: u64 = (0..nodes).map(|n| s.bytes_on_node(total, n)).sum();
        prop_assert_eq!(sum, total);
    }

    /// Striped write + assemble round-trips arbitrary data.
    #[test]
    fn stripe_roundtrip(nodes in 1usize..6, block in 1usize..16, data in vec(any::<u8>(), 0..300)) {
        let s = Striping::new(nodes, block);
        let disks: Vec<Arc<SimDisk>> =
            (0..nodes).map(|_| SimDisk::new(DiskCfg::zero())).collect();
        for (node, local, range) in s.split_range(0, data.len()) {
            disks[node].write_at("f", local, &data[range]).unwrap();
        }
        if data.is_empty() {
            // assemble requires files to exist; trivially fine.
            return Ok(());
        }
        let got = s.assemble(&disks, "f", data.len() as u64).unwrap();
        prop_assert_eq!(got, data);
    }

    /// Disk write/read round-trips at arbitrary offsets.
    #[test]
    fn disk_write_read_roundtrip(
        writes in vec((0u64..500, vec(any::<u8>(), 1..40)), 1..10)
    ) {
        let d = SimDisk::new(DiskCfg::zero());
        // Model the file contents alongside.
        let mut model: Vec<u8> = Vec::new();
        for (off, data) in &writes {
            let end = *off as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[*off as usize..end].copy_from_slice(data);
            d.write_at("f", *off, data).unwrap();
        }
        let mut out = vec![0u8; model.len()];
        d.read_at("f", 0, &mut out).unwrap();
        prop_assert_eq!(out, model);
    }
}
