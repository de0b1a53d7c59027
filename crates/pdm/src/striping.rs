//! Parallel Disk Model striping arithmetic.
//!
//! In the PDM (Vitter & Shriver), a logical file of fixed-size blocks is
//! assigned round-robin to the `P` disks of the cluster: global block `b`
//! lives on disk `b mod P`, at local block index `b div P`.  Both dsort and
//! csort produce their final output in this *striped* order (§V).
//!
//! [`Striping`] converts between global byte/block coordinates and
//! `(node, local offset)` pairs, and [`assemble`] reconstructs the global
//! byte stream from the per-node stripe files (used for verification).

use std::sync::Arc;

use crate::disk::Disk;
use crate::PdmError;

/// Striping geometry: number of disks and the stripe block size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Striping {
    /// Number of disks (`P`, one per node).
    pub nodes: usize,
    /// Stripe block size in bytes (`B`).
    pub block_bytes: usize,
}

impl Striping {
    /// Construct; panics on degenerate geometry.
    pub fn new(nodes: usize, block_bytes: usize) -> Self {
        assert!(nodes > 0, "striping needs at least one node");
        assert!(block_bytes > 0, "striping needs a positive block size");
        Striping { nodes, block_bytes }
    }

    /// Which node holds global block `b`, and at which local block index.
    pub fn locate_block(&self, global_block: u64) -> (usize, u64) {
        (
            (global_block % self.nodes as u64) as usize,
            global_block / self.nodes as u64,
        )
    }

    /// Global block index of local block `local` on `node`.
    pub fn global_block_of(&self, node: usize, local_block: u64) -> u64 {
        local_block * self.nodes as u64 + node as u64
    }

    /// Which node holds global byte `offset`, and at which local byte
    /// offset within that node's stripe file.
    pub fn locate_byte(&self, offset: u64) -> (usize, u64) {
        let b = self.block_bytes as u64;
        let block = offset / b;
        let within = offset % b;
        let (node, local_block) = self.locate_block(block);
        (node, local_block * b + within)
    }

    /// Number of bytes of a `total`-byte striped file that land on `node`.
    pub fn bytes_on_node(&self, total: u64, node: usize) -> u64 {
        let b = self.block_bytes as u64;
        let full_blocks = total / b;
        let tail = total % b;
        let p = self.nodes as u64;
        // Full blocks are dealt round-robin; node gets ceil/floor share.
        let base = (full_blocks / p) * b;
        let extra_full = if (node as u64) < full_blocks % p {
            b
        } else {
            0
        };
        let tail_here = if full_blocks % p == node as u64 {
            tail
        } else {
            0
        };
        base + extra_full + tail_here
    }

    /// Split a contiguous global byte range `[offset, offset+len)` into
    /// per-node contiguous writes: `(node, local_offset, range_in_input)`.
    ///
    /// Useful when a stage holds a buffer of output destined for the
    /// striped file starting at global `offset`.
    pub fn split_range(
        &self,
        offset: u64,
        len: usize,
    ) -> Vec<(usize, u64, std::ops::Range<usize>)> {
        self.split_range_iter(offset, len).collect()
    }

    /// [`Striping::split_range`] piece by piece, without the `Vec`: for
    /// stages that split a buffer every round.
    pub fn split_range_iter(
        &self,
        offset: u64,
        len: usize,
    ) -> impl Iterator<Item = (usize, u64, std::ops::Range<usize>)> + '_ {
        let b = self.block_bytes as u64;
        let mut pos = 0usize;
        std::iter::from_fn(move || {
            if pos >= len {
                return None;
            }
            let goff = offset + pos as u64;
            let within = (goff % b) as usize;
            let chunk = (self.block_bytes - within).min(len - pos);
            let (node, local) = self.locate_byte(goff);
            let piece = (node, local, pos..pos + chunk);
            pos += chunk;
            Some(piece)
        })
    }

    /// Reconstruct the global byte stream of a striped file of `total`
    /// bytes from the per-node stripe files named `name`.
    ///
    /// This is a *verification* helper: it reads through cost-free
    /// snapshots so it perturbs neither timings nor I/O counters.  Works
    /// against any backend — `&[Arc<SimDisk>]` and `&[DiskRef]` both
    /// satisfy the bound.
    pub fn assemble<D: Disk + ?Sized>(
        &self,
        disks: &[Arc<D>],
        name: &str,
        total: u64,
    ) -> Result<Vec<u8>, PdmError> {
        assert_eq!(disks.len(), self.nodes, "one disk per node");
        // A node whose stripe share is empty may never have created the
        // file; treat it as empty (the range check below still catches
        // genuinely missing data).
        let snapshots: Vec<Vec<u8>> = disks
            .iter()
            .map(|d| d.snapshot(name).unwrap_or_default())
            .collect();
        let b = self.block_bytes as u64;
        let mut out = Vec::with_capacity(total as usize);
        let mut block = 0u64;
        while (out.len() as u64) < total {
            let (node, local_block) = self.locate_block(block);
            let want = ((total - out.len() as u64).min(b)) as usize;
            let start = (local_block * b) as usize;
            let snap = &snapshots[node];
            if start + want > snap.len() {
                return Err(PdmError::OutOfRange {
                    file: name.to_string(),
                    offset: local_block * b,
                    len: want,
                    file_len: snap.len() as u64,
                });
            }
            out.extend_from_slice(&snap[start..start + want]);
            block += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskCfg, SimDisk};

    #[test]
    fn block_round_robin() {
        let s = Striping::new(4, 100);
        assert_eq!(s.locate_block(0), (0, 0));
        assert_eq!(s.locate_block(1), (1, 0));
        assert_eq!(s.locate_block(4), (0, 1));
        assert_eq!(s.locate_block(7), (3, 1));
        for b in 0..100 {
            let (n, l) = s.locate_block(b);
            assert_eq!(s.global_block_of(n, l), b);
        }
    }

    #[test]
    fn byte_location() {
        let s = Striping::new(2, 10);
        assert_eq!(s.locate_byte(0), (0, 0));
        assert_eq!(s.locate_byte(9), (0, 9));
        assert_eq!(s.locate_byte(10), (1, 0));
        assert_eq!(s.locate_byte(25), (0, 15)); // block 2 -> node 0 local block 1
    }

    #[test]
    fn bytes_on_node_partitions_total() {
        for total in [0u64, 1, 9, 10, 11, 99, 100, 101, 1234] {
            for nodes in [1usize, 2, 3, 5] {
                let s = Striping::new(nodes, 10);
                let sum: u64 = (0..nodes).map(|n| s.bytes_on_node(total, n)).sum();
                assert_eq!(sum, total, "total={total} nodes={nodes}");
            }
        }
    }

    #[test]
    fn split_range_covers_input_contiguously() {
        let s = Striping::new(3, 8);
        let parts = s.split_range(5, 30);
        let mut covered = 0usize;
        for (node, local, range) in &parts {
            assert_eq!(range.start, covered);
            covered = range.end;
            // Each part fits one block on one node.
            assert!(*node < 3);
            assert!(range.len() <= 8);
            let _ = local;
        }
        assert_eq!(covered, 30);
    }

    #[test]
    fn split_range_matches_locate_byte() {
        let s = Striping::new(4, 16);
        for (node, local, range) in s.split_range(100, 64) {
            let (n, l) = s.locate_byte(100 + range.start as u64);
            assert_eq!((node, local), (n, l));
        }
    }

    #[test]
    fn striped_write_and_assemble_roundtrip() {
        let s = Striping::new(3, 4);
        let disks: Vec<_> = (0..3).map(|_| SimDisk::new(DiskCfg::zero())).collect();
        let data: Vec<u8> = (0..26u8).collect();
        for (node, local, range) in s.split_range(0, data.len()) {
            disks[node].write_at("out", local, &data[range]).unwrap();
        }
        let got = s.assemble(&disks, "out", data.len() as u64).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn assemble_detects_missing_data() {
        let s = Striping::new(2, 4);
        let disks: Vec<_> = (0..2).map(|_| SimDisk::new(DiskCfg::zero())).collect();
        disks[0].write_at("out", 0, &[1, 2, 3, 4]).unwrap();
        // Node 1's stripe was never written.
        assert!(s.assemble(&disks, "out", 8).is_err());
    }
}
