//! Record formats and key handling.
//!
//! The paper sorts *records* — a sort key plus additional data (footnote 1)
//! — at two sizes: 16-byte records (4 gigarecords in 64 GB) and 64-byte
//! records (1 gigarecord).  We use the same layout for both: a little-endian
//! `u64` key in the first eight bytes, payload in the rest.  Everything
//! operates on byte slices so records flow through FG buffers, disk blocks,
//! and network messages without conversion.

use crate::SortError;

/// A record layout: total size in bytes, key in the first eight bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordFormat {
    /// Total record size in bytes (at least 8 for the key).
    pub record_bytes: usize,
}

/// Bytes of the embedded sort key.
pub const KEY_BYTES: usize = 8;

impl RecordFormat {
    /// The paper's 16-byte record format.
    pub const REC16: RecordFormat = RecordFormat { record_bytes: 16 };
    /// The paper's 64-byte record format.
    pub const REC64: RecordFormat = RecordFormat { record_bytes: 64 };

    /// A format with the given record size.
    pub fn new(record_bytes: usize) -> Result<Self, SortError> {
        if record_bytes < KEY_BYTES {
            return Err(SortError::Config(format!(
                "record size {record_bytes} smaller than the {KEY_BYTES}-byte key"
            )));
        }
        Ok(RecordFormat { record_bytes })
    }

    /// Extract the key of a record slice.
    ///
    /// # Panics
    /// Panics if `rec` is shorter than the key.
    pub fn key(&self, rec: &[u8]) -> u64 {
        u64::from_le_bytes(rec[..KEY_BYTES].try_into().expect("key bytes"))
    }

    /// Write `key` into the first eight bytes of `rec`.
    pub fn set_key(&self, rec: &mut [u8], key: u64) {
        rec[..KEY_BYTES].copy_from_slice(&key.to_le_bytes());
    }

    /// Number of whole records in `bytes`.
    ///
    /// # Panics
    /// Panics if `bytes` is not a whole number of records.
    pub fn count(&self, bytes: &[u8]) -> usize {
        assert_eq!(
            bytes.len() % self.record_bytes,
            0,
            "byte length {} is not a whole number of {}-byte records",
            bytes.len(),
            self.record_bytes
        );
        bytes.len() / self.record_bytes
    }

    /// Iterate over the records of `bytes`.
    pub fn records<'a>(&self, bytes: &'a [u8]) -> std::slice::ChunksExact<'a, u8> {
        bytes.chunks_exact(self.record_bytes)
    }

    /// The `i`-th record of `bytes`.
    pub fn record<'a>(&self, bytes: &'a [u8], i: usize) -> &'a [u8] {
        &bytes[i * self.record_bytes..(i + 1) * self.record_bytes]
    }

    /// Stable sort of the records in `bytes` by key through the kernel
    /// scratch ([`crate::kernels::sort_records`]: a radix sort on the key
    /// bits that separate the records, byte-identical to a stable comparison
    /// sort); no allocation once the scratch is warm.
    pub fn sort_bytes_with(&self, bytes: &mut [u8], scratch: &mut crate::kernels::SortScratch) {
        crate::kernels::sort_records(*self, bytes, scratch);
    }

    /// Whether the records in `bytes` are sorted by key (non-decreasing).
    pub fn is_sorted(&self, bytes: &[u8]) -> bool {
        self.records(bytes).map(|r| self.key(r)).is_sorted()
    }

    /// Order-insensitive fingerprint of a multiset of records: the wrapping
    /// sum of a per-record FNV-1a hash.  Used to check that sorting
    /// preserved the record multiset without materializing both sides.
    pub fn multiset_fingerprint(&self, bytes: &[u8]) -> u64 {
        let mut acc = 0u64;
        for rec in self.records(bytes) {
            acc = acc.wrapping_add(fnv1a(rec));
        }
        acc
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An *extended key*: the record's key made unique by its origin.
///
/// The paper (§V, "Selecting splitters"): "To guard against heavily
/// unbalanced partition sizes when keys are equal, we extend them to make
/// each key unique while deciding where to send each record; the extended
/// keys never actually become part of any record."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExtKey {
    /// The record's sort key.
    pub key: u64,
    /// Rank of the node the record originated on.
    pub node: u32,
    /// The record's index within its origin node's input.
    pub seq: u64,
}

impl ExtKey {
    /// Serialized size (key + node + seq).
    pub const BYTES: usize = 8 + 4 + 8;

    /// Serialize little-endian.
    pub fn to_bytes(self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        out[..8].copy_from_slice(&self.key.to_le_bytes());
        out[8..12].copy_from_slice(&self.node.to_le_bytes());
        out[12..20].copy_from_slice(&self.seq.to_le_bytes());
        out
    }

    /// Deserialize; fails on wrong length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SortError> {
        if bytes.len() != Self::BYTES {
            return Err(SortError::Corrupt(format!(
                "extended key needs {} bytes, got {}",
                Self::BYTES,
                bytes.len()
            )));
        }
        Ok(ExtKey {
            key: u64::from_le_bytes(bytes[..8].try_into().expect("8")),
            node: u32::from_le_bytes(bytes[8..12].try_into().expect("4")),
            seq: u64::from_le_bytes(bytes[12..20].try_into().expect("8")),
        })
    }
}

/// Given sorted `splitters` (length P−1), the partition a record with
/// extended key `e` belongs to: partition `i` holds keys in
/// `(splitters[i-1], splitters[i]]`.
pub fn partition_of(splitters: &[ExtKey], e: ExtKey) -> usize {
    splitters.partition_point(|s| *s < e)
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: RecordFormat = RecordFormat::REC16;

    fn make_records(keys: &[u64]) -> Vec<u8> {
        let mut out = vec![0u8; keys.len() * F.record_bytes];
        for (i, &k) in keys.iter().enumerate() {
            F.set_key(&mut out[i * F.record_bytes..(i + 1) * F.record_bytes], k);
            // distinct payload so stability is observable
            out[i * F.record_bytes + 8] = i as u8;
        }
        out
    }

    #[test]
    fn key_roundtrip() {
        let mut rec = [0u8; 16];
        F.set_key(&mut rec, 0xDEAD_BEEF_0123_4567);
        assert_eq!(F.key(&rec), 0xDEAD_BEEF_0123_4567);
    }

    #[test]
    fn too_small_format_rejected() {
        assert!(RecordFormat::new(4).is_err());
        assert!(RecordFormat::new(8).is_ok());
    }

    #[test]
    fn count_and_indexing() {
        let bytes = make_records(&[5, 3, 7]);
        assert_eq!(F.count(&bytes), 3);
        assert_eq!(F.key(F.record(&bytes, 1)), 3);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_bytes_panic() {
        F.count(&[0u8; 17]);
    }

    #[test]
    fn sort_bytes_sorts_and_is_stable() {
        let mut bytes = make_records(&[5, 3, 5, 1]);
        F.sort_bytes_with(&mut bytes, &mut crate::kernels::SortScratch::new());
        let keys: Vec<u64> = F.records(&bytes).map(|r| F.key(r)).collect();
        assert_eq!(keys, vec![1, 3, 5, 5]);
        // The two key-5 records keep original order (payload 0 before 2).
        assert_eq!(F.record(&bytes, 2)[8], 0);
        assert_eq!(F.record(&bytes, 3)[8], 2);
        assert!(F.is_sorted(&bytes));
    }

    #[test]
    fn is_sorted_detects_disorder() {
        let bytes = make_records(&[1, 2, 1]);
        assert!(!F.is_sorted(&bytes));
        assert!(F.is_sorted(&make_records(&[])));
        assert!(F.is_sorted(&make_records(&[9])));
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_content_sensitive() {
        let a = make_records(&[1, 2, 3]);
        let b = make_records(&[3, 2, 1]);
        // Same multiset of (key, payload)?  No — payload encodes position,
        // so build b by permuting a's records instead.
        let mut b2 = Vec::new();
        for i in [2, 0, 1] {
            b2.extend_from_slice(F.record(&a, i));
        }
        assert_eq!(F.multiset_fingerprint(&a), F.multiset_fingerprint(&b2));
        assert_ne!(F.multiset_fingerprint(&a), F.multiset_fingerprint(&b));
    }

    #[test]
    fn ext_key_roundtrip_and_order() {
        let e = ExtKey {
            key: 7,
            node: 3,
            seq: 99,
        };
        assert_eq!(ExtKey::from_bytes(&e.to_bytes()).unwrap(), e);
        assert!(ExtKey::from_bytes(&[0; 5]).is_err());
        // Lexicographic: key dominates, then node, then seq.
        let lo = ExtKey {
            key: 7,
            node: 2,
            seq: u64::MAX,
        };
        assert!(lo < e);
        let hi = ExtKey {
            key: 7,
            node: 3,
            seq: 100,
        };
        assert!(e < hi);
        assert!(
            e < ExtKey {
                key: 8,
                node: 0,
                seq: 0
            }
        );
    }

    #[test]
    fn partition_of_uses_half_open_ranges() {
        let s = |k| ExtKey {
            key: k,
            node: 0,
            seq: 0,
        };
        let splitters = vec![s(10), s(20), s(30)];
        let e = |k, node| ExtKey {
            key: k,
            node,
            seq: 0,
        };
        assert_eq!(partition_of(&splitters, e(5, 0)), 0);
        assert_eq!(partition_of(&splitters, e(10, 0)), 0); // equal goes left
        assert_eq!(partition_of(&splitters, e(10, 1)), 1); // but ext-key above
        assert_eq!(partition_of(&splitters, e(25, 0)), 2);
        assert_eq!(partition_of(&splitters, e(31, 0)), 3);
    }

    #[test]
    fn equal_keys_split_by_extension() {
        // All keys equal: splitters drawn from extended keys distribute the
        // records across partitions instead of dumping them on one node.
        let n = 1000u64;
        let all: Vec<ExtKey> = (0..n)
            .map(|seq| ExtKey {
                key: 42,
                node: (seq % 4) as u32,
                seq,
            })
            .collect();
        let mut sorted = all.clone();
        sorted.sort();
        let p = 4;
        let splitters: Vec<ExtKey> = (1..p).map(|i| sorted[i * sorted.len() / p]).collect();
        let mut counts = [0usize; 4];
        for e in &all {
            counts[partition_of(&splitters, *e)] += 1;
        }
        for c in counts {
            assert!(
                (200..=300).contains(&c),
                "partitions should be near-even: {counts:?}"
            );
        }
    }
}
