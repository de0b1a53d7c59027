//! Buffers: the unit of data that traverses an FG pipeline.
//!
//! A buffer corresponds to one *block* of data for a high-latency transfer
//! (a disk block, a communication block).  Buffers are allocated once, in a
//! small fixed pool per pipeline, and recycled from the last stage back to
//! the first, so total buffer memory stays bounded regardless of how many
//! *rounds* a computation runs.
//!
//! Every buffer is **tied to the pipeline it was allocated for** (the paper,
//! §IV: "each buffer is tied to a specific pipeline"); conveying it through a
//! stage routes it to that pipeline's successor, and the runtime rejects any
//! attempt to move a buffer across pipelines.

use std::fmt;

/// Identifier of a pipeline within one [`Program`](crate::Program).
///
/// Assigned densely from zero in the order pipelines are declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PipelineId(pub(crate) u32);

impl PipelineId {
    /// Dense index of this pipeline within its program.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PipelineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline#{}", self.0)
    }
}

/// Identifier of a stage within one [`Program`](crate::Program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub(crate) u32);

impl StageId {
    /// Dense index of this stage within its program.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage#{}", self.0)
    }
}

/// A fixed-capacity block of bytes traversing a pipeline.
///
/// The *filled* prefix (`0..len`) is the data a stage produced; the rest of
/// the capacity is scratch space.  Capacity never changes after allocation.
pub struct Buffer {
    data: Box<[u8]>,
    len: usize,
    pipeline: PipelineId,
    round: u64,
    trace_id: u64,
    /// Free-form metadata a stage may attach for downstream stages (e.g. a
    /// column index, a run number).  Reset to zero when the pool recycles
    /// the buffer into a new round.
    pub meta: u64,
}

impl Buffer {
    /// Allocate a zeroed buffer of `capacity` bytes owned by `pipeline`.
    pub(crate) fn new(capacity: usize, pipeline: PipelineId) -> Self {
        Buffer {
            data: vec![0u8; capacity].into_boxed_slice(),
            len: 0,
            pipeline,
            round: 0,
            trace_id: 0,
            meta: 0,
        }
    }

    /// The pipeline this buffer belongs to (immutable for the buffer's life).
    pub fn pipeline(&self) -> PipelineId {
        self.pipeline
    }

    /// The buffer's round (0-based), numbered as the pipeline's first
    /// stage accepted it.
    pub fn round(&self) -> u64 {
        self.round
    }

    pub(crate) fn begin_round(&mut self, round: u64) {
        self.round = round;
        self.len = 0;
        self.meta = 0;
        self.trace_id = 0;
    }

    /// Causal-trace id of this buffer's current round, assigned as the round
    /// starts when a [`TraceSink`](crate::trace::TraceSink) is installed.
    /// Zero when the run is untraced.  Flight-recorder spans referring to
    /// this buffer carry the same id, which is how
    /// [`critical_path`](crate::critical_path) and the Chrome-trace flow
    /// events stitch one buffer's journey across stages.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    pub(crate) fn set_trace_id(&mut self, id: u64) {
        self.trace_id = id;
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Number of filled (valid) bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bytes are filled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of spare capacity past the filled prefix.
    pub fn remaining(&self) -> usize {
        self.capacity() - self.len
    }

    /// Mark the first `len` bytes as filled.
    ///
    /// # Panics
    /// Panics if `len > capacity`.
    pub fn set_filled(&mut self, len: usize) {
        assert!(
            len <= self.capacity(),
            "set_filled({len}) exceeds capacity {}",
            self.capacity()
        );
        self.len = len;
    }

    /// Mark the entire capacity as filled.
    pub fn fill_to_capacity(&mut self) {
        self.len = self.capacity();
    }

    /// Forget all filled data.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The filled prefix.
    pub fn filled(&self) -> &[u8] {
        &self.data[..self.len]
    }

    /// Mutable view of the filled prefix.
    pub fn filled_mut(&mut self) -> &mut [u8] {
        &mut self.data[..self.len]
    }

    /// Mutable view of the whole capacity (filled prefix + scratch space).
    ///
    /// Use together with [`Buffer::set_filled`] when producing data in place.
    pub fn space_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Trade storage with `bytes`, copying nothing: the vector leaves with
    /// this buffer's storage and filled bytes, and the buffer holds the
    /// vector's, filled to the vector's length (zeroed past it first).
    ///
    /// # Panics
    /// Panics unless `bytes`'s capacity is the buffer's.
    pub fn exchange(&mut self, bytes: &mut Vec<u8>) {
        assert_eq!(bytes.capacity(), self.capacity(), "unequal storage");
        let len = std::mem::replace(&mut self.len, bytes.len());
        bytes.resize(bytes.capacity(), 0);
        let theirs = std::mem::take(bytes).into_boxed_slice();
        *bytes = std::mem::replace(&mut self.data, theirs).into_vec();
        bytes.truncate(len);
    }

    /// Append as many bytes of `src` as fit; returns how many were copied.
    pub fn append(&mut self, src: &[u8]) -> usize {
        let n = src.len().min(self.remaining());
        let len = self.len;
        self.data[len..len + n].copy_from_slice(&src[..n]);
        self.len += n;
        n
    }

    /// Replace the filled contents with `src`.
    ///
    /// # Panics
    /// Panics if `src.len() > capacity`.
    pub fn copy_from(&mut self, src: &[u8]) {
        self.set_filled(src.len());
        self.data[..src.len()].copy_from_slice(src);
    }
}

impl AsRef<[u8]> for Buffer {
    fn as_ref(&self) -> &[u8] {
        self.filled()
    }
}

impl fmt::Debug for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Buffer")
            .field("pipeline", &self.pipeline)
            .field("round", &self.round)
            .field("len", &self.len)
            .field("capacity", &self.data.len())
            .field("meta", &self.meta)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(cap: usize) -> Buffer {
        Buffer::new(cap, PipelineId(0))
    }

    #[test]
    fn starts_empty_and_zeroed() {
        let b = buf(16);
        assert_eq!(b.capacity(), 16);
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        assert_eq!(b.remaining(), 16);
        assert_eq!(b.filled(), &[]);
    }

    #[test]
    fn append_respects_capacity() {
        let mut b = buf(4);
        assert_eq!(b.append(&[1, 2, 3]), 3);
        assert_eq!(b.filled(), &[1, 2, 3]);
        assert_eq!(b.append(&[9, 9, 9]), 1);
        assert_eq!(b.filled(), &[1, 2, 3, 9]);
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.append(&[7]), 0);
    }

    #[test]
    fn copy_from_and_clear() {
        let mut b = buf(8);
        b.copy_from(&[5, 6, 7]);
        assert_eq!(b.filled(), &[5, 6, 7]);
        b.clear();
        assert!(b.is_empty());
        // Data beyond len is scratch but still addressable via space_mut.
        assert_eq!(b.space_mut().len(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn copy_from_too_large_panics() {
        let mut b = buf(2);
        b.copy_from(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn set_filled_too_large_panics() {
        let mut b = buf(2);
        b.set_filled(3);
    }

    #[test]
    fn begin_round_resets() {
        let mut b = buf(4);
        b.append(&[1]);
        b.meta = 42;
        b.begin_round(7);
        assert_eq!(b.round(), 7);
        assert_eq!(b.len(), 0);
        assert_eq!(b.meta, 0);
    }

    #[test]
    fn spare_and_set_filled_produce_in_place() {
        let mut b = buf(4);
        b.append(&[1, 2]);
        b.space_mut()[2] = 3;
        b.set_filled(3);
        assert_eq!(b.filled(), &[1, 2, 3]);
    }

    #[test]
    fn exchange_trades_storage_and_lengths() {
        let mut b = buf(4);
        b.append(&[1, 2]);
        let (mut v, mine) = (Vec::with_capacity(4), b.filled().as_ptr());
        v.push(9);
        let theirs = v.as_ptr();
        b.exchange(&mut v);
        assert_eq!((b.filled(), b.filled().as_ptr()), (&[9][..], theirs));
        assert_eq!((&v[..], v.capacity(), v.as_ptr()), (&[1, 2][..], 4, mine));
    }
}
