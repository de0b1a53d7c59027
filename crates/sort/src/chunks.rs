//! Self-describing chunked payloads.
//!
//! Communication stages move *placed* data: a run of record bytes plus
//! where those bytes belong.  Rather than making every receiver re-derive
//! placement arithmetic, senders prefix each run with a small header.  A
//! payload is a sequence of chunks:
//!
//! ```text
//! [a: u64 LE][b: u64 LE][len: u64 LE][data: len bytes]  ...repeated...
//! ```
//!
//! The meaning of `a` and `b` is up to the protocol using the codec.  Every
//! chunk bound for a file carries, in `a`, its offset in the *receiver's*
//! file, stamped by the sender (`b` unused), so an exchange lands what
//! arrives already in file order ([`land_placed`]) and the write stage
//! issues it as it is; dsort-linear's raw-record exchange uses `a` for the
//! destination node.

use fg_cluster::Communicator;
use fg_core::Buffer;
use fg_pdm::Striping;

use crate::SortError;

/// One placed run of bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk<'a> {
    /// First placement word (protocol-defined).
    pub a: u64,
    /// Second placement word (protocol-defined).
    pub b: u64,
    /// The data.
    pub data: &'a [u8],
}

/// Bytes of overhead per chunk.
pub const CHUNK_HEADER_BYTES: usize = 24;

/// The header of a chunk of `len` data bytes.
pub fn chunk_header(a: u64, b: u64, len: usize) -> [u8; CHUNK_HEADER_BYTES] {
    let mut header = [0u8; CHUNK_HEADER_BYTES];
    header[..8].copy_from_slice(&a.to_le_bytes());
    header[8..16].copy_from_slice(&b.to_le_bytes());
    header[16..].copy_from_slice(&(len as u64).to_le_bytes());
    header
}

/// Append a chunk to `out`.
pub fn push_chunk(out: &mut Vec<u8>, a: u64, b: u64, data: &[u8]) {
    out.extend_from_slice(&chunk_header(a, b, data.len()));
    out.extend_from_slice(data);
}

/// Append the header of a chunk whose `len` data bytes the caller appends
/// next — for data gathered piecewise, which would otherwise be assembled
/// in a `Vec` of its own first.
pub fn push_chunk_header(out: &mut Vec<u8>, a: u64, b: u64, len: usize) {
    out.extend_from_slice(&chunk_header(a, b, len));
}

/// Size a chunk of `len` data bytes occupies.
pub fn chunk_size(len: usize) -> usize {
    CHUNK_HEADER_BYTES + len
}

/// Partition-and-pack: group a block's fixed-size records by destination
/// and write them out as `(a = destination, b = 0, records)` chunks in
/// destination order, skipping destinations that get nothing — the stream a
/// loop of [`push_chunk`] over per-destination `Vec`s would build, without
/// the `Vec`s.  One counting pass, a prefix sum that places each chunk, one
/// scatter pass; each record is copied once, into its final position.
///
/// The scratch (a destination per record, a cursor per destination) lives
/// here and is reused, so a warmed-up call allocates nothing.
pub struct Scatter {
    dest: Vec<u32>,
    /// Per destination: its record count, then its write position in `out`.
    cursor: Vec<usize>,
}

impl Scatter {
    /// Scratch for partitioning among `parts` destinations.
    pub fn new(parts: usize) -> Self {
        Scatter {
            dest: Vec::new(),
            cursor: vec![0; parts],
        }
    }

    /// The most bytes [`Scatter::scatter`] writes for `record_bytes` bytes
    /// of records: every destination's header plus the records.
    pub fn max_len(&self, record_bytes: usize) -> usize {
        self.cursor.len() * CHUNK_HEADER_BYTES + record_bytes
    }

    /// Pack the `rb`-byte records of `records` into `out`, record `i` going
    /// to destination `dest_of(i, record)`; returns the bytes written.
    /// Records keep their input order within a destination.
    ///
    /// # Panics
    /// Panics if a destination is out of range or `out` is shorter than
    /// [`Scatter::max_len`]`(records.len())` requires.
    pub fn scatter(
        &mut self,
        records: &[u8],
        rb: usize,
        out: &mut [u8],
        mut dest_of: impl FnMut(usize, &[u8]) -> usize,
    ) -> usize {
        self.dest.clear();
        self.cursor.fill(0);
        for (i, rec) in records.chunks_exact(rb).enumerate() {
            let d = dest_of(i, rec);
            self.cursor[d] += 1;
            self.dest.push(d as u32);
        }
        let mut len = 0;
        for (d, cursor) in self.cursor.iter_mut().enumerate() {
            let bytes = *cursor * rb;
            if bytes == 0 {
                continue;
            }
            let data = len + CHUNK_HEADER_BYTES;
            out[len..data].copy_from_slice(&chunk_header(d as u64, 0, bytes));
            *cursor = data;
            len = data + bytes;
        }
        for (rec, &d) in records.chunks_exact(rb).zip(&self.dest) {
            let at = &mut self.cursor[d as usize];
            out[*at..*at + rb].copy_from_slice(rec);
            *at += rb;
        }
        len
    }
}

/// The per-destination parts of a per-round `alltoallv`, kept across
/// rounds.
///
/// A stage fills [`part`](Exchange::part)`(dest)` for every destination and
/// calls [`trade`](Exchange::trade): the parts go out, what arrives replaces
/// the pipeline buffer's contents, and the `Vec`s that arrived — emptied,
/// capacity kept — are the next round's parts.  A program's node owns one
/// (`Node::exchange`) and sizes its parts once a run for the largest part any
/// of its exchanges sends ([`size_parts`](Exchange::size_parts)); every node
/// sizes alike, so whatever `Vec`s a node gets back have that room and no
/// round's part regrows.
pub struct Exchange {
    parts: Vec<Vec<u8>>,
    /// [`land_placed`]'s scratch, kept across rounds.
    runs: Vec<(u64, usize, std::ops::Range<usize>)>,
}

impl Exchange {
    /// Empty parts for an exchange among `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Exchange {
            parts: vec![Vec::new(); nodes],
            runs: Vec::new(),
        }
    }

    /// Give every part room for `bytes`: once a run, on every node, before
    /// the first trade, booked to the `exchange/parts` alloc tag.
    pub fn size_parts(&mut self, bytes: usize) {
        fg_core::with_tag(fg_core::register_tag("exchange/parts"), || {
            for part in &mut self.parts {
                part.reserve_exact(bytes);
            }
        });
    }

    /// The part bound for node `dest`, to append to.
    pub fn part(&mut self, dest: usize) -> &mut Vec<u8> {
        &mut self.parts[dest]
    }

    /// Split `data`, which belongs at global byte offset `goff` of a striped
    /// file, along stripe-block boundaries into `(local offset, piece)`
    /// chunks for the pieces' owners: each header carries the offset the
    /// piece has in its owner's stripe file.
    pub fn gather_stripes(&mut self, striping: &Striping, goff: u64, data: &[u8]) {
        // On a sized part this reserves nothing; a part filled by many small
        // calls grows by doubling as usual.
        let bytes = stripe_part_bytes(striping, data.len());
        self.parts.iter_mut().for_each(|part| part.reserve(bytes));
        for (dest, local, range) in striping.split_range_iter(goff, data.len()) {
            push_chunk(self.part(dest), local, 0, &data[range]);
        }
    }

    /// Run the `alltoallv`: send every part, replace `buf`'s contents with
    /// what arrived (in rank order), and keep the arrived `Vec`s as the next
    /// round's parts.  After an error the exchange is not usable again.
    pub fn trade(&mut self, comm: &Communicator, buf: &mut Buffer) -> Result<(), SortError> {
        let mut received = comm.alltoallv(std::mem::take(&mut self.parts))?;
        buf.clear();
        for part in &mut received {
            if buf.append(part) != part.len() {
                return Err(overfull(buf.capacity()));
            }
            part.clear();
        }
        self.parts = received;
        Ok(())
    }

    /// [`trade`](Exchange::trade) for parts of `(file offset, data)` chunks
    /// their senders placed: what arrives lands by [`land_placed`], so a
    /// write stage issues each chunk as one write, straight out of `buf`.
    pub fn trade_placed(&mut self, comm: &Communicator, buf: &mut Buffer) -> Result<(), SortError> {
        let mut received = comm.alltoallv(std::mem::take(&mut self.parts))?;
        let len = land_placed(&received, &mut self.runs, buf.space_mut())?;
        buf.set_filled(len);
        received.iter_mut().for_each(Vec::clear);
        self.parts = received;
        Ok(())
    }
}

/// The most bytes [`Exchange::gather_stripes`] puts in one part for `len`
/// bytes of data: a node owns at most every `nodes`-th block the range
/// touches, each piece behind a chunk header.
pub fn stripe_part_bytes(striping: &Striping, len: usize) -> usize {
    let blocks_each = (len / striping.block_bytes + 2).div_ceil(striping.nodes);
    blocks_each * chunk_size(striping.block_bytes)
}

fn overfull(capacity: usize) -> SortError {
    SortError::Corrupt(format!(
        "exchange: received more than the {capacity} bytes a pipeline buffer holds"
    ))
}

/// Land the `(file offset, data)` chunks of `parts` in `out` in offset
/// order, each maximal run of file-adjacent chunks behind one header, and
/// return the bytes written: one copy of each data byte, as an append of
/// the parts makes, and nothing left to coalesce.  Empty chunks are
/// dropped.  The receiver no longer derives placement, so it checks it: a
/// chunk that overlaps the one before it in the file is
/// [`SortError::Corrupt`], as is a landing that does not fit.  `runs` is
/// the caller's scratch: `(offset, part, data range)` a chunk.
pub fn land_placed(
    parts: &[Vec<u8>],
    runs: &mut Vec<(u64, usize, std::ops::Range<usize>)>,
    out: &mut [u8],
) -> Result<usize, SortError> {
    runs.clear();
    for (p, part) in parts.iter().enumerate() {
        let mut off = 0;
        while off < part.len() {
            let (at, _b, data) = chunk_at(part, off)?;
            off = data.end;
            if !data.is_empty() {
                runs.push((at, p, data));
            }
        }
    }
    runs.sort_unstable_by_key(|run| run.0);
    let mut len = 0;
    let mut i = 0;
    while i < runs.len() {
        let start = runs[i].0;
        let mut end = start + runs[i].2.len() as u64;
        let mut j = i + 1;
        while j < runs.len() && runs[j].0 <= end {
            if runs[j].0 < end {
                return Err(SortError::Corrupt(format!(
                    "placed chunk at {} overlaps the one ending at {end}",
                    runs[j].0
                )));
            }
            end += runs[j].2.len() as u64;
            j += 1;
        }
        let group = (end - start) as usize;
        let data = len + CHUNK_HEADER_BYTES;
        if data + group > out.len() {
            return Err(overfull(out.len()));
        }
        out[len..data].copy_from_slice(&chunk_header(start, 0, group));
        len = data;
        for (_, p, range) in &runs[i..j] {
            out[len..len + range.len()].copy_from_slice(&parts[*p][range.clone()]);
            len += range.len();
        }
        i = j;
    }
    Ok(len)
}

/// The chunk that starts at `off` of `bytes`: its placement words and where
/// its data lies.
fn chunk_at(bytes: &[u8], off: usize) -> Result<(u64, u64, std::ops::Range<usize>), SortError> {
    let bad = |what: &str| SortError::Corrupt(format!("chunk stream: {what} at offset {off}"));
    let start = off + CHUNK_HEADER_BYTES;
    let header = bytes
        .get(off..start)
        .ok_or_else(|| bad("truncated header"))?;
    let word = |i: usize| u64::from_le_bytes(header[i * 8..][..8].try_into().expect("8 bytes"));
    let end = usize::try_from(word(2))
        .ok()
        .and_then(|len| start.checked_add(len))
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| bad("truncated data"))?;
    Ok((word(0), word(1), start..end))
}

/// Iterate over the chunks of a payload.
pub fn iter_chunks(bytes: &[u8]) -> ChunkIter<'_> {
    ChunkIter { bytes, off: 0 }
}

/// Iterator over [`Chunk`]s; yields an error item on malformed input.
pub struct ChunkIter<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = Result<Chunk<'a>, SortError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.off == self.bytes.len() {
            return None;
        }
        Some(match chunk_at(self.bytes, self.off) {
            Ok((a, b, data)) => {
                self.off = data.end;
                Ok(Chunk {
                    a,
                    b,
                    data: &self.bytes[data],
                })
            }
            Err(e) => {
                self.off = self.bytes.len();
                Err(e)
            }
        })
    }
}

/// Collect all chunks, failing on the first malformed one.
pub fn parse_chunks(bytes: &[u8]) -> Result<Vec<Chunk<'_>>, SortError> {
    iter_chunks(bytes).collect()
}

/// Hand each non-empty `(file offset, data)` chunk of `payload` to `emit`
/// where it lies, in payload order: the write stage's loop.  What an
/// exchange lands has its file-adjacent chunks under one header already
/// ([`land_placed`]), so a chunk is one write and nothing is gathered.
pub fn for_each_write<E: From<SortError>>(
    payload: &[u8],
    mut emit: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> Result<(), E> {
    for chunk in iter_chunks(payload) {
        let chunk = chunk.map_err(E::from)?;
        if !chunk.data.is_empty() {
            emit(chunk.a, chunk.data)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_chunks() {
        let mut buf = Vec::new();
        push_chunk(&mut buf, 1, 2, &[10, 20]);
        push_chunk(&mut buf, 3, 4, &[]);
        push_chunk(&mut buf, 5, 6, &[7; 100]);
        let chunks = parse_chunks(&buf).unwrap();
        assert_eq!(chunks.len(), 3);
        assert_eq!(
            (chunks[0].a, chunks[0].b, chunks[0].data),
            (1, 2, &[10u8, 20][..])
        );
        assert_eq!(chunks[1].data, &[] as &[u8]);
        assert_eq!(chunks[2].data.len(), 100);
        assert_eq!(buf.len(), 3 * CHUNK_HEADER_BYTES + 102);
        assert_eq!(chunk_size(2), CHUNK_HEADER_BYTES + 2);
    }

    #[test]
    fn empty_payload_is_empty() {
        assert!(parse_chunks(&[]).unwrap().is_empty());
    }

    #[test]
    fn truncated_header_rejected() {
        let mut buf = Vec::new();
        push_chunk(&mut buf, 1, 2, &[9]);
        assert!(parse_chunks(&buf[..buf.len() - 2]).is_err());
        assert!(parse_chunks(&buf[..10]).is_err());
    }

    #[test]
    fn absurd_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(parse_chunks(&buf).is_err());
    }
}

#[cfg(test)]
mod coalesce_tests {
    use super::*;

    /// The writes the write stage issues for `runs` once an exchange has
    /// landed them: the landing is where file-adjacent runs coalesce.
    fn coalesce(runs: &[(u64, &[u8])]) -> Vec<(u64, Vec<u8>)> {
        let mut landed = vec![0; runs.len() * CHUNK_HEADER_BYTES + 64];
        let len = land_placed(&[framed(runs)], &mut Vec::new(), &mut landed).unwrap();
        collect_writes(&landed[..len]).unwrap()
    }

    fn framed(runs: &[(u64, &[u8])]) -> Vec<u8> {
        let mut payload = Vec::new();
        for (off, data) in runs {
            push_chunk(&mut payload, *off, 0, data);
        }
        payload
    }

    fn collect_writes(payload: &[u8]) -> Result<Vec<(u64, Vec<u8>)>, SortError> {
        let mut out = Vec::new();
        for_each_write::<SortError>(payload, |off, data| {
            out.push((off, data.to_vec()));
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn merges_adjacent_runs() {
        let out = coalesce(&[(10, &[3, 4]), (0, &[0, 1]), (2, &[2])]);
        assert_eq!(out, vec![(0, vec![0, 1, 2]), (10, vec![3, 4])]);
    }

    #[test]
    fn keeps_gaps_separate() {
        assert_eq!(coalesce(&[(0, &[1]), (2, &[2])]).len(), 2);
    }

    #[test]
    fn drops_empty_runs() {
        assert_eq!(coalesce(&[(0, &[]), (5, &[9])]), vec![(5, vec![9])]);
    }

    /// A payload no exchange landed is written as it lies, chunk by chunk:
    /// overlapping runs too (a landing refuses them).
    #[test]
    fn overlapping_runs_stay_separate() {
        let out = collect_writes(&framed(&[(1, &[2]), (0, &[1, 1])])).unwrap();
        assert_eq!(out, vec![(1, vec![2]), (0, vec![1, 1])]);
    }

    #[test]
    fn empty_input() {
        assert!(coalesce(&[]).is_empty());
    }

    /// Writing chunks where they lie, straight from the payload, leaves the
    /// file image the landed, coalesced writes leave.
    #[test]
    fn streaming_variant_matches_batch_semantics() {
        let runs: &[(u64, &[u8])] = &[(10, &[3, 4]), (0, &[0, 1]), (2, &[2]), (20, &[])];
        let image = |writes: Vec<(u64, Vec<u8>)>| {
            let mut file = [0u8; 12];
            writes
                .iter()
                .for_each(|(off, d)| file[*off as usize..][..d.len()].copy_from_slice(d));
            file
        };
        let streamed = collect_writes(&framed(runs)).unwrap();
        assert_eq!(streamed.len(), 3, "one write a non-empty chunk");
        assert_eq!(image(streamed), image(coalesce(runs)));
    }

    /// A landing's scratch carries nothing from one round into the next.
    #[test]
    fn streaming_variant_reuses_scratch_across_rounds() {
        let (mut scratch, mut landed) = (Vec::new(), [0u8; 128]);
        let mut out = Vec::new();
        for runs in [&[(0, &[1][..]), (1, &[2][..])][..], &[(7, &[9][..])][..]] {
            let len = land_placed(&[framed(runs)], &mut scratch, &mut landed).unwrap();
            out.extend(collect_writes(&landed[..len]).unwrap());
        }
        assert_eq!(out, vec![(0, vec![1, 2]), (7, vec![9])]);
    }

    #[test]
    fn streaming_variant_propagates_malformed_payload() {
        let payload = framed(&[(0, &[1, 2, 3])]);
        assert!(collect_writes(&payload[..payload.len() - 1]).is_err());
    }
}
