//! The stage library: one constructor for every stage more than one program
//! runs.
//!
//! A pass is a list of these — plus the stages only it has — added to the
//! `Program` its [`Node`](crate::driver::Node) made, under whatever stage
//! names the pass chooses (csort4 calls the exchange of halves `shift` and
//! the merge of halves `sort`).  Each constructor returns a boxed
//! [`Stage`]; what a stage keeps across rounds (exchange parts, scatter
//! scratch) lives in its closure, so a warmed-up round
//! allocates nothing.  A second copy of one of these bodies is a bug: a
//! fix made to one copy does not reach the other.
//!
//! An unbalanced exchange is a [`receive_stage`] on a pipeline of its own
//! and a sender: [`scatter_send_stage`] (dsort pass 1, group-by), or a
//! pass's own (dsort pass 2, whose buffers are one node's already) over
//! [`fabric_stage`] and [`send_done`].

use std::sync::Arc;

use fg_cluster::{Communicator, Message, Payload};
use fg_core::{map_stage, Buffer, Stage, StageCtx};
use fg_pdm::{DiskRef, Striping};
use parking_lot::Mutex;

use crate::chunks::{self, Exchange, Scatter};
use crate::config::{Matrix, SortConfig};
use crate::record::{partition_of, ExtKey, RecordFormat};
use crate::SortError;

/// First payload byte of an exchange message: data follows.
pub const MSG_DATA: u8 = 0;
/// First payload byte of an exchange message: the sender has finished.
pub const MSG_DONE: u8 = 1;

/// What every pooled payload, and every pass-2 buffer it trades storage with,
/// is sized for: a block behind the longest header (pass 2's kind byte and
/// 8-byte offset).  Payloads outlive a pass, so none is ever reallocated.
pub fn payload_bytes(cfg: &SortConfig) -> usize {
    1 + 8 + cfg.block_bytes
}

/// A read stage: round `t` fills its buffer with the `len` bytes at `offset`
/// of `file`, where `(offset, len)` is `span(t)`.
pub fn read_stage(
    disk: &DiskRef,
    file: &'static str,
    mut span: impl FnMut(u64) -> (u64, usize) + Send + 'static,
) -> Box<dyn Stage> {
    let disk = Arc::clone(disk);
    map_stage(move |buf, _ctx| {
        let (offset, len) = span(buf.round());
        disk.read_at(file, offset, &mut buf.space_mut()[..len])
            .map_err(SortError::from)?;
        buf.set_filled(len);
        Ok(())
    })
}

/// A [`read_stage`] that streams the node's share of the input, a block a
/// round, the last one short.
pub fn read_input_stage(disk: &DiskRef, cfg: &SortConfig) -> Box<dyn Stage> {
    let (block, total) = (cfg.block_bytes, cfg.bytes_per_node() as usize);
    read_stage(disk, crate::input::INPUT_FILE, move |t| {
        let offset = t * block as u64;
        (offset, block.min(total - offset as usize))
    })
}

/// One in-core sort stage (or farm replica) with its own kernel scratch
/// ([`crate::kernels`]), so steady-state rounds allocate nothing.  csort and
/// csort4 farm it across [`SortConfig::workers`] replicas with
/// `Program::workers`, whose ordered emission keeps the lockstep
/// communication stages downstream correct (one worker is an ordinary
/// stage).
///
/// When the tracking allocator is installed ([`fg_core::FgAlloc`]), the
/// **first** sort call — the one that grows the scratch to the working size
/// — is attributed to the `sort/warmup` tag, so the steady-state `sort` tag
/// counting every later round stays at zero allocations.  That split is
/// what lets the resource report (and the CI smoke job) assert the hot loop
/// is alloc-free without exempting the by-design warmup growth.
pub fn sort_stage(cfg: &SortConfig) -> Box<dyn Stage> {
    let fmt = cfg.record;
    let mut scratch = cfg.sort_scratch();
    let mut warmed = false;
    map_stage(move |buf: &mut Buffer, _ctx: &mut StageCtx| {
        if !warmed {
            warmed = true;
            if fg_core::alloc::installed() {
                let warmup = fg_core::register_tag("sort/warmup");
                return fg_core::with_tag(warmup, || {
                    fmt.sort_bytes_with(buf.filled_mut(), &mut scratch);
                    Ok(())
                });
            }
        }
        fmt.sort_bytes_with(buf.filled_mut(), &mut scratch);
        Ok(())
    })
}

/// Where a distribution pass sends record `i` of input block `round` on
/// node `rank`: the partition of its extended key among `splitters`.
pub fn partitioner(
    cfg: &SortConfig,
    rank: usize,
    splitters: Vec<ExtKey>,
) -> impl FnMut(u64, usize, &[u8]) -> usize + Send + 'static {
    let fmt = cfg.record;
    let records_per_block = cfg.records_per_block() as u64;
    move |round, i, rec| {
        let e = ExtKey {
            key: fmt.key(rec),
            node: rank as u32,
            seq: round * records_per_block + i as u64,
        };
        partition_of(&splitters, e)
    }
}

/// dsort-linear's permute stage: rewrite each block as `(destination,
/// records)` chunks for the `alltoallv` that follows.
pub fn permute_stage(cfg: &SortConfig, rank: usize, splitters: Vec<ExtKey>) -> Box<dyn Stage> {
    let rb = cfg.record.record_bytes;
    let mut dest_of = partitioner(cfg, rank, splitters);
    let mut scatter = Scatter::new(cfg.nodes);
    map_stage(move |buf, ctx| {
        let round = buf.round();
        let aux = ctx.aux(scatter.max_len(buf.len()));
        let len = scatter.scatter(buf.filled(), rb, aux, |i, rec| dest_of(round, i, rec));
        buf.copy_from(&aux[..len]);
        Ok(())
    })
}

/// Columnsort's exchange of halves (steps 5–6) on node `q`: the buffer
/// arrives holding sorted column `c` of `rb`-byte records.  Its larger half
/// goes to the owner of column `c+1` in a pooled payload — after the first
/// rounds a buffer this node has sent before, at its full capacity — and the
/// larger half of column `c−1` arrives, so the buffer leaves holding the
/// merge input of boundary window `w(c)`: `[received larger half of
/// c−1][my smaller half]`, plus — only for the last column — my own larger
/// half, which is window `w(s)`.
pub fn exchange_halves_stage(
    comm: &Communicator,
    m: Matrix,
    q: usize,
    rb: usize,
) -> Box<dyn Stage> {
    let comm = comm.clone();
    let (cbytes, half) = (m.r * rb, m.r / 2 * rb);
    map_stage(move |buf, _ctx| {
        let c = m.col_of_round(q, buf.round() as usize);
        let last = c == m.s - 1;
        if !last {
            let mut larger = comm.payload().map_err(SortError::from)?;
            larger.extend_from_slice(&buf.filled()[half..]);
            comm.send(m.owner(c + 1), (c + 1) as u64, larger)
                .map_err(SortError::from)?;
        }
        // Read in place; dropping the message hands its payload back to
        // the sender's pool.
        let msg = match c {
            0 => None,
            _ => Some(
                comm.recv(Some(m.owner(c - 1)), c as u64)
                    .map_err(SortError::from)?,
            ),
        };
        let received: &[u8] = msg.as_ref().map_or(&[], |msg| &msg.payload);
        // What stays of the column moves up behind the received half (the
        // larger half has been sent, or stays as well).
        let keep = if last { cbytes } else { half };
        let space = buf.space_mut();
        space.copy_within(..keep, received.len());
        space[..received.len()].copy_from_slice(received);
        buf.set_filled(received.len() + keep);
        Ok(())
    })
}

/// Columnsort's step 7 on what [`exchange_halves_stage`] left: merge the
/// two sorted halves of window `w(c)` with the galloping two-run kernel
/// (`csort::merge_two_sorted`) — boundary windows are nearly
/// sorted, so the merge collapses to a few bulk copies.  Column 0's window
/// is one half, and the last column's trailing `w(s)` is sorted already;
/// both stay in place.
pub fn merge_halves_stage(fmt: RecordFormat, m: Matrix, q: usize) -> Box<dyn Stage> {
    let window = m.r * fmt.record_bytes;
    map_stage(move |buf, ctx| {
        if m.col_of_round(q, buf.round() as usize) > 0 {
            debug_assert!(buf.len() >= window);
            let aux = ctx.aux(window);
            crate::csort::merge_two_sorted(fmt, &buf.filled()[..window], window / 2, aux);
            buf.filled_mut()[..window].copy_from_slice(&aux[..window]);
        }
        Ok(())
    })
}

/// A striping exchange: the buffer's bytes belong at global byte offset
/// `goff(buf)` of a file striped by `striping`.  Cut them along
/// stripe-block boundaries, trade the pieces with their owners (one
/// `alltoallv` a round, so every node runs the same number of rounds), and
/// leave in the buffer the `(local offset, piece)` chunks that arrived,
/// landed in file order (`Exchange::trade_placed`).
pub fn stripe_stage(
    comm: &Communicator,
    striping: Striping,
    mut goff: impl FnMut(&Buffer) -> u64 + Send + 'static,
) -> Box<dyn Stage> {
    let comm = comm.clone();
    let mut stripes = Exchange::new(striping.nodes);
    map_stage(move |buf, _ctx| {
        stripes.gather_stripes(&striping, goff(buf), buf.filled());
        Ok(stripes.trade_placed(&comm, buf)?)
    })
}

/// A write stage for a buffer of `(file offset, data)` chunks: one
/// positioned write to `file` a chunk, straight out of the buffer
/// ([`chunks::for_each_write`]).
pub fn write_stage(disk: &DiskRef, file: &'static str) -> Box<dyn Stage> {
    let disk = Arc::clone(disk);
    map_stage(move |buf, _ctx| {
        chunks::for_each_write(buf.filled(), |off, data| {
            disk.write_at(file, off, data).map_err(SortError::from)?;
            Ok(())
        })
    })
}

/// A write stage that appends every non-empty buffer to `file` as one
/// sorted run; the second value collects the runs' byte lengths, in file
/// order, for the pass to take once its program has run.
pub fn append_runs_stage(
    disk: &DiskRef,
    file: &'static str,
) -> (Box<dyn Stage>, Arc<Mutex<Vec<u64>>>) {
    let disk = Arc::clone(disk);
    let run_lens = Arc::new(Mutex::new(Vec::new()));
    let lens = Arc::clone(&run_lens);
    let stage = map_stage(move |buf, _ctx| {
        if !buf.is_empty() {
            disk.append(file, buf.filled()).map_err(SortError::from)?;
            lens.lock().push(buf.len() as u64);
        }
        Ok(())
    });
    (stage, run_lens)
}

/// A stage that talks to the fabric.  If `body` ends in an error — its own
/// or the cancellation of its program after another stage failed — the stage
/// poisons the fabric on its way out.  The node is lost either way, and its
/// node function cannot say so while the program's other fabric stage, or a
/// peer's, is still blocked on a message or a credit this stage owed it.
pub fn fabric_stage(
    comm: Communicator,
    mut body: impl FnMut(&Communicator, &mut StageCtx) -> fg_core::Result<()> + Send + 'static,
) -> Box<dyn Stage> {
    Box::new(move |ctx: &mut StageCtx| {
        let result = body(&comm, ctx);
        if result.is_err() {
            comm.poison();
        }
        result
    })
}

/// A `DONE` marker to every node, behind this node's data: a plain message,
/// so it needs no credit, and the fabric is FIFO per source and tag, which
/// is what lets a receiver count markers.
pub fn send_done(comm: &Communicator, tag: u64) -> fg_core::Result<()> {
    for dst in 0..comm.nodes() {
        comm.send(dst, tag, vec![MSG_DONE])
            .map_err(SortError::from)?;
    }
    Ok(())
}

/// The send stage of an unbalanced exchange of `rb`-byte records: record `i`
/// of round `t`'s buffer goes to node `dest_of(t, i, record)`, copied once,
/// into the payload open for that node — one of the fabric's fixed
/// population, taken when the node's first record turns up and sized once for
/// `cap` bytes — which leaves under `tag` when the next record would not fit,
/// with the trace id of the round that filled it.  So every message but a
/// node's last is full and the message count follows the bytes, not rounds ×
/// nodes; the stage holds at most a payload a node, and blocks, allocating
/// nothing, while the rest are in flight.  At end of stream the part-filled
/// payloads go, then the markers; on an error they drop with the stage,
/// which returns their credits.
pub fn scatter_send_stage(
    comm: &Communicator,
    tag: u64,
    rb: usize,
    cap: usize,
    mut dest_of: impl FnMut(u64, usize, &[u8]) -> usize + Send + 'static,
) -> Box<dyn Stage> {
    fabric_stage(comm.clone(), move |comm, ctx| {
        let mut open: Vec<Option<Payload>> = (0..comm.nodes()).map(|_| None).collect();
        while let Some(buf) = ctx.accept()? {
            let (round, trace_id) = (buf.round(), buf.trace_id());
            for (i, rec) in buf.filled().chunks_exact(rb).enumerate() {
                let dest = dest_of(round, i, rec);
                let slot = &mut open[dest];
                let payload = match slot {
                    Some(payload) => payload,
                    None => {
                        let mut payload = comm.payload().map_err(SortError::from)?;
                        payload.reserve_exact(cap);
                        payload.push(MSG_DATA);
                        slot.insert(payload)
                    }
                };
                payload.extend_from_slice(rec);
                if let Some(full) = slot.take_if(|payload| payload.len() + rb > cap) {
                    comm.send_traced(dest, tag, full, trace_id)
                        .map_err(SortError::from)?;
                }
            }
            ctx.convey(buf)?;
        }
        for (dest, slot) in open.iter_mut().enumerate() {
            if let Some(rest) = slot.take() {
                comm.send(dest, tag, rest).map_err(SortError::from)?;
            }
        }
        send_done(comm, tag)
    })
}

/// The receive stage of an unbalanced exchange: takes `DATA` messages under
/// `tag` until every node's `DONE` marker has arrived, then conveys the last
/// partial buffer and stops its pipeline.  `land(buf, payload, at)` moves
/// message bytes from `payload[at..]` into `buf` and returns how far it got
/// (`at` starts at 1, behind the kind byte): short of the payload's length
/// means the buffer is full, so it is conveyed and the message — kept, with
/// the offset reached — continues in the next one; a landing may instead
/// trade storage with the payload, taking the message whole (dsort pass 2).
/// Dropping a message once it is consumed hands its payload back to the
/// sender.
pub fn receive_stage(
    comm: Communicator,
    tag: u64,
    mut land: impl FnMut(&mut Buffer, &mut Payload, usize) -> fg_core::Result<usize> + Send + 'static,
) -> Box<dyn Stage> {
    fabric_stage(comm, move |comm, ctx| {
        let nodes = comm.nodes();
        let mut partial: Option<(Message, usize)> = None;
        let mut dones = 0usize;
        loop {
            let mut buf = match ctx.accept()? {
                Some(b) => b,
                None => return Ok(()),
            };
            let pipeline = buf.pipeline();
            buf.clear();
            while buf.remaining() > 0 {
                if let Some((mut msg, at)) = partial.take() {
                    let at = land(&mut buf, &mut msg.payload, at)?;
                    if at < msg.payload.len() {
                        partial = Some((msg, at));
                        break;
                    }
                    continue;
                }
                if dones == nodes {
                    break;
                }
                let msg = comm.recv(None, tag).map_err(SortError::from)?;
                match msg.payload.first() {
                    Some(&MSG_DONE) => dones += 1,
                    Some(&MSG_DATA) => partial = Some((msg, 1)),
                    _ => return Err(SortError::Corrupt("empty data message".into()).into()),
                }
            }
            if buf.is_empty() {
                ctx.discard(buf)?;
            } else {
                ctx.convey(buf)?;
            }
            if dones == nodes && partial.is_none() {
                ctx.stop(pipeline)?;
                return Ok(());
            }
        }
    })
}

/// The [`receive_stage`] landing that packs message bytes densely: a
/// message that straddles two buffers is split between them.
pub fn land_bytes(buf: &mut Buffer, payload: &mut Payload, at: usize) -> fg_core::Result<usize> {
    Ok(at + buf.append(&payload[at..]))
}
