//! The thread-safe, MPI-like communicator handed to every node.
//!
//! The paper's programs use ChaMPIon/Pro, a thread-safe commercial MPI: FG
//! stages on different threads of one node send and receive concurrently.
//! [`Communicator`] reproduces the subset dsort and csort need:
//!
//! * tagged point-to-point `send`/`recv` with `ANY_SOURCE` receives,
//! * `payload`: an empty message buffer from the node's fixed population,
//!   which doubles as the sender's flow-control credit (see `fabric.rs`),
//! * `sendrecv_replace`,
//! * `alltoallv` (the generalized all-to-all of the even columnsort steps),
//! * `broadcast`, `gather`, `allgather`, `barrier`, and u64 reductions.
//!
//! Point-to-point operations may be used concurrently from any number of
//! threads per node.  Collectives follow the MPI contract: every node calls
//! the same collectives in the same order (from one thread at a time per
//! node); point-to-point traffic may interleave freely with them because
//! collectives use a reserved tag space.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_core::metrics::{Counter, Histogram, MetricsRegistry};
use fg_core::trace::COMM_PIPELINE;
use fg_core::{Buffer, SpanRing, TraceCtx, TraceKind, TraceSink};

use crate::fabric::{Fabric, NodeTraffic, Payload, PayloadStats};
use crate::CommError;

/// Tags are user-chosen for point-to-point messages; collectives reserve
/// tags with the top bit set.
const COLLECTIVE_BIT: u64 = 1 << 63;
/// Maximum user tag value.
pub const MAX_USER_TAG: u64 = COLLECTIVE_BIT - 1;

/// Trace ids for collectives live in a reserved namespace so every rank's
/// span for collective call `seq` shares one id — the Chrome export then
/// stitches one cross-rank flow per collective — without colliding with
/// buffer trace ids (which count up from 1).
const COLLECTIVE_TRACE_BIT: u64 = 1 << 62;

/// A node's handle to the cluster interconnect.  Cheap to clone; clones
/// share the node's identity, collective sequence, and trace ring.
#[derive(Clone)]
pub struct Communicator {
    fabric: Arc<Fabric>,
    rank: usize,
    /// Collective call sequence number; identical across nodes because all
    /// nodes invoke collectives in the same order.
    coll_seq: Arc<AtomicU64>,
    /// Pre-resolved metric handles; `None` when the cluster runs without a
    /// registry, making every fire site a single never-taken branch.
    metrics: Option<Arc<CommMetrics>>,
    /// Span recording; `None` when the cluster runs untraced.
    trace: Option<Arc<CommTrace>>,
}

/// Metric handles of one node's communicator, resolved once at
/// construction so the per-message cost is only relaxed atomics.
///
/// Names: per-peer byte/message counters `comm/bytes/{src}->{dst}` and
/// `comm/msgs/{src}->{dst}` (which include collective-internal traffic, so
/// their totals match the fabric's byte accounting), plus **per-rank**
/// latency histograms `comm/{recv_wait,payload_wait}_ns/r{rank}` for user
/// point-to-point calls (`payload_wait` holds only the calls that blocked for
/// a credit) and `comm/{barrier,broadcast,allgather}_ns/r{rank}` for
/// collectives (an `alltoallv` records its span only).  Labelling by rank
/// keeps each histogram's `count` equal to the number of operations *that
/// rank* performed — merging N per-node
/// registries is lossless, and a cluster-wide view sums the per-rank rows
/// instead of multiplying counts by N as a shared histogram would.
struct CommMetrics {
    bytes_to: Vec<Arc<Counter>>,
    msgs_to: Vec<Arc<Counter>>,
    recv_wait_ns: Arc<Histogram>,
    payload_wait_ns: Arc<Histogram>,
    barrier_ns: Arc<Histogram>,
    broadcast_ns: Arc<Histogram>,
    allgather_ns: Arc<Histogram>,
}

impl CommMetrics {
    fn new(registry: &MetricsRegistry, rank: usize, nodes: usize) -> Self {
        CommMetrics {
            bytes_to: (0..nodes)
                .map(|dst| registry.counter(&format!("comm/bytes/{rank}->{dst}")))
                .collect(),
            msgs_to: (0..nodes)
                .map(|dst| registry.counter(&format!("comm/msgs/{rank}->{dst}")))
                .collect(),
            recv_wait_ns: registry.histogram(&format!("comm/recv_wait_ns/r{rank}")),
            payload_wait_ns: registry.histogram(&format!("comm/payload_wait_ns/r{rank}")),
            barrier_ns: registry.histogram(&format!("comm/barrier_ns/r{rank}")),
            broadcast_ns: registry.histogram(&format!("comm/broadcast_ns/r{rank}")),
            allgather_ns: registry.histogram(&format!("comm/allgather_ns/r{rank}")),
        }
    }
}

/// One node's communication flight recorder: a dedicated `node{rank}/comm`
/// ring (registered in the rank's track group) shared by every clone of the
/// node's communicator, plus the node's point-to-point send sequence.
struct CommTrace {
    ring: Arc<SpanRing>,
    send_seq: AtomicU64,
}

/// A received message: its payload, the rank that sent it, and the trace
/// context it carried.
#[derive(Debug)]
pub struct Message {
    /// Sender's rank.
    pub src: usize,
    /// The trace context the sender attached ([`TraceCtx::NONE`] on
    /// untraced runs).
    pub ctx: TraceCtx,
    /// The payload bytes.  Dropping them returns a pooled payload's credit
    /// to its sender.
    pub payload: Payload,
}

impl Communicator {
    pub(crate) fn new(fabric: Arc<Fabric>, rank: usize) -> Self {
        Communicator {
            fabric,
            rank,
            coll_seq: Arc::new(AtomicU64::new(0)),
            metrics: None,
            trace: None,
        }
    }

    pub(crate) fn with_metrics(
        fabric: Arc<Fabric>,
        rank: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        let nodes = fabric.nodes();
        Communicator {
            fabric,
            rank,
            coll_seq: Arc::new(AtomicU64::new(0)),
            metrics: Some(Arc::new(CommMetrics::new(registry, rank, nodes))),
            trace: None,
        }
    }

    /// Attach span recording: registers a `node{rank}/comm` ring in this
    /// rank's track group on `sink`.  Every clone made afterwards shares
    /// the ring.
    pub(crate) fn attach_trace(&mut self, sink: &TraceSink) {
        let ring =
            sink.register_thread_in_group(format!("node{}/comm", self.rank), self.rank as u32);
        self.trace = Some(Arc::new(CommTrace {
            ring,
            send_seq: AtomicU64::new(0),
        }));
    }

    /// Instrumented counterpart of `fabric.send` for traffic originating at
    /// this node; all sends (point-to-point and collective-internal) route
    /// through here.
    fn send_raw(
        &self,
        dst: usize,
        tag: u64,
        ctx: TraceCtx,
        payload: Payload,
    ) -> Result<(), CommError> {
        // Self-sends never cross the interconnect; keep the counters in
        // agreement with the fabric's traffic accounting, which also
        // excludes them.
        if let Some(m) = self.metrics.as_ref().filter(|_| dst != self.rank) {
            m.bytes_to[dst].add(payload.len() as u64);
            m.msgs_to[dst].inc();
        }
        self.fabric.send(self.rank, dst, tag, ctx, payload)
    }

    /// Observe one collective call: time it into `pick(metrics)` and record
    /// one `kind` span under the collective's shared cross-rank trace id.
    ///
    /// The trace id is derived from the collective sequence number *before*
    /// `op` consumes it — all ranks observe the same call under the same id,
    /// which is what joins their spans into one Perfetto flow.  `op` is the
    /// *unobserved* implementation; composed collectives (allgather is
    /// gather then broadcast) call the `_impl` variants internally so each
    /// public call records exactly one span and one histogram entry per rank.
    fn collective<T>(
        &self,
        kind: TraceKind,
        pick: impl Fn(&CommMetrics) -> Option<&Histogram>,
        op: impl FnOnce() -> Result<T, CommError>,
    ) -> Result<T, CommError> {
        let seq = self.coll_seq.load(Ordering::SeqCst);
        let start_ns = self.trace.as_ref().map(|t| t.ring.now_ns());
        let histogram = self.metrics.as_deref().and_then(pick);
        let timer = histogram.map(|_| Instant::now());
        let out = op()?;
        if let (Some(h), Some(t0)) = (histogram, timer) {
            h.record_duration(t0.elapsed());
        }
        if let (Some(t), Some(start_ns)) = (&self.trace, start_ns) {
            let end_ns = t.ring.now_ns();
            t.ring.record(
                kind,
                COMM_PIPELINE,
                seq,
                COLLECTIVE_TRACE_BIT | seq,
                start_ns,
                end_ns,
            );
        }
        Ok(out)
    }

    /// This node's rank in `0..nodes()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.fabric.nodes()
    }

    /// Traffic sent so far by `node`.
    pub fn traffic(&self, node: usize) -> NodeTraffic {
        self.fabric.traffic(node)
    }

    /// Declare this node failed, as [`Cluster::run`](crate::Cluster::run)
    /// does when a node function returns an error: from now on every `recv`
    /// and every `payload` on every node fails with
    /// [`CommError::Poisoned`] instead of blocking.  For a thread that is
    /// going down while its peers may be waiting on it and the node function
    /// cannot return until they stop waiting.
    pub fn poison(&self) {
        self.fabric.poison();
    }

    fn check_tag(tag: u64) -> Result<(), CommError> {
        if tag > MAX_USER_TAG {
            Err(CommError::BadTag(tag))
        } else {
            Ok(())
        }
    }

    /// An empty payload from this node's fixed population, to fill and
    /// [`send`](Communicator::send).  Blocks while the whole population is
    /// in flight — receivers return a payload by dropping it — and fails with
    /// [`CommError::Poisoned`] instead once a node has died.
    pub fn payload(&self) -> Result<Payload, CommError> {
        let mut payload = self.pooled()?;
        payload.clear();
        Ok(payload)
    }

    /// Send `buf`'s filled bytes to `dst` under `tag`, with the buffer's
    /// trace id, as one pooled message, without copying them: the buffer
    /// trades its storage for an idle payload's ([`Buffer::exchange`]).  So
    /// every payload of this node's population is the buffer's size; one made
    /// on first demand is made so.  Blocks for the payload as
    /// [`Communicator::payload`] does.
    ///
    /// # Panics
    /// Panics if a payload of another size is idle in the pool.
    pub fn send_buffer(&self, dst: usize, tag: u64, buf: &mut Buffer) -> Result<(), CommError> {
        let mut payload = self.pooled()?;
        if payload.capacity() == 0 {
            payload.reserve_exact(buf.capacity());
        }
        buf.exchange(&mut payload);
        self.send_traced(dst, tag, payload, buf.trace_id())
    }

    /// A payload from this node's population as its last receiver left it.
    fn pooled(&self) -> Result<Payload, CommError> {
        let (payload, blocked) = self.fabric.payload(self.rank)?;
        if let Some(m) = self.metrics.as_ref().filter(|_| !blocked.is_zero()) {
            m.payload_wait_ns.record_duration(blocked);
        }
        Ok(payload)
    }

    /// This node's payload pool: population, buffers in flight, high water.
    pub fn payload_stats(&self) -> PayloadStats {
        self.fabric.payload_stats(self.rank)
    }

    /// Send `payload` — a pooled [`Payload`] or a plain `Vec<u8>` — to `dst`
    /// with a user `tag`.  Buffered: completes without waiting for the
    /// receiver (after charging the network cost).
    pub fn send(&self, dst: usize, tag: u64, payload: impl Into<Payload>) -> Result<(), CommError> {
        self.send_traced(dst, tag, payload, 0)
    }

    /// [`Communicator::send`], propagating the sender's buffer `trace_id`
    /// in the message's [`TraceCtx`]: the receiving rank's `comm-recv` span
    /// then shares the id, stitching the buffer's journey across ranks in
    /// the Chrome export.  `trace_id = 0` sends untraced (same as `send`).
    pub fn send_traced(
        &self,
        dst: usize,
        tag: u64,
        payload: impl Into<Payload>,
        trace_id: u64,
    ) -> Result<(), CommError> {
        Self::check_tag(tag)?;
        let (ctx, start_ns) = match &self.trace {
            Some(t) => {
                let seq = t.send_seq.fetch_add(1, Ordering::Relaxed);
                (
                    TraceCtx {
                        origin: self.rank as u32,
                        trace_id,
                        seq,
                    },
                    Some(t.ring.now_ns()),
                )
            }
            None => (TraceCtx::NONE, None),
        };
        self.send_raw(dst, tag, ctx, payload.into())?;
        if let (Some(t), Some(start_ns)) = (&self.trace, start_ns) {
            t.ring.record(
                TraceKind::CommSend,
                COMM_PIPELINE,
                ctx.seq,
                trace_id,
                start_ns,
                t.ring.now_ns(),
            );
        }
        Ok(())
    }

    /// Receive the next message with `tag` from `src` (or from any source
    /// when `src` is `None`).  Blocks until one arrives.
    pub fn recv(&self, src: Option<usize>, tag: u64) -> Result<Message, CommError> {
        Self::check_tag(tag)?;
        let start_ns = self.trace.as_ref().map(|t| t.ring.now_ns());
        let timer = self.metrics.as_ref().map(|_| Instant::now());
        let env = self.fabric.recv(self.rank, src, tag)?;
        if let (Some(m), Some(t0)) = (&self.metrics, timer) {
            m.recv_wait_ns.record_duration(t0.elapsed());
        }
        if let (Some(t), Some(start_ns)) = (&self.trace, start_ns) {
            // Record under the *sender's* trace context: this is the other
            // half of the cross-rank flow.
            t.ring.record(
                TraceKind::CommRecv,
                COMM_PIPELINE,
                env.ctx.seq,
                env.ctx.trace_id,
                start_ns,
                t.ring.now_ns(),
            );
        }
        Ok(Message {
            src: env.src,
            ctx: env.ctx,
            payload: env.payload,
        })
    }

    /// MPI_Sendrecv_replace: send `payload` to `dst` while receiving a
    /// same-tagged message from `src`; returns the received payload.
    pub fn sendrecv_replace(
        &self,
        payload: Vec<u8>,
        dst: usize,
        src: usize,
        tag: u64,
    ) -> Result<Vec<u8>, CommError> {
        Self::check_tag(tag)?;
        let ctx = match &self.trace {
            Some(t) => TraceCtx {
                origin: self.rank as u32,
                trace_id: 0,
                seq: t.send_seq.fetch_add(1, Ordering::Relaxed),
            },
            None => TraceCtx::NONE,
        };
        self.send_raw(dst, tag, ctx, payload.into())?;
        let env = self.fabric.recv(self.rank, Some(src), tag)?;
        Ok(env.payload.into_vec())
    }

    /// Reserve the next collective tag; the sequence half is also the
    /// collective's cross-rank span identity.
    fn next_coll_tag(&self) -> u64 {
        COLLECTIVE_BIT | self.coll_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Untraced send used inside collectives: the collective's own span
    /// covers the whole call, so internal messages carry only the
    /// collective's identity, not a per-message one.
    fn coll_send(&self, dst: usize, tag: u64, payload: Vec<u8>) -> Result<(), CommError> {
        let ctx = TraceCtx {
            origin: self.rank as u32,
            trace_id: 0,
            seq: tag & !COLLECTIVE_BIT,
        };
        self.send_raw(dst, tag, ctx, payload.into())
    }

    /// Synchronize all nodes.
    pub fn barrier(&self) -> Result<(), CommError> {
        self.collective(
            TraceKind::Barrier,
            |m| Some(&m.barrier_ns),
            || self.barrier_impl(),
        )
    }

    fn barrier_impl(&self) -> Result<(), CommError> {
        let tag = self.next_coll_tag();
        // Gather empty payloads at 0, then 0 releases everyone.
        if self.rank == 0 {
            for _ in 1..self.nodes() {
                self.fabric.recv(0, None, tag)?;
            }
            for dst in 1..self.nodes() {
                self.coll_send(dst, tag, Vec::new())?;
            }
        } else {
            self.coll_send(0, tag, Vec::new())?;
            self.fabric.recv(self.rank, Some(0), tag)?;
        }
        Ok(())
    }

    /// Broadcast `data` from `root` to every node; returns the broadcast
    /// payload on all nodes (`data` is ignored on non-roots).
    pub fn broadcast(&self, root: usize, data: &[u8]) -> Result<Vec<u8>, CommError> {
        self.collective(
            TraceKind::Broadcast,
            |m| Some(&m.broadcast_ns),
            || self.broadcast_impl(root, data),
        )
    }

    fn broadcast_impl(&self, root: usize, data: &[u8]) -> Result<Vec<u8>, CommError> {
        let tag = self.next_coll_tag();
        if self.rank == root {
            for dst in 0..self.nodes() {
                if dst != root {
                    self.coll_send(dst, tag, data.to_vec())?;
                }
            }
            Ok(data.to_vec())
        } else {
            Ok(self
                .fabric
                .recv(self.rank, Some(root), tag)?
                .payload
                .into_vec())
        }
    }

    /// Gather each node's `data` at `root`; returns `Some(parts)` (indexed
    /// by rank) at the root and `None` elsewhere.
    pub fn gather(&self, root: usize, data: Vec<u8>) -> Result<Option<Vec<Vec<u8>>>, CommError> {
        let tag = self.next_coll_tag();
        if self.rank == root {
            let mut parts: Vec<Vec<u8>> = vec![Vec::new(); self.nodes()];
            parts[root] = data;
            for _ in 0..self.nodes() - 1 {
                let env = self.fabric.recv(root, None, tag)?;
                parts[env.src] = env.payload.into_vec();
            }
            Ok(Some(parts))
        } else {
            self.coll_send(root, tag, data)?;
            Ok(None)
        }
    }

    /// All nodes contribute `data`; all nodes receive every node's
    /// contribution, indexed by rank.
    pub fn allgather(&self, data: Vec<u8>) -> Result<Vec<Vec<u8>>, CommError> {
        self.collective(
            TraceKind::Allgather,
            |m| Some(&m.allgather_ns),
            || {
                // gather at 0 + broadcast of the length-prefixed concatenation.
                // Composed from the unobserved internals so the public call
                // records one span, not nested broadcast spans.
                let gathered = self.gather(0, data)?;
                let packed = match gathered {
                    Some(parts) => pack_parts(&parts),
                    None => Vec::new(),
                };
                let bytes = self.broadcast_impl(0, &packed)?;
                unpack_parts(&bytes)
            },
        )
    }

    /// MPI_Alltoallv: send `parts[i]` to node `i` (including `parts[rank]`
    /// to self, delivered locally for free); returns the parts received,
    /// indexed by sender rank.  The `Vec`s are traded, not copied: a caller
    /// that clears what it received and fills it again as the next call's
    /// `parts` allocates nothing once the capacities have settled.
    pub fn alltoallv(&self, mut parts: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CommError> {
        if parts.len() != self.nodes() {
            return Err(CommError::BadShape(format!(
                "alltoallv needs {} parts, got {}",
                self.nodes(),
                parts.len()
            )));
        }
        self.collective(
            TraceKind::Alltoallv,
            |_| None,
            move || {
                let tag = self.next_coll_tag();
                for (dst, part) in parts.iter_mut().enumerate() {
                    if dst != self.rank {
                        self.coll_send(dst, tag, std::mem::take(part))?;
                    }
                }
                // `parts` now holds this node's own part and an empty slot
                // per peer, which is the shape of the result: every `Vec`
                // that arrives, capacity included, goes to the caller.
                for _ in 0..self.nodes() - 1 {
                    let env = self.fabric.recv(self.rank, None, tag)?;
                    parts[env.src] = env.payload.into_vec();
                }
                Ok(parts)
            },
        )
    }

    /// Sum a u64 across all nodes (everyone gets the result).
    pub fn allreduce_sum(&self, x: u64) -> Result<u64, CommError> {
        Ok(self.allgather_u64(x)?.into_iter().sum())
    }

    /// Max of a u64 across all nodes (everyone gets the result).
    pub fn allreduce_max(&self, x: u64) -> Result<u64, CommError> {
        Ok(self.allgather_u64(x)?.into_iter().max().unwrap_or(0))
    }

    /// Time `f` as one phase of a cluster program: every node enters behind
    /// a barrier, the clock stops behind a second one, and every node gets
    /// `f`'s result with the slowest node's wall time.  A collective — every
    /// node calls it, in the same order as its other collectives.
    pub fn timed<T, E: From<CommError>>(
        &self,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, Duration), E> {
        self.barrier()?;
        let start = Instant::now();
        let out = f()?;
        self.barrier()?;
        let nanos = self.allreduce_max(start.elapsed().as_nanos() as u64)?;
        Ok((out, Duration::from_nanos(nanos)))
    }

    /// Allgather a single u64 per node; result indexed by rank.
    pub fn allgather_u64(&self, x: u64) -> Result<Vec<u64>, CommError> {
        let parts = self.allgather(x.to_le_bytes().to_vec())?;
        parts
            .into_iter()
            .map(|p| {
                p.as_slice()
                    .try_into()
                    .map(u64::from_le_bytes)
                    .map_err(|_| CommError::BadShape("allgather_u64 payload".into()))
            })
            .collect()
    }
}

/// Length-prefixed concatenation of parts.
fn pack_parts(parts: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = parts.iter().map(|p| 8 + p.len()).sum();
    let mut out = Vec::with_capacity(8 + total);
    out.extend_from_slice(&(parts.len() as u64).to_le_bytes());
    for p in parts {
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        out.extend_from_slice(p);
    }
    out
}

fn unpack_parts(bytes: &[u8]) -> Result<Vec<Vec<u8>>, CommError> {
    let bad = || CommError::BadShape("malformed packed parts".into());
    let mut off = 0usize;
    let take_u64 = |off: &mut usize| -> Result<u64, CommError> {
        let end = *off + 8;
        let v = bytes.get(*off..end).ok_or_else(bad)?;
        *off = end;
        Ok(u64::from_le_bytes(v.try_into().expect("8 bytes")))
    };
    let n = take_u64(&mut off)? as usize;
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let len = take_u64(&mut off)? as usize;
        let end = off.checked_add(len).ok_or_else(bad)?;
        parts.push(bytes.get(off..end).ok_or_else(bad)?.to_vec());
        off = end;
    }
    if off != bytes.len() {
        return Err(bad());
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let parts = vec![vec![1, 2, 3], vec![], vec![9; 100]];
        assert_eq!(unpack_parts(&pack_parts(&parts)).unwrap(), parts);
    }

    #[test]
    fn unpack_rejects_garbage() {
        assert!(unpack_parts(&[1, 2, 3]).is_err());
        // Claim one part of absurd length.
        let mut bytes = 1u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(unpack_parts(&bytes).is_err());
        // Trailing junk.
        let mut ok = pack_parts(&[vec![1]]);
        ok.push(0);
        assert!(unpack_parts(&ok).is_err());
    }

    #[test]
    fn user_tag_range_enforced() {
        let fabric = Fabric::new(1, crate::NetCfg::zero());
        let comm = Communicator::new(fabric, 0);
        assert!(matches!(
            comm.send(0, COLLECTIVE_BIT, vec![]),
            Err(CommError::BadTag(_))
        ));
        assert!(comm.send(0, MAX_USER_TAG, vec![]).is_ok());
    }
}
