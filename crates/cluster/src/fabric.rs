//! The message fabric connecting the simulated nodes: one mailbox per node,
//! tag- and source-matched receives, a fixed population of payload buffers
//! per node, poisoning on node failure.
//!
//! **A payload is a credit.**  Each node owns [`payloads_per_node`] message
//! buffers.  A sender that streams data takes an empty one from its node's
//! pool ([`Fabric::payload`]), fills it and sends it; the buffer travels in
//! the envelope, and when the receiver drops the [`Payload`] it goes back to
//! the *sender's* pool, capacity intact.  A sender whose whole population is
//! in flight blocks until a receiver returns one, so the point-to-point data
//! a node has outstanding — in mailboxes and in receivers' hands — never
//! exceeds `payloads_per_node × largest message`, however skewed the
//! receivers are, and after the first lap no send allocates.  Returning the
//! credit is `Drop`'s job, so no error path can leak one; poisoning wakes
//! every sender blocked on a credit.
//!
//! What stays unbounded by admission, and why that is safe: a plain `Vec<u8>`
//! handed to `send` is a *foreign* payload — delivered eagerly (like
//! eager-mode MPI), freed by the receiver, never adopted into a pool.
//! Collectives and `DONE` markers use it.  Their volume is bounded by
//! protocol instead: a collective puts O(nodes) messages in flight and the
//! next one cannot start before it completes (`alltoallv` hands the `Vec`s
//! that arrive to its caller, which trades them back as the next call's
//! parts), and a `DONE` marker is one byte per peer per pass.  End-of-stream
//! markers must also never wait for a credit, or a sender could not finish
//! while its receiver waits for the marker.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_core::profile::yield_core;
use fg_core::TraceCtx;
use parking_lot::{Condvar, Mutex};

use crate::cost::NetCfg;
use crate::CommError;

/// Payload buffers each node owns: three per peer — one the receiver is
/// consuming, one queued behind it, one being filled (a combining sender
/// holds that one open per destination for as long as it takes to fill) — so
/// that sender and receiver overlap instead of handing a single buffer back
/// and forth.  (Measured on `dsort-os-skew` and `dsort-sim`: two per peer
/// cost 2–3% in wall time against a population that never binds, three and
/// four per peer cost nothing; DESIGN.md §5d.)  Derived from the cluster
/// size and nothing else — the fabric has no tuning knob.
pub(crate) fn payloads_per_node(nodes: usize) -> usize {
    3 * nodes
}

/// One node's payload buffers that are not in flight, and how many are.
struct PoolState {
    idle: Vec<Vec<u8>>,
    outstanding: usize,
    high_water: usize,
    /// Senders blocked in [`Fabric::payload`]: a return wakes one only when
    /// there is one, since a condvar notification is a system call whether
    /// or not anyone listens, and most returns find nobody waiting.
    waiting: usize,
}

/// One node's population of payload buffers.
pub(crate) struct PayloadPool {
    population: usize,
    state: Mutex<PoolState>,
    returned: Condvar,
}

impl PayloadPool {
    fn new(population: usize) -> Arc<Self> {
        Arc::new(PayloadPool {
            population,
            state: Mutex::new(PoolState {
                // Full-size, so that `give_back` (called from `Drop`) never
                // allocates.
                idle: Vec::with_capacity(population),
                outstanding: 0,
                high_water: 0,
                waiting: 0,
            }),
            returned: Condvar::new(),
        })
    }

    /// Take back a buffer a receiver has finished with.  Its length stays
    /// as the receiver left it, so a buffer that trades storage with it
    /// next ([`Communicator::send_buffer`](crate::Communicator::send_buffer))
    /// finds it whole; [`Communicator::payload`](crate::Communicator::payload)
    /// empties it.
    fn give_back(&self, bytes: Vec<u8>) {
        let mut st = self.state.lock();
        st.idle.push(bytes);
        st.outstanding -= 1;
        let wake = st.waiting > 0;
        drop(st);
        if wake {
            self.returned.notify_one();
        }
    }

    fn stats(&self) -> PayloadStats {
        let st = self.state.lock();
        PayloadStats {
            population: self.population,
            outstanding: st.outstanding,
            idle: st.idle.len(),
            high_water: st.high_water,
            waiting: st.waiting,
            idle_capacity: st.idle.iter().map(Vec::capacity).fold(None, |span, c| {
                let (lo, hi) = span.unwrap_or((c, c));
                Some((lo.min(c), hi.max(c)))
            }),
        }
    }
}

/// Snapshot of one node's payload pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PayloadStats {
    /// Buffers the node owns; the most it can ever have in flight.
    pub population: usize,
    /// Buffers currently in flight (taken and not yet dropped).
    pub outstanding: usize,
    /// Buffers waiting in the pool.  Buffers are created on first demand,
    /// so `idle + outstanding` can be below `population`.
    pub idle: usize,
    /// Most buffers that were ever in flight at once.
    pub high_water: usize,
    /// Senders blocked right now waiting for a buffer to come back.
    pub waiting: usize,
    /// The smallest and largest capacity among the idle buffers, `None`
    /// when there are none.
    pub idle_capacity: Option<(usize, usize)>,
}

/// The bytes of a message.
///
/// Reads like the `Vec<u8>` it wraps.  One obtained from
/// [`Communicator::payload`](crate::Communicator::payload) is a credit of
/// its sender's pool and returns there when dropped — on whichever
/// node and thread that happens.  One converted from a `Vec<u8>` is foreign
/// and is simply freed.
pub struct Payload {
    bytes: Vec<u8>,
    home: Option<Arc<PayloadPool>>,
}

impl Payload {
    /// The bytes as an owned `Vec`.  A pooled payload's credit returns to
    /// its pool at once; the buffer itself leaves with the caller.
    pub fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.bytes)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload { bytes, home: None }
    }
}

impl Deref for Payload {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.bytes
    }
}

impl DerefMut for Payload {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        if let Some(pool) = self.home.take() {
            pool.give_back(std::mem::take(&mut self.bytes));
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.bytes.fmt(f)
    }
}

/// A message in flight.  The [`TraceCtx`] rides the envelope so the
/// receiver can attribute the message to the sender's trace — a network
/// transport must carry [`TraceCtx::encode`]'s fixed-size header in each
/// frame to preserve this.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    pub(crate) ctx: TraceCtx,
    pub(crate) payload: Payload,
}

/// One node's undelivered messages, and how many receivers are parked for
/// one.
#[derive(Default)]
struct Inbox {
    queue: VecDeque<Envelope>,
    /// Receivers blocked in [`Fabric::recv`]: a send notifies only when
    /// there is one, as a payload's return does ([`PoolState::waiting`]) —
    /// most sends find the receiver busy with an earlier message.
    waiting: usize,
}

#[derive(Default)]
struct Mailbox {
    inbox: Mutex<Inbox>,
    arrived: Condvar,
}

/// Per-node traffic counters.
#[derive(Debug, Default)]
pub(crate) struct TrafficCounters {
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) msgs_sent: AtomicU64,
}

/// Snapshot of one node's traffic at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Payload bytes this node sent.
    pub bytes_sent: u64,
    /// Messages this node sent.
    pub msgs_sent: u64,
}

pub(crate) struct Fabric {
    mailboxes: Vec<Mailbox>,
    pools: Vec<Arc<PayloadPool>>,
    pub(crate) counters: Vec<TrafficCounters>,
    pub(crate) net: NetCfg,
    poisoned: AtomicBool,
}

impl Fabric {
    pub(crate) fn new(nodes: usize, net: NetCfg) -> Arc<Self> {
        Arc::new(Fabric {
            mailboxes: (0..nodes).map(|_| Mailbox::default()).collect(),
            pools: (0..nodes)
                .map(|_| PayloadPool::new(payloads_per_node(nodes)))
                .collect(),
            counters: (0..nodes).map(|_| TrafficCounters::default()).collect(),
            net,
            poisoned: AtomicBool::new(false),
        })
    }

    pub(crate) fn nodes(&self) -> usize {
        self.mailboxes.len()
    }

    /// Mark the fabric broken (a node died) and wake every receiver and
    /// every sender waiting for a payload.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            let _guard = mb.inbox.lock();
            mb.arrived.notify_all();
        }
        for pool in &self.pools {
            let _guard = pool.state.lock();
            pool.returned.notify_all();
        }
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// A payload from `node`'s pool, its length as its last receiver left
    /// it, and how long the caller was blocked for it.  Blocks while the
    /// node's whole population is in flight; fails instead of blocking once
    /// the fabric is poisoned.
    pub(crate) fn payload(&self, node: usize) -> Result<(Payload, Duration), CommError> {
        let pool = &self.pools[node];
        let mut st = pool.state.lock();
        let mut blocked_since = None;
        let bytes = loop {
            if self.is_poisoned() {
                return Err(CommError::Poisoned);
            }
            if let Some(bytes) = st.idle.pop() {
                break bytes;
            }
            if st.outstanding < pool.population {
                break Vec::new();
            }
            blocked_since.get_or_insert_with(Instant::now);
            st.waiting += 1;
            pool.returned.wait(&mut st);
            st.waiting -= 1;
        };
        st.outstanding += 1;
        st.high_water = st.high_water.max(st.outstanding);
        drop(st);
        let payload = Payload {
            bytes,
            home: Some(Arc::clone(pool)),
        };
        Ok((
            payload,
            blocked_since.map_or(Duration::ZERO, |t| t.elapsed()),
        ))
    }

    pub(crate) fn payload_stats(&self, node: usize) -> PayloadStats {
        self.pools[node].stats()
    }

    /// Deliver a message from `src` to `dst`, charging the network cost to
    /// the calling (sending) thread *before* delivery.
    pub(crate) fn send(
        &self,
        src: usize,
        dst: usize,
        tag: u64,
        ctx: TraceCtx,
        payload: Payload,
    ) -> Result<(), CommError> {
        if dst >= self.mailboxes.len() {
            return Err(CommError::BadRank(dst));
        }
        if self.is_poisoned() {
            return Err(CommError::Poisoned);
        }
        // A node's message to itself is not interprocessor communication:
        // it costs nothing and is excluded from traffic counters (matching
        // collectives, whose self part never leaves the node).
        if src != dst {
            self.counters[src]
                .bytes_sent
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            self.counters[src].msgs_sent.fetch_add(1, Ordering::Relaxed);
            self.net.charge(payload.len());
        }
        let mb = &self.mailboxes[dst];
        let mut inbox = mb.inbox.lock();
        inbox.queue.push_back(Envelope {
            src,
            tag,
            ctx,
            payload,
        });
        let wake = inbox.waiting > 0;
        drop(inbox);
        if wake {
            // All of them: receivers parked on different tags share the
            // condvar, and only they know which of them this message is for.
            mb.arrived.notify_all();
        }
        Ok(())
    }

    /// Receive at `me` the first message matching `(src, tag)`.
    /// `src = None` accepts any source.  Blocks until a match arrives, by
    /// fg-core's one wait rule: look, give the core away once
    /// ([`yield_core`]), look again, then wait.  Matching is FIFO among
    /// messages from the same source and tag.
    pub(crate) fn recv(
        &self,
        me: usize,
        src: Option<usize>,
        tag: u64,
    ) -> Result<Envelope, CommError> {
        let mb = &self.mailboxes[me];
        let mut inbox = mb.inbox.lock();
        let mut yielded = false;
        loop {
            if let Some(pos) = inbox
                .queue
                .iter()
                .position(|e| e.tag == tag && src.map(|s| s == e.src).unwrap_or(true))
            {
                return Ok(inbox.queue.remove(pos).expect("position was valid"));
            }
            if self.is_poisoned() {
                return Err(CommError::Poisoned);
            }
            if !yielded {
                yielded = true;
                drop(inbox);
                yield_core();
                inbox = mb.inbox.lock();
                continue;
            }
            inbox.waiting += 1;
            mb.arrived.wait(&mut inbox);
            inbox.waiting -= 1;
        }
    }

    pub(crate) fn traffic(&self, node: usize) -> NodeTraffic {
        NodeTraffic {
            bytes_sent: self.counters[node].bytes_sent.load(Ordering::Relaxed),
            msgs_sent: self.counters[node].msgs_sent.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn point_to_point_delivery() {
        let f = Fabric::new(2, NetCfg::zero());
        f.send(0, 1, 7, TraceCtx::NONE, vec![1, 2, 3].into())
            .unwrap();
        let e = f.recv(1, Some(0), 7).unwrap();
        assert_eq!(*e.payload, vec![1, 2, 3]);
        assert_eq!(e.src, 0);
    }

    #[test]
    fn trace_ctx_rides_the_envelope() {
        let f = Fabric::new(2, NetCfg::zero());
        let ctx = TraceCtx {
            origin: 0,
            trace_id: 77,
            seq: 3,
        };
        f.send(0, 1, 7, ctx, vec![1].into()).unwrap();
        assert_eq!(f.recv(1, Some(0), 7).unwrap().ctx, ctx);
    }

    #[test]
    fn tag_matching_skips_other_tags() {
        let f = Fabric::new(2, NetCfg::zero());
        f.send(0, 1, 1, TraceCtx::NONE, vec![1].into()).unwrap();
        f.send(0, 1, 2, TraceCtx::NONE, vec![2].into()).unwrap();
        assert_eq!(*f.recv(1, Some(0), 2).unwrap().payload, vec![2]);
        assert_eq!(*f.recv(1, Some(0), 1).unwrap().payload, vec![1]);
    }

    #[test]
    fn any_source_matches_first_arrival() {
        let f = Fabric::new(3, NetCfg::zero());
        f.send(2, 0, 9, TraceCtx::NONE, vec![2].into()).unwrap();
        f.send(1, 0, 9, TraceCtx::NONE, vec![1].into()).unwrap();
        let e = f.recv(0, None, 9).unwrap();
        assert_eq!(e.src, 2, "FIFO across sources for ANY_SOURCE");
    }

    #[test]
    fn same_src_tag_is_fifo() {
        let f = Fabric::new(2, NetCfg::zero());
        for i in 0..10u8 {
            f.send(0, 1, 5, TraceCtx::NONE, vec![i].into()).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(*f.recv(1, Some(0), 5).unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn recv_blocks_until_send() {
        let f = Fabric::new(2, NetCfg::zero());
        let f2 = Arc::clone(&f);
        let h = thread::spawn(move || f2.recv(1, Some(0), 3).unwrap().payload.into_vec());
        thread::sleep(Duration::from_millis(10));
        f.send(0, 1, 3, TraceCtx::NONE, vec![9].into()).unwrap();
        assert_eq!(h.join().unwrap(), vec![9]);
    }

    #[test]
    fn poison_wakes_receivers() {
        let f = Fabric::new(2, NetCfg::zero());
        let f2 = Arc::clone(&f);
        let h = thread::spawn(move || f2.recv(1, Some(0), 3));
        thread::sleep(Duration::from_millis(10));
        f.poison();
        assert_eq!(h.join().unwrap().unwrap_err(), CommError::Poisoned);
        assert_eq!(
            f.send(0, 1, 0, TraceCtx::NONE, vec![].into()).unwrap_err(),
            CommError::Poisoned
        );
    }

    #[test]
    fn bad_rank_rejected() {
        let f = Fabric::new(2, NetCfg::zero());
        assert_eq!(
            f.send(0, 5, 0, TraceCtx::NONE, vec![].into()).unwrap_err(),
            CommError::BadRank(5)
        );
    }

    #[test]
    fn traffic_counters_accumulate() {
        let f = Fabric::new(2, NetCfg::zero());
        f.send(0, 1, 0, TraceCtx::NONE, vec![0; 100].into())
            .unwrap();
        f.send(0, 1, 0, TraceCtx::NONE, vec![0; 50].into()).unwrap();
        let t = f.traffic(0);
        assert_eq!(t.bytes_sent, 150);
        assert_eq!(t.msgs_sent, 2);
        assert_eq!(f.traffic(1), NodeTraffic::default());
    }

    #[test]
    fn concurrent_receivers_different_tags() {
        // Two threads on the same node wait on different tags; both are
        // satisfied regardless of arrival order (thread-safe MPI property).
        let f = Fabric::new(2, NetCfg::zero());
        let fa = Arc::clone(&f);
        let fb = Arc::clone(&f);
        let ha = thread::spawn(move || fa.recv(1, None, 100).unwrap().payload.into_vec());
        let hb = thread::spawn(move || fb.recv(1, None, 200).unwrap().payload.into_vec());
        thread::sleep(Duration::from_millis(5));
        f.send(0, 1, 200, TraceCtx::NONE, vec![2].into()).unwrap();
        f.send(0, 1, 100, TraceCtx::NONE, vec![1].into()).unwrap();
        assert_eq!(ha.join().unwrap(), vec![1]);
        assert_eq!(hb.join().unwrap(), vec![2]);
    }
}
