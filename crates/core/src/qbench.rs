//! Benchmark-only access to the internal bounded queue.
//!
//! [`Queue`](crate::queue) is deliberately crate-private: programs interact
//! with queues only through [`StageCtx`](crate::StageCtx).  The `queue.*`
//! unit loops of `benchmark/src/units.rs` and the flavor tests in
//! `crates/core/tests/queue_flavors.rs`, however, need to drive the MPMC
//! and SPSC flavors directly, in isolation.  This module exposes the minimum
//! surface for that; it is hidden from docs and carries no stability promise.

use std::sync::Arc;

use crate::buffer::{Buffer, PipelineId};
use crate::queue::{Item, Queue};

/// A handle on one internal queue, cloneable across producer/consumer
/// threads.
#[derive(Clone)]
pub struct BenchQueue {
    q: Arc<Queue>,
}

impl BenchQueue {
    /// A queue using the general mutex-guarded MPMC flavor.
    pub fn mpmc(capacity: usize) -> Self {
        BenchQueue {
            q: Queue::new("bench/mpmc", capacity),
        }
    }

    /// A queue using the lock-free MPMC ring flavor (the planner's default
    /// for farm inputs and buffer pools).
    pub fn mpmc_lock_free(capacity: usize) -> Self {
        BenchQueue {
            q: Queue::lock_free("bench/lockfree", capacity),
        }
    }

    /// A queue using the single-producer single-consumer ring flavor.  The
    /// caller promises at most one pushing and one popping thread.
    pub fn spsc(capacity: usize) -> Self {
        BenchQueue {
            q: Queue::spsc("bench/spsc", capacity),
        }
    }

    /// Allocate a buffer to circulate through the queue.
    pub fn buffer(bytes: usize) -> Buffer {
        Buffer::new(bytes, PipelineId(0))
    }

    /// Push without waiting; false when the queue is closed or full (the
    /// buffer is dropped then — bench/property harnesses track counts, not
    /// identities, on the failure path).
    pub fn push(&self, buf: Buffer) -> bool {
        self.q.push(Item::Buf(buf)).is_ok()
    }

    /// Blocking pop; `None` once the queue is closed and drained.
    pub fn pop(&self) -> Option<Buffer> {
        match self.q.pop() {
            Ok(Item::Buf(b)) => Some(b),
            _ => None,
        }
    }

    /// Implementation label: `"mutex"`, `"lockfree"`, or `"spsc"`.
    pub fn flavor(&self) -> &'static str {
        self.q.flavor_label()
    }

    /// Failed position CASes so far (lock-free flavor; zero elsewhere).
    pub fn cas_retries(&self) -> u64 {
        self.q.cas_retries()
    }

    /// Consumer condvar waits so far.
    pub fn pop_parks(&self) -> u64 {
        self.q.parks()
    }

    /// Close the queue, waking blocked consumers.
    pub fn close(&self) {
        self.q.close();
    }
}
