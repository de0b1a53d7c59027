//! Property tests pitting the lock-free MPMC ring against the mutex-deque
//! oracle (the `Queue::new` default), via the benchmark-only [`BenchQueue`]
//! surface: same items in, same items out — no loss, no duplication, FIFO
//! per producer — plus the contract around `close()` that every flavor must
//! honor (drain after close, then fail; close wakes every waiting consumer).
//!
//! The traffic is FG's: every producer owns a small pool of buffers that
//! circulates — out through the shared queue under test, home through the
//! producer's own return queue — and each queue admits the pools that pass
//! through it, so no push may ever fail.  (A queue never waits on a
//! producer; what bounds the buffers in flight is the pool.)

use std::collections::HashMap;
use std::thread;

use proptest::prelude::*;

use fg_core::qbench::BenchQueue;

type Make = fn(usize) -> BenchQueue;

/// Tag a buffer with `(producer, seq)` so consumers can check identity and
/// per-producer order after the fact.
fn tag(b: &mut fg_core::Buffer, producer: u64, seq: u64) {
    b.space_mut()[..8].copy_from_slice(&producer.to_le_bytes());
    b.space_mut()[8..16].copy_from_slice(&seq.to_le_bytes());
    b.set_filled(16);
}

fn tagged(producer: u64, seq: u64) -> fg_core::Buffer {
    let mut b = BenchQueue::buffer(16);
    tag(&mut b, producer, seq);
    b
}

fn tag_of(b: &fg_core::Buffer) -> (u64, u64) {
    let bytes = b.filled();
    (
        u64::from_le_bytes(bytes[..8].try_into().unwrap()),
        u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
    )
}

/// Closes its queues when the thread holding it unwinds, so a failed
/// assertion in one thread ends the others' waits instead of hanging the
/// test binary.
struct CloseOnPanic<'a>(&'a [BenchQueue]);

impl Drop for CloseOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.iter().for_each(BenchQueue::close);
        }
    }
}

/// `producers` threads each cycle their own pool of `pool` buffers through
/// one shared queue `per_producer` times, tagging each trip; `consumers`
/// threads drain the shared queue until close and send every buffer home.
/// Returns every tag each consumer saw, in its observation order.
fn run_flavor(
    make: Make,
    producers: u64,
    per_producer: u64,
    consumers: usize,
    pool: usize,
) -> Vec<Vec<(u64, u64)>> {
    // all[0] is the shared queue, all[1 + p] producer p's way home.
    let mut all = vec![make(producers as usize * pool)];
    for p in 0..producers {
        let home = make(pool);
        for _ in 0..pool {
            assert!(home.push(tagged(p, 0)));
        }
        all.push(home);
    }
    let all = &all;
    thread::scope(|s| {
        let producers_h: Vec<_> = (0..producers)
            .map(|p| {
                s.spawn(move || {
                    let _guard = CloseOnPanic(all);
                    for i in 0..per_producer {
                        let Some(mut b) = all[1 + p as usize].pop() else {
                            return;
                        };
                        tag(&mut b, p, i);
                        assert!(all[0].push(b), "the shared queue refused a pool buffer");
                    }
                })
            })
            .collect();
        let consumers_h: Vec<_> = (0..consumers)
            .map(|_| {
                s.spawn(move || {
                    let _guard = CloseOnPanic(all);
                    let mut seen = Vec::new();
                    while let Some(b) = all[0].pop() {
                        let (p, i) = tag_of(&b);
                        seen.push((p, i));
                        assert!(all[1 + p as usize].push(b), "a buffer could not go home");
                    }
                    seen
                })
            })
            .collect();
        for h in producers_h {
            h.join().unwrap();
        }
        all[0].close();
        consumers_h.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Flatten, then assert the exact multiset `{(p, 0..per_producer)}` came
/// out: nothing lost, nothing duplicated, nothing invented.
fn assert_exact_multiset(seen: &[Vec<(u64, u64)>], producers: u64, per_producer: u64) {
    let mut all: Vec<(u64, u64)> = seen.iter().flatten().copied().collect();
    all.sort_unstable();
    let expected: Vec<(u64, u64)> = (0..producers)
        .flat_map(|p| (0..per_producer).map(move |i| (p, i)))
        .collect();
    assert_eq!(all, expected);
}

/// Per-producer FIFO: within one consumer's observation order, a given
/// producer's sequence numbers must be strictly increasing.  (Across
/// consumers no order is promised — each item goes to exactly one.)
fn assert_per_producer_fifo(seen: &[Vec<(u64, u64)>]) {
    for consumer in seen {
        let mut last: HashMap<u64, u64> = HashMap::new();
        for &(p, i) in consumer {
            if let Some(&prev) = last.get(&p) {
                assert!(i > prev, "producer {p}: {i} after {prev}");
            }
            last.insert(p, i);
        }
    }
}

const MPMC: [Make; 2] = [BenchQueue::mpmc, BenchQueue::mpmc_lock_free];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The lock-free ring and the mutex oracle deliver the identical
    /// multiset of items under arbitrary producer/consumer/pool mixes.
    /// (A one-producer pool of one is included deliberately: the Vyukov
    /// ring needs two slots, so a cap-1 lock-free request builds the mutex
    /// fallback — which must honor the same contract.)
    #[test]
    fn lock_free_matches_mutex_oracle(
        producers in 1u64..5,
        consumers in 1usize..5,
        per_producer in 1u64..60,
        pool in 1usize..4,
    ) {
        for make in MPMC {
            let seen = run_flavor(make, producers, per_producer, consumers, pool);
            assert_exact_multiset(&seen, producers, per_producer);
        }
    }

    /// FIFO per producer holds for both MPMC flavors with a single
    /// consumer observing the global order (the only setup where the
    /// observation order is well-defined), and with several consumers
    /// each checking their own sub-order.
    #[test]
    fn per_producer_fifo_holds(
        producers in 1u64..4,
        consumers in 1usize..4,
        per_producer in 1u64..80,
        pool in 1usize..4,
    ) {
        for make in MPMC {
            let seen = run_flavor(make, producers, per_producer, consumers, pool);
            assert_per_producer_fifo(&seen);
        }
    }

    /// Close-then-drain: whatever sat in the queue at close time is still
    /// handed out (in order), and only then do pops fail.
    #[test]
    fn drain_after_close_then_fail(
        prefill in 0u64..6,
        capacity in 6usize..10,
    ) {
        for q in FLAVORS.map(|make| make(capacity)) {
            for i in 0..prefill {
                assert!(q.push(tagged(0, i)));
            }
            q.close();
            assert!(!q.push(tagged(0, 999)), "push must fail after close");
            for i in 0..prefill {
                let b = q.pop().expect("closed queue still drains");
                assert_eq!(tag_of(&b), (0, i));
            }
            assert!(q.pop().is_none(), "drained closed queue must fail");
        }
    }
}

/// Only consumers ever block — a push onto a full queue is refused on the
/// spot — and close must wake every one of them, whether it is still
/// yielding or already parked.  A missed wake (or a push that waits) hangs
/// the whole test binary, so the join is the assertion.
#[test]
fn close_wakes_all_blocked_threads_in_both_mpmc_flavors() {
    for make in MPMC {
        // Capacity 2, not 1: a cap-1 lock-free request falls back to the
        // mutex flavor, which would leave the ring's wake paths untested.
        let full = make(2);
        assert!(full.push(tagged(0, 0)) && full.push(tagged(0, 1)));
        let empty = make(2);
        thread::scope(|s| {
            for p in 0..3u64 {
                let full = &full;
                // Returns at once: the queue is full, and nobody pops.
                s.spawn(move || assert!(!full.push(tagged(p, 2))));
            }
            let poppers: Vec<_> = (0..3)
                // Blocks: the queue is empty and nobody pushes.
                .map(|_| s.spawn(|| empty.pop().is_none()))
                .collect();
            // Let some threads reach the parked slow path while others yield.
            thread::sleep(std::time::Duration::from_millis(20));
            empty.close();
            for h in poppers {
                assert!(h.join().unwrap());
            }
        });
        assert_eq!(full.pop().map(|b| tag_of(&b)), Some((0, 0)));
    }
}

const FLAVORS: [Make; 3] = [
    BenchQueue::mpmc,
    BenchQueue::mpmc_lock_free,
    BenchQueue::spsc,
];

/// Block until `q`'s consumer has parked `parks` times.
fn await_parks(q: &BenchQueue, parks: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while q.pop_parks() < parks {
        assert!(
            std::time::Instant::now() < deadline,
            "{}: never parked",
            q.flavor()
        );
        thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// The one wait rule, on every flavor: a pop on an empty, open queue
/// tries, gives its core away once, tries again and parks — and a push
/// 20 ms later hands it the item.
#[test]
fn an_empty_pop_yields_once_then_parks() {
    for make in FLAVORS {
        let q = make(2);
        thread::scope(|s| {
            let consumer = s.spawn(|| {
                let b = q.pop().expect("the queue stays open");
                (tag_of(&b), fg_core::profile::thread_yields())
            });
            await_parks(&q, 1);
            thread::sleep(std::time::Duration::from_millis(20));
            assert!(q.push(tagged(0, 7)));
            assert_eq!(consumer.join().unwrap(), ((0, 7), 1), "{}", q.flavor());
        });
        assert_eq!(q.pop_parks(), 1, "{}", q.flavor());
    }
}

/// A consumer parked on a queue that is then filled and closed drains it,
/// and only then gets `Closed`.
#[test]
fn a_parked_consumer_drains_a_closed_queue_then_fails() {
    for make in FLAVORS {
        let q = make(2);
        thread::scope(|s| {
            let consumer = s.spawn(|| {
                let mut seen = Vec::new();
                while let Some(b) = q.pop() {
                    seen.push(tag_of(&b));
                }
                seen
            });
            await_parks(&q, 1);
            assert!(q.push(tagged(0, 0)) && q.push(tagged(0, 1)));
            q.close();
            assert_eq!(consumer.join().unwrap(), [(0, 0), (0, 1)], "{}", q.flavor());
        });
    }
}

/// The Vyukov ring's documented precondition is capacity >= 2 (one slot
/// cannot keep consecutive laps' sequence values distinct), so a cap-1
/// lock-free request must degrade to the mutex flavor rather than build a
/// racy ring.
#[test]
fn capacity_one_lock_free_falls_back_to_mutex() {
    assert_eq!(BenchQueue::mpmc_lock_free(1).flavor(), "mutex");
    assert_eq!(BenchQueue::mpmc_lock_free(2).flavor(), "lockfree");
}

/// The SPSC ring is untouched by the MPMC work: four buffers ping-ponged
/// between one producer and one consumer through the builder surface come
/// out in order, lap after lap.
#[test]
fn spsc_flavor_unaffected() {
    let rings = [BenchQueue::spsc(4), BenchQueue::spsc(4)];
    let [out, home] = &rings;
    assert_eq!(out.flavor(), "spsc");
    for _ in 0..4 {
        assert!(home.push(tagged(0, 0)));
    }
    thread::scope(|s| {
        s.spawn(|| {
            let _guard = CloseOnPanic(&rings);
            for i in 0..500u64 {
                let Some(mut b) = home.pop() else { return };
                tag(&mut b, 0, i);
                assert!(out.push(b));
            }
        });
        let _guard = CloseOnPanic(&rings);
        for i in 0..500u64 {
            let b = out.pop().expect("the producer failed");
            assert_eq!(tag_of(&b), (0, i));
            assert!(home.push(b));
        }
    });
    assert_eq!(out.cas_retries(), 0, "spsc path never CASes");
}

/// A push writes the high-water mark only when its depth is a new high;
/// the mark stays exact on every flavor, and under several producers on
/// the mutex flavor (whose pushes read their depth under the lock).
#[test]
fn max_depth_is_the_exact_high_water_mark() {
    for make in FLAVORS {
        let q = make(8);
        assert_eq!(q.max_depth(), 0);
        // Up to 3, down to 1, up to 5, down to 0, up to 4: the marks are
        // 3, 5 and 5.
        let mut depth = 0;
        for (push, pop, mark) in [(3, 2, 3), (4, 5, 5), (4, 4, 5)] {
            for i in 0..push {
                assert!(q.push(tagged(0, i)));
                depth += 1;
            }
            assert_eq!(q.max_depth(), mark, "{} at depth {depth}", q.flavor());
            for _ in 0..pop {
                q.pop().unwrap();
                depth -= 1;
            }
        }
        assert_eq!(q.max_depth(), 5, "{}", q.flavor());
    }

    const PRODUCERS: u64 = 4;
    const EACH: u64 = 500;
    let q = BenchQueue::mpmc((PRODUCERS * EACH) as usize + 1);
    let racing = |f: &(dyn Fn(u64) + Sync)| {
        thread::scope(|s| (0..PRODUCERS).for_each(|p| drop(s.spawn(move || f(p)))));
    };
    // The producers race to fill the queue: the last push saw every item.
    racing(&|p| (0..EACH).for_each(|i| assert!(q.push(tagged(p, i)))));
    assert_eq!(q.max_depth(), (PRODUCERS * EACH) as usize);
    // Churn below the mark writes nothing: it stays where it was.
    racing(&|p| {
        for i in 0..EACH {
            q.pop().unwrap();
            assert!(q.push(tagged(p, i)));
        }
    });
    assert_eq!(q.max_depth(), (PRODUCERS * EACH) as usize);
    // One more item is a new high.
    assert!(q.push(tagged(0, 0)));
    assert_eq!(q.max_depth(), (PRODUCERS * EACH) as usize + 1);
}
