//! The fabric's fixed payload population: a payload is a credit, the
//! receiver's `Drop` returns it, a sender out of credits blocks, poison
//! wakes it, and a foreign `Vec` never joins a pool.

use std::sync::mpsc;
use std::time::Duration;

use fg_cluster::{Cluster, ClusterCfg, ClusterError, ClusterRun, CommError};

/// Run `f` on a fresh cluster from a helper thread, so that a sender stuck
/// on a credit fails the test instead of hanging it.
fn run_bounded<R: Send + 'static>(
    nodes: usize,
    f: impl Fn(fg_cluster::NodeCtx) -> Result<R, ClusterError> + Send + Sync + 'static,
) -> Result<ClusterRun<R>, ClusterError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(Cluster::run(ClusterCfg::zero_cost(nodes), f));
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("cluster run hung: a blocked sender was never woken")
}

#[test]
fn a_payload_circulates_and_keeps_its_capacity() {
    const ROUNDS: usize = 500;
    let run = run_bounded(2, |node| {
        let comm = node.comm();
        if node.rank() == 0 {
            for i in 0..ROUNDS {
                let mut p = comm.payload()?;
                assert!(p.is_empty(), "a recycled payload comes back empty");
                p.reserve_exact(4096);
                p.extend_from_slice(&[i as u8; 1000]);
                comm.send(1, 7, p)?;
            }
        } else {
            for i in 0..ROUNDS {
                let msg = comm.recv(Some(0), 7)?;
                assert_eq!(msg.payload.len(), 1000);
                assert_eq!(msg.payload[999], i as u8);
                assert!(msg.payload.capacity() >= 4096);
                // Dropping `msg` here is what hands the credit back.
            }
        }
        Ok(())
    })
    .unwrap();
    let sender = run.payloads[0];
    assert!(sender.high_water >= 1 && sender.high_water <= sender.population);
    assert_eq!(sender.outstanding, 0, "every credit came home");
    assert!(sender.idle <= sender.population);
    // The receiving node never took a payload of its own.
    assert_eq!(run.payloads[1].high_water, 0);
    assert_eq!(run.payloads[1].idle, 0);
}

#[test]
fn a_sender_out_of_credits_blocks_until_a_receiver_drops_one() {
    run_bounded(2, |node| {
        let comm = node.comm();
        let population = comm.payload_stats().population;
        assert_eq!(population, 3 * node.nodes());
        if node.rank() == 0 {
            // Put the whole population in flight to node 1 ...
            for _ in 0..population {
                comm.send(1, 1, comm.payload()?)?;
            }
            assert_eq!(comm.payload_stats().outstanding, population);
            // ... then ask for one more from a second thread: it must wait
            // until node 1, told to go ahead only once the waiter is parked,
            // receives and drops a message.
            std::thread::scope(|s| {
                let waiter = s.spawn(|| comm.payload().map(drop));
                while comm.payload_stats().waiting == 0 {
                    std::thread::yield_now();
                }
                comm.send(1, 2, vec![])?;
                waiter.join().expect("waiter panicked")
            })?;
            let stats = comm.payload_stats();
            assert_eq!(stats.high_water, population, "never above the population");
        } else {
            comm.recv(Some(0), 2)?;
            for _ in 0..population {
                comm.recv(Some(0), 1)?;
            }
        }
        comm.barrier()?;
        Ok(())
    })
    .unwrap();
}

#[test]
fn poison_wakes_a_sender_blocked_on_a_credit() {
    let err = run_bounded(2, |node| {
        let comm = node.comm();
        if node.rank() == 0 {
            let held: Vec<_> = (0..comm.payload_stats().population)
                .map(|_| comm.payload())
                .collect::<Result<_, _>>()?;
            let blocked = std::thread::scope(|s| {
                let waiter = s.spawn(|| comm.payload().map(drop));
                while comm.payload_stats().waiting == 0 {
                    std::thread::yield_now();
                }
                // Node 1 fails on receipt, which poisons the fabric while
                // the waiter is parked.
                comm.send(1, 9, vec![])?;
                waiter.join().expect("waiter panicked")
            });
            drop(held);
            assert_eq!(blocked, Err(CommError::Poisoned));
            // Once poisoned, asking again fails at once instead of blocking.
            assert_eq!(comm.payload().map(drop), Err(CommError::Poisoned));
            blocked?;
            Ok(())
        } else {
            comm.recv(Some(0), 9)?;
            Err(ClusterError::Node {
                rank: 1,
                message: "injected failure".into(),
            })
        }
    })
    .unwrap_err();
    assert!(err.to_string().contains("injected failure"), "{err}");
}

#[test]
fn a_foreign_vec_is_never_adopted_into_a_pool() {
    let run = run_bounded(2, |node| {
        let comm = node.comm();
        let peer = 1 - node.rank();
        for i in 0..100u8 {
            comm.send(peer, 3, vec![i; 64])?;
            let msg = comm.recv(Some(peer), 3)?;
            assert_eq!(*msg.payload, vec![i; 64]);
        }
        // So does a pooled payload's bytes taken out as a `Vec`: the credit
        // goes home when they leave, and the `Vec` travels as a foreigner.
        let mut pooled = comm.payload()?;
        pooled.push(1);
        comm.send(peer, 4, pooled.into_vec())?;
        comm.recv(Some(peer), 4)?;
        comm.barrier()?;
        Ok(comm.payload_stats())
    })
    .unwrap();
    for (end, live) in run.payloads.iter().zip(&run.results) {
        // 201 messages passed through each node; the pool saw only the one
        // payload it handed out itself.
        assert_eq!((live.idle, live.outstanding, live.high_water), (1, 0, 1));
        assert_eq!(end, live);
    }
}
