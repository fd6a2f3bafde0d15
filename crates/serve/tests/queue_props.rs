//! Property tests for the lock-free ingest queue and the closed-loop
//! client driver.
//!
//! The queue contract under test ([`IngestQueue`]): multi-producer
//! single-consumer FIFO — items from one producer are popped in push
//! order under arbitrary interleavings and capacities (including the
//! degenerate capacity-1 ring, which forces a lockstep handoff per
//! item); a producer-side [`IngestQueue::close`] drains every accepted
//! item before pops report closed; and the consumer-death path
//! ([`IngestQueue::close_and_clear`]) releases parked producers *and*
//! every buffered control entry's reply channel even while pushes are
//! still racing the teardown — the regression the exec layer guards
//! against, generalized over seeds and schedules. Liveness of the
//! park/wake handshake itself — no wakeup lost however often the two
//! sides trade sleeps — is checked on tiny rings under a watchdog.
//!
//! The closed-loop contract: [`ServeFabric::run_closed_loop`] is a pure
//! function of its plan — same seed, same population, bit-identical
//! trace, client stats and fleet report, for arbitrary populations,
//! think times and windows.

use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;
use tinymlops_serve::{
    ClientPlan, ClientSpec, FabricConfig, IngestQueue, LoadPlan, RetryPolicy, TenantSpec,
};

/// Tagged item: (producer id, per-producer sequence number).
type Tagged = (usize, u64);

/// Drive `producers` threads, each pushing `per_producer` tagged items,
/// while the calling thread pops them all; returns the pop order.
fn run_handoff(producers: usize, per_producer: u64, capacity: usize) -> Vec<Tagged> {
    let queue = IngestQueue::<Tagged>::new(capacity);
    let total = producers as u64 * per_producer;
    let mut popped = Vec::with_capacity(total as usize);
    thread::scope(|scope| {
        for pid in 0..producers {
            let queue = &queue;
            scope.spawn(move || {
                for seq in 0..per_producer {
                    assert!(queue.push((pid, seq)), "queue closed under the producer");
                }
            });
        }
        for _ in 0..total {
            assert!(queue.len() <= capacity, "ring grew past its capacity bound");
            popped.push(queue.pop().expect("closed before all items drained"));
        }
    });
    // All producers have joined (scope end): a producer-side close is now
    // in contract, and the queue must be empty.
    queue.close();
    assert_eq!(queue.pop(), None, "drained queue must report closed");
    popped
}

/// Assert per-producer FIFO: each producer's sequence numbers appear in
/// increasing order, exactly once each.
fn assert_fifo_per_producer(popped: &[Tagged], producers: usize, per_producer: u64) {
    let mut next = vec![0u64; producers];
    for &(pid, seq) in popped {
        assert_eq!(
            seq, next[pid],
            "producer {pid}: popped {seq}, expected {} (FIFO violated)",
            next[pid]
        );
        next[pid] += 1;
    }
    assert!(
        next.iter().all(|&n| n == per_producer),
        "not every pushed item was popped: {next:?}"
    );
}

/// A queue item that mimics the exec layer's control entries: `Control`
/// carries a reply channel a coordinating feeder would block on.
enum Item {
    Work(#[allow(dead_code)] u64),
    Control(#[allow(dead_code)] mpsc::Sender<u64>),
}

/// Regression for the stale `consumer_wake_pending` latch: a consumer
/// woken onto a ring it had already drained used to re-wait with the
/// latch set, every later push skipped its notify, the ring filled and
/// feeder and worker slept forever (≈1 in 200 live replays at capacity
/// 1024). Tiny rings make both sides park on almost every item and a
/// pop-then-yield consumer keeps re-parking inside the feeder's
/// read-counter-then-lock window, so the parent's code hangs here within
/// a few thousand items. A hang must fail, not wedge the suite: the
/// handoff runs on detached threads and this thread is the watchdog.
#[test]
fn tiny_ring_handoff_never_loses_a_wakeup() {
    const ITEMS: u64 = 200_000;
    for capacity in 1..=4usize {
        let queue = Arc::new(IngestQueue::<u64>::new(capacity));
        let (done_tx, done_rx) = mpsc::channel();
        let producer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                for seq in 0..ITEMS {
                    if !queue.push(seq) {
                        return; // the watchdog gave up and closed the queue
                    }
                }
                queue.close();
            })
        };
        let consumer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut next = 0u64;
                while let Some(seq) = queue.pop() {
                    assert_eq!(seq, next, "FIFO violated");
                    next += 1;
                    thread::yield_now();
                }
                let _ = done_tx.send(next);
            })
        };
        let popped = done_rx.recv_timeout(Duration::from_secs(120));
        // Wake whoever still sleeps so both threads can be joined.
        queue.close_and_clear();
        producer.join().expect("producer panicked");
        consumer.join().expect("consumer panicked");
        assert_eq!(
            popped,
            Ok(ITEMS),
            "capacity {capacity}: feeder and worker both asleep (lost wakeup)"
        );
    }
}

proptest! {
    /// MPSC FIFO holds for arbitrary producer counts, item counts and
    /// capacities — including capacity 1, where every item is a
    /// park/wake handoff.
    #[test]
    fn fifo_per_producer_across_interleavings(
        producers in 1usize..4,
        per_producer in 1u64..300,
        capacity in proptest::sample::select(vec![1usize, 2, 7, 64, 1024]),
    ) {
        let popped = run_handoff(producers, per_producer, capacity);
        assert_fifo_per_producer(&popped, producers, per_producer);
    }

    /// The capacity-1 ring is a strict lockstep pipe: at most one item
    /// is ever buffered, and a single producer's stream arrives intact
    /// and in order.
    #[test]
    fn capacity_one_is_a_lockstep_pipe(items in 1u64..500) {
        let popped = run_handoff(1, items, 1);
        assert_fifo_per_producer(&popped, 1, items);
    }

    /// Consumer death while producers are parked on a full ring: every
    /// producer must return (push -> false) instead of sleeping forever,
    /// and every control entry's reply channel must be released —
    /// whether it was popped before the teardown, stranded in the ring,
    /// or still in a racing producer's hands.
    #[test]
    fn close_while_full_releases_producers_and_reply_channels(
        producers in 1usize..4,
        per_producer in 1u64..40,
        capacity in proptest::sample::select(vec![1usize, 2, 5]),
        control_every in 1u64..5,
        pop_first in 0u64..8,
    ) {
        let queue = IngestQueue::<Item>::new(capacity);
        let mut receivers = Vec::new();
        let (rx_tx, rx_rx) = mpsc::channel::<mpsc::Receiver<u64>>();
        thread::scope(|scope| {
            for pid in 0..producers {
                let queue = &queue;
                let rx_tx = rx_tx.clone();
                scope.spawn(move || {
                    for seq in 0..per_producer {
                        let item = if seq % control_every == 0 {
                            let (tx, rx) = mpsc::channel();
                            // Hand the receiver out *before* pushing, so
                            // the main thread tracks channels even when
                            // this push is refused.
                            rx_tx.send(rx).unwrap();
                            Item::Control(tx)
                        } else {
                            Item::Work(pid as u64 * 1_000 + seq)
                        };
                        if !queue.push(item) {
                            // Closed: the rest of this producer's stream
                            // is dropped, exactly like a feeder whose
                            // node died mid-run.
                            break;
                        }
                    }
                });
            }
            drop(rx_tx);
            // Consume a prefix, then die. `pop` blocks on an open queue,
            // so cap the prefix below the total the producers will push —
            // before the teardown no push is refused, so each of these
            // pops is guaranteed an eventual item.
            let total = producers as u64 * per_producer;
            for _ in 0..pop_first.min(total - 1) {
                let _ = queue.pop();
            }
            queue.close_and_clear();
            // Liveness: scope exit joins every producer — a parked
            // producer that never woke would hang the test here.
        });
        while let Ok(rx) = rx_rx.try_recv() {
            receivers.push(rx);
        }
        assert!(!queue.push(Item::Work(0)), "cleared queue must refuse pushes");
        assert_eq!(
            queue.len(), 0,
            "close_and_clear must leave nothing buffered"
        );
        // Every reply channel resolves: nobody replied, so each receiver
        // must observe its sender dropped (popped-and-dropped, cleared
        // from the ring, or refused at push) rather than block a
        // coordinating feeder forever.
        for rx in receivers {
            assert!(
                rx.recv().is_err(),
                "a control reply channel survived the teardown"
            );
        }
    }

    /// `run_closed_loop` is deterministic: identical plans on identically
    /// provisioned fabrics produce bit-identical traces, client stats and
    /// fleet reports, across arbitrary populations and windows.
    #[test]
    fn closed_loop_replay_is_deterministic(
        seed in 0u64..1000,
        clients_per_tenant in 1usize..4,
        think_mean_us in 500.0f64..20_000.0,
        duration_us in 50_000u64..300_000,
    ) {
        let tenants: Vec<TenantSpec> = (1..=3u32)
            .map(|id| TenantSpec {
                id,
                rate_rps: 0.0, // demand comes from the clients
                model: if id % 2 == 0 { "kws" } else { "vision" }.into(),
                prepaid_queries: 100_000,
                deadline_us: 40_000,
            })
            .collect();
        let run = || {
            let cfg = FabricConfig {
                node_weights: vec![1.0, 1.0],
                ..FabricConfig::default()
            };
            let mut fabric = tinymlops_serve::testkit::test_fabric(&cfg, 16, 7);
            fabric.provision(&LoadPlan {
                tenants: tenants.clone(),
                duration_us: 0,
                seed: 0,
                feature_dim: 0,
            });
            let plan = ClientPlan {
                clients: tenants
                    .iter()
                    .flat_map(|t| {
                        (0..clients_per_tenant).map(|_| ClientSpec {
                            tenant: t.id,
                            model: t.model.clone(),
                            think_mean_us,
                            deadline_us: t.deadline_us,
                        })
                    })
                    .collect(),
                duration_us,
                seed,
                feature_dim: 0,
                retry: RetryPolicy::default(),
            };
            fabric.run_closed_loop(&plan).expect("closed loop runs")
        };
        let a = run();
        let b = run();
        prop_assert!(!a.trace.is_empty(), "population issued no work");
        prop_assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(&b.trace) {
            prop_assert_eq!(
                (x.id, x.tenant, x.arrival_us, x.deadline_us),
                (y.id, y.tenant, y.arrival_us, y.deadline_us)
            );
        }
        prop_assert_eq!(&a.clients, &b.clients);
        prop_assert_eq!(&a.fabric, &b.fabric);
        // Demand-side conservation holds for every parameterization.
        prop_assert_eq!(a.clients.served + a.clients.shed_final, a.clients.issued);
        prop_assert_eq!(a.clients.lost, 0);
    }
}
