//! `BoundedQueue` behaviour tests.
//!
//! These live outside `src/` because `queue.rs` itself is compiled both
//! here and inside `spg-race` (see `src/sync_prims.rs`); an in-file
//! test module would be dragged into the model build. The close/full
//! interaction matrix backs the shutdown story: close never loses
//! queued work and never wedges a blocked producer or consumer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spg_serve::{BoundedQueue, PushError};

#[test]
fn fifo_order_preserved() {
    let q = BoundedQueue::new(4);
    q.try_push(1).unwrap();
    q.try_push(2).unwrap();
    q.try_push(3).unwrap();
    assert_eq!(q.pop(), Some(1));
    assert_eq!(q.pop(), Some(2));
    assert_eq!(q.try_pop(), Some(3));
    assert!(q.try_pop().is_none());
}

#[test]
fn full_queue_rejects_not_blocks() {
    let q = BoundedQueue::new(2);
    q.try_push(1).unwrap();
    q.try_push(2).unwrap();
    assert_eq!(q.try_push(3), Err(PushError::Full));
    let start = Instant::now();
    let deadline = start + Duration::from_millis(20);
    assert_eq!(q.push_deadline(3, deadline), Err(PushError::TimedOut));
    assert!(start.elapsed() >= Duration::from_millis(20));
    assert!(start.elapsed() < Duration::from_secs(5), "push must not block indefinitely");
}

#[test]
fn closed_queue_drains_then_ends() {
    let q = BoundedQueue::new(4);
    q.try_push(7).unwrap();
    q.close();
    assert_eq!(q.try_push(8), Err(PushError::Closed));
    assert_eq!(q.pop(), Some(7)); // in-flight item still served
    assert_eq!(q.pop(), None);
}

#[test]
fn pop_deadline_times_out_when_empty() {
    let q: BoundedQueue<u32> = BoundedQueue::new(1);
    assert_eq!(q.pop_deadline(Instant::now() + Duration::from_millis(10)), None);
}

#[test]
fn concurrent_producers_and_consumers_deliver_everything() {
    let q = Arc::new(BoundedQueue::new(8));
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..50 {
                    let item = p * 1000 + i;
                    loop {
                        if q.push_deadline(item, Instant::now() + Duration::from_secs(5)).is_ok() {
                            break;
                        }
                    }
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.pop() {
                    got.push(item);
                }
                got
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    q.close();
    let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
    all.sort_unstable();
    assert_eq!(all.len(), 200);
    all.dedup();
    assert_eq!(all.len(), 200, "no item delivered twice");
}

// --- close-while-full / close-while-empty matrix ------------------------

#[test]
fn close_while_full_unblocks_waiting_producer_with_closed() {
    let q = Arc::new(BoundedQueue::new(1));
    q.try_push(1).unwrap();
    let pusher = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || q.push_deadline(2, Instant::now() + Duration::from_secs(30)))
    };
    // Nudge the producer towards its parked state; whether close lands
    // before or after it parks, the outcome must be `Closed` (the
    // parked-case interleavings are proved exhaustively by spg-race's
    // queue_close scenario — this is the live-thread smoke of it).
    for _ in 0..100 {
        std::thread::yield_now();
    }
    q.close();
    assert_eq!(pusher.join().unwrap(), Err(PushError::Closed), "close must fail a parked push");
    // The item queued before close still drains.
    assert_eq!(q.pop(), Some(1));
    assert_eq!(q.pop(), None);
}

#[test]
fn close_while_full_then_drain_serves_all_queued_items() {
    let q = BoundedQueue::new(2);
    q.try_push(1).unwrap();
    q.try_push(2).unwrap();
    q.close();
    assert_eq!(q.try_push(3), Err(PushError::Closed));
    assert_eq!(q.pop(), Some(1));
    assert_eq!(q.pop(), Some(2));
    assert_eq!(q.pop(), None);
    // A post-drain push still reports Closed, not Full.
    assert_eq!(q.try_push(4), Err(PushError::Closed));
}

#[test]
fn close_while_empty_unblocks_waiting_consumer_with_none() {
    let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2));
    let popper = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || q.pop())
    };
    // Give the consumer a chance to park; close must wake it either way.
    std::thread::yield_now();
    q.close();
    assert_eq!(popper.join().unwrap(), None, "close must release a parked pop");
    assert_eq!(q.pop(), None, "closed-and-empty stays terminal");
}

#[test]
fn close_while_empty_fails_subsequent_pushes_and_timed_pops() {
    let q: BoundedQueue<u32> = BoundedQueue::new(2);
    q.close();
    assert_eq!(q.try_push(1), Err(PushError::Closed));
    assert_eq!(
        q.push_deadline(1, Instant::now() + Duration::from_secs(5)),
        Err(PushError::Closed),
        "deadline push must fail fast on a closed queue, not wait out the deadline"
    );
    assert_eq!(q.pop_deadline(Instant::now() + Duration::from_secs(5)), None);
}

#[test]
fn close_is_idempotent_and_races_safely_with_drain() {
    let q = Arc::new(BoundedQueue::new(4));
    for i in 0..4 {
        q.try_push(i).unwrap();
    }
    let closer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            q.close();
            q.close();
        })
    };
    let mut got = Vec::new();
    while let Some(v) = q.pop() {
        got.push(v);
    }
    closer.join().unwrap();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1, 2, 3], "close concurrent with drain loses nothing");
}
