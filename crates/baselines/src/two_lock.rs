//! Michael & Scott's two-lock queue (the blocking algorithm from the same
//! 1996/1998 papers as [`crate::MsQueue`]).
//!
//! Enqueues and dequeues synchronise on separate locks over a linked list
//! with a sentinel, so producers and consumers do not contend with each
//! other. Blocking, so no wait-freedom — included as the "simple and fast
//! when uncontended" reference point.

use std::ptr;

use parking_lot::Mutex;
use wfqueue_metrics as metrics;
use wfqueue_sync::atomic::{AtomicPtr, Ordering};

/// A list node. `next` is the one field both locks reach: when the queue
/// is empty the sentinel (head side) is also the tail node, whose `next`
/// the enqueuer writes under the *tail* lock while a dequeuer reads it
/// under the *head* lock. It is therefore atomic, published with Release
/// and read with Acquire, and only ever stored into by the enqueuer.
struct Node<T> {
    value: Option<T>,
    next: AtomicPtr<Node<T>>,
}

impl<T> Node<T> {
    fn alloc(value: Option<T>) -> *mut Node<T> {
        Box::into_raw(Box::new(Node {
            value,
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// A pointer into the chain, guarded by one of the two locks.
struct Link<T>(*mut Node<T>);

// SAFETY: a `Link` is only dereferenced under the lock that guards it, and
// the pointee is a heap node owned by the queue's chain (sentinel
// discipline), so moving it across threads moves no thread-bound data
// beyond the `T` values it leads to.
unsafe impl<T: Send> Send for Link<T> {}

/// The two-lock Michael–Scott queue.
///
/// # Examples
///
/// ```
/// let q = wfqueue_baselines::TwoLockQueue::new();
/// q.enqueue("x");
/// assert_eq!(q.dequeue(), Some("x"));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct TwoLockQueue<T> {
    /// The sentinel: the node before the front value. It owns the chain.
    head: Mutex<Link<T>>,
    /// The last node. Never dangles: a dequeue frees only the old
    /// sentinel, after reading a non-null `next` from it, so the old
    /// sentinel is no longer the tail.
    tail: Mutex<Link<T>>,
}

impl<T: Send> TwoLockQueue<T> {
    /// Creates an empty queue (one sentinel node).
    #[must_use]
    pub fn new() -> Self {
        let sentinel = Node::alloc(None);
        TwoLockQueue {
            head: Mutex::new(Link(sentinel)),
            tail: Mutex::new(Link(sentinel)),
        }
    }

    /// Appends `value` to the back of the queue.
    pub fn enqueue(&self, value: T) {
        let node = Node::alloc(Some(value));
        metrics::record_shared_store(); // lock acquisition (shared access)
        let mut tail = self.tail.lock();
        // The critical section is this queue's race window: on an empty
        // queue it overlaps the dequeuer's on the shared sentinel.
        metrics::adversary_yield();
        // SAFETY: under the tail lock, `tail.0` points to the live tail
        // node of the chain owned by `head` (sentinel discipline). Only its
        // `next` field is borrowed: a dequeuer may own its `value`.
        // ORDERING: Release publishes the new node's value to the dequeuer
        // that reads this `next` with Acquire under the head lock.
        unsafe { (*tail.0).next.store(node, Ordering::Release) };
        tail.0 = node;
    }

    /// Removes and returns the front value, or `None` if the queue is empty.
    pub fn dequeue(&self) -> Option<T> {
        metrics::record_shared_store(); // lock acquisition (shared access)
        let mut head = self.head.lock();
        metrics::adversary_yield();
        let sentinel = head.0;
        // SAFETY: under the head lock, `head.0` is the live sentinel.
        // ORDERING: Acquire pairs with the enqueuer's Release store, so the
        // next node's value is visible below.
        let next = unsafe { (*sentinel).next.load(Ordering::Acquire) };
        if next.is_null() {
            return None;
        }
        // SAFETY: `next` is a published node of the chain. Its `value` is
        // touched only by the head-lock holder once published; the
        // enqueuer only ever writes its `next`.
        let value = unsafe { (*next).value.take() };
        head.0 = next;
        drop(head);
        // SAFETY: the old sentinel is unreachable now: `head` moved past
        // it, and it is not the tail, since its `next` was non-null.
        drop(unsafe { Box::from_raw(sentinel) });
        value
    }

    /// Whether the queue appears empty at this instant.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let head = self.head.lock();
        // SAFETY: under the head lock, `head.0` is the live sentinel.
        // ORDERING: Acquire, as in `dequeue`.
        unsafe { (*head.0).next.load(Ordering::Acquire) }.is_null()
    }
}

impl<T> Drop for TwoLockQueue<T> {
    fn drop(&mut self) {
        let mut node = self.head.get_mut().0;
        while !node.is_null() {
            // SAFETY: `&mut self` excludes every other access, and each
            // chain node is freed exactly once, walking from the sentinel.
            let mut owned = unsafe { Box::from_raw(node) };
            node = *owned.next.get_mut();
        }
    }
}

impl<T: Send> Default for TwoLockQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for TwoLockQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TwoLockQueue")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::Arc;
    use wfqueue_sync::atomic::AtomicUsize;

    #[test]
    fn fifo_semantics_sequential() {
        let q = TwoLockQueue::new();
        let mut model = VecDeque::new();
        for i in 0..300u32 {
            if i % 4 == 1 {
                assert_eq!(q.dequeue(), model.pop_front());
            } else {
                q.enqueue(i);
                model.push_back(i);
            }
        }
        while let Some(v) = model.pop_front() {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn drop_frees_pending_nodes() {
        let q = TwoLockQueue::new();
        for i in 0..100 {
            q.enqueue(format!("value-{i}"));
        }
        drop(q); // must not leak or double-free (checked under sanitizers)
    }

    #[test]
    fn concurrent_producers_consumers() {
        let q = Arc::new(TwoLockQueue::new());
        let total = 4 * 5_000u64;
        let consumed: Vec<u64> = wfqueue_sync::thread::scope(|s| {
            for t in 0..4u64 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..5_000 {
                        q.enqueue((t << 32) | i);
                    }
                });
            }
            let join = {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut misses = 0;
                    while (got.len() as u64) < total && misses < 50_000_000 {
                        match q.dequeue() {
                            Some(v) => {
                                got.push(v);
                                misses = 0;
                            }
                            None => misses += 1,
                        }
                    }
                    got
                })
            };
            join.join().unwrap()
        });
        assert_eq!(consumed.len() as u64, total);
        let mut sorted = consumed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len() as u64, total);
        // Single consumer: per-producer order must be exact.
        let mut last = [None::<u64>; 4];
        for v in &consumed {
            let t = (v >> 32) as usize;
            let i = v & 0xffff_ffff;
            if let Some(prev) = last[t] {
                assert!(i > prev);
            }
            last[t] = Some(i);
        }
    }

    #[test]
    fn adversarial_traffic_on_an_often_empty_queue_loses_nothing() {
        // Regression: on an empty queue the sentinel is also the tail
        // node, so a dequeuer (head lock) and an enqueuer (tail lock) both
        // reach its `next`. A dequeuer that wrote that field could erase a
        // just-linked node, losing it and every later value. Consumers
        // outnumber the work here, so the queue is empty most of the time,
        // and the adversary yields inside both critical sections.
        const PRODUCERS: u64 = 2;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: u64 = 2_000;
        wfqueue_metrics::set_adversary(true);
        for _round in 0..30 {
            let q = TwoLockQueue::new();
            let finished = AtomicUsize::new(0);
            let per_consumer: Vec<Vec<u64>> = wfqueue_sync::thread::scope(|s| {
                for t in 0..PRODUCERS {
                    let (q, finished) = (&q, &finished);
                    s.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            q.enqueue((t << 32) | i);
                        }
                        // ORDERING: Release orders every enqueue above
                        // before the count a consumer reads with Acquire.
                        finished.fetch_add(1, Ordering::Release);
                    });
                }
                let consumers: Vec<_> = (0..CONSUMERS)
                    .map(|_| {
                        let (q, finished) = (&q, &finished);
                        s.spawn(move || {
                            let mut got = Vec::new();
                            loop {
                                if let Some(v) = q.dequeue() {
                                    got.push(v);
                                } else if finished.load(Ordering::Acquire) == PRODUCERS as usize
                                    && q.is_empty()
                                {
                                    // Every enqueue happened before this
                                    // empty check: nothing is left to take.
                                    return got;
                                }
                            }
                        })
                    })
                    .collect();
                consumers.into_iter().map(|c| c.join().unwrap()).collect()
            });
            for got in &per_consumer {
                let mut last = [None::<u64>; PRODUCERS as usize];
                for v in got {
                    let (t, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                    assert!(last[t] < Some(i), "producer {t}: {i} after {:?}", last[t]);
                    last[t] = Some(i);
                }
            }
            let mut all: Vec<u64> = per_consumer.concat();
            all.sort_unstable();
            let expected: Vec<u64> = (0..PRODUCERS)
                .flat_map(|t| (0..PER_PRODUCER).map(move |i| (t << 32) | i))
                .collect();
            assert_eq!(all, expected, "values lost or duplicated");
        }
        wfqueue_metrics::set_adversary(false);
    }
}
