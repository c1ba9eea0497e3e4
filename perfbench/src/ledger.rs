//! The layer ledger: `queue-contend`'s op stream replayed through each
//! layer's public entry in turn, at one and two threads, with the time,
//! shared-memory steps and CAS each operation costs there.
//!
//! Every layer is sized for the process count the channel facade's default
//! endpoints give (`Endpoints::default().total()`), so the difference
//! between adjacent layers is that layer's marginal cost, not a change of
//! tree height. The ledger attributes; it does not gate.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use wfqueue::{bounded, unbounded};
use wfqueue_broker::{Broker, Publisher, Subscriber, TopicConfig};
use wfqueue_channel::{Endpoints, Receiver, Sender, ShardedConfig, UnboundedConfig};
use wfqueue_metrics::{measure, StepSnapshot};
use wfqueue_ring::{Ring, RingHandle};
use wfqueue_shard::{ShardedHandle, ShardedUnbounded};

use crate::report::{Metric, LEDGER_LAYERS};

/// 64-op blocks each thread replays per layer.
const BLOCKS: usize = 512;
/// Items enqueued before the replay, so no dequeue finds a layer empty.
const PREFILL: u64 = 1024;
/// Ring capacity: room for the prefill plus the stream's drift.
const RING_CAPACITY: usize = 4096;

/// One thread's view of a layer: its enqueue and dequeue entry points.
trait Endpoint: Send {
    fn enqueue(&mut self, value: u64);
    fn dequeue(&mut self) -> Option<u64>;
}

impl Endpoint for unbounded::Handle<'_, u64> {
    fn enqueue(&mut self, value: u64) {
        unbounded::Handle::enqueue(self, value);
    }
    fn dequeue(&mut self) -> Option<u64> {
        unbounded::Handle::dequeue(self)
    }
}

impl Endpoint for bounded::Handle<'_, u64> {
    fn enqueue(&mut self, value: u64) {
        bounded::Handle::enqueue(self, value);
    }
    fn dequeue(&mut self) -> Option<u64> {
        bounded::Handle::dequeue(self)
    }
}

impl Endpoint for RingHandle<'_, u64> {
    fn enqueue(&mut self, value: u64) {
        self.try_enqueue(value).expect("ring sized for the backlog");
    }
    fn dequeue(&mut self) -> Option<u64> {
        RingHandle::dequeue(self)
    }
}

impl Endpoint for ShardedHandle<'_, unbounded::Queue<u64>> {
    fn enqueue(&mut self, value: u64) {
        ShardedHandle::enqueue(self, value);
    }
    fn dequeue(&mut self) -> Option<u64> {
        ShardedHandle::dequeue(self)
    }
}

/// A sender/receiver pair, driven through `try_*` or the blocking calls.
struct ChannelEnd {
    tx: Sender<u64>,
    rx: Receiver<u64>,
    blocking: bool,
}

impl Endpoint for ChannelEnd {
    fn enqueue(&mut self, value: u64) {
        if self.blocking {
            self.tx.send(value).expect("channel connected");
        } else {
            self.tx.try_send(value).expect("unbounded channel accepts");
        }
    }
    fn dequeue(&mut self) -> Option<u64> {
        if self.blocking {
            self.rx.recv().ok()
        } else {
            self.rx.try_recv().ok()
        }
    }
}

impl Endpoint for (Publisher<u64>, Subscriber<u64>) {
    fn enqueue(&mut self, value: u64) {
        self.0.try_publish(value).expect("unbounded topic accepts");
    }
    fn dequeue(&mut self) -> Option<u64> {
        self.1.try_recv().ok()
    }
}

/// Exact totals of one layer's replay.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub ops: u64,
    /// Sum over threads of each thread's replay time.
    pub ns: u128,
    pub steps: StepSnapshot,
}

/// Prefills through the first endpoint, then replays `blocks` blocks of
/// each stream on its own thread, all starting together.
fn replay<E: Endpoint>(mut ends: Vec<E>, streams: &[Vec<u64>], blocks: usize) -> Cost {
    for i in 0..PREFILL {
        ends[0].enqueue(i);
    }
    let barrier = Barrier::new(ends.len());
    let per_thread: Vec<(u128, StepSnapshot)> = std::thread::scope(|s| {
        let joins: Vec<_> = ends
            .into_iter()
            .zip(streams)
            .map(|(mut end, stream)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let t0 = Instant::now();
                    let ((), steps) = measure(|| {
                        let mut next = PREFILL;
                        for &mask in &stream[..blocks] {
                            for bit in 0..64 {
                                if mask >> bit & 1 == 1 {
                                    end.enqueue(black_box(next));
                                    next += 1;
                                } else {
                                    black_box(end.dequeue());
                                }
                            }
                        }
                    });
                    (t0.elapsed().as_nanos(), steps)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("ledger thread panicked"))
            .collect()
    });
    Cost {
        ops: (per_thread.len() * blocks * 64) as u64,
        ns: per_thread.iter().map(|t| t.0).sum(),
        steps: per_thread
            .iter()
            .fold(StepSnapshot::default(), |acc, t| acc + t.1),
    }
}

/// `p` endpoints of one layer.
fn endpoints<E>(p: usize, mut register: impl FnMut() -> Option<E>) -> Vec<E> {
    (0..p)
        .map(|_| register().expect("layer sized for the ledger's threads"))
        .collect()
}

/// Replays the first `p` streams through every layer, in
/// [`LEDGER_LAYERS`] order.
pub fn layer_costs(streams: &[Vec<u64>], p: usize, blocks: usize) -> Vec<Cost> {
    let n = Endpoints::default().total();
    let streams = &streams[..p];
    let core = {
        let q = unbounded::Queue::<u64>::with_reclaim(n, UnboundedConfig::default().reclaim);
        replay(endpoints(p, || q.register()), streams, blocks)
    };
    let core_noreclaim = {
        let q = unbounded::Queue::<u64>::new(n);
        replay(endpoints(p, || q.register()), streams, blocks)
    };
    let core_bounded = {
        let q = bounded::Queue::<u64>::new(n);
        replay(endpoints(p, || q.register()), streams, blocks)
    };
    let ring = {
        let q = Ring::<u64>::new(RING_CAPACITY, n);
        replay(endpoints(p, || q.register()), streams, blocks)
    };
    let shard = {
        let cfg = ShardedConfig::default();
        let q = ShardedUnbounded::<u64>::with_reclaim_placed(
            cfg.shards,
            cfg.endpoints.total(),
            cfg.routing,
            cfg.reclaim,
            cfg.placement,
        );
        replay(endpoints(p, || q.try_handle()), streams, blocks)
    };
    let channel = |blocking: bool| {
        let (tx, rx) = wfqueue_channel::unbounded::<u64>();
        let ends = (0..p)
            .map(|_| ChannelEnd {
                tx: tx.try_clone().expect("endpoint budget"),
                rx: rx.try_clone().expect("endpoint budget"),
                blocking,
            })
            .collect();
        replay(ends, streams, blocks)
    };
    let broker_try = {
        let broker = Broker::new();
        let topic = broker
            .create_topic::<u64>("ledger", TopicConfig::default())
            .expect("fresh broker");
        let ends = (0..p)
            .map(|_| {
                let publisher = topic.publisher().expect("handle budget");
                (publisher, topic.subscriber().expect("handle budget"))
            })
            .collect();
        replay(ends, streams, blocks)
    };
    vec![
        core,
        core_noreclaim,
        core_bounded,
        ring,
        shard,
        channel(false),
        channel(true),
        broker_try,
    ]
}

/// The ledger's per-layer metrics for `seed`'s op stream.
pub fn run(seed: u64) -> Vec<Metric> {
    let streams = crate::queue_contend::streams(seed);
    let mut metrics = Vec::new();
    for p in 1..=2 {
        for (layer, cost) in LEDGER_LAYERS.iter().zip(layer_costs(&streams, p, BLOCKS)) {
            let ops = cost.ops as f64;
            let name = |kind: &str| format!("ledger.{layer}.p{p}.{kind}");
            metrics.push(Metric {
                name: name("ns_per_op"),
                value: cost.ns as f64 / ops,
                unit: "ns/op",
            });
            metrics.push(Metric {
                name: name("steps_per_op"),
                value: cost.steps.memory_steps() as f64 / ops,
                unit: "1/op",
            });
            metrics.push(Metric {
                name: name("cas_per_op"),
                value: cost.steps.cas_total() as f64 / ops,
                unit: "1/op",
            });
        }
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The p=1 counts are a property of the code, not of the run: two
    /// replays of the same stream must agree exactly (values not asserted).
    #[test]
    fn p1_counts_repeat_exactly() {
        let streams = crate::queue_contend::streams(42);
        let first = layer_costs(&streams, 1, 64);
        let second = layer_costs(&streams, 1, 64);
        assert_eq!(first.len(), LEDGER_LAYERS.len());
        for ((layer, a), b) in LEDGER_LAYERS.iter().zip(&first).zip(&second) {
            assert_eq!(a.ops, b.ops, "{layer}");
            assert_eq!(
                a.steps.memory_steps(),
                b.steps.memory_steps(),
                "{layer} steps"
            );
            assert_eq!(a.steps.cas_total(), b.steps.cas_total(), "{layer} cas");
        }
    }
}
