//! `queue-contend`: a closed loop of two threads running a seeded 50/50
//! enqueue/dequeue mix on one §3 queue built with the reclaim policy users
//! get by default, over a standing backlog.
//!
//! Each thread replays its own op stream: blocks of 64 operations with
//! exactly 32 enqueues, so the backlog stays within a few blocks of the
//! prefill and no dequeue finds the queue empty.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use wfqueue::unbounded::{introspect, Handle, Queue, ReclaimStats};
use wfqueue_channel::UnboundedConfig;
use wfqueue_metrics::{measure, StepSnapshot};

use crate::audit::{settle, Consumer};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{median, ratio, summarize};
use crate::{repeat_setups, Config, Setup};

/// Worker threads (the machine's two cores).
const THREADS: usize = 2;
/// Items in the queue before the first timed operation.
const PREFILL: u64 = 4096;
/// Distinct 64-op blocks in each thread's stream (cycled).
const STREAM_BLOCKS: usize = 4096;
/// Blocks each thread runs while warming up.
const WARMUP_BLOCKS: usize = 2048;
/// Throughput is the median over windows of this length.
const WINDOW: Duration = Duration::from_millis(100);

/// Phases the main thread steps the workers through.
const UNTRACED: u8 = 0;
const TRACED: u8 = 1;
const STOP: u8 = 2;

/// Item value: producer in the top 16 bits, its sequence number below.
fn tag(producer: usize, seq: u64) -> u64 {
    (producer as u64) << 48 | seq
}

fn untag(value: u64) -> (usize, u64) {
    ((value >> 48) as usize, value & ((1 << 48) - 1))
}

/// Each thread's op stream: one balanced mask per block, bit set = enqueue.
pub fn streams(seed: u64) -> Vec<Vec<u64>> {
    (0..THREADS)
        .map(|t| {
            let mut rng = Rng::new(seed, t as u64);
            (0..STREAM_BLOCKS).map(|_| rng.balanced_mask()).collect()
        })
        .collect()
}

/// The queue under test, as a user of the crate would build it.
pub fn build_queue() -> Queue<u64> {
    Queue::with_reclaim(THREADS, UnboundedConfig::default().reclaim)
}

/// Per-op measurements of the traced phase.
#[derive(Default)]
struct Trace {
    enqueue_ns: Vec<u64>,
    dequeue_ns: Vec<u64>,
    steps: StepSnapshot,
    nulls: u64,
}

impl Trace {
    fn merge(&mut self, other: Trace) {
        self.enqueue_ns.extend(other.enqueue_ns);
        self.dequeue_ns.extend(other.dequeue_ns);
        self.steps += other.steps;
        self.nulls += other.nulls;
    }
}

struct Worker<'q, 's> {
    id: usize,
    handle: Handle<'q, u64>,
    stream: &'s [u64],
    block: usize,
    enqueued: u64,
    ops: u64,
    audit: Consumer,
}

impl Worker<'_, '_> {
    /// Runs one block. With `latency`, the call at position `block % 64`
    /// is timed into it.
    fn run_block(&mut self, latency: Option<&mut Vec<u64>>) {
        let mask = self.stream[self.block % self.stream.len()];
        let sampled = match latency {
            Some(_) => self.block % 64,
            None => 64,
        };
        let mut sample = 0;
        for bit in 0..64 {
            let enqueue = mask >> bit & 1 == 1;
            if bit == sampled {
                let t0 = Instant::now();
                let value = self.call(enqueue);
                sample = t0.elapsed().as_nanos() as u64;
                self.settle_call(value);
            } else {
                let value = self.call(enqueue);
                self.settle_call(value);
            }
        }
        if let Some(latency) = latency {
            latency.push(sample);
        }
        self.block += 1;
        self.ops += 64;
    }

    /// Runs one block with every call timed and step-counted.
    fn run_block_traced(&mut self, trace: &mut Trace) {
        let mask = self.stream[self.block % self.stream.len()];
        for bit in 0..64 {
            let enqueue = mask >> bit & 1 == 1;
            let t0 = Instant::now();
            let (value, steps) = measure(|| self.call(enqueue));
            let ns = t0.elapsed().as_nanos() as u64;
            trace.steps += steps;
            if enqueue {
                trace.enqueue_ns.push(ns);
            } else {
                trace.dequeue_ns.push(ns);
                trace.nulls += u64::from(value.is_none());
            }
            self.settle_call(value);
        }
        self.block += 1;
        self.ops += 64;
    }

    /// One queue call: enqueue this thread's next item, or dequeue.
    #[inline]
    fn call(&mut self, enqueue: bool) -> Option<u64> {
        if enqueue {
            self.handle.enqueue(tag(self.id, self.enqueued));
            self.enqueued += 1;
            None
        } else {
            self.handle.dequeue()
        }
    }

    #[inline]
    fn settle_call(&mut self, dequeued: Option<u64>) {
        if let Some(value) = dequeued {
            let (producer, seq) = untag(value);
            self.audit.deliver(producer, seq);
        }
    }
}

/// A progress counter on its own cache line.
#[repr(align(128))]
#[derive(Default)]
struct Progress(AtomicU64);

/// What the main thread observed while driving one segment.
#[derive(Default)]
struct Drive {
    /// Window throughputs (ops/s), untraced then traced.
    rates: [Vec<f64>; 2],
    /// Reclaim counters when the traced phase began.
    reclaim_at_switch: ReclaimStats,
}

/// Steps the workers through one segment: untraced (all of it, or its
/// first half when `trace`) then traced, sampling throughput once per
/// window.
fn drive(
    segment: Duration,
    trace: bool,
    phase: &AtomicU8,
    progress: &[Progress],
    queue: &Queue<u64>,
) -> Drive {
    let switch = if trace { segment / 2 } else { segment };
    let ops = || {
        progress
            .iter()
            .map(|p| p.0.load(Ordering::Relaxed))
            .sum::<u64>()
    };
    let mut drive = Drive::default();
    let start = Instant::now();
    let (mut last_t, mut last_ops) = (start, ops());
    let mut current = UNTRACED;
    for window in 1.. {
        crate::wait_until(start + WINDOW * window);
        let (now, done) = (Instant::now(), ops());
        let rate = (done - last_ops) as f64 / (now - last_t).as_secs_f64();
        drive.rates[usize::from(current)].push(rate);
        (last_t, last_ops) = (now, done);
        if now - start >= segment {
            break;
        }
        if current == UNTRACED && now - start >= switch {
            drive.reclaim_at_switch = queue.reclaim_stats();
            current = TRACED;
            phase.store(TRACED, Ordering::Relaxed);
        }
    }
    phase.store(STOP, Ordering::Relaxed);
    drive
}

/// One set-up (build, prefill, warm-up) and its timed segment (none when
/// `segment` is zero).
struct Trial {
    drive: Drive,
    latency: Vec<u64>,
    trace: Trace,
    reclaim_end: ReclaimStats,
    live_blocks_end: usize,
}

fn trial(streams: &[Vec<u64>], segment: Duration, trace: bool) -> (Setup, Trial) {
    let t0 = Instant::now();
    let queue = build_queue();
    let mut handles = queue.handles();
    for seq in 0..PREFILL {
        handles[0].enqueue(tag(THREADS, seq));
    }
    let phase = AtomicU8::new(UNTRACED);
    let progress: Vec<Progress> = (0..THREADS).map(|_| Progress::default()).collect();
    let barrier = Barrier::new(THREADS + 1);
    let (setup_s, drive, workers) = std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(id, handle)| {
                let (phase, barrier, progress) = (&phase, &barrier, &progress[id]);
                let stream = &streams[id];
                s.spawn(move || {
                    let mut w = Worker {
                        id,
                        handle,
                        stream,
                        block: 0,
                        enqueued: 0,
                        ops: 0,
                        audit: Consumer::default(),
                    };
                    let (mut latency, mut trace) = (Vec::new(), Trace::default());
                    for _ in 0..WARMUP_BLOCKS {
                        w.run_block(None);
                    }
                    progress.0.store(w.ops, Ordering::Relaxed);
                    barrier.wait();
                    loop {
                        match phase.load(Ordering::Relaxed) {
                            UNTRACED => w.run_block(Some(&mut latency)),
                            TRACED => w.run_block_traced(&mut trace),
                            _ => break,
                        }
                        progress.0.store(w.ops, Ordering::Relaxed);
                    }
                    (w, latency, trace)
                })
            })
            .collect();
        barrier.wait();
        let setup_s = t0.elapsed().as_secs_f64();
        let drive = if segment.is_zero() {
            phase.store(STOP, Ordering::Relaxed);
            Drive::default()
        } else {
            drive(segment, trace, &phase, &progress, &queue)
        };
        let workers: Vec<_> = joins
            .into_iter()
            .map(|j| j.join().expect("queue-contend worker panicked"))
            .collect();
        (setup_s, drive, workers)
    });

    let reclaim_end = queue.reclaim_stats();
    let live_blocks_end = introspect::block_counts(&queue).live;
    let mut produced = vec![0; THREADS + 1];
    produced[THREADS] = PREFILL;
    let (mut consumers, mut latency, mut trace) = (Vec::new(), Vec::new(), Trace::default());
    let mut attempted = PREFILL;
    let mut drain = Consumer::default();
    for (w, lat, tr) in workers {
        produced[w.id] = w.enqueued;
        attempted += w.ops;
        latency.extend(lat);
        trace.merge(tr);
        let mut handle = w.handle;
        for value in handle.drain() {
            let (producer, seq) = untag(value);
            drain.deliver(producer, seq);
        }
        consumers.push(w.audit);
    }
    attempted += drain.delivered();
    consumers.push(drain);
    let tally = settle(&consumers, &produced);
    if tally.failed() > 0 {
        eprintln!("queue-contend audit: {tally:?}");
    }
    let setup = Setup {
        setup_s,
        attempted,
        failed: tally.failed(),
    };
    let trial = Trial {
        drive,
        latency,
        trace,
        reclaim_end,
        live_blocks_end,
    };
    (setup, trial)
}

/// Runs `SETUP_REPS` set-ups; the last one's queue and threads then run
/// for the timed seconds.
pub fn run(cfg: &Config) -> Outcome {
    let streams = streams(cfg.seed);
    let mut out = Outcome::default();
    let (mut setups, last) = repeat_setups(&mut out, |timed| {
        let segment = if timed {
            Duration::from_secs(cfg.seconds)
        } else {
            Duration::ZERO
        };
        trial(&streams, segment, cfg.trace)
    });
    let Trial {
        drive,
        mut latency,
        mut trace,
        reclaim_end,
        live_blocks_end,
    } = last;
    let [mut untraced, mut traced] = drive.rates;
    let truncations = reclaim_end.truncations - drive.reclaim_at_switch.truncations;
    let reclaimed = reclaim_end.reclaimed_blocks - drive.reclaim_at_switch.reclaimed_blocks;
    let items_per_s = median(&mut untraced);
    if cfg.trace {
        let ops = (trace.enqueue_ns.len() + trace.dequeue_ns.len()) as f64;
        let enq = summarize(&mut trace.enqueue_ns, 1.0);
        let deq = summarize(&mut trace.dequeue_ns, 1.0);
        let steps = trace.steps;
        out.metric("core.enqueue_ns.p50", enq.p50, "ns");
        out.metric("core.enqueue_ns.p99", enq.p99, "ns");
        out.metric("core.dequeue_ns.p50", deq.p50, "ns");
        out.metric("core.dequeue_ns.p99", deq.p99, "ns");
        out.metric(
            "core.dequeue_null_share",
            ratio(trace.nulls as f64, deq.n as f64),
            "share",
        );
        out.metric(
            "core.steps_per_op",
            ratio(steps.memory_steps() as f64, ops),
            "1/op",
        );
        out.metric(
            "core.cas_per_op",
            ratio(steps.cas_total() as f64, ops),
            "1/op",
        );
        out.metric(
            "core.cas_fail_per_op",
            ratio(steps.cas_failure as f64, ops),
            "1/op",
        );
        out.metric(
            "core.tree_visits_per_op",
            ratio(steps.tree_node_visits as f64, ops),
            "1/op",
        );
        out.metric(
            "core.block_allocs_per_op",
            ratio(steps.block_allocs as f64, ops),
            "1/op",
        );
        out.metric(
            "core.reclaim.truncations_per_kop",
            ratio(truncations as f64 * 1000.0, ops),
            "1/kop",
        );
        out.metric(
            "core.reclaim.blocks_per_op",
            ratio(reclaimed as f64, ops),
            "1/op",
        );
        out.metric("core.live_blocks_end", live_blocks_end as f64, "count");
        out.metric(
            "trace.overhead_ratio",
            ratio(items_per_s, median(&mut traced)),
            "ratio",
        );
    } else {
        out.end_to_end(items_per_s, &mut latency, &mut setups);
        out.note("throughput_windows", untraced.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_uses_the_default_reclaim_policy() {
        let q = build_queue();
        assert_eq!(q.reclaim_policy(), UnboundedConfig::default().reclaim);
        assert!(q.reclaim_policy().enabled());
    }

    #[test]
    fn tags_round_trip() {
        assert_eq!(untag(tag(2, 12345)), (2, 12345));
    }

    #[test]
    fn short_run_is_clean() {
        let cfg = Config {
            seed: 5,
            seconds: 2,
            trace: false,
        };
        let out = run(&cfg);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > PREFILL);
    }
}
