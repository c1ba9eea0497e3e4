//! `topic-burst`: an open loop. One publisher thread publishes on a seeded
//! bursty schedule into one capacity-bounded topic (the §6 backend); one
//! subscriber thread blocks in `recv`. Bursts run faster than the topic
//! drains, so a backlog builds and drains; the subscriber parks in every
//! quiet gap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use wfqueue_broker::{Broker, Publisher, Subscriber, Topic, TopicConfig};
use wfqueue_metrics::{measure, StepSnapshot};

use crate::audit::{settle, Consumer};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{ratio, summarize};
use crate::{ns_since, repeat_setups, Config, Setup};

/// The topic's capacity bound: twice a burst, so a burst's backlog seldom
/// shuts the gate. A publisher parked on a full topic would tie every
/// later latency to how fast the machine wakes a thread, which varies far
/// more from run to run than the topic's own speed.
const CAPACITY: usize = 2048;
/// Mean publish rate (msg/s): about half of the ~13.5k msg/s one publisher
/// and one subscriber sustain on this topic on a 2-core x86-64 container.
const RATE: f64 = 6_500.0;
/// Messages per burst. A burst takes ~85 ms to drain on a 2-core x86-64
/// container, long beside the millisecond stalls a shared host adds to a
/// thread now and then, so both latency percentiles are set by how fast the
/// topic drains its backlog rather than by those stalls.
const BURST: usize = 1024;
/// Rate inside a burst, as a multiple of `RATE`; the quiet gap after a
/// burst restores the mean. A burst's k-th message waits about
/// k × (1/drain − 1/arrival): the further arrivals outrun the drain, the
/// closer latency tracks the topic's own speed rather than amplifying its
/// changes.
const SPEEDUP: f64 = 16.0;
/// Messages published back to back, and received, during set-up.
const WARMUP: u64 = 2_000;

/// Due times (ns after the timed start) of the timed messages.
pub fn schedule(seed: u64, seconds: u64) -> Vec<u64> {
    Rng::new(seed, 0xB0B5).bursts(RATE, BURST, SPEEDUP, seconds)
}

/// What the subscriber saw.
#[derive(Default)]
struct Received {
    audit: Consumer,
    /// Due-to-delivery latency (ns) of untraced timed messages.
    latency: Vec<u64>,
    /// Per phase (untraced, traced): messages and last delivery (ns).
    count: [u64; 2],
    last_ns: [u64; 2],
    /// Traced phase: `recv` call durations, return times, step counts.
    recv_ns: Vec<u64>,
    recv_ret: Vec<u64>,
    steps: StepSnapshot,
}

fn subscribe(
    mut sub: Subscriber<u64>,
    start: &OnceLock<Instant>,
    due: &[u64],
    delivered: &AtomicU64,
    traced_from: u64,
) -> Received {
    let mut r = Received::default();
    let mut next = 0;
    loop {
        let tracing = next >= traced_from;
        let t0 = Instant::now();
        let (got, steps) = if tracing {
            measure(|| sub.recv())
        } else {
            (sub.recv(), StepSnapshot::default())
        };
        let Ok(seq) = got else { break };
        let now = Instant::now();
        r.audit.deliver(0, seq);
        next = seq + 1;
        // ORDERING: Release pairs with the set-up's Acquire wait for the
        // warm-up messages; it publishes nothing else.
        delivered.store(r.audit.delivered(), Ordering::Release);
        if seq < WARMUP {
            continue;
        }
        let start = *start.get().expect("timed messages follow the start");
        let at = ns_since(start, now);
        let phase = usize::from(seq >= traced_from);
        r.count[phase] += 1;
        r.last_ns[phase] = at;
        if phase == 0 {
            r.latency
                .push(at.saturating_sub(due[(seq - WARMUP) as usize]));
        } else {
            r.recv_ns.push(ns_since(t0, now));
            r.recv_ret.push(at);
            r.steps += steps;
        }
    }
    r
}

/// What the publisher measured in the traced phase.
#[derive(Default)]
struct Published {
    refused: u64,
    full: u64,
    publish_ns: Vec<u64>,
    publish_ret: Vec<u64>,
    lag: Vec<u64>,
    backlog_max: usize,
    steps: StepSnapshot,
}

/// Publishes the timed messages on schedule, tracing those from index
/// `traced_from` on.
fn publish(
    publisher: &mut Publisher<u64>,
    topic: &Topic<u64>,
    start: Instant,
    due: &[u64],
    traced_from: u64,
) -> Published {
    let mut p = Published::default();
    for (i, &d) in due.iter().enumerate() {
        let seq = WARMUP + i as u64;
        crate::wait_until(start + std::time::Duration::from_nanos(d));
        if seq < traced_from {
            p.refused += u64::from(publisher.publish(seq).is_err());
            continue;
        }
        // `publish` is `try_publish` first, then a wait while full; calling
        // the two halves separately counts how often the gate was shut.
        let t0 = Instant::now();
        let (result, steps) = measure(|| match publisher.try_publish(seq) {
            Ok(()) => Ok::<bool, ()>(false),
            Err(e) if e.is_full() => publisher
                .publish(e.into_inner())
                .map(|()| true)
                .map_err(drop),
            Err(_) => Err(()),
        });
        let t1 = Instant::now();
        match result {
            Ok(full) => p.full += u64::from(full),
            Err(_) => p.refused += 1,
        }
        p.publish_ns.push(ns_since(t0, t1));
        p.publish_ret.push(ns_since(start, t1));
        p.lag.push(ns_since(start, t0).saturating_sub(d));
        p.steps += steps;
        p.backlog_max = p.backlog_max.max(topic.stats().backlog);
    }
    p
}

/// One set-up (broker, topic, subscriber thread, warm-up) and, when
/// `timed`, the scheduled run.
struct Trial {
    received: Received,
    published: Published,
    live_blocks_end: usize,
}

fn trial(due: &[u64], timed: Option<&Config>) -> (Setup, Trial) {
    let t0 = Instant::now();
    let broker = Broker::new();
    let topic = broker
        .create_topic::<u64>("burst", TopicConfig::bounded(CAPACITY))
        .expect("a fresh broker has no topics");
    let mut publisher = topic.publisher().expect("topic is open with handle budget");
    let subscriber = topic
        .subscriber()
        .expect("topic is open with handle budget");
    let delivered = AtomicU64::new(0);
    let start = OnceLock::new();
    let due = if timed.is_some() { due } else { &[] };
    let traced_from = match timed {
        Some(cfg) if cfg.trace => WARMUP + due.len() as u64 / 2,
        _ => u64::MAX,
    };
    let (setup_s, published, received) = std::thread::scope(|s| {
        let sub = s.spawn(|| subscribe(subscriber, &start, due, &delivered, traced_from));
        let mut refused = 0;
        for seq in 0..WARMUP {
            refused += u64::from(publisher.publish(seq).is_err());
        }
        while delivered.load(Ordering::Acquire) < WARMUP - refused {
            std::thread::yield_now();
        }
        let setup_s = t0.elapsed().as_secs_f64();
        let t = *start.get_or_init(Instant::now);
        let mut published = publish(&mut publisher, &topic, t, due, traced_from);
        published.refused += refused;
        topic.close();
        (setup_s, published, sub.join().expect("subscriber panicked"))
    });
    let stats = topic.stats();
    let live_blocks_end = topic.memory_stats().live_blocks;
    let sent = WARMUP + due.len() as u64;
    let produced = sent - published.refused;
    let tally = settle(std::slice::from_ref(&received.audit), &[produced]);
    let certificate = stats.published == stats.delivered && stats.published == produced;
    if tally.failed() > 0 || !certificate || published.refused > 0 {
        eprintln!(
            "topic-burst audit: {tally:?}, refused {}, stats {stats:?}",
            published.refused
        );
    }
    let failed = tally.failed() + published.refused + u64::from(!certificate);
    let setup = Setup {
        setup_s,
        attempted: sent,
        failed,
    };
    let trial = Trial {
        received,
        published,
        live_blocks_end,
    };
    (setup, trial)
}

pub fn run(cfg: &Config) -> Outcome {
    let due = schedule(cfg.seed, cfg.seconds);
    let mut out = Outcome::default();
    let (mut setups, last) = repeat_setups(&mut out, |timed| trial(&due, timed.then_some(cfg)));
    let Trial {
        mut received,
        mut published,
        live_blocks_end,
    } = last;
    let untraced_rate = ratio(received.count[0] as f64, received.last_ns[0] as f64 * 1e-9);
    if cfg.trace {
        let first_traced = due[due.len() / 2];
        let traced_rate = ratio(
            received.count[1] as f64,
            received.last_ns[1].saturating_sub(first_traced) as f64 * 1e-9,
        );
        let msgs = received.count[1] as f64;
        let steps = received.steps + published.steps;
        out.metric(
            "core.bounded.steps_per_msg",
            ratio(steps.memory_steps() as f64, msgs),
            "1/msg",
        );
        out.metric(
            "core.bounded.cas_per_msg",
            ratio(steps.cas_total() as f64, msgs),
            "1/msg",
        );
        out.metric(
            "core.bounded.gc_phases_per_kmsg",
            ratio(steps.gc_phases as f64 * 1000.0, msgs),
            "1/kmsg",
        );
        out.metric(
            "core.bounded.help_per_kmsg",
            ratio(steps.help_calls as f64 * 1000.0, msgs),
            "1/kmsg",
        );
        out.metric(
            "core.bounded.live_blocks_end",
            live_blocks_end as f64,
            "count",
        );
        let publish_ns = summarize(&mut published.publish_ns, 1.0);
        out.metric("broker.publish_ns.p50", publish_ns.p50, "ns");
        out.metric("broker.publish_ns.p99", publish_ns.p99, "ns");
        let mut waits: Vec<u64> = received
            .recv_ret
            .iter()
            .zip(&published.publish_ret)
            .map(|(r, p)| r.saturating_sub(*p))
            .collect();
        let wait = summarize(&mut waits, 1e-3);
        out.metric("broker.queue_wait_us.p50", wait.p50, "us");
        out.metric("broker.queue_wait_us.p99", wait.p99, "us");
        out.metric(
            "broker.full_share",
            ratio(published.full as f64, publish_ns.n as f64),
            "share",
        );
        out.metric(
            "broker.recv_wait_us.p50",
            summarize(&mut received.recv_ns, 1e-3).p50,
            "us",
        );
        out.metric("broker.backlog_max", published.backlog_max as f64, "count");
        let lag = summarize(&mut published.lag, 1e-3);
        out.metric("gen.lag_p99_us", lag.p99, "us");
        out.metric("gen.samples", lag.n as f64, "count");
        out.metric(
            "trace.overhead_ratio",
            ratio(untraced_rate, traced_rate),
            "ratio",
        );
    } else {
        out.end_to_end(untraced_rate, &mut received.latency, &mut setups);
        out.note("mean_rate_per_s", RATE);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_is_clean() {
        let out = run(&Config {
            seed: 3,
            seconds: 1,
            trace: true,
        });
        assert_eq!(out.failed, 0);
        assert!(out.attempted > WARMUP);
    }
}
