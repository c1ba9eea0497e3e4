//! `task-fanout`: an open loop. One generator thread sleeps until each
//! request of a seeded bursty schedule is due and spawns it through a
//! `Spawner`; inside the pool the request spawns a seeded 1–64 subtasks with
//! `Executor::spawn`. A request is done when its last subtask completes.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wfqueue_executor::{Executor, ExecutorConfig, ExecutorStats, Spawner};

use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{ratio, summarize};
use crate::{ns_since, repeat_setups, Config, Setup};

/// Pool workers (the machine's two cores).
const WORKERS: usize = 2;
/// Mean request rate (req/s); with ~33.5 tasks each that is ~536k tasks/s,
/// about a third of what the pool runs back to back on a 2-core x86-64
/// container.
const RATE: f64 = 16_000.0;
/// Requests per burst. A burst arrives faster than the pool drains it, so
/// work backs up in the injection queue and the local rings and idle
/// workers steal; latency is then set by that backlog, not by how fast the
/// machine wakes a sleeping thread. A burst (~69k tasks) takes ~70 ms to
/// drain on a 2-core x86-64 container, long beside the millisecond stalls a
/// shared host adds to a thread now and then.
const BURST: usize = 2048;
/// Rate inside a burst, as a multiple of `RATE` (see the topic-burst
/// workload for why arrivals far outrun the drain).
const SPEEDUP: f64 = 16.0;
/// Requests spawned, and completed, during set-up.
const WARMUP: usize = 8_000;
/// Warm-up requests spawned back to back before waiting for them.
const WARMUP_ROUND: usize = 256;
/// How long to wait for stragglers before counting them lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// One request in flight. Outcomes go to [`Shared`]'s slots, so a
/// request's memory is freed once its last subtask ran.
struct Request {
    id: usize,
    subtasks: u32,
    remaining: AtomicU32,
    /// Traced requests, `2 * subtasks + 1` slots: each subtask's
    /// `Executor::spawn` duration, then each subtask's wait from spawn to
    /// start, then the request task's own wait.
    trace: Option<Box<[AtomicU64]>>,
}

/// Per-trial state every task reports into. `ran` and `done_ns` hold one
/// slot per request, allocated before the timed start.
struct Shared {
    /// Bit `i` of slot `r` set once request `r`'s subtask `i` ran.
    ran: Vec<AtomicU64>,
    /// Completion time of request `r`, ns after the timed start
    /// (`u64::MAX` until done).
    done_ns: Vec<AtomicU64>,
    duplicated: AtomicU64,
    refused: AtomicU64,
    completed: AtomicU64,
}

/// Due times (ns after the timed start) and subtask counts.
pub fn schedule(seed: u64, seconds: u64) -> Vec<(u64, u32)> {
    let mut rng = Rng::new(seed, 0xFA_2007);
    let due = rng.bursts(RATE, BURST, SPEEDUP, seconds);
    due.into_iter()
        .map(|d| (d, rng.range(1, 64) as u32))
        .collect()
}

/// The body of a request task, run by a pool worker.
fn request_task(
    pool: &Executor,
    req: &Arc<Request>,
    shared: &Arc<Shared>,
    start: Instant,
    spawned: Instant,
) {
    if let Some(slots) = &req.trace {
        slots[2 * req.subtasks as usize]
            .store(ns_since(spawned, Instant::now()), Ordering::Relaxed);
    }
    for i in 0..req.subtasks {
        let (r, sh) = (Arc::clone(req), Arc::clone(shared));
        let t0 = Instant::now();
        let result = pool.spawn(move || subtask(&r, &sh, i, start, t0));
        if let Some(slots) = &req.trace {
            slots[i as usize].store(ns_since(t0, Instant::now()), Ordering::Relaxed);
        }
        if result.is_err() {
            shared.refused.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn subtask(req: &Request, shared: &Shared, i: u32, start: Instant, spawned: Instant) {
    let now = Instant::now();
    if let Some(slots) = &req.trace {
        slots[(req.subtasks + i) as usize].store(ns_since(spawned, now), Ordering::Relaxed);
    }
    // ORDERING: AcqRel on `ran` and `remaining` so the task that takes
    // `remaining` to zero sees every sibling's bit and slot writes, and its
    // Release stores publish them to the generator's Acquire loads.
    if shared.ran[req.id].fetch_or(1 << i, Ordering::AcqRel) & 1 << i != 0 {
        shared.duplicated.fetch_add(1, Ordering::Relaxed);
    }
    if req.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        shared.done_ns[req.id].store(ns_since(start, Instant::now()), Ordering::Release);
        shared.completed.fetch_add(1, Ordering::Release);
    }
}

/// What the generator measured on traced requests.
#[derive(Default)]
struct Generated {
    lag: Vec<u64>,
    inject_ns: Vec<u64>,
    traced: Vec<Arc<Request>>,
}

/// Spawns the requests of `plan` (ids from `first_id`) through `spawner`,
/// each once it is due.
fn generate(
    pool: &Arc<Executor>,
    spawner: &mut Spawner,
    plan: &[(u64, u32)],
    first_id: usize,
    traced: bool,
    shared: &Arc<Shared>,
    start: Instant,
) -> Generated {
    let mut g = Generated::default();
    for (i, &(due_ns, subtasks)) in plan.iter().enumerate() {
        let due = start + Duration::from_nanos(due_ns);
        if let Some(left) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(left);
        }
        let trace = traced.then(|| (0..=2 * subtasks).map(|_| AtomicU64::new(0)).collect());
        let req = Arc::new(Request {
            id: first_id + i,
            subtasks,
            remaining: AtomicU32::new(subtasks),
            trace,
        });
        let (p, r, sh) = (Arc::clone(pool), Arc::clone(&req), Arc::clone(shared));
        let t0 = Instant::now();
        let result = spawner.spawn(move || request_task(&p, &r, &sh, start, t0));
        if traced {
            g.inject_ns.push(ns_since(t0, Instant::now()));
            g.lag.push(ns_since(start, t0).saturating_sub(due_ns));
            g.traced.push(req);
        }
        if result.is_err() {
            shared.refused.fetch_add(1, Ordering::Relaxed);
        }
    }
    g
}

/// Waits until `target` requests completed or the drain limit passed.
fn await_completed(shared: &Shared, target: u64) {
    let limit = Instant::now() + DRAIN_LIMIT;
    while shared.completed.load(Ordering::Acquire) < target && Instant::now() < limit {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One set-up (pool, spawner, warm-up) and, when `timed`, the scheduled run.
struct Trial {
    shared: Arc<Shared>,
    generated: Generated,
    /// Pool counters at the start of the measured phase and at the end.
    stats: [ExecutorStats; 2],
}

fn trial(plan: &[(u64, u32)], timed: Option<&Config>) -> (Setup, Trial) {
    let plan = if timed.is_some() { plan } else { &[] };
    let warm: Vec<(u64, u32)> = (0..WARMUP).map(|i| (0, 1 + (i % 64) as u32)).collect();
    let t0 = Instant::now();
    let pool = Arc::new(Executor::new(ExecutorConfig {
        workers: WORKERS,
        ..ExecutorConfig::default()
    }));
    let mut spawner = pool.try_spawner().expect("a fresh pool has spawner budget");
    let shared = Arc::new(Shared {
        ran: (0..WARMUP + plan.len())
            .map(|_| AtomicU64::new(0))
            .collect(),
        done_ns: (0..WARMUP + plan.len())
            .map(|_| AtomicU64::new(u64::MAX))
            .collect(),
        duplicated: AtomicU64::new(0),
        refused: AtomicU64::new(0),
        completed: AtomicU64::new(0),
    });
    // Warm-up: rounds of requests all due at once, each drained before the
    // next so no backlog outlives the set-up.
    for (round, reqs) in warm.chunks(WARMUP_ROUND).enumerate() {
        let first = round * WARMUP_ROUND;
        generate(&pool, &mut spawner, reqs, first, false, &shared, t0);
        await_completed(&shared, (first + reqs.len()) as u64);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // Traced runs: the first half of the plan untraced, then (once it has
    // drained, so the pool counters are its own) the second half traced.
    let split = match timed {
        Some(cfg) if cfg.trace => plan.len() / 2,
        _ => plan.len(),
    };
    let start = Instant::now();
    let mut stats = [pool.stats(); 2];
    let mut generated = generate(
        &pool,
        &mut spawner,
        &plan[..split],
        WARMUP,
        false,
        &shared,
        start,
    );
    if split < plan.len() {
        await_completed(&shared, (WARMUP + split) as u64);
        stats[0] = pool.stats();
        generated = generate(
            &pool,
            &mut spawner,
            &plan[split..],
            WARMUP + split,
            true,
            &shared,
            start,
        );
    }
    await_completed(&shared, (WARMUP + plan.len()) as u64);
    drop(spawner);
    stats[1] = pool.shutdown();

    let (mut attempted, mut lost) = (0, 0);
    for (&(_, subtasks), ran) in warm.iter().chain(plan).zip(&shared.ran) {
        attempted += 1 + u64::from(subtasks);
        lost += u64::from(subtasks - ran.load(Ordering::Acquire).count_ones());
    }
    let certificates = stats[1].quiescent()
        && stats[1].sources_partition_completed()
        && stats[1].spawned == attempted
        && stats[1].rejected == 0;
    let (dup, refused) = (
        shared.duplicated.load(Ordering::Relaxed),
        shared.refused.load(Ordering::Relaxed),
    );
    if lost + dup + refused > 0 || !certificates {
        eprintln!(
            "task-fanout audit: lost {lost}, duplicated {dup}, refused {refused}, stats {:?}",
            stats[1]
        );
    }
    let failed = lost + dup + refused + u64::from(!certificates);
    let setup = Setup {
        setup_s,
        attempted,
        failed,
    };
    let trial = Trial {
        shared,
        generated,
        stats,
    };
    (setup, trial)
}

pub fn run(cfg: &Config) -> Outcome {
    let plan = schedule(cfg.seed, cfg.seconds);
    let mut out = Outcome::default();
    let (mut setups, mut t) = repeat_setups(&mut out, |timed| trial(&plan, timed.then_some(cfg)));
    let split = if cfg.trace {
        plan.len() / 2
    } else {
        plan.len()
    };
    // Tasks per second and due-to-done latency over `plan[range]`.
    let phase = |range: std::ops::Range<usize>| {
        let (mut tasks, mut end, mut latency) = (0u64, 0u64, Vec::new());
        for (i, &(due, subtasks)) in plan[range.clone()].iter().enumerate() {
            let done = t.shared.done_ns[WARMUP + range.start + i].load(Ordering::Acquire);
            if done != u64::MAX {
                tasks += 1 + u64::from(subtasks);
                end = end.max(done);
                latency.push(done - due);
            }
        }
        let from = if range.start == 0 {
            0
        } else {
            plan[range.start].0
        };
        (
            ratio(tasks as f64, end.saturating_sub(from) as f64 * 1e-9),
            latency,
        )
    };
    let (untraced_rate, mut latency) = phase(0..split);
    if cfg.trace {
        let (traced_rate, _) = phase(split..plan.len());
        let g = &mut t.generated;
        let inject = summarize(&mut g.inject_ns, 1.0);
        let (mut local, mut wait) = (Vec::new(), Vec::new());
        for req in &g.traced {
            let slots = req.trace.as_deref().expect("traced requests carry slots");
            let k = req.subtasks as usize;
            local.extend(slots[..k].iter().map(|a| a.load(Ordering::Relaxed)));
            wait.extend(slots[k..].iter().map(|a| a.load(Ordering::Relaxed)));
        }
        let local = summarize(&mut local, 1.0);
        let wait = summarize(&mut wait, 1e-3);
        out.metric("executor.inject_spawn_ns.p50", inject.p50, "ns");
        out.metric("executor.inject_spawn_ns.p99", inject.p99, "ns");
        out.metric("executor.local_spawn_ns.p50", local.p50, "ns");
        out.metric("executor.local_spawn_ns.p99", local.p99, "ns");
        out.metric("executor.queue_wait_us.p50", wait.p50, "us");
        out.metric("executor.queue_wait_us.p99", wait.p99, "us");
        let [a, b] = t.stats;
        let completed = (b.completed - a.completed) as f64;
        out.metric(
            "executor.from_local_share",
            ratio((b.from_local - a.from_local) as f64, completed),
            "share",
        );
        out.metric(
            "executor.from_injection_share",
            ratio((b.from_injection - a.from_injection) as f64, completed),
            "share",
        );
        out.metric(
            "executor.from_steal_share",
            ratio((b.from_steal - a.from_steal) as f64, completed),
            "share",
        );
        let batches = (b.steal_batches - a.steal_batches) as f64;
        out.metric(
            "executor.stolen_per_batch",
            ratio((b.stolen_tasks - a.stolen_tasks) as f64, batches),
            "1/batch",
        );
        out.metric(
            "executor.parks_per_ktask",
            ratio((b.parks - a.parks) as f64 * 1000.0, completed),
            "1/ktask",
        );
        let lag = summarize(&mut g.lag, 1e-3);
        out.metric("gen.lag_p99_us", lag.p99, "us");
        out.metric("gen.samples", lag.n as f64, "count");
        out.metric(
            "trace.overhead_ratio",
            ratio(untraced_rate, traced_rate),
            "ratio",
        );
    } else {
        out.end_to_end(untraced_rate, &mut latency, &mut setups);
        out.note("mean_rate_per_s", RATE);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded() {
        let a = schedule(4, 5);
        assert_eq!(a, schedule(4, 5));
        assert!(a.iter().all(|&(_, k)| (1..=64).contains(&k)));
        let rate = a.len() as f64 / 5.0;
        assert!((rate - RATE).abs() < RATE * 0.1, "mean rate {rate}");
    }

    #[test]
    fn short_run_is_clean() {
        let out = run(&Config {
            seed: 9,
            seconds: 1,
            trace: true,
        });
        assert_eq!(out.failed, 0);
    }
}
