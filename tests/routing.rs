//! Cross-crate behaviour of the contention-aware `Nearest` scan: a
//! Wing–Gong linearizability round against the composite at `S = 1`,
//! where it must be one linearizable FIFO, per-shard sub-histories for
//! `S > 1`, and the stranded-value scenario the scan exists for. The
//! multi-threaded adversarial-scheduler FIFO hunt covers `Nearest` too
//! (`tests/sharded.rs`).

use wfqueue_harness::lincheck::{self, Event, Op};
use wfqueue_harness::queue_api::{PlacementConfig, Routing, WfShardedUnbounded};
use wfqueue_shard::ShardedUnbounded;

// ---------------------------------------------------------------------------
// Wing–Gong rounds against the contention-aware scan
// ---------------------------------------------------------------------------

/// The shard a recorded value lives on under `Nearest`: `record_history`
/// tags the producing thread in the upper bits, and handle `i` pins to
/// shard `i % S`.
fn shard_of(value: u32, shards: usize) -> usize {
    ((value >> 16) as usize) % shards
}

#[test]
fn wing_gong_nearest_composite_s1() {
    // At S = 1 the nearest scan degenerates to "probe the one shard":
    // the composite must be one linearizable FIFO.
    for round in 0..10u64 {
        let q = WfShardedUnbounded::new_placed(1, 3, Routing::Nearest, PlacementConfig::Flat);
        let h = lincheck::record_history(&q, 3, 4, 500, round * 17 + 3);
        assert_eq!(h.len(), 12);
        lincheck::check_linearizable(&h).unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}

#[test]
fn wing_gong_nearest_per_shard_sub_histories() {
    // For S > 1: per-shard sub-histories of concurrent runs against the
    // hint-guided scan are linearizable — the hints are advisory and the
    // fallback pass keeps every probe an ordinary shard dequeue, so each
    // shard's history is exactly a history of that wait-free queue.
    for shards in [2usize, 3] {
        for round in 0..12u64 {
            let q =
                WfShardedUnbounded::new_placed(shards, 4, Routing::Nearest, PlacementConfig::Flat);
            let history = lincheck::record_history(&q, 4, 4, 500, round * 31 + 7);
            for s in 0..shards {
                let sub: Vec<Event> = history
                    .iter()
                    .copied()
                    .filter(|e| match e.op {
                        Op::Enqueue(v) | Op::Dequeue(Some(v)) => shard_of(v, shards) == s,
                        Op::Dequeue(None) => false,
                    })
                    .collect();
                lincheck::check_linearizable(&sub)
                    .unwrap_or_else(|e| panic!("S={shards} shard {s} round {round}: {e}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hint sanity
// ---------------------------------------------------------------------------

#[test]
fn nearest_scan_finds_values_other_policies_leave_stranded() {
    // The scenario the contention-aware scan exists for: values parked on
    // a far shard while the consumer's own shard stays empty. PerProducer
    // never finds them; Nearest always does (fallback pass covers
    // hinted-empty shards too).
    let q: ShardedUnbounded<u64> =
        ShardedUnbounded::new_placed(4, 4, Routing::Nearest, PlacementConfig::Flat);
    let mut handles = q.handles();
    handles[3].enqueue(42);
    // Consumer 0's home (shard 0) is empty; hints say only shard 3 may
    // hold values, so the scan probes it early and finds the value.
    assert_eq!(handles[0].dequeue(), Some(42));
    // And a full empty scan lowers every hint without losing coverage.
    assert_eq!(handles[0].dequeue(), None);
    for s in 0..4 {
        assert!(!q.hints().maybe_nonempty(s));
    }
}
