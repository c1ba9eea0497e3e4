//! Exact traffic parity of the two routings across refactors.
//!
//! * `PerProducer` is driven side by side with a frozen copy of the
//!   original enum-dispatch routing: the same shard for every operation,
//!   and the same `StepSnapshot` — every shared load, store and CAS, bit
//!   for bit — for whole driven histories. The reference drives *raw*
//!   `wfqueue::unbounded::Queue` shards sized by the same capacity formula
//!   and registered in the same lazy first-touch order.
//! * `Nearest` is pinned to literal constants: for every cell of the same
//!   script grid, the `StepSnapshot` and a digest of the responses
//!   recorded before the routing plug-in layer was removed. The queue uses
//!   `PlacementConfig::Flat`, so the scan order, and with it every number,
//!   is the same on every machine.

use wfqueue::unbounded;
use wfqueue_metrics::StepSnapshot;
use wfqueue_shard::{PlacementConfig, Routing, ShardedUnbounded};

// ---------------------------------------------------------------------------
// Frozen PerProducer reference
// ---------------------------------------------------------------------------

/// The original `ShardedQueue` under `PerProducer`, reduced to unbounded
/// shards of `u64`.
struct FrozenSharded {
    shards: Vec<unbounded::Queue<u64>>,
}

impl FrozenSharded {
    fn new(num_shards: usize, max_handles: usize) -> Self {
        let shards = (0..num_shards)
            .map(|s| {
                unbounded::Queue::new(Routing::PerProducer.shard_capacity(
                    max_handles,
                    num_shards,
                    s,
                ))
            })
            .collect();
        FrozenSharded { shards }
    }

    fn handle(&self, index: usize) -> FrozenHandle<'_> {
        FrozenHandle {
            queue: self,
            index,
            inner: (0..self.shards.len()).map(|_| None).collect(),
        }
    }
}

struct FrozenHandle<'q> {
    queue: &'q FrozenSharded,
    index: usize,
    inner: Vec<Option<unbounded::Handle<'q, u64>>>,
}

impl<'q> FrozenHandle<'q> {
    fn pin(&self) -> usize {
        self.index % self.queue.shards.len()
    }

    fn shard(&mut self) -> &mut unbounded::Handle<'q, u64> {
        let s = self.pin();
        if self.inner[s].is_none() {
            self.inner[s] = Some(self.queue.shards[s].register().expect("capacity"));
        }
        self.inner[s].as_mut().expect("just registered")
    }

    fn enqueue(&mut self, value: u64) {
        self.shard().enqueue(value);
    }

    fn dequeue(&mut self) -> Option<u64> {
        self.shard().dequeue()
    }

    fn enqueue_batch(&mut self, values: Vec<u64>) {
        if values.is_empty() {
            return;
        }
        self.shard().enqueue_batch(values);
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<u64>> {
        if count == 0 {
            return Vec::new();
        }
        let responses = self.shard().dequeue_batch(count);
        let mut out: Vec<Option<u64>> = responses.into_iter().flatten().map(Some).collect();
        out.resize_with(count, || None);
        out
    }
}

// ---------------------------------------------------------------------------
// Deterministic script driver
// ---------------------------------------------------------------------------

/// SplitMix64: tiny deterministic generator for the op scripts (no RNG
/// dependency in this crate).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One scripted operation on one of the handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScriptOp {
    Enqueue(u64),
    Dequeue,
    EnqueueBatch(u64, usize),
    DequeueBatch(usize),
}

fn script(seed: u64, len: usize, handles: usize) -> Vec<(usize, ScriptOp)> {
    let mut rng = SplitMix64(seed);
    let mut next_value = 0u64;
    (0..len)
        .map(|_| {
            let h = (rng.next() % handles as u64) as usize;
            let op = match rng.next() % 10 {
                // Enqueue-leaning mix so sweeps hit nonempty and empty
                // shards, batches exercise the multi-shard paths.
                0..=3 => {
                    let v = next_value;
                    next_value += 1;
                    ScriptOp::Enqueue(v)
                }
                4..=6 => ScriptOp::Dequeue,
                7 => {
                    let n = (rng.next() % 5) as usize;
                    let v = next_value;
                    next_value += n as u64;
                    ScriptOp::EnqueueBatch(v, n)
                }
                _ => ScriptOp::DequeueBatch((rng.next() % 5) as usize),
            };
            (h, op)
        })
        .collect()
}

/// Drives `script` through the frozen reference; returns (steps, responses).
fn run_frozen(
    shards: usize,
    handles: usize,
    ops: &[(usize, ScriptOp)],
) -> (StepSnapshot, Vec<Option<u64>>) {
    let q = FrozenSharded::new(shards, handles);
    let mut hs: Vec<FrozenHandle<'_>> = (0..handles).map(|i| q.handle(i)).collect();
    let mut responses = Vec::new();
    let (_, steps) = wfqueue_metrics::measure(|| {
        for &(h, op) in ops {
            match op {
                ScriptOp::Enqueue(v) => hs[h].enqueue(v),
                ScriptOp::Dequeue => responses.push(hs[h].dequeue()),
                ScriptOp::EnqueueBatch(v, n) => {
                    hs[h].enqueue_batch((v..v + n as u64).collect());
                }
                ScriptOp::DequeueBatch(n) => responses.extend(hs[h].dequeue_batch(n)),
            }
        }
    });
    (steps, responses)
}

/// Drives `script` through the current `ShardedQueue` under `routing`.
fn run_refactored(
    routing: Routing,
    shards: usize,
    handles: usize,
    ops: &[(usize, ScriptOp)],
) -> (StepSnapshot, Vec<Option<u64>>) {
    let q: ShardedUnbounded<u64> =
        ShardedUnbounded::new_placed(shards, handles, routing, PlacementConfig::Flat);
    let mut hs = q.handles();
    assert_eq!(hs.len(), handles);
    let mut responses = Vec::new();
    let (_, steps) = wfqueue_metrics::measure(|| {
        for &(h, op) in ops {
            match op {
                ScriptOp::Enqueue(v) => hs[h].enqueue(v),
                ScriptOp::Dequeue => responses.push(hs[h].dequeue()),
                ScriptOp::EnqueueBatch(v, n) => {
                    hs[h].enqueue_batch((v..v + n as u64).collect::<Vec<_>>());
                }
                ScriptOp::DequeueBatch(n) => responses.extend(hs[h].dequeue_batch(n)),
            }
        }
    });
    (steps, responses)
}

/// The script of one grid cell.
fn cell_script(shards: usize, handles: usize, seed: u64) -> Vec<(usize, ScriptOp)> {
    script(seed ^ (shards as u64) << 8, 600, handles)
}

/// FNV-1a over the responses (`None` as 0, `Some(v)` as `v + 1`).
fn digest(responses: &[Option<u64>]) -> u64 {
    responses.iter().fold(0xCBF2_9CE4_8422_2325, |h, r| {
        (h ^ r.map_or(0, |v| v + 1)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The `StepSnapshot` fields in declaration order.
fn fields(s: &StepSnapshot) -> [u64; 8] {
    [
        s.shared_loads,
        s.shared_stores,
        s.cas_success,
        s.cas_failure,
        s.tree_node_visits,
        s.block_allocs,
        s.gc_phases,
        s.help_calls,
    ]
}

// ---------------------------------------------------------------------------
// The parity assertions
// ---------------------------------------------------------------------------

#[test]
fn legacy_policies_match_pre_refactor_steps_exactly() {
    for shards in [1usize, 2, 3, 4] {
        for handles in [1usize, 2, 5] {
            for seed in [1u64, 0xDEAD_BEEF, 0x5EED_5EED] {
                let ops = cell_script(shards, handles, seed);
                let (frozen_steps, frozen_resp) = run_frozen(shards, handles, &ops);
                let (new_steps, new_resp) =
                    run_refactored(Routing::PerProducer, shards, handles, &ops);
                // Identical responses ⇒ the same shard served every
                // operation (values are unique, so a single divergent
                // placement changes some response).
                assert_eq!(
                    frozen_resp, new_resp,
                    "S={shards} p={handles} seed={seed:#x}: \
                     responses diverged — routing decisions differ"
                );
                // Identical StepSnapshot ⇒ byte-for-byte parity of every
                // shared load, store and CAS.
                assert_eq!(
                    frozen_steps, new_steps,
                    "S={shards} p={handles} seed={seed:#x}: step counters diverged"
                );
            }
        }
    }
}

/// `(S, p, seed, StepSnapshot fields, response digest)` of every `Nearest`
/// cell, recorded before the routing plug-in layer was removed.
#[rustfmt::skip]
const NEAREST_PINS: [(usize, usize, u64, [u64; 8], u64); 36] = [
    (1, 1, 0x1, [16097, 85, 2790, 0, 0, 1116, 0, 0], 0x3de4dba840b478a2),
    (1, 1, 0xdeadbeef, [18588, 14, 2845, 0, 0, 1138, 0, 0], 0x9dda74c27d22fa9b),
    (1, 1, 0x5eed5eed, [16316, 90, 2805, 0, 0, 1122, 0, 0], 0xd040da89cd41c30a),
    (1, 2, 0x1, [16541, 85, 2790, 0, 0, 1116, 0, 0], 0x3de4dba840b478a2),
    (1, 2, 0xdeadbeef, [18972, 14, 2845, 0, 0, 1138, 0, 0], 0x9dda74c27d22fa9b),
    (1, 2, 0x5eed5eed, [16736, 90, 2805, 0, 0, 1122, 0, 0], 0xd040da89cd41c30a),
    (1, 5, 0x1, [37682, 85, 6138, 0, 0, 2232, 0, 0], 0x3de4dba840b478a2),
    (1, 5, 0xdeadbeef, [40737, 14, 6259, 0, 0, 2276, 0, 0], 0x9dda74c27d22fa9b),
    (1, 5, 0x5eed5eed, [38201, 90, 6171, 0, 0, 2244, 0, 0], 0xd040da89cd41c30a),
    (2, 1, 0x1, [17700, 136, 3065, 0, 0, 1226, 0, 0], 0xadbd34068043b25d),
    (2, 1, 0xdeadbeef, [18101, 114, 3020, 0, 0, 1208, 0, 0], 0xc5d0d3b2a1e930fb),
    (2, 1, 0x5eed5eed, [19113, 204, 3315, 0, 0, 1326, 0, 0], 0x0dc3a905e4f115ec),
    (2, 2, 0x1, [18411, 201, 3200, 0, 0, 1280, 0, 0], 0xf4a1e0b183660a45),
    (2, 2, 0xdeadbeef, [18106, 164, 3130, 0, 0, 1252, 0, 0], 0xdf770ead874dbdfd),
    (2, 2, 0x5eed5eed, [19729, 272, 3455, 0, 0, 1382, 0, 0], 0x5650e3d5f1d34cc6),
    (2, 5, 0x1, [42798, 200, 7018, 0, 0, 2552, 0, 0], 0xd956043d21ab5bbd),
    (2, 5, 0xdeadbeef, [41003, 138, 6743, 0, 0, 2452, 0, 0], 0x904984701d3e2f92),
    (2, 5, 0x5eed5eed, [46600, 275, 7623, 0, 0, 2772, 0, 0], 0xbbd36898e9a32be0),
    (3, 1, 0x1, [19290, 143, 3255, 0, 0, 1302, 0, 0], 0xd712bad9b4bef2ef),
    (3, 1, 0xdeadbeef, [20372, 234, 3545, 0, 0, 1418, 0, 0], 0x9f963a258743bd94),
    (3, 1, 0x5eed5eed, [20056, 272, 3595, 0, 0, 1438, 0, 0], 0x8b39f4cbb6b0e0fd),
    (3, 2, 0x1, [20115, 217, 3430, 0, 0, 1372, 0, 0], 0xe22d2b60757732c5),
    (3, 2, 0xdeadbeef, [20669, 282, 3640, 0, 0, 1456, 0, 0], 0x3b030b3992f6789e),
    (3, 2, 0x5eed5eed, [20709, 330, 3715, 0, 0, 1486, 0, 0], 0x10c44f270b299db8),
    (3, 5, 0x1, [46105, 234, 7612, 0, 0, 2768, 0, 0], 0x804db51dfde772b0),
    (3, 5, 0xdeadbeef, [49057, 312, 8173, 0, 0, 2972, 0, 0], 0x09a9ef2804c97278),
    (3, 5, 0x5eed5eed, [49537, 366, 8316, 0, 0, 3024, 0, 0], 0xafc7fb428574f7c8),
    (4, 1, 0x1, [20862, 226, 3610, 0, 0, 1444, 0, 0], 0x719bcf37d23b5c36),
    (4, 1, 0xdeadbeef, [20964, 219, 3565, 0, 0, 1426, 0, 0], 0x2f1c2148b5235730),
    (4, 1, 0x5eed5eed, [18807, 61, 3005, 0, 0, 1202, 0, 0], 0x59ca000ba5c01fa2),
    (4, 2, 0x1, [21751, 299, 3760, 0, 0, 1504, 0, 0], 0xa42072e6102a77ef),
    (4, 2, 0xdeadbeef, [21362, 272, 3685, 0, 0, 1474, 0, 0], 0xc2b6227b297e25df),
    (4, 2, 0x5eed5eed, [19145, 113, 3125, 0, 0, 1250, 0, 0], 0xc0fff1fd874b8b44),
    (4, 5, 0x1, [51977, 368, 8624, 0, 0, 3136, 0, 0], 0xd41baefdc1690726),
    (4, 5, 0xdeadbeef, [50554, 331, 8415, 0, 0, 3060, 0, 0], 0x613ffc7ea791341a),
    (4, 5, 0x5eed5eed, [44870, 183, 7249, 0, 0, 2636, 0, 0], 0xf960bd5c4410f658),
];

#[test]
fn nearest_matches_pinned_steps_and_responses() {
    for (shards, handles, seed, steps, digest_pin) in NEAREST_PINS {
        let ops = cell_script(shards, handles, seed);
        let (got_steps, got_resp) = run_refactored(Routing::Nearest, shards, handles, &ops);
        assert_eq!(
            digest(&got_resp),
            digest_pin,
            "S={shards} p={handles} seed={seed:#x}: responses diverged"
        );
        assert_eq!(
            fields(&got_steps),
            steps,
            "S={shards} p={handles} seed={seed:#x}: step counters diverged"
        );
    }
}
