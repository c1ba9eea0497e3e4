//! The `Nearest` scan: per-shard advisory emptiness hints and the
//! hint-guided probe order built from them.
//!
//! A `Nearest` dequeue probes *hinted-nonempty shards nearest first*,
//! using the [`crate::placement::Placement`] scan order of the handle's
//! home shard, then the hinted-empty rest in the same order
//! ([`plan_nearest_scan`]). The second pass is unconditional, so every
//! scan covers all shards and a `None` still witnesses a full sweep. The
//! scan performs no shared read-modify-write: the only shared traffic it
//! adds is `Relaxed` loads of the hint flags.
//!
//! # Hints and memory ordering
//!
//! [`ShardHints`] is one cache-padded `AtomicBool` per shard, accessed
//! with `Relaxed` loads and stores everywhere. That is deliberate and
//! sufficient: hints are *advisory*. A stale `true` costs one wasted
//! probe; a stale `false` only demotes a shard to the scan's second pass —
//! every planned scan still covers all shards, so no value is ever missed
//! and no ordering edge is ever carried through a hint. Correctness never
//! depends on hint freshness, which is exactly what permits the weakest
//! ordering the facade offers. The model replica
//! (`wfqueue_sync::model::protocols::scan_scenario`) checks the claim
//! exhaustively: with the fallback pass seeded out, the checker finds the
//! lost-value schedule; with it intact, every interleaving drains.

use std::fmt;

use crossbeam_utils::CachePadded;
use wfqueue_sync::atomic::{AtomicBool, Ordering};

/// Per-shard "maybe nonempty" hints — one cache-padded flag per shard,
/// maintained by [`Routing::Nearest`](crate::Routing::Nearest) handles and
/// never touched under `PerProducer`.
///
/// A flag is raised after an enqueue lands on the shard and lowered when a
/// probe finds the shard empty. Flags start raised ("unknown" is treated
/// as "maybe nonempty"), so caller-prefilled shards are probed on the
/// first sweep. All accesses are `Relaxed`: the hints set probe *order*,
/// never probe *coverage* — a stale `false` only demotes a shard to the
/// scan's fallback pass, which still probes it.
pub struct ShardHints {
    flags: Box<[CachePadded<AtomicBool>]>,
}

impl ShardHints {
    /// One raised flag per shard.
    #[must_use]
    pub(crate) fn new(num_shards: usize) -> Self {
        ShardHints {
            flags: (0..num_shards)
                .map(|_| CachePadded::new(AtomicBool::new(true)))
                .collect(),
        }
    }

    /// Reads shard `s`'s hint: `false` means a probe recently found it
    /// empty and nothing has been enqueued through a `Nearest` handle
    /// since. Counted as one shared load in the step model.
    #[must_use]
    pub fn maybe_nonempty(&self, s: usize) -> bool {
        wfqueue_metrics::record_shared_load();
        // ORDERING: Relaxed — advisory; a stale read only reorders probes
        // within a scan that covers every shard regardless.
        self.flags[s].load(Ordering::Relaxed)
    }

    /// Raises shard `s`'s hint after an enqueue landed there. Loads before
    /// storing so the steady state (flag already raised) writes nothing —
    /// the common case stays read-only on the hint line.
    pub fn mark_nonempty(&self, s: usize) {
        wfqueue_metrics::record_shared_load();
        // ORDERING: Relaxed — the enqueue itself publishes the value with
        // the queue's own (stronger) protocol; the hint carries no data.
        if !self.flags[s].load(Ordering::Relaxed) {
            wfqueue_metrics::record_shared_store();
            self.flags[s].store(true, Ordering::Relaxed);
        }
    }

    /// Lowers shard `s`'s hint after a probe found it empty.
    pub fn mark_empty(&self, s: usize) {
        wfqueue_metrics::record_shared_store();
        // ORDERING: Relaxed — a racing enqueuer re-raises the flag; the
        // worst interleaving leaves a stale value that only affects probe
        // order, never coverage.
        self.flags[s].store(false, Ordering::Relaxed);
    }

    /// Number of shards covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the hint set is empty (zero shards — never true for a
    /// constructed queue).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }
}

impl fmt::Debug for ShardHints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let raised: Vec<usize> = (0..self.flags.len())
            // ORDERING: Relaxed — Debug introspection.
            .filter(|&s| self.flags[s].load(Ordering::Relaxed))
            .collect();
        f.debug_struct("ShardHints")
            .field("raised", &raised)
            .finish()
    }
}

/// Plans a `Nearest` sweep into `scan`: the shards of `order` (a home
/// shard's nearest-first scan order) whose hint reads raised, in order,
/// then the hinted-empty rest in the same order as a coverage fallback.
/// Reads each hint exactly once, in `order`.
pub(crate) fn plan_nearest_scan(order: &[usize], hints: &ShardHints, scan: &mut Vec<usize>) {
    scan.clear();
    scan.extend_from_slice(order);
    // Stable partition in place: `scan[..raised]` holds the hinted-nonempty
    // shards seen so far and `scan[raised..k]` the hinted-empty ones, both
    // in `order`; rotating moves shard `k` to the end of the first group.
    let mut raised = 0;
    for k in 0..scan.len() {
        if hints.maybe_nonempty(scan[k]) {
            scan[raised..=k].rotate_right(1);
            raised += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementConfig;

    #[test]
    fn hints_start_raised_and_toggle() {
        let h = ShardHints::new(3);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert!(h.maybe_nonempty(1));
        h.mark_empty(1);
        assert!(!h.maybe_nonempty(1));
        h.mark_nonempty(1);
        assert!(h.maybe_nonempty(1));
        assert!(format!("{h:?}").contains("raised"));
    }

    #[test]
    fn hint_steps_are_counted() {
        let h = ShardHints::new(1);
        let (_, d) = wfqueue_metrics::measure(|| {
            assert!(h.maybe_nonempty(0)); // 1 load
            h.mark_nonempty(0); // raised already: 1 load, no store
            h.mark_empty(0); // 1 store
            h.mark_nonempty(0); // lowered: 1 load + 1 store
        });
        assert_eq!(d.shared_loads, 3);
        assert_eq!(d.shared_stores, 2);
    }

    #[test]
    fn nearest_scan_puts_hinted_empty_shards_last() {
        let placement = PlacementConfig::Flat.resolve(4);
        let hints = ShardHints::new(4);
        let mut scan = Vec::new();
        hints.mark_empty(1);
        hints.mark_empty(2);
        let (_, steps) = wfqueue_metrics::measure(|| {
            plan_nearest_scan(placement.scan_order(0), &hints, &mut scan);
        });
        assert_eq!(scan, [0, 3, 1, 2], "hinted-empty demoted, all covered");
        assert_eq!(steps.shared_loads, 4, "one hint read per shard");
        hints.mark_empty(0);
        plan_nearest_scan(placement.scan_order(2), &hints, &mut scan);
        assert_eq!(scan, [3, 2, 0, 1], "both groups keep nearest-first order");
    }

    #[test]
    fn nearest_scan_respects_domain_order() {
        let placement = PlacementConfig::Uniform {
            cpus: 8,
            domains: 2,
        }
        .resolve(4);
        let hints = ShardHints::new(4);
        let mut scan = Vec::new();
        plan_nearest_scan(placement.scan_order(0), &hints, &mut scan);
        assert_eq!(scan, placement.scan_order(0));
    }
}
